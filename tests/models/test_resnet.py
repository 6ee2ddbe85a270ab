"""Tests for the ResNet architectures."""

import numpy as np
import pytest

from repro.ams.models import AMSErrorInjector
from repro.ams.vmac import VMACConfig
from repro.errors import ConfigError
from repro.models import (
    AMSFactory,
    BasicBlock,
    Bottleneck,
    DoReFaFactory,
    FP32Factory,
    ResNet,
    count_conv_layers,
    resnet50,
    resnet_small,
)
from repro.nn.batchnorm import BatchNorm2d
from repro.quant import QuantConfig
from repro.tensor.tensor import Tensor, no_grad


def x(shape, seed=0):
    return Tensor(
        np.random.default_rng(seed).standard_normal(shape).astype(np.float32)
    )


class TestResNet50Fidelity:
    """The paper's network must be byte-for-byte structurally faithful."""

    def test_parameter_count_matches_torchvision(self):
        """torchvision's resnet50 has exactly 25,557,032 parameters."""
        assert resnet50().num_parameters() == 25_557_032

    def test_conv_count_matches_paper(self):
        """The paper counts '53 convolutional layers ... (including
        downsampling layers)'."""
        assert count_conv_layers(resnet50()) == 53

    def test_forward_shape_imagenet(self):
        model = resnet50()
        model.eval()
        with no_grad():
            out = model(x((1, 3, 64, 64)))
        assert out.shape == (1, 1000)

    def test_stage_structure(self):
        model = resnet50()
        assert len(model.blocks) == 3 + 4 + 6 + 3
        assert model.feature_dim == 2048


class TestResNetSmall:
    def test_conv_count(self):
        assert count_conv_layers(resnet_small()) == 9

    def test_forward_shape(self):
        model = resnet_small(num_classes=7)
        model.eval()
        with no_grad():
            out = model(x((2, 3, 16, 16)))
        assert out.shape == (2, 7)

    def test_deeper_variant(self):
        model = resnet_small(blocks_per_stage=2)
        # 1 stem + 3 stages * 2 blocks * 2 convs + 2 downsample convs
        assert count_conv_layers(model) == 15

    def test_trains_one_step(self):
        from repro.optim import SGD
        from repro.tensor import functional as F

        model = resnet_small(num_classes=4)
        opt = SGD(model.parameters(), lr=0.01)
        inp = x((8, 3, 16, 16))
        labels = np.arange(8) % 4
        before = F.cross_entropy(model(inp), labels).item()
        for _ in range(5):
            opt.zero_grad()
            loss = F.cross_entropy(model(inp), labels)
            loss.backward()
            opt.step()
        after = F.cross_entropy(model(inp), labels).item()
        assert after < before

    def test_mismatched_stage_lists_rejected(self):
        with pytest.raises(ConfigError):
            ResNet(
                FP32Factory(), BasicBlock, [1, 1], [16], num_classes=2,
                imagenet_stem=False,
            )


class TestBlocks:
    def test_basic_block_identity_shortcut(self):
        block = BasicBlock(FP32Factory(seed=0), 8, 8, stride=1)
        assert block.downsample is None

    def test_basic_block_projection_on_stride(self):
        block = BasicBlock(FP32Factory(seed=0), 8, 8, stride=2)
        assert block.downsample is not None

    def test_basic_block_projection_on_width_change(self):
        block = BasicBlock(FP32Factory(seed=0), 8, 16, stride=1)
        assert block.downsample is not None

    def test_bottleneck_expansion(self):
        block = Bottleneck(FP32Factory(seed=0), 64, 64, stride=1)
        out = block(x((1, 64, 8, 8)))
        assert out.shape == (1, 256, 8, 8)

    def test_bn_after_every_conv(self):
        model = resnet_small()
        bns = [m for m in model.modules() if isinstance(m, BatchNorm2d)]
        assert len(bns) == count_conv_layers(model)


class TestFactoryVariants:
    def test_ams_model_has_injector_per_compute_layer(self):
        model = resnet_small(
            AMSFactory(QuantConfig(8, 8), VMACConfig(enob=8, nmult=8), seed=0),
            num_classes=4,
        )
        injectors = [
            m for m in model.modules() if isinstance(m, AMSErrorInjector)
        ]
        assert len(injectors) == 9 + 1  # every conv + the classifier

    def test_injector_ntot_matches_layer_fanin(self):
        model = resnet_small(
            AMSFactory(QuantConfig(8, 8), VMACConfig(enob=8, nmult=8), seed=0),
            num_classes=4,
        )
        stem_injector = model.stem_conv[-1]
        assert isinstance(stem_injector, AMSErrorInjector)
        assert stem_injector.ntot == 3 * 3 * 3
        fc_injector = model.fc[-1]
        assert fc_injector.ntot == model.feature_dim

    def test_last_layer_policy_default(self):
        """The paper's workaround: no last-layer error during training."""
        model = resnet_small(
            AMSFactory(QuantConfig(8, 8), VMACConfig(enob=8, nmult=8), seed=0),
            num_classes=4,
        )
        fc_injector = model.fc[-1]
        assert not fc_injector.policy.in_training
        assert fc_injector.policy.in_eval
        conv_injector = model.stem_conv[-1]
        assert conv_injector.policy.in_training

    def test_inject_last_in_training_flag(self):
        model = resnet_small(
            AMSFactory(
                QuantConfig(8, 8),
                VMACConfig(enob=8, nmult=8),
                seed=0,
                inject_last_in_training=True,
            ),
            num_classes=4,
        )
        assert model.fc[-1].policy.in_training

    def test_describe_strings(self):
        assert FP32Factory().describe() == "fp32"
        assert "dorefa" in DoReFaFactory(QuantConfig(6, 4)).describe()
        ams = AMSFactory(QuantConfig(8, 8), VMACConfig(enob=9, nmult=16))
        assert "enob=9" in ams.describe()

    def test_eval_model_output_is_noisy(self):
        model = resnet_small(
            AMSFactory(QuantConfig(8, 8), VMACConfig(enob=6, nmult=8), seed=0),
            num_classes=4,
        )
        model.eval()
        inp = x((1, 3, 16, 16))
        with no_grad():
            out1 = model(inp).data.copy()
            out2 = model(inp).data.copy()
        assert not np.allclose(out1, out2)

    def test_quant_model_deterministic(self):
        model = resnet_small(DoReFaFactory(QuantConfig(8, 8), seed=0),
                             num_classes=4)
        model.eval()
        inp = x((1, 3, 16, 16))
        with no_grad():
            np.testing.assert_array_equal(
                model(inp).data, model(inp).data
            )
