"""Lowering: walk a trained model, record the lazy IR graph.

:func:`lower_model` understands the three architectures the repo builds
(:class:`~repro.models.resnet.ResNet`,
:class:`~repro.models.simple.SimpleCNN`,
:class:`~repro.models.simple.MLP`) across all four hardware variants
(fp32 / quant / ams / ams_eval): the factory-produced compute units are
``Sequential(conv-or-linear, *probes, [injector])`` and the lowering
peels them apart into fine-grained :class:`~repro.compile.ir.Node`
records — ``conv``, ``probe``, ``noise``, ``bn``, ``act`` — in the
exact order the interpreter would execute them (noise nodes make order
part of the numerical contract).

Weights are DoReFa-quantized exactly once here (under ``no_grad``, via
the layer's own ``quantized_weight`` so the eval-mode memo cache warms
too).  Nothing executes at lowering time; fusion and kernel lowering
happen later, in :mod:`repro.compile.schedule`.  Anything the lowering
does not recognize raises :class:`~repro.errors.CompileError`; callers
that want a silent fallback to the interpreter use
:func:`repro.compile.maybe_compiled`.

:func:`compile_model` is the one-call convenience that lowers and then
realizes through :func:`repro.compile.schedule.realize`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.ams.models import AMSErrorInjector
from repro.compile.ir import ActSpec, Graph
from repro.errors import CompileError
from repro.models.resnet import BasicBlock, Bottleneck, ResNet, _Downsample
from repro.models.simple import MLP, SimpleCNN
from repro.nn.activation import ClippedReLU, Dropout, Identity, ReLU
from repro.nn.batchnorm import BatchNorm2d
from repro.nn.container import Sequential
from repro.nn.conv import Conv2d
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from repro.quant.qmodules import (
    InputQuantizer,
    QuantClippedReLU,
    QuantConv2d,
    QuantLinear,
)
from repro.tensor.tensor import no_grad

_ACT_TYPES = (ReLU, ClippedReLU, QuantClippedReLU, Identity)


def _pair(value: Union[int, Tuple[int, int]]) -> Tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    return (int(value[0]), int(value[1]))


def _act_spec(module: Optional[Module]) -> Optional[ActSpec]:
    """The :class:`ActSpec` replaying ``module``'s activation, or None."""
    if module is None or isinstance(module, Identity):
        return None
    if isinstance(module, QuantClippedReLU):
        return ActSpec("quant_clip", ceiling=module.ceiling, bx=module.bx)
    if isinstance(module, ClippedReLU):
        return ActSpec("clip", ceiling=module.ceiling)
    if isinstance(module, ReLU):
        return ActSpec("relu")
    raise CompileError(f"no lowering for activation {module!r}")


def _parse_unit(unit: Module, leaf_type) -> Tuple[Module, List, Optional[AMSErrorInjector]]:
    """Split a factory compute unit into (layer, probes, injector)."""
    from repro.train.hooks import Probe

    if not isinstance(unit, Sequential):
        raise CompileError(
            f"expected a Sequential compute unit, got {type(unit).__name__}"
        )
    children = list(unit)
    if not children or not isinstance(children[0], leaf_type):
        raise CompileError(
            f"compute unit does not start with a {leaf_type.__name__}"
        )
    probes: List[Probe] = []
    injector: Optional[AMSErrorInjector] = None
    for child in children[1:]:
        if isinstance(child, Probe) and injector is None:
            probes.append(child)
        elif isinstance(child, AMSErrorInjector) and injector is None:
            injector = child
        else:
            raise CompileError(
                f"unexpected module {type(child).__name__} in compute unit"
            )
    if injector is not None and not injector.model.compiled_safe:
        # Declared un-compilable error model: the run must fall back to
        # the interpreter *visibly* — maybe_compiled reads the reason
        # attribute and labels the fallback metric/warning with it.
        exc = CompileError(
            f"error model {injector.model.name!r} declares "
            "compiled_safe=False; the compiled executor cannot host it"
        )
        exc.reason = "error_model"
        raise exc
    return children[0], probes, injector


def _conv_weight(conv: Conv2d) -> np.ndarray:
    if isinstance(conv, QuantConv2d):
        return conv.quantized_weight().data
    return conv.weight.data


def _linear_weight(layer: Linear) -> np.ndarray:
    if isinstance(layer, QuantLinear):
        return layer.quantized_weight().data
    return layer.weight.data


def _record_conv(
    graph: Graph, unit: Module, bn: Optional[BatchNorm2d], act: Optional[Module]
) -> None:
    """Record conv -> probes -> noise -> bn -> act, interpreter order."""
    conv, probes, injector = _parse_unit(unit, Conv2d)
    if bn is not None and not isinstance(bn, BatchNorm2d):
        raise CompileError(f"cannot fuse {type(bn).__name__} after a conv")
    graph.add(
        "conv",
        w_mat=_conv_weight(conv).reshape(conv.out_channels, -1),
        bias=conv.bias,
        kernel=conv.kernel_size,
        stride=_pair(conv.stride),
        padding=_pair(conv.padding),
    )
    for probe in probes:
        graph.add("probe", probe=probe)
    if injector is not None:
        graph.add("noise", injector=injector)
    if bn is not None:
        graph.add("bn", bn=bn)
    spec = _act_spec(act)
    if spec is not None:
        graph.add("act", act=spec)


def _record_linear(graph: Graph, unit: Module) -> None:
    layer, probes, injector = _parse_unit(unit, Linear)
    graph.add("linear", w=_linear_weight(layer), bias=layer.bias)
    for probe in probes:
        graph.add("probe", probe=probe)
    if injector is not None:
        graph.add("noise", injector=injector)


def _record_adapter(graph: Graph, adapter: Module) -> None:
    if isinstance(adapter, InputQuantizer):
        graph.add("input_quant", module=adapter)
    elif isinstance(adapter, Identity):
        pass
    else:
        raise CompileError(
            f"no lowering for input adapter {type(adapter).__name__}"
        )


def _record_block(graph: Graph, block: Module) -> None:
    main = Graph()
    if isinstance(block, BasicBlock):
        _record_conv(main, block.conv1, block.bn1, block.act1)
        _record_conv(main, block.conv2, block.bn2, None)
        final_act = block.act2
    elif isinstance(block, Bottleneck):
        _record_conv(main, block.conv1, block.bn1, block.act1)
        _record_conv(main, block.conv2, block.bn2, block.act2)
        _record_conv(main, block.conv3, block.bn3, None)
        final_act = block.act3
    else:
        raise CompileError(f"unknown residual block {type(block).__name__}")
    downsample = None
    if block.downsample is not None:
        if not isinstance(block.downsample, _Downsample):
            raise CompileError(
                f"unknown downsample {type(block.downsample).__name__}"
            )
        downsample = Graph()
        _record_conv(
            downsample, block.downsample.conv, block.downsample.bn, None
        )
    graph.add(
        "residual", main=main, downsample=downsample, act=_act_spec(final_act)
    )


def _record_head(graph: Graph, pool: Module, fc: Module) -> None:
    """The shared GAP -> flatten -> classifier tail of the conv nets."""
    if not isinstance(pool, GlobalAvgPool2d):
        raise CompileError(f"no lowering for pool {type(pool).__name__}")
    # Flatten after global pooling is an identity reshape of (N, C).
    graph.add("global_pool")
    _record_linear(graph, fc)


def _lower_resnet(model: ResNet) -> Graph:
    graph = Graph()
    _record_adapter(graph, model.input_adapter)
    _record_conv(graph, model.stem_conv, model.stem_bn, model.stem_act)
    if model.stem_pool is not None:
        graph.add("module", module=model.stem_pool)
    for block in model.blocks:
        _record_block(graph, block)
    _record_head(graph, model.pool, model.fc)
    return graph


def _lower_simple_cnn(model: SimpleCNN) -> Graph:
    graph = Graph()
    _record_adapter(graph, model.input_adapter)
    children = list(model.features)
    i = 0
    while i < len(children):
        child = children[i]
        if isinstance(child, Sequential) and len(child) and isinstance(
            child[0], Conv2d
        ):
            bn = None
            act = None
            j = i + 1
            if j < len(children) and isinstance(children[j], BatchNorm2d):
                bn = children[j]
                j += 1
            if j < len(children) and isinstance(children[j], _ACT_TYPES):
                act = children[j]
                j += 1
            _record_conv(graph, child, bn, act)
            i = j
        elif isinstance(child, (MaxPool2d, AvgPool2d)):
            graph.add("module", module=child)
            i += 1
        elif isinstance(child, (Dropout, Identity)):
            i += 1  # identity in eval mode
        else:
            raise CompileError(
                f"no lowering for feature layer {type(child).__name__}"
            )
    _record_head(graph, model.pool, model.fc)
    return graph


def _lower_mlp(model: MLP) -> Graph:
    graph = Graph()
    graph.add("flatten")
    for child in model.hidden:
        if isinstance(child, Sequential):
            _record_linear(graph, child)
        elif isinstance(child, _ACT_TYPES):
            spec = _act_spec(child)
            if spec is not None:
                graph.add("act", act=spec)
        elif isinstance(child, Dropout):
            continue  # identity in eval mode
        else:
            raise CompileError(
                f"no lowering for hidden layer {type(child).__name__}"
            )
    _record_linear(graph, model.fc)
    return graph


def lower_model(model: Module) -> Graph:
    """Record ``model``'s eval-mode forward pass as an IR :class:`Graph`.

    The model is put in eval mode first — compiled semantics are
    inference semantics (batch-norm running statistics, eval-time
    injection policies).  Raises :class:`~repro.errors.CompileError`
    for architectures or layers without a lowering.
    """
    model.eval()
    with no_grad():
        if isinstance(model, ResNet):
            return _lower_resnet(model)
        if isinstance(model, SimpleCNN):
            return _lower_simple_cnn(model)
        if isinstance(model, MLP):
            return _lower_mlp(model)
    raise CompileError(f"no lowering for architecture {type(model).__name__}")


def compile_model(model: Module):
    """Lower ``model`` and realize it as a :class:`CompiledModel`.

    Raises :class:`~repro.errors.CompileError` for architectures or
    layers without a lowering.
    """
    from repro.compile import model_fingerprint
    from repro.compile.schedule import realize

    graph = lower_model(model)
    return realize(graph, fingerprint=model_fingerprint(model))
