"""The lazy IR and the scheduler: recording, fusion, realization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile.ir import ActSpec, Graph, Node
from repro.compile.compiler import lower_model
from repro.compile.schedule import FusedOp, fuse_graph, realize
from repro.errors import CompileError
from repro.serve import ModelSpec


class TestIR:
    def test_unknown_node_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown IR node kind"):
            Node("softmax")

    def test_node_attr_access(self):
        node = Node("conv", kernel=(3, 3), stride=(1, 1))
        assert node.kernel == (3, 3)
        with pytest.raises(AttributeError, match="no attribute"):
            node.padding

    def test_graph_preserves_order(self):
        graph = Graph()
        graph.add("conv", w_mat=None)
        graph.add("noise", injector=None)
        graph.add("bn", bn=None)
        graph.add("act", act=ActSpec("relu"))
        assert graph.kinds() == ("conv", "noise", "bn", "act")
        assert len(graph) == 4

    def test_act_spec_equality_and_validation(self):
        assert ActSpec("clip", ceiling=1.0) == ActSpec("clip", ceiling=1.0)
        assert ActSpec("clip", ceiling=1.0) != ActSpec("clip", ceiling=2.0)
        assert ActSpec("relu") != ActSpec("quant_clip", ceiling=1.0, bx=8)
        with pytest.raises(ValueError, match="unknown activation"):
            ActSpec("gelu")


class TestLowering:
    def test_quant_resnet_records_expected_kinds(self, compile_bench):
        spec = ModelSpec("quant", bw=8, bx=8).resolved(compile_bench.config)
        graph = lower_model(compile_bench.build(spec))
        kinds = graph.kinds()
        # input treatment, stem conv(+bn+act recorded separately),
        # residual blocks, head.
        assert kinds[0] == "input_quant"
        assert "conv" in kinds and "bn" in kinds and "act" in kinds
        assert "residual" in kinds
        assert kinds[-2:] == ("global_pool", "linear")

    def test_ams_variant_records_noise_between_conv_and_bn(
        self, compile_bench
    ):
        spec = ModelSpec("ams_eval", enob=4.0).resolved(compile_bench.config)
        graph = lower_model(compile_bench.build(spec))
        kinds = graph.kinds()
        first_conv = kinds.index("conv")
        # Interpreter order: conv -> noise -> bn; the IR must preserve
        # it because the injector RNG stream is part of the contract.
        assert kinds[first_conv : first_conv + 3] == ("conv", "noise", "bn")

    def test_residual_nodes_carry_branch_subgraphs(self, compile_bench):
        spec = ModelSpec("fp32").resolved(compile_bench.config)
        graph = lower_model(compile_bench.build(spec))
        residuals = [n for n in graph if n.kind == "residual"]
        assert residuals
        downsampled = [
            n for n in residuals if n.attrs["downsample"] is not None
        ]
        assert downsampled  # stage transitions project the shortcut
        for node in residuals:
            assert isinstance(node.attrs["main"], Graph)
            assert node.attrs["main"].kinds()[0] == "conv"

    def test_describe_recurses_into_blocks(self, compile_bench):
        spec = ModelSpec("fp32").resolved(compile_bench.config)
        graph = lower_model(compile_bench.build(spec))
        dump = graph.describe()
        assert "residual" in dump and "main:" in dump
        assert "downsample:" in dump


class TestFusion:
    def test_conv_chain_fuses_to_one_op(self):
        graph = Graph()
        graph.add(
            "conv",
            w_mat=np.zeros((4, 27), np.float32),
            bias=None,
            kernel=(3, 3),
            stride=(1, 1),
            padding=(1, 1),
        )
        graph.add("noise", injector="inj")
        graph.add("bn", bn="bn")
        graph.add("act", act=ActSpec("relu"))
        tape = fuse_graph(graph)
        assert len(tape) == 1
        op = tape[0]
        assert isinstance(op, FusedOp) and op.kind == "conv"
        assert op.injector == "inj" and op.bn == "bn"
        assert op.act == ActSpec("relu")

    def test_standalone_act_stays_separate(self):
        graph = Graph()
        graph.add("flatten")
        graph.add("act", act=ActSpec("relu"))
        tape = fuse_graph(graph)
        assert [op.kind for op in tape] == ["flatten", "act"]

    def test_dangling_bn_is_an_error(self):
        graph = Graph()
        graph.add("bn", bn="bn")
        with pytest.raises(CompileError, match="dangling"):
            fuse_graph(graph)

    def test_dangling_noise_is_an_error(self):
        graph = Graph()
        graph.add("flatten")
        graph.add("noise", injector="inj")
        with pytest.raises(CompileError, match="dangling"):
            fuse_graph(graph)

    def test_residual_branches_fuse_recursively(self, compile_bench):
        spec = ModelSpec("quant", bw=8, bx=8).resolved(compile_bench.config)
        graph = lower_model(compile_bench.build(spec))
        tape = fuse_graph(graph)
        residuals = [e for e in tape if isinstance(e, tuple)]
        assert residuals
        kind, main, down, act = residuals[0]
        assert kind == "residual"
        assert all(op.kind == "conv" for op in main)
        assert act is None or isinstance(act, ActSpec)


class TestRealize:
    def test_realize_full_model_round_trip(self, compile_bench, batch):
        spec = ModelSpec("quant", bw=8, bx=8).resolved(compile_bench.config)
        model = compile_bench.build(spec)
        graph = lower_model(model)
        compiled = realize(graph)
        from repro.compile import compile_model

        assert np.array_equal(
            compile_model(model).predict(batch), compiled.predict(batch)
        )

    def test_steps_realized_counters(self, compile_bench):
        from repro.obs.metrics import default_registry

        spec = ModelSpec("quant", bw=8, bx=8).resolved(compile_bench.config)
        graph = lower_model(compile_bench.build(spec))

        def fused_ops(tape):
            return sum(
                fused_ops(e[1]) + fused_ops(e[2] or [])
                if isinstance(e, tuple)
                else 1
                for e in tape
            )

        counter = default_registry().counter("compile.steps_realized")
        before = counter.value
        realize(graph)
        # One increment per fused op, residual branches included.
        assert counter.value == before + fused_ops(fuse_graph(graph))
