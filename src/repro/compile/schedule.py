"""Scheduler: fuse the recorded IR and realize it into reference kernels.

The lowering pass (:mod:`repro.compile.compiler`) records fine-grained
:class:`~repro.compile.ir.Node` objects; this module turns them into an
executable :class:`~repro.compile.runtime.CompiledModel` in two stages:

1. **Fusion** (:func:`fuse_graph`): adjacent nodes are merged into
   :class:`FusedOp` records — ``conv [probe*] [noise] [bn] [act]``
   becomes one ``conv`` FusedOp, ``linear [probe*] [noise]`` one
   ``linear`` FusedOp.  The pattern is exactly the interpreter's
   execution order, so fusion never reorders a noise draw.
2. **Realization** (:func:`realize`): each FusedOp is lowered to the
   bit-identical kernel step :func:`repro.compile.kernels.lower_op`
   builds.  Residual blocks are control flow, not compute: the
   scheduler recurses into their branch subgraphs and emits a
   :class:`~repro.compile.runtime.ResidualStep`.

Per-realize telemetry lands in the default metric registry: the
``compile.realize_seconds`` histogram and the
``compile.steps_realized`` counter.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.compile.ir import ActSpec, Graph, Node
from repro.compile.kernels import lower_act, lower_op
from repro.compile.runtime import CompiledModel, ResidualStep
from repro.errors import CompileError

__all__ = [
    "FusedOp",
    "fuse_graph",
    "realize",
]

#: FusedOp kinds the kernel lowering dispatches on.
FUSED_KINDS = (
    "input_quant",
    "conv",
    "linear",
    "act",
    "flatten",
    "global_pool",
    "module",
)


class FusedOp:
    """One schedulable unit of compute after fusion.

    ``kind`` is one of :data:`FUSED_KINDS`; ``attrs`` carries the
    merged attributes of the fused nodes (a ``conv`` FusedOp holds
    ``w_mat / bias / kernel / stride / padding / probes / injector /
    bn / act``).  The kernel lowering receives FusedOps and returns
    executable steps — it never sees raw IR nodes.
    """

    __slots__ = ("kind", "attrs")

    def __init__(self, kind: str, **attrs: Any):
        if kind not in FUSED_KINDS:
            raise CompileError(f"unknown fused-op kind {kind!r}")
        self.kind = kind
        self.attrs: Dict[str, Any] = attrs

    def __getattr__(self, name: str) -> Any:
        try:
            return self.attrs[name]
        except KeyError:
            raise AttributeError(
                f"{self.kind} fused op has no attribute {name!r}"
            ) from None

    def __repr__(self) -> str:
        return f"FusedOp({self.kind})"


#: A scheduled tape entry: either a FusedOp or a residual-block record
#: ``("residual", main_tape, downsample_tape_or_None, act_spec)``.
_ResidualEntry = Tuple[str, List, Optional[List], Optional[ActSpec]]


def _fuse_conv(nodes: Sequence[Node], start: int) -> Tuple[FusedOp, int]:
    """Absorb ``probe* noise? bn? act?`` following the conv at ``start``."""
    conv = nodes[start]
    probes: List = []
    injector = None
    bn = None
    act = None
    i = start + 1
    while i < len(nodes) and nodes[i].kind == "probe":
        probes.append(nodes[i].attrs["probe"])
        i += 1
    if i < len(nodes) and nodes[i].kind == "noise":
        injector = nodes[i].attrs["injector"]
        i += 1
    if i < len(nodes) and nodes[i].kind == "bn":
        bn = nodes[i].attrs["bn"]
        i += 1
    if i < len(nodes) and nodes[i].kind == "act":
        act = nodes[i].attrs["act"]
        i += 1
    return (
        FusedOp(
            "conv",
            w_mat=conv.attrs["w_mat"],
            bias=conv.attrs["bias"],
            kernel=conv.attrs["kernel"],
            stride=conv.attrs["stride"],
            padding=conv.attrs["padding"],
            probes=probes,
            injector=injector,
            bn=bn,
            act=act,
        ),
        i,
    )


def _fuse_linear(nodes: Sequence[Node], start: int) -> Tuple[FusedOp, int]:
    """Absorb ``probe* noise?`` following the linear at ``start``."""
    linear = nodes[start]
    probes: List = []
    injector = None
    i = start + 1
    while i < len(nodes) and nodes[i].kind == "probe":
        probes.append(nodes[i].attrs["probe"])
        i += 1
    if i < len(nodes) and nodes[i].kind == "noise":
        injector = nodes[i].attrs["injector"]
        i += 1
    return (
        FusedOp(
            "linear",
            w=linear.attrs["w"],
            bias=linear.attrs["bias"],
            probes=probes,
            injector=injector,
        ),
        i,
    )


def fuse_graph(graph: Graph) -> List:
    """Merge adjacent IR nodes into the fused tape the kernels execute.

    Returns a list of :class:`FusedOp` entries, with residual blocks
    represented as ``("residual", main, downsample, act)`` tuples whose
    branch tapes were fused recursively.  A ``bn``/``act``/``probe``/
    ``noise`` node with no preceding conv or linear to fuse into is a
    :class:`~repro.errors.CompileError` — the lowering never records
    one, so hitting it means the IR was hand-built wrong.
    """
    fused: List = []
    nodes = graph.nodes
    i = 0
    while i < len(nodes):
        node = nodes[i]
        if node.kind == "conv":
            op, i = _fuse_conv(nodes, i)
            fused.append(op)
        elif node.kind == "linear":
            op, i = _fuse_linear(nodes, i)
            fused.append(op)
        elif node.kind == "act":
            fused.append(FusedOp("act", act=node.attrs["act"]))
            i += 1
        elif node.kind == "residual":
            main = fuse_graph(node.attrs["main"])
            down = node.attrs.get("downsample")
            fused.append(
                (
                    "residual",
                    main,
                    fuse_graph(down) if down is not None else None,
                    node.attrs.get("act"),
                )
            )
            i += 1
        elif node.kind in ("input_quant", "module"):
            fused.append(FusedOp(node.kind, module=node.attrs["module"]))
            i += 1
        elif node.kind in ("flatten", "global_pool"):
            fused.append(FusedOp(node.kind))
            i += 1
        else:
            raise CompileError(
                f"cannot schedule a dangling {node.kind!r} node "
                "(no preceding conv/linear to fuse it into)"
            )
    return fused


def _lower_tape(tape: List, realized) -> List:
    """Lower every FusedOp of ``tape``, counting each on ``realized``."""
    steps: List = []
    for entry in tape:
        if isinstance(entry, FusedOp):
            steps.append(lower_op(entry))
            realized.inc()
        else:
            _, main, down, act = entry
            steps.append(
                ResidualStep(
                    _lower_tape(main, realized),
                    _lower_tape(down, realized) if down is not None else None,
                    lower_act(act),
                )
            )
    return steps


def realize(graph: Graph, fingerprint=None) -> CompiledModel:
    """Fuse ``graph`` and lower it into the reference kernels."""
    from repro.obs.metrics import default_registry
    from repro.obs.trace import span

    registry = default_registry()
    realized = registry.counter("compile.steps_realized")
    with span("compile.realize") as realize_span:
        steps = _lower_tape(fuse_graph(graph), realized)
    registry.histogram("compile.realize_seconds").observe(
        realize_span.duration_s
    )
    return CompiledModel(steps, fingerprint)
