"""Lazy intermediate representation recorded by the lowering pass.

The compiler no longer emits executable kernels directly.  Lowering a
model (:func:`repro.compile.compiler.lower_model`) *records* what the
interpreted forward pass would do as a :class:`Graph` of fine-grained
:class:`Node` objects — one node per logical operation (convolution,
batch norm, activation, AMS noise draw, probe observation, pooling,
...).  Nothing executes at record time.

A second pass (:mod:`repro.compile.schedule`) fuses adjacent nodes into
the fused ops the kernels implement and realizes the fused tape
through :mod:`repro.compile.kernels`.

Nodes are deliberately dumb: a ``kind`` string plus an attribute dict.
Weight-bearing nodes carry *materialized* numpy arrays (weights are
DoReFa-quantized once, at record time, exactly as the one-pass
compiler did) and live references to the stateful modules whose
runtime state matters (batch-norm statistics, probes, injector RNG
streams) so the bit-identity contract of the reference kernels can
reach through to them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "ActSpec",
    "Graph",
    "Node",
    "NODE_KINDS",
]

#: Every node kind the lowering pass may record.  The scheduler and the
#: kernels validate against this set so a new kind cannot be added in
#: one layer and silently dropped in another.
NODE_KINDS = (
    "input_quant",  # first-layer input treatment (InputQuantizer)
    "conv",         # im2col-GEMM convolution, weights pre-quantized
    "linear",       # GEMM linear layer, weights pre-quantized
    "bn",           # eval-mode batch norm over NCHW
    "act",          # activation (relu / clip / quant_clip)
    "noise",        # AMS error injection (additive, RNG-stateful)
    "probe",        # statistics probe observing the live activation
    "flatten",      # collapse trailing dims to (N, F)
    "global_pool",  # global average pooling to (N, C)
    "module",       # interpreter fallback for an un-lowered module
    "residual",     # residual block: main/downsample subgraphs + add
)


class ActSpec:
    """A lowered activation function.

    ``kind`` is one of ``"relu"``, ``"clip"``, ``"quant_clip"``;
    ``ceiling`` / ``bx`` carry the clipped-ReLU ceiling and DoReFa
    activation bit width where they apply.
    """

    __slots__ = ("kind", "ceiling", "bx")

    def __init__(self, kind: str, ceiling: float = 0.0, bx: int = 0):
        if kind not in ("relu", "clip", "quant_clip"):
            raise ValueError(f"unknown activation kind {kind!r}")
        self.kind = kind
        self.ceiling = float(ceiling)
        self.bx = int(bx)

    def __repr__(self) -> str:
        if self.kind == "relu":
            return "ActSpec(relu)"
        if self.kind == "clip":
            return f"ActSpec(clip, ceiling={self.ceiling})"
        return f"ActSpec(quant_clip, bx={self.bx}, ceiling={self.ceiling})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ActSpec)
            and (self.kind, self.ceiling, self.bx)
            == (other.kind, other.ceiling, other.bx)
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.ceiling, self.bx))


class Node:
    """One recorded operation: a kind tag plus keyword attributes."""

    __slots__ = ("kind", "attrs")

    def __init__(self, kind: str, **attrs: Any):
        if kind not in NODE_KINDS:
            raise ValueError(f"unknown IR node kind {kind!r}")
        self.kind = kind
        self.attrs: Dict[str, Any] = attrs

    def __getattr__(self, name: str) -> Any:
        try:
            return self.attrs[name]
        except KeyError:
            raise AttributeError(
                f"{self.kind} node has no attribute {name!r}"
            ) from None

    def __repr__(self) -> str:
        keys = ",".join(sorted(self.attrs))
        return f"Node({self.kind}{':' if keys else ''}{keys})"


class Graph:
    """An ordered list of :class:`Node` — the recorded forward pass.

    Execution order *is* program order: the networks the repo builds
    are straight-line (residual blocks nest their branch subgraphs
    inside one ``residual`` node), so a sequence is the whole story and
    the scheduler never has to re-derive a topological order.  Noise
    nodes make order part of the numerical contract — injector RNG
    streams are sequential — which is why the IR preserves it
    explicitly instead of leaving it to a dict's whims.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes: Optional[List[Node]] = None):
        self.nodes: List[Node] = list(nodes) if nodes else []

    def add(self, kind: str, **attrs: Any) -> Node:
        """Append a new node; returns it for further decoration."""
        node = Node(kind, **attrs)
        self.nodes.append(node)
        return node

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def kinds(self) -> Tuple[str, ...]:
        """The node-kind sequence (handy for tests and debugging)."""
        return tuple(node.kind for node in self.nodes)

    def describe(self, indent: str = "") -> str:
        """A readable one-line-per-node dump, recursing into blocks."""
        lines: List[str] = []
        for i, node in enumerate(self.nodes):
            lines.append(f"{indent}{i}: {node.kind}")
            if node.kind == "residual":
                lines.append(f"{indent}  main:")
                lines.append(node.attrs["main"].describe(indent + "    "))
                down = node.attrs.get("downsample")
                if down is not None:
                    lines.append(f"{indent}  downsample:")
                    lines.append(down.describe(indent + "    "))
        return "\n".join(lines)
