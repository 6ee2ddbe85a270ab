"""Base class for all neural-network modules.

Mirrors the small subset of ``torch.nn.Module`` the paper's workflow
needs: parameter/buffer registration via attribute assignment, recursive
iteration, train/eval modes, ``state_dict`` round-tripping, and
``zero_grad``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.nn.parameter import Parameter


class RemovableHandle:
    """Token returned by hook registration; ``remove()`` detaches."""

    _next_key = 0

    def __init__(self, registry: dict):
        self._registry = registry
        self.key = RemovableHandle._next_key
        RemovableHandle._next_key += 1

    def remove(self) -> None:
        self._registry.pop(self.key, None)


class Module:
    """Base class with parameter, buffer and submodule registration.

    Subclasses define layers in ``__init__`` (plain attribute assignment
    registers :class:`Parameter` and :class:`Module` instances
    automatically) and implement :meth:`forward`.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_forward_hooks", {})
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._modules.pop(name, None)
            self._buffers.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
            self._buffers.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable array saved in the state dict
        (e.g. batch-norm running statistics)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError(
            f"{type(self).__name__} does not implement forward()"
        )

    def __call__(self, *args, **kwargs):
        output = self.forward(*args, **kwargs)
        if self._forward_hooks:
            for hook in list(self._forward_hooks.values()):
                hook(self, args, output)
        return output

    def register_forward_hook(self, hook: Callable) -> "RemovableHandle":
        """Call ``hook(module, inputs, output)`` after every forward.

        Returns a handle whose :meth:`~RemovableHandle.remove` detaches
        the hook.  Used by the MAC/energy profiler and available for ad
        hoc instrumentation (persistent probing should prefer
        :class:`~repro.train.hooks.Probe`, which serializes cleanly).
        """
        handle = RemovableHandle(self._forward_hooks)
        self._forward_hooks[handle.key] = hook
        return handle

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------
    def named_modules(
        self, prefix: str = ""
    ) -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` for self and all descendants."""
        yield prefix, self
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def named_parameters(
        self, prefix: str = ""
    ) -> Iterator[Tuple[str, Parameter]]:
        for module_name, module in self.named_modules(prefix):
            for name, param in module._parameters.items():
                qualified = f"{module_name}.{name}" if module_name else name
                yield qualified, param

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for module_name, module in self.named_modules(prefix):
            for name, buf in module._buffers.items():
                qualified = f"{module_name}.{name}" if module_name else name
                yield qualified, buf

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def apply(self, fn: Callable[["Module"], None]) -> "Module":
        """Apply ``fn`` to self and every descendant module."""
        for module in self.modules():
            fn(module)
        return self

    # ------------------------------------------------------------------
    # modes / gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects batch norm, dropout)."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        if mode:
            # Training mutates batch-norm running stats in place, which
            # no parameter version counter observes; bump a generation
            # counter so compiled-model fingerprints go stale.
            object.__setattr__(
                self, "_generation", getattr(self, "_generation", 0) + 1
            )
            if getattr(self, "_compiled_cache", None) is not None:
                # Drop the stale executor now, so its tape arena is
                # freed before training allocates.  No fingerprint is
                # None, so the marker never matches and the next
                # compile still counts as a recompile.
                object.__setattr__(self, "_compiled_cache", (None, None, None))
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def requires_grad_(self, flag: bool = True) -> "Module":
        """Enable/disable gradient accumulation for all parameters.

        Used by the selective-freezing experiments (paper Table 2).
        """
        for param in self.parameters():
            param.requires_grad = flag
        return self

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat mapping of qualified names to arrays (params + buffers)."""
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for name, buf in self.named_buffers():
            state[name] = np.array(buf, copy=True)
        return state

    def load_state_dict(
        self, state: Dict[str, np.ndarray], strict: bool = True
    ) -> None:
        """Load arrays produced by :meth:`state_dict`.

        With ``strict=True`` (default), missing or unexpected keys raise
        :class:`~repro.errors.ConfigError`.
        """
        own_params = dict(self.named_parameters())
        own_buffers = {
            name: (module, local)
            for name, module, local in self._iter_buffer_slots()
        }
        expected = set(own_params) | set(own_buffers)
        provided = set(state)
        if strict:
            missing = expected - provided
            unexpected = provided - expected
            if missing or unexpected:
                raise ConfigError(
                    f"state_dict mismatch: missing={sorted(missing)}, "
                    f"unexpected={sorted(unexpected)}"
                )
        for name, value in state.items():
            if name in own_params:
                param = own_params[name]
                if param.data.shape != value.shape:
                    raise ConfigError(
                        f"shape mismatch for {name}: "
                        f"{param.data.shape} vs {value.shape}"
                    )
                param.data = value.astype(param.data.dtype, copy=True)
                param.version = getattr(param, "version", 0) + 1
            elif name in own_buffers:
                module, local = own_buffers[name]
                current = module._buffers[local]
                if current.shape != value.shape:
                    raise ConfigError(
                        f"shape mismatch for buffer {name}: "
                        f"{current.shape} vs {value.shape}"
                    )
                # In-place so views held by the module stay valid.
                current[...] = value
            elif strict:
                raise ConfigError(f"unexpected key {name}")
        # Buffers were overwritten in place; invalidate value-keyed caches.
        object.__setattr__(
            self, "_generation", getattr(self, "_generation", 0) + 1
        )

    def _iter_buffer_slots(self):
        for module_name, module in self.named_modules():
            for local, _ in module._buffers.items():
                qualified = f"{module_name}.{local}" if module_name else local
                yield qualified, module, local

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        lines = [type(self).__name__ + "("]
        for name, child in self._modules.items():
            child_repr = repr(child).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child_repr}")
        lines.append(")")
        return "\n".join(lines) if self._modules else type(self).__name__ + "()"
