"""Static fences: each contract the code must keep is one row of ``RULES``.

A row names a rule id, the files it covers and the files it exempts
(paths relative to ``src/``; one ending in ``/`` covers a directory),
an AST matcher and the requirement it enforces:

- ``compile-kernels``: only the scheduler lowers to
  ``repro.compile.kernels``.  Code that builds kernel steps directly
  bypasses the IR and the compiled-model cache, and silently diverges
  from the interpreter once the lowering changes.
- ``errmodel-rng``: no bare ``np.random`` call in ``repro/ams/``.
  Error models draw through the ``NoiseStreams`` the injector hands
  them; a stream minted elsewhere cannot be reseeded, checkpointed or
  swapped per request, so Eq. 2 noise would stop being a pure function
  of its stream.
- ``obs-print``: no ``print()`` in library code, which publishes
  through ``repro.obs``; the CLI and terminal renderers are exempt.
- ``registry-cache-path``: no hand-built cache path.  The registry's
  tier bookkeeping and race-safe eviction are sound only if every
  artifact is named through ``repro.registry.layout``.
- ``serve-blocking``: no blocking call on the front door's event loop,
  where one synchronous wait stalls every lane at once.  Awaited calls
  yield to the loop and are exempt.
- ``artifact-format``: no ``np.save*``, ``np.load`` or ``np.memmap``
  call outside ``repro/utils/serialization.py``.  Arrays reach disk in
  one format, with one writer and one parser; a second format would
  bring back its own suffixes and its own untyped corruption.
  Attribute uses such as ``isinstance(x, np.memmap)`` are legal.

The checks walk the AST, not the text: docstrings legitimately mention
the fenced names, and ``model_fingerprint(`` contains ``print(``.  The
tool walks the tree once, parses each file once and applies every
rule that covers it.

Usage::

    python tools/lint.py                # exit 1 on any violation
    python tools/lint.py --root <dir>   # lint another tree laid out like src/

Each violation prints as ``rule-id repro/.../file.py:line: reason``.
``tests/utils/test_lint.py`` runs this as part of tier-1.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

DEFAULT_ROOT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "src"
)

#: A matcher yields ``(line, detail)`` for each violation in one module.
Matcher = Callable[[ast.AST, List[str]], Iterator[Tuple[int, str]]]


class Rule(NamedTuple):
    id: str
    scope: Tuple[str, ...]
    allow: Tuple[str, ...]
    match: Matcher
    requirement: str

    def covers(self, rel: str) -> bool:
        return _under(rel, self.scope) and not _under(rel, self.allow)


def _under(rel: str, paths: Tuple[str, ...]) -> bool:
    return any(
        rel == path or (path.endswith("/") and rel.startswith(path))
        for path in paths
    )


def _dotted_name(node: ast.AST) -> Optional[str]:
    """The dotted path of an ``ast.Attribute`` chain, or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _context(lines: List[str], node: ast.AST) -> str:
    return lines[node.lineno - 1].strip() if node.lineno <= len(lines) else ""


KERNELS = "repro.compile.kernels"


def _is_kernels(name: str) -> bool:
    return name == KERNELS or name.startswith(KERNELS + ".")


def _compile_kernels(tree, lines):
    seen = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(_is_kernels(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = _is_kernels(module) or (
                module == "repro.compile"
                and any(alias.name == "kernels" for alias in node.names)
            )
        elif isinstance(node, ast.Attribute):
            hit = _is_kernels(_dotted_name(node) or "")
        else:
            continue
        # repro.compile.kernels.X holds the fenced path twice (the outer
        # chain and its prefix): report each source line once.
        if hit and node.lineno not in seen:
            seen.add(node.lineno)
            yield node.lineno, _context(lines, node)


def _errmodel_rng(tree, lines):
    # Only calls count: np.random.Generator annotations are references.
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (
            _dotted_name(node.func) or ""
        ).startswith(("np.random.", "numpy.random.")):
            yield node.lineno, _context(lines, node)


def _obs_print(tree, lines):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            yield node.lineno, _context(lines, node)


def _registry_cache_path(tree, lines):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "cache_dir":
            # args.cache_dir forwards the CLI's --cache-dir flag into
            # the layout helpers: the sanctioned way to pass a directory.
            receiver = node.value
            if not (isinstance(receiver, ast.Name) and receiver.id == "args"):
                yield node.lineno, "direct .cache_dir access"
        elif isinstance(node, ast.Constant) and node.value == (
            ".cache/experiments"
        ):
            yield node.lineno, "hard-coded '.cache/experiments'"


BLOCKING_NAMES = ("sleep", "open", "system")
BLOCKING_QUALIFIED = (
    ("time", "sleep"),
    ("os", "system"),
    ("subprocess", "run"),
    ("subprocess", "call"),
    ("subprocess", "check_output"),
    ("socket", "socket"),
    ("socket", "create_connection"),
)
#: Methods that block on whatever they hang off unless awaited (the
#: asyncio primitive of the same name).
BLOCKING_METHODS = (
    "result", "recv", "accept", "connect", "sendall", "acquire", "join",
    "wait",
)
SYNC_PRIMITIVES = (
    ("queue", "Queue"),
    ("threading", "Lock"),
    ("threading", "Condition"),
    ("threading", "Event"),
)


def _serve_blocking(tree, lines):
    awaited = {id(node.value) for node in ast.walk(tree)
               if isinstance(node, ast.Await)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        pair = None
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            pair = (func.value.id, func.attr)
        if isinstance(func, ast.Name) and func.id in BLOCKING_NAMES:
            yield node.lineno, f"blocking call {func.id}()"
        elif pair in BLOCKING_QUALIFIED:
            yield node.lineno, f"blocking call {pair[0]}.{pair[1]}()"
        elif pair in SYNC_PRIMITIVES:
            yield node.lineno, f"synchronous primitive {pair[0]}.{pair[1]}()"
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in BLOCKING_METHODS
            and id(node) not in awaited
        ):
            yield node.lineno, f"non-awaited .{func.attr}()"


def _artifact_format(tree, lines):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        module, _, attr = (_dotted_name(node.func) or "").rpartition(".")
        if module in ("np", "numpy") and (
            attr.startswith("save") or attr in ("load", "memmap")
        ):
            yield node.lineno, f"call to {module}.{attr}()"


RULES = (
    Rule(
        "compile-kernels",
        ("repro/",),
        ("repro/compile/schedule.py", "repro/compile/kernels.py"),
        _compile_kernels,
        "route through repro.compile.schedule.realize",
    ),
    Rule(
        "errmodel-rng",
        ("repro/ams/",),
        # AMSErrorInjector.reseed needs np.random.SeedSequence to accept
        # raw entropy.
        ("repro/ams/models.py",),
        _errmodel_rng,
        "draw through NoiseStreams / repro.utils.rng",
    ),
    Rule(
        "obs-print",
        ("repro/",),
        (
            "repro/experiments/cli.py",
            "repro/experiments/__main__.py",
            "repro/utils/ascii_plot.py",
        ),
        _obs_print,
        "library code publishes through repro.obs",
    ),
    Rule(
        "registry-cache-path",
        ("repro/",),
        # The single home of cache paths, and the dataclass default.
        ("repro/registry/", "repro/experiments/config.py"),
        _registry_cache_path,
        "name cache paths through repro.registry.layout: "
        "artifact_paths, scan_artifacts, DEFAULT_CACHE_DIR",
    ),
    Rule(
        "serve-blocking",
        ("repro/serve/frontdoor.py",),
        (),
        _serve_blocking,
        "never block the front door's event loop; await the asyncio form",
    ),
    Rule(
        "artifact-format",
        ("repro/",),
        ("repro/utils/serialization.py",),
        _artifact_format,
        "read and write arrays through repro.utils.serialization",
    ),
)

REQUIREMENTS = {rule.id: rule.requirement for rule in RULES}


def lint_source(source: str, rel: str) -> List[Tuple[int, str, str]]:
    """``(line, rule id, detail)`` for every rule covering ``rel``."""
    rules = [rule for rule in RULES if rule.covers(rel)]
    if not rules:
        return []
    tree = ast.parse(source, filename=rel)
    lines = source.splitlines()
    return sorted(
        (line, rule.id, detail)
        for rule in rules
        for line, detail in rule.match(tree, lines)
    )


def lint_tree(root: str = DEFAULT_ROOT) -> List[str]:
    """One message per violation in the ``.py`` files under ``root``."""
    violations = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path) as fh:
                source = fh.read()
            for line, rule_id, detail in lint_source(source, rel):
                violations.append(
                    f"{rule_id} {rel}:{line}: {detail} "
                    f"({REQUIREMENTS[rule_id]})"
                )
    return violations


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=DEFAULT_ROOT,
        help="source tree to lint (default: the repo's src/)",
    )
    root = os.path.abspath(parser.parse_args(argv).root)
    violations = lint_tree(root)
    for violation in violations:
        print(violation)
    if violations:
        return 1
    print(f"clean under {root}: {', '.join(rule.id for rule in RULES)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
