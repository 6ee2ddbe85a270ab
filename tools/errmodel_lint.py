"""Error-model RNG linter: no bare ``np.random`` inside ``repro/ams/``.

Every error model draws its randomness through the
:class:`~repro.ams.models.NoiseStreams` surface the host injector
hands it — that is the whole mechanism by which the trainer, the
compiled executor and the serving executors' per-request row generators
see the *same* streams.  A model (or any AMS helper) that calls
``np.random.default_rng()`` / ``np.random.SeedSequence(...)`` directly
mints a stream the host cannot reseed, checkpoint, or swap per
request: training runs stop being reproducible and serve-mode noise
silently stops being a pure function of the request seed.  This tool
walks every module under ``src/repro/ams/`` and fails on any *call*
whose dotted path starts with ``np.random`` / ``numpy.random``.

The check is AST-based, not a grep: docstrings and comments
legitimately mention ``np.random`` when documenting the rule, and type
annotations like ``np.random.Generator`` are attribute references, not
calls — only ``ast.Call`` nodes count.  The sanctioned escape hatches
live in ``repro.utils.rng`` (``entropy_rng`` / ``new_rng`` /
``seed_sequence``), which is outside the fenced tree.

Usage::

    python tools/errmodel_lint.py            # exit 1 on violations
    python tools/errmodel_lint.py --root src/repro/ams   # explicit tree

``tests/utils/test_errmodel_lint.py`` runs this as part of tier-1.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import List, Optional, Tuple

#: Dotted call prefixes that mint RNG state outside the injector.
FENCED_PREFIXES = ("np.random.", "numpy.random.")

#: Modules (relative to the lint root) allowed to keep direct calls:
#: the host module itself needs ``np.random.SeedSequence`` in
#: ``AMSErrorInjector.reseed`` to accept raw-entropy arguments.
ALLOWLIST = ("models.py",)
ALLOWLIST_PREFIXES: Tuple[str, ...] = ()

DEFAULT_ROOT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "src", "repro", "ams"
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


def find_rng_calls(source: str, filename: str) -> List[Tuple[int, str]]:
    """``(line, context)`` for every fenced ``np.random`` call in ``source``."""
    tree = ast.parse(source, filename=filename)
    lines = source.splitlines()
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted_name(node.func)
        if dotted is None:
            continue
        if any(dotted.startswith(prefix) for prefix in FENCED_PREFIXES):
            context = (
                lines[node.lineno - 1].strip()
                if node.lineno <= len(lines)
                else ""
            )
            found.append((node.lineno, context))
    return found


def lint_tree(
    root: str, allowlist=ALLOWLIST, prefixes=ALLOWLIST_PREFIXES
) -> List[str]:
    """Violation messages for every fenced RNG call under ``root``."""
    violations = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            if rel in allowlist or (prefixes and rel.startswith(prefixes)):
                continue
            with open(path) as fh:
                source = fh.read()
            for lineno, context in find_rng_calls(source, path):
                violations.append(f"{rel}:{lineno}: {context}")
    return violations


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=DEFAULT_ROOT,
        help="directory tree to lint (default: the repo's src/repro/ams/)",
    )
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    violations = lint_tree(root)
    if violations:
        print(
            f"bare np.random calls under {root} "
            "(draw through NoiseStreams / repro.utils.rng instead):"
        )
        for violation in violations:
            print(f"  {violation}")
        return 1
    print(f"no bare np.random calls under {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
