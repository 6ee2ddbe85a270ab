"""Kernel-layering linter: only the scheduler may touch repro.compile.kernels.

The compiled executor is split into a lazy IR, a scheduler and the
fused numpy kernels in ``repro.compile.kernels``; the kernels are an
implementation detail of realization.  Code that builds kernel steps
directly bypasses the IR, fusion and the compiled-model cache — it
keeps working right up until the lowering changes, and then silently
diverges from the interpreter.  This tool walks every module under
``src/`` and fails on any import of ``repro.compile.kernels`` (or
attribute access spelling the dotted path) outside
``repro/compile/schedule.py`` and the kernels module itself.

The check is AST-based, not a grep: docstrings legitimately *mention*
``repro.compile.kernels`` when documenting the layering rule, and a
regex would flag them.  Only real ``import`` / ``from ... import``
statements and dotted ``ast.Attribute`` chains count.

Usage::

    python tools/compile_lint.py            # exit 1 on violations
    python tools/compile_lint.py --root src/other   # lint another tree

``tests/utils/test_compile_lint.py`` runs this as part of tier-1.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import List, Optional, Tuple

#: The module whose imports are being fenced in.
FENCED = "repro.compile.kernels"

#: Modules (relative to the lint root) allowed to import the kernels:
#: the scheduler, and the kernels module itself.
ALLOWLIST = ("repro/compile/schedule.py", "repro/compile/kernels.py")

DEFAULT_ROOT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "src"
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


def find_kernel_uses(source: str, filename: str) -> List[Tuple[int, str]]:
    """``(line, context)`` for every fenced import/reference in ``source``."""
    tree = ast.parse(source, filename=filename)
    lines = source.splitlines()
    found = []
    seen_lines = set()

    def hit(node: ast.AST) -> None:
        # A dotted chain like repro.compile.kernels.FusedConvStep
        # contains the fenced path twice (outer chain + inner prefix);
        # report each source line once.
        if node.lineno in seen_lines:
            return
        seen_lines.add(node.lineno)
        context = (
            lines[node.lineno - 1].strip()
            if node.lineno <= len(lines)
            else ""
        )
        found.append((node.lineno, context))

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(
                alias.name == FENCED or alias.name.startswith(FENCED + ".")
                for alias in node.names
            ):
                hit(node)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == FENCED or module.startswith(FENCED + "."):
                hit(node)
            elif module == "repro.compile" and any(
                alias.name == "kernels" for alias in node.names
            ):
                hit(node)
        elif isinstance(node, ast.Attribute):
            dotted = _dotted_name(node)
            if dotted is not None and (
                dotted == FENCED or dotted.startswith(FENCED + ".")
            ):
                hit(node)
    return found


def lint_tree(root: str, allowlist=ALLOWLIST) -> List[str]:
    """Violation messages for every fenced kernel use under ``root``."""
    violations = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            if rel in allowlist:
                continue
            with open(path) as fh:
                source = fh.read()
            for lineno, context in find_kernel_uses(source, path):
                violations.append(f"{rel}:{lineno}: {context}")
    return violations


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=DEFAULT_ROOT,
        help="directory tree to lint (default: the repo's src/)",
    )
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    violations = lint_tree(root)
    if violations:
        print(
            f"direct repro.compile.kernels use under {root} "
            "(route through repro.compile.schedule.realize instead):"
        )
        for violation in violations:
            print(f"  {violation}")
        return 1
    print(f"no direct repro.compile.kernels use under {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
