"""The kernel-layering linter: AST-accurate, and src/ stays clean (tier-1)."""

import importlib.util
import os
import textwrap

_SPEC = importlib.util.spec_from_file_location(
    "compile_lint",
    os.path.join(
        os.path.dirname(__file__), "..", "..", "tools", "compile_lint.py"
    ),
)
compile_lint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compile_lint)

SRC_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)


class TestFindKernelUses:
    def test_catches_plain_import(self):
        source = "import repro.compile.kernels\n"
        assert compile_lint.find_kernel_uses(source, "<t>") == [
            (1, "import repro.compile.kernels")
        ]

    def test_catches_from_import(self):
        source = "from repro.compile.kernels import FusedConvStep\n"
        assert [
            line for line, _ in compile_lint.find_kernel_uses(source, "<t>")
        ] == [1]

    def test_catches_from_compile_import_kernels(self):
        source = "from repro.compile import kernels\n"
        assert [
            line for line, _ in compile_lint.find_kernel_uses(source, "<t>")
        ] == [1]

    def test_catches_dotted_attribute_access(self):
        source = "step = repro.compile.kernels.FusedConvStep\n"
        assert [
            line for line, _ in compile_lint.find_kernel_uses(source, "<t>")
        ] == [1]

    def test_ignores_docstring_mentions(self):
        source = textwrap.dedent(
            '''
            def f():
                """The scheduler lowers to repro.compile.kernels steps.

                Example::

                    from repro.compile.kernels import FusedConvStep
                """
                return 1
            '''
        )
        assert compile_lint.find_kernel_uses(source, "<t>") == []

    def test_ignores_other_compile_imports(self):
        source = (
            "from repro.compile import maybe_compiled\n"
            "from repro.compile.ir import Graph\n"
            "from repro.compile.schedule import realize\n"
        )
        assert compile_lint.find_kernel_uses(source, "<t>") == []

    def test_ignores_similar_module_names(self):
        source = "from repro.compile.kernels_v2 import thing\n"
        assert compile_lint.find_kernel_uses(source, "<t>") == []


class TestLintTree:
    def _tree(self, tmp_path, files):
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
        return str(tmp_path)

    def test_reports_violations_with_relative_paths(self, tmp_path):
        root = self._tree(
            tmp_path,
            {
                "repro/serve/engine.py": (
                    "from repro.compile.kernels import FusedConvStep\n"
                ),
                "repro/train/loop.py": "x = 1\n",
            },
        )
        violations = compile_lint.lint_tree(root)
        assert violations == [
            "repro/serve/engine.py:1: "
            "from repro.compile.kernels import FusedConvStep"
        ]

    def test_backend_layer_is_allowed(self, tmp_path):
        """The scheduler and the kernels module itself may import them."""
        root = self._tree(
            tmp_path,
            {
                "repro/compile/schedule.py": (
                    "from repro.compile.kernels import FusedConvStep\n"
                ),
                "repro/compile/kernels.py": "x = 1\n",
            },
        )
        assert compile_lint.lint_tree(root) == []

    def test_non_python_files_are_skipped(self, tmp_path):
        root = self._tree(
            tmp_path, {"notes.txt": "import repro.compile.kernels\n"}
        )
        assert compile_lint.lint_tree(root) == []


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean"
        clean.mkdir()
        (clean / "a.py").write_text("x = 1\n")
        assert compile_lint.main(["--root", str(clean)]) == 0
        assert "no direct" in capsys.readouterr().out

        dirty = tmp_path / "dirty"
        dirty.mkdir()
        (dirty / "b.py").write_text("import repro.compile.kernels\n")
        assert compile_lint.main(["--root", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "b.py:1" in out
        assert "repro.compile.schedule.realize" in out


class TestRepoTreeIsClean:
    def test_src_only_backends_touch_kernels(self):
        """Tier-1 gate: compute routes through realization."""
        violations = compile_lint.lint_tree(SRC_ROOT)
        assert violations == [], "\n".join(violations)
