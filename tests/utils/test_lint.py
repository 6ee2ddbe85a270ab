"""The static fences: one row per planted or must-pass case (tier-1)."""

import importlib.util
import os
import textwrap

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "lint",
    os.path.join(os.path.dirname(__file__), "..", "..", "tools", "lint.py"),
)
lint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(lint)

DOCSTRING = '''
def f():
    """Never do this::

        from repro.compile.kernels import FusedConvStep
        rng = np.random.default_rng()
        print(prof.report())
    """
    return 1
'''

FRONTDOOR = "repro/serve/frontdoor.py"

#: (id, rule, path under src/, source, expected (line, detail) hits).
CASES = [
    ("plain-import", "compile-kernels", "repro/serve/x.py",
     "import repro.compile.kernels\n",
     [(1, "import repro.compile.kernels")]),
    ("from-import", "compile-kernels", "repro/serve/x.py",
     "from repro.compile.kernels import FusedConvStep\n",
     [(1, "from repro.compile.kernels import FusedConvStep")]),
    ("from-compile-import-kernels", "compile-kernels", "repro/serve/x.py",
     "from repro.compile import kernels\n",
     [(1, "from repro.compile import kernels")]),
    ("dotted-chain-once-per-line", "compile-kernels", "repro/serve/x.py",
     "step = repro.compile.kernels.FusedConvStep\n",
     [(1, "step = repro.compile.kernels.FusedConvStep")]),
    ("docstring", "compile-kernels", "repro/serve/x.py", DOCSTRING, []),
    ("other-compile-imports", "compile-kernels", "repro/serve/x.py",
     "from repro.compile import maybe_compiled\n"
     "from repro.compile.ir import Graph\n"
     "from repro.compile.schedule import realize\n", []),
    ("similar-module-name", "compile-kernels", "repro/serve/x.py",
     "from repro.compile.kernels_v2 import thing\n", []),
    ("scheduler-allowed", "compile-kernels", "repro/compile/schedule.py",
     "from repro.compile.kernels import FusedConvStep\n", []),
    ("kernels-module-allowed", "compile-kernels", "repro/compile/kernels.py",
     "import repro.compile.kernels\n", []),
    ("default-rng", "errmodel-rng", "repro/ams/zoo.py",
     "rng = np.random.default_rng()\n",
     [(1, "rng = np.random.default_rng()")]),
    ("seed-sequence", "errmodel-rng", "repro/ams/zoo.py",
     "seq = np.random.SeedSequence(seed)\n",
     [(1, "seq = np.random.SeedSequence(seed)")]),
    ("numpy-spelling", "errmodel-rng", "repro/ams/zoo.py",
     "rng = numpy.random.default_rng(7)\n",
     [(1, "rng = numpy.random.default_rng(7)")]),
    ("generator-annotation", "errmodel-rng", "repro/ams/zoo.py", """
     def f(rng: np.random.Generator) -> np.random.Generator:
         return rng
     """, []),
    ("docstring", "errmodel-rng", "repro/ams/zoo.py", DOCSTRING, []),
    ("sanctioned-helpers", "errmodel-rng", "repro/ams/zoo.py",
     "from repro.utils.rng import entropy_rng, new_rng\n"
     "rng = entropy_rng()\nchild = new_rng(seq)\n", []),
    ("host-module-allowed", "errmodel-rng", "repro/ams/models.py",
     "seq = np.random.SeedSequence(entropy)\n", []),
    ("outside-ams", "errmodel-rng", "repro/utils/rng.py",
     "rng = np.random.default_rng()\n", []),
    ("real-print", "obs-print", "repro/train/x.py", "x = 1\nprint(x)\n",
     [(2, "print(x)")]),
    ("docstring", "obs-print", "repro/train/x.py", DOCSTRING, []),
    ("substring", "obs-print", "repro/train/x.py",
     "fp = model_fingerprint(model)\n", []),
    ("attribute-named-print", "obs-print", "repro/train/x.py",
     "logger.print('x')\n", []),
    ("nested-and-multiple", "obs-print", "repro/train/x.py",
     "def f():\n    print(1)\n    print(2)\n",
     [(2, "print(1)"), (3, "print(2)")]),
    ("cli-allowed", "obs-print", "repro/experiments/cli.py",
     "print('intended output')\n", []),
    ("config-cache-dir", "registry-cache-path", "repro/serve/x.py", """
     import os

     def base(config, name):
         return os.path.join(config.cache_dir, name)
     """, [(5, "direct .cache_dir access")]),
    ("self-config-cache-dir", "registry-cache-path", "repro/serve/x.py",
     "path = self.config.cache_dir\n", [(1, "direct .cache_dir access")]),
    ("default-literal", "registry-cache-path", "repro/serve/x.py",
     'CACHE = ".cache/experiments"\n',
     [(1, "hard-coded '.cache/experiments'")]),
    ("args-cache-dir", "registry-cache-path", "repro/experiments/x.py", """
     def handle(args):
         return scan(args.cache_dir)
     """, []),
    ("keyword-and-bare-names", "registry-cache-path", "repro/serve/x.py", """
     def helper(cache_dir):
         return replace(config, cache_dir=cache_dir)
     """, []),
    ("scratch-by-hand", "registry-cache-path", "repro/explore/x.py", """
     import os

     def surrogate_config(bench):
         return os.path.join(bench.config.cache_dir, "scratch")
     """, [(5, "direct .cache_dir access")]),
    ("scratch-via-layout", "registry-cache-path", "repro/explore/x.py", """
     from repro.registry.layout import scratch_cache_dir

     def surrogate_config(bench):
         return scratch_cache_dir(bench.config, "scratch")
     """, []),
    ("registry-exempt", "registry-cache-path", "repro/registry/layout.py",
     'BASE = config.cache_dir\nD = ".cache/experiments"\n', []),
    ("config-exempt", "registry-cache-path", "repro/experiments/config.py",
     'cache_dir: str = ".cache/experiments"\n', []),
    ("time-sleep", "serve-blocking", FRONTDOOR,
     "import time\ntime.sleep(1)\n", [(2, "blocking call time.sleep()")]),
    ("bare-sleep-and-open", "serve-blocking", FRONTDOOR,
     "sleep(1)\nfh = open('x')\n",
     [(1, "blocking call sleep()"), (2, "blocking call open()")]),
    ("socket-and-subprocess", "serve-blocking", FRONTDOOR, """
     import socket, subprocess
     s = socket.socket()
     subprocess.run(["ls"])
     """, [(3, "blocking call socket.socket()"),
           (4, "blocking call subprocess.run()")]),
    ("non-awaited-result-and-recv", "serve-blocking", FRONTDOOR, """
     def f(future, conn):
         x = future.result()
         y = conn.recv()
         return x, y
     """, [(3, "non-awaited .result()"), (4, "non-awaited .recv()")]),
    ("awaited-exempt", "serve-blocking", FRONTDOOR, """
     async def f(sem, queue):
         await sem.acquire()
         await queue.join()
     """, []),
    ("sync-queue", "serve-blocking", FRONTDOOR,
     "import queue\nq = queue.Queue()\n",
     [(2, "synchronous primitive queue.Queue()")]),
    ("asyncio-queue", "serve-blocking", FRONTDOOR, """
     import asyncio
     async def f():
         q = asyncio.Queue()
         item = await q.get()
         return item
     """, []),
    ("wrap-future", "serve-blocking", FRONTDOOR, """
     import asyncio
     async def f(future):
         return await asyncio.wrap_future(future)
     """, []),
    ("outside-frontdoor", "serve-blocking", "repro/serve/cluster.py",
     "import time\ntime.sleep(1)\n", []),
    ("savez", "artifact-format", "repro/ckpt/x.py",
     "np.savez(fh, **state)\n", [(1, "call to np.savez()")]),
    ("save-and-load", "artifact-format", "repro/registry/x.py", """
     np.save(path, arr)
     state = np.load(path)
     """, [(2, "call to np.save()"), (3, "call to np.load()")]),
    ("memmap-numpy-spelling", "artifact-format", "repro/serve/x.py",
     "mm = numpy.memmap(path, mode='r')\n",
     [(1, "call to numpy.memmap()")]),
    ("memmap-attribute-legal", "artifact-format", "repro/serve/x.py", """
     def mapped(arr):
         return isinstance(arr.base, np.memmap)
     """, []),
    ("other-loads-legal", "artifact-format", "repro/serve/x.py", """
     meta = json.load(fh)
     arr = np.frombuffer(buf, dtype=np.uint8)
     """, []),
    ("docstring", "artifact-format", "repro/serve/x.py", """
     def f():
         \"\"\"Never ``np.savez(fh, **state)`` or ``np.load(path)``.\"\"\"
     """, []),
    ("serialization-allowed", "artifact-format",
     "repro/utils/serialization.py",
     "mm = np.memmap(path, dtype=np.uint8, mode='r')\n", []),
]


@pytest.mark.parametrize(
    "rule,path,source,expected",
    [case[1:] for case in CASES],
    ids=[f"{case[1]}-{case[0]}" for case in CASES],
)
def test_rule(rule, path, source, expected):
    hits = lint.lint_source(textwrap.dedent(source), path)
    assert [(line, detail) for line, rule_id, detail in hits
            if rule_id == rule] == expected


RULE_IDS = [rule.id for rule in lint.RULES]

#: rule -> (path, source, line, detail) of the first CASES row it flags.
PLANTED = {
    rule: (path, textwrap.dedent(source), *expected[0])
    for _, rule, path, source, expected in reversed(CASES) if expected
}


def _tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return str(root)


def test_tree_orders_by_path(tmp_path):
    root = _tree(tmp_path, {
        "repro/serve/engine.py": "import repro.compile.kernels\n",
        "repro/ams/zoo.py": "x = 1\nrng = np.random.default_rng()\n",
        "repro/pkg/dirty.py": "print('hi')\np = cfg.cache_dir\n",
        "repro/train/loop.py": "x = 1\n",
        "repro/pkg/notes.txt": "print('not code')\n",
    })
    assert lint.lint_tree(root) == [
        "errmodel-rng repro/ams/zoo.py:2: rng = np.random.default_rng() "
        "(draw through NoiseStreams / repro.utils.rng)",
        "obs-print repro/pkg/dirty.py:1: print('hi') "
        "(library code publishes through repro.obs)",
        "registry-cache-path repro/pkg/dirty.py:2: direct .cache_dir access "
        "(name cache paths through repro.registry.layout: "
        "artifact_paths, scan_artifacts, DEFAULT_CACHE_DIR)",
        "compile-kernels repro/serve/engine.py:1: "
        "import repro.compile.kernels "
        "(route through repro.compile.schedule.realize)",
    ]


@pytest.mark.parametrize("rule", RULE_IDS)
def test_tree_reports_rule_path_and_line(tmp_path, rule):
    path, source, line, detail = PLANTED[rule]
    root = _tree(tmp_path, {path: source, "repro/train/loop.py": "x = 1\n"})
    assert lint.lint_tree(root) == [
        f"{rule} {path}:{line}: {detail} ({lint.REQUIREMENTS[rule]})"
    ]


def _as_text(path):
    return path[:-len(".py")] + ".txt"


@pytest.mark.parametrize("rule", [
    # A rule scoped to one exact file cannot reach a renamed copy.
    rule.id for rule in lint.RULES
    if rule.covers(_as_text(PLANTED[rule.id][0]))
])
def test_tree_skips_non_python_files(tmp_path, rule):
    path, source, _, _ = PLANTED[rule]
    root = _tree(tmp_path, {_as_text(path): source})
    assert lint.lint_tree(root) == []


@pytest.mark.parametrize("rule", RULE_IDS)
def test_exit_codes(tmp_path, capsys, rule):
    path, source, line, detail = PLANTED[rule]
    root = _tree(tmp_path, {path: source})
    assert lint.main(["--root", root]) == 1
    out = capsys.readouterr().out
    assert f"{rule} {path}:{line}: {detail}" in out
    assert lint.REQUIREMENTS[rule] in out

    _tree(tmp_path, {path: "x = 1\n"})
    assert lint.main(["--root", root]) == 0
    assert "clean under" in capsys.readouterr().out


@pytest.mark.parametrize("rule", RULE_IDS)
def test_repo_tree_is_clean(rule):
    """Tier-1 gate: src/ keeps the fenced contract of ``rule``."""
    violations = [v for v in lint.lint_tree() if v.startswith(rule + " ")]
    assert violations == [], "\n".join(violations)


def test_main_exits_zero_on_repo(capsys):
    assert lint.main([]) == 0
    out = capsys.readouterr().out
    assert all(rule_id in out for rule_id in RULE_IDS)
