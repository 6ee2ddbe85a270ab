"""The artifact file format and atomic write semantics."""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ArtifactError, ConfigError
from repro.nn import Module, Parameter
from repro.serve.shared import bind_shared, bound_fraction
from repro.utils.serialization import (
    ALIGN,
    atomic_write,
    atomic_write_json,
    load_state,
    map_state,
    save_state,
)
from tests.artifactkit import DAMAGES, damage

READS = {"load_state": load_state, "map_state": map_state}


def _state():
    return {
        "conv.weight": np.arange(24, dtype=np.float32).reshape(2, 3, 4),
        "bn.num_batches": np.array(7, dtype=np.int64),
        "fc.bias": np.linspace(-1.0, 1.0, 5),
    }


class TestStateFile:
    def test_path_used_as_given(self, tmp_path):
        """No suffix is appended: save and load agree on any path."""
        for name in ("ckpt", "m.ckpt", "model.json"):
            path = str(tmp_path / name)
            save_state(path, {"w": np.arange(3.0)})
            loaded, _ = load_state(path)
            np.testing.assert_array_equal(loaded["w"], np.arange(3.0))
        assert sorted(os.listdir(tmp_path)) == ["ckpt", "m.ckpt", "model.json"]

    def test_non_numeric_dtype_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not numeric"):
            save_state(
                str(tmp_path / "m.state"),
                {"names": np.array(["a", "b"], dtype=object)},
            )
        assert os.listdir(tmp_path) == []


class TestCorruption:
    @pytest.mark.parametrize("read", sorted(READS))
    @pytest.mark.parametrize("kind", DAMAGES)
    def test_damage_raises_artifact_error(self, tmp_path, read, kind):
        path = str(tmp_path / "m.state")
        save_state(path, _state())
        damage(path, kind)
        with pytest.raises(ArtifactError):
            READS[read](path)

    @pytest.mark.parametrize("read", sorted(READS))
    def test_trailing_bytes_rejected(self, tmp_path, read):
        path = str(tmp_path / "m.state")
        save_state(path, _state())
        with open(path, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(ArtifactError, match="bytes"):
            READS[read](path)

    @pytest.mark.parametrize("read", sorted(READS))
    def test_other_file_rejected(self, tmp_path, read):
        path = str(tmp_path / "m.state")
        with open(path, "w") as fh:
            json.dump({"not": "an artifact", "pad": "x" * 64}, fh)
        with pytest.raises(ArtifactError, match="bad magic"):
            READS[read](path)

    @pytest.mark.parametrize("read", sorted(READS))
    def test_empty_file_rejected(self, tmp_path, read):
        path = str(tmp_path / "m.state")
        open(path, "wb").close()
        with pytest.raises(ArtifactError, match="truncated"):
            READS[read](path)


#: Dotted state keys: module names and leaf names never collide, so a
#: module tree can carry any drawn key set.
KEYS = st.builds(
    lambda mods, leaf: ".".join(mods + [leaf]),
    st.lists(st.sampled_from(["m0", "m1", "m2"]), min_size=1, max_size=2),
    st.sampled_from(["p0", "p1", "p2", "p3"]),
)

DTYPES = ("float32", "float64", "int64", "int32", "uint8", "bool")


@st.composite
def _arrays(draw):
    """C-ordered, transposed or strided arrays, 0-d and empty included."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    shape = draw(
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
    )
    arr = draw(hnp.arrays(dtype, shape))
    layout = draw(st.sampled_from(("c", "transposed", "strided")))
    if layout == "transposed":
        return arr.T
    if layout == "strided" and arr.ndim:
        return arr[::2]
    return arr


META = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.one_of(
        st.integers(),
        st.floats(allow_nan=False),
        st.text(max_size=8),
        st.booleans(),
        st.lists(st.integers(), max_size=3),
    ),
    min_size=1,
    max_size=4,
)


def _module_for(state):
    """A module tree with one slot per key: float32 arrays become
    parameters (bound zero-copy), the rest buffers (copied)."""
    root = Module()
    for key, arr in state.items():
        *path, leaf = key.split(".")
        module = root
        for part in path:
            if part not in module._modules:
                setattr(module, part, Module())
            module = module._modules[part]
        blank = np.zeros(arr.shape, dtype=arr.dtype)
        if arr.dtype == np.float32:
            setattr(module, leaf, Parameter(blank))
        else:
            module.register_buffer(leaf, blank)
    return root


@settings(max_examples=60, deadline=None)
@given(state=st.dictionaries(KEYS, _arrays(), min_size=1, max_size=5),
       meta=META)
def test_round_trip_property(state, meta):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.state")
        save_state(path, state, meta=meta)

        loaded, loaded_meta = load_state(path)
        assert loaded_meta == meta
        assert list(loaded) == list(state)
        for key, arr in state.items():
            got = loaded[key]
            assert (got.dtype, got.shape) == (arr.dtype, arr.shape)
            assert got.tobytes() == arr.tobytes()
            assert got.flags.owndata and got.flags.writeable

        views, view_meta = map_state(path)
        assert view_meta == meta
        for key, arr in state.items():
            view = views[key]
            assert (view.dtype, view.shape) == (arr.dtype, arr.shape)
            assert view.tobytes() == arr.tobytes()
            assert not view.flags.writeable
            assert view.ctypes.data % ALIGN == 0

        model = _module_for(state)
        bind_shared(model, path)
        params = [p.data.nbytes for _, p in model.named_parameters()]
        assert bound_fraction(model) == (1.0 if sum(params) else 0.0)


class TestAtomicWrite:
    def test_success_installs_content(self, tmp_path):
        path = str(tmp_path / "out.txt")
        with atomic_write(path) as fh:
            fh.write("payload")
        assert open(path).read() == "payload"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "a" / "b" / "out.txt")
        with atomic_write(path) as fh:
            fh.write("x")
        assert open(path).read() == "x"

    def test_error_leaves_target_untouched(self, tmp_path):
        path = str(tmp_path / "out.txt")
        with atomic_write(path) as fh:
            fh.write("original")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("partial garbage")
                raise RuntimeError("writer died")
        assert open(path).read() == "original"
        assert os.listdir(tmp_path) == ["out.txt"]  # tmp cleaned up

    def test_error_on_fresh_path_leaves_nothing(self, tmp_path):
        path = str(tmp_path / "never.txt")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                raise RuntimeError
        assert os.listdir(tmp_path) == []

    def test_read_modes_rejected(self, tmp_path):
        for mode in ("r", "a", "w+", "rb"):
            with pytest.raises(ConfigError, match="write-only"):
                with atomic_write(str(tmp_path / "x"), mode):
                    pass

    def test_binary_mode(self, tmp_path):
        path = str(tmp_path / "out.bin")
        with atomic_write(path, "wb") as fh:
            fh.write(b"\x00\x01")
        assert open(path, "rb").read() == b"\x00\x01"


class TestAtomicWriteJson:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "meta.json")
        atomic_write_json(path, {"epoch": 3, "acc": 0.5})
        assert json.load(open(path)) == {"epoch": 3, "acc": 0.5}
        assert os.listdir(tmp_path) == ["meta.json"]

    def test_dump_kwargs_forwarded(self, tmp_path):
        path = str(tmp_path / "meta.json")
        atomic_write_json(path, {"b": 1, "a": 2}, sort_keys=True)
        assert open(path).read().index('"a"') < open(path).read().index('"b"')
