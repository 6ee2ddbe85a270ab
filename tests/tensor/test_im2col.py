"""Tests for the im2col/col2im transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.tensor.im2col import (
    BLOCK_BYTES,
    MIN_BLOCK_ROWS,
    col2im,
    conv_output_size,
    get_plan,
    im2col,
)
from repro.tensor.pool import default_pool


def strided_im2col(x, kernel, stride, padding):
    """The oracle: one copy out of an ``as_strided`` patch view.

    Independent of :class:`~repro.tensor.im2col.Im2colPlan`: ``np.pad``
    instead of the pooled source, strides instead of an index table.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)
    x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    s0, s1, s2, s3 = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(s0, s1, s2 * sh, s3 * sw, s2, s3),
        writeable=False,
    )
    return np.ascontiguousarray(patches.transpose(0, 2, 3, 1, 4, 5)).reshape(
        n * out_h * out_w, c * kh * kw
    )


def naive_conv2d(x, w, stride, padding):
    """Reference convolution via explicit loops."""
    n, c, h, wd = x.shape
    co, ci, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, co, oh, ow), dtype=x.dtype)
    for b in range(n):
        for o in range(co):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[b, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
                    out[b, o, i, j] = (patch * w[o]).sum()
    return out


class TestConvOutputSize:
    def test_basic(self):
        assert conv_output_size(8, 3, 1, 1) == 8
        assert conv_output_size(8, 3, 2, 1) == 4
        assert conv_output_size(7, 7, 2, 3) == 4

    def test_nonpositive_raises(self):
        with pytest.raises(ShapeError):
            conv_output_size(2, 5, 1, 0)


class TestIm2Col:
    @pytest.mark.parametrize(
        "shape,kernel,stride,padding",
        [
            ((2, 3, 8, 8), (3, 3), (1, 1), (1, 1)),
            ((1, 2, 7, 9), (3, 2), (2, 2), (0, 1)),
            ((2, 1, 5, 5), (1, 1), (1, 1), (0, 0)),
            ((1, 3, 10, 10), (7, 7), (2, 2), (3, 3)),
        ],
    )
    def test_matches_naive_conv(self, rng, shape, kernel, stride, padding):
        x = rng.standard_normal(shape).astype(np.float32)
        co = 4
        w = rng.standard_normal((co, shape[1], *kernel)).astype(np.float32)
        cols = im2col(x, kernel, stride, padding)
        out = cols @ w.reshape(co, -1).T
        oh = conv_output_size(shape[2], kernel[0], stride[0], padding[0])
        ow = conv_output_size(shape[3], kernel[1], stride[1], padding[1])
        out = out.reshape(shape[0], oh, ow, co).transpose(0, 3, 1, 2)
        expected = naive_conv2d(x, w, stride, padding)
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    def test_row_count(self, rng):
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        cols = im2col(x, (3, 3), (1, 1), (0, 0))
        assert cols.shape == (2 * 4 * 4, 3 * 9)

    def test_col2im_is_adjoint(self, rng):
        """<im2col(x), y> == <x, col2im(y)> for random x, y."""
        x = rng.standard_normal((2, 3, 7, 7)).astype(np.float64)
        kernel, stride, padding = (3, 3), (2, 2), (1, 1)
        cols = im2col(x, kernel, stride, padding)
        y = rng.standard_normal(cols.shape)
        lhs = float((cols * y).sum())
        back = col2im(y, x.shape, kernel, stride, padding)
        rhs = float((x * back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_col2im_counts_overlaps(self):
        """col2im of ones counts how many patches cover each pixel."""
        x_shape = (1, 1, 4, 4)
        cols = np.ones((9, 4), dtype=np.float32)  # 3x3 outputs, 2x2 kernel
        out = col2im(cols, x_shape, (2, 2), (1, 1), (0, 0))
        # Center pixels are covered by 4 patches, corners by 1.
        assert out[0, 0, 0, 0] == 1.0
        assert out[0, 0, 1, 1] == 4.0
        assert out[0, 0, 0, 1] == 2.0


class TestAdjointRegression:
    """``<cols, im2col(x)> == <col2im(cols), x>`` across awkward geometries.

    The pooled rewrite changed how both transforms stage their scratch
    (pooled padded buffers, interior copy-out); the adjoint identity is
    the strongest single check that no geometry case regressed.
    """

    @pytest.mark.parametrize(
        "shape,kernel,stride,padding",
        [
            ((2, 3, 9, 9), (3, 3), (2, 2), (0, 0)),  # stride > 1
            ((1, 2, 8, 8), (3, 3), (3, 3), (0, 0)),  # stride > kernel gap
            ((2, 2, 7, 9), (1, 3), (1, 1), (0, 0)),  # asymmetric kernel
            ((1, 3, 9, 6), (5, 2), (2, 1), (0, 0)),  # asymmetric + stride
            ((2, 1, 6, 6), (3, 3), (1, 1), (2, 2)),  # padding > 1
            ((1, 2, 5, 7), (3, 2), (2, 2), (1, 2)),  # everything at once
            ((1, 1, 4, 4), (4, 4), (4, 4), (0, 0)),  # non-overlapping tiles
        ],
    )
    def test_inner_product_identity(self, rng, shape, kernel, stride, padding):
        x = rng.standard_normal(shape)
        cols_shape = im2col(x, kernel, stride, padding).shape
        cols = rng.standard_normal(cols_shape)
        lhs = float((cols * im2col(x, kernel, stride, padding)).sum())
        rhs = float((col2im(cols, shape, kernel, stride, padding) * x).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_col2im_result_is_not_a_pooled_view(self, rng):
        """With padding, the result must not alias the pooled scratch."""
        shape, kernel, stride, padding = (1, 2, 6, 6), (3, 3), (1, 1), (1, 1)
        cols_shape = im2col(rng.standard_normal(shape), kernel, stride, padding).shape
        cols = rng.standard_normal(cols_shape)
        out = col2im(cols, shape, kernel, stride, padding)
        expected = out.copy()
        # Recycle pooled buffers at the same geometry; if ``out`` aliased
        # the padded scratch this would corrupt it.
        col2im(cols, shape, kernel, stride, padding)
        np.testing.assert_array_equal(out, expected)
        assert out.base is None


@st.composite
def gather_cases(draw):
    """An NCHW batch and conv geometry for the differential tests.

    About one value in ten is ``-0.0``.
    """
    n = draw(st.sampled_from([1, 5, 32]))
    c = draw(st.sampled_from([1, 3, 7, 8, 9]))
    k = draw(st.sampled_from([1, 3, 5]))
    s = draw(st.sampled_from([1, 2]))
    p = draw(st.integers(0, 2))
    lo = max(1, k - 2 * p)
    h = draw(st.integers(lo, lo + 5))
    w = draw(st.integers(lo, lo + 5))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    layout = draw(st.sampled_from(["contiguous", "strided", "channels_last"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, c, h, w)).astype(dtype)
    x[rng.random(x.shape) < 0.1] = -0.0
    if layout == "strided":
        base = np.full((n, c, h, 2 * w), np.nan, dtype)
        base[..., ::2] = x
        x = base[..., ::2]
    elif layout == "channels_last":
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    return x, (k, k), (s, s), (p, p)


def assert_bit_equal(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


class TestSingleGather:
    """Every im2col path is ``Im2colPlan.gather``, bit-exact to the oracle."""

    @given(gather_cases())
    @settings(max_examples=80, deadline=None)
    def test_im2col_matches_strided_oracle(self, case):
        x, kernel, stride, padding = case
        cols = im2col(x, kernel, stride, padding)
        assert_bit_equal(cols, strided_im2col(x, kernel, stride, padding))
        default_pool().release(cols)

    def test_mis_sized_input_raises(self):
        plan = get_plan(3, 8, 8, (3, 3), (1, 1), (1, 1))
        pool = default_pool()
        with pytest.raises(ShapeError):
            plan.gather(np.zeros((2, 3, 8, 9), np.float32), pool)
        with pytest.raises(ShapeError):
            plan.gather(np.zeros((2, 4, 8, 8), np.float32), pool)


class TestSingleCopy:
    """The pooled im2col performs exactly one data copy (no intermediate
    materialisation), observable through the pool's allocation counter
    and, for temporaries numpy makes inside a call, through
    ``tracemalloc``."""

    def test_cold_call_allocates_only_pad_and_cols(self):
        pool = default_pool()
        pool.clear()
        pool.reset_stats()
        x = np.random.default_rng(0).standard_normal((2, 3, 8, 8)).astype(
            np.float32
        )
        cols = im2col(x, (3, 3), (1, 1), (1, 1))
        # One padded workspace + one cols buffer; a hidden intermediate
        # copy would show up as a third allocation.
        assert pool.stats.allocations == 2
        assert pool.stats.bytes_allocated == (
            2 * 3 * 10 * 10 * 4 + cols.nbytes
        )
        pool.release(cols)

    def test_steady_state_is_allocation_free(self):
        pool = default_pool()
        pool.clear()
        x = np.random.default_rng(0).standard_normal((2, 3, 8, 8)).astype(
            np.float32
        )
        pool.release(im2col(x, (3, 3), (1, 1), (1, 1)))  # warm the pool
        pool.reset_stats()
        for _ in range(3):
            pool.release(im2col(x, (3, 3), (1, 1), (1, 1)))
        assert pool.stats.allocations == 0
        assert pool.stats.hits == 6  # pad + cols per call, all reused

    def test_unpadded_call_allocates_only_cols(self):
        pool = default_pool()
        pool.clear()
        pool.reset_stats()
        x = np.random.default_rng(0).standard_normal((1, 2, 6, 6)).astype(
            np.float32
        )
        cols = im2col(x, (3, 3), (1, 1), (0, 0))
        assert pool.stats.allocations == 1
        assert pool.stats.bytes_allocated == cols.nbytes
        pool.release(cols)

    @pytest.mark.parametrize("layout", ["contiguous", "channels_last"])
    @pytest.mark.parametrize("padding", [(0, 0), (1, 1)])
    def test_warm_call_makes_no_hidden_copy(self, traced_peak, layout, padding):
        x = np.random.default_rng(0).standard_normal((32, 16, 16, 16)).astype(
            np.float32
        )
        if layout == "channels_last":
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        pool = default_pool()
        cols = im2col(x, (3, 3), (1, 1), padding)  # warm plan and pool
        pool.release(cols)
        peak = traced_peak(lambda: pool.release(im2col(x, (3, 3), (1, 1), padding)))
        # Any copy of the input or of the columns would be >= 500 KiB.
        assert peak < cols.nbytes // 64


class TestBlocks:
    """``Im2colPlan.blocks``: the image blocks of the compiled conv."""

    # (channels, size, kernel, stride, padding) of resnet_small layers.
    GEOMETRIES = [
        (3, 16, 3, 1, 1),
        (16, 16, 3, 1, 1),
        (16, 16, 3, 2, 1),
        (32, 8, 3, 1, 1),
        (32, 4, 3, 1, 1),
        (64, 4, 3, 1, 1),
        (16, 16, 1, 2, 0),
    ]

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
    @pytest.mark.parametrize("n", [1, 7, 29, 57, 80, 256, 1024])
    def test_blocks_tile_balanced_above_the_floor(self, geometry, n):
        c, size, k, s, p = geometry
        plan = get_plan(c, size, size, (k, k), (s, s), (p, p))
        blocks = plan.blocks(n, 4)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        sizes = [stop - start for start, stop in blocks]
        assert max(sizes) - min(sizes) <= 1
        positions = plan.out_h * plan.out_w
        image_bytes = positions * plan.patch_len * 4
        if len(blocks) > 1:
            assert min(sizes) * positions >= MIN_BLOCK_ROWS
        # A block is over the target only when one more block would
        # put a GEMM under the row floor.
        if max(sizes) * image_bytes > BLOCK_BYTES:
            assert (n // (len(blocks) + 1)) * positions < MIN_BLOCK_ROWS

    def test_offline_layer_splits_into_ragged_blocks(self):
        plan = get_plan(16, 16, 16, (3, 3), (1, 1), (1, 1))
        assert plan.blocks(28, 4) == [(0, 28)]
        assert plan.blocks(29, 4) == [(0, 15), (15, 29)]
        assert plan.blocks(80, 4) == [(0, 27), (27, 54), (54, 80)]
        blocks = plan.blocks(256, 4)
        assert len(blocks) == 10
        assert {stop - start for start, stop in blocks} == {25, 26}
