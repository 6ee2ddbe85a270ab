"""im2col / col2im transforms for fast convolution on numpy.

Convolution is implemented by unfolding input patches into the columns of
a matrix and performing a single large matrix multiply, the standard
approach for CPU deep-learning kernels.  ``col2im`` is the exact adjoint
of ``im2col`` and is used in the backward pass.

``im2col`` replays a cached :class:`Im2colPlan` — a flat gather-index
table per convolution geometry — with one unbuffered ``np.take``
straight into the (pooled) output buffer.  The compiled kernels gather
through the same plans, so every convolution path unfolds patches with
the same copy.  :meth:`Im2colPlan.blocks` splits a batch into image
blocks whose patch columns fit about one per-core L2, so the compiled
convolution can gather and multiply one block at a time instead of
holding the whole batch's columns.

Both transforms draw their workspaces (padded input, patch columns,
scatter-add scratch) from the process-global :class:`~repro.tensor.pool.
BufferPool`, so repeated calls at the same layer shape — the normal case
inside a training loop or an evaluation sweep — are allocation-free.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.tensor.pool import BufferPool, default_pool
from repro.utils import profiler as _profiler


#: Target bytes of one block's patch columns: about one per-core L2.
BLOCK_BYTES = 4 << 20

#: Fewest GEMM rows in a block of a batch that has more.  sgemm is not
#: row-invariant for small row counts (OpenBLAS multiplies a few rows
#: with other kernels, whose rounding differs), so a block's product
#: equals the same rows of the whole-batch product only well above
#: that; ``tests/tensor/test_sgemm_rows.py`` pins it for every conv
#: shape of ``resnet_small``.
MIN_BLOCK_ROWS = 1024


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"non-positive conv output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


class Im2colPlan:
    """Gather indices for one convolution geometry (batch-size free).

    ``index[p, k]`` is the flat offset, within one zero-padded
    ``(C, H + 2*ph, W + 2*pw)`` sample, of element ``k`` (column order
    ``(c, kh, kw)``) of output position ``p`` (row order ``(oh, ow)``).
    The table depends only on the per-sample geometry, so one plan
    serves every batch size that flows through a layer.
    """

    __slots__ = (
        "channels",
        "height",
        "width",
        "kernel",
        "stride",
        "padding",
        "out_h",
        "out_w",
        "patch_len",
        "source_len",
        "index",
    )

    def __init__(
        self,
        channels: int,
        height: int,
        width: int,
        kernel: Tuple[int, int],
        stride: Tuple[int, int],
        padding: Tuple[int, int],
    ):
        self.channels = channels
        self.height = height
        self.width = width
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        kh, kw = kernel
        sh, sw = stride
        ph, pw = padding
        self.out_h = conv_output_size(height, kh, sh, ph)
        self.out_w = conv_output_size(width, kw, sw, pw)
        self.patch_len = channels * kh * kw

        padded_h = height + 2 * ph
        padded_w = width + 2 * pw
        self.source_len = channels * padded_h * padded_w
        # Flat offsets of one patch's elements within a flattened
        # (C, padded_h, padded_w) sample, column order (c, kh, kw).
        element = (
            np.arange(channels, dtype=np.intp)[:, None, None] * (padded_h * padded_w)
            + np.arange(kh, dtype=np.intp)[None, :, None] * padded_w
            + np.arange(kw, dtype=np.intp)[None, None, :]
        ).reshape(-1)
        # Flat offset of each patch's top-left corner, row order (oh, ow).
        origin = (
            np.arange(self.out_h, dtype=np.intp)[:, None] * sh * padded_w
            + np.arange(self.out_w, dtype=np.intp)[None, :] * sw
        ).reshape(-1)
        self.index = origin[:, None] + element[None, :]
        # gather() skips numpy's per-element bounds check (see there);
        # every offset is checked once here instead.
        if int(self.index.max()) >= self.source_len:
            raise ShapeError(
                f"im2col plan index out of range for input {(channels, height, width)}"
            )

    def _source(
        self, x: np.ndarray, pool: BufferPool
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The gather source of an NCHW batch, as ``(src, owned)``.

        ``src`` is ``x`` zero-padded and C-contiguous, flattened to
        ``(N, source_len)``.  ``owned`` is the pooled buffer behind it,
        for the caller to release once the gather is done, or ``None``
        when ``src`` is a view of ``x`` itself.
        """
        n, c, h, w = x.shape
        ph, pw = self.padding
        if ph or pw:
            owned = pool.get((n, c, h + 2 * ph, w + 2 * pw), x.dtype)
            owned.fill(0)
            owned[:, :, ph : ph + h, pw : pw + w] = x
        elif not x.flags.c_contiguous:
            # A reshape would copy too, but into an unpooled temporary.
            owned = pool.get(x.shape, x.dtype)
            np.copyto(owned, x)
        else:
            owned = None
        src = x if owned is None else owned
        return src.reshape(n, c * src.shape[2] * src.shape[3]), owned

    def blocks(self, n: int, itemsize: int) -> List[Tuple[int, int]]:
        """Image ranges ``(start, stop)`` that tile a batch of ``n``.

        Each block's patch columns take at most about
        :data:`BLOCK_BYTES` (one image at least).  The blocks are
        balanced -- their sizes differ by at most one image, so none is
        under half the largest -- and none has fewer than
        :data:`MIN_BLOCK_ROWS` GEMM rows unless the whole batch does.
        A batch that fits in one block is the single range ``(0, n)``.
        """
        positions = self.out_h * self.out_w
        most = max(1, BLOCK_BYTES // (positions * self.patch_len * itemsize))
        fewest = -(-MIN_BLOCK_ROWS // positions)
        count = max(1, min(-(-n // most), n // fewest))
        size, extra = divmod(n, count)
        bounds = []
        start = 0
        for i in range(count):
            stop = start + size + (i < extra)
            bounds.append((start, stop))
            start = stop
        return bounds

    def gather(self, x: np.ndarray, pool: BufferPool) -> np.ndarray:
        """Unfold an NCHW batch into patch columns: the one im2col copy.

        Returns a pooled ``(n * out_h * out_w, patch_len)`` buffer the
        caller releases.  Rows are ordered ``(n, out_h, out_w)`` and
        columns ``(c, kh, kw)``, copied element for element from the
        source.
        """
        src, owned = self._source(x, pool)
        if src.shape[1] != self.source_len:
            raise ShapeError(
                f"im2col plan expects {self.source_len} elements per padded "
                f"sample, got {src.shape[1]}"
            )
        n = src.shape[0]
        positions = self.out_h * self.out_w
        out = pool.get((n * positions, self.patch_len), src.dtype)
        # numpy copies ``out`` through a hidden full-size buffer under
        # the default mode="raise"; "wrap" writes straight into it.  The
        # construction check above and the sample-size check here keep
        # every index in range, so the wrap never applies.
        src.take(
            self.index,
            axis=1,
            out=out.reshape(n, positions, self.patch_len),
            mode="wrap",
        )
        if owned is not None:
            pool.release(owned)
        return out


_PlanKey = Tuple[int, int, int, int, int, int, int, int, int]

_CACHE: Dict[_PlanKey, Im2colPlan] = {}
_LOCK = threading.Lock()
_HITS = 0
_MISSES = 0


def get_plan(
    channels: int,
    height: int,
    width: int,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Im2colPlan:
    """The cached plan for one per-sample geometry (thread-safe)."""
    global _HITS, _MISSES
    key = (channels, height, width, *kernel, *stride, *padding)
    with _LOCK:
        plan = _CACHE.get(key)
        if plan is not None:
            _HITS += 1
            return plan
        _MISSES += 1
    # Build outside the lock (construction can be non-trivial for large
    # geometries); a racing duplicate is discarded harmlessly.
    plan = Im2colPlan(channels, height, width, kernel, stride, padding)
    with _LOCK:
        return _CACHE.setdefault(key, plan)


def plan_cache_stats() -> Dict[str, int]:
    """``{"size", "hits", "misses"}`` counters of the global plan cache."""
    with _LOCK:
        return {"size": len(_CACHE), "hits": _HITS, "misses": _MISSES}


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the hit/miss counters."""
    global _HITS, _MISSES
    with _LOCK:
        _CACHE.clear()
        _HITS = 0
        _MISSES = 0


def im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Unfold an NCHW array into patch columns.

    Returns an array of shape ``(N * out_h * out_w, C * kh * kw)`` whose
    rows are the flattened receptive fields, ordered so that
    ``cols.reshape(N, out_h, out_w, -1)`` recovers spatial layout.

    The returned array comes from the buffer pool; callers that consume
    it within one op (e.g. the conv forward under ``no_grad``) may
    release it back for reuse.
    """
    token = _profiler.op_start()
    n, c, h, w = x.shape
    plan = get_plan(c, h, w, kernel, stride, padding)
    cols = plan.gather(x, default_pool())
    _profiler.op_end(token, "im2col")
    return cols


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add patch columns back.

    Given ``cols`` of shape ``(N * out_h * out_w, C * kh * kw)``, returns
    an array of the original shape ``x_shape`` where every patch element
    has been accumulated into its source position.
    """
    token = _profiler.op_start()
    pool = default_pool()
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)

    padded = pool.zeros((n, c, h + 2 * ph, w + 2 * pw), cols.dtype)
    patches = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(
        0, 3, 1, 2, 4, 5
    )
    # Accumulate each kernel offset with a strided slice; this loops only
    # over kh*kw (small) rather than over all output positions.
    for i in range(kh):
        h_end = i + sh * out_h
        for j in range(kw):
            w_end = j + sw * out_w
            padded[:, :, i:h_end:sh, j:w_end:sw] += patches[:, :, :, :, i, j]

    if ph or pw:
        # Copy the interior out so the (larger) padded scratch can be
        # recycled instead of staying alive behind a view.
        out = np.empty((n, c, h, w), dtype=cols.dtype)
        np.copyto(out, padded[:, :, ph : ph + h, pw : pw + w])
        pool.release(padded)
    else:
        out = padded
    _profiler.op_end(token, "col2im")
    return out
