"""sgemm row blocks at the planner's floor equal the whole product's rows.

The compiled convolution multiplies a large batch one image block at a
time (:meth:`~repro.tensor.im2col.Im2colPlan.blocks`), while the
interpreter multiplies the whole batch in one call.  The two agree bit
for bit only if the BLAS computes a row the same way whatever the row
count of the call.  OpenBLAS does not for small counts: on a 2-CPU
Xeon guest, rows of ``a[:m] @ w.T`` differ from the same rows of the
full product for some ``m`` up to 16, 32 or 64 rows, depending on the
``resnet_small`` conv shape, and match from 80 rows up.  The planner
therefore never issues a block under
:data:`~repro.tensor.im2col.MIN_BLOCK_ROWS` rows.  This test pins that
assumption per GEMM shape, so a BLAS that breaks it fails here by name
rather than as a logits mismatch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile import compile_model
from repro.models import resnet_small
from repro.tensor.im2col import MIN_BLOCK_ROWS


def _conv_gemms():
    """``(plan, w_mat)`` of every conv of a 16x16, 20-class resnet_small."""
    model = resnet_small(num_classes=20)
    model.eval()
    compiled = compile_model(model)
    compiled.predict(np.zeros((1, 3, 16, 16), np.float32))
    found = []

    def walk(steps):
        for step in steps:
            if hasattr(step, "w_mat"):
                found.append((step._plan, step.w_mat))
            walk(getattr(step, "main", None) or ())
            walk(getattr(step, "downsample", None) or ())

    walk(compiled.steps)
    return found


GEMMS = _conv_gemms()


def test_every_conv_shape_is_covered():
    assert len(GEMMS) == 9


@pytest.mark.parametrize(
    "plan, w_mat",
    GEMMS,
    ids=[
        f"{p.channels}x{p.height}-k{w.shape[1]}-n{w.shape[0]}"
        for p, w in GEMMS
    ],
)
def test_floor_blocks_equal_full_product_rows(plan, w_mat):
    positions = plan.out_h * plan.out_w
    # The smallest block the planner issues: whole images, at least
    # MIN_BLOCK_ROWS rows.
    floor = -(-MIN_BLOCK_ROWS // positions) * positions
    rows = 3 * floor + 5 * positions  # a ragged tail after two floors
    rng = np.random.default_rng(0)
    cols = rng.standard_normal((rows, w_mat.shape[1])).astype(np.float32)
    full = cols @ w_mat.T
    for start, stop in ((0, floor), (floor, 2 * floor), (2 * floor, rows)):
        block = np.empty((stop - start, w_mat.shape[0]), np.float32)
        np.matmul(cols[start:stop], w_mat.T, out=block)
        assert np.array_equal(block, full[start:stop]), (start, stop)
