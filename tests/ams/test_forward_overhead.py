"""Paper §2: quantisation plus AMS error injection slows the forward pass.

The paper reports that DoReFa quantisation and AMS error injection
"together incur a roughly 50% overhead in forward pass computation time
compared to the out-of-the-box FP32 network".  This test times the same
comparison on this substrate: an eval-mode ``resnet_small`` forward at
batch ``(16, 3, 16, 16)``, FP32 against 8/8 DoReFa with ENOB 8, Nmult 8
AMS injection.  The two forwards are interleaved and each keeps its
minimum over ``ROUNDS``, so a burst of host load hits both alike.

Measured on a 2-CPU Xeon guest (25 processes, min of 20 interleaved
rounds each): AMS/FP32 = 1.77-2.61, median 2.18.  Injection is most
of the extra cost: quantisation alone (DoReFa/FP32) measured
1.03-1.51 over 25 processes, too close to 1 to assert.  The band
below sits well outside the measured spread on both sides; it fails
if injection becomes free (the error model was dropped from the
forward) or if its cost balloons.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.ams import VMACConfig
from repro.models import AMSFactory, FP32Factory, resnet_small
from repro.quant import QuantConfig
from repro.tensor.tensor import Tensor, no_grad

ROUNDS = 20
#: Accepted AMS/FP32 min-time ratio (measured 1.77-2.61, see above).
BAND = (1.3, 4.0)


def test_ams_forward_is_slower_than_fp32():
    models = {
        "fp32": resnet_small(FP32Factory(seed=0), num_classes=10),
        "ams": resnet_small(
            AMSFactory(
                QuantConfig(8, 8), VMACConfig(enob=8, nmult=8), seed=0
            ),
            num_classes=10,
        ),
    }
    x = Tensor(
        np.random.default_rng(0)
        .standard_normal((16, 3, 16, 16))
        .astype(np.float32)
    )
    best = dict.fromkeys(models, float("inf"))
    with no_grad():
        for model in models.values():
            model.eval()
            model(x)  # warm the buffer pool
        for _ in range(ROUNDS):
            for name, model in models.items():
                start = perf_counter()
                model(x)
                best[name] = min(best[name], perf_counter() - start)
    ratio = best["ams"] / best["fp32"]
    assert BAND[0] < ratio < BAND[1], (
        f"AMS/FP32 forward = {ratio:.2f} "
        f"(fp32 {best['fp32'] * 1e3:.2f} ms, ams {best['ams'] * 1e3:.2f} ms)"
    )
