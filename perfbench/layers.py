"""Per-layer metrics every workload derives the same way from a tracer.

``setup_layers`` covers what set-up and training exercise in this
process (data, registry, train, compile time); ``compute_layers`` covers
inference through compiled models (steps, noise draw, buffer pool).
Times are self times, so nested layers are not counted twice.
"""

from __future__ import annotations

from typing import Dict


def setup_layers(tracer) -> Dict[str, float]:
    seconds = tracer.self_times()
    epoch_s, epochs = tracer.inclusive("train.epoch")
    data_s, _ = tracer.inclusive("data.generate")
    gets = tracer.calls["registry"]
    trains = [s for kind, s in gets if kind == "train"]
    loads = [s for kind, s in gets if kind == "load"]
    return {
        "data.generate_s": data_s,
        "registry.trains": len(trains),
        "registry.train_s": sum(trains),
        "registry.loads": len(loads),
        "registry.load_ms": 1e3 * sum(loads),
        "train.epochs": epochs,
        "train.epoch_s": epoch_s,
        "train.forward_s": seconds.get("conv2d.forward", 0.0),
        "train.backward_s": seconds.get("conv2d.grad_x", 0.0)
        + seconds.get("conv2d.grad_w", 0.0),
        "train.im2col_s": seconds.get("im2col", 0.0)
        + seconds.get("col2im", 0.0),
        "train.optim_s": seconds.get("optim.step", 0.0),
        "compile.compile_ms": 1e3 * tracer.delta("compile.seconds")[1],
    }


def compute_layers(tracer) -> Dict[str, float]:
    seconds = tracer.self_times()
    batches, execute_s = tracer.delta("compile.execute_seconds")
    fallbacks, _ = tracer.delta("compile.interpreter_fallback")
    images = sum(tracer.calls["compiled_images"])

    def step(*ops):
        return sum(seconds.get(op, 0.0) for op in ops)

    return {
        "compile.execute_ms_per_image": (
            1e3 * execute_s / images if images else 0.0
        ),
        "compile.step_s.conv": step("compiled.conv", "compiled.fast_conv"),
        "compile.step_s.block": step("compiled.block"),
        "compile.step_s.im2col": step("compiled.im2col"),
        "compile.step_s.linear": step("compiled.linear"),
        "compile.step_s.gap": step("compiled.gap"),
        "compile.step_s.input_quant": step("compiled.input_quant"),
        "compile.interpreted_share": (
            fallbacks / (fallbacks + batches) if fallbacks + batches else 0.0
        ),
        "pool.fresh_allocs": tracer.delta("pool.allocations")[0],
        "ams.inject_s": step("ams.inject", "ams.sample_noise"),
    }


def add(*parts: Dict[str, float]) -> Dict[str, float]:
    """Key-wise sum of metric dicts from several tracers."""
    total: Dict[str, float] = {}
    for part in parts:
        for name, value in part.items():
            total[name] = total.get(name, 0.0) + value
    return total
