"""Registry-resolved models are bit-identical to the legacy path.

The acceptance bar for the registry redesign: for every variant — and
for a data-dependent zoo error model — the logits of a model acquired
through :meth:`ModelRegistry.get` (warm tier or ``fresh=True``) match
the legacy ``Workbench`` train-or-load path bit for bit, under the
same per-request noise contract serving uses.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile import disabled
from repro.obs.metrics import MetricRegistry
from repro.serve.executor import forward_with_request_noise
from repro.serve.spec import ModelSpec
from tests.artifactkit import DAMAGES, damage

#: Non-contiguous ids: noise must key on the id, not batch position.
REQUEST_IDS = [3, 11, 4, 17]

#: All four variants plus a data-dependent zoo model (reads
#: pre-activations, so its noise depends on the data path staying
#: identical end to end).
SPEC_TOKENS = [
    "fp32",
    "quant:bw8:bx8",
    "ams:e4.0",
    "ams_eval:e4.0",
    "ams_eval:e4.0:mstate_dependent",
]


FP32 = ModelSpec("fp32")


def _logits(model, images, seed):
    with disabled():
        return forward_with_request_noise(
            model, images, REQUEST_IDS, seed, registry=MetricRegistry()
        )


@pytest.mark.parametrize("token", SPEC_TOKENS)
def test_registry_matches_legacy_train_or_load(
    token, registry_bench, val_images
):
    spec = ModelSpec.parse(token)
    seed = registry_bench.config.seed
    images = val_images[: len(REQUEST_IDS)]

    legacy_model, legacy_meta = registry_bench._train_or_load(spec)
    expected = _logits(legacy_model, images, seed)

    warm_model, warm_meta = registry_bench.registry.get(spec)
    np.testing.assert_array_equal(_logits(warm_model, images, seed), expected)

    fresh_model, fresh_meta = registry_bench.registry.get(spec, fresh=True)
    assert fresh_model is not warm_model
    np.testing.assert_array_equal(
        _logits(fresh_model, images, seed), expected
    )

    for meta in (warm_meta, fresh_meta):
        assert meta.keys() == legacy_meta.keys()
        assert meta.get("best_accuracy") == legacy_meta.get("best_accuracy")



@pytest.mark.parametrize("kind", DAMAGES)
def test_damaged_cold_artifact_is_retrained(
    kind, registry_config, tmp_path
):
    """A flipped byte or a truncated cold-tier file is a journaled miss:
    the artifact is retrained, bit-identically, and overwritten."""
    from dataclasses import replace

    from repro.experiments.common import Workbench
    from repro.obs.journal import end_run, read_events, start_run
    from repro.registry import ModelRegistry
    from repro.registry.layout import artifact_paths
    from repro.utils.serialization import load_state

    bench = Workbench(replace(registry_config, cache_dir=str(tmp_path)))
    trained, meta = ModelRegistry(bench).get(FP32, fresh=True)
    path = artifact_paths(bench.config, "fp32").state
    damage(path, kind)

    start_run(results_dir=str(tmp_path / "results"), run_id="damaged")
    try:
        retrained, retrained_meta = ModelRegistry(bench).get(
            FP32, fresh=True
        )
    finally:
        end_run()
    events = read_events("damaged", str(tmp_path / "results"))
    sources = [e["source"] for e in events if e["event"] == "bench.artifact"]
    assert sources == ["corrupt", "trained"]
    assert retrained_meta == meta
    for name, value in trained.state_dict().items():
        np.testing.assert_array_equal(retrained.state_dict()[name], value)
    state, _ = load_state(path)  # overwritten with a sound file
    assert set(state) == set(trained.state_dict())
