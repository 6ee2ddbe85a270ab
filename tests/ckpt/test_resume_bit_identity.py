"""Kill-and-resume bit-identity: the tentpole acceptance criterion.

A training run interrupted after any epoch ``k`` and resumed from its
checkpoint must produce final weights, ``TrainResult`` history, and
journal event streams **bit-identical** to the uninterrupted run — for
the fp32, quantized (DoReFa), and AMS-noise model variants.  The AMS
variant is the demanding one: its error injectors advance a private
``numpy`` generator on every forward pass, so resume only reproduces
the run if those streams are checkpointed too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import AMSFactory, DoReFaFactory, FP32Factory
from repro.models.simple import SimpleCNN
from repro.obs.journal import end_run, read_events, start_run
from repro.train import TrainConfig, Trainer
from tests.artifactkit import DAMAGES, damage

EPOCHS = 4

VARIANTS = {
    "fp32": lambda: FP32Factory(seed=1),
    "quant": lambda: DoReFaFactory(seed=1),
    "ams": lambda: AMSFactory(seed=1, noise_seed=7),
}

#: train.epoch payload fields that must match bit-for-bit (wall-time
#: fields are excluded; they legitimately differ between runs).
EPOCH_FIELDS = ("epoch", "train_loss", "val_accuracy", "lr", "batches")


class _Kill(Exception):
    """Stands in for the process dying at the crash point."""


@pytest.fixture(autouse=True)
def _no_leaked_run():
    end_run()
    yield
    end_run()


def _make_model(variant: str) -> SimpleCNN:
    return SimpleCNN(VARIANTS[variant](), num_classes=4, widths=(4,))


def _config(**overrides) -> TrainConfig:
    defaults = dict(
        epochs=EPOCHS, batch_size=16, lr=0.05, patience=EPOCHS + 1,
        shuffle_seed=3,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def _epoch_payloads(events):
    return [
        {name: event[name] for name in EPOCH_FIELDS}
        for event in events
        if event["event"] == "train.epoch"
    ]


@pytest.fixture(scope="module", params=sorted(VARIANTS))
def baseline(request, tiny_data, tmp_path_factory):
    """One uninterrupted run per variant: the ground truth."""
    variant = request.param
    results = tmp_path_factory.mktemp(f"base-{variant}")
    model = _make_model(variant)
    start_run(results_dir=str(results), run_id="base")
    result = Trainer(_config()).fit(model, tiny_data.train, tiny_data.val)
    end_run()
    return {
        "variant": variant,
        "state": model.state_dict(),
        "result": result,
        "epochs": _epoch_payloads(read_events("base", str(results))),
    }


@pytest.mark.parametrize("kill_after", [0, 1, 2])
def test_kill_then_resume_is_bit_identical(
    baseline, kill_after, tiny_data, tmp_path
):
    variant = baseline["variant"]
    ckpt = str(tmp_path / "train.ckpt")

    def _crash(epoch):
        if epoch == kill_after:
            raise _Kill

    model = _make_model(variant)
    start_run(results_dir=str(tmp_path), run_id="killed")
    with pytest.raises(_Kill):
        Trainer(_config(on_epoch_end=_crash)).fit(
            model, tiny_data.train, tiny_data.val, checkpoint_path=ckpt
        )
    end_run(status="failed")

    resumed_model = _make_model(variant)
    start_run(results_dir=str(tmp_path), run_id="resumed")
    result = Trainer(_config()).fit(
        resumed_model,
        tiny_data.train,
        tiny_data.val,
        checkpoint_path=ckpt,
        resume=True,
    )
    end_run()

    expected = baseline["result"]
    assert result.history == expected.history  # floats bit-exact
    assert result.best_accuracy == expected.best_accuracy
    assert result.best_epoch == expected.best_epoch
    assert result.stopped_early == expected.stopped_early

    final = resumed_model.state_dict()
    reference = baseline["state"]
    assert set(final) == set(reference)
    for name in reference:
        np.testing.assert_array_equal(
            final[name], reference[name], err_msg=f"{variant}:{name}"
        )

    killed_epochs = _epoch_payloads(read_events("killed", str(tmp_path)))
    resumed_events = read_events("resumed", str(tmp_path))
    resumed_epochs = _epoch_payloads(resumed_events)
    assert killed_epochs + resumed_epochs == baseline["epochs"]
    assert killed_epochs == baseline["epochs"][: kill_after + 1]
    (resume_event,) = [
        e for e in resumed_events if e["event"] == "train.resume"
    ]
    assert resume_event["epoch"] == kill_after


def test_kill_after_final_epoch_resumes_to_same_result(tiny_data, tmp_path):
    ckpt = str(tmp_path / "train.ckpt")

    def _crash(epoch):
        if epoch == EPOCHS - 1:
            raise _Kill

    model = _make_model("fp32")
    with pytest.raises(_Kill):
        Trainer(_config(on_epoch_end=_crash)).fit(
            model, tiny_data.train, tiny_data.val, checkpoint_path=ckpt
        )

    resumed_model = _make_model("fp32")
    result = Trainer(_config()).fit(
        resumed_model,
        tiny_data.train,
        tiny_data.val,
        checkpoint_path=ckpt,
        resume=True,
    )
    # Nothing left to train: the resumed run reconstructs the final
    # state (best-epoch weights restored) without running an epoch.
    assert result.epochs_run == EPOCHS
    reference_model = _make_model("fp32")
    expected = Trainer(_config()).fit(
        reference_model, tiny_data.train, tiny_data.val
    )
    assert result.history == expected.history
    for name, value in reference_model.state_dict().items():
        np.testing.assert_array_equal(
            resumed_model.state_dict()[name], value
        )


def test_early_stopped_run_resumes_identically(tiny_data, tmp_path):
    """A kill before the early stop still converges to the same stop."""
    ckpt = str(tmp_path / "train.ckpt")
    config = dict(
        epochs=30, batch_size=16, lr=1e-20, patience=2, shuffle_seed=3
    )
    reference_model = _make_model("fp32")
    expected = Trainer(TrainConfig(**config)).fit(
        reference_model, tiny_data.train, tiny_data.val
    )
    assert expected.stopped_early  # lr~0 cannot improve past epoch 0

    def _crash(epoch):
        if epoch == 1:
            raise _Kill

    model = _make_model("fp32")
    with pytest.raises(_Kill):
        Trainer(TrainConfig(on_epoch_end=_crash, **config)).fit(
            model, tiny_data.train, tiny_data.val, checkpoint_path=ckpt
        )
    resumed_model = _make_model("fp32")
    result = Trainer(TrainConfig(**config)).fit(
        resumed_model,
        tiny_data.train,
        tiny_data.val,
        checkpoint_path=ckpt,
        resume=True,
    )
    assert result.stopped_early
    assert result.history == expected.history
    for name, value in reference_model.state_dict().items():
        np.testing.assert_array_equal(
            resumed_model.state_dict()[name], value
        )


def test_resume_after_early_stop_checkpoint_is_a_noop(tiny_data, tmp_path):
    """A checkpoint recording stopped_early never trains another epoch."""
    ckpt = str(tmp_path / "train.ckpt")
    config = dict(
        epochs=30, batch_size=16, lr=1e-20, patience=2, shuffle_seed=3
    )
    model = _make_model("fp32")
    expected = Trainer(TrainConfig(**config)).fit(
        model, tiny_data.train, tiny_data.val, checkpoint_path=ckpt
    )
    assert expected.stopped_early
    resumed_model = _make_model("fp32")
    result = Trainer(TrainConfig(**config)).fit(
        resumed_model,
        tiny_data.train,
        tiny_data.val,
        checkpoint_path=ckpt,
        resume=True,
    )
    assert result.history == expected.history
    assert result.epochs_run == expected.epochs_run
    for name, value in model.state_dict().items():
        np.testing.assert_array_equal(
            resumed_model.state_dict()[name], value
        )


def test_changed_hyperparameters_refuse_to_resume(tiny_data, tmp_path):
    from repro.errors import CheckpointError

    ckpt = str(tmp_path / "train.ckpt")

    def _crash(epoch):
        raise _Kill

    model = _make_model("fp32")
    with pytest.raises(_Kill):
        Trainer(_config(on_epoch_end=_crash)).fit(
            model, tiny_data.train, tiny_data.val, checkpoint_path=ckpt
        )
    with pytest.raises(CheckpointError, match=r"\['lr'\]"):
        Trainer(_config(lr=0.01)).fit(
            _make_model("fp32"),
            tiny_data.train,
            tiny_data.val,
            checkpoint_path=ckpt,
            resume=True,
        )


@pytest.mark.parametrize("kind", DAMAGES)
def test_damaged_checkpoint_refuses_to_resume(tiny_data, tmp_path, kind):
    """A flipped byte or a truncation fails the resume typed."""
    from repro.errors import CheckpointError

    ckpt = str(tmp_path / "train.ckpt")

    def _crash(epoch):
        raise _Kill

    with pytest.raises(_Kill):
        Trainer(_config(on_epoch_end=_crash)).fit(
            _make_model("fp32"), tiny_data.train, tiny_data.val,
            checkpoint_path=ckpt,
        )
    damage(ckpt, kind)
    with pytest.raises(CheckpointError, match="corrupt"):
        Trainer(_config()).fit(
            _make_model("fp32"), tiny_data.train, tiny_data.val,
            checkpoint_path=ckpt, resume=True,
        )


def test_resume_without_checkpoint_path_rejected(tiny_data):
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="checkpoint_path"):
        Trainer(_config()).fit(
            _make_model("fp32"), tiny_data.train, tiny_data.val, resume=True
        )


def test_resume_with_missing_checkpoint_starts_fresh(tiny_data, tmp_path):
    """resume=True on a first run (no file yet) is safe, not an error."""
    ckpt = str(tmp_path / "never-written.ckpt")
    model = _make_model("fp32")
    result = Trainer(_config()).fit(
        model, tiny_data.train, tiny_data.val,
        checkpoint_path=ckpt, resume=True,
    )
    assert result.epochs_run == EPOCHS


def test_real_sigkill_mid_training_resumes_bit_identically(
    tiny_data, tmp_path
):
    """A child process SIGKILLed between epochs leaves a resumable
    checkpoint, and the parent's resumed run matches its own baseline.
    """
    from tests import crashkit

    child = """
import numpy as np
from repro.data.synthetic import SynthImageNet, SynthImageNetConfig
from repro.models import FP32Factory
from repro.models.simple import SimpleCNN
from repro.train import TrainConfig, Trainer

data = SynthImageNet(SynthImageNetConfig(
    num_classes=4, image_size=8, train_per_class=20, val_per_class=8,
    seed=99,
))
model = SimpleCNN(FP32Factory(seed=1), num_classes=4, widths=(4,))

def crash(epoch):
    if epoch == 1:
        {kill}

config = TrainConfig(
    epochs={epochs}, batch_size=16, lr=0.05, patience={epochs} + 1,
    shuffle_seed=3, on_epoch_end=crash,
)
Trainer(config).fit(
    model, data.train, data.val, checkpoint_path="train.ckpt"
)
""".format(kill=crashkit.SELF_KILL, epochs=EPOCHS)

    proc = crashkit.run_child(child, cwd=tmp_path)
    crashkit.assert_killed(proc)
    ckpt = tmp_path / "train.ckpt"
    assert ckpt.exists()

    resumed_model = _make_model("fp32")
    result = Trainer(_config()).fit(
        resumed_model,
        tiny_data.train,
        tiny_data.val,
        checkpoint_path=str(ckpt),
        resume=True,
    )
    reference_model = _make_model("fp32")
    expected = Trainer(_config()).fit(
        reference_model, tiny_data.train, tiny_data.val
    )
    assert result.history == expected.history
    for name, value in reference_model.state_dict().items():
        np.testing.assert_array_equal(
            resumed_model.state_dict()[name], value
        )
