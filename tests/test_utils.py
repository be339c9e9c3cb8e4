"""Checkpoint and timing utility tests."""

import numpy as np
import pytest

from repro.models import GINGraphClassifier
from repro.nn import Linear
from repro.utils import Timer, load_checkpoint, save_checkpoint


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        model = Linear(4, 3, rng=np.random.default_rng(1))
        path = save_checkpoint(model, tmp_path / "model",
                               metadata={"epoch": 7, "best": 0.91})
        assert path.suffix == ".npz"
        fresh = Linear(4, 3, rng=np.random.default_rng(2))
        assert not np.allclose(fresh.weight.data, model.weight.data)
        metadata = load_checkpoint(fresh, path)
        assert np.allclose(fresh.weight.data, model.weight.data)
        assert metadata["epoch"] == 7.0
        assert metadata["best"] == pytest.approx(0.91)

    def test_buffers_round_trip(self, tmp_path):
        """BatchNorm running statistics survive checkpointing."""
        model = GINGraphClassifier(4, 2, hidden=8,
                                   rng=np.random.default_rng(0))
        # Mutate a running buffer to a distinctive value.
        bn = model.convs[0].mlp[1]
        bn.set_buffer("running_mean", np.full(8, 3.25))
        path = save_checkpoint(model, tmp_path / "gin")
        fresh = GINGraphClassifier(4, 2, hidden=8,
                                   rng=np.random.default_rng(5))
        load_checkpoint(fresh, path)
        assert np.allclose(fresh.convs[0].mlp[1].running_mean, 3.25)

    def test_wrong_architecture_fails_loudly(self, tmp_path):
        a = Linear(4, 3, rng=np.random.default_rng(0))
        b = Linear(5, 3, rng=np.random.default_rng(0))
        path = save_checkpoint(a, tmp_path / "a")
        with pytest.raises((KeyError, ValueError)):
            load_checkpoint(b, path)

    def test_suffix_appended(self, tmp_path):
        model = Linear(2, 2, rng=np.random.default_rng(0))
        path = save_checkpoint(model, tmp_path / "plain")
        assert path.name == "plain.npz"
        # Loading via the suffix-less name also works.
        load_checkpoint(model, tmp_path / "plain")


class TestTimer:
    def test_accumulates_laps(self):
        timer = Timer()
        with timer:
            sum(range(100))
        with timer:
            sum(range(100))
        assert len(timer.laps) == 2
        assert timer.total >= 0.0
        assert timer.mean == pytest.approx(timer.total / 2)

    def test_empty_mean_is_zero(self):
        assert Timer().mean == 0.0

    def test_exit_without_enter(self):
        with pytest.raises(RuntimeError):
            Timer().__exit__(None, None, None)
