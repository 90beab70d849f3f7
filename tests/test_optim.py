"""Training-stability helpers: gradient clipping and the non-finite-loss guard."""

import json

import numpy as np
import pytest

from m3d_fault_loc.cli import train as train_cli
from m3d_fault_loc.data.dataset import CircuitGraphDataset
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.model.optim import (
    NonFiniteLossError,
    clip_by_global_norm,
    global_grad_norm,
)
from m3d_fault_loc.scenarios import ScenarioSpec, get_scenario


def tiny_dataset(n_graphs=6):
    return CircuitGraphDataset.from_graphs(
        get_scenario("single_delay").generate(
            ScenarioSpec(n_graphs=n_graphs, n_gates=10, n_inputs=3, seed=0)
        )
    )


# -- clipping --------------------------------------------------------------


def test_global_grad_norm_flattens_across_entries():
    grads = {"a": np.array([3.0]), "b": np.array([[4.0]])}
    assert global_grad_norm(grads) == pytest.approx(5.0)


def test_clip_scales_in_place_and_returns_preclip_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    returned = clip_by_global_norm(grads, max_norm=1.0)
    assert returned == pytest.approx(5.0)
    assert global_grad_norm(grads) == pytest.approx(1.0)
    assert grads["a"][0] == pytest.approx(0.6)
    assert grads["b"][0] == pytest.approx(0.8)


def test_clip_is_a_noop_under_the_limit():
    grads = {"a": np.array([0.3, 0.4])}
    returned = clip_by_global_norm(grads, max_norm=2.0)
    assert returned == pytest.approx(0.5)
    np.testing.assert_array_equal(grads["a"], [0.3, 0.4])


def test_clip_leaves_non_finite_gradients_alone():
    grads = {"a": np.array([np.inf, 1.0])}
    assert clip_by_global_norm(grads, max_norm=1.0) == np.inf
    assert np.isinf(grads["a"][0]), "scaling inf grads would yield NaN, not a clip"


def test_clip_rejects_non_positive_max_norm():
    with pytest.raises(ValueError, match="positive"):
        clip_by_global_norm({"a": np.zeros(2)}, max_norm=0.0)


# -- non-finite-loss guard -------------------------------------------------


def test_train_aborts_on_nan_loss_with_context(monkeypatch):
    def nan_loss(self, graph, out=None):
        out = np.zeros_like(self.flat) if out is None else out
        out.fill(0.0)
        return float("nan"), self.views(out)

    monkeypatch.setattr(DelayFaultLocalizer, "loss_and_grads", nan_loss)
    dataset = tiny_dataset()
    with pytest.raises(NonFiniteLossError) as exc_info:
        train_cli.train(dataset, np.random.default_rng(0), epochs=1, hidden=8, log=None)
    message = str(exc_info.value)
    assert "epoch 0" in message and "--clip-norm" in message


def test_train_cli_exits_nonzero_on_nan_loss(tmp_path, monkeypatch, capsys):
    def inf_loss(self, graph, out=None):
        out = np.zeros_like(self.flat) if out is None else out
        out.fill(0.0)
        return float("inf"), self.views(out)

    monkeypatch.setattr(DelayFaultLocalizer, "loss_and_grads", inf_loss)
    out = tmp_path / "model.npz"
    rc = train_cli.main(
        ["--n-graphs", "8", "--n-gates", "10", "--epochs", "1", "--hidden", "8",
         "--out", str(out)]
    )
    assert rc == 1
    assert "training aborted" in capsys.readouterr().err
    assert not out.exists(), "a poisoned model must never reach disk"


def test_train_cli_accepts_clip_norm_end_to_end(tmp_path, capsys):
    out = tmp_path / "model.npz"
    rc = train_cli.main(
        ["--n-graphs", "12", "--n-gates", "10", "--epochs", "2", "--hidden", "8",
         "--clip-norm", "1.0", "--out", str(out)]
    )
    assert rc == 0
    assert out.exists()
    assert "held-out localization accuracy" in capsys.readouterr().out


# -- non-finite parameters and invalid arguments never reach disk -----------


def test_train_aborts_when_the_last_step_leaves_non_finite_params():
    """One minibatch and one epoch: no later loss sees the poisoned step."""
    dataset = tiny_dataset(n_graphs=4)
    with pytest.raises(NonFiniteLossError, match="non-finite parameters"):
        train_cli.train(
            dataset, np.random.default_rng(0), epochs=1, batch_size=8, hidden=8,
            lr=float("nan"), log=None,
        )


def test_train_cli_never_saves_non_finite_params(tmp_path, monkeypatch, capsys):
    def poison(self, grads):
        self.params.fill(np.nan)

    monkeypatch.setattr(train_cli.Adam, "step", poison)
    out = tmp_path / "model.npz"
    log = tmp_path / "train.jsonl"
    rc = train_cli.main(
        ["--n-graphs", "8", "--n-gates", "10", "--epochs", "1", "--batch-size", "8",
         "--hidden", "8", "--out", str(out), "--metrics-log", str(log)]
    )
    assert rc == 1
    assert "non-finite parameters" in capsys.readouterr().err
    assert not out.exists(), "a poisoned model must never reach disk"
    events = [json.loads(line)["event"] for line in log.read_text().splitlines()]
    assert events[-1] == "aborted"


@pytest.mark.parametrize(
    ("flag", "value"),
    [
        ("--n-graphs", "0"),
        ("--n-gates", "0"),
        ("--n-inputs", "0"),
        ("--num-tiers", "0"),
        ("--epochs", "-1"),
        ("--batch-size", "0"),
        ("--batch-size", "-1"),
        ("--hidden", "0"),
        ("--lr", "nan"),
        ("--lr", "0"),
        ("--lr", "inf"),
        ("--clip-norm", "-1"),
        ("--clip-norm", "nan"),
    ],
)
def test_train_cli_refuses_bad_arguments(tmp_path, capsys, flag, value):
    out = tmp_path / "model.npz"
    with pytest.raises(SystemExit) as exc_info:
        train_cli.main(["--n-graphs", "8", "--epochs", "1", "--out", str(out), flag, value])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "Traceback" not in err
    assert not out.exists()
