"""train() against a plain re-statement of the training loop.

The oracle below is the straightforward loop: a dict of zeroed gradients
per minibatch, ``loss_and_grads(graph)`` on each raw graph, per-key
accumulation, and a per-key Adam. ``train()`` prepares each graph once per
run and keeps parameters, gradients and optimizer state in flat vectors;
it must land on the same floats, not nearly the same.
"""

import numpy as np
import pytest

from m3d_fault_loc.cli.train import train
from m3d_fault_loc.data.dataset import CircuitGraphDataset
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.model.optim import clip_by_global_norm, global_grad_norm
from m3d_fault_loc.scenarios import ScenarioSpec, get_scenario


class _RecordingTelemetry:
    def __init__(self):
        self.events = []

    def emit(self, event, **fields):
        self.events.append({"event": event, **fields})


class _DictAdam:
    """Adam over a ``dict[str, np.ndarray]``, one key at a time."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self._m = {k: np.zeros_like(v) for k, v in params.items()}
        self._v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads):
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for key, param in self.params.items():
            g = grads[key]
            m = self._m[key]
            v = self._v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            param -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


def oracle_train(dataset, rng, epochs, batch_size, lr, hidden, seed, clip_norm):
    model = DelayFaultLocalizer(hidden=hidden, seed=seed)
    optimizer = _DictAdam(model.params, lr=lr)
    history = []
    for _ in range(epochs):
        order = rng.permutation(len(dataset))
        total_loss = 0.0
        max_norm = 0.0
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            grads = {k: np.zeros_like(v) for k, v in model.params.items()}
            for i in batch:
                loss, g = model.loss_and_grads(dataset[int(i)])
                total_loss += loss
                for k in grads:
                    grads[k] += g[k] / len(batch)
            if clip_norm is not None:
                norm = clip_by_global_norm(grads, clip_norm)
            else:
                norm = global_grad_norm(grads)
            max_norm = max(max_norm, norm)
            optimizer.step(grads)
        history.append((round(total_loss / len(dataset), 6), round(max_norm, 6)))
    return model, history


@pytest.fixture(scope="module")
def dataset():
    # 13 graphs: batch size 4 leaves a last minibatch of 1.
    return CircuitGraphDataset.from_graphs(
        get_scenario("single_delay").generate(
            ScenarioSpec(n_graphs=13, n_gates=14, n_inputs=4, seed=5)
        )
    )


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("clip_norm", [None, 0.5])
def test_train_matches_the_dict_loop_bit_for_bit(dataset, seed, clip_norm):
    config = dict(epochs=4, batch_size=4, lr=2e-2, hidden=6, seed=seed, clip_norm=clip_norm)
    expected, expected_history = oracle_train(
        dataset, np.random.default_rng(seed + 100), **config
    )
    telemetry = _RecordingTelemetry()
    got = train(
        dataset, np.random.default_rng(seed + 100), log=None, telemetry=telemetry, **config
    )

    assert got.params.keys() == expected.params.keys()
    for key in expected.params:
        assert np.array_equal(got.params[key], expected.params[key]), key
    assert got.fingerprint() == expected.fingerprint()
    history = [(e["loss"], e["grad_norm"]) for e in telemetry.events if e["event"] == "epoch"]
    assert history == expected_history
    if clip_norm is not None:
        assert max(norm for _, norm in history) > clip_norm, "the clip branch must scale"
