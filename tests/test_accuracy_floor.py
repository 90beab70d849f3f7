"""Held-out accuracy floor for ``single_delay``, measured against a non-learned
baseline.

Every fault origin lies in its graph's max-``slack_delta`` class: the nodes
whose slack delta is within ``CLASS_TOL`` of the largest one. Picking a node
uniformly inside that class is the baseline a model that only reads its own
row's slack delta would reach; the GNN must beat it by ``MARGIN`` on every
seed. Figures at the commit that introduced this test (``train()``
defaults, 240 graphs x 60 gates, 25 epochs, 25% held out; held-out hit@1 /
class baseline): seed 0 0.683 / 0.420, seed 1 0.683 / 0.428, seed 2
0.717 / 0.480. The config is fixed: do not re-seed or resize it to make a
failing run pass.
"""

import numpy as np
import pytest

from m3d_fault_loc.cli.train import localization_accuracy, train
from m3d_fault_loc.data.dataset import CircuitGraphDataset
from m3d_fault_loc.graph.schema import FEATURE_COLUMNS
from m3d_fault_loc.scenarios import ScenarioSpec, get_scenario

N_GRAPHS = 240
N_GATES = 60
EPOCHS = 25
TEST_FRACTION = 0.25
CLASS_TOL = 1e-4
MARGIN = 0.15

SLACK_DELTA = FEATURE_COLUMNS.index("slack_delta")


def class_baseline_hit1(dataset: CircuitGraphDataset) -> float:
    """Expected hit@1 of a uniform pick inside each graph's max-slack-delta class."""
    total = 0.0
    for graph in dataset:
        delta = graph.x[:, SLACK_DELTA].astype(np.float64)
        members = np.flatnonzero(delta >= delta.max() - CLASS_TOL)
        if graph.fault_index in members:
            total += 1.0 / len(members)
    return total / len(dataset)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_single_delay_beats_the_max_slack_delta_class_baseline(seed):
    graphs = get_scenario("single_delay").generate(
        ScenarioSpec(n_graphs=N_GRAPHS, n_gates=N_GATES, seed=seed)
    )
    rng = np.random.default_rng(seed)
    train_set, test_set = CircuitGraphDataset.from_graphs(graphs).split(
        rng, test_fraction=TEST_FRACTION
    )
    model = train(train_set, rng, epochs=EPOCHS, seed=seed, log=None)

    baseline = class_baseline_hit1(test_set)
    hit1 = localization_accuracy(model, test_set)
    assert 0.3 < baseline < 0.6, f"the class baseline moved: {baseline:.3f}"
    assert hit1 >= baseline + MARGIN, (
        f"seed {seed}: held-out hit@1 {hit1:.3f} < class baseline {baseline:.3f} + {MARGIN}"
    )
