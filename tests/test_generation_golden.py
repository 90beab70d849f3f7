"""Pinned generation oracle: synthesized datasets must not move by one byte.

Every digest below is the sha256 of the canonical JSON
(``json.dumps(g.to_json_dict(), sort_keys=True)``, one graph per line) of a
scenario's dataset, recorded once and never regenerated. Generating twice
and comparing only proves self-consistency; these pins also catch a change
that moves the bytes the same way on both sides (node order, a float
rounding, one RNG draw more or less). A failure here means the generator's
output changed: fix the generator, do not re-record the digest.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from m3d_fault_loc.scenarios import ScenarioSpec, get_scenario, scenario_names

#: (n_graphs, n_gates, n_inputs, num_tiers, seed). The one-input 4-tier spec
#: reaches the re-anchor branch of ``random_netlist``.
SPECS: dict[str, tuple[int, int, int, int, int]] = {
    "2tier-30": (4, 30, 6, 2, 2022),
    "2tier-120": (2, 120, 6, 2, 3022),
    "3tier-120": (2, 120, 6, 3, 7),
    "4tier-200": (1, 200, 8, 4, 11),
    "4tier-30-1in": (3, 30, 1, 4, 5),
}

#: sha256 per (scenario, spec), recorded before the single-sort timing path.
DATASET_DIGESTS: dict[tuple[str, str], str] = {
    ("intermittent_delay", "2tier-30"):
        "76cf9b59f2c9c3a3ed3e30dbccc6bdda45c3e5628e0634118d9224ee2f949f85",
    ("intermittent_delay", "2tier-120"):
        "9cd98919e3510e46a974f347c0eba841425fdb3ea1c9f1bedab91c0e37c893a4",
    ("intermittent_delay", "3tier-120"):
        "3fe1794c6483f7b649a080cfcfccbb5214760e025049676031d67420f7504b1c",
    ("intermittent_delay", "4tier-200"):
        "cc74bbf6b764fab1cb58ac1bdb51f3b109b14e45af9276985c01b619b2064a6e",
    ("intermittent_delay", "4tier-30-1in"):
        "ba8c7a74b1fddd32eeecf3bbf8357d80946e7f6e12478229b73e18e27f3b4226",
    ("multi_delay", "2tier-30"):
        "90d6ac7ba6fa8635364f9ee6fe75c0801d13ae8e19a1d7b16e28d7fbee8d19bc",
    ("multi_delay", "2tier-120"):
        "2f0f5d76b442c6f7ed615a073db97e03e147aee1c311f08fd1c6ff8e21c5b36f",
    ("multi_delay", "3tier-120"):
        "30619a009a5bf3f744cf023c2307374aa3a35d9b5815644fe267c5e2b34dd15e",
    ("multi_delay", "4tier-200"):
        "ce7d8b9f81b448dab3d6b41dc78169e91bde424038204062d65f2ad2e6765f88",
    ("multi_delay", "4tier-30-1in"):
        "722c9ef42a6393a3b5bf94cd9b9e0ec76f77db02e372e241075490e491acc27f",
    ("seu_bitflip", "2tier-30"):
        "4348cdaaf226b2ac38a30c9dab06fb237ea59d4e62d41070321aab4691fac89f",
    ("seu_bitflip", "2tier-120"):
        "91df8a9355c6e064b26216d3b59bf3a043bde26af92eb78c7d6be75045fd6031",
    ("seu_bitflip", "3tier-120"):
        "101eae0c82680b1afce5523ce251a0f4722b7f4b293c2fa137d2953ae997d6e7",
    ("seu_bitflip", "4tier-200"):
        "59edf33bbf185434340109050737459965b063f127cf6f605847a53896255dfc",
    ("seu_bitflip", "4tier-30-1in"):
        "b6b0d1c9d7d984ff873ad165fb06baa69cf34dc092ee396bbb9e8644f5803ceb",
    ("single_delay", "2tier-30"):
        "269ec5fd43d95ef3ce5af4fdc92568944cea7c745c955c54df69d9881d1feed0",
    ("single_delay", "2tier-120"):
        "07216147300df15aad810345839ef9f21b210b5e2d85516ebc6cb411cf9f6b66",
    ("single_delay", "3tier-120"):
        "3d22304c379af4876f98cac2c649d610cf0fb680eb69522014b694af61525ec7",
    ("single_delay", "4tier-200"):
        "ecb37d378c62584bcc7b99d84246a1f97b91ec2654379f2ee8f9c81ee9a3fddb",
    ("single_delay", "4tier-30-1in"):
        "108c30eaa1e52b968d895556de43f8b7ff3fa58dd9180ee892fd7168ade6fc77",
}

#: sha256 of ``rng.bit_generator.state`` after ``single_delay``'s generation loop.
RNG_STATE_DIGESTS: dict[str, str] = {
    "2tier-30": "d41f1be537de5c2491919a6c89da88fa3508720216eee3159e2f866e33810f6e",
    "2tier-120": "a91285141b51d38fec7267187c8b497715dffb1e4f3e5e2d30e33fc87d58db81",
    "3tier-120": "13fa1a906402d94e63205f866700683409e411280d9306f209f158147f8044dd",
    "4tier-200": "c7c577e23d6c315e1e9052e01bc5b620417764fa50a98491865fe0e37ba05dd7",
    "4tier-30-1in": "9d04cc00a6f35847f695895ddc834badb26ab84f8824ae7a5834209895524a7c",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def spec_for(spec_key: str) -> ScenarioSpec:
    n_graphs, n_gates, n_inputs, num_tiers, seed = SPECS[spec_key]
    return ScenarioSpec(
        n_graphs=n_graphs, n_gates=n_gates, n_inputs=n_inputs, num_tiers=num_tiers, seed=seed
    )


def dataset_digest(scenario: str, spec_key: str) -> str:
    graphs = get_scenario(scenario).generate(spec_for(spec_key))
    return _sha("\n".join(json.dumps(g.to_json_dict(), sort_keys=True) for g in graphs))


def rng_state_digest(spec_key: str, monkeypatch: pytest.MonkeyPatch) -> str:
    """Generate ``single_delay`` and hash the state of the one RNG it drew from."""
    made = []
    make_rng = ScenarioSpec.rng

    def recording_rng(spec: ScenarioSpec):
        made.append(make_rng(spec))
        return made[-1]

    monkeypatch.setattr(ScenarioSpec, "rng", recording_rng)
    get_scenario("single_delay").generate(spec_for(spec_key))
    (rng,) = made
    return _sha(json.dumps(rng.bit_generator.state, sort_keys=True))


def test_every_scenario_and_spec_is_pinned():
    assert set(DATASET_DIGESTS) == {(s, k) for s in scenario_names() for k in SPECS}
    assert set(RNG_STATE_DIGESTS) == set(SPECS)


@pytest.mark.parametrize("scenario,spec_key", sorted(DATASET_DIGESTS))
def test_dataset_bytes_match_pinned_digest(scenario, spec_key):
    assert dataset_digest(scenario, spec_key) == DATASET_DIGESTS[scenario, spec_key]


@pytest.mark.parametrize("spec_key", sorted(RNG_STATE_DIGESTS))
def test_rng_state_after_synthesis_matches_pinned_digest(spec_key, monkeypatch):
    assert rng_state_digest(spec_key, monkeypatch) == RNG_STATE_DIGESTS[spec_key]
