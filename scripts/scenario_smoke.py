"""Per-scenario smoke of the scenario platform against a real subprocess.

For every registered scenario: generate a tiny seeded dataset, gate it with
the scenario's composed contract engine (base M3D10x + tag rule + M3D11x
payload rules), and drive one ``/localize`` round-trip over real HTTP with
the ``scenario`` field set — asserting the response echoes the scenario and
ranks nodes. Then the negative paths: an unknown scenario must 422 with the
known-scenario list, and a graph tagged for one scenario submitted under
another must 422 citing M3D110. Finally the per-scenario request counters
must all have advanced on ``/metrics``. Exits non-zero on any failure.

Usage::

    PYTHONPATH=src python scripts/scenario_smoke.py --model /tmp/localizer.npz
"""

from __future__ import annotations

import argparse
import http.client
import json
import subprocess
import sys
from pathlib import Path
from typing import Any

from m3d_fault_loc.scenarios import (
    ScenarioSpec,
    build_scenario_engine,
    get_scenario,
    scenario_names,
)

SPEC = ScenarioSpec(n_graphs=2, n_gates=12, n_inputs=3, num_tiers=2, seed=23)


def _request(
    port: int, method: str, path: str, body: dict[str, Any] | None = None
) -> tuple[int, Any]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = json.dumps(body) if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type") or ""
        return response.status, json.loads(raw) if "json" in content_type else raw.decode()
    finally:
        conn.close()


def _check(condition: bool, label: str) -> None:
    if not condition:
        raise AssertionError(f"smoke check failed: {label}")
    print(f"ok: {label}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", type=Path, required=True, help="trained .npz artifact")
    args = parser.parse_args(argv)

    names = scenario_names()

    # Offline half: every scenario generates deterministically and self-gates.
    sample: dict[str, Any] = {}
    for name in names:
        scenario = get_scenario(name)
        graphs = scenario.generate(SPEC)
        again = scenario.generate(SPEC)
        _check(
            [json.dumps(g.to_json_dict(), sort_keys=True) for g in graphs]
            == [json.dumps(g.to_json_dict(), sort_keys=True) for g in again],
            f"{name}: regeneration from the same spec is byte-identical",
        )
        engine = build_scenario_engine(name)
        _check(
            all(engine.run(g) == [] for g in graphs),
            f"{name}: generated graphs pass their own contract engine",
        )
        sample[name] = graphs[0]

    proc = subprocess.Popen(
        [sys.executable, "-m", "m3d_fault_loc.cli.serve", "--model", str(args.model),
         "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        port = None
        assert proc.stdout is not None
        for _ in range(20):
            line = proc.stdout.readline()
            if not line:
                break
            print(f"[server] {line.rstrip()}")
            if line.startswith("serving on http://"):
                port = int(line.rsplit(":", 1)[1])
                break
        _check(port is not None, "server booted and printed its ephemeral port")
        assert port is not None

        served: set[str] = set()
        for name in names:
            status, body = _request(
                port, "POST", "/localize",
                {"graph": sample[name].to_json_dict(), "top_k": 3, "scenario": name},
            )
            _check(status == 200, f"{name}: POST /localize round-trips")
            _check(body["scenario"] == name, f"{name}: response echoes the scenario")
            _check(len(body["top"]) == 3, f"{name}: response ranks top-3 nodes")
            served.add(body["scenario"])
        _check(
            bool(served) and served == set(names),
            f"served every scenario in the table ({', '.join(names)})",
        )

        status, body = _request(
            port, "POST", "/localize",
            {"graph": sample[names[0]].to_json_dict(), "scenario": "no_such_scenario"},
        )
        _check(
            status == 422 and body["error"] == "unknown_scenario" and body["known"] == names,
            "unknown scenario rejected with 422 + known list",
        )

        tagged = next(
            name for name in names if "scenario" in sample[name].meta
        )
        other = next(name for name in names if name != tagged)
        status, body = _request(
            port, "POST", "/localize",
            {"graph": sample[tagged].to_json_dict(), "scenario": other},
        )
        _check(
            status == 422
            and body["error"] == "contract_violation"
            and any(v["rule_id"] == "M3D110" for v in body["violations"]),
            f"{tagged} graph under {other} engine rejected citing M3D110",
        )

        status, metrics = _request(port, "GET", "/metrics?format=json")
        _check(status == 200, "GET /metrics responds")
        _check(
            all(
                metrics[f'm3d_scenario_requests_total{{scenario="{n}"}}']["value"] >= 1
                for n in names
            ),
            "per-scenario request counters advanced for every scenario",
        )
        print("scenario smoke: PASS")
        return 0
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()


if __name__ == "__main__":
    sys.exit(main())
