"""Machine fingerprint stamped on every e2ebench record."""

from m3d_fault_loc.bench.harness import machine_fingerprint


def test_machine_fingerprint_names_the_stack():
    fp = machine_fingerprint()
    assert {"platform", "python", "numpy", "scipy", "cpu_count"} <= set(fp)
