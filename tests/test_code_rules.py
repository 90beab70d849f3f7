"""AST lint rules: each GNN-stack footgun pattern is caught, clean code isn't."""

from pathlib import Path

from m3d_fault_loc.analysis.code_rules import lint_source
from m3d_fault_loc.analysis.violations import Severity

FAKE = Path("fake/module.py")


def fired(source: str, path: Path = FAKE):
    return {v.rule_id for v in lint_source(source, path)}


# -- M3D203 ad-hoc seeding -------------------------------------------------


def test_adhoc_seeding_flagged_outside_blessed_module():
    for call in ("random.seed(0)", "np.random.seed(0)", "torch.manual_seed(0)"):
        assert "M3D203" in fired(f"def setup():\n    {call}\n"), call


def test_seeding_allowed_in_blessed_module():
    src = "import random\ndef seed_everything(s):\n    random.seed(s)\n"
    assert "M3D203" not in fired(src, Path("pkg/utils/seed.py"))


def test_generator_construction_not_flagged():
    src = "import numpy as np\ndef make_rng(s):\n    return np.random.default_rng(s)\n"
    assert "M3D203" not in fired(src)


# -- M3D204 bare except ----------------------------------------------------


def test_bare_except_warning_outside_training():
    findings = [
        v for v in lint_source("try:\n    pass\nexcept:\n    pass\n", FAKE)
        if v.rule_id == "M3D204"
    ]
    assert len(findings) == 1
    assert findings[0].severity == Severity.WARNING


def test_bare_except_error_inside_training_function():
    src = (
        "def train_epoch(batches):\n"
        "    for b in batches:\n"
        "        try:\n"
        "            step(b)\n"
        "        except:\n"
        "            pass\n"
    )
    findings = [v for v in lint_source(src, FAKE) if v.rule_id == "M3D204"]
    assert len(findings) == 1
    assert findings[0].severity == Severity.ERROR


def test_typed_except_clean():
    assert "M3D204" not in fired("try:\n    pass\nexcept ValueError:\n    pass\n")


# -- misc ------------------------------------------------------------------


def test_syntax_error_reported_as_finding():
    findings = lint_source("def broken(:\n", FAKE)
    assert [v.rule_id for v in findings] == ["M3D200"]
    assert findings[0].severity == Severity.ERROR


def test_locations_carry_path_and_line():
    src = "import random\nrandom.seed(3)\n"
    (finding,) = [v for v in lint_source(src, FAKE) if v.rule_id == "M3D203"]
    assert finding.location == f"{FAKE}:2"


# -- M3D205 unbounded module-level dict caches -----------------------------


def test_module_level_dict_cache_warns_outside_serve():
    src = "_RESULT_CACHE = {}\n"
    violations = lint_source(src, FAKE)
    assert [v.rule_id for v in violations] == ["M3D205"]
    assert violations[0].severity is Severity.WARNING


def test_module_level_dict_cache_is_error_inside_serve():
    serve_path = Path("src/m3d_fault_loc/serve/handlers.py")
    for src in ("_cache = {}\n", "MEMO = dict()\n", "score_cache: dict = {}\n"):
        violations = lint_source(src, serve_path)
        assert [v.rule_id for v in violations] == ["M3D205"], src
        assert violations[0].severity is Severity.ERROR, src


def test_bounded_or_non_cache_bindings_clean():
    clean = (
        "_cache = LRUResultCache(capacity=64)\n"  # bounded structure
        "settings = {}\n"  # dict, but not cache-named
        "def lookup(cache):\n"
        "    local_cache = {}\n"  # function-local, not module-level
        "    return cache, local_cache\n"
    )
    assert "M3D205" not in fired(clean)


def test_serve_sources_pass_their_own_rule():
    serve_dir = Path(__file__).resolve().parents[1] / "src" / "m3d_fault_loc" / "serve"
    for source_file in sorted(serve_dir.glob("*.py")):
        violations = lint_source(source_file.read_text(), source_file)
        assert not [v for v in violations if v.rule_id == "M3D205"], source_file


# -- M3D206 unguarded thread-target loops ----------------------------------

UNGUARDED_WORKER = (
    "import threading\n"
    "def _worker_loop(q):\n"
    "    while True:\n"
    "        handle(q.get())\n"
    "def start():\n"
    "    threading.Thread(target=_worker_loop, args=(q,)).start()\n"
)


def test_unguarded_thread_loop_warns_outside_serve():
    findings = [v for v in lint_source(UNGUARDED_WORKER, FAKE) if v.rule_id == "M3D206"]
    assert len(findings) == 1
    assert findings[0].severity is Severity.WARNING
    assert "_worker_loop" in findings[0].message


def test_unguarded_thread_loop_is_error_inside_serve():
    serve_path = Path("src/m3d_fault_loc/serve/workers.py")
    findings = [v for v in lint_source(UNGUARDED_WORKER, serve_path) if v.rule_id == "M3D206"]
    assert len(findings) == 1
    assert findings[0].severity is Severity.ERROR


def test_broadly_guarded_thread_loop_clean():
    src = (
        "import threading\n"
        "def _worker_loop(q):\n"
        "    while True:\n"
        "        try:\n"
        "            handle(q.get())\n"
        "        except Exception:\n"
        "            log()\n"
        "def start():\n"
        "    threading.Thread(target=_worker_loop).start()\n"
    )
    assert "M3D206" not in fired(src)


def test_typed_handler_does_not_count_as_a_guard():
    src = (
        "import queue, threading\n"
        "def _worker_loop(q):\n"
        "    while True:\n"
        "        try:\n"
        "            handle(q.get_nowait())\n"
        "        except queue.Empty:\n"
        "            continue\n"
        "def start():\n"
        "    threading.Thread(target=_worker_loop).start()\n"
    )
    assert "M3D206" in fired(src)


def test_loops_in_non_target_functions_are_ignored():
    src = (
        "def drain(q):\n"
        "    while q:\n"
        "        q.pop()\n"
    )
    assert "M3D206" not in fired(src)


def test_serve_sources_pass_the_thread_loop_rule():
    serve_dir = Path(__file__).resolve().parents[1] / "src" / "m3d_fault_loc" / "serve"
    for source_file in sorted(serve_dir.glob("*.py")):
        violations = lint_source(source_file.read_text(), source_file)
        assert not [v for v in violations if v.rule_id == "M3D206"], source_file


# -- M3D207 print()/root-logging in library code ---------------------------


def test_print_in_library_code_warns():
    src = "def load(path):\n    print('loading', path)\n    return path\n"
    violations = lint_source(src, Path("src/m3d_fault_loc/data/loader.py"))
    (finding,) = [v for v in violations if v.rule_id == "M3D207"]
    assert finding.severity is Severity.WARNING
    assert "trace id" in finding.message


def test_print_inside_serve_is_error():
    src = "def handle(req):\n    print('got', req)\n"
    violations = lint_source(src, Path("src/m3d_fault_loc/serve/handler.py"))
    (finding,) = [v for v in violations if v.rule_id == "M3D207"]
    assert finding.severity is Severity.ERROR


def test_root_logging_calls_flagged():
    src = (
        "import logging\n"
        "logging.basicConfig()\n"
        "def run():\n"
        "    logging.info('started')\n"
        "    logging.warning('odd')\n"
    )
    violations = [
        v for v in lint_source(src, Path("src/m3d_fault_loc/model/train_loop.py"))
        if v.rule_id == "M3D207"
    ]
    assert len(violations) == 3
    assert all("root-logger" in v.message for v in violations)


def test_named_logger_and_structured_logger_clean():
    src = (
        "import logging\n"
        "from m3d_fault_loc.obs.logging import get_logger\n"
        "log = get_logger(__name__)\n"
        "stdlog = logging.getLogger(__name__)\n"
        "def run():\n"
        "    log.info('event', x=1)\n"
        "    stdlog.debug('fine')\n"
    )
    assert "M3D207" not in fired(src, Path("src/m3d_fault_loc/serve/service.py"))


def test_cli_scripts_and_tests_are_exempt():
    src = "def main():\n    print('model saved')\n"
    for path in (
        Path("src/m3d_fault_loc/cli/train.py"),
        Path("src/m3d_fault_loc/obs/cli.py"),
        Path("scripts/serve_smoke.py"),
        Path("tests/test_something.py"),
    ):
        assert "M3D207" not in fired(src, path), path


def test_library_sources_pass_the_output_rule():
    src_root = Path(__file__).resolve().parents[1] / "src" / "m3d_fault_loc"
    for source_file in sorted(src_root.rglob("*.py")):
        violations = lint_source(source_file.read_text(), source_file)
        assert not [v for v in violations if v.rule_id == "M3D207"], source_file


# -- M3D209 scenario RNG discipline ----------------------------------------


def test_global_stream_draw_warns_outside_generators():
    src = (
        "import numpy as np\n"
        "def jitter(x):\n"
        "    return x + np.random.uniform(0.0, 1.0)\n"
    )
    (finding,) = [v for v in lint_source(src, FAKE) if v.rule_id == "M3D209"]
    assert finding.severity is Severity.WARNING
    assert "ScenarioSpec.rng()" in finding.message


def test_global_stream_draw_is_error_inside_scenarios_and_data():
    src = (
        "import numpy as np\n"
        "def generate(spec):\n"
        "    return np.random.normal(size=3)\n"
    )
    for tree in ("scenarios", "data"):
        strict_path = Path(f"src/m3d_fault_loc/{tree}/gen.py")
        (finding,) = [v for v in lint_source(src, strict_path) if v.rule_id == "M3D209"]
        assert finding.severity is Severity.ERROR, tree


def test_unseeded_default_rng_flagged_seeded_clean():
    unseeded = (
        "import numpy as np\n"
        "def generate():\n"
        "    return np.random.default_rng().uniform()\n"
    )
    unseeded_import = (
        "from numpy.random import default_rng\n"
        "def generate():\n"
        "    return default_rng().uniform()\n"
    )
    seeded = (
        "import numpy as np\n"
        "def generate(seed):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    return rng.uniform(0.0, 1.0)\n"
    )
    assert "M3D209" in fired(unseeded)
    assert "M3D209" in fired(unseeded_import)
    assert "M3D209" not in fired(seeded)


def test_threaded_generator_draws_are_clean():
    src = (
        "def generate(spec):\n"
        "    rng = spec.rng()\n"
        "    return rng.binomial(16, rng.uniform(0.2, 0.9))\n"
    )
    assert "M3D209" not in fired(src, Path("src/m3d_fault_loc/scenarios/gen.py"))


def test_np_random_seed_is_m3d203s_finding_not_m3d209s():
    src = "import numpy as np\nnp.random.seed(0)\n"
    rule_ids = fired(src)
    assert "M3D203" in rule_ids
    findings = [v for v in lint_source(src, FAKE) if v.rule_id == "M3D209"]
    assert findings == []


def test_blessed_seed_module_exempt_from_m3d209():
    src = (
        "import numpy as np\n"
        "def seed_everything(seed):\n"
        "    np.random.seed(seed)\n"
        "    return np.random.default_rng(seed)\n"
    )
    assert "M3D209" not in fired(src, Path("src/m3d_fault_loc/utils/seed.py"))


def test_scenario_and_data_sources_pass_rng_discipline():
    src_root = Path(__file__).resolve().parents[1] / "src" / "m3d_fault_loc"
    for tree in ("scenarios", "data"):
        for source_file in sorted((src_root / tree).rglob("*.py")):
            violations = lint_source(source_file.read_text(), source_file)
            assert not [v for v in violations if v.rule_id == "M3D209"], source_file


# -- M3D210 client timeouts -------------------------------------------------


def test_http_connection_without_timeout_warns():
    src = (
        "import http.client\n"
        "conn = http.client.HTTPConnection('replica')\n"
    )
    (finding,) = [v for v in lint_source(src, FAKE) if v.rule_id == "M3D210"]
    assert finding.severity is Severity.WARNING
    assert "timeout" in finding.message


def test_http_connection_without_timeout_inside_serve_is_error():
    src = (
        "import http.client\n"
        "conn = http.client.HTTPConnection('replica', 8361)\n"
    )
    serve_path = Path("src/m3d_fault_loc/serve/router.py")
    (finding,) = [v for v in lint_source(src, serve_path) if v.rule_id == "M3D210"]
    assert finding.severity is Severity.ERROR


def test_timeout_kwarg_and_positional_slot_are_clean():
    src = (
        "import http.client\n"
        "import socket\n"
        "import urllib.request\n"
        "a = http.client.HTTPConnection('h', 80, timeout=5.0)\n"
        "b = http.client.HTTPConnection('h', 80, 5.0)\n"
        "c = socket.create_connection(('h', 80), 5.0)\n"
        "d = socket.create_connection(('h', 80), timeout=5.0)\n"
        "e = urllib.request.urlopen('http://h', None, 5.0)\n"
        "f = urllib.request.urlopen('http://h', timeout=5.0)\n"
    )
    assert "M3D210" not in fired(src)


def test_aliased_imports_still_flagged():
    src = (
        "import http.client as hc\n"
        "from socket import create_connection as cc\n"
        "from http.client import HTTPSConnection\n"
        "a = hc.HTTPConnection('h')\n"
        "b = cc(('h', 80))\n"
        "c = HTTPSConnection('h')\n"
    )
    findings = [v for v in lint_source(src, FAKE) if v.rule_id == "M3D210"]
    assert len(findings) == 3


def test_kwargs_splat_assumed_to_carry_timeout():
    src = (
        "import socket\n"
        "def dial(addr, **opts):\n"
        "    return socket.create_connection(addr, **opts)\n"
    )
    assert "M3D210" not in fired(src)


def test_unrelated_callables_not_flagged():
    src = (
        "class HTTPConnection:\n"
        "    pass\n"
        "conn = HTTPConnection()\n"
        "mine = some.other.create_connection('x')\n"
    )
    assert "M3D210" not in fired(src)


def test_serve_sources_pass_the_client_timeout_rule():
    src_root = Path(__file__).resolve().parents[1] / "src" / "m3d_fault_loc"
    for source_file in sorted((src_root / "serve").rglob("*.py")):
        violations = lint_source(source_file.read_text(), source_file)
        assert not [v for v in violations if v.rule_id == "M3D210"], source_file


# -- M3D211 wall-clock duration measurement ---------------------------------


def test_time_time_subtraction_of_tainted_names_flagged():
    src = (
        "import time\n"
        "def work():\n"
        "    t0 = time.time()\n"
        "    do_work()\n"
        "    t1 = time.time()\n"
        "    return t1 - t0\n"
    )
    (finding,) = [v for v in lint_source(src, FAKE) if v.rule_id == "M3D211"]
    assert finding.severity is Severity.WARNING
    assert "time.monotonic() or time.perf_counter()" in finding.message


def test_direct_time_time_call_minus_start_flagged():
    src = (
        "import time\n"
        "def work(started):\n"
        "    return time.time() - started\n"
    )
    assert "M3D211" in fired(src)


def test_timestamp_cutoff_arithmetic_not_flagged():
    src = (
        "import time\n"
        "def cutoff():\n"
        "    return time.time() - 3600\n"
        "def age_vs_epoch(record):\n"
        "    return record['ts'] - 300\n"
    )
    assert "M3D211" not in fired(src)


def test_bare_timestamps_and_unrelated_subtraction_not_flagged():
    src = (
        "import time\n"
        "def stamp(row):\n"
        "    row['ts'] = time.time()\n"
        "    return row\n"
        "def spread(a, b):\n"
        "    return a - b\n"
    )
    assert "M3D211" not in fired(src)


def test_monotonic_and_perf_counter_durations_clean():
    src = (
        "import time\n"
        "def work():\n"
        "    t0 = time.monotonic()\n"
        "    p0 = time.perf_counter()\n"
        "    do_work()\n"
        "    return time.monotonic() - t0, time.perf_counter() - p0\n"
    )
    assert "M3D211" not in fired(src)


def test_aliased_time_imports_still_flagged():
    module_alias = (
        "import time as t\n"
        "def work():\n"
        "    start = t.time()\n"
        "    return t.time() - start\n"
    )
    name_alias = (
        "from time import time as now\n"
        "def work():\n"
        "    start = now()\n"
        "    return now() - start\n"
    )
    assert "M3D211" in fired(module_alias)
    assert "M3D211" in fired(name_alias)


def test_wallclock_duration_is_error_inside_serve_and_obs():
    src = (
        "import time\n"
        "def lat():\n"
        "    t0 = time.time()\n"
        "    handle()\n"
        "    return time.time() - t0\n"
    )
    for tree in ("serve", "obs"):
        strict_path = Path(f"src/m3d_fault_loc/{tree}/mod.py")
        (finding,) = [v for v in lint_source(src, strict_path) if v.rule_id == "M3D211"]
        assert finding.severity is Severity.ERROR, tree
    (finding,) = [v for v in lint_source(src, FAKE) if v.rule_id == "M3D211"]
    assert finding.severity is Severity.WARNING


def test_wallclock_duration_suppression_pragma():
    src = (
        "import time\n"
        "def legacy():\n"
        "    t0 = time.time()\n"
        "    return time.time() - t0  # m3dlint: disable=M3D211 reason=legacy API\n"
    )
    assert "M3D211" not in fired(src)


def test_serve_and_obs_sources_pass_the_wallclock_rule():
    src_root = Path(__file__).resolve().parents[1] / "src" / "m3d_fault_loc"
    for tree in ("serve", "obs"):
        for source_file in sorted((src_root / tree).rglob("*.py")):
            violations = lint_source(source_file.read_text(), source_file)
            assert not [v for v in violations if v.rule_id == "M3D211"], source_file
