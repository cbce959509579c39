"""The benchmark's own tests.

Run from the root of a checkout (takes a few minutes; it is not part of
the repository's tier-1 suite)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import SELF_TIME_METRICS  # noqa: E402

#: a seed never used while the benchmark was written or tuned
HELD_OUT_SEED = 4242
WORKLOADS = run.WORKLOAD_NAMES


@pytest.fixture(scope="module")
def reports():
    """Two traced measurements (each >= 2 processes) per workload at seed 1."""
    return {w: [run.measure(w, 1, 0, trace=True) for _ in range(2)] for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_metrics_repeat_exactly(reports, workload):
    first, second = reports[workload]
    for r in (first, second):
        assert r["correct"], r["errors"]
        assert r["iterations"] >= 2  # summarize() already compared them
    assert first["digest"] == second["digest"]
    assert first["exact"] == second["exact"]
    for name in ("stages_total", "sram_pct_total"):
        assert first["end_to_end"][name] == second["end_to_end"][name]
    timed = set(SELF_TIME_METRICS) | {"core.compile_s", "core.compile_ms_p50",
                                      "core.compile_ms_p90", "netsim.ns_per_event",
                                      "ir.kernel_us_p50", "ir.kernel_us_p99",
                                      "trace.total_s", "trace.overhead_frac"}
    for name, value in first["per_layer"].items():
        if name not in timed:
            assert second["per_layer"][name] == value, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_accounting_sums_to_traced_total(reports, workload):
    layer = reports[workload][0]["per_layer"]
    total = sum(layer[name] for name in SELF_TIME_METRICS)
    assert total == pytest.approx(layer["trace.total_s"], abs=1e-6)
    assert layer["other.self_s"] > 0


def test_workload_design_holds(reports):
    """The traced runs confirm what each workload was chosen to stress."""
    layer = {w: reports[w][0]["per_layer"] for w in WORKLOADS}

    def largest(w):
        return max(SELF_TIME_METRICS, key=lambda name: layer[w][name])

    assert largest("collective_chaos") == "ir.kernel_s"
    assert largest("forward_storm") == "netsim.self_s"
    compile_apps = reports["compile_apps"][0]
    assert layer["compile_apps"]["core.compile_s"] > 0.5 * compile_apps["end_to_end"]["run_s"]
    for w in ("forward_storm", "compile_apps"):
        assert layer[w]["ir.kernel_execs"] == 0
    for w in WORKLOADS:
        assert (layer[w]["core.compile_reuse_frac"] > 0) == (w == "rpc_sweep")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_passes(workload):
    report = run.measure(workload, HELD_OUT_SEED, 0, trace=False)
    assert report["correct"], report["errors"]
    assert report["failed"] == 0 and report["attempted"] > 0


def test_catalogue_matches_emitted_metrics(reports):
    declared = run.declared_metrics()
    for d in declared.values():
        assert d["unit"] and d["better"] in ("lower", "higher")
        if d["kind"] == "end_to_end":
            assert 0 < d["bound"] <= 0.25
    emitted = set()
    for w in WORKLOADS:
        r = reports[w][0]
        for trace in (False, True):
            line = run.result_line(r, trace, declared)  # raises on any mismatch
            emitted |= set(line["metrics"])
            if not trace:
                assert all(m["value"] > 0 for m in line["metrics"].values()), w
    assert emitted == set(declared)


def test_missed_wrapper_fails_the_accounting():
    """A compile_netcl bound where the hooks cannot see it leaves its
    frontend spans outside any core span: the ledger must say so."""
    from child import import_repro_from_checkout

    import_repro_from_checkout()
    from repro.core.driver import compile_netcl as stale  # bound before the hooks
    from spans import Hooks, SpanRecorder

    hooks = Hooks(setup_ends_at="compile")
    hooks.install()
    recorder = SpanRecorder(time.perf_counter_ns())
    recorder.install()
    try:
        stale("_kernel(1) void k(unsigned x) { }", 1)
    finally:
        recorder.close_root()
        recorder.uninstall()
        hooks.uninstall()
    errors = recorder.ledger()["errors"]
    assert any("lang span(s) under other" in e for e in errors), errors
    assert hooks.parse_calls == 1 and not hooks.compiles


def test_refuses_checkout_without_sources(tmp_path):
    """Run from a directory holding only the benchmark: no result, exit != 0."""
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "forward_storm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
