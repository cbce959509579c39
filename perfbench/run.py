#!/usr/bin/env python3
"""NetCL reproduction benchmark: one workload, measured for a fixed time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rpc_sweep --seed 1 --seconds 28 --trace 0

Each iteration runs in a fresh, single-threaded child process
(``perfbench/child.py``) until ``--seconds`` would be exceeded (at least
two iterations).  With ``--trace 0`` every iteration is untraced and the
end-to-end metrics are medians over them.  With ``--trace 1`` traced and
untraced iterations alternate; the per-layer ledger comes from the
traced iteration with the median total time, and ``trace.overhead_frac``
compares the traced and untraced medians.  End-to-end host times are in
reference seconds (see ``REFERENCE_S``); per-layer times are wall seconds.

Every metric is printed by name with its unit; the last line of standard
output is the JSON result.  The run also writes its full report to
``.perfbench/ledger-<workload>.json`` and the spans of its last traced
iteration to ``.perfbench/spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import SELF_TIME_METRICS, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: hard wall-clock limit for one run (the benchmark must exit well inside 180 s)
RUN_LIMIT_S = 170.0
MIN_ITERATIONS = 2

WORKLOAD_NAMES = ("compile_apps", "rpc_sweep", "collective_chaos", "forward_storm")

#: seconds :func:`reference_work_s` takes on the reference host.  End-to-end
#: host times are reported in reference seconds: an iteration's measured
#: seconds x REFERENCE_S / the reference job's time around that iteration.
REFERENCE_S = 0.15

#: single-threaded children with a fixed hash seed
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchmarkBroken(Exception):
    """The benchmark could not run (not a wrong program output)."""


def declared_metrics() -> dict[str, dict]:
    """name -> declaration, from BENCHMARK.json (end_to_end and per_layer)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        m["name"]: dict(m, kind=kind)
        for kind in ("end_to_end", "per_layer")
        for m in spec[kind]
    }


class _Event:
    __slots__ = ("t", "fn", "args")

    def __init__(self, t, fn, args) -> None:
        self.t, self.fn, self.args = t, fn, args


def reference_work_s() -> float:
    """Seconds this process takes for a fixed pure-Python job.

    Host speed on small shared VMs drifts by up to 2x over minutes, so the
    runner times this job right before and right after every iteration and
    scales the iteration's host times by it.  The job mixes what the
    workloads do (an event heap of slotted objects, dict updates, string
    splitting), uses no ``repro`` code and runs with the collector off.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(3):
            rng = random.Random(7)
            heap: list = []
            for i in range(20000):
                heapq.heappush(heap, (rng.randrange(1 << 20), i, _Event(i, None, (i,))))
            table = {}
            while heap:
                t, i, ev = heapq.heappop(heap)
                table[i & 4095] = (ev.t, ev.args, t)
            [w for w in ("k = a + b * (c - d) ; " * 2000).split() if w.isidentifier()]
        return time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


def spawn(workload: str, seed: int, traced: bool, timeout_s: float) -> dict:
    env = dict(os.environ, **CHILD_ENV)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    cmd += ["--spawned-ns", str(time.perf_counter_ns())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout_s
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkBroken(f"{workload} iteration exceeded {timeout_s:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchmarkBroken(f"{workload} iteration exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run iterations for ``seconds`` and return the full report."""
    reference_work_s()  # warm-up: the first call in a process runs slow
    started = time.monotonic()
    children: list[dict] = []
    longest = 0.0
    while True:
        traced = trace and len(children) % 2 == 1
        elapsed = time.monotonic() - started
        t0 = time.monotonic()
        before = reference_work_s()
        child = spawn(workload, seed, traced, RUN_LIMIT_S - elapsed)
        child["reference_s"] = (before + reference_work_s()) / 2
        children.append(child)
        longest = max(longest, time.monotonic() - t0)
        elapsed = time.monotonic() - started
        if len(children) >= MIN_ITERATIONS and elapsed + longest > seconds:
            break
        if elapsed + longest > RUN_LIMIT_S:
            break
    return summarize(workload, seed, children, trace)


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def summarize(workload: str, seed: int, children: list[dict], trace: bool) -> dict:
    errors: list[str] = []
    attempted = sum(c["ops"] for c in children)
    failed = sum(c["failed"] for c in children)
    for i, c in enumerate(children):
        errors.extend(f"iteration {i}: {e}" for e in c["errors"])
        if c["errors"] and not c["failed"]:
            failed += c["ops"]  # a failed check with no op to blame fails them all
    ref = children[0]
    for i, c in enumerate(children[1:], 1):
        if c["digest"] != ref["digest"] or c["exact"] != ref["exact"]:
            diff = sorted(k for k in ref["exact"] if ref["exact"][k] != c["exact"].get(k))
            errors.append(
                f"iteration {i} disagrees with iteration 0 on the same seed "
                f"(digest {'equal' if c['digest'] == ref['digest'] else 'differs'}; "
                f"values {diff})"
            )
            failed += c["ops"]
    failed = min(failed, attempted)

    untraced = [c for c in children if not c["traced"]]
    exact = ref["exact"]
    scale = [REFERENCE_S / c["reference_s"] for c in untraced]
    end_to_end = {
        "setup_s": _median([c["setup_s"] * k for c, k in zip(untraced, scale)]),
        "run_s": _median([c["run_s"] * k for c, k in zip(untraced, scale)]),
        "peak_rss_mb": _median([c["peak_rss_mb"] for c in untraced]),
        "stages_total": exact["stages_total"],
        "sram_pct_total": exact["sram_pct_total"],
    }
    report = {
        "workload": workload,
        "seed": seed,
        "iterations": len(children),
        "compile_samples": sum(len(c["compile_ms"]) for c in untraced),
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:50],
        "digest": ref["digest"],
        "exact": exact,
        "end_to_end": end_to_end,
        "wall": {
            name: _median([c[name] for c in untraced])
            for name in ("setup_s", "run_s", "reference_s")
        },
        "children": [
            {k: v for k, v in c.items() if k not in ("exact", "ledger")}
            for c in children
        ],
    }
    if trace:
        report["per_layer"] = per_layer(children, untraced, exact)
    return report


def per_layer(children: list[dict], untraced: list[dict], exact: dict) -> dict:
    traced = sorted((c for c in children if c["traced"]), key=lambda c: c["total_s"])
    untraced_total = _median([c["total_s"] for c in untraced])
    # One representative traced iteration (the lower median by total time),
    # so the reported self times sum exactly to the reported total.
    rep = traced[(len(traced) - 1) // 2]["ledger"]
    self_s, calls = rep["self_s"], rep["calls"]

    out = {name: self_s[layer] for name, layer in SELF_TIME_METRICS.items()}
    compile_calls = exact["core.compile_calls"]
    out.update({
        "core.compile_calls": compile_calls,
        "core.compile_distinct": exact["core.compile_distinct"],
        "core.compile_reuse_frac": (
            1 - exact["core.compile_distinct"] / compile_calls if compile_calls else 0.0
        ),
        "core.compile_s": sum(self_s[k] for k in ("core", "lang", "passes", "backends", "tofino")),
        # Per-call percentiles within each untraced iteration, then the median
        # over iterations (pooling lets the median jump between programs of
        # different size when a workload compiles only a few).
        "core.compile_ms_p50": _median([percentile(c["compile_ms"], 0.50) for c in untraced]),
        "core.compile_ms_p90": _median([percentile(c["compile_ms"], 0.90) for c in untraced]),
        "lang.tokens": rep["tokens"],
        "passes.ir_insts": rep["ir_insts"],
        "backends.p4_lines": rep["p4_lines"],
        "ir.kernel_execs": calls["ir"],
        "ir.kernel_us_p50": rep["kernel_us"][0],
        "ir.kernel_us_p99": rep["kernel_us"][1],
        "runtime.process_calls": exact["runtime.process_calls"],
        "runtime.noop_frac": (
            exact["runtime.noops"] / exact["runtime.process_calls"]
            if exact["runtime.process_calls"] else 0.0
        ),
        "netsim.events": exact["netsim.events"],
        "netsim.ns_per_event": (
            self_s["netsim"] * 1e9 / exact["netsim.events"] if exact["netsim.events"] else 0.0
        ),
        "netsim.lost": exact["netsim.lost"],
        "netsim.queue_max": exact["netsim.queue_max"],
        "netsim.done_us": exact.get("netsim.done_us", 0.0),
        "netsim.link_mb": exact["netsim.link_mb"],
        "reliability.retransmits": exact["reliability.retransmits"],
        "reliability.dup_drops": exact["reliability.dup_drops"],
        "reliability.useful_frac": (
            exact["reliability.accepted"]
            / (exact["reliability.accepted"] + exact["reliability.device_dups"])
            if exact["reliability.accepted"] else 0.0
        ),
        "host.rx_calls": calls["host"],
        "rpc.memo_hit_frac": exact.get("rpc.memo_hit_frac", 0.0),
        "rpc.client_retries": exact["rpc.client_retries"],
        "rpc.call_p50_us": exact.get("rpc.call_p50_us", 0.0),
        "rpc.call_p95_us": exact.get("rpc.call_p95_us", 0.0),
        "chaos.lost": exact["chaos.lost"],
        "chaos.duplicated": exact["chaos.duplicated"],
        "trace.total_s": rep["total_s"],
        "trace.overhead_frac": (
            (_median([c["total_s"] for c in traced]) - untraced_total) / untraced_total
        ),
    })
    return out


def result_line(report: dict, trace: bool, declared: dict[str, dict]) -> dict:
    kind = "per_layer" if trace else "end_to_end"
    values = report[kind]
    wanted = [name for name, d in declared.items() if d["kind"] == kind]
    missing = sorted(set(wanted) - set(values))
    extra = sorted(set(values) - set(wanted))
    if missing or extra:
        raise BenchmarkBroken(
            f"metrics not matching BENCHMARK.json: missing {missing}, extra {extra}"
        )
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": values[name], "unit": declared[name]["unit"]} for name in wanted
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        declared = declared_metrics()
        OUT_DIR.mkdir(exist_ok=True)
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        line = result_line(report, bool(args.trace), declared)
    except BenchmarkBroken as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    (OUT_DIR / f"ledger-{args.workload}.json").write_text(json.dumps(report, indent=1))

    print(f"{args.workload} seed={args.seed} iterations={report['iterations']} "
          f"attempted={report['attempted']} failed={report['failed']}")
    for err in report["errors"][:10]:
        print(f"  error: {err}")
    for name, m in line["metrics"].items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
