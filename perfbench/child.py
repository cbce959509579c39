"""One workload iteration in a fresh, single-threaded Python process.

Usage (the runner spawns this; it is not meant to be typed)::

    python3 perfbench/child.py --workload NAME --seed N --spawned-ns T [--trace]

``--spawned-ns`` is the parent's ``time.perf_counter_ns()`` just before
the spawn (CLOCK_MONOTONIC, shared by every process on Linux), so
``setup_s`` covers interpreter start and imports.  The last line of
standard output is one JSON record; the exit code is 0 unless the
benchmark itself broke.  A traced run also writes its spans to
``.perfbench/spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_repro_from_checkout():
    """Put this checkout's ``src/`` first and refuse any other ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"perfbench: repro imported from {where}, not from {SRC}")
    return repro


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    import_repro_from_checkout()
    sys.path.insert(0, str(HERE))
    from spans import Hooks, SpanRecorder
    from workloads import WORKLOADS, network_counters

    wl = WORKLOADS[args.workload]
    for mod in wl.imports:
        importlib.import_module(mod)

    hooks = Hooks(setup_ends_at=wl.setup_ends_at)
    hooks.install()
    recorder = None
    if args.trace:
        recorder = SpanRecorder(args.spawned_ns)
        recorder.install()

    outcome = wl.run(args.seed)
    end_ns = time.perf_counter_ns()
    if recorder is not None:
        recorder.close_root()
        recorder.uninstall()
    hooks.uninstall()

    wl.check(outcome)  # also drops what the workload kept alive
    if hooks.compiles and hooks.parse_calls != len(hooks.compiles):
        outcome.errors.append(
            f"{hooks.parse_calls} frontend runs but {len(hooks.compiles)} "
            "compile_netcl calls seen: a compile_netcl binding was not hooked"
        )
    if hooks.first_ns is None:
        outcome.errors.append("set-up never ended (no simulator run or compile seen)")
        hooks.first_ns = end_ns

    tna_rows = {key: row for _, key, _, row in hooks.compiles if row is not None}
    exact = dict(outcome.exact)
    exact["stages_total"] = sum(r["stages"] for r in tna_rows.values())
    exact["sram_pct_total"] = sum(r["sram_pct"] for r in tna_rows.values())
    exact["core.compile_calls"] = len(hooks.compiles)
    exact["core.compile_distinct"] = len({key for _, key, _, _ in hooks.compiles})
    exact.update(network_counters(hooks.networks))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": (hooks.first_ns - args.spawned_ns) / 1e9,
        "run_s": (end_ns - hooks.first_ns) / 1e9,
        "total_s": (end_ns - args.spawned_ns) / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "compile_ms": [ms for ms, _, _, _ in hooks.compiles],
        "ops": outcome.ops,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "digest": outcome.digest,
        "exact": exact,
    }
    if recorder is not None:
        ledger = recorder.ledger()
        ledger["tokens"] = recorder.tokens
        ledger["ir_insts"] = recorder.ir_insts
        ledger["p4_lines"] = recorder.p4_lines
        record["ledger"] = ledger
        record["errors"] = record["errors"] + ledger["errors"]
        recorder.dump(ROOT / ".perfbench" / f"spans-{args.workload}.json")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
