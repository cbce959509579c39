"""``python -m repro.scenario`` — run one acceptance scenario.

Usage::

    python -m repro.scenario cache --seed 7
    python -m repro.scenario agg --json
    python -m repro.scenario collective --op reduce_scatter --no-baseline
    python -m repro.scenario rpc --no-crash --loss 0.02
    python -m repro.scenario service --dump-plan > workload.json
    python -m repro.scenario service --plan workload.json
    python -m repro.scenario rpc --check-determinism

Every scenario replays one fault plan: the acceptance
:class:`~repro.chaos.plan.ChaosPlan` (link faults plus a mid-run switch
crash), or for ``service`` a :class:`~repro.service.workload.ServicePlan`.
One ``--seed`` drives everything else, so the printed digest is the same
on every invocation; ``--check-determinism`` runs twice and compares.

Exit status: 0 when every acceptance check passed, 1 when one failed,
2 for a usage error, a malformed plan file or a non-deterministic run.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Callable, Optional

from repro.chaos.report import result_dict
from repro.collective.job import OPS

#: flags every scenario takes; a scenario's ``flags`` adds to these.
COMMON_FLAGS = frozenset({"seed", "plan", "dump_plan", "no_crash", "json", "check_determinism"})


@dataclass(frozen=True)
class Scenario:
    """One acceptance scenario: where its runner lives, what applies to it."""

    name: str
    #: module defining ``runner`` and ``crash``; imported only to run
    module: str
    runner: str
    #: the module's crash-target constant (``acceptance_plan`` keywords);
    #: ``None`` for the service, whose ServicePlan carries its own events
    crash: Optional[str]
    #: optional flags that apply beyond :data:`COMMON_FLAGS`
    flags: frozenset[str]
    #: result -> the lines printed between the headline and the digest
    summary: Callable[[object], list[str]]

    def default_plan(self, args: argparse.Namespace):
        if self.crash is None:
            from repro.service.workload import default_service_plan

            no_crash = {"crash_at_us": None} if args.no_crash else {}
            return default_service_plan(args.seed, **no_crash)
        from repro.chaos.plan import acceptance_plan

        crash = dict(getattr(import_module(self.module), self.crash))
        if args.no_crash:
            crash["crash_at_ns"] = None
        loss = {} if args.loss is None else {"loss": args.loss}
        return acceptance_plan(args.seed, **crash, **loss)

    def load_plan(self, text: str):
        if self.crash is None:
            from repro.service.workload import ServicePlan

            return ServicePlan.from_json(text)
        from repro.chaos.plan import ChaosPlan

        return ChaosPlan.from_json(text)

    def run(self, args: argparse.Namespace, plan):
        runner = getattr(import_module(self.module), self.runner)
        if self.crash is None:
            return runner(plan)
        kw = {}
        if args.op is not None:
            kw["op"] = args.op
        if "no_baseline" in self.flags:
            kw["baseline"] = not args.no_baseline
        return runner(args.seed, plan=plan, **kw)


# -- per-scenario summaries ---------------------------------------------------------
def _simulated(r, what: str) -> str:
    failover = " (failed over to standby)" if r.failed_over else ""
    return f"  {what} in {r.sim_ns / 1e6:.3f} ms simulated{failover}"


def _traffic(innetwork: int, host: Optional[int], host_label: str) -> str:
    if not host:
        return f"  fabric traffic {innetwork} B"
    return (
        f"  fabric traffic {innetwork} B vs {host_label} {host} B "
        f"({host / max(1, innetwork):.2f}x saved)"
    )


def _app_summary(r) -> list[str]:
    return [_simulated(r, f"completed {r.completed}/{r.expected}")]


def _collective_summary(r) -> list[str]:
    ranks = r.num_racks * r.workers_per_rack
    return [
        _simulated(r, f"{r.op}: {r.finished}/{ranks} ranks finished"),
        f"  max |error| {r.max_abs_error:.3e} (bound {r.error_bound:.3e})",
        _traffic(r.innetwork_link_bytes, r.ring_link_bytes, "host ring"),
    ]


def _rpc_summary(r) -> list[str]:
    return [
        _simulated(r, f"{r.unary_calls} unary + {r.gather_calls} gather calls completed"),
        f"  {r.memo_hits} calls answered by the ToR memo, "
        f"{r.replays} retries absorbed by the server reply cache",
        _traffic(r.innetwork_link_bytes, r.fanout_link_bytes, "host fan-out"),
    ]


def _service_summary(r) -> list[str]:
    lines = [f"  {r.sim_ns / 1e6:.3f} ms simulated", "  fabric utilization:"]
    for sid, u in r.report.get("fabric", {}).items():
        cap, used = u["capacity"], u["used"]
        lines.append(
            f"    switch {sid}: {used['stages']:g}/{cap['stages']:g} stages "
            f"({u['stage_utilization']:.0%}), {used['sram_pct']:.1f}% SRAM, "
            f"{used['salu_pct']:.1f}% SALUs reserved"
        )
    svc = r.report.get("service", {})
    lines.append(
        f"  tenants active={svc.get('tenants_active')} "
        f"rejects={svc.get('admission_rejects')} "
        f"migrations={svc.get('migrations')} evictions={svc.get('evictions')}"
    )
    for tid, rep in r.report.get("tenants", {}).items():
        outcome = r.tenants.get(tid, {})
        if outcome.get("rejected"):
            lines.append(f"  {tid}: REJECTED")
        else:
            line = (
                f"  {tid}: {rep.get('state')} placement={rep.get('placement')}"
                f" migrations={rep.get('migrations')}"
                f" completed={outcome.get('completed')}/{outcome.get('expected')}"
            )
            slo = rep.get("slo", {})
            if slo.get("max_latency_us") is not None:
                line += (
                    f" slo_p99={slo.get('observed_p99_us')}us/{slo.get('max_latency_us')}us"
                    f" ({'met' if slo.get('met') else 'MISSED'})"
                )
            lines.append(line)
        if rep.get("reject_reason"):
            lines.append(f"      reason: {rep['reject_reason']}")
    for rej in r.rejected:
        bd = rej.get("breakdown")
        if bd:
            lines.append(
                f"  {rej['tenant']} breakdown: device {bd['device']} needs "
                f"{bd['need']['stages']} stages; "
                + "; ".join(f"switch {sw['switch']}: {sw['reason']}" for sw in bd["switches"])
            )
    return lines


SCENARIOS = {
    s.name: s
    for s in (
        Scenario(
            "cache", "repro.chaos.scenarios", "run_cache_chaos", "CACHE_CRASH",
            frozenset({"loss"}), _app_summary,
        ),
        Scenario(
            "agg", "repro.chaos.scenarios", "run_agg_chaos", "AGG_CRASH",
            frozenset({"loss"}), _app_summary,
        ),
        Scenario(
            "collective", "repro.collective.scenarios", "run_collective_chaos", "CRASH",
            frozenset({"loss", "no_baseline", "op"}), _collective_summary,
        ),
        Scenario(
            "rpc", "repro.rpc.scenarios", "run_rpc_chaos", "CRASH",
            frozenset({"loss", "no_baseline"}), _rpc_summary,
        ),
        Scenario(
            "service", "repro.service.workload", "run_service_plan", None,
            frozenset(), _service_summary,
        ),
    )
}


def render(spec: Scenario, result) -> str:
    lines = [
        f"{spec.name} run: seed={result.seed} {'OK' if result.ok else 'FAILED'}",
        *spec.summary(result),
        f"  digest {result.digest}",
    ]
    for name, value in sorted(getattr(result, "counters", {}).items()):
        lines.append(f"  {name:<24} {value}")
    lines += [f"  ERROR: {err}" for err in result.errors]
    return "\n".join(lines)


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.scenario",
        description="Run an acceptance scenario under injected faults",
    )
    p.add_argument("scenario", choices=list(SCENARIOS), help="which scenario to run")
    p.add_argument("--seed", type=int, default=7, help="master seed for the workload and plan")
    p.add_argument("--plan", type=Path, help="JSON plan file to replay instead of the default")
    p.add_argument(
        "--dump-plan", action="store_true", help="print the effective plan JSON and exit"
    )
    p.add_argument("--loss", type=float, help="per-hop loss probability (default 0.05)")
    p.add_argument("--no-crash", action="store_true", help="leave the switch crash out of the plan")
    p.add_argument(
        "--no-baseline", action="store_true", help="skip the host-only baseline run"
    )
    p.add_argument("--op", choices=OPS, help="which collective to run (default allreduce)")
    p.add_argument("--json", action="store_true", help="emit the result as JSON")
    p.add_argument(
        "--check-determinism", action="store_true",
        help="run twice and require identical digests",
    )
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    spec = SCENARIOS[args.scenario]
    given = {k for k, v in vars(args).items() if v is not None and v is not False}
    given.discard("scenario")
    stray = sorted(given - COMMON_FLAGS - spec.flags)
    if stray:
        parser.error(f"--{stray[0].replace('_', '-')} does not apply to the {spec.name} scenario")
    if args.plan is not None and given & {"loss", "no_crash"}:
        parser.error("--loss and --no-crash shape the default plan; --plan replaces it")

    def make_plan():
        if args.plan is None:
            return spec.default_plan(args)
        return spec.load_plan(args.plan.read_text())

    try:
        plan = make_plan()
    except (OSError, ValueError) as exc:
        print(f"bad plan: {exc}", file=sys.stderr)
        return 2
    if args.dump_plan:
        print(plan.to_json())
        return 0
    result = spec.run(args, plan)
    if args.check_determinism:
        again = spec.run(args, make_plan())
        if again.digest != result.digest:
            print(f"NOT deterministic: {result.digest} != {again.digest}", file=sys.stderr)
            return 2
        print(f"deterministic: two runs produced digest {result.digest}")
    if args.json:
        print(json.dumps(result_dict(result), indent=2, sort_keys=True))
    else:
        print(render(spec, result))
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
