"""The four benchmark workloads.

Each workload has two phases the child process times separately:
``run`` (the measured work; set-up ends inside it, at the first
``Simulator.run`` or, for ``compile_apps``, the first compile) and
``check`` (correctness checks, outside the timed region).  ``run`` returns
a :class:`Outcome`; every input comes from the seed.

All traffic crosses simulated links only; the UDP loopback backend is
never used.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from spans import percentile

ROOT = Path(__file__).resolve().parent.parent

#: run_rpc_chaos seeds per rpc_sweep run (consecutive, from --seed).
RPC_SEEDS = 4
#: collective_chaos allreduce size (float32 elements).
COLLECTIVE_ELEMENTS = 8192
#: forward_storm: packets, sim gap between injections, and payload size.
STORM_PACKETS = 150_000
STORM_GAP_NS = 100
STORM_PAYLOAD_BYTES = 64


@dataclass
class Outcome:
    """What one workload iteration produced."""

    ops: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: sha256 over everything the workload's outputs should reproduce
    digest: str = ""
    #: deterministic per-seed values (sim results, counters, work counts)
    exact: dict[str, float] = field(default_factory=dict)
    #: objects ``check`` needs after the timed region
    keep: dict = field(default_factory=dict)


def _sha(*parts: object) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
    return h.hexdigest()


def network_counters(networks: list) -> dict[str, float]:
    """Counters summed over every network the workload built."""
    out = {
        "netsim.events": 0, "netsim.lost": 0, "netsim.queue_max": 0,
        "netsim.link_mb": 0.0, "runtime.process_calls": 0, "runtime.noops": 0,
        "reliability.retransmits": 0, "reliability.dup_drops": 0,
        "reliability.accepted": 0, "reliability.device_dups": 0,
        "chaos.lost": 0, "chaos.duplicated": 0, "rpc.client_retries": 0,
    }
    registries: dict[int, object] = {}  # devices may share one registry
    for net in networks:
        m = net.metrics
        out["netsim.events"] += net.sim.events_processed
        out["netsim.lost"] += net.packets_lost
        for inst in m:
            if inst.name.startswith(("node.queue.", "link.in_flight.")):
                out["netsim.queue_max"] = max(out["netsim.queue_max"], inst.max_value)
        out["netsim.link_mb"] += m.total("link.tx_bytes.") / 1e6
        for sw in net.switches.values():
            registries[id(sw.device.metrics)] = sw.device.metrics
        out["reliability.retransmits"] += m.total("reliability.ch.retransmits.")
        device_dups = m.total("reliability.dup_drops")
        out["reliability.device_dups"] += device_dups
        out["reliability.dup_drops"] += device_dups + m.total("reliability.ch.dup_rx_dropped.")
        out["reliability.accepted"] += m.total("reliability.accepted")
        out["chaos.lost"] += m.total("chaos.lost")
        out["chaos.duplicated"] += m.total("chaos.duplicated")
        out["rpc.client_retries"] += m.total("rpc.client.retries.")
    for reg in registries.values():
        out["runtime.process_calls"] += reg.value("kernel.dispatches")
        out["runtime.noops"] += reg.value("kernel.noop_forwards")
    return out


# -- compile_apps ------------------------------------------------------------------
def compile_programs(seed: int) -> list[tuple[str, Callable]]:
    """Every program the repo ships, plus a seeded sweep of role defines.

    Returns (label, compile(target)) pairs; every (label, target) is a
    distinct compile input.
    """
    from repro.apps import compile_app
    from repro.collective.tree import ROOT_DEVICE, compile_role, leaf_device
    from repro.core import compile_netcl
    from repro.rpc.cluster import EDGE_DEVICE, SG_DEVICE, compile_rpc_role, tor_device

    progs: list[tuple[str, Callable]] = []

    def add(label: str, fn: Callable) -> None:
        progs.append((label, fn))

    for app, dev in (("agg", 1), ("cache", 1), ("calc", 1),
                     ("paxos", 1), ("paxos", 2), ("paxos", 5)):
        add(f"{app}@{dev}", lambda t, app=app, dev=dev: compile_app(app, dev, target=t))
    add("collective.root", lambda t: compile_role(ROOT_DEVICE, target=t))
    add("collective.leaf", lambda t: compile_role(leaf_device(0), rack=0, target=t))
    for role, dev in (("edge", EDGE_DEVICE), ("sg", SG_DEVICE), ("tor", tor_device(0))):
        add(
            f"rpc.{role}",
            lambda t, role=role, dev=dev: compile_rpc_role(dev, role, fanout=16, target=t),
        )
    for path in sorted((ROOT / "examples").glob("*.py")):
        for i, m in enumerate(re.finditer(r'r"""(.*?)"""', path.read_text(), re.S)):
            if "_kernel(" in m.group(1):
                add(
                    f"{path.stem}[{i}]",
                    lambda t, src=m.group(1), name=path.stem: compile_netcl(
                        src, 1, target=t, program_name=name
                    ),
                )

    # The role defines the scenarios and benchmarks use, drawn per seed
    # (never the defaults above, so every input stays distinct).
    rng = random.Random(f"compile_apps:{seed}")
    for n in sorted(rng.sample(range(3, 17), 3)):
        add(
            f"agg.workers{n}",
            lambda t, n=n: compile_app("agg", 1, target=t, defines={"NUM_WORKERS": n}),
        )
    for f in sorted(rng.sample(range(2, 16), 2)):
        add(
            f"rpc.sg.fanout{f}",
            lambda t, f=f: compile_rpc_role(SG_DEVICE, "sg", fanout=f, target=t),
        )
    pairs = [(lw, nr) for lw in range(2, 9) for nr in range(2, 5) if (lw, nr) != (4, 2)]
    for lw, nr in sorted(rng.sample(pairs, 3)):
        add(
            f"collective.leaf{lw}x{nr}",
            lambda t, lw=lw, nr=nr: compile_role(
                leaf_device(0), rack=0, num_racks=nr, workers_per_rack=lw, target=t
            ),
        )
    return progs


def run_compile_apps(seed: int) -> Outcome:
    progs = compile_programs(seed)
    out = Outcome()
    outputs = []
    for target in ("tna", "v1model"):
        for label, fn in progs:
            out.ops += 1
            try:
                cp = fn(target)
            except Exception as exc:  # a failed compile is a failed op, not a crash
                out.failed += 1
                out.errors.append(f"{label}/{target}: {type(exc).__name__}: {exc}")
                continue
            outputs.append((label, target, cp.p4_source))
    out.keep["outputs"] = outputs
    return out


def check_compile_apps(out: Outcome) -> None:
    from repro.p4 import parse_p4

    outputs = out.keep.pop("outputs")
    for label, target, p4 in outputs:
        try:
            parse_p4(p4)
        except Exception as exc:
            out.failed += 1
            out.errors.append(f"{label}/{target}: emitted P4 does not parse: {exc}")
    # Byte-identical P4 across runs: the runner compares this digest
    # between child processes.
    out.digest = _sha([(label, target, _sha(p4)) for label, target, p4 in outputs])


# -- rpc_sweep ---------------------------------------------------------------------
def run_rpc_sweep(seed: int) -> Outcome:
    import repro.rpc.scenarios as scenarios

    clusters: list = []
    build = scenarios.build_rpc_cluster

    def build_and_keep(*a, **kw):
        cluster = build(*a, **kw)
        clusters.append(cluster)
        return cluster

    scenarios.build_rpc_cluster = build_and_keep
    out = Outcome()
    results = []
    try:
        for s in range(seed, seed + RPC_SEEDS):
            results.append(scenarios.run_rpc_chaos(s, baseline=False))
    finally:
        scenarios.build_rpc_cluster = build
    out.keep["results"] = results
    out.keep["clusters"] = clusters
    return out


def check_rpc_sweep(out: Outcome) -> None:
    results, clusters = out.keep.pop("results"), out.keep.pop("clusters")
    latencies: list[float] = []
    gets = hits = 0
    for r, cluster in zip(results, clusters):
        expected = sum(
            len(c.completed_unary) + len(c.completed_gather) + c.outstanding
            for c in cluster.clients
        )
        out.ops += expected
        if not r.ok:
            out.failed += expected
            out.errors.extend(f"seed {r.seed}: {e}" for e in r.errors[:5])
        for c in cluster.clients:
            for call in (*c.completed_unary, *c.completed_gather):
                latencies.append((call.finished_ns - call.sent_ns) / 1e3)
            gets += sum(1 for call in c.completed_unary if call.method.name == "get")
        hits += r.memo_hits
    out.exact["netsim.done_us"] = sum((r.finished_at_ns or r.sim_ns) / 1e3 for r in results)
    out.exact["rpc.call_p50_us"] = percentile(latencies, 0.50)
    out.exact["rpc.call_p95_us"] = percentile(latencies, 0.95)
    out.exact["rpc.memo_hit_frac"] = hits / gets if gets else 0.0
    out.digest = _sha([r.digest for r in results])


# -- collective_chaos --------------------------------------------------------------
def run_collective_chaos(seed: int) -> Outcome:
    from repro.collective.scenarios import run_collective_chaos as run

    out = Outcome()
    out.keep["result"] = run(seed, tensor_elements=COLLECTIVE_ELEMENTS, baseline=False)
    return out


def check_collective_chaos(out: Outcome) -> None:
    r = out.keep.pop("result")
    ranks = r.num_racks * r.workers_per_rack
    out.ops = ranks
    if not r.ok:
        out.failed = ranks
        out.errors.extend(r.errors[:5])
    out.exact["netsim.done_us"] = (r.finished_at_ns or r.sim_ns) / 1e3
    out.digest = r.digest


# -- forward_storm -----------------------------------------------------------------
def run_forward_storm(seed: int) -> Outcome:
    """No-op 64 B unicast on the Fig. 14 AGG topology (worker -> ToR ->
    worker), injected open-loop by a sim-time generator on host 1."""
    from repro.apps.agg import build_agg_cluster
    from repro.runtime.message import NO_DEVICE, NetCLPacket

    rng = random.Random(f"forward_storm:{seed}")
    payloads = [rng.randbytes(STORM_PAYLOAD_BYTES) for _ in range(256)]
    cluster = build_agg_cluster(num_workers=2, tensor_elements=2048, seed=seed)
    net = cluster.network
    net.hosts[2].on_receive = None  # bare forwarding: no app decode at the sink
    h1, sim = net.hosts[1], net.sim
    send, after = h1.send_packet, sim.after

    def tick(i: int) -> None:
        send(NetCLPacket(1, 2, NO_DEVICE, NO_DEVICE, 0, 0, payloads[i & 255]))
        if i + 1 < STORM_PACKETS:
            after(STORM_GAP_NS, tick, i + 1)

    sim.at(0, tick, 0)
    sim.run()
    out = Outcome(ops=STORM_PACKETS)
    out.keep["net"] = net
    out.keep["payloads"] = payloads
    return out


def check_forward_storm(out: Outcome) -> None:
    net, payloads = out.keep.pop("net"), out.keep.pop("payloads")
    received = net.hosts[2].received
    bad = sum(
        1
        for i, (_, pkt) in enumerate(received)
        if pkt.data != payloads[i & 255] or pkt.src != 1 or pkt.dst != 2
    )
    miscount = abs(STORM_PACKETS - len(received))
    out.failed = min(STORM_PACKETS, bad + miscount)
    if miscount:
        out.errors.append(f"{len(received)} packets delivered, {STORM_PACKETS} sent")
    if bad:
        out.errors.append(f"{bad} packets delivered out of order or corrupted")
    last_ns = received[-1][0] if received else net.sim.now_ns
    out.exact["netsim.done_us"] = last_ns / 1e3
    out.digest = _sha(len(received), last_ns, net.sim.events_processed)


@dataclass(frozen=True)
class Workload:
    name: str
    #: set-up ends at the first "sim" run or the first "compile"
    setup_ends_at: str
    #: modules to import before the hooks are installed
    imports: tuple[str, ...]
    run: Callable[[int], Outcome]
    check: Callable[[Outcome], None]


_COMMON = ("repro.core", "repro.core.driver", "repro.netsim", "repro.apps")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compile_apps", "compile",
            _COMMON + ("repro.collective.tree", "repro.rpc.cluster"),
            run_compile_apps, check_compile_apps,
        ),
        Workload(
            "rpc_sweep", "sim", _COMMON + ("repro.rpc.scenarios",),
            run_rpc_sweep, check_rpc_sweep,
        ),
        Workload(
            "collective_chaos", "sim", _COMMON + ("repro.collective.scenarios",),
            run_collective_chaos, check_collective_chaos,
        ),
        Workload(
            "forward_storm", "sim", _COMMON + ("repro.apps.agg", "repro.runtime.message"),
            run_forward_storm, check_forward_storm,
        ),
    )
}
