"""Hot-path overhaul equivalence (ISSUE 7 acceptance).

The simulator optimization (tuple-heap events, tracer guards, pooled
multicast replicas, incremental routing, deadline-based retransmission
timers) must be *observably invisible*: the golden values below were
captured on the pre-overhaul simulator with the same seeds, and every
run here must reproduce them bit-identically — application results,
every telemetry counter (the digest covers the full metric snapshot),
drop/lost totals, and (for traced runs) the exact number of traces and
recorded hops.  Tracing on must not change the digest either.

:data:`SCENARIO_GOLDEN` pins the digest of every acceptance scenario
(AGG, CACHE, collective, RPC, service) and the JSON text of each
scenario's default fault plan, so refactoring the shared scenario
scaffolding cannot silently change what any scenario does.

If a deliberate behavioral change ever invalidates these goldens,
recapture them in the same commit and say why in its message.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.chaos.plan import acceptance_plan
from repro.chaos.scenarios import AGG_CRASH, CACHE_CRASH, run_agg_chaos, run_cache_chaos
from repro.collective import scenarios as collective
from repro.rpc import scenarios as rpc
from repro.service.workload import default_service_plan, run_service_plan

SEED = 7

GOLDEN = {
    "agg": {
        "digest": "9bc9f574bc29b4bcc0bbb97693cb1ada2f787102be024dbc10cd582a54d71b91",
        "dropped": 147,
        "lost": 34,
        "traces": 355,
        "trace_events": 1126,
    },
    "cache": {
        "digest": "7db7c3d38af5139a42a39e759d11e7d9373350c6b7fc3963d860eb9a1d35a31e",
        "dropped": 0,
        "lost": 12,
        "traces": 68,
        "trace_events": 347,
    },
}


#: (scenario, seed, baseline run?) -> digest.  The RPC digest does not
#: cover the host fan-out baseline, so it is the same either way; seeds
#: 1-4 are the inputs of the benchmark's ``rpc_sweep`` workload.
SCENARIO_GOLDEN = {
    ("agg", 7, None): GOLDEN["agg"]["digest"],
    ("cache", 7, None): GOLDEN["cache"]["digest"],
    ("collective", 7, False): "a72d368c09c18e1563fbc1f3fbc3310bb1fe0562e33f469b150426fa6f98f9eb",
    ("collective", 7, True): "dd1d1854149ea554d297d413aaec1b161cc276d8cbb5b77d3d3c942eb66b69bc",
    ("rpc", 7, False): "5f4a2233c7f1c792a5231dfc624e7897a481666c643ab1b9bd6766dd0f801aad",
    ("rpc", 7, True): "5f4a2233c7f1c792a5231dfc624e7897a481666c643ab1b9bd6766dd0f801aad",
    ("rpc", 1, False): "05e6c58fd3b77ed7f471840127dc261267c6ad863c8a568ba7203f8cc6246494",
    ("rpc", 2, False): "b0e54437f374f9949dacf77034703ada07243e26946352bebd04118b496b9970",
    ("rpc", 3, False): "92cf8310548e9166ba50b8766108a8e1972dab2d9eecb404090f556ff1380b2a",
    ("rpc", 4, False): "d053b6fbc6e30ec70637394a47841ccfd5619723618588b13781756d2f2dedfd",
    ("service", 7, None): "d858ca97559bd7f75be6cfacee1f60613aec34c0d41e4774d3d8f4bdb28fd5fa",
}

#: scenario -> sha256 of its default plan's ``to_json()`` text at seed 7.
#: The collective and RPC plans are the same document.
PLAN_GOLDEN = {
    "agg": "fcf8dc7be35f65d9980175d9fc3ba81bbdcd8e06b630bb2d2539b20782b073a6",
    "cache": "65f1abc9c86e452d86c49ba5352510387682c3e0d7ff655e6b5af6c81f56960a",
    "collective": "87f79985398d8bec606256c9500dfc87da22d64b4297a5a4df9d1740e99dad0f",
    "rpc": "87f79985398d8bec606256c9500dfc87da22d64b4297a5a4df9d1740e99dad0f",
    "service": "d7f3b695c443f4e7d89e7f0420c619d55d1a8e91ccf995f0556003118855ab4e",
}


def _run_scenario(name: str, seed: int, baseline):
    if name == "agg":
        return run_agg_chaos(seed)
    if name == "cache":
        return run_cache_chaos(seed)
    if name == "collective":
        return collective.run_collective_chaos(seed, baseline=baseline)
    if name == "rpc":
        return rpc.run_rpc_chaos(seed, baseline=baseline)
    return run_service_plan(default_service_plan(seed))


def _default_plan(name: str, seed: int):
    if name == "service":
        return default_service_plan(seed)
    crash = {
        "agg": AGG_CRASH, "cache": CACHE_CRASH, "collective": collective.CRASH, "rpc": rpc.CRASH,
    }[name]
    return acceptance_plan(seed, **crash)


def _dropped(result) -> int:
    return sum(
        v for k, v in result.metrics.items() if k.startswith("net.drop.")
    )


def _lost(result) -> int:
    return int(result.metrics.get("net.lost", 0))


@pytest.mark.parametrize("app", ["agg", "cache"])
@pytest.mark.parametrize("trace", [False, True])
def test_chaos_run_matches_pre_overhaul_golden(app, trace):
    run = run_agg_chaos if app == "agg" else run_cache_chaos
    result = run(seed=SEED, trace=trace)
    want = GOLDEN[app]

    assert result.ok, result.errors
    assert result.digest == want["digest"]
    assert _dropped(result) == want["dropped"]
    assert _lost(result) == want["lost"]
    if trace:
        assert result.traces == want["traces"]
        assert result.trace_events == want["trace_events"]
    else:
        assert result.traces == 0
        assert result.trace_events == 0


@pytest.mark.parametrize("app", ["agg", "cache"])
def test_tracing_does_not_perturb_digest(app):
    """A traced run and an untraced run are the same run."""
    run = run_agg_chaos if app == "agg" else run_cache_chaos
    plain = run(seed=SEED, trace=False)
    traced = run(seed=SEED, trace=True)
    assert plain.digest == traced.digest
    assert plain.sim_ns == traced.sim_ns
    assert traced.trace_events > 0


@pytest.mark.parametrize(
    "name,seed,baseline", sorted(SCENARIO_GOLDEN, key=str), ids=str
)
def test_scenario_digest_matches_golden(name, seed, baseline):
    result = _run_scenario(name, seed, baseline)
    assert result.ok, result.errors
    assert result.digest == SCENARIO_GOLDEN[(name, seed, baseline)]


@pytest.mark.parametrize("name", sorted(PLAN_GOLDEN))
def test_default_plan_json_matches_golden(name):
    text = _default_plan(name, SEED).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == PLAN_GOLDEN[name]
