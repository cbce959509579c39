"""repro.chaos — scriptable fault injection for the network simulator.

Declarative, replayable failure plans (:class:`~repro.chaos.plan.ChaosPlan`)
drive a per-hop fault engine (:class:`~repro.chaos.inject.ChaosController`):
packet loss, corruption, duplication, reordering, latency jitter, and
scheduled switch crashes / restarts / link flaps.  All randomness derives
from the plan's seed, so every failure run replays bit-identically.

:mod:`repro.chaos.scenarios` holds the AGG and CACHE acceptance runs:
the paper's applications completing correctly through combined loss +
duplication + reordering + a mid-run primary-switch crash with failover
(see :mod:`repro.reliability`).  ``python -m repro.scenario agg`` runs
one; :mod:`repro.chaos.report` is the digest and report every scenario
shares.
"""

from repro.chaos.plan import (
    ChaosEvent,
    ChaosPlan,
    LinkFaults,
    acceptance_plan,
    link_name,
    parse_node,
)
from repro.chaos.inject import ChaosController, apply_faults

# The scenarios pull in the apps and the reliability layer; resolve them
# lazily (PEP 562) so importing the plan or injector stays light.
_LAZY = ("ChaosRunResult", "compile_app_at", "run_agg_chaos", "run_cache_chaos")


def __getattr__(name: str):
    if name in _LAZY:
        from repro.chaos import scenarios

        value = getattr(scenarios, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ChaosController",
    "ChaosEvent",
    "ChaosPlan",
    "ChaosRunResult",
    "LinkFaults",
    "acceptance_plan",
    "apply_faults",
    "compile_app_at",
    "link_name",
    "parse_node",
    "run_agg_chaos",
    "run_cache_chaos",
]
