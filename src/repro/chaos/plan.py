"""Declarative, replayable fault plans.

A :class:`ChaosPlan` says *what goes wrong and when*: per-link fault
models (loss, corruption, duplication, reordering, latency jitter) plus
scheduled node events (switch crash/restart, link flaps).  Plans are
plain data — JSON-serializable both ways — and carry their own RNG seed,
so a failure run is fully described by one artifact and replays
bit-identically.

Link keys use the telemetry node naming: ``"d1-h1"`` (sorted endpoint
names joined by ``-``); node references are ``"h<id>"`` / ``"d<id>"``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Optional

from repro.netsim.net import DEVICE, HOST, NodeKey


class PlanError(ValueError):
    """A well-formed plan that names a node or link the run does not have
    (raised when the plan is armed, before anything runs)."""


def parse_node(name: str) -> NodeKey:
    """``"h1"`` -> HOST(1), ``"d2"`` -> DEVICE(2)."""
    if not isinstance(name, str) or name[:1] not in ("h", "d") or not name[1:].isdigit():
        raise ValueError(f"bad node name {name!r} (want h<id> or d<id>)")
    return HOST(int(name[1:])) if name[0] == "h" else DEVICE(int(name[1:]))


# -- loader checks (plan files are external input: reject, never crash) --------
def check_object(
    d: object, what: str, allowed: Optional[Iterable[str]] = None, required: Iterable[str] = ()
) -> dict:
    """``d`` if it is a JSON object with only ``allowed`` keys (any, if
    ``None``) and every ``required`` key; :class:`ValueError` otherwise."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(d).__name__}")
    if allowed is not None:
        unknown = sorted(set(d) - set(allowed))
        if unknown:
            raise ValueError(
                f"unknown {what} key {unknown[0]!r} (valid: {', '.join(sorted(allowed))})"
            )
    missing = [k for k in required if k not in d]
    if missing:
        raise ValueError(f"{what} is missing required key {missing[0]!r}")
    return d


def check_list(v: object, what: str) -> list:
    if not isinstance(v, list):
        raise ValueError(f"{what} must be a JSON list, not {type(v).__name__}")
    return v


def check_number(v: object, what: str, *, integer: bool = False, lo: float = 0, hi: float = math.inf):
    """``v`` if it is a number (an integer, if asked) in ``[lo, hi]``."""
    kinds = int if integer else (int, float)
    if isinstance(v, bool) or not isinstance(v, kinds) or not lo <= v <= hi:
        kind = "an integer" if integer else "a number"
        raise ValueError(f"{what} must be {kind} in [{lo}, {hi}], got {v!r}")
    return v


def link_name(a: NodeKey, b: NodeKey) -> str:
    """Canonical plan/telemetry key for the link between two nodes."""
    return "-".join(sorted((f"{a[0]}{a[1]}", f"{b[0]}{b[1]}")))


@dataclass(frozen=True)
class LinkFaults:
    """One link's fault model; all probabilities are per transmission."""

    loss: float = 0.0
    corrupt: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    #: extra delay applied to reordered packets (uniform in [1, this]).
    reorder_delay_ns: int = 20_000
    #: uniform extra latency in [0, this] applied to every packet.
    jitter_ns: int = 0

    def __post_init__(self) -> None:
        for name in ("loss", "corrupt", "duplicate", "reorder"):
            check_number(getattr(self, name), f"{name} probability", hi=1)
        check_number(self.reorder_delay_ns, "reorder_delay_ns", integer=True, lo=1)
        check_number(self.jitter_ns, "jitter_ns", integer=True)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "LinkFaults":
        return cls(**check_object(d, "link faults", [f.name for f in fields(cls)]))


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled failure event.

    ``kind`` is one of ``crash`` / ``restart`` (with ``node``) or
    ``link_down`` / ``link_up`` (with ``a`` and ``b``).
    """

    at_ns: int
    kind: str
    node: Optional[str] = None
    a: Optional[str] = None
    b: Optional[str] = None

    KINDS = ("crash", "restart", "link_down", "link_up")

    def __post_init__(self) -> None:
        check_number(self.at_ns, "event at_ns", integer=True)
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown chaos event kind {self.kind!r}")
        if self.kind in ("crash", "restart") and self.node is None:
            raise ValueError(f"{self.kind} event needs a node")
        if self.kind in ("link_down", "link_up") and (self.a is None or self.b is None):
            raise ValueError(f"{self.kind} event needs link endpoints a and b")
        for name in (self.node, self.a, self.b):
            if name is not None:
                parse_node(name)

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "ChaosEvent":
        allowed = [f.name for f in fields(cls)]
        return cls(**check_object(d, "chaos event", allowed, ("at_ns", "kind")))


@dataclass
class ChaosPlan:
    """A complete, replayable description of one failure run."""

    seed: int = 0
    #: faults applied to links with no explicit entry (None = healthy).
    default_link: Optional[LinkFaults] = None
    #: link name (see :func:`link_name`) -> fault model.
    links: dict[str, LinkFaults] = field(default_factory=dict)
    events: list[ChaosEvent] = field(default_factory=list)

    def faults_for(self, a: NodeKey, b: NodeKey) -> Optional[LinkFaults]:
        return self.links.get(link_name(a, b), self.default_link)

    # -- (de)serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "default_link": self.default_link.to_dict() if self.default_link else None,
            "links": {k: v.to_dict() for k, v in sorted(self.links.items())},
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ChaosPlan":
        """Load a plan; :class:`ValueError` for any malformed document."""
        check_object(d, "chaos plan", ("seed", "default_link", "links", "events"))
        links = check_object(d.get("links", {}), "links")
        return cls(
            seed=check_number(d.get("seed", 0), "seed", integer=True, lo=-math.inf),
            default_link=(
                LinkFaults.from_dict(d["default_link"]) if d.get("default_link") else None
            ),
            links={link: LinkFaults.from_dict(v) for link, v in links.items()},
            events=[
                ChaosEvent.from_dict(e) for e in check_list(d.get("events", []), "events")
            ],
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ChaosPlan":
        return cls.from_dict(json.loads(text))


def acceptance_plan(
    seed: int, *, crash_node: str, crash_at_ns: Optional[int], loss: float = 0.05
) -> ChaosPlan:
    """The acceptance fault model every scenario replays: ``loss`` plus 5%
    duplication and reordering and 1 µs jitter on every link, and a crash
    of ``crash_node`` at ``crash_at_ns`` (no crash if that is ``None``)."""
    faults = LinkFaults(
        loss=loss, duplicate=0.05, reorder=0.05, reorder_delay_ns=15_000, jitter_ns=1_000
    )
    events = []
    if crash_at_ns is not None:
        events.append(ChaosEvent(at_ns=crash_at_ns, kind="crash", node=crash_node))
    return ChaosPlan(seed=seed, default_link=faults, events=events)
