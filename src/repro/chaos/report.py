"""What every acceptance scenario reports: a determinism digest and a
JSON-ready result dict.

A leaf module (it imports no scenario), shared by the AGG/CACHE,
collective, RPC and service scenarios and by ``python -m repro.scenario``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

#: result fields left out of the report: the full metric snapshot (it is
#: in the digest) and the tracing by-products, which must not make a
#: traced run look different from an untraced one.
UNREPORTED = frozenset({"metrics", "traces", "trace_events"})


def run_digest(payload: object) -> str:
    """sha256 over compact, key-sorted JSON: two runs that produce the
    same payload produce the same digest."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def result_dict(result: object) -> dict:
    """A scenario result (a dataclass) as its JSON report."""
    return {
        f.name: getattr(result, f.name)
        for f in fields(result)
        if f.name not in UNREPORTED
    }
