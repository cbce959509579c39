"""Hooks and layer spans the benchmark wraps around ``repro``'s entry points.

Nothing here edits ``src/``.  Every wrapper replaces a name where its
caller looks it up (a class attribute, or a module global bound by
``from ... import``), so the program runs unchanged around it.

Two kinds of hook:

* :class:`Hooks` is always installed.  It wraps only calls that happen a
  handful of times per run (``compile_netcl``, ``parse_source``,
  ``Simulator.run``, ``Network.__init__``), so untraced timings stay
  honest.  It marks the end of set-up, times every compile and keeps the
  fitter report of every ``tna`` compile.
* :class:`SpanRecorder` is installed only in traced runs.  It wraps the
  per-packet entry points of each layer too and records one span per call
  (layer, start, end, parent) in flat arrays kept in memory; the child
  writes them out when the workload ends.

Layer names are the ``src/repro/`` module names, plus ``host`` (the host
receive callbacks: channel and app handler) and ``other`` (the root span's
self time: interpreter start, imports, and the benchmark's own code).
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Optional

clock_ns = time.perf_counter_ns

#: layers in the order they are reported; ``other`` is the root span.
LAYERS = (
    "other", "core", "lang", "passes", "backends", "tofino",
    "ir", "runtime", "reliability", "host", "netsim",
)

#: the layer a span's parent must belong to.  A span found under any other
#: layer means a wrapper was missed (for example a ``compile_netcl`` bound
#: in a module the hooks did not patch), so the run fails instead of
#: silently shrinking a layer.
ALLOWED_PARENTS = {
    "core": {"other"},
    "lang": {"core"},
    "passes": {"core"},
    "backends": {"core"},
    "tofino": {"core"},
    "netsim": {"other"},
    "host": {"netsim"},
    "reliability": {"netsim"},
    "runtime": {"netsim", "reliability"},
    "ir": {"runtime"},
}

#: metric name -> layer whose self time it reports (traced runs).
SELF_TIME_METRICS = {
    "other.self_s": "other",
    "core.self_s": "core",
    "lang.self_s": "lang",
    "passes.self_s": "passes",
    "backends.self_s": "backends",
    "tofino.fit_s": "tofino",
    "ir.kernel_s": "ir",
    "runtime.self_s": "runtime",
    "reliability.device_self_s": "reliability",
    "host.rx_s": "host",
    "netsim.self_s": "netsim",
}


def _patch(owner, name: str, make: Callable[[Callable], Callable], undo: list) -> None:
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    undo.append((owner, name, original))


def _restore(undo: list) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)
    undo.clear()


def _rebind_everywhere(original, replacement, undo: list) -> None:
    """Replace ``original`` in every loaded ``repro`` module that bound it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def compile_key(source: str, device_id, target: str, defines) -> str:
    """Content key of one compile input (what a compile cache would hash)."""
    blob = json.dumps(
        [source, device_id, target, sorted((defines or {}).items(), key=str)],
        default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class Hooks:
    """Cheap always-on hooks: set-up mark, compile log, network registry."""

    def __init__(self, *, setup_ends_at: str) -> None:
        assert setup_ends_at in ("sim", "compile")
        self.setup_ends_at = setup_ends_at
        self.first_ns: Optional[int] = None
        #: one (milliseconds, content key, target, report row or None) per compile
        self.compiles: list[tuple[float, str, str, Optional[dict]]] = []
        self.parse_calls = 0
        self.networks: list = []
        self._undo: list = []

    def _mark(self) -> None:
        if self.first_ns is None:
            self.first_ns = clock_ns()

    def install(self) -> None:
        import repro.core.driver as driver
        from repro.netsim import Network, Simulator

        def make_compile(fn):
            def compile_netcl(source, device_id=None, **kw):
                if self.setup_ends_at == "compile":
                    self._mark()
                t0 = clock_ns()
                cp = fn(source, device_id, **kw)
                ms = (clock_ns() - t0) / 1e6
                target = kw.get("target", "tna")
                row = cp.report.row() if (target == "tna" and cp.report) else None
                key = compile_key(source, device_id, target, kw.get("defines"))
                self.compiles.append((ms, key, target, row))
                return cp

            return compile_netcl

        def make_parse(fn):
            def parse_source(*a, **kw):
                self.parse_calls += 1
                return fn(*a, **kw)

            return parse_source

        def make_run(fn):
            def run(sim, *a, **kw):
                if self.setup_ends_at == "sim":
                    self._mark()
                return fn(sim, *a, **kw)

            return run

        def make_init(fn):
            def __init__(net, *a, **kw):
                fn(net, *a, **kw)
                self.networks.append(net)

            return __init__

        original = driver.compile_netcl
        wrapped = make_compile(original)
        _rebind_everywhere(original, wrapped, self._undo)
        _patch(driver, "parse_source", make_parse, self._undo)
        _patch(Simulator, "run", make_run, self._undo)
        _patch(Network, "__init__", make_init, self._undo)

    def uninstall(self) -> None:
        _restore(self._undo)


class SpanRecorder:
    """Flat in-memory span store with a parent stack (traced runs only).

    Span 0 is the root (layer ``other``), opened at ``root_start_ns`` — the
    moment the parent process spawned this one — so interpreter start and
    imports are part of the traced total.
    """

    def __init__(self, root_start_ns: int) -> None:
        self.layer = array("B", [0])
        self.start = array("q", [root_start_ns])
        self.end = array("q", [0])
        self.parent = array("l", [-1])
        self._stack = [0]
        #: counters taken at layer boundaries
        self.tokens = 0
        self.ir_insts = 0
        self.p4_lines = 0
        self._undo: list = []

    # -- span primitives -------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        lid = LAYERS.index(layer)
        layer_a, start_a, end_a, parent_a = self.layer, self.start, self.end, self.parent
        stack = self._stack
        push, pop = stack.append, stack.pop

        def traced(*a, **kw):
            i = len(start_a)
            layer_a.append(lid)
            parent_a.append(stack[-1])
            end_a.append(0)
            push(i)
            start_a.append(clock_ns())
            try:
                out = fn(*a, **kw)
            finally:
                end_a[i] = clock_ns()
                pop()
            if after is not None:
                after(out, *a)
            return out

        return traced

    def close_root(self) -> None:
        self.end[0] = clock_ns()

    # -- installation ----------------------------------------------------------
    def install(self) -> None:
        """Wrap each layer's entry points.  Call after :meth:`Hooks.install`
        so the compile span sits inside the compile log's timing."""
        import repro.core.driver as driver
        import repro.lang.parser as parser
        import repro.tofino.report as report
        from repro.backends.tna import TnaBackend
        from repro.backends.v1model import V1ModelBackend
        from repro.ir.interp import IRInterpreter
        from repro.netsim import Simulator
        from repro.netsim.net import Host
        from repro.passes.manager import PassManager
        from repro.reliability.device import ReliableNetCLDevice
        from repro.runtime.device import NetCLDevice

        undo = self._undo

        def count_ir(_out, _pm, module, *a, **kw):
            self.ir_insts += sum(
                len(block.instructions) for fn in module.functions.values() for block in fn.blocks
            )

        def count_p4(result, *a, **kw):
            self.p4_lines += result.p4_source.count("\n") + 1

        def make_parser_init(fn):
            def __init__(p, lexer, *a, **kw):
                self.tokens += len(lexer.tokens)
                fn(p, lexer, *a, **kw)

            return __init__

        current = driver.compile_netcl  # the Hooks wrapper, already rebound everywhere
        _rebind_everywhere(current, self._wrap("core", current), undo)
        for name in ("parse_source", "analyze", "lower_to_ir"):
            _patch(driver, name, lambda fn: self._wrap("lang", fn), undo)
        _patch(parser.Parser, "__init__", make_parser_init, undo)
        _patch(PassManager, "run_pipeline", lambda fn: self._wrap("passes", fn, count_ir), undo)
        for backend in (TnaBackend, V1ModelBackend):
            _patch(backend, "compile", lambda fn: self._wrap("backends", fn, count_p4), undo)
        _patch(report, "build_report", lambda fn: self._wrap("tofino", fn), undo)
        _patch(IRInterpreter, "run_kernel", lambda fn: self._wrap("ir", fn), undo)
        _patch(NetCLDevice, "process", lambda fn: self._wrap("runtime", fn), undo)
        _patch(ReliableNetCLDevice, "process", lambda fn: self._wrap("reliability", fn), undo)
        _patch(Host, "_rx_up", lambda fn: self._wrap("host", fn), undo)
        _patch(Simulator, "run", lambda fn: self._wrap("netsim", fn), undo)

    def uninstall(self) -> None:
        _restore(self._undo)

    # -- analysis --------------------------------------------------------------
    def ledger(self) -> dict:
        """Per-layer self time, call counts and kernel percentiles.

        A layer's self time is its spans' durations minus the part their
        child spans cover; the root's self time is ``other.self_s``.  Also
        checks that spans nest (children inside parents) and that every
        span sits under a layer :data:`ALLOWED_PARENTS` permits.
        """
        n = len(self.start)
        layer, start, end, parent = self.layer, self.start, self.end, self.parent
        self_ns = [0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        child_ns = [0] * n
        errors: list[str] = []
        misplaced: dict[tuple[str, str], int] = {}
        kernel_ns: list[int] = []
        ir_id = LAYERS.index("ir")
        for i in range(n - 1, -1, -1):
            d = end[i] - start[i]
            lid = layer[i]
            if d < 0 or d < child_ns[i]:
                errors.append(f"span {i} ({LAYERS[lid]}) does not enclose its children")
            self_ns[lid] += d - child_ns[i]
            calls[lid] += 1
            if lid == ir_id:
                kernel_ns.append(d)
            p = parent[i]
            if p >= 0:
                child_ns[p] += d
                if start[i] < start[p] or end[i] > end[p]:
                    errors.append(f"span {i} ({LAYERS[lid]}) escapes its parent span {p}")
                name, pname = LAYERS[lid], LAYERS[layer[p]]
                if pname not in ALLOWED_PARENTS[name]:
                    misplaced[(name, pname)] = misplaced.get((name, pname), 0) + 1
        for (name, pname), k in sorted(misplaced.items()):
            errors.append(
                f"{k} {name} span(s) under {pname}: a wrapper around a "
                f"{ALLOWED_PARENTS[name]} entry point was missed"
            )
        total_ns = end[0] - start[0]
        return {
            "total_s": total_ns / 1e9,
            "self_s": {LAYERS[i]: self_ns[i] / 1e9 for i in range(len(LAYERS))},
            "calls": {LAYERS[i]: calls[i] for i in range(len(LAYERS))},
            "kernel_us": [percentile(kernel_ns, q) / 1e3 for q in (0.50, 0.99)],
            "accounting_gap_s": (sum(self_ns) - total_ns) / 1e9,
            "errors": errors[:20],
        }

    def dump(self, path: Path) -> None:
        """Write every span out (columns: layer id, start, end, parent)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0]
        payload = {
            "layers": list(LAYERS),
            "layer": list(self.layer),
            "start_ns": [s - t0 for s in self.start],
            "end_ns": [e - t0 for e in self.end],
            "parent": list(self.parent),
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in 0..1 (0 for no values)."""
    s = sorted(values)
    if not s:
        return 0.0
    return float(s[min(len(s) - 1, max(0, int(q * len(s) + 0.5) - 1))])
