"""The lowered kernel executor (``IRInterpreter.run_kernel``) against the
reference interpreter (``IRInterpreter.interpret_kernel``).

Both run the same inputs against fresh device states; they must agree on
every forwarding action and target, every message field, the full memory
snapshot after every input, and where and with which error type a run
traps.  The corpus is every program the benchmark compiles (both
targets), 200 fuzzed kernels before and after the middle end, and
builder-made functions for the shapes the frontend never emits: calls,
cycles, phis without an input, unevaluated values.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

import pytest

from repro.analysis.tvalid import generate_vectors
from repro.ir import GlobalState, IRInterpreter, KernelMessage
from repro.ir.builder import IRBuilder
from repro.ir.instructions import (
    ActionKind,
    Alloca,
    AtomicOp,
    BinOpKind,
    Call,
    CastKind,
    ICmpPred,
    Load,
    Phi,
    Store,
)
from repro.ir.interp import InterpError
from repro.ir.module import (
    Argument,
    Function,
    FunctionKind,
    GlobalVar,
    LookupEntry,
    LookupKind,
    MemSpace,
    Module,
)
from repro.ir.types import BOOL, U8, U16, U32, ArrayShape
from repro.lang import analyze, lower_to_ir, parse_source
from repro.passes import PassOptions, run_default_pipeline
from repro.passes.memcheck import MemoryCheckError
from tests.test_fuzz_compiler import KernelGenerator

ROOT = Path(__file__).resolve().parent.parent

#: header pseudo-fields the device runtime adds to every decoded message
PSEUDO_FIELDS = {"__src": 1, "__dst": 2, "__from": 0xFFFF, "__to": 1}


def _copy(fields: dict) -> dict:
    return {k: (list(v) if isinstance(v, list) else v) for k, v in fields.items()}


def behaviour(module, fn, vectors, *, device_id=1, reference, seed=5):
    """Per input: (outcome or raised error type, message fields, memory)."""
    state = GlobalState()
    interp = IRInterpreter(module, state, device_id=device_id, rng=random.Random(seed))
    run = interp.interpret_kernel if reference else interp.run_kernel
    trace = []
    for vec in vectors:
        msg = KernelMessage(_copy(vec))
        try:
            out = run(fn, msg)
            result = (out.kind, out.target)
        except Exception as exc:  # noqa: BLE001 - the error type is compared
            result = ("raised", type(exc).__name__)
        trace.append((result, _copy(msg.fields), state.snapshot()))
        if result[0] == "raised":
            break
    return trace


def assert_same(module, fn, vectors, **kw):
    ref = behaviour(module, fn, vectors, reference=True, **kw)
    fast = behaviour(module, fn, vectors, reference=False, **kw)
    for i, (r, f) in enumerate(zip(ref, fast)):
        assert r == f, f"{fn.name}: input #{i} {vectors[i]} diverges:\nref  {r}\nfast {f}"
    assert len(ref) == len(fast)
    return ref


# -- every program the benchmark compiles ---------------------------------------------


def _programs() -> list[tuple[str, object]]:
    """The compile inputs of ``perfbench/workloads.py::compile_programs``:
    the shipped apps, the collective and RPC roles, the kernels embedded
    in ``examples/``, and one variant of each role define it sweeps."""
    from repro.apps import compile_app
    from repro.collective.tree import ROOT_DEVICE, compile_role, leaf_device
    from repro.core import compile_netcl
    from repro.rpc.cluster import EDGE_DEVICE, SG_DEVICE, compile_rpc_role, tor_device

    progs: list[tuple[str, object]] = []
    for app, dev in (("agg", 1), ("cache", 1), ("calc", 1),
                     ("paxos", 1), ("paxos", 2), ("paxos", 5)):
        progs.append((f"{app}@{dev}", lambda t, app=app, dev=dev: compile_app(app, dev, target=t)))
    progs.append(("collective.root", lambda t: compile_role(ROOT_DEVICE, target=t)))
    progs.append(("collective.leaf", lambda t: compile_role(leaf_device(0), rack=0, target=t)))
    for role, dev in (("edge", EDGE_DEVICE), ("sg", SG_DEVICE), ("tor", tor_device(0))):
        progs.append((
            f"rpc.{role}",
            lambda t, role=role, dev=dev: compile_rpc_role(dev, role, fanout=16, target=t),
        ))
    for path in sorted((ROOT / "examples").glob("*.py")):
        for i, m in enumerate(re.finditer(r'r"""(.*?)"""', path.read_text(), re.S)):
            if "_kernel(" in m.group(1):
                progs.append((
                    f"{path.stem}[{i}]",
                    lambda t, src=m.group(1): compile_netcl(src, 1, target=t),
                ))
    progs.append(("agg.workers5", lambda t: compile_app("agg", 1, target=t, defines={"NUM_WORKERS": 5})))
    progs.append(("rpc.sg.fanout4", lambda t: compile_rpc_role(SG_DEVICE, "sg", fanout=4, target=t)))
    progs.append((
        "collective.leaf3x3",
        lambda t: compile_role(leaf_device(0), rack=0, num_racks=3, workers_per_rack=3, target=t),
    ))
    return progs


PROGRAMS = _programs()


@pytest.mark.parametrize("target", ["tna", "v1model"])
@pytest.mark.parametrize("label,build", PROGRAMS, ids=[p[0] for p in PROGRAMS])
def test_program_kernels_match_reference(label, build, target):
    cp = build(target)
    device_id = cp.device_id if cp.device_id is not None else 1
    kernels = cp.kernels()
    assert kernels, label
    for fn in kernels:
        vectors = [dict(PSEUDO_FIELDS, **v) for v in generate_vectors(fn)]
        assert_same(cp.module, fn, vectors, device_id=device_id)


# -- fuzzed kernels, before and after the middle end ----------------------------------

FUZZ_SEEDS = 200
FUZZ_CHUNK = 25


def _fuzz_vectors(fn, seed):
    return generate_vectors(fn, n_random=3, seed=seed)[:10]


@pytest.mark.parametrize("start", range(0, FUZZ_SEEDS, FUZZ_CHUNK))
def test_fuzzed_kernels_match_reference(start):
    seen: set[str] = set()
    for seed in range(start, start + FUZZ_CHUNK):
        src = KernelGenerator(seed).generate()
        module = lower_to_ir(analyze(parse_source(src)))
        fn = module.kernels()[0]
        vectors = _fuzz_vectors(fn, seed)
        assert_same(module, fn, vectors)
        seen.update(type(i).__name__ for i in fn.instructions())
        try:
            run_default_pipeline(module, PassOptions(target="tna"))
        except MemoryCheckError:
            continue  # random program violates Tofino memory rules: fine
        seen.update(type(i).__name__ for i in fn.instructions())
        assert_same(module, fn, vectors)
    assert {"Alloca", "Load", "Store", "BinOp", "ICmp", "Br"} <= seen


# -- builder-made functions ----------------------------------------------------------


def _kernel(module: Module, name: str, *args: Argument, computation: int = 1) -> tuple[Function, IRBuilder]:
    fn = Function(name, FunctionKind.KERNEL, list(args), computation=computation)
    module.add_function(fn)
    b = IRBuilder(fn)
    b.position_at_end(fn.new_block("entry"))
    return fn, b


def test_cyclic_function_hits_step_limit_on_both_paths():
    mod = Module("t")
    fn, b = _kernel(mod, "spin", Argument("x", U32, byref=True))
    loop = b.new_block("loop")
    b.jmp(loop)
    b.position_at_end(loop)
    phi = b.phi(U32)
    nxt = b.add(phi, b.const(U32, 1))
    b.store_msg("x", nxt)
    phi.add_incoming(b.const(U32, 0), fn.entry)
    phi.add_incoming(nxt, loop)
    b.jmp(loop)
    for reference in (True, False):
        interp = IRInterpreter(mod, GlobalState(), max_steps=1_000)
        run = interp.interpret_kernel if reference else interp.run_kernel
        msg = KernelMessage({"x": 0})
        with pytest.raises(InterpError, match="step limit"):
            run(fn, msg)
    assert_same(mod, fn, [{"x": 0}])


def test_rand_kernel_is_deterministic_per_seed():
    src = "_kernel(1) void k(unsigned &r, unsigned &s) { r = ncl::rand<unsigned>(); s = ncl::rand<unsigned>(); }"
    module = lower_to_ir(analyze(parse_source(src)))
    fn = module.kernels()[0]
    vectors = [{"r": 0, "s": 0}] * 4
    first = assert_same(module, fn, vectors, seed=11)
    again = behaviour(module, fn, vectors, reference=False, seed=11)
    assert first == again
    assert len({(t[1]["r"], t[1]["s"]) for t in first}) == 4
    other = behaviour(module, fn, vectors, reference=False, seed=12)
    assert other != first


def test_call_to_net_function():
    mod = Module("t")
    callee = Function("twice", FunctionKind.NETFN, [Argument("v", U32)], return_type=U32)
    mod.add_function(callee)
    cb = IRBuilder(callee)
    cb.position_at_end(callee.new_block("entry"))
    cb.ret_value(cb.add(callee.args[0], callee.args[0]))
    void = Function("nothing", FunctionKind.NETFN, [Argument("v", U32)])
    mod.add_function(void)
    vb = IRBuilder(void)
    vb.position_at_end(void.new_block("entry"))
    vb.ret_value()

    fn, b = _kernel(mod, "k", Argument("a", U32), Argument("r", U32, byref=True))
    called = b.call("twice", [fn.args[0]], U32)
    b.store_msg("r", b.add(called, b.const(U32, 1)))
    b.call("nothing", [fn.args[0]], U32)
    b.ret_action(ActionKind.PASS)
    trace = assert_same(mod, fn, [{"a": 20, "r": 0}, {"a": U32.mask, "r": 0}])
    assert [t[1]["r"] for t in trace] == [41, (2 * U32.mask + 1) & U32.mask]
    assert any(isinstance(i, Call) for i in fn.instructions())

    # a void callee's result is never evaluated: reading it traps
    fn2, b = _kernel(mod, "k2", Argument("a", U32), Argument("r", U32, byref=True), computation=2)
    b.store_msg("r", b.call("nothing", [fn2.args[0]], U32))
    b.ret_action(ActionKind.PASS)
    trace = assert_same(mod, fn2, [{"a": 1, "r": 0}])
    assert trace[-1][0] == ("raised", "InterpError")

    # an unknown callee traps when the call runs
    fn3, b = _kernel(mod, "k3", Argument("a", U32), computation=3)
    b.call("missing", [fn3.args[0]], U32)
    b.ret_action(ActionKind.DROP)
    assert assert_same(mod, fn3, [{"a": 1}])[-1][0] == ("raised", "InterpError")


def test_phis_and_mixed_local_slots():
    """Leading and trailing phis, a phi without an input on some edge, and a
    local slot used both as scalar and with an index."""
    mod = Module("t")
    fn, b = _kernel(mod, "k", Argument("x", U8), Argument("r", U16, byref=True))
    left, right, join, bad = (b.new_block(n) for n in ("left", "right", "join", "bad"))
    slot = b.alloca(U16, ArrayShape((2,)))
    scalar = b.alloca(U16)
    b.store(scalar, fn.args[0])
    b.br(b.icmp(ICmpPred.ULT, fn.args[0], b.const(U8, 100)), left, right)
    b.position_at_end(left)
    b.store(slot, b.const(U16, 7), [b.const(U32, 1)])
    b.jmp(join)
    b.position_at_end(right)
    b.br(b.icmp(ICmpPred.EQ, fn.args[0], b.const(U8, 200)), bad, join)
    b.position_at_end(join)
    lead = b.phi(U16)
    lead.add_incoming(b.const(U16, 1), left)
    lead.add_incoming(b.const(U16, 2), right)
    s = b.load(scalar)
    late = Phi(U16)  # after a non-phi: picks its input by predecessor
    join.insert(join.instructions.index(s) + 1, late)
    late.add_incoming(s, left)
    late.add_incoming(s, right)
    total = b.add(b.add(lead, late), b.load(slot, [b.const(U32, 1)]))
    b.store_msg("r", total)
    b.ret_action(ActionKind.PASS)
    b.position_at_end(bad)
    missing = b.phi(U16)  # no input from "right": traps on entry
    missing.add_incoming(b.const(U16, 0), join)
    b.store_msg("r", missing)
    b.ret_action(ActionKind.DROP)
    # an array slot read whole, then stored as a scalar
    fn2, b2 = _kernel(mod, "k2", Argument("r", U16, byref=True), computation=2)
    arr = b2.alloca(U16, ArrayShape((3,)))
    b2.store(arr, b2.const(U16, 4))
    b2.store_msg("r", b2.load(arr))
    b2.ret_action(ActionKind.PASS)

    vectors = [{"x": x, "r": 0} for x in (0, 5, 99, 100, 150, 255, 200)]
    trace = assert_same(mod, fn, vectors)
    assert trace[-1][0] == ("raised", "InterpError")
    assert [t[1]["r"] for t in trace[:4]] == [8, 13, 107, 102]
    assert_same(mod, fn2, [{"r": 0}])
    assert any(isinstance(i, Phi) for i in fn.instructions())
    assert {Alloca, Load, Store} <= {type(i) for i in fn.instructions()}


def test_traps_and_checks_match():
    """Index bounds, message shapes, division, fall-through, unevaluated use."""
    mod = Module("t")
    reg = mod.add_global(GlobalVar("reg", U16, ArrayShape((2, 4))))
    part = mod.add_global(GlobalVar("reg.part1", U16, ArrayShape((4,))))
    part.fixed_outer = 1
    fn, b = _kernel(
        mod, "k",
        Argument("i", U32), Argument("d", U32), Argument("v", U16, byref=True, spec=3, is_array=True),
        Argument("r", U32, byref=True),
    )
    i, d = fn.args[0], fn.args[1]
    old = b.atomic(AtomicOp.ADD, reg, [b.const(U32, 0), i], b.const(U16, 5), return_new=True)
    b.atomic(AtomicOp.MAX, part, [i], b.load_msg("v", U16, i), cond=b.icmp(ICmpPred.NE, d, b.const(U32, 3)))
    b.store_global(part, b.cast(CastKind.TRUNC, d, U16), [b.const(U32, 3)])
    q = b.binop(BinOpKind.UDIV, b.const(U32, 100), d)
    b.store_msg("v", b.cast(CastKind.TRUNC, q, U16), i)
    b.store_msg("r", b.add(b.cast(CastKind.ZEXT, old, U32), b.load_global(part, [i])))
    out = b.new_block("out")
    b.br(b.icmp(ICmpPred.UGT, d, b.const(U32, 50)), b.new_block("fall"), out)
    b.position_at_end(out)
    b.ret_action(ActionKind.SEND_TO_HOST, i)
    ok = [{"i": k, "d": 9 + k, "v": [1, 2, 3], "r": 0} for k in range(3)]
    assert_same(mod, fn, ok + [{"i": 1, "d": 7, "v": [1, 2, 3], "r": 0}])
    for bad in (
        {"i": 4, "d": 1, "v": [1, 2, 3], "r": 0},  # register index out of range
        {"i": 3, "d": 1, "v": [1, 2, 3], "r": 0},  # message index out of range
        {"i": 0, "d": 0, "v": [1, 2, 3], "r": 0},  # division by zero
        {"i": 1, "d": 1, "v": 5, "r": 0},  # array field given as scalar
        {"i": 0, "d": 1, "v": [1, 2, 3], "r": [0]},  # scalar field given as list
        {"i": 0, "d": 1, "r": 0},  # missing field
        {"i": 0, "d": 60, "v": [1, 2, 3], "r": 0},  # falls through "fall"
    ):
        trace = assert_same(mod, fn, ok + [bad])
        assert trace[-1][0][0] == "raised", bad

    # a value defined on one branch and read after the join
    fn2, b = _kernel(mod, "k2", Argument("c", BOOL), Argument("r", U8, byref=True), computation=2)
    then_, join = b.new_block("then"), b.new_block("join")
    b.br(fn2.args[0], then_, join)
    b.position_at_end(then_)
    v = b.load_msg("r", U8)
    b.jmp(join)
    b.position_at_end(join)
    b.store_msg("r", b.add(v, b.const(U8, 1)))
    b.ret_action(ActionKind.PASS)
    trace = assert_same(mod, fn2, [{"c": 1, "r": 4}, {"c": 0, "r": 4}])
    assert trace[0][1]["r"] == 5 and trace[1][0] == ("raised", "InterpError")


def test_lookup_tables_and_late_declared_globals():
    """Table lookups see control-plane updates; a global not placed at the
    device is declared by its first access on both paths."""
    mod = Module("t")
    table = mod.add_global(GlobalVar(
        "tbl", U16, ArrayShape((4,)), MemSpace.MANAGED_LOOKUP,
        lookup_kind=LookupKind.KV, key_type=U16, value_type=U16,
        entries=[LookupEntry(1, 1, 10), LookupEntry(5, 9, 20)],
    ))
    remote = mod.add_global(GlobalVar("remote", U32, ArrayShape((2,)), locations=frozenset({7})))
    fn, b = _kernel(mod, "k", Argument("key", U16), Argument("r", U16, byref=True),
                    Argument("h", U8, byref=True))
    b.store_msg("h", b.cast(CastKind.ZEXT, b.lookup(table, fn.args[0]), U8))
    b.store_msg("r", b.lookup_val(table, fn.args[0], b.const(U16, 99)))
    b.atomic(AtomicOp.ADD, remote, [b.const(U32, 1)], b.const(U32, 3))
    b.ret_action(ActionKind.PASS)
    vectors = [{"key": k, "r": 0, "h": 0} for k in (0, 1, 5, 9, 10)]
    assert_same(mod, fn, vectors, device_id=1)

    state = GlobalState()
    interp = IRInterpreter(mod, state, device_id=1)
    interp.run_kernel(fn, KernelMessage({"key": 3, "r": 0, "h": 0}))
    state.cp_table_insert("tbl", 3, value=33)
    msg = KernelMessage({"key": 3, "r": 0, "h": 0})
    interp.run_kernel(fn, msg)
    assert (msg.fields["h"], msg.fields["r"]) == (1, 33)
    assert state.cp_register_read_all("remote").tolist() == [0, 6]


def test_lowering_is_per_interpreter_and_survives_state_reset():
    """A device reset builds a new interpreter over a new state; code
    lowered for the old one must not leak into it."""
    from repro.runtime.device import NetCLDevice

    src = "_net_ unsigned c;\n_kernel(1) void k(unsigned &out) { out = ncl::atomic_inc_new(&c); }"
    module = lower_to_ir(analyze(parse_source(src)))
    run_default_pipeline(module, PassOptions(target="tna"))
    dev = NetCLDevice(1, module, module.kernels())
    fn = module.kernels()[0]
    for expected in (1, 2):
        msg = KernelMessage({"out": 0})
        dev.interp.run_kernel(fn, msg)
        assert msg.fields["out"] == expected
    old = dev.interp
    dev.reset_state()
    assert dev.interp is not old
    msg = KernelMessage({"out": 0})
    dev.interp.run_kernel(fn, msg)
    assert msg.fields["out"] == 1
    assert dev.state.cp_register_read("c") == 1
