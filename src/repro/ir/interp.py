"""Behavioral IR interpreter — the execution engine of the device model.

The device runtime (:mod:`repro.runtime.device`) executes compiled NetCL
kernels by interpreting their (post-middle-end) IR against a
:class:`GlobalState` holding the device's register and table memory, exactly
as bmv2 executes generated P4 behaviorally in the paper's evaluation.

The interpreter implements the device model of §IV: one logical thread per
message, processing uninterrupted; thread-private local memory; atomic
transactions on shared global memory; and kernel exit via a forwarding
action (Table II).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from repro import hashing
from repro.ir.blocks import BasicBlock
from repro.ir.instructions import (
    ActionKind,
    Alloca,
    AtomicOp,
    AtomicRMW,
    BinOp,
    BinOpKind,
    Br,
    Call,
    Cast,
    CastKind,
    Constant,
    ICmp,
    ICmpPred,
    Instruction,
    Intrinsic,
    Jmp,
    Load,
    LoadGlobal,
    LoadMsg,
    Lookup,
    LookupVal,
    Phi,
    Ret,
    Select,
    Store,
    StoreGlobal,
    StoreMsg,
    Undef,
    Value,
)
from repro.ir.module import Function, GlobalVar, LookupEntry, Module
from repro.ir.types import IntType


class InterpError(Exception):
    """Runtime fault during kernel interpretation."""


_NUMPY_DTYPE = {8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}


def _dtype_for(width: int):
    for w, dt in _NUMPY_DTYPE.items():
        if width <= w:
            return dt
    return np.uint64


# -- op semantics --------------------------------------------------------------
#
# Every IR operator is defined exactly once, as the text of a Python
# expression over plain ints (the ``*_expr`` builders).  The reference
# interpreter evaluates that text through a lambda compiled once per
# operator and type (``binop``, ``icmp``, ``cast``, ``atomic_rmw``,
# ``intrinsic``); the kernel executor (:mod:`repro.ir.executor`) pastes the
# same text into the code it generates.  Operand sources handed to the
# builders are already masked to the operand type unless stated otherwise.


def _fail(message: str):
    raise InterpError(message)


def _sdiv(sa: int, sb: int) -> int:
    if sb == 0:
        _fail("division by zero")
    q = abs(sa) // abs(sb)
    return -q if (sa < 0) != (sb < 0) else q


def _srem(sa: int, sb: int) -> int:
    if sb == 0:
        _fail("remainder by zero")
    r = abs(sa) % abs(sb)
    return -r if sa < 0 else r


def _csum16r(*args: int) -> int:
    """One's-complement 16-bit checksum (v1model intrinsic)."""
    s = 0
    for a in args:
        s += a & 0xFFFF
        s = (s & 0xFFFF) + (s >> 16)
    return (~s) & 0xFFFF


#: helpers the expression text may call; bound in every evaluation namespace.
OP_NAMESPACE: dict[str, object] = {
    "_fail": _fail,
    "_sdiv": _sdiv,
    "_srem": _srem,
    "_csum16r": _csum16r,
    **{f"_hash_{name}": fn for name, fn in hashing.HASH_FUNCTIONS.items()},
}


def _literal(src: str) -> Optional[int]:
    """The value of an operand source that is a non-negative int literal."""
    return int(src) if src.isdigit() else None


def _signed(src: str, ty: IntType) -> str:
    """A masked operand reinterpreted as ``ty``'s signed value (identity
    for unsigned types, matching :meth:`IntType.wrap`)."""
    if not ty.signed:
        return src
    h = 1 << (ty.width - 1)
    return f"(({src} ^ {h}) - {h})"


def binop_expr(kind: BinOpKind, ty: IntType, a: str, b: str) -> str:
    """Result of ``a kind b`` at type ``ty``, masked to ``ty``."""
    m, w = ty.mask, ty.width
    if kind == BinOpKind.ADD:
        return f"(({a} + {b}) & {m})"
    if kind == BinOpKind.SUB:
        return f"(({a} - {b}) & {m})"
    if kind == BinOpKind.MUL:
        return f"(({a} * {b}) & {m})"
    if kind == BinOpKind.UDIV:
        return f"({a} // {b} if {b} else _fail('division by zero'))"
    if kind == BinOpKind.UREM:
        return f"({a} % {b} if {b} else _fail('remainder by zero'))"
    if kind == BinOpKind.SDIV:
        return f"(_sdiv({_signed(a, ty)}, {_signed(b, ty)}) & {m})"
    if kind == BinOpKind.SREM:
        return f"(_srem({_signed(a, ty)}, {_signed(b, ty)}) & {m})"
    if kind == BinOpKind.AND:
        return f"({a} & {b})"
    if kind == BinOpKind.OR:
        return f"({a} | {b})"
    if kind == BinOpKind.XOR:
        return f"({a} ^ {b})"
    shift = _literal(b)
    if kind == BinOpKind.SHL:
        if shift is not None:
            return f"(({a} << {shift}) & {m})" if shift < w else "0"
        return f"(({a} << {b}) & {m} if {b} < {w} else 0)"
    if kind == BinOpKind.LSHR:
        if shift is not None:
            return f"({a} >> {shift})" if shift < w else "0"
        return f"({a} >> {b} if {b} < {w} else 0)"
    if kind == BinOpKind.ASHR:
        by = str(min(shift, w - 1)) if shift is not None else f"min({b}, {w - 1})"
        return f"(({_signed(a, ty)} >> {by}) & {m})"
    if kind == BinOpKind.SADDU:
        return f"min({a} + {b}, {m})"
    if kind == BinOpKind.SSUBU:
        return f"max({a} - {b}, 0)"
    raise InterpError(f"unhandled binop {kind}")  # pragma: no cover


_ICMP_OPS = {
    ICmpPred.EQ: "==", ICmpPred.NE: "!=",
    ICmpPred.ULT: "<", ICmpPred.ULE: "<=", ICmpPred.UGT: ">", ICmpPred.UGE: ">=",
    ICmpPred.SLT: "<", ICmpPred.SLE: "<=", ICmpPred.SGT: ">", ICmpPred.SGE: ">=",
}
_SIGNED_PREDS = frozenset({ICmpPred.SLT, ICmpPred.SLE, ICmpPred.SGT, ICmpPred.SGE})


def icmp_expr(pred: ICmpPred, ty: IntType, a: str, b: str) -> str:
    """1 or 0.  Signed predicates compare the operands' two's-complement
    reading whatever ``ty``'s declared signedness: flipping the sign bit
    maps signed order onto unsigned order."""
    if pred in _SIGNED_PREDS:
        h = 1 << (ty.width - 1)
        a, b = f"({a} ^ {h})", f"({b} ^ {h})"
    return f"(1 if {a} {_ICMP_OPS[pred]} {b} else 0)"


def cast_expr(kind: CastKind, src: IntType, dst: IntType, v: str) -> str:
    if kind == CastKind.ZEXT:
        return v
    if kind == CastKind.SEXT:
        h = 1 << (src.width - 1)
        return f"((({v} ^ {h}) - {h}) & {dst.mask})"
    return f"({v} & {dst.mask})"  # trunc, bitcast


def atomic_rmw_expr(op: AtomicOp, saturating: bool, mask: int, old: str, arg: str) -> str:
    """The new memory value of an arithmetic RMW (not READ or CAS)."""
    if op == AtomicOp.ADD:
        return f"min({old} + {arg}, {mask})" if saturating else f"(({old} + {arg}) & {mask})"
    if op == AtomicOp.SUB:
        return f"max({old} - {arg}, 0)" if saturating else f"(({old} - {arg}) & {mask})"
    if op == AtomicOp.AND:
        return f"({old} & {arg})"
    if op == AtomicOp.OR:
        return f"({old} | {arg})"
    if op == AtomicOp.XOR:
        return f"({old} ^ {arg})"
    if op == AtomicOp.MIN:
        return f"min({old}, {arg})"
    if op == AtomicOp.MAX:
        return f"max({old}, {arg})"
    if op in (AtomicOp.EXCH, AtomicOp.WRITE):
        return arg
    raise InterpError(f"unhandled atomic op {op}")  # pragma: no cover


#: intrinsic name -> number of arguments it reads
_INTRINSIC_ARITY = {
    "device.id": 0, "device.kind": 0, "ncl.rand": 0,
    "ncl.bswap": 1, "ncl.clz": 1, "ncl.ctz": 1, "ncl.popcount": 1,
    "ncl.bit_chk": 2, "ncl.min": 2, "ncl.max": 2, "ncl.sadd": 2, "ncl.ssub": 2,
    **{f"ncl.{name}": 1 for name in hashing.HASH_FUNCTIONS},
}


def intrinsic_expr(name: str, out: IntType, arg_types: Sequence, args: Sequence[str]) -> str:
    """Result of builtin ``name``.  ``args`` are the raw (unmasked) argument
    values; ``_device_id`` and ``_rng`` name the executing device's id and
    random generator."""
    m = out.mask
    if name == "ncl.csum16r":
        return f"_csum16r({', '.join(args)})"
    arity = _INTRINSIC_ARITY.get(name)
    if arity is None:
        return f"_fail({f'unknown intrinsic {name}'!r})"
    if len(args) < arity:
        return f"_fail({f'{name} expects {arity} arguments'!r})"
    if name == "device.id":
        return f"(_device_id & {m})"
    if name == "device.kind":
        return "1"  # switch
    if name == "ncl.rand":
        return f"_rng.randrange(0, {m + 1})"
    a = args[0]
    w = arg_types[0].width
    fn_name = name.split(".", 1)[1]
    if fn_name in hashing.HASH_FUNCTIONS:
        return f"(_hash_{fn_name}({a}, {w}) & {m})"
    if name == "ncl.bswap":
        return f"int.from_bytes(({a} & {m}).to_bytes({out.width // 8}, 'big'), 'little')"
    if name == "ncl.clz":
        return f"(({w} - {a}.bit_length()) & {m})"
    if name == "ncl.ctz":
        return f"(({a} & -{a}).bit_length() - 1 if {a} else {w})"
    if name == "ncl.popcount":
        return f"({a}.bit_count() & {m})"
    b = args[1]
    if name == "ncl.bit_chk":
        return f"(({a} >> {b}) & 1)"
    if name == "ncl.min":
        return f"min({a}, {b})"
    if name == "ncl.max":
        return f"max({a}, {b})"
    if name == "ncl.sadd":
        return f"min({a} + {b}, {m})"
    return f"max({a} - {b}, 0)"  # ncl.ssub


def _compile_lambda(params: str, expr: str):
    return eval(f"lambda {params}: {expr}", dict(OP_NAMESPACE))  # noqa: S307


@lru_cache(maxsize=None)
def _binop_fn(kind: BinOpKind, ty: IntType):
    return _compile_lambda("a, b", binop_expr(kind, ty, "a", "b"))


@lru_cache(maxsize=None)
def _icmp_fn(pred: ICmpPred, ty: IntType):
    return _compile_lambda("a, b", icmp_expr(pred, ty, "a", "b"))


@lru_cache(maxsize=None)
def _cast_fn(kind: CastKind, src: IntType, dst: IntType):
    return _compile_lambda("v", cast_expr(kind, src, dst, "v"))


@lru_cache(maxsize=None)
def _atomic_fn(op: AtomicOp, saturating: bool, mask: int):
    return _compile_lambda("old, arg", atomic_rmw_expr(op, saturating, mask, "old", "arg"))


@lru_cache(maxsize=None)
def _intrinsic_fn(name: str, out: IntType, arg_types: tuple):
    srcs = [f"args[{i}]" for i in range(len(arg_types))]
    return _compile_lambda("args, _device_id, _rng", intrinsic_expr(name, out, arg_types, srcs))


def binop(kind: BinOpKind, ty: IntType, a: int, b: int) -> int:
    """``a kind b`` at type ``ty`` (operands masked to ``ty`` first)."""
    return _binop_fn(kind, ty)(a & ty.mask, b & ty.mask)


def icmp(pred: ICmpPred, ty: IntType, a: int, b: int) -> int:
    """1 if ``a pred b`` at type ``ty`` holds, else 0."""
    return _icmp_fn(pred, ty)(a & ty.mask, b & ty.mask)


def cast(kind: CastKind, src: IntType, dst: IntType, v: int) -> int:
    return _cast_fn(kind, src, dst)(v & src.mask)


def atomic_rmw(op: AtomicOp, saturating: bool, mask: int, old: int, arg: int) -> int:
    """New memory value of an arithmetic RMW on masked ``old`` and ``arg``."""
    return _atomic_fn(op, saturating, mask)(old, arg)


def intrinsic(
    name: str,
    out: IntType,
    arg_types: Sequence,
    args: Sequence[int],
    *,
    device_id: int,
    rng: random.Random,
) -> int:
    return _intrinsic_fn(name, out, tuple(arg_types))(args, device_id, rng)


def table_lookup(entries: Sequence[LookupEntry], key: int) -> Optional[LookupEntry]:
    """The first entry of a lookup table matching ``key``."""
    for entry in entries:
        if entry.matches(key):
            return entry
    return None


class GlobalState:
    """All global device memory of one device: registers plus lookup tables.

    Register memory (``_net_`` / ``_managed_``) is zero-initialized numpy
    storage, flattened row-major.  Lookup memory is an ordered entry list;
    ``_managed_ _lookup_`` entries may be mutated through the control-plane
    methods, static ``_lookup_`` entries are frozen (P4 does not allow data
    plane MAT updates, §V-B).
    """

    def __init__(self) -> None:
        self._registers: dict[str, np.ndarray] = {}
        self._meta: dict[str, GlobalVar] = {}
        self._tables: dict[str, list[LookupEntry]] = {}

    # -- declaration ---------------------------------------------------------
    def declare(self, gv: GlobalVar) -> None:
        base = self._base_name(gv.name)
        if base in self._meta:
            return
        self._meta[base] = gv
        if gv.space.is_lookup:
            self._tables[base] = [
                LookupEntry(e.key_lo, e.key_hi, e.value) for e in gv.entries
            ]
        else:
            dt = _dtype_for(gv.elem.width)
            self._registers[base] = np.zeros(gv.shape.num_elements or 1, dtype=dt)

    @staticmethod
    def _base_name(name: str) -> str:
        # Memory partitioning / duplication passes rename accesses to
        # "name.partN" / "name.dupN"; all copies share the base storage so
        # behavior is unchanged (duplication of read-only tables, partitions
        # indexed disjointly).
        return name.split(".", 1)[0]

    def _meta_for(self, gv: GlobalVar) -> tuple[str, GlobalVar]:
        base = self._base_name(gv.name)
        if base not in self._meta:
            self.declare(
                GlobalVar(
                    base,
                    gv.elem,
                    gv.shape,
                    gv.space,
                    gv.locations,
                    gv.lookup_kind,
                    gv.key_type,
                    gv.value_type,
                    [LookupEntry(e.key_lo, e.key_hi, e.value) for e in gv.entries],
                )
            )
        return base, self._meta[base]

    @staticmethod
    def _effective_indices(gv: GlobalVar, indices: Sequence[int]) -> list[int]:
        """Map a (possibly partitioned) access back onto base storage."""
        fixed = getattr(gv, "fixed_outer", None)
        if fixed is not None:
            return [fixed, *indices]
        return list(indices)

    def resolve(self, gv: GlobalVar) -> Optional[tuple[GlobalVar, tuple[int, ...], object]]:
        """Where accesses to ``gv`` land, without declaring anything: the
        base declaration, the index prefix a partition fixes, and the base
        storage (register array or table entry list).  None while the base
        is undeclared (the first access declares it)."""
        base = self._base_name(gv.name)
        meta = self._meta.get(base)
        if meta is None:
            return None
        fixed = getattr(gv, "fixed_outer", None)
        store = self._tables[base] if meta.space.is_lookup else self._registers[base]
        return meta, (() if fixed is None else (fixed,)), store

    # -- register access -------------------------------------------------------
    def _flat_index(self, gv: GlobalVar, indices: Sequence[int]) -> int:
        dims = gv.shape.dims
        if len(indices) != len(dims):
            raise InterpError(
                f"{gv.name}: expected {len(dims)} indices, got {len(indices)}"
            )
        flat = 0
        for idx, dim in zip(indices, dims):
            if not 0 <= idx < dim:
                raise InterpError(f"{gv.name}: index {idx} out of range [0,{dim})")
            flat = flat * dim + idx
        return flat

    def read(self, gv: GlobalVar, indices: Sequence[int]) -> int:
        base, meta = self._meta_for(gv)
        flat = self._flat_index(meta, self._effective_indices(gv, indices))
        return int(self._registers[base][flat])

    def write(self, gv: GlobalVar, indices: Sequence[int], value: int) -> None:
        base, meta = self._meta_for(gv)
        flat = self._flat_index(meta, self._effective_indices(gv, indices))
        self._registers[base][flat] = value & meta.elem.mask

    def atomic(
        self,
        gv: GlobalVar,
        indices: Sequence[int],
        op: AtomicOp,
        operand: Optional[int],
        *,
        cond: Optional[int] = None,
        compare: Optional[int] = None,
        return_new: bool = False,
        saturating: bool = False,
    ) -> int:
        """Execute one SALU-style read-modify-write transaction.

        A guarded-off conditional operation leaves memory untouched and
        returns the *old* value (§V-E retransmission detection relies on
        this).
        """
        base, meta = self._meta_for(gv)
        flat = self._flat_index(meta, self._effective_indices(gv, indices))
        mask = meta.elem.mask
        cells = self._registers[base]
        old = int(cells[flat])

        if op == AtomicOp.READ:
            return old

        if op == AtomicOp.CAS:
            if compare is None:
                raise InterpError("CAS requires a compare operand")
            if old == (compare & mask):
                cells[flat] = (operand or 0) & mask
            return old

        if operand is None:
            raise InterpError(f"atomic {op.value} requires an operand")
        new = atomic_rmw(op, saturating, mask, old, operand & mask)

        if cond is not None and cond == 0:
            return old
        cells[flat] = new
        return new if return_new else old

    # -- lookup access -------------------------------------------------------------
    def lookup(self, gv: GlobalVar, key: int) -> tuple[bool, Optional[int]]:
        base, _ = self._meta_for(gv)
        entry = table_lookup(self._tables[base], key)
        return (False, None) if entry is None else (True, entry.value)

    # -- whole-state capture ---------------------------------------------------
    def snapshot(self) -> dict:
        """Deep, comparable copy of all device memory.

        Registers become plain lists, lookup tables become entry tuples;
        two snapshots compare equal iff every observable memory cell
        matches.  Translation validation diffs these across passes.
        """
        return {
            "registers": {k: v.tolist() for k, v in sorted(self._registers.items())},
            "tables": {
                k: [(e.key_lo, e.key_hi, e.value) for e in v]
                for k, v in sorted(self._tables.items())
            },
        }

    # -- control-plane surface (P4Runtime stand-in, §V-B managed memory) -----------
    def cp_register_read(self, name: str, index: int = 0) -> int:
        base = self._base_name(name)
        if base not in self._registers:
            raise InterpError(f"no register memory named {name}")
        return int(self._registers[base][index])

    def cp_register_write(self, name: str, value: int, index: int = 0) -> None:
        base = self._base_name(name)
        if base not in self._registers:
            raise InterpError(f"no register memory named {name}")
        meta = self._meta[base]
        if not meta.space.is_managed:
            raise InterpError(f"{name} is not _managed_: host writes forbidden")
        self._registers[base][index] = value & meta.elem.mask

    def cp_register_read_all(self, name: str) -> np.ndarray:
        base = self._base_name(name)
        return self._registers[base].copy()

    def cp_table_entries(self, name: str) -> list[LookupEntry]:
        base = self._base_name(name)
        return list(self._tables[base])

    def cp_table_insert(self, name: str, key_lo: int, key_hi: Optional[int] = None, value: Optional[int] = None) -> None:
        base = self._base_name(name)
        meta = self._meta[base]
        if not meta.space.is_managed:
            raise InterpError(f"{name} is not _managed_: host inserts forbidden")
        hi = key_lo if key_hi is None else key_hi
        if len(self._tables[base]) >= meta.capacity:
            raise InterpError(f"{name}: table full (capacity {meta.capacity})")
        self._tables[base].append(LookupEntry(key_lo, hi, value))

    def cp_table_modify(self, name: str, key: int, value: int) -> bool:
        base = self._base_name(name)
        meta = self._meta[base]
        if not meta.space.is_managed:
            raise InterpError(f"{name} is not _managed_: host modifies forbidden")
        for entry in self._tables[base]:
            if entry.matches(key):
                entry.value = value
                return True
        return False

    def cp_table_remove(self, name: str, key: int) -> bool:
        base = self._base_name(name)
        meta = self._meta[base]
        if not meta.space.is_managed:
            raise InterpError(f"{name} is not _managed_: host removes forbidden")
        for entry in list(self._tables[base]):
            if entry.matches(key):
                self._tables[base].remove(entry)
                return True
        return False


class KernelMessage:
    """Mutable view of a NetCL message's data fields during kernel execution.

    Field names are kernel argument names; array fields hold lists.  Writes
    through by-reference arguments mutate this object in place, which is how
    updates become "visible to all receivers" (§V-A).
    """

    def __init__(self, fields: dict[str, int | list[int]]) -> None:
        self.fields = fields

    def get(self, name: str, index: Optional[int] = None) -> int:
        v = self.fields[name]
        if isinstance(v, list):
            if index is None:
                raise InterpError(f"field {name} is an array; index required")
            if not 0 <= index < len(v):
                raise InterpError(f"field {name}: index {index} out of range")
            return v[index]
        if index not in (None, 0):
            raise InterpError(f"field {name} is scalar; got index {index}")
        return v

    def set(self, name: str, value: int, index: Optional[int] = None) -> None:
        cur = self.fields.get(name)
        if isinstance(cur, list):
            if index is None:
                raise InterpError(f"field {name} is an array; index required")
            if not 0 <= index < len(cur):
                raise InterpError(f"field {name}: index {index} out of range")
            cur[index] = value
        else:
            self.fields[name] = value

    def copy(self) -> "KernelMessage":
        return KernelMessage(
            {k: (list(v) if isinstance(v, list) else v) for k, v in self.fields.items()}
        )

    def __repr__(self) -> str:
        return f"KernelMessage({self.fields})"


@dataclass
class ActionOutcome:
    """The forwarding decision a kernel exits with."""

    kind: ActionKind
    target: Optional[int] = None

    def __repr__(self) -> str:
        if self.target is not None:
            return f"{self.kind.value}({self.target})"
        return f"{self.kind.value}()"


class IRInterpreter:
    """Executes a kernel function over a message and a device's global state.

    :meth:`run_kernel` runs each function as Python code lowered from its
    IR on first use (:mod:`repro.ir.executor`), cached per function on this
    instance.  :meth:`interpret_kernel` walks the IR one instruction at a
    time; it is the reference semantics translation validation uses and the
    executor is tested against.
    """

    def __init__(
        self,
        module: Module,
        state: GlobalState,
        *,
        device_id: int = 0,
        rng: Optional[random.Random] = None,
        max_steps: int = 200_000,
    ) -> None:
        self.module = module
        self.state = state
        self.device_id = device_id
        self.rng = rng or random.Random(0)
        self.max_steps = max_steps
        #: lowered code per (function, run as a kernel rather than a callee)
        self._code: dict[tuple[Function, bool], Callable] = {}
        for gv in module.globals.values():
            if gv.placed_at(device_id):
                state.declare(gv)

    # -- executor ---------------------------------------------------------------
    def run_kernel(self, fn: Function, msg: KernelMessage) -> ActionOutcome:
        """Process one message with ``fn``; mutates ``msg`` and global state."""
        return self._run_lowered(fn, True, msg)

    def run_netfn(self, fn: Function, args: Sequence[int]) -> Optional[int]:
        """Call a net function with by-value scalar arguments."""
        _check_netfn_args(fn)
        return self._run_lowered(fn, False, args)

    def _run_lowered(self, fn: Function, as_kernel: bool, arg):
        code = self._code.get((fn, as_kernel))
        if code is None:
            from repro.ir.executor import lower_function

            code = self._code[fn, as_kernel] = lower_function(fn, self, as_kernel=as_kernel)
        try:
            return code(arg)
        except UnboundLocalError as e:
            raise InterpError(f"use of unevaluated value in {fn.name}: {e}") from None

    def callee(self, name: str) -> Function:
        fn = self.module.functions.get(name)
        if fn is None:
            raise InterpError(f"call to unknown function {name}")
        return fn

    # -- reference ------------------------------------------------------------------
    def interpret_kernel(self, fn: Function, msg: KernelMessage) -> ActionOutcome:
        """:meth:`run_kernel`, one IR instruction at a time."""
        env: dict[int, int] = {}
        locals_: dict[int, int | list[int]] = {}
        for arg in fn.args:
            if not arg.byref and not arg.is_array:
                env[id(arg)] = msg.get(arg.name)
        outcome = self._exec(fn, env, locals_, msg)
        if isinstance(outcome, ActionOutcome):
            return outcome
        # Any path without an explicit action has the implicit pass() (§V-A).
        return ActionOutcome(ActionKind.PASS)

    def _interpret_netfn(self, fn: Function, args: Sequence[int]) -> Optional[int]:
        _check_netfn_args(fn)
        env = {id(formal): actual for formal, actual in zip(fn.args, args)}
        result = self._exec(fn, env, {}, KernelMessage({}))
        return result if isinstance(result, int) else None

    def _exec(
        self,
        fn: Function,
        env: dict[int, int],
        locals_: dict[int, int | list[int]],
        msg: KernelMessage,
    ):
        block = fn.entry
        prev_block: Optional[BasicBlock] = None
        steps = 0
        while True:
            next_block: Optional[BasicBlock] = None
            # Phi nodes read their incoming values in parallel.
            phi_updates: list[tuple[Phi, int]] = []
            for inst in block.instructions:
                steps += 1
                if steps > self.max_steps:
                    raise InterpError(f"step limit exceeded in {fn.name}")
                if isinstance(inst, Phi):
                    val = None if prev_block is None else inst.incoming_for(prev_block)
                    if val is None:
                        raise InterpError(
                            f"phi {inst.name} has no incoming value on entry to {block.name}"
                        )
                    phi_updates.append((inst, self._val(val, env)))
                    continue
                if phi_updates:
                    for node, v in phi_updates:
                        env[id(node)] = v
                    phi_updates = []
                result = self._step(inst, env, locals_, msg)
                if isinstance(result, ActionOutcome):
                    return result
                if isinstance(result, _ReturnValue):
                    return result.value
                if isinstance(result, BasicBlock):
                    next_block = result
                    break
            if phi_updates:
                for node, v in phi_updates:
                    env[id(node)] = v
            if next_block is None:
                raise InterpError(f"block {block.name} fell through without terminator")
            prev_block, block = block, next_block

    def _val(self, v: Value, env: dict[int, int]) -> int:
        if isinstance(v, Constant):
            return v.value
        if isinstance(v, Undef):
            return 0  # deterministic choice for undefined locals
        if id(v) in env:
            return env[id(v)]
        raise InterpError(f"use of unevaluated value {v.short()}")

    def _step(self, inst: Instruction, env, locals_, msg):
        val = self._val
        if isinstance(inst, BinOp):
            env[id(inst)] = binop(inst.kind, inst.type, val(inst.a, env), val(inst.b, env))
        elif isinstance(inst, ICmp):
            env[id(inst)] = icmp(inst.pred, inst.a.type, val(inst.a, env), val(inst.b, env))
        elif isinstance(inst, Select):
            c = val(inst.cond, env)
            env[id(inst)] = val(inst.t if c else inst.f, env)
        elif isinstance(inst, Cast):
            env[id(inst)] = cast(inst.kind, inst.value.type, inst.type, val(inst.value, env))
        elif isinstance(inst, Alloca):
            if inst.is_scalar:
                locals_.setdefault(id(inst), 0)
            else:
                locals_.setdefault(id(inst), [0] * inst.shape.num_elements)
        elif isinstance(inst, Load):
            slot = locals_.setdefault(
                id(inst.slot),
                0 if inst.slot.is_scalar else [0] * inst.slot.shape.num_elements,
            )
            if inst.indices:
                flat = self._flat_local(inst.slot, inst.indices, env)
                env[id(inst)] = slot[flat]  # type: ignore[index]
            else:
                env[id(inst)] = slot  # type: ignore[assignment]
        elif isinstance(inst, Store):
            v = val(inst.value, env) & value_mask(inst.slot.elem)
            if inst.indices:
                arr = locals_.setdefault(
                    id(inst.slot), [0] * inst.slot.shape.num_elements
                )
                flat = self._flat_local(inst.slot, inst.indices, env)
                arr[flat] = v  # type: ignore[index]
            else:
                locals_[id(inst.slot)] = v
        elif isinstance(inst, LoadMsg):
            idx = val(inst.index, env) if inst.index is not None else None
            env[id(inst)] = msg.get(inst.field, idx) & value_mask(inst.type)
        elif isinstance(inst, StoreMsg):
            idx = val(inst.index, env) if inst.index is not None else None
            msg.set(inst.field, val(inst.value, env) & value_mask(inst.value.type), idx)
        elif isinstance(inst, LoadGlobal):
            idxs = [val(i, env) for i in inst.indices]
            env[id(inst)] = self.state.read(inst.gv, idxs)
        elif isinstance(inst, StoreGlobal):
            idxs = [val(i, env) for i in inst.indices]
            self.state.write(inst.gv, idxs, val(inst.value, env))
        elif isinstance(inst, AtomicRMW):
            idxs = [val(i, env) for i in inst.indices]
            env[id(inst)] = self.state.atomic(
                inst.gv,
                idxs,
                inst.op,
                val(inst.operand, env) if inst.operand is not None else None,
                cond=val(inst.cond, env) if inst.cond is not None else None,
                compare=val(inst.compare, env) if inst.compare is not None else None,
                return_new=inst.return_new,
                saturating=inst.saturating,
            )
        elif isinstance(inst, Lookup):
            hit, _ = self.state.lookup(inst.gv, val(inst.key, env))
            env[id(inst)] = 1 if hit else 0
        elif isinstance(inst, LookupVal):
            hit, value = self.state.lookup(inst.gv, val(inst.key, env))
            if hit and value is not None:
                env[id(inst)] = value & value_mask(inst.type)
            else:
                env[id(inst)] = val(inst.default, env)
        elif isinstance(inst, Intrinsic):
            env[id(inst)] = intrinsic(
                inst.callee,
                inst.type,
                [a.type for a in inst.args],
                [val(a, env) for a in inst.args],
                device_id=self.device_id,
                rng=self.rng,
            )
        elif isinstance(inst, Call):
            callee = self.callee(inst.callee)
            ret = self._interpret_netfn(callee, [val(a, env) for a in inst.args])
            if ret is not None:
                env[id(inst)] = ret
        elif isinstance(inst, Jmp):
            return inst.target
        elif isinstance(inst, Br):
            return inst.then_ if val(inst.cond, env) else inst.else_
        elif isinstance(inst, Ret):
            if inst.action is not None:
                target = (
                    val(inst.action.target, env)
                    if inst.action.target is not None
                    else None
                )
                return ActionOutcome(inst.action.kind, target)
            if inst.value is not None:
                return _ReturnValue(val(inst.value, env))
            return _ReturnValue(None)
        else:  # pragma: no cover - instruction set exhaustive
            raise InterpError(f"unhandled instruction {inst!r}")
        return None

    def _flat_local(self, slot: Alloca, indices: Sequence[Value], env) -> int:
        flat = 0
        for iv, dim in zip(indices, slot.shape.dims):
            idx = self._val(iv, env)
            if not 0 <= idx < dim:
                raise InterpError(f"local {slot.name}: index {idx} out of [0,{dim})")
            flat = flat * dim + idx
        return flat


def value_mask(ty) -> int:
    """Mask applied when a value of type ``ty`` is stored."""
    return ty.mask if isinstance(ty, IntType) else (1 << 64) - 1


def _check_netfn_args(fn: Function) -> None:
    for formal in fn.args:
        if formal.byref or formal.is_array:
            raise InterpError(
                "direct net-function interpretation supports by-value "
                "scalars only; compile (inline) first"
            )


@dataclass
class _ReturnValue:
    value: Optional[int]
