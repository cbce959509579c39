"""Kernel executor: each IR function lowered once to straight-line Python.

:meth:`IRInterpreter.run_kernel` is the device hot path: every message a
device computes on runs its kernel.  Walking the IR per instruction
re-decides each opcode, operand and memory layout on every packet, so the
executor resolves all of that once, on the first execution of a function,
and emits the source of one Python function that ``compile()`` turns into
code:

* SSA values and local slots become Python locals;
* constants, masks and widths become literals, and a mask is dropped
  where the operand is already known to fit;
* every block becomes a guarded ``if`` in topological order (a loop over
  the blocks only for cyclic or oversized CFGs), and phis become parallel
  assignments on the CFG edges into their block;
* message field names become string literals, and array fields are
  fetched once per run;
* each global's base storage, dims and partition prefix are resolved to
  the storage object and a flat-index expression.

The operator semantics are not restated here: the text of every operator
comes from the builders in :mod:`repro.ir.interp` (``binop_expr``, ...)
that the reference interpreter evaluates too.  Every check of
:meth:`IRInterpreter.interpret_kernel` stays, with the same error type:
index bounds, message field shapes (through the same
:class:`KernelMessage` methods), division by zero, unknown callees and
intrinsics, missing phi inputs, fall-through blocks, the step limit and
use of an unevaluated value (an unbound local, which
:meth:`IRInterpreter.run_kernel` reports as :class:`InterpError`).
"""

from __future__ import annotations

import re
from typing import Callable, Optional, Sequence

from repro.ir.blocks import BasicBlock
from repro.ir.instructions import (
    ActionKind,
    Alloca,
    AtomicOp,
    AtomicRMW,
    BinOp,
    Br,
    Call,
    Cast,
    CastKind,
    Constant,
    ICmp,
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
    Terminator,
    Undef,
    Value,
)
from repro.ir.interp import (
    OP_NAMESPACE,
    ActionOutcome,
    InterpError,
    KernelMessage,
    atomic_rmw_expr,
    binop_expr,
    cast_expr,
    icmp_expr,
    intrinsic_expr,
    table_lookup,
    value_mask,
)
from repro.ir.module import Function

#: instructions whose result the reference keeps in its value environment
_VALUE_INSTS = (
    BinOp, ICmp, Select, Cast, Load, LoadMsg, LoadGlobal, AtomicRMW,
    Lookup, LookupVal, Intrinsic, Call, Phi,
)


def _oob(name: str, idx: int, dim: int):
    raise InterpError(f"{name}: index {idx} out of range [0,{dim})")


def _local_oob(name: str, idx: int, dim: int):
    raise InterpError(f"local {name}: index {idx} out of [0,{dim})")


_HELPERS = {
    **OP_NAMESPACE,
    "_oob": _oob,
    "_local_oob": _local_oob,
    "_lookup": table_lookup,
    "_Outcome": ActionOutcome,
    "_KernelMessage": KernelMessage,
    **{f"_A_{kind.name}": kind for kind in ActionKind},
}


def lower_function(fn: Function, interp, *, as_kernel: bool) -> Callable:
    """Python code running ``fn`` against ``interp``'s state.

    As a kernel the code takes a :class:`KernelMessage` and returns an
    :class:`ActionOutcome`; as a net function it takes the argument
    values and returns an int or None.
    """
    lowering = _Lowering(fn, interp, as_kernel)
    source = lowering.source()
    namespace = dict(_HELPERS, **lowering.bindings)
    exec(compile(source, f"<lowered {fn.name}>", "exec"), namespace)  # noqa: S102
    return namespace["_run"]


def _executed(bb: BasicBlock) -> tuple[list[Instruction], Optional[Terminator]]:
    """The instructions the reference executes in ``bb``: everything up to
    and including the first terminator."""
    for i, inst in enumerate(bb.instructions):
        if isinstance(inst, Terminator):
            return bb.instructions[: i + 1], inst
    return list(bb.instructions), None


def _successors(term: Optional[Terminator]) -> tuple[BasicBlock, ...]:
    if isinstance(term, Jmp):
        return (term.target,)
    if isinstance(term, Br):
        return (term.then_, term.else_)
    return ()


class _Lowering:
    """Builds the source of one function (see the module docstring)."""

    def __init__(self, fn: Function, interp, as_kernel: bool) -> None:
        self.fn = fn
        self.state = interp.state
        self.max_steps = interp.max_steps
        self.as_kernel = as_kernel
        self.bindings: dict[str, object] = {
            "_device_id": interp.device_id,
            "_rng": interp.rng,
            "_state": interp.state,
            "_callee": interp.callee,
            "_run_netfn": interp.run_netfn,
        }
        self._bound: dict[int, str] = {}
        self._readers: dict[int, str] = {}
        self.lines: list[str] = []
        self.depth = 0
        #: local name of every value the reference keeps in its environment
        self.names: dict[int, str] = {}
        #: values known to lie in [0, 2**width): id -> width
        self.known: dict[int, int] = {}
        self.slots: dict[int, tuple[str, Alloca]] = {}
        #: slots accessed both with and without indices: initialized lazily
        self.mixed_slots: set[int] = set()
        #: message fields accessed with an index -> local holding the list
        self.array_fields: dict[str, str] = {}

        self.body: dict[int, list[Instruction]] = {}
        self.term: dict[int, Optional[Terminator]] = {}
        reachable = self._reachable()
        order = self._topological_order()
        steps = sum(len(self.body[id(bb)]) for bb in reachable)
        # Without a cycle each block runs at most once, so a function no
        # longer than the step limit can never reach it.
        self.cyclic = order is None or steps > self.max_steps
        self.blocks = reachable if order is None else order
        self.index = {id(bb): i for i, bb in enumerate(self.blocks)}
        self.lead_phis: dict[int, list[Phi]] = {}
        for bb in self.blocks:
            lead = []
            for inst in self.body[id(bb)]:
                if not isinstance(inst, Phi):
                    break
                lead.append(inst)
            self.lead_phis[id(bb)] = lead
        #: whether some phi follows another instruction in its block and so
        #: must pick its input by the predecessor at run time
        self.track_pred = any(
            isinstance(inst, Phi)
            for bb in self.blocks
            for inst in self.body[id(bb)][len(self.lead_phis[id(bb)]):]
        )
        self._collect()

    # -- analysis ----------------------------------------------------------------
    def _reachable(self) -> list[BasicBlock]:
        blocks = [self.fn.entry]
        seen = {id(self.fn.entry)}
        for bb in blocks:
            self.body[id(bb)], self.term[id(bb)] = _executed(bb)
            for succ in _successors(self.term[id(bb)]):
                if id(succ) not in seen:
                    seen.add(id(succ))
                    blocks.append(succ)
        return blocks

    def _topological_order(self) -> Optional[list[BasicBlock]]:
        """Reverse postorder from the entry, or None if the CFG has a cycle."""
        entry = self.fn.entry
        state = {id(entry): 1}  # 1 = on the DFS stack, 2 = finished
        post: list[BasicBlock] = []
        stack = [(entry, iter(_successors(self.term[id(entry)])))]
        while stack:
            bb, succs = stack[-1]
            for succ in succs:
                s = state.get(id(succ))
                if s == 1:
                    return None
                if s is None:
                    state[id(succ)] = 1
                    stack.append((succ, iter(_successors(self.term[id(succ)]))))
                    break
            else:
                stack.pop()
                state[id(bb)] = 2
                post.append(bb)
        return post[::-1]

    def _collect(self) -> None:
        for i, arg in enumerate(self.fn.args):
            if not self.as_kernel or (not arg.byref and not arg.is_array):
                self.names[id(arg)] = f"a{i}"
        for bb in self.blocks:
            for inst in self.body[id(bb)]:
                if isinstance(inst, _VALUE_INSTS):
                    self.names[id(inst)] = f"v{len(self.names)}"
                if isinstance(inst, (Alloca, Load, Store)):
                    slot = inst if isinstance(inst, Alloca) else inst.slot
                    if id(slot) not in self.slots:
                        self.slots[id(slot)] = (f"s{len(self.slots)}", slot)
                    if not isinstance(inst, Alloca) and bool(inst.indices) == slot.is_scalar:
                        self.mixed_slots.add(id(slot))
                if isinstance(inst, (LoadMsg, StoreMsg)) and inst.index is not None:
                    self.array_fields.setdefault(inst.field, f"f{len(self.array_fields)}")

    # -- emission helpers ------------------------------------------------------------
    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def bind(self, obj: object) -> str:
        """A global name for ``obj`` in the generated code's namespace."""
        name = self._bound.get(id(obj))
        if name is None:
            name = self._bound[id(obj)] = f"_b{len(self._bound)}"
            self.bindings[name] = obj
        return name

    def reader(self, cells) -> str:
        """A global name for ``cells.item``: one register cell as an int."""
        name = self._readers.get(id(cells))
        if name is None:
            name = self._readers[id(cells)] = self.bind(cells.item)
        return name

    def raw(self, v: Value) -> str:
        """Source of ``v``'s value exactly as the reference holds it."""
        if isinstance(v, Constant):
            return repr(v.value) if v.value >= 0 else f"({v.value})"
        if isinstance(v, Undef):
            return "0"  # deterministic choice for undefined locals
        name = self.names.get(id(v))
        if name is None:
            return f"_fail({f'use of unevaluated value {v.short()}'!r})"
        return name

    def width_of(self, v: Value) -> Optional[int]:
        if isinstance(v, Constant):
            return v.value.bit_length() if v.value >= 0 else None
        if isinstance(v, Undef):
            return 0
        return self.known.get(id(v))

    def masked(self, v: Value, mask: int) -> str:
        """Source of ``v``'s value masked with ``mask`` (all ones)."""
        if isinstance(v, Constant):
            return str(v.value & mask)
        width = self.width_of(v)
        if width is not None and (1 << width) - 1 <= mask:
            return self.raw(v)
        return f"({self.raw(v)} & {mask})"

    def define(self, inst: Value, expr: str, width: Optional[int] = None) -> None:
        self.emit(f"{self.names[id(inst)]} = {expr}")
        if width is not None:
            self.known[id(inst)] = width

    def touch(self, *values: Optional[Value]) -> None:
        """Read values the reference evaluates but the code does not use, so
        an unevaluated one still raises."""
        for v in values:
            if v is not None and id(v) in self.names:
                self.emit(self.names[id(v)])

    def flat_index(self, parts: Sequence, dims: Sequence[int], oob: str, name: str) -> Optional[str]:
        """Emit the bounds checks of ``parts`` (ints or values) in order and
        return their row-major flat index, or None after emitting the raise
        of a constant index out of range."""
        strides = [1] * len(dims)
        for i in range(len(dims) - 2, -1, -1):
            strides[i] = strides[i + 1] * dims[i + 1]
        offset = 0
        terms: list[str] = []
        for part, dim, stride in zip(parts, dims, strides):
            if isinstance(part, Undef):
                part = 0
            elif isinstance(part, Constant):
                part = part.value
            if isinstance(part, int):
                if not 0 <= part < dim:
                    self.emit(f"{oob}({name!r}, {part}, {dim})")
                    return None
                offset += part * stride
                continue
            src = self.raw(part)
            width = self.width_of(part)
            if width is None:
                self.emit(f"if not 0 <= {src} < {dim}: {oob}({name!r}, {src}, {dim})")
            elif (1 << width) > dim:
                self.emit(f"if {src} >= {dim}: {oob}({name!r}, {src}, {dim})")
            terms.append(src if stride == 1 else f"{src} * {stride}")
        if offset or not terms:
            terms.append(str(offset))
        return " + ".join(terms)

    # -- top level ------------------------------------------------------------------
    def source(self) -> str:
        fn = self.fn
        if self.as_kernel:
            self.emit("def _run(msg):")
            self.depth = 1
            self.emit("fields = msg.fields")
            for i, arg in enumerate(fn.args):
                if id(arg) in self.names:
                    self.emit(f"a{i} = fields[{arg.name!r}]")
                    self.emit(f"if a{i}.__class__ is not int: a{i} = msg.get({arg.name!r})")
        else:
            self.emit("def _run(args):")
            self.depth = 1
            self.emit("msg = _KernelMessage({})")
            self.emit("fields = msg.fields")
            for i in range(len(fn.args)):
                self.emit(f"if len(args) > {i}: a{i} = args[{i}]")
        # Every value is a local even where its definition is never emitted,
        # so reading it unevaluated is an UnboundLocalError.
        values = [n for n in self.names.values() if n.startswith("v")]
        if values:
            self.emit(f"if False: {' = '.join(values)} = None")
        for field, name in self.array_fields.items():
            self.emit(f"{name} = fields.get({field!r})")
            self.emit(f"n{name} = len({name}) if {name}.__class__ is list else -1")
        for slot_id, (name, slot) in self.slots.items():
            if slot_id in self.mixed_slots:
                init = "None"
            elif slot.is_scalar:
                init = "0"
            else:
                init = f"[0] * {slot.shape.num_elements}"
            self.emit(f"{name} = {init}")
        if self.track_pred:
            self.emit("p = -1")
        entry = fn.entry
        if self.lead_phis[id(entry)]:
            # Nothing precedes the first entry, so its phis have no input.
            self.emit(self._phi_missing(self.lead_phis[id(entry)][0], entry))
        if self.cyclic:
            self.emit(f"b = {self.index[id(entry)]}")
            self.emit("steps = 0")
            self.emit("while True:")
            self.depth += 1
        for bb in self.blocks:
            guarded = self.cyclic or bb is not entry
            if guarded:
                self.emit(f"if b == {self.index[id(bb)]}:")
                self.depth += 1
            self._block(bb)
            if guarded:
                self.depth -= 1
        return "\n".join(self.lines) + "\n"

    def _phi_missing(self, phi: Phi, bb: BasicBlock) -> str:
        return f"_fail({f'phi {phi.name} has no incoming value on entry to {bb.name}'!r})"

    def _count_steps(self, n: int) -> None:
        if self.cyclic and n:
            self.emit(f"steps += {n}")
            self.emit(f"if steps > {self.max_steps}: _fail({f'step limit exceeded in {self.fn.name}'!r})")

    # -- blocks -----------------------------------------------------------------------
    def _block(self, bb: BasicBlock) -> None:
        body = self.body[id(bb)]
        lead = self.lead_phis[id(bb)]
        self._count_steps(len(lead))
        group: list[Phi] = []
        for inst in body[len(lead):]:
            if isinstance(inst, Phi):
                self._count_steps(1)
                group.append(inst)
                continue
            if group:
                self._phi_group(bb, group)
                group = []
            self._count_steps(1)
            if isinstance(inst, Terminator):
                self._terminator(bb, inst)
                return
            try:
                self._instruction(inst)
            except Exception as exc:  # malformed IR: fail when reached, as the reference does
                self.emit(f"raise {self.bind(exc)}")
        if group:
            self._phi_group(bb, group)
        self.emit(f"_fail({f'block {bb.name} fell through without terminator'!r})")

    def _phi_group(self, bb: BasicBlock, group: list[Phi]) -> None:
        """Phis after other instructions: pick inputs by predecessor."""
        preds = [p for p in self.blocks if bb in _successors(self.term[id(p)])]
        keyword = "if"
        for pred in preds:
            moves = self._moves(pred, group, bb)
            self.emit(f"{keyword} p == {self.index[id(pred)]}: {moves}")
            keyword = "elif"
        missing = self._phi_missing(group[0], bb)
        self.emit(f"else: {missing}" if preds else missing)
        for phi in group:
            self._note_phi(phi)

    def _moves(self, pred: BasicBlock, phis: list[Phi], succ: BasicBlock) -> str:
        """Parallel assignment of ``phis``' inputs on the edge from ``pred``."""
        srcs = []
        for phi in phis:
            v = phi.incoming_for(pred)
            if v is None:
                return self._phi_missing(phi, succ)
            srcs.append(self.raw(v))
        return f"{', '.join(self.names[id(p)] for p in phis)} = {', '.join(srcs)}"

    def _note_phi(self, phi: Phi) -> None:
        widths = [self.width_of(v) for v, _ in phi.incoming]
        if widths and None not in widths:
            self.known[id(phi)] = max(widths)

    def _jump(self, bb: BasicBlock, succ: BasicBlock) -> list[str]:
        """Statements that move control from ``bb`` to ``succ``."""
        out = []
        if self.lead_phis[id(succ)]:
            out.append(self._moves(bb, self.lead_phis[id(succ)], succ))
        if self.track_pred:
            out.append(f"p = {self.index[id(bb)]}")
        out.append(f"b = {self.index[id(succ)]}")
        if self.cyclic:
            out.append("continue")
        return out

    def _terminator(self, bb: BasicBlock, term: Terminator) -> None:
        if isinstance(term, Jmp):
            for line in self._jump(bb, term.target):
                self.emit(line)
        elif isinstance(term, Br):
            cond = self.raw(term.cond)
            then_, else_ = self._jump(bb, term.then_), self._jump(bb, term.else_)
            if len(then_) == len(else_) == 1:
                t, e = self.index[id(term.then_)], self.index[id(term.else_)]
                self.emit(f"b = {t} if {cond} else {e}")
                return
            self.emit(f"if {cond}:")
            for line in then_:
                self.emit("    " + line)
            self.emit("else:")
            for line in else_:
                self.emit("    " + line)
        elif isinstance(term, Ret):
            self._ret(term)
        else:  # pragma: no cover - terminator set exhaustive
            raise InterpError(f"unhandled terminator {term!r}")

    def _ret(self, term: Ret) -> None:
        action = term.action
        if action is not None:
            target = self.raw(action.target) if action.target is not None else "None"
            if self.as_kernel:
                self.emit(f"return _Outcome(_A_{action.kind.name}, {target})")
            else:
                self.touch(action.target)
                self.emit("return None")
            return
        if self.as_kernel:
            # Any path without an explicit action has the implicit pass() (§V-A).
            self.touch(term.value)
            self.emit("return _Outcome(_A_PASS)")
        elif term.value is not None:
            value = self.raw(term.value)
            self.emit(f"return {value} if isinstance({value}, int) else None")
        else:
            self.emit("return None")

    # -- instructions -------------------------------------------------------------------
    def _instruction(self, inst: Instruction) -> None:
        if isinstance(inst, BinOp):
            ty = inst.type
            expr = binop_expr(inst.kind, ty, self.masked(inst.a, ty.mask), self.masked(inst.b, ty.mask))
            self.define(inst, expr, ty.width)
        elif isinstance(inst, ICmp):
            ty = inst.a.type
            expr = icmp_expr(inst.pred, ty, self.masked(inst.a, ty.mask), self.masked(inst.b, ty.mask))
            self.define(inst, expr, 1)
        elif isinstance(inst, Select):
            wt, wf = self.width_of(inst.t), self.width_of(inst.f)
            width = None if wt is None or wf is None else max(wt, wf)
            self.define(
                inst,
                f"{self.raw(inst.t)} if {self.raw(inst.cond)} else {self.raw(inst.f)}",
                width,
            )
        elif isinstance(inst, Cast):
            src, dst = inst.value.type, inst.type
            expr = cast_expr(inst.kind, src, dst, self.masked(inst.value, src.mask))
            self.define(inst, expr, src.width if inst.kind == CastKind.ZEXT else dst.width)
        elif isinstance(inst, Alloca):
            if id(inst) in self.mixed_slots:
                name, _ = self.slots[id(inst)]
                init = "0" if inst.is_scalar else f"[0] * {inst.shape.num_elements}"
                self.emit(f"if {name} is None: {name} = {init}")
        elif isinstance(inst, Load):
            self._load(inst)
        elif isinstance(inst, Store):
            self._store(inst)
        elif isinstance(inst, LoadMsg):
            self._load_msg(inst)
        elif isinstance(inst, StoreMsg):
            self._store_msg(inst)
        elif isinstance(inst, (LoadGlobal, StoreGlobal, AtomicRMW)):
            self._register_access(inst)
        elif isinstance(inst, (Lookup, LookupVal)):
            self._lookup(inst)
        elif isinstance(inst, Intrinsic):
            args = [self.raw(a) for a in inst.args]
            expr = intrinsic_expr(inst.callee, inst.type, [a.type for a in inst.args], args)
            self.touch(*(a for a, src in zip(inst.args, args) if not re.search(rf"\b{src}\b", expr)))
            self.define(inst, expr)
        elif isinstance(inst, Call):
            args = ", ".join(self.raw(a) for a in inst.args)
            self.emit(f"t = _run_netfn(_callee({inst.callee!r}), [{args}])")
            self.emit(f"if t is not None: {self.names[id(inst)]} = t")
        else:  # pragma: no cover - instruction set exhaustive
            raise InterpError(f"unhandled instruction {inst!r}")

    # -- thread-local memory -------------------------------------------------------------
    def _local_flat(self, inst: Load | Store) -> Optional[str]:
        slot = inst.slot
        k = min(len(inst.indices), len(slot.shape.dims))
        return self.flat_index(inst.indices[:k], slot.shape.dims[:k], "_local_oob", slot.name)

    def _load(self, inst: Load) -> None:
        name, slot = self.slots[id(inst.slot)]
        mixed = id(slot) in self.mixed_slots
        if mixed:
            init = "0" if slot.is_scalar else f"[0] * {slot.shape.num_elements}"
            self.emit(f"if {name} is None: {name} = {init}")
        if not inst.indices:
            self.define(inst, name, None if mixed else slot.elem.width)
            return
        flat = self._local_flat(inst)
        if flat is not None:
            self.define(inst, f"{name}[{flat}]", None if mixed else slot.elem.width)

    def _store(self, inst: Store) -> None:
        name, slot = self.slots[id(inst.slot)]
        value = self.masked(inst.value, value_mask(slot.elem))
        if not inst.indices:
            self.emit(f"{name} = {value}")
            return
        self.emit(f"t = {value}")
        if id(slot) in self.mixed_slots:
            self.emit(f"if {name} is None: {name} = [0] * {slot.shape.num_elements}")
        flat = self._local_flat(inst)
        if flat is not None:
            self.emit(f"{name}[{flat}] = t")

    # -- message fields -------------------------------------------------------------------
    def _load_msg(self, inst: LoadMsg) -> None:
        mask = value_mask(inst.type)
        field = inst.field
        if inst.index is None:
            self.emit(f"t = fields[{field!r}]")
            self.define(
                inst,
                f"(t if t.__class__ is int else msg.get({field!r})) & {mask}",
                mask.bit_length(),
            )
            return
        arr = self.array_fields[field]
        idx, bound = self._field_index(inst.index, arr)
        self.define(
            inst,
            f"({arr}[{idx}] if {bound} else msg.get({field!r}, {idx})) & {mask}",
            mask.bit_length(),
        )

    def _store_msg(self, inst: StoreMsg) -> None:
        field = inst.field
        if inst.index is None:
            self.emit(f"t = {self.masked(inst.value, value_mask(inst.value.type))}")
            self.emit(f"u = fields.get({field!r})")
            self.emit(f"if u.__class__ is int or u is None: fields[{field!r}] = t")
            self.emit(f"else: msg.set({field!r}, t)")
            return
        arr = self.array_fields[field]
        idx, bound = self._field_index(inst.index, arr)
        self.emit(f"t = {self.masked(inst.value, value_mask(inst.value.type))}")
        self.emit(f"if {bound}: {arr}[{idx}] = t")
        self.emit(f"else: msg.set({field!r}, t, {idx})")

    def _field_index(self, index: Value, arr: str) -> tuple[str, str]:
        """Source of an array field index and of the test that it is in range
        of the list fetched at entry (-1 elements when it was no list)."""
        idx = self.raw(index)
        if isinstance(index, Constant) and index.value < 0:
            return idx, "False"
        if isinstance(index, (Constant, Undef)) or self.width_of(index) is not None:
            return idx, f"{idx} < n{arr}"
        return idx, f"0 <= {idx} < n{arr}"

    # -- global memory ----------------------------------------------------------------------
    def _register_access(self, inst: LoadGlobal | StoreGlobal | AtomicRMW) -> None:
        resolved = self.state.resolve(inst.gv)
        if resolved is None or resolved[0].space.is_lookup:
            self._register_access_via_state(inst)
            return
        meta, prefix, cells = resolved
        parts = [*prefix, *inst.indices]
        dims = meta.shape.dims
        mask = meta.elem.mask
        if len(parts) != len(dims):
            self.touch(*inst.indices)
            self.emit(
                f"_fail({f'{meta.name}: expected {len(dims)} indices, got {len(parts)}'!r})"
            )
            return
        if isinstance(inst, StoreGlobal):
            flat = self.flat_index(parts, dims, "_oob", meta.name)
            if flat is not None:
                self.emit(f"{self.bind(cells)}[{flat}] = {self.masked(inst.value, mask)}")
            return
        read = self.reader(cells)
        flat = self.flat_index(parts, dims, "_oob", meta.name)
        if flat is None:
            return
        if isinstance(inst, LoadGlobal):
            self.define(inst, f"{read}({flat})", meta.elem.width)
            return
        op = inst.op
        out = self.names[id(inst)]
        self.emit(f"t = {flat}")
        self.emit(f"o = {read}(t)")
        if op == AtomicOp.READ:
            self.touch(inst.operand, inst.cond, inst.compare)
            self.emit(f"{out} = o")
        elif op == AtomicOp.CAS:
            self.touch(inst.cond)
            if inst.compare is None:
                self.emit("_fail('CAS requires a compare operand')")
                return
            new = "0" if inst.operand is None else self.masked(inst.operand, mask)
            self.emit(f"if o == {self.masked(inst.compare, mask)}: {self.bind(cells)}[t] = {new}")
            self.emit(f"{out} = o")
        elif inst.operand is None:
            self.touch(inst.cond, inst.compare)
            self.emit(f"_fail({f'atomic {op.value} requires an operand'!r})")
            return
        else:
            self.touch(inst.compare)
            store = self.bind(cells)
            new = atomic_rmw_expr(op, inst.saturating, mask, "o", self.masked(inst.operand, mask))
            result = "n" if inst.return_new else "o"
            self.emit(f"n = {new}")
            if inst.cond is None:
                self.emit(f"{store}[t] = n")
                self.emit(f"{out} = {result}")
            else:
                self.emit(f"if {self.raw(inst.cond)} == 0: {out} = o")
                self.emit("else:")
                self.emit(f"    {store}[t] = n")
                self.emit(f"    {out} = {result}")
        self.known[id(inst)] = meta.elem.width

    def _register_access_via_state(self, inst: LoadGlobal | StoreGlobal | AtomicRMW) -> None:
        """Through :class:`GlobalState`'s methods, for a global whose base is
        not declared yet (the first access declares it) or is a table."""
        gv = self.bind(inst.gv)
        idxs = f"[{', '.join(self.raw(i) for i in inst.indices)}]"
        if isinstance(inst, LoadGlobal):
            self.define(inst, f"_state.read({gv}, {idxs})")
        elif isinstance(inst, StoreGlobal):
            self.emit(f"_state.write({gv}, {idxs}, {self.raw(inst.value)})")
        else:
            extra = [
                self.raw(v) if v is not None else "None"
                for v in (inst.operand, inst.cond, inst.compare)
            ]
            self.define(
                inst,
                f"_state.atomic({gv}, {idxs}, {self.bind(inst.op)}, {extra[0]}, "
                f"cond={extra[1]}, compare={extra[2]}, "
                f"return_new={inst.return_new}, saturating={inst.saturating})",
            )

    def _lookup(self, inst: Lookup | LookupVal) -> None:
        key = self.raw(inst.key)
        resolved = self.state.resolve(inst.gv)
        if resolved is not None and resolved[0].space.is_lookup:
            self.emit(f"t = _lookup({self.bind(resolved[2])}, {key})")
            hit, value = "t is not None", "t.value"
        else:
            self.emit(f"h, t = _state.lookup({self.bind(inst.gv)}, {key})")
            hit, value = "h", "t"
        if isinstance(inst, Lookup):
            self.define(inst, f"1 if {hit} else 0", 1)
            return
        mask = value_mask(inst.type)
        default = self.raw(inst.default)
        width = self.width_of(inst.default)
        self.define(
            inst,
            f"{value} & {mask} if {hit} and {value} is not None else {default}",
            None if width is None else max(width, mask.bit_length()),
        )
