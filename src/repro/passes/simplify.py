"""Constant folding, peephole simplification, and CFG cleanup.

These mirror the paper's "set of peephole optimization, and instruction
simplification" passes (§VI-B): beyond shrinking code, they matter because
Tofino ALUs are restricted to simple arithmetic — folding away multiplies
and strength-reducing them to shifts is what makes programs compilable at
all (§V-D allows arbitrary ``*``/``/`` only when convertible to shifts).
"""

from __future__ import annotations

from typing import Optional

from repro.ir.blocks import BasicBlock
from repro.ir.dominators import reachable_blocks
from repro.ir.instructions import (
    BinOp,
    BinOpKind,
    Br,
    Cast,
    Constant,
    ICmp,
    ICmpPred,
    Instruction,
    Jmp,
    Phi,
    Select,
    Value,
)
from repro.ir.interp import InterpError, binop, cast, icmp
from repro.ir.module import Function
from repro.ir.types import IntType


def _as_const(v: Value) -> Optional[int]:
    return v.value if isinstance(v, Constant) else None


def fold_constants(fn: Function) -> int:
    """Evaluate instructions with all-constant operands.  Returns #folds."""
    folds = 0
    changed = True
    while changed:
        changed = False
        for bb in fn.blocks:
            for inst in list(bb.instructions):
                replacement = _fold_one(inst)
                if replacement is not None:
                    _rauw(fn, inst, replacement)
                    bb.remove(inst)
                    folds += 1
                    changed = True
    return folds


def _fold_one(inst: Instruction) -> Optional[Value]:
    if isinstance(inst, BinOp):
        a, b = _as_const(inst.a), _as_const(inst.b)
        ty = inst.type
        assert isinstance(ty, IntType)
        if a is not None and b is not None:
            try:
                return Constant(ty, binop(inst.kind, ty, a, b))
            except InterpError:  # division by zero: left to trap at run time
                pass
        return _simplify_binop(inst)
    if isinstance(inst, ICmp):
        a, b = _as_const(inst.a), _as_const(inst.b)
        if a is not None and b is not None:
            ty = inst.a.type
            assert isinstance(ty, IntType)
            return Constant(inst.type, icmp(inst.pred, ty, a, b))  # type: ignore[arg-type]
        if inst.a is inst.b:
            if inst.pred in (ICmpPred.EQ, ICmpPred.ULE, ICmpPred.UGE, ICmpPred.SLE, ICmpPred.SGE):
                return Constant(inst.type, 1)  # type: ignore[arg-type]
            if inst.pred in (ICmpPred.NE, ICmpPred.ULT, ICmpPred.UGT, ICmpPred.SLT, ICmpPred.SGT):
                return Constant(inst.type, 0)  # type: ignore[arg-type]
        return None
    if isinstance(inst, Select):
        c = _as_const(inst.cond)
        if c is not None:
            return inst.t if c else inst.f
        if inst.t is inst.f:
            return inst.t
        return None
    if isinstance(inst, Cast):
        v = _as_const(inst.value)
        ty = inst.type
        assert isinstance(ty, IntType)
        if v is not None:
            src = inst.value.type
            assert isinstance(src, IntType)
            return Constant(ty, cast(inst.kind, src, ty, v))
        if isinstance(inst.value.type, IntType) and inst.value.type == ty:
            return inst.value
        return None
    if isinstance(inst, Phi):
        vals = {id(v) for v, _ in inst.incoming}
        if len(vals) == 1:
            only = inst.incoming[0][0]
            if only is not inst:
                return only
        non_self = [v for v, _ in inst.incoming if v is not inst]
        if non_self and all(v is non_self[0] for v in non_self):
            return non_self[0]
        return None
    return None


def _simplify_binop(inst: BinOp) -> Optional[Value]:
    """Algebraic identities and strength reduction (mul/div -> shifts)."""
    a, b = inst.a, inst.b
    ca, cb = _as_const(a), _as_const(b)
    ty = inst.type
    assert isinstance(ty, IntType)
    k = inst.kind
    # Canonicalize constants to the right for commutative ops.
    if ca is not None and cb is None and k.commutative:
        inst.a, inst.b = b, a
        a, b = inst.a, inst.b
        ca, cb = cb, ca
    if cb == 0:
        if k in (BinOpKind.ADD, BinOpKind.SUB, BinOpKind.OR, BinOpKind.XOR,
                 BinOpKind.SHL, BinOpKind.LSHR, BinOpKind.ASHR,
                 BinOpKind.SADDU, BinOpKind.SSUBU):
            return a
        if k in (BinOpKind.MUL, BinOpKind.AND):
            return Constant(ty, 0)
    if cb == 1:
        if k == BinOpKind.MUL:
            return a
        if k in (BinOpKind.UDIV, BinOpKind.SDIV):
            return a
    if cb == ty.mask and k == BinOpKind.AND:
        return a
    if a is b:
        if k == BinOpKind.XOR or k == BinOpKind.SUB:
            return Constant(ty, 0)
        if k in (BinOpKind.AND, BinOpKind.OR):
            return a
    # Strength reduction: *2^n -> shl, /2^n -> lshr, %2^n -> and.
    if cb is not None and cb > 1 and (cb & (cb - 1)) == 0:
        sh = cb.bit_length() - 1
        if k == BinOpKind.MUL:
            inst.kind = BinOpKind.SHL
            inst.b = Constant(ty, sh)
            return None
        if k == BinOpKind.UDIV:
            inst.kind = BinOpKind.LSHR
            inst.b = Constant(ty, sh)
            return None
        if k == BinOpKind.UREM:
            inst.kind = BinOpKind.AND
            inst.b = Constant(ty, cb - 1)
            return None
    return None


def _rauw(fn: Function, old: Value, new: Value) -> None:
    for inst in fn.instructions():
        if old in inst.operands:
            inst.replace_operand(old, new)


def simplify_cfg(fn: Function) -> int:
    """Fold constant branches, merge straight-line blocks, drop dead blocks."""
    changes = 0
    changed = True
    while changed:
        changed = False
        # Fold constant conditional branches.
        for bb in fn.blocks:
            term = bb.terminator
            if isinstance(term, Br):
                c = _as_const(term.cond)
                if c is not None:
                    taken = term.then_ if c else term.else_
                    not_taken = term.else_ if c else term.then_
                    _remove_phi_edge(not_taken, bb)
                    bb.remove(term)
                    bb.append(Jmp(taken))
                    changes += 1
                    changed = True
                elif term.then_ is term.else_:
                    bb.remove(term)
                    bb.append(Jmp(term.then_))
                    changes += 1
                    changed = True
        # Remove unreachable blocks.
        reachable = reachable_blocks(fn)
        for bb in list(fn.blocks):
            if id(bb) not in reachable:
                for succ in bb.successors():
                    _remove_phi_edge(succ, bb)
                fn.remove_block(bb)
                changes += 1
                changed = True
        # Merge a block into its unique predecessor when that predecessor
        # jumps straight to it.
        for bb in list(fn.blocks):
            if bb is fn.entry:
                continue
            preds = bb.predecessors()
            if len(preds) != 1:
                continue
            pred = preds[0]
            term = pred.terminator
            if not isinstance(term, Jmp) or term.target is not bb:
                continue
            if any(True for _ in bb.phis()):
                # Single-predecessor φs are trivial; inline them first.
                for node in list(bb.phis()):
                    val = node.incoming_for(pred)
                    if val is None:
                        break
                    _rauw(fn, node, val)
                    bb.remove(node)
                if any(True for _ in bb.phis()):
                    continue
            pred.remove(term)
            for inst in list(bb.instructions):
                bb.remove(inst)
                inst.parent = pred
                pred.instructions.append(inst)
            for succ in pred.successors():
                for node in succ.phis():
                    node.replace_incoming_block(bb, pred)
            fn.remove_block(bb)
            changes += 1
            changed = True
    return changes


def _remove_phi_edge(bb: BasicBlock, pred: BasicBlock) -> None:
    for node in bb.phis():
        node.incoming = [(v, b) for v, b in node.incoming if b is not pred]


def simplify_function(fn: Function) -> int:
    """Run fold + CFG cleanup to a fixpoint.  Returns total #changes."""
    total = 0
    while True:
        n = fold_constants(fn) + simplify_cfg(fn)
        total += n
        if n == 0:
            return total
