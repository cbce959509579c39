"""SSA construction: promote scalar local slots to registers.

Standard algorithm: place φ-nodes at the iterated dominance frontier of
each promotable alloca's store blocks, then rename along the dominator
tree.  Array allocas (P4 header stacks) and slots with indexed accesses
are left in place.

All candidates are promoted together, in time linear in the function
size: one scan finds every candidate's defining blocks, one preorder
walk of the dominator tree carries the current value of every slot,
and one final sweep rewrites the uses of the promoted loads.
"""

from __future__ import annotations


from repro.ir.blocks import BasicBlock
from repro.ir.dominators import DominatorTree, reachable_blocks
from repro.ir.instructions import Alloca, Instruction, Load, Phi, Store, Undef, Value
from repro.ir.module import Function


def _promotable(fn: Function) -> list[Alloca]:
    """Scalar allocas whose every use is an unindexed Load or Store."""
    allocas: list[Alloca] = []
    uses_ok: dict[int, bool] = {}
    for inst in fn.instructions():
        if isinstance(inst, Alloca):
            allocas.append(inst)
            uses_ok.setdefault(id(inst), inst.is_scalar)
    for inst in fn.instructions():
        if isinstance(inst, Load):
            if inst.indices:
                uses_ok[id(inst.slot)] = False
        elif isinstance(inst, Store):
            if inst.indices:
                uses_ok[id(inst.slot)] = False
        else:
            for op in inst.operands:
                if isinstance(op, Alloca):
                    uses_ok[id(op)] = False
    return [a for a in allocas if uses_ok.get(id(a), False)]


def mem2reg(fn: Function) -> int:
    """Promote scalar locals to SSA values.  Returns #promoted slots."""
    candidates = _promotable(fn)
    if not candidates:
        return 0
    slot_index = {id(a): i for i, a in enumerate(candidates)}
    reachable = reachable_blocks(fn)
    dt = DominatorTree(fn)

    # 1. Defining blocks of every candidate, in one scan.
    def_blocks: list[list[BasicBlock]] = [[] for _ in candidates]
    for bb in fn.blocks:
        if id(bb) not in reachable:
            continue
        for inst in bb.instructions:
            if isinstance(inst, Store):
                i = slot_index.get(id(inst.slot))
                if i is not None and (not def_blocks[i] or def_blocks[i][-1] is not bb):
                    def_blocks[i].append(bb)

    # 2. φ at the iterated dominance frontier, one alloca after another;
    # each new φ goes to the head of its block, so the last candidate's
    # φ comes first.
    phis = _place_phis(fn, candidates, def_blocks, dt.dominance_frontiers(), reachable)

    # 3. Rename along the dominator tree: one preorder walk carrying the
    # current value of every candidate.  Promoted loads are recorded in
    # ``replacement`` and rewritten in one sweep afterwards.
    children: dict[int, list[BasicBlock]] = {}
    for bb in dt.rpo:
        parent = dt.immediate_dominator(bb)
        if parent is not None:
            children.setdefault(id(parent), []).append(bb)
    replacement: dict[Value, Value] = {}
    promoted: set[int] = {id(a) for a in candidates}
    undefs: list[Value] = [Undef(a.elem, f"{a.name}.undef") for a in candidates]
    stack: list[tuple[BasicBlock, list[Value]]] = [(fn.entry, undefs)]
    while stack:
        bb, incoming = stack.pop()
        current = list(incoming)
        for i, node in phis.get(id(bb), ()):
            current[i] = node
        kept: list[Instruction] = []
        for inst in bb.instructions:
            if isinstance(inst, Load) and id(inst.slot) in promoted:
                replacement[inst] = current[slot_index[id(inst.slot)]]
            elif isinstance(inst, Store) and id(inst.slot) in promoted:
                current[slot_index[id(inst.slot)]] = inst.value
            elif id(inst) not in promoted:
                kept.append(inst)
                continue
            inst.parent = None
        bb.instructions = kept
        for succ in bb.successors():
            for i, node in phis.get(id(succ), ()):
                node.add_incoming(current[i], bb)
        for child in reversed(children.get(id(bb), ())):
            stack.append((child, current))

    # 4. Remove the allocas from blocks the walk did not reach.
    for bb in fn.blocks:
        if id(bb) not in reachable:
            for inst in bb.instructions:
                if id(inst) in promoted:
                    inst.parent = None
            bb.instructions = [i for i in bb.instructions if id(i) not in promoted]

    # 5. Point every use of a promoted load at its final value; a load may
    # stand for another promoted load (``store b, (load a)``).
    if replacement:
        for inst in fn.instructions():
            for old in {op for op in inst.operands if op in replacement}:
                new = replacement[old]
                while new in replacement:
                    new = replacement[new]
                inst.replace_operand(old, new)

    # 6. Drop dead φ nodes (no uses but themselves), to a fixpoint.
    _prune_dead_phis(fn)
    return len(candidates)


def _place_phis(
    fn: Function,
    candidates: list[Alloca],
    def_blocks: list[list[BasicBlock]],
    frontiers: dict[int, set[int]],
    reachable: set[int],
) -> dict[int, list[tuple[int, Phi]]]:
    """Insert each candidate's φ nodes; returns block id -> (slot, φ)."""
    blocks_by_id = {id(bb): bb for bb in fn.blocks}
    phis: dict[int, list[tuple[int, Phi]]] = {}
    for i, alloca in enumerate(candidates):
        phi_blocks: set[int] = set()
        work = [id(b) for b in def_blocks[i]]
        seen = set(work)
        while work:
            b = work.pop()
            for f in frontiers.get(b, ()):
                if f not in phi_blocks and f in reachable:
                    phi_blocks.add(f)
                    if f not in seen:
                        seen.add(f)
                        work.append(f)
        for bid in phi_blocks:
            node = Phi(alloca.elem, name=f"{alloca.name}.phi")
            blocks_by_id[bid].insert(0, node)
            phis.setdefault(bid, []).append((i, node))
    return phis


def _prune_dead_phis(fn: Function) -> None:
    """Remove φ nodes at block heads that nothing else uses, repeatedly.

    Use counts make this one pass plus a worklist: removing a φ only
    decrements the counts of the φ nodes it used.
    """
    uses: dict[int, int] = {}
    head_phis: list[Phi] = []
    for bb in fn.blocks:
        head_phis.extend(bb.phis())
        for inst in bb.instructions:
            for op in inst.operands:
                if isinstance(op, Phi) and op is not inst:
                    uses[id(op)] = uses.get(id(op), 0) + 1
    heads = {id(p) for p in head_phis}
    dead = [p for p in head_phis if not uses.get(id(p))]
    removed: set[int] = set()
    while dead:
        node = dead.pop()
        removed.add(id(node))
        for op in node.operands:
            if isinstance(op, Phi) and op is not node and id(op) not in removed:
                uses[id(op)] -= 1
                if uses[id(op)] == 0 and id(op) in heads:
                    dead.append(op)
    if removed:
        for bb in fn.blocks:
            if any(id(i) in removed for i in bb.instructions):
                for inst in bb.instructions:
                    if id(inst) in removed:
                        inst.parent = None
                bb.instructions = [i for i in bb.instructions if id(i) not in removed]
