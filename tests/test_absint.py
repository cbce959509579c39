"""Value-range abstract interpretation: domain soundness + lint behavior.

The binding contract: the op semantics in :mod:`repro.ir.interp`
(``binop``/``icmp``/``cast``, the one definition both the reference
interpreter and the lowered kernel executor run) are the concrete
semantics, and every abstract transfer must over-approximate them.  The
width-4 sections check that *exhaustively* — every concrete operand pair,
every operator, every compare — against those shared functions, so the
abstract domain can never silently drift from the execution semantics.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.absint import (
    Interval,
    RangeAnalysis,
    binop_range,
    cast_range,
    icmp_range,
)
from repro.ir.instructions import BinOp, BinOpKind, CastKind, ICmpPred
from repro.ir.interp import InterpError, binop, cast, icmp
from repro.ir.types import IntType
from repro.lang import analyze, lower_to_ir, parse_source

U4 = IntType(4)
W4 = 4


def concrete_binop(kind: BinOpKind, a: int, b: int, ty: IntType = U4) -> int:
    """Ground truth: the shared BinOp semantics."""
    return binop(kind, ty, a, b)


def concrete_icmp(pred: ICmpPred, a: int, b: int, ty: IntType = U4) -> int:
    return icmp(pred, ty, a, b)


def concrete_cast(kind: CastKind, v: int, src: IntType, dst: IntType) -> int:
    return cast(kind, src, dst, v)


# -- Interval basics ---------------------------------------------------------------


class TestInterval:
    def test_make_normalizes_against_width(self):
        iv = Interval.make(8, -3, 999)
        assert (iv.lo, iv.hi) == (0, 255)

    def test_bits_prune_hi_and_vice_versa(self):
        # possibly-set bits 0b0011 cap hi at 3
        iv = Interval.make(8, 0, 200, bits=0b11)
        assert iv.hi == 3
        # hi=5 prunes bits above 0b111
        iv = Interval.make(8, 0, 5)
        assert iv.bits == 0b111

    def test_const_uses_unsigned_pattern(self):
        iv = Interval.const(IntType(8, signed=True), -1)
        assert (iv.lo, iv.hi) == (255, 255)

    def test_join_hull(self):
        a = Interval.make(8, 1, 3)
        b = Interval.make(8, 10, 12)
        j = a.join(b)
        assert (j.lo, j.hi) == (1, 12)

    def test_meet_disjoint_is_none(self):
        assert Interval.make(8, 0, 3).meet(Interval.make(8, 9, 12)) is None

    def test_signed_bounds_straddle(self):
        assert Interval.make(8, 0, 255).signed_bounds() == (-128, 127)
        assert Interval.make(8, 200, 250).signed_bounds() == (-56, -6)
        assert Interval.make(8, 0, 100).signed_bounds() == (0, 100)


# -- exhaustive width-4 soundness versus the interpreter ------------------------------

ALL_KINDS = list(BinOpKind)
ALL_PREDS = list(ICmpPred)


def _intervals_containing(v: int) -> list[Interval]:
    """A few interval shapes around one concrete value."""
    return [
        Interval.const(U4, v),
        Interval.make(W4, max(0, v - 1), min(15, v + 2)),
        Interval.top(W4),
    ]


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_binop_abstract_contains_concrete_exhaustive(kind):
    """For every concrete (a, b) pair at width 4 and several abstractions
    of each operand, the interpreter result lies inside the abstract
    result interval."""
    for a in range(16):
        for b in range(16):
            try:
                concrete = concrete_binop(kind, a, b)
            except InterpError:
                continue  # division by zero: no result to contain
            for ia in _intervals_containing(a):
                for ib in _intervals_containing(b):
                    rng, _ = binop_range(kind, ia, ib, U4)
                    assert rng.contains(concrete), (
                        f"{kind.value}({a},{b})={concrete} not in {rng} "
                        f"(operands {ia}, {ib})"
                    )


@pytest.mark.parametrize("pred", ALL_PREDS, ids=lambda p: p.value)
def test_icmp_abstract_contains_concrete_exhaustive(pred):
    for a in range(16):
        for b in range(16):
            concrete = concrete_icmp(pred, a, b)
            for ia in _intervals_containing(a):
                for ib in _intervals_containing(b):
                    rng = icmp_range(pred, ia, ib)
                    assert rng.contains(concrete), (
                        f"icmp {pred.value}({a},{b})={concrete} not in {rng}"
                    )


@pytest.mark.parametrize("kind", list(CastKind), ids=lambda k: k.value)
def test_cast_abstract_contains_concrete_exhaustive(kind):
    if kind == CastKind.BITCAST:
        pairs = [(U4, IntType(4, signed=True))]
    elif kind == CastKind.TRUNC:
        pairs = [(IntType(8), U4)]
    else:
        pairs = [(U4, IntType(8)), (IntType(4, signed=True), IntType(8, signed=True))]
    for src, dst in pairs:
        for v in range(1 << src.width):
            concrete = concrete_cast(kind, v, src, dst)
            for iv in (
                Interval.const(IntType(src.width), v),
                Interval.make(src.width, max(0, v - 1), min(src.mask, v + 1)),
                Interval.top(src.width),
            ):
                rng = cast_range(kind, iv, dst)
                assert rng.contains(concrete), (
                    f"{kind.value} {src}->{dst} of {v} = {concrete} not in {rng}"
                )


def test_binop_random_interval_pairs_sound():
    """Random (non-degenerate) interval pairs at width 4: every concrete
    pair drawn from them must land inside the abstract result."""
    rng = random.Random(7)
    for _ in range(120):
        kind = rng.choice(ALL_KINDS)
        a_lo = rng.randrange(16)
        a_hi = rng.randrange(a_lo, 16)
        b_lo = rng.randrange(16)
        b_hi = rng.randrange(b_lo, 16)
        ia = Interval.make(W4, a_lo, a_hi)
        ib = Interval.make(W4, b_lo, b_hi)
        out, _ = binop_range(kind, ia, ib, U4)
        for a in range(a_lo, a_hi + 1):
            for b in range(b_lo, b_hi + 1):
                try:
                    concrete = concrete_binop(kind, a, b)
                except InterpError:
                    continue
                assert out.contains(concrete), (
                    f"{kind.value} [{a_lo},{a_hi}]x[{b_lo},{b_hi}]: "
                    f"{kind.value}({a},{b})={concrete} not in {out}"
                )


# -- pinned op edge-case semantics ---------------------------------------------------


class TestInterpEdgeSemantics:
    """The golden concrete reference the abstract domain is built on."""

    @pytest.mark.parametrize(
        "kind", [BinOpKind.UDIV, BinOpKind.SDIV, BinOpKind.UREM, BinOpKind.SREM]
    )
    def test_division_by_zero_traps(self, kind):
        with pytest.raises(InterpError):
            concrete_binop(kind, 5, 0, IntType(32))

    @pytest.mark.parametrize("width", [1, 4, 8, 16, 32, 64])
    def test_unsigned_wrap_at_each_width(self, width):
        ty = IntType(width)
        assert concrete_binop(BinOpKind.ADD, ty.mask, 1, ty) == 0
        assert concrete_binop(BinOpKind.SUB, 0, 1, ty) == ty.mask
        if width >= 2:
            # (2^w - 1)^2 mod 2^w == 1
            assert concrete_binop(BinOpKind.MUL, ty.mask, ty.mask, ty) == 1

    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    def test_signed_wrap_at_each_width(self, width):
        ty = IntType(width, signed=True)
        int_min = 1 << (width - 1)  # bit pattern of INT_MIN
        int_max = int_min - 1  # bit pattern of INT_MAX
        # INT_MAX + 1 wraps to INT_MIN
        assert concrete_binop(BinOpKind.ADD, int_max, 1, ty) == int_min
        # INT_MIN - 1 wraps to INT_MAX
        assert concrete_binop(BinOpKind.SUB, int_min, 1, ty) == int_max

    @pytest.mark.parametrize("width", [4, 8, 32])
    def test_shift_past_width(self, width):
        ty = IntType(width)
        # shl/lshr by >= width yield 0; ashr clamps to width-1
        assert concrete_binop(BinOpKind.SHL, 3, width, ty) == 0
        assert concrete_binop(BinOpKind.SHL, 3, width + 5, ty) == 0
        assert concrete_binop(BinOpKind.LSHR, ty.mask, width, ty) == 0
        top_bit = 1 << (width - 1)
        signed_ty = IntType(width, signed=True)
        assert concrete_binop(BinOpKind.ASHR, top_bit, width + 9, signed_ty) == ty.mask
        assert concrete_binop(BinOpKind.ASHR, top_bit, width + 9, ty) == 1

    def test_saturating_ops_clamp(self):
        ty = IntType(8)
        assert concrete_binop(BinOpKind.SADDU, 200, 100, ty) == 255
        assert concrete_binop(BinOpKind.SSUBU, 100, 200, ty) == 0

    def test_signed_icmp_reinterprets_bit_pattern(self):
        # 0xFF compared signed is -1 even when the declared type is unsigned
        assert concrete_icmp(ICmpPred.SLT, 0xFF, 0, IntType(8)) == 1
        assert concrete_icmp(ICmpPred.ULT, 0xFF, 0, IntType(8)) == 0

    def test_sdiv_truncates_toward_zero(self):
        ty = IntType(8, signed=True)
        # -7 / 2 == -3 (trunc), bit pattern of -3 is 0xFD
        assert concrete_binop(BinOpKind.SDIV, ty.to_unsigned(-7), 2, ty) == 0xFD
        # -7 % 2 == -1 (sign follows dividend), pattern 0xFF
        assert concrete_binop(BinOpKind.SREM, ty.to_unsigned(-7), 2, ty) == 0xFF


# -- whole-function analysis -----------------------------------------------------------


def _lower(src: str):
    return lower_to_ir(analyze(parse_source(src)))


class TestRangeAnalysis:
    def test_branch_refinement_bounds_then_block(self):
        mod = _lower(
            """
            _kernel(1) void k(unsigned x, unsigned &out) {
              unsigned y = x & 0xff;
              if (y < 10) { out = y * 3; }
              else { out = 0; }
            }
            """
        )
        fn = mod.kernels()[0]
        ra = RangeAnalysis(fn).run()
        muls = [
            i
            for bb in fn.blocks
            for i in bb.instructions
            if isinstance(i, BinOp) and i.kind == BinOpKind.MUL
        ]
        assert len(muls) == 1
        rng = ra.result_range[id(muls[0])]
        assert (rng.lo, rng.hi) == (0, 27)

    def test_must_wrap_detected(self):
        mod = _lower(
            """
            _kernel(1) void k(uint8_t &y) {
              uint8_t a = 200;
              uint8_t b = 100;
              y = a + b;
            }
            """
        )
        fn = mod.kernels()[0]
        ra = RangeAnalysis(fn).run()
        assert BinOpKind.ADD in ra.must_wrap.values()

    def test_known_bits_prove_divisor_nonzero(self):
        mod = _lower(
            """
            _kernel(1) void k(unsigned x, unsigned d, unsigned &y) {
              y = x / (d | 1);
            }
            """
        )
        fn = mod.kernels()[0]
        ra = RangeAnalysis(fn).run()
        assert not ra.zero_divisors

    def test_unguarded_divisor_flagged(self):
        mod = _lower(
            """
            _kernel(1) void k(unsigned x, unsigned d, unsigned &y) {
              y = x / d;
            }
            """
        )
        fn = mod.kernels()[0]
        ra = RangeAnalysis(fn).run()
        assert len(ra.zero_divisors) == 1

    def test_branch_verdict_always_true(self):
        mod = _lower(
            """
            _kernel(1) void k(uint32_t &x, uint32_t &y) {
              if (x >= 0) { y = 1; }
            }
            """
        )
        fn = mod.kernels()[0]
        ra = RangeAnalysis(fn).run()
        assert True in ra.branch_verdicts.values()

    def test_analysis_is_read_only(self):
        mod = _lower(
            """
            _kernel(1) void k(unsigned a, unsigned b, unsigned &r) {
              unsigned t = a * b;
              if (t > 10) { r = t - 1; }
            }
            """
        )
        fn = mod.kernels()[0]
        before = mod.dump()
        RangeAnalysis(fn).run()
        assert mod.dump() == before
