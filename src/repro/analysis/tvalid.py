"""Translation validation: prove each middle-end pass behavior-preserving.

The NetCL pipeline has no formal semantics to diff symbolically, but it
has something almost as good: :meth:`repro.ir.interp.IRInterpreter.interpret_kernel`
is the executable reference semantics, and kernels are finite, loop-free
message processors.  So the harness validates *behavior*, not syntax:

1. Before the pipeline touches a kernel, capture its behavior — run the
   interpreter over a deterministic set of input vectors (boundary
   values mined from the value-range abstract domain, plus seeded
   random vectors) against one shared :class:`GlobalState`, recording
   per vector the forwarding outcome, every message field, and a full
   memory snapshot.
2. After every pass, capture again and compare to the pre-pipeline
   reference.  The first differing vector is a concrete counterexample,
   and the pass that produced it is named in the raised
   :class:`TranslationValidationError`.

Trap semantics are *refinement*, not equality: the optimizer is allowed
to delete a division whose result is unused, so a run that traps in the
reference constrains only the vectors before it (the optimized kernel
may trap later or never).  Introducing an *earlier* trap is a bug and
is reported.

Kernels containing ``ncl.rand`` are skipped: if-conversion legitimately
changes how many draws execute, so their behavior is not a function of
the input vector alone.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.absint import RangeAnalysis
from repro.ir.instructions import Constant, ICmp, Intrinsic
from repro.ir.interp import GlobalState, InterpError, IRInterpreter, KernelMessage
from repro.ir.module import Function, Module
from repro.ir.types import IntType

#: vectors beyond the mined boundary set
DEFAULT_RANDOM_VECTORS = 12
#: hard cap so pathological functions don't explode the suite
MAX_VECTORS = 48


class TranslationValidationError(Exception):
    """A pass changed observable kernel behavior.

    Carries everything needed to reproduce: the offending pass, the
    kernel, the concrete counterexample input vector, and a description
    of the first observed difference.
    """

    def __init__(
        self,
        pass_name: str,
        function: str,
        vector_index: int,
        vector: Dict[str, object],
        detail: str,
    ) -> None:
        self.pass_name = pass_name
        self.function = function
        self.vector_index = vector_index
        self.vector = vector
        self.detail = detail
        super().__init__(
            f"pass '{pass_name}' miscompiles kernel '{function}': "
            f"{detail} (counterexample vector #{vector_index}: {vector})"
        )

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "pass": self.pass_name,
            "function": self.function,
            "vector_index": self.vector_index,
            "vector": self.vector,
            "detail": self.detail,
        }


# -- input vector generation -----------------------------------------------------


def _mined_values(fn: Function) -> List[int]:
    """Interesting concrete values: abstract-domain boundaries of every
    computed range, comparison constants, and their off-by-ones.

    These target exactly the points where branch behavior flips, which
    random vectors alone would miss with high probability on 32-bit
    fields.
    """
    ra = RangeAnalysis(fn).run()
    vals = {0, 1}
    for rng in ra.result_range.values():
        vals.update((rng.lo, rng.hi, rng.lo - 1, rng.hi + 1, rng.bits))
    for inst in fn.instructions():
        if isinstance(inst, ICmp):
            for op in (inst.a, inst.b):
                if isinstance(op, Constant) and isinstance(op.type, IntType):
                    u = op.type.to_unsigned(op.value)
                    vals.update((u, u - 1, u + 1))
    return sorted(v for v in vals if v >= 0)


def generate_vectors(
    fn: Function,
    *,
    n_random: int = DEFAULT_RANDOM_VECTORS,
    seed: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Deterministic input vectors for ``fn``: one per mined boundary
    value (each field cycled through nearby boundaries) plus ``n_random``
    seeded-random vectors.  The seed derives from the kernel *name* (not
    ``hash()``, which is salted per process) so reruns reproduce."""
    import random

    if seed is None:
        seed = zlib.crc32(fn.name.encode())
    rng = random.Random(seed)
    mined = _mined_values(fn)

    scalar_args = [a for a in fn.args if not a.is_array]
    array_args = [a for a in fn.args if a.is_array]

    def clip(value: int, ty: IntType) -> int:
        return value & ty.mask

    vectors: List[Dict[str, object]] = []

    # Boundary sweep: vector i assigns field j the (i+j)-th mined value,
    # staggering so co-varying fields still hit asymmetric combinations.
    n_boundary = min(len(mined), MAX_VECTORS - n_random)
    for i in range(n_boundary):
        vec: Dict[str, object] = {}
        for j, arg in enumerate(scalar_args):
            assert isinstance(arg.type, IntType)
            vec[arg.name] = clip(mined[(i + j) % len(mined)], arg.type)
        for arg in array_args:
            assert isinstance(arg.type, IntType)
            vec[arg.name] = [
                clip(mined[(i + k) % len(mined)], arg.type) for k in range(arg.spec)
            ]
        vectors.append(vec)

    for _ in range(n_random):
        vec = {}
        for arg in scalar_args:
            assert isinstance(arg.type, IntType)
            vec[arg.name] = rng.randrange(0, arg.type.mask + 1)
        for arg in array_args:
            assert isinstance(arg.type, IntType)
            vec[arg.name] = [
                rng.randrange(0, arg.type.mask + 1) for _ in range(arg.spec)
            ]
        vectors.append(vec)
    return vectors


# -- behavior capture --------------------------------------------------------------


@dataclass
class BehaviorCapture:
    """Observable behavior of one kernel over a vector sequence.

    ``runs[i]`` is ``(outcome kind, outcome target, message fields,
    memory snapshot)`` after processing vector ``i``; ``trap_index`` is
    the vector on which the interpreter raised (runs stop there).
    """

    runs: List[Tuple[str, Optional[int], Dict[str, object], dict]] = field(
        default_factory=list
    )
    trap_index: Optional[int] = None


def _uses_rand(fn: Function) -> bool:
    return any(
        isinstance(i, Intrinsic) and i.callee == "ncl.rand" for i in fn.instructions()
    )


def capture_behavior(
    module: Module,
    fn: Function,
    vectors: List[Dict[str, object]],
    *,
    device_id: int = 1,
) -> BehaviorCapture:
    """Run ``fn`` over ``vectors`` against one fresh shared state, on the
    reference interpreter (not the lowered executor devices run)."""
    state = GlobalState()
    interp = IRInterpreter(module, state, device_id=device_id)
    cap = BehaviorCapture()
    for i, vec in enumerate(vectors):
        msg = KernelMessage(
            {k: (list(v) if isinstance(v, list) else v) for k, v in vec.items()}
        )
        try:
            outcome = interp.interpret_kernel(fn, msg)
        except InterpError:
            cap.trap_index = i
            break
        cap.runs.append(
            (
                outcome.kind.value,
                outcome.target,
                {
                    k: (list(v) if isinstance(v, list) else v)
                    for k, v in msg.fields.items()
                },
                state.snapshot(),
            )
        )
    return cap


def _diff_captures(ref: BehaviorCapture, cur: BehaviorCapture) -> Optional[Tuple[int, str]]:
    """First observable divergence, or None when ``cur`` refines ``ref``."""
    n = min(len(ref.runs), len(cur.runs))
    for i in range(n):
        r, c = ref.runs[i], cur.runs[i]
        if r[0] != c[0] or r[1] != c[1]:
            return i, (
                f"forwarding action diverged: reference "
                f"{r[0]}({r[1]}) vs optimized {c[0]}({c[1]})"
            )
        if r[2] != c[2]:
            fields = sorted(k for k in r[2] if r[2][k] != c[2].get(k))
            return i, (
                f"message fields diverged: {', '.join(fields)} "
                f"(reference {[r[2][k] for k in fields]} vs "
                f"optimized {[c[2].get(k) for k in fields]})"
            )
        if r[3] != c[3]:
            return i, "global memory diverged"
    # Trap refinement: the optimized kernel may drop a reference trap
    # (DCE of an unused trapping op) but must never introduce an earlier one.
    if cur.trap_index is not None and (
        ref.trap_index is None or cur.trap_index < ref.trap_index
    ):
        return cur.trap_index, "optimized kernel traps where the reference did not"
    return None


# -- the validator ------------------------------------------------------------------


class PassValidator:
    """Differential-execution oracle the :class:`PassManager` consults.

    One validator spans a pipeline run.  :meth:`prepare` fixes the input
    vectors and reference behavior from the *pre-pipeline* IR; every
    :meth:`check` re-executes the (possibly rewritten) kernel and
    compares against that reference, so blame lands on the first pass
    whose output diverges.  Equivalence is transitive: comparing every
    pass against the original is both cheaper and sharper than
    neighbor-to-neighbor comparison.
    """

    def __init__(
        self,
        module: Module,
        *,
        device_id: Optional[int] = None,
        n_random: int = DEFAULT_RANDOM_VECTORS,
    ) -> None:
        self.module = module
        self.device_id = device_id if device_id is not None else 1
        self.n_random = n_random
        self._vectors: Dict[str, List[Dict[str, object]]] = {}
        self._reference: Dict[str, BehaviorCapture] = {}
        self._skipped: Dict[str, str] = {}
        #: (pass name, function, vectors compared) per successful check
        self.checks: List[Tuple[str, str, int]] = []

    # -- reference -------------------------------------------------------------
    def prepare(self, fn: Function) -> None:
        """Record the reference behavior of ``fn`` (pre-pipeline IR)."""
        if fn.name in self._reference or fn.name in self._skipped:
            return
        if _uses_rand(fn):
            self._skipped[fn.name] = (
                "uses ncl.rand (draw count is not input-deterministic)"
            )
            return
        vectors = generate_vectors(fn, n_random=self.n_random)
        self._vectors[fn.name] = vectors
        self._reference[fn.name] = capture_behavior(
            self.module, fn, vectors, device_id=self.device_id
        )

    # -- per-pass check ----------------------------------------------------------
    def check(self, pass_name: str, fn: Function) -> None:
        """Compare ``fn``'s current behavior to its reference; raise
        :class:`TranslationValidationError` on the first divergence."""
        if fn.name in self._skipped:
            return
        ref = self._reference.get(fn.name)
        if ref is None:
            return
        vectors = self._vectors[fn.name]
        cur = capture_behavior(self.module, fn, vectors, device_id=self.device_id)
        diff = _diff_captures(ref, cur)
        if diff is not None:
            index, detail = diff
            raise TranslationValidationError(
                pass_name, fn.name, index, vectors[index], detail
            )
        self.checks.append((pass_name, fn.name, min(len(ref.runs), len(cur.runs))))

    def check_all(self, pass_name: str, functions: List[Function]) -> None:
        """Validate every prepared kernel (after module-wide passes)."""
        for fn in functions:
            self.check(pass_name, fn)

    # -- reporting ---------------------------------------------------------------
    def report(self) -> Dict[str, object]:
        return {
            "device_id": self.device_id,
            "kernels": sorted(self._reference),
            "skipped": dict(sorted(self._skipped.items())),
            "vectors": {k: len(v) for k, v in sorted(self._vectors.items())},
            "checks": [
                {"pass": p, "function": f, "vectors_compared": n}
                for p, f, n in self.checks
            ],
        }
