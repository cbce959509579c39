"""Compiler driver: source in, compiled program out (§III workflow, step 1).

The timing split mirrors Table IV: ``ncc_seconds`` covers everything our
compiler does (frontend, middle-end, code generation), while
``fitter_seconds`` covers the stand-in for Intel's bf-p4c (stage fitting,
PHV allocation, latency extraction), which in the paper dominates at over
98% of total compile time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.diagnostics import DiagnosticEngine

from repro.backends.common import CodegenResult
from repro.backends.tna import TnaBackend
from repro.backends.v1model import V1ModelBackend
from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.lang.lower import lower_to_ir
from repro.lang.parser import parse_source
from repro.lang.sema import analyze
from repro.passes.manager import PassManager, PassOptions
from repro.telemetry.profile import NULL_PROFILER, Profiler
from repro.tofino.chip import ChipSpec, TOFINO_1, V1MODEL


@dataclass
class CompileTimings:
    frontend_seconds: float = 0.0
    passes_seconds: float = 0.0
    codegen_seconds: float = 0.0
    fitter_seconds: float = 0.0

    @property
    def ncc_seconds(self) -> float:
        return self.frontend_seconds + self.passes_seconds + self.codegen_seconds

    @property
    def total_seconds(self) -> float:
        return self.ncc_seconds + self.fitter_seconds


@dataclass
class CompiledProgram:
    """The result of compiling one NetCL program for one device."""

    source: str
    device_id: Optional[int]
    target: str
    module: Module
    codegen: CodegenResult
    timings: CompileTimings
    options: PassOptions
    #: the telemetry profiler this compile reported into (``ncc --profile``);
    #: the shared disabled instance unless the caller passed one.
    profile: Profiler = NULL_PROFILER
    #: the diagnostics engine of the opt-in analysis phase (``ncc --lint``);
    #: None unless ``compile_netcl(..., lint=True)`` was requested.
    diagnostics: Optional["DiagnosticEngine"] = None

    @property
    def p4_source(self) -> str:
        return self.codegen.p4_source

    @property
    def report(self):
        return self.codegen.report

    def kernels(self):
        return self.codegen.kernels


def compile_netcl(
    source: str,
    device_id: Optional[int] = None,
    *,
    target: str = "tna",
    options: Optional[PassOptions] = None,
    chip: Optional[ChipSpec] = None,
    defines: Optional[dict[str, int]] = None,
    fit: bool = True,
    include_base_program: bool = True,
    program_name: str = "netcl",
    profiler: Optional[Profiler] = None,
    lint: bool = False,
    diagnostics: Optional["DiagnosticEngine"] = None,
) -> CompiledProgram:
    """Compile NetCL source text for one device.

    Pass an enabled :class:`~repro.telemetry.Profiler` to record phase
    and per-pass spans (``ncc --profile``); by default profiling is the
    shared disabled instance and costs nothing beyond the phase timers.

    With ``lint=True`` an opt-in static-analysis phase runs on the
    freshly-lowered IR (before the optimizer mutates it), collecting
    warnings into ``diagnostics`` (a fresh engine is created when none is
    given); the result is attached as ``CompiledProgram.diagnostics``.
    Analysis never aborts the compile — check the engine's ``exit_code``.

    Raises :class:`repro.lang.errors.CompileError` on language violations,
    :class:`repro.passes.memcheck.MemoryCheckError` on Tofino memory
    constraint violations, and :class:`repro.tofino.allocator.FitError`
    when the program does not fit the pipeline.
    """
    opts = replace(options, target=target) if options else PassOptions(target=target)
    prof = profiler or NULL_PROFILER
    timings = CompileTimings()

    t0 = time.perf_counter()
    with prof.span("frontend", category="phase", program=program_name):
        program = parse_source(source, defines)
        sema = analyze(program)
        module = lower_to_ir(sema, name=program_name)
        verify_module(module)
    timings.frontend_seconds = time.perf_counter() - t0

    engine = diagnostics
    if lint or engine is not None:
        from repro.analysis import DiagnosticEngine, run_lints

        engine = engine or DiagnosticEngine(source_name=program_name)
        with prof.span("analysis", category="phase", program=program_name):
            run_lints(module, engine, chip or (TOFINO_1 if target == "tna" else V1MODEL))

    t0 = time.perf_counter()
    with prof.span("passes", category="phase"):
        pm = PassManager(opts, profiler=prof)
        pm.run_pipeline(module, device_id)
    timings.passes_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    with prof.span("codegen", category="phase", target=target):
        if target == "tna":
            backend = TnaBackend(chip or TOFINO_1)
        elif target == "v1model":
            backend = V1ModelBackend(chip or V1MODEL)
        else:
            raise ValueError(f"unknown target {target!r} (expected 'tna' or 'v1model')")
        # Code generation proper (structurize + P4 text) is ncc work; fitting
        # is the downstream P4 compiler's.
        result = backend.compile(
            module,
            device_id,
            fit=False,
            include_base_program=include_base_program,
            program_name=program_name,
        )
    timings.codegen_seconds = time.perf_counter() - t0

    if fit:
        t0 = time.perf_counter()
        with prof.span("fitter", category="phase"):
            from repro.tofino.report import build_report

            local_fields = [
                getattr(s, "p4_local_bits", 0) for s in result.kernel_stats.values()
            ]
            result.report = build_report(
                result.spec, backend.chip, local_fields=local_fields
            )
        timings.fitter_seconds = time.perf_counter() - t0

    return CompiledProgram(
        source=source,
        device_id=device_id,
        target=target,
        module=module,
        codegen=result,
        timings=timings,
        options=opts,
        profile=prof,
        diagnostics=engine,
    )


def compile_netcl_file(
    path: str | Path, device_id: Optional[int] = None, **kwargs
) -> CompiledProgram:
    """Compile a ``.ncl`` source file (see :mod:`repro.apps` for the
    paper's applications)."""
    text = Path(path).read_text()
    kwargs.setdefault("program_name", Path(path).stem)
    return compile_netcl(text, device_id, **kwargs)
