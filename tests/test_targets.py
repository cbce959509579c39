"""Target-specific behavior: TNA vs v1model (§V-D, §VI-B).

The paper's approach: stay unrestricted at the language level and reject
programs per target.  The v1model software switch executes any valid P4,
so programs that violate Tofino's stateful-memory rules still compile for
v1model — and everything that compiles behaves identically on both.
"""

import pytest

from repro.core import compile_netcl
from repro.ir import GlobalState, IRInterpreter, KernelMessage
from repro.passes import PassOptions
from repro.passes.memcheck import MemoryCheckError
from repro.tofino.allocator import FitError
from tests.conftest import FIG4_CACHE

DOUBLE_ACCESS = (
    "_net_ int m[42];\n"
    "_kernel(1) void a(int x, int &r) { r = m[0] + m[1]; }"
)


class TestPerTargetRejection:
    def test_tofino_rejects_double_access(self):
        with pytest.raises(MemoryCheckError):
            compile_netcl(DOUBLE_ACCESS, 1, target="tna")

    def test_v1model_accepts_double_access(self):
        cp = compile_netcl(DOUBLE_ACCESS, 1, target="v1model")
        assert cp.report is not None
        # and it runs
        mod = cp.module
        fn = cp.kernels()[0]
        state = GlobalState()
        interp = IRInterpreter(mod, state)
        state.write(mod.globals["m"], [0], 30)
        state.write(mod.globals["m"], [1], 12)
        msg = KernelMessage({"x": 0, "r": 0})
        interp.run_kernel(fn, msg)
        assert msg.fields["r"] == 42

    def test_v1model_skips_memory_partitioning(self):
        cp = compile_netcl(FIG4_CACHE, 1, target="v1model")
        assert "cms.part0" not in cp.module.globals
        cp_tna = compile_netcl(FIG4_CACHE, 1, target="tna")
        assert "cms.part0" in cp_tna.module.globals

    def test_shared_options_are_not_mutated_by_target(self):
        opts = PassOptions(speculation=False)
        cp_tna = compile_netcl(FIG4_CACHE, 1, target="tna", options=opts)
        cp_v1 = compile_netcl(FIG4_CACHE, 1, target="v1model", options=opts)
        assert (cp_tna.options.target, cp_v1.options.target) == ("tna", "v1model")
        assert opts.target == "tna"
        assert not cp_tna.options.speculation and not cp_v1.options.speculation

    def test_same_behavior_across_targets(self):
        for target in ("tna", "v1model"):
            cp = compile_netcl(FIG4_CACHE, 1, target=target)
            interp = IRInterpreter(cp.module, GlobalState(), device_id=1)
            msg = KernelMessage({"op": 1, "k": 4, "v": 0, "hit": 0, "hot": 0})
            out = interp.run_kernel(cp.kernels()[0], msg)
            assert msg.fields["v"] == 42 and out.kind.value == "reflect", target

    def test_huge_program_fits_v1model_only(self):
        # 64 registers of dependent accesses: far beyond 12 Tofino stages.
        body = "\n".join(
            f"  s = ncl::atomic_add_new(&m{i}, s & 0xff);" for i in range(64)
        )
        decls = "\n".join(f"_net_ unsigned m{i};" for i in range(64))
        src = f"{decls}\n_kernel(1) void k(unsigned &s) {{\n{body}\n}}"
        with pytest.raises(FitError):
            compile_netcl(src, 1, target="tna")
        cp = compile_netcl(src, 1, target="v1model")
        assert cp.report is not None

    def test_v1model_end_to_end_cluster(self):
        from repro.apps.cache import GET_REQ, build_cache_cluster

        cluster = build_cache_cluster(target="v1model")
        cluster.server.store[3] = list(range(16))
        cluster.controller.install(3, list(range(16)))
        cluster.client.query(GET_REQ, 3)
        cluster.network.sim.run()
        assert cluster.client.completed[0].served_by_cache
