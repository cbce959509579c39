"""Run a collective as a :mod:`repro.service` tenant.

The standalone :mod:`repro.collective.tree` owns its whole fabric; here
the same aggregation tree is expressed as an *abstract* topology (root
device 1, one leaf per rack) and submitted to a long-lived
:class:`~repro.service.INCService`, which places it into whatever
headroom other tenants left, enforces the tenant's QoS, and live-migrates
the slices off crashed switches.  The collective's slot streams ride the
service's ReliableChannels, so a migration is absorbed the same way a
standby failover is: the control plane retargets the channels and the
``on_migrate`` hook restarts every in-flight round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.collective.job import CollectiveJob, CollectiveWorker, OPS
from repro.collective.protocol import require_all_done, rewind_slots
from repro.collective.tree import COLL_MCAST_GROUP, compile_role
from repro.netsim import HOST
from repro.runtime import KernelSpec
from repro.service import INCService, Tenant, TenantQoS

#: abstract device ids the collective program is written against.
ABSTRACT_ROOT = 1


def abstract_leaf(rack: int) -> int:
    """The abstract device id of rack ``rack``'s leaf."""
    return 2 + rack


@dataclass
class CollectiveTenant:
    """One admitted collective tenant: its workers and job lifecycle."""

    service: INCService
    tenant_id: str
    tenant: Tenant
    workers: list[CollectiveWorker]
    spec_reduce: KernelSpec
    spec_exp: KernelSpec
    num_racks: int
    workers_per_rack: int
    jobs_run: int = 0
    _started: bool = field(default=False, repr=False)

    @property
    def num_workers(self) -> int:
        return self.num_racks * self.workers_per_rack

    def submit_job(
        self,
        op: str,
        tensors: list[list[float]],
        *,
        name: str = "job",
        root: int = 0,
    ) -> CollectiveJob:
        """Set up one collective over per-rank ``tensors``; run() drives it."""
        if op not in OPS:
            raise ValueError(f"unknown collective op {op!r} (want one of {OPS})")
        if len(tensors) != self.num_workers:
            raise ValueError(
                f"{len(tensors)} tensors for {self.num_workers} workers"
            )
        if self.jobs_run > 0:
            # Between-job epoch bump: wipe the slices' slot state so the
            # previous job's final rounds don't alias as in-progress.
            for dev in self.tenant.devices.values():
                dev.reset_state()
        self.jobs_run += 1
        num_elements = (
            len(tensors[root])
            if op != "allgather"
            else sum(len(t) for t in tensors)
        )
        job = CollectiveJob(
            name=name,
            op=op,
            num_elements=num_elements,
            root=root,
            num_workers=self.num_workers,
        )
        for w in self.workers:
            w.start_job(job, tensors[w.rank])
        self._started = False
        return job

    def run(self, until_ms: float = 200.0, *, require_done: bool = False) -> None:
        """Drive the service's simulation (relative horizon; see
        :meth:`repro.collective.tree.CollectiveCluster.run`)."""
        if not self._started:
            for w in self.workers:
                w.start()
            self._started = True
        sim = self.service.network.sim
        sim.run(until_ns=sim.now_ns + int(until_ms * 1e6))
        if require_done:
            self.require_done()

    @property
    def all_done(self) -> bool:
        return all(w.done for w in self.workers)

    def require_done(self) -> None:
        require_all_done(self.workers, what="rank", label="chunk")

    def stall_report(self) -> list[str]:
        out = []
        for w in self.workers:
            r = w.stall_report()
            if r is not None:
                out.append(f"rank {w.rank}: {r}")
        return out

    # -- migration ----------------------------------------------------------------
    def resync(self) -> None:
        """Restart every in-flight round (migration lost the slot state).

        A migrated leaf lost its rack partials; a migrated root lost the
        cross-rack totals.  The control plane doesn't say which slice
        moved, so every stream restarts each slot at the earliest round
        any worker still has in flight there — spurious re-contributions
        land on completed slots and are answered by re-multicast, which
        the hosts reject by round tag.
        """
        rewind_slots([w.exp for w in self.workers if w.exp])
        rewind_slots([w.reduce for w in self.workers if w.reduce])


def submit_collective_tenant(
    service: INCService,
    tenant_id: str,
    hosts: list[int],
    *,
    num_racks: int = 2,
    qos: Optional[TenantQoS] = None,
    window: int = 8,
    exp_group: int = 4,
    timeout_ns: int = 400_000,
    stagger_ns: int = 25_000,
    target: str = "tna",
) -> CollectiveTenant:
    """Admit a collective tenant onto ``service``'s shared fabric.

    ``hosts`` are the worker hosts in rank order, split evenly into
    ``num_racks`` racks; rack ``r``'s workers attach to abstract leaf
    ``2 + r``.  Raises :class:`~repro.service.AdmissionError` if the
    fabric has no headroom for the tree.
    """
    if len(hosts) % num_racks != 0:
        raise ValueError(f"{len(hosts)} hosts do not split into {num_racks} racks")
    workers_per_rack = len(hosts) // num_racks
    from repro.deploy.planner import AbstractTopology

    topo = AbstractTopology()
    compiled: dict[int, object] = {}

    def compile_at(abstract_id: int, rack: Optional[int]):
        prog = compile_role(
            abstract_id,
            rack=rack,
            num_racks=num_racks,
            workers_per_rack=workers_per_rack,
            root_device=ABSTRACT_ROOT,
            mcast_group=COLL_MCAST_GROUP,
            target=target,
        )
        compiled[abstract_id] = prog
        topo.add_device(abstract_id, prog)
        return prog

    compile_at(ABSTRACT_ROOT, None)
    for rack in range(num_racks):
        compile_at(abstract_leaf(rack), rack)
        topo.connect_devices(abstract_leaf(rack), ABSTRACT_ROOT)
    for rank, h in enumerate(hosts):
        topo.attach_host(h, abstract_leaf(rank // workers_per_rack))
    topo.add_multicast_group(COLL_MCAST_GROUP, [HOST(h) for h in hosts])

    ct: Optional[CollectiveTenant] = None

    def on_migrate(service: INCService, tenant: Tenant) -> None:
        if ct is not None:
            ct.resync()

    # The slot protocol assumes per-sender FIFO delivery.
    qos = qos or TenantQoS(ordered=True)
    tenant = service.submit(tenant_id, topo, qos, on_migrate=on_migrate)

    leaf_kernels = {
        k.computation: k for k in compiled[abstract_leaf(0)].kernels()
    }
    spec_reduce = KernelSpec.from_kernel(leaf_kernels[1])
    spec_exp = KernelSpec.from_kernel(leaf_kernels[2])

    from repro.reliability import ReliableChannel

    net = service.network
    workers: list[CollectiveWorker] = []
    for rank, h in enumerate(hosts):
        rack = rank // workers_per_rack
        leaf_abstract = abstract_leaf(rack)
        gid = tenant.abstract_to_gid[leaf_abstract]
        worker = CollectiveWorker(
            net,
            h,
            rank,
            rack,
            spec_reduce,
            spec_exp,
            device_id=gid,
            window=window,
            timeout_ns=timeout_ns,
            stagger_ns=stagger_ns,
            exp_group=exp_group,
        )
        # ack=False for the same reason as the standalone tree: the slot
        # protocol completes through the reflected result.
        worker.channel = ReliableChannel(
            net, worker.host, spec_reduce, target_device=gid, ack=False
        )
        service.register_channel(tenant_id, leaf_abstract, worker.channel)
        workers.append(worker)

    ct = CollectiveTenant(
        service=service,
        tenant_id=tenant_id,
        tenant=tenant,
        workers=workers,
        spec_reduce=spec_reduce,
        spec_exp=spec_exp,
        num_racks=num_racks,
        workers_per_rack=workers_per_rack,
    )
    return ct
