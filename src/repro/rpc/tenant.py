"""Run the RPC fabric as a :mod:`repro.service` tenant.

The standalone :mod:`repro.rpc.cluster` owns its whole fabric; here the
same three switch roles are expressed as an *abstract* topology (edge
device 1, spine 2, one ToR per rack from 3) and submitted to a
long-lived :class:`~repro.service.INCService`, which places them into
whatever headroom other tenants left, enforces the tenant's QoS, and
live-migrates the slices off crashed switches.  Every control-plane
handle is the service's journaling
:meth:`~repro.service.INCService.control` connection, so a migration
re-installs the edge's routing MATs and token buckets *and* the ToR's
entire memoization cache from the compacted journal; the clients' and
servers' ReliableChannels are registered with the service, which
retargets them at the replacement slice.  The ``on_migrate`` hook only
has to restart in-flight gather rounds (the spine's slot state moved);
unary calls re-resolve through their own retries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.collective.protocol import rewind_slots
from repro.netsim import HOST
from repro.rpc.client import RpcClient
from repro.rpc.cluster import SG_MCAST_GROUP, TokenRefiller, compile_rpc_role
from repro.rpc.idl import RpcSchema
from repro.rpc.memo import MemoController
from repro.rpc.server import RpcServer
from repro.runtime import KernelSpec
from repro.runtime.constants import DEFAULT_SLOT_TIMEOUT_NS, NUM_SLOTS
from repro.service import INCService, Tenant, TenantQoS

#: abstract device ids the RPC program is written against.
ABSTRACT_EDGE = 1
ABSTRACT_SG = 2


def abstract_tor(rack: int) -> int:
    """The abstract device id of rack ``rack``'s ToR."""
    return 3 + rack


@dataclass
class RpcTenant:
    """One admitted RPC tenant: its clients, servers, and control plane."""

    service: INCService
    tenant_id: str
    tenant: Tenant
    schema: RpcSchema
    clients: list[RpcClient]
    servers: list[RpcServer]
    memo: dict[int, MemoController]
    refiller: TokenRefiller
    edge_conn: object
    spec_unary: KernelSpec
    spec_sg: KernelSpec
    num_racks: int
    servers_per_rack: int
    method_rack: dict[int, int]
    method_server: dict[int, int]
    _started: bool = field(default=False, repr=False)

    @property
    def fanout(self) -> int:
        return self.num_racks * self.servers_per_rack

    def run(self, until_ms: float = 50.0) -> None:
        """Drive the service's simulation (relative horizon)."""
        if not self._started:
            for c in self.clients:
                c.start()
            self._started = True
        sim = self.service.network.sim
        sim.run(until_ns=sim.now_ns + int(until_ms * 1e6))

    @property
    def all_done(self) -> bool:
        return all(c.all_done for c in self.clients)

    def stall_report(self) -> list[str]:
        out = []
        for c in self.clients:
            r = c.stall_report()
            if r is not None:
                out.append(f"client h{c.host_id}: {r}")
        return out

    # -- migration ----------------------------------------------------------------
    def resync(self) -> None:
        """Restart every in-flight gather round.

        A migrated spine slice lost its slot merge state (bitmaps,
        partial sums, countdowns); re-sending each outstanding round's
        scatter rebuilds it — servers recompute their pure partials and
        completed rounds answer straight from the merge registers.
        Unary calls need nothing: their retry timers re-send through
        the retargeted channel.
        """
        for c in self.clients:
            rewind_slots([c.gather_stream])


def submit_rpc_tenant(
    service: INCService,
    tenant_id: str,
    schema: RpcSchema,
    handlers: dict,
    *,
    client_hosts: list[int],
    server_hosts: list[int],
    num_racks: int = 2,
    qos: Optional[TenantQoS] = None,
    window: int = 8,
    gather_rounds: int = 64,
    timeout_ns: int = DEFAULT_SLOT_TIMEOUT_NS,
    refill_interval_ns: int = 50_000,
    target: str = "tna",
) -> RpcTenant:
    """Admit an RPC tenant onto ``service``'s shared fabric.

    ``server_hosts`` are the replica hosts in replica-index order, split
    evenly into ``num_racks`` racks; rack ``r``'s servers attach to
    abstract ToR ``3 + r``.  Raises
    :class:`~repro.service.AdmissionError` if the fabric has no headroom
    for the three roles.
    """
    if len(server_hosts) % num_racks != 0:
        raise ValueError(
            f"{len(server_hosts)} servers do not split into {num_racks} racks"
        )
    servers_per_rack = len(server_hosts) // num_racks
    fanout = len(server_hosts)
    if not 1 <= fanout <= 16:
        raise ValueError("fanout must be in [1, 16] (replica bits are u16)")
    for name in (m.name for m in schema.methods):
        if name not in handlers:
            raise ValueError(f"no handler for method {name!r}")
    from repro.deploy.planner import AbstractTopology

    topo = AbstractTopology()
    compiled: dict[int, object] = {}

    def compile_at(abstract_id: int, role: str):
        prog = compile_rpc_role(
            abstract_id,
            role,
            fanout=fanout,
            edge_dev=ABSTRACT_EDGE,
            sg_dev=ABSTRACT_SG,
            mcast_group=SG_MCAST_GROUP,
            target=target,
        )
        compiled[abstract_id] = prog
        topo.add_device(abstract_id, prog)
        return prog

    compile_at(ABSTRACT_EDGE, "edge")
    compile_at(ABSTRACT_SG, "sg")
    topo.connect_devices(ABSTRACT_EDGE, ABSTRACT_SG)
    for rack in range(num_racks):
        compile_at(abstract_tor(rack), "tor")
        topo.connect_devices(abstract_tor(rack), ABSTRACT_EDGE)
        topo.connect_devices(abstract_tor(rack), ABSTRACT_SG)
    for h in client_hosts:
        topo.attach_host(h, ABSTRACT_EDGE)
    for i, h in enumerate(server_hosts):
        topo.attach_host(h, abstract_tor(i // servers_per_rack))
    topo.add_multicast_group(SG_MCAST_GROUP, [HOST(h) for h in server_hosts])

    rt: Optional[RpcTenant] = None

    def on_migrate(service: INCService, tenant: Tenant) -> None:
        if rt is not None:
            rt.resync()

    # No ordered mode: same argument as the standalone cluster (the
    # guarded slot merge plus the client's ver+tag checks make FIFO
    # enforcement pure stale-drop overhead).
    qos = qos or TenantQoS()
    tenant = service.submit(tenant_id, topo, qos, on_migrate=on_migrate)

    edge_kernels = {
        k.computation: k for k in compiled[ABSTRACT_EDGE].kernels()
    }
    spec_unary = KernelSpec.from_kernel(edge_kernels[1])
    spec_sg = KernelSpec.from_kernel(edge_kernels[2])

    net = service.network
    # The fan-out comparison's host model, applied on every RPC host.
    for h in (*client_hosts, *server_hosts):
        net.hosts[h].serialize_overheads = True

    # -- control plane: journaling connections the migration replays ---------------
    edge_conn = service.control(tenant_id, ABSTRACT_EDGE)
    method_rack: dict[int, int] = {}
    method_server: dict[int, int] = {}
    for m in schema.methods:
        if m.kind == "unary":
            rack = m.method_id % num_racks
            within = (m.method_id // num_racks) % servers_per_rack
            method_rack[m.method_id] = rack
            method_server[m.method_id] = server_hosts[
                rack * servers_per_rack + within
            ]
            # MAT values are *abstract* ids: the slice wrapper translates
            # forwarding targets back to global ids on egress.
            edge_conn.managed_insert("URoute", m.method_id, abstract_tor(rack))
        else:
            edge_conn.managed_insert("SRoute", m.method_id, ABSTRACT_SG)
    memo = {
        rack: MemoController(
            service.control(tenant_id, abstract_tor(rack)),
            metrics=net.metrics,
            tag=f"{tenant_id}.r{rack}",
        )
        for rack in range(num_racks)
    }
    refiller = TokenRefiller(
        net, edge_conn, schema, interval_ns=refill_interval_ns
    ).start()

    # -- applications ---------------------------------------------------------------
    sg_gid = tenant.abstract_to_gid[ABSTRACT_SG]
    edge_gid = tenant.abstract_to_gid[ABSTRACT_EDGE]
    servers = []
    for i, h in enumerate(server_hosts):
        server = RpcServer(
            net,
            h,
            schema,
            handlers,
            replica_index=i,
            sg_device=sg_gid,
            spec_unary=spec_unary,
            spec_sg=spec_sg,
            memo=memo[i // servers_per_rack],
        )
        service.register_channel(tenant_id, ABSTRACT_SG, server.channel)
        servers.append(server)
    slots_per_client = NUM_SLOTS // max(1, len(client_hosts))
    clients = []
    for c, h in enumerate(client_hosts):
        client = RpcClient(
            net,
            h,
            schema,
            edge_device=edge_gid,
            spec_unary=spec_unary,
            spec_sg=spec_sg,
            method_servers=method_server,
            slot_base=c * slots_per_client,
            window=min(window, slots_per_client),
            gather_rounds=gather_rounds,
            timeout_ns=timeout_ns,
        )
        service.register_channel(tenant_id, ABSTRACT_EDGE, client.channel)
        clients.append(client)

    rt = RpcTenant(
        service=service,
        tenant_id=tenant_id,
        tenant=tenant,
        schema=schema,
        clients=clients,
        servers=servers,
        memo=memo,
        refiller=refiller,
        edge_conn=edge_conn,
        spec_unary=spec_unary,
        spec_sg=spec_sg,
        num_racks=num_racks,
        servers_per_rack=servers_per_rack,
        method_rack=method_rack,
        method_server=method_server,
    )
    return rt
