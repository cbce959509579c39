"""Host/device runtimes: message codec, device dispatch, forwarding
semantics (Table II), managed memory, UDP loopback backend."""

import socket

import pytest

from repro.core import compile_netcl
from repro.runtime import (
    ACT_CODES,
    DeviceConnection,
    ForwardKind,
    KernelSpec,
    Message,
    NetCLDevice,
    NetCLPacket,
    pack,
    unpack,
)
from repro.runtime.control import ManagedMemoryError
from repro.runtime.device import DeviceRuntimeError
from repro.runtime.message import FieldSpec, HEADER_SIZE, NO_DEVICE
from repro.runtime.udp import UdpHost, UdpSwitch
from tests.conftest import FIG4_CACHE

SPEC = KernelSpec(
    1,
    (
        FieldSpec("op", 8),
        FieldSpec("k", 32),
        FieldSpec("v", 32),
        FieldSpec("vals", 32, count=4),
    ),
)


class TestCodec:
    def test_sizes(self):
        assert SPEC.data_bytes == 1 + 4 + 4 + 16
        assert SPEC.size == HEADER_SIZE + SPEC.data_bytes

    def test_pack_unpack_roundtrip(self):
        msg = Message(src=1, dst=2, comp=1, to=3)
        raw = pack(msg, SPEC, [7, 0xDEADBEEF, 42, [1, 2, 3, 4]])
        back, values = unpack(raw, SPEC)
        assert (back.src, back.dst, back.to, back.comp) == (1, 2, 3, 1)
        assert values == [7, 0xDEADBEEF, 42, [1, 2, 3, 4]]

    def test_none_skips_packing(self):
        msg = Message(src=1, dst=2, comp=1, to=3)
        raw = pack(msg, SPEC, [7, 5, None, None])
        _, values = unpack(raw, SPEC)
        assert values[2] == 0 and values[3] == [0, 0, 0, 0]

    def test_none_skips_unpacking(self):
        msg = Message(src=1, dst=2, comp=1, to=3)
        raw = pack(msg, SPEC, [7, 5, 6, [1, 2, 3, 4]])
        _, values = unpack(raw, SPEC, out=[1, None, 1, None])
        assert values[0] == 7 and values[1] is None and values[3] is None

    def test_values_masked_to_width(self):
        msg = Message(src=1, dst=2, comp=1, to=3)
        raw = pack(msg, SPEC, [0x1FF, 0, 0, None])
        _, values = unpack(raw, SPEC)
        assert values[0] == 0xFF  # u8 field

    def test_wrong_arity_rejected(self):
        msg = Message(src=1, dst=2, comp=1, to=3)
        with pytest.raises(ValueError, match="expects 4 arguments"):
            pack(msg, SPEC, [1, 2, 3])

    def test_wrong_element_count_rejected(self):
        msg = Message(src=1, dst=2, comp=1, to=3)
        with pytest.raises(ValueError, match="expects 4 elements"):
            pack(msg, SPEC, [1, 2, 3, [1, 2]])

    def test_truncated_packet_rejected(self):
        with pytest.raises(ValueError):
            unpack(b"\x00\x01", SPEC)

    def test_netclpacket_wire_roundtrip(self):
        p = NetCLPacket(src=9, dst=8, from_=NO_DEVICE, to=1, comp=2, act=0, data=b"xyz")
        q = NetCLPacket.from_wire(p.to_wire())
        assert (q.src, q.dst, q.from_, q.to, q.comp, q.data) == (9, 8, NO_DEVICE, 1, 2, b"xyz")

    def test_spec_from_kernel(self, fig4_compiled):
        spec = KernelSpec.from_kernel(fig4_compiled.kernels()[0])
        assert [f.name for f in spec.fields] == ["op", "k", "v", "hit", "hot"]
        assert [f.width_bits for f in spec.fields] == [8, 32, 32, 8, 32]


def _decode_per_field(data: bytes, spec: KernelSpec) -> dict:
    """Element-by-element data-section decoding: the codec's oracle."""
    fields: dict = {}
    off = 0
    for f in spec.fields:
        nb = f.bytes_per_element
        if f.tail and off >= len(data):
            fields[f.name] = 0 if f.count == 1 else [0] * f.count
            continue
        if f.count == 1:
            fields[f.name] = int.from_bytes(data[off : off + nb], "big")
        else:
            fields[f.name] = [
                int.from_bytes(data[off + j * nb : off + (j + 1) * nb], "big")
                for j in range(f.count)
            ]
        off += f.total_bytes
    return fields


def _encode_per_field(fields: dict, spec: KernelSpec) -> bytes:
    out = bytearray()
    for f in spec.fields:
        mask = (1 << f.width_bits) - 1
        v = fields.get(f.name, 0)
        for x in v if isinstance(v, list) else [v]:
            out.extend((int(x) & mask).to_bytes(f.bytes_per_element, "big"))
    return bytes(out)


class TestSpecLayout:
    """The per-spec layout and the device codec built on it."""

    SPECS = [
        SPEC,
        KernelSpec(2, (FieldSpec("a", 12), FieldSpec("b", 24, count=3), FieldSpec("c", 1))),
        KernelSpec(3, (FieldSpec("a", 16), FieldSpec("t", 32, count=2, tail=True))),
        KernelSpec(4, (FieldSpec("x", 64), FieldSpec("y", 7, count=5))),
    ]

    def test_layout_offsets_and_masks(self):
        spec = self.SPECS[1]
        assert [(e.offset, e.nbytes, e.count, e.mask) for e in spec.layout] == [
            (0, 2, 1, 0xFFF), (2, 3, 3, 0xFFFFFF), (11, 1, 1, 1)
        ]
        assert spec.data_bytes == 12
        assert spec == KernelSpec(2, spec.fields) and "layout" not in repr(spec)

    @pytest.mark.parametrize("index", range(len(SPECS)))
    def test_decode_and_encode_match_per_field_codec(self, index):
        import random

        spec = self.SPECS[index]
        rng = random.Random(index)
        for n in range(spec.data_bytes + 3):
            data = bytes(rng.randrange(256) for _ in range(n))
            fields: dict = {}
            spec.decode_into(data, fields)
            assert fields == _decode_per_field(data, spec), n
            assert spec.encode(fields) == _encode_per_field(fields, spec)
        odd = {f.name: (True if f.count == 1 else [2.7] * f.count) for f in spec.fields}
        assert spec.encode(odd) == _encode_per_field(odd, spec)
        short = {f.name: ([1] if f.count > 1 else -1) for f in spec.fields}
        assert spec.encode(short) == _encode_per_field(short, spec)
        assert spec.encode({}) == _encode_per_field({}, spec)


class TestDeviceRuntime:
    @pytest.fixture
    def device(self, fig4_compiled):
        return NetCLDevice(1, fig4_compiled.module, fig4_compiled.kernels())

    def _get(self, key):
        data = bytes([1]) + key.to_bytes(4, "big") + bytes(9)
        return NetCLPacket(src=1, dst=2, from_=NO_DEVICE, to=1, comp=1, act=0, data=data)

    def test_hit_reflects_to_source(self, device):
        d = device.process(self._get(2))
        assert d.kind == ForwardKind.TO_HOST and d.target == 1
        assert d.packet.act == ACT_CODES["reflect"]
        assert d.packet.from_ == 1  # this device became the previous hop

    def test_miss_passes_to_destination(self, device):
        d = device.process(self._get(99))
        assert d.kind == ForwardKind.TO_HOST and d.target == 2
        assert d.packet.act == ACT_CODES["pass"]

    def test_no_op_transit_other_device(self, device):
        p = self._get(2)
        p.to = 7  # computation requested at a different device
        d = device.process(p)
        assert d.kind == ForwardKind.TO_DEVICE and d.target == 7
        assert device.packets_computed == 0  # no implicit computation (§IV)

    def test_unknown_computation_is_noop(self, device):
        p = self._get(2)
        p.comp = 42
        d = device.process(p)
        assert d.kind == ForwardKind.TO_HOST and d.target == 2
        assert device.packets_computed == 0

    def test_duplicate_computation_rejected(self, fig4_compiled):
        kernels = fig4_compiled.kernels()
        with pytest.raises(DeviceRuntimeError, match="Eq. 1"):
            NetCLDevice(1, fig4_compiled.module, list(kernels) + list(kernels))

    def test_repeat_action_recirculates(self):
        src = (
            "_net_ unsigned c;\n"
            "_kernel(1) void k(unsigned &n) {\n"
            "  n = ncl::atomic_inc_new(&c);\n"
            "  if (n < 3) return ncl::repeat();\n"
            "  return ncl::reflect(); }"
        )
        cp = compile_netcl(src, 1)
        dev = NetCLDevice(1, cp.module, cp.kernels())
        p = NetCLPacket(src=1, dst=2, from_=NO_DEVICE, to=1, comp=1, act=0, data=bytes(4))
        d = dev.process(p)
        assert d.kind == ForwardKind.TO_HOST
        assert int.from_bytes(d.packet.data, "big") == 3  # ran three times

    def test_repeat_limit_enforced(self):
        src = "_kernel(1) void k(unsigned n) { return ncl::repeat(); }"
        cp = compile_netcl(src, 1)
        dev = NetCLDevice(1, cp.module, cp.kernels(), max_repeats=8)
        p = NetCLPacket(src=1, dst=2, from_=NO_DEVICE, to=1, comp=1, act=0, data=bytes(4))
        with pytest.raises(DeviceRuntimeError, match="repeats"):
            dev.process(p)

    def test_reflect_goes_to_previous_device(self):
        src = "_kernel(1) void k(unsigned n) { return ncl::reflect(); }"
        cp = compile_netcl(src, 1)
        dev = NetCLDevice(1, cp.module, cp.kernels())
        p = NetCLPacket(src=1, dst=2, from_=6, to=1, comp=1, act=0, data=bytes(4))
        d = dev.process(p)
        assert d.kind == ForwardKind.TO_DEVICE and d.target == 6

    def test_reflect_long_always_goes_to_source(self):
        src = "_kernel(1) void k(unsigned n) { return ncl::reflect_long(); }"
        cp = compile_netcl(src, 1)
        dev = NetCLDevice(1, cp.module, cp.kernels())
        p = NetCLPacket(src=1, dst=2, from_=6, to=1, comp=1, act=0, data=bytes(4))
        d = dev.process(p)
        assert d.kind == ForwardKind.TO_HOST and d.target == 1


class TestManagedMemory:
    @pytest.fixture
    def conn(self, fig4_compiled):
        dev = NetCLDevice(1, fig4_compiled.module, fig4_compiled.kernels())
        return DeviceConnection(dev)

    def test_write_and_read_managed(self, conn):
        conn.managed_write("cms", 123, index=5)
        assert conn.managed_read("cms", index=5) == 123

    def test_cannot_write_net_memory(self):
        src = "_net_ unsigned c;\n_kernel(1) void k() { ncl::atomic_inc(&c); }"
        cp = compile_netcl(src, 1)
        conn = DeviceConnection(NetCLDevice(1, cp.module, cp.kernels()))
        with pytest.raises(ManagedMemoryError, match="_net_"):
            conn.managed_write("c", 1)
        conn.managed_read("c")  # reads are fine (checkpointing)

    def test_unknown_name(self, conn):
        with pytest.raises(ManagedMemoryError, match="no global"):
            conn.managed_read("nope")

    def test_placement_enforced(self):
        src = "_at(3) _managed_ unsigned m;\n_kernel(1) _at(3) void k(unsigned &x) { x = m; }"
        cp = compile_netcl(src, 3)
        conn = DeviceConnection(NetCLDevice(1, cp.module, cp.kernels()))
        with pytest.raises(ManagedMemoryError, match="Eq. 2"):
            conn.managed_write("m", 1)

    def test_managed_lookup_lifecycle(self, fig4_compiled):
        # cache in Fig. 4 is static _lookup_; build a managed variant
        src = (
            "_managed_ _lookup_ ncl::kv<unsigned,unsigned> t[8];\n"
            "_kernel(1) void k(unsigned key, unsigned &v, unsigned &hit) {\n"
            "  hit = ncl::lookup(t, key, v); }"
        )
        cp = compile_netcl(src, 1)
        dev = NetCLDevice(1, cp.module, cp.kernels())
        conn = DeviceConnection(dev)
        conn.managed_insert("t", 5, value=50)
        assert conn.managed_modify("t", 5, 51)
        entries = conn.entries("t")
        assert len(entries) == 1 and entries[0].value == 51
        assert conn.managed_remove("t", 5)
        assert not conn.entries("t")


class TestUdpBackend:
    def test_end_to_end_over_loopback(self):
        cp = compile_netcl(FIG4_CACHE, 1, program_name="fig4")
        device = NetCLDevice(1, cp.module, cp.kernels())
        spec = KernelSpec.from_kernel(cp.kernels()[0])
        with UdpSwitch(device) as switch:
            with UdpHost(1) as client, UdpHost(2) as server:
                client.connect(switch)
                server.connect(switch)
                # cached key 2: reflected straight back to the client
                msg = Message(src=1, dst=2, comp=1, to=1)
                client.send(msg, spec, [1, 2, None, None, None])
                back, values = client.recv(spec)
                assert values[2] == 42 and values[3] == 1
                # miss: lands at the server
                client.send(msg, spec, [1, 99, None, None, None])
                back2, values2 = server.recv(spec)
                assert values2[1] == 99 and values2[3] == 0

    def test_multicast_over_loopback(self):
        src = "_kernel(1) void k(unsigned n) { return ncl::multicast(9); }"
        cp = compile_netcl(src, 1)
        device = NetCLDevice(1, cp.module, cp.kernels())
        spec = KernelSpec.from_kernel(cp.kernels()[0])
        with UdpSwitch(device) as switch:
            hosts = [UdpHost(i) for i in (1, 2, 3)]
            try:
                for h in hosts:
                    h.connect(switch)
                switch.add_multicast_group(9, [1, 2, 3])
                hosts[0].send(Message(src=1, dst=2, comp=1, to=1), spec, [7])
                for h in hosts:
                    _, values = h.recv(spec)
                    assert values == [7]
            finally:
                for h in hosts:
                    h.close()

    def test_recv_timeout(self):
        with UdpHost(1) as h:
            with pytest.raises((socket.timeout, TimeoutError)):
                h.recv(SPEC, timeout=0.05)
