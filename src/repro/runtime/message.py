"""NetCL messages and the wire codec (Fig. 6 / Fig. 10 of the paper).

A NetCL-over-UDP packet is::

    ETH | IP | UDP | NetCL header | NetCL data (kernel arguments) | payload

The NetCL header carries the 4-tuple ``(src, dst, from, to)`` (host ids /
device ids), the computation id, the action byte the device runtime sets,
and the data length.  The data section's layout is the *kernel
specification*: per-argument element counts and types, embedded into host
code by the compiler (§V-A) — here exposed as :class:`KernelSpec`.

``pack``/``unpack`` accept ``None`` per argument to skip copying (the
paper's NULL-argument optimization for fields a side only reads or only
the device writes).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from typing import NamedTuple, Optional, Sequence, Union

from repro.ir.module import Function

#: Forwarding action codes carried in the NetCL header's ``act`` byte.
ACT_CODES = {
    "pass": 0,
    "drop": 1,
    "send_to_host": 2,
    "send_to_device": 3,
    "multicast": 4,
    "repeat": 5,
    "reflect": 6,
    "reflect_long": 7,
}

_HEADER = struct.Struct("!HHHHBBH")  # src, dst, from, to, comp, act, len
HEADER_SIZE = _HEADER.size

#: ``from``/``to`` value meaning "no device".
NO_DEVICE = 0xFFFF

# -- reliability extension (repro.reliability) ----------------------------------
#
# A reliable NetCL packet carries a fixed-size *trailer* after the data
# section.  Because the header's ``len`` field delimits the data section,
# pre-reliability parsers skip the trailer transparently — the extension
# is backward- and forward-compatible on the wire.
#
#     NetCL header | NetCL data | magic(2) kind(1) seq(4) crc(4)
#
# ``kind`` packs the message kind in the low nibble and flag bits in the
# high nibble; ``crc`` is CRC-32 over the data section, letting the
# receiver detect in-network corruption and recover by retransmission.

_REL_TRAILER = struct.Struct("!HBII")  # magic, kind|flags, seq, crc
REL_TRAILER_SIZE = _REL_TRAILER.size
REL_MAGIC = 0x5EC1

REL_DATA = 0x1  #: a sequence-numbered kernel message
REL_ACK = 0x2  #: a device acknowledgment for one DATA sequence number

REL_FLAG_ACK_REQ = 0x10  #: sender requests a device-side ACK
REL_FLAG_REPLY = 0x20  #: host-generated reply echoing the request's seq
REL_FLAG_MORE = 0x40  #: reply fragment with more fragments to follow


@dataclass(frozen=True)
class FieldSpec:
    """One kernel argument in the message layout.

    ``tail`` marks the §VIII *message tail* extension: the field is
    optional on the wire — a sender may omit it entirely (shorter packet)
    and the device appends it to the message.
    """

    name: str
    width_bits: int
    count: int = 1
    tail: bool = False

    @property
    def bytes_per_element(self) -> int:
        return max(1, (self.width_bits + 7) // 8)

    @property
    def total_bytes(self) -> int:
        return self.bytes_per_element * self.count


class FieldLayout(NamedTuple):
    """Where one field sits in the data section, resolved once per spec."""

    name: str
    offset: int
    nbytes: int  #: bytes per element
    count: int
    mask: int  #: keeps the field's ``width_bits``
    tail: bool
    #: big-endian struct of the whole field (None for odd element sizes)
    codec: Optional[struct.Struct]


#: struct codes of the element sizes ``struct`` packs natively
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


@dataclass(frozen=True)
class KernelSpec:
    """The full specification of one computation's messages (§V-A)."""

    computation: int
    fields: tuple[FieldSpec, ...]
    layout: tuple[FieldLayout, ...] = dataclass_field(init=False, repr=False, compare=False)
    data_bytes: int = dataclass_field(init=False, repr=False, compare=False)
    #: one struct over the whole data section (None if some element size
    #: has no struct code)
    _codec: Optional[struct.Struct] = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        layout = []
        offset = 0
        for f in self.fields:
            nb = f.bytes_per_element
            code = _STRUCT_CODES.get(nb)
            codec = struct.Struct(f">{f.count}{code}") if code else None
            layout.append(
                FieldLayout(f.name, offset, nb, f.count, (1 << f.width_bits) - 1, f.tail, codec)
            )
            offset += nb * f.count
        whole = None
        if all(entry.codec is not None for entry in layout):
            whole = struct.Struct(">" + "".join(e.codec.format[1:] for e in layout))
        object.__setattr__(self, "layout", tuple(layout))
        object.__setattr__(self, "data_bytes", offset)
        object.__setattr__(self, "_codec", whole)

    @classmethod
    def from_kernel(cls, fn: Function) -> "KernelSpec":
        return cls(
            computation=fn.computation or 0,
            fields=tuple(
                FieldSpec(a.name, a.type.width, a.spec, getattr(a, "tail", False))
                for a in fn.args
            ),
        )

    @property
    def size(self) -> int:
        """Total NetCL bytes on the wire (header + data)."""
        return HEADER_SIZE + self.data_bytes

    def field(self, name: str) -> FieldSpec:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(name)

    # -- device-side codec ------------------------------------------------------
    def decode_into(self, data: bytes, fields: dict) -> None:
        """Add every field of the data section ``data`` to ``fields``.

        A field past the end of a short section reads as zeros; a §VIII
        tail field the sender omitted is appended zero-initialized.
        """
        if self._codec is not None and len(data) >= self.data_bytes:
            values = self._codec.unpack_from(data)
            at = 0
            for name, _, _, count, _, _, _ in self.layout:
                if count == 1:
                    fields[name] = values[at]
                else:
                    fields[name] = list(values[at : at + count])
                at += count
            return
        for name, off, nb, count, _, tail, _ in self.layout:
            if tail and off >= len(data):
                fields[name] = 0 if count == 1 else [0] * count
            elif count == 1:
                fields[name] = int.from_bytes(data[off : off + nb], "big")
            else:
                fields[name] = [
                    int.from_bytes(data[off + j * nb : off + (j + 1) * nb], "big")
                    for j in range(count)
                ]

    def encode(self, fields: dict) -> bytes:
        """The data section carrying ``fields`` (a missing field is 0);
        each element is masked to its field's width."""
        if self._codec is not None:
            flat: list[int] = []
            try:
                for name, _, _, count, mask, _, _ in self.layout:
                    v = fields.get(name, 0)
                    if v.__class__ is list:
                        if len(v) != count:
                            raise ValueError(name)
                        flat.extend([x & mask for x in v])
                    else:
                        flat.append(v & mask)
                return self._codec.pack(*flat)
            except (TypeError, ValueError, struct.error):
                pass  # not plain ints of the declared counts: element by element
        out = bytearray()
        for name, _, nb, _, mask, _, _ in self.layout:
            v = fields.get(name, 0)
            for x in v if isinstance(v, list) else (v,):
                out.extend((int(x) & mask).to_bytes(nb, "big"))
        return bytes(out)


@dataclass
class Message:
    """Host-side message descriptor: ``ncl::message m(src, dst, comp, to)``.

    ``src``/``dst`` are host ids; ``to`` is the device whose computation
    ``comp`` is explicitly requested (§IV: no implicit computation).
    """

    src: int
    dst: int
    comp: int
    to: int
    from_: int = NO_DEVICE
    act: int = ACT_CODES["pass"]
    spec: Optional[KernelSpec] = None

    @property
    def size(self) -> int:
        if self.spec is None:
            raise ValueError("message has no kernel specification attached")
        return self.spec.size


Values = Sequence[Optional[Union[int, Sequence[int]]]]


def pack(msg: Message, spec: KernelSpec, values: Values) -> bytes:
    """Serialize a message.  ``values[i]`` is the i-th kernel argument
    (int, list of ints, or None to send zeros without copying)."""
    if len(values) != len(spec.fields):
        raise ValueError(
            f"computation {spec.computation} expects {len(spec.fields)} "
            f"arguments, got {len(values)}"
        )
    # §VIII tail extension: a trailing tail field whose value is None is
    # omitted from the wire entirely.
    layout = list(spec.layout)
    send_values = list(values)
    data_bytes = spec.data_bytes
    if layout and layout[-1].tail and send_values[-1] is None:
        data_bytes -= layout[-1].nbytes * layout[-1].count
        layout.pop()
        send_values.pop()
    out = bytearray(
        _HEADER.pack(
            msg.src, msg.dst, msg.from_, msg.to, msg.comp, msg.act, data_bytes
        )
    )
    for (name, _, nb, count, mask, _, codec), v in zip(layout, send_values):
        if v is None:
            out.extend(bytes(nb * count))
        elif isinstance(v, int):
            if count != 1:
                raise ValueError(f"field {name} expects {count} elements")
            out.extend((v & mask).to_bytes(nb, "big"))
        else:
            vals = list(v)
            if len(vals) != count:
                raise ValueError(
                    f"field {name} expects {count} elements, got {len(vals)}"
                )
            if codec is not None:
                out.extend(codec.pack(*[int(x) & mask for x in vals]))
            else:
                for x in vals:
                    out.extend((int(x) & mask).to_bytes(nb, "big"))
    return bytes(out)


def unpack(data: bytes, spec: KernelSpec, out: Optional[Values] = None) -> tuple[Message, list]:
    """Deserialize a NetCL packet.  Returns (message, values).

    ``out`` mirrors the paper's API: a list with ``None`` for arguments to
    skip.  Skipped arguments come back as ``None``.
    """
    if len(data) < HEADER_SIZE:
        raise ValueError(f"short NetCL packet: {len(data)} bytes")
    src, dst, from_, to, comp, act, dlen = _HEADER.unpack_from(data, 0)
    msg = Message(src, dst, comp, to, from_=from_, act=act, spec=spec)
    if len(data) - HEADER_SIZE < dlen:
        raise ValueError("truncated NetCL data section")
    values: list = []
    off = HEADER_SIZE
    for i, (_, _, nb, count, _, tail, codec) in enumerate(spec.layout):
        skip = out is not None and (i >= len(out) or out[i] is None)
        if tail and off - HEADER_SIZE >= dlen:
            # tail omitted by the sender: defaults to zeros
            values.append(
                None if skip else (0 if count == 1 else [0] * count)
            )
            continue
        if skip:
            values.append(None)
        elif count == 1:
            values.append(int.from_bytes(data[off : off + nb], "big"))
        elif codec is not None and off + nb * count <= len(data):
            values.append(list(codec.unpack_from(data, off)))
        else:
            values.append(
                [
                    int.from_bytes(data[off + j * nb : off + (j + 1) * nb], "big")
                    for j in range(count)
                ]
            )
        off += nb * count
    return msg, values


@dataclass(slots=True)
class NetCLPacket:
    """An in-flight NetCL packet (header + raw data section).

    ``slots=True``: the simulator copies and touches packets on every hop,
    so attribute access and :meth:`copy` are hot; slots shave the per-
    instance dict and make field access a fixed-offset load.
    """

    src: int
    dst: int
    from_: int
    to: int
    comp: int
    act: int
    data: bytes
    #: simulation bookkeeping (bytes on the wire incl. pseudo ETH/IP/UDP)
    extra_bytes: int = 42  # ETH(14) + IP(20) + UDP(8)
    #: telemetry bookkeeping: INT-style trace id (never on the wire)
    trace_id: Optional[int] = None
    #: simulation bookkeeping: multicast members a shared transit replica
    #: still covers — the next-hop switch re-expands it (hierarchical
    #: fan-out; never on the wire)
    mcast_members: Optional[tuple] = None
    #: reliability trailer (repro.reliability): kind, flags, seq, data CRC.
    rel_kind: Optional[int] = None
    rel_flags: int = 0
    rel_seq: int = 0
    rel_crc: int = 0

    @classmethod
    def from_wire(cls, raw: bytes) -> "NetCLPacket":
        if len(raw) < HEADER_SIZE:
            raise ValueError(f"short NetCL packet: {len(raw)} bytes")
        src, dst, from_, to, comp, act, dlen = _HEADER.unpack_from(raw, 0)
        if len(raw) - HEADER_SIZE < dlen:
            raise ValueError("truncated NetCL data section")
        pkt = cls(src, dst, from_, to, comp, act, raw[HEADER_SIZE : HEADER_SIZE + dlen])
        trailer = raw[HEADER_SIZE + dlen :]
        if len(trailer) >= REL_TRAILER_SIZE:
            magic, kind_flags, seq, crc = _REL_TRAILER.unpack_from(trailer, 0)
            if magic == REL_MAGIC:
                pkt.rel_kind = kind_flags & 0x0F
                pkt.rel_flags = kind_flags & 0xF0
                pkt.rel_seq = seq
                pkt.rel_crc = crc
        return pkt

    def to_wire(self) -> bytes:
        raw = (
            _HEADER.pack(
                self.src, self.dst, self.from_, self.to, self.comp, self.act, len(self.data)
            )
            + self.data
        )
        if self.rel_kind is not None:
            raw += _REL_TRAILER.pack(
                REL_MAGIC, (self.rel_kind & 0x0F) | (self.rel_flags & 0xF0),
                self.rel_seq & 0xFFFFFFFF, self.rel_crc & 0xFFFFFFFF,
            )
        return raw

    # -- reliability helpers (repro.reliability) -------------------------------
    def stamp_reliability(self, kind: int, seq: int, flags: int = 0) -> "NetCLPacket":
        """Attach a reliability trailer; the CRC covers the data section."""
        self.rel_kind = kind
        self.rel_flags = flags
        self.rel_seq = seq
        self.rel_crc = zlib.crc32(self.data) & 0xFFFFFFFF
        return self

    def restamp_crc(self) -> None:
        """Refresh the CRC after the data section was rewritten (a device
        re-encoding kernel results into a forwarded reliable packet)."""
        self.rel_crc = zlib.crc32(self.data) & 0xFFFFFFFF

    @property
    def reliability_intact(self) -> bool:
        """Whether the data section still matches the trailer CRC."""
        if self.rel_kind is None:
            return True
        return (zlib.crc32(self.data) & 0xFFFFFFFF) == self.rel_crc

    @property
    def size_bytes(self) -> int:
        rel = REL_TRAILER_SIZE if self.rel_kind is not None else 0
        return self.extra_bytes + HEADER_SIZE + len(self.data) + rel

    def copy_into(self, out: "NetCLPacket") -> "NetCLPacket":
        """Overwrite every field of ``out`` with this packet's (the
        recycling path of :class:`PacketPool`)."""
        out.src = self.src
        out.dst = self.dst
        out.from_ = self.from_
        out.to = self.to
        out.comp = self.comp
        out.act = self.act
        out.data = self.data
        out.extra_bytes = self.extra_bytes
        out.trace_id = self.trace_id
        out.mcast_members = self.mcast_members
        out.rel_kind = self.rel_kind
        out.rel_flags = self.rel_flags
        out.rel_seq = self.rel_seq
        out.rel_crc = self.rel_crc
        return out

    def copy(self) -> "NetCLPacket":
        # Direct slot assignment: ~3x faster than re-running the dataclass
        # __init__, and copy() runs once per retransmission / multicast
        # replica / kernel output.
        return self.copy_into(NetCLPacket.__new__(NetCLPacket))


class PacketPool:
    """A bounded slab free-list for network-owned :class:`NetCLPacket`
    copies (multicast fan-out).

    The network layer creates short-lived packet copies when it replicates
    a multicast decision.  Copies that die *inside* the network layer —
    lost on a link, dropped for no-route or a downed node — are returned
    here and recycled by the next fan-out instead of allocating a fresh
    instance.  Copies that reach a host or a switch pipeline are
    *disowned* first: the application may retain them indefinitely, so
    they must never be recycled.

    Ownership is tracked by object identity, so releasing a packet the
    pool never issued (e.g. an application's own template) is a no-op.
    """

    __slots__ = ("_free", "_owned", "capacity", "hits", "misses")

    def __init__(self, capacity: int = 512) -> None:
        self._free: list[NetCLPacket] = []
        self._owned: set[int] = set()
        self.capacity = capacity
        self.hits = 0
        self.misses = 0

    def copy_of(self, packet: NetCLPacket) -> NetCLPacket:
        """A pool-owned copy of ``packet`` (recycled when possible)."""
        free = self._free
        if free:
            out = packet.copy_into(free.pop())
            self.hits += 1
        else:
            out = packet.copy()
            self.misses += 1
        self._owned.add(id(out))
        return out

    def release(self, packet: NetCLPacket) -> bool:
        """Return a pool-owned packet to the free list; no-op otherwise."""
        owned = self._owned
        if not owned:
            return False
        i = id(packet)
        if i not in owned:
            return False
        owned.discard(i)
        if len(self._free) < self.capacity:
            self._free.append(packet)
        return True

    def disown(self, packet: NetCLPacket) -> None:
        """Transfer ownership out of the pool (packet escapes to an app)."""
        if self._owned:
            self._owned.discard(id(packet))

    @property
    def free(self) -> int:
        return len(self._free)
