"""Trace persistence: a compact binary packet-trace format.

Real evaluations replay captured traces; this module provides the
equivalent for synthetic ones — a pcap-like fixed-record binary format
(magic + version header, one 34-byte record per packet) plus the flow
labels needed to score online inference.  Flows are flattened to
timestamp order on write and regrouped by 5-tuple on read.
"""

from __future__ import annotations

import struct

from repro.errors import DatasetError
from repro.netsim.flow import Flow, FlowTable
from repro.netsim.packet import Packet, five_tuple
from repro.netsim.trace import interleave_flows

#: File magic ("HMTR") and format version.
MAGIC = 0x484D5452
VERSION = 1

_HEADER = struct.Struct(">IHI")  # magic, version, packet count
#: timestamp (f8), size (u2), src/dst ip (u4), ports (u2), proto/ttl/flags (u1)
_RECORD = struct.Struct(">dHIIHHBBB")


def write_trace(path: str, flows: list) -> int:
    """Write flows as a timestamp-ordered binary trace; returns packet count.

    Labels are stored in a sidecar ``<path>.labels`` file mapping each
    flow's 5-tuple to its label (traces and ground truth usually travel
    separately).
    """
    packets, _ = interleave_flows(flows)
    labels = {
        five_tuple(flow.packets[0]): flow.label
        for flow in flows if len(flow) and flow.label is not None
    }
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(MAGIC, VERSION, len(packets)))
        for p in packets:
            handle.write(_RECORD.pack(
                p.timestamp, p.size, p.src_ip, p.dst_ip, p.src_port,
                p.dst_port, p.protocol, p.ttl, p.tcp_flags))
    with open(path + ".labels", "w") as handle:
        for key, label in sorted(labels.items()):
            handle.write(",".join(str(v) for v in key) + f",{label}\n")
    return len(packets)


def read_trace(path: str) -> list:
    """Read a trace back as labeled flows (regrouped by 5-tuple)."""
    try:
        with open(path, "rb") as handle:
            header = handle.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise DatasetError(f"truncated trace header in {path}")
            magic, version, count = _HEADER.unpack(header)
            if magic != MAGIC:
                raise DatasetError(f"{path} is not a Homunculus trace (bad magic)")
            if version != VERSION:
                raise DatasetError(f"unsupported trace version {version}")
            table = FlowTable()
            for _ in range(count):
                blob = handle.read(_RECORD.size)
                if len(blob) < _RECORD.size:
                    raise DatasetError(f"truncated packet record in {path}")
                (ts, size, src_ip, dst_ip, src_port, dst_port,
                 proto, ttl, flags) = _RECORD.unpack(blob)
                table.observe(
                    Packet(
                        timestamp=ts, size=size, src_ip=src_ip, dst_ip=dst_ip,
                        src_port=src_port, dst_port=dst_port, protocol=proto,
                        ttl=ttl, tcp_flags=flags,
                    )
                )
    except OSError as exc:
        raise DatasetError(f"cannot read trace {path}: {exc}") from exc

    labels: dict = {}
    try:
        with open(path + ".labels") as handle:
            for line in handle:
                parts = line.strip().split(",")
                if len(parts) != 6:
                    continue
                key = tuple(int(v) for v in parts[:5])
                labels[key] = parts[5]
    except OSError:
        pass  # unlabeled traces are fine

    flows = []
    for flow in table.flows:
        key = five_tuple(flow.packets[0])
        labeled = Flow(flow.packets, label=labels.get(key))
        flows.append(labeled)
    return flows
