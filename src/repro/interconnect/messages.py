"""Message types carried by the interconnect.

Coherence messages implement the MOSI directory protocol with the paper's
three SafetyNet changes: data responses carry a checkpoint number (the point
of atomicity), NACKs exist so CLB-full components can refuse work, and
three-hop transactions end with a FINAL_ACK from requestor to home.
Validation-coordination messages (VALIDATE_READY / RPCN broadcast) also ride
the interconnect; the paper explicitly models their contention.

Every coherence transaction is several messages, so both types are on
the per-message path.  :class:`Message` is a plain ``__slots__`` class
with an explicit ``__init__`` and no instance ``__dict__``.
:class:`MessageKind` hashes by identity, because ``Enum.__hash__`` hashes
the member's name in Python on every kind-keyed lookup (node routing
tables, ``DATA_KINDS``).  Neither hash is stable across processes (the
name hash is randomised), so no result may depend on the iteration order
of a set of kinds.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Dict, Optional


class MessageKind(enum.Enum):
    # coherence requests (cache -> home)
    GETS = enum.auto()
    GETM = enum.auto()
    PUTM = enum.auto()
    PUTE = enum.auto()          # clean eviction of an E block (no data payload)
    # home -> cache
    DATA = enum.auto()          # data response from memory (carries CN)
    FWD_GETS = enum.auto()      # forward read to the owning cache
    FWD_GETM = enum.auto()      # forward read-exclusive to the owning cache
    INV = enum.auto()           # invalidate a sharer
    WB_ACK = enum.auto()        # writeback accepted
    WB_STALE = enum.auto()      # writeback lost the race; discard
    NACK = enum.auto()          # busy / CLB full; retry later
    ACK_COUNT = enum.auto()     # upgrade grant: how many INV_ACKs to expect
    # cache -> cache
    DATA_OWNER = enum.auto()    # data response from the owning cache (carries CN)
    INV_ACK = enum.auto()       # sharer invalidated; sent to the requestor
    # cache -> home
    FINAL_ACK = enum.auto()     # transaction complete; carries atomicity CN
    COPYBACK = enum.auto()      # MESI read-forward: ex-owner returns data+CN home
    # SafetyNet validation coordination (over the interconnect)
    VALIDATE_READY = enum.auto()    # component -> service controller
    RPCN_BROADCAST = enum.auto()    # service controller -> component

    # C-level, where Enum's hashes the name in Python (see the module
    # docstring).  Members are singletons and Enum defines no __eq__, so
    # equality is identity and agrees with this hash.
    __hash__ = object.__hash__


# Message kinds that carry a 64-byte data block (everything else is control).
DATA_KINDS = frozenset({MessageKind.DATA, MessageKind.DATA_OWNER,
                        MessageKind.PUTM, MessageKind.COPYBACK})

# Wire sizes: an 8-byte header, plus the 64-byte block on data carriers.
CONTROL_MESSAGE_BYTES = 8
DATA_MESSAGE_BYTES = 72

# Kinds belonging to the coherence protocol (vs. SafetyNet coordination).
COHERENCE_REQUEST_KINDS = frozenset(
    {MessageKind.GETS, MessageKind.GETM, MessageKind.PUTM, MessageKind.PUTE}
)

_msg_ids = itertools.count()


def reset_msg_ids() -> None:
    """Rewind the process-global message-id stream.

    Machine and SnoopingSystem call this at construction so a run's ids
    — which leak into crash-reason diagnostics and timeout fault strings
    — depend only on (config, workload, seed), never on what else the
    process happened to run first.  Ids only need to be unique within
    one network, so per-run rewinding is safe.
    """
    global _msg_ids
    _msg_ids = itertools.count()


class Message:
    """One interconnect message.

    ``src``/``dst`` are node ids.  ``txn_id`` ties every message of a
    coherence transaction together.  ``cn`` is the SafetyNet checkpoint
    number riding on data responses (``None`` = belongs to the recovery
    point and all later checkpoints).  ``data`` is the block contents
    (modelled as an int version) and ``grant`` ``"S"`` or ``"M"`` on data
    responses.  ``payload`` is a fresh dict per message unless one is
    given (faults mark the message there), and ``msg_id`` is drawn from
    the process-global stream when the message is built.
    """

    __slots__ = ("kind", "src", "dst", "addr", "txn_id", "cn", "ack_count",
                 "data", "grant", "payload", "msg_id", "size_bytes")

    def __init__(self, kind: MessageKind, src: int, dst: int,
                 addr: Optional[int] = None, txn_id: Optional[int] = None,
                 cn: Optional[int] = None, ack_count: int = 0,
                 data: Optional[int] = None, grant: Optional[str] = None,
                 payload: Optional[Dict[str, Any]] = None,
                 msg_id: Optional[int] = None) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.addr = addr
        self.txn_id = txn_id
        self.cn = cn
        self.ack_count = ack_count
        self.data = data
        self.grant = grant
        self.payload = {} if payload is None else payload
        self.msg_id = next(_msg_ids) if msg_id is None else msg_id
        # Computed once at construction: the network reads it on every hop
        # (serialisation latency, bandwidth meters), so a property would pay
        # the descriptor + set-membership cost per hop instead of per message.
        self.size_bytes = (DATA_MESSAGE_BYTES if kind in DATA_KINDS
                           else CONTROL_MESSAGE_BYTES)

    def is_data(self) -> bool:
        return self.kind in DATA_KINDS

    def __repr__(self) -> str:  # compact, for debug traces
        addr = f" a={self.addr:#x}" if self.addr is not None else ""
        cn = f" cn={self.cn}" if self.cn is not None else ""
        return (
            f"<{self.kind.name} {self.src}->{self.dst}{addr}"
            f"{cn} txn={self.txn_id} id={self.msg_id}>"
        )
