"""Message types carried by the interconnect.

Coherence messages implement the MOSI directory protocol with the paper's
three SafetyNet changes: data responses carry a checkpoint number (the point
of atomicity), NACKs exist so CLB-full components can refuse work, and
three-hop transactions end with a FINAL_ACK from requestor to home.
Validation-coordination messages (VALIDATE_READY / RPCN broadcast) also ride
the interconnect; the paper explicitly models their contention.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
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


@dataclass
class Message:
    """One interconnect message.

    ``src``/``dst`` are node ids.  ``txn_id`` ties every message of a
    coherence transaction together.  ``cn`` is the SafetyNet checkpoint
    number riding on data responses (``None`` = belongs to the recovery
    point and all later checkpoints).
    """

    kind: MessageKind
    src: int
    dst: int
    addr: Optional[int] = None
    txn_id: Optional[int] = None
    cn: Optional[int] = None
    ack_count: int = 0
    data: Optional[int] = None          # block contents (modelled as an int version)
    grant: Optional[str] = None         # "S" or "M" on data responses
    payload: Dict[str, Any] = field(default_factory=dict)
    msg_id: int = field(default_factory=lambda: next(_msg_ids))
    # Computed once at construction: the network reads it on every hop
    # (serialisation latency, bandwidth meters), so a property would pay
    # the descriptor + set-membership cost per hop instead of per message.
    size_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.size_bytes = (DATA_MESSAGE_BYTES if self.kind in DATA_KINDS
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
