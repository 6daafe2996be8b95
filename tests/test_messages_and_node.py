"""Unit tests for message classes and node dispatch."""

import pytest

from repro.interconnect.messages import (
    COHERENCE_REQUEST_KINDS,
    DATA_KINDS,
    Message,
    MessageKind,
)
from repro.workloads import apache
from tests.conftest import tiny_machine


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------
def test_data_messages_are_72_bytes_control_8():
    data = Message(MessageKind.DATA, src=0, dst=1, data=5)
    ctrl = Message(MessageKind.GETS, src=0, dst=1)
    assert data.size_bytes == 72   # 8-byte header + 64-byte block (Table 2)
    assert ctrl.size_bytes == 8
    assert data.is_data() and not ctrl.is_data()
    # A slots class: no per-message __dict__, and no attribute outside
    # the declared fields.
    assert not hasattr(data, "__dict__")
    with pytest.raises(AttributeError):
        data.misrouted_to = 3
    # Positional construction keeps the field order.
    msg = Message(MessageKind.DATA_OWNER, 2, 7, 0x80, 11, 4, 3, 9, "M",
                  {"requestor": 5}, 1234)
    assert (msg.kind, msg.src, msg.dst, msg.addr, msg.txn_id, msg.cn,
            msg.ack_count, msg.data, msg.grant, msg.payload, msg.msg_id,
            msg.size_bytes) == (MessageKind.DATA_OWNER, 2, 7, 0x80, 11, 4, 3,
                                9, "M", {"requestor": 5}, 1234, 72)
    assert (ctrl.addr, ctrl.txn_id, ctrl.cn, ctrl.ack_count, ctrl.data,
            ctrl.grant, ctrl.payload) == (None, None, None, 0, None, None, {})


def test_data_kinds_cover_every_block_carrier():
    assert MessageKind.PUTM in DATA_KINDS
    assert MessageKind.DATA_OWNER in DATA_KINDS
    assert MessageKind.FINAL_ACK not in DATA_KINDS
    # Kinds hash by identity, and kind-keyed lookups still find them.
    by_kind = {kind: kind.name for kind in MessageKind}
    for kind in MessageKind:
        assert hash(kind) == object.__hash__(kind)
        assert by_kind[kind] == kind.name
        assert (kind in DATA_KINDS) == (kind.name in {
            "DATA", "DATA_OWNER", "PUTM", "COPYBACK"})


def test_message_ids_are_unique():
    msgs = [Message(MessageKind.INV, src=0, dst=1) for _ in range(100)]
    assert len({msg.msg_id for msg in msgs}) == 100
    # Each message gets its own payload dict: a fault that marks one
    # message must not mark another.
    assert len({id(msg.payload) for msg in msgs}) == 100
    msgs[0].payload["corrupted"] = True
    assert msgs[1].payload == {}


def test_repr_is_compact_and_informative():
    msg = Message(MessageKind.GETM, src=2, dst=5, addr=0x1c0, cn=7, txn_id=3)
    text = repr(msg)
    assert "GETM" in text and "2->5" in text and "cn=7" in text


def test_coherence_request_kinds():
    assert COHERENCE_REQUEST_KINDS == {
        MessageKind.GETS, MessageKind.GETM, MessageKind.PUTM,
        MessageKind.PUTE,
    }


# ---------------------------------------------------------------------------
# Node dispatch
# ---------------------------------------------------------------------------
def test_node_routes_home_kinds_to_home():
    machine = tiny_machine()
    node = machine.nodes[0]
    before = node.home.c_requests.value
    node.deliver(Message(MessageKind.GETS, src=1, dst=0, addr=0x0, txn_id=1))
    assert node.home.c_requests.value == before + 1


def test_node_routes_every_kind_to_one_controller():
    """The node's table merges its controllers' routes: no kind may be
    claimed twice (the merge would silently keep one) or by nobody."""
    node = tiny_machine().nodes[0]
    cache_kinds = set(node.cache.routes())
    home_kinds = set(node.home.routes())
    assert not cache_kinds & home_kinds
    node_kinds = {MessageKind.VALIDATE_READY, MessageKind.RPCN_BROADCAST}
    assert cache_kinds | home_kinds | node_kinds == set(MessageKind)


def test_node_routes_cache_kinds_to_cache():
    machine = tiny_machine()
    node = machine.nodes[1]
    # A stale data response for a transaction we never opened: the cache
    # must ignore it quietly (post-recovery hygiene).
    node.deliver(Message(MessageKind.DATA, src=0, dst=1, addr=0x40,
                         txn_id=999, data=1, grant="S"))
    assert node.cache.lookup(0x40) is None


def test_only_controller_node_accepts_validate_ready():
    machine = tiny_machine()
    non_controller = machine.nodes[2]
    with pytest.raises(RuntimeError, match="service-controller"):
        non_controller.deliver(
            Message(MessageKind.VALIDATE_READY, src=1, dst=2, ack_count=3)
        )


def test_rpcn_broadcast_applies_to_all_components():
    machine = tiny_machine()
    node = machine.nodes[3]
    node.cache.ccn = node.home.ccn = node.core.ccn = 5
    node.core.snapshots[5] = (0, tuple([0] * 8))
    node.deliver(Message(MessageKind.RPCN_BROADCAST, src=0, dst=3, ack_count=4))
    assert node.cache.rpcn == 4
    assert node.home.rpcn == 4
    assert node.core.rpcn == 4


def test_machine_memory_value_prefers_owner_cache():
    machine = tiny_machine()
    from tests.conftest import Driver
    d = Driver(machine)
    d.access(2, 0x200, is_store=True, value=777)
    assert machine.memory_value(0x200) == 777
    home = machine.nodes[machine.home_of(0x200)].home
    assert home.value_of(0x200) != 777  # memory is stale; owner has truth
