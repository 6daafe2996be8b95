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


def test_data_kinds_cover_every_block_carrier():
    assert MessageKind.PUTM in DATA_KINDS
    assert MessageKind.DATA_OWNER in DATA_KINDS
    assert MessageKind.FINAL_ACK not in DATA_KINDS


def test_message_ids_are_unique():
    ids = {Message(MessageKind.INV, src=0, dst=1).msg_id for _ in range(100)}
    assert len(ids) == 100


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
