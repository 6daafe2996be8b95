"""Route identity: the routing table replays its committed golden.

``tests/data/route_golden.json`` (written by tests/gen_route_golden.py
before the interconnect moved to integer ids) holds a digest of every
(src, dst) route on seven torus shapes, and after every single
half-switch kill on four of them.  Equal-length ring directions are
common on even-sized tori, so the tie-break order alone decides many of
these routes — and with them every contention figure downstream.
"""

import json

import pytest

from repro.interconnect.topology import HalfSwitchId
from tests.gen_route_golden import GOLDEN_PATH, route_case

with open(GOLDEN_PATH, encoding="utf-8") as _fh:
    GOLDEN_CASES = json.load(_fh)["cases"]


def _case_id(case) -> str:
    return case["shape"] + (f"-kill-{case['kill']}" if case["kill"] else "")


def _parse_half(name: str) -> HalfSwitchId:
    plane, coords = name[:2], name[3:-1]
    x, y = coords.split(",")
    return HalfSwitchId(plane, int(x), int(y))


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=_case_id)
def test_routes_match_golden(case):
    width, height = (int(d) for d in case["shape"].split("x"))
    kill = _parse_half(case["kill"]) if case["kill"] else None
    assert route_case(width, height, kill) == case
