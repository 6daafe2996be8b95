"""Regenerate the route golden for tests/test_route_golden.py.

Route identity is behaviour: which of two equal-length ring directions
a message takes decides link contention, and so every cycle count the
simulator reports.  The routing table's tie-break (distance, then the
order vertices were reached) is therefore pinned as data: this script
ran against the routing implementation that preceded the int-indexed
interconnect and wrote ``tests/data/route_golden.json``, which the
replay test checks forever after.

Each case is one torus shape, healthy or with one half-switch killed,
and holds a digest of every (src, dst) route in the table.  Re-run only
to *extend* the matrix (new shapes or kills), never to "refresh" a
digest after a divergence.

    PYTHONPATH=src python tests/gen_route_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import List, Optional

from repro.interconnect.routing import RoutingTable
from repro.interconnect.topology import HalfSwitchId, TorusTopology

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "route_golden.json")

#: Healthy shapes: every (src, dst) route.
SHAPES = ((2, 2), (2, 4), (3, 3), (3, 5), (4, 4), (4, 8), (8, 8))
#: Shapes whose every single half-switch kill is a case of its own.
KILL_SHAPES = ((2, 2), (3, 3), (4, 4), (4, 8))


def vertex_name(vertex) -> str:
    """``n3`` for node endpoint 3, ``ew(1,0)`` for a half-switch."""
    kind, ident = vertex
    return f"n{ident}" if kind == "node" else repr(ident)


def route_case(width: int, height: int,
               kill: Optional[HalfSwitchId] = None) -> dict:
    """Digest of the routing table of one (shape, kill) case."""
    topo = TorusTopology(width, height)
    if kill is not None:
        topo.kill_half_switch(kill)
    routing = RoutingTable(topo)
    lines: List[str] = []
    switch_hops = 0
    for src in range(topo.num_nodes):
        for dst in range(topo.num_nodes):
            if src == dst:
                continue
            names = " ".join(vertex_name(v) for v in routing.path(src, dst))
            lines.append(f"{src}>{dst}: {names}")
            switch_hops += routing.hop_count(src, dst)
    blob = "\n".join(lines).encode()
    return {
        "shape": f"{width}x{height}",
        "kill": None if kill is None else repr(kill),
        "routes": len(lines),
        "switch_hops": switch_hops,
        "digest": hashlib.sha256(blob).hexdigest()[:16],
    }


def golden_cases() -> List[dict]:
    cases = [route_case(w, h) for (w, h) in SHAPES]
    for (w, h) in KILL_SHAPES:
        for half in TorusTopology(w, h).all_half_switches():
            cases.append(route_case(w, h, half))
    return cases


def main() -> None:
    cases = golden_cases()
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"version": 1, "cases": cases}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(cases)} route cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
