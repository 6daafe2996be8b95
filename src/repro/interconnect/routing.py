"""Routing tables for the half-switch torus.

Fault-free routing is dimension-order (X on the east-west plane, then a
crossover to the north-south plane, then Y), which the shortest-path
computation on the half-switch graph produces naturally because the
edge weights bias the EW plane first.  After a half-switch dies, the
tables are recomputed on the surviving graph — the paper's
"reconfiguring the interconnect to route around the lost switch".

Routes are kept in the topology's integer numbering: each (src, dst)
pair stores its vertex-id tuple and the link-id tuple of its hops, which
is what the network walks per hop.  :meth:`RoutingTable.path` and
:meth:`RoutingTable.switches_on_path` translate back to public vertices.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Optional, Tuple

from repro.interconnect.topology import (
    HalfSwitchId,
    TorusTopology,
    Vertex,
    node_vertex,
)

#: (vertex ids, link ids) of one route; ``len(links) == len(vertices) - 1``.
Route = Tuple[Tuple[int, ...], Tuple[int, ...]]


class RoutingError(RuntimeError):
    """Raised when no route exists between two endpoints."""


class RoutingTable:
    """Precomputed full paths between every pair of node endpoints.

    ``path(src, dst)`` returns the vertex tuple from the source node
    endpoint to the destination node endpoint (inclusive).  Recomputed on
    demand after topology changes via :meth:`recompute`.
    """

    # Edge-weight bias: prefer entering the EW plane first so fault-free
    # routes match classic X-then-Y dimension-order routing.
    _EW_BIAS = 0.0001

    def __init__(self, topology: TorusTopology) -> None:
        self._topology = topology
        # Injection into the NS plane and NS ring hops cost epsilon more,
        # so ties resolve to X-first routes (dimension order).  A link's
        # weight is 1.0 plus the bias once per NS endpoint, summed left to
        # right: the float sums decide which distances tie exactly.
        weight = (1.0, 1.0 + self._EW_BIAS,
                  1.0 + self._EW_BIAS + self._EW_BIAS)
        n = topology.num_nodes
        is_ns = [v >= n and (v - n) % 2 == 1
                 for v in range(topology.num_vertices)]
        #: Per vertex: (neighbour, link weight, link id), in tie-break order.
        self._edges: List[Tuple[Tuple[int, float, int], ...]] = [
            tuple((v, weight[is_ns[u] + is_ns[v]], topology.link_id(u, v))
                  for v in neighbours)
            for u, neighbours in enumerate(topology.adjacency)
        ]
        self._routes: Dict[Tuple[int, int], Route] = {}
        self.recompute()

    def recompute(self) -> None:
        """Rebuild all node-to-node routes on the current (surviving) graph."""
        n = self._topology.num_nodes
        routes: Dict[Tuple[int, int], Route] = {}
        for src in range(n):
            pred, pred_link = self._shortest_path_tree(src)
            for dst in range(n):
                if src == dst:
                    continue
                if pred[dst] is None:
                    raise RoutingError(
                        f"no route {src}->{dst}; torus partitioned "
                        f"(dead: {self._topology.dead_switches})"
                    )
                vertices = [dst]
                links = []
                v = dst
                while v != src:
                    links.append(pred_link[v])
                    v = pred[v]
                    vertices.append(v)
                vertices.reverse()
                links.reverse()
                routes[(src, dst)] = (tuple(vertices), tuple(links))
        self._routes = routes

    def _shortest_path_tree(
            self, src: int) -> Tuple[List[Optional[int]], List[int]]:
        """Dijkstra from node ``src`` over the surviving vertices: each
        vertex's predecessor (None if unreachable) and the link it was
        reached by.  Ties go to the earliest push (the heap orders by
        distance, then push count), so a vertex keeps the first of its
        equal-distance routes to be found."""
        num_vertices = self._topology.num_vertices
        dead = self._topology.dead
        edges = self._edges
        settled = [False] * num_vertices
        seen: List[Optional[float]] = [None] * num_vertices
        pred: List[Optional[int]] = [None] * num_vertices
        pred_link = [0] * num_vertices
        pushes = count()
        seen[src] = 0
        pred[src] = src
        fringe = [(0, next(pushes), src)]
        while fringe:
            d, _, v = heappop(fringe)
            if settled[v]:
                continue
            settled[v] = True
            for u, weight, link in edges[v]:
                if dead[u] or settled[u]:
                    continue
                du = d + weight
                best = seen[u]
                if best is None or du < best:
                    seen[u] = du
                    heappush(fringe, (du, next(pushes), u))
                    pred[u] = v
                    pred_link[u] = link
        return pred, pred_link

    def route(self, src: int, dst: int) -> Route:
        """(vertex ids, link ids) of the route from node ``src`` to node
        ``dst`` (``src != dst``)."""
        try:
            return self._routes[(src, dst)]
        except KeyError as exc:
            raise RoutingError(f"no route {src}->{dst}") from exc

    def path(self, src: int, dst: int) -> Tuple[Vertex, ...]:
        """Full vertex path from node ``src`` to node ``dst``."""
        if src == dst:
            return (node_vertex(src),)
        vertices = self._topology.vertices
        return tuple(vertices[v] for v in self.route(src, dst)[0])

    def hop_count(self, src: int, dst: int) -> int:
        """Number of switch-to-switch hops on the route (excludes
        injection/ejection)."""
        return max(0, len(self.path(src, dst)) - 2)

    def switches_on_path(self, src: int, dst: int) -> List[HalfSwitchId]:
        return [v[1] for v in self.path(src, dst) if v[0] == "sw"]
