"""2D torus topology with half-switches.

Per the paper's failed-switch fault model (Table 1 and Fig. 2), each node's
switch is split into an east-west half (X-dimension ring links) and a
north-south half (Y-dimension ring links), and the node has separate
injection paths to both halves.  Killing one half-switch therefore never
partitions the machine: traffic can be routed Y-first (or around the ring)
instead.

Every vertex is numbered once, when the topology is built: node endpoints
are ``0 .. N-1`` and half-switches ``N .. 3N-1`` (each node's ``ew`` half,
then its ``ns`` half), so "is a switch" is ``v >= N``.  Every directed link
of the healthy torus gets a dense id ``0 .. num_links-1``.  A kill only
marks a vertex dead, so the ids — and any per-link or per-vertex state
indexed by them — stay valid across faults.  ``HalfSwitchId`` and the
``("node", id)`` / ``("sw", half)`` vertex tuples remain the public names.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple


@dataclass(frozen=True)
class HalfSwitchId:
    """Identifies one half-switch: ('ew'|'ns', x, y)."""

    plane: str  # "ew" or "ns"
    x: int
    y: int

    def __post_init__(self) -> None:
        if self.plane not in ("ew", "ns"):
            raise ValueError(f"plane must be 'ew' or 'ns', got {self.plane!r}")

    def __repr__(self) -> str:
        return f"{self.plane}({self.x},{self.y})"


# Public vertices are either ("node", node_id) endpoints or
# ("sw", HalfSwitchId) half-switches.
Vertex = Tuple[str, object]


def node_vertex(node_id: int) -> Vertex:
    return ("node", node_id)


def switch_vertex(half: HalfSwitchId) -> Vertex:
    return ("sw", half)


class TorusTopology:
    """Numbers and connects the half-switch torus, and tracks dead switches.

    Links are undirected for path computation; the network layer models
    each as two directed links with independent occupancy (two link ids).
    """

    def __init__(self, width: int, height: int) -> None:
        if width < 2 or height < 2:
            raise ValueError("torus must be at least 2x2")
        self.width = width
        self.height = height
        n = width * height
        self.num_vertices = 3 * n
        #: Public name of every vertex id.
        self.vertices: List[Vertex] = [node_vertex(i) for i in range(n)]
        for i in range(n):
            for plane in ("ew", "ns"):
                self.vertices.append(switch_vertex(
                    HalfSwitchId(plane, i % width, i // width)))
        #: Neighbours of every vertex on the healthy torus, in route
        #: tie-break order (see :meth:`_build_adjacency`).
        self.adjacency: List[Tuple[int, ...]] = self._build_adjacency()
        self._link_ids: Dict[Tuple[int, int], int] = {}
        for u, neighbours in enumerate(self.adjacency):
            for v in neighbours:
                self._link_ids[(u, v)] = len(self._link_ids)
        self.num_links = len(self._link_ids)
        #: Per-vertex dead flags (only half-switches die).  Mutated in
        #: place, so holders of this list always see the current state.
        self.dead: List[bool] = [False] * self.num_vertices
        self._dead: Set[HalfSwitchId] = set()

    # ------------------------------------------------------------------
    # Coordinates and numbering
    # ------------------------------------------------------------------
    def node_id(self, x: int, y: int) -> int:
        return y * self.width + x

    def coords(self, node_id: int) -> Tuple[int, int]:
        return node_id % self.width, node_id // self.width

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def all_half_switches(self) -> Iterator[HalfSwitchId]:
        for y in range(self.height):
            for x in range(self.width):
                yield HalfSwitchId("ew", x, y)
                yield HalfSwitchId("ns", x, y)

    def switch_id(self, half: HalfSwitchId) -> int:
        """Vertex id of ``half``; ValueError if it lies outside the torus."""
        if not (0 <= half.x < self.width and 0 <= half.y < self.height):
            raise ValueError(
                f"half-switch {half} is outside the "
                f"{self.width}x{self.height} torus")
        return (self.num_nodes + 2 * self.node_id(half.x, half.y)
                + (half.plane == "ns"))

    def link_id(self, u: int, v: int) -> int:
        """Id of the directed link ``u -> v`` (vertex ids)."""
        return self._link_ids[(u, v)]

    def _vertex_id(self, vertex: Vertex) -> int:
        kind, ident = vertex
        if kind == "sw":
            return self.switch_id(ident)
        if kind == "node" and 0 <= ident < self.num_nodes:
            return ident
        raise ValueError(f"{vertex!r} is not a vertex of this torus")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_adjacency(self) -> List[Tuple[int, ...]]:
        """Neighbour lists of the healthy torus, in route tie-break order.

        Links are laid node by node (injection into both halves, then the
        crossover between them) and then ring by ring.  Each vertex lists
        its neighbours in the order its links are first reached when the
        vertices are walked in build order (each node, then its ew and ns
        halves), each vertex's links in the order they were laid.
        Shortest-path routing breaks equal-distance ties by push order,
        so this order picks between equal-length ring directions; the
        route golden (``tests/data/route_golden.json``) pins the result.
        """
        w, h, n = self.width, self.height, self.num_nodes
        laid: List[List[int]] = [[] for _ in range(3 * n)]

        def lay(u: int, v: int) -> None:
            if v not in laid[u]:  # a 2-wide ring lays its one link twice
                laid[u].append(v)
                laid[v].append(u)

        for i in range(n):
            ew, ns = n + 2 * i, n + 2 * i + 1
            lay(i, ew)
            lay(i, ns)
            lay(ew, ns)
        for y in range(h):
            for x in range(w):
                i = y * w + x
                lay(n + 2 * i, n + 2 * (y * w + (x + 1) % w))
                lay(n + 2 * i + 1, n + 2 * (((y + 1) % h) * w + x) + 1)
        order = [v for i in range(n) for v in (i, n + 2 * i, n + 2 * i + 1)]
        rank = [0] * (3 * n)
        for r, v in enumerate(order):
            rank[v] = r
        adjacency: List[List[int]] = [[] for _ in range(3 * n)]
        for u in order:
            for v in laid[u]:
                if rank[v] > rank[u]:
                    adjacency[u].append(v)
                    adjacency[v].append(u)
        return [tuple(neighbours) for neighbours in adjacency]

    # ------------------------------------------------------------------
    # Fault support
    # ------------------------------------------------------------------
    def kill_half_switch(self, half: HalfSwitchId) -> None:
        """Permanently remove a half-switch (the paper's hard fault).
        Raises ValueError for a half-switch outside the torus."""
        self.dead[self.switch_id(half)] = True
        self._dead.add(half)

    def is_dead(self, half: HalfSwitchId) -> bool:
        return half in self._dead

    @property
    def dead_switches(self) -> Set[HalfSwitchId]:
        return set(self._dead)

    def has_link(self, u: Vertex, v: Vertex) -> bool:
        """True if public vertices ``u`` and ``v`` are joined by a link of
        the surviving torus."""
        try:
            a, b = self._vertex_id(u), self._vertex_id(v)
        except ValueError:
            return False
        return (not self.dead[a] and not self.dead[b]
                and b in self.adjacency[a])

    def is_connected(self) -> bool:
        """True if every pair of nodes can still communicate."""
        reached = [False] * self.num_vertices
        reached[0] = True
        frontier = deque([0])
        while frontier:
            for u in self.adjacency[frontier.popleft()]:
                if not reached[u] and not self.dead[u]:
                    reached[u] = True
                    frontier.append(u)
        return all(reached[:self.num_nodes])
