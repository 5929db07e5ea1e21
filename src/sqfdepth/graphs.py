"""Simple graphs, edge ideals, and independence/cover combinatorics.

A vertex cover is a transversal of the edges, so the minimal vertex covers
are the minimal primes of the edge ideal and the maximal independent sets
are their complements; both come from the one minimal-transversal search in
:mod:`sqfdepth.ideals`, run on the edge masks without building an ideal.
The depth of a tree's edge ideal equals the minimum size of a maximal
independent set, so this module also carries that formula plus uniform
random labeled trees via Prufer sequences for stress tests.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NotATree, ParseError
from .ideals import Ideal, _indices_from_mask, _integer, _minimal_transversals, _parse_listing

@dataclass(frozen=True)
class Graph:
    """Simple graph on vertices 1..n_vertices with a frozenset of (a, b) edges, a < b.

    The constructor orders each edge; non-integers, out-of-range endpoints
    and loops raise ``ValueError``.
    """

    n_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        n = _integer(self.n_vertices, "vertex count")
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        normal = set()
        for edge in self.edges:
            try:
                a, b = (_integer(v, "endpoint") for v in edge)
            except (TypeError, ValueError):
                raise ValueError(f"edge {edge!r} is not a pair of integers") from None
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"edge ({a},{b}) out of range 1..{n}")
            normal.add((min(a, b), max(a, b)))
        object.__setattr__(self, "n_vertices", n)
        object.__setattr__(self, "edges", frozenset(normal))

    @classmethod
    def from_edges(cls, n_vertices: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return cls(n_vertices, edges)

    def adjacency_masks(self) -> list[int]:
        """Neighbor bitmask per vertex, index 0 = vertex 1."""
        adj = [0] * self.n_vertices
        for a, b in self.edges:
            adj[a - 1] |= 1 << (b - 1)
            adj[b - 1] |= 1 << (a - 1)
        return adj

    # -- text format -------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"v={self.n_vertices}"]
        lines.extend(f"{a} {b}" for a, b in sorted(self.edges))
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "Graph":
        """Parse the graph text format: `v=<count>` header, one edge `i j` per line."""
        n, rows = _parse_listing(text, "v", "vertex")
        for lineno, line, ends in rows:
            if len(ends) != 2:
                raise ParseError(f"line {lineno}: expected an edge 'i j', got {line!r}")
        try:
            return cls.from_edges(n, [ends for _, _, ends in rows])
        except ValueError as exc:
            raise ParseError(str(exc)) from None


def edge_ideal(graph: Graph) -> Ideal:
    """The ideal generated by x_i*x_j over the edges; zero for an edgeless graph."""
    return Ideal.from_supports(list(graph.edges), graph.n_vertices)


def _cover_masks(graph: Graph) -> list[int]:
    """The minimal transversals of the edges, descending: ascending complements."""
    edges = sorted(1 << (a - 1) | 1 << (b - 1) for a, b in graph.edges)
    return _minimal_transversals(edges, graph.n_vertices)[::-1]


def maximal_independent_sets(graph: Graph) -> list[frozenset[int]]:
    """All inclusion-maximal independent sets, sorted by support mask."""
    full = (1 << graph.n_vertices) - 1
    return [frozenset(_indices_from_mask(full ^ c)) for c in _cover_masks(graph)]


def minimal_vertex_covers(graph: Graph) -> list[frozenset[int]]:
    """Complements of the maximal independent sets, in the same order."""
    return [frozenset(_indices_from_mask(c)) for c in _cover_masks(graph)]


def is_tree(graph: Graph) -> bool:
    n = graph.n_vertices
    if len(graph.edges) != n - 1:
        return False
    adj = graph.adjacency_masks()
    seen = 1
    frontier = [0]
    while frontier:
        v = frontier.pop()
        rem = adj[v] & ~seen
        while rem:
            w = rem & -rem
            seen |= w
            frontier.append(w.bit_length() - 1)
            rem ^= w
    return seen == (1 << n) - 1


def independence_domination(graph: Graph) -> int:
    """Minimum size of a maximal independent set: n minus the largest minimal cover."""
    return graph.n_vertices - max(c.bit_count() for c in _cover_masks(graph))


def tree_depth_via_lemma(tree: Graph, free_vars: int = 0) -> int:
    """depth(S/I(T)) for a tree T, plus one per ambient variable not in T."""
    if free_vars < 0:
        raise ValueError("free_vars must be nonnegative")
    if not is_tree(tree):
        raise NotATree("tree depth formula applies to trees only")
    return independence_domination(tree) + free_vars


def tree_from_pruefer(seq: Sequence[int], n_vertices: int) -> Graph:
    """Decode a Prufer sequence of length n-2 into a labeled tree on 1..n."""
    n = n_vertices
    if n < 2:
        raise ValueError("Prufer decoding needs at least two vertices")
    if len(seq) != n - 2:
        raise ValueError(f"sequence length must be {n - 2}")
    degree = [1] * (n + 1)
    for x in seq:
        if not 1 <= x <= n:
            raise ValueError(f"sequence entry {x} out of range 1..{n}")
        degree[x] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph.from_edges(n, edges)


def random_tree(n_vertices: int, rng: np.random.Generator) -> Graph:
    """Uniform random labeled tree via a random Prufer sequence."""
    if n_vertices == 1:
        return Graph.from_edges(1, [])
    seq = rng.integers(1, n_vertices + 1, size=max(0, n_vertices - 2))
    return tree_from_pruefer([int(x) for x in seq], n_vertices)
