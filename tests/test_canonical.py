"""The search's canonical form against a graph-isomorphism oracle.

Two ideals on the same ambient are relabelings of each other exactly when
their variable-generator incidence graphs are isomorphic with variables
mapped to variables.  ``networkx`` decides that independently; it is a test
dependency only.
"""

import itertools

import numpy as np
import pytest

from oracles import random_test_ideal, relabel_ideal
from sqfdepth import search
from sqfdepth.betti import depth
from sqfdepth.family import build_family
from sqfdepth.ideals import Ideal
from sqfdepth.search import SearchConfig, canonical_relabeling_key, random_ideal, scan

nx = pytest.importorskip("networkx")


def incidence_graph(ideal: Ideal):
    graph = nx.Graph()
    graph.add_nodes_from((("x", v) for v in range(ideal.ambient_n)), side="x")
    for mask in ideal.masks:
        graph.add_node(("g", mask), side="g")
        graph.add_edges_from(
            (("g", mask), ("x", v)) for v in range(ideal.ambient_n) if mask >> v & 1
        )
    return graph


def isomorphic(a: Ideal, b: Ideal) -> bool:
    return a.ambient_n == b.ambient_n and nx.is_isomorphic(
        incidence_graph(a),
        incidence_graph(b),
        node_match=lambda u, v: u["side"] == v["side"],
    )


def shuffled(ideal: Ideal, rng: np.random.Generator) -> Ideal:
    n = ideal.ambient_n
    perm = rng.permutation(n)
    return relabel_ideal(ideal, {i + 1: int(perm[i]) + 1 for i in range(n)})


def edge_ideal(n: int, edges) -> Ideal:
    return Ideal.from_supports([list(e) for e in edges], n)


def cycle(n: int, start: int = 1) -> list:
    return [(start + i, start + (i + 1) % n) for i in range(n)]


def assert_keys_match_isomorphism(ideals: list[Ideal]) -> None:
    """Equal keys if and only if isomorphic, over every pair on one ambient."""
    keys = [canonical_relabeling_key(ideal) for ideal in ideals]
    for (a, ka), (b, kb) in itertools.combinations(zip(ideals, keys), 2):
        if a.ambient_n == b.ambient_n:
            assert (ka == kb) == isomorphic(a, b), (a, b)


HARD_SYMMETRIC = {
    "K8": edge_ideal(8, itertools.combinations(range(1, 9), 2)),
    "C14": edge_ideal(14, cycle(14)),
    "K77 minus a perfect matching": edge_ideal(
        14, [(a, 7 + b) for a in range(1, 8) for b in range(1, 8) if a != b]
    ),
    "complete 3-uniform on 8": Ideal.from_supports(
        [list(c) for c in itertools.combinations(range(1, 9), 3)], 8
    ),
    "family(14)": build_family(14),
}


class TestAgainstIsomorphism:
    def test_random_ideals_under_relabeling(self):
        rng = np.random.default_rng(2014)
        for n in range(1, 15):
            for _ in range(6):
                ideal = random_test_ideal(rng, n, max_degree=min(n, 4), max_gens=8)
                key = canonical_relabeling_key(ideal)
                for _ in range(4):
                    assert canonical_relabeling_key(shuffled(ideal, rng)) == key

    def test_random_ideals_pairwise(self):
        # small ideals collide often, so both directions are exercised
        rng = np.random.default_rng(1998)
        ideals = []
        for n in range(1, 15):
            for _ in range(12):
                ideal = random_test_ideal(rng, n, max_degree=3, max_gens=1 + n // 3)
                ideals += [ideal, shuffled(ideal, rng)]
        assert_keys_match_isomorphism(ideals)
        distinct = {(i.ambient_n, canonical_relabeling_key(i)) for i in ideals}
        assert 60 < len(distinct) < len(ideals) / 2

    def test_powers_of_random_ideals_pairwise(self):
        rng = np.random.default_rng(7)
        cfg = SearchConfig(ambient_n=7, seed=3, sample_count=1, gen_degree=2, gen_count=6)
        powers = []
        for i in range(25):
            ideal = random_ideal(cfg, i)
            for k in range(1, ideal.nu() + 1):
                power = ideal.squarefree_power(k)
                powers += [power, shuffled(power, rng)]
        assert_keys_match_isomorphism(powers)

    @pytest.mark.parametrize("name", sorted(HARD_SYMMETRIC))
    def test_hard_symmetric_inputs(self, name):
        rng = np.random.default_rng(8)
        ideal = HARD_SYMMETRIC[name]
        key = canonical_relabeling_key(ideal)
        for _ in range(3):
            assert canonical_relabeling_key(shuffled(ideal, rng)) == key
        # one generator moved: a different ideal, usually not isomorphic
        gens = [list(g.indices) for g in ideal.gens]
        free = next(v for v in range(1, ideal.ambient_n + 1) if v not in gens[0])
        moved = Ideal.from_supports([gens[0][:-1] + [free]] + gens[1:], ideal.ambient_n)
        square = ideal.squarefree_power(2)
        assert_keys_match_isomorphism([ideal, shuffled(ideal, rng), moved, square])

    def test_pairs_colour_refinement_cannot_split(self):
        # regular graphs with equal degrees: refinement alone sees no difference
        pairs = [
            (edge_ideal(6, cycle(6)), edge_ideal(6, cycle(3) + cycle(3, 4))),
            (edge_ideal(14, cycle(14)), edge_ideal(14, cycle(7) + cycle(7, 8))),
            (
                edge_ideal(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]),
                edge_ideal(6, cycle(3) + cycle(3, 4) + [(1, 4), (2, 5), (3, 6)]),
            ),
        ]
        rng = np.random.default_rng(9)
        for a, b in pairs:
            assert_keys_match_isomorphism([a, b, shuffled(a, rng), shuffled(b, rng)])
            assert canonical_relabeling_key(a) != canonical_relabeling_key(b)

    def test_regular_graphs_need_branching(self):
        # no refinement splits a regular graph, and these mix vertices of
        # different orbits in one cell, so the search must branch and compare
        graphs = [
            edge_ideal(7, cycle(3) + cycle(4, 4)),
            edge_ideal(12, cycle(3) + cycle(4, 4) + cycle(5, 8)),
            edge_ideal(12, cycle(6) + cycle(3, 7) + cycle(3, 10)),
            edge_ideal(12, cycle(5) + cycle(7, 6)),
        ]
        for n, d, seed in [(8, 3, 1), (10, 3, 2), (10, 3, 3), (12, 3, 4), (12, 3, 5),
                           (14, 3, 6), (14, 3, 7), (9, 4, 8), (12, 4, 9), (12, 5, 10)]:
            regular = nx.random_regular_graph(d, n, seed=seed)
            graphs.append(edge_ideal(n, [(a + 1, b + 1) for a, b in regular.edges]))
        rng = np.random.default_rng(10)
        for ideal in graphs:
            key = canonical_relabeling_key(ideal)
            for _ in range(4):
                assert canonical_relabeling_key(shuffled(ideal, rng)) == key
        assert_keys_match_isomorphism(graphs)


def test_scan_computes_each_orbit_of_powers_once(monkeypatch):
    fam = build_family(8)
    rng = np.random.default_rng(11)
    cfg = SearchConfig(
        ambient_n=8, seed=1, sample_count=40, gen_degree=3, gen_count=5,
        primes=(2, 3), inject=(fam, shuffled(fam, rng)),
    )
    calls = []

    def counted(power, field):
        calls.append((power, field.characteristic))
        return depth(power, field)

    monkeypatch.setattr(search, "depth", counted)
    scan(cfg)
    ideals = list(cfg.inject) + [random_ideal(cfg, i) for i in range(cfg.sample_count)]
    # a sample with nu = 1 is counted without a profile, so no depth
    powers = [i.squarefree_power(k) for i in ideals if i.nu() >= 2 for k in range(1, i.nu() + 1)]
    orbits = []  # one representative per isomorphism class, by the oracle
    for power in powers:
        if not any(isomorphic(power, rep) for rep in orbits):
            orbits.append(power)
    for p in cfg.primes:
        computed = [power for power, q in calls if q == p]
        assert len(computed) == len(orbits) < len(powers)
        for rep in orbits:
            assert sum(isomorphic(rep, power) for power in computed) == 1
