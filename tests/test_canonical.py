"""The search's canonical form against a graph-isomorphism oracle.

Two ideals on the same ambient are relabelings of each other exactly when
their variable-generator incidence graphs are isomorphic with variables
mapped to variables.  ``networkx`` decides that independently; it is a test
dependency only.  The public key takes a table route up to five generators
and the refinement search above; the oracle tests run on the public key and
on the search alone, so the search stays covered on the small ideals too.
"""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

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


def assert_keys_match_isomorphism(key, ideals: list[Ideal]) -> None:
    """Equal keys if and only if isomorphic, over every pair on one ambient."""
    keys = [key(ideal) for ideal in ideals]
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


def ideal_with_gens(rng: np.random.Generator, n: int, m: int) -> Ideal:
    """m distinct supports of one random degree, or as many as n allows."""
    m = min(m, math.comb(n, n // 2))
    d = int(rng.choice([d for d in range(1, min(n, 4) + 1) if math.comb(n, d) >= m]))
    supports = set()
    while len(supports) < m:
        supports.add(tuple(sorted(int(v) + 1 for v in rng.choice(n, size=d, replace=False))))
    return Ideal.from_supports([list(sup) for sup in supports], n)


def is_relabeling(key: tuple[int, ...], ideal: Ideal) -> bool:
    """Whether some permutation of the variables maps the ideal onto ``key``, by brute force."""
    n = ideal.ambient_n
    supports = [[v for v in range(n) if mask >> v & 1] for mask in ideal.masks]
    target = sorted(key)
    return any(
        sorted(sum(1 << perm[v] for v in sup) for sup in supports) == target
        for perm in itertools.permutations(range(n))
    )


AT_THE_CUT = {
    "isolated variables": Ideal.from_supports([[1, 2], [2, 3], [3, 4], [1, 4], [1, 3]], 10),
    "single generator": Ideal.from_supports([[2, 5, 7]], 9),
    "all twins": Ideal.from_supports([[1, 2]], 10),
    "repeated columns": Ideal.from_supports(
        [[1, 2, 3, 7], [1, 2, 4, 8], [3, 4, 5, 6], [5, 6, 7, 8], [1, 2, 5, 6]], 11
    ),
    "repeated columns, six generators": Ideal.from_supports(
        [[1, 2, 3], [1, 2, 4], [3, 4, 5, 6], [5, 6, 7], [7, 8, 9], [8, 9, 1]], 12
    ),
    "one variable in every generator": Ideal.from_supports(
        [[1, v, v + 1] for v in range(2, 12, 2)], 13
    ),
}


class TestAgainstIsomorphism:
    key = staticmethod(canonical_relabeling_key)

    def test_random_ideals_under_relabeling(self):
        rng = np.random.default_rng(2014)
        for n in range(1, 15):
            for _ in range(6):
                ideal = random_test_ideal(rng, n, max_degree=min(n, 4), max_gens=8)
                key = self.key(ideal)
                for _ in range(4):
                    assert self.key(shuffled(ideal, rng)) == key

    def test_random_ideals_pairwise(self):
        # small ideals collide often, so both directions are exercised
        rng = np.random.default_rng(1998)
        ideals = []
        for n in range(1, 15):
            for _ in range(12):
                ideal = random_test_ideal(rng, n, max_degree=3, max_gens=1 + n // 3)
                ideals += [ideal, shuffled(ideal, rng)]
        assert_keys_match_isomorphism(self.key, ideals)
        distinct = {(i.ambient_n, self.key(i)) for i in ideals}
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
        assert_keys_match_isomorphism(self.key, powers)

    @pytest.mark.parametrize("name", sorted(HARD_SYMMETRIC))
    def test_hard_symmetric_inputs(self, name):
        rng = np.random.default_rng(8)
        ideal = HARD_SYMMETRIC[name]
        key = self.key(ideal)
        for _ in range(3):
            assert self.key(shuffled(ideal, rng)) == key
        # one generator moved: a different ideal, usually not isomorphic
        gens = [list(g.indices) for g in ideal.gens]
        free = next(v for v in range(1, ideal.ambient_n + 1) if v not in gens[0])
        moved = Ideal.from_supports([gens[0][:-1] + [free]] + gens[1:], ideal.ambient_n)
        square = ideal.squarefree_power(2)
        assert_keys_match_isomorphism(self.key, [ideal, shuffled(ideal, rng), moved, square])

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
            assert_keys_match_isomorphism(self.key, [a, b, shuffled(a, rng), shuffled(b, rng)])
            assert self.key(a) != self.key(b)

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
            key = self.key(ideal)
            for _ in range(4):
                assert self.key(shuffled(ideal, rng)) == key
        assert_keys_match_isomorphism(self.key, graphs)

    def test_random_ideals_at_the_cut(self):
        # five generators take the table route of the public key, six the search
        rng = np.random.default_rng(2023)
        for n in range(1, 15):
            ideals = []
            for m in (5, 6):
                for _ in range(3):
                    ideal = ideal_with_gens(rng, n, m)
                    ideals += [ideal, shuffled(ideal, rng)]
            widest = math.comb(n, n // 2)
            assert {len(ideal.masks) for ideal in ideals} == {min(5, widest), min(6, widest)}
            keys = [self.key(ideal) for ideal in ideals]
            assert keys[0::2] == keys[1::2]
            assert_keys_match_isomorphism(self.key, ideals)

    @pytest.mark.parametrize("name", sorted(AT_THE_CUT))
    def test_special_inputs_at_the_cut(self, name):
        rng = np.random.default_rng(12)
        ideal = AT_THE_CUT[name]
        key = self.key(ideal)
        for _ in range(4):
            assert self.key(shuffled(ideal, rng)) == key
        others = [value for value in AT_THE_CUT.values() if value.ambient_n == ideal.ambient_n]
        gens = [[v + 1 for v in range(ideal.ambient_n) if mask >> v & 1] for mask in ideal.masks]
        grown = Ideal.from_supports(gens[:-1] + [gens[-1] + [ideal.ambient_n]], ideal.ambient_n)
        assert_keys_match_isomorphism(self.key, [ideal, shuffled(ideal, rng), grown] + others)

    def test_key_is_a_relabeling(self):
        # the key is the canonical masks of an ideal with the same degrees,
        # and below eight variables a permutation maps the ideal onto it
        rng = np.random.default_rng(1960)
        ideals = list(AT_THE_CUT.values())
        for n in range(1, 15):
            for m in (1, 3, 5, 6):
                ideals.append(ideal_with_gens(rng, n, m))
        for ideal in ideals:
            key = self.key(ideal)
            assert Ideal(ideal.ambient_n, key).masks == key
            degrees = sorted(mask.bit_count() for mask in ideal.masks)
            assert sorted(mask.bit_count() for mask in key) == degrees
            if ideal.ambient_n <= 7:
                assert is_relabeling(key, ideal), ideal


class TestSearchAgainstIsomorphism(TestAgainstIsomorphism):
    """The same oracle tests on the refinement search, whatever the generator count."""

    key = staticmethod(search._search_key)


def test_routes_split_ideals_alike():
    # table keys and search keys are different relabelings, but they must
    # put the same ideals together
    rng = np.random.default_rng(8400)
    pairs = set()
    for n in range(1, 15):
        for _ in range(300):
            ideal = random_test_ideal(rng, n, max_degree=min(n, 4), max_gens=5)
            for each in (ideal, shuffled(ideal, rng)):
                assert len(each.masks) <= search._TABLE_GENERATORS
                pairs.add((n, search._table_key(each), search._search_key(each)))
    tables = {(n, table) for n, table, _ in pairs}
    searches = {(n, found) for n, _, found in pairs}
    assert len(pairs) == len(tables) == len(searches)
    assert 500 < len(pairs) < 14 * 300  # classes are many, and most are met twice


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
    # a power with at most five generators has one depth over every field:
    # the first prime computes it for both, and the second only the rest
    wide = [rep for rep in orbits if len(rep.masks) > search._TORSION_FREE_VERTICES]
    assert 0 < len(wide) < len(orbits) < len(powers)
    for p, expected in zip(cfg.primes, (orbits, wide)):
        computed = [power for power, q in calls if q == p]
        assert len(computed) == len(expected)
        for rep in expected:
            assert sum(isomorphic(rep, power) for power in computed) == 1


def test_scan_is_byte_equal_across_the_cut(tmp_path, monkeypatch, fresh_memos):
    # samples with 4..7 generators and the 7-generator family(8) key on both
    # sides of the cut; keying every ideal by the search changes no output byte
    fam = build_family(8)
    cfg = SearchConfig(
        ambient_n=8, seed=19, sample_count=400, gen_degree=3, gen_count=(4, 7),
        primes=(2, 3), inject=(fam, shuffled(fam, np.random.default_rng(19))),
    )
    assert len(fam.masks) > search._TABLE_GENERATORS
    counts = []
    key = search.canonical_relabeling_key

    def counted(ideal):
        counts.append(len(ideal.masks))
        return key(ideal)

    runs = []
    for route in (counted, search._search_key):
        fresh_memos()  # the forms are cached for the process: key every ideal anew
        monkeypatch.setattr(search, "canonical_relabeling_key", route)
        log = tmp_path / f"{route.__name__}.jsonl"
        result = scan(cfg, log_path=str(log))
        findings = json.dumps([f.to_json_dict() for f in result.findings])
        runs.append((json.dumps(result.summary), findings, log.read_bytes()))
    assert runs[0] == runs[1]
    assert min(counts) <= search._TABLE_GENERATORS < max(counts)
    assert json.loads(runs[0][0])["findings_unique"] >= 1


def test_import_and_family_runs_build_no_table():
    # the table is built on the first key with few generators, so a fresh
    # interpreter pays nothing for it until it keys one
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sqfdepth\n"
        "from sqfdepth import search\n"
        "built = search._generator_orders.cache_info().currsize\n"
        "sqfdepth.verify_theorem(8)\n"
        "print(built, search._generator_orders.cache_info().currsize)\n"
        "search.canonical_relabeling_key(sqfdepth.build_family(8).squarefree_power(2))\n"
        "print(search._generator_orders.cache_info().currsize)\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    assert run.stdout.split() == ["0", "0", "1"]
