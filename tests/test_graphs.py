"""Graphs, edge ideals, independence/cover duality, trees."""

import itertools

import numpy as np
import pytest

from oracles import maximal_independent_sets_brute, minimal_transversals_brute
from sqfdepth.betti import depth
from sqfdepth.errors import NotATree, ParseError
from sqfdepth.graphs import (
    Graph,
    edge_ideal,
    independence_domination,
    is_tree,
    maximal_independent_sets,
    minimal_vertex_covers,
    random_tree,
    tree_depth_via_lemma,
    tree_from_pruefer,
)
from sqfdepth.homology import FieldSpec
from sqfdepth.ideals import Ideal

F2 = FieldSpec(2)
F3 = FieldSpec(3)

# tree whose edge ideal equals the colon of the n=6 family member by x3,
# with the removed variable relabeled away (order preserved)
COLON_TREE5 = Graph.from_edges(5, [(2, 3), (2, 5), (1, 4), (1, 5)])


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def random_graph(rng, n, p=0.4):
    edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


class TestGraphBasics:
    def test_normalizes_edges(self):
        g = Graph.from_edges(3, [(2, 1), (3, 2)])
        assert g.edges == frozenset({(1, 2), (2, 3)})

    def test_rejects_loops_and_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 4)])

    def test_constructor_canonicalizes(self):
        # the dataclass constructor and from_edges are one path
        g = Graph(3, {(2, 1)})
        assert g == Graph.from_edges(3, [(1, 2)]) and g.to_text() == "v=3\n1 2\n"
        h = Graph(np.int64(4), [(np.int64(4), 2)])
        assert h.to_text() == "v=4\n2 4\n"
        assert type(h.n_vertices) is int and all(type(v) is int for e in h.edges for v in e)

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (3, {(1, 1)}, "loop at vertex 1"),
            (3, [(1, 4)], r"edge \(1,4\) out of range 1..3"),
            (3, [(0, 2)], r"edge \(0,2\) out of range 1..3"),
            (2.5, (), "vertex count 2.5 is not an integer"),
            (0, (), "at least one vertex"),
            (3, [(1, 2.5)], r"edge \(1, 2.5\) is not a pair of integers"),
            (3, [(1, 2, 3)], "is not a pair of integers"),
            (3, [(1,)], "is not a pair of integers"),
        ],
    )
    def test_refusals(self, n, edges, message):
        with pytest.raises(ValueError, match=message):
            Graph(n, edges)
        with pytest.raises(ValueError, match=message):
            Graph.from_edges(n, edges)

    def test_text_round_trip(self):
        g = Graph.from_edges(4, [(1, 2), (3, 4), (2, 3)])
        assert Graph.parse(g.to_text()) == g
        assert Graph.parse(g.to_text()).to_text() == g.to_text()

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            Graph.parse("1 2\n")
        with pytest.raises(ParseError):
            Graph.parse("v=3\n1\n")
        with pytest.raises(ParseError):
            Graph.parse("v=3\n1 z\n")
        with pytest.raises(ParseError):
            Graph.parse("v=3\n1 5\n")


class TestEdgeIdeal:
    def test_single_edge(self):
        assert edge_ideal(Graph.from_edges(2, [(1, 2)])) == Ideal.from_supports([[1, 2]], 2)

    def test_three_cycle(self):
        g = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
        assert edge_ideal(g) == Ideal.from_supports([[1, 2], [1, 3], [2, 3]], 3)

    def test_colon_tree_gives_four_quadrics(self):
        want = Ideal.from_supports([[2, 3], [2, 5], [1, 4], [1, 5]], 5)
        assert edge_ideal(COLON_TREE5) == want

    def test_edgeless_graph_gives_zero_ideal(self):
        assert edge_ideal(Graph.from_edges(3, [])).is_zero


class TestIndependentSets:
    def test_path_three(self):
        got = set(maximal_independent_sets(path(3)))
        assert got == {frozenset({2}), frozenset({1, 3})}

    def test_path_four(self):
        got = set(maximal_independent_sets(path(4)))
        assert got == {frozenset({1, 3}), frozenset({1, 4}), frozenset({2, 4})}

    def test_edgeless(self):
        g = Graph.from_edges(3, [])
        assert maximal_independent_sets(g) == [frozenset({1, 2, 3})]

    def test_every_result_is_independent_and_dominating(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(1, 9)))
            adj = {v: set() for v in range(1, g.n_vertices + 1)}
            for a, b in g.edges:
                adj[a].add(b)
                adj[b].add(a)
            for u in maximal_independent_sets(g):
                assert all(not (adj[v] & u) for v in u)
                outside = set(range(1, g.n_vertices + 1)) - u
                assert all(adj[v] & u for v in outside)

    def test_branch_and_bound_matches_exhaustive(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(1, 10)))
            got = [sum(1 << (v - 1) for v in u) for u in maximal_independent_sets(g)]
            assert got == maximal_independent_sets_brute(g.adjacency_masks(), g.n_vertices)

    def test_order_on_path_five(self):
        # ascending independent-set mask; the covers are their complements
        assert maximal_independent_sets(path(5)) == [
            frozenset({1, 4}),
            frozenset({2, 4}),
            frozenset({2, 5}),
            frozenset({1, 3, 5}),
        ]
        assert minimal_vertex_covers(path(5)) == [
            frozenset({2, 3, 5}),
            frozenset({1, 3, 5}),
            frozenset({1, 3, 4}),
            frozenset({2, 4}),
        ]


class TestVertexCovers:
    def test_single_edge(self):
        got = set(minimal_vertex_covers(Graph.from_edges(2, [(1, 2)])))
        assert got == {frozenset({1}), frozenset({2})}

    def test_path_four(self):
        got = set(minimal_vertex_covers(path(4)))
        assert got == {frozenset({2, 4}), frozenset({2, 3}), frozenset({1, 3})}

    def test_three_cycle(self):
        g = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
        got = set(minimal_vertex_covers(g))
        assert got == {frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})}

    def test_duality_exhaustive_small(self):
        # every graph on up to 5 vertices, against direct cover enumeration
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for picks in range(1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if picks >> i & 1]
                g = Graph.from_edges(n, edges)
                got = set(minimal_vertex_covers(g))
                if edges:
                    want = minimal_transversals_brute(
                        [frozenset(e) for e in edges], n
                    )
                else:
                    want = {frozenset()}
                assert got == want

    def test_duality_random_larger(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            n = int(rng.integers(6, 9))
            g = random_graph(rng, n)
            if not g.edges:
                continue
            got = set(minimal_vertex_covers(g))
            want = minimal_transversals_brute([frozenset(e) for e in g.edges], n)
            assert got == want

    def test_covers_equal_minimal_primes(self):
        rng = np.random.default_rng(83)
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(2, 9)))
            if not g.edges:
                continue
            assert set(minimal_vertex_covers(g)) == set(edge_ideal(g).minimal_primes())


class TestTrees:
    def test_path_is_tree(self):
        assert is_tree(path(3))

    def test_cycle_is_not(self):
        assert not is_tree(Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)]))

    def test_disconnected_is_not(self):
        assert not is_tree(Graph.from_edges(4, [(1, 2), (3, 4)]))

    def test_star_domination(self):
        star = Graph.from_edges(5, [(1, i) for i in range(2, 6)])
        assert independence_domination(star) == 1

    def test_colon_tree_domination(self):
        assert independence_domination(COLON_TREE5) == 2

    def test_path_four_domination(self):
        assert independence_domination(path(4)) == 2

    def test_lemma_with_free_variable(self):
        assert tree_depth_via_lemma(COLON_TREE5, free_vars=1) == 3

    def test_lemma_single_edge(self):
        assert tree_depth_via_lemma(Graph.from_edges(2, [(1, 2)])) == 1

    def test_lemma_path_four_matches_engine(self):
        g = path(4)
        assert tree_depth_via_lemma(g) == 2
        for field in (F2, F3):
            assert depth(edge_ideal(g), field) == 2

    def test_lemma_rejects_non_trees(self):
        with pytest.raises(NotATree):
            tree_depth_via_lemma(Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)]))

    def test_lemma_agrees_with_engine_on_small_trees(self):
        # all labeled trees on up to 5 vertices
        for n in range(2, 6):
            seqs = (
                itertools.product(range(1, n + 1), repeat=n - 2) if n > 2 else [()]
            )
            for seq in seqs:
                t = tree_from_pruefer(list(seq), n)
                want = independence_domination(t)
                assert depth(edge_ideal(t), F2) == want
                assert depth(edge_ideal(t), F3) == want


class TestPruefer:
    def test_decodes_to_distinct_trees(self):
        trees = {
            tree_from_pruefer(list(seq), 4).edges
            for seq in itertools.product(range(1, 5), repeat=2)
        }
        assert len(trees) == 16  # n^(n-2) labeled trees on 4 vertices

    def test_all_decodes_are_trees(self):
        rng = np.random.default_rng(89)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            assert is_tree(random_tree(n, rng))

    def test_seeded_reproducibility(self):
        a = random_tree(9, np.random.default_rng(101))
        b = random_tree(9, np.random.default_rng(101))
        assert a == b

    def test_bad_sequences(self):
        with pytest.raises(ValueError):
            tree_from_pruefer([1, 2], 3)
        with pytest.raises(ValueError):
            tree_from_pruefer([7], 3)

    def test_single_vertex_tree(self):
        t = random_tree(1, np.random.default_rng(0))
        assert t.n_vertices == 1 and not t.edges
        assert independence_domination(t) == 1


class TestInputRefusals:
    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda: Graph.parse("# comment only\n"), "missing 'v=<count>'"),
            (lambda: Graph.parse("v=64\n1 2\n"), "line 1: v must be in 1..63, got 'v=64'"),
            (lambda: Graph.parse("v=3\n\n1 2 3\n"), "line 3: expected an edge 'i j', got '1 2 3'"),
            (lambda: Graph.from_edges(0, []), "at least one vertex"),
            (lambda: tree_depth_via_lemma(path(3), free_vars=-1), "free_vars"),
            (lambda: tree_from_pruefer([], 1), "at least two vertices"),
        ],
        ids=["parse-no-header", "parse-header-range", "parse-not-an-edge", "no-vertices",
             "negative-free-vars", "pruefer-one-vertex"],
    )
    def test_refusals(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()
