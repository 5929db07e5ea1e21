"""Betti tables, depth, regularity, g profiles, and their cross-checks."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from oracles import (
    complete_multipartite,
    depth_via_links,
    homology_of_facet_complex,
    koszul_betti_table,
    random_test_ideal,
    survivors_by_sweep,
)
from sqfdepth import betti
from sqfdepth.betti import (
    DepthReport,
    _generator_counts,
    _generator_nonfaces,
    _orbits,
    betti_table,
    depth,
    depth_report,
    g_profile,
    proj_dim,
    regularity,
)
from sqfdepth.errors import SpaceTooLarge, ZeroIdeal
from sqfdepth.family import build_family
from sqfdepth import homology
from sqfdepth.homology import MAX_HOCHSTER_AMBIENT, FieldSpec, induced_faces
from sqfdepth.ideals import Ideal
from sqfdepth.search import SearchConfig, random_ideal, scan

F2 = FieldSpec(2)
F3 = FieldSpec(3)
_K_MARGIN_DEFAULT = betti._K_MARGIN

RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


def rp2_ideal() -> Ideal:
    """Stanley-Reisner ideal of the 6-vertex projective plane: the 10 non-faces."""
    missing = sorted(set(itertools.combinations(range(1, 7), 3)) - set(RP2_FACETS))
    return Ideal.from_supports(missing, 6)


def multigraded(ideal, field):
    return {(i, s): v for i, s, v in betti_table(ideal, field).entries}


class TestBettiTable:
    def test_single_quadric(self):
        assert multigraded(Ideal.from_supports([[1, 2]], 2), F2) == {(1, 0b11): 1}

    def test_three_cycle_aggregated(self):
        table = betti_table(Ideal.from_supports([[1, 2], [1, 3], [2, 3]], 3), F2)
        assert table.aggregated() == {(1, 2): 3, (2, 3): 2}

    def test_four_cycle_top_entry(self):
        ideal = Ideal.from_supports([[1, 2], [2, 3], [3, 4], [1, 4]], 4)
        table = betti_table(ideal, F2)
        assert table.aggregated()[(3, 4)] == 1
        # the witness multidegree is the full vertex set
        assert (3, 0b1111, 1) in table.entries

    def test_zero_ideal_rejected(self):
        with pytest.raises(ZeroIdeal):
            betti_table(Ideal.zero(3), F2)

    def test_entries_all_positive_with_i_at_least_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            ideal = random_test_ideal(rng, int(rng.integers(2, 7)))
            for i, sigma, value in betti_table(ideal, F2).entries:
                assert i >= 1 and value > 0 and sigma > 0

    def test_each_face_row_is_built_at_most_once(self, monkeypatch):
        # rows are built at most once per sieve; every Delta_sigma of one call
        # goes through at most one sieve of the ideal, and a fresh call
        # (another ideal, or another prime) builds its own.  The orbit walk
        # of the family itself: collapsed, it would walk its lcm lattice
        monkeypatch.setattr(betti, "_collapse", lambda ideal, classes: None)
        builds: list[tuple[int, int, int]] = []
        sieves: list[tuple[homology.FaceSieve, bool]] = []
        build, init = homology.FaceSieve._build_row, homology.FaceSieve.__init__
        ideal = build_family(8)

        def recording_init(sieve, n, nonfaces, p=2):
            nonfaces = tuple(nonfaces)
            # kept alive, so no two sieves of a call share an id
            sieves.append((sieve, (n, nonfaces) == (ideal.ambient_n, ideal.masks)))
            init(sieve, n, nonfaces, p)

        def recording(sieve, s, j):
            builds.append((id(sieve), s, j))
            return build(sieve, s, j)

        monkeypatch.setattr(homology.FaceSieve, "__init__", recording_init)
        monkeypatch.setattr(homology.FaceSieve, "_build_row", recording)
        n_faces = sum(len(g) for g in induced_faces(ideal, range(1, 9)).faces_by_size())
        for p in (2, 3, 5):
            builds.clear()
            sieves.clear()
            assert multigraded(ideal, FieldSpec(p)) == koszul_betti_table(ideal, p)
            assert builds and len(set(builds)) == len(builds)
            on_ideal = [id(sieve) for sieve, hochster in sieves if hochster]
            assert len(on_ideal) <= 1
            assert sum(sieve in on_ideal for sieve, _, _ in builds) <= n_faces


class TestHochsterAgainstKoszul:
    def test_small_random_ideals_both_primes(self):
        rng = np.random.default_rng(17)
        for _ in range(12):
            n = int(rng.integers(2, 7))
            ideal = random_test_ideal(rng, n)
            for p in (2, 3, 5):
                assert multigraded(ideal, FieldSpec(p)) == koszul_betti_table(ideal, p)

    def test_sign_sensitive_ideals(self):
        # clearing leaves few rows, so most wrong coboundary signs still give
        # the right ranks; these ideals are among the few where they do not
        for supports, n in (
            ([[1, 4], [2, 4], [3, 4]], 4),
            ([[1, 3, 4], [1, 4], [2, 4], [3, 4]], 4),
        ):
            ideal = Ideal.from_supports(supports, n)
            for p in (3, 5):
                assert multigraded(ideal, FieldSpec(p)) == koszul_betti_table(ideal, p)

    def test_increasing_gap_family_base_case(self):
        ideal = build_family(6)
        for p in (2, 3):
            table = betti_table(ideal, FieldSpec(p))
            assert multigraded(ideal, FieldSpec(p)) == koszul_betti_table(ideal, p)
            assert table.aggregated() == {(1, 3): 5, (2, 4): 4, (2, 5): 1, (3, 6): 1}


class TestProjDimAndDepth:
    def test_family_values(self):
        ideal = build_family(6)
        assert proj_dim(ideal, F2) == 3
        assert depth(ideal, F2) == 3
        assert depth(ideal.squarefree_power(2), F2) == 5
        assert depth(ideal.add_variable(3), F2) == 4
        assert depth(ideal.colon_by_variable(3), F2) == 3

    def test_single_quadric(self):
        assert proj_dim(Ideal.from_supports([[1, 2]], 2), F2) == 1

    def test_principal_sextic(self):
        ideal = Ideal.from_supports([[1, 2, 3, 4, 5, 6]], 6)
        assert proj_dim(ideal, F2) == 1
        assert depth(ideal, F2) == 5

    def test_zero_ideal_depth_is_ambient(self):
        assert depth(Ideal.zero(4), F2) == 4
        with pytest.raises(ZeroIdeal):
            proj_dim(Ideal.zero(4), F2)

    def test_depth_bounded_by_max_prime_height(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            ideal = random_test_ideal(rng, n)
            bound = n - max(len(c) for c in ideal.minimal_primes())
            for field in (F2, F3):
                assert depth(ideal, field) <= bound

    def test_depth_bounded_by_dimension(self):
        rng = np.random.default_rng(97)
        for _ in range(20):
            ideal = random_test_ideal(rng, int(rng.integers(2, 8)))
            dim = ideal.krull_dim()
            for field in (F2, F3):
                d = depth(ideal, field)
                assert 0 <= d <= dim

    def test_unused_variable_adds_one_to_depth(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            ideal = random_test_ideal(rng, n)
            padded = Ideal.from_supports([g.support for g in ideal.gens], n + 1)
            for field in (F2, F3):
                assert proj_dim(padded, field) == proj_dim(ideal, field)
                assert depth(padded, field) == depth(ideal, field) + 1

    def test_depth_lemma_small_sample(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            ideal = random_test_ideal(rng, n)
            for field in (F2, F3):
                base = depth(ideal, field)
                for j in range(1, n + 1):
                    if any(g.mask == 1 << (j - 1) for g in ideal.gens):
                        continue  # colon would be the unit ideal
                    colon = ideal.colon_by_variable(j)
                    total = ideal.add_variable(j)
                    assert base >= min(depth(colon, field), depth(total, field))


class TestDepthOnlyEngine:
    """proj_dim skips most of the table; check it against two references."""

    def test_matches_full_table_on_random_ideals(self):
        rng = np.random.default_rng(71)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            ideal = random_test_ideal(rng, n, max_degree=4, max_gens=8)
            for field in (F2, F3):
                assert proj_dim(ideal, field) == betti_table(ideal, field).proj_dim()

    def test_matches_full_table_on_edge_cases(self):
        cases = [
            Ideal.from_supports([[1]], 1),  # the induced complex is {empty face}
            Ideal.from_supports([[1], [2, 3]], 3),
            Ideal.from_supports([[1], [2], [3]], 5),  # degree one plus unused variables
            Ideal.from_supports([[1, 2], [2, 3]], 6),
            build_family(8),
            rp2_ideal(),
        ]
        for ideal in cases:
            for field in (F2, F3):
                assert proj_dim(ideal, field) == betti_table(ideal, field).proj_dim()
        # the projective plane's pd depends on the characteristic
        assert (proj_dim(rp2_ideal(), F2), proj_dim(rp2_ideal(), F3)) == (4, 3)

    def test_depth_matches_link_oracle(self):
        rng = np.random.default_rng(83)
        ideals = [Ideal.zero(3), rp2_ideal(), Ideal.from_supports([[1], [2, 3]], 4)]
        ideals += [random_test_ideal(rng, int(rng.integers(1, 7))) for _ in range(20)]
        for ideal in ideals:
            for p in (2, 3):
                assert depth(ideal, FieldSpec(p)) == depth_via_links(ideal, p)


def generator_complex_table(ideal, p):
    """Multigraded Betti numbers from the reduced K_sigma, sigma by sigma.

    Every survivor, not one per twin orbit; a cone K_sigma gives nothing.
    """
    table = {}
    for sigma in survivors_by_sweep(ideal).tolist():
        reduced = _generator_nonfaces(ideal.masks, sigma)
        if reduced is None:
            continue
        r, nonfaces = reduced
        m = sum(g & sigma == g for g in ideal.masks)
        dims = homology.FaceSieve(r, nonfaces, p).homology_dims((1 << r) - 1, r)
        for s, dim in enumerate(dims):
            if dim:
                table[(m - s, sigma)] = dim
    return table


def hochster_table(ideal, p):
    """Multigraded Betti numbers from Delta_sigma on every survivor, no skips."""
    sieve = homology.FaceSieve(ideal.ambient_n, ideal.masks, p)
    table = {}
    for sigma in survivors_by_sweep(ideal).tolist():
        width = sigma.bit_count()
        for s, dim in enumerate(sieve.homology_dims(sigma, width)):
            if dim:
                table[(width - s, sigma)] = dim
    return table


class TestGeneratorComplex:
    """beta_{i,sigma} = dim H~_{|G_sigma|-i-1}(K_sigma), the fast path of proj_dim.

    K_sigma has the generators dividing x^sigma as vertices and, for each
    variable v of sigma, the generators containing v as a minimal nonface.
    """

    @staticmethod
    def cases():
        rng = np.random.default_rng(97)
        out = [
            (random_test_ideal(rng, int(rng.integers(1, 9)), max_degree=4, max_gens=8), (2, 3, 5))
            for _ in range(40)
        ]
        out.append((rp2_ideal(), (2, 3)))
        out += [(build_family(n), (2, 3)) for n in range(6, 11)]
        out += [
            (complete_multipartite(parts), (2, 3))
            for parts in ([1] * 5, [2, 3], [1, 2, 2], [2, 2, 2])
        ]
        out += [
            (Ideal.from_supports([[1], [2, 3]], 3), (2, 3)),  # a degree-one generator
            (Ideal.from_supports([[1], [2], [3]], 5), (2, 3)),  # plus free variables
            (Ideal.from_supports([[1, 2], [2, 3]], 6), (2, 3)),
            (Ideal.from_supports([[1, 2, 3], [4]], 7), (2, 3, 5)),
        ]
        return out

    def test_reproduces_every_betti_entry(self):
        for ideal, primes in self.cases():
            for p in primes:
                assert generator_complex_table(ideal, p) == multigraded(ideal, FieldSpec(p))

    def test_proj_dim_matches_table_and_link_oracle(self):
        for ideal, primes in self.cases():
            for p in primes:
                pd = proj_dim(ideal, FieldSpec(p))
                assert pd == betti_table(ideal, FieldSpec(p)).proj_dim()
                assert pd == ideal.ambient_n - depth_via_links(ideal, p)

    def test_nonfaces_of_one_sigma(self):
        path = Ideal.from_supports([[1, 2], [2, 3], [3, 4]], 4).masks
        # sigma = {1, 2, 3}: x1x2 and x2x3 each own a variable, so both are
        # dropped and K_sigma is {empty face}
        assert _generator_nonfaces(path, 0b0111) == (0, [])
        # sigma = {1, 2, 3, 4}: x1x2 and x3x4 are private, and x2x3, the one
        # kept generator, lies in no kept nonface: a cone
        assert _generator_nonfaces(path, 0b1111) is None
        # the 4-cycle x1x2, x2x3, x1x4, x3x4 with the pendant x4x5: x4x5
        # owns x5, so it goes with C_4 and C_5, and C_1, C_2, C_3 remain,
        # listed ascending
        pendant = Ideal.from_supports([[1, 2], [2, 3], [3, 4], [1, 4], [4, 5]], 5).masks
        assert _generator_nonfaces(pendant, 0b11111) == (4, [0b0011, 0b0101, 0b1010])
        # x1x2x3, x1x2x4 and x1x3x4: C_1 = {0, 1, 2} holds C_2 = {0, 1},
        # so only C_2, C_3 = {0, 2} and C_4 = {1, 2} are listed
        cone_free = Ideal.from_supports([[1, 2, 3], [1, 2, 4], [1, 3, 4]], 4).masks
        assert _generator_nonfaces(cone_free, 0b1111) == (3, [0b011, 0b101, 0b110])
        # x1x2x3, x1x2x4 and x3x4: C_1 = C_2 = {0, 1} is listed once
        twice = Ideal.from_supports([[1, 2, 3], [1, 2, 4], [3, 4]], 4).masks
        assert _generator_nonfaces(twice, 0b1111) == (3, [0b011, 0b101, 0b110])

    def test_counts_match_the_builder(self):
        # the vectorised count that picks each complex agrees with the builder
        for ideal, _ in self.cases():
            reps, gens_inside, _ = _orbits(ideal)
            for sigma, m, r, cone in zip(
                reps.tolist(),
                gens_inside.tolist(),
                *(a.tolist() for a in _generator_counts(ideal.masks, reps)),
            ):
                reduced = _generator_nonfaces(ideal.masks, sigma)
                assert m == sum(g & sigma == g for g in ideal.masks)
                assert cone == (reduced is None)
                assert cone or r == reduced[0]


class TestComplexChoice:
    """The table is the same whichever complex each representative goes to.

    ``betti_table`` under its rule, with every representative on Delta_sigma
    and with every one on K_sigma, against Hochster's formula and the
    reduced K_sigma on every survivor with no orbit reduction and no skips.
    """

    @staticmethod
    def cases():
        rng = np.random.default_rng(113)
        out = [
            random_test_ideal(rng, int(rng.integers(3, 10)), max_degree=4, max_gens=10)
            for _ in range(30)
        ]
        out += [build_family(n) for n in range(6, 13)]
        out += [complete_multipartite(parts) for parts in ([1] * 6, [2, 3], [1, 2, 3], [3, 3])]
        out += [Ideal.from_supports([[i, i + 1] for i in range(1, n)], n) for n in (4, 7, 9)]
        out += [Ideal.from_supports([[i, i % n + 1] for i in range(1, n + 1)], n) for n in (4, 7, 9)]
        for n in (6, 7, 8):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            edges = rng.choice(len(pairs), 2 * n, replace=False)
            out.append(Ideal.from_supports([pairs[i] for i in edges], n))
        out += [
            Ideal.from_supports([[1], [2, 3]], 3),  # a degree-one generator
            Ideal.from_supports([[1], [2], [3]], 5),  # plus free variables
            Ideal.from_supports([[1, 2, 3], [4], [4, 5, 6]], 8),
            # private generators, a cone at the full support, and r = 0
            Ideal.from_supports([[1, 2], [2, 3], [3, 4]], 4),
            Ideal.from_supports([[1, 2], [2, 3], [3, 4], [1, 4], [4, 5]], 5),
        ]
        # twin-free cubics and graphs with more than six generators: nothing
        # collapses, so they take the orbit walk, where _K_MARGIN is read
        for d, n, m in [
            (3, 7, 7), (3, 7, 8), (3, 8, 8), (3, 8, 9), (3, 8, 10), (3, 9, 9), (3, 9, 11),
            (3, 10, 12), (2, 6, 7), (2, 6, 9), (2, 7, 8), (2, 7, 10), (2, 8, 9), (2, 8, 12),
            (2, 9, 11),
        ]:
            supports = list(itertools.combinations(range(1, n + 1), d))
            while True:
                ideal = Ideal.from_supports(
                    [supports[i] for i in rng.choice(len(supports), m, replace=False)], n
                )
                if not ideal.twin_classes():
                    out.append(ideal)
                    break
        return out

    def test_cases_reach_the_orbit_walk(self):
        # the lcm lattice takes every sigma to K_sigma, so only ideals that
        # keep more than _LATTICE_GENERATORS generators after the collapse
        # test the rule
        walked = [
            ideal for ideal in self.cases()
            if len(betti._reduced(ideal)[0].masks) > betti._LATTICE_GENERATORS
        ]
        assert len(walked) >= 20

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_rule_matches_all_delta_and_all_k(self, p, monkeypatch):
        field = FieldSpec(p)
        for ideal in self.cases():
            table = multigraded(ideal, field)
            assert table == hochster_table(ideal, p) == generator_complex_table(ideal, p)
            for margin in (-MAX_HOCHSTER_AMBIENT, MAX_HOCHSTER_AMBIENT):
                monkeypatch.setattr(betti, "_K_MARGIN", margin)
                assert multigraded(ideal, field) == table
            monkeypatch.undo()


    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_free_variables_change_no_betti_number(self, p, monkeypatch):
        field = FieldSpec(p)
        for ideal in self.cases():
            wide = Ideal(30, ideal.masks)
            table = multigraded(ideal, field)
            for margin in (_K_MARGIN_DEFAULT, MAX_HOCHSTER_AMBIENT):  # the rule, all on Delta
                monkeypatch.setattr(betti, "_K_MARGIN", margin)
                assert multigraded(wide, field) == table
                assert depth_report(wide, field).betti == depth_report(ideal, field).betti
            monkeypatch.undo()
            assert proj_dim(wide, field) == proj_dim(ideal, field)

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_delta_on_its_own_vertices_past_24_variables(self, p, monkeypatch):
        # K5's edge ideal with x1x2 stretched to x1x2x6..x25: its twin classes
        # {x1, x2}, {x3, x4, x5} and {x6..x25} are all dependent, so the orbit
        # walk keeps 25 variables and sieves each Delta_sigma on sigma's own
        # vertices; the lcm lattice of the same ten generators is the reference
        edges = [list(e) for e in itertools.combinations(range(1, 6), 2) if e != (1, 2)]
        ideal = Ideal.from_supports([[1, 2, *range(6, 26)], *edges], 25)
        field = FieldSpec(p)
        own, sieve = [], homology.InducedComplex._sieve

        def recording_sieve(induced, p=2):
            own.append(induced.sigma)
            return sieve(induced, p)

        def answers():
            return depth(ideal, field), depth_report(ideal, field), betti_table(ideal, field)

        monkeypatch.setattr(homology.InducedComplex, "_sieve", recording_sieve)
        orbit_walk = answers()
        assert own and orbit_walk[0] == 21
        monkeypatch.setattr(betti, "_LATTICE_GENERATORS", 12)
        own.clear()
        assert answers() == orbit_walk and own == []


class TestSmallerComplexWalk:
    """proj_dim evaluates each sigma on its smaller complex; pin the work."""

    @staticmethod
    def recording(monkeypatch):
        calls, sizes = [], []
        dims, init = homology.FaceSieve.homology_dims, homology.FaceSieve.__init__

        def recording_dims(sieve, sigma, top):
            calls.append(sigma)
            return dims(sieve, sigma, top)

        def recording_init(sieve, n, nonfaces, p=2):
            sizes.append(n)
            init(sieve, n, nonfaces, p)

        monkeypatch.setattr(homology.FaceSieve, "homology_dims", recording_dims)
        monkeypatch.setattr(homology.FaceSieve, "__init__", recording_init)
        # the K_sigma homology of the lattice route is cached for the process:
        # start empty, so earlier calls hide no sieve
        betti._Columns._k_dims.cache_clear()
        return calls, sizes

    def test_family_needs_two_homology_walks(self, monkeypatch):
        # every member collapses to the same 7 variables and 6 generators:
        # the first call at each prime ranks one reduced K_sigma on 5
        # vertices, and every later member finds it in the cache
        calls, sizes = self.recording(monkeypatch)
        for p in (2, 3):
            for n in (8, 12, 16, 40):
                calls.clear()
                sizes.clear()
                assert proj_dim(build_family(n), FieldSpec(p)) == n - 3
                assert sizes == ([5] if n == 8 else []) and len(calls) == len(sizes)

    def test_cubic_samples_never_sieve_all_eight_variables(self, monkeypatch):
        cfg = SearchConfig(ambient_n=8, seed=1, gen_degree=3, gen_count=5)
        ideals = [random_ideal(cfg, i) for i in range(100)]
        calls, sizes = self.recording(monkeypatch)
        for p in (2, 3):
            for ideal in ideals:
                proj_dim(ideal, FieldSpec(p))
        assert calls and max(sizes) <= 5

    def test_cubic_samples_walk_the_lattice_and_reuse_every_k_sigma(self, monkeypatch):
        # five generators: no twin quotient, and the second pass finds the
        # homology of every reduced K_sigma in the process-wide cache
        cfg = SearchConfig(ambient_n=8, seed=1, gen_degree=3, gen_count=5)
        ideals = [random_ideal(cfg, i) for i in range(100)]
        monkeypatch.setattr(betti, "_orbits", None)  # a call would raise TypeError
        calls, sizes = self.recording(monkeypatch)
        first = [proj_dim(ideal, FieldSpec(p)) for p in (2, 3) for ideal in ideals]
        assert calls and sizes
        calls.clear()
        sizes.clear()
        assert [proj_dim(ideal, FieldSpec(p)) for p in (2, 3) for ideal in ideals] == first
        assert sizes == [] and calls == []

    def test_lattice_walks_build_no_delta_sieve(self, monkeypatch):
        # the 4-cycle plus one generator over 22 of the 24 variables walks its
        # lcm lattice in both walks, every sigma on a K_sigma of at most 5
        # generators, never on a sieve of the 2^24 subsets of the ambient; the
        # 7-cycle padded to 24 variables collapses to its 7 for the orbit
        # walk, whose one sieve is the Delta sieve on those 7
        cycle = [[1, 2], [2, 3], [3, 4], [1, 4]]
        wide = Ideal.from_supports([*cycle, [1, 3, *range(5, 25)]], 24)
        heptagon = Ideal.from_supports([[i, i % 7 + 1] for i in range(1, 8)], 24)
        _, sizes = self.recording(monkeypatch)
        for p in (2, 3, 5):
            for walk in (depth, lambda ideal, field: depth_report(ideal, field).depth):
                for ideal, expected, widest in ((wide, 21, 6), (heptagon, 19, 7)):
                    sizes.clear()
                    tracemalloc.start()
                    try:
                        assert walk(ideal, FieldSpec(p)) == expected
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                    assert peak < 4 << 20 and max(sizes, default=0) <= widest
                    assert ideal is wide or sizes == [7]

    def test_no_sieve_on_zero_vertices(self, monkeypatch):
        # K_sigma = {empty face} gives beta_{|G_sigma|,sigma} = 1 with no sieve
        cfg = SearchConfig(ambient_n=8, seed=1, gen_degree=3, gen_count=5)
        ideals = [build_family(n) for n in range(8, 17)]
        ideals += [random_ideal(cfg, i) for i in range(100)]
        _, sizes = self.recording(monkeypatch)
        for p in (2, 3):
            for ideal in ideals:
                proj_dim(ideal, FieldSpec(p))
        assert sizes and 0 not in sizes


def transposed_rp2() -> Ideal:
    """The 6-vertex projective plane with the roles of vertices and nonfaces swapped.

    One variable per non-facet triangle, and generator j is the triangles
    that contain vertex j.  At the full support K_sigma is the projective
    plane itself, so beta_{4,sigma} over F_2 is its torsion.
    """
    missing = sorted(set(itertools.combinations(range(1, 7), 3)) - set(RP2_FACETS))
    supports = [[t + 1 for t, tri in enumerate(missing) if j in tri] for j in range(1, 7)]
    return Ideal.from_supports(supports, len(missing))


def boolean_lattice_ideal(n: int) -> Ideal:
    """Six generators on 25 variables of distinct columns, padded to n variables.

    The variables' generator sets are the 6 singletons, the 15 pairs and 4
    triples of the generators.  Each generator has a private variable, so
    the lcm lattice is Boolean, the Taylor resolution is minimal and pd = 6.
    """
    columns = [c for k in (1, 2) for c in itertools.combinations(range(6), k)]
    columns += list(itertools.combinations(range(6), 3))[:4]
    supports = [[v + 1 for v, c in enumerate(columns) if j in c] for j in range(6)]
    return Ideal.from_supports(supports, n)


class TestLatticeRoute:
    """proj_dim on the lcm lattice of an ideal with at most six generators.

    The cut is moved to send every ideal down one route: 0 gives the orbit
    walk to all, 12 the lattice walk to every ideal here.
    """

    @staticmethod
    def cases():
        rng = np.random.default_rng(2020)
        out = [
            random_test_ideal(rng, int(rng.integers(1, 11)), max_degree=4, max_gens=10)
            for _ in range(16)
        ]
        # five to eight quadrics and cubics, on both sides of the cut
        cfg = SearchConfig(ambient_n=8, seed=2020, gen_degree=(2, 3), gen_count=(5, 8))
        out += [random_ideal(cfg, i) for i in range(6)]
        out += [
            Ideal.from_supports([[1]], 1),  # one generator, K_sigma = {empty face}
            Ideal.from_supports([[2, 4, 5]], 7),  # one generator and free variables
            Ideal.from_supports([[1], [2, 3]], 4),  # degree one and a free variable
            Ideal.from_supports([[1], [2], [3], [3, 4, 5]], 6),
            Ideal.from_supports([[i, i % 6 + 1] for i in range(1, 7)], 8),  # 6-cycle
            build_family(7),
            rp2_ideal(),
        ]
        return out

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_both_routes_match_the_table_and_link_oracle(self, p, monkeypatch):
        field = FieldSpec(p)
        for ideal in self.cases():
            table = betti_table(ideal, field).proj_dim()
            assert table == ideal.ambient_n - depth_via_links(ideal, p)
            for cut in (0, 12):
                monkeypatch.setattr(betti, "_LATTICE_GENERATORS", cut)
                betti._Columns._k_dims.cache_clear()
                assert proj_dim(ideal, field) == table
            monkeypatch.undo()

    def test_torsion_of_the_transposed_projective_plane(self, monkeypatch):
        ideal = transposed_rp2()
        assert (ideal.ambient_n, len(ideal.masks)) == (10, 6)
        assert {g.bit_count() for g in ideal.masks} == {5}
        reports = {p: depth_report(ideal, FieldSpec(p)).proj_dim for p in (2, 3, 5)}
        assert reports == {2: 4, 3: 3, 5: 3}
        monkeypatch.setattr(betti, "_orbits", None)  # the lattice route never calls it
        betti._Columns._k_dims.cache_clear()
        assert {p: proj_dim(ideal, FieldSpec(p)) for p in (2, 3, 5)} == reports

    def test_scan_is_the_same_on_either_route(self, tmp_path, monkeypatch):
        cfg = SearchConfig(
            ambient_n=8, seed=7, sample_count=150, gen_degree=3, gen_count=(4, 7),
            primes=(2, 3), inject=(build_family(8),),
        )
        runs = []
        for cut in (betti._LATTICE_GENERATORS, 0):
            monkeypatch.setattr(betti, "_LATTICE_GENERATORS", cut)
            log = tmp_path / f"cut{cut}.jsonl"
            result = scan(cfg, log_path=str(log))
            findings = json.dumps([f.to_json_dict() for f in result.findings])
            runs.append((json.dumps(result.summary), findings, log.read_bytes()))
        assert runs[0] == runs[1]
        assert json.loads(runs[0][1])


class TestRegularity:
    def test_single_quadric(self):
        assert regularity(Ideal.from_supports([[1, 2]], 2), F2) == 1

    def test_principal_sextic(self):
        assert regularity(Ideal.from_supports([[1, 2, 3, 4, 5, 6]], 6), F2) == 5

    def test_three_cycle(self):
        assert regularity(Ideal.from_supports([[1, 2], [1, 3], [2, 3]], 3), F2) == 1

    def test_terai_duality_small_sample(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            n = int(rng.integers(2, 8))
            ideal = random_test_ideal(rng, n)
            dual = ideal.alexander_dual()
            for field in (F2, F3):
                assert proj_dim(ideal, field) == regularity(dual, field) + 1


def refused_before_allocation(call, match):
    """``call`` raises SpaceTooLarge matching ``match``, having allocated under 1 MB."""
    tracemalloc.start()
    try:
        with pytest.raises(SpaceTooLarge, match=match):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


class TestRefusals:
    def test_depth_refuses_25_variables(self):
        # the 25-vertex path has no twins: its quotient is all 2^25 subsets
        path = Ideal.from_supports([[i, i + 1] for i in range(1, 25)], 25)
        assert path.twin_classes() == []
        refused_before_allocation(
            lambda: depth(path, F2), "33554432 orbit representatives to test on n=25 variables"
        )
        refused_before_allocation(lambda: depth_report(path, F3), "more than 2\\^24 = 16777216")

    def test_few_generators_past_the_candidate_cap(self):
        # 25 twin-free variables and 15 free ones: 2^25 * 16 candidates for
        # the orbit walk, but only 63 lattice elements for both walks
        ideal = boolean_lattice_ideal(40)
        assert len(ideal.masks) == 6
        refused_before_allocation(
            lambda: _orbits(ideal), "536870912 orbit representatives to test on n=40 variables"
        )
        for field in (F2, F3):
            assert depth(ideal, field) == 34
            profile = g_profile(ideal, field)
            assert profile.nu == 1 and profile.rows[0].depth == 34
            report = depth_report(ideal, field)
            assert report.proj_dim == proj_dim(ideal, field) == 6
            # the Taylor resolution is minimal: beta_i is C(6, i)
            totals = [sum(v for i, _, v in report.betti if i == k) for k in range(1, 7)]
            assert totals == [6, 15, 20, 15, 6, 1]

    def test_twins_admit_more_than_24_variables(self):
        # x1x2 on 25 variables: two twin classes, 3 * 24 candidates
        assert depth(Ideal.from_supports([[1, 2]], 25), F2) == 24
        assert depth(build_family(30), F3) == 3

    def test_multigraded_table_of_family_63_refused(self):
        ideal = build_family(63)
        _, _, sizes = _orbits(ideal, sized=True)
        survivors = int(sizes.sum())
        assert 1.4 * 2**60 < survivors < 1.6 * 2**60
        refused_before_allocation(
            lambda: betti_table(ideal, F2), f"a multigraded table over {survivors} survivors"
        )
        # the aggregated table of the same ideal is cheap
        assert depth_report(ideal, F2).proj_dim == 60

    def test_regularity_of_zero_ideal(self):
        with pytest.raises(ZeroIdeal):
            regularity(Ideal.zero(3), F2)


class TestGProfile:
    def test_family_small(self):
        assert g_profile(build_family(6), F2).g_values == (1, 0)

    def test_family_larger(self):
        assert g_profile(build_family(10), F2).g_values == (1, 4)

    def test_four_cycle(self):
        ideal = Ideal.from_supports([[1, 2], [2, 3], [3, 4], [1, 4]], 4)
        profile = g_profile(ideal, F2)
        assert profile.g_values == (0, 0)
        assert profile.violations() == []

    def test_rows_carry_components(self):
        profile = g_profile(build_family(7), F2)
        assert [(r.k, r.d_k, r.depth, r.g) for r in profile.rows] == [
            (1, 3, 3, 1),
            (2, 6, 6, 1),
        ]
        assert profile.to_json_dict() == {
            "nu": 2,
            "profile": [
                {"k": 1, "d_k": 3, "depth": 3, "g": 1},
                {"k": 2, "d_k": 6, "depth": 6, "g": 1},
            ],
        }

    def test_zero_ideal(self):
        with pytest.raises(ZeroIdeal):
            g_profile(Ideal.zero(3), F2)

    def test_nu_is_read_off_the_powers(self):
        # g_profile stops at the first zero power; Ideal.nu() packs generators
        rng = np.random.default_rng(41)
        ideals = [
            random_test_ideal(rng, int(rng.integers(1, 11)), max_degree=4, max_gens=9)
            for _ in range(80)
        ]
        ideals += [build_family(n) for n in range(6, 16)]
        assert {ideal.nu() for ideal in ideals} >= {1, 2, 3}
        for ideal in ideals:
            profile = g_profile(ideal, F2, lambda power, field: power.ambient_n)
            assert profile.nu == ideal.nu() == len(profile.rows)
            assert [r.k for r in profile.rows] == list(range(1, profile.nu + 1))


class TestFieldSensitivity:
    def test_projective_plane_depth_depends_on_characteristic(self):
        ideal = rp2_ideal()
        assert depth(ideal, F2) == 2
        assert depth(ideal, F3) == 3

    def test_oracle_sees_the_torsion(self):
        dims2 = homology_of_facet_complex(RP2_FACETS, 2)
        dims3 = homology_of_facet_complex(RP2_FACETS, 3)
        assert dims2[1] == 1 and dims2[2] == 1
        assert dims3[1] == 0 and dims3[2] == 0

    def test_report_flags_disagreement(self):
        report = depth_report(rp2_ideal(), F2, both_primes=True)
        assert report.field_sensitive
        assert report.depth == 2

    def test_report_quiet_on_stable_input(self):
        report = depth_report(build_family(6), F2, both_primes=True)
        assert not report.field_sensitive


class TestDepthReport:
    def test_json_schema(self):
        report = depth_report(Ideal.from_supports([[1, 2]], 2), F2)
        assert report.to_json_dict() == {
            "n": 2,
            "field_char": 2,
            "betti": [{"i": 1, "j": 2, "value": 1}],
            "proj_dim": 1,
            "depth": 1,
            "regularity": 1,
            "field_sensitive": False,
        }

    def test_zero_ideal_report(self):
        report = depth_report(Ideal.zero(4), F2)
        assert report.to_json_dict() == {
            "n": 4,
            "field_char": 2,
            "betti": [],
            "proj_dim": 0,
            "depth": 4,
            "regularity": 0,
            "field_sensitive": False,
        }

    def test_auslander_buchsbaum_identity(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            ideal = random_test_ideal(rng, int(rng.integers(2, 8)))
            report = depth_report(ideal, F3)
            assert report.depth + report.proj_dim == ideal.ambient_n

    def test_inconsistent_report_rejected(self):
        # a raised error, not an assert, so the check also runs under python -O
        with pytest.raises(ValueError, match="Auslander-Buchsbaum"):
            DepthReport(4, F2, depth=2, proj_dim=1, regularity=1, betti=())
