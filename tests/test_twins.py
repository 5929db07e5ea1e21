"""Twin variables and the orbit reduction of the Hochster walks.

``Ideal.twin_classes`` is checked against a search over every
transposition, and ``betti_table`` and ``proj_dim``, which compute homology
once per orbit of survivors under the twin permutations, are checked
against the same walks with no twins and against the Koszul and link
oracles.  The inputs have planted twins: blown-up variables, complete
multipartite graphs, K_n, free variables and the paper's family.
"""

import itertools

import numpy as np
import pytest

from oracles import (
    complete_multipartite,
    depth_via_links,
    koszul_betti_table,
    random_test_ideal,
    representatives_by_fold,
    survivors_by_sweep,
)
from sqfdepth import betti, homology, search
from sqfdepth.betti import (
    _generator_nonfaces,
    _orbits,
    betti_table,
    depth_report,
    proj_dim,
    regularity,
)
from sqfdepth.family import build_family
from sqfdepth.homology import FieldSpec
from sqfdepth.ideals import Ideal

PRIMES = (2, 3, 5)


def twin_classes_brute(ideal: Ideal) -> list[tuple[int, ...]]:
    """Classes of the relation 'swapping the two variables fixes the generator set'."""
    n = ideal.ambient_n
    gens = {frozenset(g.indices) for g in ideal.gens}

    def swap_fixes(a: int, b: int) -> bool:
        move = {a: b, b: a}
        return {frozenset(move.get(v, v) for v in g) for g in gens} == gens

    classes: list[list[int]] = []
    for v in range(1, n + 1):
        for cls in classes:
            if all(swap_fixes(u, v) for u in cls):
                cls.append(v)
                break
        else:
            classes.append([v])
    # twinship must be an equivalence relation: no pair across classes swaps
    for a, b in itertools.combinations(range(1, n + 1), 2):
        same = any(a in cls and b in cls for cls in classes)
        assert swap_fixes(a, b) == same
    return sorted(tuple(cls) for cls in classes if len(cls) > 1)


def blow_up(ideal: Ideal, v: int, copies: int) -> Ideal:
    """Replace variable v by v and ``copies - 1`` new variables in every generator."""
    n = ideal.ambient_n
    clones = [v, *range(n + 1, n + copies)]
    supports = []
    for g in ideal.gens:
        if v in g.indices:
            rest = [u for u in g.indices if u != v]
            supports.extend(rest + [c] for c in clones)
        else:
            supports.append(list(g.indices))
    return Ideal.from_supports(supports, n + copies - 1)


def planted_ideals() -> list[Ideal]:
    rng = np.random.default_rng(2026)
    out = []
    for _ in range(14):
        base = random_test_ideal(rng, int(rng.integers(2, 6)))
        v = int(rng.integers(1, base.ambient_n + 1))
        out.append(blow_up(base, v, int(rng.integers(2, 4))))
    out += [complete_multipartite(parts) for parts in ([2, 3], [1, 2, 2], [3, 3], [2, 2, 2])]
    out += [Ideal.from_supports(itertools.combinations(range(1, n + 1), 2), n) for n in (3, 5)]
    # free variables are twins of each other
    out.append(Ideal.from_supports([[1, 2], [2, 3]], 6))
    out.append(Ideal.from_supports([[1, 2, 3], [3, 4]], 7))
    out += [build_family(n) for n in (8, 9, 10)]
    return out


PLANTED = planted_ideals()
# the Koszul oracle enumerates every strand; keep it to nine variables
SMALL = [ideal for ideal in PLANTED if ideal.ambient_n <= 9]


class TestTwinClasses:
    def test_planted_ideals_have_twins(self):
        assert all(ideal.twin_classes() for ideal in PLANTED)

    @pytest.mark.parametrize("index", range(len(PLANTED)))
    def test_matches_brute_force_on_planted_twins(self, index):
        ideal = PLANTED[index]
        assert ideal.twin_classes() == twin_classes_brute(ideal)

    def test_matches_brute_force_on_random_ideals(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            ideal = random_test_ideal(rng, n, max_degree=4, max_gens=8)
            assert ideal.twin_classes() == twin_classes_brute(ideal)

    def test_family_twins_are_the_tail_variables(self):
        for n in (8, 12, 20):
            assert build_family(n).twin_classes() == [tuple(range(7, n + 1))]
        assert build_family(6).twin_classes() == build_family(7).twin_classes() == []

    def test_examples(self):
        assert Ideal.zero(4).twin_classes() == [(1, 2, 3, 4)]
        # x1 and x4 of the path share a degree, but only a relabeling that also
        # exchanges x2 and x3 maps them onto each other
        assert Ideal.from_supports([[1, 2], [2, 3], [3, 4]], 4).twin_classes() == []
        assert Ideal.from_supports([[1, 2], [3, 4]], 4).twin_classes() == [(1, 2), (3, 4)]


class TestOrbitReduction:
    @pytest.mark.parametrize("index", range(len(PLANTED)))
    def test_reduction_matches_the_walk_without_twins(self, index, monkeypatch):
        ideal = PLANTED[index]
        fast = {}
        for p in PRIMES:
            field = FieldSpec(p)
            fast[p] = (betti_table(ideal, field), proj_dim(ideal, field))
        monkeypatch.setattr(Ideal, "twin_classes", lambda self: [])
        for p in PRIMES:
            field = FieldSpec(p)
            assert fast[p] == (betti_table(ideal, field), proj_dim(ideal, field))

    @pytest.mark.parametrize("index", range(len(SMALL)))
    def test_reduction_matches_the_oracles(self, index):
        ideal = SMALL[index]
        for p in PRIMES:
            field = FieldSpec(p)
            table = {(i, s): v for i, s, v in betti_table(ideal, field).entries}
            assert table == koszul_betti_table(ideal, p)
            assert ideal.ambient_n - proj_dim(ideal, field) == depth_via_links(ideal, p)

    def test_representatives_are_survivors_of_the_same_width(self):
        for ideal in PLANTED:
            survivors = set(survivors_by_sweep(ideal).tolist())
            classes = ideal.twin_classes()
            for rep in _orbits(ideal)[0].tolist():
                members = betti._members(rep, classes)
                assert rep in members and set(members) <= survivors
                assert {m.bit_count() for m in members} == {rep.bit_count()}

    def test_one_homology_computation_per_orbit(self, monkeypatch):
        # at most one homology computation per representative, none on a
        # cone K_sigma or on K_sigma = {empty face}: each goes either to its
        # reduced K_sigma (one build; one sieve and walk per distinct K_sigma)
        # or to the ideal's sieve; an r = 0 representative gets its K build
        # and no sieve.  The K_sigma homology is cached for the process, so
        # the cache starts empty: earlier calls must not hide a sieve
        betti._Columns._k_dims.cache_clear()
        calls: list[tuple[bool, int]] = []
        sieves: list[tuple[bool, int]] = []
        built: list[int] = []
        init, dims = homology.FaceSieve.__init__, homology.FaceSieve.homology_dims
        nonfaces = betti._generator_nonfaces

        def tagging(sieve, n, masks, p=2):
            masks = tuple(masks)
            sieve.hochster = (n, masks) == (ideal.ambient_n, ideal.masks)
            sieves.append((sieve.hochster, n))
            init(sieve, n, masks, p)

        def counting(sieve, sigma, top):
            calls.append((sieve.hochster, sigma))
            return dims(sieve, sigma, top)

        def building(masks, sigma):
            built.append(sigma)
            return nonfaces(masks, sigma)

        ideal = build_family(12)
        reps, _, sizes = _orbits(ideal, sized=True)
        assert len(survivors_by_sweep(ideal)) == int(sizes.sum()) == 770
        orbits = set(reps.tolist())
        assert len(orbits) == len(reps) == 86
        reduced = {rep: _generator_nonfaces(ideal.masks, rep) for rep in orbits}
        cones = {rep for rep, k in reduced.items() if k is None}
        empty = {rep for rep, k in reduced.items() if k == (0, [])}
        assert (len(cones), len(empty)) == (27, 39)
        monkeypatch.setattr(homology.FaceSieve, "__init__", tagging)
        monkeypatch.setattr(homology.FaceSieve, "homology_dims", counting)
        monkeypatch.setattr(betti, "_generator_nonfaces", building)
        for p in (2, 3):
            calls.clear()
            sieves.clear()
            built.clear()
            betti_table(ideal, FieldSpec(p))
            hochster = [sigma for on_ideal, sigma in calls if on_ideal]
            on_k = [n for on_ideal, n in sieves if not on_ideal]
            # at most one K build per representative, none on a cone
            assert len(set(built)) == len(built) and not set(built) & set(hochster)
            assert set(built + hochster) == orbits - cones
            # a sieve and one homology walk for each distinct K_sigma with a
            # vertex: 13 representatives share 2 of them
            distinct = {(reduced[rep][0], tuple(reduced[rep][1])) for rep in set(built) - empty}
            assert (len(set(built) - empty), len(distinct)) == (13, 2)
            assert len(on_k) == len(distinct) == len(calls) - len(hochster)
            assert len(calls) == len(orbits) - len(cones) - len(empty) - 13 + 2 == 9
            assert 0 not in on_k


def quotient_cases() -> list[Ideal]:
    """Ideals on at most 16 variables: planted twins, the family, and none."""
    rng = np.random.default_rng(1616)
    out = list(PLANTED)
    for _ in range(12):
        ideal = random_test_ideal(rng, int(rng.integers(3, 8)), max_degree=4, max_gens=7)
        for _ in range(2):  # each blow-up adds copies - 1 variables, up to 16
            room = 16 - ideal.ambient_n
            if room:
                v = int(rng.integers(1, ideal.ambient_n + 1))
                ideal = blow_up(ideal, v, int(rng.integers(2, room + 2)))
        out.append(ideal)
    out += [build_family(n) for n in range(6, 17)]
    out += [random_test_ideal(rng, n, max_degree=4, max_gens=2 * n) for n in (6, 9, 12)]
    return out


QUOTIENT = quotient_cases()


class TestQuotient:
    """``_orbits`` enumerates the twin quotient; the oracle sweeps all 2^n
    subsets and folds each survivor onto its representative."""

    @pytest.mark.parametrize("index", range(len(QUOTIENT)))
    def test_matches_the_sweep_and_fold(self, index):
        ideal = QUOTIENT[index]
        survivors = survivors_by_sweep(ideal)
        folded, counts = np.unique(representatives_by_fold(ideal, survivors), return_counts=True)
        reps, gens_inside, sizes = _orbits(ideal, sized=True)
        assert reps.dtype == sizes.dtype == np.uint64
        assert np.array_equal(reps, folded)
        divide = [sum(g & s == g for g in ideal.masks) for s in reps.tolist()]
        assert gens_inside.tolist() == divide
        # each orbit's size is its survivor count
        assert np.array_equal(sizes, counts)
        assert int(sizes.sum()) == len(survivors)
        unsized = _orbits(ideal)
        assert np.array_equal(unsized[0], reps) and np.array_equal(unsized[1], gens_inside)
        assert unsized[2] is None

    def test_cases_have_twins_and_none(self):
        n_max = max(ideal.ambient_n for ideal in QUOTIENT)
        assert n_max == 16
        assert any(not ideal.twin_classes() for ideal in QUOTIENT)
        assert sum(ideal.ambient_n > 12 and bool(ideal.twin_classes()) for ideal in QUOTIENT) >= 5

    @pytest.mark.parametrize("p", PRIMES)
    def test_per_orbit_report_matches_the_multigraded_table(self, p):
        field = FieldSpec(p)
        for ideal in QUOTIENT:
            if ideal.ambient_n > 12 and not ideal.twin_classes():
                continue  # a twin-free table that large is the slow case
            table = betti_table(ideal, field)
            report = depth_report(ideal, field)
            agg = table.aggregated()
            assert report.betti == tuple((i, j, agg[i, j]) for i, j in sorted(agg))
            assert report.proj_dim == table.proj_dim()
            assert report.regularity == regularity(ideal, field) == table.regularity()


def test_canonical_key_splits_twin_cells_without_branching(monkeypatch):
    # the search splits a cell made only of twins in label order: after the
    # root colouring, one refinement gives a leaf and nothing is branched on
    refinements: list[int] = []
    refine = search._refine

    def counting(*args):
        refinements.append(1)
        return refine(*args)

    monkeypatch.setattr(search, "_refine", counting)
    for ideal in (build_family(14), Ideal.from_supports([[1, 2]], 10)):
        refinements.clear()
        search._search_key(ideal)
        assert len(refinements) == 2
    # the public key searches only above five generators
    for m in (5, 6):
        ideal = Ideal.from_supports([[v, v + 1] for v in range(1, m + 1)], 10)
        refinements.clear()
        search.canonical_relabeling_key(ideal)
        assert (len(refinements) > 0) == (m == 6)
