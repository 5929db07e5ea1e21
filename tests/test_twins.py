"""Twin variables, their collapse, and the orbit reduction of the Hochster walks.

``Ideal.twin_classes`` is checked against a search over every
transposition, and ``betti_table`` and ``proj_dim``, which compute homology
once per orbit of survivors under the twin permutations, are checked
against the same walks with no twins and against the Koszul and link
oracles.  The collapse of independent twin classes is checked against the
uncollapsed walks and the same oracles, and against the closed form of
pd for a blow-up.  The inputs have planted twins: blown-up variables,
complete multipartite graphs, K_n, free variables and the paper's family.
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
    _collapse,
    _generator_nonfaces,
    _orbits,
    betti_table,
    depth,
    depth_report,
    proj_dim,
    regularity,
)
from sqfdepth.family import build_family
from sqfdepth.homology import FieldSpec
from sqfdepth.ideals import Ideal, blow_up

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
        # and no sieve.  The K_sigma homology is cached for the process, and
        # the fixture starts it empty: earlier calls must not hide a sieve.
        # Both distinct K_sigma have at most 5 vertices, so they are ranked
        # over F_2 at p = 2 and found in the cache at p = 3, while the
        # ideal's own sieve is built and walked at each prime.  The family's
        # own orbits: collapsed, it would walk its lcm lattice
        monkeypatch.setattr(betti, "_collapse", lambda ideal, classes: None)
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
            # at p = 2 a sieve and one homology walk for each distinct K_sigma
            # with a vertex, 13 representatives sharing 2 of them; none at p = 3
            distinct = {(reduced[rep][0], tuple(reduced[rep][1])) for rep in set(built) - empty}
            assert (len(set(built) - empty), len(distinct)) == (13, 2)
            assert max(r for r, _ in distinct) <= betti._TORSION_FREE_VERTICES
            ranked = len(distinct) if p == 2 else 0
            assert len(on_k) == ranked == len(calls) - len(hochster)
            assert len(hochster) == len(orbits) - len(cones) - len(empty) - 13 == 7
            assert len(calls) == 7 + ranked and sieves.count((True, ideal.ambient_n)) == 1
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


# (x1x4x5, x2x4x7, x3x6x7, x5x6x7): no two of its variables are twins
CORE = Ideal.from_supports([[1, 4, 5], [2, 4, 7], [3, 6, 7], [5, 6, 7]], 7)


def collapse_cases() -> list[Ideal]:
    """Ideals with independent twin classes, one or several, and some with
    a dependent class as well."""
    rng = np.random.default_rng(2121)
    out = []
    for _ in range(12):  # random blow-ups of one or two variables
        ideal = random_test_ideal(rng, int(rng.integers(2, 7)), max_gens=7)
        for _ in range(int(rng.integers(1, 3))):
            v = int(rng.integers(1, ideal.ambient_n + 1))
            ideal = blow_up(ideal, v, int(rng.integers(2, 4)))
        out.append(ideal)
    out += [build_family(n) for n in range(6, 17)]
    out += [
        blow_up(blow_up(CORE, 1, 3), 6, 2),  # two classes at once
        blow_up(blow_up(blow_up(CORE, 4, 2), 5, 3), 7, 2),  # three
        # degree-one generators: the other members are no vertex of Delta
        Ideal.from_supports([[1], [2], [3], [4, 5]], 5),
        Ideal.from_supports([[1], [2], [3, 4], [3, 5], [4, 5, 6]], 8),  # and free variables
        Ideal.from_supports([[1, 2], [2, 3]], 6),
        # a dependent class (x1, x2) beside an independent one (x4, x5), on
        # the lattice and, with K_4 on x1..x4, on the orbit walk
        Ideal.from_supports([[1, 2, 3], [3, 4], [3, 5]], 5),
        Ideal.from_supports([*itertools.combinations(range(1, 5), 2), [4, 5], [4, 6], [4, 7]], 7),
        complete_multipartite([2, 3]),
        complete_multipartite([2, 2, 2]),
    ]
    return out


COLLAPSE = collapse_cases()
# the oracles on at most eight variables; family(9) is checked above
SMALL_COLLAPSE = [ideal for ideal in COLLAPSE if ideal.ambient_n <= 8]


def uncollapsed(monkeypatch) -> None:
    """Every walk as before the collapse: the twin quotient of the ideal itself."""
    monkeypatch.setattr(betti, "_collapse", lambda ideal, classes: None)
    monkeypatch.setattr(betti, "_LATTICE_GENERATORS", 0)


class TestCollapse:
    def test_cases_collapse(self):
        kinds = [_collapse(ideal, ideal.twin_classes()) for ideal in COLLAPSE]
        # all but the two members of the family with no twins
        assert [ideal for ideal, k in zip(COLLAPSE, kinds) if not k] == [
            build_family(6), build_family(7)
        ]
        kinds = [k for k in kinds if k]
        assert any(len(twins) >= 2 for _, _, twins, _ in kinds)
        assert any(dependent for _, dependent, _, _ in kinds)
        assert any(len(ideal.masks) > betti._LATTICE_GENERATORS for ideal, _, _, _ in kinds)

    @pytest.mark.parametrize("index", range(len(COLLAPSE)))
    def test_matches_the_uncollapsed_walk(self, index, monkeypatch):
        ideal = COLLAPSE[index]

        def answers():
            out = []
            for p in PRIMES:
                field = FieldSpec(p)
                report = depth_report(ideal, field)
                out.append((betti_table(ideal, field), report, proj_dim(ideal, field)))
            return out

        collapsed = answers()
        monkeypatch.setattr(betti, "_LATTICE_GENERATORS", 0)  # the orbit walk after collapse
        assert answers() == collapsed
        uncollapsed(monkeypatch)
        assert answers() == collapsed

    @pytest.mark.parametrize("index", range(len(SMALL_COLLAPSE)))
    def test_matches_the_oracles(self, index):
        ideal = SMALL_COLLAPSE[index]
        for p in PRIMES:
            field = FieldSpec(p)
            table = {(i, s): v for i, s, v in betti_table(ideal, field).entries}
            assert table == koszul_betti_table(ideal, p)
            assert depth(ideal, field) == depth_report(ideal, field).depth
            assert depth(ideal, field) == depth_via_links(ideal, p)

    def test_independence_matches_co_occurrence(self):
        rng = np.random.default_rng(21)
        ideals = PLANTED + COLLAPSE + [
            random_test_ideal(rng, int(rng.integers(2, 9)), max_degree=4, max_gens=8)
            for _ in range(40)
        ]
        flags = []
        for ideal in ideals:
            supports = [set(g.indices) for g in ideal.gens]
            n = ideal.ambient_n
            subsets = [*ideal.twin_classes(), *itertools.combinations(range(1, n + 1), 2)]
            for cls in subsets:
                brute = all(len(support & set(cls)) <= 1 for support in supports)
                assert ideal.is_independent(cls) == brute
                flags.append(brute)
            classes = ideal.twin_classes()
            collapsed = _collapse(ideal, classes)
            independent = [cls for cls in classes if ideal.is_independent(cls)]
            if collapsed is None:
                assert not independent and set().union(*supports) == set(range(1, n + 1))
                continue
            quotient, dependent, twins, bits = collapsed
            assert len(dependent) == len(classes) - len(independent)
            # the collapsed ideal keeps every used variable but the later
            # members of independent classes; each kept first member stands
            # for its whole class
            used = set().union(*supports) - {v for cls in independent for v in cls[1:]}
            assert bits == [1 << (v - 1) for v in sorted(used)] and quotient.ambient_n == len(used)
            assert {bits[a.bit_length() - 1]: cls for a, cls in twins.items()} == {
                1 << (cls[0] - 1): tuple(1 << (v - 1) for v in cls)
                for cls in independent
                if cls[0] in used
            }
        assert True in flags and False in flags

    @pytest.mark.parametrize("v", (1, 2, 4))
    def test_blow_up_closed_form(self, v):
        # with the clones of x_v as their own class, pd is the largest
        # i + (t - 1) [x_v in tau] over the core's nonzero beta_{i,tau}
        for p in (2, 3):
            field = FieldSpec(p)
            entries = betti_table(CORE, field).entries
            for t in range(1, 31):
                ideal = blow_up(CORE, v, t)
                assert ideal.twin_classes() == ([(v, *range(8, 7 + t))] if t > 1 else [])
                closed = max(i + (t - 1) * (tau >> (v - 1) & 1) for i, tau, _ in entries)
                assert proj_dim(ideal, field) == depth_report(ideal, field).proj_dim == closed
