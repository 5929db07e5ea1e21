"""Induced subcomplexes, finite-field ranks, reduced homology."""

import itertools
import tracemalloc

import numpy as np
import pytest

from oracles import (
    RP2_FACETS,
    antichains,
    homology_of_faces,
    integral_homology_of_faces,
    random_test_ideal,
    rank_mod_p_oracle,
)
from sqfdepth import betti, homology
from sqfdepth.family import build_family
from sqfdepth.homology import (
    MAX_CHARACTERISTIC,
    FieldSpec,
    InducedComplex,
    _is_prime,
    induced_faces,
    rank_gf2,
    rank_gf3,
    rank_mod_p,
    reduced_homology_dims,
)
from sqfdepth.ideals import Ideal

F2 = FieldSpec(2)
F3 = FieldSpec(3)


class TestFieldSpec:
    def test_accepts_primes(self):
        assert FieldSpec(2).characteristic == 2
        assert FieldSpec(13).characteristic == 13

    def test_rejects_composites(self):
        for bad in (0, 1, 4, 9, -3):
            with pytest.raises(ValueError):
                FieldSpec(bad)

    def test_accepts_primes_past_int64_and_rejects_above_cap(self):
        # ranks are exact Python-int arithmetic for every p; the cap is where
        # Miller-Rabin over bases 2..37 stops being a proof of primality
        assert MAX_CHARACTERISTIC == 2**64 - 1
        for big in (3037000507, 4294967311, 2**61 - 1, 18446744073709551557):
            assert FieldSpec(big).characteristic == big
        with pytest.raises(ValueError, match="too large"):
            FieldSpec(2**89 - 1)
        # (p - 1)^2 > 2^63 here: int64 elimination ranked the first matrix 2
        p = 4294967311
        assert rank_mod_p([{0: 1, 1: p - 1}, {0: p - 1, 1: 1}], p) == 1
        assert rank_mod_p([{0: p - 1, 1: 1}, {0: 1, 1: p - 1}], p) == 1
        assert rank_mod_p([{0: p - 1, 1: p - 2}, {0: p - 2, 1: p - 1}], p) == 2

    def test_primality_matches_trial_division(self):
        for p in range(-2, 20000):
            want = p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))
            assert _is_prime(p) == want, p

    def test_strong_pseudoprimes_rejected(self):
        # 3215031751 passes Miller-Rabin to bases 2, 3, 5 and 7, 561 is a
        # Carmichael number, 2^32 + 1 a base-2 Fermat pseudoprime, and the cap
        # 2^64 - 1 itself is composite
        for bad in (3215031751, 561, 2**32 + 1, 2**64 - 1):
            with pytest.raises(ValueError, match="prime"):
                FieldSpec(bad)


class TestInducedFaces:
    def test_single_edge_nonface(self):
        ideal = Ideal.from_supports([[1, 2]], 2)
        cx = induced_faces(ideal, [1, 2])
        assert cx.is_face([])
        assert cx.is_face([1]) and cx.is_face([2])
        assert not cx.is_face([1, 2])
        assert cx.faces_by_size() == [[0], [1, 2]]

    def test_three_cycle_restriction(self):
        ideal = Ideal.from_supports([[1, 2], [1, 3], [2, 3]], 3)
        cx = induced_faces(ideal, [1, 2, 3])
        assert cx.faces_by_size() == [[0], [1, 2, 4]]
        assert cx.facets() == [frozenset({1}), frozenset({2}), frozenset({3})]

    def test_empty_vertex_set(self):
        ideal = Ideal.from_supports([[1, 2]], 3)
        cx = induced_faces(ideal, [])
        assert cx.faces_by_size() == [[0]]
        assert cx.is_face([])

    def test_outside_vertices_are_not_faces(self):
        ideal = Ideal.from_supports([[1, 2]], 3)
        cx = induced_faces(ideal, [1])
        assert not cx.is_face([3])

    def test_sieve_matches_subset_walk(self):
        # faces, facets and homology of induced complexes, on vertex sets
        # anywhere in a large ring, against enumeration of all subsets
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(6, 40))
            small = random_test_ideal(rng, 6)
            shift = sorted(int(v) for v in rng.choice(n, size=6, replace=False) + 1)
            ideal = Ideal.from_supports([[shift[i - 1] for i in g.indices] for g in small.gens], n)
            sigma = [v for v in shift if rng.random() < 0.8]
            cx = induced_faces(ideal, sigma)
            subsets = [
                tuple(c) for r in range(len(sigma) + 1) for c in itertools.combinations(sigma, r)
            ]
            faces = [f for f in subsets if cx.is_face(f)]
            masks = [sum(1 << (v - 1) for v in f) for f in faces]
            want = [sorted(m for m in masks if m.bit_count() == s) for s in range(len(sigma) + 1)]
            while len(want) > 1 and not want[-1]:
                want.pop()
            assert cx.faces_by_size() == want
            face_set = {frozenset(f) for f in faces}
            maximal = [
                frozenset(f) for f in faces
                if not any(frozenset(f) | {v} in face_set for v in sigma if v not in f)
            ]
            assert sorted(cx.facets(), key=sorted) == sorted(maximal, key=sorted)
            for p in (2, 3, 5):
                oracle = homology_of_faces(set(faces), p)
                want_dims = [oracle.get(d, 0) for d in range(-1, len(sigma))]
                assert reduced_homology_dims(cx, FieldSpec(p)) == want_dims


class TestReducedHomology:
    def test_single_point_is_acyclic(self):
        ideal = Ideal.from_supports([[1, 2]], 2)
        dims = reduced_homology_dims(induced_faces(ideal, [1]), F2)
        assert dims == [0, 0]

    def test_two_isolated_points(self):
        ideal = Ideal.from_supports([[1, 2]], 2)
        dims = reduced_homology_dims(induced_faces(ideal, [1, 2]), F2)
        assert dims == [0, 1, 0]

    def test_hollow_triangle_has_a_circle(self):
        ideal = Ideal.from_supports([[1, 2, 3]], 3)
        dims = reduced_homology_dims(induced_faces(ideal, [1, 2, 3]), F2)
        assert dims == [0, 0, 1, 0]
        assert reduced_homology_dims(induced_faces(ideal, [1, 2, 3]), F3) == dims

    def test_empty_complex_carries_degree_minus_one(self):
        ideal = Ideal.from_supports([[1]], 2)
        dims = reduced_homology_dims(induced_faces(ideal, [1]), F2)
        assert dims == [1, 0]

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_top_past_the_largest_face(self, p):
        # sizes beyond the complex have no faces: zeros, not an IndexError
        hollow = homology.FaceSieve(3, [0b111], p)
        assert list(hollow.homology_dims(0b111, 5)) == [0, 0, 1, 0, 0, 0]
        assert list(homology.FaceSieve(0, [], p).homology_dims(0, 2)) == [1, 0, 0]
        # a consumer that stops early gets the same prefix
        assert list(itertools.islice(hollow.homology_dims(0b011, 9), 3)) == [0, 0, 0]

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_every_top_is_exact(self, p):
        # the hollow triangle is connected: H~_0 = 0 even when top stops
        # below its edges, which the value at size top still sees
        hollow = homology.FaceSieve(3, [0b111], p)
        assert list(hollow.homology_dims(0b111, 1)) == [0, 0]
        assert list(hollow.homology_dims(0b111, 0)) == [0]
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            ideal = random_test_ideal(rng, n)
            sieve = homology.FaceSieve(n, ideal.masks, p)
            for sigma in rng.integers(0, 1 << n, size=4).tolist():
                full = list(sieve.homology_dims(sigma, n))
                for top in range(n + 1):
                    assert list(sieve.homology_dims(sigma, top)) == full[: top + 1]


class TestTorsionFreeLemma:
    """No complex on at most ``betti._TORSION_FREE_VERTICES`` vertices has torsion."""

    @staticmethod
    def faces(n: int, nonfaces: list[int]) -> set[tuple[int, ...]]:
        return {
            tuple(v for v in range(n) if f >> v & 1)
            for f in range(1 << n)
            if not any(f & g == g for g in nonfaces)
        }

    def test_every_complex_on_five_vertices(self):
        # the minimal nonfaces of a complex on at most 5 vertices are an
        # antichain of nonempty subsets of 5 labelled vertices; the bound
        # may not pass what this checks
        n = 5
        assert betti._TORSION_FREE_VERTICES <= n
        complexes = antichains(n)
        assert len(complexes) == 7580
        for nonfaces in complexes:
            integral = integral_homology_of_faces(self.faces(n, nonfaces))
            assert all(not torsion for _, torsion in integral.values()), nonfaces
            ranks = [integral.get(s - 1, (0, []))[0] for s in range(n + 1)]
            for p in (2, 3, 5, 7):
                dims = homology.FaceSieve(n, nonfaces, p).homology_dims((1 << n) - 1, n)
                assert list(dims) == ranks, (nonfaces, p)

    def test_projective_plane_has_torsion(self):
        # the oracle sees torsion where there is some, so the lemma is not vacuous
        faces = {f for facet in RP2_FACETS for k in range(4) for f in itertools.combinations(facet, k)}
        integral = integral_homology_of_faces(faces)
        assert integral == {-1: (0, []), 0: (0, []), 1: (0, [2]), 2: (0, [])}


class TestSweepCap:
    @pytest.mark.parametrize(
        "use",
        [
            lambda cx: reduced_homology_dims(cx, F2),
            lambda cx: cx.faces_by_size(),
            lambda cx: cx.facets(),
        ],
        ids=["reduced_homology_dims", "faces_by_size", "facets"],
    )
    def test_refused_before_the_sweep(self, use):
        # 25 vertices would sweep 2^25 masks; the refusal comes first
        cx = induced_faces(Ideal.from_supports([[1, 2]], 40), range(1, 26))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds 24"):
                use(cx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestClearing:
    def test_cleared_rows_are_never_built(self, monkeypatch):
        # a pivot of the coboundary out of size s - 1 clears one row of size s,
        # so exactly f_s - rank(delta_{s-1}) rows reach the elimination
        built: list[int] = []

        def recording(rank):
            def wrapped(rows, *args):
                built.append(len(rows))
                return rank(rows, *args)

            return wrapped

        monkeypatch.setattr(homology, "rank_gf2", recording(homology.rank_gf2))
        monkeypatch.setattr(homology, "rank_gf3", recording(homology.rank_gf3))
        monkeypatch.setattr(homology, "rank_mod_p", recording(homology.rank_mod_p))
        hollow = induced_faces(Ideal.from_supports([[1, 2, 3]], 3), [1, 2, 3])
        family = build_family(7)
        complexes = (hollow, induced_faces(family, range(1, 8)))
        for cx, field in itertools.product(complexes, (F2, F3, FieldSpec(5))):
            built.clear()
            faces = cx.faces_by_size()
            dims = reduced_homology_dims(cx, field)
            want, below = [], 0
            for s in range(len(faces) - 1):
                want.append(len(faces[s]) - below)
                below = len(faces[s]) - below - dims[s]
            assert built == want
        assert reduced_homology_dims(hollow, F3) == [0, 0, 1, 0]


class TestRanks:
    def test_rank_gf2_known(self):
        # rows 110, 011, 101 over F2: third is the sum of the first two
        assert rank_gf2([0b110, 0b011, 0b101]) == 2

    def test_rank_gf3_known(self):
        # (plus, minus) planes: (0b01, 0b10) is the row [1, 2] (column 0 first)
        assert rank_gf3([(0b01, 0b10), (0b10, 0b01)]) == 1  # [2, 1] = 2 * [1, 2]
        assert rank_gf3([(0b01, 0b10), (0b11, 0)]) == 2
        # leading coefficient 2: [0, 0, 2] and, once reduced, [2, 0, 0] are
        # scaled to leading 1 before they enter the basis
        basis: dict = {}
        assert rank_gf3([(0, 0b100), (0b100, 0b001), (0b001, 0)], basis) == 2
        assert basis == {2: (0b100, 0), 0: (0b001, 0)}
        assert rank_gf3([(0b011, 0), (0, 0b011)]) == 1  # [2, 2] = 2 * [1, 1]
        # [2, 1] - [1, 1] is computed as [2, 1] + [2, 2]: needs 2 + 2 = 1
        assert rank_gf3([(0b11, 0), (0b10, 0b01)]) == 2
        # [1, 2, 0] + [0, 1, 2] = [1, 0, 2]
        assert rank_gf3([(0b001, 0b010), (0b010, 0b100), (0b001, 0b100)]) == 2

    def test_rank_mod_p_known(self):
        assert rank_mod_p([{0: 1, 1: 2}, {0: 2, 1: 4}], 5) == 1
        assert rank_mod_p([{0: 1}, {1: 1}, {2: 1}], 3) == 3
        assert rank_mod_p([{}, {3: 3}, {0: -1}], 3) == 1

    def test_rank_against_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            rows = int(rng.integers(1, 8))
            cols = int(rng.integers(1, 8))
            mat = rng.integers(0, 7, size=(rows, cols)).tolist()
            dict_rows = [{c: x for c, x in enumerate(row) if x} for row in mat]
            for p in (2, 3, 5, 4294967311, 2**61 - 1):
                want = rank_mod_p_oracle(mat, p)
                assert rank_mod_p(dict_rows, p) == want
                if p == 2:
                    packed = [sum((x % 2) << c for c, x in enumerate(row)) for row in mat]
                    assert rank_gf2(packed) == want
                if p == 3:
                    planes = [
                        tuple(
                            sum(1 << c for c, x in enumerate(row) if x % 3 == value)
                            for value in (1, 2)
                        )
                        for row in mat
                    ]
                    assert rank_gf3(planes) == want
