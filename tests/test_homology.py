"""Induced subcomplexes, finite-field ranks, reduced homology."""

import numpy as np
import pytest

from oracles import rank_mod_p_oracle
from sqfdepth.homology import (
    MAX_CHARACTERISTIC,
    FieldSpec,
    InducedComplex,
    induced_faces,
    rank_gf2,
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

    def test_rejects_primes_that_overflow_int64(self):
        # (p - 1)^2 must fit in int64 for the dense elimination to be exact;
        # 3037000493 and 3037000507 are the primes on either side of the cap
        assert (MAX_CHARACTERISTIC - 1) ** 2 < 2**63 <= (3037000507 - 1) ** 2
        assert FieldSpec(3037000493).characteristic == 3037000493
        for big in (3037000507, 4294967311, 2**89 - 1):
            with pytest.raises(ValueError, match="too large"):
                FieldSpec(big)
        with pytest.raises(ValueError, match="too large"):
            rank_mod_p(np.eye(2, dtype=int), 4294967311)


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


class TestRanks:
    def test_rank_gf2_known(self):
        # rows 110, 011, 101 over F2: third is the sum of the first two
        assert rank_gf2([0b110, 0b011, 0b101]) == 2

    def test_rank_mod_p_known(self):
        mat = np.array([[1, 2], [2, 4]])
        assert rank_mod_p(mat, 5) == 1
        assert rank_mod_p(np.eye(3, dtype=int), 3) == 3

    def test_rank_against_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            rows = int(rng.integers(1, 8))
            cols = int(rng.integers(1, 8))
            mat = rng.integers(0, 7, size=(rows, cols))
            for p in (2, 3, 5):
                want = rank_mod_p_oracle(mat.tolist(), p)
                assert rank_mod_p(mat, p) == want
                if p == 2:
                    packed = [
                        int(sum((int(mat[r, c]) % 2) << c for c in range(cols)))
                        for r in range(rows)
                    ]
                    assert rank_gf2(packed) == want
