"""The increasing-gap family and its step-by-step verification."""

import pytest

from sqfdepth import family
from sqfdepth.errors import InvalidFamilyParameter, SqfdepthError
from sqfdepth.family import FamilyReport, build_family, colon_tree, verify_theorem
from sqfdepth.graphs import edge_ideal
from sqfdepth.homology import FieldSpec
from sqfdepth.ideals import Ideal


def supports(ideal):
    return {g.support for g in ideal.gens}


class TestBuildFamily:
    def test_smallest_member(self):
        assert supports(build_family(6)) == {
            frozenset({1, 3, 5}),
            frozenset({1, 3, 6}),
            frozenset({1, 4, 5}),
            frozenset({2, 3, 4}),
            frozenset({2, 3, 6}),
        }

    def test_seven_variables(self):
        assert supports(build_family(7)) == {
            frozenset(s)
            for s in [[1, 3, 5], [1, 3, 6], [1, 3, 7], [1, 4, 5], [2, 3, 4], [2, 3, 6]]
        }

    def test_generator_count(self):
        for n in range(6, 13):
            assert len(build_family(n).gens) == n - 1

    def test_lost_generator_is_an_error(self, monkeypatch):
        # an explicit raise, so the check survives python -O
        original = Ideal.from_supports

        def one_short(supports, n):
            return original(list(supports)[1:], n)

        monkeypatch.setattr(family.Ideal, "from_supports", one_short)
        with pytest.raises(SqfdepthError, match="has 6 generators, not 7"):
            build_family(8)

    @pytest.mark.parametrize("n", (40, 63))
    @pytest.mark.parametrize("p", (2, 3))
    def test_twin_quotient_reaches_n63(self, n, p):
        # the 2^n sweep stopped at n = 24; family(n)'s twin quotient has 64 * (n - 5) candidates
        report = verify_theorem(n, FieldSpec(p))
        assert report.all_passed
        assert (report.g1, report.g2) == (1, n - 6)
        assert report.g2 - report.g1 == n - 7

    def test_too_small_rejected(self):
        with pytest.raises(InvalidFamilyParameter):
            build_family(5)
        with pytest.raises(InvalidFamilyParameter):
            colon_tree(5)

    def test_square_is_principal_on_first_six_variables(self):
        for n in (6, 9, 12):
            square = build_family(n).squarefree_power(2)
            assert supports(square) == {frozenset({1, 2, 3, 4, 5, 6})}

    def test_colon_matches_tree_edge_ideal(self):
        for n in (6, 8, 10):
            ideal = build_family(n)
            assert ideal.colon_by_variable(3) == edge_ideal(colon_tree(n))


class TestVerifyTheorem:
    def test_base_case(self):
        report = verify_theorem(6, FieldSpec(2))
        assert report.all_passed
        assert (report.g1, report.g2, report.nu) == (1, 0, 2)

    def test_flat_case(self):
        report = verify_theorem(7, FieldSpec(2))
        assert report.all_passed
        assert report.g1 == report.g2 == 1

    def test_growing_case_other_prime(self):
        report = verify_theorem(10, FieldSpec(3))
        assert report.all_passed
        assert (report.g1, report.g2) == (1, 4)

    def test_check_names_cover_the_argument(self):
        report = verify_theorem(6)
        assert [c.name for c in report.checks] == [
            "step-1", "step-3", "step-4", "step-2", "part-ii", "nu", "g-values",
        ]

    def test_gap_identity_when_all_checks_pass(self):
        for n in (6, 7, 9):
            report = verify_theorem(n)
            assert report.all_passed
            assert report.g2 - report.g1 == n - 7

    def test_primes_agree_on_small_members(self):
        for n in (6, 7, 8):
            r2 = verify_theorem(n, FieldSpec(2))
            r3 = verify_theorem(n, FieldSpec(3))
            assert (r2.g1, r2.g2) == (r3.g1, r3.g2)
            assert r2.all_passed and r3.all_passed

    def test_depth_only_engine_reaches_n16(self):
        for p in (2, 3):
            report = verify_theorem(16, FieldSpec(p))
            assert report.all_passed
            assert (report.g1, report.g2) == (1, 10)

    @pytest.mark.parametrize("n", (40, 63))
    @pytest.mark.parametrize("p", (2, 3))
    def test_twin_quotient_reaches_n63(self, n, p):
        # the 2^n sweep stopped at n = 24; family(n)'s twin quotient has 64 * (n - 5) candidates
        report = verify_theorem(n, FieldSpec(p))
        assert report.all_passed
        assert (report.g1, report.g2) == (1, n - 6)
        assert report.g2 - report.g1 == n - 7

    def test_too_small_rejected(self):
        with pytest.raises(InvalidFamilyParameter):
            verify_theorem(5)

    def test_json_shape(self):
        report = verify_theorem(6)
        data = report.to_json_dict()
        assert set(data) == {"n", "g1", "g2", "nu", "checks", "field_chars"}
        assert data["field_chars"] == [2]
        assert all(set(c) == {"name", "pass", "detail"} for c in data["checks"])
        assert all(c["pass"] for c in data["checks"])
