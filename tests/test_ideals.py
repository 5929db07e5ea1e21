"""Ideal arithmetic: canonical form, powers, colon/sum, primes, duality."""

import hashlib
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import max_matching_brute, minimal_transversals_brute, random_test_ideal
from sqfdepth.betti import depth, depth_report
from sqfdepth.errors import (
    AmbientMismatch,
    InvalidExponent,
    InvalidGenerator,
    ParseError,
    ZeroIdeal,
)
from sqfdepth.family import build_family
from sqfdepth.homology import FieldSpec
from sqfdepth.ideals import Ideal, Monomial, _minimal_masks, minimize_generators
from sqfdepth.search import canonical_relabeling_key


def supports(ideal):
    return {g.support for g in ideal.gens}


FAMILY6_GENS = [[1, 3, 5], [1, 3, 6], [1, 4, 5], [2, 3, 4], [2, 3, 6]]


def family6_report(characteristic):
    return depth_report(build_family(6), FieldSpec(characteristic))


class TestMinimize:
    def test_absorbs_multiples(self):
        ideal = Ideal.from_supports([[1, 2], [1, 2, 3]], 3)
        assert supports(ideal) == {frozenset({1, 2})}

    def test_antichain_left_alone(self):
        ideal = Ideal.from_supports(FAMILY6_GENS, 6)
        assert supports(ideal) == {frozenset(g) for g in FAMILY6_GENS}
        assert len(ideal.gens) == 5

    def test_empty_input_is_zero_ideal(self):
        assert Ideal.from_supports([], 4) == Ideal.zero(4)
        assert Ideal.zero(4).is_zero

    def test_empty_support_rejected(self):
        with pytest.raises(InvalidGenerator):
            Ideal.from_supports([[]], 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidGenerator):
            Ideal.from_supports([[4]], 3)

    def test_generator_outside_ring_rejected(self):
        # (x4) in a 3-variable ring would print as text that parse refuses
        with pytest.raises(InvalidGenerator):
            Ideal(3, (0b1000,))
        with pytest.raises(InvalidGenerator):
            Ideal(3, (0b011, 0b1100))

    def test_numpy_indices_make_int_masks(self):
        ideal = Ideal.from_supports(
            [[np.int64(1), np.int64(2)], [np.int64(2), np.int64(3)]], 3
        )
        assert ideal == Ideal.from_supports([[1, 2], [2, 3]], 3)
        assert all(type(m) is int for m in ideal.masks)
        assert canonical_relabeling_key(ideal) == canonical_relabeling_key(
            Ideal.from_supports([[1, 2], [2, 3]], 3)
        )

    def test_non_integer_index_rejected(self):
        with pytest.raises(InvalidGenerator):
            Ideal.from_supports([[1.5]], 3)
        with pytest.raises(InvalidGenerator):
            Monomial.from_support(["1"], 3)

    def test_monomial_input(self):
        gens = [Monomial.from_support([1, 2], 3), Monomial.from_support([1, 2, 3], 3)]
        assert minimize_generators(gens, 3) == Ideal.from_supports([[1, 2]], 3)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.sets(st.integers(1, n), min_size=1, max_size=n),
                    min_size=0,
                    max_size=8,
                ),
            )
        )
    )
    def test_minimize_idempotent_antichain_same_ideal(self, case):
        n, gen_sets = case
        ideal = Ideal.from_supports(gen_sets, n)
        # idempotent
        assert minimize_generators(list(ideal.gens), n) == ideal
        # antichain
        masks = ideal.masks
        for i, a in enumerate(masks):
            for b in masks[i + 1 :]:
                assert a & b != a and a & b != b
        # generates the same ideal: two-sided membership of generators
        for s in gen_sets:
            assert ideal.contains(Monomial.from_support(s, n))
        for g in ideal.gens:
            assert any(frozenset(s) <= g.support for s in gen_sets)


class TestMembership:
    def test_divisor_generator(self):
        ideal = Ideal.from_supports([[1, 2]], 3)
        assert ideal.contains(Monomial.from_support([1, 2, 3], 3))

    def test_non_member(self):
        ideal = Ideal.from_supports([[1, 2]], 3)
        assert not ideal.contains(Monomial.from_support([1, 3], 3))

    def test_full_support_in_family(self):
        ideal = build_family(6)
        assert ideal.contains(Monomial.from_support([1, 2, 3, 4, 5, 6], 6))

    def test_ambient_mismatch(self):
        ideal = Ideal.from_supports([[1, 2]], 3)
        with pytest.raises(AmbientMismatch):
            ideal.contains(Monomial.from_support([1, 2], 4))

    def test_monomial_divides(self):
        a = Monomial.from_support([1, 3], 4)
        b = Monomial.from_support([1, 2, 3], 4)
        assert a.divides(b) and not b.divides(a)
        with pytest.raises(AmbientMismatch):
            a.divides(Monomial.from_support([1, 3], 5))


class TestSquarefreePower:
    def test_family_square_is_principal(self):
        square = build_family(6).squarefree_power(2)
        assert supports(square) == {frozenset({1, 2, 3, 4, 5, 6})}

    def test_no_disjoint_pair_gives_zero(self):
        assert Ideal.from_supports([[1, 2]], 2).squarefree_power(2).is_zero

    def test_unique_disjoint_pair(self):
        ideal = Ideal.from_supports([[1, 2], [3, 4]], 4)
        assert supports(ideal.squarefree_power(2)) == {frozenset({1, 2, 3, 4})}

    def test_first_power_is_identity(self):
        ideal = Ideal.from_supports(FAMILY6_GENS, 6)
        assert ideal.squarefree_power(1) == ideal

    def test_bad_exponent(self):
        with pytest.raises(InvalidExponent):
            Ideal.from_supports([[1]], 1).squarefree_power(0)

    def test_powers_shrink_and_degrees_add(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(3, 9))
            ideal = random_test_ideal(rng, n)
            nu = ideal.nu()
            d1 = ideal.min_gen_degree()
            prev = ideal
            for k in range(2, nu + 1):
                power = ideal.squarefree_power(k)
                # every generator of the higher power lies in the lower one
                for g in power.gens:
                    assert prev.contains(g)
                assert power.min_gen_degree() >= prev.min_gen_degree() + d1
                prev = power
            assert ideal.squarefree_power(nu + 1).is_zero


class TestNu:
    def test_family_is_two(self):
        for n in (6, 8, 10):
            assert build_family(n).nu() == 2

    def test_single_generator(self):
        assert Ideal.from_supports([[1, 2]], 2).nu() == 1

    def test_three_disjoint(self):
        assert Ideal.from_supports([[1, 2], [3, 4], [5, 6]], 6).nu() == 3

    def test_zero_ideal(self):
        with pytest.raises(ZeroIdeal):
            Ideal.zero(3).nu()

    def test_matches_brute_force_matching(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            ideal = random_test_ideal(rng, n, max_gens=12)
            assert ideal.nu() == max_matching_brute([g.support for g in ideal.gens])


class TestMinGenDegree:
    def test_family_values(self):
        for n in (6, 9):
            ideal = build_family(n)
            assert ideal.min_gen_degree() == 3
            assert ideal.squarefree_power(2).min_gen_degree() == 6

    def test_mixed_degrees(self):
        assert Ideal.from_supports([[1], [2, 3]], 3).min_gen_degree() == 1

    def test_zero_ideal(self):
        with pytest.raises(ZeroIdeal):
            Ideal.zero(2).min_gen_degree()


class TestColonAndSum:
    def test_family_colon_by_x3(self):
        colon = build_family(6).colon_by_variable(3)
        assert supports(colon) == {
            frozenset({2, 4}),
            frozenset({2, 6}),
            frozenset({1, 5}),
            frozenset({1, 6}),
        }

    def test_colon_removes_variable(self):
        colon = Ideal.from_supports([[1, 2]], 2).colon_by_variable(1)
        assert supports(colon) == {frozenset({2})}

    def test_colon_by_absent_variable(self):
        ideal = Ideal.from_supports([[1, 2]], 3)
        assert ideal.colon_by_variable(3) == ideal

    def test_colon_to_unit_rejected(self):
        with pytest.raises(InvalidGenerator):
            Ideal.from_supports([[1]], 2).colon_by_variable(1)

    def test_family_sum_with_x3(self):
        total = build_family(6).add_variable(3)
        assert supports(total) == {frozenset({3}), frozenset({1, 4, 5})}

    def test_sum_on_zero_ideal(self):
        assert supports(Ideal.zero(3).add_variable(1)) == {frozenset({1})}

    def test_sum_idempotent(self):
        one = Ideal.from_supports([[1]], 2)
        assert one.add_variable(1) == one

    def test_index_range_checked(self):
        ideal = Ideal.from_supports([[1, 2]], 2)
        with pytest.raises(InvalidGenerator):
            ideal.colon_by_variable(3)
        with pytest.raises(InvalidGenerator):
            ideal.add_variable(0)

    def test_colon_sum_sandwich(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            ideal = random_test_ideal(rng, n)
            for j in range(1, n + 1):
                total = ideal.add_variable(j)
                try:
                    colon = ideal.colon_by_variable(j)
                except InvalidGenerator:
                    continue  # x_j is itself a generator
                for g in ideal.gens:
                    assert colon.contains(g) and total.contains(g)
                # x_j * (I : x_j) lands back inside I
                for g in colon.gens:
                    shifted = Monomial(g.mask | 1 << (j - 1), n)
                    assert ideal.contains(shifted)


class TestMinimalPrimes:
    def test_family_has_tail_prime(self):
        primes = build_family(6).minimal_primes()
        assert frozenset({4, 5, 6}) in primes

    def test_single_edge(self):
        primes = Ideal.from_supports([[1, 2]], 2).minimal_primes()
        assert set(primes) == {frozenset({1}), frozenset({2})}

    def test_three_cycle(self):
        ideal = Ideal.from_supports([[1, 2], [1, 3], [2, 3]], 3)
        assert set(ideal.minimal_primes()) == {
            frozenset({1, 2}),
            frozenset({1, 3}),
            frozenset({2, 3}),
        }

    def test_zero_ideal(self):
        with pytest.raises(ZeroIdeal):
            Ideal.zero(2).minimal_primes()

    def test_against_brute_force(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            ideal = random_test_ideal(rng, n)
            got = set(ideal.minimal_primes())
            want = minimal_transversals_brute([g.support for g in ideal.gens], n)
            assert got == want

    def test_every_antichain_on_four_variables(self):
        n = 4
        subsets = range(1, 1 << n)
        count = 0
        for r in range(1, len(subsets) + 1):
            for masks in itertools.combinations(subsets, r):
                if any(a & b == a for a, b in itertools.permutations(masks, 2)):
                    continue
                count += 1
                ideal = Ideal(n, masks)
                primes = ideal.minimal_primes()
                cover_masks = [sum(1 << (i - 1) for i in c) for c in primes]
                assert cover_masks == sorted(set(cover_masks))
                want = minimal_transversals_brute([g.support for g in ideal.gens], n)
                assert set(primes) == want
        assert count == 166  # Dedekind number M(4) = 168, less () and (1)

    def test_order_is_ascending_cover_mask(self):
        path5 = Ideal.from_supports([[1, 2], [2, 3], [3, 4], [4, 5]], 5)
        assert path5.minimal_primes() == [
            frozenset({2, 4}),
            frozenset({1, 3, 4}),
            frozenset({1, 3, 5}),
            frozenset({2, 3, 5}),
        ]
        assert path5.minimal_prime_masks() == [0b01010, 0b01101, 0b10101, 0b10110]

    def test_path_and_cycle_on_forty_vertices(self):
        # minimal vertex covers of the path and the cycle on n vertices obey
        # the Padovan and Perrin recurrence a(n) = a(n-2) + a(n-3)
        padovan = {1: 1, 2: 2, 3: 2}
        perrin = {3: 3, 4: 2, 5: 5}
        for n in range(4, 41):
            padovan[n] = padovan[n - 2] + padovan[n - 3]
        for n in range(6, 41):
            perrin[n] = perrin[n - 2] + perrin[n - 3]
        edges = [[i, i + 1] for i in range(1, 40)]
        path = Ideal.from_supports(edges, 40)
        cycle = Ideal.from_supports(edges + [[1, 40]], 40)
        assert len(path.minimal_primes()) == padovan[40] == 73396
        assert len(cycle.minimal_primes()) == perrin[40] == 76725
        assert path.krull_dim() == cycle.krull_dim() == 20

    def test_intersection_of_primes_recovers_ideal(self):
        rng = np.random.default_rng(53)
        cases = [random_test_ideal(rng, int(rng.integers(2, 8))) for _ in range(15)]
        cases.append(build_family(12))
        for ideal in cases:
            n = ideal.ambient_n
            primes = ideal.minimal_primes()
            for mask in range(1 << n):
                m = Monomial(mask, n)
                in_every_prime = all(
                    any(i in c for i in m.indices) for c in primes
                )
                assert in_every_prime == ideal.contains(m)


class TestKrullDim:
    def test_family(self):
        assert build_family(6).krull_dim() == 4

    def test_single_edge(self):
        assert Ideal.from_supports([[1, 2]], 2).krull_dim() == 1

    def test_zero_ideal(self):
        assert Ideal.zero(5).krull_dim() == 5


class TestAlexanderDual:
    def test_single_edge(self):
        dual = Ideal.from_supports([[1, 2]], 2).alexander_dual()
        assert supports(dual) == {frozenset({1}), frozenset({2})}

    def test_three_cycle_self_dual(self):
        ideal = Ideal.from_supports([[1, 2], [1, 3], [2, 3]], 3)
        assert ideal.alexander_dual() == ideal

    def test_two_variables(self):
        dual = Ideal.from_supports([[1], [2]], 2).alexander_dual()
        assert supports(dual) == {frozenset({1, 2})}

    def test_involution(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            n = int(rng.integers(2, 11))
            ideal = random_test_ideal(rng, n, max_degree=4)
            assert ideal.alexander_dual().alexander_dual() == ideal

    def test_zero_ideal(self):
        with pytest.raises(ZeroIdeal):
            Ideal.zero(2).alexander_dual()


class TestTextFormat:
    def test_round_trip_is_bit_exact(self):
        ideal = build_family(6)
        text = ideal.to_text()
        assert Ideal.parse(text).to_text() == text

    def test_comments_and_blank_lines(self):
        text = "# sample\n\nn=3\n# a generator\n1 2\n\n2 3\n"
        ideal = Ideal.parse(text)
        assert supports(ideal) == {frozenset({1, 2}), frozenset({2, 3})}

    def test_zero_ideal_file(self):
        ideal = Ideal.parse("n=4\n")
        assert ideal.is_zero and ideal.ambient_n == 4
        assert ideal.to_text() == "n=4\n"

    def test_non_canonical_input_minimized(self):
        ideal = Ideal.parse("n=3\n1 2 3\n1 2\n")
        assert supports(ideal) == {frozenset({1, 2})}

    def test_missing_header(self):
        with pytest.raises(ParseError):
            Ideal.parse("1 2\n")

    def test_bad_token(self):
        with pytest.raises(ParseError):
            Ideal.parse("n=3\n1 x\n")

    def test_out_of_range_index(self):
        with pytest.raises(ParseError):
            Ideal.parse("n=3\n1 4\n")

    def test_repeated_index_refused(self):
        with pytest.raises(ParseError, match="line 2: repeated"):
            Ideal.parse("n=3\n1 1 2\n")
        # from_supports takes a support as a set of indices
        assert Ideal.from_supports([[1, 1, 2]], 3) == Ideal.parse("n=3\n1 2\n")

    def test_bad_header_value(self):
        with pytest.raises(ParseError):
            Ideal.parse("n=0\n")
        with pytest.raises(ParseError):
            Ideal.parse("n=64\n")


class TestCanonicalOrder:
    def test_gens_sorted_by_mask(self):
        ideal = Ideal.from_supports([[2, 3, 6], [1, 3, 5], [2, 3, 4]], 6)
        masks = ideal.masks
        assert list(masks) == sorted(masks)

    def test_insertion_order_irrelevant(self):
        a = Ideal.from_supports([[1, 2], [3, 4], [1, 4]], 4)
        b = Ideal.from_supports([[1, 4], [1, 2], [3, 4]], 4)
        assert a == b and a.to_text() == b.to_text()


class TestCanonicalCheck:
    @pytest.mark.parametrize(
        "make, error, match",
        [
            (lambda: Ideal(3, (Monomial(0b011, 3),)), InvalidGenerator, "not an integer"),
            (lambda: Ideal(3, (2.5,)), InvalidGenerator, "not an integer"),
            (lambda: Ideal(3, (0,)), InvalidGenerator, "not a nonempty support"),
            (lambda: Ideal(3, (-1,)), InvalidGenerator, "not a nonempty support"),
            (lambda: Ideal(3, (0b011, 0b1000)), InvalidGenerator, "not a nonempty support"),
            (lambda: Ideal(3, 5), InvalidGenerator, "not a collection of integers"),
            (lambda: minimize_generators([Monomial(0b1, 4)], 3), AmbientMismatch, "ambient"),
            (lambda: Monomial(0b1000, 3), InvalidGenerator, "not a support in 1..3"),
            (lambda: Monomial(-1, 3), InvalidGenerator, "not a support in 1..3"),
            (lambda: Monomial(1.0, 3), InvalidGenerator, "not an integer"),
            (lambda: Monomial(0b1, 0), InvalidGenerator, "ambient_n must be in 1..63"),
            (lambda: Ideal.parse("# comment only\n\n"), ParseError, "missing 'n=<count>'"),
        ],
        ids=[
            "monomial-entry", "float-entry", "constant", "negative", "bit-at-ambient",
            "bare-int-masks", "minimize-foreign-monomial", "monomial-bit-at-ambient",
            "monomial-negative", "monomial-float", "monomial-ambient", "parse-no-header",
        ],
    )
    def test_refusals(self, make, error, match):
        with pytest.raises(error, match=match):
            make()

    @pytest.mark.parametrize(
        "n, masks, canonical",
        [
            (3, (0b110, 0b011), (0b011, 0b110)),
            (3, (0b011, 0b011), (0b011,)),
            (4, (0b0011, 0b0100, 0b0101), (0b0011, 0b0100)),
        ],
        ids=["not-ascending", "duplicate", "not-antichain"],
    )
    def test_canonicalizes(self, n, masks, canonical):
        # the constructor minimizes and sorts any list of generator masks
        assert Ideal(n, masks).masks == canonical
        assert Ideal(n, masks) == Ideal(n, canonical)

    @pytest.mark.parametrize(
        "call, expected",
        [
            (lambda: depth(Ideal.zero(2.5)), InvalidGenerator),
            (lambda: Ideal.from_supports([[1]], 2.5), InvalidGenerator),
            (lambda: Monomial.from_support([1], 2.5), InvalidGenerator),
            (lambda: family6_report(2.0), ValueError),
            (lambda: family6_report(5.0), ValueError),
            (lambda: json.dumps(family6_report(np.int64(3)).to_json_dict()), '"field_char": 3,'),
        ],
        ids=[
            "zero-ideal-ambient", "from-supports-ambient", "monomial-ambient",
            "field-two-float", "field-five-float", "field-numpy-int",
        ],
    )
    def test_non_integer_arguments(self, call, expected):
        # refused with a ValueError (CLI exit 2), or an integer kept as a plain int
        if isinstance(expected, str):
            assert expected in call()
        else:
            with pytest.raises(expected, match="integer"):
                call()

    def test_gens_view(self):
        ideal = build_family(7)
        assert ideal.gens == tuple(Monomial(m, 7) for m in ideal.masks)
        # numpy integers are stored as plain ints
        numpy_made = Ideal(np.int64(3), (np.int64(3),))
        assert numpy_made == Ideal(3, (3,))
        assert type(numpy_made.ambient_n) is int and type(numpy_made.masks[0]) is int

    def test_minimal_masks_against_brute_force(self):
        rng = random.Random(12)
        shuffler = random.Random(13)
        for _ in range(400):
            n = rng.randint(1, 10)
            masks = [rng.randrange(1, 1 << n) for _ in range(rng.randint(0, 25))]
            brute = sorted({m for m in masks if not any(k != m and k & m == k for k in masks)})
            assert _minimal_masks(masks) == brute
            # the constructor stores that canonical form, whatever the order of the list
            ideal = Ideal(n, masks)
            assert ideal.masks == tuple(brute)
            shuffled = Ideal(n, shuffler.sample(masks, len(masks)))
            assert shuffled == ideal and hash(shuffled) == hash(ideal)


def _path_ideal(n):
    return Ideal.from_supports([[i, i + 1] for i in range(1, n)], n)


def _dense_quadratic_ideal():
    pairs = list(itertools.combinations(range(1, 13), 2))
    return Ideal.from_supports(random.Random(3).sample(pairs, 40), 12)


class TestPowersPinned:
    # counts and SHA-256 of the concatenated text of I^[1..nu], as computed
    # before the degree-split minimization
    @pytest.mark.parametrize(
        "make, counts, digest",
        [
            (
                lambda: _path_ideal(20),
                [19, 153, 680, 1820, 3003, 3003, 1716, 495, 55, 1],
                "18f0052701133b5bd75a3dbbb919c47a74434525d1e81edf42f85d10a4810075",
            ),
            (
                _dense_quadratic_ideal,
                [40, 368, 852, 494, 66, 1],
                "2275bae1064d8a401691fa913f603a3b5de4fa45c793de1b90383f6a3c718e7a",
            ),
        ],
        ids=["path20", "dense-quadratic12"],
    )
    def test_every_power(self, make, counts, digest):
        ideal = make()
        powers = [ideal.squarefree_power(k) for k in range(1, ideal.nu() + 1)]
        assert [len(power.gens) for power in powers] == counts
        text = "".join(power.to_text() for power in powers)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
