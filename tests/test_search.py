"""Seeded search: determinism, findings, dedup, exhaustive mode."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    max_matching_brute,
    random_test_ideal,
    relabel_ideal,
    sampled_ideal_fresh,
    transposed_rp2,
)
from sqfdepth import search
from sqfdepth.betti import depth, g_profile
from sqfdepth.errors import DegenerateSample, SpaceTooLarge
from sqfdepth.family import build_family
from sqfdepth.homology import FieldSpec
from sqfdepth.ideals import Ideal
from sqfdepth.search import (
    SearchConfig,
    canonical_relabeling_key,
    candidate_pool,
    random_ideal,
    scan,
)


def base_cfg(**kw):
    defaults = dict(ambient_n=6, seed=5, sample_count=30, gen_degree=3, gen_count=4)
    defaults.update(kw)
    return SearchConfig(**defaults)


class TestConfig:
    def test_ambient_cap(self):
        with pytest.raises(ValueError):
            SearchConfig(ambient_n=15, sample_count=1, gen_count=2)

    def test_needs_a_sampling_policy(self):
        with pytest.raises(ValueError):
            SearchConfig(ambient_n=5, sample_count=1)

    def test_density_range(self):
        with pytest.raises(ValueError):
            base_cfg(density=1.5, gen_count=None)

    def test_density_and_gen_count_refused_together(self):
        # each picks a sampling mode; the density one used to win silently
        with pytest.raises(ValueError, match="density and gen_count"):
            base_cfg(density=0.5, gen_count=2)

    def test_primes_validated(self):
        with pytest.raises(ValueError):
            base_cfg(primes=(4,))
        assert base_cfg(primes=(2, 4294967311)).primes == (2, 4294967311)
        with pytest.raises(ValueError, match="too large"):
            base_cfg(primes=(2, 2**89 - 1))

    def test_repeated_primes_refused(self):
        with pytest.raises(ValueError, match="distinct"):
            base_cfg(primes=(2, 3, 2))
        assert base_cfg(primes=(3, 2)).primes == (3, 2)

    def test_injected_ambient_checked(self):
        with pytest.raises(ValueError):
            base_cfg(inject=(build_family(7),))

    def test_inject_stored_as_a_tuple_of_ideals(self):
        # a list was stored as given, so hash(cfg) raised TypeError
        fam = build_family(8)
        cfg = base_cfg(ambient_n=8, inject=[fam])
        assert cfg.inject == (fam,) and hash(cfg) == hash(base_cfg(ambient_n=8, inject=(fam,)))
        # each was an AttributeError or a TypeError
        for inject in (fam, [fam, "n=8\n1 2"], [fam.masks]):
            with pytest.raises(ValueError, match="inject"):
                base_cfg(ambient_n=8, inject=inject)

    def test_zero_injected_ideal_refused(self):
        with pytest.raises(ValueError, match="zero"):
            base_cfg(ambient_n=8, inject=(build_family(8), Ideal(8, ())))

    def test_edge_mode_ignores_gen_degree(self):
        # the default gen_degree 3 exceeds two variables, but edge mode never uses it
        cfg = SearchConfig(ambient_n=2, edge_ideals_only=True, exhaustive=True)
        assert scan(cfg).summary["evaluated"] == 1
        with pytest.raises(ValueError, match="ambient_n >= 2"):
            SearchConfig(ambient_n=1, edge_ideals_only=True, exhaustive=True)
        with pytest.raises(ValueError, match="gen_degree"):
            SearchConfig(ambient_n=2, exhaustive=True)

    @pytest.mark.parametrize(
        "field, value, match",
        [("seed", 2**64, "64 bits"), ("sample_count", -1, "nonnegative"), ("primes", (), "nonempty")],
    )
    def test_field_refused(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            base_cfg(**{field: value})

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("seed", 1.5, "seed 1.5 is not an integer"),
            ("sample_count", 2.5, "sample_count 2.5 is not an integer"),
            ("ambient_n", 8.0, "ambient_n 8.0 is not an integer"),
            ("exhaustive_cap", 2.0, "exhaustive_cap 2.0 is not an integer"),
            ("gen_count", (1.5, 3), "gen_count 1.5 is not an integer"),
            ("gen_degree", (3,), r"gen_degree must be an integer or a pair \(lo, hi\), got \(3,\)"),
            ("gen_degree", "3", "gen_degree '3' is not an integer"),
        ],
    )
    def test_non_integer_field_refused(self, field, value, match):
        # refused when the config is made, before any scan opens its log
        with pytest.raises(ValueError, match=match):
            base_cfg(**{field: value})

    def test_integer_fields_stored_as_plain_ints(self):
        cfg = base_cfg(ambient_n=np.int64(6), seed=np.uint64(5), sample_count=np.int32(30))
        assert cfg == base_cfg()
        assert all(type(v) is int for v in (cfg.ambient_n, cfg.seed, cfg.sample_count))
        cfg = base_cfg(gen_degree=np.int64(3), gen_count=(np.int64(2), 4))
        assert (cfg.gen_degree, cfg.gen_count) == ((3, 3), (2, 4))
        assert all(type(v) is int for v in cfg.gen_degree + cfg.gen_count)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            # each was silent: 'no' is truthy, and True compares as density 1
            ("edge_ideals_only", "no", "edge_ideals_only must be True or False, got 'no'"),
            ("exhaustive", "no", "exhaustive must be True or False, got 'no'"),
            ("density", True, "density must be a number in \\[0, 1\\], got True"),
            # each was a bare TypeError
            ("primes", 2, "primes must be a tuple of primes, got 2"),
            ("density", "0.5", "density must be a number in \\[0, 1\\], got '0.5'"),
        ],
    )
    def test_non_integer_setting_refused(self, field, value, match):
        kw = {field: value, "gen_count": None} if field == "density" else {field: value}
        with pytest.raises(ValueError, match=match):
            base_cfg(**kw)

    def test_settings_stored_as_plain_values(self):
        cfg = base_cfg(density=np.float32(0.5), gen_count=None, primes=[3, 2], exhaustive=np.True_)
        assert (cfg.density, cfg.primes, cfg.exhaustive) == (0.5, (3, 2), True)
        assert type(cfg.density) is float and type(cfg.exhaustive) is bool
        assert base_cfg(density=1, gen_count=None).density == 1.0

    def test_sample_count_fits_the_philox_key(self):
        # sample indices are the low 64 bits of the key; 2^64 would reach the seed's half
        assert base_cfg(sample_count=2**64).sample_count == 2**64
        with pytest.raises(
            ValueError, match=r"sample_count must be at most 2\*\*64, got 18446744073709551617"
        ):
            base_cfg(sample_count=2**64 + 1)

    def test_exhaustive_cap_below_one_refused(self):
        for cap in (0, -1):
            with pytest.raises(ValueError, match="exhaustive_cap"):
                SearchConfig(ambient_n=4, exhaustive=True, exhaustive_cap=cap)
        assert SearchConfig(ambient_n=4, exhaustive=True, exhaustive_cap=1).exhaustive_cap == 1


class TestRandomIdeal:
    def test_deterministic_in_seed_and_index(self):
        cfg = base_cfg()
        assert random_ideal(cfg, 7) == random_ideal(cfg, 7)
        assert random_ideal(cfg, 7) != random_ideal(cfg, 8)

    def test_full_density_forces_triangle(self):
        cfg = SearchConfig(
            ambient_n=3, seed=0, sample_count=1, density=1.0, edge_ideals_only=True
        )
        triangle = Ideal.from_supports([[1, 2], [1, 3], [2, 3]], 3)
        assert random_ideal(cfg, 0) == triangle

    def test_zero_density_degenerates(self):
        cfg = SearchConfig(ambient_n=4, seed=0, sample_count=1, density=0.0)
        with pytest.raises(DegenerateSample):
            random_ideal(cfg, 0)

    def test_exhaustive_config_has_no_random_draw(self):
        cfg = SearchConfig(ambient_n=4, exhaustive=True)
        with pytest.raises(ValueError, match="need density or gen_count"):
            random_ideal(cfg, 0)

    def test_pool_respects_degree_range(self):
        cfg = base_cfg(gen_degree=(2, 3))
        sizes = {m.bit_count() for m in candidate_pool(cfg)}
        assert sizes == {2, 3}

    def test_edge_pool_is_all_pairs(self):
        cfg = SearchConfig(
            ambient_n=4, seed=0, sample_count=1, density=0.5, edge_ideals_only=True
        )
        assert len(candidate_pool(cfg)) == 6


def outcomes(draw, indices) -> list:
    """Each index's draw, or the message of its DegenerateSample."""
    out = []
    for index in indices:
        try:
            out.append(draw(index))
        except DegenerateSample as exc:
            out.append(str(exc))
    return out


def ranged(draw, indices: range) -> list:
    """``outcomes`` of a sampler asked for the whole range at once, as mask
    rows; a DegenerateSample ends a range, so the next range starts past it."""
    out = []
    while len(out) < len(indices):
        try:
            out.extend(draw(indices[len(out):]))
        except DegenerateSample as exc:
            out.append(str(exc))
    return out


def numpy_words(seed: int, index: int):
    """The 32-bit words of numpy's ``Philox(key=(seed << 64) | index)``, low
    half first, as ``next_uint32`` hands them out on a fresh generator."""
    bits = np.random.Philox(key=(seed << 64) | index)
    while True:
        for word in bits.random_raw(64).tolist():
            yield word & 0xFFFFFFFF
            yield word >> 32


class TestSampler:
    """The range sampler's mask rows against a fresh Philox generator per index."""

    @pytest.mark.parametrize(
        "kw",
        [
            dict(ambient_n=8, seed=7, gen_degree=3, gen_count=5),
            # a count range draws the count first, through rng.integers
            dict(ambient_n=7, seed=2**64 - 1, gen_degree=(2, 3), gen_count=(3, 6)),
            # a count equal to the pool, and counts past it cut to the pool
            dict(ambient_n=5, seed=0, gen_degree=2, gen_count=10),
            dict(ambient_n=5, seed=0, gen_degree=2, gen_count=(8, 14)),
            dict(ambient_n=8, seed=3, edge_ideals_only=True, density=0.3),
        ],
        ids=["count", "count-range", "count-is-pool", "count-past-pool", "edges"],
    )
    def test_matches_a_fresh_generator_per_index(self, kw):
        cfg = SearchConfig(sample_count=80, **kw)
        draw = search._sampler(cfg)
        indices = [*range(80), 2**63, 2**64 - 1]
        expected = [sampled_ideal_fresh(cfg, i)[0] for i in indices]
        rows = [ideal.masks for ideal in expected]
        assert ranged(draw, range(80)) == rows[:80]
        # ranges of one index, as random_ideal draws them
        assert [ranged(draw, range(i, i + 1))[0] for i in indices] == rows
        assert [random_ideal(cfg, i) for i in indices] == expected

    @pytest.mark.parametrize(
        "kw",
        [
            dict(ambient_n=8, seed=7, gen_degree=3, gen_count=5),
            dict(ambient_n=7, seed=2**64 - 1, gen_degree=(2, 3), gen_count=(3, 6)),
            dict(ambient_n=8, seed=3, edge_ideals_only=True, density=0.3),
        ],
        ids=["count", "count-range", "edges"],
    )
    @pytest.mark.parametrize(
        "start, stop",
        [(5, 140), (127, 129), (300, 301), (2**64 - 128, 2**64), (2**64 - 3, 2**64)],
        ids=["off-128", "across-128", "one", "ends-at-last", "short-at-last"],
    )
    def test_ranges_match_a_fresh_generator_per_index(self, kw, start, stop):
        # a range need not start on a multiple of 128, and its rows are its own
        cfg = SearchConfig(sample_count=2**64, **kw)
        expected = [sampled_ideal_fresh(cfg, i)[0].masks for i in range(start, stop)]
        assert ranged(search._sampler(cfg), range(start, stop)) == expected

    def test_retries_match_a_fresh_generator(self):
        # a pool of 4 at density 0.1: about two draws in three come up empty
        cfg = SearchConfig(ambient_n=4, seed=1, sample_count=80, gen_degree=3, density=0.1)
        expected = outcomes(lambda i: sampled_ideal_fresh(cfg, i)[0].masks, range(80))
        assert ranged(search._sampler(cfg), range(80)) == expected
        assert outcomes(lambda i: random_ideal(cfg, i).masks, range(80)) == expected
        drawn = [i for i in range(80) if isinstance(expected[i], tuple)]
        assert sum(sampled_ideal_fresh(cfg, i)[1] > 1 for i in drawn) >= 20

    def test_degenerate_samples_match_a_fresh_generator(self):
        # a pool of 1 at density 0.05: 16 empty draws in a row have chance 0.44
        cfg = SearchConfig(ambient_n=3, seed=0, sample_count=80, gen_degree=3, density=0.05)
        expected = outcomes(lambda i: sampled_ideal_fresh(cfg, i)[0].masks, range(80))
        # a degenerate index leaves the generator mid-stream; the next draw starts over
        assert ranged(search._sampler(cfg), range(80)) == expected
        assert outcomes(lambda i: random_ideal(cfg, i).masks, range(80)) == expected
        messages = [x for x in expected if isinstance(x, str)]
        assert 20 <= len(messages) <= 60
        assert all(m.endswith(" stayed zero after 16 attempts") for m in messages)

    def test_interleaved_samplers_draw_as_alone(self):
        a = base_cfg(seed=11, gen_count=(2, 5))
        b = base_cfg(seed=12, gen_count=None, density=0.05)
        alone_a = ranged(search._sampler(a), range(40))
        alone_b = ranged(search._sampler(b), range(40))[::-1]
        draw_a, draw_b = search._sampler(a), search._sampler(b)
        both_a, both_b = [], []
        for i in range(40):
            both_a += ranged(draw_a, range(i, i + 1))
            both_b += ranged(draw_b, range(39 - i, 40 - i))
        assert (both_a, both_b) == (alone_a, alone_b)

    def test_tail_shuffle_matches_a_fresh_generator(self):
        # a pool of 15444 supports: numpy's choice shuffles the tail of the
        # pool for counts above 15444 // 50 = 308, and runs Floyd's below
        cfg = SearchConfig(
            ambient_n=14, seed=2**64 - 1, sample_count=8, gen_degree=(4, 10), gen_count=(300, 320)
        )
        assert len(candidate_pool(cfg)) == 15444
        indices = [0, 1, 2, 3, 4, 5, 2**64 - 1]
        counts = [300 + search._bounded(numpy_words(cfg.seed, i), 20) for i in indices]
        assert min(counts) <= 308 < max(counts)
        draw = search._sampler(cfg)
        expected = [sampled_ideal_fresh(cfg, i)[0].masks for i in indices]
        assert ranged(draw, range(6)) + ranged(draw, range(2**64 - 1, 2**64)) == expected

    def test_draws_past_the_row_go_on_from_the_next_counter(self, monkeypatch):
        # one counter block is 8 words, and a count of 8..12 reads 9 to 13
        monkeypatch.setattr(search, "_ROW_BLOCKS", 1)
        cfg = SearchConfig(ambient_n=8, seed=9, sample_count=300, gen_degree=3, gen_count=(8, 12))
        draw = search._sampler(cfg)
        expected = [sampled_ideal_fresh(cfg, i)[0].masks for i in range(300)]
        assert ranged(draw, range(300)) == expected
        assert [ranged(draw, range(i, i + 1))[0] for i in range(0, 300, 7)] == expected[::7]

    def test_draws_far_past_the_row_take_doubling_passes(self):
        # every 7-subset of 14 variables: 3432 picks read 3432 words or more,
        # 64 from the row and the rest from passes of 8, 16, 32, ... blocks
        cfg = SearchConfig(
            ambient_n=14, seed=2**64 - 1, sample_count=3, gen_degree=7, gen_count=3432
        )
        assert len(candidate_pool(cfg)) == 3432
        expected = [sampled_ideal_fresh(cfg, i)[0].masks for i in range(3)]
        assert ranged(search._sampler(cfg), range(3)) == expected
        assert expected[0] == candidate_pool(cfg)
        # a count range draws its count first, and picks short of the pool
        cfg = SearchConfig(
            ambient_n=14, seed=4, sample_count=3, gen_degree=7, gen_count=(1000, 3000)
        )
        expected = [sampled_ideal_fresh(cfg, i)[0].masks for i in range(3)]
        assert ranged(search._sampler(cfg), range(3)) == expected

    @pytest.mark.parametrize("index", [-1, 2**64])
    def test_index_outside_the_key_refused(self, index):
        with pytest.raises(ValueError, match="outside 0..2\\*\\*64 - 1"):
            random_ideal(base_cfg(), index)

    @pytest.mark.parametrize(
        "mode, loaded",
        [("--gen-count=3-5", False), ("--gen-count=1-60", False), ("--density=0.3", True)],
    )
    def test_only_the_density_mode_loads_numpy_random(self, mode, loaded):
        # in a fresh interpreter, the count mode takes its words from
        # _philox_block's uint64 arithmetic and the density mode from
        # numpy.random.  Neither loads numpy.ma, which np.unique's first call
        # imports for about 10 ms.
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = (
            "import sys\n"
            "from sqfdepth.cli import main\n"
            "main(['search', '--ambient-n', '6', '--samples', '200', '--gen-degree', '1-3',"
            f" '{mode}'])\n"
            "print(*(name in sys.modules for name in ('numpy', 'numpy.random', 'numpy.ma')))\n"
        )
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, check=True,
        )
        assert run.stdout.splitlines()[-1] == f"True {loaded} False"


class TestPhiloxStream:
    """The count mode's words and draws against numpy's own Philox generator."""

    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
    @pytest.mark.parametrize("index", [0, 7, 2**64 - 1])
    def test_words_are_the_raw_words_low_half_first(self, seed, index):
        # the count mode hands out each row's 64-bit words as this oracle's halves
        raw = np.random.Philox(key=(seed << 64) | index).random_raw(12).tolist()
        halves = [half for word in raw for half in (word & 0xFFFFFFFF, word >> 32)]
        assert list(itertools.islice(numpy_words(seed, index), 24)) == halves
        row = search._philox_block(seed, [index], 3)
        assert row.astype("<u8").view("<u4").tolist() == [halves]

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize(
        "indices, blocks",
        [
            ([0], 1),
            ([2**64 - 1], 2),
            (list(range(2**64 - 5, 2**64)), 3),
            ([0, 9, 2**63, 2**64 - 1, 9], 2),
        ],
        ids=["zero", "last", "ends-at-last", "mixed"],
    )
    def test_block_is_the_raw_words_of_each_key(self, seed, indices, blocks):
        got = search._philox_block(seed, indices, blocks)
        assert got.dtype == np.uint64 and got.shape == (len(indices), 4 * blocks)
        raw = [
            np.random.Philox(key=(seed << 64) | index).random_raw(4 * blocks + 8).tolist()
            for index in indices
        ]
        assert got.tolist() == [words[:4 * blocks] for words in raw]
        # from counter c on, the words skip the 4 (c - 1) before it
        later = search._philox_block(seed, indices, 3, start=blocks)
        assert later.tolist() == [words[4 * (blocks - 1):] for words in raw]

    @pytest.mark.parametrize(
        "population, size",
        [(1, 1), (56, 5), (56, 56), (10000, 9000), (10001, 200), (10001, 201), (15444, 15444)],
    )
    def test_distinct_picks_what_choice_picks(self, population, size):
        # the tail shuffle runs for population > 10000 and size > population // 50
        for seed, index in [(0, 0), (3, 11), (2**64 - 1, 2**64 - 1)]:
            rng = np.random.Generator(np.random.Philox(key=(seed << 64) | index))
            expected = sorted(rng.choice(population, size=size, replace=False).tolist())
            words = numpy_words(seed, index)
            assert search._distinct(words, population, size) == expected

    @pytest.mark.parametrize("lo, hi", [(5, 5), (3, 9), (1, 60)])
    def test_vector_draws_pick_what_choice_picks(self, lo, hi):
        # the count mode's rows and its vector pass against a fresh generator per key
        pool = search._supports(8, 2, 3)
        for seed, indices in [(0, range(40)), (2**64 - 1, range(2**64 - 40, 2**64))]:
            blocks = -(-((lo < hi) + hi) // 8)
            words = search._philox_block(seed, indices, blocks).astype("<u8").view("<u4")
            got = search._vector_draws(words, lo, hi, np.array(pool, dtype=np.int64))
            expected = []
            for index in indices:
                rng = np.random.Generator(np.random.Philox(key=(seed << 64) | index))
                count = int(rng.integers(lo, hi + 1)) if lo < hi else lo
                picks = sorted(rng.choice(len(pool), size=count, replace=False).tolist())
                expected.append([pool[i] for i in picks])
            assert got == expected

    def test_bounded_draws_what_integers_draws_through_rejections(self):
        # a span of 2**31 + 1 rejects about half of the words
        top, rejected = 2**31, 0
        for index in range(40):
            rng = np.random.Generator(np.random.Philox(key=(1 << 64) | index))
            read = []
            words = (read.append(w) or w for w in numpy_words(1, index))
            assert search._bounded(words, top) == int(rng.integers(0, top, endpoint=True))
            rejected += len(read) > 1
            # the next draw starts on the same word, spare half included
            assert search._bounded(words, 999) == int(rng.integers(0, 999, endpoint=True))
        assert rejected >= 10

    def test_bounded_rejects_crafted_words(self):
        # span 2**31 + 1: w * span has low word w + (w & 1) * 2**31 mod 2**32,
        # and a low word below 2**32 mod span = 2**31 - 1 is rejected
        words = iter([2, 4, 2**30, 1, 99])
        assert search._bounded(words, 2**31) == 0
        assert next(words) == 99
        assert search._bounded(iter([2**32 - 1]), 2**31) == 2**31
        # span 3: 3 * 0x55555556 = 2**32 + 2 has a low word below the span but
        # not below 2**32 mod 3 = 1, so it stands; 3 * 0 is rejected
        assert search._bounded(iter([0x55555556]), 2) == 1
        assert search._bounded(iter([0, 0, 0x55555556]), 2) == 1

    def test_bounded_reads_no_word_for_one_value(self):
        assert search._bounded(iter([]), 0) == 0

    @pytest.mark.parametrize("top", [-1, 2**32 - 1, 2**32])
    def test_bounded_refuses_tops_past_32_bits(self, top):
        with pytest.raises(ValueError, match="0 <= top < 2\\*\\*32 - 1"):
            search._bounded(iter([5]), top)


def scalar_draw(row: list[int], lo: int, hi: int, pool: tuple[int, ...]):
    """The scalar draw from the words of ``row``: its masks, the words it
    read and its count; None when it reads past the row."""
    read = []
    words = (read.append(w) or w for w in row)
    try:
        count = min(lo + search._bounded(words, hi - lo), len(pool))
        picks = search._distinct(words, len(pool), count)
    except StopIteration:
        return None
    return [pool[i] for i in picks], len(read), count


def assert_vector_draws_match(words: np.ndarray, lo: int, hi: int, pool: tuple[int, ...]) -> list:
    """The vector pass on ``words`` against the scalar draw, row by row: it
    draws exactly the rows that read one word for the count, if it has a
    range, and one per pick, short of the whole pool and of numpy's tail
    shuffle, and it draws them as the scalar draw does.  Returns its rows."""
    got = search._vector_draws(words, lo, hi, np.array(pool, dtype=np.int64))
    assert len(got) == len(words)
    for row, fast in zip(words.tolist(), got):
        scalar = scalar_draw(row, lo, hi, pool)
        if scalar is None:
            assert fast is None
            continue
        masks, read, count = scalar
        plain = read == (lo < hi) + count and count < len(pool)
        if len(pool) > 10000 and count > len(pool) // 50:
            plain = False
        assert fast == (masks if plain else None), (row, lo, hi)
    return got


def random_rows(seed: int, rows: int, width: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2**32, size=(rows, width), dtype=np.uint32)


class TestVectorDraws:
    """``_vector_draws`` against the scalar ``_bounded`` and ``_distinct`` on the same words."""

    @pytest.mark.parametrize("lo, hi", [(5, 5), (3, 5), (1, 60)])
    def test_zero_words_force_a_rejection(self, lo, hi):
        # a zero word's product has low word 0, below 2**32 mod span for any
        # span that is no power of two, as the counts' 3 and 60 and the picks' 52..56
        pool = search._supports(8, 3, 3)
        words = np.zeros((4, 64), dtype=np.uint32)
        assert assert_vector_draws_match(words, lo, hi, pool) == [None] * 4
        # one zero word in a random row rejects the pick that reads it
        words = random_rows(1, 64, 64)
        words[np.arange(64), np.arange(64) % 8] = 0
        got = assert_vector_draws_match(words, lo, hi, pool)
        assert got.count(None) >= 32 and got.count(None) < 64

    def test_rows_too_short_for_their_draw(self):
        # four words hold a count and three picks
        pool = search._supports(8, 2, 3)
        got = assert_vector_draws_match(random_rows(2, 200, 4), 1, 8, pool)
        assert 0 < got.count(None) < 200
        assert all(len(masks) <= 3 for masks in got if masks is not None)

    @pytest.mark.parametrize("lo, hi", [(10, 10), (8, 14), (12, 12)])
    def test_counts_that_take_the_whole_pool(self, lo, hi):
        # a count of the pool or past it is cut to the pool, whose first pick reads no word
        pool = search._supports(5, 2, 2)
        got = assert_vector_draws_match(random_rows(3, 100, 16), lo, hi, pool)
        assert None in got

    def test_tail_shuffle_pool(self):
        # 15444 supports: numpy shuffles the tail for counts above 308
        pool = search._supports(14, 4, 10)
        assert len(pool) == 15444
        got = assert_vector_draws_match(random_rows(4, 24, 330), 300, 320, pool)
        assert 0 < got.count(None) < 24

    @pytest.mark.parametrize(
        "n, degrees", [(8, (3, 3)), (8, (1, 4)), (10, (2, 5)), (6, (1, 6)), (14, (7, 7))]
    )
    @pytest.mark.parametrize("lo, hi", [(1, 60), (1, 1), (60, 60), (7, 30), (2, 3)])
    def test_counts_up_to_sixty_over_degree_ranges(self, n, degrees, lo, hi):
        pool = search._supports(n, *degrees)
        width = 8 * search._ROW_BLOCKS
        got = assert_vector_draws_match(random_rows(100 * n + lo, 128, width), lo, hi, pool)
        if lo < len(pool) and (lo < hi) + lo <= width:  # some counts fit the row
            assert got.count(None) < 128

    def test_one_row_and_every_row_left(self):
        pool = search._supports(8, 3, 3)
        assert assert_vector_draws_match(random_rows(5, 1, 64), 2, 9, pool)[0] is not None
        assert assert_vector_draws_match(random_rows(5, 3, 64), 56, 56, pool) == [None] * 3

    def test_the_cubic_scan_draws_every_sample_in_the_vector_pass(self, monkeypatch):
        # the scan-cubic8 benchmark's p = 2 job at seed 1: 1000 samples of five cubics
        cfg = SearchConfig(ambient_n=8, seed=1, sample_count=1000, gen_degree=3, gen_count=5)

        def scalar(*args):
            raise AssertionError("a sample took the scalar draw")

        monkeypatch.setattr(search, "_distinct", scalar)
        rows = [masks for block in search._samples(cfg) for _, masks in block]
        monkeypatch.undo()
        assert rows == [sampled_ideal_fresh(cfg, i)[0].masks for i in range(1000)]


class TestScan:
    def test_empty_scan(self):
        result = scan(base_cfg(sample_count=0))
        assert result.findings == []
        assert result.summary["evaluated"] == 0
        assert result.summary["findings_total"] == 0
        assert result.summary["by_nu"] == {}
        assert result.summary["max_gap"] is None

    def test_summary_matches_direct_profiles(self):
        cfg = base_cfg(sample_count=60, primes=(2, 3))
        result = scan(cfg)
        by_nu, gaps, violating = {}, [], []
        for prime in cfg.primes:
            for i in range(cfg.sample_count):
                profile = g_profile(random_ideal(cfg, i), FieldSpec(prime))
                by_nu[str(profile.nu)] = by_nu.get(str(profile.nu), 0) + 1
                g = profile.g_values
                gaps += [g[k] - g[k - 1] for k in range(1, len(g))]
                if profile.violations():
                    violating.append((prime, i))
        assert result.summary["by_nu"] == dict(sorted(by_nu.items()))
        assert result.summary["max_gap"] == max(gaps, default=None)
        assert result.summary["findings_total"] == len(violating)
        assert {(f.field_char, f.index) for f in result.findings} <= set(violating)

    def test_injected_family_is_found(self):
        for n in (8, 10, 12):
            cfg = SearchConfig(
                ambient_n=n,
                seed=3,
                sample_count=4,
                gen_degree=3,
                gen_count=4,
                inject=(build_family(n),),
            )
            result = scan(cfg)
            injected = [f for f in result.findings if f.index < 0]
            assert injected, f"family at n={n} not flagged"
            finding = injected[0]
            assert finding.violations == (1,)
            assert finding.profile.g_values == (1, n - 6)

    def test_flat_profile_is_not_a_violation(self):
        # at n=7 the family has g(1) = g(2) = 1: no strict increase, no finding
        cfg = SearchConfig(
            ambient_n=7, seed=0, sample_count=0, gen_count=1, inject=(build_family(7),)
        )
        result = scan(cfg)
        assert result.findings == []
        assert result.summary["max_gap"] == 0

    def test_findings_reverify_from_serialization(self):
        # seed 99 yields organic findings at indices 168 and 187 in this window
        cfg = SearchConfig(
            ambient_n=8,
            seed=99,
            sample_count=200,
            gen_degree=3,
            gen_count=7,
            primes=(2, 3),
            inject=(build_family(8),),
        )
        result = scan(cfg)
        assert sum(1 for f in result.findings if f.index >= 0) >= 2
        for finding in result.findings:
            payload = json.loads(json.dumps(finding.to_json_dict()))
            revived = Ideal.from_supports(payload["ideal"]["gens"], payload["ideal"]["n"])
            profile = g_profile(revived, FieldSpec(payload["field_char"]))
            assert profile.violations() == payload["violations"]
            assert profile.to_json_dict() == payload["profile"]

    def test_relabeled_duplicates_collapse(self):
        fam = build_family(8)
        perm = {i: i for i in range(1, 9)}
        perm[1], perm[2] = 2, 1
        twin = relabel_ideal(fam, perm)
        assert twin != fam
        cfg = SearchConfig(
            ambient_n=8, seed=0, sample_count=0, gen_count=1, inject=(fam, twin)
        )
        result = scan(cfg)
        assert result.summary["findings_total"] == 2
        assert result.summary["findings_unique"] == 1
        assert len(result.findings) == 1

    def test_relabeled_duplicates_collapse_above_eight_variables(self):
        fam = build_family(12)
        perm = {i: i for i in range(1, 13)}
        perm[1], perm[2], perm[5], perm[11] = 2, 1, 11, 5
        twin = relabel_ideal(fam, perm)
        assert twin != fam
        cfg = SearchConfig(
            ambient_n=12, seed=0, sample_count=0, gen_count=1, inject=(fam, twin)
        )
        result = scan(cfg)
        assert result.summary["dedup_by_relabeling"] is True
        assert result.summary["findings_total"] == 2
        assert result.summary["findings_unique"] == 1
        assert [f.index for f in result.findings] == [-1]

    def test_log_file_written_with_one_json_per_line(self, tmp_path):
        log = tmp_path / "findings.jsonl"
        cfg = SearchConfig(
            ambient_n=8, seed=0, sample_count=0, gen_count=1, inject=(build_family(8),)
        )
        result = scan(cfg, log_path=str(log))
        lines = log.read_text().splitlines()
        assert len(lines) == len(result.findings) == 1
        assert json.loads(lines[0]) == result.findings[0].to_json_dict()

    def test_log_keeps_findings_when_the_scan_dies(self, tmp_path, monkeypatch):
        def sampler(cfg):
            def boom(indices):
                raise RuntimeError(f"sample {indices[0]} killed")
                yield ()  # a mask row, never reached

            return boom

        monkeypatch.setattr(search, "_sampler", sampler)
        cfg = SearchConfig(
            ambient_n=8, seed=0, sample_count=40, gen_count=1, inject=(build_family(8),)
        )
        log = tmp_path / "findings.jsonl"
        with pytest.raises(RuntimeError, match="sample 0 killed"):
            scan(cfg, log_path=str(log))
        (line,) = log.read_text().splitlines()
        assert json.loads(line)["index"] == -1
        assert json.loads(line)["violations"] == [1]

    def test_log_keeps_the_block_drawn_before_the_scan_dies(self, tmp_path, monkeypatch):
        # index 200 is in the middle of its block; the block's finding at 150,
        # drawn before it, is still evaluated and logged before the error
        fam = build_family(8)
        single = Ideal.from_supports([[1, 2, 3]], 8)

        def sampler(cfg):
            def draw(indices):
                for index in indices:
                    if index == 200:
                        raise RuntimeError(f"sample {index} killed")
                    yield fam.masks if index == 150 else single.masks

            return draw

        monkeypatch.setattr(search, "_sampler", sampler)
        assert 200 % search._BLOCK and 200 // search._BLOCK == 150 // search._BLOCK
        cfg = SearchConfig(ambient_n=8, seed=0, sample_count=400, gen_count=1)
        log = tmp_path / "findings.jsonl"
        with pytest.raises(RuntimeError, match="sample 200 killed"):
            scan(cfg, log_path=str(log))
        (line,) = log.read_text().splitlines()
        assert json.loads(line)["index"] == 150
        assert json.loads(line)["violations"] == [1]

    def test_exhaustive_small_edge_ideals_find_nothing(self):
        cfg = SearchConfig(
            ambient_n=5, seed=0, exhaustive=True, edge_ideals_only=True
        )
        result = scan(cfg)
        assert result.summary["evaluated"] == (1 << 10) - 1
        assert result.summary["findings_total"] == 0

    def test_exhaustive_all_six_vertex_edge_ideals_find_nothing(self):
        # the open case: no edge ideal on <= 6 vertices has an increasing g
        cfg = SearchConfig(
            ambient_n=6, seed=0, exhaustive=True, edge_ideals_only=True
        )
        result = scan(cfg)
        assert result.summary["evaluated"] == (1 << 15) - 1
        assert result.summary["findings_total"] == 0
        assert result.summary["max_gap"] == 0

    def test_exhaustive_cap_enforced(self, tmp_path):
        cfg = SearchConfig(
            ambient_n=6,
            seed=0,
            exhaustive=True,
            edge_ideals_only=True,
            exhaustive_cap=1 << 10,
            inject=(Ideal.from_supports([[1, 2]], 6),),
        )
        log = tmp_path / "findings.jsonl"
        with pytest.raises(SpaceTooLarge):
            scan(cfg, log_path=str(log))
        assert not log.exists()

    def test_summary_counts_by_nu(self):
        cfg = base_cfg(sample_count=40)
        result = scan(cfg)
        assert sum(result.summary["by_nu"].values()) == 40
        assert result.summary["evaluated"] == 40


class TestStream:
    """``_samples`` yields each sample as the ``masks`` of its ideal."""

    @pytest.mark.parametrize(
        "kw",
        [
            dict(ambient_n=8, seed=1, sample_count=300, gen_degree=3, gen_count=5),
            # degree-1 supports divide others, so rows are cut to the minimal ones
            dict(ambient_n=7, seed=2, sample_count=300, gen_degree=(1, 3), gen_count=(2, 12)),
            dict(ambient_n=6, seed=3, sample_count=300, gen_degree=(1, 3), density=0.2),
        ],
        ids=["count", "count-range-mixed-degrees", "density"],
    )
    def test_sampled_rows_are_the_masks_of_their_ideals(self, kw):
        cfg = SearchConfig(**kw)
        pairs = [pair for block in search._samples(cfg) for pair in block]
        assert [index for index, _ in pairs] == list(range(300))
        for index, masks in pairs:
            assert type(masks) is tuple and masks == Ideal(cfg.ambient_n, masks).masks
            assert masks == sampled_ideal_fresh(cfg, index)[0].masks
        if cfg.gen_degree[0] < cfg.gen_degree[1]:
            pool = set(candidate_pool(cfg))
            cut = [masks for _, masks in pairs if any(m & k == k != m for m in masks for k in pool)]
            assert cut  # some rows drew supports above a drawn one, and lost them

    @pytest.mark.parametrize("kw", [
        dict(ambient_n=4, edge_ideals_only=True),
        dict(ambient_n=4, gen_degree=(1, 2)),
    ], ids=["edges", "mixed-degrees"])
    def test_exhaustive_rows_are_the_masks_of_their_ideals(self, kw):
        cfg = SearchConfig(exhaustive=True, **kw)
        pool = candidate_pool(cfg)
        pairs = [pair for block in search._samples(cfg) for pair in block]
        assert [index for index, _ in pairs] == list(range(1, 1 << len(pool)))
        for index, masks in pairs:
            ideal = Ideal(cfg.ambient_n, [m for j, m in enumerate(pool) if index >> j & 1])
            assert type(masks) is tuple and masks == ideal.masks

    def test_injected_rows_are_their_masks(self):
        fam = build_family(8)
        twin = relabel_ideal(fam, {1: 2, 2: 1, 3: 3, 4: 4, 5: 6, 6: 5, 7: 7, 8: 8})
        cfg = SearchConfig(ambient_n=8, seed=0, sample_count=3, gen_count=2, inject=(fam, twin))
        first = next(search._samples(cfg))
        assert first == [(-1, fam.masks), (-2, twin.masks)]

    def test_ideals_are_built_only_for_new_classes(self, monkeypatch):
        # cubics with four to seven generators: those with more than five are
        # keyed by the search, which takes an Ideal; the injected family finds
        cfg = SearchConfig(
            ambient_n=8, seed=6, sample_count=300, gen_degree=3, gen_count=(4, 7),
            primes=(2, 3), inject=(build_family(8),),
        )
        built, misses, searched = [], [], []

        class Counted(Ideal):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        def profile(ideal, field, depth_fn):
            misses.append(ideal)
            return g_profile(ideal, field, depth_fn)

        def key(ideal):
            if ideal.masks[0].bit_count() == 3:  # a sample's; a power's generators are larger
                searched.append(ideal)
            return canonical_relabeling_key(ideal)

        monkeypatch.setattr(search, "Ideal", Counted)
        monkeypatch.setattr(search, "g_profile", profile)
        monkeypatch.setattr(search, "canonical_relabeling_key", key)
        result = scan(cfg)
        assert searched and len(result.findings) >= 2
        assert all(len(ideal.masks) > search._TABLE_GENERATORS for ideal in searched)
        assert len(built) == len(misses) + len(searched) + len(result.findings)
        monkeypatch.undo()
        assert scan(cfg).summary == result.summary


def never_remember(memo, key, compute):
    """A stand-in for ``_remember``: every form, profile and depth is computed anew."""
    return compute()


def count_depth_calls(monkeypatch) -> list:
    """Record (power, p) for every depth the scan computes."""
    calls = []

    def counted(power, field):
        calls.append((power, field.characteristic))
        return depth(power, field)

    monkeypatch.setattr(search, "depth", counted)
    return calls


class TestOrbitMemo:
    def test_memoised_scan_equals_from_scratch_scan(self, tmp_path, monkeypatch, fresh_memos):
        # seed 99 has organic findings, so the log and the dedup are exercised
        cfg = SearchConfig(
            ambient_n=8,
            seed=99,
            sample_count=200,
            gen_degree=3,
            gen_count=7,
            primes=(2, 3),
            inject=(build_family(8),),
        )
        # the memo computes each orbit of powers once, for both primes when
        # it has at most five generators and once per prime otherwise
        ideals = list(cfg.inject) + [random_ideal(cfg, i) for i in range(cfg.sample_count)]
        forms = {
            search.canonical_relabeling_key(ideal.squarefree_power(k))
            for ideal in ideals if ideal.nu() >= 2 for k in range(1, ideal.nu() + 1)
        }
        few = sum(len(form) <= search._TORSION_FREE_VERTICES for form in forms)
        assert 0 < few < len(forms)
        calls = count_depth_calls(monkeypatch)
        runs = {}
        for name, patches in (
            ("memo", {}),
            # a second scan of the process finds every depth memoised
            ("again", {}),
            # memos that start over every few entries
            ("small", {"_MEMO_LIMIT": 5}),
            ("scratch", {"_remember": never_remember}),
        ):
            if name != "again":
                fresh_memos()
            for attr, value in patches.items():
                monkeypatch.setattr(search, attr, value)
            del calls[:]
            log = tmp_path / f"{name}.jsonl"
            result = scan(cfg, log_path=str(log))
            findings = json.dumps([f.to_json_dict() for f in result.findings])
            runs[name] = (len(calls), findings, json.dumps(result.summary), log.read_bytes())
        assert runs["memo"][0] == few + 2 * (len(forms) - few) and runs["again"][0] == 0
        assert runs["memo"][0] < runs["small"][0] < runs["scratch"][0]
        assert runs["memo"][1:] == runs["again"][1:] == runs["small"][1:] == runs["scratch"][1:]
        assert len(json.loads(runs["memo"][1])) >= 3

    def test_relabeled_twin_reuses_every_depth(self, monkeypatch):
        fam = build_family(8)
        twin = relabel_ideal(fam, {1: 4, 4: 1, 2: 7, 7: 2, 3: 3, 5: 8, 8: 5, 6: 6})
        assert twin != fam
        cfg = SearchConfig(
            ambient_n=8, seed=0, sample_count=0, gen_count=1, primes=(2, 3),
            inject=(fam, twin),
        )
        calls = count_depth_calls(monkeypatch)
        result = scan(cfg)
        # I^[2] has one generator, so p = 3 finds its depth from p = 2
        powers = [fam.squarefree_power(k) for k in range(1, fam.nu() + 1)]
        assert [len(power.masks) for power in powers] == [7, 1]
        assert calls == [(powers[0], 2), (powers[1], 2), (powers[0], 3)]
        assert result.summary["evaluated"] == 4
        assert result.summary["findings_total"] == 4
        assert result.summary["findings_unique"] == 2

    def test_six_generator_powers_keep_their_prime(self, monkeypatch):
        # J, the transposed projective plane plus x11 x12, has J^[2] with six
        # generators and a K_sigma with torsion: depth 8 over F_2 and 9 over
        # F_3, so each prime computes it and gets its own profile
        plane = transposed_rp2()
        ideal = Ideal(12, [*plane.masks, 0b11 << 10])
        square = ideal.squarefree_power(2)
        assert len(square.masks) == search._TORSION_FREE_VERTICES + 1
        calls = count_depth_calls(monkeypatch)
        profiles = []

        def recorded(ideal, field, depth_fn):
            profile = g_profile(ideal, field, depth_fn)
            profiles.append((field.characteristic, profile.g_values))
            return profile

        monkeypatch.setattr(search, "g_profile", recorded)
        scan(SearchConfig(
            ambient_n=12, seed=0, sample_count=0, gen_count=1, primes=(2, 3), inject=(ideal,),
        ))
        assert profiles == [(2, (6, 2)), (3, (7, 3))]
        assert [p for power, p in calls if power == square] == [2, 3]

    def test_one_profile_per_graph_class(self, monkeypatch):
        # 34 graphs on 5 vertices up to isomorphism (OEIS A000088), less the empty
        # one, less the 5 with nu = 1 (the stars K_{1,1}..K_{1,4} and the triangle),
        # which are counted without a profile
        calls = []

        def counted(ideal, field, depth_fn):
            calls.append(field.characteristic)
            return g_profile(ideal, field, depth_fn)

        cfg = SearchConfig(
            ambient_n=5, seed=0, exhaustive=True, edge_ideals_only=True, primes=(2, 3)
        )
        monkeypatch.setattr(search, "g_profile", counted)
        memoised = scan(cfg)
        assert calls == [2] * 28 + [3] * 28
        monkeypatch.setattr(search, "_remember", never_remember)
        scratch = scan(cfg)
        # of the 1023 labelled graphs, the 10 single edges, the 55 stars with two
        # or more edges and the 10 triangles have nu = 1
        assert len(calls) == 56 + 2 * ((1 << 10) - 1 - 75)
        assert memoised.summary == scratch.summary

    def test_dedup_does_not_depend_on_the_memo_key(self, monkeypatch):
        fam = build_family(8)
        twin = relabel_ideal(fam, {1: 2, 2: 1, 3: 3, 4: 4, 5: 6, 6: 5, 7: 7, 8: 8})
        assert twin != fam
        monkeypatch.setattr(search, "_remember", never_remember)
        result = scan(SearchConfig(
            ambient_n=8, seed=0, sample_count=0, gen_count=1, primes=(2, 3),
            inject=(fam, twin),
        ))
        assert result.summary["findings_total"] == 4
        assert [(f.field_char, f.index) for f in result.findings] == [(2, -1), (3, -1)]


class TestNuOne:
    def test_nu_one_samples_get_no_key_profile_or_depth(self, tmp_path, monkeypatch):
        # two or three cubics on 8 variables often pairwise meet; the single
        # injected cubic has nu = 1 too, and the family gives a finding
        cfg = SearchConfig(
            ambient_n=8, seed=4, sample_count=150, gen_degree=3, gen_count=(2, 3),
            primes=(2, 3), inject=(build_family(8), Ideal.from_supports([[1, 2, 3]], 8)),
        )
        samples = list(cfg.inject) + [random_ideal(cfg, i) for i in range(cfg.sample_count)]
        nu_one = [
            ideal for ideal in samples
            if max_matching_brute([frozenset(g.indices) for g in ideal.gens]) == 1
        ]
        assert len(nu_one) >= 50 and cfg.inject[1] in nu_one
        by_nu = {}
        for p in cfg.primes:
            for ideal in samples:
                nu = str(g_profile(ideal, FieldSpec(p)).nu)
                by_nu[nu] = by_nu.get(nu, 0) + 1

        reached = {}

        def counting(name, fn):
            def counted(ideal, *args):
                reached.setdefault(name, []).append(ideal)
                return fn(ideal, *args)

            return counted

        for name in ("canonical_relabeling_key", "depth", "g_profile"):
            monkeypatch.setattr(search, name, counting(name, getattr(search, name)))
        runs = []
        for remember in (search._remember, never_remember):
            monkeypatch.setattr(search, "_remember", remember)
            reached.clear()
            log = tmp_path / f"run{len(runs)}.jsonl"
            result = scan(cfg, log_path=str(log))
            assert sorted(reached) == ["canonical_relabeling_key", "depth", "g_profile"]
            for name, ideals in reached.items():
                assert not [i for i in ideals if i in nu_one], name
            findings = json.dumps([f.to_json_dict() for f in result.findings])
            runs.append((json.dumps(result.summary), findings, log.read_bytes()))
        assert runs[0] == runs[1]
        summary = json.loads(runs[0][0])
        assert summary["by_nu"] == dict(sorted(by_nu.items()))
        assert summary["by_nu"]["1"] == 2 * len(nu_one)
        assert summary["evaluated"] == 2 * len(samples)
        assert [f["index"] for f in json.loads(runs[0][1])][:2] == [-1, -1]


class TestCanonicalKey:
    def test_invariant_under_relabeling_exhaustively(self):
        rng = np.random.default_rng(13)
        for n in (3, 4, 5):
            ideal = random_test_ideal(rng, n)
            keys = {
                canonical_relabeling_key(
                    relabel_ideal(ideal, {i + 1: p[i] + 1 for i in range(n)})
                )
                for p in itertools.permutations(range(n))
            }
            assert len(keys) == 1

    def test_spot_check_at_eight_variables(self):
        fam = build_family(8)
        perm = {1: 3, 3: 1, 2: 5, 5: 2, 4: 4, 6: 7, 7: 6, 8: 8}
        assert canonical_relabeling_key(fam) == canonical_relabeling_key(
            relabel_ideal(fam, perm)
        )

    def test_distinct_ideals_usually_differ(self):
        a = Ideal.from_supports([[1, 2]], 3)
        b = Ideal.from_supports([[1, 2], [1, 3]], 3)
        assert canonical_relabeling_key(a) != canonical_relabeling_key(b)


def table_test_ideals(rng, n: int, m: int, count: int) -> list[Ideal]:
    """``count`` random ideals on n variables with exactly m generators of one random degree."""
    out = []
    while len(out) < count:
        d = int(rng.integers(1, min(n - 1, 6) + 1))
        masks = [sum(1 << int(v) for v in rng.choice(n, size=d, replace=False)) for _ in range(m)]
        ideal = Ideal(n, masks)
        if len(ideal.masks) == m:
            out.append(ideal)
    return out


class TestTableKeys:
    """The block keyer against ``_table_key``, one ideal at a time."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [5, 8, 14, 40, 63])
    def test_block_keys_are_the_table_keys(self, n, m):
        rng = np.random.default_rng(100 * n + m)
        ideals = table_test_ideals(rng, n, m, 30)
        # relabeled copies share the block with their originals
        for ideal in ideals[:6]:
            perm = rng.permutation(n) + 1
            ideals.append(relabel_ideal(ideal, {i + 1: int(perm[i]) for i in range(n)}))
        block = [ideal.masks for ideal in ideals]
        keys = search._table_keys(n, m, block)
        assert keys == [search._table_key(ideal) for ideal in ideals]
        assert keys[-6:] == keys[:6]
        # a key does not depend on its neighbours
        assert search._table_keys(n, m, block[::-1]) == keys[::-1]
        assert [search._table_keys(n, m, [masks])[0] for masks in block[:4]] == keys[:4]

    @pytest.mark.parametrize("n", [32, 63])
    def test_orders_tied_on_a_zero_word_stay_out(self, n):
        # from n = 32 on a code word holds ten 6-bit digits: columns 0-9,
        # 10-19, 20-29 and 30-31.  In x1x2, x1x3, x1x4, x1x5, x6 every column
        # but x1's is a single bit under every order; x1's is 15 when x6
        # comes last, which wins the second word, and 30 when x6 comes
        # first.  Both leave the third word zero; an order dropped on the
        # second word must not come back on it and win the fourth.
        ideal = Ideal.from_supports([[1, 2], [1, 3], [1, 4], [1, 5], [6]], n)
        keys = search._table_keys(n, 5, [ideal.masks] * 3)
        assert keys == [search._table_key(ideal)] * 3
