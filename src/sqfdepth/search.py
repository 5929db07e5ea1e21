"""Seeded search for ideals whose normalized depth function increases.

Samples are a pure function of (seed, index) through a counter-based
Philox stream, so a scan is reproducible and a prefix of it does not
depend on where it stops.  Each sample is the one a new numpy generator
keyed (seed << 64) | index draws, and it travels as a mask row: the
``masks`` of its ``Ideal``, without the ideal.  Every source maps a range
of indices to its mask rows, and a scan asks for up to 128 indices a
range.  A generator count is drawn without numpy.random: the Philox words
of the whole range come from one vectorised numpy pass of
``_philox_block``, the package's one Philox implementation, and one more
numpy pass, ``_vector_draws``, turns them into the count and the picks of
every row, as numpy's Lemire bounded integers and Floyd's choice would.
A row that rejects a word, reads past its words, takes the whole pool or
falls to numpy's tail shuffle is drawn word by word instead, by
``_bounded`` and ``_distinct``.  A lone draw is a range of one and pays a
whole pass, about 0.15 ms.  A density is drawn by numpy's own generator,
one per pass, re-keyed for each index.  A sample whose generators
pairwise meet has nu = 1, so one g value and no finding: it is counted
and gets no key, profile or depth.  Each other sample and each power is
keyed once by an exact canonical form under relabeling of the variables.
An ideal with at most five generators takes the least sorted row of its
variables' generator sets over all orders of the generators, from one
cached table per generator count, and a block's samples are keyed
together from their mask rows; a larger one takes an individualisation-
refinement search.  Both return a relabeling of the ideal, and
relabeling keeps the generator count, so the key is exact across the
cut.  That one key memoises the g-profile per prime and per orbit of the
ideals, and deduplicates findings (profiles with some g(k+1) > g(k)),
which are evaluated in index order and can be appended to a
line-delimited JSON log with an fsync per record.  The form of each power
keys its depth per orbit for the whole process: per prime, except that a
power with at most five generators has one depth over every field
(``betti._TORSION_FREE_VERTICES``), so the primes of a scan, and later
scans, share it.  The forms themselves are cached for the process.  A
sample becomes an ``Ideal`` only where one is needed: for a new profile,
for the search key, and for a new finding.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import os
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .betti import _TORSION_FREE_VERTICES, GProfile, depth, g_profile
from .errors import DegenerateSample, SpaceTooLarge
from .homology import FieldSpec
from .ideals import Ideal, _integer, _minimal_masks

MAX_SEARCH_AMBIENT = 14
# Entries kept by each memo: the canonical forms and depths, kept for the
# process, and each pass's profiles; a full memo starts over, which costs
# time but never changes a result, and keeps long scans in bounded memory.
_MEMO_LIMIT = 1 << 16
_SAMPLE_RETRIES = 16
# Samples drawn and keyed together.  The keys' temporaries, (samples x
# orders x code words) integers, grow with the block, and peak RSS with them.
_BLOCK = 128
# Counter blocks of Philox words a count-mode draw takes from its range's
# pass; a draw that reads past them goes on in passes of its own.
_ROW_BLOCKS = 8


def _normalize_range(value, name: str, lo_ok: int, hi_ok: int) -> tuple[int, int]:
    """An integer d as (d, d), or an integer pair (lo, hi), refused outside lo_ok..hi_ok."""
    pair = tuple(value) if isinstance(value, (tuple, list)) else (value, value)
    if len(pair) != 2:
        raise ValueError(f"{name} must be an integer or a pair (lo, hi), got {value!r}")
    lo, hi = (_integer(v, name) for v in pair)
    if not lo_ok <= lo <= hi <= hi_ok:
        raise ValueError(f"{name} range {value} outside {lo_ok}..{hi_ok}")
    return lo, hi


@dataclass(frozen=True)
class SearchConfig:
    """A scan's settings, checked when made; integer fields are stored as
    plain ints, ``gen_degree`` and ``gen_count`` as (lo, hi) pairs, the two
    modes as bools, ``density`` as a float, and ``primes`` and ``inject``
    as tuples."""

    ambient_n: int
    seed: int = 0
    sample_count: int = 0
    gen_degree: int | tuple[int, int] = 3
    gen_count: int | tuple[int, int] | None = None
    density: float | None = None
    primes: tuple[int, ...] = (2,)
    edge_ideals_only: bool = False
    exhaustive: bool = False
    exhaustive_cap: int = 1 << 16
    inject: tuple[Ideal, ...] = ()

    def __post_init__(self) -> None:
        for name in ("ambient_n", "seed", "sample_count", "exhaustive_cap"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        for name in ("edge_ideals_only", "exhaustive"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):  # 'no' would switch the mode on
                raise ValueError(f"{name} must be True or False, got {value!r}")
            object.__setattr__(self, name, bool(value))
        if self.density is not None:
            if isinstance(self.density, (bool, np.bool_)) or not isinstance(self.density, Real):
                raise ValueError(f"density must be a number in [0, 1], got {self.density!r}")
            object.__setattr__(self, "density", float(self.density))
        if not isinstance(self.primes, (tuple, list)):
            raise ValueError(f"primes must be a tuple of primes, got {self.primes!r}")
        object.__setattr__(self, "primes", tuple(self.primes))
        if not isinstance(self.inject, (tuple, list)):
            raise ValueError(f"inject must be a tuple of ideals, got {self.inject!r}")
        object.__setattr__(self, "inject", tuple(self.inject))
        if not 1 <= self.ambient_n <= MAX_SEARCH_AMBIENT:
            raise ValueError(f"search ambient_n must be 1..{MAX_SEARCH_AMBIENT}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")
        if self.sample_count < 0:
            raise ValueError("sample_count must be nonnegative")
        if self.sample_count > 1 << 64:  # an index is the low 64 bits of the Philox key
            raise ValueError(f"sample_count must be at most 2**64, got {self.sample_count}")
        if self.edge_ideals_only:  # edges have degree 2 whatever gen_degree says
            if self.ambient_n < 2:
                raise ValueError("edge_ideals_only needs ambient_n >= 2")
            degree = (2, 2)
        else:
            degree = _normalize_range(self.gen_degree, "gen_degree", 1, self.ambient_n)
        object.__setattr__(self, "gen_degree", degree)
        if self.gen_count is not None:
            count = _normalize_range(self.gen_count, "gen_count", 1, 1 << 20)
            object.__setattr__(self, "gen_count", count)
        if self.density is not None and not 0.0 <= self.density <= 1.0:
            raise ValueError("density must be in [0, 1]")
        if not self.primes:
            raise ValueError("primes must be a nonempty tuple of primes")
        for p in self.primes:
            FieldSpec(p)  # rejects non-primes and primes too large for exact ranks
        if len(set(self.primes)) != len(self.primes):
            raise ValueError(f"primes must be distinct, got {list(self.primes)}")
        if not self.exhaustive and self.density is None and self.gen_count is None:
            raise ValueError("need density or gen_count for random sampling")
        if self.density is not None and self.gen_count is not None:
            raise ValueError("density and gen_count pick two sampling modes: set one, not both")
        if self.exhaustive_cap < 1:
            raise ValueError("exhaustive_cap must be at least 1")
        for ideal in self.inject:
            if not isinstance(ideal, Ideal):
                raise ValueError(f"inject entries must be ideals, got {ideal!r}")
            if ideal.ambient_n != self.ambient_n:
                raise ValueError("injected ideal ambient differs from config ambient")
            if ideal.is_zero:
                raise ValueError("injected ideal is zero, and g is undefined for it")


@functools.lru_cache(maxsize=16)
def _supports(ambient_n: int, lo: int, hi: int) -> tuple[int, ...]:
    """Masks of every lo..hi-subset of the variables, ascending."""
    masks = []
    for d in range(lo, hi + 1):
        for combo in itertools.combinations(range(ambient_n), d):
            mask = 0
            for i in combo:
                mask |= 1 << i
            masks.append(mask)
    masks.sort()
    return tuple(masks)


def candidate_pool(cfg: SearchConfig) -> tuple[int, ...]:
    """All allowed generator supports as masks, ascending (the sampling order).

    Built once per (ambient_n, degree range) and shared by every sample.
    """
    return _supports(cfg.ambient_n, *cfg.gen_degree)


# Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as
# easy as 1, 2, 3", SC 2011): the round multipliers and the key increments
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_WORD32 = (1 << 32) - 1


def _mul_halves(a: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of each a * m, from 32-bit halves in uint64."""
    half, low = np.uint64(32), np.uint64(_WORD32)
    a_lo, a_hi, m_lo, m_hi = a & low, a >> half, m & low, m >> half
    t = a_lo * m_lo
    u = a_hi * m_lo + (t >> half)
    v = a_lo * m_hi + (u & low)
    return a_hi * m_hi + (u >> half) + (v >> half), a * m


def _philox_block(seed: int, indices: Sequence[int], blocks: int, start: int = 1) -> np.ndarray:
    """Counter blocks start..start + blocks - 1 of many keys (seed, index) in one pass.

    Row i holds the 4 * blocks 64-bit words that numpy's
    ``Philox(key=(seed << 64) | indices[i]).random_raw`` gives after its
    first 4 * (start - 1).  Block c is the counter (c, 0, 0, 0) after ten
    Philox4x64 rounds under the key (index, seed), bumped between rounds,
    computed with plain uint64 ufuncs, which wrap; each 64 x 64-bit product
    is split into 32-bit halves.  The pairs (x0, x2), (x1, x3) and (k0, k1)
    are stacked, so a round takes one product.  A draw reads far fewer than
    2^64 blocks, so the counter never carries into its second word.  One
    key costs about as much as 128: 0.18 against 0.19 ms a call (2-vCPU
    x86_64, numpy 2.4.6).
    """
    shape = (len(indices), blocks)
    multiplied = np.zeros((2, *shape), dtype=np.uint64)
    multiplied[0] = np.arange(start, start + blocks, dtype=np.uint64)
    xored = np.zeros_like(multiplied)
    key = np.empty((2, len(indices), 1), dtype=np.uint64)
    key[0, :, 0] = indices
    key[1] = seed
    factor = np.array([_PHILOX_M0, _PHILOX_M1], dtype=np.uint64)[:, None, None]
    bump = np.array([_PHILOX_W0, _PHILOX_W1], dtype=np.uint64)[:, None, None]
    for _ in range(10):
        hi, lo = _mul_halves(multiplied, factor)
        multiplied, xored = hi[::-1] ^ xored ^ key, lo[::-1]
        key = key + bump
    words = (multiplied[0], xored[0], multiplied[1], xored[1])
    return np.stack(words, axis=2).reshape(len(indices), 4 * blocks)


def _bounded(words: Iterator[int], top: int) -> int:
    """A uniform integer in 0..top from 32-bit words, as numpy's ``integers``
    and ``choice`` draw it: Lemire's multiply-and-reject (ACM TOMACS 2019),
    and no word read for top = 0."""
    if not 0 <= top < _WORD32:  # numpy takes 64-bit words past this
        raise ValueError(f"bounded draw needs 0 <= top < 2**32 - 1, got {top}")
    if top == 0:
        return 0
    span = top + 1
    m = next(words) * span
    if m & _WORD32 < span:
        threshold = (1 << 32) % span
        while m & _WORD32 < threshold:
            m = next(words) * span
    return m >> 32


def _distinct(words: Iterator[int], population: int, size: int) -> list[int]:
    """``size`` distinct integers in 0..population - 1, ascending: the set
    numpy's ``choice(population, size, replace=False)`` picks.

    numpy shuffles the tail of 0..population - 1 when population > 10000
    and size > population // 50, and else runs Floyd's algorithm.  Its
    final shuffle of the picks is left out: it reorders them and draws
    after them, and the picks are sorted and the last draw of a sample.
    """
    if population > 10000 and size > population // 50:
        idx = list(range(population))
        for i in range(population - 1, max(population - size, 1) - 1, -1):
            j = _bounded(words, i)
            idx[i], idx[j] = idx[j], idx[i]
        return sorted(idx[population - size:])
    picks: set[int] = set()
    for j in range(population - size, population):
        value = _bounded(words, j)
        picks.add(j if value in picks else value)
    return sorted(picks)


def _vector_draws(words: np.ndarray, lo: int, hi: int, pool: np.ndarray) -> list[list[int] | None]:
    """Each row's draw from its 32-bit words, as ``_bounded`` and ``_distinct``
    draw it: a count in lo..hi, cut to the pool, then that many distinct
    masks of ``pool``, ascending; or None for a row they must draw.

    Without a rejection, a draw reads one word for the count, if it has a
    range, and one per pick, so the Lemire products of every row and pick
    come from one matrix product.  Floyd's algorithm then takes one numpy
    step per pick across the rows, finding duplicates in a rows x pool
    table of picks taken; a row past its count picks a spare column.  A
    row is left to the scalar draw when a Lemire draw rejects, when the
    draw reads past the row, when the count is the whole pool (its first
    pick reads no word), or when numpy shuffles the tail of a pool of more
    than 10000.  Spans stay below 2^21, so each product fits a uint64.
    """
    rows, width = words.shape
    size = len(pool)
    head = int(lo < hi)
    if head:
        m = words[:, 0].astype(np.uint64) * np.uint64(hi - lo + 1)
        slow = (m & _WORD32) < (1 << 32) % (hi - lo + 1)
        counts = np.minimum(lo + (m >> np.uint64(32)).astype(np.intp), size)
    else:
        slow = np.zeros(rows, dtype=bool)
        counts = np.full(rows, min(lo, size), dtype=np.intp)
    slow |= (head + counts > width) | (counts == size)
    if size > 10000:
        slow |= counts > size // 50
    steps = int(counts.max(initial=0, where=~slow))
    # Floyd's j for each row's k-th pick, size or more once the row has all its picks
    top = (size - counts)[:, None] + np.arange(steps)
    picking = top < size
    span = (top + 1).astype(np.uint64)
    m = words[:, head:head + steps] * span
    slow |= (((m & _WORD32) < np.uint64(1 << 32) % span) & picking).any(axis=1)
    value = np.where(picking, m >> np.uint64(32), size).astype(np.intp)
    top = np.minimum(top, size)
    row = np.arange(rows)
    taken = np.zeros((rows, size + 1), dtype=bool)
    picks = np.empty((rows, steps), dtype=np.intp)
    for step in range(steps):
        v = value[:, step]
        picks[:, step] = np.where(taken[row, v], top[:, step], v)
        taken[row, picks[:, step]] = True
    picks.sort(axis=1)
    # a row's picks past its count are the spare column, sorted last and cut off
    out = pool.take(picks, mode="clip").tolist()
    if head:
        out = [drawn[:count] for drawn, count in zip(out, counts.tolist())]
    for r in np.flatnonzero(slow).tolist():
        out[r] = None
    return out


def _as_masks(cfg: SearchConfig) -> Callable[[list[int]], tuple[int, ...]]:
    """Distinct pool masks, ascending, as the ``masks`` of their ``Ideal``:
    as they are from a pool of one degree, where none divides another, and
    else cut to the divisibility-minimal ones."""
    lo, hi = cfg.gen_degree
    return tuple if lo == hi else lambda masks: tuple(_minimal_masks(masks))


def _sampler(cfg: SearchConfig) -> Callable[[range], Iterator[tuple[int, ...]]]:
    """The sampled ideals of a range of indices, as generator-mask rows,
    lazily and in index order: each row is the ``masks`` of the ideal a
    fresh numpy ``Philox(key=(seed << 64) | index)`` generator draws, so a
    draw that raises leaves the ones before it drawn.

    The count mode takes the first counter blocks of the whole range from
    one ``_philox_block`` call and draws the count as ``integers`` does and
    the supports as ``choice(replace=False)`` does, without loading
    ``numpy.random``.  ``_vector_draws`` draws every row it can in one numpy
    pass; the rows it leaves go through ``_bounded`` and ``_distinct`` word
    by word, and read past their row in single-index calls whose block
    counts double.  A range costs one pass whatever its length, so a lone
    draw costs about 0.15 ms.  The density mode keeps numpy's vectorised
    coins: one Philox generator, made per call so no two scans share one,
    is re-keyed per index to the state of a fresh generator, for about a
    tenth of the cost of building one; after ``_SAMPLE_RETRIES`` empty
    draws it raises ``DegenerateSample``.
    """
    pool = candidate_pool(cfg)
    as_masks = _as_masks(cfg)
    if cfg.density is not None:
        bits = np.random.Philox(key=cfg.seed << 64)
        rng = np.random.Generator(bits)
        fresh = bits.state  # counter 0, an empty buffer and no spare 32-bit half
        key = fresh["state"]["key"]  # [index, seed]: the key's low and high words

        def by_density(indices: range) -> Iterator[tuple[int, ...]]:
            for index in indices:
                key[0] = index
                bits.state = fresh
                for _ in range(_SAMPLE_RETRIES):
                    coins = rng.random(len(pool))
                    chosen = [m for m, c in zip(pool, coins) if c < cfg.density]
                    if chosen:
                        yield as_masks(chosen)
                        break
                else:
                    raise DegenerateSample(
                        f"sample {index} stayed zero after {_SAMPLE_RETRIES} attempts"
                    )

        return by_density
    if cfg.gen_count is None:
        raise ValueError("need density or gen_count for random sampling")
    lo, hi = cfg.gen_count
    pool_array = np.array(pool, dtype=np.int64)
    # a draw without rejections reads a word for the count, if it has a range,
    # and one per pick: 8 words a counter block
    blocks = min(-(-((lo < hi) + min(hi, len(pool))) // 8), _ROW_BLOCKS)

    def halves(indices: Sequence[int], count: int, start: int) -> np.ndarray:
        """Each index's 32-bit words of counter blocks start.., low half first."""
        raw = _philox_block(cfg.seed, indices, count, start)
        return raw.astype("<u8", copy=False).view("<u4")

    def beyond(index: int) -> Iterator[int]:
        """The index's words past its row, in single-index calls of doubling length."""
        start, count = blocks + 1, blocks
        while True:
            yield from halves([index], count, start)[0].tolist()
            start, count = start + count, 2 * count

    def by_count(indices: range) -> Iterator[tuple[int, ...]]:
        rows = halves(indices, blocks, 1)
        for i, drawn in enumerate(_vector_draws(rows, lo, hi, pool_array)):
            if drawn is None:  # the scalar draw, word by word
                words = itertools.chain(rows[i].tolist(), beyond(indices[i]))
                count = min(lo + _bounded(words, hi - lo), len(pool))
                drawn = [pool[j] for j in _distinct(words, len(pool), count)]
            yield as_masks(drawn)

    return by_count


def random_ideal(cfg: SearchConfig, index: int) -> Ideal:
    """The index-th sampled ideal: deterministic in (cfg.seed, index).

    The sampler's one mask row for the range index..index + 1, as an ``Ideal``.
    """
    if not 0 <= index < 1 << 64:
        raise ValueError(f"sample index {index} outside 0..2**64 - 1")
    (masks,) = _sampler(cfg)(range(index, index + 1))
    return Ideal(cfg.ambient_n, masks)


@dataclass(frozen=True)
class Finding:
    """A sampled ideal whose g function increases somewhere."""

    ideal: Ideal
    profile: GProfile
    violations: tuple[int, ...]
    field_char: int
    seed: int
    index: int

    def to_json_dict(self) -> dict:
        return {
            "ideal": self.ideal.to_json_dict(),
            "profile": self.profile.to_json_dict(),
            "violations": list(self.violations),
            "field_char": self.field_char,
            "seed": self.seed,
            "index": self.index,
        }


def _ranks(signatures: list) -> list[int]:
    """Each signature's position among the distinct signatures, in sorted order."""
    order = {s: r for r, s in enumerate(sorted(set(signatures)))}
    return list(map(order.__getitem__, signatures))


def _refine(colours: list, supports: list, incident: list) -> list[int]:
    """Colour refinement of the variables on the variable-generator incidence graph.

    A generator's colour is the multiset of its variables' colours; a
    variable's new colour is its old colour with the multiset of its
    generators' colours.  Repeats until no cell splits.  Colours are ranks
    of signatures, so the result commutes with relabeling the variables.
    A multiset of colours is encoded exactly as a sum of 1 << (colour *
    width), with width bits enough for any count.
    """
    colours = _ranks(colours)
    n, cells = len(colours), max(colours, default=-1) + 1
    var_width = n.bit_length()
    gen_width = len(supports).bit_length()
    old_shift = len(supports) * gen_width  # the old colour sits above the multiset
    while cells < n:
        weight = [1 << (c * var_width) for c in colours].__getitem__
        gen_colours = _ranks([sum(map(weight, sup)) for sup in supports])
        weight = [1 << (c * gen_width) for c in gen_colours].__getitem__
        colours = _ranks([
            colours[v] << old_shift | sum(map(weight, inc)) for v, inc in enumerate(incident)
        ])
        count = max(colours) + 1
        if count == cells:
            break
        cells = count
    return colours


def _orbit(seeds: list[int], generators: list, twins: list, fixed: set) -> set[int]:
    """Orbit of ``seeds`` under ``generators`` and the transpositions of twins off ``fixed``."""
    orbit: set[int] = set()
    frontier = list(seeds)
    while frontier:
        x = frontier.pop()
        if x not in orbit:
            orbit.add(x)
            frontier.extend(y for y in twins[x] if y not in fixed)
            frontier.extend(g[x] for g in generators)
    return orbit


# Ideals with at most this many generators are keyed by _table_key, the rest by
# _search_key.  The table's cost grows with m! and barely with n, the search's
# with n.  Microseconds per key, search -> table, in process (2-vCPU x86_64,
# Python 3.11.7, numpy 2.4.6; 200 random cubic ideals, median of 5), at
# n = 8, 11, 14: m = 4: 187 -> 16, 281 -> 17, 426 -> 19; m = 5: 133 -> 28,
# 234 -> 34, 347 -> 31; m = 6: 82 -> 65, 161 -> 111, 329 -> 141; m = 7:
# 93 -> 375, 112 -> 442, 228 -> 658.  m = 6 is the crossover (an earlier run
# had the table 10 % slower at n = 8), and each m past it multiplies the table.
# The scan-cubic8 samples have 5 generators, their powers I^[2] about 2.
_TABLE_GENERATORS = 5


@functools.cache
def _generator_orders(m: int) -> np.ndarray:
    """Every m-bit column under every order of m generators, as m! x 2^m uint8.

    Row r sends the set c of generators (bit j for generator j) to its
    image when each generator j is renumbered to the j-th entry of the r-th
    permutation.  Built once per m, on the first key with m generators.
    """
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.uint8)
    bits = np.arange(1 << m, dtype=np.uint8)[:, None] >> np.arange(m, dtype=np.uint8) & 1
    table = (bits << perms[:, None, :]).sum(axis=2, dtype=np.uint8)
    table.flags.writeable = False  # one table serves every key with m generators
    return table


def _transpose(rows: Iterable[int], width: int) -> list[int]:
    """A bit matrix, one int per row, transposed: bit j of row i becomes bit i of row j."""
    out = [0] * width
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= 1 << i
            row ^= low
    return out


def _table_key(ideal: Ideal) -> tuple[int, ...]:
    """``canonical_relabeling_key`` for few generators, from ``_generator_orders``.

    Variable v's column is the set of generators that contain it.
    Relabeling the variables permutes the columns, which leaves their sorted
    row unchanged; renumbering the generators maps every column through one
    row of the table.  So the least sorted row over all m! orders is the
    same for every relabeling, and it describes the ideal relabeled so
    that variable i takes the i-th smallest column: the key is that ideal's
    generator masks, sorted.
    """
    n, m = ideal.ambient_n, len(ideal.masks)
    rows = _generator_orders(m).take(_transpose(ideal.masks, n), axis=1)
    rows.sort(axis=1)
    # as bytes, rows compare entry by entry; numpy drops trailing zero bytes,
    # but a row ends in zero only when every column is zero, for m = 0
    least = rows[rows.view(f"S{n}").argmin()].tolist()
    return tuple(sorted(_transpose(least, m)))


@functools.cache
def _code_weights(m: int, width: int) -> np.ndarray:
    """Each column's weight in each word of a count code under each
    generator order, as 2^m x (words * m!) uint64: the column c, mapped to
    c', adds one to the ``width``-bit digit of c' in its word, the least c'
    most significant."""
    digits = 64 // width
    table = _generator_orders(m).T.astype(np.int64)
    words = []
    for first in range(0, 1 << m, digits):
        place = first + digits - 1 - table  # the digit of c', from the word's right end
        inside = (place >= 0) & (place < digits)
        shift = np.where(inside, place * width, 0).astype(np.uint64)
        words.append(np.where(inside, np.uint64(1) << shift, np.uint64(0)))
    weights = np.ascontiguousarray(np.concatenate(words, axis=1))
    weights.flags.writeable = False
    return weights


def _table_keys(n: int, m: int, masks_block: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """``_table_key`` of every ideal with n variables and the m generators in
    ``masks_block``, in one pass.

    Under each generator order, an ideal's count code lists how many
    variables have each column, in ``n.bit_length()``-bit digits, column 0
    most significant.  The sorted row of fewer small columns is the larger,
    so the largest code is the least sorted row: orders are narrowed word by
    word to those with the largest word among the ones left, and the first
    left gives the row.
    """
    gens = np.array(masks_block, dtype=np.uint64).reshape(len(masks_block), m)
    bits = gens[:, :, None] >> np.arange(n, dtype=np.uint64) & np.uint64(1)
    columns = (bits << np.arange(m, dtype=np.uint64)[:, None]).sum(axis=1).astype(np.intp)
    weights = _code_weights(m, n.bit_length())
    codes = weights[columns[:, 0]]  # a variable at a time keeps temporaries small
    for v in range(1, n):
        codes += weights[columns[:, v]]
    orders = _generator_orders(m).shape[0]
    alive = np.ones((len(masks_block), orders), dtype=bool)
    for word in range(0, codes.shape[1], orders):
        code = np.where(alive, codes[:, word:word + orders], np.uint64(0))
        # an order out of the running may tie a zero word, so it stays out
        alive &= code == code.max(axis=1, keepdims=True)
    rows = _generator_orders(m)[alive.argmax(axis=1)[:, None], columns]
    rows.sort(axis=1)
    row_bits = (rows[:, None, :] >> np.arange(m, dtype=np.uint8)[:, None] & 1).astype(np.uint64)
    keys = (row_bits << np.arange(n, dtype=np.uint64)).sum(axis=2)
    keys.sort(axis=1)
    return list(map(tuple, keys.tolist()))


def canonical_relabeling_key(ideal: Ideal) -> tuple[int, ...]:
    """Canonical form of an ideal under relabeling of its variables.

    Two ideals on the same ambient get equal keys exactly when some
    permutation of the variables maps one onto the other.  The key is the
    sorted generator masks of one relabeling of the ideal, chosen by one of
    two routes.  Ideals with at most ``_TABLE_GENERATORS`` generators take
    the least sorted row of variable columns over all orders of the
    generators (``_table_key``); the rest take an individualisation-
    refinement search (``_search_key``).  Either route returns a relabeling
    of the ideal, so equal keys imply isomorphic ideals; and relabeling
    keeps the number of generators, so a whole orbit takes one route and
    gets one key.
    """
    if len(ideal.masks) <= _TABLE_GENERATORS:
        return _table_key(ideal)
    return _search_key(ideal)


def _search_key(ideal: Ideal) -> tuple[int, ...]:
    """``canonical_relabeling_key`` by a search, for any number of generators.

    The key is the least sorted generator-mask tuple over the leaves of an
    individualisation-refinement search (McKay & Piperno, "Practical graph
    isomorphism, II", 2014): refine colours on the variable-generator
    incidence graph, then individualise each vertex of the first
    non-singleton cell in turn and recurse.  Three prunings keep symmetric
    inputs cheap, each skipping only subtrees that an automorphism maps
    onto one already searched:

    - twins (variables whose transposition is an automorphism) are
      interchangeable, so a cell made only of twins is split in label order
      without branching, and a twin of a searched vertex is not branched on;
    - a leaf equal to the first or the best leaf gives an automorphism,
      whose orbits prune later branches that fix the same path;
    - such a leaf also ends the branch back to where its path left the
      matched leaf's path.
    """
    n = ideal.ambient_n
    supports = [[v for v in range(m.bit_length()) if m >> v & 1] for m in ideal.masks]
    incident: list[list[int]] = [[] for _ in range(n)]
    for j, sup in enumerate(supports):
        for v in sup:
            incident[v].append(j)

    def relabeled(colours: list[int]) -> tuple[int, ...]:
        return tuple(sorted([sum([1 << colours[v] for v in sup]) for sup in supports]))

    root = _refine([len(inc) for inc in incident], supports, incident)
    if len(set(root)) == n:
        return relabeled(root)
    # the members of one twin class share one list, which ``visit`` tests with ``is``
    twins = [[v] for v in range(n)]
    for cls in ideal.twin_classes():
        members = [v - 1 for v in cls]
        for v in members:
            twins[v] = members
    automorphisms: list[list[int]] = []
    first = best = None

    def leaf(colours: list[int], path: list[int]) -> int | None:
        """Record a leaf; on a match, the path length to return to."""
        nonlocal first, best
        form = relabeled(colours)
        if first is None:
            first = best = (form, colours, path)
            return None
        for ref_form, ref_colours, ref_path in (first, best):
            if form == ref_form:
                vertex_at = [0] * n
                for v, c in enumerate(ref_colours):
                    vertex_at[c] = v
                automorphisms.append([vertex_at[c] for c in colours])
                common = 0
                while path[common] == ref_path[common]:
                    common += 1
                return common
        if form < best[0]:
            best = (form, colours, path)
        return None

    def visit(colours: list[int], path: list[int]) -> int | None:
        """Search below a stable colouring; ``path`` lists the individualised vertices."""
        while True:
            cells: dict[int, list[int]] = {}
            for v, c in enumerate(colours):
                cells.setdefault(c, []).append(v)
            if len(cells) == n:
                return leaf(colours, path)
            twin_cells = [
                cell for cell in cells.values()
                if len(cell) > 1 and all(twins[v] is twins[cell[0]] for v in cell)
            ]
            if not twin_cells:
                break
            split = {v: i for cell in twin_cells for i, v in enumerate(cell)}
            path = path + [v for cell in twin_cells for v in cell]
            colours = _refine(
                [(c, split.get(v, 0)) for v, c in enumerate(colours)], supports, incident
            )
        target = cells[min(c for c, cell in cells.items() if len(cell) > 1)]
        fixed = set(path)
        searched: list[int] = []
        for v in target:
            if searched:
                stabiliser = [g for g in automorphisms if all(g[u] == u for u in path)]
                if v in _orbit(searched, stabiliser, twins, fixed):
                    continue
            child = _refine([(c, u != v) for u, c in enumerate(colours)], supports, incident)
            back_to = visit(child, path + [v])
            if back_to is not None and back_to < len(path):
                return back_to
            searched.append(v)
        return None

    visit(root, [])
    return best[0]


def _samples(cfg: SearchConfig) -> Iterator[list[tuple[int, tuple[int, ...]]]]:
    """The (index, masks) pairs of one pass, in blocks, where masks is the
    ``masks`` of the sample's ``Ideal``: the injected ideals at -1, -2, ...
    in one block, then one block per ``_BLOCK`` indices of the source,
    which maps a range of indices to its mask rows.  The exhaustive source,
    which wins over a sampling mode, maps the subset index i to the pool's
    supports at the set bits of i.

    A draw that raises ends the stream: the pairs drawn before it in its
    block come first, then the error.  An exhaustive space over the cap
    raises ``SpaceTooLarge`` here, on the call, not on the first block.
    """
    injected = [(-(j + 1), ideal.masks) for j, ideal in enumerate(cfg.inject)]
    if cfg.exhaustive:
        pool = candidate_pool(cfg)
        space = 1 << len(pool)
        if space > cfg.exhaustive_cap:
            raise SpaceTooLarge(
                f"exhaustive space 2^{len(pool)} exceeds cap {cfg.exhaustive_cap}"
            )
        indices, as_masks = range(1, space), _as_masks(cfg)

        def draw(span: range) -> Iterator[tuple[int, ...]]:
            for i in span:
                yield as_masks([m for j, m in enumerate(pool) if i >> j & 1])
    else:
        draw, indices = _sampler(cfg), range(cfg.sample_count)

    def blocks() -> Iterator[list[tuple[int, tuple[int, ...]]]]:
        if injected:
            yield injected
        for start in range(indices.start, indices.stop, _BLOCK):
            span = range(start, min(start + _BLOCK, indices.stop))
            block: list[tuple[int, tuple[int, ...]]] = []
            try:
                for pair in zip(span, draw(span)):
                    block.append(pair)
            except Exception:
                if block:
                    yield block
                raise
            yield block

    return blocks()


def _remember(memo: dict, key, compute):
    """``memo[key]``, computed by ``compute()`` on a miss; a full memo starts over."""
    value = memo.get(key)
    if value is None:
        if len(memo) >= _MEMO_LIMIT:
            memo.clear()
        value = memo[key] = compute()
    return value


# The process's canonical forms, by (ambient_n, masks), and depths, by
# (ambient_n, prime or None, form): pure functions of their keys, so every
# scan of the process shares them, as every walk shares ``_k_dims``
_forms: dict = {}
_depths: dict = {}


def _form(n: int, masks: tuple[int, ...], ideal: Ideal | None = None) -> tuple[int, ...]:
    """The canonical form of the ideal on n variables with these generator
    masks, cached for the process; the ideal is built only if not given."""
    return _remember(_forms, (n, masks), lambda: canonical_relabeling_key(
        Ideal(n, masks) if ideal is None else ideal
    ))


def _table_forms(n: int, rows: list[tuple[int, ...]]) -> None:
    """Cache the forms of the mask rows that ``_table_keys`` keys and that
    are not cached yet, one call per generator count."""
    groups: dict[int, dict] = {}
    for masks in rows:
        m = len(masks)
        if m <= _TABLE_GENERATORS and (n, masks) not in _forms:
            groups.setdefault(m, {})[masks] = None
    for m, group in groups.items():
        for masks, key in zip(group, _table_keys(n, m, list(group))):
            _remember(_forms, (n, masks), lambda: key)


def _orbit_depth(power: Ideal, field: FieldSpec) -> int:
    """depth(S/power), memoised for the process by the power's form.

    A power with at most ``_TORSION_FREE_VERTICES`` generators has one
    depth over every field, so its key leaves the prime out and every
    prime shares it; a larger one keys its depth per prime.
    """
    n = power.ambient_n
    key = _form(n, power.masks, power)
    p = None if len(key) <= _TORSION_FREE_VERTICES else field.characteristic
    return _remember(_depths, (n, p, key), lambda: depth(power, field))


@dataclass
class ScanResult:
    findings: list[Finding]
    summary: dict


def scan(cfg: SearchConfig, log_path: str | None = None) -> ScanResult:
    """Evaluate the configured stream; collect, deduplicate and log findings.

    Each prime makes one pass over ``_samples(cfg)``, whose samples are
    mask rows.  A sample whose generators pairwise meet (nu = 1) is only
    counted.  Relabeling the variables of I relabels each I^[k] along with
    it, which changes neither nu, d_k nor depth(S/I^[k]); so each other
    sample's canonical form keys the pass's memo of its profile, largest
    step and violations, and its finding dedup, and the form of each power
    keys the process's depth memo (``_orbit_depth``), shared by the primes
    for a power with at most ``_TORSION_FREE_VERTICES`` generators.  The
    forms are cached by ambient and mask row for the process, so a second
    prime, or a second scan, keys no row again.  A row becomes an ``Ideal``
    only on a profile-memo miss, for a search key (more than
    ``_TABLE_GENERATORS`` generators) and for a new finding.  Each new
    finding is appended to the log and fsynced as soon as it is found, so a
    scan that dies keeps what it had found.
    """
    # every pass's stream is checked (SpaceTooLarge) before the log is opened
    passes = [(FieldSpec(p), _samples(cfg)) for p in cfg.primes]
    n = cfg.ambient_n
    by_nu: dict[int, int] = {}
    max_gap: int | None = None
    evaluated = 0
    findings_total = 0
    findings: list[Finding] = []

    log = open(log_path, "a", encoding="utf-8") if log_path else None
    try:
        for field, samples in passes:
            profiles: dict = {}
            seen: set = set()

            def evaluate(masks: tuple[int, ...]) -> tuple[GProfile, int | None, tuple[int, ...]]:
                profile = g_profile(Ideal(n, masks), field, _orbit_depth)
                g = profile.g_values
                gap = max((g[k] - g[k - 1] for k in range(1, len(g))), default=None)
                return profile, gap, tuple(profile.violations())

            for block in samples:
                evaluated += len(block)
                wide = [
                    (index, masks) for index, masks in block
                    if not all(itertools.starmap(operator.and_, itertools.combinations(masks, 2)))
                ]
                if len(wide) < len(block):  # nu = 1: one g value, no gap
                    by_nu[1] = by_nu.get(1, 0) + len(block) - len(wide)
                _table_forms(n, [masks for _, masks in wide])
                for index, masks in wide:
                    key = _form(n, masks)
                    profile, gap, violations = _remember(profiles, key, lambda: evaluate(masks))
                    by_nu[profile.nu] = by_nu.get(profile.nu, 0) + 1
                    if gap is not None and (max_gap is None or gap > max_gap):
                        max_gap = gap
                    if not violations:
                        continue
                    findings_total += 1
                    if key in seen:
                        continue
                    seen.add(key)
                    finding = Finding(
                        Ideal(n, masks), profile, violations,
                        field.characteristic, cfg.seed, index,
                    )
                    findings.append(finding)
                    if log is not None:
                        log.write(json.dumps(finding.to_json_dict()) + "\n")
                        log.flush()
                        os.fsync(log.fileno())
    finally:
        if log is not None:
            log.close()

    summary = {
        "ambient_n": cfg.ambient_n,
        "seed": cfg.seed,
        "field_chars": list(cfg.primes),
        "mode": "exhaustive" if cfg.exhaustive else "random",
        "evaluated": evaluated,
        "findings_total": findings_total,
        "findings_unique": len(findings),
        "dedup_by_relabeling": True,
        "by_nu": {str(k): by_nu[k] for k in sorted(by_nu)},
        "max_gap": max_gap,
    }
    return ScanResult(findings, summary)
