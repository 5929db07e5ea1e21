"""Multigraded Betti numbers of S/I via Hochster's formula, and what they imply.

For every multidegree sigma the Betti number in homological degree i is the
dimension of reduced homology of the induced Stanley-Reisner subcomplex on
sigma, in degree |sigma| - i - 1.  Subsets whose induced complex is a cone
are skipped: sigma survives only if it is the union of the generator
supports it contains.  Projective dimension is the top nonzero homological
degree; depth is ambient_n minus that (Auslander-Buchsbaum).

The same numbers come from a complex on the generators.  Let G_sigma be
the generators dividing x^sigma, and K_sigma the Stanley-Reisner complex
on the vertex set G_sigma whose minimal nonfaces are C_v = {g in G_sigma :
v in g}, one for each v in sigma (Hochster's formula for the transposed
incidence of variables and generators).  Then

    beta_{i,sigma}(S/I) = dim H~_{|G_sigma| - i - 1}(K_sigma).

This follows from Gasharov, Peeva and Welker, "The lcm-lattice in monomial
resolutions" (Math. Res. Lett. 6, 1999): beta_{i,sigma} is the homology
of the open interval below x^sigma in the lcm lattice, the crosscut
theorem turns that interval into the complex of the sets of generators
whose lcm is not x^sigma, and K_sigma is its Alexander dual.

A generator g private to sigma, the only one of G_sigma containing some
variable v, has C_v = {g}, so g is no vertex of K_sigma.  The reduced
K_sigma (``_generator_nonfaces``) drops it, with every nonface that meets
it, and keeps r generators; the Betti numbers still read off at face size
|G_sigma| - i.

Both walks run on the same ideal (``_reduced``), pick its route by one
rule, and evaluate each sigma through one evaluator (``_Columns``).  An
ideal with at most ``_LATTICE_GENERATORS`` generators walks its own lcm
lattice: its survivors are the nonzero elements of that lattice
(Gasharov, Peeva and Welker), the unions of its generator subsets, at
most 2^m - 1 of them.  Both walks build them by closure (``_lattice``),
each with its G_sigma, with no twin classes, no numpy and no candidate
count, so they need no refusal, and take every one to its reduced
K_sigma, whose homology is computed once per process
(``_Columns._k_dims``).  A larger ideal is collapsed first (below), and
takes the lattice if that leaves at most ``_LATTICE_GENERATORS``
generators, and the orbit walk of its twin quotient otherwise.

On the orbit walk a sigma goes to the reduced K_sigma, with a face sieve
of its own, or to Delta_sigma, through the ideal's one ``FaceSieve`` on
its ambient, whose rows every sigma shares, and past
``MAX_HOCHSTER_AMBIENT`` variables through a sieve on sigma's own
vertices.  Only the rule that picks the complex differs, each measured
(``_K_MARGIN``).  The table's walk (``_table_columns``) counts r and the
cones of all representatives at once (``_generator_counts``), skips the
cones, and takes K_sigma when r = 0 or r + ``_K_MARGIN`` <= |sigma|.
``proj_dim`` and ``depth`` (and so ``g_profile``) need only the top
degree: they take K_sigma when |G_sigma| < |sigma|, and stop at the
first nonzero degree.

Permuting twin variables (``Ideal.twin_classes``) is an automorphism of the
complex, so it maps each induced subcomplex onto an isomorphic one and
leaves the Betti numbers alone over every field.  Call a twin class C
independent when no generator holds two of its members (free variables
form one).  For a, b in C, both in sigma, the link of b in Delta_sigma is
a cone on a: a face F + b with F + a + b not a face would hold a
generator with a, and swapping a for b gives one inside F + b.  So
Delta_sigma and Delta_{sigma - b} are homotopy equivalent (equal when b
is no vertex), and with c = |sigma & C|

    beta_{i,sigma}(I) = beta_{i-(c-1),sigma'}(I'),

where sigma' keeps only a and I' drops every generator holding another
member of C.  This cone-link lemma is the fold lemma of Engstrom,
"Independence complexes of claw-free graphs" (Eur. J. Combin. 29, 2008),
for graphs.  A walk of an ideal with more than ``_LATTICE_GENERATORS``
generators first collapses each independent class to its first member
(``_collapse``) and renumbers I' onto the variables it uses, so every
orbit walk's ideal uses all of its variables; the paper's family becomes
7 variables and 6 generators for every n >= 7.  Each nonzero
beta_{i',sigma'} of I' stands, for a collapsed a in sigma' of class size
t, for the C(t, c) ways to take c = 1..t members, shifted by c - 1 in i
and in |sigma|.

The dependent classes stay: every orbit of subsets holds one
representative that takes, within each class C, the first c_C members of
C, and ``_orbits`` enumerates those directly: the variables in no class,
in every combination, times a count c_C for each class, 2^s * prod(|C| +
1) candidates in all, of which it keeps the survivors.  Homology is
computed once per representative.  ``depth_report`` and ``regularity``
weight it by its orbit's size, prod C(|C|, c_C); only ``betti_table``,
the multigraded API, lists every member.  Two refusals bound the orbit
walks: more than ``MAX_ORBITS`` candidates (and, in ``betti_table``,
more survivors), and a complex on more than ``MAX_HOCHSTER_AMBIENT``
vertices.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import SpaceTooLarge, ZeroIdeal
from .homology import MAX_HOCHSTER_AMBIENT, FaceSieve, FieldSpec, InducedComplex, _pack, _unpack
from .ideals import Ideal, _indices_from_mask, _minimal_masks

# A walk takes at most as many representatives as the largest complex has
# vertex subsets, so no input costs more than the 2^n sweep it replaced.
MAX_ORBITS = 1 << MAX_HOCHSTER_AMBIENT


@dataclass(frozen=True)
class BettiTable:
    """Nonzero multigraded Betti numbers of S/I over F_p.

    ``entries`` holds (i, sigma_mask, value) triples with value > 0, sorted
    by (i, sigma_mask).  The trivial beta_0 in multidegree 0 is omitted.
    """

    ambient_n: int
    field: FieldSpec
    entries: tuple[tuple[int, int, int], ...]

    def aggregated(self) -> dict[tuple[int, int], int]:
        """Coarse table beta_{i,j} = sum of multigraded values with |sigma| = j."""
        agg: dict[tuple[int, int], int] = {}
        for i, sigma, value in self.entries:
            key = (i, sigma.bit_count())
            agg[key] = agg.get(key, 0) + value
        return agg

    def proj_dim(self) -> int:
        return max(i for i, _, _ in self.entries)

    def regularity(self) -> int:
        return max(sigma.bit_count() - i for i, sigma, _ in self.entries)


def _digits(free: int, classes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """The mixed-radix digits of the twin quotient, as uint64 value arrays:
    each run of consecutive variables of ``free`` in every combination, and
    each twin class as its prefixes, from none to all of its members."""
    digits = []
    while free:
        low = (free & -free).bit_length() - 1
        run = (~(free >> low) & ((free >> low) + 1)).bit_length() - 1
        values = np.arange(1 << run, dtype=np.uint64)
        if low:
            values <<= np.uint64(low)
        digits.append(values)
        free &= ~(((1 << run) - 1) << low)
    for cls in classes:
        prefixes = [0, *itertools.accumulate(1 << (v - 1) for v in cls)]
        digits.append(np.array(prefixes, dtype=np.uint64))
    return digits


# Cells of the candidates-by-generators table the survivor test holds at once:
# one block serves the small ideals of a scan in a handful of numpy calls.
_BLOCK = 1 << 16


def _orbits(
    ideal: Ideal, sized: bool = False, classes: list[tuple[int, ...]] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The survivors' orbit representatives, ascending, as uint64 masks; the
    number |G_sigma| of generators dividing each; and, when ``sized``, the
    member count of each orbit (else None).  The orbits are those of the
    twin ``classes`` given, by default ``ideal.twin_classes()``.

    A survivor is a nonempty sigma that is the union of the generators it
    contains; every other subset induces a cone and has no Betti numbers.
    The representative of an orbit takes, within each twin class C, the
    first c_C members of C, so the candidates are every set of the
    variables in no class joined with such a prefix of each class, and
    the orbit has prod C(|C|, c_C) members.  Twins are exchanged by an
    automorphism, so a candidate survives exactly when its orbit does.
    More than ``MAX_ORBITS`` candidates are refused before any is built.
    """
    n, masks = ideal.ambient_n, ideal.masks
    if classes is None:
        classes = ideal.twin_classes()
    free = ((1 << n) - 1) & ~sum(1 << (v - 1) for cls in classes for v in cls)
    count = (1 << free.bit_count()) * math.prod(len(cls) + 1 for cls in classes)
    if count > MAX_ORBITS:
        raise SpaceTooLarge(
            f"{count} orbit representatives to test on n={n} variables: more than "
            f"2^{MAX_HOCHSTER_AMBIENT} = {MAX_ORBITS}, the cap on a Hochster walk"
        )
    candidates, *rest = _digits(free, classes)
    for digit in rest:
        candidates = (candidates[:, None] | digit).ravel()
    gens = np.array(masks, dtype=np.uint64)
    keep = np.empty(candidates.shape, dtype=bool)
    inside = np.empty(candidates.shape, dtype=np.int64)
    step = max(1, _BLOCK // max(len(masks), 1))
    for start in range(0, candidates.size, step):
        block = candidates[start : start + step]
        divides = (block[:, None] & gens) == gens
        keep[start : start + step] = np.bitwise_or.reduce(divides * gens, axis=1) == block
        inside[start : start + step] = divides.sum(axis=1)
    keep &= candidates != 0
    reps, inside = candidates[keep], inside[keep]
    if classes:
        order = np.argsort(reps)
        reps, inside = reps[order], inside[order]
    if not sized:
        return reps, inside, None
    sizes = np.ones(reps.shape, dtype=np.uint64)
    for cls in classes:
        binomials = [math.comb(len(cls), c) for c in range(len(cls) + 1)]
        chosen = np.bitwise_count(reps & sum(1 << (v - 1) for v in cls))
        sizes *= np.array(binomials, dtype=np.uint64)[chosen]
    return reps, inside, sizes


def _members(rep: int, classes: list[tuple[int, ...]]) -> list[int]:
    """Every multidegree in the orbit of the representative ``rep``."""
    members = [rep & ~sum(1 << (v - 1) for cls in classes for v in cls)]
    for cls in classes:
        bits = [1 << (v - 1) for v in cls]
        chosen = sum(1 for b in bits if rep & b)
        members = [m | sum(c) for m in members for c in itertools.combinations(bits, chosen)]
    return members


def _generator_counts(masks: tuple[int, ...], reps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per multidegree of ``reps``: the vertex count r of the reduced
    K_sigma (``_generator_nonfaces``), and whether it is a cone.

    A generator is private to sigma when it is the only generator of
    G_sigma that contains some variable of sigma.  Every survivor is the
    union of G_sigma, so the variables in exactly one generator of G_sigma
    are sigma minus those in two.  K_sigma is a cone when some kept
    generator lies inside the union of the private ones: then every
    variable of it has a dropped nonface, so it lies in no kept nonface.
    """
    inside = [(reps & g) == g for g in masks]
    seen = np.zeros_like(reps)
    twice = np.zeros_like(reps)
    for g, ins in zip(masks, inside):
        bits = ins * np.uint64(g)
        twice |= seen & bits
        seen |= bits
    single = reps & ~twice
    r = np.zeros(reps.shape, dtype=np.int64)
    private_union = np.zeros_like(reps)
    kept = []
    for g, ins in zip(masks, inside):
        private = ins & ((single & g) != 0)
        keep = ins & ~private
        r += keep
        private_union |= private * np.uint64(g)
        kept.append(keep)
    cone = np.zeros(reps.shape, dtype=bool)
    for g, keep in zip(masks, kept):
        cone |= keep & ((private_union & g) == g)
    return r, cone


def _generator_nonfaces(masks: tuple[int, ...], sigma: int) -> tuple[int, list[int]] | None:
    """The reduced complex K_sigma: its vertex count r and its nonfaces, or None for a cone.

    A generator g private to sigma, the only one containing some variable
    v, has C_v = {g}, so g is no vertex: it is dropped, with every nonface
    that meets it, which leaves the faces and the homology as they were.
    The r kept generators are numbered 0..r-1 in the order of ``masks``,
    and a kept nonface C_v has bit j set when the j-th kept generator
    contains v.  A kept generator in no kept nonface makes K_sigma a cone
    on it, with no homology.  The minimal nonfaces determine the complex,
    so only they are listed, ascending: one complex, one listing, one
    entry of the ``_k_dims`` cache.  With r = 0, K_sigma is {empty face}.
    """
    inside = [g for g in masks if g & sigma == g]
    seen = twice = 0
    for g in inside:
        twice |= seen & g
        seen |= g
    single = sigma & ~twice
    kept, dropped = [], 0
    for g in inside:
        if g & single:
            dropped |= g
        else:
            kept.append(g)
    nonfaces = []
    covered = 0
    rest = sigma & ~dropped
    while rest:
        b = rest & -rest
        face = sum(1 << j for j, g in enumerate(kept) if g & b)
        nonfaces.append(face)
        covered |= face
        rest ^= b
    if covered != (1 << len(kept)) - 1:
        return None
    return len(kept), _minimal_masks(nonfaces)


class _Columns:
    """One ideal's Betti numbers, one multidegree sigma at a time, on one complex.

    On at most ``MAX_HOCHSTER_AMBIENT`` variables every Delta_sigma goes
    through the ideal's one face sieve on its ambient, built on first need,
    so each coboundary row is built at most once per walk; only the orbit
    walk takes Delta_sigma, and its ideal uses every variable
    (``_reduced``).  Past that, each Delta_sigma is sieved on sigma's own
    vertices.  With ``cached``, the homology of each reduced K_sigma comes
    whole from one cache shared by every walk of the process
    (``_k_dims``); without, each K_sigma gets a sieve of its own, ranked
    only down to the consumer's floor.
    """

    def __init__(self, ideal: Ideal, p: int, cached: bool = False) -> None:
        self._ideal, self._p, self._sieve, self._cached = ideal, p, None, cached

    @staticmethod
    @functools.lru_cache(maxsize=1 << 14)
    def _k_dims(r: int, nonfaces: tuple[int, ...], p: int) -> tuple[int, ...]:
        """Reduced homology dims of a K_sigma on r >= 1 vertices over F_p, by face size.

        Every nonface lies in the r vertices, so faces have at most r - 1.
        """
        return tuple(FaceSieve(r, nonfaces, p).homology_dims((1 << r) - 1, r - 1))

    def column(self, sigma: int, m: int, on_k: bool, floor: int) -> Iterator[tuple[int, int]]:
        """Nonzero (i, beta_{i,sigma}) from the top degree down to floor, ranked bottom-up.

        m is |G_sigma|.  beta_{i,sigma} sits at face size m - i of the
        reduced K_sigma (``on_k``) and |sigma| - i of Delta_sigma, so a
        consumer that stops early skips every higher coboundary.  A cone
        yields nothing, and K_sigma = {empty face} yields (m, 1) with no sieve.
        """
        if on_k:
            reduced = _generator_nonfaces(self._ideal.masks, sigma)
            if reduced is None:
                return
            r, nonfaces = reduced
            if r == 0:
                yield m, 1
                return
            if self._cached:
                dims = self._k_dims(r, tuple(nonfaces), self._p)
                yield from ((m - s, dim) for s, dim in enumerate(dims) if dim and m - s >= floor)
                return
            base, sieve, sigma = m, FaceSieve(r, nonfaces, self._p), (1 << r) - 1
        else:
            sieve, sigma = self._delta(sigma)
            base = sigma.bit_count()
        for s, dim in enumerate(sieve.homology_dims(sigma, base - floor)):
            if dim:
                yield base - s, dim

    def _delta(self, sigma: int) -> tuple[FaceSieve, int]:
        """A sieve holding Delta_sigma, and sigma as a mask of its vertices:
        the ideal's one sieve on its ambient, or past ``MAX_HOCHSTER_AMBIENT``
        variables a sieve on sigma's own vertices."""
        n, masks = self._ideal.ambient_n, self._ideal.masks
        if n > MAX_HOCHSTER_AMBIENT:
            sieve, bits = InducedComplex(sigma, masks)._sieve(self._p)
            return sieve, (1 << len(bits)) - 1
        if self._sieve is None:
            self._sieve = FaceSieve(n, masks, self._p)
        return self._sieve, sigma


# One rule picks the route of both walks; on the orbit walk each picks the
# complex by its own rule.  Each is the faster one measured in process
# (2-vCPU x86_64, Python 3.11.7, numpy 2.4.6).  The table's orbit walk
# takes K_sigma when r + _K_MARGIN <= |sigma|: a K_sigma sieve serves one sigma,
# while every Delta_sigma shares the ideal's sieve and rows.  Against
# Delta_sigma for all (median of 5, best of 3): family tables (n = 10..13)
# 0.080 -> 0.016 s, twin-free cubic 0.78 -> 0.53 s, complete, path and cycle
# graphs 0.44 -> 0.19 s, random graphs 0.16 -> 0.10 s; margin 3 made random
# graphs 1.7x slower, and the pd rule 0.118 -> 0.134 s (6 of 6 runs).  It
# counts r for all at once: a per-sigma builder took twin-free tables from
# 0.61..0.75 to 0.74..1.06 s.
# proj_dim's orbit walk takes K_sigma when m < |sigma|, from a cheap count of
# m: the table's rule there, even with r counted lazily, took twin-free depth
# 0.14 -> 0.21 s, graph g-profiles 0.60 -> 1.15 s and dense-quadratic ones
# 0.13 -> 0.38 s (margins 1..3 lost too), and counting r for all cost 0.42 s
# against 0.10 s on graph g-profiles.  Its K_sigma stay uncached and floored:
# ranked whole and cached, two twin-free cubic g-profiles at n = 14 (28
# generators) took 1.05 -> 1.08 s.
# An ideal with at most _LATTICE_GENERATORS generators walks its lcm lattice
# as given, and any other the twin quotient of its collapse; ms per 40 random
# cubics at p = 2 in proj_dim, orbit walk -> lattice walk, interleaved
# (median of 7, loaded box):
#   n = 8, m = 5: 9.6 -> 4.1;  n = 12, m = 6: 21.1 -> 5.9;  n = 16, m = 8: 153 -> 17;
# and per 60 random ideals at p = 2 and 3 in the table (best of 7): cubics
# n = 8, m = 5: 37..63 -> 17..26; n = 12, m = 6: 72..103 -> 29..44;
# quadrics n = 10, m = 6: 47..49 -> 22..28.  Twin-rich ideals lose as m
# grows, since their lattice dwarfs the twin quotient (ms per call, empty
# cache): family(9), m = 8: 0.33 -> 0.26; family(12), m = 11: 0.26 -> 0.77.
# Collapsing the small ideals first cost the table's 60 cubics at n = 12
# 17.7..18.9 -> 23.2..23.6 ms (best of 7, 7 runs each).  On the lattice
# every sigma takes its cached K_sigma.  Taking Delta_sigma there when
# m >= |sigma|, through a sieve of the ideal's support, sieved 2^24 subsets
# for the 4-vertex Delta_sigma of the 4-cycle plus x1x3x5..x24 (0.4 ms and
# 29 MB -> 0.28..0.38 s and 265 MB), and did no better on the 2 x 563 depths
# of 300 seeded cubic samples (31.8..32.5 -> 31.6..32.7 ms, best of 15, 6
# runs each).
# Lost as well (s, committed -> variant): a 2^m <= quotient-size rule, which
# needs a second twin_classes (family g-profiles, n = 8..30: 0.020 -> 0.022),
# numpy arrays on the lattice (three p = 3 scans of 250 cubics: 0.088 ->
# 0.113), and a count of G_sigma per union in place of the closure's (the
# 335 depths of two scan-cubic8 jobs: 0.020 -> 0.024).
_K_MARGIN = 5
_LATTICE_GENERATORS = 6


def _table_columns(
    ideal: Ideal, field: FieldSpec, reps: np.ndarray, m: np.ndarray
) -> Iterator[list]:
    """Per representative, its nonzero (i, beta_{i,sigma}), none for a cone.

    m holds each |G_sigma|.  Each representative goes to the complex its
    row of ``_generator_counts`` picks.  A complex on more than
    ``MAX_HOCHSTER_AMBIENT`` vertices is refused before any homology.
    """
    r, cone = _generator_counts(ideal.masks, reps)
    width = np.bitwise_count(reps)
    on_k = (r == 0) | (r + _K_MARGIN <= width)
    vertices = np.where(cone, 0, np.where(on_k, r, width))
    if vertices.size and vertices.max() > MAX_HOCHSTER_AMBIENT:
        raise SpaceTooLarge(
            f"a complex on {vertices.max()} vertices: more than {MAX_HOCHSTER_AMBIENT}, "
            "the cap on the sweep over all 2^n vertex subsets"
        )
    columns = _Columns(ideal, field.characteristic, cached=True)
    for rep, gens, use_k, is_cone in zip(reps.tolist(), m.tolist(), on_k.tolist(), cone.tolist()):
        yield [] if is_cone else list(columns.column(rep, gens, use_k, 1))


def _lattice(masks: tuple[int, ...]) -> list[tuple[int, int]]:
    """The nonzero elements sigma of the lcm lattice, the unions of generator
    subsets, each with |G_sigma|.

    The closure carries with each union the union of the generator sets
    that give it: every g dividing sigma joins one, so that is G_sigma.
    """
    lcms = {0: 0}
    for j, g in enumerate(masks):
        for u, gens in list(lcms.items()):
            lcms[u | g] = lcms.get(u | g, 0) | gens | 1 << j
    del lcms[0]
    return [(s, gens.bit_count()) for s, gens in lcms.items()]


# A walk's ideal, its twin classes, its collapsed variables (by bit, with
# their classes' bits in the ideal asked about), and its variables' bits there
_Reduced = tuple[Ideal, list[tuple[int, ...]], dict[int, tuple[int, ...]], list[int] | None]


def _collapse(ideal: Ideal, classes: list[tuple[int, ...]]) -> _Reduced | None:
    """The ideal with its independent twin classes collapsed, or None when
    that changes nothing.

    A class of ``classes`` is independent when no generator holds two of
    its members.  Its first member stays and every generator holding
    another member is dropped; the rest are renumbered onto the variables
    they use, so free variables go too.  Returns that ideal; the dependent
    classes in its numbering, whose transpositions stay automorphisms of
    it; the bit there of each kept first member, mapped to its class's bits
    in ``ideal``; and the bit in ``ideal`` of each new variable, ascending.
    """
    dropped, independent, dependent = 0, [], []
    for cls in classes:
        if ideal.is_independent(cls):
            independent.append(cls)
            dropped |= sum(1 << (v - 1) for v in cls[1:])
        else:
            dependent.append(cls)
    kept = [g for g in ideal.masks if not g & dropped]
    support = 0
    for g in kept:
        support |= g
    if support == (1 << ideal.ambient_n) - 1:
        return None
    index = {v: k for k, v in enumerate(_indices_from_mask(support))}
    bits = [1 << (v - 1) for v in index]
    twins = {
        1 << index[cls[0]]: tuple(1 << (v - 1) for v in cls)
        for cls in independent
        if cls[0] in index
    }
    dependent = [tuple(index[v] + 1 for v in cls) for cls in dependent]
    return Ideal(len(bits), [_pack(g, bits) for g in kept]), dependent, twins, bits


def _reduced(ideal: Ideal) -> _Reduced:
    """What a walk of ``ideal`` runs on: the ideal itself, with no classes,
    when it has at most ``_LATTICE_GENERATORS`` generators and so walks its
    own lcm lattice; else ``_collapse`` of its twin classes, or the ideal
    with its classes, no collapsed variable and no renumbering (None)."""
    if len(ideal.masks) <= _LATTICE_GENERATORS:
        return ideal, [], {}, None
    classes = ideal.twin_classes()
    return _collapse(ideal, classes) or (ideal, classes, {}, None)


def _shifts(sigma: int, twins: dict[int, tuple[int, ...]]) -> list[int]:
    """How many of the multidegrees a collapsed sigma stands for have each
    shift s: the coefficients of the product, over the collapsed variables
    a in sigma with classes of t members, of sum_{c=1..t} C(t, c) x^(c-1)."""
    counts = [1]
    for a, cls in twins.items():
        if sigma & a:
            t = len(cls)
            grown = [0] * (len(counts) + t - 1)
            for s, x in enumerate(counts):
                for c in range(1, t + 1):
                    grown[s + c - 1] += x * math.comb(t, c)
            counts = grown
    return counts


def _excess(sigma: int, twins: dict[int, tuple[int, ...]]) -> int:
    """The largest shift of a collapsed sigma: t - 1 summed over its
    collapsed variables, with classes of t members."""
    return sum(len(cls) - 1 for a, cls in twins.items() if sigma & a)


def _unfolded(
    sigma: int, twins: dict[int, tuple[int, ...]], bits: list[int] | None
) -> list[tuple[int, int]]:
    """(shift, multidegree) for each multidegree of the uncollapsed ideal
    that the collapsed sigma stands for: every collapsed variable a in
    sigma becomes each c-subset of its class, c >= 1, with shift c - 1."""
    if bits is None:
        return [(0, sigma)]
    out = [(0, _unpack(sigma, bits))]
    for a, cls in twins.items():
        if sigma & a:
            out = [
                (s + c - 1, m ^ cls[0] | sum(chosen))
                for s, m in out
                for c in range(1, len(cls) + 1)
                for chosen in itertools.combinations(cls, c)
            ]
    return out


def _walk(
    ideal: Ideal, classes: list[tuple[int, ...]], field: FieldSpec
) -> tuple[list[int], list[int], Iterator[list], list[tuple[int, ...]]]:
    """The table's walk: the survivors' representatives, their orbit sizes,
    each one's nonzero (i, beta_{i,sigma}) computed as they are drawn, and
    the twin classes of the orbits.

    An ideal with at most ``_LATTICE_GENERATORS`` generators lists every
    element of its lcm lattice, each on its reduced K_sigma with the
    process-wide homology cache, and needs no orbits; a larger one takes
    the orbit representatives of ``classes``.
    """
    if len(ideal.masks) <= _LATTICE_GENERATORS:
        lattice = _lattice(ideal.masks)
        columns = _Columns(ideal, field.characteristic, cached=True)
        reps = [sigma for sigma, _ in lattice]
        lazy = (list(columns.column(sigma, m, True, 1)) for sigma, m in lattice)
        return reps, [1] * len(reps), lazy, []
    reps, m, sizes = _orbits(ideal, sized=True, classes=classes)
    return reps.tolist(), sizes.tolist(), _table_columns(ideal, field, reps, m), classes


def betti_table(ideal: Ideal, field: FieldSpec = FieldSpec(2)) -> BettiTable:
    """All nonzero multigraded Betti numbers of S/I over F_p.

    Homology is computed once per survivor of the collapsed ideal's walk
    and listed for every multidegree it stands for.  More than
    ``MAX_ORBITS`` survivors are refused before any homology:
    ``depth_report`` gives the aggregated table.
    """
    if ideal.is_zero:
        raise ZeroIdeal("Betti table of S requested; the zero ideal has no table")
    quotient, classes, twins, bits = _reduced(ideal)
    reps, sizes, columns, classes = _walk(quotient, classes, field)
    survivors = sum(size * sum(_shifts(rep, twins)) for rep, size in zip(reps, sizes))
    if survivors > MAX_ORBITS:
        raise SpaceTooLarge(
            f"a multigraded table over {survivors} survivors: more than "
            f"2^{MAX_HOCHSTER_AMBIENT} = {MAX_ORBITS}; depth_report aggregates per orbit"
        )
    entries = []
    for rep, column in zip(reps, columns):
        if not column:
            continue
        for member in _members(rep, classes):
            for shift, sigma in _unfolded(member, twins, bits):
                entries.extend((i + shift, sigma, dim) for i, dim in column)
    entries.sort()
    return BettiTable(ideal.ambient_n, field, tuple(entries))


def _aggregated(ideal: Ideal, field: FieldSpec) -> dict[tuple[int, int], int]:
    """The coarse table beta_{i,j} of a nonzero ideal, each survivor's column
    weighted by its orbit's size and spread over the shifts of the
    collapsed multidegrees it stands for."""
    quotient, classes, twins, _ = _reduced(ideal)
    reps, sizes, columns, _ = _walk(quotient, classes, field)
    agg: dict[tuple[int, int], int] = {}
    for rep, size, column in zip(reps, sizes, columns):
        if not column:
            continue
        j = rep.bit_count()
        for s, count in enumerate(_shifts(rep, twins)):
            for i, dim in column:
                agg[i + s, j + s] = agg.get((i + s, j + s), 0) + size * count * dim
    return agg


def proj_dim(ideal: Ideal, field: FieldSpec = FieldSpec(2)) -> int:
    """Projective dimension of S/I, without building the Betti table.

    pd is the largest i with beta_{i,sigma} nonzero for some survivor
    sigma.  Delta_sigma bounds i by |sigma| and K_sigma by m = |G_sigma|,
    so survivors are visited by descending w = min(|sigma|, m), ties by
    ascending mask, and only down to degree best + 1; the walk stops at
    the first sigma with w <= best.  It runs on ``_reduced(ideal)``: a
    collapsed sigma with excess e, the sum of t - 1 over its collapsed
    variables, bounds i by w + e, and its degree i' counts as i' + e.  On
    the lcm lattice every sigma goes to its cached K_sigma; the orbit
    representatives of ``_orbits`` go to the complex with w vertices.
    """
    if ideal.is_zero:
        raise ZeroIdeal("projective dimension of S requested")
    ideal, classes, twins, _ = _reduced(ideal)
    lattice = len(ideal.masks) <= _LATTICE_GENERATORS
    if lattice:
        visits = sorted((-min(s.bit_count(), m), s, m) for s, m in _lattice(ideal.masks))
        if twins:
            visits = sorted((w - _excess(s, twins), s, m) for w, s, m in visits)
    else:
        reps, gens_inside, _ = _orbits(ideal, classes=classes)
        weights = np.minimum(np.bitwise_count(reps), gens_inside)
        for a, cls in twins.items():
            weights += ((reps & np.uint64(a)) != 0) * (len(cls) - 1)
        order = np.argsort(-weights, kind="stable")
        visits = zip((-weights[order]).tolist(), reps[order].tolist(), gens_inside[order].tolist())
    columns = _Columns(ideal, field.characteristic, cached=lattice)
    best = 0
    for neg_w, sigma, m in visits:  # by (-w - e, sigma)
        if -neg_w <= best:
            break
        e = _excess(sigma, twins) if twins else 0
        for i, _ in columns.column(sigma, m, lattice or m < sigma.bit_count(), best + 1 - e):
            best = i + e
            break
    return best


def depth(ideal: Ideal, field: FieldSpec = FieldSpec(2)) -> int:
    """depth(S/I) = ambient_n - proj_dim; the zero ideal gets depth ambient_n."""
    if ideal.is_zero:
        return ideal.ambient_n
    return ideal.ambient_n - proj_dim(ideal, field)


def regularity(ideal: Ideal, field: FieldSpec = FieldSpec(2)) -> int:
    """Castelnuovo-Mumford regularity: max(j - i) over nonzero beta_{i,j}."""
    if ideal.is_zero:
        raise ZeroIdeal("regularity of S requested")
    return max(j - i for i, j in _aggregated(ideal, field))


@dataclass(frozen=True)
class GRow:
    k: int
    d_k: int
    depth: int
    g: int


@dataclass(frozen=True)
class GProfile:
    """The normalized depth function g(k) = depth(S/I^[k]) - (d_k - 1), k = 1..nu."""

    nu: int
    rows: tuple[GRow, ...]

    @property
    def g_values(self) -> tuple[int, ...]:
        return tuple(r.g for r in self.rows)

    def violations(self) -> list[int]:
        """Positions k with g(k+1) > g(k)."""
        g = self.g_values
        return [k for k in range(1, len(g)) if g[k] > g[k - 1]]

    def to_json_dict(self) -> dict:
        return {
            "nu": self.nu,
            "profile": [
                {"k": r.k, "d_k": r.d_k, "depth": r.depth, "g": r.g} for r in self.rows
            ],
        }


def g_profile(
    ideal: Ideal,
    field: FieldSpec = FieldSpec(2),
    depth_fn: Callable[[Ideal, FieldSpec], int] | None = None,
) -> GProfile:
    """Normalized depth function of a nonzero squarefree ideal.

    ``depth_fn(power, field)`` gives depth(S/I^[k]); it defaults to
    ``depth``.  ``search.scan`` passes a memoised one.  I^[k] is nonzero
    exactly when some k generators are pairwise disjoint, so nu is the k
    before the first zero power.
    """
    if ideal.is_zero:
        raise ZeroIdeal("g profile undefined for the zero ideal")
    if depth_fn is None:
        depth_fn = depth
    rows = []
    power = ideal
    while not power.is_zero:
        k = len(rows) + 1
        d_k = power.min_gen_degree()
        depth_k = depth_fn(power, field)
        rows.append(GRow(k, d_k, depth_k, depth_k - (d_k - 1)))
        power = ideal.squarefree_power(k + 1)
    return GProfile(len(rows), tuple(rows))


@dataclass(frozen=True)
class DepthReport:
    """Summary invariants of S/I over one prime field.

    ``betti`` is the aggregated table as (i, j, value) triples.  When the
    report was cross-checked at a second prime, ``field_sensitive`` records
    whether the two tables disagreed.
    """

    ambient_n: int
    field: FieldSpec
    depth: int
    proj_dim: int
    regularity: int
    betti: tuple[tuple[int, int, int], ...]
    field_sensitive: bool = False

    def __post_init__(self) -> None:
        if self.depth + self.proj_dim != self.ambient_n:
            raise ValueError(
                f"inconsistent report: depth {self.depth} + proj_dim {self.proj_dim} "
                f"!= n = {self.ambient_n} (Auslander-Buchsbaum)"
            )

    def to_json_dict(self) -> dict:
        return {
            "n": self.ambient_n,
            "field_char": self.field.characteristic,
            "betti": [{"i": i, "j": j, "value": v} for i, j, v in self.betti],
            "proj_dim": self.proj_dim,
            "depth": self.depth,
            "regularity": self.regularity,
            "field_sensitive": self.field_sensitive,
        }


def depth_report(
    ideal: Ideal,
    field: FieldSpec = FieldSpec(2),
    both_primes: bool = False,
) -> DepthReport:
    """DepthReport over ``field``, from the table aggregated per orbit.

    With both_primes the table is recomputed over a second field, F_3
    when ``field`` is F_2 and F_2 otherwise, and ``field_sensitive`` records
    whether the aggregated tables differ.
    """
    if ideal.is_zero:
        return DepthReport(ideal.ambient_n, field, ideal.ambient_n, 0, 0, ())
    agg = _aggregated(ideal, field)
    sensitive = False
    if both_primes:
        other = FieldSpec(3 if field.characteristic == 2 else 2)
        sensitive = _aggregated(ideal, other) != agg
    pd = max(i for i, _ in agg)
    return DepthReport(
        ideal.ambient_n,
        field,
        ideal.ambient_n - pd,
        pd,
        max(j - i for i, j in agg),
        tuple((i, j, agg[i, j]) for i, j in sorted(agg)),
        sensitive,
    )
