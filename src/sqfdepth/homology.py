"""Reduced simplicial homology over prime fields.

``FaceSieve`` holds the faces of one Stanley-Reisner complex sorted by
(size, mask), so the faces of size s are one contiguous slice and a face's
position within its slice is its column in the coboundary rows out of size
s - 1.  Each face's coboundary row is built once, on first use, and every
induced subcomplex reuses it by masking its columns to the faces inside
sigma.  Ranks come from one sparse pivot elimination over coboundaries, run
bottom-up with clearing: a pivot found at face size s marks a row of size
s + 1 that would reduce to zero, so that row is never used.  Rows are packed
integers over F_2 (``rank_gf2``), pairs of packed bit-planes over F_3
(``rank_gf3``) and dict rows of Python ints for every other prime
(``rank_mod_p``), so ranks are exact for any p.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .ideals import Ideal, _indices_from_mask, _integer, _mask_from_indices

# Miller-Rabin with these bases is exact for every n < 3.3 * 10^24.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test for p <= MAX_CHARACTERISTIC."""
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# Ranks are exact for every p; primality is certified only up to here.
MAX_CHARACTERISTIC = 2**64 - 1


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field F_p, for a prime p <= MAX_CHARACTERISTIC."""

    characteristic: int = 2

    def __post_init__(self) -> None:
        p = _integer(self.characteristic, "characteristic")
        # stored as a plain int: JSON reports cannot serialize a numpy integer
        object.__setattr__(self, "characteristic", p)
        if p > MAX_CHARACTERISTIC:
            raise ValueError(
                f"characteristic {p} is too large: primality is certified only "
                f"up to 2^64 - 1 = {MAX_CHARACTERISTIC}"
            )
        if not _is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")


def rank_gf2(packed_rows: list[int], basis: dict[int, int] | None = None) -> int:
    """Rank over F_2 of rows packed as integers (bit j = column j).

    Each row is reduced against the basis rows keyed by their leading
    (highest) column.  Pass a dict as ``basis`` to receive those rows.
    """
    if basis is None:
        basis = {}
    rank = 0
    for row in packed_rows:
        v = row
        while v:
            h = v.bit_length() - 1
            piv = basis.get(h)
            if piv is None:
                basis[h] = v
                rank += 1
                break
            v ^= piv
    return rank


def rank_gf3(
    rows: list[tuple[int, int]], basis: dict[int, tuple[int, int]] | None = None
) -> int:
    """Rank over F_3 of rows given as bit-planes (plus, minus).

    Bit j of ``plus`` (of ``minus``) is set where column j holds 1 (holds
    2 = -1); the two never share a bit.  The same elimination as
    ``rank_gf2``: basis rows are keyed by their leading column and scaled to
    leading coefficient 1, and a row is reduced by adding the basis row or
    its negation (the planes swapped), a few whole-row AND/OR/XOR steps.
    Pass a dict as ``basis`` to receive those rows.
    """
    if basis is None:
        basis = {}
    rank = 0
    for vp, vm in rows:
        while vp | vm:
            h = (vp | vm).bit_length() - 1
            piv = basis.get(h)
            if piv is None:
                basis[h] = (vp, vm) if vp >> h & 1 else (vm, vp)
                rank += 1
                break
            # v - c * piv for the leading coefficient c of v, as v + w
            wp, wm = piv if vm >> h & 1 else (piv[1], piv[0])
            vp, vm = vm ^ ((vp ^ (vm | wp)) & ~wm), vp ^ ((vp | (vm ^ wm)) & ~wp)
    return rank


def rank_mod_p(
    rows: list[dict[int, int]], p: int, basis: dict[int, dict[int, int]] | None = None
) -> int:
    """Rank over F_p of sparse rows {column: value}, exact for any prime p.

    The same elimination as ``rank_gf2``: each row is reduced against the
    basis rows keyed by their leading (largest) column, and a new basis row
    is scaled to leading coefficient 1.  Pass a dict as ``basis`` to receive
    those rows.
    """
    if basis is None:
        basis = {}
    rank = 0
    for row in rows:
        v = {c: x % p for c, x in row.items() if x % p}
        while v:
            h = max(v)
            piv = basis.get(h)
            if piv is None:
                inv = pow(v[h], p - 2, p)
                basis[h] = {c: x * inv % p for c, x in v.items()}
                rank += 1
                break
            f = v[h]
            for c, x in piv.items():
                y = (v.get(c, 0) - f * x) % p
                if y:
                    v[c] = y
                else:
                    del v[c]
    return rank


# Every complex is built by sweeping all 2^n vertex subsets; refuse hopeless inputs.
MAX_HOCHSTER_AMBIENT = 24


def _all_subsets(n: int) -> np.ndarray:
    """The masks 0..2^n - 1 of the subsets of n vertices: the package's one 2^n sweep."""
    if n > MAX_HOCHSTER_AMBIENT:
        raise ValueError(f"a complex on n={n} vertices: n exceeds {MAX_HOCHSTER_AMBIENT}, "
                         "the cap on the sweep over all 2^n vertex subsets")
    return np.arange(1 << n, dtype=np.uint32)


class FaceSieve:
    """The faces of one Stanley-Reisner complex and their coboundary rows over F_p.

    The faces are the subsets of the ``n`` vertices (bits 0..n-1) that
    contain no mask of ``nonfaces``, sorted by (size, mask): the faces of
    size s are positions ``bounds[s]:bounds[s + 1]``.  The coboundary row of
    the s-face f has an entry at f | {v} for every vertex v outside f with
    that union a face, of sign (-1)^|{u in f : u < v}|, in the column given
    by the position of f | {v} within size s + 1.  Each row a rank uses is
    built on first use and kept for the life of the sieve, so the induced
    subcomplexes of one ideal share it: restricting a row to sigma masks its
    columns with the (s + 1)-faces inside sigma.  Rows are packed
    ints at p = 2 and (plus, minus) bit-plane pairs, the columns of the +1
    and of the -1 entries, at every other p.  An ``n`` above
    ``MAX_HOCHSTER_AMBIENT`` is refused before the sweep.
    """

    def __init__(self, n: int, nonfaces: Iterable[int], p: int = 2) -> None:
        arr = _all_subsets(n)
        ok = np.ones(arr.shape, dtype=bool)
        for g in nonfaces:
            ok &= (arr & g) != g
        faces = arr[ok]
        sizes = np.bitwise_count(faces)
        counts = np.bincount(sizes, minlength=n + 2).tolist()
        self._faces = faces[np.argsort(sizes, kind="stable")]
        self.bounds = [0, *itertools.accumulate(counts)]
        self._full = [(1 << c) - 1 for c in counts]
        self.top = max(s for s, c in enumerate(counts) if c) if faces.size else 0
        self.p = p
        self._masks: dict[int, list[int]] = {}
        self._vertices = self._faces[self.bounds[1] : self.bounds[2]].tolist()
        self._index: dict[int, dict[int, int]] = {}
        self._rows: dict[int, list] = {}

    def faces(self, s: int) -> list[int]:
        """Masks of the faces of size s, ascending."""
        got = self._masks.get(s)
        if got is None:
            got = self._masks[s] = self._faces[self.bounds[s] : self.bounds[s + 1]].tolist()
        return got

    def _build_row(self, s: int, j: int):
        """The row of the j-th s-face f: one lookup of f | {v} per vertex v."""
        f = self.faces(s)[j]
        index = self._index.get(s + 1)
        if index is None:
            index = self._index[s + 1] = {m: c for c, m in enumerate(self.faces(s + 1))}
        plus = 0
        if self.p == 2:
            for b in self._vertices:
                c = index.get(f | b)
                if c is not None:
                    plus |= 1 << c
            return plus
        minus = 0
        for b in self._vertices:
            c = index.get(f | b)
            if c is None:
                continue
            if (f & (b - 1)).bit_count() & 1:  # sign (-1)^|{u in f : u < v}|
                minus |= 1 << c
            else:
                plus |= 1 << c
        return plus, minus

    def _inside(self, sigma: int, top: int) -> int:
        """Bit mask of the positions of the faces inside sigma with at most top vertices."""
        end = self.bounds[top + 1]
        sel = (self._faces[:end] & np.uint32(0xFFFFFFFF ^ sigma)) == 0
        return int.from_bytes(np.packbits(sel, bitorder="little").tobytes(), "little")

    def homology_dims(self, sigma: int, top: int) -> Iterator[int]:
        """Reduced homology dims of the complex induced on sigma, for face sizes 0..top.

        The value for size s is the dim of reduced homology in degree s - 1,
        exact for every s up to top.  Yielding it ranks the coboundary out
        of size s and no higher one, so a consumer that stops early skips
        every higher coboundary.  The faces carrying the pivots of one
        coboundary are cleared from the next, since delta o delta = 0 makes
        their rows dependent.  Sizes past the complex's largest face have
        no faces and yield 0.
        """
        last = min(top + 1, self.top)
        sel = self._inside(sigma, last)
        bounds, full = self.bounds, self._full
        here = sel & full[0]
        below = 0
        cleared = 0  # positions, within size s, of the rows left out
        for s in range(top + 1):
            above = 0
            upper = (sel >> bounds[s + 1]) & full[s + 1] if s < last else 0
            if upper:
                above, cleared = self._coboundary_rank(s, here & ~cleared, upper)
            yield here.bit_count() - below - above
            below = above
            here = upper

    def _coboundary_rank(self, s: int, live: int, upper: int) -> tuple[int, int]:
        """Rank of the coboundary from the s-faces ``live`` into the (s+1)-faces ``upper``.

        Both are bit masks of positions within their size class.  Returns
        the rank and the mask of the pivot columns.
        """
        cache = self._rows.get(s)
        if cache is None:  # None until the row is built
            cache = self._rows[s] = [None] * (self.bounds[s + 1] - self.bounds[s])
        rows = []
        while live:
            b = live & -live
            j = b.bit_length() - 1
            row = cache[j]
            if row is None:
                row = cache[j] = self._build_row(s, j)
            rows.append(row)
            live ^= b
        basis: dict = {}
        p = self.p
        if p == 2:
            rank = rank_gf2([r & upper for r in rows], basis)
        elif p == 3:
            rank = rank_gf3([(r & upper, q & upper) for r, q in rows], basis)
        else:
            rank = rank_mod_p([_sparse(r & upper, q & upper, p) for r, q in rows], p, basis)
        pivots = 0
        for h in basis:
            pivots |= 1 << h
        return rank, pivots


def _sparse(plus: int, minus: int, p: int) -> dict[int, int]:
    """The sparse row over F_p with 1 at the bits of plus and p - 1 at those of minus."""
    row = {}
    for plane, x in ((plus, 1), (minus, p - 1)):
        while plane:
            b = plane & -plane
            row[b.bit_length() - 1] = x
            plane ^= b
    return row


@dataclass(frozen=True)
class InducedComplex:
    """Restriction of the Stanley-Reisner complex of an ideal to a vertex set.

    Faces are the subsets of ``sigma`` containing no generator support;
    only the generators contained in ``sigma`` are kept (`nonfaces`).
    """

    sigma: int
    nonfaces: tuple[int, ...]

    def is_face_mask(self, mask: int) -> bool:
        if mask & ~self.sigma:
            return False
        return not any(g & mask == g for g in self.nonfaces)

    def is_face(self, vertices: Iterable[int]) -> bool:
        return self.is_face_mask(_mask_from_indices(vertices, 63))

    def _sieve(self, p: int = 2) -> tuple[FaceSieve, list[int]]:
        """A ``FaceSieve`` of this complex with sigma's vertices renumbered 0..k-1.

        Also returns sigma's vertex bits in ascending order: bit i of a
        sieve mask stands for the i-th of them.
        """
        bits = [1 << (i - 1) for i in _indices_from_mask(self.sigma)]
        packed = [_pack(g, bits) for g in self.nonfaces if not g & ~self.sigma]
        return FaceSieve(len(bits), packed, p), bits

    def faces_by_size(self) -> list[list[int]]:
        """All face masks grouped by cardinality, each group ascending."""
        sieve, bits = self._sieve()
        return [[_unpack(m, bits) for m in sieve.faces(s)] for s in range(sieve.top + 1)]

    def facets(self) -> list[frozenset[int]]:
        """Inclusion-maximal faces: those with an empty coboundary row."""
        sieve, bits = self._sieve()
        return [
            frozenset(_indices_from_mask(_unpack(m, bits)))
            for s in range(sieve.top + 1)
            for j, m in enumerate(sieve.faces(s))
            if not sieve._build_row(s, j)
        ]


def _unpack(m: int, bits: list[int]) -> int:
    """The mask whose bit bits[i] is set for each set bit i of m."""
    return sum(b for i, b in enumerate(bits) if m >> i & 1)


def _pack(m: int, bits: list[int]) -> int:
    """The mask whose bit i is set for each bits[i] in m: the inverse of ``_unpack``."""
    return sum(1 << i for i, b in enumerate(bits) if m & b)


def induced_faces(ideal: Ideal, sigma: Iterable[int]) -> InducedComplex:
    """The induced subcomplex of the ideal's Stanley-Reisner complex on sigma."""
    mask = _mask_from_indices(sigma, ideal.ambient_n)
    kept = tuple(g for g in ideal.masks if g & mask == g)
    return InducedComplex(mask, kept)


def reduced_homology_dims(complex_: InducedComplex, field: FieldSpec) -> list[int]:
    """Reduced homology dimensions over F_p for degrees -1..|sigma|-1."""
    sieve, bits = complex_._sieve(field.characteristic)
    k = len(bits)
    return list(sieve.homology_dims((1 << k) - 1, k))
