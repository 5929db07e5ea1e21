"""Reduced simplicial homology over prime fields.

Chain groups are indexed by face-support bitmasks in a fixed ascending
order, so coboundary matrices and hence ranks are deterministic.  The empty
face lives in degree -1; its coboundary is the augmentation map.  Ranks come
from one sparse pivot elimination over coboundaries, run bottom-up with
clearing: a pivot found at face size s marks a row of size s + 1 that would
reduce to zero, so that row is never built.  Over F_2 rows are packed into
integers; every other prime uses dict rows of Python ints, which are exact
for any p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .ideals import Ideal, _indices_from_mask, _mask_from_indices

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
        p = self.characteristic
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


def _coboundary_rank(
    lower: list[int], upper: list[int], cleared: set[int], vertices: int, p: int
) -> tuple[int, set[int]]:
    """Rank over F_p of the coboundary from faces ``lower`` to faces ``upper``.

    Rows of the faces in ``cleared`` are left out: they reduce to zero.
    Returns the rank and the faces of ``upper`` that carry its pivots.  The
    row of f has an entry at f | {v} for every vertex v outside f with that
    union a face, of sign (-1)^|{u in f : u < v}|.
    """
    if not upper:
        return 0, set()
    index = {m: j for j, m in enumerate(upper)}
    basis: dict = {}
    if p == 2:
        packed = []
        for f in lower:
            if f in cleared:
                continue
            row = 0
            rest = vertices & ~f
            while rest:
                b = rest & -rest
                j = index.get(f | b)
                if j is not None:
                    row |= 1 << j
                rest ^= b
            packed.append(row)
        rank = rank_gf2(packed, basis)
    else:
        rows = []
        for f in lower:
            if f in cleared:
                continue
            row = {}
            rest = vertices & ~f
            while rest:
                b = rest & -rest
                j = index.get(f | b)
                if j is not None:
                    row[j] = p - 1 if (f & (b - 1)).bit_count() & 1 else 1
                rest ^= b
            rows.append(row)
        rank = rank_mod_p(rows, p, basis)
    return rank, {upper[j] for j in basis}


def iter_homology_dims(faces_by_size: list[list[int]], p: int) -> Iterator[int]:
    """Reduced homology dimensions in ascending degree, computed lazily.

    ``faces_by_size[s]`` lists the masks of the s-element faces (so entry 0
    is ``[0]`` for the empty face).  The value for size s is the dim of
    reduced homology in degree s - 1.  Yielding it ranks the coboundary out
    of size s and no higher one, so a consumer that stops early skips every
    higher coboundary.  The faces carrying the pivots of one coboundary are
    cleared from the next, since delta o delta = 0 makes their rows dependent.
    """
    top = len(faces_by_size) - 1
    vertices = sum(faces_by_size[1]) if top else 0  # distinct single bits
    below = 0  # rank of the coboundary into size s
    cleared: set[int] = set()
    for s in range(top + 1):
        above = 0
        if s < top:
            above, cleared = _coboundary_rank(
                faces_by_size[s], faces_by_size[s + 1], cleared, vertices, p
            )
        yield len(faces_by_size[s]) - below - above
        below = above


def homology_dims_from_faces(faces_by_size: list[list[int]], p: int) -> list[int]:
    """Reduced homology dimensions of a complex given its faces by cardinality.

    Returns dims for degrees -1..top, i.e. entry ``d + 1`` is dim of reduced
    homology in degree ``d``; see ``iter_homology_dims``.
    """
    return list(iter_homology_dims(faces_by_size, p))


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

    def faces_by_size(self) -> list[list[int]]:
        """All face masks grouped by cardinality, each group ascending."""
        groups: list[list[int]] = [[] for _ in range(self.sigma.bit_count() + 1)]
        sub = self.sigma
        while True:
            if self.is_face_mask(sub):
                groups[sub.bit_count()].append(sub)
            if sub == 0:
                break
            sub = (sub - 1) & self.sigma
        for g in groups:
            g.sort()
        while len(groups) > 1 and not groups[-1]:
            groups.pop()
        return groups

    def facets(self) -> list[frozenset[int]]:
        """Inclusion-maximal faces."""
        groups = self.faces_by_size()
        all_faces = {m for g in groups for m in g}
        out = []
        for g in groups:
            for m in g:
                rest = self.sigma & ~m
                maximal = True
                while rest:
                    v = rest & -rest
                    if (m | v) in all_faces:
                        maximal = False
                        break
                    rest ^= v
                if maximal:
                    out.append(frozenset(_indices_from_mask(m)))
        return out


def induced_faces(ideal: Ideal, sigma: Iterable[int]) -> InducedComplex:
    """The induced subcomplex of the ideal's Stanley-Reisner complex on sigma."""
    mask = _mask_from_indices(sigma, ideal.ambient_n)
    kept = tuple(g for g in ideal.gen_masks() if g & mask == g)
    return InducedComplex(mask, kept)


def reduced_homology_dims(complex_: InducedComplex, field: FieldSpec) -> list[int]:
    """Reduced homology dimensions over F_p for degrees -1..|sigma|-1."""
    dims = homology_dims_from_faces(complex_.faces_by_size(), field.characteristic)
    want = complex_.sigma.bit_count() + 1
    return dims + [0] * (want - len(dims))
