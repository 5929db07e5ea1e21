"""Reduced simplicial homology over small prime fields.

Chain groups are indexed by face-support bitmasks in a fixed ascending
order, so boundary matrices and hence ranks are deterministic.  The empty
face lives in degree -1; its column is the augmentation map.  Over F_2 the
elimination works on word-packed rows; other primes go through dense
elimination in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .ideals import Ideal, _indices_from_mask, _mask_from_indices


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# Every prime above this overflows int64 in the elimination products (p - 1)^2.
MAX_CHARACTERISTIC = 3037000499


def _check_characteristic(p: int) -> None:
    if p > MAX_CHARACTERISTIC:
        raise ValueError(
            f"characteristic {p} is too large: exact ranks over F_p use int64 "
            f"arithmetic, which needs p <= {MAX_CHARACTERISTIC}"
        )


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field F_p, for a prime p <= MAX_CHARACTERISTIC."""

    characteristic: int = 2

    def __post_init__(self) -> None:
        # size first: trial division of a huge number would not finish
        _check_characteristic(self.characteristic)
        if not _is_prime(self.characteristic):
            raise ValueError(f"characteristic must be prime, got {self.characteristic}")


def rank_gf2(packed_rows: Iterable[int]) -> int:
    """Rank over F_2 of rows packed as integers (bit j = column j)."""
    basis: dict[int, int] = {}
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


def rank_mod_p(mat: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p by dense Gaussian elimination."""
    _check_characteristic(p)
    a = np.atleast_2d(np.asarray(mat, dtype=np.int64)) % p
    if a.size == 0:
        return 0
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = int(nz[0]) + rank
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank] = a[rank] * inv % p
        rest = nz[1:] + rank
        if rest.size:
            a[rest] = (a[rest] - np.outer(a[rest, col], a[rank])) % p
        rank += 1
    return rank


def _boundary_rank(lower: list[int], upper: list[int], p: int) -> int:
    """Rank over F_p of the boundary map from faces `upper` to faces `lower`."""
    if not lower or not upper:
        return 0
    index = {m: i for i, m in enumerate(lower)}
    if p == 2:
        packed = []
        for f in upper:
            row = 0
            rem = f
            while rem:
                b = rem & -rem
                row |= 1 << index[f ^ b]
                rem ^= b
            packed.append(row)
        return rank_gf2(packed)
    mat = np.zeros((len(lower), len(upper)), dtype=np.int64)
    for j, f in enumerate(upper):
        rem = f
        t = 0
        while rem:
            b = rem & -rem
            mat[index[f ^ b], j] = 1 if t % 2 == 0 else p - 1
            rem ^= b
            t += 1
    return rank_mod_p(mat, p)


def iter_homology_dims(faces_by_size: list[list[int]], p: int) -> Iterator[int]:
    """Reduced homology dimensions in ascending degree, computed lazily.

    ``faces_by_size[s]`` lists the masks of the s-element faces (so entry 0
    is ``[0]`` for the empty face).  The value for size s is the dim of
    reduced homology in degree s - 1.  Yielding it ranks the boundary out of
    size s + 1 and no higher one, so a consumer that stops early skips every
    higher boundary.
    """
    top = len(faces_by_size) - 1
    below = 0  # rank of the boundary out of size s
    for s in range(top + 1):
        above = _boundary_rank(faces_by_size[s], faces_by_size[s + 1], p) if s < top else 0
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
