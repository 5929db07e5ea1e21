"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately separate from the package internals: its
own membership test, its own rank routine, its own enumeration.  Slow and
simple beats clever; these run only at test scale.
"""

from __future__ import annotations

import itertools

import numpy as np

from sqfdepth.errors import DegenerateSample
from sqfdepth.ideals import Ideal


# The 6-vertex projective plane: the smallest complex with torsion, H_1 = Z/2
RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


def rank_mod_p_oracle(rows: list[list[int]], p: int) -> int:
    """Plain row-reduction rank over F_p, no numpy, no shortcuts."""
    mat = [[x % p for x in row] for row in rows]
    if not mat or not mat[0]:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def minimal_transversals_brute(supports: list[frozenset[int]], n: int) -> set[frozenset[int]]:
    """All inclusion-minimal vertex sets meeting every support, by full enumeration."""
    hitting = []
    universe = list(range(1, n + 1))
    for r in range(n + 1):
        for combo in itertools.combinations(universe, r):
            s = frozenset(combo)
            if all(s & sup for sup in supports):
                hitting.append(s)
    return {s for s in hitting if not any(t < s for t in hitting)}


def maximal_independent_sets_brute(adj: list[int], n: int) -> list[int]:
    """Masks of all maximal independent sets, ascending, by filtering all 2^n subsets.

    ``adj[v]`` is the neighbour mask of vertex v (0-based), as from
    ``Graph.adjacency_masks``.
    """
    out = []
    for s in range(1 << n):
        ok = True
        rem = s
        while rem:
            v = rem & -rem
            if adj[v.bit_length() - 1] & s:
                ok = False
                break
            rem ^= v
        if not ok:
            continue
        rest = ((1 << n) - 1) & ~s
        while rest:
            v = rest & -rest
            if not adj[v.bit_length() - 1] & s:
                ok = False
                break
            rest ^= v
        if ok:
            out.append(s)
    return out


def max_matching_brute(supports: list[frozenset[int]]) -> int:
    """Maximum number of pairwise disjoint supports, by subset enumeration."""
    best = 0
    m = len(supports)
    for picks in range(1 << m):
        chosen = [supports[i] for i in range(m) if picks >> i & 1]
        union = set()
        total = 0
        for s in chosen:
            union |= s
            total += len(s)
        if total == len(union):
            best = max(best, len(chosen))
    return best


def _monomial_in_ideal(support: frozenset[int], gens: list[frozenset[int]]) -> bool:
    return any(g <= support for g in gens)


def koszul_betti_at_sigma(ideal: Ideal, sigma: frozenset[int], p: int) -> dict[int, int]:
    """beta_{i,sigma}(S/I) from the sigma-graded strand of the Koszul complex.

    Level i has one basis element per i-subset T of sigma with the monomial
    on sigma - T outside the ideal; the differential drops one element of T
    with the usual alternating sign.  Returns {i: value} for values > 0.
    """
    gens = [g.support for g in ideal.gens]
    sigma_list = sorted(sigma)
    levels: list[list[tuple[int, ...]]] = []
    for i in range(len(sigma) + 1):
        level = [
            T
            for T in itertools.combinations(sigma_list, i)
            if not _monomial_in_ideal(sigma - set(T), gens)
        ]
        levels.append(level)

    def matrix(i: int) -> list[list[int]]:
        # boundary from level i to level i-1; rows = lower basis
        if i < 1 or i > len(sigma):
            return []
        lower = {T: r for r, T in enumerate(levels[i - 1])}
        rows = [[0] * len(levels[i]) for _ in range(len(levels[i - 1]))]
        for c, T in enumerate(levels[i]):
            for pos, t in enumerate(T):
                target = tuple(x for x in T if x != t)
                r = lower.get(target)
                if r is not None:
                    rows[r][c] = 1 if pos % 2 == 0 else p - 1
        return rows

    out = {}
    for i in range(len(sigma) + 1):
        dim_i = len(levels[i])
        if dim_i == 0:
            continue
        rank_in = rank_mod_p_oracle(matrix(i), p) if i >= 1 else 0
        rank_out = rank_mod_p_oracle(matrix(i + 1), p)
        beta = (dim_i - rank_in) - rank_out
        if beta > 0:
            out[i] = beta
    return out


def koszul_betti_table(ideal: Ideal, p: int) -> dict[tuple[int, int], int]:
    """Full multigraded Betti table {(i, sigma_mask): value} from the Koszul strands."""
    n = ideal.ambient_n
    table: dict[tuple[int, int], int] = {}
    for mask in range(1, 1 << n):
        sigma = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        for i, beta in koszul_betti_at_sigma(ideal, sigma, p).items():
            if i >= 1:
                table[(i, mask)] = beta
    return table


def homology_of_facet_complex(facets: list[tuple[int, ...]], p: int) -> dict[int, int]:
    """Reduced homology dims {degree: dim} of the complex generated by facets.

    Faces are all subsets of the facets; boundary matrices are written out
    directly and ranked with the oracle elimination.
    """
    faces: set[tuple[int, ...]] = {()}
    for facet in facets:
        for r in range(len(facet) + 1):
            faces.update(itertools.combinations(sorted(facet), r))
    return homology_of_faces(faces, p)


def _boundaries(faces: set[tuple[int, ...]]) -> tuple[dict[int, int], dict[int, list[list[int]]]]:
    """The face count of each size, and each integer boundary matrix, from
    the faces of size s (columns) to those of size s - 1 (rows), s >= 1.

    Faces are sorted vertex tuples and must include the empty face ().
    """
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for f in faces:
        by_size.setdefault(len(f), []).append(f)
    for group in by_size.values():
        group.sort()
    matrices = {}
    for s in range(1, max(by_size) + 1):
        lower = {f: r for r, f in enumerate(by_size.get(s - 1, []))}
        upper = by_size.get(s, [])
        rows = [[0] * len(upper) for _ in range(len(lower))]
        for c, f in enumerate(upper):
            for pos in range(len(f)):
                rows[lower[f[:pos] + f[pos + 1 :]]][c] = -1 if pos % 2 else 1
        matrices[s] = rows
    return {s: len(group) for s, group in by_size.items()}, matrices


def homology_of_faces(faces: set[tuple[int, ...]], p: int) -> dict[int, int]:
    """Reduced homology dims {degree: dim} of a complex listed face by face.

    Faces are sorted vertex tuples and must include the empty face ().
    """
    counts, matrices = _boundaries(faces)
    ranks = {s: rank_mod_p_oracle(rows, p) for s, rows in matrices.items()}
    return {
        s - 1: counts.get(s, 0) - ranks.get(s, 0) - ranks.get(s + 1, 0)
        for s in range(max(counts) + 1)
    }


def smith_invariants(rows: list[list[int]]) -> list[int]:
    """The nonzero invariant factors of an integer matrix, from its Smith normal form.

    Plain integer elimination: the entry of least absolute value becomes the
    pivot, and division with remainder clears its row and column; a
    remainder left behind is a smaller pivot for the next round.  Once they
    are clear, a pivot that fails to divide some entry of the rest takes
    that entry's row into its own and goes round again; else it is the
    next invariant factor, and the rest is reduced alone.
    """
    mat = [list(row) for row in rows]
    factors = []
    while True:
        entries = [(abs(x), i, j) for i, row in enumerate(mat) for j, x in enumerate(row) if x]
        if not entries:
            return factors
        _, i, j = min(entries)
        mat[0], mat[i] = mat[i], mat[0]
        for row in mat:
            row[0], row[j] = row[j], row[0]
        pivot = mat[0][0]
        clear = True
        for r in range(1, len(mat)):
            q = mat[r][0] // pivot
            mat[r] = [a - q * b for a, b in zip(mat[r], mat[0])]
            clear &= mat[r][0] == 0
        for c in range(1, len(mat[0])):
            q = mat[0][c] // pivot
            for row in mat:
                row[c] -= q * row[0]
            clear &= mat[0][c] == 0
        if not clear:
            continue
        left = next((r for r in range(1, len(mat)) if any(x % pivot for x in mat[r][1:])), None)
        if left is not None:
            mat[0] = [a + b for a, b in zip(mat[0], mat[left])]
            continue
        factors.append(abs(pivot))
        mat = [row[1:] for row in mat[1:]]


def integral_homology_of_faces(faces: set[tuple[int, ...]]) -> dict[int, tuple[int, list[int]]]:
    """Reduced integral homology {degree: (rank, torsion)} of a complex listed
    face by face, the torsion as its invariant factors above 1.

    H~_{s-1} is the kernel of the boundary out of the faces of size s over
    the image of the one out of size s + 1, so its rank is the face count
    less both ranks, and its torsion is the invariant factors of the second
    that exceed 1.
    """
    counts, matrices = _boundaries(faces)
    invariants = {s: smith_invariants(rows) for s, rows in matrices.items()}
    out = {}
    for s in range(max(counts) + 1):
        below, above = invariants.get(s, []), invariants.get(s + 1, [])
        rank = counts.get(s, 0) - len(below) - len(above)
        out[s - 1] = (rank, [d for d in above if d > 1])
    return out


def antichains(n: int) -> list[list[int]]:
    """Every antichain of nonempty subsets of n vertices, as lists of masks:
    the minimal nonfaces of every simplicial complex on at most n vertices."""
    subsets = range(1, 1 << n)
    out = []

    def extend(start: int, chosen: list[int]) -> None:
        out.append(chosen)
        for s in subsets[start:]:
            if all(s & c not in (s, c) for c in chosen):
                extend(s, chosen + [s])

    extend(0, [])
    return out


def depth_via_links(ideal: Ideal, p: int) -> int:
    """depth(S/I) from Hochster's formula for local cohomology, over links.

    H^i_m(S/I) in multidegree -F is the reduced homology of lk F in degree
    i - |F| - 1, so depth = min over faces F of |F| + 1 + d(F), with d(F)
    the least degree where lk F has nonzero reduced homology (faces whose
    link is acyclic contribute nothing).  No Betti numbers are involved.
    """
    gens = [g.support for g in ideal.gens]
    vertices = range(1, ideal.ambient_n + 1)
    faces = [
        c
        for r in range(ideal.ambient_n + 1)
        for c in itertools.combinations(vertices, r)
        if not _monomial_in_ideal(frozenset(c), gens)
    ]
    face_set = {frozenset(f) for f in faces}
    best = None
    for f in faces:
        fs = frozenset(f)
        link = {g for g in faces if not fs & set(g) and fs | set(g) in face_set}
        nonzero = [d for d, dim in homology_of_faces(link, p).items() if dim]
        if nonzero:
            value = len(f) + 1 + min(nonzero)
            best = value if best is None else min(best, value)
    return best


def random_test_ideal(rng: np.random.Generator, n: int, max_degree: int = 3,
                      max_gens: int = 6) -> Ideal:
    """A seeded nonzero squarefree ideal for property tests."""
    while True:
        count = int(rng.integers(1, max_gens + 1))
        supports = []
        for _ in range(count):
            d = int(rng.integers(1, max_degree + 1))
            d = min(d, n)
            supports.append(sorted(rng.choice(n, size=d, replace=False) + 1))
        ideal = Ideal.from_supports([[int(x) for x in s] for s in supports], n)
        if not ideal.is_zero:
            return ideal


def sampled_ideal_fresh(cfg, index: int) -> tuple[Ideal, int]:
    """The index-th sample of a search config and the attempts it took.

    A new ``Philox(key=(seed << 64) | index)`` generator per index, its own
    pool of supports, and the draw logic of a random scan: per attempt,
    either one coin per support (density) or a count and that many distinct
    supports; after 16 empty attempts, ``DegenerateSample``.
    """
    lo, hi = cfg.gen_degree
    pool = sorted(
        sum(1 << v for v in combo)
        for d in range(lo, hi + 1)
        for combo in itertools.combinations(range(cfg.ambient_n), d)
    )
    rng = np.random.Generator(np.random.Philox(key=(cfg.seed << 64) | index))
    for attempt in range(1, 17):
        if cfg.density is not None:
            chosen = [m for m, c in zip(pool, rng.random(len(pool))) if c < cfg.density]
        else:
            lo, hi = cfg.gen_count
            count = min(int(rng.integers(lo, hi + 1)) if lo < hi else lo, len(pool))
            picks = sorted(rng.choice(len(pool), size=count, replace=False).tolist())
            chosen = [pool[i] for i in picks]
        if chosen:
            return Ideal(cfg.ambient_n, chosen), attempt
    raise DegenerateSample(f"sample {index} stayed zero after 16 attempts")


def transposed_rp2() -> Ideal:
    """The 6-vertex projective plane with the roles of vertices and nonfaces swapped.

    One variable per non-facet triangle, and generator j is the triangles
    that contain vertex j: relabeled, the RP^2 facets that miss j, since
    each non-facet is the complement of a facet.  At the full support
    K_sigma is the projective plane itself, so beta_{4,sigma} over F_2 is
    its torsion.
    """
    missing = sorted(set(itertools.combinations(range(1, 7), 3)) - set(RP2_FACETS))
    supports = [[t + 1 for t, tri in enumerate(missing) if j in tri] for j in range(1, 7)]
    return Ideal.from_supports(supports, len(missing))


def complete_multipartite(parts: list[int]) -> Ideal:
    """Edge ideal of the complete multipartite graph; [1] * n gives K_n."""
    labels = iter(range(1, sum(parts) + 1))
    blocks = [[next(labels) for _ in range(size)] for size in parts]
    edges = [
        [a, b] for x, y in itertools.combinations(blocks, 2) for a in x for b in y
    ]
    return Ideal.from_supports(edges, sum(parts))


def relabel_ideal(ideal: Ideal, perm: dict[int, int]) -> Ideal:
    """Apply a variable permutation (1-based mapping) to an ideal."""
    supports = [[perm[i] for i in g.indices] for g in ideal.gens]
    return Ideal.from_supports(supports, ideal.ambient_n)


def survivors_by_sweep(ideal: Ideal) -> np.ndarray:
    """Nonempty subsets that are unions of the generators they contain, ascending.

    Every one of the 2^n subsets is tested; every other subset induces a
    cone (some vertex lies in no contained generator).
    """
    arr = np.arange(1 << ideal.ambient_n, dtype=np.uint64)
    union = np.zeros_like(arr)
    for g in ideal.masks:
        union[(arr & g) == g] |= np.uint64(g)
    return arr[(union == arr) & (arr != 0)]


def representatives_by_fold(ideal: Ideal, survivors: np.ndarray) -> np.ndarray:
    """Each survivor's representative in its orbit under the twin permutations.

    Within every twin class C, sigma & C becomes the first |sigma & C|
    members of C.
    """
    reps = survivors
    for cls in ideal.twin_classes():
        bits = [1 << (v - 1) for v in cls]
        prefix = np.array([0, *itertools.accumulate(bits)], dtype=np.uint64)
        cmask = np.uint64(sum(bits))
        reps = (reps & ~cmask) | prefix[np.bitwise_count(survivors & cmask)]
    return reps
