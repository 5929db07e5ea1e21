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


def homology_of_faces(faces: set[tuple[int, ...]], p: int) -> dict[int, int]:
    """Reduced homology dims {degree: dim} of a complex listed face by face.

    Faces are sorted vertex tuples and must include the empty face ().
    """
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for f in faces:
        by_size.setdefault(len(f), []).append(f)
    for group in by_size.values():
        group.sort()
    top = max(by_size)
    ranks = {}
    for s in range(1, top + 1):
        lower = {f: r for r, f in enumerate(by_size.get(s - 1, []))}
        upper = by_size.get(s, [])
        rows = [[0] * len(upper) for _ in range(len(lower))]
        for c, f in enumerate(upper):
            for pos in range(len(f)):
                sub = f[:pos] + f[pos + 1 :]
                rows[lower[sub]][c] = 1 if pos % 2 == 0 else p - 1
        ranks[s] = rank_mod_p_oracle(rows, p)
    ranks[top + 1] = 0
    dims = {}
    for s in range(top + 1):
        d = len(by_size.get(s, [])) - ranks.get(s, 0) - ranks.get(s + 1, 0)
        dims[s - 1] = d
    return dims


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
