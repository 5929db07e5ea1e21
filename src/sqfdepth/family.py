"""The counterexample family with increasing normalized depth function.

For n >= 6 the ideal has n-1 cubic generators: x1*x3*x_{i+4} for
1 <= i <= n-4, together with x1*x4*x5, x2*x3*x4 and x2*x3*x6.  Its
normalized depth function satisfies g(1) = 1 and g(2) = n - 6, so the gap
g(2) - g(1) = n - 7 grows without bound.  ``verify_theorem`` recomputes
the whole argument step by step and reports each check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .betti import depth, g_profile
from .errors import InvalidFamilyParameter, SqfdepthError
from .graphs import Graph, edge_ideal, is_tree, tree_depth_via_lemma
from .homology import FieldSpec
from .ideals import Ideal


def build_family(n: int) -> Ideal:
    """The n-variable member of the family; n - 1 cubic generators."""
    if n < 6:
        raise InvalidFamilyParameter(f"family requires n >= 6, got {n}")
    gens = [[1, 3, i + 4] for i in range(1, n - 3)]
    gens += [[1, 4, 5], [2, 3, 4], [2, 3, 6]]
    ideal = Ideal.from_supports(gens, n)
    if len(ideal.masks) != n - 1:
        raise SqfdepthError(f"family member n={n} has {len(ideal.masks)} generators, not {n - 1}")
    return ideal


def colon_tree(n: int) -> Graph:
    """The tree with (I : x3) as its edge ideal, vertex 3 left isolated."""
    if n < 6:
        raise InvalidFamilyParameter(f"family requires n >= 6, got {n}")
    edges = [(2, 4), (2, 6)] + [(1, i + 4) for i in range(1, n - 3)]
    return Graph.from_edges(n, edges)


def _compact_colon_tree(n: int) -> Graph:
    """Same tree relabeled onto 1..n-1 (vertex 3 removed, order preserved)."""
    relabel = {v: v if v < 3 else v - 1 for v in range(1, n + 1) if v != 3}
    edges = [(relabel[a], relabel[b]) for a, b in colon_tree(n).edges]
    return Graph.from_edges(n - 1, edges)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class FamilyReport:
    """Verification record for one family member over the given primes."""

    n: int
    g1: int | None
    g2: int | None
    nu: int
    checks: tuple[CheckResult, ...]
    field_chars: tuple[int, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "g1": self.g1,
            "g2": self.g2,
            "nu": self.nu,
            "checks": [
                {"name": c.name, "pass": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "field_chars": list(self.field_chars),
        }


def verify_theorem(n: int, field: FieldSpec = FieldSpec(2)) -> FamilyReport:
    """Recompute g(1), g(2) and every step of the argument for one n."""
    if n < 6:
        raise InvalidFamilyParameter(f"family requires n >= 6, got {n}")
    ideal = build_family(n)
    profile = g_profile(ideal, field)
    depth_i = profile.rows[0].depth
    g1 = profile.rows[0].g
    g2 = profile.rows[1].g if len(profile.rows) > 1 else None
    checks = []

    big_prime = frozenset(range(4, n + 1))
    prime_found = big_prime in ideal.minimal_primes()
    checks.append(
        CheckResult(
            "step-1",
            prime_found and depth_i <= 3,
            f"(x4..x{n}) minimal prime: {prime_found}; depth(S/I)={depth_i} <= 3",
        )
    )

    sum_ideal = ideal.add_variable(3)
    expected_sum = Ideal.from_supports([[3], [1, 4, 5]], n)
    depth_sum = depth(sum_ideal, field)
    checks.append(
        CheckResult(
            "step-3",
            sum_ideal == expected_sum and depth_sum == n - 2,
            f"(I,x3)=(x3, x1*x4*x5): {sum_ideal == expected_sum}; "
            f"depth={depth_sum}, expected {n - 2}",
        )
    )

    colon_ideal = ideal.colon_by_variable(3)
    tree_full = colon_tree(n)
    tree_match = colon_ideal == edge_ideal(tree_full)
    depth_colon = depth(colon_ideal, field)
    compact = _compact_colon_tree(n)
    lemma_ok = is_tree(compact) and tree_depth_via_lemma(compact, free_vars=1) == 3
    checks.append(
        CheckResult(
            "step-4",
            tree_match and depth_colon == 3 and lemma_ok,
            f"(I:x3) is the tree's edge ideal: {tree_match}; depth={depth_colon}, "
            f"expected 3; tree formula agrees: {lemma_ok}",
        )
    )

    lemma_bound = min(depth_colon, depth_sum)
    checks.append(
        CheckResult(
            "step-2",
            depth_i >= lemma_bound,
            f"depth(S/I)={depth_i} >= min(depth colon, depth sum)={lemma_bound}",
        )
    )

    square = ideal.squarefree_power(2)
    gen_match = square.masks == ((1 << 6) - 1,)  # x1*x2*x3*x4*x5*x6
    depth_square = profile.rows[1].depth if len(profile.rows) > 1 else None
    checks.append(
        CheckResult(
            "part-ii",
            gen_match and depth_square == n - 1,
            f"I^[2] principal on x1..x6: {gen_match}; depth={depth_square}, "
            f"expected {n - 1}",
        )
    )

    checks.append(CheckResult("nu", profile.nu == 2, f"nu={profile.nu}, expected 2"))
    checks.append(
        CheckResult(
            "g-values",
            g1 == 1 and g2 == n - 6,
            f"g(1)={g1}, expected 1; g(2)={g2}, expected {n - 6}",
        )
    )

    return FamilyReport(
        n, g1, g2, profile.nu, tuple(checks), (field.characteristic,)
    )
