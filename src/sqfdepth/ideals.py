"""Squarefree monomial ideals as antichains of variable-support bitmasks.

A squarefree monomial is identified with its support set of variables,
stored as an integer bitmask (variable ``i`` is bit ``i-1``).  An ideal is
the ascending antichain of its minimal generators' masks, which its
constructor makes from any generator masks, so that equal ideals compare
equal and serialize identically.  Everything here is immutable.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    AmbientMismatch,
    InvalidExponent,
    InvalidGenerator,
    ParseError,
    ZeroIdeal,
)

MAX_AMBIENT = 63  # supports fit a single machine word


def _integer(value, what: str, error: type[ValueError] = ValueError) -> int:
    """``value`` as a plain int; ``error`` naming ``what`` unless it is an integer."""
    try:
        return int(operator.index(value))
    except TypeError:
        raise error(f"{what} {value!r} is not an integer") from None


def _mask_from_indices(indices: Iterable[int], ambient_n: int) -> int:
    mask = 0
    for raw in indices:
        i = _integer(raw, "variable index", InvalidGenerator)
        if not 1 <= i <= ambient_n:
            raise InvalidGenerator(f"variable index {i} out of range 1..{ambient_n}")
        mask |= 1 << (i - 1)
    return mask


def _indices_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _check_ambient(ambient_n: int) -> int:
    """``ambient_n`` as a plain int, refused unless it is an integer in 1..MAX_AMBIENT."""
    n = _integer(ambient_n, "ambient_n", InvalidGenerator)
    if not 1 <= n <= MAX_AMBIENT:
        raise InvalidGenerator(f"ambient_n must be in 1..{MAX_AMBIENT}, got {n}")
    return n


def _records(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line that is neither blank nor a # comment."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _parse_listing(text: str, key: str, item: str) -> tuple[int, list[tuple[int, str, list[int]]]]:
    """The ideal and graph text formats: a `<key>=<count>` header, count in
    1..MAX_AMBIENT, then lines of integers (``item`` names one in messages).
    Returns the count and (line number, line, integers) for each later line."""
    records = _records(text)
    lineno, line = next(records, (None, None))
    if line is None:
        raise ParseError(f"missing '{key}=<count>' header")
    m = re.fullmatch(rf"{key}\s*=\s*(\d+)", line)
    if not m:
        raise ParseError(f"line {lineno}: expected '{key}=<count>' header, got {line!r}")
    count = int(m.group(1))
    if not 1 <= count <= MAX_AMBIENT:
        raise ParseError(f"line {lineno}: {key} must be in 1..{MAX_AMBIENT}, got {line!r}")
    rows = []
    for lineno, line in records:
        try:
            rows.append((lineno, line, [int(t) for t in line.split()]))
        except ValueError:
            raise ParseError(f"line {lineno}: bad {item} in {line!r}") from None
    return count, rows


@dataclass(frozen=True, order=True)
class Monomial:
    """A squarefree monomial: a support bitmask in a ring with ambient_n variables.

    ``ambient_n`` must be an integer in 1..MAX_AMBIENT and ``mask`` an
    integer in 0..2^ambient_n - 1 (0 is the monomial 1); anything else
    raises ``InvalidGenerator``.
    """

    mask: int
    ambient_n: int

    def __post_init__(self) -> None:
        n = _check_ambient(self.ambient_n)
        mask = _integer(self.mask, "monomial mask", InvalidGenerator)
        if mask < 0 or mask >> n:
            raise InvalidGenerator(f"monomial mask {mask} is not a support in 1..{n}")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "ambient_n", n)

    @classmethod
    def from_support(cls, indices: Iterable[int], ambient_n: int) -> "Monomial":
        n = _check_ambient(ambient_n)
        return cls(_mask_from_indices(indices, n), n)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(_indices_from_mask(self.mask))

    @property
    def indices(self) -> tuple[int, ...]:
        return _indices_from_mask(self.mask)

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    def divides(self, other: "Monomial") -> bool:
        if self.ambient_n != other.ambient_n:
            raise AmbientMismatch(
                f"ambient mismatch: {self.ambient_n} vs {other.ambient_n}"
            )
        return self.mask & other.mask == self.mask

    def __str__(self) -> str:
        if not self.mask:
            return "1"
        return "*".join(f"x{i}" for i in self.indices)


def _minimal_masks(masks: Iterable[int]) -> list[int]:
    """Divisibility-minimal elements of a set of support masks, sorted ascending."""
    # only a mask of lower degree can divide another, so test against those alone
    by_degree: dict[int, list[int]] = {}
    for m in set(masks):
        by_degree.setdefault(m.bit_count(), []).append(m)
    if len(by_degree) == 1:  # distinct masks of one degree never divide each other
        (same,) = by_degree.values()
        same.sort()
        return same
    kept: list[int] = []
    for d in sorted(by_degree):
        kept += [m for m in by_degree[d] if not any(k & m == k for k in kept)]
    kept.sort()
    return kept


def _minimal_transversals(masks: Sequence[int], n: int) -> list[int]:
    """The minimal transversals of an antichain of nonzero masks, ascending;
    [0] when there are no masks.  The search is described under
    :meth:`Ideal.minimal_primes`."""
    # by variable index: the variables sharing a generator with it, the other
    # ends of its quadratic generators, and its larger links (generator minus it)
    near = [0] * (n + 1)
    pair = [0] * (n + 1)
    links: dict[int, list[int]] = {}
    for g in masks:
        rest = g
        while rest:
            bit = rest & -rest
            rest ^= bit
            u = bit.bit_length()
            link = g ^ bit
            near[u] |= link
            if link & (link - 1):
                links.setdefault(u, []).append(link)
            else:
                pair[u] |= link
    out: list[int] = []
    count = len(masks)

    def extend(cover: int, excluded: int, i: int) -> None:
        while i < count and masks[i] & cover:
            i += 1
        if i == count:
            out.append(cover)
            return
        choices = masks[i] & ~excluded
        tried = 0
        while choices:
            v = choices & -choices
            choices ^= v
            grown = cover | v
            # only a cover variable sharing a generator with v can lose one
            rest = cover & near[v.bit_length()]
            while rest:
                bit = rest & -rest
                rest ^= bit
                u = bit.bit_length()
                if not pair[u] & ~grown and (
                    u not in links or all(link & grown for link in links[u])
                ):
                    break
            else:
                extend(grown, excluded | tried, i + 1)
            tried |= v

    extend(0, 0, 0)
    out.sort()
    return out


@dataclass(frozen=True)
class Ideal:
    """A squarefree monomial ideal in canonical form.

    ``Ideal(ambient_n, masks)`` is the ideal generated by the monomials
    with the given nonzero support masks.  The constructor keeps their
    divisibility-minimal elements, sorted ascending, as the field
    ``masks``; the empty tuple is the zero ideal.  ``gens`` shows the same
    generators as :class:`Monomial` objects.
    """

    ambient_n: int
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ambient_n", _check_ambient(self.ambient_n))
        try:
            raws = iter(self.masks)
        except TypeError:
            raise InvalidGenerator(
                f"generator masks {self.masks!r} are not a collection of integers"
            ) from None
        masks = []
        for raw in raws:
            m = raw if type(raw) is int else _integer(raw, "generator mask", InvalidGenerator)
            if m <= 0 or m >> self.ambient_n:  # mask 0 would make the unit ideal
                raise InvalidGenerator(
                    f"generator mask {m} is not a nonempty support in 1..{self.ambient_n}"
                )
            masks.append(m)
        object.__setattr__(self, "masks", tuple(_minimal_masks(masks)))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_supports(cls, supports: Iterable[Iterable[int]], ambient_n: int) -> "Ideal":
        _check_ambient(ambient_n)
        return cls(ambient_n, [_mask_from_indices(sup, ambient_n) for sup in supports])

    @classmethod
    def zero(cls, ambient_n: int) -> "Ideal":
        return cls(ambient_n, ())

    # -- basic queries -----------------------------------------------------

    @property
    def gens(self) -> tuple[Monomial, ...]:
        return tuple(Monomial(m, self.ambient_n) for m in self.masks)

    @property
    def is_zero(self) -> bool:
        return not self.masks

    def contains(self, m: Monomial) -> bool:
        """Membership of a squarefree monomial: some generator divides it."""
        if m.ambient_n != self.ambient_n:
            raise AmbientMismatch(
                f"ambient mismatch: {self.ambient_n} vs {m.ambient_n}"
            )
        return any(g & m.mask == g for g in self.masks)

    def twin_classes(self) -> list[tuple[int, ...]]:
        """Classes of twin variables with at least two members, each ascending.

        Variables are twins when exchanging them maps the generators onto
        themselves.  That is an equivalence relation, and every permutation
        inside a class is an automorphism of the ideal.  Twins occur in
        equally many generators, so a variable is tested only against the
        first member of each class of its degree.  The swap of a and b fixes
        the ideal when each generator with a but not b, moved to b, is a
        generator: with equal degrees that injection is onto.
        """
        masks = self.masks
        mask_set = set(masks)
        # per degree: (members, bit of the first member, its generators)
        by_degree: dict[int, list[tuple[list[int], int, list[int]]]] = {}
        for v in range(1, self.ambient_n + 1):
            bit = 1 << (v - 1)
            incident = [m for m in masks if m & bit]
            classes = by_degree.setdefault(len(incident), [])
            for members, first, first_incident in classes:
                both = first | bit
                if all(m & both == both or m ^ both in mask_set for m in first_incident):
                    members.append(v)
                    break
            else:
                classes.append(([v], bit, incident))
        return sorted(
            tuple(members)
            for classes in by_degree.values()
            for members, _, _ in classes
            if len(members) > 1
        )

    def is_independent(self, variables: Iterable[int]) -> bool:
        """Whether no generator contains two of the variables."""
        mask = _mask_from_indices(variables, self.ambient_n)
        return all((g & mask).bit_count() <= 1 for g in self.masks)

    def min_gen_degree(self) -> int:
        """Minimum degree of a monomial in the ideal (= of a minimal generator)."""
        if not self.masks:
            raise ZeroIdeal("min_gen_degree undefined for the zero ideal")
        return min(m.bit_count() for m in self.masks)

    # -- ideal arithmetic ----------------------------------------------------

    def squarefree_power(self, k: int) -> "Ideal":
        """The ideal generated by the squarefree monomials in the k-th power.

        Generated by products of k distinct generators with pairwise
        disjoint supports; every squarefree monomial of the ordinary power
        is divisible by such a product.
        """
        if k < 1:
            raise InvalidExponent(f"exponent must be >= 1, got {k}")
        if k == 1 or not self.masks:
            return self
        masks = self.masks
        products: set[int] = set()

        def extend(start: int, union: int, count: int) -> None:
            if count == k:
                products.add(union)
                return
            # upper range keeps enough generators to reach k factors
            for j in range(start, len(masks) - (k - count) + 1):
                if not masks[j] & union:
                    extend(j + 1, union | masks[j], count + 1)

        extend(0, 0, 0)
        return Ideal(self.ambient_n, products)

    def nu(self) -> int:
        """Largest k with a nonzero k-th squarefree power.

        Equals the maximum number of pairwise support-disjoint generators,
        computed by memoized set packing over the remaining-variable mask.
        """
        if not self.masks:
            raise ZeroIdeal("nu undefined for the zero ideal")
        by_low: dict[int, list[int]] = {}
        for m in self.masks:
            by_low.setdefault(m & -m, []).append(m)
        cache: dict[int, int] = {}

        def best(universe: int) -> int:
            if universe == 0:
                return 0
            got = cache.get(universe)
            if got is not None:
                return got
            low = universe & -universe
            result = best(universe ^ low)
            for g in by_low.get(low, ()):
                if g & universe == g:
                    result = max(result, 1 + best(universe & ~g))
            cache[universe] = result
            return result

        full = (1 << self.ambient_n) - 1
        return best(full)

    def colon_by_variable(self, j: int) -> "Ideal":
        """The colon ideal (I : x_j)."""
        if not 1 <= j <= self.ambient_n:
            raise InvalidGenerator(f"variable index {j} out of range 1..{self.ambient_n}")
        bit = 1 << (j - 1)
        if bit in self.masks:
            raise InvalidGenerator(
                f"(I : x{j}) is the unit ideal, which is not representable"
            )
        return Ideal(self.ambient_n, [m & ~bit for m in self.masks])

    def add_variable(self, j: int) -> "Ideal":
        """The sum ideal (I, x_j)."""
        if not 1 <= j <= self.ambient_n:
            raise InvalidGenerator(f"variable index {j} out of range 1..{self.ambient_n}")
        return Ideal(self.ambient_n, self.masks + (1 << (j - 1),))

    # -- primes and duality ---------------------------------------------------

    def minimal_primes(self) -> list[frozenset[int]]:
        """All minimal monomial primes, as the variable sets generating them.

        These are the inclusion-minimal transversals of the generator
        supports, by ascending mask; for an edge ideal, the minimal vertex
        covers.  The search branches on the variables of the first generator
        the partial cover misses.  A variable enters only if every variable
        already in the cover keeps a *private* generator, one that meets the
        cover in that variable alone; the missed generator is private to the
        one entering.  A transversal is minimal exactly when each of its
        variables has a private generator, and a variable that loses its last
        one never regains it as the cover grows, so every leaf is a minimal
        prime and no minimal prime is cut off.  Branch j excludes the
        variables tried before it, so the branches are disjoint and each
        prime is found once.
        """
        return [frozenset(_indices_from_mask(m)) for m in self.minimal_prime_masks()]

    def minimal_prime_masks(self) -> list[int]:
        """The minimal primes as variable masks, ascending."""
        if not self.masks:
            raise ZeroIdeal("minimal_primes undefined for the zero ideal")
        return _minimal_transversals(self.masks, self.ambient_n)

    def krull_dim(self) -> int:
        """Dimension of the quotient ring: ambient_n minus minimum cover size."""
        # the zero ideal has the one cover 0, so dimension ambient_n
        covers = _minimal_transversals(self.masks, self.ambient_n)
        return self.ambient_n - min(c.bit_count() for c in covers)

    def alexander_dual(self) -> "Ideal":
        """The ideal generated by the products over the minimal primes."""
        if not self.masks:
            raise ZeroIdeal("alexander_dual undefined for the zero ideal")
        return Ideal(self.ambient_n, self.minimal_prime_masks())

    # -- text format -----------------------------------------------------------

    def to_text(self) -> str:
        """Serialize to the ideal text format (canonical, round-trip stable)."""
        lines = [f"n={self.ambient_n}"]
        lines.extend(" ".join(map(str, _indices_from_mask(m))) for m in self.masks)
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "Ideal":
        """Parse the ideal text format: `n=<count>` header, one generator per line."""
        ambient_n, rows = _parse_listing(text, "n", "variable index")
        for lineno, line, indices in rows:
            if len(set(indices)) < len(indices):
                raise ParseError(f"line {lineno}: repeated variable index in {line!r}")
        try:
            return cls.from_supports([indices for _, _, indices in rows], ambient_n)
        except InvalidGenerator as exc:
            raise ParseError(str(exc)) from None

    def to_json_dict(self) -> dict:
        return {"n": self.ambient_n, "gens": [list(_indices_from_mask(m)) for m in self.masks]}

    def __str__(self) -> str:
        if not self.masks:
            return "(0)"
        return "(" + ", ".join(map(str, self.gens)) + ")"


def blow_up(ideal: Ideal, v: int, copies: int) -> Ideal:
    """The ideal with x_v replaced by x_v and ``copies - 1`` new variables, each
    in every generator that held x_v, appended after the ambient's variables."""
    n = ideal.ambient_n
    if not 1 <= v <= n:
        raise InvalidGenerator(f"variable index {v} out of range 1..{n}")
    if copies < 1:
        raise InvalidExponent(f"copies must be >= 1, got {copies}")
    bit = 1 << (v - 1)
    clones = [bit, *(1 << u for u in range(n, n + copies - 1))]
    masks = []
    for g in ideal.masks:
        masks.extend([g ^ bit | c for c in clones] if g & bit else [g])
    return Ideal(n + copies - 1, masks)


def minimize_generators(
    raw: Sequence[Monomial] | Sequence[Iterable[int]], ambient_n: int
) -> Ideal:
    """Canonical ideal from arbitrary generators: minimize to an antichain."""
    supports: list[Iterable[int]] = []
    for item in raw:
        if isinstance(item, Monomial):
            if item.ambient_n != ambient_n:
                raise AmbientMismatch("generator ambient differs from requested ambient")
            supports.append(item.indices)
        else:
            supports.append(item)
    return Ideal.from_supports(supports, ambient_n)
