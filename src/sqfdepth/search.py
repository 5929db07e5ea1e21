"""Seeded search for ideals whose normalized depth function increases.

Samples are a pure function of (seed, index) through a counter-based
Philox stream, so scans are reproducible for any worker count and any
chunking.  Findings (profiles with some g(k+1) > g(k)) can be appended to
a line-delimited JSON log with an fsync per record, and are deduplicated
up to relabeling of the variables when the ambient is small enough.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .betti import GProfile, g_profile
from .errors import DegenerateSample, SpaceTooLarge
from .homology import FieldSpec
from .ideals import Ideal, Monomial, _minimal_masks

MAX_SEARCH_AMBIENT = 14
DEDUP_AMBIENT_LIMIT = 8
_SAMPLE_RETRIES = 16


def _normalize_range(value, name: str, lo_ok: int, hi_ok: int) -> tuple[int, int]:
    if isinstance(value, int):
        value = (value, value)
    lo, hi = value
    if not lo_ok <= lo <= hi <= hi_ok:
        raise ValueError(f"{name} range {value} outside {lo_ok}..{hi_ok}")
    return lo, hi


@dataclass(frozen=True)
class SearchConfig:
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
        if not 1 <= self.ambient_n <= MAX_SEARCH_AMBIENT:
            raise ValueError(f"search ambient_n must be 1..{MAX_SEARCH_AMBIENT}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")
        if self.sample_count < 0:
            raise ValueError("sample_count must be nonnegative")
        _normalize_range(self.gen_degree, "gen_degree", 1, self.ambient_n)
        if self.gen_count is not None:
            _normalize_range(self.gen_count, "gen_count", 1, 1 << 20)
        if self.density is not None and not 0.0 <= self.density <= 1.0:
            raise ValueError("density must be in [0, 1]")
        if not self.primes:
            raise ValueError("primes must be a nonempty tuple of primes")
        for p in self.primes:
            FieldSpec(p)  # rejects non-primes and primes too large for exact ranks
        if not self.exhaustive and self.density is None and self.gen_count is None:
            raise ValueError("need density or gen_count for random sampling")
        for ideal in self.inject:
            if ideal.ambient_n != self.ambient_n:
                raise ValueError("injected ideal ambient differs from config ambient")


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
    if cfg.edge_ideals_only:
        lo, hi = 2, 2
    else:
        lo, hi = _normalize_range(cfg.gen_degree, "gen_degree", 1, cfg.ambient_n)
    return _supports(cfg.ambient_n, lo, hi)


def random_ideal(cfg: SearchConfig, index: int) -> Ideal:
    """The index-th sampled ideal: deterministic in (cfg.seed, index)."""
    rng = np.random.Generator(np.random.Philox(key=(cfg.seed << 64) | index))
    pool = candidate_pool(cfg)
    for _ in range(_SAMPLE_RETRIES):
        if cfg.density is not None:
            coins = rng.random(len(pool))
            chosen = [m for m, c in zip(pool, coins) if c < cfg.density]
        else:
            lo, hi = _normalize_range(cfg.gen_count, "gen_count", 1, 1 << 20)
            count = int(rng.integers(lo, hi + 1)) if lo < hi else lo
            count = min(count, len(pool))
            picks = sorted(rng.choice(len(pool), size=count, replace=False).tolist())
            chosen = [pool[i] for i in picks]
        if chosen:
            gens = tuple(Monomial(m, cfg.ambient_n) for m in _minimal_masks(chosen))
            return Ideal(cfg.ambient_n, gens)
    raise DegenerateSample(
        f"sample {index} stayed zero after {_SAMPLE_RETRIES} attempts"
    )


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


def _perm_tables(n: int) -> np.ndarray:
    """Row r = image of every n-bit mask under the r-th permutation of bits."""
    perms = list(itertools.permutations(range(n)))
    bits = (np.arange(1 << n, dtype=np.uint32)[:, None] >> np.arange(n)) & 1
    table = np.empty((len(perms), 1 << n), dtype=np.uint16)
    for r, perm in enumerate(perms):
        table[r] = bits @ (np.uint32(1) << np.array(perm, dtype=np.uint32))
    return table


_PERM_TABLE_CACHE: dict[int, np.ndarray] = {}


def canonical_relabeling_key(ideal: Ideal) -> tuple[int, ...]:
    """Lexicographically least generator-mask tuple over all variable relabelings."""
    n = ideal.ambient_n
    if n > DEDUP_AMBIENT_LIMIT:
        raise ValueError(f"relabeling canonicalization capped at n={DEDUP_AMBIENT_LIMIT}")
    table = _PERM_TABLE_CACHE.get(n)
    if table is None:
        table = _perm_tables(n)
        _PERM_TABLE_CACHE[n] = table
    masks = np.array(ideal.gen_masks(), dtype=np.uint16)
    remapped = table[:, masks]
    remapped.sort(axis=1)
    order = np.lexsort(remapped.T[::-1])
    return tuple(int(x) for x in remapped[order[0]])


def _evaluate(
    cfg: SearchConfig, prime: int, index: int, ideal: Ideal
) -> tuple[int, int | None, Finding | None]:
    """(nu, max g-gap or None, Finding or None) for one ideal at one prime."""
    profile = g_profile(ideal, FieldSpec(prime))
    g = profile.g_values
    gap = max((g[k] - g[k - 1] for k in range(1, len(g))), default=None)
    violations = tuple(profile.violations())
    finding = None
    if violations:
        finding = Finding(ideal, profile, violations, prime, cfg.seed, index)
    return profile.nu, gap, finding


def _index_stream(cfg: SearchConfig) -> list[int]:
    if not cfg.exhaustive:
        return list(range(cfg.sample_count))
    pool = candidate_pool(cfg)
    space = 1 << len(pool)
    if space > cfg.exhaustive_cap:
        raise SpaceTooLarge(
            f"exhaustive space 2^{len(pool)} exceeds cap {cfg.exhaustive_cap}"
        )
    return list(range(1, space))


def _ideal_for_index(cfg: SearchConfig, pool: tuple[int, ...], index: int) -> Ideal:
    if not cfg.exhaustive:
        return random_ideal(cfg, index)
    chosen = [pool[i] for i in range(len(pool)) if index >> i & 1]
    gens = tuple(Monomial(m, cfg.ambient_n) for m in _minimal_masks(chosen))
    return Ideal(cfg.ambient_n, gens)


@dataclass
class ScanResult:
    findings: list[Finding]
    summary: dict


def scan(cfg: SearchConfig, workers: int = 1, log_path: str | None = None) -> ScanResult:
    """Evaluate the configured stream; collect, deduplicate and log findings.

    Injected ideals are evaluated first, at indices -1, -2, ...; the random
    (or exhaustive) stream follows in index order.  Each block's new findings
    are appended to the log as soon as the block's results arrive, still in
    index order, so a scan that dies keeps what it had found.  Output is
    identical for any ``workers``.
    """
    indices = _index_stream(cfg)
    pool = candidate_pool(cfg)

    def run_block(args: tuple[int, list[int]]) -> list[tuple[int, int | None, Finding | None]]:
        prime, block = args
        return [_evaluate(cfg, prime, i, _ideal_for_index(cfg, pool, i)) for i in block]

    by_nu: dict[int, int] = {}
    max_gap: int | None = None
    evaluated = 0
    findings_total = 0
    findings: list[Finding] = []
    seen_keys: set = set()
    dedup = cfg.ambient_n <= DEDUP_AMBIENT_LIMIT

    def absorb(results, log) -> None:
        """Count one block's results and log its new findings as they arrive."""
        nonlocal max_gap, evaluated, findings_total
        for nu, gap, finding in results:
            evaluated += 1
            by_nu[nu] = by_nu.get(nu, 0) + 1
            if gap is not None and (max_gap is None or gap > max_gap):
                max_gap = gap
            if finding is None:
                continue
            findings_total += 1
            if dedup:
                key = (finding.field_char, canonical_relabeling_key(finding.ideal))
                if key in seen_keys:
                    continue
                seen_keys.add(key)
            findings.append(finding)
            if log is not None:
                log.write(json.dumps(finding.to_json_dict()) + "\n")
                log.flush()
                os.fsync(log.fileno())

    log = open(log_path, "a", encoding="utf-8") if log_path else None
    try:
        for prime in cfg.primes:
            injected = [
                _evaluate(cfg, prime, -(j + 1), ideal)
                for j, ideal in enumerate(cfg.inject)
            ]
            absorb(injected, log)
            chunk = max(16, len(indices) // (max(workers, 1) * 8))
            blocks = [
                (prime, indices[i : i + chunk]) for i in range(0, len(indices), chunk)
            ]
            if workers > 1:
                with ThreadPoolExecutor(max_workers=workers) as tp:
                    for results in tp.map(run_block, blocks):
                        absorb(results, log)
            else:
                for block in blocks:
                    absorb(run_block(block), log)
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
        "dedup_by_relabeling": dedup,
        "by_nu": {str(k): by_nu[k] for k in sorted(by_nu)},
        "max_gap": max_gap,
    }
    return ScanResult(findings, summary)
