"""Acceptance suite: one criterion per test, one printed pass/fail line each.

The pass/fail lines go to the real stdout, so a plain
``pytest tests/test_acceptance.py`` shows them as criteria complete.
Every expected value is exact; no tolerances anywhere.
"""

import itertools
import json
import sys
import time

import numpy as np

from oracles import (
    homology_of_facet_complex,
    koszul_betti_table,
    max_matching_brute,
    random_test_ideal,
)
from sqfdepth import search
from sqfdepth.betti import betti_table, depth, g_profile, proj_dim, regularity
from sqfdepth.cli import main
from sqfdepth.family import build_family
from sqfdepth.graphs import (
    Graph,
    edge_ideal,
    independence_domination,
    minimal_vertex_covers,
    random_tree,
    tree_from_pruefer,
)
from sqfdepth.homology import FieldSpec
from sqfdepth.ideals import Ideal
from sqfdepth.search import SearchConfig, scan

F2 = FieldSpec(2)
F3 = FieldSpec(3)
BOTH = (F2, F3)


def report(num: int, label: str, ok: bool, elapsed: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    # the real stdout, so the line shows even under pytest's capture
    print(f"acceptance {num} ({label}): {status}{timing}", file=sys.__stdout__)


def test_criterion_1_theorem_reproduction(capsys):
    t0 = time.time()
    ok = True
    for p in (2, 3):
        code = main(["verify-family", "--n-min", "6", "--n-max", "12", "--char", str(p)])
        reports = json.loads(capsys.readouterr().out)
        ok &= code == 0 and len(reports) == 7
        for n, rep in zip(range(6, 13), reports):
            ok &= rep["n"] == n and rep["g1"] == 1 and rep["g2"] == n - 6
            ok &= all(c["pass"] for c in rep["checks"])
            ok &= rep["field_chars"] == [p]
    elapsed = time.time() - t0
    ok &= elapsed < 120
    report(1, "verify-family: g(1)=1, g(2)=n-6 for n=6..12, p=2,3", ok, elapsed)
    assert ok


def test_criterion_2_proof_step_values():
    ideal = build_family(6)
    square = ideal.squarefree_power(2)
    ok = True
    for field in BOTH:
        ok &= depth(ideal, field) == 3
        ok &= depth(ideal.add_variable(3), field) == 4
        ok &= depth(ideal.colon_by_variable(3), field) == 3
        ok &= len(square.gens) == 1 and depth(square, field) == 5
    report(2, "n=6 step values 3 / 4 / 3 / principal square of depth 5", ok)
    assert ok


def test_criterion_3_tree_lemma():
    t0 = time.time()
    checked = 0
    ok = True

    def check(tree: Graph) -> bool:
        want = independence_domination(tree)
        ideal = edge_ideal(tree)
        return all(depth(ideal, field) == want for field in BOTH)

    ok &= check(Graph.from_edges(1, []))
    for n in range(2, 7):
        seqs = itertools.product(range(1, n + 1), repeat=n - 2) if n > 2 else [()]
        for seq in seqs:
            ok &= check(tree_from_pruefer(list(seq), n))
            checked += 1
    rng = np.random.default_rng(90125)
    for _ in range(100):
        n = int(rng.integers(7, 10))
        ok &= check(random_tree(n, rng))
        checked += 1
    elapsed = time.time() - t0
    ok &= checked == 1 + 3 + 16 + 125 + 1296 + 100
    ok &= elapsed < 600
    report(3, "engine depth = domination on 1441 small + 100 random trees", ok, elapsed)
    assert ok


def test_criterion_4_koszul_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(41414)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 7))
        ideal = random_test_ideal(rng, n)
        for p in (2, 3):
            engine = {(i, s): v for i, s, v in betti_table(ideal, FieldSpec(p)).entries}
            ok &= engine == koszul_betti_table(ideal, p)
    report(4, "Hochster table = Koszul-strand table on 50 ideals, p=2,3", ok, time.time() - t0)
    assert ok


def test_criterion_5_terai_duality():
    t0 = time.time()
    rng = np.random.default_rng(52525)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 8))
        ideal = random_test_ideal(rng, n)
        dual = ideal.alexander_dual()
        for field in BOTH:
            ok &= proj_dim(ideal, field) == regularity(dual, field) + 1
    report(5, "pd(S/I) = reg(dual) + 1 on 50 ideals, p=2,3", ok, time.time() - t0)
    assert ok


def test_criterion_6_depth_lemma():
    t0 = time.time()
    rng = np.random.default_rng(63636)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        ideal = random_test_ideal(rng, n)
        for field in BOTH:
            base = depth(ideal, field)
            for j in range(1, n + 1):
                if any(g.mask == 1 << (j - 1) for g in ideal.gens):
                    continue  # colon would be the unit ideal
                colon = ideal.colon_by_variable(j)
                total = ideal.add_variable(j)
                if base < min(depth(colon, field), depth(total, field)):
                    violations += 1
    ok = violations == 0
    report(6, "depth lemma on 100 ideals, all variables, p=2,3", ok, time.time() - t0)
    assert ok


RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


def test_criterion_7_field_sensitivity(tmp_path, capsys):
    missing = sorted(set(itertools.combinations(range(1, 7), 3)) - set(RP2_FACETS))
    ideal = Ideal.from_supports(missing, 6)
    ok = depth(ideal, F2) == 2 and depth(ideal, F3) == 3
    # independent route: boundary-matrix homology of the 10-triangle complex
    dims2 = homology_of_facet_complex(RP2_FACETS, 2)
    dims3 = homology_of_facet_complex(RP2_FACETS, 3)
    ok &= dims2[1] == 1 and dims2[2] == 1 and dims3[1] == 0 and dims3[2] == 0
    path = tmp_path / "rp2.ideal"
    path.write_text(ideal.to_text())
    code = main(["depth", str(path), "--both-primes"])
    payload = json.loads(capsys.readouterr().out)
    ok &= code == 0 and payload["field_sensitive"] is True and payload["depth"] == 2
    report(7, "projective plane: depth 2 at p=2, 3 at p=3, flagged sensitive", ok)
    assert ok


def test_criterion_8_combinatorial_cross_checks():
    t0 = time.time()
    ok = True
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for picks in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if picks >> i & 1]
            graph = Graph.from_edges(n, edges)
            ideal = edge_ideal(graph)
            if ideal.is_zero:
                ok &= set(minimal_vertex_covers(graph)) == {frozenset()}
                continue
            ok &= set(minimal_vertex_covers(graph)) == set(ideal.minimal_primes())
    rng = np.random.default_rng(87878)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        ideal = random_test_ideal(rng, n)
        nu = ideal.nu()
        ok &= nu == max_matching_brute([g.support for g in ideal.gens])
        d1 = ideal.min_gen_degree()
        prev_d = d1
        for k in range(2, nu + 1):
            d_k = ideal.squarefree_power(k).min_gen_degree()
            ok &= d_k >= prev_d + d1
            prev_d = d_k
    report(8, "covers = primes on all graphs <= 6 vertices; nu and d_k laws", ok, time.time() - t0)
    assert ok


def test_criterion_9_search_determinism_and_soundness(monkeypatch):
    t0 = time.time()
    cfg = SearchConfig(
        ambient_n=8,
        seed=20240601,
        sample_count=10_000,
        gen_degree=3,
        gen_count=5,
        primes=(2,),
        inject=(build_family(8),),
    )
    memoised = scan(cfg)
    # memos that never remember make every profile and depth a from-scratch computation
    monkeypatch.setattr(search, "_remember", lambda memo, key, compute: compute())
    scratch = scan(cfg)
    memoised_bytes = json.dumps([f.to_json_dict() for f in memoised.findings])
    scratch_bytes = json.dumps([f.to_json_dict() for f in scratch.findings])
    ok = memoised_bytes == scratch_bytes and memoised.summary == scratch.summary
    # every persisted finding re-verifies from its serialized form
    for finding in memoised.findings:
        payload = json.loads(json.dumps(finding.to_json_dict()))
        revived = Ideal.from_supports(payload["ideal"]["gens"], payload["ideal"]["n"])
        profile = g_profile(revived, FieldSpec(payload["field_char"]))
        ok &= profile.violations() == payload["violations"]
    injected = [f for f in memoised.findings if f.index < 0]
    ok &= len(injected) == 1
    gaps = injected[0].profile.g_values
    ok &= injected[0].violations == (1,) and gaps[1] - gaps[0] == 1
    report(9, "10k-sample scan: memoised and from-scratch identical, findings sound", ok,
           time.time() - t0)
    assert ok
