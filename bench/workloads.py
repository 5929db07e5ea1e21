"""Job lists of the benchmark workloads and the checks on their outputs.

A job is one ``sqfd`` command line.  A plan is the JSON-serialisable list of
jobs of one workload plus the input files they read; an argv item starting
with ``@`` names a file in the round's temporary directory.  Checks return a
list of problems, empty when the job's output is right.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# (prime, n) ladder for ``sqfd depth``.  Per-job cost on a 2-core x86 box:
# p=2 n=11..13 0.09/0.3/1.2 s; p=3 n=10..12 0.2/0.7/3.3 s.
FAMILY_BETTI = ((2, 11), (2, 12), (2, 13), (3, 10), (3, 11), (3, 12))
# (prime, n_max) for ``sqfd verify-family --n-min 6``.
FAMILY_VERIFY = ((2, 13), (3, 12))
# (prime, samples) for the n=8 cubic scan; p=3 costs ~15 ms an ideal, p=2 ~2 ms.
SCAN_CUBIC8 = ((2, 1000), (3, 250))
SCAN_N = 8


def family_supports(n: int) -> list[list[int]]:
    """Generator supports of the paper's family member on n variables."""
    return [[1, 3, i + 4] for i in range(1, n - 3)] + [[1, 4, 5], [2, 3, 4], [2, 3, 6]]


def ideal_text(n: int, supports) -> str:
    """Ideal text format with generators in canonical (ascending mask) order."""
    gens = sorted((sorted(s) for s in supports), key=lambda s: sum(1 << (i - 1) for i in s))
    return "".join([f"n={n}\n"] + [" ".join(map(str, g)) + "\n" for g in gens])


def _twin_supports(n: int, rng: random.Random) -> list[list[int]]:
    """The family member under a random relabeling that changes the ideal."""
    base = family_supports(n)
    canon = ideal_text(n, base)
    while True:
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        twin = [[perm[i - 1] for i in g] for g in base]
        if ideal_text(n, twin) != canon:
            return twin


def depth_job(p: int, n: int) -> dict:
    return {"kind": "depth", "prime": p, "n": n, "ideals": 1,
            "argv": ["depth", f"@fam{n}.ideal", "--char", str(p)]}


def verify_job(p: int, n_max: int) -> dict:
    return {"kind": "verify", "prime": p, "n_min": 6, "n_max": n_max, "ideals": n_max - 5,
            "argv": ["verify-family", "--n-min", "6", "--n-max", str(n_max), "--char", str(p)]}


def search_job(p: int, samples: int, seed: int) -> dict:
    log = f"scan-p{p}.jsonl"
    return {"kind": "search", "prime": p, "samples": samples, "injects": 2,
            "ideals": samples + 2, "log": log,
            "argv": ["search", "--ambient-n", str(SCAN_N), "--seed", str(seed),
                     "--samples", str(samples), "--gen-degree", "3", "--gen-count", "5",
                     "--char", str(p), "--inject", "@fam8.ideal", "--inject", "@twin8.ideal",
                     "--log", f"@{log}"]}


def argv(job: dict, tmp: Path) -> list[str]:
    """The job's command line with ``@name`` resolved inside ``tmp``."""
    return [str(tmp / a[1:]) if a.startswith("@") else a for a in job["argv"]]


def inputs_for(jobs: list[dict], seed: int) -> dict[str, str]:
    """Input files the jobs read, by name."""
    inputs = {}
    for job in jobs:
        if job["kind"] == "depth":
            n = job["n"]
            inputs[f"fam{n}.ideal"] = ideal_text(n, family_supports(n))
        elif job["kind"] == "search":
            inputs["fam8.ideal"] = ideal_text(SCAN_N, family_supports(SCAN_N))
            twin = _twin_supports(SCAN_N, random.Random(seed))
            inputs["twin8.ideal"] = ideal_text(SCAN_N, twin)
    return inputs


def plan(workload: str, seed: int) -> dict:
    """Inputs and jobs of one round.  The same seed gives the same plan."""
    if workload == "family-betti":
        jobs = [depth_job(p, n) for p, n in FAMILY_BETTI]
    elif workload == "family-verify":
        jobs = [verify_job(p, n_max) for p, n_max in FAMILY_VERIFY]
    elif workload == "scan-cubic8":
        jobs = [search_job(p, samples, seed) for p, samples in SCAN_CUBIC8]
    else:
        raise KeyError(workload)
    return {"workload": workload, "seed": seed, "inputs": inputs_for(jobs, seed), "jobs": jobs}


def _check_depth(job: dict, out: str, tmp: Path) -> list[str]:
    problems = []
    golden = (GOLDEN_DIR / f"depth-n{job['n']}-p{job['prime']}.json").read_text(encoding="utf-8")
    if out != golden:
        problems.append("stdout differs from the golden")
    report = json.loads(out)
    if report["depth"] != 3:
        problems.append(f"depth {report['depth']}, expected 3")
    if report["proj_dim"] != job["n"] - 3:
        problems.append(f"proj_dim {report['proj_dim']}, expected {job['n'] - 3}")
    return problems


def _check_verify(job: dict, out: str, tmp: Path) -> list[str]:
    problems = []
    reports = json.loads(out)
    want = list(range(job["n_min"], job["n_max"] + 1))
    if [r["n"] for r in reports] != want:
        problems.append(f"reports for n={[r['n'] for r in reports]}, expected {want}")
    for r in reports:
        n = r["n"]
        failed = [c["name"] for c in r["checks"] if not c["pass"]]
        if failed:
            problems.append(f"n={n}: checks failed: {failed}")
        if r["g1"] != 1 or r["g2"] != n - 6:
            problems.append(f"n={n}: g1={r['g1']} g2={r['g2']}, expected 1 and {n - 6}")
        if r["field_chars"] != [job["prime"]]:
            problems.append(f"n={n}: field_chars {r['field_chars']}")
    return problems


def _check_search(job: dict, out: str, tmp: Path) -> list[str]:
    from sqfdepth import FieldSpec, Ideal, g_profile

    problems = []
    doc = json.loads(out)
    summary, findings = doc["summary"], doc["findings"]
    if summary["evaluated"] != job["samples"] + job["injects"]:
        problems.append(
            f"evaluated {summary['evaluated']}, expected {job['samples'] + job['injects']}"
        )
    by_index = {f["index"]: f for f in findings}
    injected = by_index.get(-1)
    if injected is None or injected["violations"] != [1]:
        problems.append("injected family member missing or without violations [1]")
    if -2 in by_index:
        problems.append("relabeled twin was not deduplicated")
    if summary["findings_unique"] != len(findings):
        problems.append("findings_unique differs from the findings listed")
    if summary["findings_total"] < summary["findings_unique"] + 1:
        problems.append("findings_total does not count the deduplicated twin")
    log_path = tmp / job["log"]
    lines = log_path.read_text(encoding="utf-8").splitlines() if log_path.exists() else []
    if len(lines) != summary["findings_unique"]:
        problems.append(f"{len(lines)} log lines, expected {summary['findings_unique']}")
    for line in lines:
        logged = json.loads(line)
        if logged not in findings:
            problems.append(f"logged finding {logged['index']} not in stdout")
        ideal = Ideal.from_supports(logged["ideal"]["gens"], logged["ideal"]["n"])
        profile = g_profile(ideal, FieldSpec(logged["field_char"]))
        if profile.to_json_dict() != logged["profile"] or profile.violations() != logged["violations"]:
            problems.append(f"logged finding {logged['index']} does not re-verify")
    return problems


_CHECKS = {"depth": _check_depth, "verify": _check_verify, "search": _check_search}


def check(job: dict, rc: int, out: str, tmp: Path) -> list[str]:
    """Problems with one job's exit code and stdout (and its log, for a scan)."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        return _CHECKS[job["kind"]](job, out, tmp)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]
