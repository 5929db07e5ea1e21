"""sqfdepth benchmark: runs one workload for a fixed time and prints metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads, metric names and units are in
``BENCHMARK.json``; job lists and checks are in ``workloads.py``; the design
and the mapping from per-layer to end-to-end metrics is in ``DESIGN.md``.

The run repeats rounds until the next one would pass ``--seconds`` (at
least ``MIN_ROUNDS``).  A round is the workload's whole job list, executed
in a fresh interpreter (``child.py``) so per-process caches are paid as a
``sqfd`` user pays them.  Wall metrics sum each job's median over the
rounds; ``setup_s`` is the median over every interpreter started.  With
``--trace 1`` rounds alternate untraced and traced, and the per-layer
metrics come from the traced rounds.  The last stdout line is the result
object; the line before it gives per-round figures and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TMP_ROOT = ROOT / ".bench_tmp"  # all inputs, logs and results; never outside the checkout
MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 4  # two untraced, two traced
SETUP_PROBES = 2  # extra set-up-only interpreters per round, to steady setup_s
HARD_LIMIT_S = 170.0  # a run must end within 180 s


def _spawn(plan_path: Path, round_dir: Path, mode: str, timeout: float) -> dict:
    """Run child.py once in a fresh interpreter; its result, or an error."""
    round_dir.mkdir()
    result_path = round_dir / "result.json"
    cmd = [sys.executable, str(BENCH / "child.py"), str(plan_path), str(round_dir), mode,
           str(result_path)]
    env = {k: v for k, v in os.environ.items() if k != "SQFD_THREADS"}  # the CLI default
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
        error = proc.stderr[-4000:] if proc.returncode != 0 else None
    except subprocess.TimeoutExpired:
        error = f"round timed out after {timeout:.0f} s"
    ended = time.monotonic()
    if error is None and not result_path.exists():
        error = "round wrote no result"
    if error is not None:
        return {"error": error, "span_s": ended - spawned}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result.update(setup_s=result["ready"] - spawned, span_s=ended - spawned)
    shutil.rmtree(round_dir)
    return result


def _run_round(plan_path: Path, tmp: Path, index: int, traced: bool, timeout: float) -> dict:
    """Set-up probes, then one round of the job list."""
    started = time.monotonic()
    deadline = started + timeout
    setups = []
    for k in range(SETUP_PROBES):
        probe = _spawn(plan_path, tmp / f"probe{index}-{k}", "setup", deadline - time.monotonic())
        if "error" in probe:
            return dict(probe, traced=traced)
        setups.append(probe["setup_s"])
    result = _spawn(plan_path, tmp / f"round{index}", "traced" if traced else "plain",
                    deadline - time.monotonic())
    if "error" not in result:
        result["setups"] = setups + [result["setup_s"]]
    return dict(result, traced=traced, span_s=time.monotonic() - started)


def _run_rounds(plan: dict, tmp: Path, seconds: float, trace: bool) -> list[dict]:
    plan_path = tmp / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    min_rounds = MIN_TRACE_ROUNDS if trace else MIN_ROUNDS
    start = time.monotonic()
    rounds: list[dict] = []
    while True:
        elapsed = time.monotonic() - start
        timeout = HARD_LIMIT_S - elapsed
        rounds.append(_run_round(plan_path, tmp, len(rounds), trace and len(rounds) % 2 == 1,
                                 timeout))
        elapsed = time.monotonic() - start
        estimate = statistics.median(r["span_s"] for r in rounds)
        if elapsed + estimate > HARD_LIMIT_S - 5:
            return rounds
        if len(rounds) >= min_rounds and elapsed + estimate > seconds:
            return rounds


def _walls(plan: dict, secs: list[float]) -> dict:
    """Wall metrics of one job list from the seconds of each job."""
    by_prime = {p: sum(s for s, job in zip(secs, plan["jobs"]) if job["prime"] == p)
                for p in (2, 3)}
    ideals = sum(job["ideals"] for job in plan["jobs"])
    return {"wall_s": sum(secs), "wall_p2_s": by_prime[2], "wall_p3_s": by_prime[3],
            "ideals_per_s": ideals / sum(secs)}


def _job_seconds(rounds: list[dict]) -> list[float]:
    """Median over rounds of each job's seconds: one slow round moves no job."""
    return [statistics.median(js) for js in zip(*([j["seconds"] for j in r["jobs"]]
                                                   for r in rounds))]


def _end_to_end(plan: dict, ok: list[dict]) -> dict:
    values = _walls(plan, _job_seconds(ok))
    values["setup_s"] = statistics.median(s for r in ok for s in r["setups"])
    values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in ok)
    return values


def _per_layer(plan: dict, ok: list[dict], names: list[str]) -> tuple[dict, dict]:
    traced = [r for r in ok if r["traced"]]
    plain = [r for r in ok if not r["traced"]]
    values: dict[str, float] = {}
    info = {"absent": [], "counts_repeat": True}
    if not traced or not plain:
        return values, info
    info["pool_calls"] = {span: v["pool_calls"] for span, v in sorted(traced[0]["spans"].items())
                          if v.get("pool_calls")}
    traced_wall = sum(_job_seconds(traced))
    plain_wall = sum(_job_seconds(plain))
    for name in names:
        if name == "trace.wall_s":
            values[name] = traced_wall
            continue
        if name == "trace.overhead_s":
            values[name] = traced_wall - plain_wall
            continue
        span, field = name.rsplit(".", 1)
        if span not in traced[0]["wrapped"]:
            info["absent"].append(span)
            values[name] = 0
            continue
        per_round = [r["spans"].get(span, {}).get(field, 0) for r in traced]
        if field == "s" or field.endswith("_s"):
            values[name] = statistics.median(per_round)
        else:
            values[name] = per_round[0]
            if any(v != per_round[0] for v in per_round):
                info["counts_repeat"] = False
    info["absent"] = sorted(set(info["absent"]))
    return values, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 1 << 64:
        print("--seed must be in 0..2^64-1", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "sqfdepth" / "cli.py").is_file():
        print(f"no sqfdepth sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    plan = workloads.plan(args.workload, args.seed)
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    try:
        rounds = _run_rounds(plan, tmp, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    n_jobs = len(plan["jobs"])
    ok = [r for r in rounds if "error" not in r]
    attempted = n_jobs * len(rounds)
    failed = n_jobs * (len(rounds) - len(ok))
    problems = [r["error"] for r in rounds if "error" in r]
    for r in ok:
        for job, res in zip(plan["jobs"], r["jobs"]):
            if res["problems"]:
                failed += 1
                problems.append(f"{' '.join(job['argv'])}: {res['problems']}")
    for line in problems:
        print(line, file=sys.stderr)
    if not ok:
        print("no round completed; no metrics", file=sys.stderr)
        return 1

    detail = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
              "env": ok[0]["env"], "jobs": [" ".join(j["argv"]) for j in plan["jobs"]],
              "per_round": [dict(_walls(plan, [j["seconds"] for j in r["jobs"]]),
                                 setup_s=r["setup_s"],
                                 peak_rss_mb=r["peak_rss_mb"], traced=r["traced"])
                            for r in ok]}
    if args.trace:
        values, info = _per_layer(plan, ok, [m["name"] for m in metrics])
        detail.update(info)
    else:
        values = _end_to_end(plan, ok)
    print(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics if m["name"] in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
