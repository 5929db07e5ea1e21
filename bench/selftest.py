"""Self-test of the benchmark's output checks at tiny sizes.

    python3 bench/selftest.py

Runs one small job of each kind through ``sqfdepth.cli.main`` exactly as a
benchmark round does, shows that every check passes on the real outputs,
then corrupts each output in a known way and shows that its check rejects
it: the failed fraction is 0 on the genuine outputs and above 0 (``fail_frac``)
on the corrupted ones.  Exits 0
only if every genuine output passes and every corruption is caught.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import child
import workloads
from run import TMP_ROOT
from sqfdepth import cli

SEED = 3


def _edit(out: str, change) -> str:
    doc = json.loads(out)
    change(doc)
    return json.dumps(doc) + "\n"


def _flip_betti(doc):
    doc["betti"][0]["value"] += 1


def _wrong_g2(doc):
    doc[-1]["g2"] += 1


def _failed_step(doc):
    doc[0]["checks"][0]["pass"] = False


def _drop_injected(doc):
    doc["findings"] = [f for f in doc["findings"] if f["index"] != -1]
    doc["summary"]["findings_unique"] = len(doc["findings"])


def _keep_twin(doc):
    twin = dict(doc["findings"][0], index=-2)
    doc["findings"].append(twin)
    doc["summary"]["findings_unique"] += 1


def _short_count(doc):
    doc["summary"]["evaluated"] -= 1


def _bad_profile(doc):
    doc["findings"][0]["profile"]["profile"][1]["g"] -= 1


# job -> [(label, corrupt(out, tmp) -> out)]; a corruption may also damage the log.
def _corruptions(job: dict) -> list:
    edits = {
        "depth": [("flipped Betti value", _flip_betti)],
        "verify": [("wrong g2", _wrong_g2), ("failed proof step", _failed_step)],
        "search": [("missing injected finding", _drop_injected),
                   ("twin not deduplicated", _keep_twin),
                   ("evaluated count short", _short_count)],
    }[job["kind"]]
    cases = [(label, lambda out, tmp, f=f: _edit(out, f)) for label, f in edits]
    if job["kind"] == "search":
        cases.append(("log line missing", lambda out, tmp: _truncate_log(tmp / job["log"], out)))
        cases.append(("logged profile wrong", lambda out, tmp: _corrupt_log(tmp / job["log"], out)))
    cases.append(("truncated stdout", lambda out, tmp: out[: len(out) // 2]))
    return cases


def _truncate_log(path: Path, out: str) -> str:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")
    return out


def _corrupt_log(path: Path, out: str) -> str:
    lines = path.read_text(encoding="utf-8").splitlines()
    logged = json.loads(lines[0])
    _bad_profile({"findings": [logged]})
    path.write_text("\n".join([json.dumps(logged)] + lines[1:]) + "\n", encoding="utf-8")
    doc = json.loads(out)
    doc["findings"][0] = logged
    return json.dumps(doc) + "\n"


def _run(job: dict, inputs: dict, tmp: Path) -> tuple[int, str]:
    for name, text in inputs.items():
        (tmp / name).write_text(text, encoding="utf-8")
    log = tmp / job.get("log", "none")
    if log.exists():
        log.unlink()
    rc, out, err, _ = child._run_job(cli, workloads.argv(job, tmp))
    return rc, out


def main() -> int:
    jobs = [workloads.depth_job(2, 11), workloads.depth_job(3, 10),
            workloads.verify_job(2, 8), workloads.verify_job(3, 7),
            workloads.search_job(2, 20, SEED), workloads.search_job(3, 10, SEED)]
    inputs = workloads.inputs_for(jobs, SEED)
    ok = True
    genuine = genuine_failed = corrupted = corrupted_failed = 0
    TMP_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=TMP_ROOT) as tmp_name:
        tmp = Path(tmp_name)
        for job in jobs:
            label = " ".join(job["argv"])
            rc, out = _run(job, inputs, tmp)
            problems = workloads.check(job, rc, out, tmp)
            genuine += 1
            genuine_failed += bool(problems)
            print(f"{'PASS' if not problems else 'FAIL'} genuine  {label} {problems or ''}")
            ok &= not problems
            for name, corrupt in [("exit code 1", None)] + _corruptions(job):
                rc, out = _run(job, inputs, tmp)
                if corrupt is None:
                    problems = workloads.check(job, 1, out, tmp)
                else:
                    problems = workloads.check(job, rc, corrupt(out, tmp), tmp)
                corrupted += 1
                corrupted_failed += bool(problems)
                print(f"{'PASS' if problems else 'FAIL'} caught   {name}: {problems[:1]}")
                ok &= bool(problems)
    fail_frac = corrupted_failed / corrupted
    print(json.dumps({"genuine": genuine, "genuine_failed": genuine_failed,
                      "corrupted": corrupted, "corrupted_failed": corrupted_failed,
                      "fail_frac": fail_frac}))
    return 0 if ok and fail_frac > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
