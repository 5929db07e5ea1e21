"""One benchmark round, run in a fresh interpreter by ``run.py``.

    python child.py PLAN_JSON TMP_DIR MODE RESULT_JSON

MODE is ``plain``, ``traced`` or ``setup``.  The child imports sqfdepth from
the checkout's ``src`` and writes the plan's input files into TMP_DIR; that
is the set-up, and ``setup`` mode stops there.  Otherwise it runs each job
through ``sqfdepth.cli.main(argv)`` in process with stdout and stderr
captured, exactly as ``sqfd`` would.  After the last job it checks every
output and writes timings, peak RSS, problems and (when traced) the
per-layer span totals to RESULT_JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _run_job(cli, argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this job, not the round
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - started


def main(plan_path: str, tmp_dir: str, mode: str, result_path: str) -> int:
    import numpy
    import sqfdepth
    from sqfdepth import cli

    if not Path(sqfdepth.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported sqfdepth from {sqfdepth.__file__}, not the checkout", file=sys.stderr)
        return 2
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    tmp = Path(tmp_dir)
    for name, text in plan["inputs"].items():
        (tmp / name).write_text(text, encoding="utf-8")
    ready = time.monotonic()
    if mode == "setup":
        Path(result_path).write_text(json.dumps({"ready": ready}), encoding="utf-8")
        return 0

    runs = []
    for job in plan["jobs"]:
        runs.append(_run_job(cli, workloads.argv(job, tmp)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    spans = tracer.snapshot() if tracer else None

    jobs = []
    for job, (rc, out, err, seconds) in zip(plan["jobs"], runs):
        problems = workloads.check(job, rc, out, tmp)
        if problems and err:
            problems.append("stderr: " + err[-2000:])
        jobs.append({"seconds": seconds, "problems": problems})
    result = {
        "ready": ready,
        "jobs": jobs,
        "peak_rss_mb": peak_rss_mb,
        "spans": spans,
        "wrapped": sorted(tracer.wrapped) if tracer else None,
        "env": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
