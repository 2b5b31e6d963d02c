"""Benchmark of the plectic CLI and library.

    python3 perfbench/run.py --workload rm-certify --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Set-up time is measured first, as fresh
interpreters importing `plectic.cli` from `src/`; then one job process
(jobs.py) runs the workload's job list in rounds for `--seconds` seconds
and checks every output.  The last line of standard output is one JSON
object: with `--trace 0` the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rm-certify", "rm-reject", "flat-spectral", "hodge-jacobians")
SETUP_RUNS = 5  # timed interpreters for setup_s
IMPORTTIME_RUNS = 3  # interpreters for the import.* metrics of a traced run
DEADLINE = 170.0  # seconds; the whole run must end within 180
IMPORTS = ("plectic", "sympy", "scipy", "numpy", "mpmath")


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the untimed import writes bytecode
    env.update({
        "PYTHONPATH": "src",
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def interpreter(args, env, timeout=60):
    return subprocess.run([sys.executable] + args, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)


def import_times(stderr):
    """Seconds spent in each top-level package's own module bodies, from
    the `-X importtime` output of one interpreter."""
    out = dict.fromkeys(IMPORTS, 0.0)
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue  # not a timing line, or the header
        top = parts[2].strip().split(".")[0]
        if top in out:
            out[top] += int(parts[0]) / 1e6
    return out


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    began = time.perf_counter()

    if not (ROOT / "src" / "plectic" / "cli.py").is_file():
        fail(f"no src/plectic/cli.py under {ROOT}; run from a checkout of the repository")
    env = child_env()
    first = interpreter(["-c", "import plectic.cli, sys; sys.stdout.write(plectic.cli.__file__)"],
                        env)
    if first.returncode != 0:
        fail(f"import plectic.cli failed:\n{first.stderr}")
    if Path(first.stdout).resolve().parent != ROOT / "src" / "plectic":
        fail(f"plectic.cli imported from {first.stdout}, not from this checkout")

    metrics = {}
    if args.trace:
        runs = [import_times(interpreter(["-X", "importtime", "-c", "import plectic.cli"],
                                         env).stderr) for _ in range(IMPORTTIME_RUNS)]
        for name in IMPORTS:
            metrics[f"import.{name}_s"] = (statistics.median(r[name] for r in runs), "s")
    else:
        setup = []
        for _ in range(SETUP_RUNS):
            t0 = time.perf_counter()
            r = interpreter(["-c", "import plectic.cli"], env)
            setup.append(time.perf_counter() - t0)
            if r.returncode != 0:
                fail(f"import plectic.cli failed:\n{r.stderr}")
        metrics["setup_s"] = (statistics.median(setup), "s")

    work = ROOT / ".perfbench"
    cmd = [str(ROOT / "perfbench" / "jobs.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(work / args.workload)]
    remaining = DEADLINE - (time.perf_counter() - began)
    try:
        job = interpreter(cmd, env, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"the job process did not finish within {remaining:.0f} s")
    sys.stderr.write(job.stderr)
    if job.returncode != 0 or not job.stdout.strip():
        fail(f"the job process exited with code {job.returncode}")
    res = json.loads(job.stdout.strip().splitlines()[-1])

    if args.trace:
        from spans import unit_of

        for name, value in res["per_layer"].items():
            metrics[name] = (value, unit_of(name))
    else:
        metrics["batch_s"] = (res["batch_s"], "s")
        metrics["job_p50_s"] = (res["job_p50_s"], "s")
        metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB")

    record = {k: res[k] for k in ("round_s", "round_wall_s", "jobs_per_round", "problems", "failures",
                                  "batch_s", "job_p50_s", "batch_wall_s", "job_p50_wall_s")}
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  wall_s=time.perf_counter() - began)
    with open(work / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for p in res["problems"]:
        sys.stderr.write(f"perfbench: check failed: {p}\n")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()
