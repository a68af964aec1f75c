"""Benchmark of the labcli experiments, end to end and per module.

    python3 perfbench/run.py --workload curv3 --seed 1 --seconds 14 --trace 0

Run from the repository root.  The runner starts workers one at a time
(worker.py): SETUPS that only import mollilab, to time set-up, then one
that runs the workload closed-loop with a single client.  With --trace 0
the last line of standard output is a JSON object carrying every
end-to-end metric of BENCHMARK.json; with --trace 1 it carries every
per-layer metric, measured from a pass with span tracing on, plus the 3-d
`riemann` memory sweep.  The full record, with the environment, goes to
.perfbench/result-<workload>-seed<seed>-trace<t>.json.

The program is imported from ./src; without it the runner exits with
status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import memsweep  # noqa: E402
from probe import REF_SPAWN_S, spawn_probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 6          # set-up is timed this many times per run; the median is reported
TIME_LIMIT_S = 170  # every child is stopped by then
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def percentile_tail(samples: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has ten
    samples above it, but never below p75: a run of fewer than 40 ops
    reports p75 (inclusive interpolation), which one stalled op among
    a handful cannot move the way it moves the maximum."""
    s = sorted(samples)
    n = len(s)
    if n == 1:
        return s[0], 75.0
    if n < 40:
        return statistics.quantiles(s, n=4, method="inclusive")[2], 75.0
    return s[n - 11], 100.0 * (n - 10) / n


def _remaining(deadline: float) -> float:
    return max(deadline - time.monotonic(), 1.0)


def _child(args: list, deadline: float) -> tuple[dict, float]:
    """Run one worker to completion: its JSON result, and the wall seconds
    from its start to ready."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=_remaining(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker ran past the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    return result, result["ready"] - spawned


def _setup_times(args: list, deadline: float) -> list:
    """Set-up seconds of SETUPS import-only workers.  Workers and spawn
    probes alternate, and each worker's time is scaled by the mean of the
    two probes around it."""
    try:
        probes = [spawn_probe(_remaining(deadline))]
        times = []
        for _ in range(SETUPS):
            _, wall = _child([*args, "--setup-only"], deadline)
            probes.append(spawn_probe(_remaining(deadline)))
            times.append(wall * REF_SPAWN_S * 2.0 / (probes[-2] + probes[-1]))
    except (subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
        raise BenchError(f"spawn probe failed: {exc}") from exc
    return times


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _environment(w, args, res: dict) -> dict:
    return {
        "python": platform.python_version(), "numpy": res["numpy"],
        "scipy": res["scipy"], "blas": res["blas"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": _git_commit(), "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workload": w.name, "argv": list(w.argv),
        "geometry": w.geometry, "n": w.n, "m": w.m,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")

    if not (ROOT / "src" / "mollilab" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no mollilab sources under {ROOT / 'src'}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    w = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", w.name, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace),
              "--scratch", str(scratch)]

    try:
        setups = _setup_times(common, deadline)
        res, _ = _child(common, deadline)
        sweep = memsweep.sweep(deadline) if args.trace else None
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    problems = list(res["problems"])
    samples = res["samples"]
    tail, tail_pct = percentile_tail(samples)
    found = {
        "exp_s.p50": statistics.median(samples),
        "exp_s.tail": tail,
        "exp_per_s": res["completed"] / sum(samples),
        "peak_rss_mb": res["maxrss_kb"] / 1024.0,
        "setup_s": statistics.median(setups),
    }
    if args.trace:
        found.update(res["per_layer"])
        found["curvature.riemann.max_m3"] = float(sweep["max_m3"])
        if sweep["exceeded"]:
            problems.append(f"memory sweep crossed the {sweep['cap_mb']} MB cap")
        if not sweep["complete"] or not sweep["max_m3"]:
            problems.append(f"memory sweep ended early: {sweep['stop']}")
    missing = [d["name"] for d in declared if d["name"] not in found]
    if missing:
        sys.stderr.write(f"perfbench: metrics not measured: {missing}\n")
        return 1
    metrics = {d["name"]: {"value": found[d["name"]], "unit": d["unit"]}
               for d in declared}
    wall = res["wall_samples"]
    extra = {"fail_frac": res["failed"] / res["attempted"],
             "samples": len(samples), "exp_s.tail_percentile": tail_pct,
             "setup_samples_s": setups, "wall_exp_s.p50": statistics.median(wall),
             "wall_exp_s.max": max(wall)}

    record = {"environment": _environment(w, args, res), "metrics": found,
              "extra": extra, "problems": problems, "sweep": sweep,
              "op_seconds": samples, "op_wall_seconds": wall,
              "called": res.get("called"), "stat_errors": res.get("stat_errors")}
    out = scratch / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_frac {extra['fail_frac']:.6g} ratio over {res['attempted']} ops; "
          f"exp_s over {len(samples)} samples, tail = p{tail_pct:.4g}; "
          f"unscaled wall p50 {extra['wall_exp_s.p50']:.6g} s")
    for p in problems:
        print(f"problem: {p}")
    print(json.dumps({"correct": not problems and res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
