"""Benchmark worker: imports mollilab, then runs one workload closed-loop.

Started by run.py, one worker at a time.  The worker reports the moment
its imports are done (`ready`, on the system-wide monotonic clock), runs
one untimed warm-up op, then ops back to back, each between two runs of
the host-speed probe (probe.py), until `--seconds` have passed.  With
`--trace 1` it alternates untraced and traced ops and adds the per-layer
numbers.  The result is one JSON object on the last line
of standard output.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_op(cli, argv: list, out: Path) -> tuple:
    """(exit code, output bytes, seconds) of one `cli.main` call."""
    out.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:  # a crashing op is a failed op, not a crashed benchmark
        traceback.print_exc()
        rc = -1
    seconds = time.perf_counter() - start
    return rc, (out.read_bytes() if out.exists() else b""), seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    from mollilab import cli
    import probe
    import tracing
    import workloads
    ready = time.monotonic()
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"mollilab imported from {cli.__file__}, "
                         f"not from {ROOT / 'src'}")
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    w = workloads.WORKLOADS[args.workload]
    scratch = Path(args.scratch)
    out = scratch / f"{w.name}.out"
    op_argv = w.op_argv(args.seed, str(out))
    tracer = tracing.Tracer()
    speed = probe.Probe()  # allocated before the warm-up, so peak RSS sees it throughout

    # warm-up: untimed; under --trace it also records which targets an op calls
    if args.trace:
        with tracing.CallRecorder(tracer.resolve_originals()) as rec:
            rc0, first, _ = _run_op(cli, op_argv, out)
    else:
        rc0, first, _ = _run_op(cli, op_argv, out)
    first_problems = w.check(rc0, first)
    problems = [f"first op: {p}" for p in first_problems]
    missed = [] if first_problems else workloads.self_test(w, rc0, first)
    problems += [f"checker accepted {m}" for m in missed]

    # each untraced op is scaled by the host-speed probe run around it
    untraced, scaled, traced = [], [], []
    bad_untraced = bad_traced = 0
    start = time.perf_counter()
    before = speed.measure()
    while True:
        rc, data, dt = _run_op(cli, op_argv, out)
        after = speed.measure()
        untraced.append(dt)
        scaled.append(dt * probe.REF_S * 2.0 / (before + after))
        bad_untraced += rc != 0 or data != first
        if args.trace:
            tracer.op = len(traced)
            tracer.install()
            try:
                rc, data, dt = _run_op(cli, op_argv, out)
            finally:
                tracer.uninstall()
            traced.append(dt)
            if rc != 0 or data != first:
                bad_traced += 1
                problems.append(f"traced op {tracer.op}: output differs from untraced")
            after = speed.measure()
        before = after
        if time.perf_counter() - start >= args.seconds:
            break

    attempted = 1 + len(untraced) + len(traced)
    failed = attempted if first_problems else bad_untraced + bad_traced
    result = {
        "ready": ready, "attempted": attempted, "failed": failed,
        "problems": problems, "samples": scaled, "wall_samples": untraced,
        "completed": len(untraced) - bad_untraced,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"],
    }
    if args.trace:
        per_op = tracer.per_op(list(range(len(traced))))
        layers = tracing.layer_metrics(per_op)
        traced_p50 = statistics.median(traced)
        untraced_p50 = statistics.median(untraced)
        rollup = sum(layers[f"{mod}.self_s"] for mod in tracing.MODULES)
        mean_op = statistics.fmean(traced)
        layers["trace.exp_s.p50"] = traced_p50
        layers["trace.untraced_exp_s.p50"] = untraced_p50
        # each traced op directly follows an untraced one: pairs share the host's phase
        layers["trace.overhead_frac"] = statistics.median(
            t / u for t, u in zip(traced, untraced)) - 1.0
        layers["trace.unattributed_frac"] = 1.0 - rollup / mean_op
        entered = {k for k, v in per_op["calls"].items() if v > 0}
        for name in sorted(rec.called - entered):
            problems.append(f"{name} was called but its wrapper was not entered")
        for name in sorted(entered - rec.called):
            problems.append(f"{name} was entered under tracing only")
        if not 0.0 <= layers["trace.unattributed_frac"] < 0.02:
            problems.append("module self times do not add up to the traced op time")
        result["per_layer"] = layers
        result["called"] = sorted(rec.called)
        result["stat_errors"] = tracer.stat_errors
        spans = scratch / f"spans-{w.name}-seed{args.seed}.jsonl"
        with open(spans, "w") as fh:
            for rec_span in tracer.span_records():
                fh.write(json.dumps(rec_span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
