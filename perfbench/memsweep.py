"""3-d resolution sweep for `curvature.riemann` under a peak-RSS cap.

`sweep()` runs `riemann` on the sphere3 north chart in a child process at
m = 41, 49, 57, ... and returns the largest m whose peak RSS stays under
`CAP_MB`.  Before each run it predicts the child's peak from the previous
two (peak = a + b m^3), adds `MARGIN`, and never starts a run predicted to
exceed the cap;
a watchdog also kills a child whose resident set crosses the cap.  The
sweep stops at `M_LIMIT`, so a result of M_LIMIT means "at least".

Run as a script (`python3 perfbench/memsweep.py --m 41`) it is the child:
it prints {"m", "peak_mb", "seconds"} as JSON.
"""
from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CAP_MB = 1536.0      # well below the free memory of a 7 GB, 2-core machine
M_START = 41
M_STEP = 8
M_LIMIT = 137
MARGIN = 1.15        # the two-point fit under-predicted m=65 by 8 % on the seed
POLL_S = 0.02


def predict(peaks: list, m: int) -> float | None:
    """Peak RSS at m from the last two (m, peak) points, linear in m^3."""
    if not peaks:
        return None
    if len(peaks) == 1:
        (m0, p0), = peaks
        return p0 * (m / m0) ** 3
    (m0, p0), (m1, p1) = peaks[-2:]
    b = (p1 - p0) / (m1**3 - m0**3)
    return p1 + b * (m**3 - m1**3)


def _rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _run_child(m: int, timeout: float) -> tuple[dict | None, str]:
    """(child result or None, "" or why it was stopped: "cap", "time", "failed")."""
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                             "--m", str(m)],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    why = ""
    deadline = time.monotonic() + timeout
    try:
        while proc.poll() is None:
            if _rss_mb(proc.pid) > CAP_MB:
                why = "cap"
            elif time.monotonic() > deadline:
                why = "time"
            if why:
                proc.kill()
                break
            time.sleep(POLL_S)
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if why or proc.returncode != 0:
        return None, why or "failed"
    return json.loads(out.strip().splitlines()[-1]), ""


def sweep(deadline: float) -> dict:
    """Largest m under the cap, every child's peak, whether any crossed the
    cap, and whether the sweep ended as planned (a prediction over the cap,
    or M_LIMIT)."""
    peaks: list = []
    runs: list = []
    exceeded = False
    stop = "limit"
    m = M_START
    while m <= M_LIMIT:
        guess = predict(peaks, m)
        if guess is not None and guess * MARGIN > CAP_MB:
            stop = f"predicted {guess:.0f} MB at m={m}"
            break
        res, why = _run_child(m, deadline - time.monotonic())
        if res is None:
            exceeded = why == "cap"
            stop = f"child at m={m} stopped ({why})"
            break
        runs.append({**res, "predicted_mb": guess})
        if res["peak_mb"] >= CAP_MB:
            exceeded = True
            stop = f"peak over cap at m={m}"
            break
        peaks.append((m, res["peak_mb"]))
        m += M_STEP
    complete = stop == "limit" or stop.startswith("predicted")
    return {"max_m3": peaks[-1][0] if peaks else 0, "cap_mb": CAP_MB,
            "runs": runs, "exceeded": exceeded, "complete": complete, "stop": stop}


def _child(m: int) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from mollilab.curvature import riemann
    from mollilab.modelzoo import get_geometry

    g = get_geometry("sphere3").sample_all(m)["north"]
    start = time.perf_counter()
    riemann(g)
    seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"m": m, "peak_mb": peak, "seconds": seconds}))


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--m", type=int, required=True)
    _child(ap.parse_args().m)
