"""The four labcli experiments the benchmark runs, and their output checks.

Each op is one `cli.main(argv)` call writing to a scratch file.  A checker
takes the workload, the exit code and the output bytes and returns a list
of problems (empty when the output is correct); parameters such as m and
the t sweep are read from the workload's argv, so they live in one place.  The checks hold for any correct
implementation of the experiment: columns are looked up by header name,
extra columns are ignored, and every expected value is derived from the
geometry, not copied from a previous run.  Each workload also lists
corruptions of a correct output that its checker must reject, so that no
check passes vacuously.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# curvature: raw-chart scalar curvature of the unit round 3-sphere is
# n(n-1)/R^2 = 6; the second-order stencils at m=25 stay within 0.49 of it.
SPHERE3_SCALAR = 6.0
SCALAR_TOL = 1.0
LEMMA_ROWS = 305
LEMMA_LIMITS = {"sup_nonincrease": 1.0}   # the other lemmas allow 5 % slack
LEMMA_SLACK = 1.05
REL_TOL = 1e-9                            # outputs carry 12 significant digits


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    n: int
    checker: Callable[["Workload", int, bytes], list]
    corruptions: tuple  # callables (rc, data) -> (rc, data) that must fail

    def op_argv(self, seed: int, out: str) -> list:
        return [*self.argv, "--seed", str(seed), "--out", out]

    def option(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]

    @property
    def m(self) -> int:
        return int(self.option("--m"))

    @property
    def geometry(self) -> str | None:
        return self.option("--geometry") if "--geometry" in self.argv else None

    def check(self, rc: int, data: bytes) -> list:
        """Problems of one op's output; a checker that raises on malformed
        output reports that as a problem instead of stopping the run."""
        try:
            return self.checker(self, rc, data)
        except Exception as exc:  # noqa: BLE001 - any crash means bad output
            return [f"output could not be checked: {exc!r}"]


# ---------------------------------------------------------------------------
# parsing helpers

def _table(data: bytes):
    lines = data.decode().splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _floats(header, rows, name) -> np.ndarray:
    k = header.index(name)
    return np.array([row[k] for row in rows], dtype=float)


def _ragged(header, rows) -> bool:
    return any(len(row) != len(header) for row in rows)


def _missing(header, names) -> list:
    return [f"missing column {c!r}" for c in names if c not in header]


def _sections(data: bytes) -> dict:
    """`[chart id]` blocks of key=value lines, as {chart id: {key: value}}."""
    out: dict = {}
    cur = None
    for line in data.decode().splitlines():
        line = line.strip()
        if line.startswith("[chart ") and line.endswith("]"):
            cur = out.setdefault(line[len("[chart "):-1], {})
        elif cur is not None and "=" in line:
            key, _, val = line.partition("=")
            cur[key] = val
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# checkers

def check_curv3(w: Workload, rc: int, data: bytes) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    header, rows = _table(data)
    bad = _missing(header, ("chart", "node", "scalar"))
    if bad:
        return bad
    if not rows or _ragged(header, rows):
        return ["no rows or ragged rows"]
    charts = {row[header.index("chart")] for row in rows}
    if charts != {"north", "south"}:
        return [f"charts {sorted(charts)} != ['north', 'south']"]
    problems = []
    for name in header:
        if name in ("chart", "node"):
            continue
        vals = _floats(header, rows, name)
        if not np.isfinite(vals).all():
            problems.append(f"non-finite value in column {name!r}")
    scalar = _floats(header, rows, "scalar")
    dev = np.abs(scalar - SPHERE3_SCALAR)
    if not (dev <= SCALAR_TOL).all():
        problems.append(f"raw scalar curvature off 6 by {np.nanmax(dev):.4g}")
    return problems


def check_dev2(w: Workload, rc: int, data: bytes) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    header, rows = _table(data)
    excess = [c for c in header if c.endswith("excess")]
    bad = _missing(header, ("t", "riem_excess", "sec_excess"))
    if bad:
        return bad
    want = np.geomspace(float(w.option("--t-min")), float(w.option("--t-max")),
                        int(w.option("--t-count")))
    if len(rows) != len(want) or _ragged(header, rows):
        return [f"{len(rows)} rows, expected {len(want)}"]
    problems = []
    t = _floats(header, rows, "t")
    if not all(_close(a, b) for a, b in zip(t, want)):
        problems.append("t column is not the geometric sweep")
    for name in excess:
        if not np.isfinite(_floats(header, rows, name)).all():
            problems.append(f"non-finite value in column {name!r}")
    return problems


def check_lemmas(w: Workload, rc: int, data: bytes) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    header, rows = _table(data)
    bad = _missing(header, ("lemma", "ratio"))
    if bad:
        return bad
    if len(rows) != LEMMA_ROWS or _ragged(header, rows):
        return [f"{len(rows)} rows, expected {LEMMA_ROWS}"]
    lemma = [row[header.index("lemma")] for row in rows]
    ratio = _floats(header, rows, "ratio")
    limit = np.array([LEMMA_LIMITS.get(name, LEMMA_SLACK) for name in lemma])
    if not np.isfinite(ratio).all():
        return ["non-finite ratio"]
    over = int((ratio > limit).sum())
    return [f"{over} lemma rows exceed their limit"] if over else []


def _sphere3_n0(m: int, R: float = 1.0) -> float:
    """0.5 max |log lambda| of the stereographic conformal factor on the
    chart lattice [-2R, 2R]^3 with m nodes per axis."""
    ax = np.linspace(-2.0 * R, 2.0 * R, m)
    s = ax[:, None, None] ** 2 + ax[None, :, None] ** 2 + ax[None, None, :] ** 2
    lam = 4.0 * R**4 / (R**2 + s) ** 2
    return 0.5 * float(np.abs(np.log(lam)).max())


def check_norms3(w: Workload, rc: int, data: bytes) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    charts = _sections(data)
    if set(charts) != {"north", "south"}:
        return [f"charts {sorted(charts)} != ['north', 'south']"]
    want = _sphere3_n0(w.m)
    problems = []
    for cid, kv in sorted(charts.items()):
        if "N0_Q" not in kv or "Q" not in kv:
            problems.append(f"chart {cid}: missing N0_Q or Q")
            continue
        n0, q = float(kv["N0_Q"]), float(kv["Q"])
        if not _close(n0, want):
            problems.append(f"chart {cid}: N0_Q={n0!r}, expected {want!r}")
        if not q >= n0:
            problems.append(f"chart {cid}: Q={q!r} below N0_Q={n0!r}")
    return problems


# ---------------------------------------------------------------------------
# corruptions for the checker self-test

def _set_cell(row: int, col: str, value: Callable[[str], str]):
    def corrupt(rc, data):
        lines = data.decode().split("\n")
        header = lines[0].split(",")
        cells = lines[1 + row].split(",")
        k = header.index(col)
        cells[k] = value(cells[k])
        lines[1 + row] = ",".join(cells)
        return rc, "\n".join(lines).encode()
    return corrupt


def _drop_last_row(rc, data):
    lines = data.decode().rstrip("\n").split("\n")
    return rc, ("\n".join(lines[:-1]) + "\n").encode()


def _exit_code(code: int):
    return lambda rc, data: (code, data)


def _replace_value(key: str, value: Callable[[str], str]):
    """Rewrite the first `key=...` line of a report."""
    def corrupt(rc, data):
        lines = data.decode().split("\n")
        k = next(k for k, line in enumerate(lines) if line.startswith(key + "="))
        lines[k] = key + "=" + value(lines[k][len(key) + 1:])
        return rc, "\n".join(lines).encode()
    return corrupt


def _drop_chart(cid: str):
    return lambda rc, data: (rc, data.decode().split(f"[chart {cid}]")[0].encode())


def _scale(factor: float):
    return lambda cell: repr(float(cell) * factor)


def _keep_first_chart(rc, data):
    text = data.decode()
    first = text.split("\n", 2)[1].split(",")[0]
    lines = text.split("\n")
    kept = [lines[0]] + [ln for ln in lines[1:] if ln.startswith(first + ",")]
    return rc, ("\n".join(kept) + "\n").encode()


WORKLOADS = {
    "curv3": Workload(
        name="curv3",
        argv=("curvature", "--geometry", "sphere3", "--m", "25", "--t", "0.3"),
        n=3, checker=check_curv3,
        corruptions=(_set_cell(0, "scalar", lambda c: "nan"),
                     _set_cell(5, "scalar", _scale(1.25)),
                     _set_cell(7, "scalar", lambda c: ""),
                     _keep_first_chart, _exit_code(2))),
    "dev2": Workload(
        name="dev2",
        argv=("deviation", "--geometry", "pflat2", "--amp", "0.3", "--alpha", "0.6",
              "--m", "161", "--t-min", "0.015625", "--t-max", "0.125",
              "--t-count", "8"),
        n=2, checker=check_dev2,
        corruptions=(_drop_last_row, _set_cell(2, "t", _scale(1.1)),
                     _set_cell(3, "sec_excess", lambda c: "inf"),
                     _set_cell(1, "t", lambda c: "t"))),
    "lemmas": Workload(
        name="lemmas",
        argv=("lemmas", "--m", "35"),
        n=2, checker=check_lemmas,
        corruptions=(_exit_code(3), _drop_last_row,
                     _set_cell(1, "ratio", lambda c: "1.5"),
                     _set_cell(4, "ratio", lambda c: "n/a"))),
    "norms3": Workload(
        name="norms3",
        argv=("norms", "--geometry", "sphere3", "--m", "33"),
        n=3, checker=check_norms3,
        corruptions=(_replace_value("N0_Q", _scale(1.01)),
                     _replace_value("Q", lambda v: "1.0"),
                     _replace_value("Q", lambda v: ""),
                     _drop_chart("south"))),
}


def self_test(w: Workload, rc: int, data: bytes) -> list:
    """Names of corruptions of a correct output that the checker accepted."""
    missed = []
    for k, corrupt in enumerate(w.corruptions):
        if not w.check(*corrupt(rc, data)):
            missed.append(f"{w.name} corruption {k}")
    return missed
