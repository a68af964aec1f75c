"""Compare labcli's output under two git revisions.

    python3 tools/cli_diff.py REV_A REV_B

Run from a git checkout.  Each revision is exported with `git archive` into
a temporary directory, and every command line of tests/cli_argv.txt (read
from the working tree) runs under both, one at a time, in a fresh working
directory that holds the revision's examples/ and the README's example.cfg.
Each command line that names no --out runs a second time with
`--out sink.out` appended, so that every subcommand's file sink is compared
as well as its stdout.
The script prints one Markdown row per run: the two exit codes,
and whether stderr, stdout and each file the run wrote are equal; for a
CSV that differs, the differing cells per column with their count and the
largest relative and absolute change.  It changes no program output and
gates nothing: it exits 0 once the table is printed.
"""
from __future__ import annotations

import csv
import io
import math
import os
import shlex
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARGV_LIST = ROOT / "tests" / "cli_argv.txt"
EXAMPLE_CFG = "geometry = sphere2\nm = 81\nt-count = 8\n"  # the README's config example
TIMEOUT_S = 600
SINK = "sink.out"  # the --out file of the second run of an argv without one


def read_argv(path: Path) -> list[str]:
    """The command lines of an argv list: its lines that are neither blank
    nor comments."""
    return [line.strip() for line in path.read_text().splitlines()
            if line.strip() and not line.startswith("#")]


def with_sinks(argvs: list[str]) -> list[str]:
    """The runs of a list of command lines: each command line, followed,
    when it names no --out, by itself with `--out SINK` appended."""
    runs = []
    for argv in argvs:
        runs.append(argv)
        if not any(w == "--out" or w.startswith("--out=") for w in shlex.split(argv)):
            runs.append(f"{argv} --out {SINK}")
    return runs


def export(rev: str, dest: Path) -> None:
    """The tree of `rev`, written into the new directory `dest`."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    dest.mkdir()
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _files(top: Path) -> set:
    return {p.relative_to(top) for p in top.rglob("*") if p.is_file()}


def run_all(tree: Path, argvs: list[str], out: Path, work: Path) -> None:
    """Run each command line under the program in `tree`, in `work`, and
    record run k in out/k: `exit`, `stdout`, `stderr` (with `tree` written
    as <tree>) and, under files/, every file the run wrote."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    for k, argv in enumerate(argvs):
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(tree / "examples", work / "examples")
        (work / "example.cfg").write_text(EXAMPLE_CFG)
        inputs = _files(work)
        proc = subprocess.run([sys.executable, "-m", "mollilab.cli", *shlex.split(argv)],
                              cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S)
        rec = out / str(k)
        (rec / "files").mkdir(parents=True)
        (rec / "exit").write_text(f"{proc.returncode}\n")
        (rec / "stdout").write_bytes(proc.stdout)
        (rec / "stderr").write_bytes(proc.stderr.replace(str(tree).encode(), b"<tree>"))
        for path in sorted(_files(work) - inputs):
            (rec / "files" / path).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(work / path, rec / "files" / path)


def _table(data: bytes):
    """(header, rows) of a CSV with a header of at least two columns and one
    or more rows, all as wide as the header; None for anything else."""
    try:
        rows = list(csv.reader(io.StringIO(data.decode())))
    except (UnicodeDecodeError, csv.Error):
        return None
    if len(rows) < 2 or len(rows[0]) < 2 or any(len(r) != len(rows[0]) for r in rows):
        return None
    return rows[0], rows[1:]


def _number(cell: str):
    try:
        x = float(cell)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def cell_changes(a: bytes, b: bytes):
    """Per column of two CSVs with the same header and row count, the cells
    that differ as text: {column: (count, largest relative change, largest
    absolute change)}, the changes over the cells that are finite numbers on
    both sides (NaN when there are none), the relative one
    |x - y| / max(|x|, |y|).  None when either is not such a CSV or their
    shapes differ."""
    ta, tb = _table(a), _table(b)
    if ta is None or tb is None or ta[0] != tb[0] or len(ta[1]) != len(tb[1]):
        return None
    changes = {}
    for j, name in enumerate(ta[0]):
        pairs = [(ra[j], rb[j]) for ra, rb in zip(ta[1], tb[1]) if ra[j] != rb[j]]
        if not pairs:
            continue
        nums = [(x, y) for x, y in ((_number(p), _number(q)) for p, q in pairs)
                if x is not None and y is not None]
        ab = max((abs(x - y) for x, y in nums), default=math.nan)
        rel = max((abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0 for x, y in nums),
                  default=math.nan)
        changes[name] = (len(pairs), rel, ab)
    return changes


def describe(a: bytes, b: bytes) -> str:
    """'equal', the cell changes of two CSVs (`cell_changes`), or 'differs'."""
    if a == b:
        return "equal"
    changes = cell_changes(a, b)
    if changes is None:
        return "differs"
    return "; ".join(f"{name}: {count} cells, rel {rel:.2g}, abs {ab:.2g}"
                     for name, (count, rel, ab) in changes.items())


def compare(dir_a: Path, dir_b: Path, argvs: list[str]) -> list[str]:
    """The Markdown table of two `run_all` records of the same command lines."""
    rows = ["| argv | exit | stderr | stdout | files |", "|---|---|---|---|---|"]
    for k, argv in enumerate(argvs):
        a, b = dir_a / str(k), dir_b / str(k)
        codes = [(d / "exit").read_text().strip() for d in (a, b)]
        cells = [codes[0] if codes[0] == codes[1] else " vs ".join(codes)]
        cells += [describe((a / s).read_bytes(), (b / s).read_bytes())
                  for s in ("stderr", "stdout")]
        names = sorted(_files(a / "files") | _files(b / "files"))
        files = []
        for name in names:
            pa, pb = a / "files" / name, b / "files" / name
            if pa.is_file() and pb.is_file():
                files.append(f"{name}: {describe(pa.read_bytes(), pb.read_bytes())}")
            else:
                files.append(f"{name}: only under {'A' if pa.is_file() else 'B'}")
        cells.append("; ".join(files) or "none")
        rows.append(f"| `{argv}` | " + " | ".join(cells) + " |")
    return rows


def main(args: list[str]) -> int:
    if len(args) != 2:
        sys.stderr.write("usage: python3 tools/cli_diff.py REV_A REV_B\n")
        return 2
    argvs = with_sinks(read_argv(ARGV_LIST))
    with tempfile.TemporaryDirectory(prefix="cli_diff.") as tmp:
        tmp = Path(tmp)
        for side, rev in zip("AB", args):
            try:
                export(rev, tmp / f"tree_{side}")
            except subprocess.CalledProcessError as exc:
                sys.stderr.write(f"cannot export {rev}: {exc.stderr.decode().strip()}\n")
                return 2
            run_all(tmp / f"tree_{side}", argvs, tmp / f"runs_{side}", tmp / "work")
        print(f"A = {args[0]}, B = {args[1]}, {len(argvs)} runs of the command lines "
              f"of {ARGV_LIST.relative_to(ROOT)}, each without --out run again "
              f"with --out {SINK}\n")
        print("\n".join(compare(tmp / "runs_A", tmp / "runs_B", argvs)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
