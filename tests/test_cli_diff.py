"""Tests for tools/cli_diff.py, the output comparison of two revisions."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cli_diff", ROOT / "tools" / "cli_diff.py")
cli_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_diff)

TABLE = b"chart,node,sec_min,scalar\nnorth,2/2/2,0.25,1.5\nnorth,2/2/3,0.125,6\n"


def _record(top: Path, k: int, stdout: bytes, files: dict, code: int = 0) -> None:
    """Run k of a `run_all` record, as cli_diff.run_all writes it."""
    rec = top / str(k)
    (rec / "files").mkdir(parents=True)
    (rec / "exit").write_text(f"{code}\n")
    (rec / "stdout").write_bytes(stdout)
    (rec / "stderr").write_bytes(b"")
    for name, data in files.items():
        (rec / "files" / name).write_bytes(data)


def test_one_digit_is_one_cell(tmp_path):
    # two records that differ in one digit of one CSV cell, written to
    # stdout in run 0 and to an --out file in run 1; run 2 is equal
    moved = TABLE.replace(b"0.125", b"0.126")
    argvs = ["curvature --geometry sphere3 --m 25", "curvature --out curv.csv", "norms --m 21"]
    a, b = tmp_path / "a", tmp_path / "b"
    for top, table in ((a, TABLE), (b, moved)):
        _record(top, 0, table, {})
        _record(top, 1, b"", {"curv.csv": table})
        _record(top, 2, b"Q=1.5\n", {})
    rows = cli_diff.compare(a, b, argvs)
    assert rows[2] == ("| `curvature --geometry sphere3 --m 25` | 0 | equal | "
                       "sec_min: 1 cells, rel 0.0079, abs 0.001 | none |")
    assert rows[3] == ("| `curvature --out curv.csv` | 0 | equal | equal | "
                       "curv.csv: sec_min: 1 cells, rel 0.0079, abs 0.001 |")
    assert rows[4] == "| `norms --m 21` | 0 | equal | equal | none |"
    count, rel, ab = cli_diff.cell_changes(TABLE, moved)["sec_min"]
    assert (count, rel, ab) == (1, (0.126 - 0.125) / 0.126, 0.126 - 0.125)


def test_exit_codes_text_and_missing_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _record(a, 0, b"Q=1.5\n", {"x.csv": TABLE}, code=0)
    _record(b, 0, b"Q=1.6\n", {}, code=1)
    rows = cli_diff.compare(a, b, ["norms --out x.csv"])
    assert rows[2] == "| `norms --out x.csv` | 0 vs 1 | equal | differs | x.csv: only under A |"


def test_csvs_of_different_shapes_are_not_compared_by_cell():
    assert cli_diff.cell_changes(TABLE, TABLE + b"north,2/2/4,1,2\n") is None
    assert cli_diff.cell_changes(TABLE, TABLE.replace(b"scalar", b"scalar_t")) is None
    assert cli_diff.cell_changes(b"Q=1.5\n", b"Q=1.6\n") is None
    assert cli_diff.describe(TABLE, TABLE) == "equal"
    assert cli_diff.cell_changes(TABLE, TABLE.replace(b"0.25", b"-0.25")) == {
        "sec_min": (1, 2.0, 0.5)}


def test_argv_list_skips_comments_and_blank_lines():
    argvs = cli_diff.read_argv(ROOT / "tests" / "cli_argv.txt")
    assert argvs[0] == "curvature --geometry sphere3 --m 25 --t 0.3"
    assert "curvature --geometry flat3 --m 21" in argvs
    assert not any(a.startswith("#") or not a for a in argvs)


def test_each_argv_without_out_runs_again_into_a_file(tmp_path):
    argvs = ["norms --geometry flat2 --m 21", "lemmas --m 81 --out lemmas.csv",
             "lemmas --m 35 --out=x.csv"]
    assert cli_diff.with_sinks(argvs) == [
        "norms --geometry flat2 --m 21", "norms --geometry flat2 --m 21 --out sink.out",
        "lemmas --m 81 --out lemmas.csv", "lemmas --m 35 --out=x.csv"]
    # the second run writes to the file what the first printed
    runs = cli_diff.with_sinks(["cover-check --geometry sphere2 --m 21"])
    cli_diff.run_all(ROOT, runs, tmp_path / "runs", tmp_path / "work")
    printed = (tmp_path / "runs" / "0" / "stdout").read_bytes()
    assert printed.startswith(b"covered=True\n")
    assert (tmp_path / "runs" / "1" / "stdout").read_bytes() == b""
    assert (tmp_path / "runs" / "1" / "files" / "sink.out").read_bytes() == printed
    rows = cli_diff.compare(tmp_path / "runs", tmp_path / "runs", runs)
    assert rows[3] == ("| `cover-check --geometry sphere2 --m 21 --out sink.out` | 0 | equal | "
                       "equal | sink.out: equal |")
