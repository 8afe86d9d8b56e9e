"""CI diffs every recorded case through tests/recorded.py, which reads the
same lists the tier-1 tests read."""

import sys
from pathlib import Path

from matident.verify import SUITES
from recorded import (
    BENCH_DIR,
    COMPUTE_DIR,
    RECORDED_BENCH,
    RECORDED_COMPUTE,
    RECORDED_VERIFY,
    VERIFY_DIR,
    cases,
    check,
)
from test_cli import _source_env

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_every_recording_file_is_listed():
    for directory, recorded in (
        (COMPUTE_DIR, RECORDED_COMPUTE),
        (BENCH_DIR, RECORDED_BENCH),
        (VERIFY_DIR, RECORDED_VERIFY),
    ):
        assert {path.name for path in directory.glob("*.txt")} == set(recorded)


def test_ci_runs_every_recorded_case_through_the_installed_command():
    steps = WORKFLOW.read_text(encoding="utf-8").splitlines()
    assert "        run: python tests/recorded.py" in steps


def test_ci_diffs_every_suite_above_its_default_sizes_at_its_largest():
    recorded = {(argv[1], int(argv[3])) for argv in RECORDED_VERIFY.values() if argv[2] == "--n"}
    largest = {
        (name, spec.max_n) for name, spec in SUITES.items() if spec.max_n > max(spec.default_ns)
    }
    assert largest == {("thm2", 6), ("thm3", 5), ("thm5", 4), ("cor1", 5), ("polarization", 5)}
    assert largest <= recorded


def test_the_runner_passes_one_case_per_surface_in_fresh_processes(capsys):
    command, env = [sys.executable, "-m", "matident"], _source_env()
    every = cases()
    surfaces = ("compute", "bench", "verify")
    one_each = [next(case for case in every if case[1][0] == surface) for surface in surfaces]
    assert check(command, one_each, env) == 0
    assert capsys.readouterr().out == ""


def test_the_runner_prints_a_diff_for_other_bytes_and_the_stderr_of_a_failed_run(
    tmp_path, capsys
):
    command, env = [sys.executable, "-m", "matident"], _source_env()
    path, argv = next(case for case in cases() if case[1][0] == "verify")
    altered = tmp_path / path.name
    altered.write_bytes(path.read_bytes().replace(b": PASS", b": FAIL", 1))
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    refused = ["verify", "--trials", "0"]
    assert check(command, [(altered, argv), (empty, refused)], env) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"--- {altered}\n+++ stdout of {' '.join(argv)}\n")
    changed = [line for line in out.splitlines() if line[:1] in "-+" and line[1:3] != line[:1] * 2]
    first = next(line for line in path.read_text().splitlines() if ": PASS" in line)
    assert changed == ["-" + first.replace(": PASS", ": FAIL"), "+" + first]
    assert out.endswith("verify --trials 0 exited 2: error: trials must be in 1..1000, got 0\n")
