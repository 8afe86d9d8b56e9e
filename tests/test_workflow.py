"""The CI workflow diffs the installed commands against the recorded bytes that
the tier-1 tests check, case for case."""

import shlex
from pathlib import Path

from matident.verify import SUITES
from test_cli import BENCH_DIR, COMPUTE_DIR, RECORDED_BENCH, RECORDED_COMPUTE
from test_verify import RECORDED, STDOUT_DIR

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _step(name):
    """The shell words of each line of the named workflow step."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    start = lines.index(f"      - name: {name}")
    end = next(
        (i for i in range(start + 1, len(lines)) if lines[i].startswith("      - ")), len(lines)
    )
    return [shlex.split(line, comments=True) for line in lines[start + 1 : end]]


def _checks(name):
    """The (recorded file, arguments) of each check line of the named step."""
    return sorted((words[1], words[2:]) for words in _step(name) if words[:1] == ["check"])


def test_ci_diffs_exactly_the_recorded_compute_cases():
    expected = [
        (name, ["--fn", fn, "--method", method, *flags, f"$docs/{document}"])
        for name, (fn, method, *flags, document) in RECORDED_COMPUTE.items()
    ]
    assert _checks("Installed compute prints the recorded bytes") == sorted(expected)
    assert {path.name for path in COMPUTE_DIR.glob("*.txt")} == set(RECORDED_COMPUTE)


def test_ci_diffs_exactly_the_recorded_verify_cases():
    expected = sorted(RECORDED.items())
    assert _checks("Installed verify prints the recorded bytes") == expected
    assert {path.name for path in STDOUT_DIR.glob("*.txt")} == set(RECORDED)


def test_ci_diffs_every_suite_above_its_default_sizes_at_its_largest():
    recorded = {(argv[1], int(argv[3])) for argv in RECORDED.values() if argv[2] == "--n"}
    largest = {
        (name, spec.max_n) for name, spec in SUITES.items() if spec.max_n > max(spec.default_ns)
    }
    assert largest == {("thm2", 6), ("thm3", 5), ("thm5", 4), ("cor1", 5), ("polarization", 5)}
    assert largest <= recorded


def test_ci_diffs_the_recorded_bench_table():
    words = _step("Installed bench prints the recorded table")
    runs = [line[1:line.index(">")] for line in words if line[:1] == ["matident"]]
    diffed = [line[1] for line in words if line[:1] == ["diff"]]
    expected = [
        (["bench", *argv], f"tests/data/bench_stdout/{name}")
        for name, argv in RECORDED_BENCH.items()
    ]
    assert len(runs) == len(diffed) and list(zip(runs, diffed)) == expected
    assert sorted(path.name for path in BENCH_DIR.iterdir()) == sorted(RECORDED_BENCH)
