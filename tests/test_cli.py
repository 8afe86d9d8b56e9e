"""Exit codes, output shapes, and determinism of the command-line surface."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from matident import bench, identities, verify
from matident.bench import CountingRing
from matident.cli import main
from matident.matrices import CubeMatrix
from matident.methods import METHODS
from recorded import BENCH_DIR, COMPUTE_DIR, RECORDED_BENCH, RECORDED_COMPUTE, compute_argv


# Deeper than the JSON reader's recursion limit.
NESTED_SCALAR = "[" * 5000 + "]" * 5000


@pytest.fixture()
def docs(tmp_path):
    paths = {}

    def write(name, payload):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)

    write("m2", {"kind": "matrix", "ring": "rational", "n": 2, "entries": [[1, 2], [3, 4]]})
    m3 = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    write("m3", {"kind": "matrix", "ring": "rational", "n": 3, "entries": m3})
    write("singular", {"kind": "matrix", "ring": "rational", "n": 2, "entries": [[1, 2], [2, 4]]})
    write(
        "symbolic",
        {"kind": "matrix", "ring": "symbolic", "n": 2, "entries": [["a", "b"], ["c", "d"]]},
    )
    write(
        "cube",
        {
            "kind": "cube",
            "ring": "rational",
            "n": 2,
            "entries": [[[1, 2], [3, 4]], [[5, 6], [7, 8]]],
        },
    )
    write(
        "mm",
        {
            "kind": "matrix",
            "ring": "matrix2",
            "n": 2,
            "entries": [
                [[[1, 2], [3, 4]], [[0, 1], [1, 0]]],
                [[[2, 0], [0, 2]], [[1, 1], [0, 1]]],
            ],
        },
    )
    path = tmp_path / "nested.json"
    path.write_text(
        '{"kind": "matrix", "ring": "rational", "n": 1, "entries": ' + NESTED_SCALAR + "}"
    )
    paths["nested"] = str(path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_permanent_identity(docs, capsys):
    code, out, err = run(
        capsys, "compute", "--fn", "per", "--method", "identity", "--gamma", "0,0", docs["m2"]
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "value: 10"
    assert lines[1].startswith("ops: adds=")
    assert "f_evals=0" in lines[1]


def test_compute_prints_the_readme_example(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    entries = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    path.write_text(json.dumps({"kind": "matrix", "ring": "rational", "n": 3, "entries": entries}))
    assert run(capsys, "compute", "--fn", "per", "--method", "identity", str(path)) == (
        0,
        "value: 463\n"
        "ops: adds=29 negs=0 muls=16 power_muls=0 powers=0 int_divs=0 f_evals=0\n",
        "",
    )


def test_compute_value_is_gamma_independent(docs, capsys):
    baseline = run(capsys, "compute", "--fn", "per", "--method", "identity", docs["m2"])
    shifted = run(
        capsys,
        "compute",
        "--fn",
        "per",
        "--method",
        "identity",
        "--gamma",
        "1/2,-3",
        docs["m2"],
    )
    assert baseline[0] == shifted[0] == 0
    assert baseline[1].splitlines()[0] == shifted[1].splitlines()[0] == "value: 10"


def test_compute_permanent_by_polarization(docs, capsys):
    code, out, _ = run(capsys, "compute", "--fn", "per", "--method", "polarization", docs["m3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "value: 450"
    assert lines[1].endswith(" f_evals=8")


def test_compute_refuses_the_space_determinant_above_n_9(tmp_path, capsys, monkeypatch):
    def wrap(real):
        def never(matrix, params, counts):
            raise AssertionError("evaluated")

        return never

    _wrapped_run(monkeypatch, "detp_definitional", wrap)
    path = tmp_path / "c10.json"
    entries = [[[f"{i + j + k}/3" for k in range(10)] for j in range(10)] for i in range(10)]
    path.write_text(json.dumps({"kind": "cube", "ring": "rational", "n": 10, "entries": entries}))
    code, out, err = run(capsys, "compute", "--fn", "detp", "--method", "definitional", str(path))
    assert (code, out) == (2, "")
    assert err == "error: method detp_definitional supports n up to 9, got 10\n"


SYMBOLIC_SIZE_LIMITS = {
    "per_definitional": 8,
    "per_identity": 6,
    "per_ryser": 6,
    "per_polarization": 5,
    "det_definitional": 8,
    "det_identity": 5,
    "eper_definitional": 5,
    "eper_identity": 4,
    "detp_definitional": 5,
    "detp_identity": 5,
}


@pytest.mark.parametrize("method", SYMBOLIC_SIZE_LIMITS)
def test_compute_refuses_a_symbolic_document_above_its_limit(
    tmp_path, capsys, monkeypatch, method
):
    limit = SYMBOLIC_SIZE_LIMITS[method]
    assert bench.METHODS[method].symbolic_max_n == limit

    def wrap(real):
        def never(matrix, params, counts):
            raise AssertionError("evaluated")

        return never

    _wrapped_run(monkeypatch, method, wrap)
    n = limit + 1
    names = iter(f"x{k}" for k in range(n**3))
    if bench.METHODS[method].kind is CubeMatrix:
        entries = [[[next(names) for _ in range(n)] for _ in range(n)] for _ in range(n)]
        kind = "cube"
    else:
        entries = [[next(names) for _ in range(n)] for _ in range(n)]
        kind = "matrix"
    path = tmp_path / "distinct.json"
    path.write_text(json.dumps({"kind": kind, "ring": "symbolic", "n": n, "entries": entries}))
    fn, _, name = method.partition("_")
    code, out, err = run(capsys, "compute", "--fn", fn, "--method", name, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: method {method} supports n up to {limit} over polynomials, got {n}\n"


def _wrapped_run(monkeypatch, method, wrap):
    """Replace one registry entry's run, as the benchmark's tracing does."""
    spec = bench.METHODS[method]
    monkeypatch.setitem(bench.METHODS, method, dataclasses.replace(spec, run=wrap(spec.run)))


def test_compute_runs_the_evaluator_once_uncounted(docs, capsys, monkeypatch):
    rings = []

    def wrap(real):
        def run_spy(matrix, params, counts):
            rings.append(matrix.ring)
            return real(matrix, params, counts)

        return run_spy

    _wrapped_run(monkeypatch, "det_identity", wrap)
    code, out, _ = run(capsys, "compute", "--fn", "det", "--method", "identity", docs["m2"])
    assert code == 0 and out.splitlines()[0] == "value: -2"
    assert len(rings) == 1 and not isinstance(rings[0], CountingRing)


def test_compute_determinant_on_singular_matrix(docs, capsys):
    code, out, _ = run(capsys, "compute", "--fn", "det", "--method", "identity", docs["singular"])
    assert code == 0
    assert out.splitlines()[0] == "value: 0"


def test_compute_symbolic_output_is_canonical(docs, capsys):
    code, out, _ = run(capsys, "compute", "--fn", "per", "--method", "definitional", docs["symbolic"])
    assert code == 0
    assert out.splitlines()[0] == "value: a*d + b*c"


def test_compute_space_determinant(docs, capsys):
    for method in ("definitional", "identity"):
        code, out, _ = run(capsys, "compute", "--fn", "detp", "--method", method, docs["cube"])
        assert code == 0
        assert out.splitlines()[0] == "value: -8"


def test_compute_symmetrized_permanent_with_delta(docs, capsys):
    plain = run(capsys, "compute", "--fn", "eper", "--method", "identity", docs["mm"])
    shifted = run(
        capsys,
        "compute",
        "--fn",
        "eper",
        "--method",
        "identity",
        "--delta",
        "[[1,0],[0,1]]",
        docs["mm"],
    )
    assert plain[0] == shifted[0] == 0
    assert plain[1].splitlines()[0] == shifted[1].splitlines()[0]


def test_compute_prints_pinned_symmetrized_permanents(tmp_path, capsys):
    # The only test that pins printed matrix2 values and their counts.
    path = tmp_path / "mm3.json"
    entries = [
        [[[1, 2], [3, 4]], [[0, 1], [1, 0]], [["1/2", 0], [0, 2]]],
        [[[2, 0], [0, 2]], [[1, 1], [0, 1]], [[0, -1], [1, 0]]],
        [[[1, 0], ["-1/3", 1]], [[3, 1], [1, 2]], [[1, 1], [1, 1]]],
    ]
    path.write_text(json.dumps({"kind": "matrix", "ring": "matrix2", "n": 3, "entries": entries}))
    value = "value: [[10, 271/36], [69/4, 241/12]]\n"
    identity_ops = "ops: adds=120 negs=0 muls=0 power_muls=100 powers=50 int_divs=1 f_evals=0\n"
    definitional_ops = "ops: adds=36 negs=0 muls=72 power_muls=0 powers=0 int_divs=6 f_evals=0\n"
    for method, flags, ops in (
        ("identity", (), identity_ops),
        ("identity", ("--delta", '[["1/2",1],[0,-1]]'), identity_ops),
        ("definitional", (), definitional_ops),
    ):
        argv = ("compute", "--fn", "eper", "--method", method, *flags, str(path))
        assert run(capsys, *argv) == (0, value + ops, "")


def test_compute_prints_a_value_longer_than_the_int_str_digit_cap(tmp_path, capsys):
    # Four 3000-digit entries parse under CPython's 4300-digit cap, but their
    # 5999-digit permanent and determinant do not print under it.
    big = "1" + "0" * 2999
    entries = [[big, big], [big, "2" + "0" * 2999]]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"kind": "matrix", "ring": "rational", "n": 2, "entries": entries}))
    limit = sys.get_int_max_str_digits()
    for fn, method, leading in (("per", "definitional", "3"), ("det", "identity", "1")):
        code, out, err = run(capsys, "compute", "--fn", fn, "--method", method, str(path))
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "value: " + leading + "0" * 5998
        assert sys.get_int_max_str_digits() == limit


def test_an_integer_over_the_digit_limit_exits_2_with_its_position(docs, tmp_path, capsys):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter reads integers of any length")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        long = "1" * 5000
        path = tmp_path / "long.json"
        path.write_text('{"kind":"matrix","ring":"rational","n":1,"entries":[["%s/3"]]}' % long)
        cases = [
            (("per", "definitional", str(path)), "row 1, column 1"),
            (("per", "identity", "--gamma", f"{long},0", docs["m2"]), "--gamma value 1"),
            (("det", "identity", f"--gamma=-1/{long}", docs["m2"]), "--gamma value 1"),
            (("eper", "identity", "--delta", f"[[1,{long}],[0,1]]", docs["mm"]), "--delta"),
        ]
        for (fn, method, *rest), where in cases:
            argv = ("compute", "--fn", fn, "--method", method, *rest)
            message = f"error: {where}: integer has more than 4300 digits\n"
            assert run(capsys, *argv) == (2, "", message), argv
    finally:
        sys.set_int_max_str_digits(limit)


def test_usage_errors_exit_2(docs, capsys):
    cases = [
        ("compute", "--fn", "det", "--method", "ryser", docs["m2"]),
        ("compute", "--fn", "per", "--method", "definitional", "--gamma", "0,0", docs["m2"]),
        ("compute", "--fn", "per", "--method", "identity", "--delta", "1", docs["m2"]),
        ("compute", "--fn", "per", "--method", "identity", "--gamma", "0,0,0", docs["m2"]),
        ("compute", "--fn", "per", "--method", "identity", "--gamma", "zz,1", docs["m2"]),
        ("compute", "--fn", "detp", "--method", "definitional", docs["m2"]),
        ("compute", "--fn", "per", "--method", "definitional", docs["cube"]),
        ("compute", "--fn", "per", "--method", "definitional", docs["mm"]),
        ("compute", "--fn", "per", "--method", "definitional", "/no/such/file.json"),
        ("compute", "--fn", "per", "--method", "definitional", docs["nested"]),
        ("verify", "--suite", "thm4", "--n", "4"),
        ("verify", "--trials", "0"),
        ("bench", "--nmin", "3", "--nmax", "2"),
        ("bench", "--nmax", "9"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


# Shift flags are read as cells of the document they apply to, so each refusal
# is the cell's, positioned by the flag.
@pytest.mark.parametrize(
    "document, flags, message",
    [
        ("m2", ("det", "--gamma="), "--gamma value 1: empty scalar"),
        ("m2", ("per", "--gamma=1,"), "--gamma value 2: empty scalar"),
        ("mm", ("eper", "--delta= "), "--delta: empty scalar"),
        ("m2", ("det", f"--gamma={NESTED_SCALAR}"), "--gamma value 1: nested too deeply"),
        ("mm", ("eper", f"--delta={NESTED_SCALAR}"), "--delta: nested too deeply"),
        ("m2", ("det", "--gamma=zz"), "--gamma value 1: cannot parse 'zz' as a rational"),
        (
            "m2",
            ("det", "--gamma=true"),
            "--gamma value 1: expected an integer or 'p/q' string, got a boolean",
        ),
        ("mm", ("eper", "--delta=[[1,0],[0]]"), "--delta: expected a 2x2 array of rationals"),
        (
            "symbolic",
            ("det", "--gamma=true"),
            "--gamma value 1: expected an integer, 'p/q' string, or variable name, got a boolean",
        ),
        (
            "symbolic",
            ("det", "--gamma=null"),
            "--gamma value 1: expected an integer, 'p/q' string, or variable name, got None",
        ),
        ("mm", ("eper", "--delta=true"), "--delta: expected a 2x2 array of rationals"),
        (
            "mm",
            ("eper", '--delta=[[1,0],[0,"1/0"]]'),
            "--delta, cell (2,2): zero denominator in '1/0'",
        ),
    ],
    ids=[
        "empty",
        "empty-second",
        "blank",
        "nested-gamma",
        "nested-delta",
        "name-on-rational",
        "boolean",
        "ragged",
        "boolean-symbolic",
        "null-symbolic",
        "boolean-matrix2",
        "zero-denominator-cell",
    ],
)
def test_a_malformed_shift_exits_2_with_the_exact_refusal(docs, capsys, document, flags, message):
    fn, flag = flags
    argv = ("compute", "--fn", fn, "--method", "identity", flag, docs[document])
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_per_and_det_on_a_matrix2_document_keep_their_error(docs, capsys):
    # matrix2 requests run on a private integer ring, which keeps MATRIX2's name.
    for fn, name in (("per", "permanent"), ("det", "determinant")):
        expected = f"error: {name} requires a commutative ring, got 2x2 rational matrices\n"
        argv = ("compute", "--fn", fn, "--method", "identity", docs["mm"])
        assert run(capsys, *argv) == (2, "", expected), fn


def test_argparse_failures_map_to_exit_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "compute", "--fn", "nope", "--method", "identity", "x.json")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "--help")[0] == 0


def test_malformed_document_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "matrix"')
    code, _, err = run(capsys, "compute", "--fn", "per", "--method", "definitional", str(path))
    assert code == 2
    assert "invalid JSON" in err


def test_verify_single_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "thm2", "--n", "2", "--trials", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verify: suite=thm2 trials=2 seed=1"
    assert lines[1] == "thm2 n=2: 2/2 ok: PASS"
    assert lines[-1] == "result: PASS (2/2 checks)"


def test_verify_refuses_a_size_above_the_suite_limit_before_printing(capsys):
    code, out, err = run(capsys, "verify", "--suite", "thm4", "--n", "4")
    assert code == 2
    assert out == ""
    assert err == "error: suite thm4 supports n up to 3, got 4\n"


@pytest.fixture
def no_trials(monkeypatch):
    """Fail the test if any verify trial runs."""

    def never(*job):
        raise AssertionError(f"trial {job} was run")

    monkeypatch.setattr(verify, "_run_job", never)


def test_verify_refuses_a_size_below_1_before_running_a_trial(capsys, no_trials):
    assert run(capsys, "verify", "--n", "0") == (2, "", "error: n must be at least 1, got 0\n")
    with pytest.raises(ValueError, match=r"^n must be at least 1, got -1$"):
        verify.run_suites(("thm3",), 1, 1, ns=(-1,))


@pytest.mark.parametrize(
    "names, ns, message",
    [
        (("thm3",), (), "no sizes to run"),
        ((), None, "no suites to run"),
        (("thm3", "nope"), None, "unknown suite 'nope'"),
    ],
)
def test_run_suites_refuses_a_run_that_would_check_nothing(no_trials, names, ns, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify.run_suites(names, 1, 1, ns=ns)


def test_run_suites_refuses_a_repeated_suite_or_size(no_trials):
    # Run again, a repeat would report 4/4 checks for one trial of thm3 n=2.
    with pytest.raises(ValueError, match="^suite 'thm3' is listed twice$"):
        verify.run_suites(("thm3", "thm3"), 1, 1, ns=(2, 2))
    with pytest.raises(ValueError, match="^size 2 is listed twice$"):
        verify.run_suites(("thm2", "thm3"), 1, 1, ns=(2, 3, 2))


def test_verify_runs_at_n_1(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "cor2", "--n", "1", "--trials", "2")
    assert code == 0
    assert out.splitlines()[1] == "cor2 n=1: 2/2 ok: PASS"


def test_verify_output_is_deterministic_in_process(capsys):
    first = run(capsys, "verify", "--suite", "cor1", "--trials", "2", "--seed", "9")
    second = run(capsys, "verify", "--suite", "cor1", "--trials", "2", "--seed", "9")
    assert first == second
    assert first[0] == 0


def test_verify_reports_a_raising_trial_as_a_failure(monkeypatch, capsys):
    def boom(rng, n):
        raise ArithmeticError(f"boom at n={n}")

    raising = dataclasses.replace(verify.SUITES["thm3"], run_trial=boom)
    monkeypatch.setitem(verify.SUITES, "thm3", raising)
    code, out, _ = run(capsys, "verify", "--suite", "thm3", "--n", "2", "--trials", "2")
    assert code == 1
    lines = out.splitlines()
    note = "raised ArithmeticError: boom at n=2"
    assert lines[1] == f"thm3 n=2: 0/2 ok: FAIL [trial 1: {note}; trial 2: {note}]"
    assert lines[-1] == "result: FAIL (0/2 checks)"


@pytest.mark.parametrize(
    "suite, helper, note",
    [
        # The drawn matrix's corner entry is 2/3.
        ("cor1", "_diagonal_residual", "power sum residual 2/3 at exponent 1"),
        (
            "cor2",
            "_signed_submatrix_power_sum",
            "submatrix power sum residual nonzero at exponent 1",
        ),
    ],
)
def test_verify_prints_a_nonzero_corollary_residual_as_a_failure(
    monkeypatch, capsys, suite, helper, note
):
    # A stand-in homogeneous of degree exponent, like the real residual: the
    # corner entry's power.
    def corner_power(matrix, exponent, shift):
        return matrix.ring.power(matrix.entries[0][0], exponent)

    monkeypatch.setattr(identities, helper, corner_power)
    code, out, _ = run(capsys, "verify", "--suite", suite, "--n", "3", "--trials", "1")
    assert code == 1
    assert out == (
        f"verify: suite={suite} trials=1 seed=1\n"
        f"{suite} n=3: 0/1 ok: FAIL [trial 1: {note}]\n"
        "result: FAIL (0/1 checks)\n"
    )


def test_verify_refuses_too_many_trials_before_running_a_trial(capsys, no_trials):
    code, out, err = run(capsys, "verify", "--suite", "thm3", "--n", "2", "--trials", "1001")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    with pytest.raises(ValueError):
        verify.run_suites(("thm3",), 0, 1)


def test_verify_keys_each_trial_stream_by_suite_size_and_trial(monkeypatch, capsys):
    keys = []
    real_derive_rng = verify.derive_rng

    def recording(seed, *labels):
        keys.append((seed, *labels))
        return real_derive_rng(seed, *labels)

    monkeypatch.setattr(verify, "derive_rng", recording)
    code, _, _ = run(capsys, "verify", "--n", "2", "--trials", "2", "--seed", "5")
    assert code == 0
    assert keys == [(5, suite, 2, t) for suite in verify.SUITES for t in (1, 2)]


def _source_env():
    """The environment with this package's source first on PYTHONPATH."""
    source = str(Path(verify.__file__).resolve().parents[1])
    path = [source, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def test_importing_the_cli_does_not_load_multiprocessing():
    # Every verify trial runs in the calling process, so no CLI run needs
    # multiprocessing; importing it would add to every run's start-up.
    script = "import sys, matident.cli; print('multiprocessing' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=_source_env(),
        check=True,
    )
    assert result.stdout == "False\n"


def test_one_process_prints_what_fresh_processes_print(docs, capsys):
    # The argument parser is built once per process and serves every main
    # call, a failed one included.
    env = _source_env()
    requests = [
        ("compute", "--fn", "det", "--method", "identity", "--gamma", "1/2", docs["m3"]),
        ("compute", "--fn", "det", "--method", "gauss", docs["m3"]),
        ("verify", "--suite", "thm3", "--n", "3", "--trials", "2", "--seed", "4"),
    ]
    codes = []
    for argv in requests:
        fresh = subprocess.run(
            [sys.executable, "-m", "matident", *argv], capture_output=True, text=True, env=env
        )
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(fresh.returncode)
    assert codes == [0, 2, 0]


def test_bench_prints_table_and_writes_records(tmp_path, capsys):
    out_path = tmp_path / "rows.jsonl"
    code, out, _ = run(
        capsys, "bench", "--nmin", "2", "--nmax", "3", "--seed", "5", "--out", str(out_path)
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[0] == "method"
    assert len(lines) == 1 + 2 * 5  # two sizes, five methods each
    rows = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert {row["n"] for row in rows} == {2, 3}
    assert all("wall" not in key for row in rows for key in row)


@pytest.mark.parametrize("name", RECORDED_BENCH)
def test_bench_prints_the_recorded_table(name, capsys):
    expected = (BENCH_DIR / name).read_text()
    assert run(capsys, "bench", *RECORDED_BENCH[name]) == (0, expected, "")


@pytest.mark.parametrize("name", RECORDED_COMPUTE)
def test_compute_prints_the_recorded_bytes(name, capsys):
    assert run(capsys, *compute_argv(name)) == (0, (COMPUTE_DIR / name).read_text(), "")


def test_compute_help_prints_the_recorded_method_surface(capsys, monkeypatch):
    # compute_help.txt holds `compute --help` as Python 3.11 prints it at 80
    # columns.  Other versions may wrap the usage line elsewhere, so the text
    # is compared word by word; the two choice lists are pinned exactly.
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, "compute", "--help")
    assert (code, err) == (0, "")
    assert out.split() == (COMPUTE_DIR.parent / "compute_help.txt").read_text().split()
    assert "\n  --fn {per,det,eper,detp}\n" in out
    assert "\n  --method {definitional,identity,ryser,polarization}\n" in out


def test_the_readme_size_limit_table_matches_the_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    header = "| method | limit | at the limit | above the limit | symbolic limit, at it, above it |"
    table = readme.split(header + "\n", 1)[1].split("\n\n", 1)[0]
    listed = []
    for row in table.splitlines()[1:]:
        methods, limit, _, _, symbolic = (cell.strip() for cell in row.strip("|").split("|"))
        for fn, method in re.findall(r"`(\w+) (\w+)`", methods):
            spec = METHODS[f"{fn}_{method}"]
            assert int(limit.split()[0]) == spec.max_n, spec.name
            assert int(symbolic.split(":")[0]) == spec.symbolic_max_n, spec.name
            listed.append(spec.name)
    assert sorted(listed) == sorted(METHODS)


def test_compute_names_a_document_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "compute", "--fn", "per", "--method", "ryser", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: ")


def test_bench_refuses_an_unwritable_out_path_before_printing(tmp_path, capsys):
    out_path = tmp_path / "missing" / "rows.jsonl"
    code, out, err = run(capsys, "bench", "--nmin", "2", "--nmax", "2", "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {out_path}: ")
