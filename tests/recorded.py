"""Every recorded request, and the runner that checks the installed command
against the bytes each one printed.

The three lists below are the only copy: the tier-1 tests run each case in
process (test_cli, test_verify), and CI runs

    python tests/recorded.py

which runs every case through the installed `matident` console script, one
fresh process per case, compares its stdout byte for byte with the recorded
file, prints a unified diff for each case that differs and exits 1 if any
did.
"""

from __future__ import annotations

import difflib
import shlex
import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
COMPUTE_DIR = DATA / "compute_stdout"
BENCH_DIR = DATA / "bench_stdout"
VERIFY_DIR = DATA / "verify_stdout"

# `compute --fn <fn> --method <method> [flags] <document>`: each expected file
# sits beside the document it names.
RECORDED_COMPUTE = {
    "symbolic-det-identity-gamma.txt": ["det", "identity", "--gamma=g", "symbolic.json"],
    # Products of row sums in distinct variables share no monomial.
    "distinct-per-ryser.txt": ["per", "ryser", "distinct.json"],
    "distinct-per-identity.txt": ["per", "identity", "distinct.json"],
    # The definitional sums fold through the packed ring's product_sum, as
    # do the products of row sums below.
    "distinct-det-definitional.txt": ["det", "definitional", "distinct.json"],
    "distinct-per-definitional.txt": ["per", "definitional", "distinct.json"],
    "symbolic_cube-detp-definitional.txt": ["detp", "definitional", "symbolic_cube.json"],
    "symbolic_cube-detp-identity.txt": ["detp", "identity", "symbolic_cube.json"],
    "symbolic-per-identity-gamma.txt": ["per", "identity", "--gamma=g,h,1/2", "symbolic.json"],
    # An odd exponent, 3: the fused power fold's last product is (x*x)*x.
    "symbolic-eper-identity.txt": ["eper", "identity", "symbolic.json"],
    # Row 2 repeats row 1: products share monomials and cancel inside the
    # packed folds.
    "repeated-det-definitional.txt": ["det", "definitional", "repeated.json"],
    "repeated-det-identity.txt": ["det", "identity", "repeated.json"],
    "repeated-per-definitional.txt": ["per", "definitional", "repeated.json"],
    "repeated-per-identity.txt": ["per", "identity", "repeated.json"],
    "repeated-per-ryser.txt": ["per", "ryser", "repeated.json"],
    # Exponents above 1 are printed from their packed bit fields: 2, and 3,
    # which fills its 2-bit field exactly (n = 3, degree 1).
    "squared-det-definitional.txt": ["det", "definitional", "squared.json"],
    "cubed-det-definitional.txt": ["det", "definitional", "cubed.json"],
    "matrix2-eper-identity-delta.txt": [
        "eper",
        "identity",
        '--delta=[[1,"-1/2"],[0,3]]',
        "matrix2.json",
    ],
    "rational-det-definitional.txt": ["det", "definitional", "rational.json"],
    "rational-per-definitional.txt": ["per", "definitional", "rational.json"],
    "rational-det-identity-gamma.txt": ["det", "identity", "--gamma=-3/2", "rational.json"],
    "cube-detp-definitional.txt": ["detp", "definitional", "cube.json"],
    "rational-per-polarization.txt": ["per", "polarization", "rational.json"],
    "matrix2-eper-definitional.txt": ["eper", "definitional", "matrix2.json"],
    "cube-detp-identity.txt": ["detp", "identity", "cube.json"],
    # p/q entries at n = 5: the cube is lifted by a scale above 1 before its
    # sections' columns are picked.
    "frac_cube-detp-definitional.txt": ["detp", "definitional", "frac_cube.json"],
    "frac_cube-detp-identity.txt": ["detp", "identity", "frac_cube.json"],
    # symmetrize folds every ordering with the integer ring's product.
    "rational-eper-definitional.txt": ["eper", "definitional", "rational.json"],
    "rational-eper-identity.txt": ["eper", "identity", "rational.json"],
}

# `bench <argv>`.  Together they pin every counted op count of the compared
# methods up to MAX_BENCH_N.
RECORDED_BENCH = {
    "nmin1-nmax6-seed1.txt": ["--nmin", "1", "--nmax", "6", "--seed", "1"],
    "nmin7-nmax8-seed1.txt": ["--nmin", "7", "--nmax", "8", "--seed", "1"],
}

# `verify <argv>`.  Each file holds the stdout the command printed before each
# trial shared one lift per drawn instance (the first four also before the
# invariant trials were lifted), except thm4-n3, recorded before the trials
# drew their instances as ints.
RECORDED_VERIFY = {
    "all-trials2-seed7.txt": ["--suite", "all", "--trials", "2", "--seed", "7"],
    "cor1-n5-trials2.txt": ["--suite", "cor1", "--n", "5", "--trials", "2"],
    "polarization-n5-trials2.txt": ["--suite", "polarization", "--n", "5", "--trials", "2"],
    "cor2-n3-trials2.txt": ["--suite", "cor2", "--n", "3", "--trials", "2"],
    "thm2-n6-trials2.txt": ["--suite", "thm2", "--n", "6", "--trials", "2"],
    "thm3-n5-trials2.txt": ["--suite", "thm3", "--n", "5", "--trials", "2"],
    "thm5-n4-trials2.txt": ["--suite", "thm5", "--n", "4", "--trials", "2"],
    "thm4-n3-trials2.txt": ["--suite", "thm4", "--n", "3", "--trials", "2"],
}


def compute_argv(name: str) -> list[str]:
    """The command-line arguments of the recorded compute case name."""
    fn, method, *flags, document = RECORDED_COMPUTE[name]
    return ["compute", "--fn", fn, "--method", method, *flags, str(COMPUTE_DIR / document)]


def cases() -> list[tuple[Path, list[str]]]:
    """(recorded file, command-line arguments) of every recorded case."""
    return [
        *((COMPUTE_DIR / name, compute_argv(name)) for name in RECORDED_COMPUTE),
        *((BENCH_DIR / name, ["bench", *argv]) for name, argv in RECORDED_BENCH.items()),
        *((VERIFY_DIR / name, ["verify", *argv]) for name, argv in RECORDED_VERIFY.items()),
    ]


def check(command: list[str], selected, env=None) -> int:
    """Run each selected (recorded file, arguments) case as command plus its
    arguments in a fresh process, and return how many exited nonzero or
    printed other bytes than the file holds; each of those prints its
    unified diff, and a nonzero exit its status and stderr."""
    differing = 0
    for path, argv in selected:
        result = subprocess.run([*command, *argv], capture_output=True, env=env)
        expected = path.read_bytes()
        if result.returncode == 0 and result.stdout == expected:
            continue
        differing += 1
        label = shlex.join(argv)
        sys.stdout.writelines(
            difflib.unified_diff(
                expected.decode().splitlines(keepends=True),
                result.stdout.decode(errors="replace").splitlines(keepends=True),
                str(path),
                f"stdout of {label}",
            )
        )
        if result.returncode:
            stderr = result.stderr.decode(errors="replace")
            print(f"{label} exited {result.returncode}: {stderr}", end="")
    return differing


if __name__ == "__main__":
    every = cases()
    differing = check(["matident"], every)
    print(f"{len(every) - differing}/{len(every)} recorded cases print their recorded bytes")
    sys.exit(1 if differing else 0)
