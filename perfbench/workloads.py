"""Seeded request cycles for the three workloads, with their output checks.

Every workload is a fixed cycle of `matident` CLI requests built from the
seed alone.  Runs measure whole cycles, so each run sees the same mix of
requests and every request repeats with the same input.

Why these workloads:

- compute-rational: Fraction arithmetic and n!-sized enumeration dominate,
  and each compute request runs its evaluator three times.  Exact integer
  arithmetic, fewer evaluator runs and a flatter enumeration layer show here.
  `det identity` at n=7 (several seconds) is left out so that one request
  does not set the 90th percentile.
- compute-algebraic: the same cli -> bench -> identities path, but the cost
  per operation sits in Poly and MatrixElement objects and printed values
  run to kilobytes.  A Fraction-only fast path or an enumeration change
  should not move it; a shared ring refactor will.
- verify-pool: 54 tiny randomized trials per request across all seven
  suites through the multiprocessing pool, with no document parsing and no op
  counting.  Per-call overhead, sampling and pool dispatch dominate; it is
  the workload that bypasses the compute path.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles
from matident.rings import MatrixElement, Poly

WORKLOADS = ("compute-rational", "compute-algebraic", "verify-pool")

# (fn, method, n) per request kind; each kind appears once per document flavour.
RATIONAL_KINDS = (
    ("det", "identity", 6),
    ("det", "definitional", 7),
    ("per", "identity", 10),
    ("per", "ryser", 10),
    ("per", "definitional", 7),
    ("detp", "identity", 5),
    ("detp", "definitional", 5),
)
SYMBOLIC_KINDS = (
    ("det", "identity", 4),
    ("det", "definitional", 5),
    ("per", "identity", 5),
    ("per", "ryser", 5),
    ("detp", "identity", 3),
    ("detp", "definitional", 3),
)
MATRIX2_KINDS = (
    ("eper", "identity", 4),
    ("eper", "definitional", 4),
    ("eper", "identity", 5),
)

VERIFY_TRIALS = 3
VERIFY_SEEDS_PER_CYCLE = 8
# Default sizes per suite: thm2, thm3, thm4, thm5, cor1, cor2, polarization.
VERIFY_GROUPS = 3 + 3 + 2 + 2 + 3 + 2 + 3

_OPS_RE = re.compile(
    r"ops: adds=(\d+) negs=(\d+) muls=(\d+) power_muls=(\d+) powers=(\d+) "
    r"int_divs=(\d+) f_evals=(\d+)\Z"
)
_OPS_FIELDS = ("adds", "negs", "muls", "power_muls", "powers", "int_divs", "f_evals")


@dataclass(frozen=True)
class Request:
    """One CLI call: its arguments, the worker count it runs with, and its check.

    `check` returns None when the captured stdout is right, else the reason.
    `documents` lists the files the request reads, for the set-up measurement.
    """

    key: str
    argv: tuple[str, ...]
    check: Callable[[str], "str | None"]
    workers: int = 1
    documents: tuple[str, ...] = ()


def parse_ops(stdout: str) -> "dict[str, int] | None":
    """The counts on a compute request's `ops:` line, or None if it is absent."""
    lines = stdout.splitlines()
    match = _OPS_RE.match(lines[-1]) if lines else None
    if match is None:
        return None
    return dict(zip(_OPS_FIELDS, map(int, match.groups())))


def ring_ops(stdout: str) -> int:
    """Ring operations on a compute request's `ops:` line; powers are not ops."""
    counts = parse_ops(stdout)
    return sum(counts[k] for k in ("adds", "negs", "muls", "power_muls", "int_divs"))


def _rational_json(value: Fraction):
    return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


# Entries are nonzero, and symbolic documents keep their constants on the
# diagonal, so that the work per request depends on the seed only a little.


def _rational(rng: random.Random, flavour: str) -> Fraction:
    numerator = rng.choice((-1, 1)) * rng.randint(1, 9)
    return Fraction(numerator, 1 if flavour == "int" else rng.randint(1, 9))


def _rational_square(rng, n, flavour):
    values = [[_rational(rng, flavour) for _ in range(n)] for _ in range(n)]
    return values, [[_rational_json(v) for v in row] for row in values]


def _rational_cube(rng, n, flavour):
    values = [
        [[_rational(rng, flavour) for _ in range(n)] for _ in range(n)] for _ in range(n)
    ]
    data = [[[_rational_json(v) for v in row] for row in section] for section in values]
    return values, data


def _symbolic_cells(rng, cells):
    """Variables named after their (1-based) cell, with integer constants on the diagonal."""
    values, data = [], []
    for cell in cells:
        if len(set(cell)) == 1:
            constant = _rational(rng, "int")
            values.append(Poly.constant(constant))
            data.append(_rational_json(constant))
        else:
            name = "a_" + "_".join(map(str, cell))
            values.append(Poly.variable(name))
            data.append(name)
    return values, data


def _symbolic_square(rng, n):
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    flat_values, flat_data = _symbolic_cells(rng, cells)
    return (
        [flat_values[i * n : (i + 1) * n] for i in range(n)],
        [flat_data[i * n : (i + 1) * n] for i in range(n)],
    )


def _symbolic_cube(rng, n):
    # entries[k][i][j] is row i, column j of section k
    cells = [
        (i, j, k) for k in range(1, n + 1) for i in range(1, n + 1) for j in range(1, n + 1)
    ]
    flat_values, flat_data = _symbolic_cells(rng, cells)
    fold = lambda flat: [
        [flat[(k * n + i) * n : (k * n + i + 1) * n] for i in range(n)] for k in range(n)
    ]
    return fold(flat_values), fold(flat_data)


def _matrix2_element(rng):
    cells = [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(2)] for _ in range(2)]
    return MatrixElement(cells), cells


def _matrix2_square(rng, n):
    pairs = [[_matrix2_element(rng) for _ in range(n)] for _ in range(n)]
    return (
        [[value for value, _ in row] for row in pairs],
        [[data for _, data in row] for row in pairs],
    )


def _compute_check(fn: str, method: str, n: int, expected_value: str) -> Callable:
    expected = oracles.expected_counts(fn, method, n)

    def check(stdout: str) -> "str | None":
        lines = stdout.splitlines()
        if len(lines) != 2 or not stdout.endswith("\n"):
            return f"expected two lines, got {len(lines)}"
        if lines[0] != f"value: {expected_value}":
            return f"value mismatch: got {lines[0][:80]!r}"
        counts = parse_ops(stdout)
        if counts is None:
            return f"malformed ops line {lines[1]!r}"
        wrong = [f"{k}={counts[k]} (want {v})" for k, v in expected.items() if counts[k] != v]
        return "count mismatch: " + ", ".join(wrong) if wrong else None

    return check


def _verify_check(seed: int, trials: int) -> Callable:
    checks = VERIFY_GROUPS * trials

    def check(stdout: str) -> "str | None":
        lines = stdout.splitlines()
        if len(lines) != VERIFY_GROUPS + 2:
            return f"expected {VERIFY_GROUPS + 2} lines, got {len(lines)}"
        if lines[0] != f"verify: suite=all trials={trials} seed={seed}":
            return f"bad header {lines[0]!r}"
        if not all(line.endswith(f": {trials}/{trials} ok: PASS") for line in lines[1:-1]):
            return "a suite group did not pass"
        if lines[-1] != f"result: PASS ({checks}/{checks} checks)":
            return f"bad verdict {lines[-1]!r}"
        return None

    return check


def _compute_request(workdir: Path, key, fn, method, n, ring, kind, data, value, extra=()):
    path = workdir / f"{key}.json"
    document = {"kind": kind, "ring": ring, "n": n, "entries": data}
    path.write_text(json.dumps(document), encoding="utf-8")
    reference = str(oracles.reference_value(fn, ring, value))
    argv = ("compute", "--fn", fn, "--method", method, *extra, str(path))
    return Request(key, argv, _compute_check(fn, method, n, reference), documents=(str(path),))


def _compute_rational(rng, workdir):
    requests = []
    for flavour in ("int", "frac"):
        for fn, method, n in RATIONAL_KINDS:
            if fn == "detp":
                value, data = _rational_cube(rng, n, flavour)
                kind = "cube"
            else:
                value, data = _rational_square(rng, n, flavour)
                kind = "matrix"
            extra = ()
            # A third of the identity requests carry shifts: det on integer
            # documents and per on p/q documents.
            if method == "identity" and (fn, flavour) in (("det", "int"), ("per", "frac")):
                count = 1 if fn == "det" else n
                shifts = [_rational_json(_rational(rng, "frac")) for _ in range(count)]
                extra = ("--gamma=" + ",".join(map(str, shifts)),)
            key = f"{fn}-{method}-n{n}-{flavour}"
            requests.append(
                _compute_request(workdir, key, fn, method, n, "rational", kind, data, value, extra)
            )
    return requests


def _compute_algebraic(rng, workdir):
    requests = []
    for fn, method, n in SYMBOLIC_KINDS:
        if fn == "detp":
            value, data = _symbolic_cube(rng, n)
            kind = "cube"
        else:
            value, data = _symbolic_square(rng, n)
            kind = "matrix"
        key = f"{fn}-{method}-n{n}-symbolic"
        requests.append(
            _compute_request(workdir, key, fn, method, n, "symbolic", kind, data, value)
        )
    for index, (fn, method, n) in enumerate(MATRIX2_KINDS):
        value, data = _matrix2_square(rng, n)
        extra = ()
        if index == 0:
            _, delta = _matrix2_element(rng)
            extra = ("--delta=" + json.dumps(delta, separators=(",", ":")),)
        key = f"{fn}-{method}-n{n}-matrix2" + ("-delta" if extra else "")
        requests.append(
            _compute_request(workdir, key, fn, method, n, "matrix2", "matrix", data, value, extra)
        )
    return requests


def _verify_pool(rng, workers):
    requests = []
    for _ in range(VERIFY_SEEDS_PER_CYCLE):
        seed = rng.randrange(1, 2**31)
        argv = ("verify", "--suite", "all", "--trials", str(VERIFY_TRIALS), "--seed", str(seed))
        requests.append(
            Request(f"verify-seed{seed}", argv, _verify_check(seed, VERIFY_TRIALS), workers)
        )
    return requests


def build_cycle(workload: str, seed: int, workdir: Path, workers: int) -> list[Request]:
    """The workload's request cycle for this seed; documents go under workdir."""
    rng = random.Random(f"{seed}:{workload}")
    if workload == "compute-rational":
        return _compute_rational(rng, workdir)
    if workload == "compute-algebraic":
        return _compute_algebraic(rng, workdir)
    if workload == "verify-pool":
        return _verify_pool(rng, workers)
    raise ValueError(f"unknown workload {workload!r}")
