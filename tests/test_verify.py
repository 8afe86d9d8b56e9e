"""Every verify trial builds each instance it draws once on exact integers,
hands on the recorded instances, keeps its verdicts and notes, and prints the
recorded bytes."""

import dataclasses
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from matident import methods, rings, verify
from matident.cli import main
from matident.identities import (
    determinant,
    determinant_zero_criterion,
    diagonal_power_residual,
    permanent,
    submatrix_power_residual,
    symmetrized_permanent_zero_criterion,
)
from matident.matrices import SquareMatrix
from matident.methods import METHODS, lift
from matident.polarization import DiagonalFunction
from matident.rings import MATRIX2, RATIONAL, MatrixElement
from matident.sampling import (
    derive_rng,
    random_integer_cube,
    random_integer_matrix,
    random_matrix2_element,
    random_matrix2_matrix,
    random_rational,
    random_rational_matrix,
    singular_matrix,
)
from oracles import (
    brute_permanent,
    brute_space_determinant,
    brute_symmetrized_permanent,
    gauss_determinant,
)
from recorded import RECORDED_VERIFY, VERIFY_DIR


@pytest.mark.parametrize("name", RECORDED_VERIFY)
def test_verify_prints_the_recorded_bytes(name, capsys, monkeypatch):
    assert main(["verify", *RECORDED_VERIFY[name]]) == 0
    assert capsys.readouterr().out == (VERIFY_DIR / name).read_text()


def test_invariant_trials_reach_the_evaluators_on_exact_integers(monkeypatch):
    seen = []

    def spy(name):
        real = getattr(verify, name)

        def recording(matrix, *args):
            seen.append((name, {type(x) for row in matrix.entries for x in row}))
            if name.startswith(("submatrix", "symmetrized")):
                assert all(len(x) == 4 for row in matrix.entries for x in row)
            return real(matrix, *args)

        monkeypatch.setattr(verify, name, recording)

    for name in (
        "diagonal_power_residual",
        "submatrix_power_residual",
        "determinant_zero_criterion",
        "symmetrized_permanent_zero_criterion",
        "permanent",
    ):
        spy(name)
    expected = {
        "cor1": ({"diagonal_power_residual", "determinant_zero_criterion"}, int),
        "cor2": ({"submatrix_power_residual", "symmetrized_permanent_zero_criterion"}, tuple),
        "polarization": ({"permanent"}, int),
    }
    for suite, (names, element) in expected.items():
        for n in (1, 2, 3):
            seen.clear()
            assert verify._run_job((suite, n, 1, 1)) == (True, "")
            # At n = 1 there is no residual below degree n to check.
            called = {name for name in names if n > 1 or "residual" not in name}
            assert {name for name, _ in seen} == called, (suite, n)
            assert all(types == {element} for _, types in seen), (suite, n, seen)


def test_a_failing_cor1_note_prints_the_residual_of_the_matrix_as_drawn(monkeypatch, capsys):
    # A stand-in residual homogeneous of degree t, like the real one: the
    # t-th power of the first row's sum.  On the lifted matrix it is c**t
    # times larger, so the note must not print that value.
    def first_row_power(matrix, t):
        ring = matrix.ring
        return ring.power(ring.sum(matrix.entries[0]), t)

    monkeypatch.setattr(verify, "diagonal_power_residual", first_row_power)
    assert main(["verify", "--suite", "cor1", "--n", "3", "--trials", "1"]) == 1
    drawn = random_rational_matrix(derive_rng(1, "cor1", 3, 1), 3)
    residual = first_row_power(drawn, 1)
    assert residual.denominator > 1
    assert capsys.readouterr().out == (
        "verify: suite=cor1 trials=1 seed=1\n"
        f"cor1 n=3: 0/1 ok: FAIL [trial 1: power sum residual {residual} at exponent 1]\n"
        "result: FAIL (0/1 checks)\n"
    )


def _corner_power_when_singular(matrix, t):
    """The real residual, but on a singular matrix the t-th power of its
    corner entry; singularity survives the lift, so both see the same."""
    ring = matrix.ring
    if ring.is_zero(determinant(matrix)):
        return ring.power(matrix.entries[0][0], t)
    return diagonal_power_residual(matrix, t)


def _singular_corner_note(n):
    rng = derive_rng(1, "cor1", n, 1)
    random_rational_matrix(rng, n)
    residual = _corner_power_when_singular(singular_matrix(rng, n), 1)
    assert residual
    return f"power sum residual {residual} at exponent 1 on a singular matrix"


def _reconstruction_note(n):
    # The diagonal is doubled, so polarize rebuilds twice the permanent.
    value = permanent(random_rational_matrix(derive_rng(1, "polarization", n, 1), n))
    assert value and value.denominator > 1
    return f"reconstruction gave {2 * value} at shift 0, expected {value}"


def _evaluated_twice(arity, evaluate):
    """A DiagonalFunction that calls evaluate twice per point, same value."""
    return DiagonalFunction(arity, lambda point: (evaluate(point), evaluate(point))[1])


# (suite, n, the name patched in verify, its stand-in, the note or the
# function of n that gives it)
FAILURE_NOTES = [
    (
        "cor1",
        3,
        "determinant_zero_criterion",
        lambda matrix: True,
        "zero criterion disagrees with the determinant",
    ),
    ("cor1", 3, "diagonal_power_residual", _corner_power_when_singular, _singular_corner_note),
    (
        "cor1",
        3,
        "determinant_zero_criterion",
        lambda matrix: False,
        "zero criterion missed a singular matrix",
    ),
    (
        "cor2",
        2,
        "symmetrized_permanent_zero_criterion",
        lambda matrix: True,
        "zero criterion disagrees with the definitional value",
    ),
    (
        "cor2",
        2,
        "_vanishing_symmetrized_instance",
        random_matrix2_matrix,
        "constructed instance was not actually zero",
    ),
    (
        "cor2",
        2,
        "symmetrized_permanent_zero_criterion",
        lambda matrix: False,
        "zero criterion missed a vanishing instance",
    ),
    (
        "polarization",
        3,
        "permanent",
        lambda matrix: matrix.ring.add(permanent(matrix), permanent(matrix)),
        _reconstruction_note,
    ),
    (
        "polarization",
        3,
        "DiagonalFunction",
        _evaluated_twice,
        "made 16 diagonal evaluations, expected 8",
    ),
]


@pytest.mark.parametrize(
    "suite, n, name, stand_in, note",
    FAILURE_NOTES,
    ids=[f"{case[0]}-{case[2]}-{i}" for i, case in enumerate(FAILURE_NOTES)],
)
def test_each_invariant_failure_prints_its_note(
    monkeypatch, capsys, suite, n, name, stand_in, note
):
    monkeypatch.setattr(verify, name, stand_in)
    assert main(["verify", "--suite", suite, "--n", str(n), "--trials", "1"]) == 1
    note = note(n) if callable(note) else note
    assert capsys.readouterr().out == (
        f"verify: suite={suite} trials=1 seed=1\n"
        f"{suite} n={n}: 0/1 ok: FAIL [trial 1: {note}]\n"
        "result: FAIL (0/1 checks)\n"
    )


# Where a trial hands an instance on besides the registry: the identities
# functions and polarize, as verify's namespace binds them.
_HANDOFFS = (
    "diagonal_power_residual",
    "submatrix_power_residual",
    "determinant_zero_criterion",
    "symmetrized_permanent_zero_criterion",
    "permanent",
    "polarize",
)


def _spy_handoffs(monkeypatch, record):
    """Call record(name, first argument, the rest) before every registry run
    (the rest is its params) and every call of a _HANDOFFS name in verify."""
    for method, spec in METHODS.items():

        def run(obj, params, counts, _method=method, _run=spec.run):
            record(_method, obj, params)
            return _run(obj, params, counts)

        monkeypatch.setitem(METHODS, method, dataclasses.replace(spec, run=run))
    for name in _HANDOFFS:

        def handoff(obj, *args, _name=name, _real=getattr(verify, name)):
            record(_name, obj, args)
            return _real(obj, *args)

        monkeypatch.setattr(verify, name, handoff)


def test_each_trial_lifts_each_instance_it_draws_once(monkeypatch):
    # Each trial builds each instance it draws once, on the private integer
    # ring of its entries, and hands that one object to every run; it never
    # goes through methods.lift.
    handed = []

    def record(name, obj, rest):
        # polarize takes columns, and permanent polarization's diagonal points.
        if name not in ("permanent", "polarize"):
            handed.append(obj)

    def forbidden(*args):
        raise AssertionError("methods.lift called")

    _spy_handoffs(monkeypatch, record)
    monkeypatch.setattr(methods, "lift", forbidden)
    assert not hasattr(verify, "lift")
    per_trial = {"cor1": 2, "cor2": 2}
    for suite in verify.SUITES:
        ring = rings._INTEGER_MATRIX if suite in ("thm4", "cor2") else rings._INTEGER
        for n in (2, 3):
            handed.clear()
            assert verify._run_job((suite, n, 1, 1)) == (True, "")
            instances = {id(obj): obj for obj in handed}.values()
            assert len(instances) == per_trial.get(suite, 1), (suite, n)
            assert all(obj.ring is ring for obj in instances), (suite, n)


def test_a_failing_agreement_note_prints_the_values_as_drawn(monkeypatch, capsys):
    # Twice the value is homogeneous of degree n like the value, so the note
    # does not depend on the scale.  thm3's shifts have denominators, so the
    # one scale of the trial's lift is not the one its first run would take
    # alone.
    spec = METHODS["det_identity"]

    def doubled(matrix, params, counts):
        value = spec.run(matrix, params, counts)
        return matrix.ring.add(value, value)

    monkeypatch.setitem(METHODS, "det_identity", dataclasses.replace(spec, run=doubled))
    assert main(["verify", "--suite", "thm3", "--n", "3", "--trials", "1"]) == 1
    drawn = random_rational_matrix(derive_rng(1, "thm3", 3, 1), 3)
    value = gauss_determinant(drawn.entries)
    assert value and value.denominator > 1
    params = "{'gamma': Fraction(0, 1)}"
    note = f"det_identity({params}) gave {2 * value}, det_definitional gave {value}"
    assert capsys.readouterr().out == (
        "verify: suite=thm3 trials=1 seed=1\n"
        f"thm3 n=3: 0/1 ok: FAIL [trial 1: {note}]\n"
        "result: FAIL (0/1 checks)\n"
    )


def _singular_rational_matrix(rng, n):
    """A p/q matrix with one row a p/q multiple of another."""
    if n == 1:
        return SquareMatrix(RATIONAL, [[Fraction(0)]])
    rows = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
    source, target = rng.sample(range(n), 2)
    scale = random_rational(rng)
    rows[target] = [scale * value for value in rows[source]]
    return SquareMatrix(RATIONAL, rows)


def test_the_lift_keeps_every_diagonal_residual_and_criterion_zero_or_not():
    criteria = set()
    for n in range(1, 6):
        rng = derive_rng(50, "zero-ness", n)
        matrices = [random_rational_matrix(rng, n) for _ in range(2)]
        matrices += [_singular_rational_matrix(rng, n), singular_matrix(rng, n)]
        for matrix in matrices:
            lifted = lift(matrix)[0]
            for t in range(1, n + 1):
                zero = RATIONAL.is_zero(diagonal_power_residual(matrix, t))
                assert lifted.ring.is_zero(diagonal_power_residual(lifted, t)) == zero
            criterion = determinant_zero_criterion(matrix)
            assert determinant_zero_criterion(lifted) == criterion
            criteria.add(criterion)
    assert criteria == {True, False}


def test_the_lift_keeps_every_submatrix_residual_and_criterion_zero_or_not():
    criteria = set()
    for n in range(1, 4):
        rng = derive_rng(51, "zero-ness", n)
        cell = lambda: MatrixElement([[random_rational(rng) for _ in range(2)] for _ in range(2)])
        rational_cells = SquareMatrix(MATRIX2, [[cell() for _ in range(n)] for _ in range(n)])
        matrices = [
            random_matrix2_matrix(rng, n),
            rational_cells,
            verify._vanishing_symmetrized_instance(rng, n),
        ]
        for matrix in matrices:
            lifted = lift(matrix)[0]
            for m in range(1, n + 1):
                zero = MATRIX2.is_zero(submatrix_power_residual(matrix, m))
                assert lifted.ring.is_zero(submatrix_power_residual(lifted, m)) == zero
            criterion = symmetrized_permanent_zero_criterion(matrix)
            assert symmetrized_permanent_zero_criterion(lifted) == criterion
            criteria.add(criterion)
    assert criteria == {True, False}


def _doubled_when(method, shifted):
    """METHODS[method] with a run that doubles its value when shifted(params)
    holds; twice a value is homogeneous of degree n like the value."""
    spec = METHODS[method]

    def doubled(matrix, params, counts):
        value = spec.run(matrix, params, counts)
        return matrix.ring.add(value, value) if shifted(params) else value

    return dataclasses.replace(spec, run=doubled)


def _failing_report(monkeypatch, capsys, suite, n, method, shifted):
    monkeypatch.setitem(METHODS, method, _doubled_when(method, shifted))
    assert main(["verify", "--suite", suite, "--n", str(n), "--trials", "1"]) == 1
    return capsys.readouterr().out


def test_a_failing_thm2_note_prints_the_shift_vector_as_drawn(monkeypatch, capsys):
    # The zero shift runs first and passes, so the note shows the first
    # random vector of Fractions, not its lifted ints.
    shifted = lambda params: any(params["gammas"])
    out = _failing_report(monkeypatch, capsys, "thm2", 3, "per_identity", shifted)
    rng = derive_rng(1, "thm2", 3, 1)
    drawn = random_integer_matrix(rng, 3)
    gammas = tuple(random_rational(rng) for _ in range(3))
    assert any(gamma.denominator > 1 for gamma in gammas)
    assert all(type(value) is Fraction for row in drawn.entries for value in row)
    value = brute_permanent(drawn.entries)
    note = f"per_identity({ {'gammas': gammas} }) gave {2 * value}, per_definitional gave {value}"
    assert out == (
        "verify: suite=thm2 trials=1 seed=1\n"
        f"thm2 n=3: 0/1 ok: FAIL [trial 1: {note}]\n"
        "result: FAIL (0/1 checks)\n"
    )


def test_a_failing_thm4_note_prints_the_shift_element_as_drawn(monkeypatch, capsys):
    # The lifted delta is a tuple of cells; the zero one runs first and passes.
    shifted = lambda params: any(params["delta"])
    out = _failing_report(monkeypatch, capsys, "thm4", 2, "eper_identity", shifted)
    rng = derive_rng(1, "thm4", 2, 1)
    drawn = random_matrix2_matrix(rng, 2)
    delta = random_matrix2_element(rng)
    assert delta != MATRIX2.zero()
    value = brute_symmetrized_permanent(drawn.entries)
    params = {"delta": delta}
    note = f"eper_identity({params}) gave {value + value}, eper_definitional gave {value}"
    assert out == (
        "verify: suite=thm4 trials=1 seed=1\n"
        f"thm4 n=2: 0/1 ok: FAIL [trial 1: {note}]\n"
        "result: FAIL (0/1 checks)\n"
    )


def test_a_failing_thm5_note_prints_the_value_of_the_cube_as_drawn(monkeypatch, capsys):
    out = _failing_report(monkeypatch, capsys, "thm5", 3, "detp_identity", lambda p: True)
    cube = random_integer_cube(derive_rng(1, "thm5", 3, 1), 3)
    value = brute_space_determinant(cube.sections)
    assert value and type(value) is Fraction
    note = f"detp_identity({ {} }) gave {2 * value}, detp_definitional gave {value}"
    assert out == (
        "verify: suite=thm5 trials=1 seed=1\n"
        f"thm5 n=3: 0/1 ok: FAIL [trial 1: {note}]\n"
        "result: FAIL (0/1 checks)\n"
    )


INSTANCES_PATH = Path(__file__).resolve().parent / "data" / "verify_instances.json"


def _container(obj):
    rows = obj.entries if isinstance(obj, SquareMatrix) else obj.sections
    return (type(obj).__name__, type(obj.ring).__name__, rows)


def _instance_digests(monkeypatch) -> dict:
    """Per suite and n (its default sizes and its max_n), the sha256 of every
    instance and every set of lifted params that the trials of seeds 1-3
    and trials 1-3 hand to the registry, to polarize or to an identities
    function, in the order they hand them on."""
    records = []

    def record(name, obj, rest):
        if name == "polarize":
            columns, gammas, ring = rest
            records.append((name, type(ring).__name__, columns, gammas))
        elif name in METHODS:
            records.append((name, _container(obj), sorted(rest.items())))
        else:
            records.append((name, _container(obj), rest))

    _spy_handoffs(monkeypatch, record)
    digests = {}
    for suite, spec in verify.SUITES.items():
        for n in sorted({*spec.default_ns, spec.max_n}):
            records.clear()
            for seed in (1, 2, 3):
                for trial in (1, 2, 3):
                    assert verify._run_job((suite, n, seed, trial)) == (True, ""), (suite, n)
            digests[f"{suite} n={n}"] = hashlib.sha256(repr(records).encode()).hexdigest()
    return digests


def test_every_trial_hands_on_the_recorded_instances(monkeypatch):
    assert _instance_digests(monkeypatch) == json.loads(INSTANCES_PATH.read_text())


@pytest.mark.parametrize("bound", [3, 9])
def test_randrange_draws_the_integers_randint_draws(bound):
    # The trials draw with randrange; every recorded seed was drawn with randint.
    for seed in range(200):
        drawn, expected = derive_rng(seed, "draw", bound), derive_rng(seed, "draw", bound)
        for _ in range(50):
            assert drawn.randrange(2 * bound + 1) - bound == expected.randint(-bound, bound)
            assert drawn.randrange(9) + 1 == expected.randint(1, 9)
