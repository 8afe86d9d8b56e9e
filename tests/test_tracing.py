"""The benchmark's traced mode must leave CLI output untouched.

perfbench/tracing.py rebinds module boundaries (cli.parse_document,
cli.count_ops, the method registry's entries through bench.METHODS,
verify._run_job, ...) and views every matrix through a timing ring that
subclasses the ring type.  A refactor that renames one of those boundaries
or changes how rings are built breaks the benchmark's per-layer mode; these
tests catch that without running it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from matident.cli import main
from matident.identities import symmetrized_permanent
from matident.matrices import SquareMatrix
from matident.rings import MATRIX2, RATIONAL

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def docs(tmp_path):
    rational = {
        "kind": "matrix",
        "ring": "rational",
        "n": 3,
        "entries": [[2, "1/2", -1], [3, 4, 5], [-6, 7, "8/3"]],
    }
    matrix2 = {
        "kind": "matrix",
        "ring": "matrix2",
        "n": 2,
        "entries": [
            [[[1, 2], [3, 4]], [[0, 1], [1, 0]]],
            [[[2, 0], [0, 2]], [[1, 1], [0, 1]]],
        ],
    }
    paths = {}
    for name, payload in (("rational", rational), ("matrix2", matrix2)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    return paths


def _stdout(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_traced_runs_print_what_untraced_runs_print(tracing, docs, capsys, monkeypatch):
    det = ["compute", "--fn", "det", "--method", "identity", "--gamma=-3/2"]
    eper = ["compute", "--fn", "eper", "--method", "identity", "--delta", "[[1,0],[0,2]]"]
    requests = [det + [docs["rational"]], eper + [docs["matrix2"]], ["verify", "--trials", "1"]]
    plain = [_stdout(capsys, argv) for argv in requests]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = [_stdout(capsys, argv) for argv in requests]
    assert [code for code, _ in plain] == [0, 0, 0]
    assert traced == plain
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"document.parse_document", "bench.count_ops", "verify.trial"} <= names
    # Every request runs on its lifted twin, whose ring is not rebound, so
    # the parsed and drawn rings do no arithmetic in these runs; their
    # timing rings must still time what runs on them.
    assert not any(name.startswith("rings.") for name in names)
    with tracing.installed(tracer):
        for ring in (RATIONAL, MATRIX2):
            symmetrized_permanent(tracer.bind(SquareMatrix(ring, [[1, 2], [3, 4]])))
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"rings.rational", "rings.matrix2"} <= names
    # Both compute requests run their registry entry once, plainly, and
    # take their counts from the closed forms.  If bench.METHODS were a copy
    # of the registry, its traced entries would never run and these spans
    # would be missing.
    runs = [
        (span[tracing.NAME], tracer.spans[span[tracing.PARENT]][tracing.NAME])
        for span in tracer.spans
        if span[tracing.NAME] in ("bench.run", "bench.run_counted")
    ]
    assert runs.count(("bench.run", "bench.evaluate_method")) == 2
    assert runs.count(("bench.run_counted", "bench.count_ops")) == 0
    # Only generator functions are traced as streams with per-item counts.
    for stream in ("enumerate_transpositions", "enumerate_gray_steps"):
        spans = [s for s in tracer.spans if s[tracing.NAME] == f"combinatorics.{stream}"]
        assert sum(span[tracing.ITEMS] for span in spans) > 0, stream
