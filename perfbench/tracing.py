"""Spans recorded at matident's module boundaries, from the benchmark's side.

While `installed(tracer)` is active, the public functions one module calls
in another are rebound to timing wrappers, and every matrix a request works
on is rebound through `with_ring` to a TimingRing that times each ring
operation.  No file of the program changes, and the captured stdout must
stay byte-identical to an untraced run.

A span is a list [name, start, end, parent, request, busy, calls, items]
kept in memory and written out once at the end.  Calls made many times per
request (ring operations, enumerator steps, evaluator calls) are folded into
one aggregate span per (request, parent, name) whose `busy` is the summed
duration of its disjoint calls.  Because children of one parent never
overlap, a span's self time is its busy time minus its children's.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from matident import bench, cli, combinatorics, identities, polarization, sampling, verify
from matident.document import RINGS
from matident.matrices import CubeMatrix, SquareMatrix
from matident.rings import Ring

NAME, START, END, PARENT, REQUEST, BUSY, CALLS, ITEMS = range(8)
FIELDS = ("name", "start", "end", "parent", "request", "busy", "calls", "items")

_RING_LABELS = {id(ring): f"rings.{name}" for name, ring in RINGS.items()}


class Tracer:
    """In-memory span store with a stack of the spans currently open."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self._aggregates: dict[tuple, int] = {}
        self._rings: dict[int, Ring] = {}

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        now = perf_counter()
        self.spans.append([name, now, now, parent, self.request, 0.0, 0, 0])
        return len(self.spans) - 1

    def _aggregate(self, name: str) -> int:
        key = (self.request, self.stack[-1] if self.stack else -1, name)
        index = self._aggregates.get(key)
        if index is None:
            index = self._aggregates[key] = self._open(name)
        return index

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of its own."""
        index = self._open(name)
        record = self.spans[index]
        self.stack.append(index)
        start = record[START] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            record[END] = end
            record[BUSY] = end - start
            record[CALLS] = 1

    def folded(self, name: str, fn, *args, **kwargs):
        """Call fn inside the aggregate span for name under the current span."""
        index = self._aggregate(name)
        record = self.spans[index]
        self.stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            record[END] = end
            record[BUSY] += end - start
            record[CALLS] += 1

    def leaf(self, name: str, start: float) -> None:
        """Fold an interval that began at start and ends now, with no children."""
        end = perf_counter()
        record = self.spans[self._aggregate(name)]
        record[END] = end
        record[BUSY] += end - start
        record[CALLS] += 1

    def stream(self, name: str, iterator):
        """Re-yield iterator, timing each step; the consumer's time is not counted."""
        while True:
            record = self.spans[self._aggregate(name)]
            start = perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                end = perf_counter()
                record[END] = end
                record[BUSY] += end - start
                record[CALLS] += 1
                return
            end = perf_counter()
            record[END] = end
            record[BUSY] += end - start
            record[CALLS] += 1
            record[ITEMS] += 1
            yield item

    def timing_ring(self, base: Ring) -> Ring:
        """A TimingRing over base that also passes base's isinstance checks."""
        ring = self._rings.get(id(base))
        if ring is None:
            cls = type(f"Timing{type(base).__name__}", (TimingRing, type(base)), {})
            label = _RING_LABELS.get(id(base), f"rings.{base.name}")
            ring = self._rings[id(base)] = cls(base, self, label)
        return ring

    def bind(self, obj):
        """The same matrix or cube viewed through a timing ring."""
        if isinstance(obj, (SquareMatrix, CubeMatrix)) and not isinstance(obj.ring, TimingRing):
            return obj.with_ring(self.timing_ring(obj.ring))
        return obj

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(FIELDS, span))) + "\n")


class TimingRing(Ring):
    """Delegates every operation to a base ring and times the arithmetic ones."""

    def __init__(self, base: Ring, tracer: Tracer, label: str):
        self.base = base
        self.name = base.name
        self.commutative = base.commutative
        self._tracer = tracer
        self._label = label

    def zero(self):
        return self.base.zero()

    def one(self):
        return self.base.one()

    def from_int(self, value):
        return self.base.from_int(value)

    def is_element(self, x):
        return self.base.is_element(x)

    def add(self, x, y):
        start = perf_counter()
        value = self.base.add(x, y)
        self._tracer.leaf(self._label, start)
        return value

    def sub(self, x, y):
        start = perf_counter()
        value = self.base.sub(x, y)
        self._tracer.leaf(self._label, start)
        return value

    def neg(self, x):
        start = perf_counter()
        value = self.base.neg(x)
        self._tracer.leaf(self._label, start)
        return value

    def mul(self, x, y):
        start = perf_counter()
        value = self.base.mul(x, y)
        self._tracer.leaf(self._label, start)
        return value

    def eq(self, x, y):
        start = perf_counter()
        value = self.base.eq(x, y)
        self._tracer.leaf(self._label, start)
        return value

    def _div_exact(self, x, k):
        start = perf_counter()
        value = self.base._div_exact(x, k)
        self._tracer.leaf(self._label, start)
        return value


def _public_functions(namespace, source):
    """Names in namespace bound to public functions defined in module source."""
    return [
        name
        for name, value in vars(namespace).items()
        if inspect.isfunction(value)
        and value.__module__ == source.__name__
        and not name.startswith("_")
    ]


@contextmanager
def installed(tracer: Tracer):
    """Rebind matident's module boundaries to tracer wrappers; restore on exit."""
    saved: list[tuple] = []

    def rebind(owner, name, value):
        if isinstance(owner, dict):
            saved.append((owner, name, owner[name]))
            owner[name] = value
        else:
            saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)

    def spanned(name, fn):
        return lambda *args, **kwargs: tracer.span(name, fn, *args, **kwargs)

    def folded(name, fn, bind_result=False):
        if inspect.isgeneratorfunction(fn):
            return lambda *args, **kwargs: tracer.stream(name, fn(*args, **kwargs))
        if bind_result:
            return lambda *args, **kwargs: tracer.bind(tracer.folded(name, fn, *args, **kwargs))
        return lambda *args, **kwargs: tracer.folded(name, fn, *args, **kwargs)

    # Calls across layers, rebound in the namespace that makes them.  A
    # module's calls to itself stay unwrapped (combinatorics and sampling
    # build on their own helpers), except for identities, whose functions
    # bench reaches as `identities.<name>`.
    layers = (
        (identities, (identities, verify)),
        (combinatorics, (identities,)),
        (polarization, (verify,)),
        (sampling, (verify,)),
    )
    for source, namespaces in layers:
        layer = source.__name__.rsplit(".", 1)[-1]
        for namespace in namespaces:
            for name in _public_functions(namespace, source):
                fn = getattr(namespace, name)
                wrapper = folded(f"{layer}.{name}", fn, bind_result=source is sampling)
                rebind(namespace, name, wrapper)

    real_diagonal_function = verify.DiagonalFunction

    def diagonal_function(arity, evaluate):
        def traced(point):
            return tracer.folded("polarization.f_eval", evaluate, point)

        return real_diagonal_function(arity=arity, evaluate=traced)

    rebind(verify, "DiagonalFunction", diagonal_function)

    real_parse = cli.parse_document

    def parse_document(text):
        document = tracer.span("document.parse_document", real_parse, text)
        # Its own span, so that rebinding is charged to no layer.
        return tracer.span(
            "trace.bind",
            lambda: dataclasses.replace(document, content=tracer.bind(document.content)),
        )

    rebind(cli, "parse_document", parse_document)
    rebind(cli, "evaluate_method", spanned("bench.evaluate_method", cli.evaluate_method))
    rebind(cli, "count_ops", spanned("bench.count_ops", cli.count_ops))
    for name, spec in list(bench.METHODS.items()):

        def run(matrix, params, counts, _run=spec.run):
            counted = isinstance(matrix.ring, bench.CountingRing)
            label = "bench.run_counted" if counted else "bench.run"
            return tracer.span(label, _run, matrix, params, counts)

        rebind(bench.METHODS, name, dataclasses.replace(spec, run=run))

    rebind(cli, "run_suites", spanned("verify.run_suites", cli.run_suites))
    rebind(verify, "_run_job", spanned("verify.trial", verify._run_job))
    try:
        yield tracer
    finally:
        for owner, name, value in reversed(saved):
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)


def self_times(spans: list[list]) -> list[float]:
    """Each span's busy time minus the busy time of its children."""
    own = [span[BUSY] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[BUSY]
    return own


def layer_totals(spans: list[list], requests: "set[int] | None" = None) -> dict:
    """Per layer: self seconds, calls and items, summed over the given requests."""
    own = self_times(spans)
    totals: dict = defaultdict(lambda: {"self": 0.0, "busy": 0.0, "calls": 0, "items": 0})
    for span, self_seconds in zip(spans, own):
        if requests is not None and span[REQUEST] not in requests:
            continue
        for key in (span[NAME].split(".", 1)[0], span[NAME]):
            entry = totals[key]
            entry["self"] += self_seconds
            entry["busy"] += span[BUSY]
            entry["calls"] += span[CALLS]
            entry["items"] += span[ITEMS]
    return totals
