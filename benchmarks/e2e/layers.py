"""Per-layer tracing for the end-to-end benchmark.

The benchmark measures ``repro`` from the outside: for a traced pass it
patches the public entry points of each layer (``core``, ``etsc``,
``tsc``, ``transform``, ``stats`` with its kernel backends, ``serve``)
with wrappers that open a span, and restores the originals afterwards.
No file under ``src/`` changes. Spans go through a
:class:`repro.obs.trace.Tracer`, installed as the process-wide tracer, so
the program's own ``grid``/``cell``/``fold``/``fit``/``predict``/``push``
spans nest with the benchmark's.

A layer's *self time* is its spans' duration minus the part covered by
child spans. Program spans are not layers: their self time is charged to
the nearest enclosing layer span (a ``push`` span inside
``serve.session.push`` is serving bookkeeping, a ``fold`` span inside
``core.evaluation.evaluate`` is evaluation bookkeeping). The benchmark's
own root span, :data:`ROOT`, collects whatever no layer covers.
"""

from __future__ import annotations

import functools
import threading
import time
from time import perf_counter
from typing import Any, Callable, Iterable

from repro.obs.trace import STATUS_ERROR, STATUS_OK, Tracer

#: The benchmark's root span around one traced pass.
ROOT = "bench.loop"

#: Every layer entry point, in report order. The names are the per-layer
#: metric prefixes declared in BENCHMARK.json.
LAYERS = (
    "core.runner.run",
    "core.evaluation.evaluate",
    "core.voting.train",
    "core.voting.predict",
    "etsc.train",
    "etsc.predict",
    "etsc.predict_one",
    "tsc.weasel.train",
    "tsc.weasel.predict",
    "tsc.weasel.predict_proba",
    "tsc.minirocket.train",
    "tsc.minirocket.predict",
    "tsc.minirocket.predict_proba",
    "tsc.mlstm_fcn.train",
    "tsc.mlstm_fcn.predict",
    "tsc.mlstm_fcn.predict_proba",
    "transform.bop.fit",
    "transform.bop.transform",
    "transform.sfa.fit",
    "transform.sfa.transform_words",
    "stats.linear.fit",
    "stats.linear.predict_proba",
    "stats.svm.fit",
    "stats.svm.predict",
    "stats.feature_selection.fit",
    "stats.boosting.fit",
    "stats.boosting.predict_proba",
    "stats.kmeans.fit",
    "stats.backends.dtw",
    "stats.backends.dtw_matrix",
    "stats.backends.sliding_window",
    "stats.backends.shapelet_match",
    "stats.backends.prefix_step",
    "stats.backends.kmeans_update",
    "stats.backends.pairwise_sqeuclidean",
    "serve.session.push",
)

_MISSING = object()


#: ``time.time() - perf_counter()``: places a perf_counter reading on the
#: epoch without a second clock read per span.
_UNIX_OFFSET = time.time() - perf_counter()


class _LayerSpan:
    """The span of one call into a layer entry point.

    It carries what :func:`repro.obs.events.span_to_record` writes and what
    program code may do to the innermost span (set an attribute, add an
    event, set the status), and nothing more: these spans open a dozen
    times per serving consult, where a full :class:`Span` would cost more
    than the layers it measures.
    """

    __slots__ = (
        "name", "span_id", "parent_id", "status", "attributes", "events",
        "_start", "_end",
    )
    thread_name = threading.current_thread().name
    memory_peak_bytes = None

    @property
    def duration(self) -> float:
        return self._end - self._start

    @property
    def start_unix(self) -> float:
        return _UNIX_OFFSET + self._start

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes = {**(self.attributes or {}), key: value}

    def set_status(self, status: str) -> None:
        self.status = status

    def add_event(self, name: str, **attributes: Any) -> None:
        event = {
            "name": name,
            "offset": perf_counter() - self._start,
            "attributes": attributes,
        }
        self.events = [*(self.events or []), event]


class BenchTracer(Tracer):
    """A :class:`Tracer` whose span stack is one plain list.

    The benchmark runs on one thread (``workers=1``); the layer wrappers
    push their spans on the same stack the program's own spans use, so
    both nest.
    """

    def __init__(self) -> None:
        super().__init__()
        self._open: list[Any] = []

    def _stack(self) -> list[Any]:
        return self._open


def _traced(
    function: Callable, layer: str | Callable[[Any], str], tracer: BenchTracer
) -> Callable:
    """Wrap ``function`` in a :class:`_LayerSpan` named ``layer``.

    ``layer`` may be a callable of the receiver (the first argument) for
    entry points shared by several layers. A call made from inside a span
    of the same layer (``super()`` chains, delegation) adds no span, so
    ``calls`` counts entries into a layer.
    """
    name_of = layer if callable(layer) else None
    open_spans = tracer._open
    finished = tracer._finished

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        name = name_of(args[0]) if name_of is not None else layer
        if open_spans and open_spans[-1].name == name:
            return function(*args, **kwargs)
        span = _LayerSpan()
        span.name = name
        span.span_id = tracer._next_id
        tracer._next_id += 1
        span.parent_id = open_spans[-1].span_id if open_spans else None
        span.status = STATUS_OK
        span.attributes = span.events = None
        open_spans.append(span)
        span._start = perf_counter()
        try:
            return function(*args, **kwargs)
        except BaseException:
            span.status = STATUS_ERROR
            raise
        finally:
            span._end = perf_counter()
            open_spans.pop()
            finished.append(span)

    return wrapper


def entry_points() -> list[tuple[str | Callable[[Any], str], Any, str]]:
    """``(layer, owner, attribute)`` for every patched entry point."""
    from repro.core import runner as runner_module
    from repro.core.base import EarlyClassifier
    from repro.core.voting import VotingEnsemble
    from repro.serve.session import GuardedStreamingSession
    from repro.stats.backends import OPS, get_backend
    from repro.stats.boosting import GradientBoostingClassifier
    from repro.stats.feature_selection import SelectKBest
    from repro.stats.kmeans import KMeans
    from repro.stats.linear import LogisticRegression
    from repro.stats.svm import OneClassSVM
    from repro.transform.bop import BagOfPatterns
    from repro.transform.sfa import SFATransformer
    from repro.tsc.minirocket import MiniROCKET
    from repro.tsc.mlstm_fcn import MLSTMFCN
    from repro.tsc.weasel import WEASEL
    import repro.etsc  # noqa: F401  (registers every EarlyClassifier subclass)

    def early(method: str) -> Callable[[Any], str]:
        voting = f"core.voting.{method}"
        algorithm = f"etsc.{method}"
        return lambda receiver: (
            voting if isinstance(receiver, VotingEnsemble) else algorithm
        )

    entries: list[tuple[Any, Any, str]] = [
        ("core.runner.run", runner_module.BenchmarkRunner, "run"),
        # The runner calls evaluate() through its own module global.
        ("core.evaluation.evaluate", runner_module, "evaluate"),
        ("serve.session.push", GuardedStreamingSession, "push"),
    ]
    for method in ("train", "predict", "predict_one"):
        entries.append((early(method), EarlyClassifier, method))
    pending = list(EarlyClassifier.__subclasses__())
    while pending:
        subclass = pending.pop()
        pending.extend(subclass.__subclasses__())
        if "predict_one" in vars(subclass):
            entries.append((early("predict_one"), subclass, "predict_one"))
    for prefix, owner, methods in (
        ("tsc.weasel", WEASEL, ("train", "predict", "predict_proba")),
        ("tsc.minirocket", MiniROCKET, ("train", "predict", "predict_proba")),
        ("tsc.mlstm_fcn", MLSTMFCN, ("train", "predict", "predict_proba")),
        ("transform.bop", BagOfPatterns, ("fit", "transform")),
        ("transform.sfa", SFATransformer, ("fit", "transform_words")),
        ("stats.linear", LogisticRegression, ("fit", "predict_proba")),
        ("stats.svm", OneClassSVM, ("fit", "predict")),
        ("stats.feature_selection", SelectKBest, ("fit",)),
        (
            "stats.boosting",
            GradientBoostingClassifier,
            ("fit", "predict_proba"),
        ),
        ("stats.kmeans", KMeans, ("fit",)),
        ("stats.backends", type(get_backend()), OPS),
    ):
        for method in methods:
            entries.append((f"{prefix}.{method}", owner, method))
    return entries


class Instrumentation:
    """Install the layer wrappers on entry; restore the originals on exit."""

    def __init__(self, tracer: BenchTracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Instrumentation":
        for layer, owner, attribute in entry_points():
            self._saved.append(
                (owner, attribute, vars(owner).get(attribute, _MISSING))
            )
            setattr(
                owner,
                attribute,
                _traced(getattr(owner, attribute), layer, self.tracer),
            )
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


def layer_totals(
    spans: Iterable[Any], layers: Iterable[str] = LAYERS
) -> dict[str, list[float]]:
    """``{layer: [calls, self_seconds]}`` over finished spans.

    ``spans`` need ``name``, ``span_id``, ``parent_id`` and ``duration``.
    Self time is a span's duration minus its children's durations; spans
    whose name is not a layer (the program's own spans) are charged to
    the nearest enclosing layer span, or to :data:`ROOT` when none
    encloses them. Only layer spans count as calls.
    """
    spans = list(spans)
    known = set(layers)
    by_id = {span.span_id: span for span in spans}
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent_id in by_id:
            covered[span.parent_id] = (
                covered.get(span.parent_id, 0.0) + span.duration
            )
    owners: dict[int, str] = {}

    def owner_of(span) -> str:
        chain = []
        while span.span_id not in owners:
            if span.name in known:
                owners[span.span_id] = span.name
                break
            parent = by_id.get(span.parent_id)
            if parent is None:
                owners[span.span_id] = ROOT
                break
            chain.append(span)
            span = parent
        for link in chain:
            owners[link.span_id] = owners[span.span_id]
        return owners[chain[0].span_id] if chain else owners[span.span_id]

    totals: dict[str, list[float]] = {}
    for span in spans:
        entry = totals.setdefault(owner_of(span), [0, 0.0])
        entry[1] += span.duration - covered.get(span.span_id, 0.0)
        if span.name in known:
            entry[0] += 1
    return totals
