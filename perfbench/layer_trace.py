"""Per-layer tracing from outside the program.

``installed(tracer)`` wraps the public functions of chargenet's layers
(``ndtensor``, ``encoders``, ``article_extractor``, ``charge_model`` and
``corpus``) for the duration of a ``with`` block and restores the originals
on exit. Every wrapped call is a span: the tracer keeps, per span name, the
call count, the inclusive time and the self time (inclusive minus the time
of wrapped calls made inside it), plus the few counts the per-layer metrics
need. Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import math
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from chargenet import article_extractor, charge_model, corpus, encoders, ndtensor

MODULES = (ndtensor, encoders, article_extractor, charge_model, corpus)

# (owner, attribute): the functions wrapped, each traced under "<layer>.<attribute>".
TARGETS = [
    (ndtensor.Tape, "backward"),
    (ndtensor, "sgd_step"),
    (encoders, "encode_documents"),
    (encoders, "attentive_pool"),
    (encoders, "bigru_encode"),
    (encoders, "gru_step"),
    (article_extractor, "build_bank"),
    (article_extractor, "fit_tfidf"),
    (article_extractor, "train_scorer"),
    (article_extractor, "chi_square_select"),
    (article_extractor, "extract_top_k"),
    (charge_model, "train"),
    (charge_model, "forward"),
    (charge_model.ChargeModel, "encode_fact"),
    (charge_model, "encode_articles"),
    (charge_model, "aggregate_articles"),
    (charge_model, "tune_threshold"),
    (corpus, "generate_synthetic"),
]

LAYER_OF = {ndtensor: "nd", ndtensor.Tape: "nd", encoders: "encoders",
            article_extractor: "extractor", charge_model: "model",
            charge_model.ChargeModel: "model", corpus: "corpus"}


def span_name(owner, attr: str) -> str:
    return f"{LAYER_OF[owner]}.{attr}"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Trace:
    """Spans, counts and per-call samples gathered over some stretch of work."""

    spans: dict = field(default_factory=lambda: defaultdict(SpanStats))
    counts: dict = field(default_factory=lambda: defaultdict(float))
    samples: dict = field(default_factory=lambda: defaultdict(list))

    def absorb(self, other: "Trace") -> None:
        """Add another trace's spans, counts and samples to this one's."""
        for key, stats in other.spans.items():
            mine = self.spans[key]
            mine.calls += stats.calls
            mine.total_s += stats.total_s
            mine.self_s += stats.self_s
        for key, value in other.counts.items():
            self.counts[key] += value
        for key, values in other.samples.items():
            self.samples[key].extend(values)

    def self_time_s(self) -> float:
        return sum(s.self_s for s in self.spans.values())


class Tracer:
    """Records into ``trace``; ``take()`` hands the trace over and starts afresh."""

    def __init__(self):
        self.trace = Trace()
        self._open: list[float] = []  # child time of each open span
        self._encoded: set = set()    # article ids encoded since parameters last changed

    def take(self) -> Trace:
        out, self.trace = self.trace, Trace()
        return out

    def new_parameters(self) -> None:
        """Article states encoded before this point no longer count as repeats."""
        self._encoded = set()

    def _observe(self, name: str, args) -> str:
        """Count what the call is about to do; return the key its time goes under."""
        if name == "model.forward":
            taped = ndtensor._tape() is not None  # the one private name used here
            return "model.forward.train" if taped else "model.forward.eval"
        if name == "nd.backward":
            self.trace.counts["tape_nodes"] += len(args[0])
        elif name in ("nd.sgd_step", "model.train"):
            self.new_parameters()
        elif name == "encoders.encode_documents":
            self.trace.counts["docs"] += len(args[0])
        elif name == "model.encode_articles":
            counts = self.trace.counts
            for aid in args[0]:
                counts["slots"] += 1
                if aid in self._encoded:
                    counts["repeat_slots"] += 1
                self._encoded.add(aid)
        return name

    def wrap(self, name: str, fn):
        keep_samples = name == "extractor.extract_top_k"

        def traced(*args, **kwargs):
            key = self._observe(name, args)
            self._open.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                child = self._open.pop()
                if self._open:
                    self._open[-1] += dt
                stats = self.trace.spans[key]
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - child
                if keep_samples:
                    self.trace.samples[key].append(dt)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def patch_sites(owner, attr: str) -> list[tuple[object, str]]:
    """The owner plus every layer module that imported the same object by name."""
    original = owner.__dict__[attr]
    sites = [(owner, attr)]
    for mod in MODULES:
        if mod is not owner and mod.__dict__.get(attr) is original:
            sites.append((mod, attr))
    return sites


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    undo: list[tuple[object, str, object]] = []
    tracer.new_parameters()
    try:
        for owner, attr in TARGETS:
            original = owner.__dict__[attr]
            traced = tracer.wrap(span_name(owner, attr), original)
            for site, name in patch_sites(owner, attr):
                undo.append((site, name, original))
                setattr(site, name, traced)
        yield tracer
    finally:
        for site, name, original in reversed(undo):
            setattr(site, name, original)


def median(values: list[float]) -> float:
    vals = sorted(values)
    if not vals:
        return math.nan
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else 0.5 * (vals[mid - 1] + vals[mid])


def layer_metrics(timed: Trace, setups: list[Trace]) -> dict[str, float]:
    """Per-layer figures from the spans of the traced timed jobs and set-ups.

    "per case" divides by the forwards run (training, validation and served
    cases alike) unless the name says otherwise; "_self_" names are self
    time, the other times are inclusive.
    """
    sp = timed.spans
    fwd_train = sp["model.forward.train"]
    fwd_eval = sp["model.forward.eval"]
    train_cases = fwd_train.calls
    cases = train_cases + fwd_eval.calls

    def per(x: float, n: int) -> float:
        return x / n if n else 0.0

    def ms_per_case(key: str) -> float:
        return per(1e3 * sp[key].total_s, cases)

    slots = timed.counts["slots"]
    queries = sorted(timed.samples["extractor.extract_top_k"])
    setup_median = {
        key: median([s.spans[key].total_s for s in setups])
        for key in ("corpus.generate_synthetic", "extractor.fit_tfidf",
                    "extractor.chi_square_select")
    }
    return {
        "nd.tape_nodes_per_case": per(timed.counts["tape_nodes"], train_cases),
        "nd.backward_ms_per_case": per(1e3 * sp["nd.backward"].total_s, train_cases),
        "nd.sgd_step_ms_per_batch": per(1e3 * sp["nd.sgd_step"].total_s,
                                        sp["nd.sgd_step"].calls),
        "encoders.gru_steps_per_case": per(sp["encoders.gru_step"].calls, cases),
        "encoders.encode_documents_ms_per_case": ms_per_case("encoders.encode_documents"),
        "encoders.docs_per_call": per(timed.counts["docs"],
                                      sp["encoders.encode_documents"].calls),
        "encoders.self_ms_per_case": per(1e3 * sum(
            s.self_s for k, s in sp.items() if k.startswith("encoders.")), cases),
        "model.encode_fact_ms_per_case": ms_per_case("model.encode_fact"),
        "model.encode_articles_ms_per_case": ms_per_case("model.encode_articles"),
        "model.aggregate_ms_per_case": ms_per_case("model.aggregate_articles"),
        "model.article_slots_per_case": per(slots, cases),
        "model.article_slot_repeat_frac": per(timed.counts["repeat_slots"], slots),
        "model.forward_self_ms_per_case": per(
            1e3 * (fwd_train.self_s + fwd_eval.self_s), cases),
        "model.eval_ms_per_case": per(1e3 * fwd_eval.total_s, fwd_eval.calls),
        "model.train_self_ms_per_case": per(1e3 * sp["model.train"].self_s, train_cases),
        "model.tune_threshold_ms": per(1e3 * sp["model.tune_threshold"].total_s,
                                       sp["model.tune_threshold"].calls),
        "extractor.query_ms_p50": 1e3 * median(queries) if queries else 0.0,
        "extractor.fit_tfidf_s": setup_median["extractor.fit_tfidf"],
        "extractor.chi_square_s": setup_median["extractor.chi_square_select"],
        "extractor.train_scorer_self_s": median(
            [s.spans["extractor.train_scorer"].self_s for s in setups]),
        "corpus.generate_s": setup_median["corpus.generate_synthetic"],
    }
