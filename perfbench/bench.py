"""chargenet benchmark: workloads, output checks, and the metrics report.

Each run sets a workload up several times (the median is ``setup_s``), then
repeats one fixed, seed-determined job until ``--seconds`` have passed:

* ``train_fact``: ``train()`` on the ``fact_only`` variant, then the trained
  model serves held-out cases.
* ``train_art``: the same on ``fact_supv_art`` with k=20.
* ``serve_art``: one closed-loop client sends held-out cases to a fixed
  ``fact_supv_art`` model through ``forward(case, model, bank=bank)``.

Every job does the same work, so its outputs must repeat bit for bit; a
served output that fails a check, a non-finite loss, a result that differs
from the first job's, or an exception counts as a failed operation.

Times are taken net of the speed probe's own time and divided by its
slowdown factor over the same interval (see ``speed``); the report keeps the
raw times too. With ``trace`` the jobs alternate between untraced and traced
(see ``layer_trace``), and the result line holds the per-layer metrics
instead of the end-to-end ones.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
import threading
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from chargenet import article_extractor as ax
from chargenet import charge_model as cm
from chargenet import corpus as cp
from chargenet import metrics as mx

import layer_trace as lt
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3
SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    variant: cm.Variant
    trains: bool  # False: serve a fixed model, no training


WORKLOADS = {
    "train_fact": Workload("train_fact", cm.Variant.FACT_ONLY, trains=True),
    "train_art": Workload("train_art", cm.Variant.FACT_SUPV_ART, trains=True),
    "serve_art": Workload("serve_art", cm.Variant.FACT_SUPV_ART, trains=False),
}


@dataclass(frozen=True)
class Scale:
    """Corpus, model dims, and the number of cases one job takes per split."""

    spec: cp.SyntheticSpec
    dims: dict
    cases: dict  # workload name -> (train cases, validation cases, served cases)


PAPER = Scale(
    spec=cp.SyntheticSpec(),
    dims={},
    cases={"train_fact": (128, 32, 128), "train_art": (48, 16, 96),
           "serve_art": (0, 0, 64)},
)
TINY = Scale(
    spec=cp.SyntheticSpec(n_charges=4, n_articles=8, train_size=40, valid_size=8,
                          test_size=8, n_noise_tokens=12, core_keywords_per_charge=3),
    dims=dict(word_emb_dim=6, pos_emb_dim=3, gru_hidden=4, fc1_dim=8, fc2_dim=6,
              k=4, batch=4),
    cases={"train_fact": (8, 4, 4), "train_art": (8, 4, 4), "serve_art": (0, 0, 6)},
)

# Units of every metric the report can hold.
UNITS = {
    "setup_s": "s", "cases_per_s": "1/s", "predict_ms_p50": "ms", "predict_ms_p95": "ms",
    "peak_rss_mb": "MB", "raw_setup_s": "s", "raw_cases_per_s": "1/s",
    "raw_predict_ms_p50": "ms", "raw_predict_ms_p95": "ms", "speed_factor": "ratio",
    "train_cases_per_s": "1/s", "final_train_loss": "nats",
    "test_micro_f1": "ratio", "bank_build_s": "s", "failed_frac": "ratio",
    "nd.tape_nodes_per_case": "count", "nd.backward_ms_per_case": "ms",
    "nd.sgd_step_ms_per_batch": "ms", "encoders.gru_steps_per_case": "count",
    "encoders.encode_documents_ms_per_case": "ms", "encoders.docs_per_call": "count",
    "encoders.self_ms_per_case": "ms", "model.encode_fact_ms_per_case": "ms",
    "model.encode_articles_ms_per_case": "ms", "model.aggregate_ms_per_case": "ms",
    "model.article_slots_per_case": "count", "model.article_slot_repeat_frac": "ratio",
    "model.forward_self_ms_per_case": "ms", "model.eval_ms_per_case": "ms",
    "model.train_self_ms_per_case": "ms", "model.tune_threshold_ms": "ms",
    "extractor.query_ms_p50": "ms", "extractor.fit_tfidf_s": "s",
    "extractor.chi_square_s": "s", "extractor.train_scorer_self_s": "s",
    "extractor.recall_at_20": "ratio", "corpus.generate_s": "s",
    "trace.overhead_frac": "ratio", "trace.coverage_frac": "ratio",
}
# The metrics the last output line carries, per mode; the rest go in the report.
END_TO_END = ["setup_s", "cases_per_s", "predict_ms_p50", "predict_ms_p95", "peak_rss_mb"]
PER_LAYER = [name for name in UNITS if "." in name]


@dataclass
class Prepared:
    """What one set-up leaves for the timed jobs."""

    data: cp.SyntheticCorpus
    config: cm.ModelConfig
    bank: ax.ExtractorBank | None
    model: cm.ChargeModel | None  # the served model (serve workload only)
    train: list
    valid: list
    served: list
    bank_build_s: float


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append("; ".join(problems))
        return not problems


@dataclass
class JobResult:
    """Times are net of the speed probe and not yet divided by ``factor``."""

    wall_s: float
    factor: float  # the speed probe's slowdown over the job
    train_s: float | None
    train_factor: float | None
    latencies_ms: list[float]
    latency_factors: list[float]
    fingerprint: tuple
    history: list
    micro_f1: float | None
    recall: float


def model_config(workload: Workload, scale: Scale) -> cm.ModelConfig:
    return cm.ModelConfig(variant=workload.variant, max_epochs=1, patience=1, **scale.dims)


def fixed_model(train: list, config: cm.ModelConfig, article_db: dict,
                seed: int) -> cm.ChargeModel:
    """A model with seeded, untrained parameters; serving cost does not depend
    on parameter values."""
    word_vocab, pos_vocab = cm.build_vocab(train)
    charge_vocab = sorted({c for case in train for c in case.gold_charges})
    params = cm.ModelParams.create(config, len(word_vocab), len(pos_vocab),
                                   len(charge_vocab), np.random.default_rng(seed))
    docs = cm.tokenize_article_db(article_db, word_vocab, pos_vocab)
    return cm.ChargeModel(config, params, word_vocab, pos_vocab, charge_vocab, docs,
                          tau=config.tau)


def set_up(workload: Workload, seed: int, scale: Scale) -> Prepared:
    """Corpus, extractor bank, served model, and one warm-up pass."""
    config = model_config(workload, scale)
    data = cp.generate_synthetic(replace(scale.spec, seed=seed))
    n_train, n_valid, n_served = scale.cases[workload.name]
    bank = None
    bank_build_s = 0.0
    if config.uses_articles():
        t = perf_counter()
        bank = ax.build_bank([c.tokens() for c in data.train],
                             [c.gold_articles for c in data.train], k=config.k)
        bank_build_s = perf_counter() - t
    prep = Prepared(data, config, bank, None, data.train[:n_train], data.valid[:n_valid],
                    data.test[:n_served], bank_build_s)
    if workload.trains:
        cm.train(data.train[:2], data.valid[:1], replace(config, batch=2), seed,
                 bank=bank, article_db=data.article_db)
    else:
        prep.model = fixed_model(data.train, config, data.article_db, seed)
        for case in prep.served[:2]:
            cm.forward(case, prep.model, bank=bank)
    return prep


def output_problems(trace: cm.ForwardTrace, config: cm.ModelConfig,
                    article_db: dict) -> list[str]:
    """What is wrong with one served output; empty when it is correct."""
    problems = []
    o = trace.o
    if not np.all(np.isfinite(o)) or abs(o.sum() - 1.0) > SUM_TOLERANCE:
        problems.append(f"o is not a distribution (sum {o.sum()!r})")
    if config.uses_articles():
        alpha = trace.alpha
        if alpha is None or not np.all(np.isfinite(alpha)) \
                or abs(alpha.sum() - 1.0) > SUM_TOLERANCE:
            problems.append("alpha is not a distribution")
        topk = trace.topk or []
        if len(topk) != config.k or len(set(topk)) != config.k:
            problems.append(f"topk holds {len(set(topk))} distinct ids, expected {config.k}")
        if any(aid not in article_db for aid in topk):
            problems.append("topk names an article outside the article DB")
    return problems


def serve(model: cm.ChargeModel, prep: Prepared, tally: Tally, probe: SpeedProbe):
    """Closed loop, one client: each request is sent when the previous returns."""
    marks, outputs, predicted, gold, hits = [], [], [], [], 0
    for case in prep.served:
        problems = []
        try:
            begin = probe.mark()
            trace = cm.forward(case, model, bank=prep.bank)
            marks.append((begin, probe.mark()))
            problems = output_problems(trace, prep.config, prep.data.article_db)
        except Exception:  # a failed request is counted, never fatal
            problems = [traceback.format_exc(limit=3)]
        if tally.record(problems):
            outputs.append(trace.o.tobytes())
            predicted.append(cm.predict_names(trace.o, model.tau, model.charge_vocab))
            gold.append(case.gold_charges)
            if trace.topk is not None:
                hits += len(set(trace.topk) & case.gold_articles)
    n_gold = sum(len(c.gold_articles) for c in prep.served)
    recall = hits / n_gold if prep.config.uses_articles() else 0.0
    f1 = mx.micro_prf(mx.PredictionBatch(predicted, gold))[2] if predicted else None
    return marks, tuple(outputs), f1, recall


def run_job(workload: Workload, prep: Prepared, seed: int, tally: Tally,
            probe: SpeedProbe) -> JobResult | None:
    """One train() call plus serving, or one serving pass; None when training failed."""
    start = probe.mark()
    trained = None
    history: list = []
    model = prep.model
    if workload.trains:
        try:
            model, history = cm.train(prep.train, prep.valid, prep.config, seed,
                                      bank=prep.bank, article_db=prep.data.article_db)
            trained = (start, probe.mark())
            losses = [e[k] for e in history
                      for k in ("train_loss", "charge_loss", "attention_loss")]
            problems = [] if all(math.isfinite(v) for v in losses) else [
                f"non-finite training loss in {history}"]
        except Exception:  # counted as a failed train() call
            problems = [traceback.format_exc(limit=3)]
        if not tally.record(problems):
            return None
    marks, outputs, f1, recall = serve(model, prep, tally, probe)
    end = probe.mark()
    fingerprint = (tuple(map(str, history)), model.tau, outputs)
    return JobResult(
        probe.net(start, end), probe.factor(start, end),
        probe.net(*trained) if trained else None, probe.factor(*trained) if trained else None,
        [1e3 * probe.net(*m) for m in marks], [probe.factor(*m) for m in marks],
        fingerprint, history, f1, recall)


def job_percentile(jobs: list[JobResult], q: float, normalised: bool) -> float:
    """The median over jobs of each job's q-th latency percentile: every job
    serves the same requests, so this is the case mix's percentile, and a
    burst of contention that hits one job does not move it."""
    return lt.median([
        float(np.percentile([x / (f if normalised else 1.0)
                             for x, f in zip(j.latencies_ms, j.latency_factors)], q))
        for j in jobs if j.latencies_ms])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> int | None:
    """Threads of numpy's bundled OpenBLAS, when it can be asked."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            fn = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def git_head() -> str | None:
    """The checkout's commit, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "git_head": git_head(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python_threads": threading.active_count(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: Scale = PAPER) -> dict:
    """Set up, run jobs for ``seconds``, check them, and return the full report."""
    with SpeedProbe() as probe:
        report = _run(WORKLOADS[name], seed, seconds, trace, scale, probe)
    report["provenance"] = provenance(seed)
    return report


def _run(workload: Workload, seed: int, seconds: float, trace: bool, scale: Scale,
         probe: SpeedProbe) -> dict:
    tracer = lt.Tracer()
    setups, setup_s, setup_traces = [], [], []
    for _ in range(SETUP_REPEATS):
        begin = probe.mark()
        if trace:
            with lt.installed(tracer):
                setups.append(set_up(workload, seed, scale))
            setup_traces.append(tracer.take())
        else:
            setups.append(set_up(workload, seed, scale))
        end = probe.mark()
        setup_s.append((probe.net(begin, end), probe.factor(begin, end)))
    prep = setups[-1]

    tally = Tally()
    jobs: list[JobResult] = []    # untraced jobs that ran to the end
    traced: list[JobResult] = []
    coverage: list[float] = []
    timed = lt.Trace()
    reference = None
    attempts = 0
    start = perf_counter()
    while True:
        with_trace = trace and attempts % 2 == 1
        attempts += 1
        if with_trace:
            begin = perf_counter()
            with lt.installed(tracer):
                result = run_job(workload, prep, seed, tally, probe)
            spans = tracer.take()
            timed.absorb(spans)
            coverage.append(spans.self_time_s() / (perf_counter() - begin))
        else:
            result = run_job(workload, prep, seed, tally, probe)
        if result is not None:
            (traced if with_trace else jobs).append(result)
            if reference is None:
                reference = result.fingerprint
            elif result.fingerprint != reference:
                tally.record(["job output differs from the first job's"])
        elapsed = perf_counter() - start
        # Start no job that would likely end past the deadline.
        if elapsed * (attempts + 1) / attempts > seconds and (not trace or attempts >= 2):
            break
    samples = sum(len(j.latencies_ms) for j in jobs)
    if not samples or (trace and not traced):
        raise RuntimeError(f"no job ran to the end: {tally.reasons}")

    def cases_per_s(normalised: bool) -> float:
        if workload.trains:
            per_job = [(len(prep.train), j.train_s, j.train_factor) for j in jobs]
        else:
            per_job = [(len(prep.served), j.wall_s, j.factor) for j in jobs]
        return lt.median([n * (f if normalised else 1.0) / t for n, t, f in per_job])

    metrics = {
        "setup_s": lt.median([net / factor for net, factor in setup_s]),
        "cases_per_s": cases_per_s(True),
        "predict_ms_p50": job_percentile(jobs, 50, True),
        "predict_ms_p95": job_percentile(jobs, 95, True),
        "peak_rss_mb": peak_rss_mb(),
        "raw_setup_s": lt.median([net for net, _ in setup_s]),
        "raw_cases_per_s": cases_per_s(False),
        "raw_predict_ms_p50": job_percentile(jobs, 50, False),
        "raw_predict_ms_p95": job_percentile(jobs, 95, False),
        "speed_factor": lt.median([j.factor for j in jobs]),
        "failed_frac": tally.failed / tally.attempted,
    }
    if workload.trains:
        metrics["train_cases_per_s"] = metrics["cases_per_s"]
        metrics["final_train_loss"] = jobs[0].history[-1]["train_loss"]
        metrics["test_micro_f1"] = math.nan if jobs[0].micro_f1 is None else jobs[0].micro_f1
    if prep.bank is not None:
        metrics["bank_build_s"] = lt.median([s.bank_build_s for s in setups])
    if trace:
        metrics.update(lt.layer_metrics(timed, setup_traces))
        metrics["extractor.recall_at_20"] = jobs[0].recall
        metrics["trace.overhead_frac"] = (lt.median([j.wall_s / j.factor for j in traced])
                                          / lt.median([j.wall_s / j.factor for j in jobs]) - 1.0)
        metrics["trace.coverage_frac"] = lt.median(coverage)
    return {
        "workload": workload.name,
        "seconds": seconds,
        "trace": trace,
        "jobs": attempts,
        "job_wall_s": [j.wall_s for j in jobs],
        "job_speed_factor": [j.factor for j in jobs],
        "traced_jobs": len(traced),
        "latency_samples": samples,
        "speed_probes": len(probe.samples),
        "failure_reasons": tally.reasons,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def result_line(report: dict) -> dict:
    """The contract's last line: the gated metrics of the run's mode only."""
    names = PER_LAYER if report["trace"] else END_TO_END
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": report["metrics"][n], "unit": UNITS[n]} for n in names},
    }


def print_report(report: dict) -> None:
    print(f"# chargenet benchmark: workload={report['workload']} "
          f"seed={report['provenance']['seed']} seconds={report['seconds']} "
          f"trace={int(report['trace'])} jobs={report['jobs']} "
          f"latency_samples={report['latency_samples']}")
    for name, value in report["metrics"].items():
        print(f"{name:40s} {value:14.6g} {UNITS[name]}")
    for reason in report["failure_reasons"]:
        print(f"# failed: {reason}")
