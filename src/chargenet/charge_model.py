"""The joint model: fact encoding with global attention contexts, top-k article
encoding and aggregation driven by fact-conditioned dynamic contexts, two fully
connected layers into a softmax charge distribution, and the combined
charge/attention training objective.

Variants select the classifier input and the supervision signal:

=================  =========================  ==========================
variant            classifier input           article slots
=================  =========================  ==========================
fact_only          fact embedding             none
art_only           aggregated articles        extractor top-k
fact_art           fact + articles            extractor top-k
fact_supv_art      fact + articles            extractor top-k, attention
                                              supervised toward gold
fact_gold_art      fact + articles            gold articles (upper bound)
=================  =========================  ==========================

``forward_batch(cases)`` runs B cases as the columns of one graph; it is the
one graph builder for losses and gradients. ``train()`` records one per
minibatch, under one loss and one backward, and validation runs in chunks of
``config.batch`` cases. ``forward(case)`` is the serving view of the same
layers for one case, through ``ChargeModel.encode_fact``, ``encode_articles``
and ``aggregate_articles`` (their one-case forms): it returns plain arrays and
no tensor. The layers:

* all facts go through one two-level ``encode_documents`` call;
* the dynamic contexts (``dynamic_context`` of d_f) are (state_dim, B), one
  column per case;
* each case pools its articles' word states under its own context, in its
  own ``pool_words`` call; the sentence level then runs over the slots of
  every case at once, each slot pooled under its case's context;
* the aggregator runs max-slots steps over B columns, padded and masked,
  since cases may hold different numbers of slots (fact_gold_art uses a
  case's gold articles, at most k);
* the classifier and the softmax run once on (·, B).

The word-level Bi-GRU states of an article do not depend on the fact, so
they are scanned once and shared:

* under a tape, a forward scans the union of its cases' slots once, so a
  training minibatch's one scan collects the gradients of all its cases in
  one backward closure;
* with no tape, a forward reads ``ChargeModel.article_words``, the states of
  every article in the database. They are rebuilt whenever the word or POS
  embeddings or the article word-level Bi-GRU differ, by content, from the
  copies taken at the last build; a batch checks that once.
"""

from __future__ import annotations

import json
import logging
import numbers
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from . import metrics as mx
from . import ndtensor as nd
from .article_extractor import ExtractorBank, extract_top_k
from .corpus import (CaseRecord, ParseError, article_id_from_json, article_id_to_json,
                     article_sort_key, simple_tokenize)
from .encoders import (
    AttentivePoolParams,
    BiGruParams,
    DocEncoderParams,
    encode_documents,
    encode_groups,
    pool_words,
    scan_words,
)
from .ndtensor import DomainError, StateError, Tape, Tensor

log = logging.getLogger(__name__)

PAD_ID = 0
UNK_ID = 1

# Randomly initialized embedding tables mimic the spread of pretrained vectors;
# recurrent and projection weights take nd.parameter's Glorot-uniform limit.
EMB_INIT_SCALE = 0.5


class Variant(str, Enum):
    FACT_ONLY = "fact_only"
    ART_ONLY = "art_only"
    FACT_ART = "fact_art"
    FACT_SUPV_ART = "fact_supv_art"
    FACT_GOLD_ART = "fact_gold_art"


ARTICLE_VARIANTS = {Variant.ART_ONLY, Variant.FACT_ART, Variant.FACT_SUPV_ART,
                    Variant.FACT_GOLD_ART}


@dataclass
class ModelConfig:
    word_emb_dim: int = 100
    pos_emb_dim: int = 50
    gru_hidden: int = 75
    fc1_dim: int = 200
    fc2_dim: int = 150
    k: int = 20
    beta: float = 0.1
    tau: float = 0.4
    lr: float = 0.1
    batch: int = 8
    variant: Variant = Variant.FACT_SUPV_ART
    max_epochs: int = 50
    patience: int = 5

    def __post_init__(self):
        self.variant = Variant(self.variant)
        for f in fields(self):
            kind = {"int": numbers.Integral, "float": numbers.Real}.get(f.type)
            value = getattr(self, f.name)
            if kind is not None and (isinstance(value, bool) or not isinstance(value, kind)):
                raise TypeError(f"{f.name} must be {f.type}, not {value!r}")
        for name in ("word_emb_dim", "pos_emb_dim", "gru_hidden", "fc1_dim",
                     "fc2_dim", "k", "batch", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be positive")
        if self.beta < 0:
            raise DomainError("beta must be >= 0")
        if not 0.0 < self.tau < 1.0:
            raise DomainError("tau must lie in (0, 1)")
        if self.lr <= 0:
            raise DomainError("lr must be positive")

    @property
    def input_dim(self) -> int:
        return self.word_emb_dim + self.pos_emb_dim

    @property
    def state_dim(self) -> int:
        return 2 * self.gru_hidden

    def uses_articles(self) -> bool:
        return self.variant in ARTICLE_VARIANTS

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["variant"] = self.variant.value
        return out


@dataclass
class ModelParams(nd.ParamGroup):
    """Every trainable tensor; article-side fields are None for fact_only."""

    word_emb: Tensor
    pos_emb: Tensor
    fact_enc: DocEncoderParams
    art_enc: DocEncoderParams | None
    w_w: Tensor | None
    b_w: Tensor | None
    w_s: Tensor | None
    b_s: Tensor | None
    agg_gru: BiGruParams | None
    agg_pool: AttentivePoolParams | None
    w_d: Tensor | None
    b_d: Tensor | None
    fc1_w: Tensor
    fc1_b: Tensor
    fc2_w: Tensor
    fc2_b: Tensor
    out_w: Tensor
    out_b: Tensor

    @classmethod
    def create(cls, config: ModelConfig, n_words: int, n_pos: int, n_charges: int,
               rng: np.random.Generator) -> "ModelParams":
        s = config.state_dim
        word_emb = nd.parameter((n_words, config.word_emb_dim), rng,
                                scale=EMB_INIT_SCALE, name="emb.word")
        pos_emb = nd.parameter((n_pos, config.pos_emb_dim), rng,
                               scale=EMB_INIT_SCALE, name="emb.pos")
        fact_enc = DocEncoderParams.create(config.input_dim, config.gru_hidden, rng,
                                           "fact", global_context=True)
        art_enc = w_w = b_w = w_s = b_s = agg_gru = agg_pool = w_d = b_d = None
        if config.uses_articles():
            art_enc = DocEncoderParams.create(config.input_dim, config.gru_hidden,
                                              rng, "art", global_context=False)
            w_w = nd.parameter((s, s), rng, name="ctx.word.w")
            b_w = nd.zeros((s, 1), name="ctx.word.b")
            w_s = nd.parameter((s, s), rng, name="ctx.sent.w")
            b_s = nd.zeros((s, 1), name="ctx.sent.b")
            agg_gru = BiGruParams.create(s, config.gru_hidden, rng, "agg")
            agg_pool = AttentivePoolParams.create(s, rng, "agg_pool", global_context=False)
            w_d = nd.parameter((s, s), rng, name="ctx.agg.w")
            b_d = nd.zeros((s, 1), name="ctx.agg.b")
        if config.variant == Variant.FACT_ONLY or config.variant == Variant.ART_ONLY:
            fc_in = s
        else:
            fc_in = 2 * s
        return cls(
            word_emb, pos_emb, fact_enc, art_enc, w_w, b_w, w_s, b_s,
            agg_gru, agg_pool, w_d, b_d,
            nd.parameter((config.fc1_dim, fc_in), rng, name="fc1.w"),
            nd.zeros((config.fc1_dim, 1), name="fc1.b"),
            nd.parameter((config.fc2_dim, config.fc1_dim), rng, name="fc2.w"),
            nd.zeros((config.fc2_dim, 1), name="fc2.b"),
            nd.parameter((n_charges, config.fc2_dim), rng, name="out.w"),
            nd.zeros((n_charges, 1), name="out.b"),
        )


@dataclass
class ForwardTrace:
    """One served case as plain arrays, for reports and the user-facing
    article ranking: the charge distribution, the fact's word and sentence
    attention and, for the article variants, the slots, their extractor
    scores and the aggregation attention. Losses and gradients come from
    ``forward_batch``."""

    o: np.ndarray
    word_attn: list[np.ndarray]
    sent_attn: np.ndarray
    topk: list | None = None
    extractor_scores: list[float] | None = None
    alpha: np.ndarray | None = None


@dataclass
class BatchTrace:
    """The outputs of B cases run as the columns of one graph; column j, and
    entry j of each list, belongs to the j-th case."""

    o: Tensor                          # (n_charges, B) charge distributions
    word_attn: list[list[np.ndarray]]
    sent_attn: list[np.ndarray]
    topks: list                        # article slots per case; None for fact_only
    alpha: Tensor | None = None        # (max slots, B), 0 past a case's own slots


@dataclass
class ArticleWords:
    """Word-level Bi-GRU states of a set of articles, scanned as one batch."""

    states: Tensor     # (state_dim, steps * n_sentences), step-major
    lens: np.ndarray   # words per sentence
    cols: dict         # article id -> indices of its sentences, in order


@dataclass
class ChargeModel:
    """Trained parameters plus the vocabularies needed to run them."""

    config: ModelConfig
    params: ModelParams
    word_vocab: dict[str, int]
    pos_vocab: dict[str, int]
    charge_vocab: list[str]
    article_docs: dict  # article id -> list of (word_ids, pos_ids) per sentence
    tau: float
    epochs_completed: int = 0
    # Copies of the inputs of the cached article states, and the states.
    _article_cache: tuple[list[np.ndarray], ArticleWords] | None = field(
        default=None, init=False, repr=False, compare=False)

    def embed_tokens(self, word_ids: np.ndarray, pos_ids: np.ndarray) -> Tensor:
        return nd.concat([nd.embed(self.params.word_emb, word_ids),
                          nd.embed(self.params.pos_emb, pos_ids)], axis=0)

    def encode_fact(self, fact_ids) -> tuple[Tensor, list[np.ndarray], np.ndarray]:
        d, word_attn, sent_attn = _encode_facts(self, [fact_ids])
        return d, word_attn[0], sent_attn[0]

    def article_words(self) -> ArticleWords:
        """Word-level states of every article in the database, for forwards
        with no tape.

        They are recomputed whenever the word or POS embeddings or the
        article word-level Bi-GRU differ from the copies taken at the last
        build. Parameters are written in place (SGD, restores, finite
        differences), so the check compares contents, not identities.
        """
        p = self.params
        inputs = [p.word_emb.data, p.pos_emb.data]
        inputs += [t.data for _, t in p.art_enc.word_gru.named()]
        cache = self._article_cache
        if cache is None or not all(np.array_equal(kept, now)
                                    for kept, now in zip(cache[0], inputs)):
            words = encode_article_words(self, sorted(self.article_docs, key=article_sort_key))
            cache = self._article_cache = ([a.copy() for a in inputs], words)
        return cache[1]


def build_vocab(cases: list[CaseRecord]) -> tuple[dict[str, int], dict[str, int]]:
    """Token and POS vocabularies with reserved padding and unknown ids."""
    words = sorted({tok for c in cases for s in c.fact for tok, _ in s})
    tags = sorted({pos for c in cases for s in c.fact for _, pos in s})
    word_vocab = {"<pad>": PAD_ID, "<unk>": UNK_ID}
    word_vocab.update({w: i for i, w in enumerate(words, start=2)})
    pos_vocab = {"<pad>": PAD_ID, "<unk>": UNK_ID}
    pos_vocab.update({t: i for i, t in enumerate(tags, start=2)})
    return word_vocab, pos_vocab


def case_to_ids(case_fact, word_vocab, pos_vocab) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(np.array([word_vocab.get(tok, UNK_ID) for tok, _ in sent], dtype=np.intp),
             np.array([pos_vocab.get(pos, UNK_ID) for _, pos in sent], dtype=np.intp))
            for sent in case_fact]


def tokenize_article_db(article_db: dict, word_vocab, pos_vocab) -> dict:
    out = {}
    for aid, text in article_db.items():
        sents = simple_tokenize(text)
        if not sents:
            raise DomainError(f"article {aid!r} has empty text")
        out[aid] = case_to_ids(sents, word_vocab, pos_vocab)
    return out


def apply_pretrained_embeddings(params: ModelParams, word_vocab: dict[str, int],
                                path) -> int:
    """Overwrite embedding rows from a text file of ``token v1 .. vd`` lines,
    skipping blank lines and unknown tokens; returns the rows written. A line
    without d finite numbers raises ParseError before any row is written."""
    dim = params.word_emb.shape[1]
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != dim + 1:
                raise ParseError(
                    f"{path}: line {lineno} has {len(parts) - 1} values, expected {dim}")
            try:
                row = np.array([float(v) for v in parts[1:]])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
            if not np.isfinite(row).all():
                raise ParseError(f"{path}: line {lineno} holds a value that is not finite")
            idx = word_vocab.get(parts[0])
            if idx is not None:
                rows[idx] = row
    for idx, row in rows.items():
        params.word_emb.data[idx] = row
    return len(rows)


def dynamic_context(d_f: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Per-case attention contexts: an affine map of each column of the
    (state_dim, B) fact embeddings."""
    return w @ d_f + b


def charge_target(positive: set[str], charge_vocab: list[str]) -> np.ndarray:
    """Distribution with mass 1/m on each of the m positive charges."""
    index = {c: i for i, c in enumerate(charge_vocab)}
    hits = [index[c] for c in positive if c in index]
    if not hits:
        raise DomainError(f"no positive charge of {sorted(positive)} is in the vocabulary")
    y = np.zeros(len(charge_vocab))
    y[hits] = 1.0 / len(hits)
    return y


def attention_target(topk_ids: list, gold_ids: set, k: int) -> np.ndarray | None:
    """1/k' on gold slots; None when no gold article survived extraction."""
    if len(topk_ids) != k:
        raise DomainError(f"expected {k} slots, got {len(topk_ids)}")
    hits = [j for j, aid in enumerate(topk_ids) if aid in gold_ids]
    if not hits:
        return None
    t = np.zeros(k)
    t[hits] = 1.0 / len(hits)
    return t


def encode_article_words(model: ChargeModel, article_ids: list) -> ArticleWords:
    """One embedding lookup and one word-level Bi-GRU scan over every sentence
    of the given articles, which must be in ``model.article_docs``; they do
    not depend on the fact."""
    sents: list = []
    cols = {}
    for aid in article_ids:
        doc = model.article_docs[aid]
        cols[aid] = np.arange(len(sents), len(sents) + len(doc))
        sents.extend(doc)
    states, lens = scan_words(sents, model.params.art_enc.word_gru, model.embed_tokens)
    return ArticleWords(states, lens, cols)


def _encode_facts(model: ChargeModel, facts: list) -> tuple[Tensor, list, list]:
    """Fact embeddings (state_dim, B) of id-encoded facts, with their word and
    sentence attention, in one two-level encoder call."""
    enc = model.params.fact_enc
    return encode_documents(facts, enc, model.embed_tokens, u_word=enc.word_pool.u,
                            u_sent=enc.sent_pool.u)


def _encode_slots(model: ChargeModel, topks: list[list], d_f: Tensor) -> Tensor:
    """Embeddings of every case's article slots, pooled with contexts generated
    from that case's column of d_f: (state_dim, total slots), the slots of
    case j after those of case j - 1.

    Each case pools its sentences' word states in its own ``pool_words``
    call, which gathers only that case's columns; all cases' slots then run
    the sentence level as one batch. With no tape recording the word states
    are ``model.article_words()``; under a tape they come from one scan of
    the union of the cases' slots.
    """
    p = model.params
    if not all(topks):
        raise DomainError("every case needs at least one article slot")
    used = {aid for ids in topks for aid in ids}
    missing = used - model.article_docs.keys()
    if missing:
        raise DomainError(f"article {min(missing, key=article_sort_key)!r} missing from the "
                          "article database")
    if nd.recording():
        words = encode_article_words(model, sorted(used, key=article_sort_key))
    else:
        words = model.article_words()
    u_aw = dynamic_context(d_f, p.w_w, p.b_w)
    u_as = dynamic_context(d_f, p.w_s, p.b_s)
    batch = len(topks)
    pooled, sent_lens = [], []
    for j, ids in enumerate(topks):
        sel = np.concatenate([words.cols[aid] for aid in ids])
        pooled.append(pool_words(words.states, words.lens, sel, p.art_enc.word_pool,
                                 nd.narrow(u_aw, 1, j, 1)))
        sent_lens += [len(words.cols[aid]) for aid in ids]
    # One case keeps its (s, 1) sentence context shared by all its slots: the
    # scores then come from one matrix product, the rounding serving has
    # always had, where per-slot columns would take the einsum path.
    if batch > 1:
        u_as = nd.take_cols(u_as, np.repeat(np.arange(batch), [len(ids) for ids in topks]))
    a_mat, _ = encode_groups(nd.concat(pooled, axis=1), sent_lens, p.art_enc.sent_gru,
                             p.art_enc.sent_pool, u_as)
    return a_mat


def _aggregate(model: ChargeModel, a_mat: Tensor, n_slots: list[int],
               d_f: Tensor) -> tuple[Tensor, Tensor]:
    """Bi-GRU over each case's article sequence (``n_slots[j]`` consecutive
    columns of ``a_mat`` for case j), pooled with the context generated from
    column j of d_f: the (state_dim, B) embeddings and the (max slots, B)
    attention."""
    p = model.params
    return encode_groups(a_mat, n_slots, p.agg_gru, p.agg_pool,
                         dynamic_context(d_f, p.w_d, p.b_d))


def _charge_distribution(model: ChargeModel, d_f: Tensor, d_a: Tensor | None) -> Tensor:
    """The variant's classifier input through two tanh layers and the softmax
    over charges: (n_charges, B)."""
    p = model.params
    if d_a is None:
        d_in = d_f
    elif model.config.variant == Variant.ART_ONLY:
        d_in = d_a
    else:
        d_in = nd.concat([d_f, d_a], axis=0)
    h1 = nd.tanh(p.fc1_w @ d_in + p.fc1_b)
    h2 = nd.tanh(p.fc2_w @ h1 + p.fc2_b)
    return nd.softmax(p.out_w @ h2 + p.out_b, axis=0)


def encode_articles(article_ids: list, model: ChargeModel, d_f: Tensor) -> Tensor:
    """Embed each candidate article of one case with word/sentence contexts
    generated from d_f: (state_dim, len(article_ids)).

    With no tape recording the word-level states are
    ``model.article_words()``; under a tape, a scan of these articles alone.
    """
    return _encode_slots(model, [article_ids], d_f)


def aggregate_articles(a_mat: Tensor, model: ChargeModel,
                       d_f: Tensor) -> tuple[Tensor, Tensor]:
    """Bi-GRU over one case's article sequence, pooled with the fact-driven
    context.

    The columns of ``a_mat`` are the sequence: one step per article, batch 1.
    """
    return _aggregate(model, a_mat, [a_mat.shape[1]], d_f)


def forward(case: CaseRecord, model: ChargeModel, bank: ExtractorBank | None = None,
            topk: list | None = None) -> ForwardTrace:
    """Serve one case: its outputs as arrays, equal bit for bit to column 0 of
    ``forward_batch([case], ...)``.

    The article slots are ``topk`` when given, else ``_slots`` of the case.
    """
    cfg = model.config
    fact_ids = case_to_ids(case.fact, model.word_vocab, model.pos_vocab)
    d_f, word_attn, sent_attn = model.encode_fact(fact_ids)

    slots = None
    scores = None
    d_a = None
    alpha = None
    if cfg.uses_articles():
        slots, scores = _slots(case, cfg, bank) if topk is None else (list(topk), None)
        a_mat = encode_articles(slots, model, d_f)
        d_a, alpha = aggregate_articles(a_mat, model, d_f)
    return ForwardTrace(
        o=_charge_distribution(model, d_f, d_a).data[:, 0].copy(),
        word_attn=word_attn,
        sent_attn=sent_attn,
        topk=slots,
        extractor_scores=scores,
        alpha=None if alpha is None else alpha.data[:, 0].copy(),
    )


def forward_batch(cases: list[CaseRecord], model: ChargeModel, topks: list) -> BatchTrace:
    """Run several cases as the columns of one graph; record on any ambient tape.

    ``topks[j]`` are the article slots of ``cases[j]`` (ignored by
    fact_only); cases may hold different numbers of slots. Column j of every
    output equals ``forward(cases[j], model, topk=topks[j])`` up to rounding.
    Under a tape the union of the slots is scanned once.
    """
    if not cases or len(topks) != len(cases):
        raise DomainError(f"forward_batch got {len(cases)} cases and {len(topks)} slot lists")
    facts = [case_to_ids(case.fact, model.word_vocab, model.pos_vocab) for case in cases]
    d_f, word_attn, sent_attn = _encode_facts(model, facts)
    d_a = alpha = None
    if model.config.uses_articles():
        topks = [list(ids) for ids in topks]
        a_mat = _encode_slots(model, topks, d_f)
        d_a, alpha = _aggregate(model, a_mat, [len(ids) for ids in topks], d_f)
    return BatchTrace(_charge_distribution(model, d_f, d_a), word_attn, sent_attn,
                      topks, alpha)


def joint_loss(o: Tensor, y: np.ndarray, alpha: Tensor | None,
               t: np.ndarray | None, beta: float) -> tuple[Tensor, Tensor, Tensor | None]:
    """Charge cross entropy plus beta-weighted attention cross entropy.

    Returns the total with its two terms; the attention term is None, and
    the total exactly the charge term (the same tape node), with beta = 0 or
    no attention target. With 2-D arguments each column is one case and each
    term is the sum over the cases.
    """
    charge_term = nd.cross_entropy(y, o)
    if beta == 0.0 or t is None or alpha is None:
        return charge_term, charge_term, None
    attn_term = nd.cross_entropy(t, alpha)
    return charge_term + beta * attn_term, charge_term, attn_term


def predict(o: np.ndarray, tau: float) -> set[int]:
    """Indices above the threshold; an empty cut falls back to the argmax."""
    chosen = {int(i) for i in np.flatnonzero(o > tau)}
    return chosen if chosen else {int(np.argmax(o))}


def predict_names(o: np.ndarray, tau: float, charge_vocab: list[str]) -> set[str]:
    return {charge_vocab[i] for i in predict(o, tau)}


THRESHOLD_GRID = [round(0.05 * i, 2) for i in range(1, 20)]


def tune_threshold(probs: list[np.ndarray], gold_charges: list[set[str]],
                   charge_vocab: list[str]) -> float:
    """Grid-search tau maximizing the micro-F1 that ``_evaluate`` reports: over
    charge names, so a gold charge outside the vocabulary counts as missed.
    Ties resolve to the smaller tau."""
    if not probs:
        raise DomainError("tune_threshold needs validation predictions")
    best_tau, best_f1 = THRESHOLD_GRID[0], -1.0
    for tau in THRESHOLD_GRID:
        batch = mx.PredictionBatch([predict_names(o, tau, charge_vocab) for o in probs],
                                   gold_charges)
        _, _, f1 = mx.micro_prf(batch)
        if f1 > best_f1:
            best_tau, best_f1 = tau, f1
    return best_tau


def _batch_loss(batch: BatchTrace, cases: list[CaseRecord], y: np.ndarray,
                model: ChargeModel) -> tuple[Tensor, float, float]:
    """The mean joint loss of a batch's cases, whose charge targets are the
    columns of ``y``, plus the summed charge and attention terms for logging.
    A case with no gold article among its slots has no attention term."""
    cfg = model.config
    alpha = t = None
    if cfg.variant == Variant.FACT_SUPV_ART and cfg.beta > 0:
        targets = [attention_target(topk, case.gold_articles, cfg.k)
                   for case, topk in zip(cases, batch.topks)]
        live = [j for j, target in enumerate(targets) if target is not None]
        if live:
            alpha = nd.take_cols(batch.alpha, live)
            t = np.stack([targets[j] for j in live], axis=1)
    total, charge_term, attn_term = joint_loss(batch.o, y, alpha, t, cfg.beta)
    return (total * (1.0 / len(cases)), charge_term.item(),
            0.0 if attn_term is None else attn_term.item())


def _evaluate(model: ChargeModel, cases: list[CaseRecord], topks: list,
              tau: float) -> tuple[float, list[np.ndarray]]:
    """Validation micro-F1 and the charge distributions, run in batches of
    ``config.batch`` cases."""
    probs = []
    step = model.config.batch
    for lo in range(0, len(cases), step):
        o = forward_batch(cases[lo:lo + step], model, topks[lo:lo + step]).o.data
        probs += [o[:, j].copy() for j in range(o.shape[1])]
    predicted = [predict_names(o, tau, model.charge_vocab) for o in probs]
    _, _, f1 = mx.micro_prf(mx.PredictionBatch(predicted, [c.gold_charges for c in cases]))
    return f1, probs


def _slots(case: CaseRecord, cfg: ModelConfig,
           bank: ExtractorBank | None) -> tuple[list, list[float] | None]:
    """A case's article slots: for fact_gold_art its gold articles and no
    scores, otherwise the extractor's top k and their scores. The bank must
    exist and fill all k slots."""
    if cfg.variant == Variant.FACT_GOLD_ART:
        return sorted(case.gold_articles, key=article_sort_key)[:cfg.k], None
    if bank is None:
        raise StateError(f"variant {cfg.variant.value} needs a trained extractor bank")
    if cfg.k > len(bank.article_ids):
        raise DomainError(f"k={cfg.k} exceeds the bank's {len(bank.article_ids)} articles")
    ranked = extract_top_k(case.tokens(), bank, k=cfg.k)
    return [aid for aid, _ in ranked], [score for _, score in ranked]


def _precompute_topk(cases: list[CaseRecord], cfg: ModelConfig,
                     bank: ExtractorBank | None) -> list:
    """Fixed article slots per case; the extractor is deterministic, so this
    is a pure cache."""
    if not cfg.uses_articles():
        return [None] * len(cases)
    return [_slots(case, cfg, bank)[0] for case in cases]


def train(train_set: list[CaseRecord], valid_set: list[CaseRecord],
          config: ModelConfig, seed: int, bank: ExtractorBank | None = None,
          article_db: dict | None = None,
          word_emb_path=None) -> tuple[ChargeModel, list[dict]]:
    """A new model trained from scratch: mini-batch SGD with per-epoch
    shuffles seeded by (seed, epoch) and early stopping on validation
    micro-F1. Returns the best-validation model, its tau tuned on that
    epoch's validation outputs.

    Each minibatch is one ``forward_batch`` graph. Each history entry holds
    the epoch's mean losses, the validation micro-F1 and
    ``tape_nodes_per_case``, the tape nodes recorded per training case.
    """
    if not train_set:
        raise DomainError("empty training set")
    if not valid_set:
        raise DomainError("empty validation set")

    word_vocab, pos_vocab = build_vocab(train_set)
    charge_vocab = sorted({c for case in train_set for c in case.gold_charges})
    rng = np.random.default_rng(seed)
    params = ModelParams.create(config, len(word_vocab), len(pos_vocab),
                                len(charge_vocab), rng)
    if word_emb_path is not None:
        n = apply_pretrained_embeddings(params, word_vocab, word_emb_path)
        log.info("loaded %d pretrained embedding rows", n)
    article_docs = {}
    if config.uses_articles():
        if article_db is None:
            raise StateError("article variants need an article database")
        article_docs = tokenize_article_db(article_db, word_vocab, pos_vocab)
    model = ChargeModel(config, params, word_vocab, pos_vocab, charge_vocab,
                        article_docs, tau=config.tau)

    train_topk = _precompute_topk(train_set, config, bank)
    valid_topk = _precompute_topk(valid_set, config, bank)
    targets = [charge_target(c.gold_charges, model.charge_vocab) for c in train_set]

    params = model.params.tensors()
    best_f1 = -1.0
    best_state: list[np.ndarray] = []
    best_probs: list[np.ndarray] = []
    best_epoch = -1
    stale = 0
    history: list[dict] = []

    for epoch in range(config.max_epochs):
        order = np.random.default_rng((seed, epoch)).permutation(len(train_set))
        epoch_loss = epoch_charge = epoch_attn = 0.0
        tape_nodes = 0
        for lo in range(0, len(order), config.batch):
            idx = order[lo:lo + config.batch]
            cases = [train_set[i] for i in idx]
            with Tape() as tape:
                batch = forward_batch(cases, model, [train_topk[i] for i in idx])
                batch_loss, charge_v, attn_v = _batch_loss(
                    batch, cases, np.stack([targets[i] for i in idx], axis=1), model)
                tape.backward(batch_loss, params)
            tape_nodes += len(tape)
            epoch_loss += batch_loss.item() * len(idx)
            epoch_charge += charge_v
            epoch_attn += attn_v
            nd.sgd_step(params, config.lr)

        valid_f1, probs = _evaluate(model, valid_set, valid_topk, config.tau)
        n = len(train_set)
        entry = {"epoch": epoch, "train_loss": epoch_loss / n,
                 "charge_loss": epoch_charge / n, "attention_loss": epoch_attn / n,
                 "valid_micro_f1": valid_f1, "tape_nodes_per_case": tape_nodes / n}
        history.append(entry)
        log.info("epoch %d: loss %.4f (charge %.4f, attention %.4f) valid micro-F1 %.4f",
                 epoch, entry["train_loss"], entry["charge_loss"],
                 entry["attention_loss"], valid_f1)

        if valid_f1 > best_f1:
            best_f1 = valid_f1
            best_state = [t.data.copy() for t in params]
            best_probs = probs
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                log.info("early stop at epoch %d (best %.4f at epoch %d)",
                         epoch, best_f1, best_epoch)
                break

    for t, data in zip(params, best_state):
        t.data = data
    model.epochs_completed = history[-1]["epoch"] + 1
    model.tau = tune_threshold(best_probs, [case.gold_charges for case in valid_set],
                               model.charge_vocab)
    return model, history


META_SUFFIX = ".meta.json"
# The sidecar fields load_model reads and the JSON type save_model writes each as.
SIDECAR_FIELDS = {"config": dict, "charge_vocab": list, "article_ids": list,
                  "word_vocab": list, "pos_vocab": list, "tau": float,
                  "epochs_completed": int, "checkpoint_sha256": str}


def _sha256(path) -> str:
    # Imported here: hashlib loads OpenSSL, about 3.6 MB of resident memory
    # that only saving and loading need.
    import hashlib

    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def save_model(path, model: ChargeModel) -> None:
    """Binary checkpoint plus a JSON sidecar with config, vocabularies, tau
    and the SHA-256 of the checkpoint bytes; each file is replaced
    atomically."""
    nd.save_checkpoint(path, model.params.named())
    word_in_order = [None] * len(model.word_vocab)
    for tok, i in model.word_vocab.items():
        word_in_order[i] = tok
    pos_in_order = [None] * len(model.pos_vocab)
    for tok, i in model.pos_vocab.items():
        pos_in_order[i] = tok
    meta = {
        "config": model.config.to_dict(),
        "charge_vocab": model.charge_vocab,
        "article_ids": [article_id_to_json(a)
                        for a in sorted(model.article_docs, key=article_sort_key)],
        "word_vocab": word_in_order,
        "pos_vocab": pos_in_order,
        "tau": model.tau,
        "epochs_completed": model.epochs_completed,
        "checkpoint_sha256": _sha256(path),
    }
    with nd.atomic_write(str(path) + META_SUFFIX, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, ensure_ascii=False)


def _read_sidecar(meta_path) -> tuple[dict, ModelConfig]:
    """The sidecar's fields and config; a sidecar that is not JSON, lacks a
    field, holds one of another type or a config ``ModelConfig`` rejects
    raises ``StateError`` naming it."""
    try:
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except ValueError as exc:
        raise StateError(f"sidecar {meta_path} is not JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise StateError(f"sidecar {meta_path} is not a JSON object")
    for key, kind in SIDECAR_FIELDS.items():
        if not isinstance(meta.get(key), kind):
            raise StateError(f"sidecar {meta_path} has no {kind.__name__} field {key!r}")
    unknown = sorted(set(meta["config"]) - {f.name for f in fields(ModelConfig)})
    if unknown:
        raise StateError(f"sidecar {meta_path} has config fields this version does not "
                         f"know: {unknown}")
    try:
        return meta, ModelConfig(**meta["config"])
    except (TypeError, ValueError) as exc:
        raise StateError(f"sidecar {meta_path} holds a bad config: {exc}") from exc


def load_model(path, article_db: dict | None = None) -> ChargeModel:
    """Inverse of ``save_model``; a corrupt sidecar, a checkpoint that is not
    the one its sidecar was written with, or one that does not fit the
    configured model raises ``StateError``."""
    meta_path = str(path) + META_SUFFIX
    meta, config = _read_sidecar(meta_path)
    digest = _sha256(path)
    if digest != meta["checkpoint_sha256"]:
        raise StateError(f"checkpoint {path} (SHA-256 {digest}) is not the one its sidecar "
                         f"{meta_path} records ({meta['checkpoint_sha256']})")
    word_vocab = {tok: i for i, tok in enumerate(meta["word_vocab"])}
    pos_vocab = {tok: i for i, tok in enumerate(meta["pos_vocab"])}
    params = ModelParams.create(config, len(word_vocab), len(pos_vocab),
                                len(meta["charge_vocab"]), np.random.default_rng(0))
    arrays = nd.load_checkpoint(path)
    named = dict(params.named())
    if set(arrays) != set(named):
        missing = set(named) ^ set(arrays)
        raise StateError(f"checkpoint does not match the configured model: {sorted(missing)}")
    for name, arr in arrays.items():
        if named[name].shape != arr.shape:
            raise StateError(f"parameter {name} has shape {arr.shape}, "
                             f"expected {named[name].shape}")
        named[name].data = arr.copy()
    article_docs = {}
    if config.uses_articles():
        if article_db is None:
            raise StateError("article variants need an article database to load")
        article_docs = tokenize_article_db(article_db, word_vocab, pos_vocab)
        want = {article_id_from_json(a) for a in meta["article_ids"]}
        have = set(article_docs)
        if not want <= have:
            raise StateError(f"article database is missing ids {sorted(want - have)}")
    return ChargeModel(config, params, word_vocab, pos_vocab, meta["charge_vocab"],
                       article_docs, tau=meta["tau"], epochs_completed=meta["epochs_completed"])


def prediction_record(trace: ForwardTrace, model: ChargeModel) -> dict:
    """Machine-readable prediction: charges with probabilities and the
    attention-ranked articles shown as legal basis, each with the
    shortlister's score when the extractor chose the slots (a disabled
    article's -inf is written as null, so the record is strict JSON)."""
    chosen = sorted(predict(trace.o, model.tau))
    record = {
        "charges": [model.charge_vocab[i] for i in chosen],
        "probabilities": {model.charge_vocab[i]: float(trace.o[i])
                          for i in range(len(model.charge_vocab))},
        "tau": model.tau,
    }
    if trace.topk is not None and trace.alpha is not None:
        record["articles"] = []
        for i in sorted(range(len(trace.topk)), key=lambda i: -trace.alpha[i]):
            entry = {"id": article_id_to_json(trace.topk[i]), "attention": float(trace.alpha[i])}
            if trace.extractor_scores is not None:
                score = trace.extractor_scores[i]
                entry["extractor_score"] = None if score == -np.inf else float(score)
            record["articles"].append(entry)
    return record
