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
                                              supervised toward gold,
                                              weight ``BETA``
fact_gold_art      fact + articles            gold articles (upper bound)
=================  =========================  ==========================

``forward_batch(cases)`` runs B cases as the columns of one graph; it is the
one graph builder for losses and gradients. ``train()`` records one per
minibatch, under one loss and one backward, and validation runs in chunks of
``config.batch`` cases. ``forward(case)`` is the serving view of one case. It
runs the same fact encoder (``ChargeModel.encode_fact``) and aggregator
(``aggregate_articles``) on a batch of one and differs from ``forward_batch``
in two ways only: it picks the slots itself (``_slots``), and it copies its
outputs into plain arrays, recording nothing even inside a ``Tape``. Its
slots go through ``encode_articles``, the one-case call of the same
``_encode_slots``. The layers:

* all facts go through one two-level ``encode_documents`` call;
* the dynamic contexts (``dynamic_context`` of d_f) are (state_dim, B), one
  column per case;
* each case scores its articles' word keys under its own context and pools
  their word states, in its own ``pool_words`` call; the sentence level then
  runs over the slots of every case at once, each slot pooled under its
  case's context;
* the aggregator runs max-slots steps over B columns, padded and masked,
  since cases may hold different numbers of slots (fact_gold_art uses a
  case's gold articles, at most k);
* the classifier and the softmax run once on (·, B).

Every column pool computes its keys tanh(W h), scores them and sums in one
step (``attentive_pool_steps``). The article word level is the exception:
the word-level Bi-GRU states of an article do not depend on the fact, and
neither do their word-attention keys tanh(W_aw h) (only the context u_aw
does), so both are computed once, held as (steps * sentences, state_dim)
rows by ``keyed_rows``, and shared by the word pools of every case:

* under a tape, a forward scans the union of its cases' slots once and
  keys every scanned row in one step; each case's ``pool_words`` adds its
  gradients into the rows it read, so the scan and key nodes each turn the
  gradients of the whole minibatch into parameter gradients once;
* with no tape, a forward reads ``ChargeModel.article_words``, the state
  and key rows of every article in the database. They are rebuilt when an
  array they are computed from is not the object the last build read, or
  when ``nd.sgd_step``, the one in-place writer of a model's read-only
  parameters, has run since; a batch checks that once.
"""

from __future__ import annotations

import logging
import numbers
import zlib
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from . import metrics as mx
from . import ndtensor as nd
from .article_extractor import ExtractorBank, extract_top_k
from .corpus import CaseRecord, article_id_to_json, article_sort_key, simple_tokenize
from .encoders import (
    AttentivePoolParams,
    BiGruParams,
    DocEncoderParams,
    encode_documents,
    encode_groups,
    keyed_rows,
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

# The weight of fact_supv_art's attention term in the joint loss.
BETA = 0.1


class Variant(str, Enum):
    FACT_ONLY = "fact_only"
    ART_ONLY = "art_only"
    FACT_ART = "fact_art"
    FACT_SUPV_ART = "fact_supv_art"
    FACT_GOLD_ART = "fact_gold_art"


ARTICLE_VARIANTS = {Variant.ART_ONLY, Variant.FACT_ART, Variant.FACT_SUPV_ART,
                    Variant.FACT_GOLD_ART}
# The variants whose slots the extractor bank picks.
EXTRACTOR_VARIANTS = ARTICLE_VARIANTS - {Variant.FACT_GOLD_ART}


@dataclass(frozen=True)
class ModelConfig:
    """The model's dimensions, variant and training settings, checked when
    the config is built; frozen, so no field leaves its range after the
    check. ``dataclasses.replace`` makes a checked copy with other values."""

    word_emb_dim: int = 100
    pos_emb_dim: int = 50
    gru_hidden: int = 75
    fc1_dim: int = 200
    fc2_dim: int = 150
    k: int = 20
    tau: float = 0.4
    lr: float = 0.1
    batch: int = 8
    variant: Variant = Variant.FACT_SUPV_ART
    max_epochs: int = 50
    patience: int = 5

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        for f in fields(self):
            kind = {"int": numbers.Integral, "float": numbers.Real}.get(f.type)
            value = getattr(self, f.name)
            if kind is None:
                continue
            if isinstance(value, bool) or not isinstance(value, kind):
                raise TypeError(f"{f.name} must be {f.type}, not {value!r}")
            # numpy scalars pass the check but would not save as JSON.
            object.__setattr__(self, f.name, int(value) if f.type == "int" else float(value))
        for name in ("word_emb_dim", "pos_emb_dim", "gru_hidden", "fc1_dim",
                     "fc2_dim", "k", "batch", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be positive")
        if not 0.0 < self.tau < 1.0:
            raise DomainError("tau must lie in (0, 1)")
        if not 0 < self.lr < np.inf:
            raise DomainError("lr must be finite and positive")

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
               rng: np.random.Generator | None) -> "ModelParams":
        """Every tensor of the configured model, drawn from ``rng``; with
        ``rng`` None, zeros and no draw: the layout ``load_model`` fills."""
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
    """Word-level Bi-GRU states of a set of articles, scanned as one batch,
    and their word-attention keys tanh(W_aw h), which need no fact."""

    states: Tensor     # (steps * n_sentences, state_dim): row t * n + j is step t of sentence j
    keys: Tensor       # the attention key of each state row, same layout
    lens: np.ndarray   # words per sentence
    cols: dict         # article id -> indices of its sentences, in order


@dataclass
class ChargeModel:
    """Trained parameters plus the vocabularies needed to run them.

    The parameter arrays are read-only from construction; ``nd.sgd_step`` is
    their one writer, which ``article_words`` relies on."""

    config: ModelConfig
    params: ModelParams
    word_vocab: dict[str, int]
    pos_vocab: dict[str, int]
    charge_vocab: list[str]
    article_docs: dict  # article id -> list of (word_ids, pos_ids) per sentence
    tau: float
    # The arrays the cached article states were computed from, the
    # nd.write_count() of that build, and the states.
    _article_cache: tuple[tuple[np.ndarray, ...], int, ArticleWords] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for t in self.params.tensors():
            t.data.flags.writeable = False

    def embed_tokens(self, word_ids: np.ndarray, pos_ids: np.ndarray) -> Tensor:
        return nd.concat([nd.embed(self.params.word_emb, word_ids),
                          nd.embed(self.params.pos_emb, pos_ids)], axis=0)

    def encode_fact(self, facts: list) -> tuple[Tensor, list, list]:
        """Fact embeddings (state_dim, B) of id-encoded facts, with their word
        and sentence attention, in one two-level encoder call."""
        enc = self.params.fact_enc
        return encode_documents(facts, enc, self.embed_tokens, u_word=enc.word_pool.u,
                                u_sent=enc.sent_pool.u)

    def article_words(self) -> ArticleWords:
        """Word-level states of every article in the database, for forwards
        with no tape.

        The cache keys on the six arrays they are computed from (both
        embeddings, the article word-level Bi-GRU and its word-attention
        ``w``), held by reference, and on ``nd.write_count()``; the check
        reads no array contents. The build marks those arrays read-only, so
        an in-place write other than ``nd.sgd_step``'s raises. (A write
        through a writable alias of their memory is not seen.)
        """
        p = self.params
        gru, pool = p.art_enc.word_gru, p.art_enc.word_pool
        inputs = (p.word_emb.data, p.pos_emb.data, gru.w.data, gru.u.data, gru.b.data,
                  pool.w.data)
        writes = nd.write_count()
        cache = self._article_cache
        if (cache is None or cache[1] != writes
                or any(kept is not now for kept, now in zip(cache[0], inputs))):
            for a in inputs:
                a.flags.writeable = False
            words = encode_article_words(self, sorted(self.article_docs, key=article_sort_key))
            cache = self._article_cache = (inputs, writes, words)
        return cache[2]


def build_vocab(cases: list[CaseRecord]) -> tuple[dict[str, int], dict[str, int]]:
    """Token and POS vocabularies with reserved padding and unknown ids."""
    pairs = {pair for c in cases for s in c.fact for pair in s}
    words = sorted({tok for tok, _ in pairs})
    tags = sorted({pos for _, pos in pairs})
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
    """One embedding lookup, one word-level Bi-GRU scan and one product for
    the word-attention keys over every sentence of the given articles, which
    must be in ``model.article_docs``; none of them depends on the fact."""
    sents: list = []
    cols = {}
    for aid in article_ids:
        doc = model.article_docs[aid]
        cols[aid] = np.arange(len(sents), len(sents) + len(doc))
        sents.extend(doc)
    enc = model.params.art_enc
    states, lens = scan_words(sents, enc.word_gru, model.embed_tokens)
    return ArticleWords(*keyed_rows(states, enc.word_pool.w), lens, cols)


def _encode_slots(model: ChargeModel, topks: list[list], d_f: Tensor) -> Tensor:
    """Embeddings of every case's article slots, pooled with contexts generated
    from that case's column of d_f: (state_dim, total slots), the slots of
    case j after those of case j - 1.

    Each case pools its sentences' word states in its own ``pool_words``
    call, which gathers only that case's rows of the shared states; all
    cases' slots then run the sentence level as one batch. With no tape
    recording the word states and keys are ``model.article_words()``; under a
    tape they come from one scan of the union of the cases' slots.
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
        pooled.append(pool_words(words.states, words.keys, words.lens, sel,
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

    The one-case form of ``_encode_slots``, which ``forward`` calls. It stays
    only because the benchmark's per-layer trace counts article slots
    through its calls; ROADMAP item 1 moves that count and deletes it.
    """
    return _encode_slots(model, [article_ids], d_f)


def aggregate_articles(a_mat: Tensor, n_slots: list[int], model: ChargeModel,
                       d_f: Tensor) -> tuple[Tensor, Tensor]:
    """Bi-GRU over each case's article sequence (``n_slots[j]`` consecutive
    columns of ``a_mat`` for case j), pooled with the context generated from
    column j of d_f: the (state_dim, B) embeddings and the (max slots, B)
    attention."""
    p = model.params
    return encode_groups(a_mat, n_slots, p.agg_gru, p.agg_pool,
                         dynamic_context(d_f, p.w_d, p.b_d))


def forward(case: CaseRecord, model: ChargeModel,
            bank: ExtractorBank | None = None) -> ForwardTrace:
    """Serve one case: its outputs as arrays, equal bit for bit to column 0 of
    ``forward_batch([case], ...)`` run with no tape on the same slots.

    The article slots are ``_slots`` of the case: the bank's top k, or the
    gold articles for fact_gold_art. Nothing is recorded, even inside a
    ``Tape``: the outputs are arrays, so no gradient could reach the graph.
    """
    cfg = model.config
    fact_ids = case_to_ids(case.fact, model.word_vocab, model.pos_vocab)
    slots = None
    scores = None
    d_a = None
    alpha = None
    with nd.no_recording():
        d_f, word_attn, sent_attn = model.encode_fact([fact_ids])
        if cfg.uses_articles():
            slots, scores = _slots(case, cfg, bank)
            a_mat = encode_articles(slots, model, d_f)
            d_a, alpha = aggregate_articles(a_mat, [len(slots)], model, d_f)
        o = _charge_distribution(model, d_f, d_a)
    return ForwardTrace(
        o=o.data[:, 0].copy(),
        word_attn=word_attn[0],
        sent_attn=sent_attn[0],
        topk=slots,
        extractor_scores=scores,
        alpha=None if alpha is None else alpha.data[:, 0].copy(),
    )


def forward_batch(cases: list[CaseRecord], model: ChargeModel, topks: list) -> BatchTrace:
    """Run several cases as the columns of one graph; record on any ambient tape.

    ``topks[j]`` are the article slots of ``cases[j]`` (ignored by
    fact_only); cases may hold different numbers of slots. When they are the
    slots ``forward`` picks, column j of every output equals
    ``forward(cases[j], model, bank)`` up to rounding. Under a tape the union
    of the slots is scanned once.
    """
    if not cases or len(topks) != len(cases):
        raise DomainError(f"forward_batch got {len(cases)} cases and {len(topks)} slot lists")
    facts = [case_to_ids(case.fact, model.word_vocab, model.pos_vocab) for case in cases]
    d_f, word_attn, sent_attn = model.encode_fact(facts)
    d_a = alpha = None
    if model.config.uses_articles():
        topks = [list(ids) for ids in topks]
        a_mat = _encode_slots(model, topks, d_f)
        d_a, alpha = aggregate_articles(a_mat, [len(ids) for ids in topks], model, d_f)
    return BatchTrace(_charge_distribution(model, d_f, d_a), word_attn, sent_attn,
                      topks, alpha)


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
    columns of ``y``, plus the summed charge and attention terms for logging:
    the charge cross entropy plus, for fact_supv_art only, ``BETA`` times the
    attention cross entropy toward ``attention_target``. A case with no gold
    article among its slots has no attention term."""
    cfg = model.config
    charge_term = total = nd.cross_entropy(y, batch.o)
    attn_v = 0.0
    if cfg.variant == Variant.FACT_SUPV_ART:
        targets = [attention_target(topk, case.gold_articles, cfg.k)
                   for case, topk in zip(cases, batch.topks)]
        live = [j for j, target in enumerate(targets) if target is not None]
        if live:
            attn_term = nd.cross_entropy(np.stack([targets[j] for j in live], axis=1),
                                         nd.take_cols(batch.alpha, live))
            total = charge_term + BETA * attn_term
            attn_v = attn_term.item()
    return total * (1.0 / len(cases)), charge_term.item(), attn_v


def _evaluate(model: ChargeModel, cases: list[CaseRecord],
              topks: list) -> tuple[float, list[np.ndarray]]:
    """Validation micro-F1 at ``config.tau`` and the charge distributions,
    run in batches of ``config.batch`` cases."""
    probs = []
    step = model.config.batch
    for lo in range(0, len(cases), step):
        o = forward_batch(cases[lo:lo + step], model, topks[lo:lo + step]).o.data
        probs += [o[:, j].copy() for j in range(o.shape[1])]
    predicted = [predict_names(o, model.config.tau, model.charge_vocab) for o in probs]
    _, _, f1 = mx.micro_prf(mx.PredictionBatch(predicted, [c.gold_charges for c in cases]))
    return f1, probs


def _slots(case: CaseRecord, cfg: ModelConfig,
           bank: ExtractorBank | None) -> tuple[list, list[float] | None]:
    """A case's article slots: for fact_gold_art its gold articles and no
    scores, otherwise the extractor's top k and their scores. The bank must
    exist; ``extract_top_k`` rejects a k beyond its articles."""
    if cfg.variant == Variant.FACT_GOLD_ART:
        return sorted(case.gold_articles, key=article_sort_key)[:cfg.k], None
    if bank is None:
        raise StateError(f"variant {cfg.variant.value} needs a trained extractor bank")
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
          article_db: dict | None = None) -> tuple[ChargeModel, list[dict]]:
    """A new model trained from scratch: mini-batch SGD with per-epoch
    shuffles seeded by (seed, epoch) and early stopping on validation
    micro-F1. Returns the best-validation model, its tau tuned on that
    epoch's validation outputs. When the best epoch is the last one run, no
    copy of the parameters is kept or restored.

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
        if epoch and best_epoch == epoch - 1:
            # The parameters hold the best epoch until this epoch's steps.
            best_state = [t.data.copy() for t in params]
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

        valid_f1, probs = _evaluate(model, valid_set, valid_topk)
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
            best_probs = probs
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                log.info("early stop at epoch %d (best %.4f at epoch %d)",
                         epoch, best_f1, best_epoch)
                break

    if best_epoch != len(history) - 1:
        for t, data in zip(params, best_state):
            data.flags.writeable = False
            t.data = data
    for t in params:
        t.parked_grad = None
    model.tau = tune_threshold(best_probs, [case.gold_charges for case in valid_set],
                               model.charge_vocab)
    return model, history


def fingerprint(model: ChargeModel) -> str:
    """CRC-32 (``zlib``) of every parameter's name, shape and values, in name
    order, as eight hex digits: the same for a model and its ``load_model``
    copy, and moved by an ``sgd_step`` that moves a parameter."""
    crc = 0
    for name, t in sorted(model.params.named(), key=lambda item: item[0]):
        crc = zlib.crc32(f"{name}{t.shape}".encode(), crc)
        crc = zlib.crc32(np.ascontiguousarray(t.data), crc)
    return f"{crc:08x}"


def prediction_record(trace: ForwardTrace, model: ChargeModel) -> dict:
    """Machine-readable prediction: charges with probabilities, tau, the
    model's ``fingerprint`` and the attention-ranked articles shown as legal
    basis, each with the shortlister's score; fact_gold_art's gold slots
    carry none."""
    chosen = sorted(predict(trace.o, model.tau))
    record = {
        "charges": [model.charge_vocab[i] for i in chosen],
        "probabilities": {model.charge_vocab[i]: float(trace.o[i])
                          for i in range(len(model.charge_vocab))},
        "tau": model.tau,
        "fingerprint": fingerprint(model),
    }
    if trace.topk is not None and trace.alpha is not None:
        record["articles"] = []
        for i in sorted(range(len(trace.topk)), key=lambda i: -trace.alpha[i]):
            entry = {"id": article_id_to_json(trace.topk[i]), "attention": float(trace.alpha[i])}
            if trace.extractor_scores is not None:
                entry["extractor_score"] = float(trace.extractor_scores[i])
            record["articles"].append(entry)
    return record
