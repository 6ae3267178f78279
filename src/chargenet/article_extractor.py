"""Fast statute-article shortlisting: one linear binary scorer per article over
chi-square-selected TF-IDF features, producing the top-k candidates per case.

The scorers form one matrix. ``ExtractorBank.weights`` holds a row per
article and a column per TF-IDF feature, zero outside the features selected
for that article, so ``weights @ x + bias`` scores every article at once.
They are also trained as one matrix: ``chi_square_scores`` takes the
(cases, articles) labels matrix and scores every article's features from one
product, and ``train_scorer`` runs a single hinge-loss loop that updates all
rows together. Rows are kept in ``article_sort_key`` order, which makes a
stable sort of the scores break ties toward the smaller article id. An
article with no positive training case has a zero row and bias -inf, so it
ranks last.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .corpus import article_id_from_json, article_id_to_json, article_sort_key
from .ndtensor import DomainError, ShapeError, StateError, atomic_write

log = logging.getLogger(__name__)

BANK_FORMAT_VERSION = 1


@dataclass
class TfidfModel:
    """Vocabulary with inverse-document-frequency weights."""

    vocabulary: dict[str, int]
    idf: np.ndarray
    doc_count: int

    @property
    def n_features(self) -> int:
        return len(self.vocabulary)


def fit_tfidf(corpus: list[list[str]]) -> TfidfModel:
    """idf(w) = ln(N / df(w)) over the given tokenized documents, no smoothing."""
    if not corpus:
        raise DomainError("fit_tfidf needs a non-empty corpus")
    df: dict[str, int] = {}
    for doc in corpus:
        for tok in set(doc):
            df[tok] = df.get(tok, 0) + 1
    vocab = {tok: i for i, tok in enumerate(sorted(df))}
    n = len(corpus)
    idf = np.zeros(len(vocab))
    for tok, i in vocab.items():
        idf[i] = math.log(n / df[tok])
    return TfidfModel(vocab, idf, n)


def transform(doc: list[str], m: TfidfModel) -> np.ndarray:
    """Dense (n_features,) raw-count TF-IDF vector, L2-normalized; unknown
    tokens dropped. The norm sums the squares in first-occurrence order."""
    counts: dict[int, int] = {}
    for tok in doc:
        col = m.vocabulary.get(tok)
        if col is not None:
            counts[col] = counts.get(col, 0) + 1
    vec = np.zeros(m.n_features)
    for col, c in counts.items():
        vec[col] = c * m.idf[col]
    norm = math.sqrt(sum(vec[col] * vec[col] for col in counts))
    if norm > 0:
        vec /= norm
    return vec


def _label_matrix(x: np.ndarray, labels) -> np.ndarray:
    """``labels`` as a bool (cases, articles) matrix over the rows of ``x``."""
    y = np.asarray(labels, dtype=bool)
    if y.ndim != 2 or y.shape[0] != x.shape[0]:
        raise ShapeError(f"labels {y.shape} do not fit {x.shape[0]} cases x articles")
    return y


def chi_square_scores(x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Chi-square of the 2x2 presence/label table, observed vs expected, for
    every column of the (cases, features) matrix ``x`` against every column
    of the (cases, articles) bool ``labels``: an (articles, features) array."""
    y = _label_matrix(x, labels)
    n = y.shape[0]
    pos_total = np.count_nonzero(y, axis=0).astype(np.float64)[:, None]
    neg_total = n - pos_total
    if not (pos_total.all() and neg_total.all()):
        raise DomainError("chi-square needs both a positive and a negative class")
    present = np.count_nonzero(x, axis=0).astype(np.float64)
    # Counts of 0/1 products are exact in float64.
    present_pos = y.T.astype(np.float64) @ (x != 0).astype(np.float64)
    present_neg = present - present_pos
    # Cells in row-major order: (present, pos), (present, neg), (absent, pos), (absent, neg).
    observed = [present_pos, present_neg, pos_total - present_pos, neg_total - present_neg]
    rows = [present, present, n - present, n - present]
    cols = [pos_total, neg_total, pos_total, neg_total]
    scores = np.zeros(present_pos.shape)
    with np.errstate(invalid="ignore", divide="ignore"):
        for obs, row, col in zip(observed, rows, cols):
            expected = row * col / n
            scores += np.where(expected > 0, (obs - expected) ** 2 / expected, 0.0)
    return scores


def chi_square_select(x: np.ndarray, labels: np.ndarray, top_m: int) -> np.ndarray:
    """Per article (row), the column indices of its top_m highest-scoring
    features; ties go to the lower index."""
    return np.argsort(-chi_square_scores(x, labels), axis=1, kind="stable")[:, :top_m]


@dataclass
class ExtractorBank:
    """The shared TF-IDF and every article's linear scorer: row i of the
    (n_articles, n_features) ``weights`` and ``bias[i]`` score
    ``article_ids[i]``. The rows are put in ``article_sort_key`` order."""

    tfidf: TfidfModel
    article_ids: list
    weights: np.ndarray
    bias: np.ndarray
    k: int

    def __post_init__(self):
        n = len(self.article_ids)
        if len(set(self.article_ids)) != n:
            raise DomainError("duplicate article ids in scorer bank")
        if self.weights.shape != (n, self.tfidf.n_features) or self.bias.shape != (n,):
            raise ShapeError(f"weights {self.weights.shape} and bias {self.bias.shape} "
                             f"do not fit {n} articles x {self.tfidf.n_features} features")
        if self.k < 1 or self.k > n:
            raise DomainError(f"k={self.k} outside [1, {n}]")
        order = sorted(range(n), key=lambda i: article_sort_key(self.article_ids[i]))
        self.article_ids = [self.article_ids[i] for i in order]
        self.weights = self.weights[order]
        self.bias = self.bias[order]


def train_scorer(x: np.ndarray, labels: np.ndarray, top_m: int = 2000,
                 epochs: int = 100, lr0: float = 0.1,
                 l2: float = 1e-4) -> tuple[np.ndarray, np.ndarray]:
    """Every article's scorer on the (cases, features) matrix ``x`` and the
    (cases, articles) bool ``labels``, trained together: the (articles,
    features) weights and the (articles,) bias.

    Each article keeps the top_m features by chi-square. One full-batch
    subgradient loop on the L2-regularized mean hinge loss then updates all
    rows at once, the weight gradient masked to each row's selected columns,
    so the other weights stay exactly zero. An article without a positive
    case gets a zero row and bias -inf.
    """
    labels = _label_matrix(x, labels)
    weights = np.zeros((labels.shape[1], x.shape[1]))
    bias = np.full(labels.shape[1], -math.inf)
    active = labels.any(axis=0)
    if not active.any():
        return weights, bias
    y = np.where(labels[:, active], 1.0, -1.0)
    mask = np.zeros((y.shape[1], x.shape[1]))
    np.put_along_axis(mask, chi_square_select(x, labels[:, active], top_m), 1.0, axis=1)
    w = np.zeros(mask.shape)
    b = np.zeros(y.shape[1])
    n = y.shape[0]
    # The (cases, articles) work arrays are reused across epochs: fresh ones
    # each epoch leave about 0.6 MB more resident memory after a bank build.
    margins = np.empty(y.shape)
    viol = np.empty(y.shape, dtype=bool)
    y_viol = np.empty(y.shape)
    for t in range(1, epochs + 1):
        np.matmul(x, w.T, out=margins)
        margins += b
        margins *= y
        np.less(margins, 1.0, out=viol)
        np.multiply(y, viol, out=y_viol)
        grad_w = (l2 * w - (y_viol.T @ x) / n) * mask
        grad_b = -y_viol.sum(axis=0) / n
        lr = lr0 / math.sqrt(t)
        w -= lr * grad_w
        b -= lr * grad_b
    weights[active] = w
    bias[active] = b
    return weights, bias


def _gold_labels(article_ids: list, gold_sets: list[set]) -> np.ndarray:
    """The (cases, articles) bool matrix of gold membership; warns about each
    article without a positive case, whose scorer will be disabled."""
    labels = np.array([[aid in gold for aid in article_ids] for gold in gold_sets],
                      dtype=bool).reshape(len(gold_sets), len(article_ids))
    for aid, col in zip(article_ids, labels.T):
        if not col.any():
            log.warning("article %r has no positive examples; scorer disabled", aid)
    return labels


def build_bank(docs_tokens: list[list[str]], gold_sets: list[set], k: int = 20,
               article_ids: list | None = None, top_m: int = 2000,
               epochs: int = 100, lr0: float = 0.1, l2: float = 1e-4) -> ExtractorBank:
    """Fit TF-IDF on the corpus and train one binary scorer per article
    (one-vs-rest; by default every gold article), all in one
    ``train_scorer`` call over the full labels matrix."""
    if len(docs_tokens) != len(gold_sets):
        raise ShapeError(f"{len(docs_tokens)} documents vs {len(gold_sets)} gold sets")
    tfidf = fit_tfidf(docs_tokens)
    x = np.stack([transform(doc, tfidf) for doc in docs_tokens])
    if article_ids is None:
        article_ids = sorted({a for gold in gold_sets for a in gold}, key=article_sort_key)
    weights, bias = train_scorer(x, _gold_labels(article_ids, gold_sets), top_m, epochs, lr0, l2)
    return ExtractorBank(tfidf, article_ids, weights, bias, k)


def extend_bank(bank: ExtractorBank, article_id, docs_tokens: list[list[str]],
                gold_sets: list[set], top_m: int = 2000, epochs: int = 100,
                lr0: float = 0.1, l2: float = 1e-4) -> ExtractorBank:
    """Add one more article's scorer, trained on the given cases under the
    bank's TF-IDF; the existing rows are reused untouched."""
    if article_id in bank.article_ids:
        raise DomainError(f"bank already scores article {article_id!r}")
    x = np.stack([transform(doc, bank.tfidf) for doc in docs_tokens])
    row, bias = train_scorer(x, _gold_labels([article_id], gold_sets), top_m, epochs, lr0, l2)
    return ExtractorBank(bank.tfidf, bank.article_ids + [article_id],
                         np.vstack([bank.weights, row]), np.append(bank.bias, bias), bank.k)


def extract_top_k(fact_tokens: list[str], bank: ExtractorBank,
                  k: int | None = None) -> list[tuple[object, float]]:
    """Every article scored, ranked by decision score, top k returned.

    Equal scores resolve to the smaller article id, so the ranking is
    deterministic.
    """
    if k is None:
        k = bank.k
    # One dot product per row, through matmul over the stacked (1, F) rows:
    # a (A, F) @ (F,) gemv rounds each row differently depending on how many
    # rows there are, so adding an article could move the others' scores.
    vec = transform(fact_tokens, bank.tfidf)
    scores = (bank.weights[:, None, :] @ vec)[:, 0] + bank.bias
    return [(bank.article_ids[i], float(scores[i]))
            for i in np.argsort(-scores, kind="stable")[:k]]


def recall_at_k(extractions: list[list], gold_sets: list[set],
                k_values: list[int]) -> dict[int, float]:
    """Fraction of gold article instances found in the top k, micro-averaged.

    ``extractions`` holds ranked article-id lists (ids only, best first).
    """
    if len(extractions) != len(gold_sets):
        raise ShapeError(f"{len(extractions)} rankings vs {len(gold_sets)} gold sets")
    total = sum(len(g) for g in gold_sets)
    out = {}
    for k in k_values:
        hits = sum(len(set(ranked[:k]) & gold) for ranked, gold in zip(extractions, gold_sets))
        out[k] = hits / total if total else 0.0
    return out


def save_bank(path, bank: ExtractorBank) -> None:
    """Versioned JSON layout, replaced atomically; floats survive the round
    trip exactly. Each article's row is written as its nonzero columns
    (``selected``) and their ``weights``; a disabled article as weights null."""
    vocab_in_order = [None] * bank.tfidf.n_features
    for tok, i in bank.tfidf.vocabulary.items():
        vocab_in_order[i] = tok
    payload = {
        "version": BANK_FORMAT_VERSION,
        "k": bank.k,
        "tfidf": {
            "vocabulary": vocab_in_order,
            "idf": bank.tfidf.idf.tolist(),
            "doc_count": bank.tfidf.doc_count,
        },
        "scorers": [
            {
                "article_id": article_id_to_json(aid),
                "selected": np.flatnonzero(row).tolist(),
                "weights": None if bias == -math.inf else row[row != 0].tolist(),
                "bias": 0.0 if bias == -math.inf else bias,
            }
            for aid, row, bias in zip(bank.article_ids, bank.weights, bank.bias)
        ],
    }
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False)


def _field(record, key: str, kind, where: str):
    """``record[key]``, which must exist and be of type ``kind``."""
    if not isinstance(record, dict) or key not in record:
        raise StateError(f"bank {where} has no {key!r}")
    value = record[key]
    if not isinstance(value, kind):
        raise StateError(f"bank {where} field {key!r} has type {type(value).__name__}")
    return value


def _numbers(values: list, where: str) -> list:
    if not all(isinstance(v, (int, float)) for v in values):
        raise StateError(f"bank {where} holds a non-numeric value")
    return values


def load_bank(path) -> ExtractorBank:
    """Read a ``save_bank`` file. A malformed file raises StateError naming
    the problem."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StateError(f"bank {path} is not JSON: {exc}") from exc
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != BANK_FORMAT_VERSION:
        raise StateError(f"unsupported bank version {version!r}")
    tf = _field(payload, "tfidf", dict, "file")
    vocabulary = _field(tf, "vocabulary", list, "tfidf")
    idf = _numbers(_field(tf, "idf", list, "tfidf"), "tfidf idf")
    if len(idf) != len(vocabulary):
        raise StateError(f"bank tfidf has {len(vocabulary)} words but {len(idf)} idf values")
    tfidf = TfidfModel({tok: i for i, tok in enumerate(vocabulary)},
                       np.array(idf, dtype=np.float64), _field(tf, "doc_count", int, "tfidf"))
    records = _field(payload, "scorers", list, "file")
    weights = np.zeros((len(records), tfidf.n_features))
    bias = np.zeros(len(records))
    article_ids = []
    for i, rec in enumerate(records):
        where = f"scorer {i}"
        article_ids.append(article_id_from_json(_field(rec, "article_id", (int, list), where)))
        row = _field(rec, "weights", (list, type(None)), where)
        if row is None:
            bias[i] = -math.inf
            continue
        selected = _field(rec, "selected", list, where)
        if len(row) != len(selected):
            raise StateError(f"bank {where} has {len(selected)} selected columns "
                             f"but {len(row)} weights")
        if not all(isinstance(c, int) and 0 <= c < tfidf.n_features for c in selected):
            raise StateError(f"bank {where} selects a column outside "
                             f"[0, {tfidf.n_features})")
        weights[i, selected] = _numbers(row, f"{where} weights")
        bias[i] = _field(rec, "bias", (int, float), where)
    return ExtractorBank(tfidf, article_ids, weights, bias, _field(payload, "k", int, "file"))
