"""Fast statute-article shortlisting: one linear binary scorer per article over
chi-square-selected TF-IDF features, producing the top-k candidates per case.

Article ids are plain integers, or (number, sub_number) pairs for sub-clause
provisions; ``article_sort_key`` orders the two forms consistently.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .ndtensor import DomainError, ShapeError, StateError, atomic_write

log = logging.getLogger(__name__)

ArticleId = "int | tuple[int, int]"

BANK_FORMAT_VERSION = 1


def article_sort_key(article_id) -> tuple[int, int]:
    if isinstance(article_id, tuple):
        return article_id
    return (article_id, 0)


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


def transform(doc: list[str], m: TfidfModel) -> dict[int, float]:
    """Sparse raw-count TF-IDF vector, L2-normalized; unknown tokens dropped."""
    counts: dict[int, int] = {}
    for tok in doc:
        col = m.vocabulary.get(tok)
        if col is not None:
            counts[col] = counts.get(col, 0) + 1
    vec = {col: c * m.idf[col] for col, c in counts.items() if m.idf[col] != 0.0}
    norm = math.sqrt(sum(v * v for v in vec.values()))
    if norm > 0:
        vec = {col: v / norm for col, v in vec.items()}
    return vec


def chi_square_scores(features: list[dict[int, float]], labels: list[bool],
                      n_features: int) -> np.ndarray:
    """Per-feature chi-square from the 2x2 presence/label table, observed vs expected."""
    n = len(features)
    pos_total = sum(labels)
    neg_total = n - pos_total
    if pos_total == 0 or neg_total == 0:
        raise DomainError("chi-square needs both a positive and a negative class")
    present = np.zeros(n_features)
    present_pos = np.zeros(n_features)
    for feats, label in zip(features, labels):
        for col in feats:
            present[col] += 1
            if label:
                present_pos[col] += 1
    scores = np.zeros(n_features)
    for col in range(n_features):
        observed = np.array([
            [present_pos[col], present[col] - present_pos[col]],
            [pos_total - present_pos[col], neg_total - (present[col] - present_pos[col])],
        ])
        rows = observed.sum(axis=1, keepdims=True)
        cols = observed.sum(axis=0, keepdims=True)
        expected = rows * cols / n
        with np.errstate(invalid="ignore", divide="ignore"):
            terms = np.where(expected > 0, (observed - expected) ** 2 / expected, 0.0)
        scores[col] = terms.sum()
    return scores


def chi_square_select(features: list[dict[int, float]], labels: list[bool],
                      top_m: int, n_features: int | None = None) -> list[int]:
    """Indices of the top_m highest-scoring features; ties go to the lower index."""
    if n_features is None:
        n_features = 1 + max((c for f in features for c in f), default=-1)
    scores = chi_square_scores(features, labels, n_features)
    order = sorted(range(n_features), key=lambda c: (-scores[c], c))
    return order[:top_m]


@dataclass
class LinearScorer:
    """Hinge-loss linear decision function for one article over selected features."""

    article_id: object
    selected_features: list[int]
    weights: np.ndarray | None  # None: no positive training data, scores -inf
    bias: float = 0.0
    _slot: dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.weights is not None and len(self.weights) != len(self.selected_features):
            raise ShapeError("weight vector length must match selected feature count")
        self._slot = {col: i for i, col in enumerate(self.selected_features)}

    def score(self, vec: dict[int, float]) -> float:
        if self.weights is None:
            return -math.inf
        total = self.bias
        for col, val in vec.items():
            slot = self._slot.get(col)
            if slot is not None:
                total += self.weights[slot] * val
        return total


@dataclass
class ExtractorBank:
    """Immutable-after-training set of per-article scorers plus the shared TF-IDF."""

    tfidf: TfidfModel
    scorers: list[LinearScorer]
    k: int

    def __post_init__(self):
        ids = [s.article_id for s in self.scorers]
        if len(set(ids)) != len(ids):
            raise DomainError("duplicate article ids in scorer bank")
        if self.k < 1 or self.k > len(self.scorers):
            raise DomainError(f"k={self.k} outside [1, {len(self.scorers)}]")


def _train_linear(x: np.ndarray, y: np.ndarray, epochs: int, lr0: float,
                  l2: float) -> tuple[np.ndarray, float]:
    """Full-batch subgradient descent on L2-regularized mean hinge loss."""
    w = np.zeros(x.shape[1])
    b = 0.0
    n = len(y)
    for t in range(1, epochs + 1):
        margins = y * (x @ w + b)
        viol = margins < 1.0
        grad_w = l2 * w - (x[viol].T @ y[viol]) / n
        grad_b = -y[viol].sum() / n
        lr = lr0 / math.sqrt(t)
        w -= lr * grad_w
        b -= lr * grad_b
    return w, b


def train_scorer(article_id, features: list[dict[int, float]], labels: list[bool],
                 n_features: int, top_m: int = 2000, epochs: int = 100,
                 lr0: float = 0.1, l2: float = 1e-4) -> LinearScorer:
    """Chi-square selection then hinge-loss training for one article."""
    if not any(labels):
        log.warning("article %r has no positive examples; scorer disabled", article_id)
        return LinearScorer(article_id, [], None)
    selected = chi_square_select(features, labels, top_m, n_features)
    x = np.zeros((len(features), len(selected)))
    slot = {col: i for i, col in enumerate(selected)}
    for row, feats in enumerate(features):
        for col, val in feats.items():
            if col in slot:
                x[row, slot[col]] = val
    y = np.where(np.array(labels), 1.0, -1.0)
    w, b = _train_linear(x, y, epochs, lr0, l2)
    return LinearScorer(article_id, selected, w, b)


def train_scorers(cases: list[tuple[dict[int, float], set]], tfidf: TfidfModel,
                  k: int = 20, article_ids: list | None = None, top_m: int = 2000,
                  epochs: int = 100, lr0: float = 0.1, l2: float = 1e-4) -> ExtractorBank:
    """One binary scorer per article (one-vs-rest) over pre-transformed cases."""
    if not cases:
        raise DomainError("train_scorers needs at least one case")
    features = [f for f, _ in cases]
    if article_ids is None:
        article_ids = sorted({a for _, gold in cases for a in gold}, key=article_sort_key)
    scorers = [
        train_scorer(aid, features, [aid in gold for _, gold in cases],
                     tfidf.n_features, top_m, epochs, lr0, l2)
        for aid in article_ids
    ]
    return ExtractorBank(tfidf, scorers, k)


def build_bank(docs_tokens: list[list[str]], gold_sets: list[set], k: int = 20,
               article_ids: list | None = None, top_m: int = 2000,
               epochs: int = 100, lr0: float = 0.1, l2: float = 1e-4) -> ExtractorBank:
    """Fit TF-IDF on the corpus and train the full scorer bank."""
    if len(docs_tokens) != len(gold_sets):
        raise ShapeError(f"{len(docs_tokens)} documents vs {len(gold_sets)} gold sets")
    tfidf = fit_tfidf(docs_tokens)
    cases = [(transform(doc, tfidf), gold) for doc, gold in zip(docs_tokens, gold_sets)]
    return train_scorers(cases, tfidf, k, article_ids, top_m, epochs, lr0, l2)


def extend_bank(bank: ExtractorBank, article_id,
                cases: list[tuple[dict[int, float], set]], top_m: int = 2000,
                epochs: int = 100, lr0: float = 0.1, l2: float = 1e-4) -> ExtractorBank:
    """Add one more article's scorer; existing scorers are reused untouched."""
    if any(s.article_id == article_id for s in bank.scorers):
        raise DomainError(f"bank already scores article {article_id!r}")
    features = [f for f, _ in cases]
    labels = [article_id in gold for _, gold in cases]
    scorer = train_scorer(article_id, features, labels, bank.tfidf.n_features,
                          top_m, epochs, lr0, l2)
    return ExtractorBank(bank.tfidf, bank.scorers + [scorer], bank.k)


def extract_top_k(fact_tokens: list[str], bank: ExtractorBank,
                  k: int | None = None) -> list[tuple[object, float]]:
    """Every scorer evaluated, articles ranked by decision score, top k returned.

    Equal scores resolve to the smaller article id, so the ranking is
    deterministic.
    """
    if k is None:
        k = bank.k
    vec = transform(fact_tokens, bank.tfidf)
    ranked = sorted(((s.article_id, s.score(vec)) for s in bank.scorers),
                    key=lambda pair: (-pair[1], article_sort_key(pair[0])))
    return ranked[:k]


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


def _id_to_json(article_id):
    return list(article_id) if isinstance(article_id, tuple) else article_id


def _id_from_json(value):
    return tuple(value) if isinstance(value, list) else value


def save_bank(path, bank: ExtractorBank) -> None:
    """Versioned JSON layout, replaced atomically; floats survive the round
    trip exactly."""
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
                "article_id": _id_to_json(s.article_id),
                "selected": s.selected_features,
                "weights": None if s.weights is None else s.weights.tolist(),
                "bias": s.bias,
            }
            for s in bank.scorers
        ],
    }
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False)


def load_bank(path) -> ExtractorBank:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("version") != BANK_FORMAT_VERSION:
        raise StateError(f"unsupported bank version {payload.get('version')!r}")
    tfidf = TfidfModel(
        {tok: i for i, tok in enumerate(payload["tfidf"]["vocabulary"])},
        np.array(payload["tfidf"]["idf"]),
        payload["tfidf"]["doc_count"],
    )
    scorers = [
        LinearScorer(_id_from_json(s["article_id"]), s["selected"],
                     None if s["weights"] is None else np.array(s["weights"]),
                     s["bias"])
        for s in payload["scorers"]
    ]
    return ExtractorBank(tfidf, scorers, payload["k"])
