"""Fast statute-article shortlisting: one linear binary scorer per article over
chi-square-selected TF-IDF features, producing the top-k candidates per case.

The scorers form one matrix. ``ExtractorBank.weights`` holds a row per
article and a column per TF-IDF feature, zero outside the features selected
for that article, so ``weights @ x + bias`` scores every article at once.
They are also trained as one matrix: ``chi_square_scores`` takes the
(cases, articles) labels matrix and scores every article's features from one
product, and ``train_scorer`` runs a single hinge-loss loop that updates all
rows together. Rows are kept in ``article_sort_key`` order, which makes a
stable sort of the scores break ties toward the smaller article id.

A bank scores exactly the articles its training cases cite, so every scorer
has a positive case. It is trained once, on the fixed schedule of the
``SCORER_*`` constants; no article is added to it afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import _is_article_id, article_id_from_json, article_id_to_json, article_sort_key
from .ndtensor import (DomainError, ShapeError, StateError, load_arrays, save_arrays,
                       vocab_index)

# Each scorer reads its SCORER_FEATURES features of highest chi-square. The
# full-batch subgradient schedule: the step at epoch t is SCORER_LR0 / sqrt(t),
# and SCORER_L2 weights the L2 penalty.
SCORER_FEATURES = 2000
SCORER_EPOCHS = 100
SCORER_LR0 = 0.1
SCORER_L2 = 1e-4


@dataclass
class TfidfModel:
    """Vocabulary with inverse-document-frequency weights."""

    vocabulary: dict[str, int]
    idf: np.ndarray

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
    return TfidfModel(vocab, idf)


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


def train_scorer(x: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every article's scorer on the (cases, features) matrix ``x`` and the
    (cases, articles) bool ``labels``, trained together: the (articles,
    features) weights and the (articles,) bias.

    Each article keeps its ``SCORER_FEATURES`` features of highest
    chi-square; ``chi_square_scores`` rejects an article without both a
    positive and a negative case. One full-batch subgradient loop of
    ``SCORER_EPOCHS`` epochs on the L2-regularized mean hinge loss then
    updates all rows at once, the weight gradient masked to each row's
    selected columns, so the other weights stay exactly zero.
    """
    labels = _label_matrix(x, labels)
    y = np.where(labels, 1.0, -1.0)
    mask = np.zeros((y.shape[1], x.shape[1]))
    np.put_along_axis(mask, chi_square_select(x, labels, SCORER_FEATURES), 1.0, axis=1)
    w = np.zeros(mask.shape)
    b = np.zeros(y.shape[1])
    n = y.shape[0]
    # The (cases, articles) work arrays are reused across epochs: fresh ones
    # each epoch leave about 0.6 MB more resident memory after a bank build.
    margins = np.empty(y.shape)
    viol = np.empty(y.shape, dtype=bool)
    y_viol = np.empty(y.shape)
    for t in range(1, SCORER_EPOCHS + 1):
        np.matmul(x, w.T, out=margins)
        margins += b
        margins *= y
        np.less(margins, 1.0, out=viol)
        np.multiply(y, viol, out=y_viol)
        grad_w = (SCORER_L2 * w - (y_viol.T @ x) / n) * mask
        grad_b = -y_viol.sum(axis=0) / n
        lr = SCORER_LR0 / math.sqrt(t)
        w -= lr * grad_w
        b -= lr * grad_b
    return w, b


def build_bank(docs_tokens: list[list[str]], gold_sets: list[set], k: int = 20) -> ExtractorBank:
    """Fit TF-IDF on the corpus and train one binary scorer (one-vs-rest) for
    every article a gold set cites, all in one ``train_scorer`` call over
    the full labels matrix."""
    if len(docs_tokens) != len(gold_sets):
        raise ShapeError(f"{len(docs_tokens)} documents vs {len(gold_sets)} gold sets")
    tfidf = fit_tfidf(docs_tokens)
    x = np.stack([transform(doc, tfidf) for doc in docs_tokens])
    article_ids = sorted({a for gold in gold_sets for a in gold}, key=article_sort_key)
    labels = np.array([[aid in gold for aid in article_ids] for gold in gold_sets], dtype=bool)
    weights, bias = train_scorer(x, labels)
    return ExtractorBank(tfidf, article_ids, weights, bias, k)


def extract_top_k(fact_tokens: list[str], bank: ExtractorBank,
                  k: int | None = None) -> list[tuple[object, float]]:
    """Every article scored, ranked by decision score, top k returned; k
    defaults to ``bank.k`` and must lie in [1, number of articles].

    Equal scores resolve to the smaller article id, so the ranking is
    deterministic.
    """
    if k is None:
        k = bank.k
    if not 1 <= k <= len(bank.article_ids):
        raise DomainError(f"k={k} is below 1 or exceeds the bank's "
                          f"{len(bank.article_ids)} articles")
    # One dot product per row, through matmul over the stacked (1, F) rows:
    # a (A, F) @ (F,) gemv rounds a row differently depending on where it
    # sits and on the BLAS thread count, so two articles with equal rows
    # (the same training positives) could score a last bit apart and lose
    # the tie-break by id.
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


# The meta fields load_bank reads, and the dtype of every array of a bank file.
BANK_FIELDS = {"k": int, "vocabulary": list, "article_ids": list}
BANK_ARRAYS = {"idf": np.float64, "bias": np.float64, "scorers": np.int64,
               "selected": np.int64, "weights": np.float64}


def save_bank(path, bank: ExtractorBank) -> None:
    """One bank file (``save_arrays``), replaced atomically. The ``idf`` and
    ``bias`` arrays are stored as they are. The weight matrix is stored as
    its nonzero entries, so the file grows with the selected features:
    ``weights[i]`` sits in row ``scorers[i]`` and column ``selected[i]``.
    The meta holds k, the vocabulary in column order and the article ids in
    row order."""
    scorers, selected = np.nonzero(bank.weights)
    vocab = bank.tfidf.vocabulary
    save_arrays(path, "bank", {
        "idf": bank.tfidf.idf, "bias": bank.bias, "scorers": scorers,
        "selected": selected, "weights": bank.weights[scorers, selected],
    }, {
        "k": bank.k,
        "vocabulary": sorted(vocab, key=vocab.__getitem__),
        "article_ids": [article_id_to_json(aid) for aid in bank.article_ids],
    })


def load_bank(path) -> ExtractorBank:
    """Read a ``save_bank`` file. Besides the faults ``load_arrays`` rejects,
    a missing array or one of another dtype or rank, a vocabulary entry
    that is not a string or that repeats an earlier one, an article id that
    is not one, an index outside the matrix, or an idf, weight or bias that
    is NaN or infinite raises StateError naming the file and the problem.
    Meta fields outside ``BANK_FIELDS``, such as the ``doc_count`` older
    files hold, are ignored."""
    source = f"bank file {path}"
    arrays, meta = load_arrays(path, "bank", BANK_FIELDS)
    for name, dtype in BANK_ARRAYS.items():
        if name not in arrays:
            raise StateError(f"{source} has no {name!r} array")
        arr = arrays[name]
        if arr.dtype != dtype or arr.ndim != 1:
            raise StateError(f"{source} array {name!r} has type {arr.dtype} and shape "
                             f"{arr.shape}, not {np.dtype(dtype)} and one axis")
    idf, bias, scorers, selected, values = (arrays[name] for name in BANK_ARRAYS)
    tfidf = TfidfModel(vocab_index(meta["vocabulary"], source, "vocabulary"), idf)
    if idf.size != tfidf.n_features:
        raise StateError(f"{source} has {tfidf.n_features} words but {idf.size} idf values")
    article_ids = []
    for i, aid in enumerate(meta["article_ids"]):
        if not _is_article_id(aid):
            raise StateError(f"{source} scorer {i} has the article id {aid!r}, "
                             "not a positive int or a pair of them")
        article_ids.append(article_id_from_json(aid))
    if bias.size != len(article_ids):
        raise StateError(f"{source} has {len(article_ids)} article ids but "
                         f"{bias.size} bias values")
    if not scorers.size == selected.size == values.size:
        raise StateError(f"{source} has {scorers.size} scorer rows and {selected.size} "
                         f"selected columns but {values.size} weights")
    if ((scorers < 0) | (scorers >= len(article_ids))).any():
        raise StateError(f"{source} selects a row outside [0, {len(article_ids)})")
    if ((selected < 0) | (selected >= tfidf.n_features)).any():
        raise StateError(f"{source} selects a column outside [0, {tfidf.n_features})")
    if not np.isfinite(np.concatenate([idf, values, bias])).all():
        raise StateError(f"{source} holds a non-numeric value (NaN) or an infinity")
    weights = np.zeros((len(article_ids), tfidf.n_features))
    weights[scorers, selected] = values
    try:
        return ExtractorBank(tfidf, article_ids, weights, bias, meta["k"])
    except DomainError as exc:
        raise StateError(f"{source}: {exc}") from exc
