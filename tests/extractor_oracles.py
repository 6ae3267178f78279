"""The per-article scorer training that ``article_extractor.train_scorer``
replaced, kept as a test oracle: chi-square over one label column, the
selected columns copied out with ``take``, and one hinge-loss trainer run per
article. The batched trainer must reproduce it."""

from __future__ import annotations

import math

import numpy as np

from chargenet.ndtensor import DomainError


def chi_square_scores(x: np.ndarray, labels: list[bool]) -> np.ndarray:
    """Per-feature chi-square of the 2x2 presence/label table, observed vs
    expected, for every column of the (cases, features) matrix ``x``."""
    y = np.asarray(labels, dtype=bool)
    n = len(y)
    pos_total = int(y.sum())
    neg_total = n - pos_total
    if pos_total == 0 or neg_total == 0:
        raise DomainError("chi-square needs both a positive and a negative class")
    present = np.count_nonzero(x, axis=0).astype(np.float64)
    present_pos = np.count_nonzero(x[y], axis=0).astype(np.float64)
    present_neg = present - present_pos
    # Cells in row-major order: (present, pos), (present, neg), (absent, pos), (absent, neg).
    observed = [present_pos, present_neg, pos_total - present_pos, neg_total - present_neg]
    rows = [present, present, n - present, n - present]
    cols = [pos_total, neg_total, pos_total, neg_total]
    scores = np.zeros(x.shape[1])
    with np.errstate(invalid="ignore", divide="ignore"):
        for obs, row, col in zip(observed, rows, cols):
            expected = row * col / n
            scores += np.where(expected > 0, (obs - expected) ** 2 / expected, 0.0)
    return scores


def chi_square_select(x: np.ndarray, labels: list[bool], top_m: int) -> np.ndarray:
    """Column indices of the top_m highest-scoring features; ties go to the
    lower index."""
    return np.argsort(-chi_square_scores(x, labels), kind="stable")[:top_m]


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


def train_scorer(x: np.ndarray, labels: list[bool], top_m: int = 2000,
                 epochs: int = 100, lr0: float = 0.1,
                 l2: float = 1e-4) -> tuple[np.ndarray, float]:
    """Chi-square selection then hinge-loss training for one article on the
    (cases, features) matrix ``x``: its weight row (zero off the selected
    features) and bias."""
    row = np.zeros(x.shape[1])
    selected = chi_square_select(x, labels, top_m)
    y = np.where(np.asarray(labels), 1.0, -1.0)
    row[selected], bias = _train_linear(x.take(selected, axis=1), y, epochs, lr0, l2)
    return row, bias


def train_scorers(x: np.ndarray, labels: np.ndarray, top_m: int = 2000,
                  epochs: int = 100, lr0: float = 0.1,
                  l2: float = 1e-4) -> tuple[np.ndarray, np.ndarray]:
    """One ``train_scorer`` per column of the (cases, articles) ``labels``,
    stacked into a weight matrix and a bias vector."""
    rows = [train_scorer(x, list(col), top_m, epochs, lr0, l2) for col in labels.T]
    weights = np.zeros((labels.shape[1], x.shape[1]))
    bias = np.zeros(labels.shape[1])
    for i, (row, b) in enumerate(rows):
        weights[i], bias[i] = row, b
    return weights, bias
