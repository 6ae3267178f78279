"""Multi-label charge metrics (micro/macro precision, recall, F1) and ranking
quality for the extracted-article lists (recall@k, Prec@1, mean average
precision)."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .ndtensor import DomainError

# Published full-corpus reference for the supervised-attention model, shown in
# reports for context only; desk-scale runs never assert against it.
REFERENCE_FULL_CORPUS = {"micro_f1": 0.9021, "macro_f1": 0.8048}


class ValidationError(ValueError):
    """Inconsistent evaluation inputs (mismatched test sets, ragged lists)."""


@dataclass
class PredictionBatch:
    """Aligned per-case predictions: charge sets, plus optional article
    rankings, which come with the gold article sets or not at all."""

    predicted: list[set]
    gold: list[set]
    ranked_articles: list[list] | None = None
    gold_articles: list[set] | None = None

    def __post_init__(self):
        if len(self.predicted) != len(self.gold):
            raise ValidationError(
                f"{len(self.predicted)} predictions vs {len(self.gold)} gold sets")
        if any(not g for g in self.gold):
            raise ValidationError("every case needs a non-empty gold charge set")
        if (self.ranked_articles is None) != (self.gold_articles is None):
            raise ValidationError("ranked_articles and gold_articles come together or "
                                  "not at all")
        for extra in (self.ranked_articles, self.gold_articles):
            if extra is not None and len(extra) != len(self.gold):
                raise ValidationError("article lists must align with the case list")

    def __len__(self):
        return len(self.gold)


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def micro_prf(batch: PredictionBatch) -> tuple[float, float, float]:
    """Precision/recall/F1 over all individual (case, charge) decisions."""
    if not len(batch):
        raise DomainError("empty prediction batch")
    tp = sum(len(p & g) for p, g in zip(batch.predicted, batch.gold))
    fp = sum(len(p - g) for p, g in zip(batch.predicted, batch.gold))
    fn = sum(len(g - p) for p, g in zip(batch.predicted, batch.gold))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall, _f1(precision, recall)


def macro_prf(batch: PredictionBatch) -> tuple[float, float, float]:
    """Charge-averaged precision and recall, and the harmonic mean of the two.

    Only charges present in the gold sets enter the average; a charge that is
    never predicted contributes precision 0.
    """
    if not len(batch):
        raise DomainError("empty prediction batch")
    per_charge = per_charge_prf(batch)
    macro_p = sum(p for p, _, _ in per_charge.values()) / len(per_charge)
    macro_r = sum(r for _, r, _ in per_charge.values()) / len(per_charge)
    return macro_p, macro_r, _f1(macro_p, macro_r)


def per_charge_prf(batch: PredictionBatch) -> dict:
    """Precision/recall/F1 per gold charge; ``macro_prf`` averages these."""
    out = {}
    for charge in {c for g in batch.gold for c in g}:
        tp = sum(charge in p and charge in g for p, g in zip(batch.predicted, batch.gold))
        fp = sum(charge in p and charge not in g for p, g in zip(batch.predicted, batch.gold))
        fn = sum(charge not in p and charge in g for p, g in zip(batch.predicted, batch.gold))
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        out[charge] = (p, r, _f1(p, r))
    return out


def recall_at_k(rankings: list[list], gold_sets: list[set],
                k_values: list[int]) -> dict[int, float]:
    """Fraction of gold article instances found in the top k, micro-averaged.

    ``rankings`` holds ranked article-id lists (ids only, best first).
    """
    if not rankings:
        raise DomainError("empty ranking list")
    if len(rankings) != len(gold_sets):
        raise ValidationError(f"{len(rankings)} rankings vs {len(gold_sets)} gold sets")
    total = sum(len(g) for g in gold_sets)
    out = {}
    for k in k_values:
        hits = sum(len(set(ranked[:k]) & gold) for ranked, gold in zip(rankings, gold_sets))
        out[k] = hits / total if total else 0.0
    return out


def prec_at_1(rankings: list[list], gold_sets: list[set]) -> float:
    """Fraction of cases whose top-ranked article is gold."""
    if not rankings:
        raise DomainError("empty ranking list")
    if len(rankings) != len(gold_sets):
        raise ValidationError(f"{len(rankings)} rankings vs {len(gold_sets)} gold sets")
    hits = sum(bool(ranked) and ranked[0] in gold for ranked, gold in zip(rankings, gold_sets))
    return hits / len(rankings)


def average_precision(ranked: list, gold: set) -> float:
    """Mean over gold items of precision at the item's rank.

    Gold items missing from a truncated ranking contribute zero but stay in
    the denominator. A ranking that repeats an id raises ValidationError.
    """
    if not gold:
        raise DomainError("average precision of an empty gold set")
    if len(set(ranked)) != len(ranked):
        raise ValidationError(f"ranking {ranked!r} repeats an id")
    score = 0.0
    hits = 0
    for rank, item in enumerate(ranked, start=1):
        if item in gold:
            hits += 1
            score += hits / rank
    return score / len(gold)


def mean_average_precision(rankings: list[list], gold_sets: list[set]) -> float:
    if not rankings:
        raise DomainError("empty ranking list")
    if len(rankings) != len(gold_sets):
        raise ValidationError(f"{len(rankings)} rankings vs {len(gold_sets)} gold sets")
    return sum(average_precision(r, g) for r, g in zip(rankings, gold_sets)) / len(rankings)


@dataclass
class VariantRow:
    variant: str
    micro: tuple[float, float, float]
    macro: tuple[float, float, float]
    prec_at_1: float | None = None
    mean_ap: float | None = None


@dataclass
class VariantReport:
    rows: list[VariantRow]
    deltas: dict[tuple[str, str], float]

    def to_records(self) -> list[dict]:
        out = []
        for row in self.rows:
            rec = {
                "variant": row.variant,
                "micro_p": row.micro[0], "micro_r": row.micro[1], "micro_f1": row.micro[2],
                "macro_p": row.macro[0], "macro_r": row.macro[1], "macro_f1": row.macro[2],
            }
            if row.prec_at_1 is not None:
                rec["prec_at_1"] = row.prec_at_1
            if row.mean_ap is not None:
                rec["map"] = row.mean_ap
            out.append(rec)
        return out

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(rec) for rec in self.to_records()) + "\n"

    def to_text(self) -> str:
        header = (f"{'variant':<18} {'micro P/R/F1':>23} {'macro P/R/F1':>23} "
                  f"{'Prec@1':>8} {'MAP':>8}")
        lines = [header, "-" * len(header)]
        for row in self.rows:
            micro = "/".join(f"{x:.4f}" for x in row.micro)
            macro = "/".join(f"{x:.4f}" for x in row.macro)
            p1 = f"{row.prec_at_1:.4f}" if row.prec_at_1 is not None else "-"
            ap = f"{row.mean_ap:.4f}" if row.mean_ap is not None else "-"
            lines.append(f"{row.variant:<18} {micro:>23} {macro:>23} {p1:>8} {ap:>8}")
        lines.append("-" * len(header))
        for (a, b), d in sorted(self.deltas.items()):
            lines.append(f"micro-F1 delta {a} - {b}: {d:+.4f}")
        ref = REFERENCE_FULL_CORPUS
        lines.append(f"full-corpus reference (context only, not asserted): "
                     f"micro-F1 {ref['micro_f1']:.4f}, macro-F1 {ref['macro_f1']:.4f}")
        return "\n".join(lines) + "\n"


def compare_variants(results: dict[str, PredictionBatch]) -> VariantReport:
    """Side-by-side metric table over variants sharing one test set."""
    if not results:
        raise DomainError("no variant results to compare")
    golds = [batch.gold for batch in results.values()]
    if any(g != golds[0] for g in golds[1:]):
        raise ValidationError("variants evaluated on different test sets")
    rows = []
    for variant, batch in results.items():
        row = VariantRow(variant, micro_prf(batch), macro_prf(batch))
        if batch.ranked_articles is not None:
            row.prec_at_1 = prec_at_1(batch.ranked_articles, batch.gold_articles)
            row.mean_ap = mean_average_precision(batch.ranked_articles, batch.gold_articles)
        rows.append(row)
    deltas = {}
    for i, a in enumerate(rows):
        for b in rows[i + 1:]:
            deltas[(a.variant, b.variant)] = a.micro[2] - b.micro[2]
    return VariantReport(rows, deltas)
