import numpy as np
import numpy.testing as npt
import pytest

from chargenet import metrics as mx
from chargenet.metrics import PredictionBatch, ValidationError
from chargenet.ndtensor import DomainError


def batch(pred, gold, **kw):
    return PredictionBatch([set(p) for p in pred], [set(g) for g in gold], **kw)


class TestMicro:
    def test_perfect(self):
        b = batch([["a"], ["b", "c"]], [["a"], ["b", "c"]])
        assert mx.micro_prf(b) == (1.0, 1.0, 1.0)

    def test_all_empty_predictions(self):
        b = batch([[], []], [["a"], ["b"]])
        assert mx.micro_prf(b) == (0.0, 0.0, 0.0)

    def test_matches_brute_force_counts(self):
        rng = np.random.default_rng(0)
        labels = list("abcdef")
        for _ in range(30):
            n = rng.integers(1, 12)
            pred = [set(rng.choice(labels, rng.integers(0, 4), replace=False)) for _ in range(n)]
            gold = [set(rng.choice(labels, rng.integers(1, 4), replace=False)) for _ in range(n)]
            p, r, f1 = mx.micro_prf(PredictionBatch(pred, gold))
            tp = sum(len(a & b_) for a, b_ in zip(pred, gold))
            fp = sum(len(a - b_) for a, b_ in zip(pred, gold))
            fn = sum(len(b_ - a) for a, b_ in zip(pred, gold))
            assert p == (tp / (tp + fp) if tp + fp else 0.0)
            assert r == (tp / (tp + fn) if tp + fn else 0.0)
            if p + r:
                assert f1 == pytest.approx(2 * p * r / (p + r), abs=1e-12)
            assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        pred = [set(rng.choice(5, 2, replace=False).tolist()) for _ in range(10)]
        gold = [set(rng.choice(5, 2, replace=False).tolist()) for _ in range(10)]
        perm = rng.permutation(10)
        a = mx.micro_prf(PredictionBatch(pred, gold))
        b = mx.micro_prf(PredictionBatch([pred[i] for i in perm], [gold[i] for i in perm]))
        assert a == b

    def test_empty_batch_rejected(self):
        with pytest.raises(DomainError):
            mx.micro_prf(PredictionBatch([], []))


class TestMacro:
    def test_single_charge_perfect(self):
        b = batch([["a"], ["a"]], [["a"], ["a"]])
        assert mx.macro_prf(b) == (1.0, 1.0, 1.0)

    def test_one_charge_never_predicted(self):
        b = batch([["a"], ["a"], [], []], [["a"], ["a"], ["b"], ["b"]])
        p, r, f1 = mx.macro_prf(b)
        assert r == 0.5
        assert p == 0.5  # never-predicted charge counts precision 0
        assert f1 == pytest.approx(0.5)

    def test_matches_per_charge_oracle(self):
        rng = np.random.default_rng(2)
        labels = list("abcd")
        for _ in range(20):
            n = rng.integers(2, 10)
            pred = [set(rng.choice(labels, rng.integers(0, 3), replace=False)) for _ in range(n)]
            gold = [set(rng.choice(labels, rng.integers(1, 3), replace=False)) for _ in range(n)]
            b = PredictionBatch(pred, gold)
            charges = sorted({c for g in gold for c in g})
            ps, rs = [], []
            for c in charges:
                tp = sum(c in a and c in g for a, g in zip(pred, gold))
                fp = sum(c in a and c not in g for a, g in zip(pred, gold))
                fn = sum(c not in a and c in g for a, g in zip(pred, gold))
                ps.append(tp / (tp + fp) if tp + fp else 0.0)
                rs.append(tp / (tp + fn) if tp + fn else 0.0)
            p, r, _ = mx.macro_prf(b)
            assert p == pytest.approx(np.mean(ps), abs=1e-12)
            assert r == pytest.approx(np.mean(rs), abs=1e-12)

    def test_is_the_mean_of_per_charge_prf(self):
        """Macro-P and macro-R average the per-charge rows; the F1 is their
        harmonic mean."""
        rng = np.random.default_rng(3)
        labels = list("abcd")
        for _ in range(20):
            n = rng.integers(2, 10)
            pred = [set(rng.choice(labels, rng.integers(0, 3), replace=False)) for _ in range(n)]
            gold = [set(rng.choice(labels, rng.integers(1, 3), replace=False)) for _ in range(n)]
            b = PredictionBatch(pred, gold)
            p, r, _ = np.mean(list(mx.per_charge_prf(b).values()), axis=0)
            f1 = 2 * p * r / (p + r) if p + r else 0.0
            npt.assert_allclose(mx.macro_prf(b), (p, r, f1), rtol=0, atol=1e-12)

    def test_gold_absent_charges_excluded(self):
        b = batch([["a", "zzz"], ["a"]], [["a"], ["a"]])
        p, r, f1 = mx.macro_prf(b)
        assert r == 1.0  # zzz never gold, so it does not enter the average

    def test_duplicated_case_leaves_other_charges_untouched(self):
        pred = [{"a"}, {"b"}, {"b", "c"}]
        gold = [{"a"}, {"b"}, {"c"}]
        before = mx.per_charge_prf(PredictionBatch(pred, gold))
        after = mx.per_charge_prf(PredictionBatch(pred + [{"a"}], gold + [{"a"}]))
        for charge in ("b", "c"):
            assert before[charge] == after[charge]


class TestRecallAtK:
    def test_gold_always_first(self):
        ext = [[1, 2, 3], [4, 5, 6]]
        gold = [{1}, {4}]
        out = mx.recall_at_k(ext, gold, [1, 2, 3])
        assert out == {1: 1.0, 2: 1.0, 3: 1.0}

    def test_gold_never_present(self):
        assert mx.recall_at_k([[1, 2]], [{9}], [1, 2]) == {1: 0.0, 2: 0.0}

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="1 rankings vs 2 gold sets"):
            mx.recall_at_k([[1]], [{1}, {2}], [1])

    def test_empty_ranking_list(self):
        """An empty evaluation raises, as in ``prec_at_1`` and
        ``mean_average_precision``, in place of reading as zero recall."""
        with pytest.raises(DomainError, match="empty ranking list"):
            mx.recall_at_k([], [], [1, 5])

    def test_matches_brute_force_membership_count(self):
        rng = np.random.default_rng(4)
        ext, gold = [], []
        for _ in range(40):
            ranked = list(rng.permutation(20))
            ext.append(ranked)
            gold.append(set(rng.choice(20, rng.integers(1, 4), replace=False).tolist()))
        out = mx.recall_at_k(ext, gold, [5, 10, 20])
        for k in (5, 10, 20):
            hits = sum(len([a for a in g if a in r[:k]]) for r, g in zip(ext, gold))
            assert out[k] == hits / sum(len(g) for g in gold)
        assert out[5] <= out[10] <= out[20]

    def test_monotone_in_k(self):
        rng = np.random.default_rng(5)
        ext = [list(rng.permutation(15)) for _ in range(30)]
        gold = [set(rng.choice(15, 2, replace=False).tolist()) for _ in range(30)]
        rec = mx.recall_at_k(ext, gold, list(range(1, 16)))
        vals = [rec[k] for k in range(1, 16)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestRanking:
    def test_prec_at_1_extremes(self):
        assert mx.prec_at_1([[1, 2], [3, 4]], [{1}, {3}]) == 1.0
        assert mx.prec_at_1([[1, 2], [3, 4]], [{2}, {4}]) == 0.0

    def test_prec_at_1_hand_count(self):
        rankings = [[1, 2], [2, 1], [3, 1], [1, 3]]
        gold = [{1}, {1}, {3}, {3}]
        assert mx.prec_at_1(rankings, gold) == 0.5

    def test_ap_single_gold(self):
        assert mx.average_precision([7, 8], {7}) == 1.0
        assert mx.average_precision([8, 7], {7}) == 0.5

    def test_ap_two_gold(self):
        assert mx.average_precision([1, 9, 2], {1, 2}) == pytest.approx(5 / 6, abs=1e-15)

    def test_missing_gold_counts_in_denominator(self):
        assert mx.average_precision([1], {1, 2}) == 0.5

    @pytest.mark.parametrize("ranked", [[101, 101], [101, 102, 101], [(133, 1), (133, 1)]])
    def test_ap_rejects_a_repeated_id(self, ranked):
        with pytest.raises(ValidationError, match="repeats an id"):
            mx.average_precision(ranked, {101})

    def test_map_rejects_a_repeated_id(self):
        with pytest.raises(ValidationError, match="repeats an id"):
            mx.mean_average_precision([[101, 101, 102]], [{101, 102}])

    def test_map_is_mean_of_ap(self):
        rankings = [[1, 9, 2], [4, 5]]
        gold = [{1, 2}, {5}]
        expected = (5 / 6 + 0.5) / 2
        assert mx.mean_average_precision(rankings, gold) == pytest.approx(expected, abs=1e-15)

    def test_map_one_iff_gold_ahead_of_nongold(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            items = list(rng.permutation(8))
            n_gold = int(rng.integers(1, 5))
            gold = set(items[:n_gold]) if rng.random() < 0.5 else \
                set(rng.choice(8, n_gold, replace=False).tolist())
            ap = mx.average_precision(items, gold)
            ahead = all(items.index(g) < min((items.index(x) for x in items
                                              if x not in gold), default=8)
                        for g in gold)
            assert (ap == 1.0) == ahead

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            mx.prec_at_1([[1]], [{1}, {2}])


class TestCompareVariants:
    def test_identical_predictions_zero_deltas(self):
        b1 = batch([["a"], ["b"]], [["a"], ["b"]])
        b2 = batch([["a"], ["b"]], [["a"], ["b"]])
        report = mx.compare_variants({"fact_only": b1, "fact_art": b2})
        assert all(d == 0.0 for d in report.deltas.values())

    def test_mismatched_test_sets_rejected(self):
        b1 = batch([["a"]], [["a"]])
        b2 = batch([["a"]], [["b"]])
        with pytest.raises(ValidationError):
            mx.compare_variants({"x": b1, "y": b2})

    def test_report_round_trips_through_jsonl(self):
        import json

        b = batch([["a"], ["b"]], [["a"], ["b", "c"]],
                  ranked_articles=[[1, 2], [2, 1]], gold_articles=[{1}, {1}])
        report = mx.compare_variants({"fact_supv_art": b})
        lines = report.to_jsonl().strip().split("\n")
        parsed = [json.loads(line) for line in lines]
        assert parsed == report.to_records()
        assert parsed[0]["variant"] == "fact_supv_art"
        assert "prec_at_1" in parsed[0] and "map" in parsed[0]

    @pytest.mark.parametrize("given", ["ranked_articles", "gold_articles"])
    def test_article_rankings_without_their_gold_sets_are_rejected(self, given):
        """One of the two alone would drop Prec@1 and MAP from the report
        without a word."""
        articles = {"ranked_articles": [[1, 2]], "gold_articles": [{1}]}
        with pytest.raises(ValidationError, match="come together"):
            batch([["a"]], [["a"]], **{given: articles[given]})

    def test_text_report_contains_reference_row(self):
        b = batch([["a"]], [["a"]])
        text = mx.compare_variants({"fact_only": b}).to_text()
        assert "0.9021" in text and "not asserted" in text
