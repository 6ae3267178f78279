import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from chargenet import article_extractor as ax
from chargenet.ndtensor import DomainError, ShapeError


def toy_corpus():
    return [
        ["theft", "night", "shop"],
        ["fraud", "money", "shop"],
        ["theft", "money", "night", "night"],
    ]


class TestTfidf:
    def test_token_in_every_document(self):
        m = ax.fit_tfidf([["shop", "theft"], ["shop", "fraud"], ["shop"]])
        assert m.idf[m.vocabulary["shop"]] == 0.0

    def test_token_in_one_document(self):
        m = ax.fit_tfidf(toy_corpus())
        assert m.idf[m.vocabulary["fraud"]] == pytest.approx(math.log(3), abs=1e-15)

    def test_empty_corpus(self):
        with pytest.raises(DomainError):
            ax.fit_tfidf([])

    def test_hand_summed_oracle(self):
        corpus = toy_corpus()
        m = ax.fit_tfidf(corpus)
        # brute-force reference: tf * ln(N/df), then L2 normalization
        df = {}
        for doc in corpus:
            for tok in set(doc):
                df[tok] = df.get(tok, 0) + 1
        for doc in corpus:
            raw = {}
            for tok in doc:
                raw[tok] = raw.get(tok, 0) + 1
            dense = {m.vocabulary[t]: c * math.log(len(corpus) / df[t]) for t, c in raw.items()}
            dense = {c: v for c, v in dense.items() if v != 0.0}
            norm = math.sqrt(sum(v * v for v in dense.values()))
            expected = {c: v / norm for c, v in dense.items()} if norm else {}
            got = ax.transform(doc, m)
            assert set(got) == set(expected)
            for c in got:
                assert got[c] == pytest.approx(expected[c], abs=1e-12)

    def test_transform_empty_doc(self):
        m = ax.fit_tfidf(toy_corpus())
        assert ax.transform([], m) == {}

    def test_transform_single_word_is_unit(self):
        m = ax.fit_tfidf(toy_corpus())
        vec = ax.transform(["fraud"], m)
        assert list(vec) == [m.vocabulary["fraud"]]
        assert vec[m.vocabulary["fraud"]] == pytest.approx(1.0, abs=1e-15)

    def test_oov_dropped(self):
        m = ax.fit_tfidf(toy_corpus())
        assert ax.transform(["unseen", "tokens"], m) == {}


class TestChiSquare:
    def test_independent_feature_scores_zero_and_ranks_last(self):
        # feature 0 present in half of each class, feature 1 only in positives
        features = [{0: 1.0, 1: 1.0}, {1: 1.0}, {0: 1.0}, {}]
        labels = [True, True, False, False]
        scores = ax.chi_square_scores(features, labels, 2)
        assert scores[0] == 0.0
        order = ax.chi_square_select(features, labels, 2)
        assert order == [1, 0]

    def test_perfect_predictor_scores_n(self):
        rng = np.random.default_rng(0)
        for n_pos, n_neg in [(3, 5), (10, 10), (2, 17)]:
            labels = [True] * n_pos + [False] * n_neg
            features = [{0: 1.0} if lab else {} for lab in labels]
            extra = rng.integers(0, 2, n_pos + n_neg)
            for i, e in enumerate(extra):
                if e:
                    features[i][1] = 1.0
            scores = ax.chi_square_scores(features, labels, 2)
            assert scores[0] == pytest.approx(n_pos + n_neg, abs=1e-9)

    def test_matches_observed_expected_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(4, 30))
            labels = [bool(rng.integers(0, 2)) for _ in range(n)]
            if not any(labels):
                labels[0] = True
            if all(labels):
                labels[-1] = False
            features = [{c: 1.0 for c in rng.choice(6, rng.integers(0, 5), replace=False)}
                        for _ in range(n)]
            scores = ax.chi_square_scores(features, labels, 6)
            for col in range(6):
                a = sum(1 for f, l in zip(features, labels) if col in f and l)
                b = sum(1 for f, l in zip(features, labels) if col in f and not l)
                c = sum(1 for f, l in zip(features, labels) if col not in f and l)
                d = sum(1 for f, l in zip(features, labels) if col not in f and not l)
                expected = 0.0
                for obs, row, colm in [(a, a + b, a + c), (b, a + b, b + d),
                                       (c, c + d, a + c), (d, c + d, b + d)]:
                    e = row * colm / n
                    if e > 0:
                        expected += (obs - e) ** 2 / e
                assert scores[col] == pytest.approx(expected, abs=1e-9)

    def test_single_class_rejected(self):
        with pytest.raises(DomainError):
            ax.chi_square_select([{0: 1.0}, {1: 1.0}], [True, True], 1)

    def test_duplicating_corpus_keeps_ranking(self):
        rng = np.random.default_rng(2)
        features = [{c: 1.0 for c in rng.choice(8, rng.integers(1, 6), replace=False)}
                    for _ in range(12)]
        labels = [bool(rng.integers(0, 2)) for _ in range(12)]
        labels[0], labels[1] = True, False
        base = ax.chi_square_select(features, labels, 8, n_features=8)
        doubled = ax.chi_square_select(features * 2, labels * 2, 8, n_features=8)
        assert base == doubled
        s1 = ax.chi_square_scores(features, labels, 8)
        s2 = ax.chi_square_scores(features * 2, labels * 2, 8)
        npt.assert_allclose(s2, 2 * s1, atol=1e-9)


def two_article_corpus():
    """Disjoint indicator vocabularies for articles 10 and 20, plus shared noise."""
    rng = np.random.default_rng(3)
    docs, golds = [], []
    for _ in range(20):
        aid = 10 if rng.random() < 0.5 else 20
        ind = ["alpha", "axe", "arrow"] if aid == 10 else ["bolt", "bark", "bridge"]
        doc = [str(rng.choice(ind)) for _ in range(4)]
        doc += [f"noise{rng.integers(0, 5)}" for _ in range(4)]
        docs.append(doc)
        golds.append({aid})
    return docs, golds


class TestScorers:
    def test_disjoint_articles_separate(self):
        docs, golds = two_article_corpus()
        bank = ax.build_bank(docs, golds, k=2)
        vecs = [ax.transform(d, bank.tfidf) for d in docs]
        for scorer in bank.scorers:
            pos = [scorer.score(v) for v, g in zip(vecs, golds) if scorer.article_id in g]
            neg = [scorer.score(v) for v, g in zip(vecs, golds) if scorer.article_id not in g]
            assert min(pos) > max(neg)

    def test_training_accuracy_on_separable_data(self):
        docs, golds = two_article_corpus()
        bank = ax.build_bank(docs, golds, k=2)
        vecs = [ax.transform(d, bank.tfidf) for d in docs]
        correct = 0
        total = 0
        for scorer in bank.scorers:
            for v, g in zip(vecs, golds):
                predicted = scorer.score(v) > 0
                correct += predicted == (scorer.article_id in g)
                total += 1
        assert correct / total >= 0.95

    def test_single_example_per_class(self):
        bank = ax.build_bank([["stab", "knife"], ["steal", "purse"]], [{1}, {2}], k=1)
        v1 = ax.transform(["stab", "knife"], bank.tfidf)
        v2 = ax.transform(["steal", "purse"], bank.tfidf)
        s1 = next(s for s in bank.scorers if s.article_id == 1)
        assert s1.score(v1) > s1.score(v2)

    def test_article_without_positives_warns_and_scores_minus_inf(self, caplog):
        docs, golds = two_article_corpus()
        with caplog.at_level("WARNING"):
            bank = ax.build_bank(docs, golds, k=2, article_ids=[10, 20, 99])
        assert any("99" in r.message for r in caplog.records)
        ranked = ax.extract_top_k(docs[0], bank, k=3)
        assert ranked[-1] == (99, -math.inf)


class TestExtractTopK:
    def test_k_equals_article_count_returns_full_ranking(self):
        docs, golds = two_article_corpus()
        bank = ax.build_bank(docs, golds, k=2)
        ranked = ax.extract_top_k(docs[0], bank)
        assert {a for a, _ in ranked} == {10, 20}
        assert ranked[0][1] >= ranked[1][1]

    def test_single_article_tokens_rank_it_first(self):
        docs, golds = two_article_corpus()
        bank = ax.build_bank(docs, golds, k=2)
        ranked = ax.extract_top_k(["bolt", "bark", "bridge"], bank)
        assert ranked[0][0] == 20

    def test_ties_break_by_smaller_article_id(self):
        tfidf = ax.fit_tfidf([["x"], ["y"]])
        s7 = ax.LinearScorer(7, [], np.zeros(0), bias=0.5)
        s3 = ax.LinearScorer(3, [], np.zeros(0), bias=0.5)
        s133 = ax.LinearScorer((133, 1), [], np.zeros(0), bias=0.5)
        bank = ax.ExtractorBank(tfidf, [s7, s3, s133], k=3)
        ranked = ax.extract_top_k(["x"], bank)
        assert [a for a, _ in ranked] == [3, 7, (133, 1)]

    def test_extension_leaves_existing_scores_bitwise_unchanged(self):
        docs, golds = two_article_corpus()
        bank = ax.build_bank(docs, golds, k=2)
        before = [[s.score(ax.transform(d, bank.tfidf)) for s in bank.scorers] for d in docs]
        cases = [(ax.transform(d, bank.tfidf), g | ({30} if i % 4 == 0 else set()))
                 for i, (d, g) in enumerate(zip(docs, golds))]
        extended = ax.extend_bank(bank, 30, cases)
        assert [s.article_id for s in extended.scorers[:2]] == [10, 20]
        after = [[s.score(ax.transform(d, extended.tfidf))
                  for s in extended.scorers[:2]] for d in docs]
        for row_b, row_a in zip(before, after):
            assert row_b == row_a  # bitwise: floats compared exactly

    def test_extension_rejects_duplicate(self):
        docs, golds = two_article_corpus()
        bank = ax.build_bank(docs, golds, k=2)
        with pytest.raises(DomainError):
            ax.extend_bank(bank, 10, [])


class TestRecallAtK:
    def test_gold_always_first(self):
        ext = [[1, 2, 3], [4, 5, 6]]
        gold = [{1}, {4}]
        out = ax.recall_at_k(ext, gold, [1, 2, 3])
        assert out == {1: 1.0, 2: 1.0, 3: 1.0}

    def test_gold_never_present(self):
        assert ax.recall_at_k([[1, 2]], [{9}], [1, 2]) == {1: 0.0, 2: 0.0}

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            ax.recall_at_k([[1]], [{1}, {2}], [1])

    def test_matches_brute_force_membership_count(self):
        rng = np.random.default_rng(4)
        ext, gold = [], []
        for _ in range(40):
            ranked = list(rng.permutation(20))
            ext.append(ranked)
            gold.append(set(rng.choice(20, rng.integers(1, 4), replace=False).tolist()))
        out = ax.recall_at_k(ext, gold, [5, 10, 20])
        for k in (5, 10, 20):
            hits = sum(len([a for a in g if a in r[:k]]) for r, g in zip(ext, gold))
            assert out[k] == hits / sum(len(g) for g in gold)
        assert out[5] <= out[10] <= out[20]

    def test_monotone_in_k(self):
        rng = np.random.default_rng(5)
        ext = [list(rng.permutation(15)) for _ in range(30)]
        gold = [set(rng.choice(15, 2, replace=False).tolist()) for _ in range(30)]
        rec = ax.recall_at_k(ext, gold, list(range(1, 16)))
        vals = [rec[k] for k in range(1, 16)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestBankSerialization:
    def test_round_trip_exact(self, tmp_path):
        docs, golds = two_article_corpus()
        bank = ax.build_bank(docs, golds, k=2, article_ids=[10, 20, (133, 1)])
        path = tmp_path / "bank.json"
        ax.save_bank(path, bank)
        loaded = ax.load_bank(path)
        assert loaded.k == bank.k
        assert loaded.tfidf.vocabulary == bank.tfidf.vocabulary
        npt.assert_array_equal(loaded.tfidf.idf, bank.tfidf.idf)
        for a, b in zip(bank.scorers, loaded.scorers):
            assert a.article_id == b.article_id
            assert a.selected_features == b.selected_features
            assert a.bias == b.bias
            if a.weights is None:
                assert b.weights is None
            else:
                npt.assert_array_equal(a.weights, b.weights)
        for doc in docs:
            assert [s.score(ax.transform(doc, loaded.tfidf)) for s in loaded.scorers] == \
                   [s.score(ax.transform(doc, bank.tfidf)) for s in bank.scorers]

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        docs, golds = two_article_corpus()
        bank = ax.build_bank(docs, golds, k=2, article_ids=[10, 20, (133, 1)])
        path = tmp_path / "bank.json"
        ax.save_bank(path, bank)
        before = path.read_bytes()
        bank.scorers[-1].bias = object()  # not JSON: the dump stops partway
        with pytest.raises(TypeError):
            ax.save_bank(path, bank)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_version_guard(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(Exception):
            ax.load_bank(path)
