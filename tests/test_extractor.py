import hashlib
import itertools
import json
import math
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chargenet import article_extractor as ax
from chargenet import charge_model as cm
from chargenet import corpus as cp
from chargenet import model_file as mf
from chargenet.ndtensor import DomainError, ShapeError, StateError

import extractor_oracles as oracle
from file_faults import Unwritable, edit, rewrite


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
            assert got.shape == (m.n_features,)
            assert set(np.flatnonzero(got)) == set(expected)
            for c in expected:
                assert got[c] == pytest.approx(expected[c], abs=1e-12)

    def test_transform_empty_doc(self):
        m = ax.fit_tfidf(toy_corpus())
        npt.assert_array_equal(ax.transform([], m), np.zeros(m.n_features))

    def test_transform_single_word_is_unit(self):
        m = ax.fit_tfidf(toy_corpus())
        vec = ax.transform(["fraud"], m)
        assert np.flatnonzero(vec).tolist() == [m.vocabulary["fraud"]]
        assert vec[m.vocabulary["fraud"]] == pytest.approx(1.0, abs=1e-15)

    def test_oov_dropped(self):
        m = ax.fit_tfidf(toy_corpus())
        assert not ax.transform(["unseen", "tokens"], m).any()


def dense(features, n_features):
    """(cases, features) matrix of sparse {column: value} rows."""
    x = np.zeros((len(features), n_features))
    for row, feats in zip(x, features):
        for col, val in feats.items():
            row[col] = val
    return x


def hand_chi_square(present, labels):
    """Chi-square of one feature's 2x2 presence/label table, summed by hand."""
    n = len(labels)
    a = sum(1 for p, l in zip(present, labels) if p and l)
    b = sum(1 for p, l in zip(present, labels) if p and not l)
    c = sum(1 for p, l in zip(present, labels) if not p and l)
    d = sum(1 for p, l in zip(present, labels) if not p and not l)
    total = 0.0
    for obs, row, colm in [(a, a + b, a + c), (b, a + b, b + d),
                           (c, c + d, a + c), (d, c + d, b + d)]:
        e = row * colm / n
        if e > 0:
            total += (obs - e) ** 2 / e
    return total


def column(labels):
    """One article's labels as a (cases, 1) labels matrix."""
    return np.array(labels, dtype=bool)[:, None]


class TestChiSquare:
    def test_independent_feature_scores_zero_and_ranks_last(self):
        # feature 0 present in half of each class, feature 1 only in positives
        x = dense([{0: 1.0, 1: 1.0}, {1: 1.0}, {0: 1.0}, {}], 2)
        labels = column([True, True, False, False])
        scores = ax.chi_square_scores(x, labels)
        assert scores.shape == (1, 2) and scores[0, 0] == 0.0
        order = ax.chi_square_select(x, labels, 2)
        assert order.tolist() == [[1, 0]]

    def test_perfect_predictor_scores_n(self):
        rng = np.random.default_rng(0)
        for n_pos, n_neg in [(3, 5), (10, 10), (2, 17)]:
            labels = [True] * n_pos + [False] * n_neg
            features = [{0: 1.0} if lab else {} for lab in labels]
            extra = rng.integers(0, 2, n_pos + n_neg)
            for i, e in enumerate(extra):
                if e:
                    features[i][1] = 1.0
            scores = ax.chi_square_scores(dense(features, 2), column(labels))[0]
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
            scores = ax.chi_square_scores(dense(features, 6), column(labels))[0]
            for col in range(6):
                expected = hand_chi_square([col in f for f in features], labels)
                assert scores[col] == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=60)
    @given(st.data())
    def test_every_row_matches_the_hand_oracle(self, data):
        n = data.draw(st.integers(2, 12), label="cases")
        n_features = data.draw(st.integers(1, 6), label="features")
        n_articles = data.draw(st.integers(1, 5), label="articles")
        x = data.draw(hnp.arrays(np.float64, (n, n_features),
                                 elements=st.sampled_from([0.0, 1.0])), label="x")
        labels = data.draw(hnp.arrays(np.bool_, (n, n_articles)), label="labels")
        labels[0], labels[1] = True, False  # both classes in every column
        scores = ax.chi_square_scores(x, labels)
        assert scores.shape == (n_articles, n_features)
        for i in range(n_articles):
            for col in range(n_features):
                expected = hand_chi_square(list(x[:, col] != 0), list(labels[:, i]))
                assert scores[i, col] == pytest.approx(expected, abs=1e-9)

    def test_any_single_class_column_is_rejected(self):
        x = dense([{0: 1.0}, {1: 1.0}, {}], 2)
        with pytest.raises(DomainError):
            ax.chi_square_scores(x, np.array([[True, True], [False, True], [True, True]]))

    def test_labels_must_be_a_cases_by_articles_matrix(self):
        x = dense([{0: 1.0}, {1: 1.0}], 2)
        with pytest.raises(ShapeError):
            ax.chi_square_scores(x, [True, False])
        with pytest.raises(ShapeError):
            ax.chi_square_scores(x, column([True, False, True]))

    def test_ties_go_to_the_lower_index(self):
        x = np.ones((4, 100))
        x[:2, 40] = 0.0  # the one informative column
        order = ax.chi_square_select(x, column([True, True, False, False]), 100)
        assert order.tolist() == [[40] + [c for c in range(100) if c != 40]]

    def test_single_class_rejected(self):
        with pytest.raises(DomainError):
            ax.chi_square_select(dense([{0: 1.0}, {1: 1.0}], 2), column([True, True]), 1)

    def test_duplicating_corpus_keeps_ranking(self):
        rng = np.random.default_rng(2)
        features = [{c: 1.0 for c in rng.choice(8, rng.integers(1, 6), replace=False)}
                    for _ in range(12)]
        labels = [bool(rng.integers(0, 2)) for _ in range(12)]
        labels[0], labels[1] = True, False
        x = dense(features, 8)
        base = ax.chi_square_select(x, column(labels), 8)
        doubled = ax.chi_square_select(np.vstack([x, x]), column(labels * 2), 8)
        npt.assert_array_equal(base, doubled)
        s1 = ax.chi_square_scores(x, column(labels))
        s2 = ax.chi_square_scores(np.vstack([x, x]), column(labels * 2))
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


def cited_sub_clauses(golds):
    """``golds`` with every third case also citing (133, 1), so a bank built
    on it holds a sub-clause id."""
    return [g | {(133, 1)} if i % 3 == 0 else g for i, g in enumerate(golds)]


def scores_of(bank, doc):
    """Decision score of every article (in row order) for one document, as
    ``extract_top_k`` computes it."""
    scored = dict(ax.extract_top_k(doc, bank, k=len(bank.article_ids)))
    return np.array([scored[aid] for aid in bank.article_ids])


class TestScorers:
    def test_disjoint_articles_separate(self):
        docs, golds = two_article_corpus()
        bank = ax.build_bank(docs, golds, k=2)
        scores = np.array([scores_of(bank, d) for d in docs])
        for i, aid in enumerate(bank.article_ids):
            gold = np.array([aid in g for g in golds])
            assert scores[gold, i].min() > scores[~gold, i].max()

    def test_training_accuracy_on_separable_data(self):
        docs, golds = two_article_corpus()
        bank = ax.build_bank(docs, golds, k=2)
        predicted = np.array([scores_of(bank, d) for d in docs]) > 0
        gold = np.array([[aid in g for aid in bank.article_ids] for g in golds])
        assert (predicted == gold).mean() >= 0.95

    def test_single_example_per_class(self):
        bank = ax.build_bank([["stab", "knife"], ["steal", "purse"]], [{1}, {2}], k=1)
        row = bank.article_ids.index(1)
        assert scores_of(bank, ["stab", "knife"])[row] > scores_of(bank, ["steal", "purse"])[row]

    def test_bank_scores_exactly_the_cited_articles(self):
        """Every scorer has a positive case: a finite bias and a nonzero row."""
        docs, golds = two_article_corpus()
        bank = ax.build_bank(docs, cited_sub_clauses(golds), k=3)
        assert bank.article_ids == [10, 20, (133, 1)]
        assert np.isfinite(bank.bias).all() and bank.weights.any(axis=1).all()
        assert all(math.isfinite(score) for _, score in ax.extract_top_k(docs[0], bank, k=3))

    @pytest.mark.parametrize("k", [0, 3])
    def test_bank_of_fewer_than_k_articles_is_rejected(self, k):
        docs, golds = two_article_corpus()
        with pytest.raises(DomainError, match=re.escape(f"k={k} outside [1, 2]")):
            ax.build_bank(docs, golds, k=k)

    def test_rows_follow_article_sort_key(self):
        docs, golds = two_article_corpus()
        extra = [(133, 1), 134, 133]
        golds = [g | {extra[i % 3]} for i, g in enumerate(golds)]
        bank = ax.build_bank(docs, golds, k=2)
        assert bank.article_ids == [10, 20, 133, (133, 1), 134]
        perm = [4, 2, 0, 3, 1]
        again = ax.ExtractorBank(bank.tfidf, [bank.article_ids[i] for i in perm],
                                 bank.weights[perm], bank.bias[perm])
        assert again.article_ids == bank.article_ids
        npt.assert_array_equal(bank.weights, again.weights)
        npt.assert_array_equal(bank.bias, again.bias)


class TestExtractTopK:
    def test_k_equals_article_count_returns_full_ranking(self):
        docs, golds = two_article_corpus()
        bank = ax.build_bank(docs, golds, k=2)
        ranked = ax.extract_top_k(docs[0], bank, k=2)
        assert {a for a, _ in ranked} == {10, 20}
        assert ranked[0][1] >= ranked[1][1]

    def test_single_article_tokens_rank_it_first(self):
        docs, golds = two_article_corpus()
        bank = ax.build_bank(docs, golds, k=2)
        ranked = ax.extract_top_k(["bolt", "bark", "bridge"], bank, k=2)
        assert ranked[0][0] == 20

    def test_ties_break_by_smaller_article_id(self):
        tfidf = ax.fit_tfidf([["x"], ["y"]])
        bank = ax.ExtractorBank(tfidf, [7, 3, (133, 1)], np.zeros((3, 2)), np.full(3, 0.5))
        ranked = ax.extract_top_k(["x"], bank, k=3)
        assert [a for a, _ in ranked] == [3, 7, (133, 1)]
        ids = [int(a) for a in np.random.default_rng(6).permutation(100)]
        bank = ax.ExtractorBank(tfidf, ids, np.zeros((100, 2)), np.full(100, 0.5))
        assert [a for a, _ in ax.extract_top_k(["x"], bank, k=100)] == list(range(100))

    @pytest.mark.parametrize("k", [0, -1, 3])
    def test_k_outside_the_bank_is_rejected(self, k):
        docs, golds = two_article_corpus()
        bank = ax.build_bank(docs, golds, k=2)
        with pytest.raises(DomainError, match=f"k={k} is below 1 or exceeds the bank's 2"):
            ax.extract_top_k(docs[0], bank, k=k)

    def test_equal_rows_tie_wherever_they_sit(self):
        """Articles with equal rows (the same training positives) score the
        same bits and so rank by id; a (A, F) @ (F,) gemv over this many
        features rounds a row differently depending on where it sits, with
        one BLAS thread or more."""
        rng = np.random.default_rng(2)
        n_features = 20000
        tfidf = ax.TfidfModel({f"t{i}": i for i in range(n_features)}, np.ones(n_features))
        weights = rng.normal(size=(30, n_features))
        equal = [1, 6, 15, 28]
        weights[equal] = weights[1]
        bank = ax.ExtractorBank(tfidf, list(range(30, 0, -1)), weights, np.zeros(30))
        doc = [f"t{i}" for i in rng.integers(0, n_features, size=8000)]
        scores = scores_of(bank, doc)
        rows = [i for i, row in enumerate(bank.weights) if np.array_equal(row, weights[1])]
        assert len(rows) == len(equal) and len({scores[i] for i in rows}) == 1
        ranked = [aid for aid, _ in ax.extract_top_k(doc, bank, k=30)]
        tied = [bank.article_ids[i] for i in rows]
        assert [aid for aid in ranked if aid in tied] == sorted(tied)


def sparse_transform(doc, m):
    """The {column: value} TF-IDF of a document, normalised token by token."""
    counts = {}
    for tok in doc:
        if tok in m.vocabulary:
            counts[m.vocabulary[tok]] = counts.get(m.vocabulary[tok], 0) + 1
    vec = {col: c * m.idf[col] for col, c in counts.items() if m.idf[col] != 0.0}
    norm = math.sqrt(sum(v * v for v in vec.values()))
    return {col: v / norm for col, v in vec.items()} if norm > 0 else vec


def brute_force_top_k(doc, bank, k):
    """One scorer at a time: the bias plus a loop over the document's features
    that the article selected (its nonzero weight columns); sorted by score,
    then by article id."""
    vec = sparse_transform(doc, bank.tfidf)
    scored = []
    for aid, row, bias in zip(bank.article_ids, bank.weights, bank.bias):
        weights = {col: row[col] for col in np.flatnonzero(row)}
        total = bias
        for col, val in vec.items():
            if col in weights:
                total += weights[col] * val
        scored.append((aid, total))
    return sorted(scored, key=lambda pair: (-pair[1], cp.article_sort_key(pair[0])))[:k]


def test_extract_top_k_matches_brute_force_scorers():
    spec = cp.SyntheticSpec(n_charges=4, n_articles=8, train_size=60, valid_size=10,
                            test_size=10, n_noise_tokens=12, core_keywords_per_charge=3,
                            seed=13)
    data = cp.generate_synthetic(spec)
    relabel = {102: (101, 1)}  # a sub-clause id among the trained articles
    golds = [{relabel.get(a, a) for a in c.gold_articles} for c in data.train]
    bank = ax.build_bank([c.tokens() for c in data.train], golds, k=5)
    ids = bank.article_ids
    assert ids[:2] == [101, (101, 1)]
    for case in data.train[:10] + data.valid + data.test:
        for doc in (case.tokens(), case.tokens()[:3]):
            got = ax.extract_top_k(doc, bank, k=len(ids))
            want = brute_force_top_k(doc, bank, len(ids))
            assert [a for a, _ in got] == [a for a, _ in want]
            for (_, g), (_, w) in zip(got, want):
                assert g == w or abs(g - w) < 1e-12
            vec = ax.transform(doc, bank.tfidf)
            assert {c: vec[c] for c in np.flatnonzero(vec)} == sparse_transform(doc, bank.tfidf)


def tiny_training_set(seed):
    """A seeded small synthetic corpus: train documents, gold sets, the
    article ids they cite, and every case's tokens."""
    spec = cp.SyntheticSpec(n_charges=4, n_articles=8, train_size=60, valid_size=10,
                            test_size=10, n_noise_tokens=12, core_keywords_per_charge=3,
                            seed=seed)
    data = cp.generate_synthetic(spec)
    golds = [c.gold_articles for c in data.train]
    ids = sorted({a for g in golds for a in g}, key=cp.article_sort_key)
    docs = [c.tokens() for c in data.train + data.valid + data.test]
    return [c.tokens() for c in data.train], golds, ids, docs


class TestBatchedTraining:
    """``build_bank`` trains every scorer at once; the per-article trainer in
    ``extractor_oracles`` is what it must reproduce. A ``top_m`` below the
    vocabulary size (``SCORER_FEATURES`` patched down) truncates the
    selection."""

    @pytest.mark.parametrize("seed, top_m", [(13, 2000), (13, 5), (29, 2000), (29, 9)])
    def test_matches_the_per_article_trainer(self, seed, top_m, monkeypatch):
        monkeypatch.setattr(ax, "SCORER_FEATURES", top_m)
        selected_for = []
        select = ax.chi_square_select

        def recorded(x, labels, top_m):
            selected_for.append(labels)
            return select(x, labels, top_m)

        monkeypatch.setattr(ax, "chi_square_select", recorded)
        train_docs, golds, ids, docs = tiny_training_set(seed)
        bank = ax.build_bank(train_docs, golds, k=len(ids))
        assert bank.article_ids == ids
        x = np.stack([ax.transform(d, bank.tfidf) for d in train_docs])
        labels = np.array([[a in g for a in bank.article_ids] for g in golds])
        # The spec repeats label columns (a charge's articles are cited
        # together); chi-square sees each distinct column once, in order of
        # first occurrence, and equal columns get bit-equal rows.
        _, first = np.unique(labels, axis=1, return_index=True)
        assert len(first) < len(ids)
        [distinct] = selected_for
        npt.assert_array_equal(distinct, labels[:, np.sort(first)])
        for i, j in itertools.combinations(range(len(ids)), 2):
            if (labels[:, i] == labels[:, j]).all():
                assert bank.weights[i].tobytes() == bank.weights[j].tobytes()
                assert bank.bias[i].tobytes() == bank.bias[j].tobytes()
        weights, bias = oracle.train_scorers(x, labels, top_m=top_m)
        npt.assert_allclose(bank.weights, weights, rtol=0, atol=1e-12)
        npt.assert_array_equal(bank.bias, bias)
        if top_m < bank.tfidf.n_features:
            # The mask keeps each row to exactly its chi-square selection.
            for row, col in zip(bank.weights, labels.T):
                selected = oracle.chi_square_select(x, list(col), top_m)
                assert set(np.flatnonzero(row)) == set(selected.tolist())
        old = ax.ExtractorBank(bank.tfidf, list(bank.article_ids), weights, bias)
        for doc in docs:
            assert ([a for a, _ in ax.extract_top_k(doc, bank, k=len(ids))]
                    == [a for a, _ in ax.extract_top_k(doc, old, k=len(ids))])

    def test_chi_square_rows_equal_the_per_column_scores(self):
        train_docs, golds, ids, _ = tiny_training_set(13)
        tfidf = ax.fit_tfidf(train_docs)
        x = np.stack([ax.transform(d, tfidf) for d in train_docs])
        labels = np.array([[a in g for a in ids] for g in golds])
        scores = ax.chi_square_scores(x, labels)
        for row, col in zip(scores, labels.T):
            npt.assert_array_equal(row, oracle.chi_square_scores(x, list(col)))

    def test_one_training_call_per_bank(self, monkeypatch):
        calls = {"train_scorer": 0, "chi_square_select": 0}
        for name in calls:
            def counted(*args, _fn=getattr(ax, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(ax, name, counted)
        train_docs, golds, ids, _ = tiny_training_set(13)
        ax.build_bank(train_docs, golds, k=2)
        assert calls == {"train_scorer": 1, "chi_square_select": 1}

    def test_no_positive_case_anywhere_trains_nothing(self):
        """A scorer needs a positive case: labels without one are rejected."""
        docs, _ = two_article_corpus()
        tfidf = ax.fit_tfidf(docs)
        x = np.stack([ax.transform(d, tfidf) for d in docs])
        with pytest.raises(DomainError, match="positive and a negative"):
            ax.train_scorer(x, np.zeros((len(docs), 2), dtype=bool))

    def test_all_positive_article_is_rejected(self):
        docs, golds = two_article_corpus()
        with pytest.raises(DomainError):
            ax.build_bank(docs, [g | {7} for g in golds], k=2)


def bank_digest(bank):
    """SHA-256 of a bank's article ids (as JSON), weights and bias (as
    little-endian float64 bytes)."""
    h = hashlib.sha256(json.dumps([cp.article_id_to_json(a) for a in bank.article_ids])
                       .encode())
    for arr in (bank.weights, bank.bias):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def default_spec_bank(seed):
    """The benchmark's bank at ``seed``: the default spec, k=20."""
    data = cp.generate_synthetic(cp.SyntheticSpec(seed=seed))
    bank = ax.build_bank([c.tokens() for c in data.train],
                         [c.gold_articles for c in data.train], k=20)
    assert len(bank.article_ids) == len(data.article_db) == 40
    return bank


@pytest.mark.usefixtures("one_blas_thread")
def test_default_spec_bank_is_pinned():
    """The benchmark's bank: the default spec at seed 3, k=20. The digest pins
    every scorer bit for bit (tests run on one BLAS thread), so a change to
    selection or training shows here as a change to the benchmark's bank."""
    assert (bank_digest(default_spec_bank(3))
            == "8770238d1513e19e89349aaf87df3478611ab60407b562163b8ee24d310a1a8a")


@pytest.mark.usefixtures("one_blas_thread")
def test_default_spec_bank_at_seed_5_is_pinned():
    """The same pin at a second seed: its 40 articles have 20 distinct label
    columns too."""
    assert (bank_digest(default_spec_bank(5))
            == "05f8d2cb1d200ebaa83bd901e1cfc57274843ac9ee1704876287939f0919ba63")


def set_array(name, value):
    """A ``damage`` that replaces the array ``name``."""
    return lambda arrays, meta: arrays.__setitem__(name, value)


def set_meta(key, value):
    """A ``damage`` that sets the meta field ``key``."""
    return lambda arrays, meta: meta.__setitem__(key, value)


def set_entry(name, index, value):
    """A ``damage`` that sets one entry of the array ``name``."""
    return lambda arrays, meta: arrays[name].__setitem__(index, value)


def drop_last_article():
    """A ``damage`` that takes the last article out of the bank."""
    def damage(arrays, meta):
        keep = arrays["scorers"] < len(meta["article_ids"]) - 1
        for name in ("scorers", "selected", "weights"):
            arrays[name] = arrays[name][keep]
        arrays["bias"] = arrays["bias"][:-1]
        meta["article_ids"].pop()
    return lambda arrays, meta: damage(arrays, meta)


def serving_model(bank):
    """An untrained fact_art model, k=3, with a one-word text for every
    article of ``bank``: the smallest model file a bank can travel in."""
    config = cm.ModelConfig(variant=cm.Variant.FACT_ART, word_emb_dim=2, pos_emb_dim=1,
                            gru_hidden=2, fc1_dim=3, fc2_dim=3, k=3)
    vocab = {"<pad>": cm.PAD_ID, "<unk>": cm.UNK_ID, "w": 2}
    params = cm.ModelParams.create(config, len(vocab), len(vocab), 1,
                                   np.random.default_rng(0))
    docs = {aid: [(np.array([2]), np.array([2]))] for aid in bank.article_ids}
    return cm.ChargeModel(config, params, vocab, dict(vocab), ["c"], docs, tau=0.4)


def saved_bank():
    """A three-article bank, one of them a sub-clause, and its model."""
    docs, golds = two_article_corpus()
    bank = ax.build_bank(docs, cited_sub_clauses(golds), k=3)
    return bank, serving_model(bank)


class TestBankSerialization:
    """The bank travels in the model file of the model it serves; each
    fault of its arrays or meta entry raises StateError naming that file."""

    def save_and_edit(self, path, damage):
        """Save a three-article bank in a model file at ``path``, then rewrite
        it with ``damage(arrays, meta)`` applied to the bank's arrays (named
        without the prefix) and its meta entry."""
        bank, model = saved_bank()
        mf.save_model(path, model, bank)

        def edit_bank(members):
            stored = {name.removeprefix("bank."): members.pop(name) for name in list(members)
                      if name.startswith("bank.")}
            damage(stored, members["meta"]["bank"])
            members.update(("bank." + name, arr) for name, arr in stored.items())
        rewrite(path, edit_bank)

    def test_round_trip_exact(self, tmp_path):
        bank, model = saved_bank()
        assert bank.article_ids[-1] == (133, 1)
        path = tmp_path / "m.npz"
        mf.save_model(path, model, bank)
        _, loaded = mf.load_model(path)
        assert loaded.tfidf.vocabulary == bank.tfidf.vocabulary
        npt.assert_array_equal(loaded.tfidf.idf, bank.tfidf.idf)
        assert loaded.article_ids == bank.article_ids
        npt.assert_array_equal(loaded.weights, bank.weights)
        npt.assert_array_equal(loaded.bias, bank.bias)
        for doc in two_article_corpus()[0]:
            assert ax.extract_top_k(doc, loaded, k=3) == ax.extract_top_k(doc, bank, k=3)

    def test_stores_the_nonzero_weights_only(self, monkeypatch):
        monkeypatch.setattr(ax, "SCORER_FEATURES", 2)
        docs, golds = two_article_corpus()
        bank = ax.build_bank(docs, golds, k=2)
        arrays, _ = mf._bank_to_arrays(bank)
        assert arrays["bank.weights"].size == np.count_nonzero(bank.weights) == 4

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        bank, model = saved_bank()
        path = tmp_path / "m.npz"
        mf.save_model(path, model, bank)
        before = path.read_bytes()
        bank.bias = Unwritable()
        with pytest.raises(OSError, match="no space left"):
            mf.save_model(path, model, bank)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_version_guard(self, tmp_path):
        path = tmp_path / "bad.npz"
        bank, model = saved_bank()
        mf.save_model(path, model, bank)
        for version in (1, 2, 3, 99):
            rewrite(path, edit("meta", "version", to=version))
            with pytest.raises(StateError, match=f"version {version}, not 'model' version 4"):
                mf.load_model(path)
        # A version-1 bank was JSON.
        path.write_text(json.dumps({
            "version": 1, "k": 2,
            "tfidf": {"vocabulary": ["a", "b", "c"], "idf": [0.5, 1.0, 2.0], "doc_count": 4},
            "scorers": [{"article_id": 7, "selected": [2, 0], "weights": [0.25, -1.5],
                         "bias": 0.125}]}))
        with pytest.raises(StateError,
                           match=re.escape(f"model file {path} is not a readable archive")):
            mf.load_model(path)

    @pytest.mark.parametrize("damage, message", [
        (lambda a, m: a.pop("idf"), "no 'idf'"),
        (lambda a, m: a.pop("bias"), "no 'bias'"),
        (lambda a, m: a.__setitem__("weights", a["weights"][:-1]), "selected columns but"),
        (set_entry("selected", 0, 10 ** 6), "outside"),
        (set_entry("selected", 0, -1), "outside"),
        (set_array("selected", np.array(3)), "'selected' has type int"),
        pytest.param(set_meta("article_ids", {}), "no 'article_ids' of type list",
                     id="ids_not_list"),
        (set_entry("weights", 0, math.nan), "non-numeric"),
        (lambda a, m: m["article_ids"].__setitem__(1, m["article_ids"][0]),
         "duplicate article ids"),
        (drop_last_article(), "k=3 outside"),
        pytest.param(set_entry("scorers", 0, 3), "selects a row outside [0, 3)",
                     id="scorer_outside"),
        pytest.param(set_entry("weights", 0, math.inf), "or an infinity", id="weight_inf"),
        pytest.param(set_entry("bias", 0, math.nan), "non-numeric", id="bias_nan"),
        pytest.param(set_entry("bias", 0, math.inf), "or an infinity", id="bias_inf"),
        pytest.param(set_entry("bias", 1, -math.inf), "or an infinity", id="bias_minus_inf"),
        pytest.param(set_entry("idf", 0, -math.inf), "or an infinity", id="idf_minus_inf"),
        pytest.param(set_entry("idf", 0, math.nan), "non-numeric", id="idf_nan"),
        pytest.param(lambda a, m: a.__setitem__("weights", a["weights"] > 0),
                     "'weights' has type bool", id="weights_bool"),
        pytest.param(lambda a, m: a.__setitem__("bias", a["bias"] > 0),
                     "'bias' has type bool", id="bias_bool"),
        pytest.param(lambda a, m: a.__setitem__("weights", a["weights"].astype(str)),
                     "'weights' has type <U", id="weights_strings"),
        pytest.param(lambda a, m: a.__setitem__("idf", a["idf"][:-1]), "idf values",
                     id="idf_short"),
        pytest.param(lambda a, m: a.__setitem__("bias", a["bias"][:-1]), "bias values",
                     id="bias_short"),
        pytest.param(lambda a, m: m["vocabulary"].__setitem__(0, 5),
                     "vocabulary entry that is not a string", id="vocabulary_int"),
        pytest.param(lambda a, m: m["vocabulary"].__setitem__(1, m["vocabulary"][0]),
                     "repeats the vocabulary entry '", id="vocabulary_repeated"),
        pytest.param(lambda a, m: m.clear(), "bank meta has no 'vocabulary'",
                     id="meta_empty"),
    ])
    def test_malformed_bank_raises_state_error(self, tmp_path, damage, message):
        path = tmp_path / "m.npz"
        self.save_and_edit(path, damage)
        with pytest.raises(StateError, match=re.escape(message)) as err:
            mf.load_model(path)
        assert str(err.value).startswith(f"model file {path}")

    @pytest.mark.parametrize("article_id", [[101, 1, 7], ["x"], 0, -5, [133, 0], {}],
                             ids=["triple", "string", "zero", "negative", "sub_zero", "dict"])
    def test_bad_article_id_names_file_and_scorer(self, tmp_path, article_id):
        path = tmp_path / "m.npz"
        self.save_and_edit(path, lambda a, m: m["article_ids"].__setitem__(1, article_id))
        with pytest.raises(StateError) as err:
            mf.load_model(path)
        assert f"model file {path} scorer 1 has the article id {article_id!r}" in str(err.value)

    def test_truncated_bank_raises_state_error(self, tmp_path):
        bank, model = saved_bank()
        path = tmp_path / "m.npz"
        mf.save_model(path, model, bank)
        blob = path.read_bytes()
        for cut in (0, 100, len(blob) // 2, len(blob) - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(StateError, match="not a readable archive"):
                mf.load_model(path)
