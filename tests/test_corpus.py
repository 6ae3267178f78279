import hashlib
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chargenet import corpus as cp
from chargenet.corpus import (
    CaseRecord,
    ExtractionError,
    JudgementDoc,
    OrderingError,
    ParseError,
    SegmentationError,
    SyntheticSpec,
)
from chargenet.ndtensor import DomainError


def small_spec(**overrides):
    base = dict(n_charges=4, n_articles=7, core_keywords_per_charge=4,
                n_noise_tokens=10, train_size=40, valid_size=10, test_size=10, seed=11)
    base.update(overrides)
    return SyntheticSpec(**base)


def pair_counts(cases):
    """(distinct pair objects, distinct (token, pos) values) over the cases."""
    pairs = [pair for case in cases for sent in case.fact for pair in sent]
    return len({id(pair) for pair in pairs}), len(set(pairs))


def corpus_digest(corpus) -> str:
    """SHA-256 over the JSON of every case (fact, sorted charges, sorted
    articles), split by split, then over the article database in id order."""
    h = hashlib.sha256()
    for split in (corpus.train, corpus.valid, corpus.test):
        for case in split:
            record = [case.fact, sorted(case.gold_charges),
                      [cp.article_id_to_json(a)
                       for a in sorted(case.gold_articles, key=cp.article_sort_key)]]
            h.update(json.dumps(record, ensure_ascii=False).encode("utf-8") + b"\n")
    db = [[cp.article_id_to_json(a), corpus.article_db[a]]
          for a in sorted(corpus.article_db, key=cp.article_sort_key)]
    h.update(json.dumps(db, ensure_ascii=False).encode("utf-8"))
    return h.hexdigest()


class TestSegment:
    def doc(self, ok=True, swap=False):
        body = ("某法院判决书。经审理查明:某日发生盗窃。"
                + ("本院认为,依照《中华人民共和国刑法》第二百六十四条之规定。" if ok else "")
                + "判决如下:被告人犯盗窃罪。")
        if swap:
            body = body.replace("本院认为", "@@@").replace("判决如下", "本院认为").replace(
                "@@@", "判决如下")
        return JudgementDoc(body)

    def test_three_segments(self):
        fact, view, dec = cp.segment(self.doc())
        assert fact.startswith("经审理查明") and "盗窃" in fact
        assert view.startswith("本院认为")
        assert dec.startswith("判决如下")

    def test_missing_view_indicator(self):
        with pytest.raises(SegmentationError, match="court view"):
            cp.segment(self.doc(ok=False))

    def test_out_of_order(self):
        with pytest.raises(OrderingError):
            cp.segment(self.doc(swap=True))


class TestNumerals:
    def test_bare_ten(self):
        assert cp.chinese_numeral_to_int("十") == 10

    def test_positional(self):
        assert cp.chinese_numeral_to_int("二百三十四") == 234

    def test_zero_placeholder(self):
        assert cp.chinese_numeral_to_int("三百零二") == 302
        assert cp.chinese_numeral_to_int("一百零五") == 105
        assert cp.chinese_numeral_to_int("一千零五") == 1005
        assert cp.chinese_numeral_to_int("一千零五十") == 1050

    def test_arabic_passthrough(self):
        assert cp.chinese_numeral_to_int("133") == 133

    def test_liang_reads_as_two(self):
        assert cp.chinese_numeral_to_int("两百") == 200

    def test_malformed(self):
        # The last row: a 零 that skips no place (leading, trailing, alone,
        # doubled, or followed by the next place down).
        for bad in ("", "一二", "条", "2三", "十百", "百百", "十十", "三百二十百",
                    "零一", "一百零", "零", "〇", "一千零零五", "一百零十", "十零五", "一千零五百"):
            with pytest.raises(ParseError):
                cp.chinese_numeral_to_int(bad)

    def test_agrees_with_independent_writer_1_to_999(self):
        for n in range(1, 1000):
            written = cp.int_to_chinese_numeral(n)
            assert cp.chinese_numeral_to_int(written) == n, (n, written)

    def test_agrees_with_independent_writer_1000_to_9999(self):
        for n in range(1000, 10000):
            written = cp.int_to_chinese_numeral(n)
            assert cp.chinese_numeral_to_int(written) == n, (n, written)


# Article ids whose references the default pattern reads: 之N takes one numeral
# character, so sub-clauses run 1..10.
ARTICLE_IDS = st.one_of(st.integers(1, 9999),
                        st.tuples(st.integers(1, 9999), st.integers(1, 10)))


class TestExtractArticles:
    def test_simple_reference(self):
        out = cp.extract_articles("依照第二百三十四条之规定")
        assert out == [234]

    def test_sub_clause(self):
        out = cp.extract_articles("第一百三十三条之一")
        assert out == [(133, 1)]

    def test_no_mention(self):
        assert cp.extract_articles("没有提到任何条文") == []

    def test_enumeration_splits(self):
        out = cp.extract_articles("依照第二百三十二、二百三十四条的规定")
        assert out == [232, 234]

    def test_duplicates_removed_order_stable(self):
        text = "第五条和第三条还有第五条"
        assert cp.extract_articles(text) == [5, 3]

    def test_arabic_digits(self):
        assert cp.extract_articles("依照第264条之规定") == [264]

    @pytest.mark.parametrize("text", ["依照第0条的规定", "依照第00条的规定",
                                      "依照第五、0条的规定"],
                             ids=["zero", "double_zero", "zero_in_enumeration"])
    def test_article_zero_is_rejected(self, text):
        """Article numbers start at 1, as every loader requires: a 0 would
        be saved into a dataset file that ``load_dataset`` refuses."""
        with pytest.raises(ParseError, match="number below 1"):
            cp.extract_articles(text)

    @given(nums=st.lists(st.integers(1, 9999), min_size=1, max_size=6),
           sub=st.none() | st.integers(1, 10))
    def test_rendered_enumeration_property(self, nums, sub):
        """第A、B、C条 yields A, B, C; a 之N suffix goes to the last numeral."""
        text = ("依照第" + "、".join(cp.int_to_chinese_numeral(n) for n in nums) + "条"
                + ("" if sub is None else "之" + cp.int_to_chinese_numeral(sub)) + "的规定")
        want = nums[:-1] + [nums[-1] if sub is None else (nums[-1], sub)]
        assert cp.extract_articles(text) == list(dict.fromkeys(want))

    @given(st.lists(ARTICLE_IDS, min_size=1, max_size=6))
    def test_rendered_references_property(self, ids):
        """References as judgements cite them, 之N ones included, come back
        as ids in first-seen order."""
        text = "依照" + "、".join(cp.format_article_ref(a) for a in ids) + "之规定"
        assert cp.extract_articles(text) == list(dict.fromkeys(ids))


class TestExtractCharges:
    def test_single_charge(self):
        got = cp.extract_charges("被告人犯盗窃罪,判处拘役。", ["盗窃", "抢劫"])
        assert got == {"盗窃"}

    def test_multiple_charges(self):
        got = cp.extract_charges("犯盗窃罪、犯抢劫罪", ["盗窃", "抢劫"])
        assert got == {"盗窃", "抢劫"}

    def test_longest_match_wins(self):
        got = cp.extract_charges("犯故意伤害罪", ["故意伤害", "故意伤害罪", "伤害"])
        assert got == {"故意伤害罪"}

    def test_empty_result_is_error(self):
        with pytest.raises(ExtractionError):
            cp.extract_charges("无罪释放", ["盗窃"])

    @pytest.mark.parametrize("names", [["盗窃", ""], [""], ["盗窃", "抢劫", "盗窃"]],
                             ids=["empty_name", "only_empty", "repeated_name"])
    def test_empty_or_repeated_name_is_rejected(self, names):
        """An empty name would match the empty string at every position."""
        with pytest.raises(DomainError, match="non-empty and unique"):
            cp.extract_charges("被告人犯盗窃罪", names)


class TestMaskCharges:
    def test_no_charge_names_unchanged(self):
        text = "某日被告人取走财物。"
        assert cp.mask_charges(text, ["盗窃"]) == text

    def test_single_occurrence_masked(self):
        out = cp.mask_charges("涉嫌盗窃被拘留", ["盗窃"])
        assert out == f"涉嫌{cp.CHARGE_MASK}被拘留"

    def test_longest_match_and_postcondition(self):
        rng = np.random.default_rng(0)
        names = ["盗窃", "盗窃罪", "抢劫", "故意伤害"]
        pieces = ["某日", "被告人", "在", "商店"] + names
        for _ in range(100):
            text = "".join(rng.choice(pieces, rng.integers(1, 10)))
            masked = cp.mask_charges(text, names)
            for name in names:
                assert name not in masked

    def test_nested_names(self):
        out = cp.mask_charges("盗窃罪行严重", ["盗窃", "盗窃罪"])
        assert out == f"{cp.CHARGE_MASK}行严重"

    @pytest.mark.parametrize("names", [["盗窃", ""], ["盗窃", "盗窃"]],
                             ids=["empty_name", "repeated_name"])
    def test_empty_or_repeated_name_is_rejected(self, names):
        """The pattern ``extract_charges`` uses: an empty name would put a
        mask between every two characters."""
        with pytest.raises(DomainError, match="non-empty and unique"):
            cp.mask_charges("涉嫌盗窃被拘留", names)


def longest_match_scan(text, charge_list):
    """Yield (start, name) for greedy left-to-right longest matches: the
    hand-written scan that ``extract_charges`` and ``mask_charges`` ran
    before their one compiled pattern, kept as its reference."""
    by_len = sorted(charge_list, key=len, reverse=True)
    i = 0
    while i < len(text):
        hit = next((name for name in by_len if text.startswith(name, i)), None)
        if hit is not None:
            yield i, hit
            i += len(hit)
        else:
            i += 1


def scan_mask(text, charge_list):
    """``mask_charges`` through the reference scan."""
    out, cursor = [], 0
    for start, name in longest_match_scan(text, charge_list):
        out += [text[cursor:start], cp.CHARGE_MASK]
        cursor = start + len(name)
    return "".join(out) + text[cursor:]


def assert_matches_scan(text, names):
    assert cp.mask_charges(text, names) == scan_mask(text, names)
    found = {name for _, name in longest_match_scan(text, names)}
    if found:
        assert cp.extract_charges(text, names) == found
    else:
        with pytest.raises(ExtractionError):
            cp.extract_charges(text, names)


class TestChargePatternMatchesScan:
    """The one regex of ``extract_charges`` and ``mask_charges`` against
    the reference scan: the same leftmost, then longest, matches."""

    @pytest.mark.parametrize("text, names", [
        ("", ["盗窃"]),
        ("abcabcab", ["ab", "abc", "abca"]),          # each a prefix of the next
        ("xbcdbcx", ["bcd", "c", "bc", "d"]),          # contained in each other
        ("aaaaa", ["aa", "a", "aaa"]),
        ("a.b*c(d)a.bb", ["a.b", ".", "*c(", "(", "b*", "a.bb"]),
        ("a.bxab", ["a.b"]),                           # "." is no wildcard
        ("[MASK]盗窃[MASK]", ["盗窃", "MASK", "[", "K]"]),
    ])
    def test_named_cases(self, text, names):
        assert_matches_scan(text, names)

    @given(st.lists(st.text("ab.*(盗", min_size=1, max_size=4), min_size=1, max_size=6,
                    unique=True),
           st.text("ab.*(盗x", max_size=40))
    def test_generated_texts(self, names, text):
        assert_matches_scan(text, names)

    def test_texts_built_from_the_names(self):
        """Texts made mostly of the names themselves, so that matches
        touch and overlap."""
        rng = np.random.default_rng(5)
        for _ in range(300):
            names = list({"".join(rng.choice(list("ab.*("), rng.integers(1, 5)))
                          for _ in range(rng.integers(1, 7))})
            pieces = names + ["x", "a", "."]
            text = "".join(rng.choice(pieces, rng.integers(0, 15)))
            assert_matches_scan(text, names)


class TestTokenizer:
    def test_sentences_and_tokens(self):
        sents = cp.simple_tokenize("a b c。d e!f g")
        assert [[t for t, _ in s] for s in sents] == [["a", "b", "c"], ["d", "e"], ["f", "g"]]

    def test_pos_tag_constant(self):
        sents = cp.simple_tokenize("x y")
        assert all(pos == "x" for s in sents for _, pos in s)


class TestSyntheticGenerator:
    def test_deterministic_under_seed(self):
        a = cp.generate_synthetic(small_spec())
        b = cp.generate_synthetic(small_spec())
        assert a.charge_list == b.charge_list
        assert a.article_db == b.article_db
        for ca, cb in zip(a.train + a.valid + a.test, b.train + b.valid + b.test):
            assert ca.fact == cb.fact
            assert ca.gold_charges == cb.gold_charges
            assert ca.gold_articles == cb.gold_articles

    def test_sizes_and_invariants(self):
        corpus = cp.generate_synthetic(small_spec())
        assert (len(corpus.train), len(corpus.valid), len(corpus.test)) == (40, 10, 10)
        assert len(corpus.article_db) == 7
        for charge, arts in corpus.charge_articles.items():
            assert 1 <= len(arts) <= 3
        for case in corpus.train:
            assert case.gold_charges <= set(corpus.charge_list)
            for a in case.gold_articles:
                assert a in corpus.article_db

    def test_disjoint_cores_single_case_separability(self):
        corpus = cp.generate_synthetic(small_spec(core_token_prob=1.0))
        prefixes = {c: f"c{i:02d}" for i, c in enumerate(corpus.charge_list)}
        for case in corpus.train:
            if len(case.gold_charges) > 1:
                continue  # multi-charge facts legitimately mix two cores
            (charge,) = case.gold_charges
            # zero noise + disjoint cores: a bag-of-words vote recovers the charge
            votes = {c: sum(t.startswith(p) for t in case.tokens())
                     for c, p in prefixes.items()}
            assert max(votes, key=votes.get) == charge
            assert sum(v > 0 for v in votes.values()) == 1

    def test_every_case_charge_leaves_a_core_keyword(self):
        corpus = cp.generate_synthetic(small_spec(core_token_prob=0.05))
        cores = {c: {f"c{i:02d}k{j}" for j in range(4)}
                 for i, c in enumerate(corpus.charge_list)}
        for case in corpus.train:
            toks = set(case.tokens())
            for charge in case.gold_charges:
                assert toks & cores[charge]

    def test_multi_charge_marginal_within_3_sigma(self):
        spec = small_spec(train_size=2000, multi_charge_prob=0.2, seed=3)
        corpus = cp.generate_synthetic(spec)
        n_multi = sum(len(c.gold_charges) > 1 for c in corpus.train)
        mean = 0.2 * 2000
        sigma = (2000 * 0.2 * 0.8) ** 0.5
        assert abs(n_multi - mean) <= 3 * sigma

    def test_cases_share_one_tuple_per_pair(self):
        corpus = cp.generate_synthetic(small_spec())
        cases = corpus.train + corpus.valid + corpus.test
        n_objects, n_values = pair_counts(cases)
        assert n_objects == n_values
        assert n_values < sum(len(sent) for case in cases for sent in case.fact)

    # The benchmark's corpus: the default spec at two seeds. The digests pin
    # the generator's draws, their order and its output, so a change to any
    # of them shows here as a change to the benchmark's data.
    @pytest.mark.parametrize("seed, digest", [
        (1, "94221f441ad29c16300f77aa37c49d0105cf5efcc8f1517a194a53532ff71e6a"),
        (3, "6e2ce41721d6870d0de6bef63ea8f0231d4dec45f1c99e748b7b4fb4f21ee17d"),
    ])
    def test_default_spec_corpus_is_pinned(self, seed, digest):
        assert corpus_digest(cp.generate_synthetic(SyntheticSpec(seed=seed))) == digest

    def test_invalid_spec_rejected(self):
        with pytest.raises(DomainError):
            cp.generate_synthetic(small_spec(train_size=-1))
        with pytest.raises(DomainError):
            cp.generate_synthetic(small_spec(n_articles=2))
        for prob in (-0.1, 1.7):
            with pytest.raises(DomainError, match="article_core_prob outside"):
                cp.generate_synthetic(small_spec(article_core_prob=prob))


class TestRenderRoundTrip:
    def test_segments_recover_case(self):
        corpus = cp.generate_synthetic(small_spec())
        for case in corpus.train[:50]:
            doc = cp.render_judgement(case)
            rebuilt = cp.assemble_case(doc, corpus.charge_list)
            assert [[t for t, _ in s] for s in rebuilt.fact] == \
                   [[t for t, _ in s] for s in case.fact]
            assert rebuilt.gold_charges == case.gold_charges
            assert rebuilt.gold_articles == case.gold_articles

    def test_injected_charge_names_get_masked(self):
        """A charge name planted at the start of the fact text comes back
        as the mask token."""
        corpus = cp.generate_synthetic(small_spec())
        case = corpus.train[0]
        opening = cp.FACT_INDICATORS[0] + ":"
        text = cp.render_judgement(case).text
        assert text.count(opening) == 1
        planted = text.replace(opening, f"{opening}{sorted(case.gold_charges)[0]} ")
        rebuilt = cp.assemble_case(JudgementDoc(planted), corpus.charge_list)
        toks = rebuilt.tokens()
        assert cp.CHARGE_MASK in toks
        for name in corpus.charge_list:
            assert all(name not in t for t in toks)

    CHARGES = ["盗窃", "抢劫", "诈骗", "故意伤害", "故意杀人"]

    @given(fact=st.lists(st.lists(st.text("abcdefgxyz", min_size=1, max_size=5),
                                  min_size=1, max_size=5), min_size=1, max_size=4),
           charges=st.sets(st.sampled_from(CHARGES), min_size=1),
           articles=st.sets(ARTICLE_IDS, min_size=1, max_size=5))
    def test_round_trip_property(self, fact, charges, articles):
        """render_judgement then assemble_case recovers the fact tokens, the
        charges and the articles."""
        case = CaseRecord([[(t, "x") for t in sent] for sent in fact], charges, articles)
        rebuilt = cp.assemble_case(cp.render_judgement(case), self.CHARGES)
        assert rebuilt.fact == case.fact
        assert rebuilt.gold_charges == charges
        assert rebuilt.gold_articles == articles

    def test_sub_article_round_trip(self):
        case = CaseRecord([[("tok1", "n"), ("tok2", "n")]], {"盗窃"}, {(133, 1), 264})
        rebuilt = cp.assemble_case(cp.render_judgement(case), ["盗窃"])
        assert rebuilt.gold_articles == {(133, 1), 264}


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        corpus = cp.generate_synthetic(small_spec())
        path = tmp_path / "train.jsonl"
        cp.save_dataset(path, corpus.train)
        loaded = cp.load_dataset(path)
        assert loaded == corpus.train
        n_objects, n_values = pair_counts(loaded)  # one shared tuple per pair
        assert n_objects == n_values

    def test_empty_file_warns(self, tmp_path, caplog):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with caplog.at_level("WARNING"):
            assert cp.load_dataset(path) == []
        assert any("empty" in r.message for r in caplog.records)

    def test_truncated_record_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = ('{"fact": [[["a", "n"]]], "charges": ["x"], "articles": [1]}')
        path.write_text(good + "\n" + good[: len(good) // 2] + "\n")
        with pytest.raises(ParseError, match="line 2"):
            cp.load_dataset(path)

    @pytest.mark.parametrize("field,value,problem", [
        ("charges", "theft", "'charges' must be a list"),
        ("articles", "133", "'articles' must be a list"),
        ("articles", [[133, 1, 2]], "'articles' must be a list of article ids"),
        ("articles", [0], "'articles' must be a list of article ids"),
        ("articles", [[133, 0]], "'articles' must be a list of article ids"),
        ("fact", "a n", "'fact' must be a list"),
        ("fact", [["a", "n"]], "'fact' must be a list of sentences"),
        ("fact", [[["a", 1]]], "'fact' must be a list of sentences"),
    ], ids=["charges_string", "articles_string", "article_triple", "article_zero",
            "article_sub_zero", "fact_string",
            "sentence_of_strings", "pos_not_string"])
    def test_wrong_field_type_names_line(self, tmp_path, field, value, problem):
        """A value of the wrong type is a bad record, not one read as
        something else (a string's characters, say)."""
        good = {"fact": [[["a", "n"]]], "charges": ["x"], "articles": [1]}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match=f"line 2: {re.escape(problem)}"):
            cp.load_dataset(path)

    @pytest.mark.parametrize("record", [{"id": 1, "text": 5}, {"id": "133", "text": "a"},
                                        {"id": [133], "text": "a"}, {"id": 2, "text": "c"},
                                        {"id": 0, "text": "a"}, {"id": -5, "text": "a"},
                                        {"id": [133, 0], "text": "a"}],
                             ids=["text_not_string", "id_string", "id_one_number",
                                  "id_repeated", "id_zero", "id_negative", "id_sub_zero"])
    def test_bad_article_record_names_line(self, tmp_path, record):
        path = tmp_path / "articles.jsonl"
        path.write_text(json.dumps({"id": 2, "text": "b"}) + "\n" + json.dumps(record) + "\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            cp.load_article_db(path)

    def test_article_db_round_trip(self, tmp_path):
        corpus = cp.generate_synthetic(small_spec())
        db_path = tmp_path / "articles.jsonl"
        cp.save_article_db(db_path, corpus.article_db)
        assert cp.load_article_db(db_path) == corpus.article_db

    @pytest.mark.parametrize("save,good,bad", [
        (cp.save_dataset, [CaseRecord([[("old", "n")]], {"x"}, {1})],
         [CaseRecord([[("a", "n")]], {"x"}, {1}), CaseRecord([[(b"b", "n")]], {"x"}, {1})]),
        (cp.save_article_db, {1: "old"}, {1: "a", 2: b"b"}),
    ], ids=["dataset", "article_db"])
    def test_failed_save_keeps_the_old_file(self, tmp_path, save, good, bad):
        """A save that raises part-way (a token JSON cannot encode) leaves
        the previous file byte for byte and no temporary file."""
        path = tmp_path / "out"
        save(path, good)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save(path, bad)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out"]


class TestAssembleDataset:
    def make(self, charge, n):
        return [CaseRecord([[("t", "n")]], {charge}, {1}) for _ in range(n)]

    def test_min_count_filter(self):
        records = self.make("common", 10) + self.make("rare", 2)
        labeled, negatives, vocab = cp.assemble_dataset(records, min_charge_count=5)
        assert vocab == ["common"]
        assert len(labeled) == 10 and len(negatives) == 2
        assert all(r.gold_charges == {"common"} for r in labeled)

    def test_mixed_case_keeps_frequent_charge(self):
        records = self.make("common", 10)
        records.append(CaseRecord([[("t", "n")]], {"common", "rare"}, {1}))
        labeled, negatives, vocab = cp.assemble_dataset(records, min_charge_count=5)
        assert len(labeled) == 11 and not negatives
        assert labeled[-1].gold_charges == {"common"}
