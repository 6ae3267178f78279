"""Judgement-document processing and the synthetic verification corpus.

The real-data path: segmentation into fact / court view / decision at fixed
indicator clauses (``FACT_INDICATORS``, ``VIEW_INDICATORS``,
``DECISION_INDICATORS``), statute-article extraction by one regex
(``ARTICLE_PATTERN``, with Chinese numeral conversion), charge-list matching,
and charge masking. The synthetic path generates seeded corpora with known
gold charges and articles, plus rendered judgement documents that exercise
the whole extraction pipeline end to end.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass

import numpy as np

from .ndtensor import DomainError, atomic_write

log = logging.getLogger(__name__)

CHARGE_MASK = "[MASK]"

# Matches statute references such as 第二百三十四条 or 第一百三十三条之一;
# the 、 inside the numeral class admits enumerations like 第二百三十二、二百三十四条.
ARTICLE_PATTERN = re.compile("第[、零〇一二两三四五六七八九十百千0-9]+条(之[一二两三四五六七八九十])?")

# The clauses that open each part of a judgement; a part starts at the first
# occurrence of any of its clauses.
FACT_INDICATORS = ("经审理查明", "公诉机关指控")
VIEW_INDICATORS = ("本院认为",)
DECISION_INDICATORS = ("判决如下",)


class SegmentationError(ValueError):
    """A document part's indicator clause is missing."""


class OrderingError(SegmentationError):
    """Indicator clauses appear out of fact < view < decision order."""


class ExtractionError(ValueError):
    """No charge found in a decision text."""


class ParseError(ValueError):
    """Malformed numeral or dataset record; message carries the location."""


@dataclass
class JudgementDoc:
    text: str

    def __post_init__(self):
        if not self.text:
            raise DomainError("judgement document with empty text")


@dataclass
class CaseRecord:
    """Tokenized fact description with gold charge and article sets.

    ``fact`` holds sentences of immutable (token, pos) tuples. The corpus
    builders (``generate_synthetic``, ``load_dataset``) build one tuple per
    distinct pair and share it across every sentence and case.
    """

    fact: list[list[tuple[str, str]]]  # sentences of (token, pos Tag)
    gold_charges: set[str]
    gold_articles: set

    def __post_init__(self):
        if not self.fact or any(not s for s in self.fact):
            raise DomainError("case needs at least one non-empty sentence")
        if not self.gold_charges:
            raise DomainError("case without gold charges")
        if not self.gold_articles:
            raise DomainError("case without gold articles")

    def tokens(self) -> list[str]:
        return [tok for sent in self.fact for tok, _ in sent]


def segment(doc: JudgementDoc) -> tuple[str, str, str]:
    """Split at the first occurrence of each indicator class.

    Returns (fact, court view, decision) segments, each beginning with its
    indicator clause; header text before the fact indicator is dropped.
    """
    positions = {}
    for name, clauses in [("fact", FACT_INDICATORS), ("court view", VIEW_INDICATORS),
                          ("decision", DECISION_INDICATORS)]:
        found = [p for p in (doc.text.find(c) for c in clauses) if p >= 0]
        if not found:
            raise SegmentationError(f"no {name} indicator clause found")
        positions[name] = min(found)
    p_fact, p_view, p_dec = positions["fact"], positions["court view"], positions["decision"]
    if not p_fact < p_view < p_dec:
        raise OrderingError(
            f"indicators out of order: fact@{p_fact}, court view@{p_view}, decision@{p_dec}")
    return doc.text[p_fact:p_view], doc.text[p_view:p_dec], doc.text[p_dec:]


_CN_DIGITS = {"零": 0, "〇": 0, "一": 1, "二": 2, "两": 2, "三": 3, "四": 4,
              "五": 5, "六": 6, "七": 7, "八": 8, "九": 9,
              **{str(d): d for d in range(10)}}
_CN_MULTIPLIERS = {"十": 10, "百": 100, "千": 1000}


def chinese_numeral_to_int(text: str) -> int:
    """Positional reading with 十/百/千 multipliers and 零/〇 placeholders.

    Pure Arabic-digit strings pass straight through. Multipliers must fall
    from left to right (百 after 十, or 十 after 十, is malformed). A 零
    follows a multiplier and skips at least one place before the next digit
    (一百零五, 一千零五十); a leading, trailing or doubled 零, or one that
    skips no place (一百零十), is malformed.
    """
    if not text:
        raise ParseError("empty numeral")
    if text.isascii() and text.isdigit():
        return int(text)
    total = 0
    current = 0
    last = None
    zero = None  # the multiplier a 零 followed, until the place after the 零 is known

    def check_zero(place: int) -> None:
        if current == 0 or 10 * place >= zero:
            raise ParseError(f"malformed numeral {text!r}: a 零 that skips no place")

    for ch in text:
        if ch in _CN_MULTIPLIERS:
            multiplier = _CN_MULTIPLIERS[ch]
            if last is not None and multiplier >= last:
                raise ParseError(f"malformed numeral {text!r}: {ch!r} after a multiplier "
                                 "no larger than it")
            if zero is not None:
                check_zero(multiplier)
                zero = None
            total += max(current, 1) * multiplier
            current = 0
            last = multiplier
        elif ch in _CN_DIGITS:
            if current != 0:
                raise ParseError(f"malformed numeral {text!r}: consecutive digits")
            current = _CN_DIGITS[ch]
            if current == 0:
                if last is None or zero is not None:
                    raise ParseError(f"malformed numeral {text!r}: a 零 that skips no place")
                zero = last
        else:
            raise ParseError(f"malformed numeral {text!r}: unexpected {ch!r}")
    if zero is not None:
        check_zero(1)
    return total + current


_CN_WRITE_DIGITS = "零一二三四五六七八九"


def int_to_chinese_numeral(n: int) -> str:
    """Standard written form for 1..9999; the inverse oracle for the reader."""
    if not 1 <= n <= 9999:
        raise DomainError(f"numeral writer covers 1..9999, got {n}")
    units = ["", "十", "百", "千"]
    digits = [int(d) for d in str(n)]
    out = []
    pending_zero = False
    for pos, d in zip(range(len(digits) - 1, -1, -1), digits):
        if d == 0:
            if out:
                pending_zero = True
            continue
        if pending_zero:
            out.append("零")
            pending_zero = False
        if pos == 1 and d == 1 and not out:
            out.append("十")  # 10..19 written without the leading 一
        else:
            out.append(_CN_WRITE_DIGITS[d] + units[pos])
    return "".join(out)


def article_sort_key(article_id) -> tuple[int, int]:
    """Orders plain article numbers and (number, sub_number) ids together:
    133 before (133, 1) before 134."""
    return article_id if isinstance(article_id, tuple) else (article_id, 0)


def article_id_to_json(article_id):
    """An int stays an int; a (number, sub_number) pair becomes a list."""
    return list(article_id) if isinstance(article_id, tuple) else article_id


def article_id_from_json(value):
    return tuple(value) if isinstance(value, list) else value


def _is_article_id(value) -> bool:
    """An int, or the list form of a (number, sub_number) pair; numbers and
    sub-numbers start at 1."""
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    return all(type(v) is int and v >= 1 for v in parts)


def format_article_ref(article_id) -> str:
    """Render an article id the way judgement documents cite it."""
    if isinstance(article_id, tuple):
        num, sub = article_id
        return f"第{int_to_chinese_numeral(num)}条之{int_to_chinese_numeral(sub)}"
    return f"第{int_to_chinese_numeral(article_id)}条"


def extract_articles(court_view_text: str) -> list:
    """All article references, converted to ids, deduplicated in first-seen order.

    Sub-clause suffixes 之N become (number, N) pairs. Enumerated references
    (numerals joined by 、 inside one 第...条) yield one id per numeral; a 之N
    suffix applies to the last numeral of the enumeration. Article numbers
    start at 1, as every loader requires, so 第0条 raises ParseError; the
    pattern's 之N reads 一 to 十 only, so no sub-number is below 1.
    """
    out = []
    seen = set()
    for m in ARTICLE_PATTERN.finditer(court_view_text):
        body = m.group(0)
        stem, _, sub_part = body.partition("条")
        numerals = [p for p in stem.removeprefix("第").split("、") if p]
        sub = chinese_numeral_to_int(sub_part.removeprefix("之")) if sub_part else None
        for i, numeral in enumerate(numerals):
            num = chinese_numeral_to_int(numeral)
            if num < 1:
                raise ParseError(f"article reference {body!r} has a number below 1")
            aid = (num, sub) if sub is not None and i == len(numerals) - 1 else num
            if aid not in seen:
                seen.add(aid)
                out.append(aid)
    return out


def _charge_pattern(charge_list: list[str]) -> re.Pattern:
    """One alternation of the escaped names, longest first. ``re`` tries the
    alternatives in order, so its matches are the leftmost, then longest,
    non-overlapping occurrences. An empty name would match everywhere, and
    a repeated one means the list is not a set of charges: either raises
    DomainError."""
    if "" in charge_list or len(set(charge_list)) != len(charge_list):
        raise DomainError("charge names must be non-empty and unique")
    return re.compile("|".join(map(re.escape, sorted(charge_list, key=len, reverse=True))))


def extract_charges(decision_text: str, charge_list: list[str]) -> set[str]:
    """Every listed charge named in the decision; overlaps resolve longest-first."""
    if not charge_list:
        raise DomainError("empty charge list")
    found = set(_charge_pattern(charge_list).findall(decision_text))
    if not found:
        raise ExtractionError("decision text names no listed charge")
    return found


def mask_charges(fact_text: str, charge_list: list[str]) -> str:
    """Replace every charge-name occurrence with the mask token."""
    if not charge_list:
        return fact_text
    return _charge_pattern(charge_list).sub(CHARGE_MASK, fact_text)


_SENT_SPLIT = re.compile(r"[。!?;!?;]")
_TOKEN_STRIP = ",,、::""''()()《》【】."


def simple_tokenize(text: str) -> list[list[tuple[str, str]]]:
    """Whitespace/punctuation tokenizer with a single synthetic POS tag.

    Pre-segmented data with real tags enters through dataset files instead;
    this fallback keeps the pipeline free of external tokenizer dependencies.
    """
    sentences = []
    for chunk in _SENT_SPLIT.split(text):
        toks = [t.strip(_TOKEN_STRIP) for t in chunk.split()]
        toks = [t for t in toks if t]
        if toks:
            sentences.append([(t, "x") for t in toks])
    return sentences


@dataclass
class SyntheticSpec:
    """Knobs for the seeded verification corpus."""

    n_charges: int = 20
    n_articles: int = 40
    articles_per_charge_max: int = 3
    core_keywords_per_charge: int = 6
    n_noise_tokens: int = 60
    core_token_prob: float = 0.35
    article_core_prob: float = 0.8
    sentences_per_fact: tuple[int, int] = (3, 5)
    tokens_per_sentence: tuple[int, int] = (6, 10)
    sentences_per_article: tuple[int, int] = (2, 3)
    tokens_per_article_sentence: tuple[int, int] = (4, 7)
    multi_charge_prob: float = 0.0356
    train_size: int = 2000
    valid_size: int = 200
    test_size: int = 200
    seed: int = 7

    def validate(self) -> None:
        if self.n_charges < 1 or self.n_articles < self.n_charges:
            raise DomainError("need at least one article per charge")
        if self.n_articles > self.n_charges * self.articles_per_charge_max:
            raise DomainError("too many articles for the per-charge cap")
        if not 0.0 <= self.multi_charge_prob <= 1.0:
            raise DomainError("multi_charge_prob outside [0, 1]")
        if not 0.0 <= self.core_token_prob <= 1.0:
            raise DomainError("core_token_prob outside [0, 1]")
        if not 0.0 <= self.article_core_prob <= 1.0:
            raise DomainError("article_core_prob outside [0, 1]")
        if min(self.train_size, self.valid_size, self.test_size) < 1:
            raise DomainError("corpus sizes must be positive")
        for lo, hi in (self.sentences_per_fact, self.tokens_per_sentence,
                       self.sentences_per_article, self.tokens_per_article_sentence):
            if lo < 1 or hi < lo:
                raise DomainError("length ranges must satisfy 1 <= lo <= hi")
        if self.core_keywords_per_charge < 1 or self.n_noise_tokens < 1:
            raise DomainError("vocabulary sizes must be positive")


@dataclass
class SyntheticCorpus:
    train: list[CaseRecord]
    valid: list[CaseRecord]
    test: list[CaseRecord]
    article_db: dict  # article id -> raw text
    charge_list: list[str]
    charge_articles: dict[str, list]


def _sample_case(rng, spec, charges, cores, noise, charge_articles) -> CaseRecord:
    case_charges = [charges[rng.integers(spec.n_charges)]]
    if spec.n_charges > 1 and rng.random() < spec.multi_charge_prob:
        other = charges[rng.integers(spec.n_charges)]
        while other == case_charges[0]:
            other = charges[rng.integers(spec.n_charges)]
        case_charges.append(other)
    n_sent = rng.integers(spec.sentences_per_fact[0], spec.sentences_per_fact[1] + 1)
    sentences = []
    for _ in range(n_sent):
        n_tok = rng.integers(spec.tokens_per_sentence[0], spec.tokens_per_sentence[1] + 1)
        toks = []
        for _ in range(n_tok):
            if rng.random() < spec.core_token_prob:
                pool = cores[case_charges[rng.integers(len(case_charges))]]
                toks.append(pool[rng.integers(len(pool))])
            else:
                toks.append(noise[rng.integers(len(noise))])
        sentences.append(toks)
    # every charge of the case must leave at least one core keyword in the fact
    flat = {t for s in sentences for t in s}
    for i, charge in enumerate(case_charges):
        if not flat & set(cores[charge]):
            sentences[i % n_sent][0] = cores[charge][rng.integers(len(cores[charge]))]
    gold_articles = {a for c in case_charges for a in charge_articles[c]}
    return CaseRecord(sentences, set(case_charges), gold_articles)


def _tagged(tokens: list[str]) -> list[tuple[str, str]]:
    """One (token, pos) tuple per token; the tag is a function of the token."""
    return [(t, ("n", "v", "a")[len(t) % 3]) for t in tokens]


def generate_synthetic(spec: SyntheticSpec) -> SyntheticCorpus:
    """Deterministic corpus: disjoint core keyword pools per charge, shared noise,
    article texts built from their charge's core pool.

    The pools hold (token, pos) tuples, and the cases' sentences hold the
    pools' own tuples: one shared tuple per vocabulary word, not one per
    token.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    charges = [f"charge{i:02d}" for i in range(spec.n_charges)]
    cores = {c: _tagged([f"c{i:02d}k{j}" for j in range(spec.core_keywords_per_charge)])
             for i, c in enumerate(charges)}
    noise = _tagged([f"noise{j:03d}" for j in range(spec.n_noise_tokens)])

    article_ids = [101 + i for i in range(spec.n_articles)]
    charge_articles: dict[str, list] = {c: [article_ids[i]] for i, c in enumerate(charges)}
    for aid in article_ids[spec.n_charges:]:
        open_charges = [c for c in charges
                        if len(charge_articles[c]) < spec.articles_per_charge_max]
        charge_articles[open_charges[rng.integers(len(open_charges))]].append(aid)

    article_db = {}
    for charge in charges:
        for aid in charge_articles[charge]:
            n_sent = rng.integers(spec.sentences_per_article[0],
                                  spec.sentences_per_article[1] + 1)
            sents = []
            for _ in range(n_sent):
                n_tok = rng.integers(spec.tokens_per_article_sentence[0],
                                     spec.tokens_per_article_sentence[1] + 1)
                toks = [cores[charge][rng.integers(len(cores[charge]))]
                        if rng.random() < spec.article_core_prob
                        else noise[rng.integers(len(noise))]
                        for _ in range(n_tok)]
                sents.append(" ".join(tok for tok, _ in toks))
            article_db[aid] = "。".join(sents) + "。"

    def draw(n):
        return [_sample_case(rng, spec, charges, cores, noise, charge_articles)
                for _ in range(n)]

    return SyntheticCorpus(draw(spec.train_size), draw(spec.valid_size),
                           draw(spec.test_size), article_db, charges, charge_articles)


def render_judgement(case: CaseRecord) -> JudgementDoc:
    """Produce a judgement document whose extraction recovers the case exactly."""
    fact_sents = [" ".join(tok for tok, _ in sent) for sent in case.fact]
    refs = "、".join(format_article_ref(a)
                    for a in sorted(case.gold_articles, key=article_sort_key))
    verdicts = "、".join(f"犯{name}罪" for name in sorted(case.gold_charges))
    text = (
        "某某人民法院刑事判决书。被告人AA,男。"
        + FACT_INDICATORS[0] + ":" + "。".join(fact_sents) + "。"
        + VIEW_INDICATORS[0] + ",被告人AA的行为已构成犯罪,依照《中华人民共和国刑法》"
        + refs + "之规定,应予惩处。"
        + DECISION_INDICATORS[0] + ":被告人AA" + verdicts + ",判处有期徒刑。"
    )
    return JudgementDoc(text)


def assemble_case(doc: JudgementDoc, charge_list: list[str]) -> CaseRecord:
    """Run the full extraction pipeline on one document, matching and masking
    the charges of ``charge_list``."""
    fact_seg, view_seg, decision_seg = segment(doc)
    for clause in FACT_INDICATORS:
        if fact_seg.startswith(clause):
            fact_seg = fact_seg[len(clause):].lstrip(":::,,")
            break
    charges = extract_charges(decision_seg, charge_list)
    articles = extract_articles(view_seg)
    masked = mask_charges(fact_seg, charge_list)
    return CaseRecord(simple_tokenize(masked), charges, set(articles))


def assemble_dataset(records: list[CaseRecord], min_charge_count: int = 80,
                     ) -> tuple[list[CaseRecord], list[CaseRecord], list[str]]:
    """Keep charges appearing more than ``min_charge_count`` times.

    Cases left with no in-vocabulary charge become negative data: they are
    returned separately (article labels intact) since the charge target needs
    at least one positive label.
    """
    counts: dict[str, int] = {}
    for rec in records:
        for c in rec.gold_charges:
            counts[c] = counts.get(c, 0) + 1
    kept = {c for c, n in counts.items() if n > min_charge_count}
    labeled, negatives = [], []
    for rec in records:
        charges = rec.gold_charges & kept
        if charges:
            labeled.append(CaseRecord(rec.fact, charges, rec.gold_articles))
        else:
            negatives.append(rec)
    return labeled, negatives, sorted(kept)


def save_dataset(path, cases: list[CaseRecord]) -> None:
    """One JSON record per line: fact sentences of [token, pos] pairs, charges,
    articles. Written atomically, as are the other ``save_*`` files."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for case in cases:
            record = {
                "fact": [[[tok, pos] for tok, pos in sent] for sent in case.fact],
                "charges": sorted(case.gold_charges),
                "articles": [article_id_to_json(a)
                             for a in sorted(case.gold_articles, key=article_sort_key)],
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _list_field(rec: dict, key: str, entry_ok, entries: str) -> list:
    """``rec[key]``, which must be a list of ``entries``, each passing ``entry_ok``."""
    value = rec[key]
    if not isinstance(value, list) or not all(entry_ok(v) for v in value):
        raise TypeError(f"{key!r} must be a list of {entries}")
    return value


def _is_sentence(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(pair, list) and len(pair) == 2 and all(isinstance(v, str) for v in pair)
        for pair in value)


def load_dataset(path) -> list[CaseRecord]:
    """Inverse of ``save_dataset``; a record that is not JSON, lacks a field
    or holds a value of the wrong type raises ParseError naming its line.

    Each distinct (token, pos) pair becomes one tuple, shared by every case
    the call loads.
    """
    cases = []
    share = {}.setdefault  # (token, pos) -> its one tuple
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                fact = _list_field(rec, "fact", _is_sentence,
                                   "sentences of [token, pos] string pairs")
                charges = _list_field(rec, "charges", lambda c: isinstance(c, str), "strings")
                articles = _list_field(rec, "articles", _is_article_id, "article ids")
                cases.append(CaseRecord([[share(p, p) for p in map(tuple, sent)]
                                         for sent in fact],
                                        set(charges),
                                        {article_id_from_json(a) for a in articles}))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"{path}: bad record on line {lineno}: {exc}") from exc
    if not cases:
        log.warning("dataset %s is empty", path)
    return cases


def save_article_db(path, article_db: dict) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for aid in sorted(article_db, key=article_sort_key):
            fh.write(json.dumps({"id": article_id_to_json(aid), "text": article_db[aid]},
                                ensure_ascii=False) + "\n")


def load_article_db(path) -> dict:
    """Inverse of ``save_article_db``; a bad record, or one whose id an
    earlier record holds, raises ParseError naming its line."""
    db = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                if not _is_article_id(rec["id"]) or not isinstance(rec["text"], str):
                    raise TypeError("a record holds an article id and a string 'text'")
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ParseError(f"{path}: bad record on line {lineno}: {exc}") from exc
            aid = article_id_from_json(rec["id"])
            if aid in db:
                raise ParseError(f"{path}: line {lineno} repeats the article id {aid!r}")
            db[aid] = rec["text"]
    return db
