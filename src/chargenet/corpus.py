"""Judgement-document processing and the synthetic verification corpus.

The real-data path: indicator-clause segmentation into fact / court view /
decision, statute-article extraction by regex (with Chinese numeral
conversion), charge-list matching, and charge masking. The synthetic path
generates seeded corpora with known gold charges and articles, plus rendered
judgement documents that exercise the whole extraction pipeline end to end.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field

import numpy as np

from .ndtensor import DomainError, atomic_write

log = logging.getLogger(__name__)

CHARGE_MASK = "[MASK]"

# Matches statute references such as 第二百三十四条 or 第一百三十三条之一;
# the 、 inside the numeral class admits enumerations like 第二百三十二、二百三十四条.
DEFAULT_ARTICLE_PATTERN = "第[、零〇一二两三四五六七八九十百千0-9]+条(之[一二两三四五六七八九十])?"

DEFAULT_FACT_INDICATORS = ["经审理查明", "公诉机关指控"]
DEFAULT_VIEW_INDICATORS = ["本院认为"]
DEFAULT_DECISION_INDICATORS = ["判决如下"]


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
    source_id: str = ""

    def __post_init__(self):
        if not self.text:
            raise DomainError("judgement document with empty text")


@dataclass
class RuleSet:
    """Extraction rules are data: indicator clauses, charge names, article regex."""

    fact_indicators: list[str] = field(default_factory=lambda: list(DEFAULT_FACT_INDICATORS))
    view_indicators: list[str] = field(default_factory=lambda: list(DEFAULT_VIEW_INDICATORS))
    decision_indicators: list[str] = field(
        default_factory=lambda: list(DEFAULT_DECISION_INDICATORS))
    charge_list: list[str] = field(default_factory=list)
    article_pattern: str = DEFAULT_ARTICLE_PATTERN

    def __post_init__(self):
        for name, kind in [("fact_indicators", list), ("view_indicators", list),
                           ("decision_indicators", list), ("charge_list", list),
                           ("article_pattern", str)]:
            if not isinstance(getattr(self, name), kind):
                raise TypeError(f"{name} must be a {kind.__name__}, "
                                f"not {type(getattr(self, name)).__name__}")
        for name, clauses in [("fact", self.fact_indicators),
                              ("court view", self.view_indicators),
                              ("decision", self.decision_indicators)]:
            if not clauses:
                raise DomainError(f"empty indicator list for the {name} part")
        if len(set(self.charge_list)) != len(self.charge_list):
            raise DomainError("charge names must be unique")


@dataclass
class CaseRecord:
    """Tokenized fact description with gold charge and article sets."""

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


def segment(doc: JudgementDoc, rules: RuleSet) -> tuple[str, str, str]:
    """Split at the first occurrence of each indicator class.

    Returns (fact, court view, decision) segments, each beginning with its
    indicator clause; header text before the fact indicator is dropped.
    """
    positions = {}
    for name, clauses in [("fact", rules.fact_indicators),
                          ("court view", rules.view_indicators),
                          ("decision", rules.decision_indicators)]:
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

    Pure Arabic-digit strings pass straight through.
    """
    if not text:
        raise ParseError("empty numeral")
    if text.isascii() and text.isdigit():
        return int(text)
    total = 0
    current = 0
    for ch in text:
        if ch in _CN_MULTIPLIERS:
            total += max(current, 1) * _CN_MULTIPLIERS[ch]
            current = 0
        elif ch in _CN_DIGITS:
            if current != 0:
                raise ParseError(f"malformed numeral {text!r}: consecutive digits")
            current = _CN_DIGITS[ch]
        else:
            raise ParseError(f"malformed numeral {text!r}: unexpected {ch!r}")
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
    """An int, or the list form of a (number, sub_number) pair."""
    return type(value) is int or (isinstance(value, list) and len(value) == 2
                                  and all(type(v) is int for v in value))


def format_article_ref(article_id) -> str:
    """Render an article id the way judgement documents cite it."""
    if isinstance(article_id, tuple):
        num, sub = article_id
        return f"第{int_to_chinese_numeral(num)}条之{int_to_chinese_numeral(sub)}"
    return f"第{int_to_chinese_numeral(article_id)}条"


def extract_articles(court_view_text: str, rules: RuleSet) -> list:
    """All article references, converted to ids, deduplicated in first-seen order.

    Sub-clause suffixes 之N become (number, N) pairs. Enumerated references
    (numerals joined by 、 inside one 第...条) yield one id per numeral; a 之N
    suffix applies to the last numeral of the enumeration.
    """
    out = []
    seen = set()
    for m in re.finditer(rules.article_pattern, court_view_text):
        body = m.group(0)
        stem, _, sub_part = body.partition("条")
        numerals = [p for p in stem.removeprefix("第").split("、") if p]
        sub = chinese_numeral_to_int(sub_part.removeprefix("之")) if sub_part else None
        for i, numeral in enumerate(numerals):
            num = chinese_numeral_to_int(numeral)
            aid = (num, sub) if sub is not None and i == len(numerals) - 1 else num
            if aid not in seen:
                seen.add(aid)
                out.append(aid)
    return out


def _longest_match_scan(text: str, charge_list: list[str]):
    """Yield (start, name) for greedy left-to-right longest matches."""
    by_len = sorted(charge_list, key=len, reverse=True)
    i = 0
    while i < len(text):
        hit = next((name for name in by_len if text.startswith(name, i)), None)
        if hit is not None:
            yield i, hit
            i += len(hit)
        else:
            i += 1


def extract_charges(decision_text: str, charge_list: list[str]) -> set[str]:
    """Every listed charge named in the decision; overlaps resolve longest-first."""
    if not charge_list:
        raise DomainError("empty charge list")
    found = {name for _, name in _longest_match_scan(decision_text, charge_list)}
    if not found:
        raise ExtractionError("decision text names no listed charge")
    return found


def mask_charges(fact_text: str, charge_list: list[str]) -> str:
    """Replace every charge-name occurrence with the mask token."""
    if not charge_list:
        return fact_text
    out = []
    cursor = 0
    for start, name in _longest_match_scan(fact_text, charge_list):
        out.append(fact_text[cursor:start])
        out.append(CHARGE_MASK)
        cursor = start + len(name)
    out.append(fact_text[cursor:])
    return "".join(out)


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
    fact = [[(t, ("n", "v", "a")[len(t) % 3]) for t in s] for s in sentences]
    gold_articles = {a for c in case_charges for a in charge_articles[c]}
    return CaseRecord(fact, set(case_charges), gold_articles)


def generate_synthetic(spec: SyntheticSpec) -> SyntheticCorpus:
    """Deterministic corpus: disjoint core keyword pools per charge, shared noise,
    article texts built from their charge's core pool."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    charges = [f"charge{i:02d}" for i in range(spec.n_charges)]
    cores = {c: [f"c{i:02d}k{j}" for j in range(spec.core_keywords_per_charge)]
             for i, c in enumerate(charges)}
    noise = [f"noise{j:03d}" for j in range(spec.n_noise_tokens)]

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
                sents.append(" ".join(toks))
            article_db[aid] = "。".join(sents) + "。"

    def draw(n):
        return [_sample_case(rng, spec, charges, cores, noise, charge_articles)
                for _ in range(n)]

    return SyntheticCorpus(draw(spec.train_size), draw(spec.valid_size),
                           draw(spec.test_size), article_db, charges, charge_articles)


def render_judgement(case: CaseRecord, rules: RuleSet, source_id: str = "",
                     inject_charges: bool = False) -> JudgementDoc:
    """Produce a judgement document whose extraction recovers the case exactly.

    ``inject_charges`` plants the case's charge names inside the fact text to
    give mask_charges something to do.
    """
    fact_sents = [" ".join(tok for tok, _ in sent) for sent in case.fact]
    if inject_charges:
        fact_sents = [f"{sorted(case.gold_charges)[0]} " + fact_sents[0]] + fact_sents[1:]
    refs = "、".join(format_article_ref(a)
                    for a in sorted(case.gold_articles, key=article_sort_key))
    verdicts = "、".join(f"犯{name}罪" for name in sorted(case.gold_charges))
    text = (
        "某某人民法院刑事判决书。被告人AA,男。"
        + rules.fact_indicators[0] + ":" + "。".join(fact_sents) + "。"
        + rules.view_indicators[0] + ",被告人AA的行为已构成犯罪,依照《中华人民共和国刑法》"
        + refs + "之规定,应予惩处。"
        + rules.decision_indicators[0] + ":被告人AA" + verdicts + ",判处有期徒刑。"
    )
    return JudgementDoc(text, source_id)


def assemble_case(doc: JudgementDoc, rules: RuleSet) -> CaseRecord:
    """Run the full extraction pipeline on one document."""
    fact_seg, view_seg, decision_seg = segment(doc, rules)
    for clause in rules.fact_indicators:
        if fact_seg.startswith(clause):
            fact_seg = fact_seg[len(clause):].lstrip(":::,,")
            break
    charges = extract_charges(decision_seg, rules.charge_list)
    articles = extract_articles(view_seg, rules)
    masked = mask_charges(fact_seg, rules.charge_list)
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
    or holds a value of the wrong type raises ParseError naming its line."""
    cases = []
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
                cases.append(CaseRecord([[(tok, pos) for tok, pos in sent] for sent in fact],
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
    """Inverse of ``save_article_db``; a bad record raises ParseError naming its line."""
    db = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                if not _is_article_id(rec["id"]) or not isinstance(rec["text"], str):
                    raise TypeError("a record holds an article id and a string 'text'")
                db[article_id_from_json(rec["id"])] = rec["text"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ParseError(f"{path}: bad record on line {lineno}: {exc}") from exc
    return db


def save_charge_list(path, charges: list[str]) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(charges) + "\n")


def load_charge_list(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def save_ruleset(path, rules: RuleSet) -> None:
    payload = {
        "fact_indicators": rules.fact_indicators,
        "view_indicators": rules.view_indicators,
        "decision_indicators": rules.decision_indicators,
        "charge_list": rules.charge_list,
        "article_pattern": rules.article_pattern,
    }
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2)


def load_ruleset(path) -> RuleSet:
    with open(path, encoding="utf-8") as fh:
        try:
            return RuleSet(**json.load(fh))
        except (json.JSONDecodeError, TypeError, DomainError) as exc:
            raise ParseError(f"{path}: not a rule set: {exc}") from exc
