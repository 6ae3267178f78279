"""Judgement-document processing and the synthetic verification corpus.

The real-data path: segmentation into fact / court view / decision at fixed
indicator clauses (``FACT_INDICATORS``, ``VIEW_INDICATORS``,
``DECISION_INDICATORS``), statute-article extraction by one regex
(``ARTICLE_PATTERN``, with Chinese numeral conversion), charge-list matching,
and charge masking. The synthetic path generates seeded corpora with known
gold charges and articles, plus rendered judgement documents that exercise
the whole extraction pipeline end to end. Its draws are numpy's
``Generator`` draws for the spec's seed, computed from the PCG64 raw stream
(``_Draws``); the pinned corpus digests and a draw-for-draw test hold them to
the ``Generator``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .ndtensor import DomainError, StateError

CHARGE_MASK = "[MASK]"

# Matches a law's title in 《》, held in group 1, or a statute reference such
# as 第二百三十四条 or 第一百三十三条之一: group 2 holds the article numerals,
# group 3 the 之 numeral. The 、 inside group 2's class admits enumerations
# like 第二百三十二、二百三十四条.
_NUMERAL_CLASS = "零〇一二两三四五六七八九十百千0-9"
ARTICLE_PATTERN = re.compile(
    f"《([^《》]*)》|第([、{_NUMERAL_CLASS}]+)条(?:之([{_NUMERAL_CLASS}]+))?")

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
    """Malformed numeral or article reference; the message quotes it."""


@dataclass
class JudgementDoc:
    text: str

    def __post_init__(self):
        if not self.text:
            raise DomainError("judgement document with empty text")


@dataclass
class CaseRecord:
    """Tokenized fact description with gold charge and article sets.

    ``fact`` holds sentences of immutable (token, pos) tuples.
    ``generate_synthetic`` builds one tuple per distinct pair and shares it
    across every sentence and case.
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
    skips no place (一百零十), is malformed. A skipped place needs its 零:
    a multiplier or a last digit that skips one without a 零 (一千二十,
    一百一) is malformed, since 101 is written 一百零一.
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
            elif last is not None and 10 * multiplier != last:
                raise ParseError(f"malformed numeral {text!r}: {ch!r} skips a place "
                                 "without a 零")
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
    elif current != 0 and last in (100, 1000):
        raise ParseError(f"malformed numeral {text!r}: a last digit that skips a place "
                         "without a 零")
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


def article_ids_from_json(values: list, source: str, what: str) -> list:
    """The article ids ``article_id_to_json`` wrote: each an int, or the list
    form of a (number, sub_number) pair, numbers and sub-numbers from 1.
    Raises StateError naming ``source`` and the ``what`` at fault when a
    value is none of these, or repeats an earlier one."""
    ids = []
    for i, value in enumerate(values):
        parts = value if isinstance(value, list) and len(value) == 2 else [value]
        if not all(type(v) is int and v >= 1 for v in parts):
            raise StateError(f"{source} {what} {i} has the article id {value!r}, "
                             "not a positive int or a pair of them")
        ids.append(tuple(value) if isinstance(value, list) else value)
    if len(set(ids)) != len(ids):
        raise StateError(f"{source} has duplicate article ids")
    return ids


def format_article_ref(article_id) -> str:
    """Render an article id the way judgement documents cite it."""
    if isinstance(article_id, tuple):
        num, sub = article_id
        return f"第{int_to_chinese_numeral(num)}条之{int_to_chinese_numeral(sub)}"
    return f"第{int_to_chinese_numeral(article_id)}条"


def extract_articles(court_view_text: str) -> list:
    """All criminal-law article references, converted to ids, deduplicated
    in first-seen order.

    A reference belongs to the nearest 《…》 title before it; those under a
    title that does not end in 刑法 (the criminal procedure law, say) are
    dropped, and those before any title are kept. Sub-clause suffixes 之N
    become (number, N) pairs; N is read with the article numeral reader, so
    之十一 is 11. Enumerated references (numerals joined by 、 inside one
    第...条) yield one id per numeral; a 之N suffix applies to the last
    numeral of the enumeration. Article numbers and sub-numbers start at 1,
    as the model file requires, so 第0条 and 第五条之0 raise
    ParseError, as does a malformed numeral.
    """
    out = []
    seen = set()
    criminal = True
    for m in ARTICLE_PATTERN.finditer(court_view_text):
        body, (title, stem, sub_part) = m.group(0), m.groups()
        if title is not None:
            criminal = title.endswith("刑法")
        if title is not None or not criminal:
            continue
        numerals = [p for p in stem.split("、") if p]
        sub = chinese_numeral_to_int(sub_part) if sub_part else None
        if sub is not None and sub < 1:
            raise ParseError(f"article reference {body!r} has a sub-number below 1")
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


# Judgement text uses the full-width marks; the ASCII ones stay for mixed text.
_SENT_SPLIT = re.compile("[。！？；!?;]")
_TOKEN_SPLIT = re.compile(r"[\s，、：]+")
_TOKEN_STRIP = "，,、：:“”‘’\"'（）()《》【】."


def simple_tokenize(text: str) -> list[list[tuple[str, str]]]:
    """Whitespace/punctuation tokenizer with a single synthetic POS tag.

    Sentences end at 。！？； (or their ASCII forms), tokens are split at
    whitespace and at the full-width ，、：, and each token loses the quotes,
    brackets and commas around it, full-width or ASCII. This keeps the
    pipeline free of external tokenizer dependencies.
    """
    sentences = []
    for chunk in _SENT_SPLIT.split(text):
        toks = [t.strip(_TOKEN_STRIP) for t in _TOKEN_SPLIT.split(chunk)]
        toks = [t for t in toks if t]
        if toks:
            sentences.append([(t, "x") for t in toks])
    return sentences


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the seeded verification corpus, checked when it is built;
    frozen, so no field changes after the check."""

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

    def __post_init__(self):
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


_SPAN_MAX = 1 << 32
_LOW32 = _SPAN_MAX - 1
_DOUBLE_UNIT = 2.0 ** -53


def _raw_blocks(bits):
    """The bit generator's raw 64-bit outputs as Python ints, drawn 4096 at
    a time."""
    while True:
        yield from bits.random_raw(4096).tolist()


class _Draws:
    """``random()`` and ``integers()`` of ``np.random.default_rng(seed)``,
    value for value, computed from blocks of its PCG64 bit generator's raw
    stream instead of one numpy call per draw.

    A double is ``(raw >> 11) * 2**-53``, as numpy's ``next_double``. An
    integer over a span s of 2 to 2**32 is Lemire's 32-bit multiply-and-reject
    with threshold ``(2**32 - s) % s``, as numpy's bounded ``integers``; its
    32-bit words are the halves of one raw value, low half first, and the
    high half waits for the next integer draw (doubles never use it), as in
    PCG64's ``next_uint32``. A span of 1 returns ``lo`` without drawing, as
    numpy does; any other span raises DomainError.
    """

    def __init__(self, seed: int):
        self._next64 = _raw_blocks(np.random.default_rng(seed).bit_generator).__next__
        self._half = None

    def random(self) -> float:
        return (self._next64() >> 11) * _DOUBLE_UNIT

    def integers(self, lo: int, hi: int | None = None) -> int:
        """An int in [lo, hi), or in [0, lo) when ``hi`` is None."""
        if hi is None:
            lo, hi = 0, lo
        span = hi - lo
        if span == 1:
            return lo
        if not 1 < span <= _SPAN_MAX:
            raise DomainError(f"integer span {span} outside 1..2**32")
        threshold = (_SPAN_MAX - span) % span
        while True:
            word = self._half
            if word is None:
                raw = self._next64()
                word, self._half = raw & _LOW32, raw >> 32
            else:
                self._half = None
            m = word * span
            if m & _LOW32 >= threshold:
                return lo + (m >> 32)


def _sample_case(rng, spec, charges, cores, noise, charge_articles) -> CaseRecord:
    integers, random = rng.integers, rng.random
    n_charges = spec.n_charges
    case_charges = [charges[integers(n_charges)]]
    if n_charges > 1 and random() < spec.multi_charge_prob:
        other = charges[integers(n_charges)]
        while other == case_charges[0]:
            other = charges[integers(n_charges)]
        case_charges.append(other)
    sent_lo, sent_hi = spec.sentences_per_fact
    tok_lo, tok_hi = spec.tokens_per_sentence
    core_prob = spec.core_token_prob
    pools = [cores[c] for c in case_charges]
    n_pools = len(pools)
    n_noise = len(noise)
    n_sent = integers(sent_lo, sent_hi + 1)
    sentences = []
    for _ in range(n_sent):
        toks = []
        for _ in range(integers(tok_lo, tok_hi + 1)):
            if random() < core_prob:
                # A span of 1 draws nothing, so one pool needs no call.
                pool = pools[integers(n_pools)] if n_pools > 1 else pools[0]
                toks.append(pool[integers(len(pool))])
            else:
                toks.append(noise[integers(n_noise)])
        sentences.append(toks)
    # every charge of the case must leave at least one core keyword in the fact
    flat = {t for s in sentences for t in s}
    for i, charge in enumerate(case_charges):
        if not flat & set(cores[charge]):
            sentences[i % n_sent][0] = cores[charge][integers(len(cores[charge]))]
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

    Every draw comes from ``_Draws(spec.seed)``, which yields the values
    ``np.random.default_rng(spec.seed)`` would without a numpy call per
    draw, so the corpus is the one the numpy ``Generator`` makes. The pinned
    corpus digests and the draw-for-draw test against the ``Generator`` in
    ``tests/test_corpus.py`` guard that: a numpy release that changed its
    draws would fail the test rather than change the corpus silently.
    """
    rng = _Draws(spec.seed)
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

    sent_lo, sent_hi = spec.sentences_per_article
    tok_lo, tok_hi = spec.tokens_per_article_sentence
    article_db = {}
    for charge in charges:
        pool = cores[charge]
        for aid in charge_articles[charge]:
            sents = []
            for _ in range(rng.integers(sent_lo, sent_hi + 1)):
                toks = [pool[rng.integers(len(pool))]
                        if rng.random() < spec.article_core_prob
                        else noise[rng.integers(len(noise))]
                        for _ in range(rng.integers(tok_lo, tok_hi + 1))]
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
            fact_seg = fact_seg[len(clause):].lstrip("：:，,")
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

