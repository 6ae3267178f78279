"""The model file's tests, gathered from the modules that held them: a save
that fails part way, a damaged meta and damaged arrays.

The rest of the model file's tests still live where they were written: the
archive and the pinned content in ``test_ndtensor.py``, the bank's in
``test_extractor.py``, and the round trips and the banks a model cannot serve
with in ``test_model.py``.

Every damaged file is a saved one that ``rewrite(path, *edits)`` changes, and
``assert_refused`` makes every refusal check (see ``file_faults``).
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from chargenet import charge_model as cm
from chargenet import model_file as mf

from file_faults import Unwritable, assert_refused, drop, edit, rewrite, saved
from model_builders import bank, data, untrained_model  # noqa: F401


def but_last(entries):
    return entries[:-1]


def first_twice(entries):
    """``entries`` with its second entry replaced by its first."""
    return entries[:1] * 2 + entries[2:]


def swapped(i, j):
    def swap(entries):
        entries[i], entries[j] = entries[j], entries[i]
        return entries
    return swap


def test_failed_model_write_keeps_the_previous_file(data, tmp_path):
    """A model file whose write fails part way, after the tensors before the
    failing one, keeps its previous content, and no temporary file is left."""
    model = untrained_model(data, cm.Variant.FACT_ONLY)
    path = saved(tmp_path, model)
    before = path.read_bytes()
    model.params.out_w.data = Unwritable()
    with pytest.raises(OSError, match="no space left"):
        mf.save_model(path, model)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


# -- A damaged meta ---------------------------------------------------------

def first_half_of_text(meta):
    text = json.dumps(meta)
    return text[:len(text) // 2]


@pytest.mark.parametrize("damage, problem", [
    (edit("meta", to=first_half_of_text), "meta is not JSON"),
    (edit("meta", to=[]), "meta is not a JSON object"),
    (drop("meta", "config"), "meta has no 'config' of type dict"),
    (edit("meta", "tau", to="0.4"), "meta has no 'tau' of type float"),
    (edit("meta", "config", "k", to="3"), "bad config: k must be int, not '3'"),
    (edit("meta", "config", "k", to=0), "bad config: k must be positive"),
    (edit("meta", "config", to=lambda c: {**c, "tie_article_encoder": False, "dropout": 0.5}),
     "['dropout', 'tie_article_encoder']"),
    (edit("meta", "tau", to=-1.0), "has tau -1.0, outside (0, 1)"),
    (edit("meta", "tau", to=math.nan), "has tau nan, outside"),
    (edit("meta", "word_vocab", to=[["<pad>"]]), "has a word_vocab entry that is not a string"),
    (edit("meta", "charge_vocab", to=first_twice), "repeats the charge_vocab entry 'charge00'"),
    (edit("meta", "word_vocab", to=first_twice), "repeats the word_vocab entry '<pad>'"),
    (edit("meta", "pos_vocab", to=first_twice), "repeats the pos_vocab entry '<pad>'"),
    (edit("meta", "article_ids", to=[{}]), "has the article id {}, not"),
    (edit("meta", "article_ids", to=[[101, 1, 7]]), "has the article id [101, 1, 7], not"),
    (edit("meta", "article_ids", to=[[133, 0]]), "has the article id [133, 0], not"),
    (edit("meta", "article_ids", to=[0]), "has the article id 0, not"),
    (edit("meta", "version", to=1), "holds format 'model' version 1, not 'model' version 4"),
    (edit("meta", "version", to=99), "holds format 'model' version 99"),
    (edit("meta", "format", to="bank"), "holds format 'bank' version 4"),
    (edit("meta", "config", "lr", to=math.nan), "bad config: lr must be finite and positive"),
    (edit("meta", "word_vocab", to=swapped(1, 2)),
     "word_vocab does not begin with '<pad>' at 0 and '<unk>' at 1"),
    (edit("meta", "pos_vocab", to=swapped(0, 1)),
     "pos_vocab does not begin with '<pad>' at 0 and '<unk>' at 1"),
    (edit("meta", "word_vocab", to=["<pad>"]),
     "word_vocab does not begin with '<pad>' at 0 and '<unk>' at 1"),
], ids=["not_json", "not_an_object", "missing_field", "field_of_wrong_type",
        "config_field_of_wrong_type", "config_out_of_range", "unknown_config_fields",
        "tau_out_of_range", "tau_nan", "vocab_entry_not_string", "charge_vocab_repeated",
        "word_vocab_repeated", "pos_vocab_repeated", "article_id_dict", "article_id_triple",
        "article_id_sub_zero", "article_id_zero", "version_1", "version_99", "other_kind",
        "config_lr_nan", "word_vocab_unk_swapped", "pos_vocab_pad_swapped",
        "word_vocab_without_unk"])
def test_corrupt_meta_is_rejected(data, tmp_path, damage, problem):
    path = saved(tmp_path, untrained_model(data, cm.Variant.FACT_ONLY))
    rewrite(path, damage)
    assert_refused(path, problem)


@pytest.mark.parametrize("names", [(f.name,) for f in dataclasses.fields(cm.ModelConfig)]
                         + [("variant", "k")], ids="-".join)
def test_meta_without_config_fields_is_rejected(data, tmp_path, names):
    """A missing field is not filled with its default: a fact_gold_art, k=3
    file without ``variant`` and ``k`` would load as fact_supv_art, k=20."""
    path = saved(tmp_path, untrained_model(data, cm.Variant.FACT_GOLD_ART))
    rewrite(path, *(drop("meta", "config", name) for name in names))
    assert_refused(path, f"has no config fields {sorted(names)}")


def test_meta_with_other_dims_is_rejected(data, bank, tmp_path):
    model = untrained_model(data, cm.Variant.FACT_SUPV_ART)
    path = saved(tmp_path, model, bank)
    wider = dataclasses.replace(model.config, gru_hidden=model.config.gru_hidden + 1)
    rewrite(path, edit("meta", "config", "gru_hidden", to=wider.gru_hidden))
    message = assert_refused(path, "has shape")
    match = re.fullmatch(rf"model file {re.escape(str(path))} parameter (\S+) has shape "
                         r"(\(.*\)), expected (\(.*\))", message)
    assert match, message
    saved_params = dict(model.params.named())
    expected = dict(cm.ModelParams.create(wider, len(model.word_vocab), len(model.pos_vocab),
                                          len(model.charge_vocab),
                                          np.random.default_rng(0)).named())
    name = match.group(1)
    assert match.group(2) == str(saved_params[name].shape)
    assert match.group(3) == str(expected[name].shape) != match.group(2)


def test_meta_with_other_variant_is_rejected(data, bank, tmp_path):
    model = untrained_model(data, cm.Variant.FACT_SUPV_ART)
    path = saved(tmp_path, model, bank)
    rewrite(path, edit("meta", "config", "variant", to="fact_only"))
    message = assert_refused(path, "does not match the configured model")
    article_side = [n for n, _ in model.params.named() if n.startswith(("art.", "agg"))]
    assert len(article_side) == 12
    for name in article_side:
        assert repr(name) in message


# -- Damaged arrays ---------------------------------------------------------

@pytest.mark.parametrize("damage, problem", [
    (drop("out.b"), "does not match the configured model: ['out.b']"),
    (edit("extra", to=np.zeros(1)), "does not match the configured model: ['extra']"),
    (edit("bank.extra", to=np.zeros(1)), "does not match the configured model: ['bank.extra']"),
    (edit("out.b", to=lambda a: a.T), "parameter out.b has shape"),
    (edit("out.b", to=lambda a: a > 0), "parameter out.b has dtype bool, expected float64"),
    (edit("out.b", to=lambda a: a.astype(np.float32)),
     "parameter out.b has dtype float32, expected float64"),
], ids=["missing", "extra", "bank_extra", "shape", "bool", "float32"])
def test_tensor_that_does_not_fit_is_rejected(data, tmp_path, damage, problem):
    path = saved(tmp_path, untrained_model(data, cm.Variant.FACT_ONLY))
    rewrite(path, damage)
    assert_refused(path, problem)


def split_directions(named, gates=False):
    """The named arrays in an older layout: each Bi-GRU tensor (the only 3-D
    ones) split into its forward and backward GRU (``<head>.fwd.w``, ...),
    and with ``gates`` each of those into its z, r and h rows
    (``<head>.fwd.w_z``, ...)."""
    old = {}
    for name, t in named:
        if t.data.ndim != 3:
            old[name] = t.data
            continue
        head, kind = name.rsplit(".", 1)
        for tag, rows in zip(("fwd", "bwd"), t.data):
            if gates:
                old.update((f"{head}.{tag}.{kind}_{g}", block)
                           for g, block in zip("zrh", np.split(rows, 3)))
            else:
                old[f"{head}.{tag}.{kind}"] = rows
    return old


@pytest.mark.parametrize("gates, count", [(False, 51), (True, 111)],
                         ids=["per_direction", "nine_gate"])
def test_old_layout_is_rejected(data, bank, tmp_path, gates, count):
    """A model file whose arrays are the saved model's in an older layout,
    one tensor set per GRU direction (``.fwd.w``, ...) or one tensor per
    gate and direction (``.fwd.w_z``, ...), fails the name check. There are
    ten GRU directions, of three or nine tensors each."""
    model = untrained_model(data, cm.Variant.FACT_ART)
    path = saved(tmp_path, model, bank)
    old = split_directions(model.params.named(), gates)
    assert (len(old), len(model.params.named())) == (count, 36)

    def only_old(members):
        members.update(old, meta=members.pop("meta"))
        for name in set(members) - set(old) - {"meta"}:
            del members[name]
    rewrite(path, only_old)
    assert_refused(path, "does not match the configured")


@pytest.mark.parametrize("damage, problem", [
    (drop("docs.pos"), "has no 'docs.pos' array"),
    (edit("docs.words", to=lambda a: a.astype(np.float64)),
     "array 'docs.words' has type float64"),
    (edit("docs.article_lens", to=lambda a: a.astype(np.int32)),
     "array 'docs.article_lens' has type int32"),
    (edit("docs.words", to=lambda a: a[None]), "array 'docs.words' has type int64 and shape (1, "),
    (edit("docs.words", to=but_last), "docs lengths do not add up"),
    (edit("docs.sentence_lens", to=but_last), "docs lengths do not add up"),
    (edit("docs.sentence_lens", 0, to=0), "a sentence of length below 1"),
    (edit("docs.article_lens", -1, to=0), "a sentence of length below 1"),
    (edit("docs.words", 0, to=10 ** 6), "holds a word id outside [0, "),
    (edit("docs.pos", -1, to=-1), "holds a POS id outside [0, "),
    (edit("meta", "article_ids", to=but_last), "docs lengths do not add up"),
    (edit("meta", "article_ids", to=first_twice), "has duplicate article ids"),
    (edit("docs.extra", to=np.zeros(1, dtype=np.int64)),
     "does not match the configured model: ['docs.extra']"),
], ids=["missing", "float", "int32", "two_axes", "words_short", "sentences_short",
        "empty_sentence", "empty_article", "word_id", "pos_id", "ids_short", "ids_repeated",
        "unknown_array"])
def test_corrupt_article_token_ids_are_rejected(data, tmp_path, damage, problem):
    path = saved(tmp_path, untrained_model(data, cm.Variant.FACT_GOLD_ART))
    rewrite(path, damage)
    assert_refused(path, problem)
