import collections
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargenet import article_extractor as ax
from chargenet import charge_model as cm
from chargenet import corpus as cp
from chargenet import encoders as enc
from chargenet import metrics as mx
from chargenet import ndtensor as nd
from chargenet.ndtensor import DomainError, StateError, Tape

import encoder_oracles as oracle
import model_oracles
from gradient_checks import grad_check
from file_faults import Unwritable, write_members

TINY_DIMS = dict(word_emb_dim=2, pos_emb_dim=1, gru_hidden=2, fc1_dim=3, fc2_dim=3,
                 k=3, batch=4)


@pytest.fixture(scope="module")
def data():
    spec = cp.SyntheticSpec(n_charges=3, n_articles=5, train_size=24, valid_size=6,
                            test_size=4, n_noise_tokens=4, core_keywords_per_charge=2,
                            sentences_per_fact=(2, 3), tokens_per_sentence=(2, 4),
                            tokens_per_article_sentence=(2, 3), seed=11)
    return cp.generate_synthetic(spec)


@pytest.fixture(scope="module")
def bank(data):
    return ax.build_bank([c.tokens() for c in data.train],
                         [c.gold_articles for c in data.train], k=TINY_DIMS["k"])


def untrained_model(data, variant, seed=0):
    config = cm.ModelConfig(variant=variant, **TINY_DIMS)
    word_vocab, pos_vocab = cm.build_vocab(data.train)
    charges = sorted({c for case in data.train for c in case.gold_charges})
    params = cm.ModelParams.create(config, len(word_vocab), len(pos_vocab), len(charges),
                                   np.random.default_rng(seed))
    docs = (cm.tokenize_article_db(data.article_db, word_vocab, pos_vocab)
            if config.uses_articles() else {})
    return cm.ChargeModel(config, params, word_vocab, pos_vocab, charges, docs, tau=0.4)


def supervised_case(data, bank, config):
    """A training case and its slots; for fact_supv_art, one with a gold article
    among the slots, so the attention term is live."""
    slots = cm._precompute_topk(data.train, config, bank)
    for case, topk in zip(data.train, slots):
        if (config.variant != cm.Variant.FACT_SUPV_ART
                or cm.attention_target(topk, case.gold_articles, config.k) is not None):
            return case, topk
    raise AssertionError("no training case has a gold article among its slots")


def use_oracle_encoders(monkeypatch):
    """Route every encoder level and the aggregator through the composite ops."""
    for module in (enc, cm):
        for name in ("bigru_scan", "attentive_pool_steps"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, getattr(oracle, name))


@pytest.mark.parametrize("field,value", [("lr", 0.0), ("batch", 0), ("k", 0), ("tau", 0.0),
                                         ("tau", 1.0), ("beta", -0.1), ("lr", math.nan),
                                         ("lr", math.inf), ("beta", math.nan),
                                         ("beta", math.inf)])
def test_model_config_validation(field, value):
    with pytest.raises(DomainError, match=field):
        cm.ModelConfig(**{field: value})


def test_config_of_numpy_scalars_saves_and_loads_back_equal(data, tmp_path):
    """numpy integers and floats pass the type checks and are stored as
    Python numbers, which the model file's JSON meta can hold; a bool is
    still no int."""
    dims = {name: np.int32(value) for name, value in TINY_DIMS.items()}
    config = cm.ModelConfig(variant=cm.Variant.FACT_ONLY, lr=np.float32(0.5),
                            beta=np.float64(0.25), max_epochs=np.int64(3), **dims)
    for f in dataclasses.fields(config):
        if f.type in ("int", "float"):
            assert type(getattr(config, f.name)).__name__ == f.type, f.name
    model = untrained_model(data, cm.Variant.FACT_ONLY)
    model.config = config
    cm.save_model(tmp_path / "m.npz", model)
    assert cm.load_model(tmp_path / "m.npz").config == config
    with pytest.raises(TypeError, match="k must be int"):
        cm.ModelConfig(k=True)


@pytest.mark.parametrize("variant", list(cm.Variant))
def test_training_history_matches_composite_encoders(data, bank, variant, monkeypatch):
    """A seeded 2-epoch run through the fused encoders against the same run
    through per-step ``gru_step``, which reads each gate as a row slice of
    the stacked weights: history, parameters, tau and test outputs."""
    config = cm.ModelConfig(variant=variant, max_epochs=2, patience=5, **TINY_DIMS)

    def run():
        model, history = cm.train(data.train, data.valid, config, seed=4, bank=bank,
                                  article_db=data.article_db)
        return model, history, [cm.forward(case, model, bank=bank) for case in data.test]

    fused_model, fused, fused_traces = run()
    use_oracle_encoders(monkeypatch)
    composite_model, composite, composite_traces = run()
    assert len(fused) == len(composite) == 2
    for f, c in zip(fused, composite):
        for key in ("train_loss", "charge_loss", "attention_loss"):
            assert abs(f[key] - c[key]) < 1e-10, (key, f, c)
    if variant == cm.Variant.FACT_SUPV_ART:
        assert fused[0]["attention_loss"] > 0
    for (name, f), (_, c) in zip(fused_model.params.named(), composite_model.params.named()):
        npt.assert_allclose(f.data, c.data, rtol=0, atol=1e-10, err_msg=name)
    assert fused_model.tau == composite_model.tau
    assert_forwards_close(fused_traces, composite_traces)


def seeded_training(data, bank, variant):
    """A seeded 2-epoch ``train()`` at tiny dims: the model and its history."""
    config = cm.ModelConfig(variant=variant, max_epochs=2, patience=5, **TINY_DIMS)
    return cm.train(data.train, data.valid, config, seed=4, bank=bank,
                    article_db=data.article_db)


def training_digest(data, bank, variant) -> str:
    """SHA-256 of a seeded 2-epoch ``train()``: the history as JSON (floats
    as ``repr``, so every bit counts) without ``tape_nodes_per_case``, which
    measures the graph, not the numbers, and is pinned on its own; every
    parameter's name and float64 bytes, tau, and the served ``o`` and
    ``alpha`` of every test case."""
    model, history = seeded_training(data, bank, variant)
    h = hashlib.sha256(json.dumps([{k: v for k, v in epoch.items()
                                    if k != "tape_nodes_per_case"}
                                   for epoch in history]).encode())
    for name, t in model.params.named():
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    h.update(repr(model.tau).encode())
    for case in data.test:
        trace = cm.forward(case, model, bank=bank)
        for arr in (trace.o, trace.alpha):
            if arr is not None:
                h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


TRAINING_DIGESTS = {
    cm.Variant.FACT_ONLY:
        "efc4ec9aad1cd41f89a8067c5d6583b9b0feb66ee2a12d06a57b5b870c2373e1",
    cm.Variant.ART_ONLY:
        "278038a273af02cdadb9c6f605a3a53bb02632dc8e2ef992c577c2e035000fe7",
    cm.Variant.FACT_ART:
        "c860f9d7f3bc8ef6937b68dd3c8019fbd665929ea8651150a9c10e5b2596e5a0",
    cm.Variant.FACT_SUPV_ART:
        "50045e906cbb8f48db9e03b1d1c9fd67009f14e2edea29bf2902d9e69f623532",
    cm.Variant.FACT_GOLD_ART:
        "82d0e9e4ef2cfedd04691fee0768651d70a79ca51e8fd891ec5f6c7d14aa6142",
}

# Tape nodes per training case of the same runs, in both epochs: 24 cases in
# minibatches of 4.
TAPE_NODES_PER_CASE = {
    cm.Variant.FACT_ONLY: 4.75,
    cm.Variant.ART_ONLY: 11.5,
    cm.Variant.FACT_ART: 11.75,
    cm.Variant.FACT_SUPV_ART: 12.75,
    cm.Variant.FACT_GOLD_ART: 11.75,
}


@pytest.mark.usefixtures("one_blas_thread")
@pytest.mark.parametrize("variant", list(cm.Variant))
def test_seeded_training_is_pinned(data, bank, variant):
    """Training and serving repeat bit for bit (tests run on one BLAS
    thread): a change to how gradients are stored or swept that moves any
    bit of a loss, a parameter, tau or a served output shows here."""
    assert training_digest(data, bank, variant) == TRAINING_DIGESTS[variant]


@pytest.mark.parametrize("variant", list(cm.Variant))
def test_seeded_training_graph_size_is_pinned(data, bank, variant):
    """The graph a minibatch records: a change that adds or folds a tape
    node shows here, apart from the numbers the digest pins."""
    _, history = seeded_training(data, bank, variant)
    assert [epoch["tape_nodes_per_case"] for epoch in history] == \
        [TAPE_NODES_PER_CASE[variant]] * 2


def test_trained_model_holds_no_gradient_memory(data, bank):
    """SGD parks each gradient buffer for the next minibatch; the model
    ``train()`` returns keeps neither a gradient nor a parked buffer."""
    config = cm.ModelConfig(variant=cm.Variant.FACT_ART, max_epochs=2, patience=5,
                            **TINY_DIMS)
    model, _ = cm.train(data.train, data.valid, config, seed=2, bank=bank,
                        article_db=data.article_db)
    for name, t in model.params.named():
        assert t.grad is None and t.parked_grad is None, name


def test_case_loss_terms_come_from_joint_loss(data, bank):
    model = untrained_model(data, cm.Variant.FACT_SUPV_ART)
    case, topk = supervised_case(data, bank, model.config)
    y = cm.charge_target(case.gold_charges, model.charge_vocab)
    total, charge_v, attn_v = model_oracles.case_loss(case, model, y, topk)
    served = cm.forward(case, model, topk=topk)
    t = cm.attention_target(topk, case.gold_articles, model.config.k)
    assert charge_v == nd.cross_entropy(y, nd.Tensor(served.o)).item()
    assert attn_v == nd.cross_entropy(t, nd.Tensor(served.alpha)).item()
    assert total.item() == pytest.approx(charge_v + model.config.beta * attn_v, abs=1e-15)


def mixed_batch(data, bank, model):
    """Three training cases whose slot lists differ in kind: fact_gold_art
    gives one case fewer than k slots; for the extractor variants the second
    case's slots hold no gold article, so it has no attention target."""
    config = model.config
    cases = data.train[:3]
    topks = cm._precompute_topk(cases, config, bank)
    if config.variant == cm.Variant.FACT_GOLD_ART:
        assert min(len(t) for t in topks) < config.k
    elif config.uses_articles():
        topks[1] = [aid for aid in sorted(data.article_db, key=cp.article_sort_key)
                    if aid not in cases[1].gold_articles][:config.k]
        targets = [cm.attention_target(t, c.gold_articles, config.k)
                   for c, t in zip(cases, topks)]
        assert [t is None for t in targets] == [False, True, False]
    y = np.stack([cm.charge_target(c.gold_charges, model.charge_vocab) for c in cases], axis=1)
    return cases, topks, y


@pytest.mark.parametrize("variant", list(cm.Variant))
def test_batch_loss_matches_per_case_losses(data, bank, variant):
    """The batch loss, its logged terms and every parameter gradient equal
    the mean (the terms: the sum) of the per-case oracle losses."""
    model = untrained_model(data, variant)
    cases, topks, y = mixed_batch(data, bank, model)
    params = model.params.tensors()
    with Tape() as tape:
        loss, charge_v, attn_v = cm._batch_loss(cm.forward_batch(cases, model, topks), cases,
                                                y, model)
        tape.backward(loss, params)
    got = [p.grad for p in params]
    for p in params:
        p.grad = None
    with Tape() as tape:
        per_case = [model_oracles.case_loss(case, model, y[:, j], topk)
                    for j, (case, topk) in enumerate(zip(cases, topks))]
        mean = per_case[0][0]
        for total, _, _ in per_case[1:]:
            mean = mean + total
        mean = mean * (1.0 / len(cases))
        tape.backward(mean, params)
    assert abs(loss.item() - mean.item()) < 1e-10
    assert abs(charge_v - sum(c for _, c, _ in per_case)) < 1e-10
    assert abs(attn_v - sum(a for _, _, a in per_case)) < 1e-10
    if variant == cm.Variant.FACT_SUPV_ART:
        assert attn_v > 0
    for (name, p), g in zip(model.params.named(), got):
        npt.assert_allclose(g, p.grad, rtol=0, atol=1e-10, err_msg=name)


@pytest.mark.parametrize("variant,one_case", [
    *[pytest.param(v, False, id=v.value) for v in cm.Variant],
    *[pytest.param(v, True, id=f"{v.value}-one_case") for v in cm.Variant]])
def test_batch_loss_gradients(data, bank, variant, one_case):
    """The mixed batch, or one case alone: the graph of a served case and of
    the per-case reference."""
    model = untrained_model(data, variant)
    if one_case:
        case, topk = supervised_case(data, bank, model.config)
        cases, topks = [case], [topk]
        y = cm.charge_target(case.gold_charges, model.charge_vocab)[:, None]
    else:
        cases, topks, y = mixed_batch(data, bank, model)
    report = grad_check(
        lambda: cm._batch_loss(cm.forward_batch(cases, model, topks), cases, y, model)[0],
        model.params.named())
    assert report.ok, (report.failures(), report.max_rel_err)


@pytest.fixture(scope="module")
def variant_models(data):
    return {variant: untrained_model(data, variant, seed=5) for variant in cm.Variant}


@pytest.mark.parametrize("variant", list(cm.Variant))
@settings(max_examples=12)
@given(draw=st.data())
def test_batch_columns_match_forward(data, bank, variant_models, variant, draw):
    """Any subset of cases, in any order, batched: each column gives its
    case's ``forward`` outputs, bit for bit when the batch is one case."""
    model = variant_models[variant]
    pool = data.train + data.valid + data.test
    picks = draw.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8,
                               unique=True))
    cases = [pool[i] for i in picks]
    topks = cm._precompute_topk(cases, model.config, bank)
    batch = cm.forward_batch(cases, model, topks)
    for j, (case, topk) in enumerate(zip(cases, topks)):
        want = cm.forward(case, model, topk=topk)
        pairs = [(batch.o.data[:, j], want.o), (batch.sent_attn[j], want.sent_attn),
                 *zip(batch.word_attn[j], want.word_attn, strict=True)]
        if want.alpha is not None:
            n = len(topk)
            npt.assert_array_equal(batch.alpha.data[n:, j], 0.0)
            pairs.append((batch.alpha.data[:n, j], want.alpha))
        for g, w in pairs:
            if len(cases) == 1:
                npt.assert_array_equal(g, w)
            else:
                npt.assert_allclose(g, w, rtol=0, atol=1e-12)


def test_forward_batch_needs_one_slot_list_per_case(data, bank):
    model = untrained_model(data, cm.Variant.FACT_ART)
    topks = cm._precompute_topk(data.test, model.config, bank)
    with pytest.raises(DomainError, match="3 cases and 4 slot lists"):
        cm.forward_batch(data.test[:3], model, topks)
    with pytest.raises(DomainError, match="0 cases"):
        cm.forward_batch([], model, [])


def test_joint_loss_without_attention_is_the_charge_node():
    o = nd.Tensor(np.array([0.25, 0.75]))
    total, charge, attn = cm.joint_loss(o, np.array([0.0, 1.0]), None, None, beta=0.1)
    assert total is charge and attn is None
    alpha = nd.Tensor(np.array([0.5, 0.5]))
    total, charge, attn = cm.joint_loss(o, np.array([0.0, 1.0]), alpha,
                                        np.array([1.0, 0.0]), beta=0.0)
    assert total is charge and attn is None


def test_predict_falls_back_to_the_argmax_on_an_empty_cut():
    o = np.array([0.2, 0.5, 0.3])
    assert cm.predict(o, 0.9) == {1}
    assert cm.predict(o, 0.25) == {1, 2}


def test_tune_threshold_maximises_the_reported_f1():
    """Gold charge x is outside the vocabulary: the F1 that ``_evaluate``
    reports counts it as missed, while an F1 over charge indices, which
    drops it, peaks at another tau."""
    vocab = ["a", "b", "c", "d"]
    probs = [np.array(p) for p in [[0.45, 0.05, 0.48, 0.02], [0.49, 0.06, 0.33, 0.12],
                                   [0.03, 0.49, 0.06, 0.42], [0.32, 0.27, 0.17, 0.24]]]
    gold = [{"a", "x"}, {"d"}, {"a"}, {"a"}]
    index = {c: i for i, c in enumerate(vocab)}
    gold_idx = [{index[c] for c in g if c in index} for g in gold]

    def f1(predict_at, gold_sets):
        return {tau: mx.micro_prf(mx.PredictionBatch([predict_at(o, tau) for o in probs],
                                                     gold_sets))[2]
                for tau in cm.THRESHOLD_GRID}

    by_names = f1(lambda o, tau: cm.predict_names(o, tau, vocab), gold)
    by_index = f1(cm.predict, gold_idx)
    tau = cm.tune_threshold(probs, gold, vocab)
    assert tau == 0.1 and by_names[tau] == max(by_names.values())
    assert max(by_index, key=by_index.get) == 0.35 and by_index[tau] < by_index[0.35]


def test_tune_threshold_ties_go_to_the_smallest_tau():
    # Every tau from 0.4 up keeps only "a" (above 0.6 through the argmax fallback).
    probs = [np.array([0.62, 0.38])]
    assert cm.tune_threshold(probs, [{"a"}], ["a", "b"]) == 0.4


def test_tune_threshold_without_predictions_raises():
    with pytest.raises(DomainError, match="validation predictions"):
        cm.tune_threshold([], [], ["a"])


def test_forward_rejects_a_bank_shorter_than_k(data):
    model = untrained_model(data, cm.Variant.FACT_ART)
    cited = set(sorted(data.article_db, key=ax.article_sort_key)[:2])
    short = ax.build_bank([c.tokens() for c in data.train],
                          [c.gold_articles & cited for c in data.train], k=1)
    assert len(short.article_ids) < model.config.k
    with pytest.raises(DomainError, match="exceeds"):
        cm.forward(data.test[0], model, bank=short)
    with pytest.raises(DomainError, match="exceeds"):
        cm._precompute_topk(data.test, model.config, short)


def test_forward_with_bank_equals_forward_with_its_topk(data, bank):
    model = untrained_model(data, cm.Variant.FACT_SUPV_ART)
    case = data.test[0]
    via_bank = cm.forward(case, model, bank=bank)
    [topk] = cm._precompute_topk([case], model.config, bank)
    via_topk = cm.forward(case, model, topk=topk)
    assert via_bank.topk == topk and len(topk) == model.config.k
    npt.assert_array_equal(via_bank.o, via_topk.o)
    npt.assert_array_equal(via_bank.alpha, via_topk.alpha)


def test_no_tape_forward_matches_taped_forward(data, bank):
    """Serving, on the cached article states, against the taped one-case
    graph, which scans its own slots."""
    model = untrained_model(data, cm.Variant.FACT_SUPV_ART)
    case = data.test[1]
    free = cm.forward(case, model, bank=bank)
    with Tape():
        taped = cm.forward_batch([case], model, [free.topk])
    npt.assert_array_equal(free.o, taped.o.data[:, 0])
    npt.assert_array_equal(free.alpha, taped.alpha.data[:, 0])
    npt.assert_array_equal(free.sent_attn, taped.sent_attn[0])
    for a, b in zip(free.word_attn, taped.word_attn[0], strict=True):
        npt.assert_array_equal(a, b)


def test_checkpoint_round_trip_keeps_predictions(data, bank, tmp_path):
    for variant in cm.Variant:
        model = untrained_model(data, variant, seed=3)
        path = tmp_path / f"{variant.value}.npz"
        before = [cm.forward(case, model, bank=bank) for case in data.test]
        cm.save_model(path, model)
        loaded = cm.load_model(path, article_db=data.article_db)
        assert loaded._article_cache is None
        assert [n for n, _ in loaded.params.named()] == [n for n, _ in model.params.named()]
        for case, want in zip(data.test, before):
            got = cm.forward(case, loaded, bank=bank)
            npt.assert_array_equal(got.o, want.o, err_msg=str(variant))
            if model.config.uses_articles():
                npt.assert_array_equal(got.alpha, want.alpha)
        if model.config.uses_articles():
            assert loaded._article_cache[1] is not model._article_cache[1]
        assert dataclasses.asdict(loaded.config) == dataclasses.asdict(model.config)


def test_failed_meta_write_keeps_the_previous_sidecar(data, tmp_path):
    """A model file whose write fails part way keeps its previous content,
    and no temporary file is left."""
    model = untrained_model(data, cm.Variant.FACT_ONLY)
    path = tmp_path / "m.npz"
    cm.save_model(path, model)
    before = path.read_bytes()
    model.params.out_w.data = Unwritable()  # the tensors before it are written
    with pytest.raises(OSError, match="no space left"):
        cm.save_model(path, model)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


@pytest.mark.parametrize("variant", list(cm.Variant))
def test_named_parameters_are_unique_and_round_trip(data, variant, tmp_path):
    model = untrained_model(data, variant)
    named = model.params.named()
    names = [n for n, _ in named]
    assert len(set(names)) == len(names)
    assert len({id(t) for _, t in named}) == len(named)
    has_art = any(n.startswith("art.") for n in names)
    assert has_art == model.config.uses_articles()
    nd.save_arrays(tmp_path / "p.npz", "model", {n: t.data for n, t in named}, {})
    arrays, _ = nd.load_arrays(tmp_path / "p.npz", "model", {})
    assert list(arrays) == names
    for name, t in named:
        npt.assert_array_equal(arrays[name], t.data)


@pytest.mark.parametrize("fact_only,count", [(False, 36), (True, 18)])
def test_paper_dims_tensor_counts(fact_only, count):
    """The joint model holds 36 tensors; the fact-only model drops the 18 of
    the article encoder, the ``ctx.*`` context layers and the aggregator."""
    variant = cm.Variant.FACT_ONLY if fact_only else cm.Variant.FACT_SUPV_ART
    config = cm.ModelConfig(variant=variant)
    params = cm.ModelParams.create(config, 10, 4, 3, np.random.default_rng(0))
    assert len(params.tensors()) == count
    gru = params.fact_enc.sent_gru
    assert (gru.w.shape, gru.u.shape, gru.b.shape) == ((2, 225, 150), (2, 225, 75),
                                                       (2, 225, 1))


def test_swapped_checkpoint_is_rejected(data, bank, tmp_path):
    """A bank file given to ``load_model``, or a model file given to
    ``load_bank``, raises StateError naming it."""
    model_path, bank_path = tmp_path / "m.npz", tmp_path / "bank.npz"
    cm.save_model(model_path, untrained_model(data, cm.Variant.FACT_ONLY))
    ax.save_bank(bank_path, bank)
    with pytest.raises(StateError, match=re.escape(f"model file {bank_path} holds format 'bank'")):
        cm.load_model(bank_path)
    with pytest.raises(StateError,
                       match=re.escape(f"bank file {model_path} holds format 'model'")):
        ax.load_bank(model_path)


def split_directions(named, gates=False):
    """The named tensors in an older layout: each Bi-GRU tensor (the only
    3-D ones) split into its forward and backward GRU (``<head>.fwd.w``,
    ...), and with ``gates`` each of those into its z, r and h rows
    (``<head>.fwd.w_z``, ...)."""
    old = []
    for name, t in named:
        if t.data.ndim != 3:
            old.append((name, t))
            continue
        head, kind = name.rsplit(".", 1)
        for tag, rows in zip(("fwd", "bwd"), t.data):
            if gates:
                old += [(f"{head}.{tag}.{kind}_{g}", nd.Tensor(block))
                        for g, block in zip("zrh", np.split(rows, 3))]
            else:
                old.append((f"{head}.{tag}.{kind}", nd.Tensor(rows)))
    return old


def assert_old_layout_rejected(data, tmp_path, old):
    """A model file holding the ``old`` tensors, with the saved model's
    meta, fails the name check."""
    path = tmp_path / "m.npz"
    _, meta = nd.load_arrays(path, "model", {})
    nd.save_arrays(path, "model", {name: t.data for name, t in old}, meta)
    with pytest.raises(StateError,
                       match=re.escape(f"model file {path} does not match the configured")):
        cm.load_model(path, article_db=data.article_db)


def test_nine_gate_checkpoint_is_rejected(data, tmp_path):
    """A model file in the nine-gate layout, one tensor per gate and
    direction (``.fwd.w_z``, ...), fails the name check."""
    model = untrained_model(data, cm.Variant.FACT_ART)
    cm.save_model(tmp_path / "m.npz", model)
    old = split_directions(model.params.named(), gates=True)
    assert len(old) == 111  # ten GRU directions of nine tensors each
    assert_old_layout_rejected(data, tmp_path, old)


def test_per_direction_checkpoint_is_rejected(data, tmp_path):
    """A model file with one tensor set per GRU direction (``.fwd.w``, ...)
    fails the name check."""
    model = untrained_model(data, cm.Variant.FACT_ART)
    cm.save_model(tmp_path / "m.npz", model)
    old = split_directions(model.params.named())
    assert len(old) == 51  # ten GRU directions of three tensors each
    assert len(model.params.named()) == 36
    assert_old_layout_rejected(data, tmp_path, old)


def rewrite_meta_config(path, **changes):
    """Edit the config in a model file's meta; the tensors stay as saved."""
    arrays, meta = nd.load_arrays(path, "model", {})
    meta["config"].update(changes)
    nd.save_arrays(path, "model", arrays, meta)


def test_sidecar_with_other_dims_is_rejected(data, tmp_path):
    model = untrained_model(data, cm.Variant.FACT_SUPV_ART)
    path = tmp_path / "m.npz"
    cm.save_model(path, model)
    wider = dataclasses.replace(model.config, gru_hidden=model.config.gru_hidden + 1)
    rewrite_meta_config(path, gru_hidden=wider.gru_hidden)
    with pytest.raises(StateError) as err:
        cm.load_model(path, article_db=data.article_db)
    match = re.fullmatch(rf"model file {re.escape(str(path))} parameter (\S+) has shape "
                         r"(\(.*\)), expected (\(.*\))", str(err.value))
    assert match, str(err.value)
    saved = dict(model.params.named())
    expected = dict(cm.ModelParams.create(wider, len(model.word_vocab), len(model.pos_vocab),
                                          len(model.charge_vocab),
                                          np.random.default_rng(0)).named())
    name = match.group(1)
    assert match.group(2) == str(saved[name].shape)
    assert match.group(3) == str(expected[name].shape) != match.group(2)


def test_sidecar_with_other_variant_is_rejected(data, tmp_path):
    model = untrained_model(data, cm.Variant.FACT_SUPV_ART)
    path = tmp_path / "m.npz"
    cm.save_model(path, model)
    rewrite_meta_config(path, variant="fact_only")
    with pytest.raises(StateError, match="does not match the configured model") as err:
        cm.load_model(path)
    article_side = [n for n, _ in model.params.named() if n.startswith(("art.", "agg"))]
    assert len(article_side) == 12
    for name in article_side:
        assert repr(name) in str(err.value)


def encode_slots_per_case(model, topks, d_f):
    """The article encoder before sharing, in place of ``cm._encode_slots``
    for one case: one two-level encode_documents call over its own slots."""
    [article_ids] = topks
    p = model.params
    docs = [model.article_docs[aid] for aid in article_ids]
    a_mat, _, _ = enc.encode_documents(docs, p.art_enc, model.embed_tokens,
                                       u_word=cm.dynamic_context(d_f, p.w_w, p.b_w),
                                       u_sent=cm.dynamic_context(d_f, p.w_s, p.b_s))
    return a_mat


def per_case_forwards(data, model, topks, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(cm, "_encode_slots", encode_slots_per_case)
        return [cm.forward(case, model, topk=topk) for case, topk in zip(data.test, topks)]


def assert_forwards_close(got, want):
    for g, w in zip(got, want):
        npt.assert_allclose(g.o, w.o, rtol=0, atol=1e-10)
        npt.assert_allclose(g.sent_attn, w.sent_attn, rtol=0, atol=1e-10)
        if w.alpha is not None:
            npt.assert_allclose(g.alpha, w.alpha, rtol=0, atol=1e-10)


@pytest.mark.parametrize("variant", list(cm.Variant))
def test_cached_article_states_match_per_case_encoding(data, bank, variant, monkeypatch):
    model = untrained_model(data, variant, seed=5)
    topks = cm._precompute_topk(data.test, model.config, bank)
    cached = [cm.forward(case, model, topk=topk) for case, topk in zip(data.test, topks)]
    assert (model._article_cache is not None) == model.config.uses_articles()
    assert_forwards_close(cached, per_case_forwards(data, model, topks, monkeypatch))


def sgd_on_one_case(data, bank, model):
    case, topk = supervised_case(data, bank, model.config)
    params = model.params.tensors()
    with Tape() as tape:
        loss, _, _ = model_oracles.case_loss(case, model,
                                   cm.charge_target(case.gold_charges, model.charge_vocab), topk)
        tape.backward(loss, params)
    nd.sgd_step(params, 0.5)


@pytest.mark.parametrize("change", ["sgd_step", "emb.word", "art.word_gru", "art.word_pool"])
def test_article_cache_follows_parameter_changes(data, bank, change, monkeypatch):
    model = untrained_model(data, cm.Variant.FACT_ART, seed=6)
    topks = cm._precompute_topk(data.test, model.config, bank)
    old = [cm.forward(case, model, topk=topk) for case, topk in zip(data.test, topks)]
    states = model._article_cache[1].states.data.copy()
    keys = model._article_cache[1].keys.data.copy()
    if change == "sgd_step":
        sgd_on_one_case(data, bank, model)
    elif change == "emb.word":
        model.params.word_emb.data[...] *= 1.5
    elif change == "art.word_gru":
        model.params.art_enc.word_gru.u.data[1, -model.config.gru_hidden:] += 0.3
    else:
        model.params.art_enc.word_pool.w.data[0] += 0.5
    new = [cm.forward(case, model, topk=topk) for case, topk in zip(data.test, topks)]
    # Every change moves the keys; all but the pool weights move the states.
    assert not np.array_equal(model._article_cache[1].keys.data, keys)
    assert (change == "art.word_pool") == np.array_equal(
        model._article_cache[1].states.data, states)
    assert not np.array_equal(new[0].o, old[0].o)
    assert_forwards_close(new, per_case_forwards(data, model, topks, monkeypatch))


def test_article_cache_follows_the_write(data, bank, monkeypatch):
    """Writing the embedding rows of the words articles use, in place and
    only those rows (as loading a vectors file would), rebuilds the cached
    article states."""
    model = untrained_model(data, cm.Variant.FACT_ART, seed=6)
    topks = cm._precompute_topk(data.test, model.config, bank)
    old = [cm.forward(case, model, topk=topk) for case, topk in zip(data.test, topks)]
    states = model._article_cache[1].states.data.copy()
    rows = sorted({int(i) for doc in model.article_docs.values() for ids, _ in doc
                   for i in ids} - {cm.PAD_ID, cm.UNK_ID})
    assert rows
    model.params.word_emb.data[rows] = [0.75, -0.5]
    new = [cm.forward(case, model, topk=topk) for case, topk in zip(data.test, topks)]
    assert not np.array_equal(model._article_cache[1].states.data, states)
    assert not np.array_equal(new[0].o, old[0].o)
    assert_forwards_close(new, per_case_forwards(data, model, topks, monkeypatch))


@pytest.mark.parametrize("variant", [cm.Variant.FACT_ONLY, cm.Variant.FACT_SUPV_ART])
def test_forward_inside_a_tape_records_nothing(data, bank, variant):
    """A served case adds no node to an ambient tape, and its outputs equal
    those of a forward with no tape."""
    model = untrained_model(data, variant)
    case = data.test[2]
    free = cm.forward(case, model, bank=bank)
    with Tape() as tape:
        taped = cm.forward(case, model, bank=bank)
        assert nd.recording()
    assert len(tape) == 0
    for field_ in ("o", "alpha", "sent_attn"):
        npt.assert_array_equal(getattr(taped, field_), getattr(free, field_))
    for a, b in zip(taped.word_attn, free.word_attn, strict=True):
        npt.assert_array_equal(a, b)
    assert taped.topk == free.topk


def test_words_missing_a_slot_raise(data, bank):
    """A slot outside the article database has no word states, with or
    without a tape, served alone or in a batch."""
    model = untrained_model(data, cm.Variant.FACT_ART)
    case, topk = supervised_case(data, bank, model.config)
    missing = max(cp.article_sort_key(aid)[0] for aid in model.article_docs) + 1
    bad = topk[:-1] + [missing]
    for taped in (False, True):
        with Tape() if taped else contextlib.nullcontext():
            with pytest.raises(DomainError, match=f"article {missing} missing from the article"):
                cm.forward(case, model, topk=bad)
            with pytest.raises(DomainError, match=f"article {missing} missing from the article"):
                cm.forward_batch([case, case], model, [topk, bad])


def test_empty_slot_list_raises(data, bank):
    """A case with no article slot fails before any encoder runs, served
    alone or in a batch."""
    model = untrained_model(data, cm.Variant.FACT_ART)
    case, topk = supervised_case(data, bank, model.config)
    with pytest.raises(DomainError, match="at least one article slot"):
        cm.forward(case, model, topk=[])
    with pytest.raises(DomainError, match="at least one article slot"):
        cm.forward_batch([case, case], model, [topk, []])


def test_training_history_matches_per_case_article_encoding(data, bank, monkeypatch):
    """Batched training against the per-case loop it replaced: every case
    through its own one-case graph with the article encoder before sharing
    (one ``encode_documents`` call over its own slots), each minibatch's loss
    the mean of the per-case joint losses, validation one case at a time."""
    for variant in cm.Variant:
        config = cm.ModelConfig(variant=variant, max_epochs=2, patience=5, **TINY_DIMS)

        def run():
            return cm.train(data.train, data.valid, config, seed=4, bank=bank,
                            article_db=data.article_db)

        batched_model, batched = run()
        with monkeypatch.context() as m:
            m.setattr(cm, "forward_batch", model_oracles.forward_batch)
            m.setattr(cm, "_batch_loss", model_oracles.batch_loss)
            m.setattr(cm, "_encode_slots", encode_slots_per_case)
            per_case_model, per_case = run()
        assert len(batched) == len(per_case) == 2
        for b, c in zip(batched, per_case):
            for key in ("train_loss", "charge_loss", "attention_loss", "valid_micro_f1"):
                assert abs(b[key] - c[key]) < 1e-9, (variant, key, b, c)
        for (name, b), (_, c) in zip(batched_model.params.named(),
                                     per_case_model.params.named()):
            npt.assert_allclose(b.data, c.data, rtol=0, atol=1e-9, err_msg=name)
        assert batched_model.tau == per_case_model.tau


def test_minibatch_records_one_article_word_scan(data, bank, monkeypatch):
    """A minibatch is one graph: one article word-level scan and one key
    product under the tape, and a tape whose only per-case nodes are each
    case's word pool."""
    config = cm.ModelConfig(variant=cm.Variant.FACT_ART, max_epochs=1, patience=1,
                            **dict(TINY_DIMS, batch=4))
    lengths = []
    taped_scans = []

    class CountingTape(Tape):
        def backward(self, loss, params=()):
            lengths.append(len(self))
            super().backward(loss, params)

    def counting_scan(*args):
        taped_scans.append(nd.recording())
        return enc.scan_words(*args)

    with monkeypatch.context() as m:
        m.setattr(cm, "Tape", CountingTape)
        m.setattr(cm, "scan_words", counting_scan)
        _, history = cm.train(data.train[:8], data.valid, config, seed=1, bank=bank,
                              article_db=data.article_db)
    n = config.batch
    # Every column attentive pool is one node: keys, scores, softmax and sum.
    # Once per minibatch: fact encoder 8 (two embeddings and their concat,
    # word scan and pool, sentence gather, scan and pool), article word
    # scan 4 and its keyed rows 1, three dynamic contexts 6, the concat of
    # the word pools 1, the sentence contexts' gather 1, sentence level 3
    # (gather, scan, pool), aggregator 3 (the same), classifier 10, cross
    # entropy and the 1/n scaling 2: 39. Per case: its word pool's context
    # column and the pool: 2.
    assert lengths == [39 + 2 * n] * 2
    assert taped_scans.count(True) == 2
    assert history[0]["tape_nodes_per_case"] == sum(lengths) / 8


@pytest.mark.parametrize("variant", [cm.Variant.FACT_ONLY, cm.Variant.FACT_SUPV_ART])
def test_every_forward_runs_the_one_fact_encoder_and_aggregator(data, bank, variant,
                                                                 monkeypatch):
    """One training minibatch, one validation chunk and one served case each
    call ``ChargeModel.encode_fact`` once and, for the article variants,
    ``aggregate_articles`` once: no second fact encoder or aggregator runs
    beside them."""
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append((name, nd.recording()))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cm.ChargeModel, "encode_fact",
                        counting("encode_fact", cm.ChargeModel.encode_fact))
    monkeypatch.setattr(cm, "aggregate_articles",
                        counting("aggregate", cm.aggregate_articles))
    config = cm.ModelConfig(variant=variant, max_epochs=1, patience=1, **TINY_DIMS)
    n = config.batch
    model, _ = cm.train(data.train[:n], data.valid[:n], config, seed=1, bank=bank,
                        article_db=data.article_db)
    one = [("encode_fact", False)]
    if config.uses_articles():
        one.append(("aggregate", False))
    # The minibatch runs under the tape, the validation chunk without.
    assert calls == [(name, True) for name, _ in one] + one
    calls.clear()
    cm.forward(data.test[0], model, bank=bank)
    assert calls == one


def test_model_file_with_epochs_completed_loads(data, tmp_path):
    """Files saved before ``epochs_completed`` was dropped still hold it in
    their meta; ``load_model`` ignores meta fields it does not read."""
    model = untrained_model(data, cm.Variant.FACT_ONLY)
    path = tmp_path / "m.npz"
    cm.save_model(path, model)
    arrays, meta = nd.load_arrays(path, "model", {})
    assert "epochs_completed" not in meta
    nd.save_arrays(path, "model", arrays, {**meta, "epochs_completed": 7})
    loaded = cm.load_model(path)
    for (name, want), (_, got) in zip(model.params.named(), loaded.params.named(),
                                      strict=True):
        npt.assert_array_equal(got.data, want.data, err_msg=name)
    assert (loaded.tau, loaded.config) == (model.tau, model.config)


def test_article_ids_round_trip_through_every_file(data, tmp_path):
    """Int and (number, sub_number) ids survive the dataset, the article DB,
    the extractor bank and the model file."""
    relabel = {a: (a, 1) for a in sorted(data.article_db)[::2]}
    cases = [cp.CaseRecord(c.fact, c.gold_charges, {relabel.get(a, a) for a in c.gold_articles})
             for c in data.train]
    article_db = {relabel.get(a, a): text for a, text in data.article_db.items()}
    ids = sorted(article_db, key=cp.article_sort_key)
    assert any(isinstance(a, int) for a in ids) and any(isinstance(a, tuple) for a in ids)

    cp.save_dataset(tmp_path / "train.jsonl", cases)
    cases = cp.load_dataset(tmp_path / "train.jsonl")
    assert [c.gold_articles for c in cases] == [{relabel.get(a, a) for a in c.gold_articles}
                                                for c in data.train]
    cp.save_article_db(tmp_path / "articles.jsonl", article_db)
    assert cp.load_article_db(tmp_path / "articles.jsonl") == article_db

    bank = ax.build_bank([c.tokens() for c in cases], [c.gold_articles for c in cases],
                         k=TINY_DIMS["k"])
    ax.save_bank(tmp_path / "bank.npz", bank)
    assert ax.load_bank(tmp_path / "bank.npz").article_ids == bank.article_ids == ids

    config = cm.ModelConfig(variant=cm.Variant.FACT_SUPV_ART, **TINY_DIMS)
    word_vocab, pos_vocab = cm.build_vocab(cases)
    charges = sorted({c for case in cases for c in case.gold_charges})
    params = cm.ModelParams.create(config, len(word_vocab), len(pos_vocab), len(charges),
                                   np.random.default_rng(0))
    model = cm.ChargeModel(config, params, word_vocab, pos_vocab, charges,
                           cm.tokenize_article_db(article_db, word_vocab, pos_vocab), tau=0.4)
    cm.save_model(tmp_path / "m.npz", model)
    loaded = cm.load_model(tmp_path / "m.npz", article_db=article_db)
    assert sorted(loaded.article_docs, key=cp.article_sort_key) == ids
    with pytest.raises(nd.StateError, match="missing ids"):
        cm.load_model(tmp_path / "m.npz", article_db={a: t for a, t in article_db.items()
                                                      if a not in ids[:2]})

    trace = cm.forward(cases[0], loaded, bank=bank)
    record = json.loads(json.dumps(cm.prediction_record(trace, loaded)))
    assert {cp.article_id_from_json(a["id"]) for a in record["articles"]} == set(trace.topk)


def test_prediction_record_shows_extractor_scores(data):
    """Each article in the record carries the shortlister's score; slots given
    by the caller carry none."""
    ids = sorted(data.article_db, key=cp.article_sort_key)
    bank = ax.build_bank([c.tokens() for c in data.train],
                         [c.gold_articles for c in data.train], k=len(ids))
    model = untrained_model(data, cm.Variant.FACT_SUPV_ART)
    model.config = dataclasses.replace(model.config, k=len(ids))
    case = data.test[0]
    trace = cm.forward(case, model, bank=bank)
    record = json.loads(json.dumps(cm.prediction_record(trace, model), allow_nan=False))
    by_id = {cp.article_id_from_json(a["id"]): a["extractor_score"] for a in record["articles"]}
    assert by_id == dict(ax.extract_top_k(case.tokens(), bank))
    attention = [a["attention"] for a in record["articles"]]
    assert attention == sorted(attention, reverse=True)

    given = cm.forward(case, model, topk=trace.topk)
    record = cm.prediction_record(given, model)
    assert all(set(a) == {"id", "attention"} for a in record["articles"])


def test_tau_is_tuned_on_the_kept_epochs_validation_outputs(data, bank, monkeypatch):
    """The best epoch is not the last, and tau comes from the validation
    outputs that epoch saved: the same bits a fresh pass over the restored
    model gives."""
    config = cm.ModelConfig(variant=cm.Variant.FACT_SUPV_ART, max_epochs=4, patience=5,
                            **TINY_DIMS)
    tuned_on = []
    tune = cm.tune_threshold

    def recording_tune(probs, gold, vocab):
        tuned_on.append(probs)
        return tune(probs, gold, vocab)

    monkeypatch.setattr(cm, "tune_threshold", recording_tune)
    model, history = cm.train(data.train, data.valid, config, seed=9, bank=bank,
                              article_db=data.article_db)
    f1s = [h["valid_micro_f1"] for h in history]
    assert f1s.index(max(f1s)) != len(f1s) - 1
    f1, probs = cm._evaluate(model, data.valid, cm._precompute_topk(data.valid, config, bank),
                             config.tau)
    assert f1 == max(f1s)
    [kept] = tuned_on
    for got, want in zip(kept, probs, strict=True):
        npt.assert_array_equal(got, want)
    assert model.tau == tune(probs, [c.gold_charges for c in data.valid], model.charge_vocab)


# Test micro-F1 of this set-up at seeds 1-8 minus that of naming the most
# frequent training charge: 0.516, 0.321, 0.285, 0.452, 0.228, 0.238, 0.263,
# 0.186; minus that of naming every charge (which a tuned tau reaches with no
# training at all): 0.369, 0.317, 0.237, 0.330, 0.175, 0.132, 0.115, 0.104.
# Each floor is about half the least gap.
MAJORITY_MARGIN = 0.1
EVERY_CHARGE_MARGIN = 0.05


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_fact_only_beats_the_majority_class(seed):
    """A seeded fact_only model at tiny dims, 6 epochs on 120 cases of 8
    charges, predicts held-out charges better than always naming the most
    frequent training charge, or every charge."""
    spec = cp.SyntheticSpec(n_charges=8, n_articles=16, train_size=120, valid_size=30,
                            test_size=60, seed=seed)
    data = cp.generate_synthetic(spec)
    config = cm.ModelConfig(variant=cm.Variant.FACT_ONLY, word_emb_dim=12, pos_emb_dim=4,
                            gru_hidden=8, fc1_dim=16, fc2_dim=16, batch=8, lr=0.5,
                            max_epochs=6, patience=6)
    model, _ = cm.train(data.train, data.valid, config, seed=seed)
    gold = [case.gold_charges for case in data.test]
    predicted = [cm.predict_names(cm.forward(case, model).o, model.tau, model.charge_vocab)
                 for case in data.test]
    counts = collections.Counter(c for case in data.train for c in case.gold_charges)
    majority = [{counts.most_common(1)[0][0]}] * len(gold)
    every = [set(model.charge_vocab)] * len(gold)
    f1, majority_f1, every_f1 = (mx.micro_prf(mx.PredictionBatch(p, gold))[2]
                                 for p in (predicted, majority, every))
    assert f1 > majority_f1 + MAJORITY_MARGIN, (f1, majority_f1)
    assert f1 > every_f1 + EVERY_CHARGE_MARGIN, (f1, every_f1)


def test_sidecar_with_an_unknown_config_field_is_rejected(data, tmp_path):
    model = untrained_model(data, cm.Variant.FACT_ONLY)
    path = tmp_path / "m.npz"
    cm.save_model(path, model)
    rewrite_meta_config(path, tie_article_encoder=False, dropout=0.5)
    with pytest.raises(StateError, match=r"\['dropout', 'tie_article_encoder'\]"):
        cm.load_model(path)


@pytest.mark.parametrize("names", [(f.name,) for f in dataclasses.fields(cm.ModelConfig)]
                         + [("variant", "k")], ids="-".join)
def test_sidecar_without_config_fields_is_rejected(data, tmp_path, names):
    """A missing field is not filled with its default: a fact_gold_art, k=3
    file without ``variant`` and ``k`` would load as fact_supv_art, k=20."""
    model = untrained_model(data, cm.Variant.FACT_GOLD_ART)
    path = tmp_path / "m.npz"
    cm.save_model(path, model)
    arrays, meta = nd.load_arrays(path, "model", {})
    for name in names:
        del meta["config"][name]
    nd.save_arrays(path, "model", arrays, meta)
    with pytest.raises(StateError, match=re.escape(
            f"model file {path} has no config fields {sorted(names)}")):
        cm.load_model(path, article_db=data.article_db)


def edit_meta(**changes):
    """A ``corrupt`` that sets fields of the meta."""
    return lambda text: json.dumps({**json.loads(text), **changes})


def repeat_first(key):
    """A ``corrupt`` that makes every entry of the meta list ``key`` its first."""
    def corrupt(text):
        meta = json.loads(text)
        return json.dumps({**meta, key: meta[key][:1] * len(meta[key])})
    return corrupt


def swap_entries(key, i, j):
    """A ``corrupt`` that swaps entries ``i`` and ``j`` of the meta list ``key``."""
    def corrupt(text):
        meta = json.loads(text)
        entries = list(meta[key])
        entries[i], entries[j] = entries[j], entries[i]
        return json.dumps({**meta, key: entries})
    return corrupt


def edit_config(**changes):
    """A ``corrupt`` that sets fields of the meta's config."""
    def corrupt(text):
        meta = json.loads(text)
        return json.dumps({**meta, "config": {**meta["config"], **changes}})
    return corrupt


@pytest.mark.parametrize("corrupt,problem", [
    (lambda text: text[:len(text) // 2], "meta is not JSON"),
    (lambda text: "[]", "meta is not a JSON object"),
    (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "config"}),
     "meta has no 'config' of type dict"),
    (edit_meta(tau="0.4"), "meta has no 'tau' of type float"),
    (lambda text: text.replace('"k": 3,', '"k": "3",'), "bad config: k must be int, not '3'"),
    (lambda text: text.replace('"k": 3,', '"k": 0,'), "bad config: k must be positive"),
    (edit_meta(tau=-1.0), "has tau -1.0, outside (0, 1)"),
    (edit_meta(tau=math.nan), "has tau nan, outside"),
    (edit_meta(word_vocab=[["<pad>"]]), "has a word_vocab entry that is not a string"),
    (repeat_first("charge_vocab"), "repeats the charge_vocab entry 'charge00'"),
    (repeat_first("word_vocab"), "repeats the word_vocab entry '<pad>'"),
    (repeat_first("pos_vocab"), "repeats the pos_vocab entry '<pad>'"),
    (edit_meta(article_ids=[{}]), "has the article id {}, not"),
    (edit_meta(article_ids=[[101, 1, 7]]), "has the article id [101, 1, 7], not"),
    (edit_meta(article_ids=[[133, 0]]), "has the article id [133, 0], not"),
    (edit_meta(article_ids=[0]), "has the article id 0, not"),
    (edit_meta(version=1), "holds format 'model' version 1, not 'model' version 2"),
    (edit_meta(version=99), "holds format 'model' version 99"),
    (edit_meta(format="bank"), "holds format 'bank' version 2"),
    (edit_config(lr=math.nan), "bad config: lr must be finite and positive"),
    (edit_config(beta=math.inf), "bad config: beta must be finite and >= 0"),
    (swap_entries("word_vocab", 1, 2),
     "word_vocab does not begin with '<pad>' at 0 and '<unk>' at 1"),
    (swap_entries("pos_vocab", 0, 1),
     "pos_vocab does not begin with '<pad>' at 0 and '<unk>' at 1"),
    (edit_meta(word_vocab=["<pad>"]),
     "word_vocab does not begin with '<pad>' at 0 and '<unk>' at 1"),
], ids=["not_json", "not_an_object", "missing_field", "field_of_wrong_type", "config_field_of_wrong_type",
        "config_out_of_range", "tau_out_of_range", "tau_nan", "vocab_entry_not_string",
        "charge_vocab_repeated", "word_vocab_repeated", "pos_vocab_repeated",
        "article_id_dict", "article_id_triple", "article_id_sub_zero", "article_id_zero",
        "version_1", "version_99", "other_kind", "config_lr_nan", "config_beta_inf",
        "word_vocab_unk_swapped", "pos_vocab_pad_swapped", "word_vocab_without_unk"])
def test_corrupt_sidecar_is_rejected(data, tmp_path, corrupt, problem):
    """A model file whose meta is corrupt raises StateError naming it and
    the problem."""
    model = untrained_model(data, cm.Variant.FACT_ONLY)
    path = tmp_path / "m.npz"
    cm.save_model(path, model)
    with np.load(path) as archive:
        members = dict(archive)
    text = members["meta"].item()
    assert '"k": 3,' in text
    write_members(path, **{**members, "meta": np.array(corrupt(text))})
    with pytest.raises(StateError) as err:
        cm.load_model(path)
    assert str(err.value).startswith(f"model file {path} ")
    assert problem in str(err.value)


@pytest.mark.parametrize("damage,problem", [
    (lambda arrays: arrays.pop("out.b"), "does not match the configured model: ['out.b']"),
    (lambda arrays: arrays.__setitem__("extra", np.zeros(1)),
     "does not match the configured model: ['extra']"),
    (lambda arrays: arrays.__setitem__("out.b", arrays["out.b"].T), "parameter out.b has shape"),
    (lambda arrays: arrays.__setitem__("out.b", arrays["out.b"] > 0),
     "parameter out.b has dtype bool, expected float64"),
    (lambda arrays: arrays.__setitem__("out.b", arrays["out.b"].astype(np.float32)),
     "parameter out.b has dtype float32, expected float64"),
], ids=["missing", "extra", "shape", "bool", "float32"])
def test_tensor_that_does_not_fit_is_rejected(data, tmp_path, damage, problem):
    model = untrained_model(data, cm.Variant.FACT_ONLY)
    path = tmp_path / "m.npz"
    cm.save_model(path, model)
    arrays, meta = nd.load_arrays(path, "model", {})
    damage(arrays)
    nd.save_arrays(path, "model", arrays, meta)
    with pytest.raises(StateError) as err:
        cm.load_model(path)
    assert str(err.value).startswith(f"model file {path} ")
    assert problem in str(err.value)


HASHLIB_PROBE = """
import importlib, pkgutil, sys
import chargenet
for info in pkgutil.iter_modules(chargenet.__path__):
    importlib.import_module("chargenet." + info.name)
from chargenet import article_extractor as ax, charge_model as cm, corpus as cp
from chargenet import ndtensor as nd
root = sys.argv[1]
ax.save_bank(root + "/bank2.npz", ax.load_bank(root + "/bank.npz"))
ax.load_bank(root + "/bank2.npz")
arrays, meta = nd.load_arrays(root + "/m.npz", "model", cm.MODEL_FIELDS)
nd.save_arrays(root + "/m2.npz", "model", arrays, meta)
cm.load_model(root + "/m2.npz", article_db=cp.load_article_db(root + "/articles.jsonl"))
print(sorted(name for name in sys.modules if "hashlib" in name))
"""


def test_saving_and_loading_import_no_hashlib(data, bank, tmp_path):
    """A fresh process that imports every chargenet module, then saves and
    loads a bank and a model file, does not import hashlib: it loads
    OpenSSL, about 3.6 MB of resident memory.

    ``load_model`` draws nothing, so it does not import ``numpy.random``,
    whose import brings in hashlib (through ``secrets``) in any process that
    draws a model."""
    cm.save_model(tmp_path / "m.npz", untrained_model(data, cm.Variant.FACT_SUPV_ART))
    ax.save_bank(tmp_path / "bank.npz", bank)
    cp.save_article_db(tmp_path / "articles.jsonl", data.article_db)
    src = os.path.dirname(os.path.dirname(cm.__file__))
    run = subprocess.run([sys.executable, "-c", HASHLIB_PROBE, str(tmp_path)],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]"]
