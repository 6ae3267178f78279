import dataclasses
import json

import numpy as np
import numpy.testing as npt
import pytest

from chargenet import article_extractor as ax
from chargenet import charge_model as cm
from chargenet import corpus as cp
from chargenet import encoders as enc
from chargenet import ndtensor as nd
from chargenet.ndtensor import DomainError, Tape

import encoder_oracles as oracle

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


def untrained_model(data, variant, tie=False, seed=0):
    config = cm.ModelConfig(variant=variant, tie_article_encoder=tie, **TINY_DIMS)
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


@pytest.mark.parametrize("tie", [False, True])
@pytest.mark.parametrize("variant", list(cm.Variant))
def test_case_loss_gradients(data, bank, variant, tie):
    model = untrained_model(data, variant, tie)
    case, topk = supervised_case(data, bank, model.config)
    y = cm.charge_target(case.gold_charges, model.charge_vocab)
    report = nd.grad_check(lambda: cm._case_loss(case, model, y, topk)[0],
                           model.params.named())
    assert report.ok, (report.failures(), report.max_rel_err)


@pytest.mark.parametrize("variant", [cm.Variant.FACT_ONLY, cm.Variant.FACT_SUPV_ART])
def test_training_history_matches_composite_encoders(data, bank, variant, monkeypatch):
    config = cm.ModelConfig(variant=variant, max_epochs=2, patience=5, **TINY_DIMS)

    def run():
        _, history = cm.train(data.train, data.valid, config, seed=4, bank=bank,
                              article_db=data.article_db)
        return history

    fused = run()
    use_oracle_encoders(monkeypatch)
    composite = run()
    assert len(fused) == len(composite) == 2
    for f, c in zip(fused, composite):
        for key in ("train_loss", "charge_loss", "attention_loss"):
            assert abs(f[key] - c[key]) < 1e-9, (key, f, c)
    if variant == cm.Variant.FACT_SUPV_ART:
        assert fused[0]["attention_loss"] > 0


def test_case_loss_terms_come_from_joint_loss(data, bank):
    model = untrained_model(data, cm.Variant.FACT_SUPV_ART)
    case, topk = supervised_case(data, bank, model.config)
    y = cm.charge_target(case.gold_charges, model.charge_vocab)
    total, charge_v, attn_v = cm._case_loss(case, model, y, topk)
    trace = cm.forward(case, model, topk=topk)
    t = cm.attention_target(topk, case.gold_articles, model.config.k)
    assert charge_v == nd.cross_entropy(y, trace.o_tensor).item()
    assert attn_v == nd.cross_entropy(t, trace.alpha_tensor).item()
    assert total.item() == pytest.approx(charge_v + model.config.beta * attn_v, abs=1e-15)


def test_joint_loss_without_attention_is_the_charge_node():
    o = nd.Tensor(np.array([0.25, 0.75]))
    total, charge, attn = cm.joint_loss(o, np.array([0.0, 1.0]), None, None, beta=0.1)
    assert total is charge and attn is None
    alpha = nd.Tensor(np.array([0.5, 0.5]))
    total, charge, attn = cm.joint_loss(o, np.array([0.0, 1.0]), alpha,
                                        np.array([1.0, 0.0]), beta=0.0)
    assert total is charge and attn is None


def test_forward_rejects_a_bank_shorter_than_k(data):
    model = untrained_model(data, cm.Variant.FACT_ART)
    short = ax.build_bank([c.tokens() for c in data.train],
                          [c.gold_articles for c in data.train], k=1,
                          article_ids=sorted(data.article_db, key=ax.article_sort_key)[:2])
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
    model = untrained_model(data, cm.Variant.FACT_SUPV_ART)
    case = data.test[1]
    free = cm.forward(case, model, bank=bank)
    with Tape():
        taped = cm.forward(case, model, bank=bank)
    npt.assert_array_equal(free.o, taped.o)
    npt.assert_array_equal(free.alpha, taped.alpha)
    for a, b in zip(free.word_attn, taped.word_attn):
        npt.assert_array_equal(a, b)


def test_checkpoint_round_trip_keeps_predictions(data, bank, tmp_path):
    for variant in cm.Variant:
        for tie in (False, True):
            model = untrained_model(data, variant, tie, seed=3)
            path = tmp_path / f"{variant.value}-{tie}.ckpt"
            before = [cm.forward(case, model, bank=bank) for case in data.test]
            cm.save_model(path, model)
            loaded = cm.load_model(path, article_db=data.article_db)
            assert loaded._article_cache is None
            assert [n for n, _ in loaded.params.named()] == [n for n, _ in model.params.named()]
            for case, want in zip(data.test, before):
                got = cm.forward(case, loaded, bank=bank)
                npt.assert_array_equal(got.o, want.o, err_msg=f"{variant} tie={tie}")
                if model.config.uses_articles():
                    npt.assert_array_equal(got.alpha, want.alpha)
            if model.config.uses_articles():
                assert loaded._article_cache[1] is not model._article_cache[1]
            assert dataclasses.asdict(loaded.config) == dataclasses.asdict(model.config)


def test_failed_meta_write_keeps_the_previous_sidecar(data, tmp_path):
    model = untrained_model(data, cm.Variant.FACT_ONLY)
    path = tmp_path / "m.ckpt"
    cm.save_model(path, model)
    meta = tmp_path / ("m.ckpt" + cm.META_SUFFIX)
    before = meta.read_bytes()
    model.tau = object()  # not JSON: the dump stops after the vocabularies
    with pytest.raises(TypeError):
        cm.save_model(path, model)
    assert meta.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([path.name, meta.name])


def encode_articles_per_case(article_ids, model, d_f, words=None):
    """The article encoder before sharing: one two-level encode_documents call
    over the case's own slots, ignoring any shared word-level states."""
    p = model.params
    docs = [model.article_docs[aid] for aid in article_ids]
    a_mat, _, _ = enc.encode_documents(docs, p.art_enc, model.embed_tokens,
                                       u_word=cm.dynamic_context(d_f, p.w_w, p.b_w),
                                       u_sent=cm.dynamic_context(d_f, p.w_s, p.b_s))
    return a_mat


def per_case_forwards(data, model, topks, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(cm, "encode_articles", encode_articles_per_case)
        return [cm.forward(case, model, topk=topk) for case, topk in zip(data.test, topks)]


def assert_forwards_close(got, want):
    for g, w in zip(got, want):
        npt.assert_allclose(g.o, w.o, rtol=0, atol=1e-10)
        npt.assert_allclose(g.sent_attn, w.sent_attn, rtol=0, atol=1e-10)
        if w.alpha is not None:
            npt.assert_allclose(g.alpha, w.alpha, rtol=0, atol=1e-10)


@pytest.mark.parametrize("tie", [False, True])
@pytest.mark.parametrize("variant", list(cm.Variant))
def test_cached_article_states_match_per_case_encoding(data, bank, variant, tie,
                                                       monkeypatch):
    model = untrained_model(data, variant, tie, seed=5)
    topks = cm._precompute_topk(data.test, model.config, bank)
    cached = [cm.forward(case, model, topk=topk) for case, topk in zip(data.test, topks)]
    assert (model._article_cache is not None) == model.config.uses_articles()
    assert_forwards_close(cached, per_case_forwards(data, model, topks, monkeypatch))


def sgd_on_one_case(data, bank, model):
    case, topk = supervised_case(data, bank, model.config)
    params = model.params.tensors()
    with Tape() as tape:
        loss, _, _ = cm._case_loss(case, model,
                                   cm.charge_target(case.gold_charges, model.charge_vocab), topk)
        tape.backward(loss, params)
    nd.sgd_step(params, nd.SgdConfig(learning_rate=0.5))


@pytest.mark.parametrize("change", ["sgd_step", "emb.word", "art.word_gru"])
def test_article_cache_follows_parameter_changes(data, bank, change, monkeypatch):
    model = untrained_model(data, cm.Variant.FACT_ART, seed=6)
    topks = cm._precompute_topk(data.test, model.config, bank)
    old = [cm.forward(case, model, topk=topk) for case, topk in zip(data.test, topks)]
    states = model._article_cache[1].states.data.copy()
    if change == "sgd_step":
        sgd_on_one_case(data, bank, model)
    elif change == "emb.word":
        model.params.word_emb.data[...] *= 1.5
    else:
        model.params.art_enc.word_gru.backward.u_h.data[...] += 0.3
    new = [cm.forward(case, model, topk=topk) for case, topk in zip(data.test, topks)]
    assert not np.array_equal(model._article_cache[1].states.data, states)
    assert not np.array_equal(new[0].o, old[0].o)
    assert_forwards_close(new, per_case_forwards(data, model, topks, monkeypatch))


def test_words_missing_a_slot_raise(data, bank):
    model = untrained_model(data, cm.Variant.FACT_ART)
    case, topk = supervised_case(data, bank, model.config)
    words = cm.encode_article_words(model, topk[:-1])
    with pytest.raises(DomainError, match="not among the 2 encoded articles"):
        cm.forward(case, model, topk=topk, words=words)
    with pytest.raises(DomainError, match="missing from the article database"):
        cm.encode_article_words(model, topk + ["no such article"])


def test_training_history_matches_per_case_article_encoding(data, bank, monkeypatch):
    config = cm.ModelConfig(variant=cm.Variant.FACT_SUPV_ART, max_epochs=2, patience=5,
                            **TINY_DIMS)

    def run():
        _, history = cm.train(data.train, data.valid, config, seed=4, bank=bank,
                              article_db=data.article_db)
        return history

    shared = run()
    monkeypatch.setattr(cm, "encode_articles", encode_articles_per_case)
    per_case = run()
    assert len(shared) == len(per_case) == 2
    for s, c in zip(shared, per_case):
        for key in ("train_loss", "charge_loss", "attention_loss", "valid_micro_f1"):
            assert abs(s[key] - c[key]) < 1e-9, (key, s, c)


def test_minibatch_records_one_article_word_scan(data, bank, monkeypatch):
    config = cm.ModelConfig(variant=cm.Variant.FACT_ART, max_epochs=1, patience=1,
                            **dict(TINY_DIMS, batch=4))
    model = untrained_model(data, config.variant)
    model.config = config
    case, topk = supervised_case(data, bank, config)
    with Tape() as tape:
        cm.forward(case, model, topk=topk)
    per_case_own_scan = len(tape)
    with Tape() as tape:
        cm.encode_article_words(model, topk)
    scan = len(tape)

    lengths = []

    class CountingTape(Tape):
        def backward(self, loss, params=()):
            lengths.append(len(self))
            super().backward(loss, params)

    monkeypatch.setattr(cm, "Tape", CountingTape)
    cm.train(data.train[:8], data.valid, config, seed=1, bank=bank, init=model)
    n = config.batch
    # One shared scan, n forwards without their own, n cross entropies,
    # n - 1 sums and the 1/n scaling.
    assert lengths == [scan + n * (per_case_own_scan - scan) + n + (n - 1) + 1] * 2


def test_article_ids_round_trip_through_every_file(data, tmp_path):
    """Int and (number, sub_number) ids survive the dataset, the article DB,
    the extractor bank and the model meta sidecar."""
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
                         k=TINY_DIMS["k"], article_ids=ids)
    ax.save_bank(tmp_path / "bank.json", bank)
    assert ax.load_bank(tmp_path / "bank.json").article_ids == bank.article_ids == ids

    config = cm.ModelConfig(variant=cm.Variant.FACT_SUPV_ART, **TINY_DIMS)
    word_vocab, pos_vocab = cm.build_vocab(cases)
    charges = sorted({c for case in cases for c in case.gold_charges})
    params = cm.ModelParams.create(config, len(word_vocab), len(pos_vocab), len(charges),
                                   np.random.default_rng(0))
    model = cm.ChargeModel(config, params, word_vocab, pos_vocab, charges,
                           cm.tokenize_article_db(article_db, word_vocab, pos_vocab), tau=0.4)
    cm.save_model(tmp_path / "m.ckpt", model)
    loaded = cm.load_model(tmp_path / "m.ckpt", article_db=article_db)
    assert sorted(loaded.article_docs, key=cp.article_sort_key) == ids
    with pytest.raises(nd.StateError, match="missing ids"):
        cm.load_model(tmp_path / "m.ckpt", article_db={a: t for a, t in article_db.items()
                                                       if a != ids[1]})

    trace = cm.forward(cases[0], loaded, bank=bank)
    record = json.loads(json.dumps(cm.prediction_record(trace, loaded)))
    assert {cp.article_id_from_json(a["id"]) for a in record["articles"]} == set(trace.topk)
