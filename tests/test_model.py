import dataclasses

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
    assert len(short.scorers) < model.config.k
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
    model = untrained_model(data, cm.Variant.FACT_ART, seed=3)
    path = tmp_path / "m.ckpt"
    cm.save_model(path, model)
    loaded = cm.load_model(path, article_db=data.article_db)
    assert [n for n, _ in loaded.params.named()] == [n for n, _ in model.params.named()]
    for case in data.test:
        npt.assert_array_equal(cm.forward(case, model, bank=bank).o,
                               cm.forward(case, loaded, bank=bank).o)
    assert dataclasses.asdict(loaded.config) == dataclasses.asdict(model.config)
