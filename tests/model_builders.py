"""The tiny corpus, its extractor bank and the untrained models that the
model tests and the model file tests build. ``data`` and ``bank`` are
module-scoped fixtures: a test module imports them by name."""

import numpy as np
import pytest

from chargenet import article_extractor as ax
from chargenet import charge_model as cm
from chargenet import corpus as cp

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


def untrained_model(data, variant, seed=0, dims=TINY_DIMS):
    """Seeded, untrained parameters at ``dims``: the tiny dims by default,
    the paper's with ``dims={}``."""
    config = cm.ModelConfig(variant=variant, **dims)
    word_vocab, pos_vocab = cm.build_vocab(data.train)
    charges = sorted({c for case in data.train for c in case.gold_charges})
    params = cm.ModelParams.create(config, len(word_vocab), len(pos_vocab), len(charges),
                                   np.random.default_rng(seed))
    docs = (cm.tokenize_article_db(data.article_db, word_vocab, pos_vocab)
            if config.uses_articles() else {})
    return cm.ChargeModel(config, params, word_vocab, pos_vocab, charges, docs, tau=0.4)


def bank_of(variant, bank):
    """``bank`` for the variants whose slots it picks, else None."""
    return bank if variant in cm.EXTRACTOR_VARIANTS else None
