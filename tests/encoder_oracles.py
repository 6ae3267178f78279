"""Composite reference implementations of the fused encoder ops.

Each recurrence step is one ``enc.gru_step`` and each pooled position a
handful of elementwise tape ops, so every gradient comes from the generic
per-op backward rules. ``bigru_scan`` and ``attentive_pool_steps``
(``attention_keys`` then ``pool_steps``) must agree with these on values and
gradients.
"""

import numpy as np

from chargenet import encoders as enc
from chargenet import ndtensor as nd
from chargenet.ndtensor import Tensor

from gradient_checks import tsum


def gru_scan(xs, p, masks, direction):
    """Per-step GRU of one direction (1 runs from the last step) over a list
    of (D, B) columns; masked steps keep the prior state."""
    h = Tensor(np.zeros((p.hidden_dim, xs[0].shape[1])))
    states = [None] * len(xs)
    order = range(len(xs) - 1, -1, -1) if direction else range(len(xs))
    for t in order:
        h_new = enc.gru_step(xs[t], h, p, direction)
        if masks is not None:
            m = masks[t]
            h_new = h_new * m + h * (1.0 - m)
        states[t] = h_new
        h = h_new
    return states


def split_steps(x, steps):
    batch = x.shape[1] // steps
    return [nd.narrow(x, 1, t * batch, batch) for t in range(steps)]


def bigru_scan(x, steps, p, mask=None):
    """Same contract as ``enc.bigru_scan``, built from ``gru_step``."""
    xs = split_steps(x, steps)
    masks = None if mask is None else [mask[t][None, :] for t in range(steps)]
    fwd, bwd = (gru_scan(xs, p, masks, d) for d in range(2))
    return nd.concat([nd.concat([f, b], axis=0) for f, b in zip(fwd, bwd)], axis=1)


def attentive_pool(states, w, u, mask=None):
    """Per-position scores, a softmax over positions (a masked position's
    score set to -inf), a running weighted sum.

    ``u`` is one context shared by every column of the (s, B) states, or an
    (s, B) matrix holding each column's own context.
    """
    u_col = u if u.data.ndim == 2 else nd.reshape(u, (u.size, 1))
    logits = nd.concat([tsum(nd.tanh(w @ h) * u_col, axis=0, keepdims=True)
                        for h in states], axis=0)
    if mask is not None:
        logits = logits + np.where(mask > 0, 0.0, -np.inf)
    alpha = nd.softmax(logits, axis=0)
    pooled = None
    for t, h in enumerate(states):
        term = h * nd.narrow(alpha, 0, t, 1)
        pooled = term if pooled is None else pooled + term
    return pooled, alpha


def attentive_pool_steps(states, steps, w, u, mask=None):
    """Same contract as ``enc.attentive_pool_steps``."""
    return attentive_pool(split_steps(states, steps), w, u, mask)


def encode_document(tokens, p):
    """Two-level encoding of one document given per-token (D, 1) input
    columns, one unpadded sentence at a time through the composite ops,
    under the pools' trained global contexts.

    Returns the (state_dim, 1) document embedding, the word attention of
    each sentence and the sentence attention.
    """
    sents, word_attn = [], []
    for sent in tokens:
        states = bigru_scan(nd.concat(sent, axis=1), len(sent), p.word_gru)
        pooled, alpha = attentive_pool_steps(states, len(sent), p.word_pool.w, p.word_pool.u)
        sents.append(pooled)
        word_attn.append(alpha.data.reshape(-1))
    states = bigru_scan(nd.concat(sents, axis=1), len(sents), p.sent_gru)
    d, alpha = attentive_pool_steps(states, len(sents), p.sent_pool.w, p.sent_pool.u)
    return d, word_attn, alpha.data.reshape(-1)
