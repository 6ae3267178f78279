"""Composite reference implementations of the fused encoder ops.

Each recurrence step is one ``enc.gru_step`` and each pooled position a
handful of elementwise tape ops, so every gradient comes from the generic
per-op backward rules. ``bigru_scan`` and ``attentive_pool_steps`` (keys,
scores, masked softmax and weighted sum in one op) must agree with these on
values and gradients.

``step_major_scan`` is the fused scan as it ran on step-major buffers, with
strided per-step slices; ``enc.bigru_scan``, which lays its buffers out by
loop iteration, must reproduce it bit for bit.
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


def step_major_forward(x, steps, p, mask, out, keep):
    """The scan's forward as it ran on step-major buffers: the gate
    activations of both directions as one (2, 3H, T*B) array whose step t
    owns columns t*B .. t*B+B-1, written into and read from by strided
    per-step slices. ``enc.bigru_scan`` must match it bit for bit."""
    hid = p.hidden_dim
    batch = x.shape[1] // steps
    acts = np.matmul(p.w.data, x)
    acts += p.b.data
    u_zr, u_h = p.u.data[:, :2 * hid], p.u.data[:, 2 * hid:]
    if mask is not None:
        masks = np.stack([mask, mask[::-1]], axis=1)[:, :, None, :]
    (zr_f, c_f), (zr_b, c_b) = [(a[:2 * hid].reshape(2 * hid, steps, batch),
                                 a[2 * hid:].reshape(hid, steps, batch)) for a in acts]
    h_f, h_b = out[:hid].reshape(hid, steps, batch), out[hid:].reshape(hid, steps, batch)
    h = np.zeros((2, hid, batch))
    for i in range(steps):
        j = steps - 1 - i
        zr = np.matmul(u_zr, h)
        zr[0] += zr_f[:, i]
        zr[1] += zr_b[:, j]
        nd.logistic(zr, out=zr)
        z = zr[:, :hid]
        cand = np.matmul(u_h, zr[:, hid:] * h)
        cand[0] += c_f[:, i]
        cand[1] += c_b[:, j]
        np.tanh(cand, out=cand)
        if keep:
            zr_f[:, i], zr_b[:, j] = zr
            c_f[:, i], c_b[:, j] = cand
        if mask is not None:
            z *= masks[i]
        cand -= h
        cand *= z
        cand += h
        h = cand
        h_f[:, i], h_b[:, j] = h
    return acts if keep else None


def step_major_backward(xd, steps, p, d, mask, states, acts, d_states, dw, du, db):
    """BPTT of direction ``d`` over the step-major buffers of
    ``step_major_forward``: writes that direction's gradients of w, u and b
    into ``dw``, ``du`` and ``db``, returns the input gradient (D, T*B)."""
    hid = p.hidden_dim
    batch = xd.shape[1] // steps
    h_prev = np.zeros_like(states)
    if d:
        h_prev[:, :-batch] = states[:, batch:]
    else:
        h_prev[:, batch:] = states[:, :-batch]
    u_zr, u_h = p.u.data[d, :2 * hid], p.u.data[d, 2 * hid:]
    d_pre = np.empty_like(acts)
    dh = np.zeros((hid, batch))
    for t in (range(steps) if d else range(steps - 1, -1, -1)):
        cols = slice(t * batch, (t + 1) * batch)
        a = acts[:, cols]
        z, r, cand = a[:hid], a[hid:2 * hid], a[2 * hid:]
        hp = h_prev[:, cols]
        d_out = d_states[:, cols] + dh
        if mask is not None:
            m = mask[t]
            d_new = d_out * m
            dh = d_out * (1.0 - m) + d_new * (1.0 - z)
        else:
            d_new = d_out
            dh = d_new * (1.0 - z)
        d_cand = d_new * z * (1.0 - cand * cand)
        d_rh = u_h.T @ d_cand
        dh += d_rh * r
        dp = d_pre[:, cols]
        dp[:hid] = d_new * (cand - hp) * z * (1.0 - z)
        dp[hid:2 * hid] = d_rh * hp * r * (1.0 - r)
        dp[2 * hid:] = d_cand
        dh += u_zr.T @ dp[:2 * hid]
    np.matmul(d_pre, xd.T, out=dw)
    np.matmul(d_pre[:2 * hid], h_prev.T, out=du[:2 * hid])
    h_prev *= acts[hid:2 * hid]
    np.matmul(d_pre[2 * hid:], h_prev.T, out=du[2 * hid:])
    d_pre.sum(axis=1, keepdims=True, out=db)
    return p.w.data[d].T @ d_pre


def step_major_scan(x, steps, p, mask, d_states):
    """States of the step-major scan over the (D, T*B) array ``x``, and the
    gradients of x, w, u and b under the cotangent ``d_states`` (2H, T*B)."""
    hid = p.hidden_dim
    states = np.empty((2 * hid, x.shape[1]))
    acts = step_major_forward(x, steps, p, mask, states, True)
    grads = [np.empty_like(t.data) for t in (p.w, p.u, p.b)]
    dx = np.zeros_like(x)
    for d in range(2):
        dx += step_major_backward(x, steps, p, d, mask, states[d * hid:(d + 1) * hid], acts[d],
                                  d_states[d * hid:(d + 1) * hid], *(g[d] for g in grads))
    return states, dx, *grads
