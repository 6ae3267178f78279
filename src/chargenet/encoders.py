"""Recurrent sequence encoders: GRU cell, bidirectional GRU, attentive pooling,
and the two-level (word -> sentence) document encoder.

A Bi-GRU (``BiGruParams``) holds both directions in three tensors with a
leading direction axis, forward first: W (2, 3H, D), U (2, 3H, H) and
b (2, 3H, 1). Within a direction the three gates are stacked by rows in the
order update (z), reset (r), candidate (h).

A sequence of T steps over a batch of B columns is held stacked too: one
(dim, T*B) tensor whose columns are step-major (step t owns columns
t*B .. t*B+B-1). Two fused ops work on that layout, each recording a single
backward closure per call:

* ``bigru_scan`` hoists the input projections of every gate of both
  directions into one stacked W (2, 3H, D) x (D, T*B) product, then runs
  both recurrences in one plain numpy loop: iteration i advances the
  forward direction at step i and the backward one at step T-1-i. The two
  states are one (2, H, B) array, so each recurrent product (the z and r rows
  of U, then the candidate rows) is one stacked matmul over both directions.
  It back-propagates through time by hand, one direction at a time, the
  weight and input gradients again as single products over the T*B columns.
* ``attentive_pool_steps`` scores every state, takes the masked softmax over
  the steps of each column and the weighted sum in one pass. Its context is
  either one (s,) vector shared by all B sequences (a trained global context,
  or one case's fact-driven context) or an (s, B) matrix whose column j is
  the context of sequence j, so that sequences of different cases pool in
  one call.

An optional (T, B) 0/1 mask makes right-padded sequences encode exactly like
their unpadded counterparts: masked steps pass the previous state through and
get no attention. ``encode_documents`` runs the two-level document encoder;
``scan_words`` and ``pool_words`` split its word level so that documents
pooled under different contexts can share one scan, and ``encode_groups``
runs a level over variable-length sequences laid out one after another.
Every pooling level takes its context from the caller, explicitly: a pool's
trained global ``u`` or a context generated per case; there is no default.
``gru_step`` is the composite single-step reference of one direction, reading
its rows and then each gate as slices of the stacked tensors; ``bigru_encode``
and ``attentive_pool`` take per-position lists of 1-D vectors or (dim, B)
columns and run the fused ops underneath.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import ndtensor as nd
from .ndtensor import DomainError, ShapeError, Tensor


@dataclass
class BiGruParams(nd.ParamGroup):
    """Weights of a forward and a backward GRU, stacked on a leading
    direction axis (0 forward, 1 backward). Each direction's three gates are
    stacked by rows in the order update (z), reset (r), candidate (h):
    ``w`` (2, 3H, D) acts on the input, ``u`` (2, 3H, H) on the previous
    state, ``b`` is (2, 3H, 1)."""

    w: Tensor
    u: Tensor
    b: Tensor

    @property
    def input_dim(self) -> int:
        return self.w.shape[2]

    @property
    def hidden_dim(self) -> int:
        return self.u.shape[2]

    @property
    def state_dim(self) -> int:
        return 2 * self.hidden_dim

    @classmethod
    def create(cls, input_dim: int, hidden_dim: int, rng: np.random.Generator,
               prefix: str = "bigru") -> "BiGruParams":
        # Each gate block takes the Glorot limit of its own (H, D) or (H, H)
        # shape, drawn direction by direction in the order w_z, u_z, w_r, u_r,
        # w_h, u_h.
        blocks = [nd.parameter(shape, rng).data for _ in range(6)
                  for shape in [(hidden_dim, input_dim), (hidden_dim, hidden_dim)]]
        return cls(Tensor(np.reshape(blocks[0::2], (2, 3 * hidden_dim, input_dim)),
                          name=f"{prefix}.w"),
                   Tensor(np.reshape(blocks[1::2], (2, 3 * hidden_dim, hidden_dim)),
                          name=f"{prefix}.u"),
                   nd.zeros((2, 3 * hidden_dim, 1), name=f"{prefix}.b"))


@dataclass
class AttentivePoolParams(nd.ParamGroup):
    """Score projection plus, for globally-contexted pools, the trained context vector."""

    w: Tensor
    u: Tensor | None = None

    @classmethod
    def create(cls, state_dim: int, rng: np.random.Generator, prefix: str = "pool",
               global_context: bool = True) -> "AttentivePoolParams":
        w = nd.parameter((state_dim, state_dim), rng, name=f"{prefix}.w")
        u = nd.parameter((state_dim, 1), rng, name=f"{prefix}.u") if global_context else None
        return cls(w, u)


@dataclass
class DocEncoderParams(nd.ParamGroup):
    """Word-level and sentence-level encoder/pool pairs."""

    word_gru: BiGruParams
    word_pool: AttentivePoolParams
    sent_gru: BiGruParams
    sent_pool: AttentivePoolParams

    def __post_init__(self):
        if self.sent_gru.input_dim != self.word_gru.state_dim:
            raise ShapeError("sentence-level input dim must equal word-level state dim")

    @classmethod
    def create(cls, input_dim: int, hidden_dim: int, rng: np.random.Generator,
               prefix: str = "doc", global_context: bool = True) -> "DocEncoderParams":
        word_gru = BiGruParams.create(input_dim, hidden_dim, rng, f"{prefix}.word")
        word_pool = AttentivePoolParams.create(2 * hidden_dim, rng, f"{prefix}.word_pool",
                                               global_context)
        sent_gru = BiGruParams.create(2 * hidden_dim, hidden_dim, rng, f"{prefix}.sent")
        sent_pool = AttentivePoolParams.create(2 * hidden_dim, rng, f"{prefix}.sent_pool",
                                               global_context)
        return cls(word_gru, word_pool, sent_gru, sent_pool)


def _as_column(x: Tensor) -> tuple[Tensor, bool]:
    if x.data.ndim == 1:
        return nd.reshape(x, (x.shape[0], 1)), True
    return x, False


def gru_step(x: Tensor, h_prev: Tensor, p: BiGruParams, direction: int) -> Tensor:
    """One gated update of direction ``direction`` (0 forward, 1 backward):
    z and r gates, candidate state, convex mix with h_prev."""
    x, squeeze = _as_column(x)
    h_prev, _ = _as_column(h_prev)
    if x.shape[0] != p.input_dim or h_prev.shape[0] != p.hidden_dim:
        raise ShapeError(
            f"gru_step got x {x.shape}, h {h_prev.shape}; "
            f"expected ({p.input_dim}, B), ({p.hidden_dim}, B)")
    if x.shape[1] != h_prev.shape[1]:
        raise ShapeError(f"batch sizes differ: x {x.shape} vs h {h_prev.shape}")
    hid = p.hidden_dim

    def gates(t):
        rows = nd.reshape(nd.narrow(t, 0, direction, 1), t.shape[1:])
        return [nd.narrow(rows, 0, k * hid, hid) for k in range(3)]

    (w_z, w_r, w_h), (u_z, u_r, u_h), (b_z, b_r, b_h) = gates(p.w), gates(p.u), gates(p.b)
    z = nd.sigmoid(w_z @ x + u_z @ h_prev + b_z)
    r = nd.sigmoid(w_r @ x + u_r @ h_prev + b_r)
    cand = nd.tanh(w_h @ x + u_h @ (r * h_prev) + b_h)
    h = (1.0 - z) * h_prev + z * cand
    return nd.reshape(h, (hid,)) if squeeze else h


def _step_batch(x: Tensor, steps: int, mask: np.ndarray | None) -> int:
    """Columns per step of a step-major stacked tensor; checks the mask shape."""
    if steps < 1:
        raise DomainError("a sequence needs at least one step")
    if x.data.ndim != 2 or x.shape[1] % steps:
        raise ShapeError(f"{x.shape} is not {steps} steps of stacked columns")
    batch = x.shape[1] // steps
    if mask is not None and mask.shape != (steps, batch):
        raise ShapeError(f"mask {mask.shape} does not match ({steps}, {batch})")
    return batch


def _bigru_forward(x: np.ndarray, steps: int, p: BiGruParams, mask: np.ndarray | None,
                   out: np.ndarray, keep: bool) -> np.ndarray | None:
    """Both directions' recurrences in one loop, writing the states into
    ``out`` (2H, T*B), forward half on top.

    Iteration i advances the forward direction at step i and the backward one
    at step T-1-i; the two states are one (2, H, B) array, so each recurrent
    product is one stacked matmul. A masked step gets z = 0 and so keeps its
    state exactly. Returns the unmasked gate activations [z; r; candidate]
    of both directions as (2, 3H, T*B) when ``keep`` is set (backward needs
    them), else None.
    """
    hid = p.hidden_dim
    batch = x.shape[1] // steps
    acts = np.matmul(p.w.data, x)
    acts += p.b.data
    u_zr, u_h = p.u.data[:, :2 * hid], p.u.data[:, 2 * hid:]
    if mask is not None:
        masks = np.stack([mask, mask[::-1]], axis=1)[:, :, None, :]
    # (rows, T, B) views of the gate rows and of the states: [:, t] is step t.
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


def _gru_backward(xd: np.ndarray, steps: int, p: BiGruParams, d: int,
                  mask: np.ndarray | None, states: np.ndarray, acts: np.ndarray,
                  d_states: np.ndarray, dw: np.ndarray, du: np.ndarray,
                  db: np.ndarray) -> np.ndarray:
    """Hand-written BPTT for direction ``d`` (1 runs from the last step).
    Writes that direction's gradients of w, u and b into ``dw``, ``du`` and
    ``db`` and returns the gradient of the stacked input (D, T*B)."""
    hid = p.hidden_dim
    batch = xd.shape[1] // steps
    # The state each step started from: the neighbouring step's output, zeros at the edge.
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
    np.matmul(d_pre[2 * hid:], (acts[hid:2 * hid] * h_prev).T, out=du[2 * hid:])
    d_pre.sum(axis=1, keepdims=True, out=db)
    return p.w.data[d].T @ d_pre


def bigru_scan(x: Tensor, steps: int, p: BiGruParams,
               mask: np.ndarray | None = None) -> Tensor:
    """Fused bidirectional GRU over ``steps`` positions stacked step-major as
    the columns of ``x`` (D, steps*B).

    Returns the (2H, steps*B) states, forward half on top, in the same column
    layout. One stacked product projects the inputs of both directions; both
    recurrences then run in one loop of ``steps`` iterations, the forward one
    from the first step and the backward one from the last. ``mask`` is a
    (steps, B) 0/1 array; masked steps keep the prior state exactly. One tape
    step covers both directions.
    """
    batch = _step_batch(x, steps, mask)
    if x.shape[0] != p.input_dim:
        raise ShapeError(f"bigru_scan got {x.shape[0]}-dim inputs, expected {p.input_dim}")
    hid = p.hidden_dim
    keep = nd.recording()
    data = np.empty((2 * hid, steps * batch))
    acts = _bigru_forward(x.data, steps, p, mask, data, keep)
    out = Tensor(data)

    def back():
        if out.grad is None:
            return
        states, d_states = data.reshape(2, hid, -1), out.grad.reshape(2, hid, -1)
        # Each direction writes its rows of the stacked weight gradients and
        # hands its input gradient over at once, so that only one direction's
        # temporaries are alive at a time: holding both, then stacking,
        # measured slower.
        grads = [np.empty_like(t.data) for t in (p.w, p.u, p.b)]
        for d in range(2):
            nd.accumulate(x, _gru_backward(x.data, steps, p, d, mask, states[d], acts[d],
                                           d_states[d], *(g[d] for g in grads)))
        for t, g in zip((p.w, p.u, p.b), grads):
            nd.accumulate(t, g)

    if keep:
        nd.record(back)
    return out


def attentive_pool_steps(states: Tensor, steps: int, w: Tensor, u: Tensor,
                         mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Vectorised attentive pooling of step-major stacked states (s, steps*B).

    Scores tanh(W h)^T u, takes the softmax over the steps of each column
    (masked steps get exactly 0) and returns the (s, B) weighted sums with
    the (steps, B) attention. The context ``u`` holds s values shared by all
    B sequences, or is (s, B): column j is the context of sequence j. One
    tape step.
    """
    batch = _step_batch(states, steps, mask)
    dim = states.shape[0]
    shared = u.size == dim
    if w.shape != (dim, dim) or not (shared or u.shape == (dim, batch)):
        raise ShapeError(f"attention weights {w.shape}, context {u.shape} do not fit "
                         f"{batch} sequences of {dim}-dim states")
    u_cols = u.data.reshape(dim, 1, -1)
    keys = w.data @ states.data
    np.tanh(keys, out=keys)
    keys3 = keys.reshape(dim, steps, batch)
    if shared:
        scores = (u_cols[:, 0].T @ keys).reshape(steps, batch)
    else:
        scores = np.einsum("dtb,db->tb", keys3, u.data)
    if mask is None:
        e = np.exp(scores - scores.max(axis=0))
    else:
        if (mask.sum(axis=0) == 0).any():
            raise DomainError("attentive_pool over a fully masked sequence")
        top = np.where(mask > 0, scores, -np.inf).max(axis=0)
        e = np.exp(np.where(mask > 0, scores - top, 0.0)) * mask
    alpha = Tensor(e / e.sum(axis=0))
    cube = states.data.reshape(dim, steps, batch)
    pooled = Tensor((cube * alpha.data).sum(axis=1))

    def back():
        if pooled.grad is None and alpha.grad is None:
            return
        a = alpha.data
        d_alpha = np.zeros_like(a) if alpha.grad is None else alpha.grad.copy()
        d_states = np.zeros_like(cube)
        if pooled.grad is not None:
            g = pooled.grad[:, None, :]
            d_alpha += (cube * g).sum(axis=0)
            d_states += g * a
        d_scores = a * (d_alpha - (a * d_alpha).sum(axis=0))
        d_pre = (u_cols * d_scores * (1.0 - keys3 * keys3)).reshape(dim, -1)
        nd.accumulate(w, d_pre @ states.data.T)
        if shared:
            nd.accumulate(u, (keys @ d_scores.reshape(-1, 1)).reshape(u.shape))
        else:
            nd.accumulate(u, np.einsum("dtb,tb->db", keys3, d_scores))
        d_flat = d_states.reshape(dim, -1)
        d_flat += w.data.T @ d_pre
        nd.accumulate(states, d_flat)

    nd.record(back)
    return pooled, alpha


def _stack(seq: Sequence[Tensor]) -> tuple[Tensor, bool]:
    """Step-major stacking of per-position columns (or 1-D vectors)."""
    squeeze = seq[0].data.ndim == 1
    cols = [_as_column(x)[0] for x in seq]
    return (cols[0] if len(cols) == 1 else nd.concat(cols, axis=1)), squeeze


def bigru_encode(seq: Sequence[Tensor], p: BiGruParams) -> list[Tensor]:
    """Concatenation of forward and backward GRU states at every position."""
    if not seq:
        raise DomainError("bigru_encode of empty sequence")
    x, squeeze = _stack(seq)
    batch = x.shape[1] // len(seq)
    states = bigru_scan(x, len(seq), p)
    out = [nd.narrow(states, 1, t * batch, batch) for t in range(len(seq))]
    if squeeze:
        out = [nd.reshape(h, (p.state_dim,)) for h in out]
    return out


def attentive_pool(states: Sequence[Tensor], w: Tensor, u: Tensor,
                   mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Score each state by tanh(W h)^T u, softmax over positions, return the
    attention-weighted sum and the attention distribution itself.

    ``u`` is either a trained global context vector or one generated per case.
    """
    if not states:
        raise DomainError("attentive_pool of empty state sequence")
    x, squeeze = _stack(states)
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64).reshape(len(states), -1)
    pooled, alpha = attentive_pool_steps(x, len(states), w, u, mask)
    if squeeze:
        pooled = nd.reshape(pooled, (x.shape[0],))
        alpha = nd.reshape(alpha, (len(states),))
    return pooled, alpha


def _step_mask(lengths: list[int], steps: int) -> np.ndarray | None:
    """(steps, B) 0/1 mask of right-padded sequences; None when nothing is padded."""
    if min(lengths) == steps:
        return None
    return (np.arange(steps)[:, None] < np.asarray(lengths)[None, :]).astype(np.float64)


def _encode_level(x: Tensor, steps: int, lengths: list[int], gru: BiGruParams,
                  pool: AttentivePoolParams, u: Tensor) -> tuple[Tensor, Tensor]:
    """One Bi-GRU + attentive pool over a padded, step-major stacked batch."""
    mask = _step_mask(lengths, steps)
    return attentive_pool_steps(bigru_scan(x, steps, gru, mask), steps, pool.w, u, mask)


def embed_words(sents: Sequence[tuple[np.ndarray, np.ndarray]],
                embed_tokens: Callable[[np.ndarray, np.ndarray], Tensor],
                ) -> tuple[Tensor, list[int]]:
    """Input columns of sentences as one right-padded, step-major batch.

    Each sentence is a pair of id arrays (word ids, pos ids). ``embed_tokens``
    turns id arrays into input columns; it is called once, with the ids of
    every word position laid out step-major and padded with id 0. Returns the
    (input_dim, max_len * n_sentences) columns and the sentence lengths.
    """
    if not sents:
        raise DomainError("no sentences to encode")
    lens = [len(wids) for wids, _ in sents]
    if min(lens) == 0:
        raise DomainError("sentence with no tokens")
    steps = max(lens)
    wid = np.zeros((steps, len(sents)), dtype=np.intp)
    pid = np.zeros((steps, len(sents)), dtype=np.intp)
    for j, (wids, pids) in enumerate(sents):
        wid[:len(wids), j] = wids
        pid[:len(pids), j] = pids
    return embed_tokens(wid.reshape(-1), pid.reshape(-1)), lens


def scan_words(sents: Sequence[tuple[np.ndarray, np.ndarray]], gru: BiGruParams,
               embed_tokens: Callable[[np.ndarray, np.ndarray], Tensor],
               ) -> tuple[Tensor, np.ndarray]:
    """Word-level Bi-GRU states of sentences (embedded by ``embed_words``),
    to be pooled later by ``pool_words``: the step-major
    (2H, max_len * n_sentences) states and the sentence lengths."""
    x, lens = embed_words(sents, embed_tokens)
    steps = max(lens)
    return bigru_scan(x, steps, gru, _step_mask(lens, steps)), np.asarray(lens)


def pool_words(states: Tensor, lens: np.ndarray, sel: np.ndarray,
               pool: AttentivePoolParams, u: Tensor) -> Tensor:
    """Attentive pool of the sentences ``sel`` (indices, in order) out of
    ``scan_words`` states into one (2H,) column each, under context ``u``.

    The steps are cut to the longest picked sentence.
    """
    picked = lens[sel]
    steps = int(picked.max())
    cols = np.arange(steps)[:, None] * len(lens) + sel
    pooled, _ = attentive_pool_steps(nd.take_cols(states, cols.reshape(-1)), steps, pool.w,
                                     u, _step_mask(picked, steps))
    return pooled


def encode_groups(x: Tensor, lens: Sequence[int], gru: BiGruParams,
                  pool: AttentivePoolParams, u: Tensor) -> tuple[Tensor, Tensor]:
    """Bi-GRU and attentive pool of sequences whose steps own consecutive
    columns of ``x``, ``lens[d]`` for sequence d.

    Returns the (state_dim, n_sequences) pooled columns and the
    (max len, n_sequences) attention, 0 past each sequence's end. ``u`` is a
    context as ``attentive_pool_steps`` takes it, one column per sequence or
    shared.
    """
    steps = max(lens)
    if len(lens) > 1:
        # Padded steps repeat a sequence's last column; the mask hides them.
        first = np.cumsum([0, *lens[:-1]])
        idx = first[None, :] + np.minimum(np.arange(steps)[:, None],
                                          np.asarray(lens)[None, :] - 1)
        x = nd.take_cols(x, idx.reshape(-1))
    return _encode_level(x, steps, list(lens), gru, pool, u)


def encode_documents(docs: Sequence[Sequence[tuple[np.ndarray, np.ndarray]]],
                     p: DocEncoderParams,
                     embed_tokens: Callable[[np.ndarray, np.ndarray], Tensor],
                     u_word: Tensor, u_sent: Tensor,
                     ) -> tuple[Tensor, list[list[np.ndarray]], list[np.ndarray]]:
    """Encode several documents in one padded batch, pooling words under
    context ``u_word`` and sentences under ``u_sent``.

    Each document is a list of sentences; each sentence a pair of id arrays
    (word ids, pos ids), embedded as ``embed_words`` describes. Returns the
    document embeddings as columns of a single (state_dim, n_docs) tensor
    plus per-sentence word attention and per-document sentence attention as
    plain arrays.
    """
    if not docs:
        raise DomainError("encode_documents of empty document list")
    if any(not doc for doc in docs):
        raise DomainError("document with no sentences")

    x, word_lens = embed_words([sent for doc in docs for sent in doc], embed_tokens)
    sent_emb, word_alpha = _encode_level(x, max(word_lens), word_lens, p.word_gru,
                                         p.word_pool, u_word)
    sent_lens = [len(doc) for doc in docs]
    d_emb, sent_alpha = encode_groups(sent_emb, sent_lens, p.sent_gru, p.sent_pool, u_sent)

    word_attn, sent_attn, j = [], [], 0
    for d, n in enumerate(sent_lens):
        word_attn.append([word_alpha.data[:word_lens[j + s], j + s] for s in range(n)])
        sent_attn.append(sent_alpha.data[:n, d])
        j += n
    return d_emb, word_attn, sent_attn
