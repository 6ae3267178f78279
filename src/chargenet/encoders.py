"""Recurrent sequence encoders: GRU cell, bidirectional GRU, attentive pooling,
and the two-level (word -> sentence) document encoder.

A sequence of T steps over a batch of B columns is held stacked: one
(dim, T*B) tensor whose columns are step-major (step t owns columns
t*B .. t*B+B-1). Two fused ops work on that layout, each recording a single
backward closure per call:

* ``bigru_scan`` hoists the input projections of all three gates of a
  direction into one (3H, D) x (D, T*B) product, runs the recurrence in plain
  numpy (one ``[U_z; U_r] @ h`` and one ``U_h @ (r * h)`` per step), and
  back-propagates through time by hand, the weight and input gradients again
  as single products over the T*B columns.
* ``attentive_pool_steps`` scores every state, takes the masked softmax over
  the steps of each column and the weighted sum in one pass.

An optional (T, B) 0/1 mask makes right-padded sequences encode exactly like
their unpadded counterparts: masked steps pass the previous state through and
get no attention. ``encode_documents`` runs the two-level document encoder;
``scan_words`` and ``pool_words`` split its word level so that documents
pooled under different contexts can share one scan. ``gru_step`` is the
composite single-step reference; ``bigru_encode`` and ``attentive_pool``
take per-position lists of 1-D vectors or (dim, B) columns and run the fused
ops underneath.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import ndtensor as nd
from .ndtensor import DomainError, ShapeError, Tensor


@dataclass
class GruParams:
    """Gate weights for one GRU direction."""

    input_dim: int
    hidden_dim: int
    w_z: Tensor
    u_z: Tensor
    b_z: Tensor
    w_r: Tensor
    u_r: Tensor
    b_r: Tensor
    w_h: Tensor
    u_h: Tensor
    b_h: Tensor

    @classmethod
    def create(cls, input_dim: int, hidden_dim: int, rng: np.random.Generator,
               prefix: str = "gru") -> "GruParams":
        def w(tag):
            return nd.parameter((hidden_dim, input_dim), rng, name=f"{prefix}.{tag}")

        def u(tag):
            return nd.parameter((hidden_dim, hidden_dim), rng, name=f"{prefix}.{tag}")

        def b(tag):
            return nd.zeros((hidden_dim, 1), name=f"{prefix}.{tag}")

        return cls(input_dim, hidden_dim,
                   w("w_z"), u("u_z"), b("b_z"),
                   w("w_r"), u("u_r"), b("b_r"),
                   w("w_h"), u("u_h"), b("b_h"))

    def named(self):
        for tag in ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h"):
            yield getattr(self, tag).name or tag, getattr(self, tag)


@dataclass
class BiGruParams:
    """Independent forward and backward GRUs of equal hidden size."""

    forward: GruParams
    backward: GruParams

    def __post_init__(self):
        if self.forward.hidden_dim != self.backward.hidden_dim:
            raise ShapeError("forward/backward hidden sizes differ")

    @property
    def state_dim(self) -> int:
        return 2 * self.forward.hidden_dim

    @classmethod
    def create(cls, input_dim: int, hidden_dim: int, rng: np.random.Generator,
               prefix: str = "bigru") -> "BiGruParams":
        return cls(GruParams.create(input_dim, hidden_dim, rng, f"{prefix}.fwd"),
                   GruParams.create(input_dim, hidden_dim, rng, f"{prefix}.bwd"))

    def named(self):
        yield from self.forward.named()
        yield from self.backward.named()


@dataclass
class AttentivePoolParams:
    """Score projection plus, for globally-contexted pools, the trained context vector."""

    w: Tensor
    u: Tensor | None = None

    @classmethod
    def create(cls, state_dim: int, rng: np.random.Generator, prefix: str = "pool",
               global_context: bool = True) -> "AttentivePoolParams":
        w = nd.parameter((state_dim, state_dim), rng, name=f"{prefix}.w")
        u = nd.parameter((state_dim, 1), rng, name=f"{prefix}.u") if global_context else None
        return cls(w, u)

    def named(self):
        yield self.w.name or "w", self.w
        if self.u is not None:
            yield self.u.name or "u", self.u


@dataclass
class DocEncoderParams:
    """Word-level and sentence-level encoder/pool pairs."""

    word_gru: BiGruParams
    word_pool: AttentivePoolParams
    sent_gru: BiGruParams
    sent_pool: AttentivePoolParams

    def __post_init__(self):
        if self.sent_gru.forward.input_dim != self.word_gru.state_dim:
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

    def named(self):
        yield from self.word_gru.named()
        yield from self.word_pool.named()
        yield from self.sent_gru.named()
        yield from self.sent_pool.named()


def _as_column(x: Tensor) -> tuple[Tensor, bool]:
    if x.data.ndim == 1:
        return nd.reshape(x, (x.shape[0], 1)), True
    return x, False


def gru_step(x: Tensor, h_prev: Tensor, p: GruParams) -> Tensor:
    """One gated update: z and r gates, candidate state, convex mix with h_prev."""
    x, squeeze = _as_column(x)
    h_prev, _ = _as_column(h_prev)
    if x.shape[0] != p.input_dim or h_prev.shape[0] != p.hidden_dim:
        raise ShapeError(
            f"gru_step got x {x.shape}, h {h_prev.shape}; "
            f"expected ({p.input_dim}, B), ({p.hidden_dim}, B)")
    if x.shape[1] != h_prev.shape[1]:
        raise ShapeError(f"batch sizes differ: x {x.shape} vs h {h_prev.shape}")
    z = nd.sigmoid(p.w_z @ x + p.u_z @ h_prev + p.b_z)
    r = nd.sigmoid(p.w_r @ x + p.u_r @ h_prev + p.b_r)
    cand = nd.tanh(p.w_h @ x + p.u_h @ (r * h_prev) + p.b_h)
    h = (1.0 - z) * h_prev + z * cand
    return nd.reshape(h, (p.hidden_dim,)) if squeeze else h


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


def _gru_forward(xd: np.ndarray, steps: int, g: GruParams, mask: np.ndarray | None,
                 reverse: bool, out: np.ndarray, keep: bool) -> np.ndarray | None:
    """One direction's recurrence, writing the states into ``out`` (H, T*B).

    Returns the gate activations [z; r; candidate] as (3H, T*B) when ``keep``
    is set (backward needs them), else None.
    """
    hid = g.hidden_dim
    batch = xd.shape[1] // steps
    acts = np.empty((3 * hid, xd.shape[1]))
    for k, (w, b) in enumerate([(g.w_z, g.b_z), (g.w_r, g.b_r), (g.w_h, g.b_h)]):
        rows = acts[k * hid:(k + 1) * hid]
        np.matmul(w.data, xd, out=rows)
        rows += b.data
    u_zr = np.concatenate([g.u_z.data, g.u_r.data])
    u_h = g.u_h.data
    h = np.zeros((hid, batch))
    for t in (range(steps - 1, -1, -1) if reverse else range(steps)):
        cols = slice(t * batch, (t + 1) * batch)
        a = acts[:, cols]
        zr = u_zr @ h
        zr += a[:2 * hid]
        nd.logistic(zr, out=zr)
        z, r = zr[:hid], zr[hid:]
        cand = u_h @ (r * h)
        cand += a[2 * hid:]
        np.tanh(cand, out=cand)
        h_new = (1.0 - z) * h
        h_new += z * cand
        if mask is not None:
            m = mask[t]
            h_new = h_new * m + h * (1.0 - m)
        out[:, cols] = h_new
        if keep:
            a[:2 * hid] = zr
            a[2 * hid:] = cand
        h = h_new
    return acts if keep else None


def _gru_backward(xd: np.ndarray, steps: int, g: GruParams, mask: np.ndarray | None,
                  reverse: bool, states: np.ndarray, acts: np.ndarray,
                  d_states: np.ndarray) -> np.ndarray:
    """Hand-written BPTT for one direction; accumulates the weight gradients
    and returns the gradient of the stacked input (D, T*B)."""
    hid = g.hidden_dim
    batch = xd.shape[1] // steps
    # The state each step started from: the neighbouring step's output, zeros at the edge.
    h_prev = np.zeros_like(states)
    if reverse:
        h_prev[:, :-batch] = states[:, batch:]
    else:
        h_prev[:, batch:] = states[:, :-batch]
    u_zr = np.concatenate([g.u_z.data, g.u_r.data])
    u_h = g.u_h.data
    d_pre = np.empty_like(acts)
    dh = np.zeros((hid, batch))
    for t in (range(steps) if reverse else range(steps - 1, -1, -1)):
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
        d = d_pre[:, cols]
        d[:hid] = d_new * (cand - hp) * z * (1.0 - z)
        d[hid:2 * hid] = d_rh * hp * r * (1.0 - r)
        d[2 * hid:] = d_cand
        dh += u_zr.T @ d[:2 * hid]
    d_w = d_pre @ xd.T
    d_u_zr = d_pre[:2 * hid] @ h_prev.T
    d_u_h = d_pre[2 * hid:] @ (acts[hid:2 * hid] * h_prev).T
    d_b = d_pre.sum(axis=1, keepdims=True)
    for k, (w, u, b) in enumerate([(g.w_z, g.u_z, g.b_z), (g.w_r, g.u_r, g.b_r),
                                   (g.w_h, g.u_h, g.b_h)]):
        rows = slice(k * hid, (k + 1) * hid)
        nd.accumulate(w, d_w[rows])
        nd.accumulate(u, d_u_h if k == 2 else d_u_zr[rows])
        nd.accumulate(b, d_b[rows])
    w = np.concatenate([g.w_z.data, g.w_r.data, g.w_h.data])
    return w.T @ d_pre


def bigru_scan(x: Tensor, steps: int, p: BiGruParams,
               mask: np.ndarray | None = None) -> Tensor:
    """Fused bidirectional GRU over ``steps`` positions stacked step-major as
    the columns of ``x`` (D, steps*B).

    Returns the (2H, steps*B) states, forward half on top, in the same column
    layout. ``mask`` is a (steps, B) 0/1 array; masked steps keep the prior
    state. One tape step covers both directions.
    """
    batch = _step_batch(x, steps, mask)
    if x.shape[0] != p.forward.input_dim:
        raise ShapeError(f"bigru_scan got {x.shape[0]}-dim inputs, "
                         f"expected {p.forward.input_dim}")
    hid = p.forward.hidden_dim
    keep = nd.recording()
    data = np.empty((2 * hid, steps * batch))
    halves = [(p.forward, False, data[:hid]), (p.backward, True, data[hid:])]
    acts = [_gru_forward(x.data, steps, g, mask, rev, out, keep) for g, rev, out in halves]
    out = Tensor(data)

    def back():
        if out.grad is None:
            return
        for (g, rev, states), a, d_states in zip(halves, acts,
                                                 (out.grad[:hid], out.grad[hid:])):
            nd.accumulate(x, _gru_backward(x.data, steps, g, mask, rev, states, a, d_states))

    if keep:
        nd.record(back)
    return out


def attentive_pool_steps(states: Tensor, steps: int, w: Tensor, u: Tensor,
                         mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Vectorised attentive pooling of step-major stacked states (s, steps*B).

    Scores tanh(W h)^T u, takes the softmax over the steps of each column
    (masked steps get exactly 0) and returns the (s, B) weighted sums with
    the (steps, B) attention. One tape step.
    """
    batch = _step_batch(states, steps, mask)
    dim = states.shape[0]
    if w.shape != (dim, dim) or u.size != dim:
        raise ShapeError(f"attention weights {w.shape}, {u.shape} do not fit "
                         f"{dim}-dim states")
    u_col = u.data.reshape(dim, 1)
    keys = w.data @ states.data
    np.tanh(keys, out=keys)
    scores = (u_col.T @ keys).reshape(steps, batch)
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
        d_scores = (a * (d_alpha - (a * d_alpha).sum(axis=0))).reshape(1, -1)
        d_pre = u_col * d_scores * (1.0 - keys * keys)
        nd.accumulate(w, d_pre @ states.data.T)
        nd.accumulate(u, (keys @ d_scores.T).reshape(u.shape))
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


def _context(pool: AttentivePoolParams, u: Tensor | None) -> Tensor:
    context = u if u is not None else pool.u
    if context is None:
        raise DomainError("no context vector: pool has no global u and none was supplied")
    return context


def _encode_level(x: Tensor, steps: int, lengths: list[int], gru: BiGruParams,
                  pool: AttentivePoolParams, u: Tensor | None) -> tuple[Tensor, Tensor]:
    """One Bi-GRU + attentive pool over a padded, step-major stacked batch."""
    context = _context(pool, u)
    mask = _step_mask(lengths, steps)
    return attentive_pool_steps(bigru_scan(x, steps, gru, mask), steps, pool.w, context, mask)


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
               pool: AttentivePoolParams, u: Tensor | None) -> Tensor:
    """Attentive pool of the sentences ``sel`` (indices, in order) out of
    ``scan_words`` states into one (2H,) column each.

    The steps are cut to the longest picked sentence.
    """
    context = _context(pool, u)
    picked = lens[sel]
    steps = int(picked.max())
    cols = np.arange(steps)[:, None] * len(lens) + sel
    pooled, _ = attentive_pool_steps(nd.take_cols(states, cols.reshape(-1)), steps, pool.w,
                                     context, _step_mask(picked, steps))
    return pooled


def encode_sentence_level(sent_emb: Tensor, sent_lens: list[int], p: DocEncoderParams,
                          u_sent: Tensor | None) -> tuple[Tensor, Tensor]:
    """Sentence-level Bi-GRU and pool of documents whose sentences own
    consecutive columns of ``sent_emb``, ``sent_lens[d]`` for document d.

    Returns the (state_dim, n_docs) document embeddings and the
    (max sentences, n_docs) sentence attention.
    """
    max_sents = max(sent_lens)
    first = np.cumsum([0] + sent_lens[:-1])
    # Padded sentence slots repeat a document's last sentence; the mask hides them.
    idx = first[None, :] + np.minimum(np.arange(max_sents)[:, None],
                                      np.asarray(sent_lens)[None, :] - 1)
    return _encode_level(nd.take_cols(sent_emb, idx.reshape(-1)), max_sents, sent_lens,
                         p.sent_gru, p.sent_pool, u_sent)


def encode_documents(docs: Sequence[Sequence[tuple[np.ndarray, np.ndarray]]],
                     p: DocEncoderParams,
                     embed_tokens: Callable[[np.ndarray, np.ndarray], Tensor],
                     u_word: Tensor | None = None,
                     u_sent: Tensor | None = None,
                     ) -> tuple[Tensor, list[list[np.ndarray]], list[np.ndarray]]:
    """Encode several documents in one padded batch.

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
    d_emb, sent_alpha = encode_sentence_level(sent_emb, sent_lens, p, u_sent)

    word_attn, sent_attn, j = [], [], 0
    for d, n in enumerate(sent_lens):
        word_attn.append([word_alpha.data[:word_lens[j + s], j + s] for s in range(n)])
        sent_attn.append(sent_alpha.data[:n, d])
        j += n
    return d_emb, word_attn, sent_attn
