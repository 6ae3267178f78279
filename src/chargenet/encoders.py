"""Recurrent sequence encoders: GRU cell, bidirectional GRU, attentive pooling,
and the two-level (word -> sentence) document encoder.

A Bi-GRU (``BiGruParams``) holds both directions in three tensors with a
leading direction axis, forward first: W (2, 3H, D), U (2, 3H, H) and
b (2, 3H, 1). Within a direction the three gates are stacked by rows in the
order update (z), reset (r), candidate (h).

A sequence of T steps over a batch of B columns is held stacked too: one
(dim, T*B) tensor whose columns are step-major (step t owns columns
t*B .. t*B+B-1). Two ops work on that layout, each recording a single
backward closure per call:

* ``bigru_scan`` hoists the input projections of every gate into one
  W (3H, D) x (D, T*B) product per direction, then runs both recurrences in
  one plain numpy loop: iteration i advances the forward direction at step
  i and the backward one at step T-1-i. Inside, the pre-activations are
  laid out by iteration, not by step, so that each iteration's z and r rows
  and its candidate rows of both directions are contiguous blocks: a
  step-major column block is a strided view, and numpy runs an elementwise
  op on one about three times slower. The two states are one (2, H, B)
  array, so each recurrent product (the z and r rows of U, then the
  candidate rows) is one stacked matmul over both directions. It
  back-propagates through time by hand, one direction at a time, over the
  same blocks; the weight and input gradients are single products over the
  step-major T*B columns. Layouts change only at the op's boundary, and the
  step-major loop it replaced is kept with the tests as its reference.
* ``attentive_pool_steps`` is the attentive pool: it computes the keys
  tanh(W h) of every state in one product, scores them under a context,
  takes the masked softmax over the steps of each column and the weighted
  sum. Its context is either one (s,) vector shared by all B sequences (a
  trained global context, or one case's fact-driven context) or an (s, B)
  matrix whose column j is the context of sequence j, so that sequences of
  different cases pool in one call.

An optional (T, B) 0/1 mask makes right-padded sequences encode exactly
like their unpadded counterparts: masked steps pass the previous state
through and get no attention. ``scan_words`` embeds and scans sentences as
one padded batch; ``encode_documents`` runs the two-level document encoder
on top of it; ``encode_groups`` runs a level over variable-length sequences
laid out one after another.

The article word level pools one scan under many contexts, each over a few
of its sentences, so it holds the scan as rows: ``keyed_rows`` copies the
``scan_words`` states into (T*B, s) rows and keys every row once, so that a
sentence's state at one step is one contiguous row. Each ``pool_words``
call then scores every key under its context in one product, picks its
sentences' scores and gathers only their state rows; its backward adds into
the gradients of those rows. The key step turns the summed key and row
gradients of every pool into W's and the states' gradients once.

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
    def create(cls, input_dim: int, hidden_dim: int, rng: np.random.Generator | None,
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
    def create(cls, state_dim: int, rng: np.random.Generator | None, prefix: str = "pool",
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
    def create(cls, input_dim: int, hidden_dim: int, rng: np.random.Generator | None,
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


def _step_batch(x: np.ndarray, steps: int, mask: np.ndarray | None) -> int:
    """Columns per step of a step-major stacked array; checks the mask shape."""
    if steps < 1:
        raise DomainError("a sequence needs at least one step")
    if x.ndim != 2 or x.shape[1] % steps:
        raise ShapeError(f"{x.shape} is not {steps} steps of stacked columns")
    batch = x.shape[1] // steps
    if mask is not None and mask.shape != (steps, batch):
        raise ShapeError(f"mask {mask.shape} does not match ({steps}, {batch})")
    return batch


def _by_iteration(a: np.ndarray, steps: int, d: int) -> np.ndarray:
    """(steps, rows, B) view of the step-major (rows, steps*B) ``a``, indexed
    by the loop iteration that handles each step in direction ``d``: step i
    for the forward direction, step steps-1-i for the backward one."""
    v = a.reshape(a.shape[0], steps, -1).transpose(1, 0, 2)
    return v[::-1] if d else v


def _bigru_forward(x: np.ndarray, steps: int, p: BiGruParams, mask: np.ndarray | None,
                   keep: bool) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """Both directions' recurrences in one loop. Returns the (2H, T*B)
    states, forward half on top, and, when ``keep`` is set, the gate
    activations backward needs.

    The gate pre-activations live in two buffers indexed by iteration, the
    z and r rows in one (T, 2, 2H, B) and the candidate rows in one
    (T, 2, H, B): iteration i advances the forward direction at step i and
    the backward one at step T-1-i, so every operand of an iteration is one
    contiguous block. The two states are one (2, H, B) array, so each
    recurrent product is one stacked matmul. z, r and the candidate
    overwrite their pre-activations in place, and the two buffers, then
    holding the unmasked activations, are what ``keep`` returns. A masked
    step gets z = 0 and so keeps its state exactly; the mask is applied only
    on iterations that hold a padded step. With no ``keep`` each step's
    state is stored in its spent candidate rows, and the z and r buffer is
    freed before the output is allocated.
    """
    hid = p.hidden_dim
    batch = x.shape[1] // steps
    gates = np.empty((steps, 2, 2 * hid, batch))
    cands = np.empty((steps, 2, hid, batch))
    # One direction's projection at a time, so only half a buffer is extra.
    for d in range(2):
        proj = _by_iteration(p.w.data[d] @ x, steps, d)
        np.add(proj[:, :2 * hid], p.b.data[d, :2 * hid], out=gates[:, d])
        np.add(proj[:, 2 * hid:], p.b.data[d, 2 * hid:], out=cands[:, d])
        del proj  # before the next direction's product is allocated
    u_zr, u_h = p.u.data[:, :2 * hid], p.u.data[:, 2 * hid:]
    padded = np.zeros(steps, dtype=bool)
    if mask is not None:
        masks = np.stack([mask, mask[::-1]], axis=1)[:, :, None, :]
        padded = (masks == 0).any(axis=(1, 2, 3))
    states = np.empty_like(cands) if keep else cands
    h = np.zeros((2, hid, batch))
    for i, pad in enumerate(padded.tolist()):
        zr, cand = gates[i], cands[i]
        zr += np.matmul(u_zr, h)
        nd.logistic(zr, out=zr)
        cand += np.matmul(u_h, zr[:, hid:] * h)
        np.tanh(cand, out=cand)
        z = zr[:, :hid] * masks[i] if pad else zr[:, :hid]
        h_new = np.subtract(cand, h, out=states[i])
        h_new *= z
        h_new += h
        h = h_new
    kept = (gates, cands) if keep else None
    del gates
    out = np.empty((2 * hid, x.shape[1]))
    for d in range(2):
        _by_iteration(out[d * hid:(d + 1) * hid], steps, d)[...] = states[:, d]
    return out, kept


def _gru_backward(xd: np.ndarray, steps: int, p: BiGruParams, d: int,
                  mask: np.ndarray | None, states: np.ndarray, gates: np.ndarray,
                  cands: np.ndarray, d_states: np.ndarray, dw: np.ndarray, du: np.ndarray,
                  db: np.ndarray) -> np.ndarray:
    """Hand-written BPTT for direction ``d`` (1 runs from the last step) over
    its iteration-major gate activations, ``gates`` (T, 2H, B) and ``cands``
    (T, H, B); ``states`` and ``d_states`` are its step-major (H, T*B) rows.
    Writes that direction's gradients of w, u and b into ``dw``, ``du`` and
    ``db`` and returns the gradient of the stacked input (D, T*B).

    Both directions run their iterations from the last, over contiguous
    per-step blocks. Each iteration's gate gradients overwrite its spent
    activations. The weight and input gradients are products over the
    step-major matrices, as the forward's input projection was.
    """
    hid = p.hidden_dim
    batch = xd.shape[1] // steps
    # The state each step started from: the neighbouring step's output, zeros at the edge.
    h_prev = np.zeros_like(states)
    if d:
        h_prev[:, :-batch] = states[:, batch:]
    else:
        h_prev[:, batch:] = states[:, :-batch]
    hp_steps = _by_iteration(h_prev, steps, d).copy()
    ds_steps = _by_iteration(d_states, steps, d)
    if mask is not None:
        mask = mask[::-1] if d else mask
    u_zr, u_h = p.u.data[d, :2 * hid], p.u.data[d, 2 * hid:]
    dh = np.zeros((hid, batch))
    for i in range(steps - 1, -1, -1):
        zr, cand = gates[i], cands[i]
        z, r = zr[:hid], zr[hid:]
        hp = hp_steps[i]
        d_out = ds_steps[i] + dh
        if mask is not None:
            m = mask[i]
            d_new = d_out * m
            dh = d_out * (1.0 - m) + d_new * (1.0 - z)
        else:
            d_new = d_out
            dh = d_new * (1.0 - z)
        d_cand = d_new * z * (1.0 - cand * cand)
        d_rh = u_h.T @ d_cand
        dh += d_rh * r
        d_z = d_new * (cand - hp) * z * (1.0 - z)
        d_r = d_rh * hp * r * (1.0 - r)
        hp *= r  # the candidate rows' operand
        z[...], r[...], cand[...] = d_z, d_r, d_cand
        dh += u_zr.T @ zr
    d_pre = np.empty((3 * hid, xd.shape[1]))
    _by_iteration(d_pre[:2 * hid], steps, d)[...] = gates
    _by_iteration(d_pre[2 * hid:], steps, d)[...] = cands
    np.matmul(d_pre, xd.T, out=dw)
    np.matmul(d_pre[:2 * hid], h_prev.T, out=du[:2 * hid])
    _by_iteration(h_prev, steps, d)[...] = hp_steps
    np.matmul(d_pre[2 * hid:], h_prev.T, out=du[2 * hid:])
    d_pre.sum(axis=1, keepdims=True, out=db)
    return p.w.data[d].T @ d_pre


def bigru_scan(x: Tensor, steps: int, p: BiGruParams,
               mask: np.ndarray | None = None) -> Tensor:
    """Fused bidirectional GRU over ``steps`` positions stacked step-major as
    the columns of ``x`` (D, steps*B).

    Returns the (2H, steps*B) states, forward half on top, in the same column
    layout. One product per direction projects its inputs; both recurrences
    then run in one loop of ``steps`` iterations, the forward one from the
    first step and the backward one from the last. ``mask`` is a
    (steps, B) 0/1 array; masked steps keep the prior state exactly. One tape
    step covers both directions.
    """
    _step_batch(x.data, steps, mask)
    if x.shape[0] != p.input_dim:
        raise ShapeError(f"bigru_scan got {x.shape[0]}-dim inputs, expected {p.input_dim}")
    hid = p.hidden_dim
    keep = nd.recording()
    data, kept = _bigru_forward(x.data, steps, p, mask, keep)
    out = Tensor(data)
    if not keep:
        return out
    gates, cands = kept

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
            nd.accumulate(x, _gru_backward(x.data, steps, p, d, mask, states[d], gates[:, d],
                                           cands[:, d], d_states[d], *(g[d] for g in grads)))
        for t, g in zip((p.w, p.u, p.b), grads):
            nd.accumulate(t, g)

    nd.record(back)
    return out


def _attention(scores: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Softmax over the steps (axis 0) of (steps, B) scores; masked steps
    get exactly 0."""
    if mask is None:
        e = np.exp(scores - scores.max(axis=0))
    else:
        if (mask.sum(axis=0) == 0).any():
            raise DomainError("attentive pool over a fully masked sequence")
        top = np.where(mask > 0, scores, -np.inf).max(axis=0)
        e = np.exp(np.where(mask > 0, scores - top, 0.0)) * mask
    return e / e.sum(axis=0)


def attentive_pool_steps(states: Tensor, steps: int, w: Tensor, u: Tensor,
                         mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Attentive pool of step-major stacked states (s, steps*B): keys
    tanh(W h) in one product, scores k^T u, the softmax over the steps of
    each column (masked steps get exactly 0), and the (s, B) weighted sums
    with the (steps, B) attention.

    The context ``u`` holds s values shared by all B sequences, or is (s, B):
    column j is the context of sequence j. One tape step.
    """
    batch = _step_batch(states.data, steps, mask)
    dim = states.shape[0]
    if w.shape != (dim, dim):
        raise ShapeError(f"attention weights {w.shape} do not fit {dim}-dim states")
    if not (u.size == dim or u.shape == (dim, batch)):
        raise ShapeError(f"context {u.shape} does not fit {batch} sequences of "
                         f"{dim}-dim states")
    keys = w.data @ states.data
    np.tanh(keys, out=keys)
    cube = states.data.reshape(dim, steps, batch)
    if u.size == dim:
        scores = (u.data.reshape(dim, 1).T @ keys).reshape(steps, batch)
    else:
        scores = np.einsum("dtb,db->tb", keys.reshape(cube.shape), u.data)
    a = _attention(scores, mask)
    alpha, pooled = Tensor(a), Tensor((cube * a).sum(axis=1))

    def back():
        if pooled.grad is None and alpha.grad is None:
            return
        g = (np.zeros((dim, 1, batch)) if pooled.grad is None
             else pooled.grad[:, None, :])
        d_alpha = (cube * g).sum(axis=0)
        if alpha.grad is not None:
            d_alpha += alpha.grad
        d_scores = a * (d_alpha - (a * d_alpha).sum(axis=0))
        if u.size == dim:
            nd.accumulate(u, (keys @ d_scores.reshape(-1, 1)).reshape(u.shape))
        else:
            nd.accumulate(u, np.einsum("dtb,tb->db", keys.reshape(cube.shape), d_scores))
        nd.accumulate(states, (g * a).reshape(dim, -1))
        d_pre = (u.data.reshape(dim, 1, -1) * d_scores).reshape(dim, -1)
        d_pre *= 1.0 - keys * keys
        nd.accumulate(w, d_pre @ states.data.T)
        nd.accumulate(states, w.data.T @ d_pre)

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


def _padded_index(lengths: Sequence[int], steps: int) -> np.ndarray:
    """Step-major indices that lay sequences stored one after another
    (``lengths[d]`` items for sequence d) out as ``steps`` steps of one
    column each. A padded step repeats its sequence's last item; the
    ``_step_mask`` of the lengths hides it."""
    last = np.cumsum(lengths) - 1
    return np.minimum(np.arange(steps)[:, None] + (last + 1 - np.asarray(lengths)),
                      last).reshape(-1)


def _step_mask(lengths: Sequence[int], steps: int) -> np.ndarray | None:
    """(steps, B) 0/1 mask of right-padded sequences; None when nothing is padded."""
    if min(lengths) == steps:
        return None
    return (np.arange(steps)[:, None] < np.asarray(lengths)[None, :]).astype(np.float64)


def scan_words(sents: Sequence[tuple[np.ndarray, np.ndarray]], gru: BiGruParams,
               embed_tokens: Callable[[np.ndarray, np.ndarray], Tensor],
               ) -> tuple[Tensor, np.ndarray]:
    """Word-level Bi-GRU states of sentences as one right-padded, step-major
    batch: the (2H, max_len * n_sentences) states and the sentence lengths.

    Each sentence is a pair of id arrays (word ids, pos ids). ``embed_tokens``
    turns id arrays into input columns; it is called once, with the ids of
    every word position laid out step-major. A sentence shorter than the
    longest is padded as ``encode_groups`` pads: its last word is repeated,
    and the mask keeps the scan's state and gradients from seeing the
    repeats, so no id is reserved for padding.
    """
    if not sents:
        raise DomainError("no sentences to encode")
    lens = np.array([len(wids) for wids, _ in sents])
    if lens.min() == 0:
        raise DomainError("sentence with no tokens")
    steps = int(lens.max())
    at = _padded_index(lens, steps)
    x = embed_tokens(np.concatenate([wids for wids, _ in sents])[at],
                     np.concatenate([pids for _, pids in sents])[at])
    return bigru_scan(x, steps, gru, _step_mask(lens, steps)), lens


def keyed_rows(states: Tensor, w: Tensor) -> tuple[Tensor, Tensor]:
    """The (n, s) rows of the step-major (s, n) ``states`` and their
    attention keys tanh(W h), also as rows, for ``pool_words`` to gather
    from: a sentence's state at one step is then one contiguous row. One
    copy, one product, one tape step."""
    dim = states.shape[0]
    if w.shape != (dim, dim):
        raise ShapeError(f"attention weights {w.shape} do not fit {dim}-dim states")
    rows = Tensor(states.data.T.copy())
    data = rows.data @ w.data.T
    np.tanh(data, out=data)
    keys = Tensor(data)

    def back():
        d_pre = keys.grad
        if d_pre is not None:
            # Every pool over these rows comes later on the tape, so all
            # their backwards have run: the buffer is scaled in place and
            # released now, not when the graph dies.
            d_pre *= 1.0 - data * data
            keys.grad = None
            nd.accumulate(w, d_pre.T @ rows.data)
            nd.accumulate(rows, d_pre @ w.data)
        if rows.grad is not None:
            nd.accumulate(states, rows.grad.T)
            rows.grad = None

    nd.record(back)
    return rows, keys


def pool_words(states: Tensor, keys: Tensor, lens: np.ndarray, sel: np.ndarray,
               u: Tensor) -> Tensor:
    """Attentive pool of the sentences ``sel`` (indices, in order, repeats
    allowed) into one (2H,) column each, under the context ``u`` (s values).

    ``states`` and ``keys`` are the ``keyed_rows`` of ``scan_words`` states,
    row t * n + j for step t of sentence j. Every key is scored under ``u``
    in one product; the picked sentences' scores, cut to the longest of
    them, go through the masked softmax over steps, and only their state
    rows are gathered and summed. The backward adds into the gradients of
    the rows it read. One tape step.
    """
    dim = states.shape[1]
    if keys.shape != states.shape:
        raise ShapeError(f"keys {keys.shape} do not match states {states.shape}")
    if u.size != dim:
        raise ShapeError(f"context {u.shape} does not fit {dim}-dim states")
    picked = lens[sel]
    steps, batch = int(picked.max()), len(sel)
    at = (np.arange(steps)[:, None] * len(lens) + sel).reshape(-1)
    scores = (keys.data @ u.data.reshape(dim))[at].reshape(steps, batch)
    a = _attention(scores, _step_mask(picked, steps))
    pooled = Tensor(np.einsum("tbd,tb->db", states.data[at].reshape(steps, batch, dim), a))

    def back():
        if pooled.grad is None:
            return
        g = pooled.grad.T
        # The rows are gathered again rather than kept: each case's closure
        # would otherwise hold a copy of its rows until the sweep reaches it.
        d_alpha = np.einsum("tbd,bd->tb", states.data[at].reshape(steps, batch, dim), g)
        d_scores = (a * (d_alpha - (a * d_alpha).sum(axis=0))).reshape(-1)
        nd.accumulate(u, (d_scores @ keys.data[at]).reshape(u.shape))
        nd.accumulate_rows(states, at, (a[:, :, None] * g).reshape(-1, dim))
        nd.accumulate_rows(keys, at, np.multiply.outer(d_scores, u.data.reshape(dim)))

    nd.record(back)
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
        x = nd.take_cols(x, _padded_index(lens, steps))
    mask = _step_mask(lens, steps)
    return attentive_pool_steps(bigru_scan(x, steps, gru, mask), steps, pool.w, u, mask)


def encode_documents(docs: Sequence[Sequence[tuple[np.ndarray, np.ndarray]]],
                     p: DocEncoderParams,
                     embed_tokens: Callable[[np.ndarray, np.ndarray], Tensor],
                     u_word: Tensor, u_sent: Tensor,
                     ) -> tuple[Tensor, list[list[np.ndarray]], list[np.ndarray]]:
    """Encode several documents in one padded batch, pooling words under
    context ``u_word`` and sentences under ``u_sent``.

    Each document is a list of sentences; each sentence a pair of id arrays
    (word ids, pos ids), scanned as ``scan_words`` describes. Returns the
    document embeddings as columns of a single (state_dim, n_docs) tensor
    plus per-sentence word attention and per-document sentence attention as
    plain arrays.
    """
    if not docs:
        raise DomainError("encode_documents of empty document list")
    if any(not doc for doc in docs):
        raise DomainError("document with no sentences")

    states, word_lens = scan_words([sent for doc in docs for sent in doc], p.word_gru,
                                   embed_tokens)
    steps = int(word_lens.max())
    sent_emb, word_alpha = attentive_pool_steps(states, steps, p.word_pool.w, u_word,
                                                _step_mask(word_lens, steps))
    sent_lens = [len(doc) for doc in docs]
    d_emb, sent_alpha = encode_groups(sent_emb, sent_lens, p.sent_gru, p.sent_pool, u_sent)

    word_attn, sent_attn, j = [], [], 0
    for d, n in enumerate(sent_lens):
        word_attn.append([word_alpha.data[:word_lens[j + s], j + s] for s in range(n)])
        sent_attn.append(sent_alpha.data[:n, d])
        j += n
    return d_emb, word_attn, sent_attn
