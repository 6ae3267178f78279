"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything the encoders and losses are built from: a small op set
(matmul, elementwise, concat/slice/gather, softmax, cross entropy),
an explicit single-use gradient tape and plain SGD. It holds what the
model runs; test-only tools (a sum reduction, the finite-difference
gradient check) live with the tests.

Ops record their backward closures on the innermost active ``Tape``;
with no tape active they run forward-only, which is the inference path.
Fused ops defined elsewhere use the same hooks: ``recording`` says whether
to keep what backward needs, ``record`` appends the closure, and
``accumulate`` (or ``accumulate_rows``, for some rows) adds into an
input's gradient. ``no_recording`` runs a block forward-only inside a tape.

``Tape.backward`` runs each closure once and drops it, so the activations a
closure holds are freed during the sweep, not when the graph dies. A
parameter's gradient buffer belongs to the parameter: ``sgd_step`` applies
it, zeroes it and parks it on the tensor (``parked_grad``), and the next
``Tape.backward`` that lists the parameter sweeps into it instead of a new
buffer. Adding into zeros gives the same bits as a fresh buffer; reusing it
spares the allocator a buffer per parameter per minibatch, which it would
otherwise return to the kernel and fault back in.

``sgd_step`` is the one function that writes a parameter's array in place,
and each call advances ``write_count``. So a cache of values computed from
read-only parameter arrays can key on the arrays, by identity, plus the count.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import fields
from typing import Callable, Iterable, Sequence

import numpy as np

LOG_EPS = 1e-12  # probability clamp inside cross_entropy

__all__ = [
    "Tensor", "Tape", "ShapeError", "DomainError", "StateError",
    "matmul", "add", "sub", "mul", "tanh", "sigmoid", "concat", "narrow",
    "take_cols", "embed", "reshape", "softmax", "cross_entropy",
    "sgd_step", "write_count", "parameter", "zeros",
    "record", "accumulate", "accumulate_rows", "recording", "no_recording", "logistic",
    "ParamGroup",
]


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class DomainError(ValueError):
    """Input outside an operation's domain (empty sequence, non-scalar loss, ...)."""


class StateError(RuntimeError):
    """Object used out of protocol (spent tape, missing gradient, ...)."""


class Tensor:
    """A dense float64 array plus an optional gradient buffer of the same shape.

    ``parked_grad`` is a zeroed buffer that ``sgd_step`` left for the next
    backward to reuse as ``grad``; it is None on every other tensor.
    """

    __slots__ = ("data", "grad", "parked_grad", "name")

    def __init__(self, data, name: str | None = None):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.parked_grad: np.ndarray | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag})"

    # Arithmetic sugar; non-Tensor operands are treated as constants.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)


_STATE = threading.local()


def _tape() -> "Tape | None":
    stack = getattr(_STATE, "stack", None)
    return stack[-1] if stack else None


class Tape:
    """Ordered record of backward closures for one forward pass.

    Ops append in execution order, so the list is topologically sorted by
    construction; ``backward`` replays it in exact reverse, dropping each
    closure once it has run, so a swept tape holds no closure and no
    activation. ``len`` stays the number of steps recorded. A tape may be
    swept once only: re-running backward without a fresh forward raises
    ``StateError``.
    """

    def __init__(self):
        self._steps: list[Callable[[], None]] = []
        self._recorded = 0
        self._spent = False

    def __enter__(self) -> "Tape":
        stack = getattr(_STATE, "stack", None)
        if stack is None:
            stack = _STATE.stack = []
        stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _STATE.stack.pop()

    def record(self, step: Callable[[], None]) -> None:
        self._steps.append(step)
        self._recorded += 1

    def __len__(self) -> int:
        return self._recorded

    def backward(self, loss: Tensor, params: Iterable[Tensor] = ()) -> None:
        """Seed d(loss)/d(loss)=1 and sweep the tape in reverse.

        Every tensor on a path from a recorded op to ``loss`` receives its
        gradient; tensors in ``params`` that the loss does not reach get an
        explicit zero buffer. A tensor in ``params`` with no ``grad`` and a
        ``parked_grad`` takes that zeroed buffer as its gradient before the
        sweep. Each closure is dropped as it runs, so what it held is freed
        before the sweep ends if nothing else holds it.
        """
        if self._spent:
            raise StateError("tape already swept; re-run the forward pass first")
        if loss.size != 1:
            raise DomainError(f"backward needs a scalar loss, got shape {loss.shape}")
        self._spent = True
        params = list(params)
        for p in params:
            if p.grad is None and p.parked_grad is not None:
                p.grad, p.parked_grad = p.parked_grad, None
        loss.grad = np.ones_like(loss.data)
        steps = self._steps
        while steps:
            steps.pop()()
        for p in params:
            if p.grad is None:
                p.grad = np.zeros_like(p.data)


def recording() -> bool:
    """True while a tape is active, i.e. when ops must keep what backward needs."""
    return _tape() is not None


@contextmanager
def no_recording():
    """Run the block with no tape recording, even inside an active ``Tape``:
    ops run forward-only, as with no tape, and record nothing."""
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = _STATE.stack = []
    stack.append(None)
    try:
        yield
    finally:
        stack.pop()


def record(step: Callable[[], None]) -> None:
    """Append ``step`` to the innermost active tape; a no-op with no tape.

    Custom ops call this once per forward with a closure that reads their
    outputs' ``grad`` and feeds their inputs through ``accumulate``.
    """
    t = _tape()
    if t is not None:
        t.record(step)


def accumulate(t: Tensor, delta: np.ndarray) -> None:
    """Add ``delta`` into ``t.grad``, allocating the buffer on first use."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += delta


def accumulate_rows(t: Tensor, rows: np.ndarray, delta: np.ndarray) -> None:
    """Add row i of ``delta`` into row ``rows[i]`` of ``t.grad``; repeated
    rows sum."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    if len(np.unique(rows)) < len(rows):
        np.add.at(t.grad, rows, delta)
    else:
        t.grad[rows] += delta


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes do not conform: {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)

    def back():
        g = out.grad
        if g is None:
            return
        accumulate(a, g @ b.data.T)
        accumulate(b, a.data.T @ g)

    record(back)
    return out


def _binary(a, b, fwd, back_a, back_b) -> Tensor:
    """Shared plumbing for broadcasting binary ops; non-Tensor sides are constants."""
    a_t = a if isinstance(a, Tensor) else None
    b_t = b if isinstance(b, Tensor) else None
    ad = a_t.data if a_t is not None else np.asarray(a, dtype=np.float64)
    bd = b_t.data if b_t is not None else np.asarray(b, dtype=np.float64)
    try:
        out = Tensor(fwd(ad, bd))
    except ValueError as exc:
        raise ShapeError(f"operand shapes do not broadcast: {ad.shape} vs {bd.shape}") from exc

    def back():
        g = out.grad
        if g is None:
            return
        if a_t is not None:
            accumulate(a_t, _unbroadcast(back_a(g, ad, bd), ad.shape))
        if b_t is not None:
            accumulate(b_t, _unbroadcast(back_b(g, ad, bd), bd.shape))

    if a_t is not None or b_t is not None:
        record(back)
    return out


def add(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def tanh(a: Tensor) -> Tensor:
    out = Tensor(np.tanh(a.data))

    def back():
        if out.grad is not None:
            accumulate(a, (1.0 - out.data * out.data) * out.grad)

    record(back)
    return out


def logistic(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)) of a plain array as 0.5 + 0.5 * tanh(x / 2), which
    cannot overflow; ``out`` may be ``x``."""
    y = np.multiply(x, 0.5, out=out)
    np.tanh(y, out=y)
    y *= 0.5
    y += 0.5
    return y


def sigmoid(a: Tensor) -> Tensor:
    out = Tensor(logistic(a.data))

    def back():
        if out.grad is not None:
            accumulate(a, out.data * (1.0 - out.data) * out.grad)

    record(back)
    return out


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; all other axes must agree."""
    if not parts:
        raise DomainError("concat of zero tensors")
    for p in parts[1:]:
        if (p.data.ndim != parts[0].data.ndim
                or any(s != t for i, (s, t) in enumerate(zip(p.shape, parts[0].shape)) if i != axis)):
            raise ShapeError(f"concat shapes disagree off-axis: {[p.shape for p in parts]}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]

    def back():
        g = out.grad
        if g is None:
            return
        offset = 0
        for p, n in zip(parts, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offset, offset + n)
            accumulate(p, g[tuple(idx)])
            offset += n

    record(back)
    return out


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along ``axis``."""
    if start < 0 or start + length > a.shape[axis]:
        raise ShapeError(f"narrow [{start}:{start + length}] outside axis {axis} of {a.shape}")
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = Tensor(a.data[idx])

    def back():
        if out.grad is None:
            return
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[idx] += out.grad

    record(back)
    return out


def _scatter_add(t: Tensor, flat: np.ndarray, values: np.ndarray) -> None:
    """Add ``values`` into ``t.grad`` at the flat indices ``flat`` (same shape),
    repeated indices summing in order.

    One ``bincount`` over the flattened buffer replaces ``np.add.at``: it
    sums the same values in the same order from 0, so into a fresh buffer
    the result is bit-identical, and into an existing one the scattered
    block is added whole. The block holds no -0.0, so adding it into a
    parked zero buffer gives the block's own bits.
    """
    block = np.bincount(flat.reshape(-1), weights=values.reshape(-1),
                        minlength=t.size).reshape(t.shape)
    if t.grad is None:
        t.grad = block
    else:
        t.grad += block


def take_cols(a: Tensor, cols) -> Tensor:
    """Gather columns of a 2-D tensor by index (repeats allowed)."""
    cols = np.asarray(cols, dtype=np.intp)
    out = Tensor(a.data[:, cols])

    def back():
        if out.grad is not None:
            flat = np.arange(a.shape[0])[:, None] * a.shape[1] + cols
            _scatter_add(a, flat, out.grad)

    record(back)
    return out


def embed(table: Tensor, ids) -> Tensor:
    """Look rows of an embedding table up by id, returned as columns (dim, n)."""
    ids = np.asarray(ids, dtype=np.intp)
    out = Tensor(table.data[ids].T)

    def back():
        if out.grad is not None:
            flat = ids[:, None] * table.shape[1] + np.arange(table.shape[1])
            _scatter_add(table, flat, out.grad.T)

    record(back)
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def back():
        if out.grad is not None:
            accumulate(a, out.grad.reshape(a.shape))

    record(back)
    return out


def softmax(logits: Tensor, axis: int = 0) -> Tensor:
    """Stable softmax along ``axis``; outputs sum to 1 over the axis.

    It has no mask: the masked softmax over sequence steps lives inside the
    encoders' attentive pools. A logit of -inf gets exactly 0 and no
    gradient, as long as its slice holds a finite one.
    """
    x = logits.data
    if x.size == 0:
        raise DomainError("softmax of empty input")
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    out = Tensor(e / e.sum(axis=axis, keepdims=True))

    def back():
        g = out.grad
        if g is None:
            return
        p = out.data
        inner = (p * g).sum(axis=axis, keepdims=True)
        accumulate(logits, p * (g - inner))

    record(back)
    return out


def cross_entropy(target, predicted: Tensor) -> Tensor:
    """-sum(target * log(predicted)) with probabilities clamped to [1e-12, 1].

    ``target`` is a constant distribution (Tensor or array); no gradient
    flows to it. Every slice along axis 0 is one distribution (a 1-D
    argument is one; a 2-D one holds one per column), and the result is the
    sum of the slices' cross entropies. Every distribution must sum to 1
    within 1e-6. The tolerance is fixed, not scaled with size: a float64 sum
    of n probabilities drifts from 1 by about n * eps (2.2e-16), under 1e-12
    even for n in the thousands, while an input that is not a distribution
    misses by far more.
    """
    t = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=np.float64)
    if t.shape != predicted.shape:
        raise ShapeError(f"cross_entropy shapes differ: {t.shape} vs {predicted.shape}")
    if (np.abs(t.sum(axis=0) - 1.0) > 1e-6).any() \
            or (np.abs(predicted.data.sum(axis=0) - 1.0) > 1e-6).any():
        raise DomainError("cross_entropy arguments must each sum to 1")
    clamped = np.clip(predicted.data, LOG_EPS, 1.0)
    out = Tensor(-(t * np.log(clamped)).sum())

    def back():
        if out.grad is None:
            return
        live = predicted.data >= LOG_EPS  # below the clamp the loss is locally flat
        accumulate(predicted, np.where(live, -t / clamped, 0.0) * out.grad)

    record(back)
    return out


_writes = 0


def write_count() -> int:
    """How many ``sgd_step`` calls this process has run, raising ones included."""
    return _writes


def sgd_step(params: Iterable[Tensor], lr: float) -> None:
    """p <- p - lr * grad for every parameter, then clear the gradients.

    It is the one in-place writer of parameters: a read-only array is made
    writable for the write and read-only again after it, and the call
    advances ``write_count``, also when it raises.

    The step takes each gradient buffer over: it scales the buffer in place,
    subtracts it, zeroes it and parks it as ``p.parked_grad`` for the next
    ``Tape.backward``, leaving ``p.grad`` None. A caller that still reads a
    gradient after the step must copy it first.
    """
    global _writes
    try:
        for p in params:
            g = p.grad
            if g is None:
                raise StateError(
                    f"parameter {p.name or p.shape} has no gradient; run backward first")
            g *= lr
            writeable = p.data.flags.writeable
            p.data.flags.writeable = True
            try:
                p.data -= g
            finally:
                p.data.flags.writeable = writeable
            g.fill(0.0)
            p.grad, p.parked_grad = None, g
    finally:
        _writes += 1


def parameter(shape, rng: np.random.Generator | None, scale: float | None = None,
              name: str | None = None) -> Tensor:
    """Trainable weight drawn uniformly from [-scale, scale]; with ``rng``
    None, zeros and no draw, for a caller that sets the values itself.

    Without an explicit scale, the limit is sqrt(6 / (fan_in + fan_out)),
    which keeps activation variance roughly constant through tanh stacks at
    any layer width; a fixed small constant starves narrow desk-scale models.
    """
    if rng is None:
        return zeros(shape, name=name)
    if scale is None:
        fan_out = shape[0] if len(shape) > 0 else 1
        fan_in = shape[1] if len(shape) > 1 else 1
        scale = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-scale, scale, size=shape), name=name)


def zeros(shape, name: str | None = None) -> Tensor:
    return Tensor(np.zeros(shape), name=name)


class ParamGroup:
    """Base of the dataclasses that hold parameters.

    ``named`` walks the fields in declaration order, descends into nested
    groups, skips fields that are None and lists each tensor under its
    ``Tensor.name``. No group or tensor is shared between fields, so each
    appears once.
    """

    def named(self) -> list[tuple[str, Tensor]]:
        found: list[tuple[str, Tensor]] = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, ParamGroup):
                found += value.named()
            elif isinstance(value, Tensor):
                found.append((value.name, value))
        return found

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named()]

