"""Test-side autodiff tools: a sum reduction to build scalar losses with, and
the finite-difference gradient check. The model needs neither, so
``chargenet.ndtensor`` holds neither."""

from dataclasses import dataclass, field

import numpy as np

from chargenet import ndtensor as nd
from chargenet.ndtensor import Tape, Tensor


def tsum(a, axis=None, keepdims=False):
    """The sum of a tensor's entries (along ``axis``) as one tape op."""
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def back():
        g = out.grad
        if g is None:
            return
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        nd.accumulate(a, np.broadcast_to(g, a.shape))

    nd.record(back)
    return out


@dataclass
class ParamCheck:
    name: str
    max_rel_err: float
    ok: bool


@dataclass
class GradCheckReport:
    """Per-parameter agreement between analytic and finite-difference gradients."""
    checks: list[ParamCheck] = field(default_factory=list)
    tolerance: float = 1e-4

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def max_rel_err(self) -> float:
        return max((c.max_rel_err for c in self.checks), default=0.0)

    def failures(self) -> list[str]:
        return [c.name for c in self.checks if not c.ok]


def _loss_with_entry(p, original, i, value, model_fn) -> float:
    """The loss with ``p.data`` a copy of ``original`` whose flat entry i is
    ``value``."""
    bumped = original.copy()
    bumped.reshape(-1)[i] = value
    p.data = bumped
    return model_fn().item()


def grad_check(model_fn, params, tolerance=1e-4, step=1e-5) -> GradCheckReport:
    """Compare tape gradients of a deterministic scalar loss to central differences.

    ``model_fn`` runs a pure forward pass over the current values of the
    ``(name, tensor)`` pairs ``params``. Each perturbed value runs on a copy
    installed in the tensor, and the original array goes back afterwards, so
    the check writes no parameter in place and works on read-only ones.
    Relative error uses a 1e-4 denominator floor so finite-difference noise
    on near-zero gradients does not trip the check.
    """
    named = list(params)
    tensors = [p for _, p in named]
    for p in tensors:
        p.grad = None
    with Tape() as tape:
        loss = model_fn()
        tape.backward(loss, tensors)
    analytic = [p.grad.copy() for p in tensors]

    report = GradCheckReport(tolerance=tolerance)
    for (name, p), ana in zip(named, analytic):
        worst = 0.0
        original = p.data
        flat = original.reshape(-1)
        ana = ana.reshape(-1)
        try:
            for i in range(flat.size):
                up = _loss_with_entry(p, original, i, flat[i] + step, model_fn)
                down = _loss_with_entry(p, original, i, flat[i] - step, model_fn)
                fd = (up - down) / (2.0 * step)
                err = abs(ana[i] - fd) / max(abs(ana[i]), abs(fd), 1e-4)
                worst = max(worst, err)
        finally:
            p.data = original
        report.checks.append(ParamCheck(name, worst, worst < tolerance))
    for p in tensors:
        p.grad = None
    return report


def assert_matches_fd(fn, tensors, tol=1e-4):
    """``grad_check`` of unnamed tensors, asserted."""
    report = grad_check(fn, [(str(i), t) for i, t in enumerate(tensors)], tolerance=tol)
    assert report.ok, f"max rel err {report.max_rel_err:.3g}"
