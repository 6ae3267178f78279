"""Per-case reference for batched training.

``train()`` runs each minibatch as one graph (``cm.forward_batch``) and one
``cm._batch_loss``. The reference runs each case alone, as a one-case
``cm.forward_batch`` that scans its own article slots under a tape, and
scores it with the same ``cm.joint_loss``; the batch loss must equal the mean
of these per-case losses. ``forward_batch`` and ``batch_loss`` below keep the
contracts of the batched pair, so ``train()`` can run on them in their place.
"""

from dataclasses import dataclass

import numpy as np

from chargenet import charge_model as cm
from chargenet import ndtensor as nd

# The library's batched forward, kept here so that it still runs each case
# while a test has put ``forward_batch`` below in its place.
ONE_CASE_FORWARD = cm.forward_batch


def trace_loss(trace, case, y, model):
    """Total loss tensor of a one-case ``cm.BatchTrace`` plus the two
    component values; ``y`` is the case's charge target."""
    cfg = model.config
    t = None
    if cfg.variant == cm.Variant.FACT_SUPV_ART and cfg.beta > 0:
        t = cm.attention_target(trace.topks[0], case.gold_articles, cfg.k)
    total, charge_term, attn_term = cm.joint_loss(trace.o, y[:, None], trace.alpha,
                                                  None if t is None else t[:, None], cfg.beta)
    return total, charge_term.item(), 0.0 if attn_term is None else attn_term.item()


def case_loss(case, model, y, topk):
    """``trace_loss`` of the case run alone."""
    return trace_loss(ONE_CASE_FORWARD([case], model, [topk]), case, y, model)


@dataclass
class PerCaseBatch:
    """Stands in for ``cm.BatchTrace``: one one-case ``BatchTrace`` per case."""

    traces: list

    @property
    def o(self):
        return nd.Tensor(np.concatenate([t.o.data for t in self.traces], axis=1))


def forward_batch(cases, model, topks):
    return PerCaseBatch([ONE_CASE_FORWARD([case], model, [topk])
                         for case, topk in zip(cases, topks)])


def batch_loss(batch, cases, y, model):
    """The mean of the per-case losses and the summed terms, as ``cm._batch_loss``."""
    total, charge, attn = None, 0.0, 0.0
    for j, (case, trace) in enumerate(zip(cases, batch.traces)):
        loss, charge_v, attn_v = trace_loss(trace, case, y[:, j], model)
        total = loss if total is None else total + loss
        charge += charge_v
        attn += attn_v
    return total * (1.0 / len(cases)), charge, attn
