import json
import math
import os
import re
import stat
import struct
import warnings
import weakref
import zlib

import numpy as np
import numpy.testing as npt
import pytest

from chargenet import article_extractor as ax
from chargenet import charge_model as cm
from chargenet import model_file as mf
from chargenet import ndtensor as nd
from chargenet.ndtensor import (
    DomainError,
    ShapeError,
    StateError,
    Tape,
    Tensor,
)

from gradient_checks import assert_matches_fd, grad_check, tsum
from file_faults import Unwritable, write_members, write_npy


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = nd.matmul(Tensor(np.eye(2)), a)
        npt.assert_array_equal(out.data, a.data)

    def test_zero(self):
        z = Tensor(np.zeros((2, 3)))
        out = nd.matmul(z, Tensor(np.ones((3, 4))))
        npt.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            nd.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.uniform(-2, 2, (3, 4)))
        b = Tensor(rng.uniform(-2, 2, (4, 2)))
        assert_matches_fd(lambda: tsum(nd.matmul(a, b)), [a, b], tol=1e-6)


def exp_logistic(x):
    """The exp-based form ``nd.logistic`` replaced, kept as its oracle:
    e = exp(-|x|), then 1 / (1 + e) for x >= 0 and e / (1 + e) below."""
    pos = x >= 0
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    den = e + 1.0
    np.copyto(e, 1.0, where=pos)
    e /= den
    return e


class TestLogistic:
    """nd.logistic, 0.5 + 0.5 * tanh(x / 2), against the exp-based oracle."""

    grid = np.concatenate([np.linspace(-800.0, 800.0, 320_001),
                           [-0.0, 5e-324, -5e-324, 1e-300, -36.8, 36.8, -745.2, 709.8,
                            -1e308, 1e308, -np.inf, np.inf]])

    def test_matches_exp_oracle_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nd.logistic(self.grid)
        npt.assert_allclose(got, exp_logistic(self.grid), rtol=0, atol=1e-15)
        assert ((got >= 0.0) & (got <= 1.0)).all()
        assert got[0] == 0.0 and got[-1] == 1.0

    def test_writes_in_place_when_out_is_x(self):
        x = self.grid.copy()
        y = nd.logistic(x, out=x)
        assert y is x
        npt.assert_array_equal(x, nd.logistic(self.grid))


class TestElementwise:
    def test_tanh_at_zero(self):
        x = Tensor([0.0])
        with Tape() as tape:
            out = tsum(nd.tanh(x))
            tape.backward(out)
        assert out.item() == 0.0
        npt.assert_array_equal(x.grad, [1.0])

    def test_sigmoid_at_zero(self):
        x = Tensor([0.0])
        with Tape() as tape:
            out = tsum(nd.sigmoid(x))
            tape.backward(out)
        assert out.item() == 0.5
        npt.assert_array_equal(x.grad, [0.25])

    def test_concat_halves(self):
        a = Tensor(np.arange(75.0))
        b = Tensor(np.arange(75.0, 150.0))
        out = nd.concat([a, b])
        assert out.shape == (150,)
        npt.assert_array_equal(out.data[:75], a.data)

    def test_concat_off_axis_mismatch(self):
        with pytest.raises(ShapeError):
            nd.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 4)))], axis=0)

    def test_add_broadcast_mismatch(self):
        with pytest.raises(ShapeError):
            nd.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    @pytest.mark.parametrize("op", ["tanh", "sigmoid", "add", "mul", "concat"])
    def test_gradients_vs_finite_differences(self, op):
        rng = np.random.default_rng(7)
        a = Tensor(rng.uniform(-2, 2, (3, 4)))
        b = Tensor(rng.uniform(-2, 2, (3, 4)))
        fns = {
            "tanh": lambda: tsum(nd.tanh(a)),
            "sigmoid": lambda: tsum(nd.sigmoid(a)),
            "add": lambda: tsum(nd.tanh(nd.add(a, b))),
            "mul": lambda: tsum(nd.tanh(nd.mul(a, b))),
            "concat": lambda: tsum(nd.tanh(nd.concat([a, b], axis=1))),
        }
        assert_matches_fd(fns[op], [a, b])

    def test_broadcast_gradients(self):
        rng = np.random.default_rng(8)
        a = Tensor(rng.uniform(-2, 2, (3, 5)))
        bias = Tensor(rng.uniform(-2, 2, (3, 1)))
        assert_matches_fd(lambda: tsum(nd.sigmoid(nd.add(a, bias))), [a, bias])
        assert_matches_fd(lambda: tsum(nd.tanh(nd.mul(a, bias))), [a, bias])

    def test_structural_ops_gradients(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.uniform(-2, 2, (4, 6)))
        table = Tensor(rng.uniform(-2, 2, (5, 3)))
        assert_matches_fd(lambda: tsum(nd.tanh(nd.narrow(a, 1, 2, 3))), [a])
        assert_matches_fd(lambda: tsum(nd.tanh(nd.take_cols(a, [0, 2, 2, 5]))), [a])
        assert_matches_fd(lambda: tsum(nd.tanh(nd.embed(table, [1, 1, 4, 0]))), [table])
        assert_matches_fd(lambda: tsum(nd.tanh(nd.reshape(a, (6, 4)))), [a])

    @pytest.mark.parametrize("op", ["take_cols", "embed"])
    def test_scatter_matches_add_at(self, op):
        """Repeated indices sum in order: into a fresh buffer the gradient is
        bit-identical to ``np.add.at``; into a held one it adds the block."""
        rng = np.random.default_rng(10)
        a = Tensor(rng.uniform(-2, 2, (6, 40)))
        idx = rng.integers(0, 40 if op == "take_cols" else 6, 300)
        gather = nd.take_cols if op == "take_cols" else nd.embed
        g = rng.uniform(-1, 1, gather(a, idx).shape)
        want = np.zeros_like(a.data)
        np.add.at(want.T if op == "take_cols" else want, idx, g.T)

        def backward():
            with Tape() as tape:
                tape.backward(tsum(gather(a, idx) * Tensor(g)))

        backward()
        npt.assert_array_equal(a.grad, want)
        held = rng.uniform(-1, 1, a.shape)
        a.grad = held.copy()
        backward()
        npt.assert_allclose(a.grad, held + want, rtol=0, atol=1e-13)


class TestSoftmax:
    def test_equal_logits_uniform(self):
        for c in (-3.0, 0.0, 11.5):
            out = nd.softmax(Tensor([c, c, c]))
            npt.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_single_element(self):
        npt.assert_array_equal(nd.softmax(Tensor([4.2])).data, [1.0])

    def test_log_ratios(self):
        out = nd.softmax(Tensor([math.log(1), math.log(2), math.log(3)]))
        npt.assert_allclose(out.data, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)

    def test_empty_input(self):
        with pytest.raises(DomainError):
            nd.softmax(Tensor(np.zeros(0)))

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.uniform(-50, 50, rng.integers(1, 12))
            p = nd.softmax(Tensor(x)).data
            assert abs(p.sum() - 1.0) < 1e-9
            shifted = nd.softmax(Tensor(x + 123.456)).data
            npt.assert_allclose(p, shifted, atol=1e-12)

    def test_masked_columns(self):
        """A -inf logit, the way a caller masks an entry, gets exactly 0."""
        x = Tensor(np.array([[1.0, 5.0], [2.0, -np.inf], [-np.inf, 900.0]]))
        p = nd.softmax(x, axis=0).data
        assert p[2, 0] == 0.0 and p[1, 1] == 0.0
        npt.assert_allclose(p.sum(axis=0), [1.0, 1.0], atol=1e-12)
        assert np.isfinite(p).all()

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-2, 2, (5, 3)))
        w = Tensor(rng.uniform(-2, 2, (5, 3)))
        assert_matches_fd(lambda: tsum(nd.mul(nd.softmax(x, axis=0), w)), [x, w])
        masked = Tensor(np.where(rng.uniform(size=(5, 3)) < 0.3, -np.inf, x.data))
        assert_matches_fd(lambda: tsum(nd.mul(nd.softmax(masked, axis=0), w)), [masked, w])


class TestCrossEntropy:
    def test_perfect_one_hot(self):
        t = np.array([0.0, 1.0, 0.0])
        out = nd.cross_entropy(t, Tensor(t.copy()))
        assert out.item() == 0.0

    def test_uniform_prediction(self):
        out = nd.cross_entropy(np.array([0.5, 0.5, 0.0, 0.0]), Tensor(np.full(4, 0.25)))
        npt.assert_allclose(out.item(), math.log(4), atol=1e-12)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = rng.integers(2, 10)
            t = rng.uniform(0.01, 1, n)
            t /= t.sum()
            p = rng.uniform(0.01, 1, n)
            p /= p.sum()
            expected = -sum(ti * math.log(pi) for ti, pi in zip(t, p))
            got = nd.cross_entropy(t, Tensor(p)).item()
            assert abs(got - expected) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            nd.cross_entropy(np.array([1.0, 0.0]), Tensor(np.full(3, 1 / 3)))

    def test_non_distribution_rejected(self):
        with pytest.raises(DomainError):
            nd.cross_entropy(np.array([0.9, 0.4]), Tensor(np.array([0.5, 0.5])))

    @pytest.mark.parametrize("side", ["target", "predicted"])
    @pytest.mark.parametrize("drift,ok", [(1e-9, True), (-1e-9, True),
                                          (1e-5, False), (-1e-5, False)])
    def test_sum_to_one_tolerance(self, side, drift, ok):
        """Rounding drift (about n * eps) passes the fixed 1e-6 guard; a
        distribution off by 1e-5 does not."""
        exact = np.full(4, 0.25)
        off = exact.copy()
        off[0] += drift
        t, p = (off, exact) if side == "target" else (exact, off)
        if ok:
            assert np.isfinite(nd.cross_entropy(t, Tensor(p)).item())
        else:
            with pytest.raises(DomainError, match="sum to 1"):
                nd.cross_entropy(t, Tensor(p))

    def test_columns_are_distributions(self):
        """A 2-D argument holds one distribution per column, and the result
        is the sum of the columns' cross entropies; a column that does not
        sum to 1 is rejected even when the whole array does."""
        rng = np.random.default_rng(14)
        t = rng.uniform(0.01, 1, (5, 3))
        t /= t.sum(axis=0)
        p = rng.uniform(0.01, 1, (5, 3))
        p /= p.sum(axis=0)
        got = nd.cross_entropy(t, Tensor(p)).item()
        want = sum(nd.cross_entropy(t[:, j], Tensor(p[:, j])).item() for j in range(3))
        assert abs(got - want) < 1e-12
        with pytest.raises(DomainError, match="sum to 1"):
            nd.cross_entropy(t, Tensor(p / 3))
        p[:, 1] *= 0.5
        with pytest.raises(DomainError, match="sum to 1"):
            nd.cross_entropy(t, Tensor(p))

    def test_gradient_through_softmax(self):
        rng = np.random.default_rng(13)
        logits = Tensor(rng.uniform(-2, 2, 6))
        t = rng.uniform(0.01, 1, 6)
        t /= t.sum()
        assert_matches_fd(lambda: nd.cross_entropy(t, nd.softmax(logits)), [logits], tol=1e-6)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.random.default_rng(1).uniform(-2, 2, (3, 4)))
        with Tape() as tape:
            tape.backward(tsum(x), [x])
        npt.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_chain_rule_at_zero_weight(self):
        x = Tensor(np.array([[1.5], [-0.5]]))
        w = Tensor(np.zeros((1, 2)))
        with Tape() as tape:
            loss = tsum(nd.tanh(nd.matmul(w, x)))
            tape.backward(loss, [w])
        npt.assert_allclose(w.grad, x.data.T, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros((2, 2)))
        with Tape() as tape:
            out = nd.tanh(x)
            with pytest.raises(DomainError):
                tape.backward(out)

    def test_unreachable_parameter_gets_zero_grad(self):
        x = Tensor(np.ones(3))
        unused = Tensor(np.ones(2))
        with Tape() as tape:
            tape.backward(tsum(x), [x, unused])
        npt.assert_array_equal(unused.grad, np.zeros(2))

    def test_tape_is_single_use(self):
        x = Tensor(np.ones(3))
        with Tape() as tape:
            loss = tsum(x)
            tape.backward(loss, [x])
            with pytest.raises(StateError):
                tape.backward(loss, [x])

    def test_no_tape_means_no_recording(self):
        x = Tensor(np.ones(3))
        out = nd.tanh(x)
        assert out.grad is None and x.grad is None

    def test_recording_follows_the_innermost_tape(self):
        assert not nd.recording()
        with Tape():
            assert nd.recording()
        assert not nd.recording()

    def test_no_recording_pauses_the_tape(self):
        x = Tensor(np.ones(3))
        with Tape() as tape:
            with nd.no_recording():
                assert not nd.recording()
                nd.tanh(x)
                with Tape() as inner:
                    nd.tanh(x)
                assert len(inner) == 1 and not nd.recording()
            assert nd.recording() and len(tape) == 0
        assert not nd.recording()

    @pytest.mark.parametrize("repeats", [False, True])
    def test_accumulate_rows_matches_add_at(self, repeats):
        """Rows add into a fresh or a held buffer as ``np.add.at`` adds them."""
        rng = np.random.default_rng(12)
        a = Tensor(rng.uniform(-2, 2, (30, 5)))
        rows = rng.integers(0, 30, 40) if repeats else rng.permutation(30)[:12]
        delta = rng.uniform(-1, 1, (len(rows), 5))
        want = np.zeros_like(a.data)
        np.add.at(want, rows, delta)
        nd.accumulate_rows(a, rows, delta)
        npt.assert_array_equal(a.grad, want)
        held = rng.uniform(-1, 1, a.shape)
        a.grad = held.copy()
        nd.accumulate_rows(a, rows, delta)
        npt.assert_allclose(a.grad, held + want, rtol=0, atol=1e-15)

    def test_custom_op_through_public_hooks(self):
        x = Tensor(np.array([1.0, -2.0]))
        with Tape() as tape:
            out = Tensor(3.0 * x.data)
            nd.record(lambda: nd.accumulate(x, 3.0 * out.grad))
            tape.backward(tsum(out), [x])
        npt.assert_array_equal(x.grad, [3.0, 3.0])

    def test_grad_accumulates_across_reuse(self):
        x = Tensor(np.array([2.0]))
        with Tape() as tape:
            loss = tsum(nd.add(nd.mul(x, x), x))  # x^2 + x
            tape.backward(loss, [x])
        npt.assert_allclose(x.grad, [5.0], atol=1e-15)

    def test_swept_tape_holds_no_closure(self):
        """Each closure is dropped as it runs; ``len`` still counts it."""
        x = Tensor(np.array([1.0, -2.0]))
        with Tape() as tape:
            out = Tensor(3.0 * x.data)

            def back():
                nd.accumulate(x, 3.0 * out.grad)

            nd.record(back)
            closure = weakref.ref(back)
            del back
            loss = tsum(out)
            assert len(tape) == 2
            tape.backward(loss, [x])
        assert closure() is None
        assert len(tape) == 2

    def test_activations_die_with_their_outputs_after_the_sweep(self):
        """Once backward returns, the tape keeps no activation alive: one
        the caller drops is freed while the tape itself lives on."""
        rng = np.random.default_rng(3)
        w = Tensor(rng.uniform(-1, 1, (4, 3)))
        x = Tensor(rng.uniform(-1, 1, (3, 5)))
        with Tape() as tape:
            h = nd.tanh(nd.matmul(w, x))
            activation = weakref.ref(h.data)
            loss = tsum(h)
            tape.backward(loss, [w])
        del h, loss
        assert activation() is None
        assert len(tape) == 3


class TestSgd:
    def test_basic_step(self):
        p = Tensor(np.array([1.0]))
        p.grad = np.array([2.0])
        nd.sgd_step([p], 0.1)
        npt.assert_allclose(p.data, [0.8], atol=1e-15)
        assert p.grad is None

    def test_zero_grad_keeps_param(self):
        p = Tensor(np.array([1.0, -1.0]))
        p.grad = np.zeros(2)
        nd.sgd_step([p], 0.1)
        npt.assert_array_equal(p.data, [1.0, -1.0])

    def test_missing_grad_raises(self):
        with pytest.raises(StateError):
            nd.sgd_step([Tensor(np.ones(2), name="w")], 0.1)

    def test_step_keeps_each_arrays_write_flag_and_counts_the_call(self):
        """A read-only parameter is written and stays read-only, a free tensor
        stays writable, and every call moves ``write_count``, also one that
        raises part way."""
        frozen, free = Tensor(np.array([1.0])), Tensor(np.array([1.0]))
        frozen.data.flags.writeable = False
        frozen.grad, free.grad = np.array([2.0]), np.array([2.0])
        before = nd.write_count()
        nd.sgd_step([frozen, free], 0.1)
        npt.assert_allclose(frozen.data, [0.8], atol=1e-15)
        assert not frozen.data.flags.writeable and free.data.flags.writeable
        assert nd.write_count() == before + 1
        frozen.grad = np.array([1.0])
        with pytest.raises(StateError):
            nd.sgd_step([frozen, Tensor(np.ones(1))], 0.1)
        npt.assert_allclose(frozen.data, [0.7], atol=1e-15)
        assert not frozen.data.flags.writeable
        assert nd.write_count() == before + 2

    def test_step_parks_the_zeroed_buffer(self):
        p = Tensor(np.array([1.0, -1.0]))
        grad = p.grad = np.array([2.0, -4.0])
        nd.sgd_step([p], 0.5)
        npt.assert_array_equal(p.data, [0.0, 1.0])
        assert p.grad is None and p.parked_grad is grad
        assert not grad.any() and not np.signbit(grad).any()

    def test_backward_sweeps_into_the_parked_buffer(self):
        """After a step, a fresh backward reuses each parameter's buffer and
        gives the bits a fresh buffer would: through a product, an embedding
        lookup and a column gather (scatters) and ``accumulate_rows``, with
        repeated indices."""
        rng = np.random.default_rng(8)
        ids, cols = np.array([2, 0, 2, 3]), np.array([1, 1, 0])
        x = rng.uniform(-1, 1, (3, 3))

        def loss_of(table, w, gathered, added):
            h = nd.tanh(nd.matmul(w, nd.embed(table, ids)))
            g = nd.take_cols(gathered, cols)
            a = Tensor(added.data[cols])
            nd.record(lambda: nd.accumulate_rows(added, cols, a.grad))
            return (tsum(nd.mul(nd.mul(h, h), 0.5)) + tsum(nd.matmul(g, Tensor(x)))
                    + tsum(nd.mul(a, a)))

        def sweep(params):
            with Tape() as tape:
                tape.backward(loss_of(*params), params)

        reused = [Tensor(rng.uniform(-1, 1, shape))
                  for shape in [(4, 3), (2, 3), (3, 3), (2, 3)]]
        sweep(reused)
        nd.sgd_step(reused, 0.1)
        parked = [p.parked_grad for p in reused]
        fresh = [Tensor(p.data.copy()) for p in reused]
        sweep(reused)
        sweep(fresh)
        for p, q, buffer in zip(reused, fresh, parked):
            assert p.grad is buffer and p.parked_grad is None
            assert p.grad.tobytes() == q.grad.tobytes()

    def test_descent_on_quadratic(self):
        p = Tensor(np.array([5.0]))
        prev = math.inf
        for _ in range(10):
            with Tape() as tape:
                loss = tsum(nd.mul(p, p))
                tape.backward(loss, [p])
            assert loss.item() < prev
            prev = loss.item()
            nd.sgd_step([p], 0.1)
        with Tape() as tape:
            final = tsum(nd.mul(p, p))
        assert final.item() < prev


class TestGradCheck:
    def test_linear_model_tight(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.uniform(-1, 1, (1, 4)), name="w")
        x = rng.uniform(-1, 1, (4, 1))
        report = grad_check(lambda: tsum(nd.matmul(w, Tensor(x))), [("w", w)])
        assert report.ok and report.max_rel_err < 1e-8

    def test_corrupted_rule_is_flagged(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.uniform(-1, 1, (2, 3)), name="w")
        x = Tensor(rng.uniform(-1, 1, (3, 1)))

        def bad_tanh(a):
            out = Tensor(np.tanh(a.data))

            def back():
                if out.grad is not None:
                    a.grad = (a.grad if a.grad is not None else 0) + \
                        1.05 * (1.0 - out.data ** 2) * out.grad

            nd.record(back)
            return out

        report = grad_check(lambda: tsum(bad_tanh(nd.matmul(w, x))), [("w", w)])
        assert not report.ok and "w" in report.failures()


class TestDeterminism:
    def run_once(self):
        rng = np.random.default_rng(99)
        w = nd.parameter((3, 3), rng, name="w")
        x = Tensor(rng.uniform(-1, 1, (3, 2)))
        with Tape() as tape:
            loss = tsum(nd.tanh(nd.matmul(w, x)))
            tape.backward(loss, [w])
        nd.sgd_step([w], 0.1)
        return loss.item(), w.data.copy()

    def test_forward_backward_step_bit_identical(self):
        l1, w1 = self.run_once()
        l2, w2 = self.run_once()
        assert l1 == l2
        npt.assert_array_equal(w1, w2)


class TestFiniteness:
    def test_values_stay_finite(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            x = Tensor(rng.uniform(-2, 2, (4, 3)))
            w = Tensor(rng.uniform(-2, 2, (4, 4)))
            with Tape() as tape:
                h = nd.tanh(nd.matmul(w, x))
                p = nd.softmax(h, axis=0)
                loss = nd.cross_entropy(np.full((4, 3), 1 / 4), p)
                tape.backward(loss, [x, w])
            assert np.isfinite(loss.data).all()
            assert np.isfinite(x.grad).all() and np.isfinite(w.grad).all()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        arrays = {
            "emb.word": rng.uniform(-1, 1, (7, 4)),
            "enc.w_z": rng.uniform(-1, 1, (3, 5)),
            "bias": np.array([-math.inf, 0.5, 1e-300]),
            "scalar": np.float64(0.123456789),
            "rows": np.arange(5),
        }
        meta = {"vocabulary": ["盗窃", "a"], "tau": 0.1 + 0.2, "ids": [133, [133, 1]]}
        path = tmp_path / "model.npz"
        mf.save_arrays(path, arrays, meta)
        loaded, loaded_meta = mf.load_arrays(path)
        assert list(loaded) == list(arrays)
        for name, want in arrays.items():
            assert loaded[name].dtype == np.asarray(want).dtype
            npt.assert_array_equal(loaded[name], want)
        assert loaded_meta == {**meta, "format": "model", "version": mf.FORMAT_VERSION}

    def write_sample(self, tmp_path):
        rng = np.random.default_rng(7)
        path = tmp_path / "model.npz"
        mf.save_arrays(path, {"a.w": rng.uniform(-1, 1, (2, 3)),
                                       "b": rng.uniform(-1, 1, 4)}, {"note": "sample"})
        return path

    @pytest.mark.parametrize("cut", [0, 3, 6, 8, 10, 12, 13, 20, 30, 60, -1])
    def test_truncated_file_raises_state_error(self, tmp_path, cut):
        path = self.write_sample(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:cut])
        with pytest.raises(StateError,
                           match=re.escape(f"model file {path} is not a readable archive")):
            mf.load_arrays(path)

    def test_flipped_data_byte_fails_the_crc(self, tmp_path):
        path = self.write_sample(tmp_path)
        blob = bytearray(path.read_bytes())
        at = blob.index(np.float64(mf.load_arrays(path)[0]["a.w"][0, 1]).tobytes())
        blob[at + 3] ^= 0x10
        path.write_bytes(bytes(blob))
        with pytest.raises(StateError, match=r"member 'a\.w\.npy' fails"):
            mf.load_arrays(path)

    def test_every_flipped_byte_raises_or_loads_the_saved_values(self, tmp_path):
        """No corrupt byte, in a member or in the zip headers, gives back a
        value that was not saved: the load raises StateError, or (when the
        byte is one zipfile does not read) returns saved arrays and meta."""
        path = self.write_sample(tmp_path)
        saved, saved_meta = mf.load_arrays(path)
        blob = path.read_bytes()
        for at in range(len(blob)):
            for bit in (0x01, 0x80):
                corrupt = bytearray(blob)
                corrupt[at] ^= bit
                path.write_bytes(bytes(corrupt))
                try:
                    arrays, meta = mf.load_arrays(path)
                except StateError:
                    continue
                assert meta == saved_meta, (at, bit)
                assert set(arrays) <= set(saved), (at, bit)
                for name, arr in arrays.items():
                    assert arr.dtype == saved[name].dtype, (at, bit)
                    npt.assert_array_equal(arr, saved[name], err_msg=f"{at} {bit}")

    @pytest.mark.parametrize("write, problem", [
        (lambda p: p.write_bytes(b""), "is not a readable archive"),
        (lambda p: p.write_bytes(struct.pack("<II", 1, 0)), "is not a readable archive"),
        (lambda p: p.write_text('{"version": 1, "k": 2}'), "is not a readable archive"),
        (lambda p: write_npy(p, np.zeros(2)), "holds one .npy array"),
        (lambda p: write_members(p, meta=np.array("{}"), w=np.array([None])),
         "is not a readable archive: Object arrays"),
        (lambda p: write_members(p, w=np.zeros(2)), "has no meta text member"),
        (lambda p: write_members(p, meta=np.array([1.0])), "has no meta text member"),
        (lambda p: write_members(p, meta=np.array("{")), "meta is not JSON"),
        (lambda p: write_members(p, meta=np.array("[]")), "meta is not a JSON object"),
        (lambda p: write_members(p, meta=np.array('{"format": "bank", "version": 2}')),
         "holds format 'bank' version 2, not 'model' version 4"),
        (lambda p: write_members(p, meta=np.array('{"format": "model", "version": 4}')),
         "meta has no 'config' of type dict"),
        (lambda p: write_members(p, meta=np.array(json.dumps({
            "format": "model", "version": 4, "config": {}, "charge_vocab": [],
            "article_ids": [], "word_vocab": [], "pos_vocab": [], "tau": True}))),
         "meta has no 'tau' of type float"),
    ], ids=["empty", "binary_checkpoint", "json_bank", "npy_file", "object_member",
            "no_meta", "meta_not_text", "meta_not_json", "meta_not_object", "other_kind",
            "missing_field", "bool_for_float"])
    def test_unreadable_file_raises_state_error(self, tmp_path, write, problem):
        path = tmp_path / "model.npz"
        write(path)
        with pytest.raises(StateError) as err:
            mf.load_model(path)
        assert str(err.value).startswith(f"model file {path} ")
        assert problem in str(err.value)

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        path = self.write_sample(tmp_path)
        before = path.read_bytes()
        # The second array cannot be converted, so the write stops after the first.
        with pytest.raises(OSError, match="no space left"):
            mf.save_arrays(path, {"a.w": np.ones(3), "b": Unwritable()}, {})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_version_guard(self, tmp_path):
        """Version 2 is the last format that kept banks in their own files,
        and version 3 the last whose config held the attention loss weight."""
        path = tmp_path / "bad.npz"
        for version in (1, 2, 3, 99, "4"):
            write_members(path, meta=np.array(json.dumps({"format": "model",
                                                          "version": version})))
            with pytest.raises(StateError, match=f"version {version!r}, not 'model' version 4"):
                mf.load_arrays(path)

    def test_rename_is_synced_through_the_directory(self, tmp_path, monkeypatch):
        """``atomic_write`` syncs the new file before the rename and the
        directory after it, then closes the directory."""
        import os
        import stat
        events = []
        fsync, replace, close = os.fsync, os.replace, os.close

        def logged_fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            events.append(("fsync", kind, fd))
            fsync(fd)

        def logged_replace(src, dst):
            events.append(("replace",))
            replace(src, dst)

        def logged_close(fd):
            events.append(("close", fd))
            close(fd)

        monkeypatch.setattr(os, "fsync", logged_fsync)
        monkeypatch.setattr(os, "replace", logged_replace)
        monkeypatch.setattr(os, "close", logged_close)
        with mf.atomic_write(tmp_path / "f.bin") as fh:
            fh.write(b"abc")
        assert [e[:2] for e in events[:2]] == [("fsync", "file"), ("replace",)]
        directory = events[2][2]
        assert events[2:] == [("fsync", "dir", directory), ("close", directory)]
        assert (tmp_path / "f.bin").read_bytes() == b"abc"


# The content of the model file, pinned. A fixed tiny fact_supv_art model with
# a hand-built bank is saved, and a CRC-32 over every member pins what the file
# holds. Every value is a binary fraction set by hand, so nothing goes through
# BLAS or a random stream, and the digest does not depend on the machine or its
# thread count. A change to the format has to change PINNED_CONTENT on purpose,
# and FORMAT_VERSION with it. Version 4 dropped the config's attention loss
# weight: every array member is as it was in version 3, and the meta text
# differs only by that field and the version.
PINNED_CONTENT = "87e6ada8"


def pinned_model() -> tuple[cm.ChargeModel, ax.ExtractorBank]:
    """A fact_supv_art model, k=2, over three articles, one of them a
    sub-clause, and a bank that ranks all three."""
    config = cm.ModelConfig(variant=cm.Variant.FACT_SUPV_ART, word_emb_dim=2, pos_emb_dim=1,
                            gru_hidden=2, fc1_dim=3, fc2_dim=3, k=2, tau=0.375)
    words = {"<pad>": cm.PAD_ID, "<unk>": cm.UNK_ID, "盗窃": 2, "w": 3}
    tags = {"<pad>": cm.PAD_ID, "<unk>": cm.UNK_ID, "v": 2}
    params = cm.ModelParams.create(config, len(words), len(tags), 2, None)
    for i, (_, t) in enumerate(params.named()):
        t.data = ((np.arange(t.size) % 7 - 3) / 4 + i / 8).reshape(t.shape)
    docs = {10: [(np.array([2, 3]), np.array([2, 2]))],
            20: [(np.array([3]), np.array([2])), (np.array([2, 2, 3]), np.array([2, 1, 2]))],
            (133, 1): [(np.array([1, 3]), np.array([2, 1]))]}
    model = cm.ChargeModel(config, params, words, tags, ["盗窃罪", "诈骗罪"], docs, tau=0.375)
    tfidf = ax.TfidfModel({"盗窃": 0, "a": 1, "b": 2}, np.array([0.5, 1.25, 2.0]))
    weights = np.array([[0.5, 0.0, -1.5], [0.0, 0.25, 0.0], [2.0, 0.0, 0.0]])
    bank = ax.ExtractorBank(tfidf, [20, (133, 1), 10], weights, np.array([0.125, -0.5, 1.0]))
    return model, bank


def content_digest(path) -> str:
    """CRC-32 over each member of the archive at ``path``, in member order:
    an array's name, dtype, shape and values, and the meta's text."""
    crc = 0
    with np.load(path) as archive:
        for name in archive.files:
            arr = archive[name]
            if name == "meta":
                crc = zlib.crc32(arr.item().encode(), crc)
                continue
            crc = zlib.crc32(f"{name} {arr.dtype.str} {arr.shape}".encode(), crc)
            crc = zlib.crc32(np.ascontiguousarray(arr).tobytes(), crc)
    return f"{crc:08x}"


def test_saved_content_is_pinned(tmp_path):
    model, bank = pinned_model()
    path = tmp_path / "m.npz"
    mf.save_model(path, model, bank)
    assert content_digest(path) == PINNED_CONTENT
    loaded, loaded_bank = mf.load_model(path)
    for (name, want), (_, got) in zip(model.params.named(), loaded.params.named(),
                                      strict=True):
        npt.assert_array_equal(got.data, want.data, err_msg=name)
    assert loaded_bank.article_ids == bank.article_ids == [10, 20, (133, 1)]
