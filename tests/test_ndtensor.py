import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from chargenet import ndtensor as nd
from chargenet.ndtensor import (
    DomainError,
    ShapeError,
    StateError,
    Tape,
    Tensor,
)

from gradient_checks import assert_matches_fd, grad_check, tsum


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
        params = [
            ("emb.word", Tensor(rng.uniform(-1, 1, (7, 4)))),
            ("enc.w_z", Tensor(rng.uniform(-1, 1, (3, 5)))),
            ("bias", Tensor(rng.uniform(-1, 1, 3))),
            ("scalar", Tensor(np.float64(0.123456789))),
        ]
        path = tmp_path / "model.ckpt"
        nd.save_checkpoint(path, params)
        loaded = nd.load_checkpoint(path)
        assert set(loaded) == {n for n, _ in params}
        for name, t in params:
            assert loaded[name].shape == t.shape
            npt.assert_array_equal(loaded[name], t.data)

    def write_sample(self, tmp_path):
        rng = np.random.default_rng(7)
        path = tmp_path / "model.ckpt"
        nd.save_checkpoint(path, [("a.w", Tensor(rng.uniform(-1, 1, (2, 3)))),
                                  ("b", Tensor(rng.uniform(-1, 1, 4)))])
        return path

    @pytest.mark.parametrize("cut", [0, 3, 6, 8, 10, 12, 13, 20, 30, 60, -1])
    def test_truncated_file_raises_state_error(self, tmp_path, cut):
        path = self.write_sample(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:cut])
        with pytest.raises(StateError, match="truncated at byte"):
            nd.load_checkpoint(path)

    def test_trailing_bytes_raise_state_error(self, tmp_path):
        path = self.write_sample(tmp_path)
        size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\x00\x01")
        with pytest.raises(StateError, match=f"2 trailing bytes at byte {size}"):
            nd.load_checkpoint(path)

    def test_undecodable_name_raises_state_error(self, tmp_path):
        path = self.write_sample(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[10] = 0xFF  # first byte of the first name, right after its length
        path.write_bytes(bytes(blob))
        with pytest.raises(StateError, match="byte 10"):
            nd.load_checkpoint(path)

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        path = self.write_sample(tmp_path)
        before = path.read_bytes()
        t = Tensor(np.ones(3))
        # The second name cannot be encoded, so the write stops after the first parameter.
        with pytest.raises(UnicodeEncodeError):
            nd.save_checkpoint(path, [("a.w", t), ("\ud800", t)])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_version_guard(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(struct_pack_bad())
        with pytest.raises(StateError):
            nd.load_checkpoint(path)


def struct_pack_bad():
    import struct

    return struct.pack("<II", 999, 0)
