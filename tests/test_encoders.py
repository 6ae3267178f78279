import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chargenet import encoders as enc
from chargenet import ndtensor as nd
from chargenet.ndtensor import DomainError, ShapeError, Tape, Tensor

import encoder_oracles as oracle
from gradient_checks import assert_matches_fd, grad_check, tsum


def sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def gru_oracle(x, h, p, direction=0):
    """Plain numpy recomputation of one GRU update of a direction from its
    z, r, h row blocks."""
    w_z, w_r, w_h = np.split(p.w.data[direction], 3)
    u_z, u_r, u_h = np.split(p.u.data[direction], 3)
    b_z, b_r, b_h = (b.reshape(-1, 1) if x.ndim == 2 else b.reshape(-1)
                     for b in np.split(p.b.data[direction], 3))
    z = sig(w_z @ x + u_z @ h + b_z)
    r = sig(w_r @ x + u_r @ h + b_r)
    cand = np.tanh(w_h @ x + u_h @ (r * h) + b_h)
    return (1.0 - z) * h + z * cand


def make_gru(input_dim, hidden_dim, seed=0):
    return enc.BiGruParams.create(input_dim, hidden_dim, np.random.default_rng(seed))


class TestGruStep:
    def test_all_zero_inputs_give_zero_state(self):
        p = make_gru(3, 2)
        for t in p.tensors():
            t.data[:] = 0.0
        for d in range(2):
            h = enc.gru_step(Tensor(np.zeros(3)), Tensor(np.zeros(2)), p, d)
            npt.assert_array_equal(h.data, np.zeros(2))

    def test_shut_update_gate_keeps_state(self):
        p = make_gru(3, 2, seed=1)
        p.b.data[:, :p.hidden_dim] = -1e6  # the z rows of both directions
        h_prev = np.array([0.3, -0.7])
        for d in range(2):
            h = enc.gru_step(Tensor(np.ones(3)), Tensor(h_prev.copy()), p, d)
            npt.assert_allclose(h.data, h_prev, atol=1e-12)

    def test_create_stacks_the_per_gate_draws(self):
        """Gate blocks keep their own Glorot limits and the draw order
        w_z, u_z, w_r, u_r, w_h, u_h, forward direction first, so seeded
        initialisations do not move: stacking the per-direction tensors of
        the two-object layout gives the stacked tensors exactly."""
        rng = np.random.default_rng(7)
        directions = [[nd.parameter(shape, rng).data for _ in range(3)
                       for shape in [(4, 3), (4, 4)]] for _ in range(2)]
        p = make_gru(3, 4, seed=7)
        npt.assert_array_equal(p.w.data, np.stack([np.vstack(b[0::2]) for b in directions]))
        npt.assert_array_equal(p.u.data, np.stack([np.vstack(b[1::2]) for b in directions]))
        npt.assert_array_equal(p.b.data, np.zeros((2, 12, 1)))
        assert (p.input_dim, p.hidden_dim, p.state_dim) == (3, 4, 8)
        assert [n for n, _ in p.named()] == ["bigru.w", "bigru.u", "bigru.b"]

    def test_matches_step_by_step_oracle(self):
        rng = np.random.default_rng(2)
        p = make_gru(4, 3, seed=2)
        for _ in range(20):
            x = rng.uniform(-2, 2, 4)
            h = rng.uniform(-2, 2, 3)
            for d in range(2):
                got = enc.gru_step(Tensor(x), Tensor(h), p, d).data
                npt.assert_allclose(got, gru_oracle(x, h, p, d), atol=1e-12)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(3)
        p = make_gru(4, 3, seed=3)
        xb = rng.uniform(-2, 2, (4, 5))
        hb = rng.uniform(-2, 2, (3, 5))
        for d in range(2):
            got = enc.gru_step(Tensor(xb), Tensor(hb), p, d).data
            for j in range(5):
                one = enc.gru_step(Tensor(xb[:, j]), Tensor(hb[:, j]), p, d).data
                npt.assert_allclose(got[:, j], one, atol=1e-14)

    def test_dimension_mismatch(self):
        p = make_gru(3, 2)
        with pytest.raises(ShapeError):
            enc.gru_step(Tensor(np.zeros(5)), Tensor(np.zeros(2)), p, 0)

    def test_gradients(self):
        rng = np.random.default_rng(4)
        p = make_gru(3, 2, seed=4)
        x = Tensor(rng.uniform(-1, 1, 3))
        h = Tensor(rng.uniform(-1, 1, 2))
        tensors = [x, h] + [t for _, t in p.named()]
        weights = [Tensor(rng.uniform(-1, 1, 2)) for _ in range(2)]

        def loss():
            return tsum(enc.gru_step(x, h, p, 0) * weights[0]
                        + enc.gru_step(x, h, p, 1) * weights[1])

        assert_matches_fd(loss, tensors)


class TestBigru:
    def test_empty_sequence(self):
        p = enc.BiGruParams.create(3, 2, np.random.default_rng(0))
        with pytest.raises(DomainError):
            enc.bigru_encode([], p)

    def test_length_one_sequence(self):
        p = enc.BiGruParams.create(3, 2, np.random.default_rng(5))
        x = np.random.default_rng(6).uniform(-1, 1, 3)
        [out] = enc.bigru_encode([Tensor(x)], p)
        zero = np.zeros(2)
        expected = np.concatenate([gru_oracle(x, zero, p, 0), gru_oracle(x, zero, p, 1)])
        npt.assert_allclose(out.data, expected, atol=1e-12)

    def test_hidden_75_gives_150(self):
        p = enc.BiGruParams.create(10, 75, np.random.default_rng(7))
        seq = [Tensor(np.random.default_rng(8).uniform(-1, 1, 10)) for _ in range(3)]
        out = enc.bigru_encode(seq, p)
        assert len(out) == 3 and all(h.shape == (150,) for h in out)

    def test_palindrome_with_tied_weights(self):
        rng = np.random.default_rng(9)
        p = enc.BiGruParams.create(3, 4, np.random.default_rng(10))
        for t in p.tensors():
            t.data[1] = t.data[0]
        a, b, c = (rng.uniform(-1, 1, 3) for _ in range(3))
        seq = [Tensor(v) for v in (a, b, c, b, a)]
        out = enc.bigru_encode(seq, p)
        T = len(seq)
        for t in range(T):
            npt.assert_allclose(out[t].data[:4], out[T - 1 - t].data[4:], atol=1e-12)

    def test_gradients(self):
        p = enc.BiGruParams.create(3, 2, np.random.default_rng(11))
        rng = np.random.default_rng(12)
        seq = [Tensor(rng.uniform(-1, 1, 3)) for _ in range(3)]
        tensors = list(seq) + [t for _, t in p.named()]

        def loss():
            return tsum(nd.concat(enc.bigru_encode(seq, p)))

        assert_matches_fd(loss, tensors)


class TestAttentivePool:
    def test_zero_context_gives_mean(self):
        rng = np.random.default_rng(13)
        states = [Tensor(rng.uniform(-1, 1, 4)) for _ in range(5)]
        w = Tensor(rng.uniform(-1, 1, (4, 4)))
        g, alpha = enc.attentive_pool(states, w, Tensor(np.zeros(4)))
        npt.assert_allclose(alpha.data, np.full(5, 0.2), atol=1e-12)
        npt.assert_allclose(g.data, np.mean([s.data for s in states], axis=0), atol=1e-12)

    def test_single_state(self):
        rng = np.random.default_rng(14)
        h = Tensor(rng.uniform(-1, 1, 4))
        g, alpha = enc.attentive_pool([h], Tensor(rng.uniform(-1, 1, (4, 4))),
                                      Tensor(rng.uniform(-1, 1, 4)))
        npt.assert_array_equal(alpha.data, [1.0])
        npt.assert_allclose(g.data, h.data, atol=1e-15)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(15)
        states = [rng.uniform(-2, 2, 3) for _ in range(4)]
        w = rng.uniform(-1, 1, (3, 3))
        u = rng.uniform(-1, 1, 3)
        scores = np.array([np.tanh(w @ h) @ u for h in states])
        e = np.exp(scores - scores.max())
        a_ref = e / e.sum()
        g_ref = sum(ai * h for ai, h in zip(a_ref, states))
        g, alpha = enc.attentive_pool([Tensor(h) for h in states], Tensor(w), Tensor(u))
        npt.assert_allclose(alpha.data, a_ref, atol=1e-12)
        npt.assert_allclose(g.data, g_ref, atol=1e-12)

    def test_empty_states(self):
        with pytest.raises(DomainError):
            enc.attentive_pool([], Tensor(np.eye(2)), Tensor(np.zeros(2)))

    def test_distribution_and_convex_hull(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            T, S = rng.integers(1, 8), rng.integers(1, 6)
            states = [Tensor(rng.uniform(-2, 2, S)) for _ in range(T)]
            w = Tensor(rng.uniform(-2, 2, (S, S)))
            u = Tensor(rng.uniform(-2, 2, S))
            g, alpha = enc.attentive_pool(states, w, u)
            assert abs(alpha.data.sum() - 1.0) < 1e-9
            assert ((alpha.data >= 0) & (alpha.data <= 1)).all()
            stacked = np.stack([s.data for s in states])
            assert (g.data >= stacked.min(axis=0) - 1e-12).all()
            assert (g.data <= stacked.max(axis=0) + 1e-12).all()

    def test_gradients(self):
        rng = np.random.default_rng(17)
        states = [Tensor(rng.uniform(-1, 1, 3)) for _ in range(3)]
        w = Tensor(rng.uniform(-1, 1, (3, 3)))
        u = Tensor(rng.uniform(-1, 1, 3))

        def loss():
            g, _ = enc.attentive_pool(states, w, u)
            return tsum(g)

        assert_matches_fd(loss, states + [w, u])


def embed_with(word_table, pos_table):
    def embed_tokens(wids, pids):
        return nd.concat([nd.embed(word_table, wids), nd.embed(pos_table, pids)], axis=0)

    return embed_tokens


def encode_documents(docs, p, embed_tokens):
    """``enc.encode_documents`` under the pools' trained global contexts."""
    return enc.encode_documents(docs, p, embed_tokens, p.word_pool.u, p.sent_pool.u)


def one_document(doc):
    """A document given as lists of token ids, in ``encode_documents`` form
    (every token's POS id is 0)."""
    return [(np.asarray(sent), np.zeros(len(sent), dtype=np.intp)) for sent in doc]


class TestEncodeDocument:
    """``encode_documents`` on one document, its tokens looked up in a table."""

    def make_params(self, in_dim=5, hidden=3, seed=18):
        return enc.DocEncoderParams.create(in_dim, hidden, np.random.default_rng(seed))

    def encode(self, table, doc, p):
        d, word_attn, sent_attn = encode_documents(
            [one_document(doc)], p, lambda wids, pids: nd.embed(table, wids))
        return d, word_attn[0], sent_attn[0]

    def test_one_sentence_one_token(self):
        p = self.make_params()
        table = Tensor(np.random.default_rng(19).uniform(-1, 1, (2, 5)))
        d, word_attn, sent_attn = self.encode(table, [[1]], p)
        [g_w] = enc.bigru_encode([Tensor(table.data[1])], p.word_gru)
        [state] = enc.bigru_encode([Tensor(g_w.data)], p.sent_gru)
        npt.assert_allclose(d.data[:, 0], state.data, atol=1e-12)
        npt.assert_array_equal(word_attn[0], [1.0])
        npt.assert_array_equal(sent_attn, [1.0])

    def test_paper_dims_give_150(self):
        p = enc.DocEncoderParams.create(150, 75, np.random.default_rng(20))
        table = Tensor(np.random.default_rng(21).uniform(-1, 1, (7, 150)))
        d, _, _ = self.encode(table, [[1, 2, 3], [4, 5, 6]], p)
        assert d.shape == (150, 1)

    def test_identical_sentences_zero_sentence_gru(self):
        p = self.make_params(seed=22)
        for _, t in p.sent_gru.named():
            t.data[:] = 0.0
        table = Tensor(np.random.default_rng(23).uniform(-1, 1, (4, 5)))
        _, _, sent_attn = self.encode(table, [[1, 2, 3], [1, 2, 3]], p)
        npt.assert_allclose(sent_attn, [0.5, 0.5], atol=1e-12)

    def test_permutation_with_zero_sentence_gru(self):
        p = self.make_params(seed=24)
        for _, t in p.sent_gru.named():
            t.data[:] = 0.0
        rng = np.random.default_rng(25)
        table = Tensor(rng.uniform(-1, 1, (10, 5)))
        doc = [list(rng.integers(0, 10, rng.integers(1, 4))) for _ in range(4)]
        _, _, attn = self.encode(table, doc, p)
        perm = [2, 0, 3, 1]
        _, _, attn_p = self.encode(table, [doc[i] for i in perm], p)
        npt.assert_allclose(attn_p, attn[perm], atol=1e-12)

    def test_empty_document_rejected(self):
        p = self.make_params()
        table = Tensor(np.zeros((2, 5)))
        with pytest.raises(DomainError):
            self.encode(table, [], p)
        with pytest.raises(DomainError):
            self.encode(table, [[]], p)

    def test_attention_sums(self):
        p = self.make_params(seed=26)
        rng = np.random.default_rng(27)
        table = Tensor(rng.uniform(-1, 1, (10, 5)))
        doc = [list(rng.integers(0, 10, rng.integers(1, 5))) for _ in range(3)]
        _, word_attn, sent_attn = self.encode(table, doc, p)
        for a in word_attn:
            assert abs(a.sum() - 1.0) < 1e-9
        assert abs(sent_attn.sum() - 1.0) < 1e-9

    def test_gradients(self):
        p = self.make_params(in_dim=3, hidden=2, seed=28)
        table = Tensor(np.random.default_rng(29).uniform(-1, 1, (4, 3)))
        tensors = [t for _, t in p.named()] + [table]

        def loss():
            d, _, _ = self.encode(table, [[1, 2], [3]], p)
            return tsum(d)

        assert_matches_fd(loss, tensors)


class TestBatchedEncoding:
    """encode_documents over padded batches must equal per-document encoding."""

    def test_matches_single_document_path(self):
        rng = np.random.default_rng(30)
        word_table = Tensor(rng.uniform(-1, 1, (9, 3)))
        pos_table = Tensor(rng.uniform(-1, 1, (4, 2)))
        p = enc.DocEncoderParams.create(5, 3, np.random.default_rng(31))
        docs = []
        for _ in range(4):
            doc = []
            for _ in range(rng.integers(1, 4)):
                n = rng.integers(1, 6)
                doc.append((rng.integers(0, 9, n), rng.integers(0, 4, n)))
            docs.append(doc)

        embed_tokens = embed_with(word_table, pos_table)
        d_all, word_attn, sent_attn = encode_documents(docs, p, embed_tokens)

        for j, doc in enumerate(docs):
            d_one, [wa_one], [sa_one] = encode_documents([doc], p, embed_tokens)
            tokens = [[Tensor(np.concatenate([word_table.data[w], pos_table.data[g]])[:, None])
                       for w, g in zip(wids, pids)] for wids, pids in doc]
            d_ref, wa_ref, sa_ref = oracle.encode_document(tokens, p)
            for d, wa, sa in ((d_one, wa_one, sa_one), (d_ref, wa_ref, sa_ref)):
                npt.assert_allclose(d_all.data[:, j], d.data[:, 0], atol=1e-12)
                npt.assert_allclose(sent_attn[j], sa, atol=1e-12)
                for s in range(len(doc)):
                    npt.assert_allclose(word_attn[j][s], wa[s], atol=1e-12)

    @settings(max_examples=25)
    @given(n_docs=st.integers(1, 4), hidden=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_padded_documents_property(self, n_docs, hidden, seed):
        """Documents of random sentence counts and lengths, batched, each
        equal their run alone."""
        rng = np.random.default_rng(seed)
        word_table = Tensor(rng.uniform(-1, 1, (9, 3)))
        pos_table = Tensor(rng.uniform(-1, 1, (4, 2)))
        p = enc.DocEncoderParams.create(5, hidden, np.random.default_rng(seed + 1))
        docs = [[(rng.integers(0, 9, n), rng.integers(0, 4, n))
                 for n in rng.integers(1, 8, rng.integers(1, 6))] for _ in range(n_docs)]
        embed_tokens = embed_with(word_table, pos_table)
        d_all, word_attn, sent_attn = encode_documents(docs, p, embed_tokens)
        for j, doc in enumerate(docs):
            d_one, [wa_one], [sa_one] = encode_documents([doc], p, embed_tokens)
            npt.assert_allclose(d_all.data[:, j], d_one.data[:, 0], rtol=0, atol=1e-12)
            npt.assert_allclose(sent_attn[j], sa_one, rtol=0, atol=1e-12)
            for got, want in zip(word_attn[j], wa_one, strict=True):
                npt.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_batched_gradients(self):
        rng = np.random.default_rng(32)
        word_table = Tensor(rng.uniform(-1, 1, (6, 2)))
        pos_table = Tensor(rng.uniform(-1, 1, (2, 2)))
        p = enc.DocEncoderParams.create(4, 2, np.random.default_rng(33))
        docs = [[(np.array([1, 2, 3]), np.array([0, 1, 0])), (np.array([4]), np.array([1]))],
                [(np.array([5, 0]), np.array([0, 0]))]]
        tensors = [word_table, pos_table] + [t for _, t in p.named()]

        def loss():
            d, _, _ = encode_documents(docs, p, embed_with(word_table, pos_table))
            return tsum(nd.tanh(d))

        assert_matches_fd(loss, tensors)


def padded_batch(rng, steps, batch):
    """Random right-padded lengths in [1, steps], at least one column full."""
    lengths = rng.integers(1, steps + 1, batch)
    lengths[rng.integers(batch)] = steps
    return lengths, (np.arange(steps)[:, None] < lengths[None, :]).astype(float)


def taped_grads(fn, tensors):
    """Gradients of fn() (a list of output tensors) under fixed random cotangents."""
    for t in tensors:
        t.grad = None
    with Tape() as tape:
        outs = fn()
        rng = np.random.default_rng(99)
        loss = None
        for o in outs:
            term = tsum(o * rng.uniform(-1, 1, o.shape))
            loss = term if loss is None else loss + term
        tape.backward(loss, tensors)
    grads = [t.grad.copy() for t in tensors]
    for t in tensors:
        t.grad = None
    return [o.data.copy() for o in outs], grads


class TestFusedScan:
    """bigru_scan against the per-step gru_step composite."""

    def setup(self, seed, steps, batch, in_dim=4, hidden=3, masked=True):
        rng = np.random.default_rng(seed)
        p = enc.BiGruParams.create(in_dim, hidden, np.random.default_rng(seed + 1))
        for _, t in p.named():  # non-zero biases exercise their gradients too
            t.data += rng.uniform(-0.5, 0.5, t.shape)
        x = Tensor(rng.uniform(-2, 2, (in_dim, steps * batch)))
        lengths, mask = padded_batch(rng, steps, batch)
        return p, x, lengths, (mask if masked else None)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("masked", [True, False])
    def test_matches_oracle_values_and_gradients(self, seed, masked):
        rng = np.random.default_rng(seed)
        steps, batch = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        p, x, _, mask = self.setup(seed, steps, batch, masked=masked)
        tensors = [x] + [t for _, t in p.named()]
        got, got_g = taped_grads(lambda: [enc.bigru_scan(x, steps, p, mask)], tensors)
        want, want_g = taped_grads(lambda: [oracle.bigru_scan(x, steps, p, mask)], tensors)
        npt.assert_allclose(got[0], want[0], rtol=0, atol=1e-10)
        for (name, _), g, w in zip([("x", x)] + list(p.named()), got_g, want_g):
            npt.assert_allclose(g, w, rtol=0, atol=1e-10, err_msg=name)

    def test_each_direction_matches_its_oracle_scan(self):
        p, x, _, mask = self.setup(40, 5, 3)
        hid = p.hidden_dim
        states = enc.bigru_scan(x, 5, p, mask).data
        xs = oracle.split_steps(x, 5)
        masks = [mask[t][None, :] for t in range(5)]
        fwd, bwd = (oracle.gru_scan(xs, p, masks, d) for d in range(2))
        for t in range(5):
            npt.assert_allclose(states[:hid, 3 * t:3 * t + 3], fwd[t].data, atol=1e-12)
            npt.assert_allclose(states[hid:, 3 * t:3 * t + 3], bwd[t].data, atol=1e-12)

    def test_padded_columns_equal_unpadded_runs(self):
        p, x, lengths, mask = self.setup(41, 6, 4)
        states = enc.bigru_scan(x, 6, p, mask).data
        for j, n in enumerate(lengths):
            alone = enc.bigru_scan(Tensor(x.data[:, j::4][:, :n]), int(n), p).data
            npt.assert_allclose(states[:, j::4][:, :n], alone, atol=1e-12)

    def test_grad_check(self):
        p, x, _, mask = self.setup(42, 4, 3, in_dim=3, hidden=2)
        weights = Tensor(np.random.default_rng(43).uniform(-1, 1, (4, 12)))
        named = [("x", x)] + list(p.named())
        report = grad_check(
            lambda: tsum(nd.tanh(enc.bigru_scan(x, 4, p, mask)) * weights), named)
        assert report.ok, report.failures()

    def test_no_tape_records_nothing_and_matches_taped_values(self):
        p, x, _, mask = self.setup(44, 5, 2)
        free = enc.bigru_scan(x, 5, p, mask).data
        with Tape() as tape:
            taped = enc.bigru_scan(x, 5, p, mask).data
            assert len(tape) == 1
        npt.assert_array_equal(free, taped)

    @pytest.mark.parametrize("steps,batch", [(10, 3), (3, 1), (3, 20), (20, 1)])
    @pytest.mark.parametrize("masked", [True, False])
    def test_paper_dims_match_oracle(self, steps, batch, masked):
        """H=75 over 150-dim inputs on the serving scan shapes, where the
        stacked products may take other BLAS paths than at H=3."""
        p, x, _, _ = self.setup(50 + steps + batch, steps, batch, in_dim=150, hidden=75)
        rng = np.random.default_rng(steps * batch)
        lengths = rng.integers(1, steps, batch)  # every column padded
        mask = (np.arange(steps)[:, None] < lengths).astype(float) if masked else None
        tensors = [x] + [t for _, t in p.named()]
        got, got_g = taped_grads(lambda: [enc.bigru_scan(x, steps, p, mask)], tensors)
        want, want_g = taped_grads(lambda: [oracle.bigru_scan(x, steps, p, mask)], tensors)
        npt.assert_allclose(got[0], want[0], rtol=0, atol=1e-10)
        for (name, _), g, w in zip([("x", x)] + list(p.named()), got_g, want_g):
            npt.assert_allclose(g, w, rtol=0, atol=1e-10, err_msg=name)

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(steps=st.integers(1, 7), batch=st.integers(1, 4), hidden=st.integers(1, 4),
           in_dim=st.integers(1, 4), seed=st.integers(0, 2**16))
    @example(steps=1, batch=3, hidden=2, in_dim=3, seed=0)
    @example(steps=5, batch=2, hidden=3, in_dim=2, seed=1)
    def test_padded_scan_property(self, steps, batch, hidden, in_dim, seed):
        """For any T (T=1 and odd T included, where both directions meet on
        the middle step), B, H and lengths: each padded column equals its
        unpadded run; past its end the forward state stays put and the
        backward state stays 0; taped gradients match the composite oracle."""
        p, x, _, _ = self.setup(seed, steps, batch, in_dim=in_dim, hidden=hidden)
        lengths = np.random.default_rng(seed).integers(1, steps + 1, batch)
        mask = (np.arange(steps)[:, None] < lengths).astype(float)
        states = enc.bigru_scan(x, steps, p, mask).data
        for j, n in enumerate(lengths):
            col = states[:, j::batch]
            alone = enc.bigru_scan(Tensor(x.data[:, j::batch][:, :n]), int(n), p).data
            npt.assert_allclose(col[:, :n], alone, rtol=0, atol=1e-12)
            npt.assert_array_equal(col[:hidden, n:], np.repeat(col[:hidden, n - 1:n],
                                                               steps - n, axis=1))
            npt.assert_array_equal(col[hidden:, n:], 0.0)
        tensors = [x] + [t for _, t in p.named()]
        _, got_g = taped_grads(lambda: [enc.bigru_scan(x, steps, p, mask)], tensors)
        _, want_g = taped_grads(lambda: [oracle.bigru_scan(x, steps, p, mask)], tensors)
        for (name, _), g, w in zip([("x", x)] + list(p.named()), got_g, want_g):
            npt.assert_allclose(g, w, rtol=0, atol=1e-10, err_msg=name)

    @pytest.mark.parametrize("batch", [1, 4, 20, 96])
    @pytest.mark.parametrize("steps", [1, 3, 7, 20])
    @pytest.mark.parametrize("masked", [True, False])
    def test_matches_the_step_major_scan_bit_for_bit(self, steps, batch, masked):
        """At paper width (D=150, H=75) the iteration-major buffers give the
        states and the gradients of x, w, u and b of the step-major scan
        exactly. Masked batches hold a length-1 column beside a full one, the
        backward direction's reversal edge.

        One product is the exception: with one column and several steps, the
        step-major BPTT handed each step's (2H, 1) gate gradient to the
        recurrent gemv as a vector strided by T, which OpenBLAS rounds
        differently from the contiguous vector it gets now (and got at T=1),
        so those gradients agree to the last bits only."""
        p, x, _, _ = self.setup(1000 * steps + batch, steps, batch, in_dim=150, hidden=75)
        rng = np.random.default_rng(steps * batch)
        mask = None
        if masked:
            lengths = rng.integers(1, steps + 1, batch)
            lengths[0], lengths[-1] = 1, steps
            mask = (np.arange(steps)[:, None] < lengths).astype(float)
        d_states = rng.uniform(-1, 1, (150, steps * batch))
        want = oracle.step_major_scan(x.data, steps, p, mask, d_states)
        tensors = [x, p.w, p.u, p.b]
        with Tape() as tape:
            states = enc.bigru_scan(x, steps, p, mask)
            tape.backward(tsum(states * d_states), tensors)
        got = [states.data] + [t.grad for t in tensors]
        npt.assert_array_equal(got[0], want[0])
        for name, g, w in zip(["x", "w", "u", "b"], got[1:], want[1:]):
            if batch == 1 and steps > 1:
                npt.assert_allclose(g, w, rtol=0, atol=1e-14, err_msg=name)
            else:
                npt.assert_array_equal(g, w, err_msg=name)
        npt.assert_array_equal(enc.bigru_scan(x, steps, p, mask).data, want[0])

    def test_shape_errors(self):
        p, x, _, mask = self.setup(45, 4, 3)
        with pytest.raises(ShapeError):
            enc.bigru_scan(x, 5, p)  # 12 columns are not 5 steps
        with pytest.raises(ShapeError):
            enc.bigru_scan(x, 4, p, mask[:, :2])
        with pytest.raises(ShapeError):
            enc.bigru_scan(Tensor(np.zeros((3, 12))), 4, p)
        with pytest.raises(DomainError):
            enc.bigru_scan(x, 0, p)


class TestFusedPool:
    """attentive_pool_steps, and pool_words over gathered steps of shared
    states, against the per-position composite pool."""

    def setup(self, seed, steps, batch, dim=4):
        rng = np.random.default_rng(seed)
        states = Tensor(rng.uniform(-2, 2, (dim, steps * batch)))
        w = Tensor(rng.uniform(-1, 1, (dim, dim)))
        u = Tensor(rng.uniform(-1, 1, (dim, 1)))
        _, mask = padded_batch(rng, steps, batch)
        return states, w, u, mask

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("masked", [True, False])
    def test_matches_oracle_values_and_gradients(self, seed, masked):
        rng = np.random.default_rng(100 + seed)
        steps, batch = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        states, w, u, mask = self.setup(seed, steps, batch)
        mask = mask if masked else None
        tensors = [states, w, u]
        got, got_g = taped_grads(
            lambda: list(enc.attentive_pool_steps(states, steps, w, u, mask)), tensors)
        want, want_g = taped_grads(
            lambda: list(oracle.attentive_pool_steps(states, steps, w, u, mask)), tensors)
        for g, wv in zip(got + got_g, want + want_g):
            npt.assert_allclose(g, wv, rtol=0, atol=1e-10)
        if masked:
            npt.assert_array_equal(got[1][mask == 0], 0.0)

    def test_grad_check(self):
        states, w, u, mask = self.setup(50, 4, 3, dim=3)
        weights = Tensor(np.random.default_rng(51).uniform(-1, 1, (3, 3)))

        def loss():
            pooled, alpha = enc.attentive_pool_steps(states, 4, w, u, mask)
            return tsum(pooled * weights) + tsum(alpha * alpha)

        report = grad_check(loss, [("states", states), ("w", w), ("u", u)])
        assert report.ok, report.failures()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("masked", [True, False])
    def test_per_column_contexts_match_oracle(self, seed, masked):
        """An (s, B) context pools column j of the states under context j."""
        rng = np.random.default_rng(110 + seed)
        steps, batch = int(rng.integers(1, 7)), int(rng.integers(2, 5))
        states, w, _, mask = self.setup(seed, steps, batch)
        u = Tensor(rng.uniform(-1, 1, (4, batch)))
        mask = mask if masked else None
        tensors = [states, w, u]
        got, got_g = taped_grads(
            lambda: list(enc.attentive_pool_steps(states, steps, w, u, mask)), tensors)
        want, want_g = taped_grads(
            lambda: list(oracle.attentive_pool_steps(states, steps, w, u, mask)), tensors)
        for g, wv in zip(got + got_g, want + want_g):
            npt.assert_allclose(g, wv, rtol=0, atol=1e-10)
        for j in range(batch):
            pooled, alpha = enc.attentive_pool_steps(
                Tensor(states.data[:, j::batch]), steps, w, Tensor(u.data[:, j:j + 1]),
                None if mask is None else mask[:, j:j + 1])
            npt.assert_allclose(got[0][:, j], pooled.data[:, 0], rtol=0, atol=1e-12)
            npt.assert_allclose(got[1][:, j], alpha.data[:, 0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("masked", [True, False])
    def test_per_column_contexts_grad_check(self, masked):
        states, w, _, mask = self.setup(54, 4, 3, dim=3)
        u = Tensor(np.random.default_rng(55).uniform(-1, 1, (3, 3)))
        weights = Tensor(np.random.default_rng(56).uniform(-1, 1, (3, 3)))
        mask = mask if masked else None

        def loss():
            pooled, alpha = enc.attentive_pool_steps(states, 4, w, u, mask)
            return tsum(pooled * weights) + tsum(alpha * alpha)

        report = grad_check(loss, [("states", states), ("w", w), ("u", u)])
        assert report.ok, report.failures()

    def gathered(self, seed, steps, n_sents, masked, dim=4):
        """Step-major states of ``n_sents`` sentences, more than are pooled;
        picks into them, out of order and with a repeated sentence; one
        context. Unmasked, every sentence is ``steps`` long."""
        rng = np.random.default_rng(seed)
        lens = rng.integers(1, steps + 1, n_sents) if masked else np.full(n_sents, steps)
        states = Tensor(rng.uniform(-2, 2, (dim, steps * n_sents)))
        sel = rng.permutation(n_sents)[:n_sents - 1]
        sel[-1] = sel[0]
        w = Tensor(rng.uniform(-1, 1, (dim, dim)))
        u = Tensor(rng.uniform(-1, 1, (dim, 1)))
        return states, lens, sel, w, u

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("masked", [True, False])
    def test_gathered_columns_match_oracle(self, seed, masked):
        """``pool_words`` over the ``keyed_rows`` of shared states equals the
        oracle pool of the picked sentences' columns, gradients summed over
        the repeat."""
        rng = np.random.default_rng(120 + seed)
        steps, n_sents = int(rng.integers(1, 7)), int(rng.integers(3, 6))
        states, lens, sel, w, u = self.gathered(seed, steps, n_sents, masked)
        picked = lens[sel]
        top = int(picked.max())
        cols = (np.arange(top)[:, None] * n_sents + sel).reshape(-1)
        mask = (np.arange(top)[:, None] < picked).astype(float)
        tensors = [states, w, u]
        got, got_g = taped_grads(
            lambda: [enc.pool_words(*enc.keyed_rows(states, w), lens, sel, u)], tensors)
        want, want_g = taped_grads(lambda: [oracle.attentive_pool_steps(
            nd.take_cols(states, cols), top, w, u, mask if masked else None)[0]], tensors)
        for g, wv in zip(got + got_g, want + want_g):
            npt.assert_allclose(g, wv, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("masked", [True, False])
    def test_gathered_columns_grad_check(self, masked):
        states, lens, sel, w, u = self.gathered(58, 4, 4, masked, dim=3)
        weights = Tensor(np.random.default_rng(59).uniform(-1, 1, (3, 3)))

        def loss():
            return tsum(enc.pool_words(*enc.keyed_rows(states, w), lens, sel, u) * weights)

        report = grad_check(loss, [("states", states), ("w", w), ("u", u)])
        assert report.ok, report.failures()

    def test_fully_masked_column_rejected(self):
        states, w, u, mask = self.setup(52, 3, 2)
        mask[:, 1] = 0.0
        with pytest.raises(DomainError):
            enc.attentive_pool_steps(states, 3, w, u, mask)

    def test_context_size_checked(self):
        states, w, _, _ = self.setup(53, 3, 2)
        with pytest.raises(ShapeError):
            enc.attentive_pool_steps(states, 3, w, Tensor(np.zeros(5)))

    def test_context_columns_must_be_one_or_the_batch(self):
        states, w, _, _ = self.setup(57, 3, 4)
        enc.attentive_pool_steps(states, 3, w, Tensor(np.zeros((4, 4))))
        for cols in (2, 3, 5):
            with pytest.raises(ShapeError, match="4 sequences"):
                enc.attentive_pool_steps(states, 3, w, Tensor(np.zeros((4, cols))))


class TestWordPool:
    """``keyed_rows`` once over shared states, then ``pool_words`` per set of
    sentences, against ``attentive_pool_steps`` over each set's own columns."""

    def setup(self, seed, dim=4):
        rng = np.random.default_rng(seed)
        lens = rng.integers(1, 5, 6)
        steps = int(lens.max())
        states = Tensor(rng.uniform(-2, 2, (dim, steps * len(lens))))
        w = Tensor(rng.uniform(-1, 1, (dim, dim)))
        contexts = [Tensor(rng.uniform(-1, 1, (dim, 1))) for _ in range(2)]
        return lens, states, w, contexts

    def pooled(self, lens, states, w, contexts, picks, split):
        if split:
            rows, keys = enc.keyed_rows(states, w)
            return [enc.pool_words(rows, keys, lens, sel, u)
                    for sel, u in zip(picks, contexts)]
        out = []
        for sel, u in zip(picks, contexts):
            steps = int(lens[sel].max())
            cols = (np.arange(steps)[:, None] * len(lens) + sel).reshape(-1)
            mask = (np.arange(steps)[:, None] < lens[sel][None, :]).astype(float)
            out.append(enc.attentive_pool_steps(nd.take_cols(states, cols), steps, w, u,
                                                None if mask.all() else mask)[0])
        return out

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_fused_pool(self, seed):
        lens, states, w, contexts = self.setup(seed)
        # Overlapping picks, in another order than the scan's.
        picks = [np.array([4, 1, 2]), np.array([2, 0, 5, 3])]
        tensors = [states, w, *contexts]
        got, got_g = taped_grads(
            lambda: self.pooled(lens, states, w, contexts, picks, True), tensors)
        want, want_g = taped_grads(
            lambda: self.pooled(lens, states, w, contexts, picks, False), tensors)
        for g, wv in zip(got + got_g, want + want_g):
            npt.assert_allclose(g, wv, rtol=0, atol=1e-12)
        free = self.pooled(lens, states, w, contexts, picks, True)
        for g, f in zip(got, free):
            npt.assert_array_equal(g, f.data)

    def test_grad_check(self):
        lens, states, w, contexts = self.setup(7, dim=3)
        weights = Tensor(np.random.default_rng(8).uniform(-1, 1, (3, 3)))
        picks = [np.array([5, 0, 3]), np.array([1, 1, 4])]  # a repeated sentence

        def loss():
            total = None
            for pooled in self.pooled(lens, states, w, contexts, picks, True):
                term = tsum(pooled * weights)
                total = term if total is None else total + term
            return total

        report = grad_check(loss, [("states", states), ("w", w), ("u0", contexts[0]),
                                   ("u1", contexts[1])])
        assert report.ok, report.failures()

    def test_shapes_checked(self):
        lens, states, w, contexts = self.setup(9)
        with pytest.raises(ShapeError, match="attention weights"):
            enc.attentive_pool_steps(states, int(lens.max()), Tensor(np.zeros((3, 4))),
                                     contexts[0])
        with pytest.raises(ShapeError):
            enc.keyed_rows(states, Tensor(np.zeros((3, 4))))
        rows, keys = enc.keyed_rows(states, w)
        with pytest.raises(ShapeError):
            enc.pool_words(rows, keys, lens, np.array([0]), Tensor(np.zeros((4, 2))))
        with pytest.raises(ShapeError):
            enc.pool_words(rows, states, lens, np.array([0]), contexts[0])
