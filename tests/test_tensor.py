import itertools
import math
import os
import signal
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import erf

from alignfuse import tensor
from alignfuse.errors import (
    ContractError,
    DegenerateInputError,
    DimensionError,
    NumericError,
)
from alignfuse.tensor import (
    LN_EPS,
    NEG_MASK_BIAS,
    RngStream,
    Tensor,
    attention,
    attention_sublayer,
    concat,
    cross_entropy,
    ffn_sublayer,
    finite_diff_check,
    layer_norm,
    linear,
    no_grad,
    softmax,
    unit_rows,
    weighted_square_error,
)


def rand_tensor(shape, seed=0, requires_grad=True):
    rng = np.random.Generator(np.random.PCG64(seed))
    return Tensor(rng.normal(size=shape), requires_grad=requires_grad)


def layer_norm_composition(x, gamma, beta):
    """Layer norm as the 12-node composition of engine ops that the one-node
    `layer_norm` replaced: the oracle for its values and gradients."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    xhat = centered * (var + LN_EPS) ** -0.5
    return xhat * gamma + beta


def linear_composition(x, w, b=None):
    """`x @ w (+ b)` as the matmul and add nodes that the one-node `linear`
    replaced: the oracle for its values and gradients."""
    return x @ w if b is None else x @ w + b


def attention_composition(q, k, v, n_heads, key_mask=None):
    """Multi-head attention as the reshape, transpose, scale, matmul and
    softmax nodes that the one-node `attention` replaced, with pad keys of
    the (B, Nkv) `key_mask` under a (B, 1, 1, Nkv) bias: the oracle for its
    values and gradients."""
    (b, n_q, d), n_kv = q.shape, k.shape[1]
    dh = d // n_heads
    qh = (q * (1.0 / math.sqrt(dh))).reshape(b, n_q, n_heads, dh).transpose(0, 2, 1, 3)
    kt = k.reshape(b, n_kv, n_heads, dh).transpose(0, 2, 3, 1)
    vh = v.reshape(b, n_kv, n_heads, dh).transpose(0, 2, 1, 3)
    scores = qh @ kt
    if key_mask is not None:
        scores = scores + np.where(key_mask, 0.0, NEG_MASK_BIAS)[:, None, None, :]
    return (softmax(scores, axis=-1) @ vh).transpose(0, 2, 1, 3).reshape(b, n_q, d)


def attention_sublayer_composition(x, norm, maps, n_heads, key_mask=None, ctx=None,
                                   record=None, cls_only=False):
    """The pre-norm attention sublayer and its residual as the layer_norm,
    linear, attention, slice and add nodes that the one-node
    `attention_sublayer` replaced: the oracle for its values and gradients,
    bit for bit."""
    wq, bq, wk, wv, bv, wo, bo = maps
    u = layer_norm(x, *norm)
    kv = u if ctx is None else ctx
    q = linear(u[:, :1] if cls_only else u, wq, bq)
    heads = attention(q, linear(kv, wk), linear(kv, wv, bv), n_heads, key_mask, record)
    return (x[:, :1] if cls_only else x) + linear(heads, wo, bo)


def ffn_sublayer_composition(x, norm, w1, b1, w2, b2):
    """The pre-norm FFN sublayer and its residual as the layer_norm, linear,
    gelu and add nodes that the one-node `ffn_sublayer` replaced: the oracle
    for its values and gradients, bit for bit."""
    return x + linear(linear(layer_norm(x, *norm), w1, b1).gelu(), w2, b2)


def sublayer_weights(d, seed, f=None):
    """(gamma, beta) and the attention maps (wq, bq, wk, wv, bv, wo, bo) of
    width d, or with `f` the FFN maps (w1, b1, w2, b2) of hidden width f."""
    rng = np.random.default_rng(seed)
    norm = (Tensor(rng.uniform(0.5, 1.5, d), requires_grad=True),
            Tensor(rng.normal(size=d), requires_grad=True))
    shapes = ([(d, d), (d,), (d, d), (d, d), (d,), (d, d), (d,)] if f is None
              else [(d, f), (f,), (f, d), (d,)])
    maps = [Tensor(rng.normal(size=s) / math.sqrt(s[0]), requires_grad=True) for s in shapes]
    return norm, maps


def node_and_oracle_grads(node, oracle, inputs, w):
    """[(output, *input grads)] of `node` then `oracle`, each applied to
    `inputs` under the loss sum(output * w)."""
    runs = []
    for f in (node, oracle):
        out = f(*inputs)
        (out * w).sum().backward()
        runs.append((out.data, *(t.grad for t in inputs)))
        for t in inputs:
            t.grad = None
    return runs


def assert_matches_oracle(runs):
    """Outputs within 1e-12; gradients within 1e-9 of the oracle's largest
    entry, floored at 1e-12 for a gradient that is 0 in exact arithmetic
    (q and k with one key), which the node's row dot dO·O leaves at 1e-17."""
    (got_out, *got), (want_out, *want) = runs
    np.testing.assert_allclose(got_out, want_out, rtol=0, atol=1e-12)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=max(1e-9 * np.abs(w).max(), 1e-12))


class TestMatmul:
    def test_identity(self):
        b = rand_tensor((2, 3))
        out = Tensor(np.eye(2)) @ b
        assert np.allclose(out.data, b.data)

    def test_zero(self):
        b = rand_tensor((2, 3))
        out = Tensor(np.zeros((2, 2))) @ b
        assert np.all(out.data == 0)

    def test_hand_case(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal((a @ b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            rand_tensor((2, 3)) @ rand_tensor((2, 3))

    def test_associativity(self):
        a, b, c = (rand_tensor((4, 4), seed=s) for s in (1, 2, 3))
        left = ((a @ b) @ c).data
        right = (a @ (b @ c)).data
        assert np.allclose(left, right, atol=1e-10)

    def test_batched(self):
        a = rand_tensor((3, 4, 5), seed=4)
        b = rand_tensor((3, 5, 2), seed=5)
        out = a @ b
        assert out.shape == (3, 4, 2)
        assert np.allclose(out.data, a.data @ b.data)

    def test_batched_rows_times_weight_finite_difference(self):
        x = rand_tensor((3, 4, 5), seed=6)
        w = rand_tensor((5, 2), seed=7)
        c = Tensor(np.random.default_rng(8).normal(size=(3, 4, 2)))
        assert finite_diff_check(lambda t: ((x @ t) * c).sum(), w) < 1e-6
        assert finite_diff_check(lambda t: ((t @ w) * c).sum(), x) < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(b=st.integers(1, 4), n=st.integers(1, 5), d=st.integers(1, 6),
           k=st.integers(1, 6), seed=st.integers(0, 2**16))
    def test_batched_weight_grad_matches_per_row_sum(self, b, n, d, k, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(b, n, d)), requires_grad=True)
        w = Tensor(rng.normal(size=(d, k)), requires_grad=True)
        c = rng.normal(size=(b, n, k))
        ((x @ w) * Tensor(c)).sum().backward()
        np.testing.assert_allclose(w.grad, np.einsum("bnd,bnk->dk", x.data, c),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(x.grad, c @ w.data.T, rtol=1e-12, atol=1e-12)


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_shift_invariance(self):
        for c in (-3.0, 0.0, 17.5):
            out = softmax(Tensor([c, c, c]))
            assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_reference_values(self):
        # frozen from direct evaluation: e^x_i / sum e^x_j for x=[1,2,3]
        denom = math.exp(1) + math.exp(2) + math.exp(3)
        expected = [math.exp(k) / denom for k in (1, 2, 3)]
        out = softmax(Tensor([1.0, 2.0, 3.0]))
        assert np.allclose(out.data, expected, atol=1e-15)
        assert np.allclose(out.data, [0.0900, 0.2447, 0.6652], atol=5e-5)

    def test_rows_sum_to_one(self):
        x = rand_tensor((6, 9), seed=7)
        out = softmax(x, axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_large_logits_stable(self):
        out = softmax(Tensor([1000.0, 1000.0, 999.0]))
        assert np.isfinite(out.data).all()


class TestLayerNorm:
    def test_constant_vector(self):
        g = Tensor(np.ones(4))
        b = Tensor(np.zeros(4))
        out = layer_norm(Tensor([3.0, 3.0, 3.0, 3.0]), g, b)
        assert np.allclose(out.data, 0.0, atol=1e-6)

    def test_gamma_zero_collapses_to_beta(self):
        g = Tensor(np.zeros(4))
        b = Tensor(np.full(4, 2.5))
        out = layer_norm(rand_tensor((3, 4)), g, b)
        assert np.allclose(out.data, 2.5)

    def test_standardizes(self):
        x = rand_tensor((8,), seed=11)
        out = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        assert abs(out.data.mean()) < 1e-10
        assert np.isclose(out.data.var(), 1.0, atol=1e-4)

    def test_mismatched_affine(self):
        with pytest.raises(DimensionError):
            layer_norm(rand_tensor((3, 4)), Tensor(np.ones(5)), Tensor(np.zeros(5)))

    def test_is_one_node(self):
        x, g, b = (rand_tensor(shape, seed=s) for s, shape in enumerate([(2, 3, 4), (4,), (4,)]))
        assert layer_norm(x, g, b)._prev == (x.node, g.node, b.node)

    # finite_diff_check's error is relative per entry, so on an entry near 0 it
    # is rounding noise: the x gradient is held to the oracle instead (its
    # differences read up to 1e-3 on 2-wide rows), and the examples are fixed
    # (derandomize) because a redrawn gamma entry can come near 0 by chance
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(lead=st.lists(st.integers(1, 3), min_size=1, max_size=3), n=st.integers(1, 16),
           constant=st.booleans(), seed=st.integers(0, 2**16))
    def test_matches_composition(self, lead, n, constant, seed):
        rng = np.random.default_rng(seed)
        xs = rng.normal(size=(*lead, n))
        if constant:  # every second row has zero variance
            rows = xs.reshape(-1, n)
            rows[1::2] = rows[1::2, :1]
        x = Tensor(xs, requires_grad=True)
        g, b = (Tensor(rng.normal(size=n), requires_grad=True) for _ in range(2))
        w = rng.uniform(0.5, 1.5, size=xs.shape)
        grads = []
        for ln in (layer_norm, layer_norm_composition):
            out = ln(x, g, b)
            (out * w).sum().backward()
            grads.append((out.data, x.grad, g.grad, b.grad))
            x.grad = g.grad = b.grad = None
        np.testing.assert_allclose(grads[0][0], grads[1][0], rtol=0, atol=1e-12)
        for got, want in zip(grads[0][1:], grads[1][1:]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * np.abs(want).max())
        # weights of xhat's sign keep the gamma gradient clear of 0 by cancellation
        wg = w * np.sign(layer_norm(x, Tensor(np.ones(n)), Tensor(np.zeros(n))).data)
        assert finite_diff_check(lambda t: (layer_norm(x, t, b) * wg).sum(), g) < 1e-6
        assert finite_diff_check(lambda t: (layer_norm(x, g, t) * w).sum(), b) < 1e-6


class TestLinear:
    def test_is_one_node(self):
        x, w, b = (rand_tensor(shape, seed=s) for s, shape in enumerate([(2, 3, 4), (4, 5), (5,)]))
        assert linear(x, w, b)._prev == (x.node, w.node, b.node)
        assert linear(x, w)._prev == (x.node, w.node)

    @pytest.mark.parametrize("shapes", [[(3, 4), (5, 2), (2,)], [(3, 4), (4,), None],
                                        [(3, 4), (4, 2), (3,)]])
    def test_mismatched_shapes(self, shapes):
        x, w, b = (None if s is None else rand_tensor(s) for s in shapes)
        with pytest.raises(DimensionError):
            linear(x, w, b)

    def test_finite_differences(self):
        x, w, b = (rand_tensor(shape, seed=s) for s, shape in enumerate([(2, 3, 4), (4, 5), (5,)]))
        c = rand_tensor((2, 3, 5), seed=3, requires_grad=False)
        assert finite_diff_check(lambda t: (linear(t, w, b) * c).sum(), x) < 1e-6
        assert finite_diff_check(lambda t: (linear(x, t, b) * c).sum(), w) < 1e-6
        assert finite_diff_check(lambda t: (linear(x, w, t) * c).sum(), b) < 1e-6

    def test_constant_input_gets_no_gradient(self):
        # the patch embedding's x requires no grad: its (2, 4096, 64) input
        # gradient, 4.2 MB, is not computed and then dropped
        x = rand_tensor((2, 4096, 64), requires_grad=False)
        w, b = rand_tensor((64, 1), seed=1), rand_tensor((1,), seed=2)
        loss = linear(x, w, b).sum()
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert w.grad.shape == (64, 1) and b.grad.shape == (1,)

    @settings(max_examples=60, deadline=None)
    @given(lead=st.lists(st.integers(1, 3), min_size=1, max_size=3), d_in=st.integers(1, 6),
           d_out=st.integers(1, 6), bias=st.booleans(), seed=st.integers(0, 2**16))
    def test_matches_composition(self, lead, d_in, d_out, bias, seed):
        rng = np.random.default_rng(seed)
        inputs = [Tensor(rng.normal(size=shape), requires_grad=True)
                  for shape in [(*lead, d_in), (d_in, d_out), (d_out,)][:3 if bias else 2]]
        w = rng.uniform(0.5, 1.5, size=(*lead, d_out))
        assert_matches_oracle(node_and_oracle_grads(linear, linear_composition, inputs, w))


class TestAttention:
    def test_is_one_node(self):
        q, k, v = (rand_tensor(shape, seed=s) for s, shape in enumerate([(2, 3, 4), (2, 5, 4),
                                                                           (2, 5, 4)]))
        assert attention(q, k, v, 2)._prev == (q.node, k.node, v.node)

    @pytest.mark.parametrize("shapes,n_heads", [
        ([(2, 3, 4), (2, 5, 4), (2, 5, 4)], 3),
        ([(2, 3, 4), (2, 5, 4), (2, 4, 4)], 2),
        ([(2, 3, 4), (1, 5, 4), (1, 5, 4)], 2),
        ([(2, 3, 4), (2, 5, 6), (2, 5, 6)], 2)])
    def test_mismatched_shapes(self, shapes, n_heads):
        q, k, v = (rand_tensor(s) for s in shapes)
        with pytest.raises(DimensionError):
            attention(q, k, v, n_heads)

    def test_key_mask_of_other_shape(self):
        q, k, v = (rand_tensor((2, 3, 4), seed=s) for s in range(3))
        for real in (np.ones((2, 4), dtype=bool), np.ones((1, 3), dtype=bool)):
            with pytest.raises(DimensionError):
                attention(q, k, v, 2, real)

    def test_key_mask_is_any_bool_array_like(self):
        q, k, v = (rand_tensor((1, 3, 4), seed=s) for s in range(3))
        want = attention(q, k, v, 2, np.array([[True, True, False]])).data
        assert attention(q, k, v, 2, key_mask=[[True, True, False]]).data.tobytes() == \
            want.tobytes()
        for mask in ([[1, 1, 0]], np.ones((1, 3))):
            with pytest.raises(DimensionError, match="bool"):
                attention(q, k, v, 2, mask)

    def test_all_real_mask_gives_the_unmasked_bits(self):
        q, k, v = (rand_tensor((2, 3, 4), seed=s) for s in range(3))
        g = rand_tensor((2, 3, 4), seed=3, requires_grad=False).data
        runs = []
        for real in (None, np.ones((2, 3), dtype=bool)):
            leaves = [Tensor(t.data, requires_grad=True) for t in (q, k, v)]
            rec = []
            out = attention(*leaves, 2, real, rec)
            out.node._backward(g)
            runs.append([out.data, *rec, *(t.grad for t in leaves)])
        for got, want in zip(*runs):
            assert got.tobytes() == want.tobytes()

    def test_records_probabilities_with_pad_keys_at_zero(self):
        q, k, v = (rand_tensor((2, 5, 4), seed=s) for s in range(3))
        real = np.array([[True] * 5, [True, True, False, True, False]])
        rec = []
        attention(q, k, v, 2, real, rec)
        (probs,) = rec
        assert probs.shape == (2, 2, 5, 5)
        assert np.all(np.abs(probs.sum(axis=-1) - 1.0) <= 1e-9)
        assert np.all(probs[1][:, :, ~real[1]] == 0.0)

    def test_backward_writes_into_no_input(self):
        # with one head the per-head arrays are views of q, k and v
        q, k, v = (rand_tensor((2, 4, 3), seed=s) for s in range(3))
        rec = []
        out = attention(q, k, v, 1, record=rec)
        probs = rec[0].copy()
        g = rand_tensor(out.shape, seed=4, requires_grad=False).data
        for a in (q.data, k.data, v.data, g, rec[0]):
            a.flags.writeable = False
        out.node._backward(g)
        assert np.array_equal(rec[0], probs)

    def test_finite_differences(self):
        q, k, v = (rand_tensor((2, 3, 4), seed=s) for s in range(3))
        real = np.array([[True, True, True], [True, False, True]])
        c = rand_tensor((2, 3, 4), seed=3, requires_grad=False)
        assert finite_diff_check(lambda t: (attention(t, k, v, 2, real) * c).sum(), q) < 1e-6
        assert finite_diff_check(lambda t: (attention(q, t, v, 2, real) * c).sum(), k) < 1e-6
        assert finite_diff_check(lambda t: (attention(q, k, t, 2, real) * c).sum(), v) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(b=st.integers(1, 3), n_q=st.integers(1, 5), n_kv=st.integers(1, 5),
           n_heads=st.integers(1, 3), dh=st.integers(1, 4), pads=st.booleans(),
           shared=st.booleans(), seed=st.integers(0, 2**16))
    def test_matches_composition(self, b, n_q, n_kv, n_heads, dh, pads, shared, seed):
        rng = np.random.default_rng(seed)
        d = n_heads * dh
        if shared:  # self-attention: one tensor is queries, keys and values
            n_kv = n_q
            inputs = [Tensor(rng.normal(size=(b, n_q, d)), requires_grad=True)]
            node = lambda x: attention(x, x, x, n_heads, real)
            oracle = lambda x: attention_composition(x, x, x, n_heads, real)
        else:
            inputs = [Tensor(rng.normal(size=(b, n, d)), requires_grad=True)
                      for n in (n_q, n_kv, n_kv)]
            node = lambda q, k, v: attention(q, k, v, n_heads, real)
            oracle = lambda q, k, v: attention_composition(q, k, v, n_heads, real)
        real = None
        if pads:  # key 0 stays real, as [CLS] does
            real = rng.random((b, n_kv)) < 0.6
            real[:, 0] = True
        w = rng.uniform(0.5, 1.5, size=(b, n_q, d))
        assert_matches_oracle(node_and_oracle_grads(node, oracle, inputs, w))

    def run_node(self, inputs, n_heads, real, record, g):
        """Output, input gradients and recorded probabilities of one node
        over fresh leaves of `inputs` (one array: shared self-attention)."""
        leaves = [Tensor(a, requires_grad=True) for a in inputs]
        rec = [] if record else None
        out = attention(*(leaves * 3 if len(leaves) == 1 else leaves), n_heads, real, rec)
        out.node._backward(g)
        return [out.data, *(t.grad for t in leaves), *(rec or [])]

    @settings(max_examples=80, deadline=None)
    @given(b=st.integers(1, 3), n_q=st.integers(1, 6), n_kv=st.integers(1, 6),
           n_heads=st.integers(1, 3), dh=st.integers(1, 4), pads=st.booleans(),
           shared=st.booleans(), record=st.booleans(), data=st.data(),
           seed=st.integers(0, 2**16))
    def test_tiles_give_the_one_tile_bits(self, b, n_q, n_kv, n_heads, dh, pads, shared,
                                          record, data, seed):
        assume(b * n_heads >= 2)
        rng = np.random.default_rng(seed)
        d = n_heads * dh
        n_kv = n_q if shared else n_kv
        inputs = [rng.normal(size=(b, n, d)) for n in ((n_q,) if shared else (n_q, n_kv, n_kv))]
        real = None
        if pads:  # key 0 stays real, as [CLS] does
            real = rng.random((b, n_kv)) < 0.6
            real[:, 0] = True
        g = rng.normal(size=(b, n_q, d))
        one_tile = self.run_node(inputs, n_heads, real, record, g)
        # fewer slices per tile than the node has, the last tile ragged when
        # they do not divide it, and budgets that are not a whole slice
        per_tile = data.draw(st.integers(1, b * n_heads - 1))
        slack = data.draw(st.integers(0, 8 * n_q * n_kv - 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor, "ATTENTION_TILE_BYTES", per_tile * 8 * n_q * n_kv + slack)
            mp.setattr(tensor, "TILE_WORKERS", data.draw(st.sampled_from([1, 2, 3, 4])))
            tiled = self.run_node(inputs, n_heads, real, record, g)
        assert len(tiled) == len(one_tile)
        for got, want in zip(tiled, one_tile):
            assert np.array_equal(got, want)
        leaves = [Tensor(a, requires_grad=True) for a in inputs]
        out = attention_composition(*(leaves * 3 if shared else leaves), n_heads, real)
        (out * Tensor(g)).sum().backward()
        assert_matches_oracle([tiled[:1 + len(leaves)], [out.data, *(t.grad for t in leaves)]])

    def test_finite_differences_in_tiles(self, monkeypatch):
        monkeypatch.setattr(tensor, "ATTENTION_TILE_BYTES", 8)  # one head slice per tile
        self.test_finite_differences()

    def test_tiled_backward_writes_into_no_input(self, monkeypatch):
        # one head: the per-head k, v and g are views of the inputs; three tiles
        monkeypatch.setattr(tensor, "ATTENTION_TILE_BYTES", 8 * 4 * 4)
        q, k, v = (rand_tensor((3, 4, 3), seed=s) for s in range(3))
        out = attention(q, k, v, 1, np.array([[True, False, True, True]] * 3))
        g = rand_tensor(out.shape, seed=4, requires_grad=False).data
        before = [a.copy() for a in (q.data, k.data, v.data, g)]
        for a in (q.data, k.data, v.data, g):
            a.flags.writeable = False
        out.node._backward(g)
        for a, was in zip((q.data, k.data, v.data, g), before):
            assert np.array_equal(a, was)
        assert all(t.grad is not None for t in (q, k, v))

    @pytest.mark.parametrize("fail_at", [1, 4], ids=["forward", "backward"])
    def test_error_in_a_tile_comes_out_and_the_next_node_works(self, monkeypatch, fail_at):
        # three one-slice tiles on two workers (the budget holds two slices):
        # the exps of calls 0-2 are the forward's, those of calls 3-5 the
        # backward's recompute
        monkeypatch.setattr(tensor, "ATTENTION_TILE_BYTES", 2 * 8 * 4 * 4)
        monkeypatch.setattr(tensor, "TILE_WORKERS", 2)
        q, k, v = (rand_tensor((3, 4, 2), seed=s) for s in range(3))
        g = rand_tensor((3, 4, 2), seed=3, requires_grad=False).data
        want = self.run_node([q.data, k.data, v.data], 1, None, False, g)

        class TileError(Exception):
            pass
        calls, exp = itertools.count(), np.exp

        def failing_exp(*args, **kwargs):
            if next(calls) == fail_at:
                raise TileError
            return exp(*args, **kwargs)
        with pytest.MonkeyPatch.context() as mp, pytest.raises(TileError):
            mp.setattr(np, "exp", failing_exp)
            self.run_node([q.data, k.data, v.data], 1, None, False, g)
        got = self.run_node([q.data, k.data, v.data], 1, None, False, g)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_forked_child_runs_tiles(self, monkeypatch):
        # the child inherits the parent's pool object but none of its threads;
        # three one-slice tiles on two workers
        monkeypatch.setattr(tensor, "ATTENTION_TILE_BYTES", 2 * 8 * 4 * 4)
        monkeypatch.setattr(tensor, "TILE_WORKERS", 2)
        q = rand_tensor((3, 4, 2), requires_grad=False)
        want = attention(q, q, q, 1).data
        pid = os.fork()
        if pid == 0:  # the child reports by exit status and never returns to pytest
            code = 1
            try:
                signal.alarm(20)  # a hang ends in SIGALRM
                code = 0 if attention(q, q, q, 1).data.tobytes() == want.tobytes() else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    # a 513-token image self-attention of the bigvol shape, whose (B, h, N, N)
    # probabilities alone are 33.7 MB
    BIG, BIG_HEADS = (4, 513, 64), 4
    BIG_PROBS_BYTES = 8 * 4 * 4 * 513 * 513

    def test_forward_retains_no_probabilities(self):
        q, k, v = (rand_tensor(self.BIG, seed=s) for s in range(3))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = attention(q, k, v, self.BIG_HEADS)
            retained = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
        # the per-head q, k and v it keeps are O(B·N·d); one tile of scores is allowed
        assert retained < tensor.ATTENTION_TILE_BYTES + 4 * q.data.nbytes
        assert retained < self.BIG_PROBS_BYTES

    def test_one_tile_forward_retains_no_probabilities(self):
        # 32 head slices whose 4.3 MB of probabilities fit the budget: one tile
        q, k, v = (rand_tensor((8, 129, 64), seed=s) for s in range(3))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = attention(q, k, v, 4)
            retained = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert 8 * 8 * 4 * 129 * 129 > 4 * q.data.nbytes
        # the per-head q, k and v and each row's max and sum
        assert retained < 4 * q.data.nbytes

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 8])
    def test_tiles_match_the_budget_on_any_worker_count(self, monkeypatch, workers):
        # 8 MiB holds three 2.1 MB slices: one tile of three on one worker,
        # else one-slice tiles on at most three workers
        monkeypatch.setattr(tensor, "TILE_WORKERS", workers)
        runs, each_tile = [], tensor._each_tile

        def spy(body, tiles, n):
            runs.append(([len(range(16)[t]) for t in tiles], min(n, workers)))
            each_tile(body, tiles, n)
        monkeypatch.setattr(tensor, "_each_tile", spy)
        q = rand_tensor(self.BIG)
        attention(q, q, q, self.BIG_HEADS).node._backward(np.ones(self.BIG))
        want = ([3, 3, 3, 3, 3, 1] if workers == 1 else [1] * 16, min(workers, 3))
        assert runs == [want, want]

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 8])
    def test_tiles_in_flight_share_the_budget(self, monkeypatch, workers):
        # undivided, eight workers would hold 16.8 MB of scores at once
        monkeypatch.setattr(tensor, "TILE_WORKERS", workers)
        q, k, v = (rand_tensor(self.BIG, seed=s) for s in range(3))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            attention(q, k, v, self.BIG_HEADS)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # beside the scores: the scaled q, the per-head q, k and v, and the
        # output heads, each the size of q
        assert peak - 5 * q.data.nbytes < tensor.ATTENTION_TILE_BYTES

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 8])
    def test_backward_tiles_in_flight_share_twice_the_budget(self, monkeypatch, workers):
        # a backward tile holds its probabilities and their gradient
        monkeypatch.setattr(tensor, "TILE_WORKERS", workers)
        q, k, v = (rand_tensor(self.BIG, seed=s) for s in range(3))
        g = rand_tensor(self.BIG, seed=3, requires_grad=False).data
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = attention(q, k, v, self.BIG_HEADS)
            kept = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            out.node._backward(g)
            peak = tracemalloc.get_traced_memory()[1] - before - kept
        finally:
            tracemalloc.stop()
        # beside the tiles: the per-head g and the per-head gradients of q, k
        # and v, each the size of q
        assert peak - 4 * q.data.nbytes < 2 * tensor.ATTENTION_TILE_BYTES

    def test_peak_is_below_one_probability_array(self):
        q, k, v = (rand_tensor(self.BIG, seed=s) for s in range(3))
        g = rand_tensor(self.BIG, seed=3, requires_grad=False).data
        tracemalloc.start()
        try:
            attention(q, k, v, self.BIG_HEADS).node._backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.BIG_PROBS_BYTES


class TestAttentionSublayer:
    def test_edges(self):
        x, ctx = rand_tensor((2, 3, 4)), rand_tensor((2, 5, 4), seed=1)
        norm, maps = sublayer_weights(4, seed=2)
        wq, bq, wk, wv, bv, wo, bo = (t.node for t in maps)
        # x takes the residual edge, then the norm's
        out = attention_sublayer(x, norm, maps, 2)
        assert out._prev == (x.node, x.node, *(t.node for t in norm), *(t.node for t in maps))
        # keys and values each take an edge into ctx, in the order k, v
        out = attention_sublayer(x, norm, maps, 2, ctx=ctx)
        assert out._prev == (x.node, x.node, *(t.node for t in norm), wq, bq, ctx.node, wk,
                             ctx.node, wv, bv, wo, bo)

    @pytest.mark.parametrize("cross", [False, True], ids=["self", "cross"])
    def test_finite_differences(self, cross):
        x, ctx = rand_tensor((2, 3, 4)), rand_tensor((2, 5, 4), seed=1)
        norm, maps = sublayer_weights(4, seed=2)
        real = np.array([[True] * 5, [True, False, True, True, False]])
        c = rand_tensor((2, 3, 4), seed=3, requires_grad=False)

        def loss(_):
            if cross:
                return (attention_sublayer(x, norm, maps, 2, real, ctx=ctx) * c).sum()
            return (attention_sublayer(x, norm, maps, 2, real[:, :3]) * c).sum()
        # the error is relative per entry: a bv gradient entry of 6e-5 reads 2e-6
        # of rounding noise at step 1e-5; every other tensor reads below 3e-8
        for t in (x, *((ctx,) if cross else ()), *norm, *maps):
            assert finite_diff_check(loss, t) < 1e-5

    @settings(max_examples=80, deadline=None)
    @given(b=st.integers(1, 3), n=st.integers(1, 5), n_ctx=st.integers(1, 5),
           n_heads=st.integers(1, 3), dh=st.integers(1, 3), pads=st.booleans(),
           cross=st.booleans(), cls_only=st.booleans(), record=st.booleans(),
           per_tile=st.sampled_from([None, 1, 2]), seed=st.integers(0, 2**16))
    def test_matches_composition_bitwise(self, b, n, n_ctx, n_heads, dh, pads, cross, cls_only,
                                         record, per_tile, seed):
        rng = np.random.default_rng(seed)
        d = n_heads * dh
        x = Tensor(rng.normal(size=(b, n, d)), requires_grad=True)
        ctx = Tensor(rng.normal(size=(b, n_ctx, d)), requires_grad=True) if cross else None
        norm, maps = sublayer_weights(d, seed)
        n_kv = n_ctx if cross else n
        real = None
        if pads:  # key 0 stays real, as [CLS] does
            real = rng.random((b, n_kv)) < 0.6
            real[:, 0] = True
        n_q = 1 if cls_only else n
        w = rng.uniform(0.5, 1.5, size=(b, n_q, d))
        leaves = [x, *((ctx,) if cross else ()), *norm, *maps]
        runs = []
        for f in (attention_sublayer, attention_sublayer_composition):
            rec = [] if record else None
            with pytest.MonkeyPatch.context() as mp:
                if per_tile is not None:  # tiles of per_tile head slices, unless record
                    mp.setattr(tensor, "ATTENTION_TILE_BYTES", per_tile * 8 * n_q * n_kv)
                out = f(x, norm, maps, n_heads, real, ctx=ctx, record=rec, cls_only=cls_only)
                (out * w).sum().backward()
            runs.append([out.data, *(rec or []), *(t.grad for t in leaves)])
            for t in leaves:
                t.grad = None
        assert len(runs[0]) == len(runs[1])
        for got, want in zip(*runs):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_list_key_mask(self):
        x = rand_tensor((1, 3, 4))
        norm, maps = sublayer_weights(4, seed=1)
        want = attention_sublayer(x, norm, maps, 2, np.array([[True, True, False]])).data
        got = attention_sublayer(x, norm, maps, 2, [[True, True, False]]).data
        assert got.tobytes() == want.tobytes()
        with pytest.raises(DimensionError, match="bool"):
            attention_sublayer(x, norm, maps, 2, [[1, 1, 0]])

    def test_mismatched_maps(self):
        norm, maps = sublayer_weights(4, seed=1)
        with pytest.raises(DimensionError):
            attention_sublayer(rand_tensor((1, 3, 6)), norm, maps, 2)
        with pytest.raises(DimensionError):
            attention_sublayer(rand_tensor((1, 3, 4)), norm, maps, 2, ctx=rand_tensor((1, 2, 6)))


class TestFFNSublayer:
    def test_edges(self):
        x = rand_tensor((2, 3, 4))
        norm, maps = sublayer_weights(4, seed=1, f=8)
        out = ffn_sublayer(x, norm, *maps)  # x takes the residual edge, then the norm's
        assert out._prev == (x.node, x.node, *(t.node for t in norm), *(t.node for t in maps))

    def test_finite_differences(self):
        x = rand_tensor((2, 3, 4))
        norm, maps = sublayer_weights(4, seed=1, f=8)
        c = rand_tensor((2, 3, 4), seed=2, requires_grad=False)
        for t in (x, *norm, *maps):
            assert finite_diff_check(lambda _: (ffn_sublayer(x, norm, *maps) * c).sum(), t) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(lead=st.lists(st.integers(1, 3), min_size=1, max_size=3), d=st.integers(1, 6),
           f=st.integers(1, 12), seed=st.integers(0, 2**16))
    def test_matches_composition_bitwise(self, lead, d, f, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(*lead, d)), requires_grad=True)
        norm, maps = sublayer_weights(d, seed, f=f)
        w = rng.uniform(0.5, 1.5, size=(*lead, d))
        runs = node_and_oracle_grads(lambda x, *p: ffn_sublayer(x, p[:2], *p[2:]),
                                     lambda x, *p: ffn_sublayer_composition(x, p[:2], *p[2:]),
                                     [x, *norm, *maps], w)
        for got, want in zip(*runs):
            assert got.tobytes() == want.tobytes()

    def test_mismatched_maps(self):
        norm, maps = sublayer_weights(4, seed=1, f=8)
        with pytest.raises(DimensionError):
            ffn_sublayer(rand_tensor((1, 3, 4)), norm, maps[2], maps[1], maps[0], maps[3])

    # the FFN of a 513-token image block at the bigvol shape, where each
    # (…, f) array, Φ(h) among them, is 4.2 MB
    BIG, BIG_F = (4, 513, 64), 256
    BIG_HIDDEN_BYTES = 8 * 4 * 513 * 256

    def test_forward_keeps_no_second_hidden_array(self):
        x = rand_tensor(self.BIG)
        norm, maps = sublayer_weights(self.BIG[-1], seed=1, f=self.BIG_F)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ffn_sublayer(x, norm, *maps)
            retained = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
        # xhat (the size of x), 1/std and Φ(h); the pre-activation h is rebuilt
        assert retained < x.data.nbytes + self.BIG_HIDDEN_BYTES + (1 << 20)

    def test_backward_peak_is_below_three_hidden_arrays(self):
        x = rand_tensor(self.BIG)
        norm, maps = sublayer_weights(self.BIG[-1], seed=1, f=self.BIG_F)
        g = rand_tensor(self.BIG, seed=2, requires_grad=False).data
        out = ffn_sublayer(x, norm, *maps)
        tracemalloc.start()
        try:
            out.node._backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the rebuilt h and the slope, then the slope and the GELU output's gradient
        assert peak < 3 * self.BIG_HIDDEN_BYTES


class TestGeluPrimitives:
    @settings(max_examples=100, deadline=None)
    @given(x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                     max_side=5),
                        elements=st.floats(-1e150, 1e150, allow_nan=False)))
    def test_one_buffer_builds_give_the_expressions_bits(self, x):
        kept = x.copy()
        cdf = tensor._gelu_cdf(x)
        assert cdf.tobytes() == ((erf(x * tensor._INV_SQRT2) + 1.0) * 0.5).tobytes()
        slope = tensor._gelu_slope(x, cdf)
        want = cdf + x * (np.exp(-0.5 * x * x) * tensor._INV_SQRT2PI)
        assert slope.shape == want.shape and slope.tobytes() == want.tobytes()
        assert x.tobytes() == kept.tobytes()


class TestCrossEntropy:
    @pytest.mark.parametrize("bad", [-1, 4])
    def test_target_outside_the_row_is_named(self, bad):
        with pytest.raises(ContractError, match=f"target {bad} "):
            cross_entropy(rand_tensor((2, 4)), [0, bad])

    @pytest.mark.parametrize("targets, named", [([0, 0.7], "0.7"), ([1.0, 2], "1.0"),
                                                ([True, False], "True")])
    def test_non_integer_target_is_named(self, targets, named):
        # a float or bool target would be truncated or cast to a column
        with pytest.raises(ContractError, match=f"target {named} of dtype "):
            cross_entropy(rand_tensor((2, 4)), targets)

    def test_leading_axes_and_scalar_weight(self):
        x = rand_tensor((2, 3, 4), seed=13)
        assert finite_diff_check(
            lambda t: cross_entropy(t, [[0, 1, 2], [3, 3, 0]], 0.5), x) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 6), n=st.integers(1, 7), margin=st.sampled_from([1.0, 1e3]),
           seed=st.integers(0, 2**16))
    def test_matches_numpy_reference(self, m, n, margin, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(m, n)) * margin
        targets = rng.integers(0, n, size=m)  # repeats included
        weights = rng.uniform(0.0, 2.0, size=m)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -(weights[:, None] * logp)[np.arange(m), targets].sum()
        x = Tensor(logits, requires_grad=True)
        loss = cross_entropy(x, targets, weights)
        assert np.isclose(loss.item(), expected, rtol=1e-12, atol=1e-12)
        loss.backward()
        onehot = np.eye(n)[targets]
        np.testing.assert_allclose(x.grad, weights[:, None] * (np.exp(logp) - onehot),
                                   rtol=1e-12, atol=1e-12)


def weighted_square_error_composition(pred, target, weights):
    """The neg/add/mul/mul/sum chain that the one-node
    `weighted_square_error` replaced: the oracle for its bits."""
    diff = pred - target
    return (diff * diff * weights).sum()


class TestWeightedSquareError:
    def test_finite_differences(self):
        x = rand_tensor((2, 3, 4), seed=14)
        target = rand_tensor((2, 3, 4), seed=15, requires_grad=False).data
        w = np.random.default_rng(16).uniform(0.0, 2.0, size=(2, 3, 1))
        assert finite_diff_check(lambda t: weighted_square_error(t, target, w), x) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(lead=st.lists(st.integers(1, 3), min_size=1, max_size=3), n=st.integers(1, 8),
           row_weights=st.booleans(), zeros=st.booleans(),
           upstream=st.floats(-4.0, 4.0, allow_nan=False), seed=st.integers(0, 2**16))
    def test_matches_composition_bitwise(self, lead, n, row_weights, zeros, upstream, seed):
        rng = np.random.default_rng(seed)
        target = rng.normal(size=(*lead, n))
        w = rng.uniform(0.0, 2.0, size=(*lead, 1) if row_weights else (*lead, n))
        if zeros:  # rows of weight 0, as records with no masked patch have
            w[..., ::2, :] = 0.0
        x = Tensor(rng.normal(size=(*lead, n)), requires_grad=True)
        runs = []
        for f in (weighted_square_error, weighted_square_error_composition):
            loss = f(x, target, w)
            (loss * upstream).backward()
            runs.append((loss.data, x.grad))
            x.grad = None
        (got, got_grad), (want, want_grad) = runs
        assert got.tobytes() == want.tobytes()
        assert got_grad.tobytes() == want_grad.tobytes()


# every op built through Tensor._node: its input shapes, and the op itself
NODE_OPS = {
    "add": ([(2, 3), (3,)], lambda a, b: a + b),
    "mul": ([(2, 3), (2, 1)], lambda a, b: a * b),
    "pow": ([(2, 3)], lambda a: a ** 3.0),
    "matmul": ([(2, 3), (3, 4)], lambda a, b: a @ b),
    "neg": ([(2, 3)], lambda a: -a),
    "reshape": ([(2, 3)], lambda a: a.reshape(3, 2)),
    "transpose": ([(2, 3)], lambda a: a.transpose(1, 0)),
    "getitem": ([(2, 3)], lambda a: a[np.array([1, 0, 1])]),
    "sum": ([(2, 3)], lambda a: a.sum(axis=0)),
    "exp": ([(2, 3)], Tensor.exp),
    "log": ([(2, 3)], Tensor.log),
    "sqrt": ([(2, 3)], Tensor.sqrt),
    "relu": ([(2, 3)], Tensor.relu),
    "gelu": ([(2, 3)], Tensor.gelu),
    "concat": ([(2, 3), (1, 3), (2, 3)], lambda *ts: concat(ts, axis=0)),
    "softmax": ([(2, 3)], softmax),
    "cross_entropy": ([(2, 3)], lambda a: cross_entropy(a, [0, 2], [0.5, 2.0])),
    "layer_norm": ([(2, 3), (3,), (3,)], layer_norm),
    "linear": ([(2, 3), (3, 4), (4,)], linear),
    "attention": ([(2, 3, 4), (2, 5, 4), (2, 5, 4)], lambda q, k, v: attention(q, k, v, 2)),
    "attention_sublayer": ([(2, 3, 4), (4,), (4,), (4, 4), (4,), (4, 4), (4, 4), (4,), (4, 4),
                            (4,)], lambda x, g, b, *maps: attention_sublayer(x, (g, b), maps, 2)),
    "ffn_sublayer": ([(2, 3, 4), (4,), (4,), (4, 8), (8,), (8, 4), (4,)],
                     lambda x, g, b, *maps: ffn_sublayer(x, (g, b), *maps)),
    "weighted_square_error": ([(2, 3)], lambda a: weighted_square_error(
        a, np.ones((2, 3)), np.array([[0.5], [2.0]]))),
}


# ops whose first input also takes a residual edge, listed before its others
RESIDUAL_OPS = {"attention_sublayer", "ffn_sublayer"}


class TestNodeEdges:
    @pytest.mark.parametrize("op", sorted(NODE_OPS))
    def test_prev_lists_the_grad_inputs_in_argument_order(self, op):
        shapes, f = NODE_OPS[op]
        for needs in itertools.product([False, True], repeat=len(shapes)):
            inputs = [Tensor(RngStream(i).uniform(0.5, 1.5, shape), requires_grad=need)
                      for i, (shape, need) in enumerate(zip(shapes, needs))]
            out = f(*inputs)
            edges = inputs[:1] + inputs if op in RESIDUAL_OPS else inputs
            assert out._prev == tuple(t.node for t in edges if t.requires_grad)
            out.sum().backward()
            for t in inputs:
                if t.requires_grad:
                    assert t.grad.shape == t.shape
                else:
                    assert t.grad is None


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = rand_tensor((3, 4))
        x.sum().backward()
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_zero_scaling_annihilates(self):
        x = rand_tensor((5,))
        (0.0 * (x * x).sum()).backward()
        assert np.all(x.grad == 0)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            rand_tensor((3,)).backward()

    def test_grad_accumulates_across_uses(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0 + x * 4.0  # x used twice
        y.sum().backward()
        assert np.allclose(x.grad, [7.0])

    def test_two_backward_passes_bitwise_identical(self):
        x = rand_tensor((4, 4), seed=3)
        w = rand_tensor((4, 4), seed=4)

        def run():
            x.grad = None
            w.grad = None
            loss = softmax(x @ w, axis=-1).sum()
            loss.backward()
            return x.grad.copy(), w.grad.copy()

        gx1, gw1 = run()
        gx2, gw2 = run()
        assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)

    def test_backward_frees_the_graph_while_the_loss_lives(self):
        x = rand_tensor((3, 4), seed=5)
        h = x.gelu()
        loss = (h * h).sum()
        activation = weakref.ref(h.data)
        del h
        assert activation() is not None  # the mul node's closures hold it
        loss.backward()
        assert activation() is None
        assert x.grad.shape == (3, 4) and math.isfinite(loss.item())  # data stays

    def test_graph_keeps_no_value_a_backward_does_not_read(self):
        # layer_norm's backward reads its xhat and 1/std, not its input
        x, w = rand_tensor((2, 3, 4), seed=7), rand_tensor((4, 5), seed=8)
        g, b = rand_tensor((5,), seed=9), rand_tensor((5,), seed=10)
        grads = []
        for keep in (True, False):
            y = linear(x, w)
            z = layer_norm(y, g, b)
            value, kept = weakref.ref(y.data), y
            if not keep:
                del y, kept
            assert (value() is not None) == keep
            (z * z).sum().backward()
            grads.append([t.grad for t in (x, w, g, b)])
            x.grad = w.grad = g.grad = b.grad = None
        for got, want in zip(*grads):
            assert got.tobytes() == want.tobytes()

    def test_second_backward_on_a_spent_graph_is_refused(self):
        x = rand_tensor((3, 4), seed=6)
        h = x.exp()
        loss = (h * 2.0).sum()
        loss.backward()
        grad = x.grad.copy()
        with pytest.raises(ContractError, match="freed"):
            loss.backward()
        with pytest.raises(ContractError, match="freed"):  # a new root over a spent node
            (h * 3.0).sum().backward()
        assert np.array_equal(x.grad, grad)

    def test_composite_matches_finite_differences(self):
        w = rand_tensor((4, 3), seed=9)

        def f(t):
            h = Tensor(np.linspace(-1, 1, 8).reshape(2, 4)) @ t
            return (softmax(h, axis=-1) * Tensor(np.arange(6).reshape(2, 3))).sum()

        assert finite_diff_check(f, w) < 1e-4

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            Tensor([np.nan, 1.0])
        with pytest.raises(NumericError):
            Tensor([-1.0]).log()

    # ops whose backward hands on its incoming gradient, or a view of it
    PASS_THROUGH = {
        "x+x": lambda u, v: u + u,
        "x+y": lambda u, v: u + v,
        "reshape": lambda u, v: u.reshape(4, 3) + v.reshape(4, 3),
        "transpose": lambda u, v: u.transpose(1, 0) + v.transpose(1, 0),
        "concat": lambda u, v: concat([u, v], axis=1),
        "sum": lambda u, v: u.sum() + v.sum(),
        "sum_keepdims": lambda u, v: u.sum(keepdims=True) + v.sum(keepdims=True),
        "sum_axis": lambda u, v: u.sum(axis=0) + v.sum(axis=0),
        "sum_axis_keepdims": lambda u, v: (u.sum(axis=1, keepdims=True)
                                           + v.sum(axis=1, keepdims=True)),
        "mean": lambda u, v: u.mean() + v.mean(),
        "mean_axis": lambda u, v: u.mean(axis=1) + v.mean(axis=1),
        "mean_axis_keepdims": lambda u, v: (u.mean(axis=0, keepdims=True)
                                            + v.mean(axis=0, keepdims=True)),
    }

    @pytest.mark.parametrize("case", sorted(PASS_THROUGH))
    def test_shared_gradient_then_reused(self, case):
        # u and v receive one gradient array (or views of it) from the op and
        # take their second gradients afterwards: adding one to u's must
        # leave v's alone
        x = rand_tensor((3, 4), seed=11)
        c1 = Tensor(np.linspace(0.5, 1.5, 12).reshape(3, 4))
        c2 = Tensor(np.linspace(-1.0, 1.0, 12).reshape(3, 4))

        def f(t):
            u, v = t * c1, t * c2
            out = self.PASS_THROUGH[case](u, v)
            w = Tensor(np.cos(np.arange(out.size) + 1.0).reshape(out.shape))
            return (out * w).sum() + (u * u + v * c1).sum()

        assert finite_diff_check(f, x) < 1e-6


class TestMean:
    @pytest.mark.parametrize("keepdims", [False, True])
    @pytest.mark.parametrize("axis", [None, 0, -1, (0, 1), (-1, 0), (0, 2), (-3, -2, -1)])
    def test_matches_numpy(self, axis, keepdims):
        x = rand_tensor((2, 3, 4), seed=12)
        out = x.mean(axis=axis, keepdims=keepdims)
        want = x.data.mean(axis=axis, keepdims=keepdims)
        assert out.shape == want.shape
        np.testing.assert_allclose(out.data, want, rtol=1e-15, atol=0)
        out.sum().backward()
        assert np.array_equal(x.grad, np.full(x.shape, 1.0 / (x.size // out.size)))

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_int_axis_is_sum_times_reciprocal(self, axis):
        x = rand_tensor((2, 3, 4), seed=13)
        want = x.data.sum(axis=axis) * (1.0 / x.shape[axis])
        assert x.mean(axis=axis).data.tobytes() == want.tobytes()


class TestGetitem:
    def weights(self, shape):
        return Tensor(np.random.default_rng(9).normal(size=shape))

    def test_int_key(self):
        x = rand_tensor((3, 4, 2), seed=10)
        c = self.weights((4, 2))
        assert finite_diff_check(lambda t: (t[1] * c).sum(), x) < 1e-6

    def test_slice_keys(self):
        x = rand_tensor((3, 4, 2), seed=11)
        c = self.weights((3, 3, 2))
        assert finite_diff_check(lambda t: (t[:, 1:] * c).sum(), x) < 1e-6
        c0 = self.weights((3, 2))
        assert finite_diff_check(lambda t: (t[:, 0] * c0).sum(), x) < 1e-6

    def test_repeated_fancy_index_accumulates(self):
        x = rand_tensor((4, 3), seed=12)
        c = self.weights((5, 3))
        idx = np.array([2, 0, 2, 2, 3])
        assert finite_diff_check(lambda t: (t[idx] * c).sum(), x) < 1e-6
        x.grad = None
        x[idx].sum().backward()
        assert np.array_equal(x.grad[:, 0], [1.0, 0.0, 3.0, 1.0])


class TestFiniteDiffCheck:
    def test_quadratic_is_nearly_exact(self):
        x = rand_tensor((5,), seed=2)
        err = finite_diff_check(lambda t: (t * t).sum(), x)
        assert err < 1e-8

    def test_transposed_leaf(self):
        # a flat view of a non-contiguous x would be a copy that f never sees
        a = rand_tensor((3, 4), seed=2, requires_grad=False).data
        x = Tensor(a.T, requires_grad=True)
        assert not x.data.flags.c_contiguous
        c = rand_tensor((4, 3), seed=3, requires_grad=False)
        assert finite_diff_check(lambda t: (t * t * c).sum(), x) < 1e-8
        assert np.array_equal(x.data, a.T)

    def test_layer_norm_node(self):
        x = rand_tensor((3, 6), seed=5)
        g = Tensor(np.linspace(0.5, 1.5, 6), requires_grad=True)
        b = Tensor(np.zeros(6), requires_grad=True)
        assert finite_diff_check(lambda t: (layer_norm(t, g, b) ** 2.0).sum(), x) < 1e-4
        assert finite_diff_check(lambda t: (layer_norm(x, t, b) ** 2.0).sum(), g) < 1e-4
        # with a constant row: the central difference of its x entries errs by
        # (n-1)/n^2 * step^2 / (2 * LN_EPS) = 6.9e-7 relative
        x.data[1] = 0.3
        w = rand_tensor((3, 6), seed=6).data
        assert finite_diff_check(lambda t: (layer_norm(t, g, b) * w).sum(), x) < 1e-6
        assert finite_diff_check(lambda t: (layer_norm(x, t, b) * w).sum(), g) < 1e-6
        assert finite_diff_check(lambda t: (layer_norm(x, g, t) * w).sum(), b) < 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_all_primitive_ops(self, seed):
        x = rand_tensor((3, 4), seed=seed)
        cases = [
            lambda t: (t.exp()).sum(),
            lambda t: ((t * t + 1.0).log()).sum(),
            lambda t: ((t * t + 0.5).sqrt()).sum(),
            lambda t: (t.relu() * t).sum(),
            lambda t: (t.gelu()).sum(),
            lambda t: (softmax(t, axis=-1) * Tensor(np.arange(12.0).reshape(3, 4)))[0].sum(),
            lambda t: cross_entropy(t, [0, 3, 3], [1.0, 0.5, 2.0]),
            lambda t: (t.transpose(1, 0) @ t).sum(),
            lambda t: (t.reshape(2, 6).mean(axis=0) ** 3.0).sum(),
            lambda t: concat([t, t * 2.0], axis=0).mean(),
        ]
        for f in cases:
            assert finite_diff_check(f, x) < 1e-4


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(1234).normal((10,))
        b = RngStream(1234).normal((10,))
        assert np.array_equal(a, b)

    def test_children_independent_and_stable(self):
        r = RngStream(7)
        c1 = r.child(1).normal((5,))
        c2 = r.child(2).normal((5,))
        assert not np.array_equal(c1, c2)
        assert np.array_equal(c1, RngStream(7).child(1).normal((5,)))

    def test_truncated_normal_bounded(self):
        vals = RngStream(3).truncated_normal((1000,), std=0.02)
        assert np.all(np.abs(vals) <= 0.04)


class TestMisc:
    def test_no_grad_blocks_recording(self):
        x = rand_tensor((3,))
        with no_grad():
            y = (x * x).sum()
        assert not y.requires_grad and y.node is None and y.grad is None and y._prev == ()
        with pytest.raises(ContractError, match="no grad"):
            y.grad = np.ones(())

    def test_item_of_any_one_element_tensor(self):
        for shape in [(), (1,), (1, 1)]:
            got = Tensor(np.full(shape, 2.5)).item()
            assert type(got) is float and got == 2.5
        with pytest.raises(ContractError, match=r"\(2, 1\)"):
            Tensor(np.ones((2, 1))).item()
        x = rand_tensor((3,), seed=14)  # a (1,) loss, as temperature() gives
        assert finite_diff_check(lambda t: (t * t).sum(keepdims=True), x) < 1e-8

    def test_zero_d_results_are_writable_arrays(self):
        # numpy returns a scalar for a 0-d result; the node stores an array
        x = Tensor(0.3, requires_grad=True)
        y = Tensor(np.array([0.5, -1.5]))
        results = {"gelu": (x.gelu(), 0.3 * (0.5 * (1.0 + erf(0.3 * (1.0 / math.sqrt(2.0)))))),
                   "exp": (x.exp(), np.exp(0.3)),
                   "mul": (x * 2.0, 0.6),
                   "sum": (y.sum(), -1.0)}
        for name, (t, want) in results.items():
            assert type(t.data) is np.ndarray and t.data.ndim == 0, name
            assert t.data.flags.writeable, name
            assert t.item() == want, name

    def test_unit_rows(self):
        x = rand_tensor((4, 6), seed=8)
        out = unit_rows(x)
        assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0)
        with pytest.raises(DegenerateInputError):
            unit_rows(Tensor(np.zeros((2, 3))))
