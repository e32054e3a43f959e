"""Batched encoder forward/backward tests, including central finite differences
on one-row batches."""

import copy

import numpy as np
import pytest

from oracles import copying_backward, copying_forward

from metrovec.encoder import _backward_batch, _forward_batch, _views, init_encoder
from metrovec.errors import ValidationError


def encode(params, feature):
    """Encoder output for one feature vector: the batched forward pass on a one-row batch."""
    out, _ = _forward_batch(params, np.asarray(feature, dtype=float)[None, :])
    return out[0]


def backward(params, cache, grad_out):
    """(weight grads, bias grads) that the batched backward pass writes into
    the views of a new gradient buffer."""
    grads = _views(params, np.empty(params.size))
    _backward_batch(params, cache, grad_out, grads)
    return grads.weights, grads.biases


def encode_one_backward(params, feature, grad_output):
    """(weight grads, bias grads) of dot(output, grad_output) for one feature
    vector, through the batched backward pass on a one-row batch."""
    _, cache = _forward_batch(params, np.asarray(feature, dtype=float)[None, :])
    return backward(params, cache, np.asarray(grad_output, dtype=float)[None, :])


def fd_param_grads(params, feature, grad_output, step=1e-4):
    """Central finite differences of dot(encode(params, feature), grad_output)
    with respect to every parameter entry."""

    def objective(p):
        return float(encode(p, feature) @ grad_output)

    grads_w, grads_b = [], []
    for li in range(len(params.weights)):
        gw = np.zeros_like(params.weights[li])
        for idx in np.ndindex(*gw.shape):
            p = copy.deepcopy(params)
            p.weights[li][idx] += step
            hi = objective(p)
            p.weights[li][idx] -= 2 * step
            lo = objective(p)
            gw[idx] = (hi - lo) / (2 * step)
        grads_w.append(gw)
        gb = np.zeros_like(params.biases[li])
        for idx in np.ndindex(*gb.shape):
            p = copy.deepcopy(params)
            p.biases[li][idx] += step
            hi = objective(p)
            p.biases[li][idx] -= 2 * step
            lo = objective(p)
            gb[idx] = (hi - lo) / (2 * step)
        grads_b.append(gb)
    return grads_w, grads_b


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


class TestInit:
    def test_seed_determinism(self):
        p1 = init_encoder(8, 4, 3, seed=42)
        p2 = init_encoder(8, 4, 3, seed=42)
        for w1, w2 in zip(p1.weights, p2.weights):
            assert np.array_equal(w1, w2)

    def test_linear_shape(self):
        p = init_encoder(6, 0, 4, seed=0)
        assert len(p.weights) == 1
        assert p.weights[0].shape == (6, 4)
        assert p.biases[0].shape == (4,)

    def test_glorot_bound(self):
        p = init_encoder(8, 0, 4, seed=1)
        bound = np.sqrt(6.0 / 12.0)
        assert np.abs(p.weights[0]).max() <= bound
        assert not p.biases[0].any()

    def test_invalid_dims(self):
        with pytest.raises(ValidationError):
            init_encoder(0, 4, 3, seed=0)
        with pytest.raises(ValidationError):
            init_encoder(4, 0, 0, seed=0)


class TestForward:
    def test_zero_params_zero_output(self):
        p = init_encoder(5, 3, 2, seed=0)
        for w in p.weights:
            w[:] = 0.0
        assert not encode(p, np.ones(5)).any()

    def test_identity_linear(self):
        p = init_encoder(4, 0, 4, seed=0)
        p.weights[0][:] = np.eye(4)
        x = np.array([0.5, -1.0, 2.0, 0.0])
        assert np.allclose(encode(p, x), x)

    def test_matches_independent_matmul(self):
        rng = np.random.default_rng(7)
        p = init_encoder(6, 5, 3, seed=7)
        x = rng.normal(size=6)
        manual = np.maximum(x @ p.weights[0] + p.biases[0], 0.0) @ p.weights[1] + p.biases[1]
        assert np.abs(encode(p, x) - manual).max() < 1e-6

    def test_pure(self):
        p = init_encoder(5, 4, 3, seed=3)
        x = np.arange(5.0)
        assert np.array_equal(encode(p, x), encode(p, x))

    def test_length_mismatch(self):
        p = init_encoder(5, 0, 3, seed=0)
        with pytest.raises(ValidationError):
            _forward_batch(p, np.ones((1, 4)))


class TestBackward:
    def test_zero_grad_output(self):
        p = init_encoder(5, 4, 3, seed=1)
        gws, _ = encode_one_backward(p, np.ones(5), np.zeros(3))
        assert not any(gw.any() for gw in gws)

    def test_linear_weight_grad_is_outer_product(self):
        p = init_encoder(4, 0, 3, seed=2)
        x = np.array([1.0, -2.0, 0.5, 3.0])
        gout = np.array([0.2, -0.1, 0.7])
        gws, gbs = encode_one_backward(p, x, gout)
        assert np.allclose(gws[0], np.outer(x, gout))
        assert np.allclose(gbs[0], gout)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            d_in = int(rng.integers(2, 17))
            d = int(rng.integers(1, 9))
            hidden = int(rng.integers(0, 7))
            p = init_encoder(d_in, hidden, d, seed=100 + trial)
            x = rng.normal(size=d_in)
            gout = rng.normal(size=d)
            gws, gbs = encode_one_backward(p, x, gout)
            fd_w, fd_b = fd_param_grads(p, x, gout)
            for a, f in zip(gws, fd_w):
                assert rel_err(a, f) < 1e-4
            for a, f in zip(gbs, fd_b):
                assert rel_err(a, f) < 1e-4

    def test_batch_matches_one_row_passes(self):
        rng = np.random.default_rng(12)
        p = init_encoder(6, 4, 3, seed=12)
        X, G = rng.normal(size=(9, 6)), rng.normal(size=(9, 3))
        out, cache = _forward_batch(p, X)
        gws, gbs = backward(p, cache, G)
        rows = [encode_one_backward(p, X[r], G[r]) for r in range(9)]
        for r in range(9):
            assert np.allclose(out[r], encode(p, X[r]))
        for li in range(2):
            assert np.allclose(gws[li], sum(row[0][li] for row in rows))
            assert np.allclose(gbs[li], sum(row[1][li] for row in rows))

    def test_shape_mismatch(self):
        p = init_encoder(5, 4, 3, seed=1)
        with pytest.raises(ValidationError):
            encode_one_backward(p, np.ones(5), np.zeros(4))
        with pytest.raises(ValidationError):
            encode_one_backward(p, np.ones(6), np.zeros(3))


def test_views_are_the_weights_then_the_biases_of_one_buffer():
    p = init_encoder(4, 3, 2, seed=6)
    flat = np.arange(4 * 3 + 3 * 2 + 3 + 2, dtype=np.float64)
    assert p.size == flat.size
    q = _views(p, flat)
    at = 0
    for got, want in zip(q.weights + q.biases, p.weights + p.biases):
        assert got.shape == want.shape and got.base is flat
        assert np.array_equal(got.ravel(), flat[at:at + want.size])
        at += want.size
    for size in (flat.size - 1, flat.size + 1):
        with pytest.raises(ValidationError):
            _views(p, np.empty(size))


@pytest.mark.parametrize("hidden", [0, 4])
def test_passes_match_copying_reference_and_write_no_input(hidden):
    # The forward pass updates its own new arrays in place and the backward
    # pass writes into the views of a gradient buffer; neither writes the
    # features, the output gradient or the cache.
    rng = np.random.default_rng(31)
    p = init_encoder(6, hidden, 3, seed=31)
    X, G = rng.normal(size=(11, 6)), rng.normal(size=(11, 3))
    out, cache = _forward_batch(p, X)
    ref_out, ref_cache = copying_forward(p, X.copy())
    assert np.array_equal(out, ref_out)
    kept = [a.copy() for a in (X, G, *cache)]
    grads = np.full(p.size, np.nan)
    into = _views(p, grads)
    assert _backward_batch(p, cache, G, into) is None
    want_w, want_b = copying_backward(p, ref_cache, G)
    for g, w in zip(into.weights + into.biases, want_w + want_b):
        assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))
    assert not np.isnan(grads).any()
    for a, b in zip((X, G, *cache), kept):
        assert np.array_equal(a, b)
