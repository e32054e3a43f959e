"""Feed-forward feature encoder with exact analytic gradients.

Maps a raw feature vector to a d-dimensional embedding through an optional
ReLU hidden layer (hidden=0 gives a pure linear map). The backward pass
computes the exact gradient of dot(output, grad_output) with respect to every
parameter; the ReLU subgradient at zero is defined as zero. Training keeps
every parameter in one flat buffer, read through ``_views``, and has the
backward pass write its gradients into the views of a second one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass
class EncoderParams:
    weights: list[np.ndarray]  # each (fan_in, fan_out)
    biases: list[np.ndarray]

    @property
    def d_in(self) -> int:
        return self.weights[0].shape[0]

    @property
    def d_out(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def size(self) -> int:
        """The number of parameters."""
        return sum(a.size for a in (*self.weights, *self.biases))


def _views(params: EncoderParams, flat: np.ndarray) -> EncoderParams:
    """EncoderParams shaped like ``params`` whose weights and then biases are
    consecutive views into the 1-D buffer ``flat``."""
    if flat.shape != (params.size,):
        raise ValidationError(f"a buffer of shape {flat.shape} for {params.size} encoder parameters")
    arrays, at = [], 0
    for a in (*params.weights, *params.biases):
        arrays.append(flat[at:at + a.size].reshape(a.shape))
        at += a.size
    layers = len(params.weights)
    return EncoderParams(arrays[:layers], arrays[layers:])


def init_encoder(d_in: int, hidden: int, d: int, seed: int) -> EncoderParams:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    if d_in < 1 or d < 1 or hidden < 0:
        raise ValidationError(f"invalid encoder dims d_in={d_in}, hidden={hidden}, d={d}")
    dims = [d_in, d] if hidden == 0 else [d_in, hidden, d]
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return EncoderParams(weights, biases)


def _forward_batch(params: EncoderParams, feats: np.ndarray):
    """Forward pass on an (n, d_in) batch; returns (outputs, cache), the
    cache holding each layer's input."""
    if feats.ndim != 2 or feats.shape[1] != params.d_in:
        raise ValidationError(f"feature batch shape {feats.shape} incompatible with d_in={params.d_in}")
    cache = []
    out = feats
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        if layer:
            np.maximum(out, 0.0, out=out)  # ReLU between layers, on the pre-activation
        cache.append(out)
        out = out @ w
        out += b
    return out, cache


def _backward_batch(params: EncoderParams, cache, grad_out: np.ndarray, out: EncoderParams) -> None:
    """Parameter gradients summed over the batch, written into the arrays
    of ``out``. Neither ``cache`` nor ``grad_out`` is written."""
    if grad_out.ndim != 2 or grad_out.shape[1] != params.d_out:
        raise ValidationError(f"grad_output batch shape {grad_out.shape} incompatible with d={params.d_out}")
    grad = grad_out
    for layer in reversed(range(len(params.weights))):
        x = cache[layer]
        np.matmul(x.T, grad, out=out.weights[layer])
        grad.sum(axis=0, out=out.biases[layer])
        if layer:
            # x is a ReLU output: x > 0 exactly where its pre-activation is.
            grad = grad @ params.weights[layer].T
            grad *= x > 0.0
