"""Triplet construction, triplet loss/gradients, and the staged training loops.

Stage 1 pulls each street-view embedding toward its K geographically nearest
images and away from a uniformly drawn non-context image, training the feature
encoder by mini-batch SGD on the hinge triplet loss. Stage 2 sets every
neighborhood embedding to the mean of its street-view embeddings (the closed
form minimizer of the summed squared distance). Stage 3 jointly trains
neighborhood and POI-word embeddings on word triplets, with context words
drawn from the neighborhood bag (respecting multiplicity) and negatives drawn
frequency**exponent-weighted from outside the bag. Each stage-3 epoch draws
all of its triplets at once, its contexts gathered from one table of every
bag's tokens repeated by their counts and its negatives from one shared
negative table, and then updates in blocks of _POI_BLOCK neighborhoods with
the gradients taken at the block's start, so memory grows with the
vocabulary plus the bags' total count, not with their product. Stage 2's
sums and stage 3's word updates add rows into a matrix with _scatter_add:
one flat np.add.at, with the bits of the 2-D call at a fraction of its cost.
Stages 1 and 3 check at the end of every epoch that what they train is
still finite and within the float32 range of a checkpoint, and stop with a
ValidationError naming the stage and the epoch if it is not.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import NegativeWordSampler, Vocabulary
from .encoder import EncoderParams, _backward_batch, _forward_batch, _views
from .errors import ValidationError, check_bounds
from .geo import SpatialIndex

log = logging.getLogger(__name__)

DISTANCE_FLOOR = 1e-8  # floor for distances in gradient denominators
_FLOAT32_MAX = float(np.finfo(np.float32).max)  # the largest value a checkpoint holds
EMPTY_POLICIES = ("error", "zero")  # what stage 2 gives a neighborhood without street views
_POI_BLOCK = 16  # neighborhoods per stage-3 update; the gradients are taken at the block's start
_HEAVY_BAG_SHARE = 0.5  # a stage-3 bag above this share of the negative weight keeps its own sampler


@dataclass
class TrainingConfig:
    d: int = 200
    k_context: int = 5
    margin_sv: float = 0.2
    margin_poi: float = 0.2
    neg_exponent: float = 0.5
    lr_sv: float = 0.01
    lr_poi: float = 0.01
    epochs_sv: int = 10
    epochs_poi: int = 10
    triplets_per_anchor: int = 5
    batch_size: int = 64
    hidden: int = 0
    anchor_weight: float = 0.0
    empty_policy: str = "error"
    seed: int = 0

    def validate(self) -> "TrainingConfig":
        check_bounds(self, _LEAST, above=("lr_sv", "lr_poi"))
        if self.empty_policy not in EMPTY_POLICIES:
            raise ValidationError(f"empty_policy must be one of {EMPTY_POLICIES}, got {self.empty_policy!r}")
        return self


# The least value of each numeric TrainingConfig field; a learning rate must be above it.
_LEAST = {"d": 1, "k_context": 1, "margin_sv": 0, "margin_poi": 0, "neg_exponent": 0, "lr_sv": 0, "lr_poi": 0,
          "epochs_sv": 0, "epochs_poi": 0, "triplets_per_anchor": 1, "batch_size": 1, "hidden": 0,
          "anchor_weight": 0, "seed": 0}


def triplet_grads(A: np.ndarray, C: np.ndarray, N: np.ndarray, margin: float):
    """Exact gradients and per-row losses of the hinge triplet loss
    max(0, margin + ||a-c|| - ||a-n||) for row-aligned (anchor, context,
    negative) (n, d) matrices; a one-row A broadcasts against C and N.

    Returns (g, losses): g is one C-contiguous (3n, d) array whose three
    consecutive row blocks are the gradients ga, gc and gn. Inactive rows
    (loss 0) get zero gradients; distances are floored at DISTANCE_FLOOR in
    denominators to remove the singularity at coincident embeddings.
    """
    n, d = C.shape
    diff = np.empty((2, n, d))  # A - C, then A - N
    np.subtract(A, C, out=diff[0])
    np.subtract(A, N, out=diff[1])
    # np.linalg.norm(x, axis=-1) computes exactly this, behind more dispatch.
    dist = np.sqrt((diff * diff).sum(axis=2))
    losses = np.maximum(0.0, margin + dist[0] - dist[1])
    g = np.empty((3 * n, d))
    blocks = g.reshape(3, n, d)
    np.divide(diff, np.maximum(dist, DISTANCE_FLOOR)[:, :, None], out=blocks[1:])  # the unit vectors
    np.subtract(blocks[1], blocks[2], out=blocks[0])
    blocks *= (losses > 0.0)[:, None]  # multiplies as 1.0 / 0.0
    np.negative(blocks[1], out=blocks[1])
    return g, losses


def _scatter_add(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """Add each row of ``values`` into ``target[rows[i]]`` in place, one row
    after another; rows may repeat. Every element gets its additions in the
    order of ``np.add.at(target, rows, values)``, so the result is bit for bit
    that call's. The call made is a 1-D ``np.add.at`` on the flat target with
    float64 values, numpy's fast path for ``ufunc.at`` (numpy >= 1.25): mixed
    dtypes or a 2-D target take its slow one. The target must be a
    C-contiguous float64 matrix, since on any other ``reshape(-1)`` would be a
    copy and the update would be lost."""
    if target.dtype != np.float64 or target.ndim != 2 or not target.flags.c_contiguous:
        raise ValueError("_scatter_add needs a C-contiguous float64 matrix as its target")
    d = target.shape[1]
    flat = (np.asarray(rows, dtype=np.int64)[:, None] * d + np.arange(d)).ravel()
    np.add.at(target.reshape(-1), flat, np.asarray(values, dtype=np.float64).ravel())


def _sample_triplet_rows(context_rows: np.ndarray, per_anchor: int,
                         rng: np.random.Generator) -> np.ndarray:
    """(n*per_anchor, 3) row-index triplets, anchor-major. context_rows is
    (n, K): the K nearest rows of each anchor, none of them the anchor.

    The context is uniform over the anchor's K rows and the negative uniform
    over the other n - K - 1 rows: all draws are made at once, and the rows
    whose negative hits the anchor or its context are redrawn until none do.
    """
    n, k = context_rows.shape
    if n < k + 2:
        raise ValidationError(f"need at least K+2={k + 2} rows to draw negatives, got {n}")
    anchors = np.repeat(np.arange(n), per_anchor)
    picks = context_rows[anchors, rng.integers(0, k, size=anchors.size)]
    negs = rng.integers(0, n, size=anchors.size)
    redo = np.arange(anchors.size)
    while redo.size:
        a, neg = anchors[redo], negs[redo]
        redo = redo[(neg == a) | (context_rows[a] == neg[:, None]).any(axis=1)]
        negs[redo] = rng.integers(0, n, size=redo.size)
    return np.stack([anchors, picks, negs], axis=1)


def _check_not_diverged(stage: str, what: str, arrays, epoch: int, epochs: int, lr: str) -> None:
    """Raise a ValidationError naming the stage and the epoch if a value of
    ``arrays`` is non-finite or beyond the float32 range of a checkpoint.
    Hinge gradients are bounded, so a run with too large a learning rate
    can stay finite in float64 while no checkpoint could hold it."""
    if not all(np.abs(a).max(initial=0.0) <= _FLOAT32_MAX for a in arrays):
        raise ValidationError(f"{stage} diverged in epoch {epoch} of {epochs}: {what} are non-finite "
                              f"or beyond the float32 range; lower {lr}")


def context_rows_from_index(index: SpatialIndex, k: int) -> np.ndarray:
    """(n, K) matrix of the index rows of each point's K nearest other
    points, from one all-points query of the index."""
    if len(index) < k + 2:
        raise ValidationError(f"need at least K+2={k + 2} street views, got {len(index)}")
    return index.k_nearest(k)


def train_street_view(params: EncoderParams, sv_ids: list, features: np.ndarray,
                      index: SpatialIndex, config: TrainingConfig):
    """Stage 1: mini-batch SGD on the street-view triplet loss through the
    encoder. Returns (trained params, X) with X the trained encoder's forward
    pass over every feature row; deterministic per config.seed. The index
    must hold exactly ``sv_ids``, in that order: its rows are the feature
    rows."""
    config.validate()
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] != len(sv_ids):
        raise ValidationError(f"{features.shape[0]} feature rows but {len(sv_ids)} ids")
    if index.ids != list(sv_ids):
        raise ValidationError("the spatial index does not hold the street-view ids in their given order")
    if params.d_out != config.d:
        raise ValidationError(f"encoder output dim {params.d_out} != config d {config.d}")
    # Every parameter lives in theta and every gradient in grads, so one
    # step updates them all in two calls; the caller's params stay untouched.
    theta = np.concatenate([a.ravel() for a in (*params.weights, *params.biases)], dtype=np.float64)
    params = _views(params, theta)
    grads = np.empty_like(theta)
    grad_views = _views(params, grads)
    rng = np.random.default_rng(config.seed)
    ctx = context_rows_from_index(index, config.k_context)
    size, margin, lr = config.batch_size, config.margin_sv, config.lr_sv

    with np.errstate(over="ignore", invalid="ignore"):  # _check_not_diverged reports them
        for epoch in range(1, config.epochs_sv + 1):
            rows = _sample_triplet_rows(ctx, config.triplets_per_anchor, rng)
            rows = rows[rng.permutation(rows.shape[0])]
            for start in range(0, rows.shape[0], size):
                batch = rows[start:start + size]
                b = batch.shape[0]
                # One pass over the stacked (anchor, context, negative) rows,
                # whose gradients triplet_grads stacks the same way.
                out, cache = _forward_batch(params, features[batch.T.ravel()])
                stacked, _ = triplet_grads(out[:b], out[b:2 * b], out[2 * b:], margin)
                _backward_batch(params, cache, stacked, grad_views)
                grads *= lr / b
                theta -= grads
            _check_not_diverged("stage 1", "encoder parameters", [theta],
                                epoch, config.epochs_sv, f"lr_sv (now {config.lr_sv})")

    X, _ = _forward_batch(params, features)
    return params, X


def aggregate_neighborhoods(X: np.ndarray, sv_neighborhoods: list,
                            neighborhood_ids: list, policy: str = "error") -> np.ndarray:
    """Stage 2: each neighborhood embedding is the mean of its street-view
    embeddings. ``policy`` decides what a neighborhood with no street views
    gets: 'error' raises, 'zero' yields a zero row with a warning."""
    if policy not in EMPTY_POLICIES:
        raise ValidationError(f"unknown empty policy {policy!r}")
    if X.shape[0] != len(sv_neighborhoods):
        raise ValidationError(f"{X.shape[0]} embedding rows but {len(sv_neighborhoods)} assignments")
    row_of = {nid: i for i, nid in enumerate(neighborhood_ids)}
    unknown = sorted({str(n) for n in sv_neighborhoods if n not in row_of})
    if unknown:
        raise ValidationError(f"street views assigned to unknown neighborhoods: {unknown}")
    rows = np.array([row_of[nid] for nid in sv_neighborhoods], dtype=np.int64)
    # The rows are added in order, so each sum is the loop's, bit for bit.
    Z = np.zeros((len(neighborhood_ids), X.shape[1]))
    _scatter_add(Z, rows, X)
    counts = np.bincount(rows, minlength=len(neighborhood_ids))
    empty = counts == 0
    if empty.any():
        missing = [neighborhood_ids[i] for i in np.flatnonzero(empty)]
        if policy == "error":
            raise ValidationError(f"neighborhoods with zero street views: {missing}")
        log.warning("neighborhoods with zero street views get zero embeddings: %s", missing)
        counts[empty] = 1
    return Z / counts[:, None]


def init_word_vectors(vocab: Vocabulary, d: int, seed: int,
                      pretrained: dict[int, np.ndarray] | None = None) -> np.ndarray:
    """|C| x d matrix, uniform(-0.5/d, 0.5/d) per row, rows overwritten by
    pretrained vectors where provided. Deterministic per seed regardless of
    pretrained coverage."""
    rng = np.random.default_rng(seed)
    Y = rng.uniform(-0.5 / d, 0.5 / d, size=(vocab.size, d))
    if pretrained:
        for token_id, vec in pretrained.items():
            if vec.shape != (d,):
                raise ValidationError(f"pretrained vector for token id {token_id} has shape {vec.shape}, want ({d},)")
            Y[token_id] = vec
    return Y


class _EpochDraws:
    """Whole-epoch triplet draws of stage 3 for the active bags: bag j
    anchors row ``rows[j]`` of Z.

    Contexts are gathered from one table of every bag's tokens, each
    repeated by its count, at ``before[j] + min(floor(u * total[j]),
    total[j] - 1)``, so no draw rounds into the next bag. Negatives come from
    one shared frequency ** exponent table (word2vec's unigram table); the
    draws that hit their own bag, found among the sorted ``j * V + id`` keys,
    are redrawn until none do, which is the law of the table with the bag's
    entries zeroed. Rejection takes 1 / (1 - share) draws on average, without
    bound as a bag's share of the negative weight nears 1, so a bag above
    _HEAVY_BAG_SHARE keeps its own exact NegativeWordSampler."""

    def __init__(self, rows: list[int], bags: list, vocab: Vocabulary, exponent: float):
        # Raises before any epoch runs if frequency ** exponent overflows.
        self.shared = NegativeWordSampler(vocab, (), exponent)
        self.rows = np.asarray(rows, dtype=np.int64)
        ids = np.concatenate([bag.ids for bag in bags])
        counts = np.concatenate([bag.counts for bag in bags])
        sizes = [len(bag) for bag in bags]
        starts = np.cumsum([0] + sizes[:-1])
        self.tokens = np.repeat(ids, counts)
        self.total = np.add.reduceat(counts, starts)
        self.before = np.cumsum(self.total) - self.total
        self.keys = np.sort(np.repeat(np.arange(len(bags)), sizes) * vocab.size + ids)
        self.vocab_size = vocab.size
        weights = vocab.frequencies.astype(np.float64) ** exponent
        share = np.add.reduceat(weights[ids], starts) / weights.sum()
        self.heavy = {int(j): NegativeWordSampler(vocab, bags[j].ids, exponent)
                      for j in np.flatnonzero(share > _HEAVY_BAG_SHARE)}

    def _in_bag(self, j: np.ndarray, words: np.ndarray) -> np.ndarray:
        keys = j * self.vocab_size + words
        at = np.minimum(self.keys.searchsorted(keys), self.keys.size - 1)
        return self.keys[at] == keys

    def epoch(self, rng: np.random.Generator, per: int):
        """(Z rows in a fresh random order, context ids, negative ids): the
        ``per`` triplets of each row lie together, in the rows' order."""
        order = rng.permutation(self.rows.size)
        j = np.repeat(order, per)
        total = self.total[j]
        picks = np.minimum((rng.random(j.size) * total).astype(np.int64), total - 1)
        ctx = self.tokens[self.before[j] + picks]
        neg = self.shared.draw(rng, size=j.size)
        if self.heavy:
            position = np.argsort(order)
            for h, sampler in self.heavy.items():
                at = position[h] * per
                neg[at:at + per] = sampler.draw(rng, size=per)
        redo = np.arange(j.size)
        while redo.size:
            redo = redo[self._in_bag(j[redo], neg[redo])]
            neg[redo] = self.shared.draw(rng, size=redo.size)
        return self.rows[order], ctx, neg


def train_poi_stage(z_init: np.ndarray, neighborhood_ids: list, vocab: Vocabulary,
                    bags: dict, config: TrainingConfig,
                    pretrained: dict[int, np.ndarray] | None = None):
    """Stage 3: joint SGD over neighborhood and word embeddings on POI-word
    triplets. ``bags`` maps a neighborhood id to its ``corpus.Bag`` (token ids
    of ``vocab`` and their counts); a neighborhood without one, or with an
    empty one, gets no triplets. Word vectors start from
    init_word_vectors(vocab, d, config.seed, pretrained); the SGD stream uses
    config.seed + 1. Each epoch draws all of its triplets at once
    (``_EpochDraws``) and updates in blocks of _POI_BLOCK neighborhoods.
    Returns (Z, Y)."""
    config.validate()
    z_init = np.asarray(z_init, dtype=np.float64)
    if z_init.shape[0] != len(neighborhood_ids):
        raise ValidationError(f"{z_init.shape[0]} Z rows but {len(neighborhood_ids)} neighborhood ids")
    d = z_init.shape[1]
    Y = init_word_vectors(vocab, d, config.seed, pretrained)
    Z = z_init.copy()
    Z0 = z_init if config.anchor_weight > 0.0 else None
    rng = np.random.default_rng(config.seed + 1)

    rows, active = [], []
    for i, nid in enumerate(neighborhood_ids):
        bag = bags.get(nid)
        if not bag:
            log.info("neighborhood %s has an empty bag; contributes no triplets", nid)
        elif len(bag) == vocab.size:
            # No negatives exist outside this bag; skip like an empty bag.
            log.warning("neighborhood %s bag covers the whole vocabulary; skipped", nid)
        else:
            rows.append(i)
            active.append(bag)
    draws = _EpochDraws(rows, active, vocab, config.neg_exponent) if rows else None

    # One update per block of neighborhoods, every gradient taken at the
    # block's start: each anchor takes the summed gradient of its triplets
    # (the block's Z rows are distinct), and one _scatter_add accumulates the
    # repeated word rows of the block's contexts and negatives.
    per, lr, block = config.triplets_per_anchor, config.lr_poi, _POI_BLOCK
    with np.errstate(over="ignore", invalid="ignore"):  # _check_not_diverged reports them
        for epoch in range(1, config.epochs_poi + 1):
            if draws is not None:
                order, ctx, neg = draws.epoch(rng, per)
                for start in range(0, order.size, block):
                    z_rows = order[start:start + block]
                    n = z_rows.size * per
                    triplets = slice(start * per, start * per + n)
                    words = np.concatenate([ctx[triplets], neg[triplets]])
                    W = Y[words]
                    # g holds ga, then gc and gn in the order of words.
                    g, _ = triplet_grads(np.repeat(Z[z_rows], per, axis=0), W[:n], W[n:], config.margin_poi)
                    step = g[:n].reshape(z_rows.size, per, d).sum(axis=1)
                    if Z0 is not None:
                        step += per * config.anchor_weight * (Z[z_rows] - Z0[z_rows])
                    Z[z_rows] -= lr * step
                    _scatter_add(Y, words, -lr * g[n:])
            _check_not_diverged("stage 3", "neighborhood or word embeddings", [Z, Y],
                                epoch, config.epochs_poi, f"lr_poi (now {config.lr_poi})")
    return Z, Y
