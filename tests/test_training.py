"""Batched triplet loss/gradient, sampling, and staged-training tests."""

import copy
import dataclasses
import time
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from oracles import (concatenating_poi_updates, copying_train_street_view, searchsorted_epoch,
                     separate_triplet_grads, table_of)

from metrovec import training
from metrovec.corpus import Bag, Vocabulary, bags_of, build_bag_table, build_vocabulary
from metrovec.encoder import _backward_batch, _forward_batch, _views, init_encoder
from metrovec.errors import ValidationError
from metrovec.fileio import write_embeddings
from metrovec.geo import GeoPoint, SpatialIndex, build_index
from metrovec.synthcity import SynthConfig, generate_city
from metrovec.training import (TrainingConfig, _sample_triplet_rows, aggregate_neighborhoods,
                               context_rows_from_index, init_word_vectors,
                               train_poi_stage, train_street_view, triplet_grads)


def mean_hinge(A, C, N, margin):
    """Mean of the per-row hinge losses that the batched triplet_grads returns."""
    return float(triplet_grads(A, C, N, margin)[1].mean())


def split_grads(A, C, N, margin):
    """(ga, gc, gn, losses) of triplet_grads, its stacked gradient split
    into the three row blocks."""
    g, losses = triplet_grads(A, C, N, margin)
    return (*g.reshape(3, -1, g.shape[1]), losses)


def one_row(*vectors):
    return [np.asarray(v, dtype=float)[None, :] for v in vectors]


def loss_of(xa, xc, xn, margin):
    """Hinge loss of one triplet, as a one-row batch."""
    return mean_hinge(*one_row(xa, xc, xn), margin)


def grads_of(xa, xc, xn, margin):
    """(ga, gc, gn) of one triplet from the batched triplet_grads on a one-row batch."""
    g, _ = triplet_grads(*one_row(xa, xc, xn), margin)
    return tuple(g)


def fd_triplet_grads(xa, xc, xn, margin, step=1e-5):
    vecs = [np.array(xa, dtype=float), np.array(xc, dtype=float), np.array(xn, dtype=float)]
    grads = []
    for vi in range(3):
        g = np.zeros_like(vecs[vi])
        for j in range(len(g)):
            hi = [v.copy() for v in vecs]
            lo = [v.copy() for v in vecs]
            hi[vi][j] += step
            lo[vi][j] -= step
            g[j] = (loss_of(*hi, margin) - loss_of(*lo, margin)) / (2 * step)
        grads.append(g)
    return grads


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


class TestTripletLoss:
    def test_coincident_points_return_margin(self):
        v = np.array([1.0, 2.0])
        assert loss_of(v, v, v, margin=0.2) == pytest.approx(0.2)

    def test_inactive(self):
        assert loss_of([0, 0], [0, 1], [3, 0], margin=1.0) == 0.0

    def test_active_arithmetic(self):
        assert loss_of([0, 0], [0, 2], [1, 0], margin=0.5) == pytest.approx(1.5)

    def test_non_finite_rejected(self, tmp_path):
        # A non-finite input yields a non-finite loss, which no checkpoint accepts.
        xa = np.array([np.nan, 0.0])
        assert np.isnan(loss_of(xa, [0, 1], [1, 0], margin=0.2))
        with pytest.raises(ValidationError):
            write_embeddings(tmp_path / "z.emb", ["a"], xa[None, :])
        assert not (tmp_path / "z.emb").exists()

    def test_negative_margin_rejected(self):
        with pytest.raises(ValidationError):
            TrainingConfig(margin_poi=-0.1).validate()
        with pytest.raises(ValidationError):
            TrainingConfig(margin_sv=-0.1).validate()

    @pytest.mark.parametrize("field,value,message", [
        ("d", 0, "d must be >= 1, got 0"), ("k_context", 0, "k_context must be >= 1, got 0"),
        ("margin_sv", -0.1, "margin_sv must be >= 0, got -0.1"),
        ("margin_poi", -0.1, "margin_poi must be >= 0, got -0.1"),
        ("neg_exponent", -0.5, "neg_exponent must be >= 0, got -0.5"),
        ("lr_sv", 0.0, "lr_sv must be > 0, got 0.0"), ("lr_poi", -0.01, "lr_poi must be > 0, got -0.01"),
        ("epochs_sv", -1, "epochs_sv must be >= 0, got -1"), ("epochs_poi", -1, "epochs_poi must be >= 0, got -1"),
        ("triplets_per_anchor", 0, "triplets_per_anchor must be >= 1, got 0"),
        ("batch_size", 0, "batch_size must be >= 1, got 0"), ("hidden", -1, "hidden must be >= 0, got -1"),
        ("anchor_weight", -1.0, "anchor_weight must be >= 0, got -1.0"), ("seed", -1, "seed must be >= 0, got -1"),
    ])
    def test_bound_names_field_bound_and_value(self, field, value, message):
        with pytest.raises(ValidationError) as exc:
            TrainingConfig(**{field: value}).validate()
        assert str(exc.value) == message


class TestTripletGrads:
    def test_inactive_all_zero(self):
        ga, gc, gn = grads_of([0, 0], [0, 1], [9, 0], margin=0.5)
        assert not ga.any() and not gc.any() and not gn.any()

    def test_worked_example(self):
        ga, gc, gn = grads_of([0, 0], [0, 2], [1, 0], margin=0.5)
        assert np.allclose(ga, [1.0, -1.0])
        assert np.allclose(gc, [0.0, 1.0])
        assert np.allclose(gn, [-1.0, 0.0])
        fd = fd_triplet_grads([0, 0], [0, 2], [1, 0], margin=0.5)
        for analytic, numeric in zip((ga, gc, gn), fd):
            assert rel_err(analytic, numeric) < 1e-4

    def test_finite_difference_random(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 20:
            xa, xc, xn = rng.normal(size=(3, 8))
            if loss_of(xa, xc, xn, margin=0.5) <= 1e-3:
                continue  # keep clearly active triplets away from the hinge
            analytic = grads_of(xa, xc, xn, margin=0.5)
            numeric = fd_triplet_grads(xa, xc, xn, margin=0.5)
            for a, n in zip(analytic, numeric):
                assert rel_err(a, n) < 1e-4
            checked += 1

    def test_margin_zero_coincident_anchor_context(self):
        v = np.array([0.3, -0.7, 1.1])
        xn = np.array([5.0, 5.0, 5.0])
        assert loss_of(v, v, xn, margin=0.0) == 0.0
        ga, gc, gn = grads_of(v, v, xn, margin=0.0)
        assert not ga.any() and not gc.any() and not gn.any()

    def test_rows_match_one_row_batches_and_anchor_broadcasts(self):
        rng = np.random.default_rng(19)
        A, C, N = rng.normal(size=(3, 12, 5))
        batch = split_grads(A, C, N, margin=0.5)
        for r in range(12):
            single = split_grads(A[r:r + 1], C[r:r + 1], N[r:r + 1], margin=0.5)
            for b, s in zip(batch, single):
                assert np.array_equal(b[r], s[0]) and np.array_equal(np.signbit(b[r]), np.signbit(s[0]))
        # Stage 3 passes one anchor row against a block of contexts and negatives.
        shared = triplet_grads(A[:1], C, N, margin=0.5)
        repeated = triplet_grads(np.repeat(A[:1], 12, axis=0), C, N, margin=0.5)
        for s, r in zip(shared, repeated):
            assert np.array_equal(s, r)

    def test_blocks_are_consecutive_rows_of_one_array(self):
        # Stage 1 hands the whole array to the backward pass and stage 3
        # scatters its last 2n rows: ga, gc and gn are row blocks of one
        # (3n, d) array, also when one anchor row broadcasts.
        rng = np.random.default_rng(23)
        A, C, N = rng.normal(size=(3, 6, 4))
        for anchors in (A, A[:1]):
            g, losses = triplet_grads(anchors, C, N, margin=0.5)
            assert g.shape == (18, 4) and g.flags.c_contiguous and g.flags.owndata
            assert losses.shape == (6,)

    def test_bits_match_separate_reference(self):
        # Inactive, coincident and active rows: every value, down to the
        # sign of each zero, is the separately computed one.
        rng = np.random.default_rng(29)
        A, C, N = rng.normal(size=(3, 40, 5))
        C[:10] = A[:10]
        N[:10] = A[:10] + 9.0  # inactive
        A[10:14] = C[10:14] = N[10:14]  # coincident: the distance floor
        for args in ((A, C, N), (A[:1], C, N)):
            got, want = split_grads(*args, margin=0.3), separate_triplet_grads(*args, 0.3)
            for g, w in zip(got, want):
                assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))
        ga, _, _, losses = split_grads(A, C, N, margin=0.3)
        assert np.signbit(ga[losses == 0.0]).any()  # some zeros are -0.0

    def test_negative_gradient_step_decreases_loss(self):
        rng = np.random.default_rng(17)
        step = 1e-3
        tested = 0
        while tested < 100:
            xa, xc, xn = rng.normal(size=(3, 6))
            loss = loss_of(xa, xc, xn, margin=0.2)
            if loss <= 0.0:
                continue
            ga, gc, gn = grads_of(xa, xc, xn, margin=0.2)
            new_loss = loss_of(xa - step * ga, xc - step * gc, xn - step * gn, margin=0.2)
            assert new_loss < loss
            tested += 1


def grid_points(n_side, spacing=0.001):
    pts = []
    for r in range(n_side):
        for c in range(n_side):
            pts.append((f"g{r}{c}", GeoPoint(37.0 + r * spacing, -122.0 + c * spacing)))
    return pts


def sv_triplets(index, ids, k, per_anchor, rng):
    """(anchor, context, negative) id triplets, drawn as stage 1 draws them."""
    rows = _sample_triplet_rows(context_rows_from_index(index, k), per_anchor, rng)
    return [tuple(ids[r] for r in row) for row in rows]


class TestSvSampling:
    def test_forced_negative_choice(self):
        pts = [("a", GeoPoint(0, 0)), ("b", GeoPoint(0, 0.001)), ("c", GeoPoint(0, 0.01))]
        idx = build_index(pts)
        rng = np.random.default_rng(0)
        trips = sv_triplets(idx, ["a", "b", "c"], k=1, per_anchor=1, rng=rng)
        for anchor, context, negative in trips:
            others = {"a", "b", "c"} - {anchor, context}
            assert negative in others
            assert negative != context

    def test_negatives_outside_context(self):
        pts = grid_points(5)
        idx = build_index(pts)
        ids = [pid for pid, _ in pts]
        ctx = {pid: {ids[r] for r in row} for pid, row in zip(ids, idx.k_nearest(4))}
        rng = np.random.default_rng(1)
        trips = sv_triplets(idx, ids, k=4, per_anchor=16, rng=rng)
        assert len(trips) == len(ids) * 16  # 25 anchors x 16 = 400 per call
        for _ in range(24):
            trips.extend(sv_triplets(idx, ids, k=4, per_anchor=16, rng=rng))
        assert len(trips) >= 10_000
        for anchor, context, negative in trips:
            assert negative != anchor
            assert negative not in ctx[anchor]
            assert context in ctx[anchor]

    def test_context_uniformity(self):
        pts = [(f"q{i}", GeoPoint(37.0, -122.0 + 0.001 * i)) for i in range(7)]
        idx = build_index(pts)
        ids = [pid for pid, _ in pts]
        rng = np.random.default_rng(2)
        trips = sv_triplets(idx, ids, k=5, per_anchor=15_000, rng=rng)
        counts = Counter((anchor, context) for anchor, context, _ in trips)
        for pid, row in zip(ids, idx.k_nearest(5)):
            for nbr in (ids[r] for r in row):
                freq = counts[(pid, nbr)] / 15_000
                assert abs(freq - 0.2) < 0.02

    def test_too_small_population(self):
        pts = [("a", GeoPoint(0, 0)), ("b", GeoPoint(0, 0.001))]
        idx = build_index(pts)
        with pytest.raises(ValidationError):
            sv_triplets(idx, ["a", "b"], k=1, per_anchor=1, rng=np.random.default_rng(0))

    def test_single_allowed_negative_always_drawn(self):
        # Shape (K+2, K): each anchor's context is the next K rows (cyclic),
        # which leaves exactly one allowed negative, the previous row.
        k, n = 4, 6
        ctx = (np.arange(n)[:, None] + np.arange(1, k + 1)) % n
        rows = _sample_triplet_rows(ctx, 2_000, np.random.default_rng(3))
        assert rows.shape == (n * 2_000, 3)
        assert np.array_equal(rows[:, 0], np.repeat(np.arange(n), 2_000))
        assert (ctx[rows[:, 0]] == rows[:, 1:2]).any(axis=1).all()
        assert np.array_equal(rows[:, 2], (rows[:, 0] - 1) % n)

    def test_negatives_uniform_outside_context(self):
        k, n, per = 3, 10, 12_000
        ctx = (np.arange(n)[:, None] + np.arange(1, k + 1)) % n
        rows = _sample_triplet_rows(ctx, per, np.random.default_rng(4))
        for a in range(n):
            negs = rows[rows[:, 0] == a, 2]
            allowed = sorted(set(range(n)) - {a, *ctx[a].tolist()})
            assert sorted(set(negs.tolist())) == allowed
            freq = np.bincount(negs, minlength=n)[allowed] / per
            assert np.abs(freq - 1 / len(allowed)).max() < 0.02

    def test_context_matrix_too_narrow_for_negatives(self):
        with pytest.raises(ValidationError):
            _sample_triplet_rows(np.array([[1], [0]]), 1, np.random.default_rng(0))


def small_city(**overrides):
    cfg = SynthConfig(n_neighborhoods=16, views_per_neighborhood=6, pois_per_neighborhood=6,
                      latent_dim=2, feature_dim=8, vocab_size=60, seed=5)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return generate_city(cfg)


def city_training_inputs(city):
    return city.sv_ids, city.features.astype(np.float64), SpatialIndex(city.sv_ids, city.sv_lat, city.sv_lon)


class TestTrainStreetView:
    def test_zero_epochs_identity(self):
        city = small_city()
        ids, feats, index = city_training_inputs(city)
        cfg = TrainingConfig(d=4, k_context=3, epochs_sv=0, seed=9)
        params = init_encoder(feats.shape[1], 0, 4, seed=9)
        trained, X = train_street_view(params, ids, feats, index, cfg)
        assert np.array_equal(trained.weights[0], params.weights[0])
        for j, sid in enumerate(ids):
            assert np.allclose(X[j], _forward_batch(params, feats[j][None, :])[0][0])

    def test_seed_determinism(self):
        city = small_city()
        ids, feats, index = city_training_inputs(city)
        cfg = TrainingConfig(d=4, k_context=3, epochs_sv=3, triplets_per_anchor=3, seed=21)
        params = init_encoder(feats.shape[1], 0, 4, seed=21)
        _, X1 = train_street_view(params, ids, feats, index, cfg)
        _, X2 = train_street_view(params, ids, feats, index, cfg)
        assert np.array_equal(X1, X2)

    def test_heldout_loss_non_increasing(self):
        city = small_city()
        ids, feats, index = city_training_inputs(city)
        cfg = TrainingConfig(d=4, k_context=3, epochs_sv=8, triplets_per_anchor=5,
                             lr_sv=0.02, seed=33)
        params = init_encoder(feats.shape[1], 0, 4, seed=33)
        ctx = context_rows_from_index(index, cfg.k_context)
        eval_rng = np.random.default_rng(999)
        rows = _sample_triplet_rows(context_rows_from_index(index, cfg.k_context), 10, eval_rng)

        def heldout_loss(X):
            return mean_hinge(X[rows[:, 0]], X[rows[:, 1]], X[rows[:, 2]], cfg.margin_sv)

        _, X0 = train_street_view(params, ids, feats, index,
                                  TrainingConfig(**{**cfg.__dict__, "epochs_sv": 0}))
        _, X1 = train_street_view(params, ids, feats, index, cfg)
        assert heldout_loss(X1) <= heldout_loss(X0)
        assert ctx.shape == (len(ids), cfg.k_context)


    @pytest.mark.parametrize("reorder", ["swapped", "missing", "extra"])
    def test_index_must_hold_the_ids_in_order(self, reorder):
        city = small_city()
        ids, feats, index = city_training_inputs(city)
        lat, lon = city.sv_lat, city.sv_lon
        if reorder == "swapped":
            rows = [1, 0, *range(2, len(ids))]
            other = SpatialIndex([ids[i] for i in rows], lat[rows], lon[rows])
        elif reorder == "missing":
            other = SpatialIndex(ids[:-1], lat[:-1], lon[:-1])
        else:
            other = SpatialIndex(ids + ["zz"], np.append(lat, lat[0]), np.append(lon, lon[0]))
        cfg = TrainingConfig(d=4, k_context=3, epochs_sv=1, seed=9)
        params = init_encoder(feats.shape[1], 0, 4, seed=9)
        with pytest.raises(ValidationError, match="spatial index"):
            train_street_view(params, ids, feats, other, cfg)
        with pytest.raises(ValidationError, match="spatial index"):
            train_street_view(params, ids[::-1], feats, index, cfg)

    @pytest.mark.parametrize("batch_size", [64, 7, 1])
    @pytest.mark.parametrize("hidden", [0, 5])
    def test_matches_copying_reference_bitwise(self, hidden, batch_size):
        # 96 views x 2 triplets: batches of 7 leave a last batch of 3.
        city = small_city()
        ids, feats, index = city_training_inputs(city)
        cfg = TrainingConfig(d=4, k_context=3, epochs_sv=2, triplets_per_anchor=2,
                             batch_size=batch_size, hidden=hidden, lr_sv=0.05, seed=43)
        params = init_encoder(feats.shape[1], hidden, 4, seed=43)
        trained, X = train_street_view(params, ids, feats, index, cfg)
        ref, ref_X = copying_train_street_view(params, feats, index, cfg)
        for got, want in zip(trained.weights + trained.biases + [X], ref.weights + ref.biases + [ref_X]):
            assert got.shape == want.shape and np.array_equal(got, want)
        assert not np.array_equal(trained.weights[0], params.weights[0])

    def test_leaves_the_callers_params_alone(self):
        city = small_city()
        ids, feats, index = city_training_inputs(city)
        cfg = TrainingConfig(d=4, k_context=3, epochs_sv=2, hidden=3, seed=47)
        params = init_encoder(feats.shape[1], 3, 4, seed=47)
        mine = params.weights + params.biases
        before = [a.copy() for a in mine]
        first, X1 = train_street_view(params, ids, feats, index, cfg)
        second, X2 = train_street_view(params, ids, feats, index, cfg)
        for a, b in zip(mine, before):
            assert np.array_equal(a, b)
        for got in first.weights + first.biases + [X1]:
            assert not any(np.shares_memory(got, a) for a in mine)
        for a, b in zip(first.weights + first.biases + [X1], second.weights + second.biases + [X2]):
            assert np.array_equal(a, b) and not np.shares_memory(a, b)

    @pytest.mark.parametrize("hidden", [0, 5])
    def test_one_pass_step_matches_three_pass_reference(self, hidden):
        # Reference: the anchor, context and negative rows go through their
        # own forward and backward passes, and the gradients are summed.
        city = small_city()
        ids, feats, index = city_training_inputs(city)
        cfg = TrainingConfig(d=4, k_context=3, epochs_sv=2, triplets_per_anchor=2,
                             batch_size=16, hidden=hidden, lr_sv=0.05, seed=41)
        params = init_encoder(feats.shape[1], hidden, 4, seed=41)
        trained, X = train_street_view(params, ids, feats, index, cfg)

        ref = copy.deepcopy(params)
        rng = np.random.default_rng(cfg.seed)
        ctx = context_rows_from_index(index, cfg.k_context)
        for _ in range(cfg.epochs_sv):
            rows = _sample_triplet_rows(ctx, cfg.triplets_per_anchor, rng)
            rows = rows[rng.permutation(rows.shape[0])]
            for start in range(0, rows.shape[0], cfg.batch_size):
                batch = rows[start:start + cfg.batch_size]
                passes = [_forward_batch(ref, feats[batch[:, col]]) for col in range(3)]
                grads = split_grads(*(out for out, _ in passes), cfg.margin_sv)[:3]
                sums_w = [np.zeros_like(w) for w in ref.weights]
                sums_b = [np.zeros_like(b) for b in ref.biases]
                one = _views(ref, np.empty(ref.size))
                for (_, cache), grad in zip(passes, grads):
                    _backward_batch(ref, cache, grad, one)
                    for acc, g in zip(sums_w + sums_b, one.weights + one.biases):
                        acc += g
                for param, g in zip(ref.weights + ref.biases, sums_w + sums_b):
                    param -= cfg.lr_sv / batch.shape[0] * g
        for got, want in zip(trained.weights + trained.biases, ref.weights + ref.biases):
            assert np.allclose(got, want, rtol=0, atol=1e-12)
        assert np.allclose(X, _forward_batch(ref, feats)[0], rtol=0, atol=1e-12)
        assert not np.allclose(trained.weights[0], params.weights[0])


def reference_aggregate(X, sv_neighborhoods, neighborhood_ids):
    """Stage 2 as a per-street-view loop: sum and count, then divide, with
    empty neighborhoods zero."""
    row_of = {nid: i for i, nid in enumerate(neighborhood_ids)}
    Z = np.zeros((len(neighborhood_ids), X.shape[1]))
    counts = np.zeros(len(neighborhood_ids), dtype=np.int64)
    for j, nid in enumerate(sv_neighborhoods):
        Z[row_of[nid]] += X[j]
        counts[row_of[nid]] += 1
    return Z / np.maximum(counts, 1)[:, None]


class TestScatterAdd:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_2d_add_at_bitwise(self, dtype):
        # 400 rows into 30 target rows, magnitudes from 1e-8 to 1e8: an
        # addition out of order would show in the last bits.
        rng = np.random.default_rng(21)
        for trial in range(10):
            target = rng.normal(size=(30, 5)) * 10.0 ** rng.integers(-8, 9, size=(30, 1))
            rows = rng.integers(0, 30, size=400)
            values = (rng.normal(size=(400, 5)) * 10.0 ** rng.integers(-8, 9, size=(400, 5))).astype(dtype)
            want = target.copy()
            np.add.at(want, rows, values)
            training._scatter_add(target, rows, values)
            assert target.tobytes() == want.tobytes(), trial

    def test_no_rows_leaves_the_target(self):
        target = np.arange(12.0).reshape(4, 3)
        training._scatter_add(target, np.zeros(0, dtype=np.int64), np.zeros((0, 3), dtype=np.float32))
        assert target.tobytes() == np.arange(12.0).reshape(4, 3).tobytes()

    @pytest.mark.parametrize("target", [np.zeros((3, 4)).T, np.zeros((4, 6))[:, ::2], np.zeros((4, 3), np.float32)],
                             ids=["transposed", "strided", "float32"])
    def test_refuses_a_target_it_would_not_update_in_place(self, target):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            training._scatter_add(target, np.array([0, 1]), np.ones((2, 3)))
        assert not target.any()


class TestAggregate:
    @pytest.mark.parametrize("policy", ["error", "zero"])
    def test_matches_per_row_reference_bitwise(self, policy):
        rng = np.random.default_rng(12)
        nids = [f"n{i:02d}" for i in range(40)]
        for trial in range(20):
            n = int(rng.integers(len(nids), 400))
            X = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(n, 7))
            # The error policy needs every neighborhood covered.
            used = nids if policy == "error" else nids[:int(rng.integers(1, 41))]
            assigned = [used[i] for i in rng.integers(0, len(used), size=n)]
            if policy == "error":
                assigned[:len(used)] = used
                rng.shuffle(assigned)
            # cmd_aggregate passes float32 rows, as read from sv.emb.
            for rows in (X, X.astype(np.float32)):
                Z = aggregate_neighborhoods(rows, assigned, nids, policy=policy)
                assert np.array_equal(Z, reference_aggregate(rows, assigned, nids)), (trial, rows.dtype)

    def test_single_view(self):
        X = np.array([[1.0, 2.0]])
        Z = aggregate_neighborhoods(X, ["n1"], ["n1"])
        assert np.allclose(Z, [[1.0, 2.0]])

    def test_mean_of_two(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        Z = aggregate_neighborhoods(X, ["n1", "n1"], ["n1"])
        assert np.allclose(Z, [[0.5, 0.5]])

    def test_perturbation_never_decreases_cost(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(12, 5))
        Z = aggregate_neighborhoods(X, ["n1"] * 12, ["n1"])
        base = ((X - Z[0]) ** 2).sum()
        for _ in range(100):
            delta = rng.normal(size=5)
            delta *= 1e-2 / np.linalg.norm(delta)
            assert ((X - (Z[0] + delta)) ** 2).sum() >= base

    def test_empty_neighborhood_policies(self, caplog):
        X = np.array([[1.0, 1.0]])
        with pytest.raises(ValidationError, match="zero street views"):
            aggregate_neighborhoods(X, ["n1"], ["n1", "n2"], policy="error")
        Z = aggregate_neighborhoods(X, ["n1"], ["n1", "n2"], policy="zero")
        assert not Z[1].any()

    def test_unknown_neighborhood_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            aggregate_neighborhoods(np.ones((1, 2)), ["n9"], ["n1"])


def corpus_of(counters):
    """The bags and vocabulary of toy bags, taken from their bag table as
    ``train-poi`` takes them."""
    table = table_of(counters)
    return bags_of(table), build_vocabulary(table)


NO_WORDS = Bag(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


def toy_corpus():
    """Four neighborhoods, each dominated by its own signature word plus a
    shared background word."""
    signature = {f"n{i}": f"sig{i}" for i in range(4)}
    bags = {}
    for nid, word in signature.items():
        bags[nid] = Counter({word: 40, "shared": 4})
    return *corpus_of(bags), signature


def random_corpus(n, vocab_size, seed, words_per_bag=8):
    """``n`` neighborhoods with random bags of up to ``words_per_bag`` of
    ``vocab_size`` words, and their vocabulary."""
    rng = np.random.default_rng(seed)
    bags = {f"n{i:03d}": Counter({f"w{w:03d}": int(rng.integers(1, 6))
                                  for w in rng.choice(vocab_size, words_per_bag)})
            for i in range(n)}
    return corpus_of(bags)


class TestTrainPoiStage:
    def test_zero_epochs_identity(self):
        bags, vocab, _ = toy_corpus()
        nbhd_ids = sorted(bags)
        z0 = np.random.default_rng(0).normal(size=(4, 6))
        cfg = TrainingConfig(d=6, epochs_poi=0, seed=77)
        Z, Y = train_poi_stage(z0, nbhd_ids, vocab, bags, cfg)
        assert np.array_equal(Z, z0)
        assert np.array_equal(Y, init_word_vectors(vocab, 6, seed=77))

    def test_determinism(self):
        bags, vocab, _ = toy_corpus()
        nbhd_ids = sorted(bags)
        z0 = np.random.default_rng(1).normal(size=(4, 6))
        cfg = TrainingConfig(d=6, epochs_poi=5, triplets_per_anchor=4, seed=7)
        Z1, Y1 = train_poi_stage(z0, nbhd_ids, vocab, bags, cfg)
        Z2, Y2 = train_poi_stage(z0, nbhd_ids, vocab, bags, cfg)
        assert np.array_equal(Z1, Z2)
        assert np.array_equal(Y1, Y2)

    def test_heldout_loss_decreases(self):
        bags, vocab, _ = toy_corpus()
        nbhd_ids = sorted(bags)
        rng = np.random.default_rng(2)
        z0 = rng.normal(size=(4, 6)) * 0.1
        cfg = TrainingConfig(d=6, epochs_poi=30, triplets_per_anchor=8, lr_poi=0.05, seed=3)

        eval_rng = np.random.default_rng(123)
        trips = []
        for i, nid in enumerate(nbhd_ids):
            ids, counts = bags[nid].ids, bags[nid].counts
            outside = [t for t in range(vocab.size) if t not in set(ids.tolist())]
            for _ in range(25):
                c = int(eval_rng.choice(ids, p=counts / counts.sum()))
                n = int(eval_rng.choice(outside))
                trips.append((i, c, n))
        trips = np.array(trips)

        def loss(Z, Y):
            return mean_hinge(Z[trips[:, 0]], Y[trips[:, 1]], Y[trips[:, 2]], cfg.margin_poi)

        Y0 = init_word_vectors(vocab, 6, seed=cfg.seed)
        Z, Y = train_poi_stage(z0, nbhd_ids, vocab, bags, cfg)
        assert loss(Z, Y) < loss(z0, Y0)

    def test_dominant_word_ends_up_close(self):
        bags, vocab, signature = toy_corpus()
        nbhd_ids = sorted(bags)
        rng = np.random.default_rng(5)
        z0 = rng.normal(size=(4, 6)) * 0.1
        cfg = TrainingConfig(d=6, epochs_poi=60, triplets_per_anchor=8, lr_poi=0.05, seed=11)
        Z, Y = train_poi_stage(z0, nbhd_ids, vocab, bags, cfg)
        for i, nid in enumerate(nbhd_ids):
            sig_id = vocab.tokens.index(signature[nid])
            cos = Y @ Z[i] / (np.linalg.norm(Y, axis=1) * np.linalg.norm(Z[i]) + 1e-12)
            assert cos[sig_id] > np.median(cos)

    def test_empty_bag_not_fatal(self):
        bags, vocab, _ = toy_corpus()
        bags["n_empty"] = NO_WORDS
        nbhd_ids = sorted(bags)
        z0 = np.zeros((5, 6))
        cfg = TrainingConfig(d=6, epochs_poi=2, seed=0)
        Z, _ = train_poi_stage(z0, nbhd_ids, vocab, bags, cfg)
        empty_row = nbhd_ids.index("n_empty")
        assert not Z[empty_row].any()  # untouched

    def test_pretrained_rows_used(self):
        bags, vocab, _ = toy_corpus()
        nbhd_ids = sorted(bags)
        vec = np.full(6, 0.25)
        pre = {vocab.tokens.index("shared"): vec}
        cfg = TrainingConfig(d=6, epochs_poi=0, seed=13)
        _, Y = train_poi_stage(np.zeros((4, 6)), nbhd_ids, vocab, bags, cfg, pretrained=pre)
        assert np.array_equal(Y[vocab.tokens.index("shared")], vec)

    @pytest.mark.parametrize("block", [1, training._POI_BLOCK], ids=["block-of-one", "default-block"])
    def test_blocks_match_replay_of_the_same_draws(self, monkeypatch, block):
        # Reference: the stage's own draws replayed one triplet at a time,
        # every gradient taken at the values its block started from, so
        # repeated word rows add up. A block of one is sequential
        # per-neighborhood SGD.
        monkeypatch.setattr(training, "_POI_BLOCK", block)
        draws = []
        epoch = training._EpochDraws.epoch
        monkeypatch.setattr(training._EpochDraws, "epoch",
                            lambda self, rng, per: draws.append(epoch(self, rng, per)) or draws[-1])
        bags, vocab = random_corpus(n=40, vocab_size=30, seed=3)
        bags["n_empty"] = NO_WORDS
        nbhd_ids = sorted(bags)
        z0 = np.random.default_rng(8).normal(size=(len(nbhd_ids), 6)) * 0.1
        cfg = TrainingConfig(d=6, epochs_poi=2, triplets_per_anchor=8, lr_poi=0.05,
                             anchor_weight=0.3, seed=4)
        Z, Y = train_poi_stage(z0, nbhd_ids, vocab, bags, cfg)
        assert len(draws) == cfg.epochs_poi

        Zr, Yr = z0.copy(), init_word_vectors(vocab, 6, cfg.seed)
        per = cfg.triplets_per_anchor
        for order, ctx, neg in draws:
            assert sorted(order.tolist()) == [i for i, nid in enumerate(nbhd_ids) if nid != "n_empty"]
            for start in range(0, order.size, block):
                z_start, y_start = Zr.copy(), Yr.copy()
                for t in range(start * per, min(start + block, order.size) * per):
                    i, c, n = order[t // per], ctx[t], neg[t]
                    assert c in bags[nbhd_ids[i]].ids and n not in bags[nbhd_ids[i]].ids
                    ga, gc, gn = grads_of(z_start[i], y_start[c], y_start[n], cfg.margin_poi)
                    Zr[i] -= cfg.lr_poi * (ga + cfg.anchor_weight * (z_start[i] - z0[i]))
                    Yr[c] -= cfg.lr_poi * gc
                    Yr[n] -= cfg.lr_poi * gn
        assert np.allclose(Z, Zr, rtol=0, atol=1e-12)
        assert np.allclose(Y, Yr, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("anchor_weight", [0.0, 0.3])
    def test_matches_concatenating_reference_bitwise(self, monkeypatch, anchor_weight):
        draws = []
        epoch = training._EpochDraws.epoch
        monkeypatch.setattr(training._EpochDraws, "epoch",
                            lambda self, rng, per: draws.append(epoch(self, rng, per)) or draws[-1])
        bags, vocab = random_corpus(n=40, vocab_size=30, seed=5)
        nbhd_ids = sorted(bags)
        z0 = np.random.default_rng(9).normal(size=(len(nbhd_ids), 6)) * 0.1
        cfg = TrainingConfig(d=6, epochs_poi=3, triplets_per_anchor=7, lr_poi=0.05,
                             anchor_weight=anchor_weight, seed=6)
        Z, Y = train_poi_stage(z0, nbhd_ids, vocab, bags, cfg)
        Zr, Yr = concatenating_poi_updates(z0, init_word_vectors(vocab, 6, cfg.seed), draws, cfg,
                                           training._POI_BLOCK)
        assert np.array_equal(Z, Zr) and np.array_equal(Y, Yr)
        assert not np.array_equal(Z, z0)

    def test_anchor_weight_keeps_z_near_init(self):
        bags, vocab, _ = toy_corpus()
        nbhd_ids = sorted(bags)
        z0 = np.random.default_rng(6).normal(size=(4, 6)) * 0.1
        cfg = TrainingConfig(d=6, epochs_poi=30, triplets_per_anchor=8, lr_poi=0.05, seed=3)
        free, _ = train_poi_stage(z0, nbhd_ids, vocab, bags, cfg)
        held, _ = train_poi_stage(z0, nbhd_ids, vocab, bags,
                                  dataclasses.replace(cfg, anchor_weight=0.5))
        assert np.linalg.norm(held - z0) < 0.5 * np.linalg.norm(free - z0)


LAW_FREQS = {"a": 2, "b": 7, "c": 13, "d": 29, "e": 50}
LAW_VOCAB = Vocabulary(tokens=tuple(LAW_FREQS), frequencies=np.array(list(LAW_FREQS.values())))


def law_bag(counts: dict) -> Bag:
    """The ``Bag`` over LAW_VOCAB of token -> count."""
    ids = sorted(map(LAW_VOCAB.tokens.index, counts))
    return Bag(np.array(ids), np.array([counts[LAW_VOCAB.tokens[i]] for i in ids]))


class TestEpochDraws:
    @pytest.mark.parametrize("bag_words, heavy", [("ad", False), ("de", True)],
                             ids=["rejection", "heavy-bag"])
    def test_negatives_follow_the_zeroed_table_law(self, bag_words, heavy):
        vocab, bag = LAW_VOCAB, law_bag({w: 1 for w in bag_words})
        draws = training._EpochDraws([0], [bag], vocab, 0.5)
        assert bool(draws.heavy) == heavy
        _, _, neg = draws.epoch(np.random.default_rng(33), per=100_000)
        assert not np.isin(neg, bag.ids).any()
        weights = np.array(list(LAW_FREQS.values()), dtype=float) ** 0.5
        weights[bag.ids] = 0.0
        emp = np.bincount(neg, minlength=vocab.size) / neg.size
        assert np.abs(emp - weights / weights.sum()).max() <= 0.01

    def test_contexts_follow_the_counts_and_stay_in_their_bag(self):
        vocab = LAW_VOCAB
        bags = [law_bag(c) for c in ({"a": 1, "b": 3}, {"c": 5}, {"b": 1, "d": 1, "e": 2})]
        order, ctx, neg = training._EpochDraws([4, 0, 2], bags, vocab, 0.5).epoch(
            np.random.default_rng(34), per=50_000)
        assert sorted(order.tolist()) == [0, 2, 4]
        for row, bag in zip([4, 0, 2], bags):
            own = np.repeat(order, 50_000) == row
            assert np.isin(ctx[own], bag.ids).all() and not np.isin(neg[own], bag.ids).any()
            emp = np.array([np.mean(ctx[own] == t) for t in bag.ids])
            assert np.abs(emp - bag.counts / bag.counts.sum()).max() <= 0.01

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_the_searchsorted_reference(self, seed):
        # Bags of counts up to 9, single-token bags, and one bag holding the
        # two words with most of the negative weight: a heavy bag.
        rng = np.random.default_rng(seed)
        size = 40
        freqs = rng.integers(1, 100, size=size)
        freqs[:2] = 10**5
        vocab = Vocabulary(tokens=tuple(f"w{i:02d}" for i in range(size)), frequencies=freqs)
        bags = [Bag(np.array([0, 1]), np.array([3, 9]))]
        for b in range(30):
            ids = np.unique(rng.integers(2, size, size=1 if b % 3 == 0 else 8))
            bags.append(Bag(ids, rng.integers(1, 10, size=ids.size)))
        rows = rng.permutation(50)[:len(bags)].tolist()
        draws = training._EpochDraws(rows, bags, vocab, 0.5)
        assert list(draws.heavy) == [0]
        got_rng, want_rng = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)
        for _ in range(3):
            got = draws.epoch(got_rng, per=7)
            want = searchsorted_epoch(draws, bags, want_rng, per=7)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_heavy_bag_epoch_terminates_quickly(self):
        # The bag holds all but ~5e-7 of the negative weight: rejection from
        # the shared table would need ~2e6 draws per negative.
        vocab = Vocabulary(tokens=("a", "b", "c"), frequencies=np.array([10**12, 10**12, 1]))
        bags = {"n0": Bag(np.array([0, 1]), np.array([1, 1]))}
        cfg = TrainingConfig(d=4, epochs_poi=1, seed=1)
        t0 = time.monotonic()
        train_poi_stage(np.zeros((1, 4)), ["n0"], vocab, bags, cfg)
        assert time.monotonic() - t0 < 1.0

    def test_memory_grows_with_vocabulary_plus_bags_not_their_product(self):
        # 1000 neighborhoods x 20000 words: one |V|-long table per bag would
        # be 1000 * 20000 * 8 B = 160 MB.
        rng = np.random.default_rng(5)
        n, size = 1000, 20_000
        vocab = Vocabulary(tokens=tuple(f"w{i:05d}" for i in range(size)),
                           frequencies=rng.integers(1, 1000, size=size))
        ids = [np.unique(rng.integers(0, size, 60)) for _ in range(n)]
        bags = {f"n{i:04d}": Bag(b, rng.integers(1, 5, size=b.size)) for i, b in enumerate(ids)}
        z0 = np.zeros((n, 8))
        cfg = TrainingConfig(d=8, epochs_poi=1, seed=2)
        tracemalloc.start()
        try:
            train_poi_stage(z0, sorted(bags), vocab, bags, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def diverging_stage_1():
    ids, feats, index = city_training_inputs(small_city())
    cfg = TrainingConfig(d=4, hidden=4, k_context=3, epochs_sv=2, lr_sv=1e200, seed=9)
    train_street_view(init_encoder(feats.shape[1], 4, 4, seed=9), ids, feats, index, cfg)


def diverging_stage_3():
    bags, vocab, _ = toy_corpus()
    cfg = TrainingConfig(d=6, epochs_poi=2, triplets_per_anchor=4, lr_poi=1e200, seed=7)
    train_poi_stage(np.full((4, 6), 0.1), sorted(bags), vocab, bags, cfg)


@pytest.mark.parametrize("run, message", [
    (diverging_stage_1, "stage 1 diverged in epoch 1 of 2"),
    (diverging_stage_3, "stage 3 diverged in epoch 1 of 2"),
    (lambda: small_city(n_clusters=2, cluster_separation=1e308), "street-view features overflow"),
    (lambda: small_city(feature_noise=1e39), "street-view features overflow"),
    (lambda: small_city(topic_sharpness=1e308), "overflows the topic logits"),
], ids=["stage-1", "stage-3", "synth-latents", "synth-features", "synth-topics"])
def test_guarded_overflow_raises_without_numpy_warnings(run, message):
    """Where a check reports an overflow as a ValidationError, numpy's own
    RuntimeWarnings for it are not shown as well."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=message):
            run()


def test_full_pipeline_seed_determinism():
    city = small_city()
    ids, feats, index = city_training_inputs(city)
    table = build_bag_table(city.pois, city.neighborhood_ids)
    vocab, bags = build_vocabulary(table), bags_of(table)
    cfg = TrainingConfig(d=4, k_context=3, epochs_sv=2, epochs_poi=2,
                         triplets_per_anchor=2, seed=55)

    def run():
        params = init_encoder(feats.shape[1], cfg.hidden, cfg.d, cfg.seed)
        params, X = train_street_view(params, ids, feats, index, cfg)
        Z1 = aggregate_neighborhoods(X, city.sv_neighborhood_ids, city.neighborhood_ids)
        Z2, _ = train_poi_stage(Z1, city.neighborhood_ids, vocab, bags, cfg)
        return Z2

    assert np.array_equal(run(), run())
