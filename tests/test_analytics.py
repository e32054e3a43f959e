"""PCA, regression, k-means, cosine ranking, and tf-idf baseline tests."""

import logging
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from oracles import adjusted_rand_index, broadcast_kmeans, linreg_predict, svd_pca_fit, table_of

from metrovec import analytics
from metrovec.analytics import (SplitProtocol, cosine_rank, default_pca_candidates,
                                evaluate_regression, kmeans, linreg_fit, pca_fit, poistats_tfidf,
                                r_squared)
from metrovec.errors import ValidationError


class TestPca:
    def test_line_y_equals_x(self):
        t = np.linspace(-3, 3, 40)
        X = np.stack([t, t], axis=1)
        model = pca_fit(X, 1)
        assert np.allclose(np.abs(model.components[0]), [1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert model.components[0][0] > 0  # sign convention
        assert model.explained_variance_ratio[0] == pytest.approx(1.0)

    def test_isotropic_ratios(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(4000, 2))
        model = pca_fit(X, 2)
        assert abs(model.explained_variance_ratio[0] - 0.5) < 0.05
        assert abs(model.explained_variance_ratio[1] - 0.5) < 0.05

    def test_full_reconstruction(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 6))
        model = pca_fit(X, 6)
        recon = model.transform(X) @ model.components + model.mean
        assert np.abs(recon - X).max() < 1e-6

    def test_orthonormal_and_ordered(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(50, 8)) * np.array([5, 4, 3, 2, 1, 0.5, 0.2, 0.1])
        model = pca_fit(X, 5)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(5)).max() < 1e-8
        ratios = model.explained_variance_ratio
        assert all(ratios[i] >= ratios[i + 1] for i in range(len(ratios) - 1))
        assert ratios.sum() <= 1.0 + 1e-12

    @pytest.mark.parametrize("shape,n_components,calls", [
        ("tall", 6, [("eigh", (8, 8))]),
        ("wide", 30, [("eigh", (40, 40))]),
        ("tall-rank-deficient", 8, [("eigh", (8, 8)), ("svd", (50, 8))]),
        ("wide-rank-deficient", 20, [("eigh", (40, 40)), ("svd", (40, 120))]),
    ])
    def test_each_route_matches_svd(self, monkeypatch, shape, n_components, calls):
        rng = np.random.default_rng(34)
        if shape == "tall":
            X = rng.normal(size=(50, 8)) * np.array([5, 4, 3, 2, 1, 0.5, 0.2, 0.1])
        elif shape == "wide":
            X = rng.normal(size=(40, 120)) * np.geomspace(4.0, 0.01, 120)
        elif shape == "tall-rank-deficient":  # rank 5: the 8th eigenvalue is not resolved
            base = rng.normal(size=(50, 5))
            X = np.hstack([base, base[:, :3]])
        else:  # rank 10: the 20th eigenvalue is not resolved
            X = np.tile(rng.normal(size=(40, 10)), (1, 12))
        reference = svd_pca_fit(X, n_components)
        seen = []

        def spy(name, real):
            def call(a, *args, **kwargs):
                seen.append((name, a.shape))
                return real(a, *args, **kwargs)
            return call

        for name in ("eigh", "svd"):
            monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
        model = pca_fit(X, n_components)
        monkeypatch.undo()
        assert seen == calls
        assert np.abs(model.components @ model.components.T - np.eye(n_components)).max() < 1e-12
        assert np.abs(model.explained_variance_ratio - reference.explained_variance_ratio).max() <= 1e-12
        # A component whose variance is resolved and stands apart from its
        # neighbours' is determined up to sign, which the convention fixes.
        var = np.linalg.svd(X - X.mean(axis=0), compute_uv=False) ** 2
        var /= var[0]
        gap = np.minimum(-np.diff(var, prepend=np.inf), -np.diff(var, append=0.0))[:n_components]
        separated = (var[:n_components] > analytics.PCA_RESOLVED) & (gap > 1e-3)
        assert separated.sum() >= n_components // 2
        projected, expected = model.transform(X), reference.transform(X)
        assert np.abs(projected[:, separated] - expected[:, separated]).max() <= 1e-9

    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError):
            pca_fit(np.ones((5, 3)), 1)

    def test_component_bounds(self):
        with pytest.raises(ValidationError):
            pca_fit(np.random.default_rng(0).normal(size=(4, 3)), 4)


class TestLinreg:
    def test_exact_recovery(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(50, 4))
        true_w = np.array([1.5, -2.0, 0.3, 4.0])
        y = X @ true_w + 7.0
        w, b = linreg_fit(X, y)
        assert np.abs(w - true_w).max() < 1e-6
        assert abs(b - 7.0) < 1e-6
        assert r_squared(y, linreg_predict(w, b, X)) == pytest.approx(1.0)

    def test_constant_target(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(20, 3))
        y = np.full(20, 3.25)
        w, b = linreg_fit(X, y)
        assert np.abs(w).max() < 1e-6
        assert b == pytest.approx(3.25)

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(40, 5))
        y = rng.normal(size=40)
        w, b = linreg_fit(X, y)
        Xa = np.hstack([X, np.ones((40, 1))])
        coef, *_ = np.linalg.lstsq(Xa, y, rcond=None)
        assert np.abs(w - coef[:5]).max() < 1e-6
        assert abs(b - coef[5]) < 1e-6

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            linreg_fit(np.array([[np.inf, 1.0]]), np.array([1.0]))


class TestRSquared:
    def test_perfect(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, y) == pytest.approx(1.0)

    def test_mean_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, np.full(3, 2.0)) == pytest.approx(0.0)

    def test_arithmetic(self):
        assert r_squared(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0])) == pytest.approx(0.5)

    def test_constant_truth_rejected(self):
        with pytest.raises(ValidationError):
            r_squared(np.ones(5), np.arange(5.0))


def reference_split_eval(Z, y, train_idx, val_idx, test_idx, candidates):
    """(test R^2, component count) of one split and one target, one general
    ``linreg_fit`` solve per candidate: PCA by a thin SVD of the training
    rows, the count with the best validation R^2 (the smaller on a tie; a
    constant validation target scores -inf), scored on the test rows."""
    pca = svd_pca_fit(Z[train_idx], max(candidates))
    p_train, p_val, p_test = (pca.transform(Z[rows]) for rows in (train_idx, val_idx, test_idx))
    best = None
    for c in sorted(candidates):
        w, b = linreg_fit(p_train[:, :c], y[train_idx])
        try:
            score = r_squared(y[val_idx], linreg_predict(w, b, p_val[:, :c]))
        except ValidationError:
            score = -np.inf
        if best is None or score > best[0]:
            best = (score, c, w, b)
    _, c, w, b = best
    return r_squared(y[test_idx], linreg_predict(w, b, p_test[:, :c])), c


def splits(n, repeats, seed):
    """The (train, val, test) rows of each repeat of ``evaluate_regression``."""
    n_train, n_val = math.floor(analytics.TRAIN_FRACTION * n), math.floor(analytics.VAL_FRACTION * n)
    for rep in range(repeats):
        perm = np.random.default_rng(seed + rep).permutation(n)
        yield perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:]


def assert_matches_reference(Z, targets, protocol, tol):
    report = evaluate_regression(Z, targets, [f"t{t}" for t in range(targets.shape[1])], protocol)
    n_train = math.floor(analytics.TRAIN_FRACTION * len(Z))
    cands = protocol.pca_candidates or default_pca_candidates(Z.shape[1], n_train)
    for rep, rows in enumerate(splits(len(Z), protocol.repeats, protocol.seed)):
        for t in range(targets.shape[1]):
            r2, c = reference_split_eval(Z, targets[:, t], *rows, cands)
            assert abs(report.per_repeat_r2[rep, t] - r2) <= tol
            assert report.chosen_components[rep, t] == c
    return report


class TestEvaluateRegression:
    def test_linear_targets_recovered(self):
        rng = np.random.default_rng(14)
        Z = rng.normal(size=(120, 10))
        W = rng.normal(size=(10, 2))
        targets = Z @ W + 0.01 * rng.normal(size=(120, 2))
        report = evaluate_regression(Z, targets, ["t1", "t2"],
                                     SplitProtocol(repeats=20, seed=0))
        assert report.mean_r2.min() > 0.95

    def test_noise_targets_near_zero(self):
        rng = np.random.default_rng(15)
        Z = rng.normal(size=(600, 6))
        targets = rng.normal(size=(600, 1))
        report = evaluate_regression(Z, targets, ["noise"],
                                     SplitProtocol(repeats=20, seed=1))
        assert abs(report.mean_r2[0]) <= 0.05

    def test_first_repeat_stable_across_repeat_counts(self):
        rng = np.random.default_rng(16)
        Z = rng.normal(size=(60, 6))
        y = Z @ rng.normal(size=(6, 1))
        one = evaluate_regression(Z, y, ["t"], SplitProtocol(repeats=1, seed=5))
        many = evaluate_regression(Z, y, ["t"], SplitProtocol(repeats=20, seed=5))
        assert one.per_repeat_r2[0, 0] == many.per_repeat_r2[0, 0]

    def test_pca_fit_on_train_rows_only(self, monkeypatch):
        rng = np.random.default_rng(17)
        Z = rng.normal(size=(50, 5))
        y = Z @ rng.normal(size=5)
        calls = []

        def recording_pca_fit(matrix, n_components):
            calls.append((matrix.copy(), n_components))
            return pca_fit(matrix, n_components)

        monkeypatch.setattr(analytics, "pca_fit", recording_pca_fit)
        evaluate_regression(Z, y, ["t"], SplitProtocol(repeats=3, seed=4, pca_candidates=[2, 3]))
        assert len(calls) == 3
        for (matrix, n_components), (train, _, _) in zip(calls, splits(50, 3, 4)):
            assert np.array_equal(matrix, Z[train])
            assert n_components == 3

    @pytest.mark.parametrize("candidates", [[], [1, 3, 5]])
    def test_matches_per_target_split_eval(self, candidates):
        rng = np.random.default_rng(28)
        Z = rng.normal(size=(70, 9))
        targets = np.column_stack([Z @ rng.normal(size=9), rng.normal(size=70),
                                   Z[:, 0] ** 2 + 0.1 * rng.normal(size=70)])
        assert_matches_reference(Z, targets, SplitProtocol(repeats=4, seed=3, pca_candidates=candidates),
                                 tol=1e-12)

    @pytest.mark.parametrize("shape", ["duplicated-columns", "near-zero-singular-value", "wide",
                                       "wide-rank-deficient", "very-wide"])
    def test_rank_deficient_matches_reference(self, shape):
        rng = np.random.default_rng(29)
        if shape == "duplicated-columns":
            base = rng.normal(size=(80, 5))
            Z = np.hstack([base, base[:, :3]])
        elif shape == "near-zero-singular-value":
            Z = rng.normal(size=(80, 8))
            Z[:, 4:] *= 1e-9
        elif shape == "wide":
            Z = rng.normal(size=(60, 90))
        elif shape == "wide-rank-deficient":  # rank 20 of 41 components: the SVD route
            Z = np.tile(rng.normal(size=(60, 20)), (1, 5))[:, :90]
        else:  # 5% nonzeros, every kept component resolved: the row Gram route
            Z = rng.normal(size=(60, 1200)) * (rng.random(size=(60, 1200)) < 0.05)
        targets = np.column_stack([Z[:, :4] @ rng.normal(size=4) + 0.1 * rng.normal(size=len(Z)),
                                   rng.normal(size=len(Z))])
        assert_matches_reference(Z, targets, SplitProtocol(repeats=5, seed=6), tol=1e-9)

    def test_null_direction_the_other_rows_leave_matches_svd(self, monkeypatch):
        # The training rows' null direction gets a weight of rounding noise
        # over RIDGE_LAMBDA, and the validation and test rows project onto it:
        # only the SVD's own basis gives the SVD's R^2 (the XᵀX eigenbasis
        # moved it by 1.3e-6).
        rng = np.random.default_rng(35)
        Z = rng.normal(size=(80, 8))
        train, _, _ = next(splits(80, 1, 2))
        Z[train, 7] = Z[train, 6]
        targets = np.column_stack([Z @ rng.normal(size=8), rng.normal(size=80)])
        protocol = SplitProtocol(repeats=1, seed=2)
        report = evaluate_regression(Z, targets, ["t0", "t1"], protocol)
        monkeypatch.setattr(analytics, "pca_fit", svd_pca_fit)
        reference = evaluate_regression(Z, targets, ["t0", "t1"], protocol)
        assert np.abs(report.per_repeat_r2 - reference.per_repeat_r2).max() <= 1e-12
        assert np.array_equal(report.chosen_components, reference.chosen_components)

    def test_constant_training_target_picks_smallest_count(self):
        rng = np.random.default_rng(30)
        Z = rng.normal(size=(60, 8))
        y = rng.normal(size=60)
        train, _, test = next(splits(60, 1, 2))
        y[train] = 2.5  # every prediction is then exactly 2.5: a tie
        protocol = SplitProtocol(repeats=1, seed=2)
        report = assert_matches_reference(Z, y[:, None], protocol, tol=1e-12)
        assert report.chosen_components[0, 0] == default_pca_candidates(8, 42)[0]
        assert report.per_repeat_r2[0, 0] == r_squared(y[test], np.full(len(test), 2.5))

    def test_constant_validation_target_picks_smallest_count(self):
        rng = np.random.default_rng(31)
        Z = rng.normal(size=(60, 8))
        y = Z @ rng.normal(size=8)
        _, val, _ = next(splits(60, 1, 2))
        y[val] = -1.0
        protocol = SplitProtocol(repeats=1, seed=2, pca_candidates=[2, 5, 8])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division by the zero variance
            report = assert_matches_reference(Z, y[:, None], protocol, tol=1e-12)
        assert report.chosen_components[0, 0] == 2

    def test_constant_test_target_rejected(self):
        rng = np.random.default_rng(32)
        Z = rng.normal(size=(60, 8))
        y = Z @ rng.normal(size=8)
        _, _, test = next(splits(60, 1, 2))
        y[test] = 4.0
        with pytest.raises(ValidationError, match="R\\^2 undefined"):
            evaluate_regression(Z, y, ["t"], SplitProtocol(repeats=1, seed=2))

    @pytest.mark.parametrize("where", ["embedding", "targets"])
    def test_non_finite_input_rejected(self, where):
        rng = np.random.default_rng(33)
        Z = rng.normal(size=(40, 4))
        y = Z @ rng.normal(size=4)
        (Z if where == "embedding" else y)[7] = np.nan
        with pytest.raises(ValidationError, match="non-finite regression inputs"):
            evaluate_regression(Z, y, ["t"], SplitProtocol(repeats=2))

    def test_too_few_rows(self):
        with pytest.raises(ValidationError):
            evaluate_regression(np.ones((4, 2)), np.ones((4, 1)), ["t"], SplitProtocol())

    def test_default_candidates(self):
        assert default_pca_candidates(32, 100) == [2, 4, 8, 16, 32]
        assert default_pca_candidates(10, 8) == [2, 4, 7]

    def test_explicit_candidates_respected(self):
        rng = np.random.default_rng(27)
        Z = rng.normal(size=(80, 12))
        y = Z @ rng.normal(size=(12, 1))
        report = evaluate_regression(Z, y, ["t"],
                                     SplitProtocol(repeats=3, seed=2, pca_candidates=[3, 12]))
        assert set(report.chosen_components.ravel().tolist()) <= {3, 12}


class TestKmeans:
    def test_separated_blobs(self):
        rng = np.random.default_rng(18)
        a = rng.normal(size=(40, 3)) * 0.1
        b = rng.normal(size=(40, 3)) * 0.1 + 100.0
        Z = np.vstack([a, b])
        truth = np.array([0] * 40 + [1] * 40)
        labels, _ = kmeans(Z, 2, seed=0)
        assert adjusted_rand_index(labels, truth) == pytest.approx(1.0)

    def test_k_equals_n(self):
        rng = np.random.default_rng(19)
        Z = rng.normal(size=(6, 2))
        labels, centroids = kmeans(Z, 6, seed=1)
        assert sorted(labels.tolist()) == list(range(6))
        inertia = sum(((Z[i] - centroids[labels[i]]) ** 2).sum() for i in range(6))
        assert inertia == pytest.approx(0.0)

    def test_inertia_monotone(self):
        # Lloyd's inertia never rises, traced by the reference that kmeans
        # matches bit for bit.
        rng = np.random.default_rng(20)
        Z = rng.normal(size=(200, 4))
        labels, centroids = kmeans(Z, 5, seed=2)
        want_labels, want_centroids, trace = broadcast_kmeans(Z, 5, seed=2)
        assert np.array_equal(labels, want_labels) and np.array_equal(centroids, want_centroids)
        assert len(trace) > 1
        assert all(trace[i] >= trace[i + 1] - 1e-9 for i in range(len(trace) - 1))

    def test_k_too_large(self):
        with pytest.raises(ValidationError):
            kmeans(np.ones((3, 2)), 4, seed=0)

    def test_determinism(self):
        rng = np.random.default_rng(21)
        Z = rng.normal(size=(80, 3))
        l1, c1 = kmeans(Z, 4, seed=9)
        l2, c2 = kmeans(Z, 4, seed=9)
        assert np.array_equal(l1, l2) and np.array_equal(c1, c2)

    def test_identical_points_dont_crash(self):
        Z = np.ones((5, 2))
        labels, _ = kmeans(Z, 3, seed=0)
        assert len(set(labels.tolist())) == 3

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("copies,distinct", [(10, 40), (10, 10), (2, 10)])
    def test_duplicated_rows_match_broadcast_reference(self, seed, copies, distinct):
        # With fewer distinct rows than clusters, k-means++ picks one row
        # twice, and every iteration leaves clusters empty for the re-seeding
        # to fill; with two copies of each row, one cluster can give a point
        # to one empty cluster but not to two.
        rng = np.random.default_rng(seed)
        Z = np.repeat(np.round(rng.normal(size=(distinct, 5)), 1), copies, axis=0)
        k = 12
        labels, centroids = kmeans(Z, k, seed=seed)
        want_labels, want_centroids, _ = broadcast_kmeans(Z, k, seed=seed)
        assert np.array_equal(labels, want_labels)
        assert np.array_equal(centroids, want_centroids)


class TestCosineRank:
    def test_self_query_first(self):
        rng = np.random.default_rng(22)
        M = rng.normal(size=(10, 4))
        ids = [f"n{i}" for i in range(10)]
        ranked = cosine_rank(M[3], ids, M, top_n=3)
        assert ranked[0][0] == "n3"
        assert ranked[0][1] == pytest.approx(1.0)

    def test_orthogonal_zero(self):
        ranked = cosine_rank(np.array([1.0, 0.0]), ["a"], np.array([[0.0, 1.0]]))
        assert ranked[0][1] == pytest.approx(0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        M = rng.normal(size=(100, 6))
        ids = [f"c{i:03d}" for i in range(100)]
        q = rng.normal(size=6)
        ranked = cosine_rank(q, ids, M)
        expected = sorted(
            ((float(M[i] @ q / (np.linalg.norm(M[i]) * np.linalg.norm(q))), ids[i]) for i in range(100)),
            key=lambda p: (-p[0], p[1]))
        assert [r[0] for r in ranked] == [e[1] for e in expected]

    def test_ties_ascending_id(self):
        M = np.array([[2.0, 0.0], [1.0, 0.0]])
        ranked = cosine_rank(np.array([1.0, 0.0]), ["zz", "aa"], M)
        assert [r[0] for r in ranked] == ["aa", "zz"]

    def test_scale_invariance(self):
        rng = np.random.default_rng(24)
        M = rng.normal(size=(50, 5))
        ids = list(range(50))
        q = rng.normal(size=5)
        base = [r[0] for r in cosine_rank(q, ids, M)]
        assert [r[0] for r in cosine_rank(2.5 * q, ids, M)] == base
        assert [r[0] for r in cosine_rank(1e-3 * q, ids, M)] == base

    def test_least_flag_reverses(self):
        rng = np.random.default_rng(25)
        M = rng.normal(size=(20, 4))
        ids = list(range(20))
        q = rng.normal(size=4)
        most = cosine_rank(q, ids, M)
        least = cosine_rank(q, ids, M, ascending=True)
        assert [r[0] for r in least] == [r[0] for r in most][::-1]

    def test_zero_query_rejected(self):
        with pytest.raises(ValidationError):
            cosine_rank(np.zeros(3), ["a"], np.ones((1, 3)))

    @pytest.mark.parametrize("ascending", [False, True])
    def test_top_n_matches_full_sort(self, ascending):
        rng = np.random.default_rng(34)
        for _ in range(5):
            M = rng.normal(size=(30, 3))
            M[10:20] = M[rng.integers(0, 10, size=10)]  # duplicated rows: ties at the cut
            M[20:23] = 0.0  # zero-norm rows, skipped
            ids = [f"c{i:02d}" for i in rng.permutation(30)]
            q = rng.normal(size=3)
            full = cosine_rank(q, ids, M, ascending=ascending)
            for top_n in range(1, 31):
                assert cosine_rank(q, ids, M, top_n=top_n, ascending=ascending) == full[:top_n]

    def test_zero_candidate_skipped(self, caplog):
        M = np.array([[1.0, 0.0], [0.0, 0.0]])
        with caplog.at_level(logging.WARNING):
            ranked = cosine_rank(np.array([1.0, 0.0]), ["ok", "zero"], M)
        assert [r[0] for r in ranked] == ["ok"]
        assert any("zero" in rec.message for rec in caplog.records)


class TestCountsBelowOne:
    @pytest.mark.parametrize("top_n", [0, -1])
    def test_cosine_rank_rejects_top_n(self, top_n):
        with pytest.raises(ValidationError, match=f"top_n={top_n}"):
            cosine_rank(np.array([1.0, 0.0]), ["a", "b"], np.eye(2), top_n=top_n)

    def test_cosine_rank_top_n_none_means_all(self):
        ranked = cosine_rank(np.array([1.0, 0.0]), ["a", "b", "c"], np.eye(3)[:, :2] + 0.5)
        assert [r[0] for r in ranked] == ["a", "c", "b"]

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_evaluate_regression_rejects_repeats(self, repeats):
        rng = np.random.default_rng(4)
        Z = rng.normal(size=(40, 3))
        with pytest.raises(ValidationError, match=f"repeats={repeats}"):
            evaluate_regression(Z, Z[:, 0], ["t"], SplitProtocol(repeats=repeats))


def tfidf(bags):
    """poistats_tfidf of Counter bags."""
    return poistats_tfidf(table_of(bags))


def reference_tfidf(bags):
    """The tf-idf of Counter bags, one neighborhood and one token at a time."""
    nbhd_ids = sorted(bags)
    cat_bags = {nid: {t: c for t, c in bags[nid].items() if t.startswith("cat_")} for nid in nbhd_ids}
    doc_freq = Counter(t for cats in cat_bags.values() for t in cats)
    categories = sorted(doc_freq)
    idf = [math.log(len(nbhd_ids) / (1 + doc_freq[c])) for c in categories]
    matrix = np.zeros((len(nbhd_ids), len(categories)))
    for row, nid in enumerate(nbhd_ids):
        total = sum(cat_bags[nid].values())
        for token, count in cat_bags[nid].items():
            col = categories.index(token)
            matrix[row, col] = (count / total) * idf[col]
    return nbhd_ids, categories, matrix


class TestPoistats:
    def test_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(9)
        tokens = [f"cat_{i}" for i in range(15)] + [f"w{i}" for i in range(10)]
        for _ in range(30):
            bags = {f"n{j:02d}": Counter(rng.choice(tokens, size=int(rng.integers(0, 40))).tolist())
                    for j in range(12)}
            bags["n99"] = Counter({"cat_0": 1})  # at least one category token
            got, want = tfidf(bags), reference_tfidf(bags)
            assert got[:2] == want[:2]
            assert np.array_equal(got[2], want[2])

    def test_hand_worked_example(self):
        bags = {
            "n1": Counter({"cat_coffee": 2, "cat_bar": 1, "ignored": 7}),
            "n2": Counter({"cat_coffee": 1, "cat_gym": 1}),
            "n3": Counter({"cat_bar": 2}),
            "n4": Counter({"cat_gym": 3, "cat_bar": 1}),
        }
        ids, cats, M = tfidf(bags)
        assert ids == ["n1", "n2", "n3", "n4"]
        assert cats == ["cat_bar", "cat_coffee", "cat_gym"]
        ln43 = math.log(4 / 3)
        expected = np.array([
            [0.0, (2 / 3) * ln43, 0.0],          # bar idf = ln(4/4) = 0
            [0.0, (1 / 2) * ln43, (1 / 2) * ln43],
            [0.0, 0.0, 0.0],
            [0.0, 0.0, (3 / 4) * ln43],
        ])
        assert np.abs(M - expected).max() < 1e-12

    def test_ubiquitous_category_negative_idf(self):
        bags = {"n1": Counter({"cat_x": 1}), "n2": Counter({"cat_x": 1})}
        _, _, M = tfidf(bags)
        assert (M < 0).all()  # idf = ln(2/3) < 0, allowed

    def test_single_neighborhood_tf(self):
        bags = {"n1": Counter({"cat_solo": 1})}
        _, _, M = tfidf(bags)
        # tf = 1; cell = ln(1/2)
        assert M[0, 0] == pytest.approx(math.log(0.5))

    def test_zero_category_row_warned(self, caplog):
        bags = {"n1": Counter({"cat_a": 1}), "n2": Counter({"review_word": 3})}
        with caplog.at_level(logging.WARNING):
            _, _, M = tfidf(bags)
        assert not M[1].any()
        assert any("n2" in rec.message for rec in caplog.records)


class TestAdjustedRandIndex:
    """The test-side ARI that criterion 7 scores clusterings with."""

    def test_perfect_and_permuted(self):
        a = np.array([0, 0, 1, 1, 2, 2])
        assert adjusted_rand_index(a, a) == pytest.approx(1.0)
        assert adjusted_rand_index(a, 2 - a) == pytest.approx(1.0)

    def test_matches_sklearn(self):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(26)
        for _ in range(20):
            a = rng.integers(0, 4, size=60)
            b = rng.integers(0, 3, size=60)
            ours = adjusted_rand_index(a, b)
            theirs = sklearn_metrics.adjusted_rand_score(a, b)
            assert ours == pytest.approx(theirs, abs=1e-12)
