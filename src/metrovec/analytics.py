"""Downstream evaluation: PCA, linear regression with R-squared, repeated
split evaluation (principal-components regression in closed form), k-means,
cosine similarity ranking, and the category tf-idf baseline.

Everything here is a pure function of its inputs and a seed; repeated splits
derive their generator from seed + repeat index.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .errors import ValidationError
from .fileio import BagTable

log = logging.getLogger(__name__)

RIDGE_LAMBDA = 1e-8  # Tikhonov term keeping the normal equations conditioned
# The least share of the largest Gram eigenvalue that PCA's last kept
# eigenvalue must exceed for the Gram route; below it, the thin SVD.
PCA_RESOLVED = 1e-8
# Shares of the rows in each repeated split; the test split takes the rest.
TRAIN_FRACTION = 0.70
VAL_FRACTION = 0.15
KMEANS_MAX_ITER = 300  # Lloyd iterations before k-means stops without converging


@dataclass
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # (n_components, d), orthonormal rows
    explained_variance_ratio: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) @ self.components.T


def pca_fit(matrix: np.ndarray, n_components: int) -> PcaModel:
    """Principal components of the mean-centered matrix, ordered by descending
    explained variance; the largest-magnitude entry of each component is made
    positive so fits are reproducible.

    The components are eigenvectors of the smaller Gram matrix: of the (d, d)
    ``Xc^T Xc`` when d <= N, else of the (N, N) ``Xc Xc^T``, mapped to
    components by ``Xc^T u / s``. Where the last kept eigenvalue is not
    resolved (at most ``PCA_RESOLVED * lambda_1``), the thin SVD gives them
    instead: a wide matrix would divide by an ``s`` near zero, and a kept null
    direction is whichever basis of the null space a factorization picks,
    which rows outside the fitted span then project onto."""
    X = np.asarray(matrix, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValidationError(f"PCA needs an (N>=2, d) matrix, got {X.shape}")
    n, d = X.shape
    if not 1 <= n_components <= min(n, d):
        raise ValidationError(f"n_components {n_components} outside [1, {min(n, d)}]")
    mean = X.mean(axis=0)
    centered = X - mean
    if not centered.any():
        raise ValidationError("degenerate input: all rows identical")
    var, vecs = np.linalg.eigh(centered.T @ centered if d <= n else centered @ centered.T)
    # eigh's order is ascending; [::-1] makes it descending.
    var, vecs = var[::-1], vecs[:, ::-1][:, :n_components]
    if var[n_components - 1] <= PCA_RESOLVED * var[0]:
        _, svals, vt = np.linalg.svd(centered, full_matrices=False)
        var, comps = svals ** 2, vt[:n_components].copy()
    elif d <= n:
        comps = vecs.T.copy()
    else:
        comps = (vecs.T @ centered) / np.sqrt(var[:n_components])[:, None]
    ratios = var / var.sum()
    for row in comps:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaModel(mean=mean, components=comps,
                    explained_variance_ratio=ratios[:n_components].copy())


def linreg_fit(features: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, float]:
    """Least squares via normal equations with a tiny Tikhonov term; the
    intercept is handled by centering. Returns (weights, intercept). The
    general-solve reference that ``evaluate_regression``'s tests check its
    closed form against."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValidationError("non-finite regression inputs")
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValidationError(f"incompatible regression shapes {X.shape} vs {y.shape}")
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    yc = y - y_mean
    gram = Xc.T @ Xc + RIDGE_LAMBDA * np.eye(X.shape[1])
    weights = np.linalg.solve(gram, Xc.T @ yc)
    intercept = y_mean - float(x_mean @ weights)
    return weights, intercept


def r_squared(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1 or y_true.shape[0] < 2:
        raise ValidationError(f"r_squared needs two equal-length vectors of >= 2, got {y_true.shape}, {y_pred.shape}")
    ss_tot = float(((y_true - y_true.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise ValidationError("R^2 undefined: y_true is constant")
    ss_res = float(((y_true - y_pred) ** 2).sum())
    return 1.0 - ss_res / ss_tot


@dataclass
class SplitProtocol:
    repeats: int = 20
    pca_candidates: list[int] = field(default_factory=list)  # empty -> auto
    seed: int = 0

    def __post_init__(self):
        if self.repeats < 1:
            raise ValidationError(f"repeats={self.repeats} must be at least 1")


@dataclass
class RegressionReport:
    target_names: list[str]
    mean_r2: np.ndarray  # per target
    std_r2: np.ndarray
    per_repeat_r2: np.ndarray  # (repeats, targets)
    chosen_components: np.ndarray  # (repeats, targets)
    protocol: SplitProtocol

    @property
    def overall_mean(self) -> float:
        return float(self.mean_r2.mean())

    def to_csv_rows(self) -> list[list]:
        rows = [["target", "mean_r2", "std_r2", "repeats"]]
        for i, name in enumerate(self.target_names):
            rows.append([name, repr(float(self.mean_r2[i])), repr(float(self.std_r2[i])),
                         self.protocol.repeats])
        rows.append(["__overall__", repr(self.overall_mean),
                     repr(float(self.mean_r2.std())), self.protocol.repeats])
        return rows

    def format_text(self) -> str:
        lines = [f"test R^2 over {self.protocol.repeats} splits "
                 f"(train {TRAIN_FRACTION:.2f} / val {VAL_FRACTION:.2f})"]
        for i, name in enumerate(self.target_names):
            lines.append(f"  {name}: mean {self.mean_r2[i]:.4f}  std {self.std_r2[i]:.4f}")
        lines.append(f"  overall mean: {self.overall_mean:.4f}")
        return "\n".join(lines)


def default_pca_candidates(dim: int, n_train: int) -> list[int]:
    cap = min(dim, n_train - 1) if n_train > 1 else 1
    cands = []
    c = 2
    while c < cap:
        cands.append(c)
        c *= 2
    cands.append(max(1, cap))
    return sorted(set(cands))


def evaluate_regression(Z: np.ndarray, targets: np.ndarray, target_names: list[str],
                        protocol: SplitProtocol) -> RegressionReport:
    """Repeated seeded 70/15/15 splits scored by principal-components
    regression in closed form (Hastie, Tibshirani & Friedman, ESL 3.5.1).
    One PCA per split, fit on the training rows, serves every target and
    candidate count: the training projections are centred and orthogonal, so
    the ridge weights are ``p_j . (y - mean(y)) / (|p_j|^2 + RIDGE_LAMBDA)``
    and the fit on c components keeps the first c. Validation R^2 picks the
    count (the smaller on a tie, or on a constant validation target), and
    test R^2 is aggregated over repeats."""
    Z = np.asarray(Z, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim == 1:
        targets = targets[:, None]
    if Z.shape[0] != targets.shape[0]:
        raise ValidationError(f"{Z.shape[0]} embedding rows but {targets.shape[0]} target rows")
    if targets.shape[1] != len(target_names):
        raise ValidationError(f"{targets.shape[1]} target columns but {len(target_names)} names")
    if not (np.isfinite(Z).all() and np.isfinite(targets).all()):
        raise ValidationError("non-finite regression inputs")
    n = Z.shape[0]
    n_train = int(math.floor(TRAIN_FRACTION * n))
    n_val = int(math.floor(VAL_FRACTION * n))
    n_test = n - n_train - n_val
    if n_train < 2 or n_val < 1 or n_test < 2:
        raise ValidationError(f"too few rows ({n}) for a {TRAIN_FRACTION}/{VAL_FRACTION} split")
    candidates = protocol.pca_candidates or default_pca_candidates(Z.shape[1], n_train)
    candidates = sorted({c for c in candidates if 1 <= c <= min(n_train, Z.shape[1])})
    if not candidates:
        raise ValidationError("no usable PCA component candidates")
    # The components each candidate adds to the one before it.
    blocks = list(zip([0, *candidates[:-1]], candidates))

    per_repeat = np.empty((protocol.repeats, targets.shape[1]))
    chosen = np.empty((protocol.repeats, targets.shape[1]), dtype=np.int64)
    for rep in range(protocol.repeats):
        rng = np.random.default_rng(protocol.seed + rep)
        perm = rng.permutation(n)
        train_idx = perm[:n_train]
        val_idx = perm[n_train:n_train + n_val]
        test_idx = perm[n_train + n_val:]
        pca = pca_fit(Z[train_idx], candidates[-1])
        p_train, p_val, p_test = (pca.transform(Z[rows]) for rows in (train_idx, val_idx, test_idx))
        y_mean = targets[train_idx].mean(axis=0)
        gram_diagonal = (p_train ** 2).sum(axis=0) + RIDGE_LAMBDA
        weights = (p_train.T @ (targets[train_idx] - y_mean)) / gram_diagonal[:, None]
        # (candidates, rows, targets): predictions less y_mean, per count.
        fit_val, fit_test = (np.cumsum([p[:, lo:hi] @ weights[lo:hi] for lo, hi in blocks], axis=0)
                             for p in (p_val, p_test))
        y_val = targets[val_idx]
        ss_res = ((y_val - y_mean - fit_val) ** 2).sum(axis=1)
        ss_tot = ((y_val - y_val.mean(axis=0)) ** 2).sum(axis=0)
        score = np.full_like(ss_res, -np.inf)
        varies = ss_tot != 0.0
        score[:, varies] = 1.0 - ss_res[:, varies] / ss_tot[varies]
        best = score.argmax(axis=0)
        for t, k in enumerate(best.tolist()):
            per_repeat[rep, t] = r_squared(targets[test_idx, t], y_mean[t] + fit_test[k, :, t])
            chosen[rep, t] = candidates[k]
        del pca, p_train, p_val, p_test  # not alive during the next split's fit
    return RegressionReport(
        target_names=list(target_names),
        mean_r2=per_repeat.mean(axis=0),
        std_r2=per_repeat.std(axis=0),
        per_repeat_r2=per_repeat,
        chosen_components=chosen,
        protocol=protocol,
    )


def kmeans(Z: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with k-means++ seeding, at most KMEANS_MAX_ITER
    iterations. Deterministic per seed; an empty cluster is re-seeded with
    the point farthest from its centroid."""
    Z = np.asarray(Z, dtype=np.float64)
    n = Z.shape[0]
    if not 1 <= k <= n:
        raise ValidationError(f"k={k} outside [1, {n}]")
    rng = np.random.default_rng(seed)

    centroids = np.empty((k, Z.shape[1]))
    centroids[0] = Z[rng.integers(n)]
    d2 = ((Z - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            pick = rng.choice(n, p=d2 / total)
        else:
            pick = rng.integers(n)
        centroids[j] = Z[pick]
        d2 = np.minimum(d2, ((Z - centroids[j]) ** 2).sum(axis=1))

    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITER):
        # One centroid at a time: (n, k) distances without an (n, k, d)
        # temporary, each summed as the broadcast form sums it.
        dist2 = np.stack([((Z - c) ** 2).sum(axis=1) for c in centroids], axis=1)
        new_labels = dist2.argmin(axis=1)
        point_cost = dist2[np.arange(n), new_labels]
        sizes = np.bincount(new_labels, minlength=k)
        for j in np.flatnonzero(sizes == 0):
            # Re-seed with the farthest point whose cluster keeps >= 1 member.
            eligible = np.flatnonzero(sizes[new_labels] > 1)
            far = int(eligible[point_cost[eligible].argmax()])
            sizes[new_labels[far]] -= 1
            sizes[j] = 1
            new_labels[far] = j
            centroids[j] = Z[far]
            point_cost[far] = 0.0
        if (new_labels == labels).all():
            break
        labels = new_labels
        for j in range(k):
            centroids[j] = Z[labels == j].mean(axis=0)
    return labels, centroids


def cosine_rank(query: np.ndarray, candidate_ids: list, candidates: np.ndarray,
                top_n: int | None = None, ascending: bool = False) -> list[tuple]:
    """(id, cosine) pairs ranked by similarity to the query, ties broken by
    ascending id; ``ascending`` flips to least-similar-first. The first
    ``top_n`` pairs (at least 1), or all when it is None. Zero-norm
    candidates are skipped with a warning."""
    if top_n is not None and top_n < 1:
        raise ValidationError(f"top_n={top_n} must be at least 1")
    query = np.asarray(query, dtype=np.float64)
    candidates = np.asarray(candidates, dtype=np.float64)
    if candidates.shape[0] != len(candidate_ids):
        raise ValidationError(f"{candidates.shape[0]} candidate rows but {len(candidate_ids)} ids")
    qnorm = float(np.linalg.norm(query))
    if qnorm == 0.0:
        raise ValidationError("zero-norm query vector")
    norms = np.linalg.norm(candidates, axis=1)
    keep = norms > 0.0
    if not keep.all():
        skipped = [candidate_ids[i] for i in np.flatnonzero(~keep)]
        log.warning("skipping zero-norm candidates: %s", skipped)
    sims = (candidates[keep] @ query) / (norms[keep] * qnorm)
    kept_ids = list(compress(candidate_ids, keep.tolist()))
    key = sims if ascending else -sims
    pool = range(key.size)
    if top_n is not None and top_n < key.size:
        # Only keys at or before the top_n-th smallest, ties at the cut
        # included, can rank; the rest need no sort.
        pool = np.flatnonzero(key <= np.partition(key, top_n - 1)[top_n - 1]).tolist()
    keys, sims = key.tolist(), sims.tolist()
    order = sorted(pool, key=lambda i: (keys[i], kept_ids[i]))[:top_n]
    return [(kept_ids[i], sims[i]) for i in order]


def poistats_tfidf(table: BagTable) -> tuple[list, list[str], np.ndarray]:
    """tf-idf matrix over "cat_" tokens only: tf is the within-neighborhood
    category share, idf is ln(N / (1 + document frequency)). One row per row
    of the bag table, in its order. Returns (neighborhood ids, category
    tokens, N x |categories| matrix)."""
    n, tokens = len(table.row_ids), table.tokens
    if not n:
        raise ValidationError("no neighborhood bags")
    rows = np.repeat(np.arange(n), np.diff(table.indptr))
    is_cat = np.array([t.startswith("cat_") for t in tokens], dtype=bool)
    keep = is_cat[table.token_ids]
    rows, ids, counts = rows[keep], table.token_ids[keep], table.counts[keep]
    # A bag holds each token once, so counting ids counts documents.
    doc_freq = np.bincount(ids, minlength=len(tokens))
    present = np.flatnonzero(doc_freq)  # ascending ids: sorted tokens
    if not present.size:
        raise ValidationError("no category tokens in any bag")
    categories = [tokens[i] for i in present]
    idf = np.array([math.log(n / (1 + df)) for df in doc_freq[present].tolist()])
    col = np.zeros(len(tokens), dtype=np.int64)
    col[present] = np.arange(present.size)
    totals = np.bincount(rows, weights=counts, minlength=n)
    matrix = np.zeros((n, present.size))
    matrix[rows, col[ids]] = (counts / totals[rows]) * idf[col[ids]]
    for row in np.flatnonzero(totals == 0):
        log.warning("neighborhood %s has no category tokens; zero tf-idf row", table.row_ids[row])
    return table.row_ids, categories, matrix
