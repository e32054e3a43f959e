"""Test-side references: the per-record POI line reader whose records and
errors ``read_poi_columns`` must reproduce, the per-record POI line writer
whose bytes ``write_poi_jsonl`` must reproduce, POI records as the columns
``ingest`` reads, the per-row street-view and centroid table readers whose
rows (as columns, ``columns_of_records``) and errors ``read_sv_metadata``
and ``read_centroids_csv`` must reproduce, toy corpora as bag tables, the scalar haversine distance,
the all-points k-nearest-neighbor query by latitude bands, PCA by a thin
SVD, k-means by one broadcast distance array, the predictions of
``analytics.linreg_fit``, the adjusted Rand index that scores a
clustering against known labels, the copying forms of stages 1 and 3:
an encoder pass whose every result is a new array, three separately
allocated triplet gradients, and the concatenating updates built on them,
and stage 3's epoch draws with their contexts found by ``searchsorted``
over the bags' cumulative counts.

Not a test module (its name does not start with ``test_``), so pytest
collects nothing here; the test modules import it by name.
"""

import json
import math
from collections import Counter

import numpy as np

from metrovec.analytics import KMEANS_MAX_ITER, PcaModel
from metrovec.corpus import PoiColumns, PoiRecord
from metrovec.encoder import EncoderParams
from metrovec.errors import FormatError, ValidationError
from metrovec.fileio import BagTable, _read_csv, splits_a_path
from metrovec.geo import _BLOCK_FLOATS, _PRUNE_SLACK_M, EARTH_RADIUS_M, GeoPoint, _haversine_block
from metrovec.training import DISTANCE_FLOOR, _sample_triplet_rows, context_rows_from_index


def _string_list(obj: dict, key: str) -> list[str]:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise TypeError(f"field {key!r} must be a list, got {type(value).__name__}")
    return [str(v) for v in value]


def read_poi_jsonl(path) -> list[PoiRecord]:
    """One PoiRecord per JSON line; fields id, lat, lon, neighborhood_id,
    categories, rating, price, reviews. Errors carry line numbers."""
    records: list[PoiRecord] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                # Without its line break and trailing blanks, so that a position
                # is a column of the file's line, at most one past its text.
                try:
                    obj = json.loads(line.rstrip(" \t\n\r"))
                except json.JSONDecodeError as exc:
                    raise FormatError(f"{path}:{lineno}: invalid JSON at column {exc.pos + 1}: {exc.msg}") from None
                except RecursionError as exc:  # nested too deep
                    raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from None
                rec_id = obj.get("id", "<missing id>") if isinstance(obj, dict) else "<not an object>"
                try:
                    records.append(PoiRecord(
                        id=str(obj["id"]),
                        geo=GeoPoint(float(obj["lat"]), float(obj["lon"])),
                        neighborhood_id=(None if obj.get("neighborhood_id") in (None, "")
                                         else str(obj["neighborhood_id"])),
                        categories=_string_list(obj, "categories"),
                        rating=None if obj.get("rating") is None else float(obj["rating"]),
                        price=None if obj.get("price") is None else int(obj["price"]),
                        reviews=_string_list(obj, "reviews"),
                    ))
                except KeyError as exc:
                    raise FormatError(f"{path}:{lineno} (POI {rec_id!r}): missing field {exc}") from None
                # OverflowError: int() of an infinite price, float() of a huge integer.
                except (TypeError, ValueError, OverflowError) as exc:
                    raise FormatError(f"{path}:{lineno} (POI {rec_id!r}): {exc}") from None
                except ValidationError as exc:
                    raise ValidationError(f"{path}:{lineno} (POI {rec_id!r}): {exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return records


def write_poi_records(path, pois: list[PoiRecord]) -> None:
    """One ``json.dumps`` line per record, keys sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for poi in pois:
            fh.write(json.dumps({"id": poi.id, "lat": poi.geo.lat, "lon": poi.geo.lon,
                                 "neighborhood_id": poi.neighborhood_id, "categories": poi.categories,
                                 "rating": poi.rating, "price": poi.price, "reviews": poi.reviews},
                                sort_keys=True) + "\n")


def columns_of(pois: list[PoiRecord]) -> PoiColumns:
    """The columns ``read_poi_columns`` reads from a file of these records
    (``write_poi_records``)."""
    return PoiColumns(
        ids=[p.id for p in pois],
        lat=np.array([p.geo.lat for p in pois], dtype=np.float64),
        lon=np.array([p.geo.lon for p in pois], dtype=np.float64),
        neighborhood_ids=[p.neighborhood_id for p in pois],
        phrases=[phrase for p in pois for phrase in p.categories],
        phrase_counts=np.array([len(p.categories) for p in pois], dtype=np.int64),
        ratings=np.array([np.nan if p.rating is None else p.rating for p in pois], dtype=np.float64),
        prices=np.array([p.price or 0 for p in pois], dtype=np.int64),
        reviews=[" ".join(p.reviews) for p in pois])


def _row_point(path, lineno: int, row: list[str], what: str) -> GeoPoint:
    """The point in a row's lat and lon cells; a range error names the row
    as ``what`` and its id."""
    try:
        return GeoPoint(float(row[1]), float(row[2]))
    except ValueError as exc:
        raise FormatError(f"{path}:{lineno}: {exc}") from None
    except ValidationError as exc:
        raise ValidationError(f"{path}:{lineno} ({what} {row[0]!r}): {exc}") from None


def read_sv_records(path) -> list[tuple[str, GeoPoint, str | None]]:
    """One (id, point, neighborhood id or None) per street-view row, each
    row checked as it is read."""
    rows = _read_csv(path, lambda h: [c.strip() for c in h[:4]] == ["id", "lat", "lon", "neighborhood_id"],
                     "header id,lat,lon,neighborhood_id", "street-view")
    next(rows)
    records = []
    for lineno, row in rows:
        if len(row) < 4:
            raise FormatError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
        records.append((row[0], _row_point(path, lineno, row, "street view"), row[3] or None))
    return records


def read_centroid_records(path) -> list[tuple[str, GeoPoint, str | None]]:
    """One (id, point, city tag or None) per centroid row, each row checked
    as it is read."""
    rows = _read_csv(path, lambda h: [c.strip() for c in h[:3]] == ["id", "lat", "lon"],
                     "header id,lat,lon[,city]", "centroid")
    header = next(rows)
    has_city = len(header) > 3 and header[3].strip() == "city"
    out = []
    for lineno, row in rows:
        if len(row) < 3:
            raise FormatError(f"{path}:{lineno}: expected at least 3 columns, got {len(row)}")
        city = row[3] if has_city and len(row) > 3 and row[3] else None
        for kind, name in (("id", row[0]), ("city tag", city or "")):
            if splits_a_path(name):
                raise ValidationError(f"{path}:{lineno}: centroid {kind} {name!r} holds a path separator or NUL")
        out.append((row[0], _row_point(path, lineno, row, "centroid"), city))
    return out


def columns_of_records(records: list[tuple[str, GeoPoint, str | None]]):
    """The (ids, lat, lon, third column) that the column readers return
    for the rows of a record reader."""
    return ([r[0] for r in records], np.array([r[1].lat for r in records], dtype=np.float64),
            np.array([r[1].lon for r in records], dtype=np.float64), [r[2] for r in records])


def table_of(counters: dict[str, Counter]) -> BagTable:
    """The bag table of toy bags, given as neighborhood id -> ``Counter`` of
    token strings: rows in ascending id order, the distinct tokens sorted,
    each row's token ids ascending. ``ingest`` writes this table for POIs
    whose neighborhood bags are ``counters``."""
    row_ids = sorted(counters)
    tokens = sorted({token for bag in counters.values() for token in bag})
    id_of = {token: i for i, token in enumerate(tokens)}
    indptr, ids, counts = [0], [], []
    for nid in row_ids:
        for token_id, count in sorted((id_of[t], c) for t, c in counters[nid].items()):
            ids.append(token_id)
            counts.append(count)
        indptr.append(len(ids))
    return BagTable(row_ids, tokens, np.array(indptr, dtype=np.int64),
                    np.array(ids, dtype=np.int64), np.array(counts, dtype=np.int64))


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters between two points."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    s = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    s = min(1.0, max(0.0, s))
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(s))


def band_k_nearest(points: list[tuple[object, GeoPoint]], k: int) -> np.ndarray:
    """``build_index(points).k_nearest(k)`` by about sqrt(n) equal-height
    latitude bands, the fast reference for large cities. Each band's queries
    share a window of bands, widened until the R * delta-lat bound from the
    sorted latitudes just outside it proves every row. Its work grows as
    n^1.5: every window spans the whole longitude range."""
    ids = [pid for pid, _ in points]
    n, k = len(ids), min(k, len(ids) - 1)
    lat = np.array([p.lat for _, p in points], dtype=np.float64)
    order = np.argsort(lat, kind="stable")
    lat, lon = lat[order], np.array([p.lon for _, p in points], dtype=np.float64)[order]
    cos = np.cos(np.radians(lat))
    rank = np.empty(n, dtype=np.int64)
    rank[sorted(range(n), key=lambda i: ids[i])] = np.arange(n)
    rank = rank[order]
    n_bands = max(1, int(math.isqrt(n)))
    height = float(lat[-1] - lat[0]) / n_bands or 1.0
    band_start = np.searchsorted((lat - lat[0]) / height, np.arange(n_bands + 1))
    band_start[-1] = n

    def block(qpos, pos):
        return _haversine_block(lat[qpos], lon[qpos], cos[qpos], lat[pos], lon[pos], cos[pos])

    def nearest(qpos, lo, hi):
        last = n_bands - 1
        dist = np.empty((qpos.size, 0))
        done_lo = done_hi = band_start[lo]
        while True:
            start, stop = int(band_start[lo]), int(band_start[hi + 1])
            width = stop - start
            if qpos.size > 1 and qpos.size * width > _BLOCK_FLOATS:
                parts = np.array_split(qpos, -(-qpos.size * width // _BLOCK_FLOATS))
                return np.concatenate([nearest(part, lo, hi) for part in parts])
            dist = np.concatenate([block(qpos, np.arange(start, done_lo)), dist,
                                   block(qpos, np.arange(done_hi, stop))], axis=1)
            done_lo, done_hi = start, stop
            dist[np.arange(qpos.size), qpos - start] = np.inf
            if lo == 0 and hi == last:
                break
            if width > k:
                qlat = lat[qpos]
                gap_lo = qlat - lat[start - 1] if start > 0 else np.inf
                gap_hi = lat[stop] - qlat if stop < n else np.inf
                bound_m = EARTH_RADIUS_M * np.radians(np.minimum(gap_lo, gap_hi))
                kth = np.partition(dist, k - 1, axis=1)[:, k - 1]
                if (kth < bound_m - _PRUNE_SLACK_M).all():
                    break
            lo, hi = max(lo - 1, 0), min(hi + 1, last)
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
        c = int((dist <= kth).sum(axis=1).max())
        cand = np.argpartition(dist, c - 1, axis=1)[:, :c]
        cand_pos = cand + start
        by = np.lexsort((rank[cand_pos], np.take_along_axis(dist, cand, axis=1)), axis=1)
        return order[np.take_along_axis(cand_pos, by[:, :k], axis=1)]

    out = np.empty((n, k), dtype=np.int64)
    if k:
        for b in range(n_bands):
            qpos = np.arange(band_start[b], band_start[b + 1])
            if qpos.size:
                out[order[qpos]] = nearest(qpos, b, b)
    return out


def svd_pca_fit(matrix: np.ndarray, n_components: int) -> PcaModel:
    """The ``analytics.pca_fit`` model by a thin SVD of the mean-centered
    matrix: the right singular vectors, each with its largest-magnitude entry
    made positive, and the squared singular values as explained variance."""
    X = np.asarray(matrix, dtype=np.float64)
    mean = X.mean(axis=0)
    _, svals, vt = np.linalg.svd(X - mean, full_matrices=False)
    var = svals ** 2
    comps = vt[:n_components].copy()
    for row in comps:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaModel(mean=mean, components=comps,
                    explained_variance_ratio=(var / var.sum())[:n_components])


def broadcast_kmeans(Z: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """``analytics.kmeans``'s (labels, centroids) with every point-to-centroid
    distance from one (n, k, d) broadcast, and each empty cluster found by its
    own mask scan; then the inertia of each iteration's labels."""
    Z = np.asarray(Z, dtype=np.float64)
    n = Z.shape[0]
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, Z.shape[1]))
    centroids[0] = Z[rng.integers(n)]
    d2 = ((Z - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        centroids[j] = Z[rng.choice(n, p=d2 / total) if total > 0.0 else rng.integers(n)]
        d2 = np.minimum(d2, ((Z - centroids[j]) ** 2).sum(axis=1))
    labels = np.full(n, -1, dtype=np.int64)
    inertias = []
    for _ in range(KMEANS_MAX_ITER):
        dist2 = ((Z[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = dist2.argmin(axis=1)
        point_cost = dist2[np.arange(n), new_labels]
        for j in range(k):
            if not (new_labels == j).any():
                sizes = np.bincount(new_labels, minlength=k)
                eligible = np.flatnonzero(sizes[new_labels] > 1)
                far = int(eligible[point_cost[eligible].argmax()])
                new_labels[far] = j
                centroids[j] = Z[far]
                point_cost[far] = 0.0
        inertias.append(float(point_cost.sum()))
        if (new_labels == labels).all():
            break
        labels = new_labels
        for j in range(k):
            centroids[j] = Z[labels == j].mean(axis=0)
    return labels, centroids, inertias


def linreg_predict(weights: np.ndarray, intercept: float, features: np.ndarray) -> np.ndarray:
    """Predictions of an ``analytics.linreg_fit`` model."""
    return np.asarray(features, dtype=np.float64) @ weights + intercept


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected agreement between two labelings of the same points
    (Hubert & Arabie, 1985)."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    assert a.shape == b.shape and a.ndim == 1, (a.shape, b.shape)
    n = a.shape[0]
    _, a_idx = np.unique(a, return_inverse=True)
    _, b_idx = np.unique(b, return_inverse=True)
    table = np.zeros((a_idx.max() + 1, b_idx.max() + 1), dtype=np.int64)
    np.add.at(table, (a_idx, b_idx), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    expected = sum_rows * sum_cols / comb2(n)
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def separate_triplet_grads(A, C, N, margin):
    """``training.triplet_grads`` as three separately allocated (n, d)
    arrays, from separate A - C and A - N differences."""
    diff_ac = A - C
    diff_an = A - N
    d_ac = np.sqrt((diff_ac * diff_ac).sum(axis=1))
    d_an = np.sqrt((diff_an * diff_an).sum(axis=1))
    losses = np.maximum(0.0, margin + d_ac - d_an)
    active = (losses > 0.0)[:, None]
    u_ac = diff_ac / np.maximum(d_ac, DISTANCE_FLOOR)[:, None]
    u_an = diff_an / np.maximum(d_an, DISTANCE_FLOOR)[:, None]
    ga = (u_ac - u_an) * active
    gc = -u_ac * active
    gn = u_an * active
    return ga, gc, gn, losses


def copying_forward(params: EncoderParams, feats):
    """``encoder._forward_batch``, every result a new array."""
    cache = []
    out = feats
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        if layer:
            out = np.maximum(out, 0.0)
        cache.append(out)
        out = out @ w + b
    return out, cache


def copying_backward(params: EncoderParams, cache, grad_out):
    """``encoder._backward_batch``, every result a new array."""
    grads_w, grads_b = [], []
    grad = grad_out
    for layer in reversed(range(len(params.weights))):
        x = cache[layer]
        grads_w.insert(0, x.T @ grad)
        grads_b.insert(0, grad.sum(axis=0))
        if layer:
            grad = (grad @ params.weights[layer].T) * (x > 0.0)
    return grads_w, grads_b


def copying_train_street_view(params: EncoderParams, features, index, config):
    """``training.train_street_view``'s (params, X) from its RNG stream and
    batch order, with a copy of each parameter array updated by its own
    ``w -= scale * g`` from the concatenated triplet gradients."""
    params = EncoderParams([w.copy() for w in params.weights], [b.copy() for b in params.biases])
    rng = np.random.default_rng(config.seed)
    ctx = context_rows_from_index(index, config.k_context)
    for _ in range(config.epochs_sv):
        rows = _sample_triplet_rows(ctx, config.triplets_per_anchor, rng)
        rows = rows[rng.permutation(rows.shape[0])]
        for start in range(0, rows.shape[0], config.batch_size):
            batch = rows[start:start + config.batch_size]
            b = batch.shape[0]
            out, cache = copying_forward(params, features[batch.T.ravel()])
            ga, gc, gn, _ = separate_triplet_grads(out[:b], out[b:2 * b], out[2 * b:], config.margin_sv)
            grads_w, grads_b = copying_backward(params, cache, np.concatenate([ga, gc, gn]))
            scale = config.lr_sv / b
            for w, g in zip(params.weights, grads_w):
                w -= scale * g
            for bias, g in zip(params.biases, grads_b):
                bias -= scale * g
    return params, copying_forward(params, features)[0]


def concatenating_poi_updates(z_init, Y, draws, config, block: int):
    """Stage 3's (Z, Y) from ``Y`` at its start and the epochs' recorded
    ``_EpochDraws.epoch`` draws: blocks of ``block`` neighborhoods, each
    scattering ``np.concatenate([gc, gn])`` of separate triplet gradients
    into the word rows."""
    Z, Y = z_init.copy(), Y.copy()
    per, lr, d = config.triplets_per_anchor, config.lr_poi, Z.shape[1]
    for order, ctx, neg in draws:
        for start in range(0, order.size, block):
            z_rows = order[start:start + block]
            n = z_rows.size * per
            triplets = slice(start * per, start * per + n)
            words = np.concatenate([ctx[triplets], neg[triplets]])
            W = Y[words]
            ga, gc, gn, _ = separate_triplet_grads(np.repeat(Z[z_rows], per, axis=0), W[:n], W[n:],
                                                   config.margin_poi)
            step = ga.reshape(z_rows.size, per, d).sum(axis=1)
            if config.anchor_weight > 0.0:
                step += per * config.anchor_weight * (Z[z_rows] - z_init[z_rows])
            Z[z_rows] -= lr * step
            np.add.at(Y, words, -lr * np.concatenate([gc, gn]))
    return Z, Y


def searchsorted_epoch(draws, bags, rng, per: int):
    """``training._EpochDraws.epoch`` of ``draws``, built over ``bags``, with
    each context found by one ``searchsorted`` over the stacked cumulative
    counts of the bags instead of a gather from their token table; the
    negatives come from ``draws``'s own samplers."""
    counts = np.concatenate([bag.counts for bag in bags])
    ids = np.concatenate([bag.ids for bag in bags])
    starts = np.cumsum([0] + [len(bag) for bag in bags][:-1])
    cum = np.cumsum(counts)
    before = cum[starts] - counts[starts]
    order = rng.permutation(len(bags))
    j = np.repeat(order, per)
    total = np.add.reduceat(counts, starts)[j]
    picks = np.minimum((rng.random(j.size) * total).astype(np.int64), total - 1)
    ctx = ids[cum.searchsorted(before[j] + picks, side="right")]
    neg = draws.shared.draw(rng, size=j.size)
    position = np.argsort(order)
    for h, sampler in draws.heavy.items():
        at = position[h] * per
        neg[at:at + per] = sampler.draw(rng, size=per)
    redo = np.arange(j.size)
    while redo.size:
        redo = redo[draws._in_bag(j[redo], neg[redo])]
        neg[redo] = draws.shared.draw(rng, size=redo.size)
    return draws.rows[order], ctx, neg
