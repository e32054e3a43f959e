"""Deterministic synthetic city with recoverable structure.

Neighborhoods sit on a lat/lon grid and carry latent vectors that are
spatially smoothed so adjacent neighborhoods correlate. Street-view feature
vectors are a linear mix of the local latent plus noise; POI tokens are drawn
from latent-mixed topic distributions, so both modalities carry signal about
the latent attributes the pipeline is asked to recover.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import PoiColumns, _half_star, _inverse_cdf, write_poi_jsonl
from .errors import ValidationError, check_bounds
from .fileio import (_write_csv, splits_a_path, write_centroids_csv, write_feature_bin, write_features_csv,
                     write_sv_metadata, write_targets_csv)

GRID_SPACING_DEG = 0.01  # roughly 1.1 km between adjacent centroids
BASE_LAT = 37.0
BASE_LON = -122.0


@dataclass
class SynthConfig:
    n_neighborhoods: int = 100
    views_per_neighborhood: int = 10
    pois_per_neighborhood: int = 10
    latent_dim: int = 3
    feature_dim: int = 16
    vocab_size: int = 200
    spatial_noise: float = 0.002
    feature_noise: float = 0.3
    n_clusters: int = 0  # 0 disables clustered latents
    cluster_separation: float = 4.0
    identity_mixing: bool = False
    categories_per_poi: int = 2
    review_words_per_poi: int = 8
    topic_sharpness: float = 2.0
    city_tag: str = ""
    seed: int = 0

    def validate(self) -> "SynthConfig":
        check_bounds(self, _LEAST)
        if self.identity_mixing and self.feature_dim < self.latent_dim:
            raise ValidationError("identity mixing needs feature_dim >= latent_dim")
        # The tag starts every id, and ids go into report file names and into
        # the newline-ended names blocks of the bag table and checkpoints.
        if splits_a_path(self.city_tag) or "\n" in self.city_tag:
            raise ValidationError(f"city_tag {self.city_tag!r} holds a path separator, NUL or newline")
        return self


# The least value of each numeric SynthConfig field; cluster_separation and
# topic_sharpness take any finite value. The vocabulary splits into category
# and review pools, hence its 8.
_LEAST = {"n_neighborhoods": 1, "views_per_neighborhood": 1, "pois_per_neighborhood": 1, "latent_dim": 1,
          "feature_dim": 1, "vocab_size": 8, "spatial_noise": 0, "feature_noise": 0, "n_clusters": 0,
          "categories_per_poi": 0, "review_words_per_poi": 0, "seed": 0}


@dataclass
class SynthCity:
    """A generated city as columns, its street views in ascending id order."""

    config: SynthConfig
    neighborhood_ids: list[str]
    centroid_lat: np.ndarray  # (N,) float64
    centroid_lon: np.ndarray
    latents: np.ndarray  # (N, L), post-smoothing: the generating factors
    cluster_labels: np.ndarray | None
    sv_ids: list[str]
    sv_lat: np.ndarray  # (street views,) float64
    sv_lon: np.ndarray
    sv_neighborhood_ids: list[str]
    features: np.ndarray  # (street views, feature_dim) float32
    pois: PoiColumns

    @property
    def latent_names(self) -> list[str]:
        return [f"u{i + 1}" for i in range(self.latents.shape[1])]


def _grid_shape(n: int) -> tuple[int, int]:
    cols = int(np.ceil(np.sqrt(n)))
    rows = int(np.ceil(n / cols))
    return rows, cols


def _smooth_latents(u: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """0.5 * own latent + 0.5 * mean of the 4-neighborhood on the grid."""
    n = u.shape[0]
    out = np.empty_like(u)
    for i in range(n):
        r, c = divmod(i, cols)
        nbrs = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            rr, cc = r + dr, c + dc
            j = rr * cols + cc
            if 0 <= rr < rows and 0 <= cc < cols and j < n:
                nbrs.append(j)
        if nbrs:
            out[i] = 0.5 * u[i] + 0.5 * u[nbrs].mean(axis=0)
        else:
            out[i] = u[i]
    return out


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _jittered_coords(lat: np.ndarray, lon: np.ndarray, per: int, jitter: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each centroid repeated ``per`` times, moved by its rows of ``jitter``
    (degrees of latitude, longitude) and clamped to [-90, 90] x [-180, 180]."""
    return (np.clip(np.repeat(lat, per) + jitter[:, 0], -90.0, 90.0),
            np.clip(np.repeat(lon, per) + jitter[:, 1], -180.0, 180.0))


def _choice_distinct(draw, cdf: np.ndarray, p: np.ndarray, size: int) -> list[int]:
    """``rng.choice(len(p), size, replace=False, p=p)`` on its prebuilt table
    ``cdf = _inverse_cdf(p)``, with ``draw(m)`` giving the generator's next
    m uniforms: the same picks from the same uniforms. Each round draws the
    missing count and keeps first occurrences in draw order; rounds after the
    first redraw from ``p`` with the found entries zeroed."""
    picks = cdf.searchsorted(draw(size), side="right").tolist()
    if len(set(picks)) == size:
        return picks
    if np.count_nonzero(p) < size:
        raise ValidationError(f"{np.count_nonzero(p)} nonzero probabilities, "
                              f"fewer than the {size} distinct picks asked for")
    found = list(dict.fromkeys(picks))
    p = p.copy()
    while len(found) < size:
        x = draw(size - len(found))
        p[found] = 0.0
        found += dict.fromkeys(_inverse_cdf(p).searchsorted(x, side="right").tolist())
    return found


def _buffered(rng: np.random.Generator, values: list[float]):
    """``draw(m)``: the next m of the uniforms ``values``, drawn ahead from
    ``rng``, and then of ``rng`` itself."""
    def draw(m: int) -> np.ndarray:
        got = values[:m]
        del values[:m]
        return np.array(got + rng.random(m - len(got)).tolist())
    return draw


def generate_city(config: SynthConfig) -> SynthCity:
    """Pure function of the config; identical configs give identical cities.

    The generator's stream is that of drawing record by record: per street
    view its jitter normals then its feature normals, and per POI its jitter
    normals, its category uniforms (with redraw rounds), its review-word
    uniforms, then its rating and price normals. Calls that meet end to end
    are merged: all street views take one normal block, and each POI one
    ``random`` call for its uniforms and one ``normal`` call for its rating
    and price normals and the next POI's jitter normals."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    n, L = config.n_neighborhoods, config.latent_dim
    rows, cols = _grid_shape(n)
    tag = config.city_tag

    nbhd_ids = [f"{tag}n{i:04d}" for i in range(n)]
    centroid_lat = np.array([BASE_LAT + (i // cols) * GRID_SPACING_DEG for i in range(n)])
    centroid_lon = np.array([BASE_LON + (i % cols) * GRID_SPACING_DEG for i in range(n)])

    with np.errstate(over="ignore", invalid="ignore"):  # overflowing latents fail the feature check
        if config.n_clusters > 0:
            centers = rng.normal(size=(config.n_clusters, L)) * config.cluster_separation
            # Contiguous column strips keep clusters spatially coherent under smoothing.
            labels = np.array([min(config.n_clusters - 1, (i % cols) * config.n_clusters // cols)
                               for i in range(n)], dtype=np.int64)
            raw = centers[labels] + rng.normal(size=(n, L))
        else:
            labels = None
            raw = rng.normal(size=(n, L))
        latents = _smooth_latents(raw, rows, cols)

    if config.identity_mixing:
        mixing = np.eye(L, config.feature_dim)
    else:
        mixing = rng.normal(size=(L, config.feature_dim)) / np.sqrt(L)

    # Row i * V + v holds view v of neighborhood i: its jitter normals, then
    # its feature normals. Each neighborhood's base is its own vector-matrix
    # product; one (n, L) @ (L, F) product differs from it in the last bits.
    V, F = config.views_per_neighborhood, config.feature_dim
    draws = rng.normal(size=(n * V, 2 + F))
    with np.errstate(over="ignore", invalid="ignore"):
        base = np.array([latents[i] @ mixing for i in range(n)])
        features = (np.repeat(base, V, axis=0) + draws[:, 2:] * config.feature_noise).astype(np.float32)
        sv_lat, sv_lon = _jittered_coords(centroid_lat, centroid_lon, V, draws[:, :2] * config.spatial_noise)
    overflowed = ~np.isfinite(features).all(axis=1)  # also catches latents that overflowed
    if overflowed.any():
        raise ValidationError(f"neighborhood {nbhd_ids[int(overflowed.argmax()) // V]}: street-view features "
                              f"overflow; lower feature_noise or cluster_separation")
    sv_ids = [f"{tag}sv{i:04d}_{v:03d}" for i in range(n) for v in range(V)]  # sorted as the feature table
    order = sorted(range(n * V), key=sv_ids.__getitem__)
    sv_ids, sv_nids = [sv_ids[j] for j in order], [nbhd_ids[j // V] for j in order]

    n_cat = max(4, config.vocab_size // 4)
    n_rev = config.vocab_size - n_cat
    cat_pool = np.array([f"trade {t:03d}" for t in range(n_cat)], dtype=object)
    rev_pool = np.array([f"term{t:03d}" for t in range(n_rev)], dtype=object)
    with np.errstate(over="ignore", invalid="ignore"):
        cat_topics = _softmax(rng.normal(size=(L, n_cat)) * config.topic_sharpness, axis=1)
        rev_topics = _softmax(rng.normal(size=(L, n_rev)) * config.topic_sharpness, axis=1)
    if not (np.isfinite(cat_topics).all() and np.isfinite(rev_topics).all()):
        raise ValidationError(f"topic_sharpness {config.topic_sharpness} overflows the topic logits")

    n_cats = min(config.categories_per_poi, n_cat)
    n_words = config.review_words_per_poi
    P = config.pois_per_neighborhood
    # Per POI: its uniforms, categories first; its normals, jitter first, then
    # rating and price noise; its category and review-word picks. ``flat``
    # holds the normals in draw order.
    uniforms = np.empty((n * P, n_cats + n_words))
    normals = np.empty((n * P, 4))
    cats = np.empty((n * P, n_cats), dtype=np.int64)
    words = np.empty((n * P, n_words), dtype=np.int64)
    flat = normals.reshape(-1)
    flat[:2] = rng.normal(size=2)
    for i in range(n):
        mix = _softmax(latents[i])
        cat_p = mix @ cat_topics
        if np.count_nonzero(cat_p) < n_cats:
            raise ValidationError(f"neighborhood {nbhd_ids[i]}: {np.count_nonzero(cat_p)} categories have "
                                  f"nonzero probability, fewer than categories_per_poi={n_cats}; "
                                  f"lower topic_sharpness")
        cat_cdf = _inverse_cdf(cat_p)
        bounds = cat_cdf.tolist()
        redrawn = {}
        for j in range(i * P, (i + 1) * P):
            u = uniforms[j]
            rng.random(out=u)
            # A first round with a repeated pick redraws before the normals.
            if n_cats > 1 and len({bisect_right(bounds, x) for x in u[:n_cats].tolist()}) < n_cats:
                draw = _buffered(rng, u.tolist())
                redrawn[j] = _choice_distinct(draw, cat_cdf, cat_p, n_cats)
                u[n_cats:] = draw(n_words)
            # This POI's rating and price normals and the next POI's jitter
            # normals (the last POI's slice holds only its own two), the
            # values normal(size=4) returns.
            rng.standard_normal(out=flat[4 * j + 2:4 * j + 6])
        span = slice(i * P, (i + 1) * P)
        cats[span] = cat_cdf.searchsorted(uniforms[span, :n_cats], side="right")
        words[span] = _inverse_cdf(mix @ rev_topics).searchsorted(uniforms[span, n_cats:], side="right")
        for j, picks in redrawn.items():
            cats[j] = picks

    with np.errstate(over="ignore"):
        lat, lon = _jittered_coords(centroid_lat, centroid_lon, P, normals[:, :2] * config.spatial_noise)
    star_base = np.repeat(3.0 + 0.7 * latents[:, 0], P)
    price_base = np.repeat(2.5 + 0.7 * latents[:, 1 % L], P)
    pois = PoiColumns(
        ids=[f"{tag}p{i:04d}_{o:03d}" for i in range(n) for o in range(P)],
        lat=lat, lon=lon,
        neighborhood_ids=[nid for nid in nbhd_ids for _ in range(P)],
        phrases=cat_pool[cats].reshape(-1).tolist(),
        phrase_counts=np.full(n * P, n_cats, dtype=np.int64),
        ratings=_half_star(star_base + 0.3 * normals[:, 2]),
        prices=np.clip(np.rint(price_base + 0.3 * normals[:, 3]), 1, 4).astype(np.int64),
        reviews=[" ".join(text) for text in rev_pool[words].tolist()])

    return SynthCity(config=config, neighborhood_ids=nbhd_ids, centroid_lat=centroid_lat,
                     centroid_lon=centroid_lon, latents=latents, cluster_labels=labels, sv_ids=sv_ids,
                     sv_lat=sv_lat[order], sv_lon=sv_lon[order], sv_neighborhood_ids=sv_nids,
                     features=features[order], pois=pois)


def export_city(city: SynthCity, directory, features_format: str = "bin") -> dict[str, Path]:
    """Write the ingestion files: poi.jsonl, features.(bin|csv),
    street_views.csv, centroids.csv, attributes.csv, and clusters.csv when
    the city was generated with clustered latents."""
    if features_format not in ("bin", "csv"):
        raise ValidationError(f"features_format must be 'bin' or 'csv', got {features_format!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "poi": directory / "poi.jsonl",
        "features": directory / ("features.bin" if features_format == "bin" else "features.csv"),
        "street_views": directory / "street_views.csv",
        "centroids": directory / "centroids.csv",
        "attributes": directory / "attributes.csv",
    }
    write_poi_jsonl(paths["poi"], city.pois)
    write_features = write_feature_bin if features_format == "bin" else write_features_csv
    write_features(paths["features"], city.sv_ids, city.features)
    write_sv_metadata(paths["street_views"], city.sv_ids, city.sv_lat, city.sv_lon, city.sv_neighborhood_ids)
    write_centroids_csv(paths["centroids"], city.neighborhood_ids, city.centroid_lat, city.centroid_lon,
                        [city.config.city_tag or None] * len(city.neighborhood_ids))
    write_targets_csv(paths["attributes"], city.neighborhood_ids, city.latent_names, city.latents)
    if city.cluster_labels is not None:
        paths["clusters"] = directory / "clusters.csv"
        _write_csv(paths["clusters"], ["id", "cluster"], zip(city.neighborhood_ids, city.cluster_labels.tolist()))
    return paths
