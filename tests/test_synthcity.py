"""Synthetic-city generator tests: determinism, structure, export round-trip."""

import hashlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import columns_of, linreg_predict, write_poi_records
from test_corpus import assert_columns_equal
from test_fileio import Unwritable

from metrovec.analytics import linreg_fit, r_squared
from metrovec.corpus import PoiRecord, _half_star, _inverse_cdf, read_poi_columns, read_poi_jsonl
from metrovec.errors import ValidationError
from metrovec.fileio import (_write_csv, read_centroids_csv, read_feature_bin, read_sv_metadata, read_targets_csv,
                             write_feature_bin)
from metrovec.geo import GeoPoint
from metrovec.synthcity import (BASE_LAT, BASE_LON, GRID_SPACING_DEG, SynthConfig,
                                _buffered, _choice_distinct, _grid_shape, _smooth_latents, _softmax,
                                export_city, generate_city)


def dir_digest(directory: Path) -> dict[str, str]:
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(directory))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


class TestGenerate:
    def test_same_config_identical(self):
        cfg = SynthConfig(n_neighborhoods=12, views_per_neighborhood=4,
                          pois_per_neighborhood=3, seed=42)
        a, b = generate_city(cfg), generate_city(cfg)
        assert np.array_equal(a.latents, b.latents)
        assert a.neighborhood_ids == b.neighborhood_ids
        assert a.sv_ids == b.sv_ids
        assert np.array_equal(a.sv_lat, b.sv_lat) and np.array_equal(a.sv_lon, b.sv_lon)
        assert np.array_equal(a.features, b.features)
        assert_columns_equal(a.pois, b.pois)

    def test_counts(self):
        cfg = SynthConfig(n_neighborhoods=9, views_per_neighborhood=5,
                          pois_per_neighborhood=7, seed=1)
        city = generate_city(cfg)
        assert len(city.sv_ids) == len(city.sv_lat) == len(city.sv_lon) == len(city.features) == 45
        assert city.sv_ids == sorted(city.sv_ids)
        assert len(city.pois) == 63
        assert len(city.neighborhood_ids) == 9
        assert set(city.sv_neighborhood_ids) == set(city.neighborhood_ids)

    def test_degenerate_noise_identical_features(self):
        cfg = SynthConfig(n_neighborhoods=4, views_per_neighborhood=5, latent_dim=3,
                          feature_dim=6, feature_noise=0.0, identity_mixing=True, seed=2)
        city = generate_city(cfg)
        by_nbhd = {}
        for nid, features in zip(city.sv_neighborhood_ids, city.features):
            by_nbhd.setdefault(nid, []).append(features)
        for feats in by_nbhd.values():
            for f in feats[1:]:
                assert np.array_equal(f, feats[0])

    def test_spatial_coherence(self):
        cfg = SynthConfig(n_neighborhoods=121, views_per_neighborhood=1,
                          pois_per_neighborhood=1, latent_dim=4, seed=3)
        city = generate_city(cfg)
        u = city.latents
        # Adjacent grid cells: centroids one grid step apart along one axis.
        lat, lon = city.centroid_lat, city.centroid_lon
        steps = np.abs(lat[:, None] - lat) + np.abs(lon[:, None] - lon)
        pairs = np.argwhere(np.triu(np.isclose(steps, GRID_SPACING_DEG)))
        assert len(pairs) == 2 * 11 * 10
        adjacent = np.mean([float(u[i] @ u[j] / (np.linalg.norm(u[i]) * np.linalg.norm(u[j])))
                            for i, j in pairs])
        rng = np.random.default_rng(0)
        rand_pairs = rng.integers(0, len(u), size=(500, 2))
        rand_pairs = rand_pairs[rand_pairs[:, 0] != rand_pairs[:, 1]]
        random_sim = np.mean([float(u[i] @ u[j] / (np.linalg.norm(u[i]) * np.linalg.norm(u[j])))
                              for i, j in rand_pairs])
        assert adjacent > random_sim

    def test_feature_signal_floor(self):
        cfg = SynthConfig(n_neighborhoods=80, views_per_neighborhood=8,
                          pois_per_neighborhood=1, latent_dim=3, feature_dim=12, seed=4)
        city = generate_city(cfg)
        means = {}
        for nid, features in zip(city.sv_neighborhood_ids, city.features):
            means.setdefault(nid, []).append(features.astype(np.float64))
        X = np.stack([np.mean(means[nid], axis=0) for nid in city.neighborhood_ids])
        n_train = 60
        for t in range(3):
            y = city.latents[:, t]
            w, b = linreg_fit(X[:n_train], y[:n_train])
            assert r_squared(y[n_train:], linreg_predict(w, b, X[n_train:])) > 0.0

    def test_cluster_mode(self):
        cfg = SynthConfig(n_neighborhoods=64, views_per_neighborhood=1,
                          pois_per_neighborhood=1, n_clusters=4, seed=5)
        city = generate_city(cfg)
        assert city.cluster_labels is not None
        assert set(city.cluster_labels.tolist()) == {0, 1, 2, 3}

    def test_invalid_configs(self):
        with pytest.raises(ValidationError):
            SynthConfig(n_neighborhoods=0).validate()
        with pytest.raises(ValidationError):
            SynthConfig(feature_noise=-1.0).validate()
        with pytest.raises(ValidationError):
            SynthConfig(identity_mixing=True, feature_dim=2, latent_dim=3).validate()

    @pytest.mark.parametrize("field,value,message", [
        ("n_neighborhoods", 0, "n_neighborhoods must be >= 1, got 0"),
        ("views_per_neighborhood", 0, "views_per_neighborhood must be >= 1, got 0"),
        ("pois_per_neighborhood", 0, "pois_per_neighborhood must be >= 1, got 0"),
        ("latent_dim", 0, "latent_dim must be >= 1, got 0"), ("feature_dim", 0, "feature_dim must be >= 1, got 0"),
        ("vocab_size", 7, "vocab_size must be >= 8, got 7"),
        ("spatial_noise", -0.1, "spatial_noise must be >= 0, got -0.1"),
        ("feature_noise", -1.0, "feature_noise must be >= 0, got -1.0"),
        ("n_clusters", -1, "n_clusters must be >= 0, got -1"),
        ("categories_per_poi", -1, "categories_per_poi must be >= 0, got -1"),
        ("review_words_per_poi", -1, "review_words_per_poi must be >= 0, got -1"),
        ("seed", -2, "seed must be >= 0, got -2"),
    ])
    def test_bound_names_field_bound_and_value(self, field, value, message):
        with pytest.raises(ValidationError) as exc:
            SynthConfig(**{field: value}).validate()
        assert str(exc.value) == message

    def test_city_tag_prefixes_ids(self):
        cfg = SynthConfig(n_neighborhoods=4, views_per_neighborhood=2,
                          pois_per_neighborhood=2, city_tag="ny_", seed=6)
        city = generate_city(cfg)
        assert all(nid.startswith("ny_") for nid in city.neighborhood_ids)
        assert all(sid.startswith("ny_") for sid in city.sv_ids)
        assert all(pid.startswith("ny_") for pid in city.pois.ids)


class TestExport:
    def test_files_and_counts(self, tmp_path):
        cfg = SynthConfig(n_neighborhoods=6, views_per_neighborhood=3,
                          pois_per_neighborhood=4, seed=7)
        city = generate_city(cfg)
        paths = export_city(city, tmp_path / "out")
        for key in ("poi", "features", "street_views", "centroids", "attributes"):
            assert paths[key].exists()
        assert len(read_sv_metadata(paths["street_views"])[0]) == 18
        assert len(read_poi_jsonl(paths["poi"])) == 24
        assert read_feature_bin(paths["features"]).shape == (18, cfg.feature_dim)
        ids, names, values = read_targets_csv(paths["attributes"])
        assert ids == city.neighborhood_ids
        assert values.shape == (6, cfg.latent_dim)

    def test_round_trip_bin_and_csv(self, tmp_path):
        cfg = SynthConfig(n_neighborhoods=5, views_per_neighborhood=3,
                          pois_per_neighborhood=3, seed=8)
        city = generate_city(cfg)
        exp_ids, exp_feats = city.sv_ids, city.features

        paths_bin = export_city(city, tmp_path / "bin", features_format="bin")
        feats = read_feature_bin(paths_bin["features"])
        assert np.array_equal(feats, exp_feats)

        from metrovec.fileio import read_features_csv
        paths_csv = export_city(city, tmp_path / "csv", features_format="csv")
        ids, feats_csv = read_features_csv(paths_csv["features"])
        assert ids == exp_ids
        assert np.array_equal(feats_csv, exp_feats)

        ids, lat, lon, nids = read_sv_metadata(paths_bin["street_views"])
        assert (ids, nids) == (city.sv_ids, city.sv_neighborhood_ids)
        assert lat.tobytes() == city.sv_lat.tobytes() and lon.tobytes() == city.sv_lon.tobytes()

        assert_columns_equal(read_poi_columns(paths_bin["poi"]), city.pois)

        ids, lat, lon, cities = read_centroids_csv(paths_bin["centroids"])
        assert ids == city.neighborhood_ids and cities == [None] * len(ids)
        assert lat.tobytes() == city.centroid_lat.tobytes() and lon.tobytes() == city.centroid_lon.tobytes()

        _, _, latents = read_targets_csv(paths_bin["attributes"])
        assert np.array_equal(latents, city.latents)

    def test_checksums_stable_across_regeneration(self, tmp_path):
        cfg = SynthConfig(n_neighborhoods=5, views_per_neighborhood=2,
                          pois_per_neighborhood=2, n_clusters=2, seed=9)
        export_city(generate_city(cfg), tmp_path / "a")
        export_city(generate_city(cfg), tmp_path / "b")
        assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")

    def test_cluster_file_emitted(self, tmp_path):
        cfg = SynthConfig(n_neighborhoods=8, views_per_neighborhood=1,
                          pois_per_neighborhood=1, n_clusters=2, seed=10)
        paths = export_city(generate_city(cfg), tmp_path / "c")
        assert "clusters" in paths
        lines = paths["clusters"].read_text().strip().splitlines()
        assert lines[0] == "id,cluster"
        assert len(lines) == 9

    def test_failed_cluster_write_keeps_previous_file(self, tmp_path):
        city = generate_city(SynthConfig(n_neighborhoods=4, views_per_neighborhood=1,
                                         pois_per_neighborhood=1, n_clusters=2, seed=10))
        path = export_city(city, tmp_path)["clusters"]
        before = path.read_bytes()
        city.cluster_labels = np.array([0, 1, Unwritable(), 1], dtype=object)
        with pytest.raises(ValueError, match="unwritable"):
            export_city(city, tmp_path)
        assert path.read_bytes() == before
        assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]

    @pytest.mark.parametrize("tag", ["a/b", "a\0b", "a\nb"])
    def test_city_tag_that_an_id_cannot_hold_refused(self, tag):
        with pytest.raises(ValidationError, match="holds a path separator, NUL or newline"):
            SynthConfig(city_tag=tag).validate()


def reference_city(config: SynthConfig) -> SimpleNamespace:
    """The generator drawn record by record: Generator.choice for every POI's
    categories and review words, separate normal() calls for every jitter,
    feature vector, rating and price, and np.clip for every coordinate. The
    city's fields are records: a GeoPoint per centroid, an (id, GeoPoint,
    neighborhood id) per street view in draw order, a PoiRecord per POI."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    n, L = config.n_neighborhoods, config.latent_dim
    rows, cols = _grid_shape(n)
    tag = config.city_tag
    nbhd_ids = [f"{tag}n{i:04d}" for i in range(n)]
    centroids = [GeoPoint(BASE_LAT + (i // cols) * GRID_SPACING_DEG,
                          BASE_LON + (i % cols) * GRID_SPACING_DEG) for i in range(n)]
    if config.n_clusters > 0:
        centers = rng.normal(size=(config.n_clusters, L)) * config.cluster_separation
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

    street_views, features = [], []
    for i in range(n):
        base = latents[i] @ mixing
        for v in range(config.views_per_neighborhood):
            with np.errstate(over="ignore"):
                jitter = rng.normal(size=2) * config.spatial_noise
            lat = float(np.clip(centroids[i].lat + jitter[0], -90.0, 90.0))
            lon = float(np.clip(centroids[i].lon + jitter[1], -180.0, 180.0))
            feats = base + rng.normal(size=config.feature_dim) * config.feature_noise
            street_views.append((f"{tag}sv{i:04d}_{v:03d}", GeoPoint(lat, lon), nbhd_ids[i]))
            features.append(feats.astype(np.float32))

    n_cat = max(4, config.vocab_size // 4)
    n_rev = config.vocab_size - n_cat
    cat_pool = [f"trade {t:03d}" for t in range(n_cat)]
    rev_pool = [f"term{t:03d}" for t in range(n_rev)]
    cat_topics = _softmax(rng.normal(size=(L, n_cat)) * config.topic_sharpness, axis=1)
    rev_topics = _softmax(rng.normal(size=(L, n_rev)) * config.topic_sharpness, axis=1)
    pois = []
    for i in range(n):
        mix = _softmax(latents[i])
        cat_p = mix @ cat_topics
        rev_p = mix @ rev_topics
        for o in range(config.pois_per_neighborhood):
            with np.errstate(over="ignore"):
                jitter = rng.normal(size=2) * config.spatial_noise
            lat = float(np.clip(centroids[i].lat + jitter[0], -90.0, 90.0))
            lon = float(np.clip(centroids[i].lon + jitter[1], -180.0, 180.0))
            n_cats = min(config.categories_per_poi, n_cat)
            cats = [cat_pool[t] for t in rng.choice(n_cat, size=n_cats, replace=False, p=cat_p)]
            words = [rev_pool[t] for t in rng.choice(n_rev, size=config.review_words_per_poi, p=rev_p)]
            rating = _half_star(3.0 + 0.7 * latents[i, 0] + 0.3 * rng.normal())
            price = int(np.clip(round(2.5 + 0.7 * latents[i, 1 % L] + 0.3 * rng.normal()), 1, 4))
            pois.append(PoiRecord(id=f"{tag}p{i:04d}_{o:03d}", geo=GeoPoint(lat, lon),
                                  neighborhood_id=nbhd_ids[i], categories=cats, rating=float(rating),
                                  price=price, reviews=[" ".join(words)]))
    return SimpleNamespace(config=config, neighborhood_ids=nbhd_ids, centroids=centroids, latents=latents,
                           cluster_labels=labels, street_views=street_views, features=np.stack(features),
                           pois=pois)


def reference_export(city: SimpleNamespace, directory: Path, features_format: str) -> None:
    """``export_city``'s files written record by record from a
    ``reference_city``: the POI records through the per-record line writer,
    each CSV number as ``repr(float(v))`` of one matrix entry or record
    field."""
    directory.mkdir()
    write_poi_records(directory / "poi.jsonl", city.pois)
    order = sorted(range(len(city.street_views)), key=lambda i: city.street_views[i][0])
    ids = [city.street_views[i][0] for i in order]
    if features_format == "bin":
        write_feature_bin(directory / "features.bin", ids, city.features[order])
    else:
        _write_csv(directory / "features.csv", ["id"] + [f"f{j + 1}" for j in range(city.features.shape[1])],
                   ([rid] + [repr(float(v)) for v in city.features[i]] for rid, i in zip(ids, order)))
    _write_csv(directory / "street_views.csv", ["id", "lat", "lon", "neighborhood_id"],
               ([sid, repr(float(pt.lat)), repr(float(pt.lon)), nid]
                for sid, pt, nid in (city.street_views[i] for i in order)))
    tag = [city.config.city_tag] if city.config.city_tag else []
    _write_csv(directory / "centroids.csv", ["id", "lat", "lon", *(["city"] if tag else [])],
               ([nid, repr(float(pt.lat)), repr(float(pt.lon)), *tag]
                for nid, pt in zip(city.neighborhood_ids, city.centroids)))
    _write_csv(directory / "attributes.csv", ["neighborhood_id"] + [f"u{t + 1}" for t in range(city.latents.shape[1])],
               ([nid] + [repr(float(v)) for v in row] for nid, row in zip(city.neighborhood_ids, city.latents)))
    if city.cluster_labels is not None:
        _write_csv(directory / "clusters.csv", ["id", "cluster"],
                   ([nid, int(label)] for nid, label in zip(city.neighborhood_ids, city.cluster_labels)))


REFERENCE_CONFIGS = {
    # Four categories, three per POI: most POIs redraw colliding picks.
    "clustered-tagged-redraws": SynthConfig(n_neighborhoods=30, views_per_neighborhood=3, pois_per_neighborhood=8,
                                            vocab_size=12, categories_per_poi=3, n_clusters=3, city_tag="bos_",
                                            seed=11),
    "noiseless-identity": SynthConfig(n_neighborhoods=10, views_per_neighborhood=4, pois_per_neighborhood=5,
                                      latent_dim=3, feature_dim=6, feature_noise=0.0, identity_mixing=True, seed=12),
    "peaked-topics": SynthConfig(n_neighborhoods=20, views_per_neighborhood=2, pois_per_neighborhood=6,
                                 vocab_size=40, topic_sharpness=6.0, categories_per_poi=4, review_words_per_poi=12,
                                 seed=13),
    "no-tokens": SynthConfig(n_neighborhoods=5, views_per_neighborhood=2, pois_per_neighborhood=3,
                             categories_per_poi=0, review_words_per_poi=0, seed=14),
    # Jitter past every bound, much of it overflowing to infinity: each
    # coordinate clamps to +-90 or +-180.
    "huge-jitter": SynthConfig(n_neighborhoods=6, views_per_neighborhood=3, pois_per_neighborhood=4,
                               spatial_noise=1e308, seed=15),
}


class TestMatchesPerRecordReference:
    @pytest.mark.parametrize("cfg", list(REFERENCE_CONFIGS.values()), ids=list(REFERENCE_CONFIGS))
    def test_field_for_field(self, cfg):
        got, want = generate_city(cfg), reference_city(cfg)
        assert got.neighborhood_ids == want.neighborhood_ids
        assert got.centroid_lat.tobytes() == np.array([c.lat for c in want.centroids]).tobytes()
        assert got.centroid_lon.tobytes() == np.array([c.lon for c in want.centroids]).tobytes()
        assert np.array_equal(got.latents, want.latents)
        assert np.array_equal(got.cluster_labels, want.cluster_labels)
        # Street views in ascending id order.
        views = sorted(want.street_views, key=lambda sv: sv[0])
        assert got.sv_ids == [sid for sid, _, _ in views]
        assert got.sv_neighborhood_ids == [nid for _, _, nid in views]
        assert got.sv_lat.tobytes() == np.array([p.lat for _, p, _ in views]).tobytes()
        assert got.sv_lon.tobytes() == np.array([p.lon for _, p, _ in views]).tobytes()
        order = sorted(range(len(want.street_views)), key=lambda i: want.street_views[i][0])
        assert got.features.dtype == want.features.dtype and np.array_equal(got.features, want.features[order])
        assert_columns_equal(got.pois, columns_of(want.pois))

    def test_huge_jitter_clamps_to_the_bounds(self):
        pois = generate_city(REFERENCE_CONFIGS["huge-jitter"]).pois
        assert set(pois.lat.tolist()) == {-90.0, 90.0} and set(pois.lon.tolist()) == {-180.0, 180.0}

    @pytest.mark.parametrize("features_format", ["bin", "csv"])
    @pytest.mark.parametrize("cfg", [*REFERENCE_CONFIGS.values(), SynthConfig(
        n_neighborhoods=6, views_per_neighborhood=2, pois_per_neighborhood=3, city_tag='q"\\\u00fc_', seed=16)],
        ids=[*REFERENCE_CONFIGS, "quote-backslash-umlaut-tag"])
    def test_files_byte_equal_the_record_by_record_export(self, tmp_path, cfg, features_format):
        export_city(generate_city(cfg), tmp_path / "got", features_format)
        reference_export(reference_city(cfg), tmp_path / "want", features_format)
        got, want = dir_digest(tmp_path / "got"), dir_digest(tmp_path / "want")
        assert len(got) == 5 + (cfg.n_clusters > 0) and got == want


def choice_cases():
    """3000 (p, distinct picks, further picks, seed) cases: flat, peaked and
    very peaked probabilities, a quarter of them with zero entries."""
    rng = np.random.default_rng(2024)
    for case in range(3000):
        n = int(rng.integers(1, 40))
        w = np.exp(rng.normal(size=n) * (0.5, 3.0, 12.0)[case % 3])
        if case % 4 == 0:
            w[rng.random(n) < 0.3] = 0.0
            w[int(rng.integers(n))] = 1.0
        p = w / w.sum()
        size = int(rng.integers(0, np.count_nonzero(p) + 1))
        yield p, size, int(rng.integers(0, 20)), int(rng.integers(2**32))


class TestSamplersMatchGeneratorChoice:
    def test_same_picks_and_final_state(self):
        redraws = 0
        for p, size, k, seed in choice_cases():
            cdf = _inverse_cdf(p)
            first = cdf.searchsorted(np.random.default_rng(seed).random(size), side="right")
            redraws += len(set(first.tolist())) < size

            want, got = np.random.default_rng(seed), np.random.default_rng(seed)
            want_cats = want.choice(len(p), size, replace=False, p=p).tolist()
            want_words = want.choice(len(p), k, p=p).tolist()
            assert _choice_distinct(got.random, cdf, p, size) == want_cats
            assert cdf.searchsorted(got.random(k), side="right").tolist() == want_words
            assert got.bit_generator.state == want.bit_generator.state
        assert redraws > 300

    def test_uniforms_drawn_ahead_give_the_same_picks_and_final_state(self):
        # generate_city's form: one random() call for the first round and the
        # words; redraw rounds take the words' uniforms first.
        for p, size, k, seed in choice_cases():
            cdf = _inverse_cdf(p)
            want, got = np.random.default_rng(seed), np.random.default_rng(seed)
            want_cats = want.choice(len(p), size, replace=False, p=p).tolist()
            want_words = want.choice(len(p), k, p=p).tolist()
            draw = _buffered(got, got.random(size + k).tolist())
            assert _choice_distinct(draw, cdf, p, size) == want_cats
            assert cdf.searchsorted(draw(k), side="right").tolist() == want_words
            assert got.bit_generator.state == want.bit_generator.state

    def test_too_few_nonzero_entries_rejected(self):
        p = np.array([0.5, 0.0, 0.5, 0.0])
        with pytest.raises(ValidationError, match="2 nonzero"):
            _choice_distinct(np.random.default_rng(0).random, _inverse_cdf(p), p, 3)
