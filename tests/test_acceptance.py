"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 5-7 and 10 run on synthetic cities where the generating latent
factors are known, standing in for the demographic-prediction, clustering,
and similarity analyses that full-scale data would support.
"""

import copy
import csv
import hashlib
import time
from collections import Counter

import numpy as np
import pytest
from oracles import adjusted_rand_index, table_of

from metrovec.analytics import SplitProtocol, cosine_rank, evaluate_regression, kmeans
from metrovec.cli import main
from metrovec.corpus import NegativeWordSampler, bags_of, build_bag_table, build_vocabulary
from metrovec.encoder import _backward_batch, _forward_batch, _views, init_encoder
from metrovec.geo import GeoPoint, SpatialIndex, build_index
from metrovec.synthcity import SynthConfig, generate_city
from metrovec.training import (TrainingConfig, _sample_triplet_rows, aggregate_neighborhoods,
                               context_rows_from_index, init_word_vectors,
                               train_poi_stage, train_street_view, triplet_grads)


def report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {status}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def mean_hinge(A, C, N, margin):
    """Mean of the per-row hinge losses that the batched triplet_grads returns."""
    return float(triplet_grads(A, C, N, margin)[1].mean())


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


MAIN_CITY = SynthConfig(n_neighborhoods=200, views_per_neighborhood=20,
                        pois_per_neighborhood=20, latent_dim=3, feature_dim=16,
                        vocab_size=240, feature_noise=3.0, topic_sharpness=3.0,
                        review_words_per_poi=10, seed=101)
MAIN_TRAIN = TrainingConfig(d=32, k_context=5, epochs_sv=10, epochs_poi=20,
                            triplets_per_anchor=5, lr_sv=0.01, lr_poi=0.02,
                            hidden=16, batch_size=64, seed=7)


@pytest.fixture(scope="module")
def main_city():
    """Full pipeline on the 200-neighborhood city, with held-out triplet
    losses measured before and after each trained stage."""
    t0 = time.monotonic()
    city = generate_city(MAIN_CITY)
    cfg = MAIN_TRAIN
    ids, feats = city.sv_ids, city.features.astype(np.float64)
    index = SpatialIndex(ids, city.sv_lat, city.sv_lon)
    params0 = init_encoder(feats.shape[1], cfg.hidden, cfg.d, cfg.seed)

    eval_rng = np.random.default_rng(90210)
    sv_rows = _sample_triplet_rows(context_rows_from_index(index, cfg.k_context), 5, eval_rng)

    params, X = train_street_view(params0, ids, feats, index, cfg)
    X0, _ = _forward_batch(params0, feats)
    sv_loss_before = mean_hinge(X0[sv_rows[:, 0]], X0[sv_rows[:, 1]],
                                X0[sv_rows[:, 2]], cfg.margin_sv)
    sv_loss_after = mean_hinge(X[sv_rows[:, 0]], X[sv_rows[:, 1]],
                               X[sv_rows[:, 2]], cfg.margin_sv)

    Z_sve = aggregate_neighborhoods(X, city.sv_neighborhood_ids, city.neighborhood_ids)
    table = build_bag_table(city.pois, city.neighborhood_ids)
    vocab, bags = build_vocabulary(table), bags_of(table)

    poi_rng = np.random.default_rng(777)
    poi_rows = []
    for i, nid in enumerate(city.neighborhood_ids):
        tids, counts = bags[nid].ids, bags[nid].counts
        outside = np.array([t for t in range(vocab.size) if t not in set(tids.tolist())])
        for _ in range(10):
            poi_rows.append((i, int(poi_rng.choice(tids, p=counts / counts.sum())),
                             int(poi_rng.choice(outside))))
    poi_rows = np.array(poi_rows)

    Y0 = init_word_vectors(vocab, cfg.d, cfg.seed)
    poi_loss_before = mean_hinge(Z_sve[poi_rows[:, 0]], Y0[poi_rows[:, 1]],
                                 Y0[poi_rows[:, 2]], cfg.margin_poi)
    Z_u2v, Y = train_poi_stage(Z_sve, city.neighborhood_ids, vocab, bags, cfg)
    poi_loss_after = mean_hinge(Z_u2v[poi_rows[:, 0]], Y[poi_rows[:, 1]],
                                Y[poi_rows[:, 2]], cfg.margin_poi)

    rng = np.random.default_rng(cfg.seed + 2)
    z_rand_init = rng.uniform(-0.5 / cfg.d, 0.5 / cfg.d,
                              size=(len(city.neighborhood_ids), cfg.d))
    Z_poi, _ = train_poi_stage(z_rand_init, city.neighborhood_ids, vocab, bags, cfg)

    protocol = SplitProtocol(repeats=20, seed=17)
    scores = {}
    for name, Z in (("u2v", Z_u2v), ("sve", Z_sve), ("poi", Z_poi)):
        scores[name] = evaluate_regression(Z, city.latents, city.latent_names, protocol).overall_mean
    Z_random = np.random.default_rng(4242).normal(size=Z_u2v.shape)
    scores["random"] = evaluate_regression(Z_random, city.latents, city.latent_names,
                                           protocol).overall_mean

    return {
        "elapsed": time.monotonic() - t0,
        "scores": scores,
        "sv_loss": (sv_loss_before, sv_loss_after),
        "poi_loss": (poi_loss_before, poi_loss_after),
        "Z_u2v": Z_u2v,
        "neighborhood_ids": city.neighborhood_ids,
    }


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(31)
    worst = 0.0

    # batched triplet gradients on one-row batches vs central differences
    def loss(*vecs):
        return mean_hinge(*(v[None, :] for v in vecs), 0.5)

    checked = 0
    while checked < 20:
        xa, xc, xn = rng.normal(size=(3, 6))
        if loss(xa, xc, xn) <= 1e-3:
            continue
        analytic = triplet_grads(xa[None, :], xc[None, :], xn[None, :], 0.5)[0]  # rows ga, gc, gn
        step = 1e-4
        vecs = [xa.copy(), xc.copy(), xn.copy()]
        for vi in range(3):
            numeric = np.zeros(6)
            for j in range(6):
                hi = [v.copy() for v in vecs]
                lo = [v.copy() for v in vecs]
                hi[vi][j] += step
                lo[vi][j] -= step
                numeric[j] = (loss(*hi) - loss(*lo)) / (2 * step)
            worst = max(worst, rel_err(analytic[vi], numeric))
        checked += 1

    # batched encoder backward on one-row batches vs central differences
    def objective(p, x, gout):
        return float(_forward_batch(p, x[None, :])[0][0] @ gout)

    for trial in range(20):
        d_in = int(rng.integers(2, 17))
        d = int(rng.integers(1, 9))
        hidden = int(rng.integers(0, 7))
        params = init_encoder(d_in, hidden, d, seed=500 + trial)
        x = rng.normal(size=d_in)
        gout = rng.normal(size=d)
        _, cache = _forward_batch(params, x[None, :])
        grads = _views(params, np.empty(params.size))
        _backward_batch(params, cache, gout[None, :], grads)
        grads_w, grads_b = grads.weights, grads.biases
        step = 1e-4
        for li in range(len(params.weights)):
            numeric = np.zeros_like(params.weights[li])
            for idx in np.ndindex(*numeric.shape):
                p = copy.deepcopy(params)
                p.weights[li][idx] += step
                hi = objective(p, x, gout)
                p.weights[li][idx] -= 2 * step
                lo = objective(p, x, gout)
                numeric[idx] = (hi - lo) / (2 * step)
            worst = max(worst, rel_err(grads_w[li], numeric))
            numeric_b = np.zeros_like(params.biases[li])
            for idx in np.ndindex(*numeric_b.shape):
                p = copy.deepcopy(params)
                p.biases[li][idx] += step
                hi = objective(p, x, gout)
                p.biases[li][idx] -= 2 * step
                lo = objective(p, x, gout)
                numeric_b[idx] = (hi - lo) / (2 * step)
            worst = max(worst, rel_err(grads_b[li], numeric_b))

    elapsed = time.monotonic() - t0
    report(1, "triplet and encoder gradients match finite differences",
           worst < 1e-4 and elapsed < 5.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_aggregation_optimality():
    t0 = time.monotonic()
    rng = np.random.default_rng(32)
    ok = True
    for _ in range(50):
        m = int(rng.integers(1, 30))
        d = int(rng.integers(2, 16))
        X = rng.normal(size=(m, d)) * rng.uniform(0.1, 5.0)
        Z = aggregate_neighborhoods(X, ["n"] * m, ["n"])
        base = ((X - Z[0]) ** 2).sum()
        for _ in range(100):
            delta = rng.normal(size=d)
            delta /= np.linalg.norm(delta)
            if ((X - (Z[0] + delta)) ** 2).sum() < base:
                ok = False
    elapsed = time.monotonic() - t0
    report(2, "mean aggregation minimizes summed squared distance",
           ok and elapsed < 5.0, f"{elapsed:.1f}s")


def test_criterion_3_negative_sampling_law():
    t0 = time.monotonic()
    freqs = {"a": 2, "b": 7, "c": 13, "d": 29, "e": 50}
    vocab = build_vocabulary(table_of({"n": Counter(freqs)}))
    sampler = NegativeWordSampler(vocab, context_ids=set(), exponent=0.5)
    draws = sampler.draw(np.random.default_rng(33), size=100_000)
    weights = {t: f ** 0.5 for t, f in freqs.items()}
    total = sum(weights.values())
    worst = 0.0
    for token, w in weights.items():
        emp = float(np.mean(draws == vocab.tokens.index(token)))
        worst = max(worst, abs(emp - w / total))
    elapsed = time.monotonic() - t0
    report(3, "negative sampling follows sqrt-frequency law within 0.01",
           worst <= 0.01 and elapsed < 5.0, f"max dev {worst:.4f}, {elapsed:.1f}s")


def test_criterion_4_knn_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(34)
    pts = [(f"p{i:04d}", GeoPoint(float(rng.uniform(36.5, 38.5)), float(rng.uniform(-123.5, -121.0))))
           for i in range(1000)]
    index = build_index(pts)

    # independent linear-scan oracle (atan2 haversine)
    lat = np.radians(np.array([p.lat for _, p in pts]))
    lon = np.radians(np.array([p.lon for _, p in pts]))
    ids = [pid for pid, _ in pts]
    rank = np.argsort(np.argsort(ids))

    def oracle(qrow):
        h = np.sin((lat - lat[qrow]) / 2) ** 2 + np.cos(lat[qrow]) * np.cos(lat) * np.sin((lon - lon[qrow]) / 2) ** 2
        d = 6_371_000.0 * 2 * np.arctan2(np.sqrt(h), np.sqrt(np.clip(1 - h, 0, None)))
        order = np.lexsort((rank, d))
        return [ids[i] for i in order if i != qrow][:5]

    rows = index.k_nearest(5)
    ok = all([ids[r] for r in rows[q]] == oracle(q) for q in range(1000))
    elapsed = time.monotonic() - t0
    report(4, "1000-point index matches brute force on all K=5 queries",
           ok and elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_5_latent_recovery(main_city):
    scores = main_city["scores"]
    ok = (scores["u2v"] >= 0.5
          and scores["u2v"] - scores["random"] >= 0.3
          and main_city["elapsed"] < 600.0)
    report(5, "pipeline recovers latent attributes (mean test R^2)",
           ok, f"u2v {scores['u2v']:.3f}, random {scores['random']:.3f}, "
               f"{main_city['elapsed']:.0f}s")


def test_criterion_6_multi_modality_gain(main_city):
    scores = main_city["scores"]
    floor = max(scores["sve"], scores["poi"]) - 0.02
    report(6, "joint embedding at least matches the best single modality",
           scores["u2v"] >= floor,
           f"u2v {scores['u2v']:.3f} vs sve {scores['sve']:.3f} / poi {scores['poi']:.3f}")


def test_criterion_7_clustering_sanity():
    city_cfg = SynthConfig(n_neighborhoods=144, views_per_neighborhood=10,
                           pois_per_neighborhood=10, latent_dim=3, feature_dim=16,
                           vocab_size=160, feature_noise=2.0, topic_sharpness=3.0,
                           n_clusters=4, cluster_separation=4.0, seed=202)
    cfg = TrainingConfig(d=16, k_context=5, epochs_sv=10, epochs_poi=20,
                         triplets_per_anchor=5, lr_sv=0.01, lr_poi=0.02,
                         hidden=16, batch_size=64, seed=7)
    city = generate_city(city_cfg)
    ids, feats = city.sv_ids, city.features.astype(np.float64)
    index = SpatialIndex(ids, city.sv_lat, city.sv_lon)
    params = init_encoder(feats.shape[1], cfg.hidden, cfg.d, cfg.seed)
    params, X = train_street_view(params, ids, feats, index, cfg)
    Z = aggregate_neighborhoods(X, city.sv_neighborhood_ids, city.neighborhood_ids)
    table = build_bag_table(city.pois, city.neighborhood_ids)
    Z, _ = train_poi_stage(Z, city.neighborhood_ids, build_vocabulary(table), bags_of(table), cfg)
    labels, _ = kmeans(Z, 4, seed=cfg.seed)
    ari = adjusted_rand_index(labels, city.cluster_labels)
    report(7, "k-means on Z recovers the 4 latent clusters (ARI >= 0.8)",
           ari >= 0.8, f"ARI {ari:.3f}")


def test_criterion_8_similarity_contract(main_city, cli_pipeline_pair):
    Z = main_city["Z_u2v"]
    ids = main_city["neighborhood_ids"]
    query_row = 17
    ranked = cosine_rank(Z[query_row], ids, Z)
    self_ok = ranked[0][0] == ids[query_row] and abs(ranked[0][1] - 1.0) <= 1e-6
    scaled = cosine_rank(3.7 * Z[query_row], ids, Z)
    tiny = cosine_rank(1e-4 * Z[query_row], ids, Z)
    scale_ok = ([r[0] for r in scaled] == [r[0] for r in ranked]
                and [r[0] for r in tiny] == [r[0] for r in ranked])

    ws = cli_pipeline_pair["workspaces"][0]
    query = cli_pipeline_pair["neighborhood_ids"][0]
    n = len(cli_pipeline_pair["neighborhood_ids"])
    assert main(["similar", "--workspace", str(ws), "--query", query, "--top", str(n)]) == 0
    most = [r[1] for r in csv.reader(
        (ws / "reports" / f"similar_{query}.csv").read_text().splitlines()[1:])]
    assert main(["similar", "--workspace", str(ws), "--query", query, "--top", str(n),
                 "--least"]) == 0
    least = [r[1] for r in csv.reader(
        (ws / "reports" / f"similar_{query}.csv").read_text().splitlines()[1:])]
    least_ok = least == most[::-1]

    report(8, "self-query ranks first at cosine 1, scale-invariant, --least reverses",
           self_ok and scale_ok and least_ok)


SMALL_SYNTH = """
n_neighborhoods = 25
views_per_neighborhood = 6
pois_per_neighborhood = 5
latent_dim = 2
feature_dim = 8
vocab_size = 60
feature_noise = 1.0
seed = 55
"""
SMALL_FLAGS = ["--d", "8", "--hidden", "4", "--epochs-sv", "3", "--epochs-poi", "3",
               "--k-context", "4", "--triplets-per-anchor", "3", "--seed", "23"]


@pytest.fixture(scope="module")
def cli_pipeline_pair(tmp_path_factory):
    """The same synth -> ingest -> train -> eval -> cluster pipeline run twice
    in separate workspaces with identical seeds."""
    base = tmp_path_factory.mktemp("determinism")
    cfg = base / "synth.cfg"
    cfg.write_text(SMALL_SYNTH)
    workspaces = []
    nbhd_ids = None
    for run in ("one", "two"):
        data = base / f"city_{run}"
        ws = base / f"ws_{run}"
        assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
        assert main(["ingest", "--workspace", str(ws),
                     "--poi", str(data / "poi.jsonl"),
                     "--features", str(data / "features.bin"),
                     "--ids", str(data / "street_views.csv"),
                     "--centroids", str(data / "centroids.csv")]) == 0
        assert main(["train-sv", "--workspace", str(ws)] + SMALL_FLAGS) == 0
        assert main(["aggregate", "--workspace", str(ws)]) == 0
        assert main(["train-poi", "--workspace", str(ws)]) == 0
        assert main(["eval", "--workspace", str(ws), "--targets", str(data / "attributes.csv"),
                     "--repeats", "5"]) == 0
        assert main(["cluster", "--workspace", str(ws), "--k", "4"]) == 0
        workspaces.append(ws)
        if nbhd_ids is None:
            from metrovec.fileio import read_embeddings
            nbhd_ids, _ = read_embeddings(ws / "checkpoints" / "u2v.emb")
    return {"workspaces": workspaces, "neighborhood_ids": nbhd_ids}


def test_criterion_9_determinism(cli_pipeline_pair):
    a, b = cli_pipeline_pair["workspaces"]

    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    same = True
    compared = []
    # Each checkpoint holds its row ids, so its digest covers them too.
    for rel in ("checkpoints/sv.emb", "checkpoints/sve.emb", "checkpoints/u2v.emb", "checkpoints/words.emb",
                "reports/eval_u2v.csv", "reports/clusters_u2v.csv"):
        match = digest(a / rel) == digest(b / rel)
        same = same and match
        compared.append((rel, match))
    report(9, "identical seeds give byte-identical checkpoints and reports",
           same, ", ".join(rel for rel, m in compared if not m) or "all files match")


def test_criterion_10_training_progress(main_city):
    sv_before, sv_after = main_city["sv_loss"]
    poi_before, poi_after = main_city["poi_loss"]
    sv_drop = (sv_before - sv_after) / sv_before
    poi_drop = (poi_before - poi_after) / poi_before
    report(10, "held-out triplet losses drop >= 5% in stages 1 and 3",
           sv_drop >= 0.05 and poi_drop >= 0.05,
           f"stage 1 -{sv_drop * 100:.1f}%, stage 3 -{poi_drop * 100:.1f}%")
