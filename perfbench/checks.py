"""Output checks and quality metrics, computed from the files the CLI writes.

Checkpoints are read through the program's public reader
(``metrovec.fileio.read_embeddings``) and POI bags through
``metrovec.corpus``; the held-out triplets and their hinge loss are the
benchmark's own numpy code, so the quality numbers do not depend on the
training code they judge. Each check returns a problem string, or None.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

EARTH_RADIUS_M = 6_371_008.8
HELD_OUT_SALT = 0x4E1D  # held-out triplets use a seed stream apart from training
SV_HELD_OUT = 6000      # anchors drawn for the street-view held-out loss
BLOCK = 16              # anchors per distance block and
HINGE_BLOCK = 512       # triplets per hinge block: the checks' temporaries stay
                        # far below the program's own working set (peak_rss_mb)
POI_PER_NEIGHBORHOOD = 20
DEFAULTS = {"k_context": 5, "margin_sv": 0.2, "margin_poi": 0.2}  # TrainingConfig defaults


def read_csv(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def manifest(ws: Path) -> dict:
    with open(ws / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_stages(ws: Path, stages: list[str]):
    done = manifest(ws).get("stages", {})
    missing = [s for s in stages if not done.get(s)]
    return f"manifest stages not set: {missing}" if missing else None


def check_checkpoint(fileio, ws: Path, name: str, ids: list[str], dim: int):
    got_ids, matrix = fileio.read_embeddings(ws / "checkpoints" / f"{name}.emb")
    if list(got_ids) != list(ids):
        return f"{name}: {len(got_ids)} ids, expected {len(ids)} in order"
    if matrix.shape != (len(ids), dim):
        return f"{name}: shape {matrix.shape}, expected {(len(ids), dim)}"
    if not np.isfinite(matrix).all():
        return f"{name}: non-finite values"
    return None


def check_eval(ws: Path, embedding: str, target_names: list[str]):
    rows = read_csv(ws / "reports" / f"eval_{embedding}.csv")
    names = [r[0] for r in rows[1:]]
    if names != target_names + ["__overall__"]:
        return f"eval_{embedding}: rows {names}, expected {target_names + ['__overall__']}"
    if not all(math.isfinite(float(r[1])) for r in rows[1:]):
        return f"eval_{embedding}: non-finite R^2"
    return None


def overall_r2(ws: Path, embedding: str) -> float:
    rows = read_csv(ws / "reports" / f"eval_{embedding}.csv")
    return float(next(r[1] for r in rows if r[0] == "__overall__"))


def check_clusters(ws: Path, ids: list[str], k: int):
    rows = read_csv(ws / "reports" / "clusters_u2v.csv")[1:]
    if [r[0] for r in rows] != ids:
        return f"clusters: {len(rows)} rows, expected one per neighborhood"
    labels = {int(r[1]) for r in rows}
    if labels != set(range(k)):
        return f"clusters: labels {sorted(labels)}, expected 0..{k - 1}"
    return None


def check_similar(ws: Path, query: str, top: int, least: bool):
    rows = read_csv(ws / "reports" / f"similar_{query}.csv")[1:]
    if len(rows) != top:
        return f"similar {query}: {len(rows)} rows, expected {top}"
    sims = [float(r[2]) for r in rows]
    order = sorted(sims) if least else sorted(sims, reverse=True)
    if sims != order:
        return f"similar {query}: cosines not ranked"
    if not least and (rows[0][1] != query or abs(sims[0] - 1.0) > 1e-9):
        return f"similar {query}: first result {rows[0][1]} cosine {sims[0]}, expected the query at 1.0"
    return None


def hinge(A, a, C, c, n, margin: float) -> np.ndarray:
    """Hinge loss of the triplets (A[a], C[c], C[n]), a block at a time."""
    out = np.empty(len(a))
    for lo in range(0, len(a), HINGE_BLOCK):
        block = slice(lo, lo + HINGE_BLOCK)
        anchor = A[a[block]]
        d_ac = np.linalg.norm(anchor - C[c[block]], axis=1)
        d_an = np.linalg.norm(anchor - C[n[block]], axis=1)
        out[block] = np.maximum(0.0, margin + d_ac - d_an)
    return out


def _haversine(lat1, lon1, lat2, lon2):
    dphi = np.radians(lat2 - lat1)
    dlam = np.radians(lon2 - lon1)
    s = np.sin(dphi / 2) ** 2 + np.cos(np.radians(lat1)) * np.cos(np.radians(lat2)) * np.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(s, 0.0, 1.0)))


class HeldOut:
    """Held-out triplets over one set of inputs, drawn once and scored on
    every checkpoint trained from those inputs."""

    def __init__(self, corpus, inputs: Path, seed: int):
        self.corpus, self.inputs = corpus, inputs
        self.rng = np.random.default_rng([seed, HELD_OUT_SALT])
        self.sv = self.poi = self._bags = None

    def _sv_triplets(self, ids: list[str], k: int):
        pos = {r[0]: (float(r[1]), float(r[2])) for r in read_csv(self.inputs / "street_views.csv")[1:]}
        lat = np.array([pos[i][0] for i in ids])
        lon = np.array([pos[i][1] for i in ids])
        n, rng = len(ids), self.rng
        anchors = rng.choice(n, size=min(SV_HELD_OUT, n), replace=False)
        ctx = np.empty((anchors.size, k), dtype=np.int64)
        for lo in range(0, anchors.size, BLOCK):
            block = anchors[lo:lo + BLOCK]
            dist = _haversine(lat[block, None], lon[block, None], lat[None, :], lon[None, :])
            dist[np.arange(block.size), block] = np.inf
            near = np.argpartition(dist, k, axis=1)[:, :k]
            ctx[lo:lo + block.size] = near
        # One triplet per (anchor, context) pair, each with its own negative.
        anchors, ctx = np.repeat(anchors, k), np.repeat(ctx, k, axis=0)
        context = ctx[np.arange(anchors.size), np.tile(np.arange(k), anchors.size // k)]
        negative = rng.integers(0, n, anchors.size)
        bad = (negative == anchors) | (ctx == negative[:, None]).any(axis=1)
        while bad.any():
            negative[bad] = rng.integers(0, n, int(bad.sum()))
            bad = (negative == anchors) | (ctx == negative[:, None]).any(axis=1)
        return ids, anchors, context, negative

    def bags(self) -> dict:
        if self._bags is None:
            grouped = defaultdict(list)
            for poi in self.corpus.read_poi_jsonl(self.inputs / "poi.jsonl"):
                grouped[poi.neighborhood_id].append(poi)
            self._bags = {nid: self.corpus.build_neighborhood_bag(p) for nid, p in grouped.items()}
        return self._bags

    def vocabulary(self) -> list[str]:
        """Sorted distinct tokens of all neighborhood bags: the rows the
        word checkpoint must hold."""
        return sorted({t for bag in self.bags().values() for t in bag})

    def _poi_triplets(self, nbhd_ids: list[str], tokens: list[str]):
        bags = self.bags()
        row = {t: i for i, t in enumerate(tokens)}
        freq = np.zeros(len(tokens))
        for bag in bags.values():
            for t, c in bag.items():
                freq[row[t]] += c
        weights = freq ** 0.5
        anchors, context, negative = [], [], []
        for a, nid in enumerate(nbhd_ids):
            bag = bags.get(nid)
            if not bag or len(bag) == len(tokens):
                continue
            inside = np.array([row[t] for t in sorted(bag)])
            counts = np.array([bag[t] for t in sorted(bag)], dtype=np.float64)
            outside = weights.copy()
            outside[inside] = 0.0
            anchors += [a] * POI_PER_NEIGHBORHOOD
            context += list(self.rng.choice(inside, POI_PER_NEIGHBORHOOD, p=counts / counts.sum()))
            negative += list(self.rng.choice(len(tokens), POI_PER_NEIGHBORHOOD, p=outside / outside.sum()))
        return nbhd_ids, tokens, np.array(anchors), np.array(context), np.array(negative)

    def losses(self, fileio, ws: Path) -> dict:
        """Mean held-out hinge loss and share of active triplets for the
        street-view and POI stages of the workspace's checkpoints."""
        config = {**DEFAULTS, **(manifest(ws).get("config") or {})}
        sv_ids, X = fileio.read_embeddings(ws / "checkpoints" / "sv.emb")
        nbhd_ids, Z = fileio.read_embeddings(ws / "checkpoints" / "u2v.emb")
        tokens, Y = fileio.read_embeddings(ws / "checkpoints" / "words.emb")
        if self.sv is None or self.sv[0] != sv_ids:
            self.sv = self._sv_triplets(sv_ids, int(config["k_context"]))
        if self.poi is None or self.poi[0] != nbhd_ids or self.poi[1] != tokens:
            self.poi = self._poi_triplets(nbhd_ids, tokens)
        X, Z, Y = (np.asarray(m, dtype=np.float64) for m in (X, Z, Y))
        _, a, c, n = self.sv
        sv = hinge(X, a, X, c, n, float(config["margin_sv"]))
        _, _, a, c, n = self.poi
        poi = hinge(Z, a, Y, c, n, float(config["margin_poi"]))
        return {"sv_heldout_loss": float(sv.mean()), "poi_heldout_loss": float(poi.mean()),
                "sv_active_frac": float((sv > 0).mean()), "poi_active_frac": float((poi > 0).mean())}
