"""End-to-end CLI tests: stage order, integrity, reports, exit codes."""

import csv
import dataclasses
import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from oracles import read_poi_jsonl, table_of

from metrovec import cli, corpus, fileio, geo
from metrovec.cli import build_parser, main, save_manifest
from metrovec.corpus import build_neighborhood_bag, read_poi_columns
from metrovec.errors import PipelineError, ValidationError
from metrovec.fileio import (read_bags, read_centroids_csv, read_embeddings, read_feature_bin,
                             read_sv_metadata, read_targets_csv, write_embeddings, write_feature_bin,
                             write_features_csv, write_targets_csv)
from metrovec.geo import assign_neighborhood
from metrovec.synthcity import SynthConfig
from metrovec.training import TrainingConfig

SYNTH_CFG = """
n_neighborhoods = 16
views_per_neighborhood = 5
pois_per_neighborhood = 4
latent_dim = 2
feature_dim = 6
vocab_size = 40
seed = 17
"""

TRAIN_FLAGS = ["--d", "8", "--epochs-sv", "2", "--epochs-poi", "2",
               "--k-context", "3", "--triplets-per-anchor", "2", "--seed", "11"]


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def hashes_of(manifest: dict, relpath: str) -> dict:
    """The file hashes in the record of the stage that writes ``relpath``."""
    return manifest["stages"][cli.WRITTEN_BY[relpath]]["files"]


@pytest.fixture(scope="module")
def city_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("city")
    cfg = out / "synth.cfg"
    cfg.write_text(SYNTH_CFG)
    assert main(["synth", "--config", str(cfg), "--out", str(out / "data")]) == 0
    return out / "data"


def ingest_args(city_dir, workspace):
    return ["ingest", "--workspace", str(workspace),
            "--poi", str(city_dir / "poi.jsonl"),
            "--features", str(city_dir / "features.bin"),
            "--ids", str(city_dir / "street_views.csv"),
            "--centroids", str(city_dir / "centroids.csv")]


@pytest.fixture(scope="module")
def trained_ws(tmp_path_factory, city_dir):
    ws = tmp_path_factory.mktemp("ws")
    assert main(ingest_args(city_dir, ws)) == 0
    assert main(["train-sv", "--workspace", str(ws)] + TRAIN_FLAGS) == 0
    assert main(["aggregate", "--workspace", str(ws)]) == 0
    assert main(["train-poi", "--workspace", str(ws)]) == 0
    return ws


class TestSynth:
    def test_emits_ingestion_files(self, city_dir):
        for name in ("poi.jsonl", "features.bin", "street_views.csv",
                     "centroids.csv", "attributes.csv"):
            assert (city_dir / name).exists()

    def test_same_seed_identical_output(self, tmp_path, city_dir):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(SYNTH_CFG)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "again")]) == 0
        for name in ("poi.jsonl", "features.bin", "street_views.csv", "centroids.csv"):
            assert sha(tmp_path / "again" / name) == sha(city_dir / name)

    @pytest.mark.parametrize("body, named", [
        ("review_words_per_poi = -1\n", "review_words_per_poi"),
        ("categories_per_poi = -2\n", "categories_per_poi"),
        ("topic_sharpness = nan\n", "topic_sharpness"),
        ("topic_sharpness = 1e6\ncategories_per_poi = 5\n", "neighborhood n0000"),
        ("feature_noise = nan\n", "feature_noise"),
        ("spatial_noise = inf\n", "spatial_noise"),
        ("n_clusters = 2\ncluster_separation = nan\n", "cluster_separation"),
        ("feature_noise = 1e39\n", "overflow"),
        ("n_clusters = 2\ncluster_separation = 1e308\n", "overflow"),
        ("topic_sharpness = 1e308\n", "overflow"),
    ])
    def test_bad_config_is_data_error(self, tmp_path, capsys, body, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_neighborhoods = 4\n" + body)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
        assert named in capsys.readouterr().err

    def test_invalid_config_field_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_field = 3\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
        assert "not_a_field" in capsys.readouterr().err


class TestIngest:
    def test_clean_ingest(self, trained_ws):
        manifest = json.loads((trained_ws / "manifest.json").read_text())
        assert manifest["version"] == 2 and sorted(manifest["stages"]) == sorted(cli.STAGES)
        for stage, record in manifest["stages"].items():
            assert sorted(record["files"]) == sorted(rel for rel, s in cli.WRITTEN_BY.items() if s == stage)
            for rel, digest in record["files"].items():
                assert sha(trained_ws / rel) == digest
        assert sorted(manifest["stages"]["ingest"]["inputs"]) == ["centroids", "features", "ids", "poi"]

    def test_lat_out_of_range_names_record(self, tmp_path, city_dir, capsys):
        bad = tmp_path / "sv.csv"
        lines = (city_dir / "street_views.csv").read_text().splitlines()
        parts = lines[1].split(",")
        parts[1] = "91.0"
        bad.write_text("\n".join([lines[0], ",".join(parts)] + lines[2:]) + "\n")
        args = ingest_args(city_dir, tmp_path / "ws")
        args[args.index("--ids") + 1] = str(bad)
        assert main(args) == 3
        err = capsys.readouterr().err
        assert parts[0] in err

    def test_dangling_neighborhood_rejected(self, tmp_path, city_dir, capsys):
        bad = tmp_path / "poi.jsonl"
        rows = (city_dir / "poi.jsonl").read_text().splitlines()
        obj = json.loads(rows[0])
        obj["neighborhood_id"] = "ghost"
        bad.write_text("\n".join([json.dumps(obj)] + rows[1:]) + "\n")
        args = ingest_args(city_dir, tmp_path / "ws")
        args[args.index("--poi") + 1] = str(bad)
        assert main(args) == 3
        assert "ghost" in capsys.readouterr().err

    def test_assign_missing(self, tmp_path, city_dir):
        blank = tmp_path / "poi.jsonl"
        rows = [json.loads(line) for line in (city_dir / "poi.jsonl").read_text().splitlines()]
        for r in rows:
            r["neighborhood_id"] = None
        blank.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        args = ingest_args(city_dir, tmp_path / "ws")
        args[args.index("--poi") + 1] = str(blank)
        assert main(args) == 3  # without the flag: validation error
        assert main(args + ["--assign-missing"]) == 0
        assert main(ingest_args(city_dir, tmp_path / "ws-given")) == 0
        assigned = read_bags(tmp_path / "ws" / "ingested" / "bags.bin")
        given = read_bags(tmp_path / "ws-given" / "ingested" / "bags.bin")
        assert assigned.row_ids == given.row_ids and assigned.tokens == given.tokens

        # Each POI's tokens are in the row of its nearest centroid.
        pois = read_poi_jsonl(blank)
        nearest = assign_neighborhood([p.geo.lat for p in pois], [p.geo.lon for p in pois],
                                      *read_centroids_csv(city_dir / "centroids.csv")[:3])
        want = table_of({nid: build_neighborhood_bag([p for p, n in zip(pois, nearest) if n == nid])
                         for nid in assigned.row_ids})
        assert assigned.tokens == want.tokens
        for got, expected in ((assigned.indptr, want.indptr), (assigned.token_ids, want.token_ids),
                              (assigned.counts, want.counts)):
            assert np.array_equal(got, expected)

        # POIs are jittered around their own centroid, so nearest-centroid
        # assignment recovers the generating neighborhood for almost all: at
        # least 90% of the token mass sits in the row the given ids put it in.
        def dense(table):
            matrix = np.zeros((len(table.row_ids), len(table.tokens)), dtype=np.int64)
            rows = np.repeat(np.arange(len(table.row_ids)), np.diff(table.indptr))
            matrix[rows, table.token_ids] = table.counts
            return matrix
        kept = np.minimum(dense(assigned), dense(given)).sum()
        assert kept >= 0.9 * given.counts.sum()
        assert assigned.counts.sum() == given.counts.sum()

    def test_short_centroid_row_is_format_error(self, tmp_path, city_dir, capsys):
        bad = tmp_path / "centroids.csv"
        bad.write_text((city_dir / "centroids.csv").read_text() + "n_short\n")
        args = ingest_args(city_dir, tmp_path / "ws")
        args[args.index("--centroids") + 1] = str(bad)
        assert main(args) == 3
        assert f"{bad}:" in capsys.readouterr().err


class TestStageOrder:
    def test_train_poi_before_aggregate(self, tmp_path, city_dir):
        ws = tmp_path / "ws"
        assert main(ingest_args(city_dir, ws)) == 0
        assert main(["train-poi", "--workspace", str(ws)]) == 4
        # The missing stage is named before a flag is checked against it.
        assert main(["train-poi", "--workspace", str(ws), "--d", "64"]) == 4
        assert main(["aggregate", "--workspace", str(ws), "--empty-policy", "zero", "--hidden", "4"]) == 4

    def test_commands_need_manifest(self, tmp_path):
        assert main(["train-sv", "--workspace", str(tmp_path / "nope")]) == 4

    def test_tampered_checkpoint_refused(self, tmp_path, city_dir):
        ws = tmp_path / "ws"
        assert main(ingest_args(city_dir, ws)) == 0
        assert main(["train-sv", "--workspace", str(ws)] + TRAIN_FLAGS) == 0
        ckpt = ws / "checkpoints" / "sv.emb"
        data = bytearray(ckpt.read_bytes())
        data[-1] ^= 0xFF
        ckpt.write_bytes(bytes(data))
        assert main(["aggregate", "--workspace", str(ws)]) == 4

    def test_rerun_same_seed_identical_checkpoint(self, tmp_path, city_dir):
        ws = tmp_path / "ws"
        assert main(ingest_args(city_dir, ws)) == 0
        assert main(["train-sv", "--workspace", str(ws)] + TRAIN_FLAGS) == 0
        first = sha(ws / "checkpoints" / "sv.emb")
        assert main(["train-sv", "--workspace", str(ws)] + TRAIN_FLAGS) == 0
        assert sha(ws / "checkpoints" / "sv.emb") == first

    def test_corrupt_manifest_is_integrity_error(self, tmp_path, city_dir):
        ws = tmp_path / "ws"
        assert main(ingest_args(city_dir, ws)) == 0
        (ws / "manifest.json").write_text('{"version": 1, "stages": ')
        assert main(["train-sv", "--workspace", str(ws)] + TRAIN_FLAGS) == 4

    def test_non_object_manifest_is_integrity_error(self, tmp_path, city_dir, capsys):
        ws = tmp_path / "ws"
        assert main(ingest_args(city_dir, ws)) == 0
        (ws / "manifest.json").write_text("[]\n")
        assert main(["train-sv", "--workspace", str(ws)] + TRAIN_FLAGS) == 4
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("text,missing", [("{}", "stages"), ('{"stages": {"ingest": true}}', "files")])
    def test_manifest_without_stages_or_files_is_integrity_error(self, tmp_path, city_dir, capsys,
                                                                 text, missing):
        ws = tmp_path / "ws"
        assert main(ingest_args(city_dir, ws)) == 0
        (ws / "manifest.json").write_text(json.dumps({"version": 2, **json.loads(text)}) + "\n")
        assert main(["cluster", "--workspace", str(ws)]) == 4
        assert f"no '{missing}' object" in capsys.readouterr().err

    def test_failed_manifest_write_keeps_previous_manifest(self, tmp_path, city_dir):
        ws = tmp_path / "ws"
        assert main(ingest_args(city_dir, ws)) == 0
        before = (ws / "manifest.json").read_bytes()
        # json.dump writes the opening of the object before it meets the
        # unserialisable value, so a direct write would leave a stub.
        with pytest.raises(TypeError):
            save_manifest(ws, {"stages": {}, "zz": object()})
        assert (ws / "manifest.json").read_bytes() == before
        assert sorted(p.name for p in ws.iterdir()) == ["ingested", "manifest.json"]

    @pytest.mark.parametrize("command", ["aggregate", "similar"])
    @pytest.mark.parametrize("edit,named", [
        (lambda cfg: [1], "'config' is not an object"),
        (lambda cfg: {**cfg, "bogus": 1}, "unknown config field 'bogus'"),
        (lambda cfg: {**cfg, "d": "x"}, "config field 'd' holds 'x'"),
    ], ids=["list", "unknown-key", "wrong-type"])
    def test_malformed_manifest_config_is_integrity_error(self, tmp_path, trained_ws, capsys,
                                                          command, edit, named):
        ws = tmp_path / "ws"
        shutil.copytree(trained_ws, ws)
        manifest = json.loads((ws / "manifest.json").read_text())
        manifest["config"] = edit(manifest["config"])
        (ws / "manifest.json").write_text(json.dumps(manifest))
        argv = [command, "--workspace", str(ws)] + (["--query", "n0000"] if command == "similar" else [])
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "manifest.json is not a manifest" in err and named in err

    @pytest.mark.parametrize("edit", [
        lambda record: [11],
        lambda record: {**record, "files": ["checkpoints/sv.emb"]},
        lambda record: {"seed": 11},
    ], ids=["record-list", "files-list", "files-absent"])
    def test_stage_record_without_a_files_object_is_integrity_error(self, tmp_path, trained_ws, capsys, edit):
        ws = tmp_path / "ws"
        shutil.copytree(trained_ws, ws)
        manifest = json.loads((ws / "manifest.json").read_text())
        manifest["stages"]["train_sv"] = edit(manifest["stages"]["train_sv"])
        (ws / "manifest.json").write_text(json.dumps(manifest))
        assert main(["aggregate", "--workspace", str(ws)]) == 4
        err = capsys.readouterr().err
        assert "not a manifest: the record of stage 'train_sv' has no 'files' object" in err, err

    def test_diverged_stage_writes_no_checkpoint(self, tmp_path, city_dir, capsys):
        ws = tmp_path / "ws"
        assert main(ingest_args(city_dir, ws)) == 0
        assert main(["train-sv", "--workspace", str(ws)] + TRAIN_FLAGS) == 0
        assert main(["aggregate", "--workspace", str(ws)]) == 0
        assert main(["train-poi", "--workspace", str(ws), "--lr-poi", "1e40"]) == 3
        assert "float32" in capsys.readouterr().err
        manifest = json.loads((ws / "manifest.json").read_text())
        assert "train_poi" not in manifest["stages"]
        assert not (ws / "checkpoints" / "u2v.emb").exists()

    def test_rerun_invalidates_downstream(self, tmp_path, city_dir):
        ws = tmp_path / "ws"
        assert main(ingest_args(city_dir, ws)) == 0
        assert main(["train-sv", "--workspace", str(ws)] + TRAIN_FLAGS) == 0
        assert main(["aggregate", "--workspace", str(ws)]) == 0
        assert main(["train-sv", "--workspace", str(ws)] + TRAIN_FLAGS) == 0
        manifest = json.loads((ws / "manifest.json").read_text())
        assert sorted(manifest["stages"]) == ["ingest", "train_sv"]


class TestConfig:
    def test_defaults_recorded(self, tmp_path, city_dir):
        ws = tmp_path / "ws"
        assert main(ingest_args(city_dir, ws)) == 0
        assert main(["train-sv", "--workspace", str(ws), "--epochs-sv", "0"]) == 0
        cfg = json.loads((ws / "manifest.json").read_text())["config"]
        assert cfg["d"] == 200
        assert cfg["k_context"] == 5
        assert cfg["margin_sv"] == 0.2

    def test_flags_beat_config_file(self, tmp_path, city_dir):
        ws = tmp_path / "ws"
        assert main(ingest_args(city_dir, ws)) == 0
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text("d = 8\nepochs_sv = 0\n")
        assert main(["train-sv", "--workspace", str(ws), "--config", str(cfg_file), "--d", "4"]) == 0
        manifest = json.loads((ws / "manifest.json").read_text())
        assert manifest["config"]["d"] == 4

    def test_each_stage_records_its_seed(self, tmp_path, city_dir):
        ws = tmp_path / "ws"
        assert main(ingest_args(city_dir, ws)) == 0
        assert main(["train-sv", "--workspace", str(ws), "--d", "4", "--epochs-sv", "1", "--seed", "1"]) == 0
        assert main(["aggregate", "--workspace", str(ws), "--seed", "9"]) == 0
        assert main(["train-poi", "--workspace", str(ws), "--epochs-poi", "1", "--seed", "4"]) == 0

        def seeds():
            manifest = json.loads((ws / "manifest.json").read_text())
            assert "root_seed" not in manifest and "seeds" not in manifest
            return manifest["config"]["seed"], {s: r.get("seed") for s, r in manifest["stages"].items()}

        assert seeds() == (4, {"ingest": None, "train_sv": 1, "aggregate": 9, "train_poi": 4})
        # A re-run stage drops the records of the stages it invalidates.
        assert main(["aggregate", "--workspace", str(ws), "--seed", "2"]) == 0
        assert seeds() == (2, {"ingest": None, "train_sv": 1, "aggregate": 2})
        assert main(["train-poi", "--workspace", str(ws), "--epochs-poi", "1", "--seed", "6"]) == 0
        assert seeds() == (6, {"ingest": None, "train_sv": 1, "aggregate": 2, "train_poi": 6})

    @pytest.mark.parametrize("command", ["train-sv", "aggregate", "train-poi"])
    def test_every_config_field_has_a_typed_flag(self, command):
        samples = {int: "3", float: "0.25", str: "zero"}
        types = typing.get_type_hints(TrainingConfig)
        parser = build_parser()
        for f in dataclasses.fields(TrainingConfig):
            kind = types[f.name]
            args = parser.parse_args([command, "--workspace", "ws",
                                      "--" + f.name.replace("_", "-"), samples[kind]])
            value = getattr(args, f.name)
            assert type(value) is kind and value == kind(samples[kind]), f.name

    @pytest.mark.parametrize("command,field,value", [
        ("train-sv", "margin_sv", "nan"), ("train-sv", "lr_sv", "inf"),
        ("train-poi", "margin_poi", "nan"), ("train-poi", "anchor_weight", "nan"),
        ("train-poi", "neg_exponent", "nan"),
    ])
    def test_non_finite_field_rejected(self, tmp_path, trained_ws, capsys, command, field, value):
        ws = tmp_path / "ws"
        shutil.copytree(trained_ws, ws)
        before = (ws / "manifest.json").read_bytes()
        assert main([command, "--workspace", str(ws), "--" + field.replace("_", "-"), value]) == 3
        assert f"{field} must be finite" in capsys.readouterr().err
        assert (ws / "manifest.json").read_bytes() == before

    @pytest.mark.parametrize("extra", [[], ["--epochs-poi", "0"]], ids=["default-epochs", "zero-epochs"])
    def test_overflowing_neg_exponent_rejected(self, tmp_path, trained_ws, capsys, extra):
        # The check runs once per stage, before any epoch.
        ws = tmp_path / "ws"
        shutil.copytree(trained_ws, ws)
        before = (ws / "manifest.json").read_bytes()
        assert main(["train-poi", "--workspace", str(ws), "--neg-exponent", "1000"] + extra) == 3
        assert "overflows" in capsys.readouterr().err
        assert (ws / "manifest.json").read_bytes() == before

    def test_unknown_config_key_rejected(self, tmp_path, city_dir, capsys):
        ws = tmp_path / "ws"
        assert main(ingest_args(city_dir, ws)) == 0
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text("bogus_knob = 1\n")
        assert main(["train-sv", "--workspace", str(ws), "--config", str(cfg_file)]) == 3
        assert "bogus_knob" in capsys.readouterr().err


class TestEval:
    def test_linear_targets_high_r2(self, trained_ws, tmp_path):
        ids, Z = read_embeddings(trained_ws / "checkpoints" / "u2v.emb")
        rng = np.random.default_rng(0)
        targets = Z.astype(np.float64) @ rng.normal(size=(Z.shape[1], 2))
        tpath = tmp_path / "targets.csv"
        write_targets_csv(tpath, ids, ["a", "b"], targets)
        assert main(["eval", "--workspace", str(trained_ws), "--targets", str(tpath),
                     "--repeats", "20"]) == 0
        report = trained_ws / "reports" / "eval_u2v.csv"
        rows = list(csv.reader(report.read_text().splitlines()))
        overall = float([r for r in rows if r[0] == "__overall__"][0][1])
        assert overall > 0.95

    def test_all_representations_run(self, trained_ws, tmp_path, city_dir):
        tpath = city_dir / "attributes.csv"
        for emb in ("sve", "poi", "poistats"):
            assert main(["eval", "--workspace", str(trained_ws), "--targets", str(tpath),
                         "--repeats", "2", "--embedding", emb]) == 0
            assert (trained_ws / "reports" / f"eval_{emb}.csv").exists()

    def test_single_repeat(self, trained_ws, city_dir):
        assert main(["eval", "--workspace", str(trained_ws),
                     "--targets", str(city_dir / "attributes.csv"), "--repeats", "1"]) == 0

    def test_unknown_embedding_is_usage_error(self, trained_ws, city_dir):
        assert main(["eval", "--workspace", str(trained_ws),
                     "--targets", str(city_dir / "attributes.csv"),
                     "--embedding", "bogus"]) == 2

    def test_unknown_regressor_is_usage_error(self, trained_ws, city_dir):
        assert main(["eval", "--workspace", str(trained_ws),
                     "--targets", str(city_dir / "attributes.csv"),
                     "--regressor", "svr"]) == 2

    def test_target_id_mismatch(self, trained_ws, tmp_path):
        tpath = tmp_path / "targets.csv"
        write_targets_csv(tpath, ["ghost"], ["t"], np.array([[1.0]]))
        assert main(["eval", "--workspace", str(trained_ws), "--targets", str(tpath)]) == 3

    def test_pca_components_flag(self, trained_ws, city_dir):
        tpath = city_dir / "attributes.csv"
        assert main(["eval", "--workspace", str(trained_ws), "--targets", str(tpath),
                     "--repeats", "2", "--pca-components", "2,4"]) == 0
        assert main(["eval", "--workspace", str(trained_ws), "--targets", str(tpath),
                     "--pca-components", "two"]) == 2


    def test_constant_target_is_data_error(self, trained_ws, tmp_path, capsys):
        ids, Z = read_embeddings(trained_ws / "checkpoints" / "u2v.emb")
        tpath = tmp_path / "targets.csv"
        values = np.column_stack([Z[:, 0].astype(np.float64), np.full(len(ids), 1.5)])
        write_targets_csv(tpath, ids, ["varies", "constant"], values)
        assert main(["eval", "--workspace", str(trained_ws), "--targets", str(tpath),
                     "--repeats", "2"]) == 3
        assert "R^2 undefined" in capsys.readouterr().err


class TestReports:
    def test_rewrite_leaves_only_the_report(self, tmp_path):
        cli._write_report(tmp_path, "r.csv", "old\n")
        path = cli._write_report(tmp_path, "r.csv", "new\n")
        assert path.read_bytes() == b"new\n"
        assert [p.name for p in (tmp_path / "reports").iterdir()] == ["r.csv"]

    def test_failed_write_keeps_old_report(self, tmp_path):
        cli._write_report(tmp_path, "r.csv", "old\n")
        with pytest.raises(UnicodeEncodeError):
            cli._write_report(tmp_path, "r.csv", "partial\n" * 10000 + "\ud800")
        assert (tmp_path / "reports" / "r.csv").read_bytes() == b"old\n"
        assert [p.name for p in (tmp_path / "reports").iterdir()] == ["r.csv"]


class TestClusterSimilar:
    def test_cluster_csv(self, trained_ws):
        assert main(["cluster", "--workspace", str(trained_ws), "--k", "4"]) == 0
        rows = (trained_ws / "reports" / "clusters_u2v.csv").read_text().splitlines()
        assert rows[0] == "id,cluster"
        assert len(rows) == 17
        labels = {int(r.split(",")[1]) for r in rows[1:]}
        assert labels <= {0, 1, 2, 3}

    def test_similar_self_first(self, trained_ws, capsys):
        ids, _ = read_embeddings(trained_ws / "checkpoints" / "u2v.emb")
        query = ids[0]
        assert main(["similar", "--workspace", str(trained_ws), "--query", query,
                     "--top", "3"]) == 0
        out = trained_ws / "reports" / f"similar_{query}.csv"
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[1][1] == query
        assert abs(float(rows[1][2]) - 1.0) < 1e-6

    def test_least_reverses(self, trained_ws):
        ids, _ = read_embeddings(trained_ws / "checkpoints" / "u2v.emb")
        query = ids[1]
        n = len(ids)
        assert main(["similar", "--workspace", str(trained_ws), "--query", query,
                     "--top", str(n)]) == 0
        most = [r[1] for r in csv.reader(
            (trained_ws / "reports" / f"similar_{query}.csv").read_text().splitlines()[1:])]
        assert main(["similar", "--workspace", str(trained_ws), "--query", query,
                     "--top", str(n), "--least"]) == 0
        least = [r[1] for r in csv.reader(
            (trained_ws / "reports" / f"similar_{query}.csv").read_text().splitlines()[1:])]
        assert least == most[::-1]

    def test_unknown_query(self, trained_ws):
        assert main(["similar", "--workspace", str(trained_ws), "--query", "ghost"]) == 3

    def test_from_city_requires_tags(self, trained_ws):
        ids, _ = read_embeddings(trained_ws / "checkpoints" / "u2v.emb")
        assert main(["similar", "--workspace", str(trained_ws), "--query", ids[0],
                     "--from-city", "sf"]) == 3


class TestExport:
    def test_tsv_export(self, trained_ws, tmp_path):
        out = tmp_path / "z.tsv"
        assert main(["export-emb", "--workspace", str(trained_ws),
                     "--embedding", "u2v", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 16
        assert len(lines[0].split("\t")) == 9  # id + d=8 values

    def test_unknown_embedding(self, trained_ws, tmp_path):
        assert main(["export-emb", "--workspace", str(trained_ws),
                     "--embedding", "nope", "--out", str(tmp_path / "x.tsv")]) == 2

    @pytest.mark.parametrize("rerun,refused", [
        (["train-sv"] + TRAIN_FLAGS[:-1] + ["2"], {"sve": "aggregate", "u2v": "train-poi", "words": "train-poi"}),
        (["aggregate", "--seed", "2"], {"u2v": "train-poi", "words": "train-poi"}),
    ], ids=["train-sv", "aggregate"])
    def test_checkpoints_of_the_stages_a_rerun_drops_are_not_exported(self, trained_ws, tmp_path, capsys,
                                                                      rerun, refused):
        ws = tmp_path / "ws"
        shutil.copytree(trained_ws, ws)
        assert main([rerun[0], "--workspace", str(ws)] + rerun[1:]) == 0
        for name in sorted(cli.CHECKPOINTS):
            out = tmp_path / f"{name}.tsv"
            code = main(["export-emb", "--workspace", str(ws), "--embedding", name, "--out", str(out)])
            err = capsys.readouterr().err
            if name in refused:
                assert code == 4, (name, code)
                assert f"stage '{refused[name]}' has not completed in this workspace" in err, err
                assert not out.exists()
            else:
                assert code == 0 and out.exists(), (name, code, err)


@pytest.fixture(scope="module")
def joint_ws(tmp_path_factory):
    """Two tagged cities merged into one ingest for cross-city search."""
    base = tmp_path_factory.mktemp("joint")
    merged = base / "merged"
    merged.mkdir()
    parts = []
    for tag, seed in (("aa_", 1), ("bb_", 2)):
        cfg = base / f"{tag}cfg"
        cfg.write_text(SYNTH_CFG.replace("seed = 17", f"seed = {seed}")
                       + f"city_tag = {tag}\n")
        out = base / tag.rstrip("_")
        assert main(["synth", "--config", str(cfg), "--out", str(out),
                     "--features-format", "csv"]) == 0
        parts.append(out)

    def merge(name):
        lines = (parts[0] / name).read_text().splitlines()
        lines += (parts[1] / name).read_text().splitlines()[1:]
        (merged / name).write_text("\n".join(lines) + "\n")

    for name in ("features.csv", "street_views.csv", "centroids.csv", "attributes.csv"):
        merge(name)
    (merged / "poi.jsonl").write_text((parts[0] / "poi.jsonl").read_text()
                                      + (parts[1] / "poi.jsonl").read_text())
    ws = base / "ws"
    args = ingest_args(merged, ws)
    args[args.index("--features") + 1] = str(merged / "features.csv")
    assert main(args) == 0
    assert main(["train-sv", "--workspace", str(ws)] + TRAIN_FLAGS) == 0
    assert main(["aggregate", "--workspace", str(ws)]) == 0
    assert main(["train-poi", "--workspace", str(ws)]) == 0
    return ws


class TestJointCities:
    def test_cross_city_search_filters_candidates(self, joint_ws):
        assert main(["similar", "--workspace", str(joint_ws), "--query", "aa_n0000",
                     "--from-city", "bb_", "--top", "5"]) == 0
        out = joint_ws / "reports" / "similar_aa_n0000_bb_.csv"
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        assert len(rows) == 5
        assert all(r[1].startswith("bb_") for r in rows)

    def test_unknown_city_tag(self, joint_ws):
        assert main(["similar", "--workspace", str(joint_ws), "--query", "aa_n0000",
                     "--from-city", "zz_"]) == 3


def test_each_command_calls_its_readers_at_call_time(tmp_path, joint_ws, monkeypatch):
    """A reader replaced on ``fileio`` is the one every command runs, once per
    file it reads: a tracer that wraps the readers on their module sees them
    all."""
    ws = tmp_path / "ws"
    shutil.copytree(joint_ws, ws)
    calls = []

    def counting(name, reader):
        return lambda *args, **kwargs: calls.append(name) or reader(*args, **kwargs)

    for name in ("read_sv_metadata", "read_feature_bin", "read_centroids_csv", "read_bags", "read_embeddings"):
        monkeypatch.setattr(fileio, name, counting(name, getattr(fileio, name)))
    targets = str(joint_ws.parent / "merged" / "attributes.csv")
    for argv, read in [
        (["train-sv"], ["read_feature_bin", "read_sv_metadata"]),
        (["aggregate"], ["read_centroids_csv", "read_embeddings", "read_sv_metadata"]),
        (["train-poi"], ["read_bags", "read_embeddings"]),
        (["eval", "--targets", targets, "--repeats", "2", "--embedding", "poistats"], ["read_bags"]),
        (["cluster", "--k", "2"], ["read_embeddings"]),
        (["similar", "--query", "aa_n0000", "--from-city", "bb_"], ["read_centroids_csv", "read_embeddings"]),
    ]:
        calls.clear()
        assert main([argv[0], "--workspace", str(ws), *argv[1:]]) == 0, argv
        assert sorted(calls) == read, argv


def test_ingest_refuses_an_id_or_city_tag_holding_a_slash(tmp_path, city_dir, capsys):
    # ``similar`` puts a neighborhood id and a city tag in its report's file name.
    lines = [line + (",city" if i == 0 else ",c") for i, line in enumerate(_lines(city_dir / "centroids.csv"))]
    cases = {2: ("x/y" + lines[1][5:], "centroid id 'x/y'"),
             3: ("x/../../../made_outside/y" + lines[2][5:], "centroid id 'x/../../../made_outside/y'"),
             4: ("x\0y" + lines[3][5:], "centroid id 'x\\x00y'"),
             5: (lines[4][:-1] + "a/b", "centroid city tag 'a/b'")}
    for row, (line, named) in cases.items():
        path = _write_lines(tmp_path / "c.csv", lines[:row - 1] + [line] + lines[row:])
        args = ingest_args(city_dir, tmp_path / "ws" / "inner")
        args[args.index("--centroids") + 1] = str(path)
        assert main(args) == 3
        err = capsys.readouterr().err
        assert f"c.csv:{row}: {named} holds a path separator or NUL" in err and "Traceback" not in err, err
        assert not (tmp_path / "ws").exists() and not (tmp_path / "made_outside").exists()


@pytest.mark.parametrize("name", ["x/y", "x/../../../made_outside/y", "a\0b", ".", ".."])
def test_write_report_refuses_a_name_that_is_not_a_plain_file_name(tmp_path, name):
    ws = tmp_path / "ws" / "inner"
    ws.mkdir(parents=True)
    with pytest.raises(ValidationError, match="is not a plain file name"):
        cli._write_report(ws, name, "text")
    assert sorted(tmp_path.rglob("*")) == [tmp_path / "ws", ws]


def test_one_parser_per_process_and_dispatch_at_call_time(monkeypatch, tmp_path):
    builds = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real_build())
    cli._parser.cache_clear()
    argv = ["similar", "--workspace", str(tmp_path / "none"), "--query", "n1"]
    assert main(argv) == 4  # no manifest
    calls = []
    monkeypatch.setattr(cli, "cmd_similar", lambda args: calls.append(args.query) or 7)
    assert main(argv) == 7
    assert calls == ["n1"] and builds == [1]


def _lines(path: Path) -> list[str]:
    return path.read_text().splitlines()


def _write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n")
    return path


def _features_csv(city_dir, path: Path, edit) -> Path:
    """The city's features as CSV, with ``edit`` applied to the id list."""
    ids = read_sv_metadata(city_dir / "street_views.csv")[0]
    feats = read_feature_bin(city_dir / "features.bin")
    ids, feats = edit(ids, feats)
    write_features_csv(path, ids, feats)
    return path


def _nan_row_three(city_dir, path: Path) -> Path:
    feats = read_feature_bin(city_dir / "features.bin").copy()
    feats[3, 1] = np.nan
    write_feature_bin(path, sorted(read_sv_metadata(city_dir / "street_views.csv")[0]), feats)
    return path


def _no_columns_bin(city_dir, path: Path) -> Path:
    ids = sorted(read_sv_metadata(city_dir / "street_views.csv")[0])
    write_feature_bin(path, ids, np.zeros((len(ids), 0), np.float32))
    return path


def _swap_rows(lines: list[str]) -> list[str]:
    return [lines[0], lines[2], lines[1]] + lines[3:]


def _rename_first(ids, feats):
    return ["ghost"] + ids[1:], feats


def _repeat_first(ids, feats):
    return ids + ids[:1], np.vstack([feats, feats[:1]])


def _no_columns(ids, feats):
    return ids, feats[:, :0]


class TestIngestChecks:
    @pytest.mark.parametrize("flag,make,named", [
        ("--centroids", lambda c, t: _write_lines(t / "c.csv", _lines(c / "centroids.csv")
                                                  + _lines(c / "centroids.csv")[-1:]),
         "duplicate centroid ids"),
        ("--ids", lambda c, t: _write_lines(t / "sv.csv", _lines(c / "street_views.csv")
                                            + _lines(c / "street_views.csv")[-1:]),
         "duplicate street-view ids"),
        ("--poi", lambda c, t: _write_lines(t / "poi.jsonl", _lines(c / "poi.jsonl")
                                            + _lines(c / "poi.jsonl")[:1]),
         "duplicate POI ids"),
        ("--features", lambda c, t: _nan_row_three(c, t / "f.bin"),
         "non-finite feature values for street views ['sv0000_003']"),
        ("--ids", lambda c, t: _write_lines(t / "sv.csv", _swap_rows(_lines(c / "street_views.csv"))),
         "binary features require the ids file sorted ascending by id"),
        ("--ids", lambda c, t: _write_lines(t / "sv.csv", _lines(c / "street_views.csv")[:-1]),
         "80 feature rows but 79 metadata rows"),
        ("--features", lambda c, t: _features_csv(c, t / "f.csv", _repeat_first),
         "duplicate ids in feature CSV"),
        ("--features", lambda c, t: _features_csv(c, t / "f.csv", _rename_first),
         "'ghost'"),
        ("--features", lambda c, t: _features_csv(c, t / "f.csv", _no_columns),
         "f.csv: no feature column after 'id'"),
        ("--features", lambda c, t: _no_columns_bin(c, t / "f.bin"),
         "f.bin: dim 0, no feature column"),
    ], ids=["centroid-ids", "street-view-ids", "poi-ids", "non-finite", "unsorted-binary",
            "row-count", "feature-csv-ids", "feature-csv-mismatch", "feature-csv-no-columns",
            "feature-bin-no-columns"])
    def test_bad_input_is_data_error(self, tmp_path, city_dir, capsys, flag, make, named):
        args = ingest_args(city_dir, tmp_path / "ws")
        args[args.index(flag) + 1] = str(make(city_dir, tmp_path))
        assert main(args) == 3
        err = capsys.readouterr().err
        assert named in err, err
        assert not (tmp_path / "ws" / "manifest.json").exists()


GOOD_POI = {"id": "p", "lat": 37.0, "lon": -122.0, "neighborhood_id": "n0000",
            "categories": ["Bar"], "rating": 4.0, "price": 2, "reviews": ["fine place"]}
BAD_LINE = 1050


def _poi(**fields) -> bytes:
    return json.dumps({**GOOD_POI, **fields}, allow_nan=True).encode()


@pytest.mark.parametrize("line", [
    b'{"id": "bad", "lat": 1.0,',
    # One object over two lines: valid JSON if the lines were read as one text.
    b'{"id": "bad", "lat": [1,\n2], "lon": 0}',
    b'{"id": "a1", "lat": 0, "lon": 0} {"id": "a2", "lat": 0, "lon": 0}',
    b'{"id": "a1", "lat": 0, "lon": 0}, {"id": "a2", "lat": 0, "lon": 0}',
    "\ufeff".encode() + _poi(id="bom"), b"\x0c" + _poi(id="form-feed"),
    b"[1, 2]", b'"text"', b"3", b"null",
    json.dumps({k: v for k, v in GOOD_POI.items() if k != "lon"}).encode(),
    _poi(categories="Coffee"), _poi(reviews={"a": 1}), _poi(categories=None), _poi(lat=[1.0]),
    _poi(price="cheap"), _poi(rating="good"), _poi(id=None, lat="north"),
    _poi(lat=91.0), _poi(lon=-180.5), _poi(lat=float("nan")), _poi(lon=float("inf")),
    _poi(rating=7), _poi(rating=0.5), _poi(rating=float("nan")),
    _poi(price=9), _poi(price=0), _poi(price=-1), _poi(price=float("inf")), _poi(lat=10 ** 400),
    _poi(id="\u00e9").replace("\\u00e9".encode(), b"\xe9"),
    # Two faults on one line: the first that the line reader checks is reported.
    _poi(lat=91.0, categories="x"), _poi(rating=7, reviews="x"),
], ids=["truncated", "object-over-two-lines", "two-objects", "comma-list", "bom", "form-feed", "list",
        "string", "number", "null", "missing-field", "categories-string", "reviews-object", "categories-null",
        "lat-list", "price-word", "rating-word", "lat-word", "lat-range", "lon-range", "lat-nan",
        "lon-inf", "rating-high", "rating-low", "rating-nan", "price-high", "price-zero",
        "price-negative", "price-inf", "lat-huge", "not-utf8", "lat-range-and-categories-string",
        "rating-high-and-reviews-string"])
def test_bad_poi_line_is_reported_as_by_the_line_reader(tmp_path, city_dir, capsys, monkeypatch, line):
    """A bad line deep in the file: ``read_poi_columns`` raises the type and
    message of the reference line reader, and ``ingest`` exits 3 without
    writing."""
    lines = [_poi(id=f"p{i:04d}", neighborhood_id=f"n{i % 16:04d}") for i in range(1, 1200)]
    lines[BAD_LINE - 1] = line
    path = _write_bytes(tmp_path / "poi.jsonl", b"\n".join(lines) + b"\n")
    want = _refused_as_by_the_line_reader(path, city_dir, tmp_path, capsys, monkeypatch)
    if b"\xe9" not in line:  # a decoding error names no line
        assert re.search(rf"poi\.jsonl:{BAD_LINE}[: ]", str(want)), want


@pytest.mark.parametrize("faults", [{5: _poi(rating=7), 9: b'{"id": "bad", "lat": 1.0,'},
                                    {5: b'{"id": "bad", "lat": 1.0,', 9: _poi(rating=7)}],
                         ids=["range-then-json", "json-then-range"])
def test_first_of_two_bad_poi_lines_is_reported(tmp_path, city_dir, capsys, monkeypatch, faults):
    lines = [_poi(id=f"p{i:04d}", neighborhood_id=f"n{i % 16:04d}") for i in range(1, 13)]
    for lineno, line in faults.items():
        lines[lineno - 1] = line
    path = _write_bytes(tmp_path / "poi.jsonl", b"\n".join(lines) + b"\n")
    want = _refused_as_by_the_line_reader(path, city_dir, tmp_path, capsys, monkeypatch)
    assert re.search(r"poi\.jsonl:5[: ]", str(want)), want


def _refused_as_by_the_line_reader(path, city_dir, tmp_path, capsys, monkeypatch) -> PipelineError:
    """The error the reference line reader raises for ``path``, after
    checking that ``read_poi_columns`` raises its type and message without
    calling ``corpus.read_poi_jsonl``, and that ``ingest`` exits 3 with it,
    no traceback and no workspace."""
    with pytest.raises(PipelineError) as want:
        read_poi_jsonl(path)
    args = ingest_args(city_dir, tmp_path / "ws")
    args[args.index("--poi") + 1] = str(path)
    with monkeypatch.context() as m:
        m.setattr(corpus, "read_poi_jsonl", lambda path: pytest.fail(f"corpus.read_poi_jsonl({path}) called"))
        with pytest.raises(PipelineError) as got:
            read_poi_columns(path)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
        assert main(args) == 3
    err = capsys.readouterr().err
    assert str(want.value) in err and "Traceback" not in err, err
    assert not (tmp_path / "ws").exists()
    return want.value


def test_duplicate_target_id_is_data_error(trained_ws, tmp_path, city_dir, capsys):
    ids, names, values = read_targets_csv(city_dir / "attributes.csv")
    tpath = tmp_path / "targets.csv"
    write_targets_csv(tpath, ids + ids[-1:], names, np.vstack([values, values[:1]]))
    assert main(["eval", "--workspace", str(trained_ws), "--targets", str(tpath),
                 "--repeats", "2"]) == 3
    err = capsys.readouterr().err
    assert "duplicate" in err and repr(ids[-1]) in err


@pytest.mark.parametrize("command,relpath", [("aggregate", "checkpoints/sv.emb"),
                                             ("train-poi", "checkpoints/sve.emb")])
def test_checkpoint_narrower_than_the_manifest_d_is_integrity_error(tmp_path, trained_ws, capsys, command, relpath):
    """A manifest whose config no longer describes the checkpoints: ``d``
    edited from the 8 that train-sv ran with to 9."""
    ws = tmp_path / "ws"
    shutil.copytree(trained_ws, ws)
    manifest = json.loads((ws / "manifest.json").read_text())
    manifest["config"]["d"] = 9
    save_manifest(ws, manifest)
    files = [ws / "manifest.json", *sorted((ws / "checkpoints").iterdir())]
    before = [(f.read_bytes(), f.stat().st_mtime_ns) for f in files]
    assert main([command, "--workspace", str(ws)]) == 4
    err = capsys.readouterr().err
    assert f"{relpath} has 8 columns, but the manifest's config has d = 9" in err, err
    assert [(f.read_bytes(), f.stat().st_mtime_ns) for f in files] == before


@pytest.mark.parametrize("command", ["synth", "train-sv"])
def test_out_of_memory_is_data_error(tmp_path, trained_ws, command):
    """A size that cannot be allocated ends in exit 3, not a traceback, and
    writes nothing. The child runs under a 3 GiB address-space limit, so
    the allocation fails at once instead of asking the host for the memory."""
    resource = pytest.importorskip("resource")
    ws = tmp_path / "ws"
    shutil.copytree(trained_ws, ws)
    manifest = (ws / "manifest.json").read_bytes()
    (tmp_path / "city.cfg").write_text("feature_dim = 1000000000\n")
    argv = {"synth": ["synth", "--config", str(tmp_path / "city.cfg"), "--out", str(tmp_path / "city")],
            "train-sv": ["train-sv", "--workspace", str(ws), "--d", "200000000"]}[command]
    limit = 3 << 30
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-m", "metrovec.cli", *argv], env=env, capture_output=True,
                         text=True, timeout=120,
                         preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert run.returncode == 3, run.stderr
    assert "error: out of memory: " in run.stderr and "Traceback" not in run.stderr, run.stderr
    assert not (tmp_path / "city").exists()
    assert (ws / "manifest.json").read_bytes() == manifest


def test_checkpoints_do_not_depend_on_the_blas_thread_count(tmp_path, city_dir):
    """train-sv, aggregate and train-poi write byte-identical checkpoints
    with one BLAS thread and with two, each chain in a process of its own
    (one process cannot change its BLAS thread count once numpy is loaded)."""
    ingested = tmp_path / "ingested"
    assert main(ingest_args(city_dir, ingested)) == 0
    chain = ("import json, sys\n"
             "from metrovec.cli import main\n"
             "ws, flags = sys.argv[1], json.loads(sys.argv[2])\n"
             "sys.exit(main(['train-sv', '--workspace', ws] + flags) or main(['aggregate', '--workspace', ws])\n"
             "         or main(['train-poi', '--workspace', ws]))\n")
    for threads in ("1", "2"):
        shutil.copytree(ingested, tmp_path / threads)
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
               **dict.fromkeys(["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"], threads)}
        run = subprocess.run([sys.executable, "-c", chain, str(tmp_path / threads), json.dumps(TRAIN_FLAGS)],
                             env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
    one, two = ({p.name: p.read_bytes() for p in (tmp_path / threads / "checkpoints").iterdir()}
                for threads in ("1", "2"))
    assert {"sv.emb", "sve.emb", "u2v.emb"} <= set(one)
    assert one == two


@pytest.mark.parametrize("argv", [
    ["train-sv"] + TRAIN_FLAGS,
    ["similar", "--query", "n0000"],
], ids=["train-sv", "similar"])
@pytest.mark.parametrize("value", [1, None, []], ids=["int", "null", "list"])
def test_non_string_manifest_hash_is_integrity_error(tmp_path, trained_ws, capsys, argv, value):
    ws = tmp_path / "ws"
    shutil.copytree(trained_ws, ws)
    manifest = json.loads((ws / "manifest.json").read_text())
    relpath = "ingested/street_views.csv" if argv[0] == "train-sv" else "checkpoints/u2v.emb"
    hashes_of(manifest, relpath)[relpath] = value
    (ws / "manifest.json").write_text(json.dumps(manifest))
    assert main([argv[0], "--workspace", str(ws)] + argv[1:]) == 4
    err = capsys.readouterr().err
    assert "manifest.json is not a manifest" in err and relpath in err, err


@pytest.mark.parametrize("argv,named", [
    (["eval", "--repeats", "0"], "repeats=0"),
    (["eval", "--repeats", "-1"], "repeats=-1"),
    (["similar", "--query", "n0000", "--top", "0"], "top_n=0"),
    (["similar", "--query", "n0000", "--top", "-1"], "top_n=-1"),
])
def test_count_below_one_is_data_error(trained_ws, city_dir, capsys, argv, named):
    targets = ["--targets", str(city_dir / "attributes.csv")] if argv[0] == "eval" else []
    assert main([argv[0], "--workspace", str(trained_ws)] + targets + argv[1:]) == 3
    assert named in capsys.readouterr().err


def _write_bytes(path: Path, data: bytes) -> Path:
    path.write_bytes(data)
    return path


def _ff_on_line_two(src: Path, dst: Path) -> Path:
    """``src`` with a 0xff byte at the start of its second line."""
    lines = src.read_bytes().splitlines(keepends=True)
    return _write_bytes(dst, b"".join(lines[:1] + [b"\xff" + lines[1]] + lines[2:]))


@pytest.mark.parametrize("argv,make", [
    (["ingest", "--centroids"], lambda c, t: _ff_on_line_two(c / "centroids.csv", t / "c.csv")),
    (["ingest", "--poi"], lambda c, t: _ff_on_line_two(c / "poi.jsonl", t / "poi.jsonl")),
    (["synth", "--out", "{tmp}/out", "--config"], lambda c, t: _write_bytes(t / "s.cfg", b"seed = 3  # caf\xe9\n")),
    (["train-sv", "--config"], lambda c, t: _write_bytes(t / "t.cfg", b"d = 8\n\xff\n")),
    (["train-poi", "--pretrained"], lambda c, t: _write_bytes(t / "w.txt", b"caf\xe9 0.5 0.5\n")),
], ids=["ingest-centroids", "ingest-poi", "synth-config", "train-sv-config", "train-poi-pretrained"])
def test_text_that_is_not_utf8_is_data_error(tmp_path, city_dir, trained_ws, capsys, argv, make):
    bad = make(city_dir, tmp_path)
    if argv[0] == "ingest":
        args = ingest_args(city_dir, tmp_path / "ws")
        args[args.index(argv[1]) + 1] = str(bad)
    elif argv[0] == "synth":
        args = [a.format(tmp=tmp_path) for a in argv] + [str(bad)]
    else:
        shutil.copytree(trained_ws, tmp_path / "ws")
        args = [argv[0], "--workspace", str(tmp_path / "ws")] + argv[1:] + [str(bad)]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert f"{bad}: not UTF-8 text" in err and "Traceback" not in err, err


@pytest.mark.parametrize("argv,code", [
    (["--repeats", "0"], 3),
    (["--pca-components", "2,x"], 2),
    (["--targets", "{tmp}/bad.csv"], 3),
], ids=["repeats", "pca-components", "targets-header"])
def test_eval_checks_arguments_before_training(trained_ws, city_dir, tmp_path, monkeypatch, argv, code):
    (tmp_path / "bad.csv").write_text("neighborhood_id\n")
    calls = []
    train = cli.training.train_poi_stage
    monkeypatch.setattr(cli.training, "train_poi_stage", lambda *a, **k: calls.append(a) or train(*a, **k))
    args = ["eval", "--workspace", str(trained_ws), "--embedding", "poi",
            "--targets", str(city_dir / "attributes.csv")] + [a.format(tmp=tmp_path) for a in argv]
    assert main(args) == code
    assert calls == []


def test_config_booleans_accept_only_known_words():
    for words, value in [(["1", "true", "Yes", "ON"], True), (["0", "FALSE", "no", "Off"], False)]:
        for word in words:
            assert cli._coerce_into(SynthConfig(), {"identity_mixing": word}, "c").identity_mixing is value
    for word in ["ture", "2", "", "y"]:
        with pytest.raises(ValidationError, match=f"'identity_mixing' got unparsable value {word!r}"):
            cli._coerce_into(SynthConfig(), {"identity_mixing": word}, "c")


def test_misspelt_config_boolean_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_neighborhoods = 4\nidentity_mixing = ture\n")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "identity_mixing" in err and "'ture'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,flags,named", [
    ("aggregate", ["--d", "64"], "d=64"),
    ("aggregate", ["--hidden", "4"], "hidden=4"),
    ("aggregate", ["--k-context", "2"], "k_context=2"),
    ("aggregate", ["--config", "{tmp}/c.cfg"], "margin_sv=0.5"),
    ("train-poi", ["--lr-sv", "0.5"], "lr_sv=0.5"),
    ("train-poi", ["--epochs-sv", "1"], "epochs_sv=1"),
    ("train-poi", ["--batch-size", "7"], "batch_size=7"),
    ("train-poi", ["--empty-policy", "zero"], "empty_policy='zero'"),
])
def test_later_stage_cannot_change_what_earlier_stages_used(tmp_path, trained_ws, capsys,
                                                            command, flags, named):
    ws = tmp_path / "ws"
    shutil.copytree(trained_ws, ws)
    (tmp_path / "c.cfg").write_text("margin_sv = 0.5\n")
    before = (ws / "manifest.json").read_bytes()
    assert main([command, "--workspace", str(ws)] + [f.format(tmp=tmp_path) for f in flags]) == 3
    err = capsys.readouterr().err
    assert named in err, err
    assert (ws / "manifest.json").read_bytes() == before


def test_later_stage_accepts_the_recorded_values(tmp_path, trained_ws):
    ws = tmp_path / "ws"
    shutil.copytree(trained_ws, ws)
    same = ["--d", "8", "--k-context", "3", "--hidden", "0", "--epochs-sv", "2"]
    assert main(["aggregate", "--workspace", str(ws), "--empty-policy", "zero"] + same) == 0
    assert main(["train-poi", "--workspace", str(ws), "--empty-policy", "zero", "--seed", "5"] + same) == 0
    config = json.loads((ws / "manifest.json").read_text())["config"]
    assert (config["d"], config["empty_policy"], config["seed"]) == (8, "zero", 5)


@pytest.mark.parametrize("argv", [
    ["synth", "--config", "{tmp}/s.cfg", "--out", "{tmp}/out"],
    ["train-sv", "--workspace", "{ws}", "--seed", "-1"],
    ["train-poi", "--workspace", "{ws}", "--seed", "-4"],
    ["eval", "--workspace", "{ws}", "--targets", "{city}/attributes.csv", "--embedding", "u2v", "--seed", "-5"],
    ["eval", "--workspace", "{ws}", "--targets", "{city}/attributes.csv", "--embedding", "poi", "--seed", "-5"],
    ["cluster", "--workspace", "{ws}", "--seed", "-3"],
], ids=["synth", "train-sv", "train-poi", "eval-u2v", "eval-poi", "cluster"])
def test_negative_seed_is_data_error(tmp_path, trained_ws, city_dir, capsys, argv):
    # numpy's generators take no seed below 0; each config refuses it first.
    ws = tmp_path / "ws"
    shutil.copytree(trained_ws, ws)
    (tmp_path / "s.cfg").write_text("n_neighborhoods = 4\nseed = -2\n")
    before = (ws / "manifest.json").read_bytes()
    assert main([a.format(tmp=tmp_path, ws=ws, city=city_dir) for a in argv]) == 3
    err = capsys.readouterr().err
    assert "seed must be >= 0, got -" in err and "Traceback" not in err, err
    assert (ws / "manifest.json").read_bytes() == before
    assert not (tmp_path / "out").exists()


def test_each_command_resolves_its_config_once(tmp_path, trained_ws, city_dir, monkeypatch):
    ws = tmp_path / "ws"
    shutil.copytree(trained_ws, ws)
    calls = []
    resolve = cli._resolve_config
    monkeypatch.setattr(cli, "_resolve_config",
                        lambda manifest, args, *stage: calls.append(args.command) or resolve(manifest, args, *stage))
    targets = str(city_dir / "attributes.csv")
    for argv in [["train-sv", *TRAIN_FLAGS], ["aggregate"], ["train-poi"],
                 ["eval", "--targets", targets, "--repeats", "2"],
                 ["eval", "--targets", targets, "--repeats", "2", "--embedding", "poi"],
                 ["cluster", "--k", "2"], ["similar", "--query", "n0000"],
                 ["export-emb", "--embedding", "u2v", "--out", str(tmp_path / "u2v.tsv")]]:
        calls.clear()
        assert main([argv[0], "--workspace", str(ws), *argv[1:]]) == 0
        assert calls == [argv[0]], argv


def test_ingest_writes_the_bag_table_and_no_poi_copy(trained_ws):
    assert sorted(p.name for p in (trained_ws / "ingested").iterdir()) == [
        "bags.bin", "centroids.csv", "features.bin", "street_views.csv"]
    files = json.loads((trained_ws / "manifest.json").read_text())["stages"]["ingest"]["files"]
    assert files["ingested/bags.bin"] == sha(trained_ws / "ingested" / "bags.bin")
    assert "ingested/poi.jsonl" not in files


def _ingested_before_bag_tables(src: Path, dst: Path, city_dir: Path) -> Path:
    """A copy of the workspace ``src`` as an ingest that kept the POIs as
    ingested/poi.jsonl, and wrote no bag table, would have left it: with a
    version-1 manifest, which kept one flat map of file hashes, a flag per
    stage, and the inputs beside them."""
    shutil.copytree(src, dst)
    (dst / "ingested" / "bags.bin").unlink()
    shutil.copy(city_dir / "poi.jsonl", dst / "ingested" / "poi.jsonl")
    manifest = json.loads((dst / "manifest.json").read_text())
    files = {rel: digest for record in manifest["stages"].values() for rel, digest in record["files"].items()}
    del files["ingested/bags.bin"]
    files["ingested/poi.jsonl"] = sha(dst / "ingested" / "poi.jsonl")
    save_manifest(dst, {"version": 1, "inputs": manifest["stages"]["ingest"]["inputs"],
                        "config": manifest["config"], "files": files,
                        "stages": {stage: True for stage in cli.STAGES}})
    return dst


@pytest.mark.parametrize("argv", [
    ["train-poi"],
    ["eval", "--embedding", "poi", "--repeats", "2"],
    ["eval", "--embedding", "poistats", "--repeats", "2"],
    ["train-sv"],
    ["aggregate"],
    ["eval", "--embedding", "u2v", "--repeats", "2"],
    ["cluster", "--k", "2"],
    ["similar", "--query", "n0000"],
    ["export-emb", "--embedding", "u2v", "--out", "u2v.tsv"],
], ids=["train-poi", "eval-poi", "eval-poistats", "train-sv", "aggregate", "eval-u2v", "cluster", "similar",
        "export-emb"])
def test_workspace_without_bag_table_asks_for_reingest(tmp_path, trained_ws, city_dir, capsys, argv):
    ws = _ingested_before_bag_tables(trained_ws, tmp_path / "ws", city_dir)
    before = (ws / "manifest.json").read_bytes()
    targets = ["--targets", str(city_dir / "attributes.csv")] if argv[0] == "eval" else []
    if argv[0] == "export-emb":
        argv = argv[:-1] + [str(tmp_path / argv[-1])]
    assert main([argv[0], "--workspace", str(ws)] + argv[1:] + targets) == 4
    err = capsys.readouterr().err
    assert "is a manifest of version 1, not 2; re-run 'ingest' to rebuild the workspace" in err, err
    assert not (tmp_path / "u2v.tsv").exists()
    assert "Traceback" not in err
    assert (ws / "manifest.json").read_bytes() == before


def test_tampered_bag_table_refused(tmp_path, trained_ws, city_dir, capsys):
    ws = tmp_path / "ws"
    shutil.copytree(trained_ws, ws)
    with open(ws / "ingested" / "bags.bin", "ab") as fh:
        fh.write(b"\x00")
    assert main(["eval", "--workspace", str(ws), "--targets", str(city_dir / "attributes.csv"),
                 "--embedding", "poistats", "--repeats", "2"]) == 4
    assert "ingested/bags.bin hash mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda ids, values: (ids + ["ghost"], np.vstack([values, values[:1]])),
    lambda ids, values: (ids[1:], values[1:]),
], ids=["extra-id", "missing-id"])
def test_eval_checks_target_ids_before_training(trained_ws, city_dir, tmp_path, monkeypatch, capsys, edit):
    ids, names, values = read_targets_csv(city_dir / "attributes.csv")
    path = tmp_path / "targets.csv"
    new_ids, new_values = edit(ids, values)
    write_targets_csv(path, new_ids, names, new_values)
    calls = []
    train = cli.training.train_poi_stage
    monkeypatch.setattr(cli.training, "train_poi_stage", lambda *a, **k: calls.append(a) or train(*a, **k))
    assert main(["eval", "--workspace", str(trained_ws), "--embedding", "poi", "--targets", str(path)]) == 3
    assert calls == []
    assert "targets CSV id mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("argv,named", [
    (["train-sv"] + TRAIN_FLAGS + ["--lr-sv", "1e100"], "stage 1 diverged in epoch 1 of 2"),
    (["train-poi", "--lr-poi", "1e100"], "stage 3 diverged in epoch 1 of 2"),
    (["train-poi", "--lr-poi", "10", "--anchor-weight", "1", "--epochs-poi", "300"], "stage 3 diverged in epoch 31 of 300"),
], ids=["train-sv", "train-poi", "train-poi-anchor"])
def test_diverging_stage_stops_in_the_epoch(tmp_path, trained_ws, capsys, argv, named):
    ws = tmp_path / "ws"
    shutil.copytree(trained_ws, ws)
    before = {p: p.read_bytes() for p in sorted(ws.rglob("*")) if p.is_file()}
    assert main([argv[0], "--workspace", str(ws)] + argv[1:]) == 3
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err, err
    assert {p: p.read_bytes() for p in sorted(ws.rglob("*")) if p.is_file()} == before


def test_blank_street_view_id_runs_through_the_stages(tmp_path, city_dir):
    # A CSV row and a checkpoint carry an id of one space; a line-based id
    # list could not.
    sv = _lines(city_dir / "street_views.csv")
    sv[1] = " " + sv[1][sv[1].index(","):]
    args = ingest_args(city_dir, tmp_path / "ws")
    args[args.index("--ids") + 1] = str(_write_lines(tmp_path / "sv.csv", sv))
    args[args.index("--features") + 1] = str(_features_csv(city_dir, tmp_path / "f.csv",
                                                           lambda ids, feats: ([" "] + ids[1:], feats)))
    assert main(args) == 0
    ws = tmp_path / "ws"
    assert main(["train-sv", "--workspace", str(ws)] + TRAIN_FLAGS) == 0
    assert main(["aggregate", "--workspace", str(ws)]) == 0
    assert main(["train-poi", "--workspace", str(ws)]) == 0
    assert read_embeddings(ws / "checkpoints" / "sv.emb")[0][0] == " "
    stages = json.loads((ws / "manifest.json").read_text())["stages"]
    files = [rel for record in stages.values() for rel in record["files"]]
    assert sorted(rel for rel in files if rel.startswith("checkpoints/")) == [
        "checkpoints/sv.emb", "checkpoints/sve.emb", "checkpoints/u2v.emb", "checkpoints/words.emb"]
    assert sorted(p.name for p in (ws / "checkpoints").iterdir()) == ["sv.emb", "sve.emb", "u2v.emb", "words.emb"]


def _with_old_checkpoints(src: Path, dst: Path) -> Path:
    """A copy of the workspace ``src`` as the GVEMB001 format, which kept a
    checkpoint's ids in a ``.ids`` text file beside it, would have left it."""
    shutil.copytree(src, dst)
    manifest = json.loads((dst / "manifest.json").read_text())
    for rel in cli.CHECKPOINTS.values():
        ids, matrix = read_embeddings(dst / rel)
        (dst / rel).write_bytes(b"GVEMB001" + struct.pack("<II", *matrix.shape) + matrix.astype("<f4").tobytes())
        (dst / (rel + ".ids")).write_text("".join(i + "\n" for i in ids), encoding="utf-8")
        for path in (rel, rel + ".ids"):
            hashes_of(manifest, rel)[path] = sha(dst / path)
    save_manifest(dst, manifest)
    return dst


@pytest.mark.parametrize("argv", [
    ["aggregate"],
    ["train-poi"],
    ["eval", "--embedding", "sve", "--repeats", "2"],
    ["cluster", "--k", "2"],
    ["similar", "--query", "n0000"],
    ["export-emb", "--embedding", "words", "--out", "words.tsv"],
], ids=["aggregate", "train-poi", "eval", "cluster", "similar", "export-emb"])
def test_old_format_checkpoint_asks_for_the_stage_again(tmp_path, trained_ws, city_dir, capsys, argv):
    ws = _with_old_checkpoints(trained_ws, tmp_path / "ws")
    before = (ws / "manifest.json").read_bytes()
    targets = ["--targets", str(city_dir / "attributes.csv")] if argv[0] == "eval" else []
    if argv[0] == "export-emb":
        argv = argv[:-1] + [str(tmp_path / argv[-1])]
    assert main([argv[0], "--workspace", str(ws)] + argv[1:] + targets) == 4
    err = capsys.readouterr().err
    assert "checkpoint of the old GVEMB001 format" in err and "re-run the stage that wrote it" in err, err
    assert "Traceback" not in err
    assert (ws / "manifest.json").read_bytes() == before


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def comma_ws(tmp_path_factory):
    """A city whose ids hold a comma (city tag ``x,y``), trained, with a
    targets file whose first column is named ``a,b``."""
    base = tmp_path_factory.mktemp("comma")
    (base / "synth.cfg").write_text(SYNTH_CFG + "n_clusters = 2\ncity_tag = x,y\n")
    city = base / "city"
    assert main(["synth", "--config", str(base / "synth.cfg"), "--out", str(city)]) == 0
    ids, names, values = read_targets_csv(city / "attributes.csv")
    write_targets_csv(base / "targets.csv", ids, ["a,b"] + names[1:], values)
    ws = base / "ws"
    assert main(ingest_args(city, ws)) == 0
    assert main(["train-sv", "--workspace", str(ws)] + TRAIN_FLAGS) == 0
    assert main(["aggregate", "--workspace", str(ws)]) == 0
    assert main(["train-poi", "--workspace", str(ws)]) == 0
    return base


class TestCsvCellsHoldingACommaOrQuote:
    def test_reports_keep_ids_and_names_whole(self, comma_ws):
        ws = comma_ws / "ws"
        ids = read_embeddings(ws / "checkpoints" / "u2v.emb")[0]
        assert ids[0] == "x,yn0000"
        assert main(["cluster", "--workspace", str(ws), "--k", "2"]) == 0
        assert main(["similar", "--workspace", str(ws), "--query", ids[0], "--top", "3"]) == 0
        assert main(["eval", "--workspace", str(ws), "--targets", str(comma_ws / "targets.csv"),
                     "--repeats", "2"]) == 0
        clusters = _csv_rows(ws / "reports" / "clusters_u2v.csv")
        assert clusters[0] == ["id", "cluster"] and {len(r) for r in clusters} == {2}
        assert [r[0] for r in clusters[1:]] == ids
        similar = _csv_rows(ws / "reports" / f"similar_{ids[0]}.csv")
        assert similar[0] == ["rank", "id", "cosine"] and {len(r) for r in similar} == {3}
        assert similar[1][1] == ids[0] and {r[1] for r in similar[1:]} <= set(ids)
        evaluated = _csv_rows(ws / "reports" / "eval_u2v.csv")
        assert {len(r) for r in evaluated} == {4}
        assert [r[0] for r in evaluated] == ["target", "a,b", "u2", "__overall__"]

    def test_reports_end_lines_with_crlf(self, comma_ws):
        ws = comma_ws / "ws"
        assert main(["cluster", "--workspace", str(ws), "--k", "2"]) == 0
        data = (ws / "reports" / "clusters_u2v.csv").read_bytes()
        assert data.startswith(b'id,cluster\r\n"x,yn0000",') and data.count(b"\n") == data.count(b"\r\n") == 17

    def test_synth_clusters_keep_ids_whole(self, comma_ws):
        rows = _csv_rows(comma_ws / "city" / "clusters.csv")
        assert rows[0] == ["id", "cluster"] and {len(r) for r in rows} == {2}
        assert [r[0] for r in rows[1:]] == [f"x,yn{i:04d}" for i in range(16)]

    def test_export_refuses_an_id_holding_a_tab(self, comma_ws, tmp_path, capsys):
        ws = tmp_path / "ws"
        shutil.copytree(comma_ws / "ws", ws)
        ids, matrix = read_embeddings(ws / "checkpoints" / "u2v.emb")
        write_embeddings(ws / "checkpoints" / "u2v.emb", ["a\tb"] + ids[1:], matrix)
        manifest = json.loads((ws / "manifest.json").read_text())
        hashes_of(manifest, "checkpoints/u2v.emb")["checkpoints/u2v.emb"] = sha(ws / "checkpoints" / "u2v.emb")
        save_manifest(ws, manifest)
        out = tmp_path / "out" / "u2v.tsv"
        out.parent.mkdir()
        assert main(["export-emb", "--workspace", str(ws), "--embedding", "u2v", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "id 'a\\tb' holds a tab or a line break" in err and "Traceback" not in err, err
        assert list(out.parent.iterdir()) == []


def test_synth_refuses_a_city_tag_holding_a_slash(tmp_path, capsys):
    # Ingest would refuse every id of such a city.
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_neighborhoods = 4\ncity_tag = a/b\n")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "city_tag 'a/b' holds a path separator, NUL or newline" in err and "Traceback" not in err, err
    assert not (tmp_path / "out").exists()


DEEP = "[" * 100000 + "]" * 100000


def test_over_deep_poi_line_is_data_error(tmp_path, city_dir, capsys):
    poi = tmp_path / "poi.jsonl"
    text = (city_dir / "poi.jsonl").read_text()
    poi.write_text(text + '{"id": "deep", "lat": 37.0, "lon": -122.0, "reviews": ' + DEEP + "}\n")
    args = ingest_args(city_dir, tmp_path / "ws")
    args[args.index("--poi") + 1] = str(poi)
    assert main(args) == 3
    err = capsys.readouterr().err
    line = text.count("\n") + 1
    assert f"poi.jsonl:{line}: invalid JSON: maximum recursion depth exceeded" in err, err
    assert "Traceback" not in err and not (tmp_path / "ws").exists()


def test_over_deep_manifest_is_integrity_error(tmp_path, trained_ws, capsys):
    ws = tmp_path / "ws"
    shutil.copytree(trained_ws, ws)
    (ws / "manifest.json").write_text("[" * 100000)
    assert main(["train-sv", "--workspace", str(ws)] + TRAIN_FLAGS) == 4
    err = capsys.readouterr().err
    assert "manifest.json is not a readable manifest: maximum recursion depth exceeded" in err, err
    assert "Traceback" not in err
    assert (ws / "manifest.json").read_text() == "[" * 100000


def test_unclosed_quote_in_a_large_table_is_data_error(tmp_path, city_dir, capsys):
    # The quote runs to the end of the file, past csv's field size limit.
    lines = _lines(city_dir / "street_views.csv")
    path = _write_lines(tmp_path / "sv.csv", lines[:2] + ['"' + lines[2]] + lines[3:] * 100)
    assert path.stat().st_size > 131072
    args = ingest_args(city_dir, tmp_path / "ws")
    args[args.index("--ids") + 1] = str(path)
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "sv.csv:3: unreadable CSV row: field larger than field limit (131072)" in err, err
    assert "Traceback" not in err and not (tmp_path / "ws").exists()


@pytest.mark.parametrize("edit,named", [
    ("centroid-newline", "one of the ids and tokens holds a newline"),
    ("category-surrogate", "is not valid Unicode text"),
])
def test_ingest_refusing_its_bag_table_creates_no_workspace(tmp_path, city_dir, capsys, edit, named):
    args = ingest_args(city_dir, tmp_path / "ws" / "inner")
    if edit == "centroid-newline":
        # The id is renamed in every table, so only the bag table refuses it.
        for flag, name in (("--centroids", "centroids.csv"), ("--ids", "street_views.csv")):
            rows = [[cell.replace("n0000", "n\n0000") for cell in row] for row in _csv_rows(city_dir / name)]
            with open(tmp_path / name, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(rows)
            args[args.index(flag) + 1] = str(tmp_path / name)
        pois = [json.loads(line) for line in _lines(city_dir / "poi.jsonl")]
        for poi in pois:
            poi["neighborhood_id"] = poi["neighborhood_id"].replace("n0000", "n\n0000")
    else:
        pois = [json.loads(line) for line in _lines(city_dir / "poi.jsonl")]
        pois[0]["categories"] = ["\ud800"]
    _write_lines(tmp_path / "poi.jsonl", [json.dumps(poi) for poi in pois])
    args[args.index("--poi") + 1] = str(tmp_path / "poi.jsonl")
    assert main(args) == 3
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err, err
    assert not (tmp_path / "ws").exists()


def test_ingest_refuses_a_street_view_id_holding_a_newline(tmp_path, city_dir, capsys):
    # Quoted in both CSV tables, the id reads back whole; train-sv's
    # checkpoint could not hold it, so ingest refuses it and makes nothing.
    sv_rows = _csv_rows(city_dir / "street_views.csv")
    old = sv_rows[1][0]
    new = old + "\nx"
    sv_rows[1][0] = new
    with open(tmp_path / "sv.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(sv_rows)
    features = _features_csv(city_dir, tmp_path / "features.csv",
                             lambda ids, feats: ([new if i == old else i for i in ids], feats))
    args = ingest_args(city_dir, tmp_path / "ws" / "inner")
    args[args.index("--ids") + 1] = str(tmp_path / "sv.csv")
    args[args.index("--features") + 1] = str(features)
    assert main(args) == 3
    err = capsys.readouterr().err
    assert f"sv.csv: street-view id {new!r} holds a newline" in err and "Traceback" not in err, err
    assert not (tmp_path / "ws").exists()


@pytest.mark.parametrize("features, blank", [("bin", False), ("csv", True)], ids=["bin", "csv-blank-ids"])
def test_chain_builds_no_geopoint(tmp_path, monkeypatch, features, blank):
    """Street views and centroids go from the CSV to the index as columns:
    synth, ingest (with blank neighborhood ids assigned too), train-sv and
    aggregate build no GeoPoint."""
    built = []
    check = geo.GeoPoint.__post_init__
    monkeypatch.setattr(geo.GeoPoint, "__post_init__", lambda self: built.append(self) or check(self))
    (tmp_path / "synth.cfg").write_text(SYNTH_CFG)
    data, ws = tmp_path / "data", tmp_path / "ws"
    assert main(["synth", "--config", str(tmp_path / "synth.cfg"), "--out", str(data),
                 "--features-format", features]) == 0
    args = ingest_args(data, ws)
    args[args.index("--features") + 1] = str(data / f"features.{features}")
    if blank:
        rows = _csv_rows(data / "street_views.csv")
        for row in rows[1::10]:
            row[3] = ""
        with open(data / "street_views.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        args.append("--assign-missing")
    assert main(args) == 0
    assert main(["train-sv", "--workspace", str(ws), "--d", "4", "--epochs-sv", "1"]) == 0
    assert main(["aggregate", "--workspace", str(ws)]) == 0
    assert built == []
