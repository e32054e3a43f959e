"""Binary table, checkpoint, and CSV schema tests."""

import struct

import numpy as np
import pytest

from metrovec.errors import FormatError, ValidationError
from metrovec.fileio import (ids_sidecar_path, read_centroids_csv, read_embeddings,
                             read_feature_bin, read_features_csv, read_targets_csv,
                             write_centroids_csv, write_embeddings, write_embeddings_tsv,
                             write_feature_bin, write_features_csv, write_targets_csv)
from metrovec.geo import GeoPoint


class TestFeatureBin:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "f.bin"
        ids = ["a", "b", "c"]
        feats = np.array([[1.5, -2.0], [0.0, 3.25], [7.0, 8.0]], dtype=np.float32)
        write_feature_bin(path, ids, feats)
        assert np.array_equal(read_feature_bin(path), feats)

    def test_unsorted_ids_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="ascending"):
            write_feature_bin(tmp_path / "f.bin", ["b", "a"], np.zeros((2, 2), dtype=np.float32))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            read_feature_bin(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"GVFEAT01" + b"\x02\x00\x00")
        with pytest.raises(FormatError, match="header"):
            read_feature_bin(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "f.bin"
        write_feature_bin(path, ["a", "b"], np.ones((2, 3), dtype=np.float32))
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(FormatError, match="payload"):
            read_feature_bin(path)


class TestFeatureCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "f.csv"
        ids = ["x1", "x2"]
        feats = np.array([[0.125, -9.5], [3.0, 4.0]], dtype=np.float32)
        write_features_csv(path, ids, feats)
        rids, rfeats = read_features_csv(path)
        assert rids == ids
        assert np.array_equal(rfeats, feats)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,f1,f2\na,1.0\n")
        with pytest.raises(FormatError, match=":2"):
            read_features_csv(path)


class TestEmbeddings:
    def test_round_trip_with_sidecar(self, tmp_path):
        path = tmp_path / "z.emb"
        ids = ["n1", "n2"]
        Z = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        write_embeddings(path, ids, Z)
        rids, rz = read_embeddings(path)
        assert rids == ids
        assert np.array_equal(rz, Z.astype(np.float32))
        assert ids_sidecar_path(path).exists()

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "z.emb"
        write_embeddings(path, ["a"], np.ones((1, 2)))
        ids_sidecar_path(path).unlink()
        with pytest.raises(FormatError, match="sidecar"):
            read_embeddings(path)

    def test_sidecar_count_mismatch(self, tmp_path):
        path = tmp_path / "z.emb"
        write_embeddings(path, ["a", "b"], np.ones((2, 2)))
        ids_sidecar_path(path).write_text("a\n")
        with pytest.raises(FormatError):
            read_embeddings(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
    def test_unstorable_values_refused_before_writing(self, tmp_path, bad):
        path = tmp_path / "z.emb"
        with pytest.raises(ValidationError, match="float32"):
            write_embeddings(path, ["a", "b"], np.array([[1.0, 2.0], [bad, 0.0]]))
        assert not path.exists() and not ids_sidecar_path(path).exists()

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "z.emb"
        write_embeddings(path, ["a"], np.ones((1, 2)))
        path.write_bytes(path.read_bytes()[:12])
        with pytest.raises(FormatError, match="header"):
            read_embeddings(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "z.emb"
        write_embeddings(path, ["a", "b"], np.ones((2, 3)))
        before = path.read_bytes(), ids_sidecar_path(path).read_bytes()

        def fail(*args):
            raise OSError("disk full")

        # The magic is written before the header, so the write fails partway.
        monkeypatch.setattr(struct, "pack", fail)
        with pytest.raises(OSError, match="disk full"):
            write_embeddings(path, ["a", "b"], np.zeros((2, 3)))
        monkeypatch.undo()
        assert (path.read_bytes(), ids_sidecar_path(path).read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["z.emb", "z.emb.ids"]

    def test_failed_sidecar_write_keeps_previous_sidecar(self, tmp_path):
        class Unprintable:
            def __format__(self, spec):
                raise ValueError("no text form")

        path = tmp_path / "z.emb"
        write_embeddings(path, ["a", "b"], np.ones((2, 3)))
        before = ids_sidecar_path(path).read_bytes()
        with pytest.raises(ValueError, match="no text form"):
            write_embeddings(path, ["a", Unprintable()], np.ones((2, 3)))
        assert ids_sidecar_path(path).read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["z.emb", "z.emb.ids"]

    def test_tsv_export(self, tmp_path):
        path = tmp_path / "z.tsv"
        write_embeddings_tsv(path, ["n1"], np.array([[0.5, -1.25]]))
        assert path.read_text() == "n1\t0.5\t-1.25\n"


class TestCentroidsCsv:
    def test_round_trip_with_city(self, tmp_path):
        path = tmp_path / "c.csv"
        cents = [("n1", GeoPoint(37.1, -122.2), "sf"), ("n2", GeoPoint(41.8, -87.6), "chi")]
        write_centroids_csv(path, cents)
        assert read_centroids_csv(path) == cents

    def test_round_trip_without_city(self, tmp_path):
        path = tmp_path / "c.csv"
        cents = [("n1", GeoPoint(37.1, -122.2), None)]
        write_centroids_csv(path, cents)
        assert read_centroids_csv(path) == cents

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,lat,lon\nn1\n")
        with pytest.raises(FormatError, match=r"c\.csv:2: expected at least 3 columns, got 1"):
            read_centroids_csv(path)

    def test_range_error_names_centroid(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,lat,lon\nbadc,95.0,0.0\n")
        with pytest.raises(ValidationError, match="badc"):
            read_centroids_csv(path)


class TestTargetsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_targets_csv(path, ["n1", "n2"], ["income", "age"],
                          np.array([[1.5, 30.0], [2.5, 40.0]]))
        ids, names, values = read_targets_csv(path)
        assert ids == ["n1", "n2"]
        assert names == ["income", "age"]
        assert np.array_equal(values, np.array([[1.5, 30.0], [2.5, 40.0]]))

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("neighborhood_id,income\nn1,abc\n")
        with pytest.raises(FormatError, match=":2"):
            read_targets_csv(path)
