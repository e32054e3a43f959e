"""Binary table, checkpoint, and CSV schema tests."""

import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import columns_of, columns_of_records, read_centroid_records, read_sv_records

from metrovec.corpus import PoiRecord, write_poi_jsonl
from metrovec import fileio
from metrovec.errors import FormatError, StageOrderError, ValidationError
from metrovec.fileio import (BAGS_MAGIC, BagTable, read_bags,
                             read_centroids_csv, read_embeddings, read_feature_bin,
                             read_features_csv, read_sv_metadata, read_targets_csv, write_bags,
                             write_centroids_csv, write_embeddings, write_embeddings_tsv,
                             write_feature_bin, write_features_csv, write_sv_metadata,
                             write_targets_csv)
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
    @pytest.mark.parametrize("ids", [
        ["n1", "n2"],
        ["", " ", "a\rb", "\t", "caf\u00e9 \u5317\u4eac", "n\u2028x"],
        [],
    ], ids=["plain", "blank-space-cr-non-ascii", "no-rows"])
    def test_round_trip(self, tmp_path, ids):
        path = tmp_path / "z.emb"
        Z = np.arange(3.0 * len(ids)).reshape(len(ids), 3) - 2.5
        write_embeddings(path, ids, Z)
        rids, rz = read_embeddings(path)
        assert rids == ids
        assert np.array_equal(rz, Z.astype(np.float32)) and rz.dtype == np.float32
        assert [p.name for p in tmp_path.iterdir()] == ["z.emb"]

    def test_layout(self, tmp_path):
        path = tmp_path / "z.emb"
        write_embeddings(path, ["a", "\u00e9"], np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        data = path.read_bytes()
        assert data[:8] == b"GVEMB002"
        assert struct.unpack_from("<IIQ", data, 8) == (2, 3, 5)
        assert data[24:29] == "a\n\u00e9\n".encode()
        assert np.frombuffer(data, "<f4", 6, 29).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert len(data) == 29 + 24

    @pytest.mark.parametrize("bad, message", [
        ("a\nb", "one of the ids holds a newline"),
        ("a\ud800", "is not valid Unicode text"),
    ], ids=["newline", "lone-surrogate"])
    def test_unwritable_id_refused_before_writing(self, tmp_path, bad, message):
        path = tmp_path / "z.emb"
        with pytest.raises(ValidationError, match=re.escape(f"{path}: ") + ".*" + message):
            write_embeddings(path, ["a", bad], np.ones((2, 3)))
        assert list(tmp_path.iterdir()) == []
        write_embeddings(path, ["a", "b"], np.ones((2, 3)))
        before = path.read_bytes()
        with pytest.raises(ValidationError, match=message):
            write_embeddings(path, ["a", bad], np.zeros((2, 3)))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["z.emb"]

    def test_block_count_mismatch(self, tmp_path):
        path = tmp_path / "z.emb"
        write_embeddings(path, ["a", "b"], np.ones((2, 2)))
        path.write_bytes(path.read_bytes().replace(b"a\nb\n", b"a\nbb"))
        with pytest.raises(FormatError, match=re.escape(f"{path}: expected 2 newline-ended ids")):
            read_embeddings(path)

    def test_block_not_utf8(self, tmp_path):
        path = tmp_path / "z.emb"
        write_embeddings(path, ["a", "b"], np.ones((2, 2)))
        path.write_bytes(path.read_bytes().replace(b"a\nb\n", b"a\n\xff\n"))
        with pytest.raises(FormatError, match=re.escape(f"{path}: the id block is not UTF-8 text")):
            read_embeddings(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
    def test_unstorable_values_refused_before_writing(self, tmp_path, bad):
        path = tmp_path / "z.emb"
        with pytest.raises(ValidationError, match="float32"):
            write_embeddings(path, ["a", "b"], np.array([[1.0, 2.0], [bad, 0.0]]))
        assert list(tmp_path.iterdir()) == []

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "z.emb"
        write_embeddings(path, ["a"], np.ones((1, 2)))
        path.write_bytes(path.read_bytes()[:12])
        with pytest.raises(FormatError, match=re.escape(f"{path}: truncated header, 4 of 16 bytes")):
            read_embeddings(path)

    @pytest.mark.parametrize("edit, found", [(lambda b: b[:-1], 9), (lambda b: b + b"\x00", 11)],
                             ids=["short", "long"])
    def test_payload_length(self, tmp_path, edit, found):
        path = tmp_path / "z.emb"
        write_embeddings(path, ["a"], np.ones((1, 2)))
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(FormatError, match=re.escape(f"{path}: expected 10 payload bytes, found {found}")):
            read_embeddings(path)

    def test_old_format_asks_for_the_stage_again(self, tmp_path):
        path = tmp_path / "z.emb"
        path.write_bytes(b"GVEMB001" + struct.pack("<II", 1, 2) + np.ones(2, "<f4").tobytes())
        with pytest.raises(StageOrderError, match="re-run the stage that wrote it"):
            read_embeddings(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "z.emb"
        write_embeddings(path, ["a", "b"], np.ones((2, 3)))
        before = path.read_bytes()

        def fail(*args):
            raise OSError("disk full")

        # Packing the header fails after the temporary file is opened.
        monkeypatch.setattr(fileio, "_EMBEDDING_HEADER", SimpleNamespace(pack=fail))
        with pytest.raises(OSError, match="disk full"):
            write_embeddings(path, ["a", "b"], np.zeros((2, 3)))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["z.emb"]

    def test_tsv_export(self, tmp_path):
        path = tmp_path / "z.tsv"
        write_embeddings_tsv(path, ["n1"], np.array([[0.5, -1.25]]))
        assert path.read_text() == "n1\t0.5\t-1.25\n"

    @pytest.mark.parametrize("bad", ["a\tb", "a\rb", "a\nb"])
    def test_tsv_export_refuses_an_id_it_cannot_hold(self, tmp_path, bad):
        with pytest.raises(ValidationError, match="holds a tab or a line break"):
            write_embeddings_tsv(tmp_path / "z.tsv", ["n1", bad], np.zeros((2, 2)))
        assert list(tmp_path.iterdir()) == []


def _same_columns(got, want):
    """Equal ids and third columns, and coordinates of the same float64 bits."""
    assert (got[0], got[3]) == (want[0], want[3])
    for a, b in zip(got[1:3], want[1:3]):
        assert a.dtype == np.float64 and a.tobytes() == np.asarray(b, dtype=np.float64).tobytes()


class TestCentroidsCsv:
    def test_round_trip_with_city(self, tmp_path):
        path = tmp_path / "c.csv"
        cents = (["n1", "n2"], np.array([37.1, 41.8]), np.array([-122.2, -87.6]), ["sf", "chi"])
        write_centroids_csv(path, *cents)
        _same_columns(read_centroids_csv(path), cents)

    def test_round_trip_without_city(self, tmp_path):
        path = tmp_path / "c.csv"
        cents = (["n1"], np.array([37.1]), np.array([-122.2]), [None])
        write_centroids_csv(path, *cents)
        assert path.read_text().splitlines()[0] == "id,lat,lon"
        _same_columns(read_centroids_csv(path), cents)

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


# reader, header, a good row, its row with a non-numeric cell, a short row and
# the messages for a bad header, a short row and a file without data rows.
CSV_READERS = {
    "features": (read_features_csv, "id,f1,f2", "a,1.5,2.0", "a,1.5,x", "a,1.5",
                 "expected header starting with 'id'", "expected 2 feature values, got 1",
                 "no feature rows"),
    "sv_metadata": (read_sv_metadata, "id,lat,lon,neighborhood_id", "a,1.5,2.0,n1", "a,x,2.0,n1",
                    "a,1.5,2.0", "expected header id,lat,lon,neighborhood_id",
                    "expected 4 columns, got 3", "no street-view rows"),
    "centroids": (read_centroids_csv, "id,lat,lon", "n1,1.5,2.0", "n1,1.5,x", "n1,1.5",
                  "expected header id,lat,lon[,city]", "expected at least 3 columns, got 2",
                  "no centroid rows"),
    "targets": (read_targets_csv, "neighborhood_id,t", "n1,1.5", "n1,x", "n1",
                "expected a header with an id column and >= 1 target column",
                "expected 2 columns, got 1", "no target rows"),
}


def _table(row_ids=("n1", "n2", "n3"), tokens=("a", "b", "c"), indptr=(0, 2, 2, 5),
           token_ids=(0, 2, 0, 1, 2), counts=(3, 1, 1, 2, 7)):
    """A table of three rows, the second empty; the arguments replace its parts."""
    return BagTable(list(row_ids), list(tokens), np.array(indptr, dtype=np.int64),
                    np.array(token_ids, dtype=np.int64), np.array(counts, dtype=np.int64))


class TestBags:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "bags.bin"
        table = _table(row_ids=("n1", "n\u00e9", "z z"), tokens=("a", "c", "cat_caf\u00e9"))
        write_bags(path, table)
        got = read_bags(path)
        assert (got.row_ids, got.tokens) == (table.row_ids, table.tokens)
        for part in ("indptr", "token_ids", "counts"):
            assert getattr(got, part).dtype == np.int64
            assert np.array_equal(getattr(got, part), getattr(table, part))

    def test_empty_table(self, tmp_path):
        path = tmp_path / "bags.bin"
        write_bags(path, _table(row_ids=("",), tokens=(), indptr=(0, 0), token_ids=(), counts=()))
        got = read_bags(path)
        assert (got.row_ids, got.tokens, got.indptr.tolist(), got.token_ids.size) == ([""], [], [0, 0], 0)

    @pytest.mark.parametrize("table, message", [
        (_table(indptr=(0, 3, 2, 5)), "row pointers do not rise from 0 to 5"),
        (_table(indptr=(0, 2, 2, 4)), "row pointers do not rise from 0 to 5"),
        (_table(indptr=(1, 2, 2, 5)), "row pointers do not rise from 0 to 5"),
        (_table(token_ids=(0, 2, 0, 1, 3)), r"a token id is outside \[0, 3\)"),
        (_table(token_ids=(0, 2, 0, -1, 2)), r"a token id is outside \[0, 3\)"),
        (_table(token_ids=(2, 0, 0, 1, 2)), "token ids are not strictly ascending within a row"),
        (_table(token_ids=(0, 2, 0, 2, 2)), "token ids are not strictly ascending within a row"),
        (_table(counts=(3, 1, 1, 0, 7)), "a token count is below 1"),
        (_table(counts=(3, -1, 1, 2, 7)), "a token count is below 1"),
        (_table(tokens=("a", "c", "b")), "tokens are not sorted and distinct"),
        (_table(tokens=("a", "b", "b")), "tokens are not sorted and distinct"),
        (_table(row_ids=("n1", "n3", "n2")), "row ids are not sorted and distinct"),
    ], ids=["pointer-falls", "pointer-ends-short", "pointer-starts-above-0", "id-at-V", "id-negative",
            "row-unsorted", "row-repeats-id", "count-0", "count-negative", "tokens-unsorted",
            "tokens-duplicate", "rows-unsorted"])
    def test_inconsistent_table(self, tmp_path, table, message):
        path = tmp_path / "bags.bin"
        write_bags(path, table)
        with pytest.raises(FormatError, match=re.escape(f"{path}: ") + message):
            read_bags(path)

    def test_ascending_across_a_row_boundary_is_not_required(self, tmp_path):
        path = tmp_path / "bags.bin"
        write_bags(path, _table(indptr=(0, 2, 3, 5), token_ids=(1, 2, 0, 0, 2)))
        assert read_bags(path).token_ids.tolist() == [1, 2, 0, 0, 2]

    @pytest.mark.parametrize("edit, message", [
        (lambda b: b"GVBAGS02" + b[8:], "bad magic b'GVBAGS02'"),
        (lambda b: b[:20], "truncated header, 12 of 24 bytes"),
        (lambda b: b[:-1], "expected 107 payload bytes, found 106"),
        (lambda b: b + b"\x00", "expected 107 payload bytes, found 108"),
        (lambda b: b.replace(b"n2\n", b"n\xff\n"), "the id and token block is not UTF-8 text"),
        (lambda b: b.replace(b"c\n", b"cc"), "expected 6 newline-ended ids and tokens"),
        (lambda b: b.replace(b"a\nb\n", b"a\n\n\n"), "expected 6 newline-ended ids and tokens"),
    ], ids=["magic", "header", "payload-short", "payload-long", "not-utf8", "unterminated", "extra-name"])
    def test_damaged_file(self, tmp_path, edit, message):
        path = tmp_path / "bags.bin"
        write_bags(path, _table())
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
            read_bags(path)

    def test_layout(self, tmp_path):
        path = tmp_path / "bags.bin"
        write_bags(path, _table())
        data = path.read_bytes()
        assert data[:8] == BAGS_MAGIC
        assert struct.unpack_from("<IIQQ", data, 8) == (3, 3, 5, 15)
        assert data[32:47] == b"n1\nn2\nn3\na\nb\nc\n"
        assert np.frombuffer(data, "<i8", 4, 47).tolist() == [0, 2, 2, 5]
        assert np.frombuffer(data, "<i4", 5, 79).tolist() == [0, 2, 0, 1, 2]
        assert np.frombuffer(data, "<i8", 5, 99).tolist() == [3, 1, 1, 2, 7]

    @pytest.mark.parametrize("row_ids, tokens, message", [
        (("n1", "n\n2", "n3"), ("a", "b", "c"), "holds a newline"),
        (("n1", "n2", "n3"), ("a", "cat_\ud800", "c"), "is not valid Unicode text"),
    ], ids=["newline", "lone-surrogate"])
    def test_unwritable_names_refused(self, tmp_path, row_ids, tokens, message):
        path = tmp_path / "bags.bin"
        with pytest.raises(ValidationError, match=message):
            write_bags(path, _table(row_ids=row_ids, tokens=tokens))
        assert list(tmp_path.iterdir()) == []


def _csv_case(tmp_path, name, *lines):
    reader, *spec = CSV_READERS[name]
    path = tmp_path / f"{name}.csv"
    path.write_text("".join(line + "\n" for line in lines))
    return reader, path, spec


def _format_error(reader, path, message):
    with pytest.raises(FormatError, match="^" + re.escape(f"{path}{message}") + "$"):
        reader(path)


@pytest.mark.parametrize("name", sorted(CSV_READERS))
class TestCsvReaders:
    def test_bad_header(self, tmp_path, name):
        reader, path, spec = _csv_case(tmp_path, name, "nope", CSV_READERS[name][2])
        _format_error(reader, path, ": " + spec[4])

    @pytest.mark.parametrize("blank_lines", [0, 2])
    def test_header_without_rows(self, tmp_path, name, blank_lines):
        reader, path, spec = _csv_case(tmp_path, name, CSV_READERS[name][1], *[""] * blank_lines)
        _format_error(reader, path, ": " + spec[6])

    def test_non_numeric_cell_names_line(self, tmp_path, name):
        # The blank line still counts, so the bad row is line 4.
        _, header, good, bad = CSV_READERS[name][:4]
        reader, path, _ = _csv_case(tmp_path, name, header, good, "", bad)
        _format_error(reader, path, ":4: could not convert string to float: 'x'")

    def test_short_row_names_line(self, tmp_path, name):
        _, header, good, _, short = CSV_READERS[name][:5]
        reader, path, spec = _csv_case(tmp_path, name, header, "", short, good)
        _format_error(reader, path, ":3: " + spec[5])

    def test_not_utf8(self, tmp_path, name):
        _, header, good = CSV_READERS[name][:3]
        reader, path, _ = _csv_case(tmp_path, name, header, good)
        path.write_bytes(f"{header}\n{good}\n".encode().replace(b"1.5", b"1.\xff"))
        _format_error(reader, path, ": not UTF-8 text (invalid start byte)")

    def test_line_numbers_count_the_line_breaks_of_a_quoted_cell(self, tmp_path, name):
        # The quoted id spans lines 3 and 4, so the bad row is line 5.
        _, header, good, bad = CSV_READERS[name][:4]
        quoted = '"x\ny"' + good[good.index(","):]
        reader, path, _ = _csv_case(tmp_path, name, header, good, quoted, bad)
        _format_error(reader, path, ":5: could not convert string to float: 'x'")

    def test_unclosed_quote_names_its_line(self, tmp_path, name):
        # The quote opened on line 3 runs past csv's field size limit.
        _, header, good = CSV_READERS[name][:3]
        reader, path, _ = _csv_case(tmp_path, name, header, good, '"' + good, *[good] * 20000)
        _format_error(reader, path, ":3: unreadable CSV row: field larger than field limit (131072)")

    def test_blank_line_skipped(self, tmp_path, name):
        _, header, good = CSV_READERS[name][:3]
        reader, spaced, _ = _csv_case(tmp_path, name, header, "", good, "", "", good.replace("1.5", "3.0"))
        plain = tmp_path / "plain.csv"
        plain.write_text("\n".join([header, good, good.replace("1.5", "3.0")]) + "\n")
        assert repr(reader(spaced)) == repr(reader(plain))


class Unwritable:
    """A value that fails when a writer turns it into text."""

    def __float__(self):
        raise ValueError("unwritable")

    __repr__ = __float__


# writer, arguments that write, arguments that fail on the second row
TABLE_WRITERS = {
    "features_csv": (write_features_csv,
                     (["a", "b"], np.array([[1.0, 2.0], [3.0, 4.0]])),
                     (["a", "b"], np.array([[5.0, 6.0], [Unwritable(), 7.0]], dtype=object))),
    "sv_metadata": (write_sv_metadata,
                    (["a"], np.array([1.0]), np.array([2.0]), ["n1"]),
                    (["a", "b"], np.array([3.0, Unwritable()], dtype=object), np.array([4.0, 0.0]), ["n1", "n1"])),
    "centroids_csv": (write_centroids_csv,
                      (["n1"], np.array([1.0]), np.array([2.0]), ["sf"]),
                      (["n1", "n2"], np.array([3.0, Unwritable()], dtype=object), np.array([4.0, 0.0]),
                       ["sf", None])),
    "targets_csv": (write_targets_csv,
                    (["n1"], ["t"], np.array([[1.0]])),
                    (["n1", "n2"], ["t"], np.array([[2.0], [Unwritable()]], dtype=object))),
    "embeddings_tsv": (write_embeddings_tsv,
                       (["n1"], np.array([[1.0]])),
                       (["n1", "n2"], np.array([[2.0], [Unwritable()]], dtype=object))),
    "poi_jsonl": (write_poi_jsonl,
                  (columns_of([PoiRecord("p1", GeoPoint(1.0, 2.0), "n1", ["cafe"])]),),
                  (columns_of([PoiRecord("p1", GeoPoint(3.0, 4.0), "n1", ["bar"]),
                               PoiRecord("p2", GeoPoint(3.0, 4.0), "n1", [Unwritable()])]),)),
}


@pytest.mark.parametrize("name", sorted(TABLE_WRITERS))
def test_failed_table_write_keeps_previous_file(tmp_path, name):
    write, good, failing = TABLE_WRITERS[name]
    path = tmp_path / "table"
    write(path, *good)
    before = path.read_bytes()
    with pytest.raises((ValueError, TypeError)):
        write(path, *failing)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["table"]


# The column readers, their record-by-record references, and the header of
# the table they read.
COLUMN_READERS = {
    "sv_metadata": (read_sv_metadata, read_sv_records, "id,lat,lon,neighborhood_id"),
    "centroids": (read_centroids_csv, read_centroid_records, "id,lat,lon,city"),
}


def _clean_rows(rng, n: int) -> list[list[str]]:
    """Rows of cells holding the extremes floats can be written in: signed
    zeros and the range's ends, exponents, blanks and underscores, a quoted
    line break in an id, and empty neighborhood ids and city tags."""
    special = ["-0.0", "90", "-90.0", "1e-300", " 37.5 ", "3_7.5", "+12.25"]
    rows = []
    for i in range(n):
        lat = special[i] if i < len(special) else repr(float(rng.uniform(-90, 90)))
        lon = ["180", "-180.0", "1E2"][i] if i < 3 else repr(float(rng.uniform(-180, 180)))
        rid = f"r{i:03d}" if i != 4 else "r\n004"
        rows.append([rid, lat, lon, "" if i % 5 == 2 else f"t{i % 3}"])
    return rows


def _write_rows(path, header: str, rows: list[list[str]]) -> None:
    path.write_text(header + "\n" + fileio.csv_text(rows), encoding="utf-8", newline="")


# Faults a row can take: each replaces the row's cells.
FAULTS = {
    "short": lambda r: r[:2],
    "lat-unparsable": lambda r: [r[0], "x", *r[2:]],
    "lon-unparsable": lambda r: [r[0], r[1], "4..2", *r[3:]],
    "lat-91": lambda r: [r[0], "91", *r[2:]],
    "lon-beyond": lambda r: [r[0], r[1], "-180.5", *r[3:]],
    "lat-nan": lambda r: [r[0], "nan", *r[2:]],
    "lon-1e999": lambda r: [r[0], r[1], "1e999", *r[3:]],
    "both-out": lambda r: [r[0], "1e999", "nan", *r[3:]],
}
CENTROID_FAULTS = {
    "id-slash": lambda r: ["a/b", *r[1:]],
    "city-slash": lambda r: [*r[:3], "x/y"],
    "id-nul": lambda r: ["a\0b", *r[1:]],
}


@pytest.mark.parametrize("name", sorted(COLUMN_READERS))
class TestColumnReadersMatchRecordReaders:
    """The column readers return the record readers' rows as columns, with
    the same float64 bits, and refuse a bad table with the same exception
    and message: the first bad row in file order is the one named."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_clean_table(self, tmp_path, name, seed):
        read, reference, header = COLUMN_READERS[name]
        path = tmp_path / "table.csv"
        _write_rows(path, header, _clean_rows(np.random.default_rng(seed), 40))
        _same_columns(read(path), columns_of_records(reference(path)))

    @pytest.mark.parametrize("seed", range(24))
    def test_faults_at_random_rows_in_both_orders(self, tmp_path, name, seed):
        read, reference, header = COLUMN_READERS[name]
        rng = np.random.default_rng([seed, 7])
        faults = {**FAULTS, **(CENTROID_FAULTS if name == "centroids" else {})}
        kinds = sorted(faults)
        # Each fault alone, then each with a second picked at random.
        picked = [kinds[seed % len(kinds)]] + [kinds[rng.integers(len(kinds))]] * (seed // len(kinds) % 2)
        rows = _clean_rows(rng, 30)
        at = sorted(rng.choice(len(rows), size=len(picked), replace=False).tolist())
        for order in (picked, picked[::-1]):
            bad = [list(r) for r in rows]
            for row, kind in zip(at, order):
                bad[row] = faults[kind](bad[row])
            path = tmp_path / "table.csv"
            _write_rows(path, header, bad)
            with pytest.raises(ValidationError) as want:
                reference(path)
            with pytest.raises(ValidationError) as got:
                read(path)
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value)), order
