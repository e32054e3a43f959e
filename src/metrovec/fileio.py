"""On-disk formats: feature tables, embedding checkpoints, and the CSV schemas.

Feature binary (magic GVFEAT01): u32 row count, u32 dim (at least 1), then
row-major little-endian float32, rows in ascending-id order matching the
metadata CSV.
Embedding checkpoint (magic GVEMB002): u32 rows R, u32 dim, u64 text length
T; then T bytes of UTF-8 holding the R row ids, each ended by a newline; then
the row-major little-endian float32 matrix. A GVEMB001 checkpoint (its ids in
a ".ids" file beside it) is a StageOrderError: re-run the stage.

Bag table (magic GVBAGS01), every neighborhood's bag of POI tokens in CSR
form: u32 rows R, u32 vocabulary size V, u64 nnz, u64 text length T; then T
bytes of UTF-8 holding the R row ids (ascending) and the V tokens (ascending,
so a token's id is its position), each ended by a newline; then R + 1
little-endian int64 row pointers, rising from 0 to nnz; nnz int32 token ids,
strictly ascending within each row and in [0, V); nnz int64 counts, each at
least 1. Row r's bag is the ids and counts between pointers r and r + 1. The
reader checks every one of these conditions.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import operator
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, StageOrderError, ValidationError
from .geo import GeoPoint

FEATURE_MAGIC = b"GVFEAT01"
EMBEDDING_MAGIC = b"GVEMB002"
BAGS_MAGIC = b"GVBAGS01"
_FEATURE_HEADER = struct.Struct("<II")
_EMBEDDING_HEADER = struct.Struct("<IIQ")
_BAGS_HEADER = struct.Struct("<IIQQ")
# What the names in a block are, singular and plural, for the errors about it.
_EMBEDDING_NAMES = ("id", "ids")
_BAGS_NAMES = ("id and token", "ids and tokens")


@dataclass(frozen=True, eq=False)
class BagTable:
    """Neighborhood bags as one CSR table, the content of a GVBAGS01 file:
    row r is the bag of ``row_ids[r]``, the token ids
    ``token_ids[indptr[r]:indptr[r + 1]]`` (positions in ``tokens``) and
    their ``counts``."""

    row_ids: list[str]
    tokens: list[str]
    indptr: np.ndarray  # int64, R + 1
    token_ids: np.ndarray  # int64, nnz
    counts: np.ndarray  # int64, nnz


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextlib.contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open a temporary file beside ``path`` for writing and move it over
    ``path`` when the block ends without error; on error the temporary file
    is removed and any previous ``path`` stays as it was. This guards against
    a process dying mid-write, not against power loss (there is no fsync)."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_binary(path, magic: bytes, header: struct.Struct, fields: tuple, *parts: bytes) -> None:
    """Write the parts atomically, making ``path``'s directory if need be:
    the callers have refused their data by now, so a refusal makes none."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path) as fh:
        fh.writelines([magic, header.pack(*fields), *parts])


def _check_binary(path, data: bytes, magic: bytes, header: struct.Struct, payload_bytes) -> tuple[tuple, int]:
    """The header fields of a binary file's bytes and the offset its payload
    starts at, once the magic, the header's length and the payload's length
    (``payload_bytes(*fields)``) are checked."""
    head = data[:len(magic)]
    if head != magic:
        raise FormatError(f"{path}: bad magic {head!r}, expected {magic!r}")
    start = len(magic) + header.size
    if len(data) < start:
        raise FormatError(f"{path}: truncated header, {len(data) - len(magic)} of {header.size} bytes")
    fields = header.unpack_from(data, len(magic))
    expected = payload_bytes(*fields)
    if len(data) - start != expected:
        raise FormatError(f"{path}: expected {expected} payload bytes, found {len(data) - start}")
    return fields, start


def _encode_names(path, names: list, what: tuple[str, str]) -> bytes:
    """The newline-ended UTF-8 block of ``names``; a name holding a newline
    or a lone surrogate is refused, before the caller writes anything."""
    try:
        text = "".join(name + "\n" for name in names).encode("utf-8")
    except UnicodeEncodeError as exc:
        bad = exc.object[max(0, exc.start - 20):exc.end + 20]
        raise ValidationError(f"{path}: one of the {what[1]} in {bad!r} is not valid Unicode text") from None
    if text.count(b"\n") != len(names):
        raise ValidationError(f"{path}: one of the {what[1]} holds a newline")
    return text


def _decode_names(path, text: bytes, count: int, what: tuple[str, str]) -> list[str]:
    try:
        names = text.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: the {what[0]} block is not UTF-8 text ({exc.reason})") from None
    if names.pop() != "" or len(names) != count:
        raise FormatError(f"{path}: expected {count} newline-ended {what[1]}")
    return names


def write_feature_bin(path, ids: list[str], features: np.ndarray) -> None:
    if list(ids) != sorted(ids):
        raise ValidationError("feature rows must be written in ascending id order")
    if features.shape[0] != len(ids):
        raise ValidationError(f"{features.shape[0]} feature rows but {len(ids)} ids")
    _write_binary(path, FEATURE_MAGIC, _FEATURE_HEADER, features.shape, np.asarray(features, "<f4").tobytes())


def read_feature_bin(path) -> np.ndarray:
    data = Path(path).read_bytes()
    (rows, dim), at = _check_binary(path, data, FEATURE_MAGIC, _FEATURE_HEADER, lambda r, d: 4 * r * d)
    if dim == 0:
        raise FormatError(f"{path}: dim 0, no feature column")
    return np.frombuffer(data, "<f4", rows * dim, at).reshape(rows, dim).astype(np.float32)


def write_features_csv(path, ids: list[str], features: np.ndarray) -> None:
    header = ["id"] + [f"f{i + 1}" for i in range(features.shape[1])]
    rows = np.asarray(features, dtype=np.float64).tolist()
    _write_csv(path, header, ([rid, *map(repr, row)] for rid, row in zip(ids, rows)))


def read_features_csv(path) -> tuple[list[str], np.ndarray]:
    rows = _read_csv(path, lambda h: h[0] == "id", "header starting with 'id'", "feature")
    width = len(next(rows)) - 1
    if width == 0:
        raise FormatError(f"{path}: no feature column after 'id'")
    ids, values = [], []
    for lineno, row in rows:
        if len(row) - 1 != width:
            raise FormatError(f"{path}:{lineno}: expected {width} feature values, got {len(row) - 1}")
        ids.append(row[0])
        values.append(_floats(path, lineno, row[1:]))
    return ids, np.array(values, dtype=np.float32)


def write_embeddings(path, ids: list, matrix: np.ndarray) -> None:
    """Checkpoint of the rows of ``matrix`` and their ids; refuses, before
    writing anything, an id that the names block cannot hold and a matrix
    holding a value that is non-finite or does not fit in float32."""
    if matrix.shape[0] != len(ids):
        raise ValidationError(f"{matrix.shape[0]} embedding rows but {len(ids)} ids")
    with np.errstate(over="ignore"):
        stored = np.asarray(matrix, dtype="<f4")
    if not np.isfinite(stored).all():
        raise ValidationError(f"{path}: embedding values are non-finite or outside the float32 range")
    text = _encode_names(path, ids, _EMBEDDING_NAMES)
    _write_binary(path, EMBEDDING_MAGIC, _EMBEDDING_HEADER, (*stored.shape, len(text)), text, stored.tobytes())


def read_embeddings(path) -> tuple[list[str], np.ndarray]:
    data = Path(path).read_bytes()
    if data.startswith(b"GVEMB001"):
        raise StageOrderError(f"{path} is a checkpoint of the old GVEMB001 format; re-run the stage that wrote it")
    (rows, dim, text_len), at = _check_binary(path, data, EMBEDDING_MAGIC, _EMBEDDING_HEADER,
                                              lambda r, d, t: t + 4 * r * d)
    ids = _decode_names(path, data[at:at + text_len], rows, _EMBEDDING_NAMES)
    return ids, np.frombuffer(data, "<f4", rows * dim, at + text_len).reshape(rows, dim).astype(np.float32)


def write_bags(path, table: BagTable) -> None:
    text = _encode_names(path, table.row_ids + table.tokens, _BAGS_NAMES)
    _write_binary(path, BAGS_MAGIC, _BAGS_HEADER,
                  (len(table.row_ids), len(table.tokens), len(table.token_ids), len(text)), text,
                  np.asarray(table.indptr, "<i8").tobytes(), np.asarray(table.token_ids, "<i4").tobytes(),
                  np.asarray(table.counts, "<i8").tobytes())


def read_bags(path) -> BagTable:
    data = Path(path).read_bytes()
    (rows, vocab, nnz, text_len), start = _check_binary(path, data, BAGS_MAGIC, _BAGS_HEADER,
                                                        lambda r, v, n, t: t + 8 * (r + 1) + 12 * n)
    names = _decode_names(path, data[start:start + text_len], rows + vocab, _BAGS_NAMES)
    row_ids, tokens = names[:rows], names[rows:]
    for what, seq in (("row ids", row_ids), ("tokens", tokens)):
        if not all(map(operator.lt, seq, seq[1:])):
            raise FormatError(f"{path}: {what} are not sorted and distinct")
    at = start + text_len
    indptr = np.frombuffer(data, "<i8", rows + 1, at).astype(np.int64)
    token_ids = np.frombuffer(data, "<i4", nnz, at + 8 * (rows + 1)).astype(np.int64)
    counts = np.frombuffer(data, "<i8", nnz, at + 8 * (rows + 1) + 4 * nnz).astype(np.int64)
    if indptr[0] != 0 or indptr[-1] != nnz or (np.diff(indptr) < 0).any():
        raise FormatError(f"{path}: row pointers do not rise from 0 to {nnz}")
    if nnz and (token_ids.min() < 0 or token_ids.max() >= vocab):
        raise FormatError(f"{path}: a token id is outside [0, {vocab})")
    # Ids rise within a row; the step from one row into the next may fall.
    rising = np.diff(token_ids) > 0
    starts = indptr[1:-1]
    rising[starts[(starts > 0) & (starts < nnz)] - 1] = True
    if not rising.all():
        raise FormatError(f"{path}: token ids are not strictly ascending within a row")
    if (counts < 1).any():
        raise FormatError(f"{path}: a token count is below 1")
    return BagTable(row_ids, tokens, indptr, token_ids, counts)


def write_embeddings_tsv(path, ids: list, matrix: np.ndarray) -> None:
    """One ``id<TAB>v1<TAB>...`` line per row, written atomically; refuses,
    before writing anything, an id holding a tab or a line break, which
    that layout cannot hold."""
    bad = next((rid for rid in ids if {"\t", "\r", "\n"} & set(rid)), None)
    if bad is not None:
        raise ValidationError(f"{path}: id {bad!r} holds a tab or a line break, which a TSV line cannot hold")
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for rid, row in zip(ids, matrix):
            fh.write(rid + "\t" + "\t".join(repr(float(v)) for v in row) + "\n")


def write_sv_metadata(path, ids: list[str], lat: np.ndarray, lon: np.ndarray, neighborhood_ids: list) -> None:
    _write_csv(path, ["id", "lat", "lon", "neighborhood_id"],
               ([rid, repr(y), repr(x), nid or ""]
                for rid, y, x, nid in zip(ids, lat.tolist(), lon.tolist(), neighborhood_ids)))


def read_sv_metadata(path) -> tuple[list[str], np.ndarray, np.ndarray, list[str | None]]:
    """(ids, lat, lon, neighborhood ids or None), in file order."""
    rows = _read_csv(path, lambda h: [c.strip() for c in h[:4]] == ["id", "lat", "lon", "neighborhood_id"],
                     "header id,lat,lon,neighborhood_id", "street-view")
    next(rows)
    return _point_table(path, rows, "street view", 4, "4", lambda lineno, row: row[3] or None)


def write_centroids_csv(path, ids: list[str], lat: np.ndarray, lon: np.ndarray, cities: list[str | None]) -> None:
    has_city = any(cities)
    _write_csv(path, ["id", "lat", "lon", "city"] if has_city else ["id", "lat", "lon"],
               ([cid, repr(y), repr(x)] + ([city or ""] if has_city else [])
                for cid, y, x, city in zip(ids, lat.tolist(), lon.tolist(), cities)))


def read_centroids_csv(path) -> tuple[list[str], np.ndarray, np.ndarray, list[str | None]]:
    """(ids, lat, lon, city tags or None), in file order."""
    rows = _read_csv(path, lambda h: [c.strip() for c in h[:3]] == ["id", "lat", "lon"],
                     "header id,lat,lon[,city]", "centroid")
    header = next(rows)
    has_city = len(header) > 3 and header[3].strip() == "city"

    def city(lineno, row):
        tag = row[3] if has_city and len(row) > 3 and row[3] else None
        # Both go into report file names (``similar``'s query and --from-city).
        for kind, name in (("id", row[0]), ("city tag", tag or "")):
            if splits_a_path(name):
                raise ValidationError(f"{path}:{lineno}: centroid {kind} {name!r} holds a path separator or NUL")
        return tag
    return _point_table(path, rows, "centroid", 3, "at least 3", city)


def write_targets_csv(path, ids: list[str], names: list[str], values: np.ndarray) -> None:
    rows = np.asarray(values, dtype=np.float64).tolist()
    _write_csv(path, ["neighborhood_id"] + list(names), ([rid, *map(repr, row)] for rid, row in zip(ids, rows)))


def read_targets_csv(path) -> tuple[list[str], list[str], np.ndarray]:
    """(neighborhood ids, target names, N x T value matrix)."""
    rows = _read_csv(path, lambda h: len(h) >= 2, "a header with an id column and >= 1 target column", "target")
    header = next(rows)
    ids, values = [], []
    for lineno, row in rows:
        if len(row) != len(header):
            raise FormatError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
        ids.append(row[0])
        values.append(_floats(path, lineno, row[1:]))
    return ids, [h.strip() for h in header[1:]], np.array(values, dtype=np.float64)


def splits_a_path(name: str) -> bool:
    """Whether ``name``, made part of a file name, would split or end it: it
    holds "/", NUL, ``os.sep`` or ``os.altsep``."""
    return bool({"/", "\0", os.sep, os.altsep} & set(name))


def csv_text(rows) -> str:
    """The rows of an iterable as CSV text, in ``csv.writer``'s default
    dialect: \\r\\n line ends, a cell quoted when it holds ``,``, ``"``,
    \\r or \\n. The text is for a file opened with ``newline=""``."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _write_csv(path, header: list[str], rows) -> None:
    """A header and the rows of an iterable, through ``csv.writer`` (so with
    \\r\\n line ends), written atomically."""
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path, header_ok, expected: str, what: str):
    """Yield the header, then (line number, cells) of each non-blank row, one
    row at a time so that a large table is never held as text. A row's line
    number is the line it starts on: a quoted cell may hold line breaks. A
    header that ``header_ok`` refuses, or a table without rows, is a
    FormatError ("expected <expected>", "no <what> rows"), and so is text that
    is not UTF-8 or a row that ``csv.reader`` refuses (an unclosed quote runs
    into its field size limit)."""
    lineno = 1
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or not header_ok(header):
                raise FormatError(f"{path}: expected {expected}")
            yield header
            empty = True
            lineno = reader.line_num + 1
            for row in reader:
                if row:
                    empty = False
                    yield lineno, row
                lineno = reader.line_num + 1
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise FormatError(f"{path}:{lineno}: unreadable CSV row: {exc}") from None
    if empty:
        raise FormatError(f"{path}: no {what} rows")


def _floats(path, lineno: int, cells: list[str]) -> list[float]:
    try:
        return [float(v) for v in cells]
    except ValueError as exc:
        raise FormatError(f"{path}:{lineno}: {exc}") from None


def _point_table(path, rows, what: str, least: int, columns: str, last) -> tuple:
    """(ids, float64 lat, float64 lon, last column) of (line number, cells)
    rows; ``last(lineno, row)`` checks a row and gives its last column. The
    first bad row in file order is named. The range check runs on all rows at
    once, its error worded by ``GeoPoint`` for the row, ``what`` and its id."""
    linenos, ids, lat, lon, lasts = [], [], [], [], []

    def check_range():
        # NaN fails every comparison, and an infinity the range.
        bad = np.flatnonzero(~((np.abs(lat) <= 90.0) & (np.abs(lon) <= 180.0)))
        if bad.size:
            i = int(bad[0])
            try:
                GeoPoint(float(lat[i]), float(lon[i]))
            except ValidationError as exc:
                raise ValidationError(f"{path}:{linenos[i]} ({what} {ids[i]!r}): {exc}") from None
    try:
        for lineno, row in rows:
            if len(row) < least:
                raise FormatError(f"{path}:{lineno}: expected {columns} columns, got {len(row)}")
            lasts.append(last(lineno, row))
            try:
                y, x = float(row[1]), float(row[2])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            linenos.append(lineno)
            ids.append(row[0])
            lat.append(y)
            lon.append(x)
    except ValidationError:
        check_range()  # a bad row before this one comes first
        raise
    check_range()
    return ids, np.array(lat, dtype=np.float64), np.array(lon, dtype=np.float64), lasts
