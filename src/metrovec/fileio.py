"""On-disk formats: feature tables, embedding checkpoints, and the CSV schemas.

Feature binary (magic GVFEAT01): u32 row count, u32 dim, then row-major
little-endian float32, rows in ascending-id order matching the metadata CSV.
Embedding checkpoint (magic GVEMB001): u32 rows, u32 dim, row-major
little-endian float32, with a "<path>.ids" text sidecar of one id per line.

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
import operator
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError
from .geo import GeoPoint

FEATURE_MAGIC = b"GVFEAT01"
EMBEDDING_MAGIC = b"GVEMB001"
BAGS_MAGIC = b"GVBAGS01"
_BAGS_HEADER = struct.Struct("<IIQQ")


@dataclass
class StreetViewRecord:
    id: str
    geo: GeoPoint
    neighborhood_id: str | None
    features: np.ndarray | None = None


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


def ids_sidecar_path(path) -> Path:
    p = Path(path)
    return p.with_name(p.name + ".ids")


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


def _write_matrix(path, magic: bytes, matrix: np.ndarray) -> None:
    rows, dim = matrix.shape
    with atomic_open(path) as fh:
        fh.write(magic)
        fh.write(struct.pack("<II", rows, dim))
        fh.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def _read_matrix(path, magic: bytes) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(len(magic))
        if head != magic:
            raise FormatError(f"{path}: bad magic {head!r}, expected {magic!r}")
        header = fh.read(8)
        if len(header) < 8:
            raise FormatError(f"{path}: truncated header, {len(header)} of 8 bytes")
        rows, dim = struct.unpack("<II", header)
        payload = fh.read()
    expected = rows * dim * 4
    if len(payload) != expected:
        raise FormatError(f"{path}: expected {expected} payload bytes, found {len(payload)}")
    return np.frombuffer(payload, dtype="<f4").reshape(rows, dim).astype(np.float32)


def write_feature_bin(path, ids: list[str], features: np.ndarray) -> None:
    if list(ids) != sorted(ids):
        raise ValidationError("feature rows must be written in ascending id order")
    if features.shape[0] != len(ids):
        raise ValidationError(f"{features.shape[0]} feature rows but {len(ids)} ids")
    _write_matrix(path, FEATURE_MAGIC, features)


def read_feature_bin(path) -> np.ndarray:
    return _read_matrix(path, FEATURE_MAGIC)


def write_features_csv(path, ids: list[str], features: np.ndarray) -> None:
    header = ["id"] + [f"f{i + 1}" for i in range(features.shape[1])]
    _write_csv(path, header, ([rid] + [repr(float(v)) for v in row] for rid, row in zip(ids, features)))


def read_features_csv(path) -> tuple[list[str], np.ndarray]:
    rows = _read_csv(path, lambda h: h[0] == "id", "header starting with 'id'", "feature")
    width = len(next(rows)) - 1
    ids, values = [], []
    for lineno, row in rows:
        if len(row) - 1 != width:
            raise FormatError(f"{path}:{lineno}: expected {width} feature values, got {len(row) - 1}")
        ids.append(row[0])
        values.append(_floats(path, lineno, row[1:]))
    return ids, np.array(values, dtype=np.float32)


def write_embeddings(path, ids: list, matrix: np.ndarray) -> None:
    """Checkpoint plus id sidecar; refuses, before writing anything, a matrix
    holding a value that is non-finite or does not fit in float32."""
    if matrix.shape[0] != len(ids):
        raise ValidationError(f"{matrix.shape[0]} embedding rows but {len(ids)} ids")
    with np.errstate(over="ignore"):
        stored = np.asarray(matrix, dtype="<f4")
    if not np.isfinite(stored).all():
        raise ValidationError(f"{path}: embedding values are non-finite or outside the float32 range")
    _write_matrix(path, EMBEDDING_MAGIC, stored)
    with atomic_open(ids_sidecar_path(path), "w", encoding="utf-8") as fh:
        for rid in ids:
            fh.write(f"{rid}\n")


def read_embeddings(path) -> tuple[list[str], np.ndarray]:
    matrix = _read_matrix(path, EMBEDDING_MAGIC)
    sidecar = ids_sidecar_path(path)
    try:
        with open(sidecar, "r", encoding="utf-8") as fh:
            ids = [line.rstrip("\n") for line in fh if line.strip()]
    except OSError as exc:
        raise FormatError(f"{sidecar}: missing id sidecar ({exc})") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{sidecar}: not UTF-8 text ({exc.reason})") from None
    if len(ids) != matrix.shape[0]:
        raise FormatError(f"{sidecar}: {len(ids)} ids for {matrix.shape[0]} embedding rows")
    return ids, matrix


def write_bags(path, table: BagTable) -> None:
    names = table.row_ids + table.tokens
    try:
        text = "".join(name + "\n" for name in names).encode("utf-8")
    except UnicodeEncodeError as exc:
        bad = exc.object[max(0, exc.start - 20):exc.end + 20]
        raise ValidationError(f"{path}: an id or token in {bad!r} is not valid Unicode text") from None
    if text.count(b"\n") != len(names):
        raise ValidationError(f"{path}: a neighborhood id or token holds a newline")
    with atomic_open(path) as fh:
        fh.write(BAGS_MAGIC)
        fh.write(_BAGS_HEADER.pack(len(table.row_ids), len(table.tokens), len(table.token_ids), len(text)))
        fh.write(text)
        fh.write(np.ascontiguousarray(table.indptr, dtype="<i8").tobytes())
        fh.write(np.ascontiguousarray(table.token_ids, dtype="<i4").tobytes())
        fh.write(np.ascontiguousarray(table.counts, dtype="<i8").tobytes())


def read_bags(path) -> BagTable:
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:len(BAGS_MAGIC)]
    if magic != BAGS_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {BAGS_MAGIC!r}")
    start = len(BAGS_MAGIC) + _BAGS_HEADER.size
    if len(data) < start:
        raise FormatError(f"{path}: truncated header, {len(data) - len(BAGS_MAGIC)} of {_BAGS_HEADER.size} bytes")
    rows, vocab, nnz, text_len = _BAGS_HEADER.unpack_from(data, len(BAGS_MAGIC))
    expected = text_len + 8 * (rows + 1) + 12 * nnz
    if len(data) - start != expected:
        raise FormatError(f"{path}: expected {expected} payload bytes, found {len(data) - start}")
    try:
        names = data[start:start + text_len].decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: the id and token block is not UTF-8 text ({exc.reason})") from None
    if names.pop() != "" or len(names) != rows + vocab:
        raise FormatError(f"{path}: expected {rows + vocab} newline-ended ids and tokens")
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
    with open(path, "w", encoding="utf-8") as fh:
        for rid, row in zip(ids, matrix):
            fh.write(rid + "\t" + "\t".join(repr(float(v)) for v in row) + "\n")


def write_sv_metadata(path, records: list[StreetViewRecord]) -> None:
    _write_csv(path, ["id", "lat", "lon", "neighborhood_id"],
               ([r.id, repr(r.geo.lat), repr(r.geo.lon), r.neighborhood_id or ""] for r in records))


def read_sv_metadata(path) -> list[StreetViewRecord]:
    rows = _read_csv(path, lambda h: [c.strip() for c in h[:4]] == ["id", "lat", "lon", "neighborhood_id"],
                     "header id,lat,lon,neighborhood_id", "street-view")
    next(rows)
    records = []
    for lineno, row in rows:
        if len(row) < 4:
            raise FormatError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
        records.append(StreetViewRecord(id=row[0], geo=_geo(path, lineno, row, "street view"),
                                        neighborhood_id=row[3] or None))
    return records


def write_centroids_csv(path, centroids: list[tuple[str, GeoPoint, str | None]]) -> None:
    has_city = any(city for _, _, city in centroids)
    _write_csv(path, ["id", "lat", "lon", "city"] if has_city else ["id", "lat", "lon"],
               ([cid, repr(point.lat), repr(point.lon)] + ([city or ""] if has_city else [])
                for cid, point, city in centroids))


def read_centroids_csv(path) -> list[tuple[str, GeoPoint, str | None]]:
    rows = _read_csv(path, lambda h: [c.strip() for c in h[:3]] == ["id", "lat", "lon"],
                     "header id,lat,lon[,city]", "centroid")
    header = next(rows)
    has_city = len(header) > 3 and header[3].strip() == "city"
    out = []
    for lineno, row in rows:
        if len(row) < 3:
            raise FormatError(f"{path}:{lineno}: expected at least 3 columns, got {len(row)}")
        city = row[3] if has_city and len(row) > 3 and row[3] else None
        out.append((row[0], _geo(path, lineno, row, "centroid"), city))
    return out


def write_targets_csv(path, ids: list[str], names: list[str], values: np.ndarray) -> None:
    _write_csv(path, ["neighborhood_id"] + list(names),
               ([rid] + [repr(float(v)) for v in row] for rid, row in zip(ids, values)))


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


def _write_csv(path, header: list[str], rows) -> None:
    """A header and the rows of an iterable, through ``csv.writer`` (so with
    \\r\\n line ends), written atomically."""
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path, header_ok, expected: str, what: str):
    """Yield the header, then (line number, cells) of each non-blank row, one
    row at a time so that a large table is never held as text. A header that
    ``header_ok`` refuses, or a table without rows, is a FormatError
    ("expected <expected>", "no <what> rows"), and so is text that is not UTF-8."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or not header_ok(header):
                raise FormatError(f"{path}: expected {expected}")
            yield header
            empty = True
            for lineno, row in enumerate(reader, start=2):
                if row:
                    empty = False
                    yield lineno, row
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if empty:
        raise FormatError(f"{path}: no {what} rows")


def _floats(path, lineno: int, cells: list[str]) -> list[float]:
    try:
        return [float(v) for v in cells]
    except ValueError as exc:
        raise FormatError(f"{path}:{lineno}: {exc}") from None


def _geo(path, lineno: int, row: list[str], what: str) -> GeoPoint:
    """The point in a row's lat and lon cells; a range error names the row
    as ``what`` and its id. Parses its two cells itself rather than through
    ``_floats``: a street-view table has a row per image."""
    try:
        return GeoPoint(float(row[1]), float(row[2]))
    except ValueError as exc:
        raise FormatError(f"{path}:{lineno}: {exc}") from None
    except ValidationError as exc:
        raise ValidationError(f"{path}:{lineno} ({what} {row[0]!r}): {exc}") from None
