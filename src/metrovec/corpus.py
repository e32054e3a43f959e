"""POI textualization, neighborhood bags-of-words, vocabulary, negative sampling.

A POI becomes a bag of tokens: "cat_"-prefixed category phrases, a half-star
rating bucket, a price tier, and review words deduplicated within the POI.
Neighborhood bags are multiset unions over their POIs; duplicates across POIs
are kept on purpose because token frequency carries signal.

``ingest`` reads the POI JSONL once, as columns (``read_poi_columns``, the
one POI parser, which also words the line-numbered error of the first bad
line), and tokenizes it once: ``build_bag_table`` turns the columns into one
CSR ``fileio.BagTable`` of token ids and counts per neighborhood, which is
``ingested/bags.bin``. The training and evaluation commands read that table
and take its rows as ``Bag``s (``bags_of``) and its vocabulary from it
(``build_vocabulary``).

``read_poi_jsonl`` gives the columns as one ``PoiRecord`` per POI, and
``build_neighborhood_bag`` one neighborhood's bag as a ``Counter`` of token
strings, the bag a table row is checked against; no command calls either.
``synth`` writes its POIs from columns too: ``write_poi_jsonl`` formats
each line itself, in the bytes ``json.dumps`` gives for the POI's object.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ValidationError
from .fileio import BagTable, atomic_open
from .geo import GeoPoint

# Maximal runs of [0-9a-z], at least two long and not all digits. The
# lookahead refuses a start whose digits reach the end of its run; every
# later start in such a run is all digits too, so no part of it matches.
_REVIEW_WORD = re.compile(r"(?![0-9]+(?![0-9a-z]))[0-9a-z]{2,}")
# Bytes that a run of [0-9a-z] is made of map to themselves, and NUL too;
# every other byte maps to a space.
_RUN_BYTES = bytes(b if chr(b) in "0123456789abcdefghijklmnopqrstuvwxyz\0" else 0x20 for b in range(256))
_PRETRAINED_SKIP_PREFIXES = ("cat_", "rate_", "price_")


@dataclass
class PoiRecord:
    id: str
    geo: GeoPoint
    neighborhood_id: str | None
    categories: list[str] = field(default_factory=list)
    rating: float | None = None
    price: int | None = None
    reviews: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.rating is not None and not (1.0 <= self.rating <= 5.0):
            raise ValidationError(f"POI {self.id!r}: rating {self.rating} outside [1.0, 5.0]")
        if self.price is not None and not (1 <= self.price <= 4):
            raise ValidationError(f"POI {self.id!r}: price tier {self.price} outside [1, 4]")


@dataclass(frozen=True, eq=False)
class PoiColumns:
    """A POI corpus as flat columns, one entry per POI unless noted: what
    ``PoiRecord``s hold, without a record, point or list per POI."""

    ids: list[str]
    lat: np.ndarray  # float64
    lon: np.ndarray  # float64
    neighborhood_ids: list[str | None]  # None where blank or absent
    phrases: list[str]  # every category phrase, POI after POI
    phrase_counts: np.ndarray  # int64: how many of ``phrases`` each POI has
    ratings: np.ndarray  # float64, NaN where absent
    prices: np.ndarray  # int64, 0 where absent
    reviews: list[str]  # each POI's reviews joined by spaces

    def __len__(self) -> int:
        return len(self.ids)


def _category_token(phrase: str) -> str:
    return "cat_" + "_".join(phrase.lower().split())


def _half_star(value):
    """The nearest half star in [1, 5]; halves round up. Elementwise on an
    array."""
    return np.clip(np.floor(value * 2.0 + 0.5) / 2.0, 1.0, 5.0)


def _rating_token(rating: float) -> str:
    return f"rate_{_half_star(rating):.1f}".replace(".", "_")


def _review_tokens(reviews: list[str]) -> set[str]:
    # One pass over the lower-cased reviews joined by spaces finds the same
    # words as one pass per review: a space ends every run.
    return set(_REVIEW_WORD.findall(" ".join(reviews).lower()))


def _poi_tokens(poi: PoiRecord) -> list[str]:
    """Tokens of one POI in bag order: categories, rating, price, then the
    sorted, deduplicated review words."""
    tokens = [_category_token(phrase) for phrase in poi.categories if phrase.strip()]
    if poi.rating is not None:
        tokens.append(_rating_token(poi.rating))
    if poi.price is not None:
        tokens.append(f"price_{poi.price}")
    tokens += sorted(_review_tokens(poi.reviews))
    return tokens


def build_neighborhood_bag(pois: list[PoiRecord]) -> Counter:
    """Multiset union of the per-POI token bags; duplicates across POIs
    preserved. Absent fields contribute no tokens; review words are
    deduplicated across the union of one POI's reviews."""
    if pois:
        nids = {p.neighborhood_id for p in pois}
        if len(nids) != 1:
            raise ValidationError(f"POIs span multiple neighborhoods: {sorted(map(str, nids))}")
    return Counter([token for poi in pois for token in _poi_tokens(poi)])


def _distinct_codes(values: list) -> tuple[list, np.ndarray]:
    """The distinct ``values`` in first-seen order, and the index of each
    value among them."""
    code_of = {v: i for i, v in enumerate(dict.fromkeys(values))}
    return list(code_of), np.fromiter(map(code_of.__getitem__, values), dtype=np.int64, count=len(values))


def _review_words(texts: list[str]):
    """The distinct review words of each text, as (words, text index, word
    index) with one entry per (text, word) pair; ``None`` stands in for a
    run that is not a word.

    ``_REVIEW_WORD``'s maximal runs, found for all texts at once: they are
    joined by " NUL " (a NUL inside a text becomes a space first; both end a
    run) and lowered, which comes first because it can turn a character into
    ASCII letters (Kelvin sign to "k"). Then every character outside [0-9a-z]
    is a space (a non-ASCII one is encoded as "?"), and one split gives the
    runs and a NUL between texts."""
    joined = " \0 ".join([text.replace("\0", " ") for text in texts]).lower()
    runs, codes = _distinct_codes(joined.encode("ascii", "replace").translate(_RUN_BYTES).split())
    words = [run.decode() if len(run) >= 2 and not run.isdigit() else None for run in runs]
    if b"\0" in runs:
        sep = codes == runs.index(b"\0")
        owner, codes = np.cumsum(sep)[~sep], codes[~sep]
    else:
        owner = np.zeros(len(codes), dtype=np.int64)
    width = max(len(words), 1)
    # Sorted distinct (text, word) keys. np.unique with counts sorts; without
    # them numpy 2 may hash, which is many times slower on int64 keys.
    keys = np.unique(owner * width + codes, return_counts=True)[0]
    return words, keys // width, keys % width


def build_bag_table(pois: PoiColumns, row_ids: list[str]) -> BagTable:
    """The bags of the neighborhoods ``row_ids`` (sorted, distinct) as one
    CSR table: row r holds the tokens of ``build_neighborhood_bag`` over the
    POIs of ``row_ids[r]``, as ids into the table's sorted ``tokens`` in
    ascending order, with their counts. Every POI must belong to one of
    ``row_ids``.

    Tokenized by column, not by POI: each distinct category phrase, rating
    and price becomes its token once, and one pass over all review texts
    finds their words."""
    row_of = {nid: r for r, nid in enumerate(row_ids)}
    nids = pois.neighborhood_ids
    try:
        poi_rows = np.fromiter(map(row_of.__getitem__, nids), dtype=np.int64, count=len(nids))
    except KeyError as exc:
        poi_id = pois.ids[nids.index(exc.args[0])]
        raise ValidationError(f"POI {poi_id!r} belongs to an unknown neighborhood {exc.args[0]!r}") from None

    # Per kind of token: (token of each code, or None for no token; POI
    # index and code of each occurrence).
    phrases, codes = _distinct_codes(pois.phrases)
    parts = [([_category_token(p) if p.strip() else None for p in phrases],
              np.repeat(np.arange(len(nids)), pois.phrase_counts), codes)]
    rated = np.flatnonzero(~np.isnan(pois.ratings))
    ratings, codes = np.unique(pois.ratings[rated], return_inverse=True)
    parts.append(([_rating_token(r) for r in ratings.tolist()], rated, codes))
    priced = np.flatnonzero(pois.prices)
    prices, codes = np.unique(pois.prices[priced], return_inverse=True)
    parts.append(([f"price_{p}" for p in prices.tolist()], priced, codes))
    parts.append(_review_words(pois.reviews))

    tokens = sorted({t for local, _, _ in parts for t in local if t is not None})
    index = {t: i for i, t in enumerate(tokens)}
    ids = np.concatenate([np.array([index.get(t, -1) for t in local], dtype=np.int64)[codes]
                          for local, _, codes in parts])
    rows = poi_rows[np.concatenate([poi for _, poi, _ in parts])]
    rows, ids = rows[ids >= 0], ids[ids >= 0]
    # One key per (row, token id), so np.unique sorts by row, then by id.
    width = max(len(tokens), 1)
    keys, counts = np.unique(rows * width + ids, return_counts=True)
    indptr = np.zeros(len(row_ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // width, minlength=len(row_ids)), out=indptr[1:])
    return BagTable(list(row_ids), tokens, indptr, keys % width, counts.astype(np.int64))


@dataclass(frozen=True, eq=False)
class Bag:
    """One neighborhood's bag in token-id space: its distinct token ids in
    ascending order and the count (>= 1) of each. ``len`` is the number of
    distinct tokens, so an empty bag is falsy."""

    ids: np.ndarray  # int64
    counts: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True, eq=False)
class Vocabulary:
    """The tokens, a token's id being its position in ``tokens``, plus
    corpus frequency per token.

    Token ids follow lexicographic token order, so identical corpora always
    produce identical vocabularies.
    """

    tokens: tuple[str, ...]
    frequencies: np.ndarray  # int64, total occurrences across all bags

    @property
    def size(self) -> int:
        return len(self.tokens)


def build_vocabulary(table: BagTable) -> Vocabulary:
    """The table's tokens with their corpus frequencies, the counts summed
    by token id."""
    if not table.tokens:
        raise ValidationError("cannot build a vocabulary: all bags are empty")
    freqs = np.zeros(len(table.tokens), dtype=np.int64)
    np.add.at(freqs, table.token_ids, table.counts)
    return Vocabulary(tokens=tuple(table.tokens), frequencies=freqs)


def bags_of(table: BagTable) -> dict[str, Bag]:
    """Row id -> its ``Bag``, views of the table's arrays."""
    bounds = table.indptr.tolist()
    return {nid: Bag(table.token_ids[a:b], table.counts[a:b])
            for nid, a, b in zip(table.row_ids, bounds, bounds[1:])}


class NegativeWordSampler:
    """Draws token ids outside a fixed context set with probability
    proportional to corpus frequency ** exponent.

    The cumulative table is the one ``Generator.choice(n, p=...)`` builds on
    every call, made once: a draw maps the same uniforms to the same ids."""

    def __init__(self, vocab: Vocabulary, context_ids, exponent: float = 0.5):
        with np.errstate(over="ignore"):  # an overflow is reported below
            weights = vocab.frequencies.astype(np.float64) ** exponent
        weights[np.fromiter(context_ids, dtype=np.int64)] = 0.0
        total = weights.sum()
        if total <= 0.0:
            raise ValidationError("context covers the entire vocabulary; no negative candidates")
        if not np.isfinite(total):
            raise ValidationError(f"frequency ** {exponent} overflows float64; lower the exponent")
        self._cdf = _inverse_cdf(weights / total)

    def draw(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        """Token ids in an array of shape ``size``."""
        return self._cdf.searchsorted(rng.random(size), side="right")


def _inverse_cdf(p: np.ndarray) -> np.ndarray:
    """Cumulative table of the probabilities ``p``, normalised to end at 1
    exactly as ``Generator.choice`` does, so that
    ``cdf.searchsorted(rng.random(size), side="right")`` equals
    ``rng.choice(len(p), size, p=p)`` draw for draw."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def load_pretrained_vectors(path, vocab: Vocabulary, dim: int) -> dict[int, np.ndarray]:
    """Map token id -> vector for vocabulary tokens found in a whitespace
    "token v1 ... vd" file. cat_/rate_/price_ tokens are never initialized
    from the file; the first occurrence of a token wins."""
    id_of = {token: i for i, token in enumerate(vocab.tokens)}
    out: dict[int, np.ndarray] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                token = parts[0]
                if token.startswith(_PRETRAINED_SKIP_PREFIXES) or token not in id_of:
                    continue
                if len(parts) - 1 != dim:
                    raise FormatError(f"{path}:{lineno}: expected {dim} values for {token!r}, got {len(parts) - 1}")
                try:
                    vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
                except ValueError as exc:
                    raise FormatError(f"{path}:{lineno}: {exc}") from None
                if not np.isfinite(vec).all():
                    raise FormatError(f"{path}:{lineno}: non-finite value in the vector for {token!r}")
                out.setdefault(id_of[token], vec)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return out


def read_poi_jsonl(path) -> list[PoiRecord]:
    """The POIs of ``read_poi_columns`` as one ``PoiRecord`` each, a POI's
    reviews as one text joined by spaces (the same review tokens)."""
    pois = read_poi_columns(path)
    bounds = [0, *np.cumsum(pois.phrase_counts).tolist()]
    return [PoiRecord(pid, GeoPoint(lat, lon), nid, pois.phrases[a:b],
                      None if math.isnan(rating) else rating, price or None, [text])
            for pid, lat, lon, nid, a, b, rating, price, text in zip(
                pois.ids, pois.lat.tolist(), pois.lon.tolist(), pois.neighborhood_ids, bounds, bounds[1:],
                pois.ratings.tolist(), pois.prices.tolist(), pois.reviews)]


def read_poi_columns(path) -> PoiColumns:
    """The POI JSONL file as ``PoiColumns``, in one pass; each line's dict is
    dropped once its fields are read, so the collector has no heap of records
    to walk. A line is one JSON object with fields id, lat, lon,
    neighborhood_id, categories, rating, price and reviews; blank lines are
    skipped. The first bad line raises a ``FormatError`` or
    ``ValidationError`` naming its line and POI; a range is checked by
    building the ``GeoPoint`` or ``PoiRecord`` whose check it fails."""
    scan = json.JSONDecoder().scan_once
    ids, lat, lon, nids, phrases, counts, ratings, prices, reviews = ([] for _ in range(9))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                # json.loads: JSON whitespace, one value, JSON whitespace. A
                # value never ends in whitespace, so stripping it first is the same.
                text = line.strip(" \t\n\r")
                try:
                    obj, end = scan(text, 0)
                    if end != len(text):
                        raise json.JSONDecodeError("Extra data", text, len(text) - len(text[end:].lstrip(" \t\n\r")))
                # StopIteration: no JSON value starts at its position. The
                # column counts in the file's line, leading blanks included.
                except (StopIteration, json.JSONDecodeError) as exc:
                    pos, msg = (exc.value, "Expecting value") if isinstance(exc, StopIteration) else (exc.pos, exc.msg)
                    if line.startswith("\ufeff"):  # worded as json.loads words it
                        msg = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
                    column = len(line) - len(line.lstrip(" \t\n\r")) + pos + 1
                    raise FormatError(f"{path}:{lineno}: invalid JSON at column {column}: {msg}") from None
                # An integer too long to convert (ValueError), nested too deep.
                except (ValueError, RecursionError) as exc:
                    raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from None
                try:
                    ids.append(str(obj["id"]))
                    y, x = float(obj["lat"]), float(obj["lon"])
                    if not (-90.0 <= y <= 90.0 and -180.0 <= x <= 180.0):
                        GeoPoint(y, x)
                    lat.append(y)
                    lon.append(x)
                    nid = obj.get("neighborhood_id")
                    nids.append(None if nid in (None, "") else str(nid))
                    categories = obj.get("categories", [])
                    if not isinstance(categories, list):
                        raise TypeError(f"field 'categories' must be a list, got {type(categories).__name__}")
                    phrases += map(str, categories)
                    counts.append(len(categories))
                    rating, price = obj.get("rating"), obj.get("price")
                    if rating is not None:
                        rating = float(rating)
                    if price is not None:
                        price = int(price)
                    texts = obj.get("reviews", [])
                    if not isinstance(texts, list):
                        raise TypeError(f"field 'reviews' must be a list, got {type(texts).__name__}")
                    reviews.append(" ".join(map(str, texts)))
                    if (rating is not None and not 1.0 <= rating <= 5.0
                            or price is not None and not 1 <= price <= 4):
                        PoiRecord(ids[-1], None, None, rating=rating, price=price)
                    ratings.append(rating)
                    prices.append(price or 0)
                # OverflowError: int() of an infinite price, float() of a huge integer.
                except (KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:
                    rec_id = obj.get("id", "<missing id>") if isinstance(obj, dict) else "<not an object>"
                    where = f"{path}:{lineno} (POI {rec_id!r})"
                    if isinstance(exc, KeyError):
                        raise FormatError(f"{where}: missing field {exc}") from None
                    raise (ValidationError if isinstance(exc, ValidationError) else FormatError)(
                        f"{where}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate POI ids")
    return PoiColumns(ids, np.array(lat, dtype=np.float64), np.array(lon, dtype=np.float64), nids, phrases,
                      np.array(counts, dtype=np.int64), np.array(ratings, dtype=np.float64),
                      np.array(prices, dtype=np.int64), reviews)


def write_poi_jsonl(path, pois: PoiColumns) -> None:
    """One line per POI, in the bytes of ``json.dumps`` of its sorted-key
    object: strings through ``json``'s own ASCII string encoder, numbers as
    ``repr``, ``null`` for an absent neighborhood id, rating or price, and
    the review text as a one-item list. Coordinates are finite."""
    quote = json.encoder.encode_basestring_ascii
    phrase = {p: quote(p) for p in dict.fromkeys(pois.phrases)}
    hood = {nid: "null" if nid is None else quote(nid) for nid in dict.fromkeys(pois.neighborhood_ids)}
    phrases = [phrase[p] for p in pois.phrases]
    bounds = [0, *np.cumsum(pois.phrase_counts).tolist()]
    lines = [f'{{"categories": [{", ".join(phrases[a:b])}], "id": {quote(pid)}, "lat": {y!r}, "lon": {x!r}, '
             f'"neighborhood_id": {hood[nid]}, "price": {price or "null"}, '
             f'"rating": {"null" if math.isnan(rating) else repr(rating)}, "reviews": [{quote(text)}]}}\n'
             for pid, y, x, nid, a, b, rating, price, text in zip(
                 pois.ids, pois.lat.tolist(), pois.lon.tolist(), pois.neighborhood_ids, bounds, bounds[1:],
                 pois.ratings.tolist(), pois.prices.tolist(), pois.reviews)]
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
