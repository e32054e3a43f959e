"""POI textualization, neighborhood bags-of-words, vocabulary, negative sampling.

A POI becomes a bag of tokens: "cat_"-prefixed category phrases, a half-star
rating bucket, a price tier, and review words deduplicated within the POI.
Neighborhood bags are multiset unions over their POIs; duplicates across POIs
are kept on purpose because token frequency carries signal.

``ingest`` tokenizes the corpus once: ``build_bag_table`` turns the POIs into
one CSR ``fileio.BagTable`` of token ids and counts per neighborhood, which is
``ingested/bags.bin``. The training and evaluation commands read that table
and take its rows as ``Bag``s (``bags_of``) and its vocabulary from it
(``build_vocabulary``). ``build_neighborhood_bag`` gives one neighborhood's
bag as a ``Counter`` of token strings: the reference a table row is checked
against.
"""

from __future__ import annotations

import functools
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


# Both token functions are cached: a corpus repeats few distinct category
# phrases and ratings across many POIs. The caches are bounded because a
# process may tokenize many corpora.
@functools.lru_cache(maxsize=1 << 16)
def _category_token(phrase: str) -> str:
    return "cat_" + "_".join(phrase.lower().split())


@functools.lru_cache(maxsize=1 << 12)
def _rating_token(rating: float) -> str:
    bucket = math.floor(rating * 2.0 + 0.5) / 2.0  # nearest half star, halves round up
    bucket = min(5.0, max(1.0, bucket))
    return f"rate_{bucket:.1f}".replace(".", "_")


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


def build_bag_table(pois: list[PoiRecord], row_ids: list[str]) -> BagTable:
    """The bags of the neighborhoods ``row_ids`` (sorted, distinct) as one
    CSR table: row r holds the tokens of ``build_neighborhood_bag`` over the
    POIs of ``row_ids[r]``, as ids into the table's sorted ``tokens`` in
    ascending order, with their counts. Every POI must belong to one of
    ``row_ids``."""
    row_of = {nid: r for r, nid in enumerate(row_ids)}
    flat: list[str] = []
    poi_rows, lengths = [], []
    try:
        for poi in pois:
            tokens = _poi_tokens(poi)
            flat += tokens
            poi_rows.append(row_of[poi.neighborhood_id])
            lengths.append(len(tokens))
    except KeyError as exc:
        raise ValidationError(f"POI {poi.id!r} belongs to an unknown neighborhood {exc.args[0]!r}") from None
    tokens = sorted(set(flat))
    index = {t: i for i, t in enumerate(tokens)}
    ids = np.fromiter(map(index.__getitem__, flat), dtype=np.int64, count=len(flat))
    rows = np.repeat(np.array(poi_rows, dtype=np.int64), lengths)
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
    """Token string <-> id bijection plus corpus frequency per token.

    Token ids follow lexicographic token order, so identical corpora always
    produce identical vocabularies.
    """

    tokens: tuple[str, ...]
    frequencies: np.ndarray  # int64, total occurrences across all bags

    def __post_init__(self):
        object.__setattr__(self, "_id_of", {t: i for i, t in enumerate(self.tokens)})

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        idx = self._id_of.get(token)
        if idx is None:
            raise ValidationError(f"token {token!r} not in vocabulary")
        return idx

    def __contains__(self, token: str) -> bool:
        return token in self._id_of


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
    out: dict[int, np.ndarray] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                token = parts[0]
                if token.startswith(_PRETRAINED_SKIP_PREFIXES) or token not in vocab:
                    continue
                if len(parts) - 1 != dim:
                    raise FormatError(f"{path}:{lineno}: expected {dim} values for {token!r}, got {len(parts) - 1}")
                try:
                    vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
                except ValueError as exc:
                    raise FormatError(f"{path}:{lineno}: {exc}") from None
                if not np.isfinite(vec).all():
                    raise FormatError(f"{path}:{lineno}: non-finite value in the vector for {token!r}")
                out.setdefault(vocab.id_of(token), vec)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return out


def _string_list(obj: dict, key: str) -> list[str]:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise TypeError(f"field {key!r} must be a list, got {type(value).__name__}")
    return [str(v) for v in value]


def read_poi_jsonl(path) -> list[PoiRecord]:
    """One PoiRecord per JSON line; fields id, lat, lon, neighborhood_id,
    categories, rating, price, reviews. Errors carry line numbers."""
    records: list[PoiRecord] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from None
                rec_id = obj.get("id", "<missing id>") if isinstance(obj, dict) else "<not an object>"
                try:
                    records.append(PoiRecord(
                        id=str(obj["id"]),
                        geo=GeoPoint(float(obj["lat"]), float(obj["lon"])),
                        neighborhood_id=(None if obj.get("neighborhood_id") in (None, "")
                                         else str(obj["neighborhood_id"])),
                        categories=_string_list(obj, "categories"),
                        rating=None if obj.get("rating") is None else float(obj["rating"]),
                        price=None if obj.get("price") is None else int(obj["price"]),
                        reviews=_string_list(obj, "reviews"),
                    ))
                except KeyError as exc:
                    raise FormatError(f"{path}:{lineno} (POI {rec_id!r}): missing field {exc}") from None
                except (TypeError, ValueError) as exc:
                    raise FormatError(f"{path}:{lineno} (POI {rec_id!r}): {exc}") from None
                except ValidationError as exc:
                    raise ValidationError(f"{path}:{lineno} (POI {rec_id!r}): {exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return records


def write_poi_jsonl(path, pois: list[PoiRecord]) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for poi in pois:
            # Keys in sorted order, so the default (cached C) encoder writes
            # what sort_keys=True would without building an encoder per line.
            fh.write(json.dumps({
                "categories": poi.categories,
                "id": poi.id,
                "lat": poi.geo.lat,
                "lon": poi.geo.lon,
                "neighborhood_id": poi.neighborhood_id,
                "price": poi.price,
                "rating": poi.rating,
                "reviews": poi.reviews,
            }) + "\n")
