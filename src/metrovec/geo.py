"""Geographic points, great-circle distance, and exact k-nearest-neighbor queries.

Distances are haversine on a sphere of radius 6,371,000 m. The index buckets
points into uniform latitude bands and widens the scanned window until the
R * delta-lat lower bound proves no unscanned point can enter the result, so
query answers are always identical to a brute-force scan, including tie order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotFoundError, ValidationError

EARTH_RADIUS_M = 6_371_000.0

# Safety slack (meters) when comparing the k-th best distance against the
# latitude lower bound of unscanned bands; absorbs float rounding so the
# band pruning can never drop a point that brute force would keep.
_PRUNE_SLACK_M = 1e-6

# Most floats in one (queries x window) distance block; a band whose block
# would be larger (e.g. every point on one latitude) is split into chunks.
_BLOCK_FLOATS = 1 << 20


@dataclass(frozen=True)
class GeoPoint:
    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValidationError(f"non-finite coordinates ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise ValidationError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValidationError(f"longitude {self.lon} outside [-180, 180]")


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters between two points."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    s = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    s = min(1.0, max(0.0, s))
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(s))


def _haversine_block(qlat, qlon, qcos, lat, lon, cos) -> np.ndarray:
    """(queries x points) haversine distances in meters from latitude and
    longitude vectors in degrees and the cosines of the latitudes. Mirrors
    haversine_distance exactly (degrees subtracted before the radian
    conversion) so tie order matches a scalar brute-force scan."""
    dphi = np.radians(lat - qlat[:, None])
    dlam = np.radians(lon - qlon[:, None])
    s = np.sin(dphi / 2.0) ** 2 + qcos[:, None] * cos * np.sin(dlam / 2.0) ** 2
    np.clip(s, 0.0, 1.0, out=s)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(s))


class SpatialIndex:
    """Immutable k-nearest-neighbor index over (id, GeoPoint) pairs.

    Ties in distance are broken by ascending id so queries are reproducible.
    Build once via :func:`build_index`; queries are read-only and safe to run
    concurrently.
    """

    def __init__(self, points: list[tuple[object, GeoPoint]]):
        if not points:
            raise ValidationError("cannot build a spatial index from an empty point list")
        ids = [pid for pid, _ in points]
        if len(set(ids)) != len(ids):
            seen, dupes = set(), set()
            for pid in ids:
                (dupes if pid in seen else seen).add(pid)
            raise ValidationError(f"duplicate point ids: {sorted(dupes)!r}")

        self._ids = ids
        self._row_of = {pid: i for i, pid in enumerate(ids)}
        self._lat = np.array([p.lat for _, p in points], dtype=np.float64)
        self._lon = np.array([p.lon for _, p in points], dtype=np.float64)
        self._cos_lat = np.cos(np.radians(self._lat))

        # Tie rank: position of each row's id in ascending id order.
        self._id_rank = np.empty(len(ids), dtype=np.int64)
        self._id_rank[sorted(range(len(ids)), key=lambda i: ids[i])] = np.arange(len(ids))

        # Latitude bands. Band extents are taken from the member points
        # themselves (prefix max / suffix min), so the pruning bound depends
        # only on actual data, never on band-boundary arithmetic.
        n = len(ids)
        self._n_bands = max(1, int(math.isqrt(n)))
        lat_min, lat_max = float(self._lat.min()), float(self._lat.max())
        span = lat_max - lat_min
        if span <= 0.0:
            band = np.zeros(n, dtype=np.int64)
            self._n_bands = 1
        else:
            h = span / self._n_bands
            band = np.clip(((self._lat - lat_min) / h).astype(np.int64), 0, self._n_bands - 1)
        self._band_of_row = band
        # Rows sorted by band, so bands lo..hi are the slice
        # _band_order[_band_start[lo]:_band_start[hi + 1]].
        self._band_order = np.argsort(band, kind="stable")
        self._band_start = np.searchsorted(band[self._band_order], np.arange(self._n_bands + 1))
        self._order_pos = np.empty(n, dtype=np.int64)
        self._order_pos[self._band_order] = np.arange(n)

        band_max = np.full(self._n_bands, -np.inf)
        band_min = np.full(self._n_bands, np.inf)
        for b in range(self._n_bands):
            rows = self._band_rows(b, b)
            if rows.size:
                band_max[b] = self._lat[rows].max()
                band_min[b] = self._lat[rows].min()
        self._prefix_max_lat = np.maximum.accumulate(band_max)
        self._suffix_min_lat = np.minimum.accumulate(band_min[::-1])[::-1]

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> list:
        return list(self._ids)

    def _band_rows(self, lo: int, hi: int) -> np.ndarray:
        return self._band_order[self._band_start[lo]:self._band_start[hi + 1]]

    def _distance_block(self, qrows: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # (queries x rows)
        return _haversine_block(self._lat[qrows], self._lon[qrows], self._cos_lat[qrows],
                                self._lat[rows], self._lon[rows], self._cos_lat[rows])

    def _nearest(self, qrows: np.ndarray, lo: int, hi: int, k: int) -> np.ndarray:
        """(len(qrows), k) rows of each query's k nearest other points,
        ascending by (distance, id); 1 <= k < len(self).

        All queries share one window of bands, starting at lo..hi (which must
        hold every query) and widened by one band on each side until, for
        every query, the k-th distance is below the latitude bound of the
        unscanned bands. A window wider than one query needs only adds points
        farther than its k-th neighbor, so each row equals a brute-force scan.
        """
        last = self._n_bands - 1
        dist = np.empty((qrows.size, 0))
        done_lo, done_hi = lo, lo - 1  # bands already in ``dist``
        while True:
            width = int(self._band_start[hi + 1] - self._band_start[lo])
            if qrows.size > 1 and qrows.size * width > _BLOCK_FLOATS:
                parts = np.array_split(qrows, -(-qrows.size * width // _BLOCK_FLOATS))
                return np.concatenate([self._nearest(part, lo, hi, k) for part in parts])
            left = self._band_rows(lo, done_lo - 1)
            right = self._band_rows(done_hi + 1, hi)
            dist = np.concatenate([self._distance_block(qrows, left), dist,
                                   self._distance_block(qrows, right)], axis=1)
            done_lo, done_hi = lo, hi
            dist[np.arange(qrows.size), self._order_pos[qrows] - self._band_start[lo]] = np.inf
            if lo == 0 and hi == last:
                break
            if width > k:
                qlat = self._lat[qrows]
                gap_lo = qlat - self._prefix_max_lat[lo - 1] if lo > 0 else np.inf
                gap_hi = self._suffix_min_lat[hi + 1] - qlat if hi < last else np.inf
                bound_m = EARTH_RADIUS_M * np.radians(np.minimum(gap_lo, gap_hi))
                kth = np.partition(dist, k - 1, axis=1)[:, k - 1]
                if (kth < bound_m - _PRUNE_SLACK_M).all():
                    break
            lo, hi = max(lo - 1, 0), min(hi + 1, last)

        # Sort only the c smallest entries of each row, with c the most
        # entries any row has at or below its k-th distance: they hold every
        # row's result, ties at the k-th distance included.
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
        c = int((dist <= kth).sum(axis=1).max())
        cand = np.argpartition(dist, c - 1, axis=1)[:, :c]
        cand_rows = self._band_rows(lo, hi)[cand]
        order = np.lexsort((self._id_rank[cand_rows], np.take_along_axis(dist, cand, axis=1)), axis=1)
        return np.take_along_axis(cand_rows, order[:, :k], axis=1)

    def k_nearest_rows(self, k: int) -> np.ndarray:
        """(n, min(k, n - 1)) int64 matrix: row i holds the index rows of
        point i's nearest other points, ascending by (distance, id), exactly
        as k_nearest orders them. Queries run one latitude band at a time."""
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        n = len(self._ids)
        k = min(k, n - 1)
        out = np.empty((n, k), dtype=np.int64)
        if k:
            for b in range(self._n_bands):
                qrows = self._band_rows(b, b)
                if qrows.size:
                    out[qrows] = self._nearest(qrows, b, b, k)
        return out

    def k_nearest(self, query_id, k: int) -> list:
        """The k ids nearest to ``query_id`` (excluding it), ascending by
        (distance, id). Returns all other points when fewer than k exist."""
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        qrow = self._row_of.get(query_id)
        if qrow is None:
            raise NotFoundError(f"unknown query id {query_id!r}")
        k = min(k, len(self._ids) - 1)
        if not k:
            return []
        b = int(self._band_of_row[qrow])
        return [self._ids[r] for r in self._nearest(np.array([qrow]), b, b, k)[0]]


def build_index(points: list[tuple[object, GeoPoint]]) -> SpatialIndex:
    return SpatialIndex(points)


def assign_neighborhoods(points: list[GeoPoint], centroids: list[tuple[object, GeoPoint]]) -> list:
    """Id of the haversine-nearest centroid of each point; ties broken by
    ascending id. Distances come in (points x centroids) blocks of at most
    _BLOCK_FLOATS floats."""
    if not centroids:
        raise ValidationError("empty centroid list")
    # Columns in ascending id order, so argmin's first minimum is the smallest id.
    centroids = sorted(centroids, key=lambda c: c[0])
    clat = np.array([c.lat for _, c in centroids], dtype=np.float64)
    clon = np.array([c.lon for _, c in centroids], dtype=np.float64)
    ccos = np.cos(np.radians(clat))
    plat = np.array([p.lat for p in points], dtype=np.float64)
    plon = np.array([p.lon for p in points], dtype=np.float64)
    pcos = np.cos(np.radians(plat))
    step = max(1, _BLOCK_FLOATS // len(centroids))
    out = []
    for lo in range(0, len(points), step):
        hi = lo + step
        best = _haversine_block(plat[lo:hi], plon[lo:hi], pcos[lo:hi], clat, clon, ccos).argmin(axis=1)
        out += [centroids[j][0] for j in best]
    return out


def assign_neighborhood(point: GeoPoint, centroids: list[tuple[object, GeoPoint]]):
    """Id of the haversine-nearest centroid; ties broken by ascending id."""
    return assign_neighborhoods([point], centroids)[0]
