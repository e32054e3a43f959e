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
        order = sorted(range(len(ids)), key=lambda i: ids[i])
        self._id_rank = np.empty(len(ids), dtype=np.int64)
        for rank, row in enumerate(order):
            self._id_rank[row] = rank

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
        self._band_rows = [np.flatnonzero(band == b) for b in range(self._n_bands)]
        self._band_of_row = band

        band_max = np.full(self._n_bands, -np.inf)
        band_min = np.full(self._n_bands, np.inf)
        for b, rows in enumerate(self._band_rows):
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

    def point(self, pid) -> GeoPoint:
        row = self._row_of.get(pid)
        if row is None:
            raise NotFoundError(f"unknown point id {pid!r}")
        return GeoPoint(float(self._lat[row]), float(self._lon[row]))

    def _distances_to(self, qrow: int, rows: np.ndarray) -> np.ndarray:
        # Mirrors haversine_distance exactly (degrees subtracted before the
        # radian conversion) so tie order matches a scalar brute-force scan.
        dphi = np.radians(self._lat[rows] - self._lat[qrow])
        dlam = np.radians(self._lon[rows] - self._lon[qrow])
        s = np.sin(dphi / 2.0) ** 2 + self._cos_lat[qrow] * self._cos_lat[rows] * np.sin(dlam / 2.0) ** 2
        np.clip(s, 0.0, 1.0, out=s)
        return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(s))

    def k_nearest(self, query_id, k: int) -> list:
        """The k ids nearest to ``query_id`` (excluding it), ascending by
        (distance, id). Returns all other points when fewer than k exist."""
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        qrow = self._row_of.get(query_id)
        if qrow is None:
            raise NotFoundError(f"unknown query id {query_id!r}")

        qlat = self._lat[qrow]
        lo = hi = int(self._band_of_row[qrow])
        cand_rows: list[np.ndarray] = []
        cand_dist: list[np.ndarray] = []

        def scan(b: int):
            rows = self._band_rows[b]
            if rows.size:
                cand_rows.append(rows)
                cand_dist.append(self._distances_to(qrow, rows))

        scan(lo)
        while True:
            rows = np.concatenate(cand_rows) if cand_rows else np.empty(0, dtype=np.int64)
            dist = np.concatenate(cand_dist) if cand_dist else np.empty(0)
            mask = rows != qrow
            rows, dist = rows[mask], dist[mask]
            exhausted = lo == 0 and hi == self._n_bands - 1
            if rows.size >= k or exhausted:
                gap_lo = qlat - self._prefix_max_lat[lo - 1] if lo > 0 else np.inf
                gap_hi = self._suffix_min_lat[hi + 1] - qlat if hi < self._n_bands - 1 else np.inf
                bound_m = EARTH_RADIUS_M * math.radians(min(gap_lo, gap_hi))
                if exhausted or (rows.size >= k and _kth_best(dist, k) < bound_m - _PRUNE_SLACK_M):
                    break
            if lo > 0:
                lo -= 1
                scan(lo)
            if hi < self._n_bands - 1:
                hi += 1
                scan(hi)

        order = np.lexsort((self._id_rank[rows], dist))
        return [self._ids[rows[i]] for i in order[:k]]


def _kth_best(dist: np.ndarray, k: int) -> float:
    if dist.size <= k:
        return float(dist.max())
    return float(np.partition(dist, k - 1)[k - 1])


def build_index(points: list[tuple[object, GeoPoint]]) -> SpatialIndex:
    return SpatialIndex(points)


def assign_neighborhood(point: GeoPoint, centroids: list[tuple[object, GeoPoint]]):
    """Id of the haversine-nearest centroid; ties broken by ascending id."""
    if not centroids:
        raise ValidationError("empty centroid list")
    best = None
    for cid, cpoint in centroids:
        d = haversine_distance(point, cpoint)
        if best is None or (d, cid) < best:
            best = (d, cid)
    return best[1]
