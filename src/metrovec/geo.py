"""Geographic points, great-circle distance, the exact all-points k-nearest-
neighbor query, and nearest-centroid assignment.

Distances are haversine on a sphere of radius 6,371,000 m. The index stores
its points sorted by latitude and splits that order into about sqrt(n)
equal-height latitude bands. ``SpatialIndex.k_nearest`` answers every point
at once, one band of queries at a time: the band's queries share a window of
bands, widened until the R * delta-lat lower bound, taken from the sorted
latitudes just outside the window, proves no unscanned point can enter any
result, so each row is identical to a brute-force scan, including tie order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

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


def _haversine_block(qlat, qlon, qcos, lat, lon, cos) -> np.ndarray:
    """(queries x points) haversine distances in meters from latitude and
    longitude vectors in degrees and the cosines of the latitudes. Degrees
    are subtracted before the radian conversion, as the scalar haversine
    the tests compare against does, so tie order matches a brute-force scan."""
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
        lat = np.array([p.lat for _, p in points], dtype=np.float64)
        # Rows are stored in ascending latitude order: self._order[pos] is the
        # input row at sorted position pos, and every array below is indexed
        # by sorted position.
        self._order = np.argsort(lat, kind="stable")
        self._lat = lat[self._order]
        self._lon = np.array([p.lon for _, p in points], dtype=np.float64)[self._order]
        self._cos_lat = np.cos(np.radians(self._lat))

        # Tie rank: position of each row's id in ascending id order.
        rank = np.empty(len(ids), dtype=np.int64)
        rank[sorted(range(len(ids)), key=lambda i: ids[i])] = np.arange(len(ids))
        self._id_rank = rank[self._order]

        # About sqrt(n) latitude bands of equal height: band b is the sorted
        # positions _band_start[b]:_band_start[b + 1], the points whose
        # (lat - min) / height truncates to b. With zero span all share band 0.
        n = len(ids)
        self._n_bands = max(1, int(math.isqrt(n)))
        height = float(self._lat[-1] - self._lat[0]) / self._n_bands or 1.0
        self._band_start = np.searchsorted((self._lat - self._lat[0]) / height,
                                           np.arange(self._n_bands + 1))
        self._band_start[-1] = n

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> list:
        return list(self._ids)

    def _distance_block(self, qpos: np.ndarray, pos: np.ndarray) -> np.ndarray:
        # (queries x points), both given as sorted positions
        return _haversine_block(self._lat[qpos], self._lon[qpos], self._cos_lat[qpos],
                                self._lat[pos], self._lon[pos], self._cos_lat[pos])

    def _nearest(self, qpos: np.ndarray, lo: int, hi: int, k: int) -> np.ndarray:
        """(len(qpos), k) input rows of each query's k nearest other points,
        ascending by (distance, id); 1 <= k < len(self).

        All queries share one window of bands, starting at lo..hi (which must
        hold every query) and widened by one band on each side until, for
        every query, the k-th distance is below the latitude bound of the
        unscanned points. A window wider than one query needs only adds points
        farther than its k-th neighbor, so each row equals a brute-force scan.
        """
        n, last = len(self._ids), self._n_bands - 1
        dist = np.empty((qpos.size, 0))
        done_lo = done_hi = self._band_start[lo]  # positions already in ``dist``
        while True:
            start, stop = int(self._band_start[lo]), int(self._band_start[hi + 1])
            width = stop - start
            if qpos.size > 1 and qpos.size * width > _BLOCK_FLOATS:
                parts = np.array_split(qpos, -(-qpos.size * width // _BLOCK_FLOATS))
                return np.concatenate([self._nearest(part, lo, hi, k) for part in parts])
            dist = np.concatenate([self._distance_block(qpos, np.arange(start, done_lo)), dist,
                                   self._distance_block(qpos, np.arange(done_hi, stop))], axis=1)
            done_lo, done_hi = start, stop
            dist[np.arange(qpos.size), qpos - start] = np.inf
            if lo == 0 and hi == last:
                break
            if width > k:
                # The nearest unscanned latitudes are the sorted ones just
                # outside the window.
                qlat = self._lat[qpos]
                gap_lo = qlat - self._lat[start - 1] if start > 0 else np.inf
                gap_hi = self._lat[stop] - qlat if stop < n else np.inf
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
        cand_pos = cand + start
        order = np.lexsort((self._id_rank[cand_pos], np.take_along_axis(dist, cand, axis=1)), axis=1)
        return self._order[np.take_along_axis(cand_pos, order[:, :k], axis=1)]

    def k_nearest(self, k: int) -> np.ndarray:
        """(n, min(k, n - 1)) int64 matrix: row i holds the index rows of
        point i's nearest other points, ascending by (distance, id). Queries
        run one latitude band at a time."""
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        n = len(self._ids)
        k = min(k, n - 1)
        out = np.empty((n, k), dtype=np.int64)
        if k:
            for b in range(self._n_bands):
                qpos = np.arange(self._band_start[b], self._band_start[b + 1])
                if qpos.size:
                    out[self._order[qpos]] = self._nearest(qpos, b, b, k)
        return out


def build_index(points: list[tuple[object, GeoPoint]]) -> SpatialIndex:
    return SpatialIndex(points)


def assign_neighborhood(points: list[GeoPoint], centroids: list[tuple[object, GeoPoint]]) -> list:
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
