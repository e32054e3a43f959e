"""Geographic points, great-circle distance, the exact all-points k-nearest-
neighbor query, and nearest-centroid assignment, on coordinate columns.

Distances are haversine on a sphere of radius 6,371,000 m. The index grids
its points into square latitude x longitude cells of about 16 points, with
longitudes measured from the widest empty arc of the sorted longitudes, so a
city across +-180 degrees is as compact as any. ``SpatialIndex.k_nearest``
scores each cell's queries against its 3 x 3 block of cells, widened by one
ring until every k-th distance is below the lesser of an R * delta-lat and a
longitude bound on the unscanned points: each row equals a brute-force scan.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

EARTH_RADIUS_M = 6_371_000.0

# Safety slack (meters) when comparing the k-th best distance against the
# lower bound on unscanned points; absorbs float rounding so the pruning
# can never drop a point that brute force would keep.
_PRUNE_SLACK_M = 1e-6

# Most floats in one (queries x window) distance block; a cell whose block
# would be larger (e.g. every point at one spot) is split into chunks.
_BLOCK_FLOATS = 1 << 20

_CELL_POINTS = 16  # points per grid cell, on average over the bounding box


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
    """Immutable k-nearest-neighbor index over ids and their latitude and
    longitude columns in degrees, in range; index row i is point i.

    Ties in distance are broken by ascending id so queries are reproducible.
    Queries are read-only and safe to run concurrently.
    """

    def __init__(self, ids: list, lat, lon):
        self._ids, n = list(ids), len(ids)
        if not n:
            raise ValidationError("cannot build a spatial index from an empty point list")
        if len(set(ids)) != n:
            raise ValidationError(f"duplicate point ids: {sorted(p for p, m in Counter(ids).items() if m > 1)!r}")
        lat, lon = np.asarray(lat, dtype=np.float64), np.asarray(lon, dtype=np.float64)
        if lat.shape != (n,) or lon.shape != (n,):
            raise ValidationError(f"{n} ids but coordinates of shapes {lat.shape} and {lon.shape}")

        # x: degrees east of the first longitude past the widest empty arc.
        srt = np.sort(lon)
        x = (lon - srt[(np.diff(srt, append=srt[0] + 360.0).argmax() + 1) % n]) % 360.0

        # About n / _CELL_POINTS cells, square once x is scaled by cos(middle
        # lat). Rows (columns) are floors of (lat - min) / height (x / width).
        span_lat, span_x, cells = float(lat.max() - lat.min()), float(x.max()), max(1, n // _CELL_POINTS)
        wide = span_x * math.cos(math.radians((lat.max() + lat.min()) / 2.0))
        rows = round(math.sqrt(cells * span_lat / wide)) if wide > 0 else cells * (span_lat > 0)
        self._rows = nr = min(max(rows, 1), cells)
        self._cols = nc = cells // nr if wide > 0 else 1
        row = np.minimum((lat - lat.min()) / (span_lat / nr or 1.0), nr - 1).astype(np.int64)
        col = np.minimum(x / (span_x / nc or 1.0), nc - 1).astype(np.int64)

        # Points are stored cell by cell, row-major: _order[pos] is the input row
        # at position pos, and cell j holds positions _cell_start[j]:_cell_start[j + 1].
        self._order = np.argsort(row * nc + col, kind="stable")
        row, col = row[self._order], col[self._order]
        self._cell_start = np.searchsorted(row * nc + col, np.arange(nr * nc + 1))
        self._lat, self._lon, self._x = lat[self._order], lon[self._order], x[self._order]
        self._cos_lat = np.cos(np.radians(self._lat))
        # For the bounds, each coordinate sorted and padded with -inf and inf:
        # the first j rows (columns) hold its first _cell_start[j * nc] (_col_start[j]).
        self._lat_sorted = np.pad(np.sort(lat), 1, constant_values=(-np.inf, np.inf))
        self._x_sorted = np.pad(np.sort(x), 1, constant_values=(-np.inf, np.inf))
        self._col_start = np.searchsorted(np.sort(col), np.arange(nc + 1))
        self._arc = min(360.0 - span_x, 180.0)  # least angle the other way round
        self._near = self._bound(np.arange(n), row, col, 1)  # each point's bound at w = 1
        # Tie rank: position of each row's id in ascending id order.
        self._id_rank = np.argsort(sorted(range(n), key=ids.__getitem__))[self._order]

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> list:
        return list(self._ids)

    def _bound(self, qpos: np.ndarray, r, c, w: int) -> np.ndarray:
        """Lower bound (m) on each query's distance to the points outside the
        (2w + 1)-square of cells around cell (r, c), given as ints or as arrays
        aligned with qpos: R * delta-lat to other rows, and to other columns
        2R asin(sqrt(cos lat_q * least cos lat * sin^2(g / 2))), g their angle."""
        lo, hi = self._cell_start[np.clip([r - w, r + w + 1], 0, self._rows) * self._cols]
        a, b = self._col_start[np.clip([c - w, c + w + 1], 0, self._cols)]
        qlat, xq, lats, xs = self._lat[qpos], self._x[qpos], self._lat_sorted, self._x_sorted
        by_lat = EARTH_RADIUS_M * np.radians(np.minimum(qlat - lats[lo], lats[hi + 1] - qlat))
        # cos is concave, so its least over the window rows is at an end.
        least_cos = np.cos(np.radians(np.maximum(np.abs(lats[lo + 1]), np.abs(lats[hi]))))
        g = np.radians(np.minimum(np.minimum(xq - xs[a], xs[b + 1] - xq), self._arc))
        s = self._cos_lat[qpos] * least_cos * np.sin(g / 2.0) ** 2
        return np.minimum(by_lat, 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(s)))

    def _nearest(self, qpos: np.ndarray, r: int, c: int, k: int, w: int = 1) -> np.ndarray:
        """(len(qpos), k) input rows of each query's k nearest other points,
        ascending by (distance, id); 1 <= k < len(self). The queries of cell
        (r, c) share the (2w + 1)-square window around it, widened by one ring
        until each k-th distance is below the bound on the unscanned points."""
        nr, nc, cs = self._rows, self._cols, self._cell_start
        while True:
            c0, c1 = max(c - w, 0), min(c + w, nc - 1)
            pos = np.concatenate([np.arange(cs[i + c0], cs[i + c1 + 1])
                                  for i in range(max(r - w, 0) * nc, min(r + w, nr - 1) * nc + 1, nc)])
            if qpos.size > 1 and qpos.size * pos.size > _BLOCK_FLOATS:
                parts = np.array_split(qpos, -(-qpos.size * pos.size // _BLOCK_FLOATS))
                return np.concatenate([self._nearest(part, r, c, k, w) for part in parts])
            dist = _haversine_block(self._lat[qpos], self._lon[qpos], self._cos_lat[qpos],
                                    self._lat[pos], self._lon[pos], self._cos_lat[pos])
            dist[np.arange(qpos.size), np.searchsorted(pos, qpos)] = np.inf
            if pos.size > k:
                kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
                bound = self._near[qpos] if w == 1 else self._bound(qpos, r, c, w)
                if pos.size == len(self._ids) or (kth[:, 0] < bound - _PRUNE_SLACK_M).all():
                    break
            w += 1

        # Sort the entries at or below each row's k-th distance, ties included,
        # by (row, distance, id): the first k of each row are its result.
        rows, cols = np.nonzero(dist <= kth)
        order = np.lexsort((self._id_rank[pos[cols]], dist[rows, cols], rows))
        counts = np.bincount(rows, minlength=qpos.size)
        return self._order[pos[cols[order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]]]]

    def k_nearest(self, k: int) -> np.ndarray:
        """(n, min(k, n - 1)) int64 matrix: row i holds the index rows of
        point i's nearest other points, ascending by (distance, id). Queries
        run one cell at a time."""
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        n = len(self._ids)
        k = min(k, n - 1)
        out = np.empty((n, k), dtype=np.int64)
        if k:
            for cell in np.flatnonzero(np.diff(self._cell_start)):
                qpos = np.arange(self._cell_start[cell], self._cell_start[cell + 1])
                out[self._order[qpos]] = self._nearest(qpos, *divmod(int(cell), self._cols), k)
        return out


def build_index(points: list[tuple[object, GeoPoint]]) -> SpatialIndex:
    return SpatialIndex([pid for pid, _ in points], [p.lat for _, p in points], [p.lon for _, p in points])


def assign_neighborhood(lat, lon, centroid_ids: list, centroid_lat, centroid_lon) -> list:
    """Id of the haversine-nearest centroid of each point, both as coordinate
    columns; ties broken by ascending id. Distances come in (points x
    centroids) blocks of at most _BLOCK_FLOATS floats."""
    if not len(centroid_ids):
        raise ValidationError("empty centroid list")
    # Columns in ascending id order, so argmin's first minimum is the smallest id.
    order = sorted(range(len(centroid_ids)), key=centroid_ids.__getitem__)
    ids = [centroid_ids[j] for j in order]
    clat, clon = (np.asarray(c, dtype=np.float64)[order] for c in (centroid_lat, centroid_lon))
    ccos = np.cos(np.radians(clat))
    plat, plon = np.asarray(lat, dtype=np.float64), np.asarray(lon, dtype=np.float64)
    pcos = np.cos(np.radians(plat))
    step = max(1, _BLOCK_FLOATS // len(ids))
    out = []
    for lo in range(0, len(plat), step):
        hi = lo + step
        best = _haversine_block(plat[lo:hi], plon[lo:hi], pcos[lo:hi], clat, clon, ccos).argmin(axis=1)
        out += [ids[j] for j in best.tolist()]
    return out
