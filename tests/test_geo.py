"""Geographic distance and KNN index tests against independent oracles."""

import math

import numpy as np
import pytest
from oracles import band_k_nearest, haversine_distance

from metrovec import geo
from metrovec.errors import ValidationError
from metrovec.geo import GeoPoint, SpatialIndex, assign_neighborhood, build_index
from metrovec.synthcity import SynthConfig, generate_city

# Frozen before implementation from a 50-digit haversine evaluation
# (R = 6,371,000 m) of the (37.7749,-122.4194)-(37.7849,-122.4094) pair.
SF_PAIR_METERS = 1417.3252285690712
ANTIPODAL_METERS = 20015086.796020572  # pi * R


def brute_haversine(a: GeoPoint, b: GeoPoint) -> float:
    # atan2 formulation, deliberately a different code path than the package.
    p1, p2 = math.radians(a.lat), math.radians(b.lat)
    dp, dl = math.radians(b.lat - a.lat), math.radians(b.lon - a.lon)
    h = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 6_371_000.0 * 2 * math.atan2(math.sqrt(h), math.sqrt(max(0.0, 1.0 - h)))


def brute_k_nearest(points, query_id, k):
    q = dict(points)[query_id]
    ranked = sorted((brute_haversine(q, p), pid) for pid, p in points if pid != query_id)
    return [pid for _, pid in ranked[:k]]


def rows_as_ids(index, k):
    """The all-points query's rows, each as the list of its neighbors' ids."""
    ids = index.ids
    return [[ids[r] for r in row] for row in index.k_nearest(k)]


def assign(points: list[GeoPoint], centroids: list[tuple[str, GeoPoint]]) -> list:
    """``assign_neighborhood`` of points and (id, point) centroids, passed as
    their columns."""
    return assign_neighborhood([p.lat for p in points], [p.lon for p in points], [cid for cid, _ in centroids],
                               [c.lat for _, c in centroids], [c.lon for _, c in centroids])


def random_points(rng, n, lat_span=(36.5, 38.0), lon_span=(-122.8, -121.2)):
    return [(f"p{i:05d}", GeoPoint(float(rng.uniform(*lat_span)), float(rng.uniform(*lon_span))))
            for i in range(n)]


class TestHaversine:
    def test_identical_points_zero(self):
        assert haversine_distance(GeoPoint(0, 0), GeoPoint(0, 0)) == 0.0
        assert haversine_distance(GeoPoint(37.5, -122.1), GeoPoint(37.5, -122.1)) == 0.0

    def test_antipodal_equatorial(self):
        d = haversine_distance(GeoPoint(0, 0), GeoPoint(0, 180))
        assert abs(d - ANTIPODAL_METERS) < 1.0

    def test_sf_pair_matches_independent_oracle(self):
        d = haversine_distance(GeoPoint(37.7749, -122.4194), GeoPoint(37.7849, -122.4094))
        assert abs(d - SF_PAIR_METERS) < 0.01

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b, c = (GeoPoint(float(rng.uniform(-89, 89)), float(rng.uniform(-180, 180)))
                       for _ in range(3))
            assert haversine_distance(a, b) == haversine_distance(b, a)
            assert haversine_distance(a, b) <= haversine_distance(a, c) + haversine_distance(c, b) + 1e-6

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            GeoPoint(float("nan"), 0.0)
        with pytest.raises(ValidationError):
            GeoPoint(0.0, float("inf"))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValidationError):
            GeoPoint(0.0, -181.0)


class TestIndex:
    def test_single_point(self):
        idx = build_index([("only", GeoPoint(1.0, 2.0))])
        assert len(idx) == 1
        assert idx.k_nearest(3).shape == (1, 0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            build_index([("a", GeoPoint(0, 0)), ("a", GeoPoint(1, 1))])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            build_index([])

    def test_collinear_ordering(self):
        pts = [("A", GeoPoint(0, 0)), ("B", GeoPoint(0, 0.001)), ("C", GeoPoint(0, 0.01))]
        idx = build_index(pts)
        assert rows_as_ids(idx, 1)[0] == ["B"]
        assert rows_as_ids(idx, 2)[0] == ["B", "C"]

    def test_saturation_returns_all_others(self):
        pts = [(i, GeoPoint(0, 0.001 * i)) for i in range(4)]
        idx = build_index(pts)
        assert rows_as_ids(idx, 99)[0] == [1, 2, 3]

    def test_bad_k(self):
        idx = build_index([("a", GeoPoint(0, 0)), ("b", GeoPoint(1, 1))])
        with pytest.raises(ValidationError):
            idx.k_nearest(0)

    def test_matches_brute_force_city_scale(self):
        rng = np.random.default_rng(3)
        pts = random_points(rng, 500)
        idx = build_index(pts)
        for (qid, _), row in zip(pts, rows_as_ids(idx, 5)):
            assert row == brute_k_nearest(pts, qid, 5)

    def test_matches_brute_force_global(self):
        rng = np.random.default_rng(4)
        pts = [(i, GeoPoint(float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180))))
               for i in range(300)]
        idx = build_index(pts)
        for (qid, _), row in zip(pts, rows_as_ids(idx, 7)):
            assert row == brute_k_nearest(pts, qid, 7)

    def test_matches_brute_force_2000_points(self):
        rng = np.random.default_rng(12)
        pts = random_points(rng, 2000)
        idx = build_index(pts)
        lat = np.radians(np.array([p.lat for _, p in pts]))
        lon = np.radians(np.array([p.lon for _, p in pts]))
        ids = [pid for pid, _ in pts]
        rank = np.argsort(np.argsort(ids))

        def oracle(qrow, k):
            h = (np.sin((lat - lat[qrow]) / 2) ** 2
                 + np.cos(lat[qrow]) * np.cos(lat) * np.sin((lon - lon[qrow]) / 2) ** 2)
            d = 6_371_000.0 * 2 * np.arctan2(np.sqrt(h), np.sqrt(np.clip(1 - h, 0, None)))
            order = np.lexsort((rank, d))
            return [ids[i] for i in order if i != qrow][:k]

        rows = rows_as_ids(idx, 5)
        for qrow in range(0, 2000, 7):
            assert rows[qrow] == oracle(qrow, 5)

    def test_exact_ties_break_by_ascending_id(self):
        pts = [(5, GeoPoint(0.0, 0.0)), (9, GeoPoint(0.0, 0.002)), (2, GeoPoint(0.0, -0.002)),
               (7, GeoPoint(0.02, 0.0))]
        idx = build_index(pts)
        # ids 2 and 9 are exactly equidistant from 5
        assert rows_as_ids(idx, 2)[0] == [2, 9]

    def test_single_latitude_band_degenerate(self):
        # identical latitudes collapse the index to one band: pure scan path
        pts = [(i, GeoPoint(12.5, -50.0 + 0.01 * i)) for i in range(40)]
        idx = build_index(pts)
        for (qid, _), row in zip(pts, rows_as_ids(idx, 4)):
            assert row == brute_k_nearest(pts, qid, 4)

    def test_near_poles_and_antimeridian(self):
        rng = np.random.default_rng(13)
        pts = [(i, GeoPoint(float(rng.uniform(88.0, 90.0)),
                            float(rng.choice([-1, 1]) * rng.uniform(170.0, 180.0))))
               for i in range(60)]
        idx = build_index(pts)
        for (qid, _), row in zip(pts, rows_as_ids(idx, 5)):
            assert row == brute_k_nearest(pts, qid, 5)

    def test_repeat_queries_identical(self):
        rng = np.random.default_rng(5)
        pts = random_points(rng, 80)
        idx = build_index(pts)
        assert np.array_equal(idx.k_nearest(6), idx.k_nearest(6))


def tie_grid(n_side):
    # Binary-fraction coordinates: east/west (and diagonal) neighbors are at
    # exactly equal distances, so the id tie-break decides their order.
    return [(f"t{r:02d}{c:02d}", GeoPoint(10.0 + r / 1024, 20.0 + c / 1024))
            for r in range(n_side) for c in range(n_side)]


def duplicate_points(rng, n, n_sites):
    sites = [GeoPoint(float(rng.uniform(36.9, 37.1)), float(rng.uniform(-122.1, -121.9)))
             for _ in range(n_sites)]
    return [(f"d{i:03d}", sites[int(rng.integers(n_sites))]) for i in range(n)]


def two_clusters(rng, n_south, n_north):
    # 10 degrees apart in latitude, so the bands between them are empty.
    return [(f"{tag}{i:03d}", GeoPoint(lat + float(rng.uniform(0, 0.05)), float(rng.uniform(-122.1, -122.0))))
            for tag, lat, n in (("s", 30.0, n_south), ("n", 40.0, n_north)) for i in range(n)]


def band_edge_grid():
    # 17 x 16 points make 16 bands, each 1/1024 degree high: every row of the
    # grid lies exactly on a band edge.
    return [(f"e{r:02d}{c:02d}", GeoPoint(10.0 + r / 1024, 20.0 + c / 1024))
            for r in range(17) for c in range(16)]


class TestAllPointsKNN:
    @pytest.mark.parametrize("points,k", [
        (tie_grid(9), 4),
        (tie_grid(9), 8),
        (duplicate_points(np.random.default_rng(21), 60, 7), 5),
        (duplicate_points(np.random.default_rng(22), 40, 3), 15),
        ([(i, GeoPoint(12.5, -50.0 + 0.01 * i)) for i in range(40)], 4),
        (random_points(np.random.default_rng(23), 7), 5),
        (random_points(np.random.default_rng(24), 400), 10),
        (two_clusters(np.random.default_rng(26), 6, 58), 8),
        (band_edge_grid(), 6),
    ], ids=["tie_grid_k4", "tie_grid_k8", "duplicates_k5", "duplicates_k15",
            "single_band", "n_is_k_plus_2", "random_k10", "two_clusters_k8", "band_edge_grid_k6"])
    def test_matches_per_query_and_brute_force(self, points, k):
        index = build_index(points)
        for (qid, _), row in zip(points, rows_as_ids(index, k)):
            assert row == brute_k_nearest(points, qid, k)

    def test_chunked_cell_matches_per_query_and_oracle(self, monkeypatch):
        # 1100 points at one spot share one cell, whose block against its
        # 3 x 3 window would hold more than 1100**2 > 2**20 distances, so its
        # queries run in chunks. 200 points around it fill the other cells.
        rng = np.random.default_rng(25)
        points = ([(f"c{i:04d}", GeoPoint(40.0, -74.0)) for i in range(1100)]
                  + [(f"r{i:04d}", GeoPoint(float(rng.uniform(39.5, 40.5)), float(rng.uniform(-74.5, -73.5))))
                     for i in range(200)])
        rng.shuffle(points)
        index = build_index(points)
        blocks = []
        block = geo._haversine_block
        monkeypatch.setattr(geo, "_haversine_block", lambda *a: blocks.append((a[0].size, a[3].size)) or block(*a))
        got = rows_as_ids(index, 6)
        monkeypatch.undo()
        assert max(q for q, _ in blocks) < 1100
        assert max(q * r for q, r in blocks) <= geo._BLOCK_FLOATS + len(points)

        lat = np.radians(np.array([p.lat for _, p in points]))
        lon = np.radians(np.array([p.lon for _, p in points]))
        ids = [pid for pid, _ in points]
        rank = np.argsort(np.argsort(ids))
        for q, (qid, _) in enumerate(points):
            h = (np.sin((lat - lat[q]) / 2) ** 2
                 + np.cos(lat[q]) * np.cos(lat) * np.sin((lon - lon[q]) / 2) ** 2)
            d = 6_371_000.0 * 2 * np.arctan2(np.sqrt(h), np.sqrt(np.clip(1 - h, 0, None)))
            oracle = [ids[i] for i in np.lexsort((rank, d)) if i != q][:6]
            assert got[q] == oracle

    def test_shape_saturation_and_bad_k(self):
        pts = [(i, GeoPoint(0, 0.001 * i)) for i in range(4)]
        index = build_index(pts)
        assert index.k_nearest(99).tolist() == [[1, 2, 3], [0, 2, 3], [1, 3, 0], [2, 1, 0]]
        assert index.k_nearest(2).dtype == np.int64
        assert build_index([("only", GeoPoint(1.0, 2.0))]).k_nearest(3).shape == (1, 0)
        with pytest.raises(ValidationError):
            index.k_nearest(0)


def near_poles_and_antimeridian(rng, n):
    return [(i, GeoPoint(float(rng.choice([-1, 1]) * rng.uniform(88.0, 90.0)),
                         float(rng.choice([-1, 1]) * rng.uniform(170.0, 180.0)))) for i in range(n)]


def straddling(rng, n):
    # Longitudes within 0.3 degrees of +-180, wrapped into [-180, 180].
    return [(f"s{i:04d}", GeoPoint(float(rng.uniform(10.0, 10.5)),
                                   float((rng.uniform(179.7, 180.3) + 180.0) % 360.0 - 180.0)))
            for i in range(n)]


CELL_CASES = {
    "random_city": lambda: random_points(np.random.default_rng(31), 300),
    "global": lambda: random_points(np.random.default_rng(32), 300, (-90.0, 90.0), (-180.0, 180.0)),
    # One row of cells around the whole equator: neighbors across the seam
    # of the longitude order are nearer the other way round.
    "equatorial_ring": lambda: random_points(np.random.default_rng(38), 600, (-1.0, 1.0), (-180.0, 180.0)),
    "tie_grid": lambda: tie_grid(16),
    "tie_grid_shuffled_ids": lambda: [(f"u{(37 * i) % 256:03d}", p) for i, (_, p) in enumerate(tie_grid(16))],
    "zero_span": lambda: [(f"z{(13 * i) % 60:02d}", GeoPoint(-33.9, 151.2)) for i in range(60)],
    "duplicate_sites": lambda: duplicate_points(np.random.default_rng(33), 200, 9),
    "one_latitude": lambda: random_points(np.random.default_rng(34), 200, (12.5, 12.5), (-50.0, -49.0)),
    "one_longitude": lambda: random_points(np.random.default_rng(35), 200, (12.0, 13.0), (-50.0, -50.0)),
    "poles_and_antimeridian": lambda: near_poles_and_antimeridian(np.random.default_rng(36), 200),
    "straddling_antimeridian": lambda: straddling(np.random.default_rng(37), 300),
}


class TestCellsMatchOracles:
    """``k_nearest`` on the cells equals the latitude-band reference and a
    brute-force scan, ties by ascending id included, for k in {1, 5, 8}."""

    @pytest.mark.parametrize("name", sorted(CELL_CASES))
    def test_matches_band_oracle_and_brute_force(self, name):
        points = CELL_CASES[name]()
        index = build_index(points)
        # The same index from the columns that the commands pass.
        columns = SpatialIndex([pid for pid, _ in points], np.array([p.lat for _, p in points]),
                               np.array([p.lon for _, p in points]))
        brute = [brute_k_nearest(points, qid, 8) for qid, _ in points]
        for k in (1, 5, 8):
            assert np.array_equal(index.k_nearest(k), band_k_nearest(points, k))
            assert np.array_equal(columns.k_nearest(k), index.k_nearest(k))
            assert rows_as_ids(index, k) == [row[:k] for row in brute]

    @pytest.mark.parametrize("seed", [1, 5])
    def test_sv_city_matches_band_oracle(self, seed):
        points = sv_city_points(200, seed)
        assert np.array_equal(build_index(points).k_nearest(5), band_k_nearest(points, 5))


def sv_city_points(n_neighborhoods, seed=1, shift=0.0):
    """Street views of an sv_city-shaped synthetic city (20 per
    neighborhood), their longitudes moved east by ``shift`` degrees and
    wrapped into [-180, 180]."""
    city = generate_city(SynthConfig(n_neighborhoods=n_neighborhoods, views_per_neighborhood=20,
                                     pois_per_neighborhood=1, seed=seed))
    return [(sid, GeoPoint(lat, (lon + shift + 180.0) % 360.0 - 180.0))
            for sid, lat, lon in zip(city.sv_ids, city.sv_lat.tolist(), city.sv_lon.tolist())]


@pytest.mark.parametrize("n_neighborhoods,shift", [(50, 0.0), (200, 0.0), (800, 0.0), (200, 301.93)],
                         ids=["1k", "4k", "16k", "4k_across_180"])
def test_k_nearest_work_is_linear(monkeypatch, n_neighborhoods, shift):
    """One k_nearest(5) computes at most 250 distances per point at every
    size, and across +-180 degrees too: latitude bands alone need ~√n."""
    points = sv_city_points(n_neighborhoods, shift=shift)
    lons = [p.lon for _, p in points]
    assert (min(lons) < -179.9 and max(lons) > 179.9) == bool(shift)
    index = build_index(points)
    sizes = []
    block = geo._haversine_block

    def spy(*args):
        out = block(*args)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(geo, "_haversine_block", spy)
    index.k_nearest(5)
    assert sum(sizes) <= 250 * len(points)


class TestAssignNeighborhood:
    def test_exact_centroid(self):
        cents = [("c1", GeoPoint(10, 10)), ("c2", GeoPoint(20, 20))]
        assert assign([GeoPoint(10, 10), GeoPoint(20, 20)], cents) == ["c1", "c2"]

    def test_equidistant_tie_prefers_smaller_id(self):
        cents = [("c2", GeoPoint(0, 1)), ("c1", GeoPoint(0, -1))]
        assert assign([GeoPoint(0, 0)], cents) == ["c1"]

    def test_empty_centroids(self):
        with pytest.raises(ValidationError):
            assign([GeoPoint(0, 0)], [])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        cents = [(f"c{i}", GeoPoint(float(rng.uniform(30, 40)), float(rng.uniform(-125, -115))))
                 for i in range(10)]
        points = [GeoPoint(float(rng.uniform(30, 40)), float(rng.uniform(-125, -115))) for _ in range(100)]
        expected = [min((brute_haversine(p, c), cid) for cid, c in cents)[1] for p in points]
        assert assign(points, cents) == expected


def scalar_assign(point, centroids):
    """Nearest centroid by a loop over (distance, id) pairs."""
    return min((haversine_distance(point, c), cid) for cid, c in centroids)[1]


class TestAssignNeighborhoods:
    def test_tie_grid_matches_scalar_loop(self):
        # Centroids on a grid of binary fractions of a degree around the
        # equator: grid points and cell midpoints are equidistant from two to
        # four centroids, so the ascending-id tie-break decides.
        cents = [(f"c{(7 * i) % 25:02d}", GeoPoint(0.5 * (i // 5) - 1.0, 0.5 * (i % 5) - 1.0))
                 for i in range(25)]
        points = [GeoPoint(0.25 * a - 1.25, 0.25 * b - 1.25) for a in range(11) for b in range(11)]
        assert assign(points, cents) == [scalar_assign(p, cents) for p in points]
        nearest_two = [sorted(haversine_distance(p, c) for _, c in cents)[:2] for p in points]
        assert sum(a == b for a, b in nearest_two) == 64  # points the tie-break decides

    def test_random_points_in_chunks_match_scalar_loop(self, monkeypatch):
        rng = np.random.default_rng(7)
        cents = random_points(rng, 40)
        points = [p for _, p in random_points(rng, 500)]
        monkeypatch.setattr(geo, "_BLOCK_FLOATS", 40 * 64)  # 64 points per block
        sizes = []
        block = geo._haversine_block
        monkeypatch.setattr(geo, "_haversine_block", lambda *a: sizes.append(a[0].size) or block(*a))
        assert assign(points, cents) == [scalar_assign(p, cents) for p in points]
        assert max(sizes) == 64 and sum(sizes) == 500

    def test_no_points(self):
        assert assign([], [("c1", GeoPoint(0, 0))]) == []
