"""Test-side references: POI records as the columns ``ingest`` reads, toy
corpora as bag tables, and the adjusted Rand index that scores a clustering
against known labels.

Not a test module (its name does not start with ``test_``), so pytest
collects nothing here; the test modules import it by name.
"""

from collections import Counter

import numpy as np

from metrovec.corpus import PoiColumns, PoiRecord
from metrovec.fileio import BagTable


def columns_of(pois: list[PoiRecord]) -> PoiColumns:
    """The columns ``read_poi_columns`` reads from a file of these records
    (``write_poi_jsonl``)."""
    return PoiColumns(
        ids=[p.id for p in pois],
        lat=np.array([p.geo.lat for p in pois], dtype=np.float64),
        lon=np.array([p.geo.lon for p in pois], dtype=np.float64),
        neighborhood_ids=[p.neighborhood_id for p in pois],
        phrases=[phrase for p in pois for phrase in p.categories],
        phrase_counts=np.array([len(p.categories) for p in pois], dtype=np.int64),
        ratings=np.array([np.nan if p.rating is None else p.rating for p in pois], dtype=np.float64),
        prices=np.array([p.price or 0 for p in pois], dtype=np.int64),
        reviews=[" ".join(p.reviews) for p in pois])


def table_of(counters: dict[str, Counter]) -> BagTable:
    """The bag table of toy bags, given as neighborhood id -> ``Counter`` of
    token strings: rows in ascending id order, the distinct tokens sorted,
    each row's token ids ascending. ``ingest`` writes this table for POIs
    whose neighborhood bags are ``counters``."""
    row_ids = sorted(counters)
    tokens = sorted({token for bag in counters.values() for token in bag})
    id_of = {token: i for i, token in enumerate(tokens)}
    indptr, ids, counts = [0], [], []
    for nid in row_ids:
        for token_id, count in sorted((id_of[t], c) for t, c in counters[nid].items()):
            ids.append(token_id)
            counts.append(count)
        indptr.append(len(ids))
    return BagTable(row_ids, tokens, np.array(indptr, dtype=np.int64),
                    np.array(ids, dtype=np.int64), np.array(counts, dtype=np.int64))


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected agreement between two labelings of the same points
    (Hubert & Arabie, 1985)."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    assert a.shape == b.shape and a.ndim == 1, (a.shape, b.shape)
    n = a.shape[0]
    _, a_idx = np.unique(a, return_inverse=True)
    _, b_idx = np.unique(b, return_inverse=True)
    table = np.zeros((a_idx.max() + 1, b_idx.max() + 1), dtype=np.int64)
    np.add.at(table, (a_idx, b_idx), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    expected = sum_rows * sum_cols / comb2(n)
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))
