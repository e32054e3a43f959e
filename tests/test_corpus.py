"""Textualization, bag, vocabulary, and negative-sampling tests."""

import dataclasses
import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from oracles import columns_of, read_poi_jsonl, table_of, write_poi_records

from metrovec import corpus
from metrovec.corpus import (NegativeWordSampler, PoiColumns, PoiRecord, bags_of, build_bag_table,
                             build_neighborhood_bag, build_vocabulary, load_pretrained_vectors,
                             read_poi_columns, write_poi_jsonl)
from metrovec.errors import FormatError, ValidationError
from metrovec.fileio import read_bags, write_bags
from metrovec.geo import GeoPoint
from metrovec.synthcity import SynthConfig, generate_city


def poi(pid="p1", nbhd="n1", categories=(), rating=None, price=None, reviews=()):
    return PoiRecord(id=pid, geo=GeoPoint(37.0, -122.0), neighborhood_id=nbhd,
                     categories=list(categories), rating=rating, price=price,
                     reviews=list(reviews))


def assert_columns_equal(got: PoiColumns, want: PoiColumns) -> None:
    """Field by field, arrays with their dtypes and NaN equal to NaN."""
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), field.name
        else:
            assert a == b, field.name


class TestTextualize:
    def test_full_example(self):
        bag = build_neighborhood_bag([poi(categories=["Coffee", "Shopping Center"], rating=4.5,
                                          price=2, reviews=["Great coffee, great vibe"])])
        assert bag == Counter({"cat_coffee": 1, "cat_shopping_center": 1, "rate_4_5": 1,
                               "price_2": 1, "great": 1, "coffee": 1, "vibe": 1})

    def test_empty_poi(self):
        assert build_neighborhood_bag([poi()]) == Counter()

    def test_short_tokens_dropped(self):
        assert build_neighborhood_bag([poi(reviews=["A A a"])]) == Counter()

    def test_numbers_dropped_alphanumerics_kept(self):
        bag = build_neighborhood_bag([poi(reviews=["open 24 hours, 42nd street"])])
        assert bag == Counter({"open": 1, "hours": 1, "42nd": 1, "street": 1})

    def test_dedup_spans_all_reviews_of_one_poi(self):
        bag = build_neighborhood_bag([poi(reviews=["tasty tacos", "tacos again"])])
        assert bag["tacos"] == 1

    def test_category_whitespace_collapsed(self):
        bag = build_neighborhood_bag([poi(categories=["Shopping \t  Center", "  Dive Bar "])])
        assert bag == Counter({"cat_shopping_center": 1, "cat_dive_bar": 1})

    def test_blank_category_skipped(self):
        assert build_neighborhood_bag([poi(categories=["", "   "])]) == Counter()

    def test_duplicate_category_phrases_both_counted(self):
        bag = build_neighborhood_bag([poi(categories=["Bar", "bar"])])
        assert bag == Counter({"cat_bar": 2})

    def test_rating_buckets(self):
        assert "rate_4_5" in build_neighborhood_bag([poi(rating=4.5)])
        assert "rate_4_0" in build_neighborhood_bag([poi(rating=4.2)])
        assert "rate_4_5" in build_neighborhood_bag([poi(rating=4.26)])
        assert "rate_5_0" in build_neighborhood_bag([poi(rating=5.0)])
        assert "rate_1_0" in build_neighborhood_bag([poi(rating=1.0)])
        assert "rate_4_5" in build_neighborhood_bag([poi(rating=4.25)])  # halves round up

    def test_rating_price_validated(self):
        with pytest.raises(ValidationError):
            poi(rating=5.5)
        with pytest.raises(ValidationError):
            poi(price=0)

    def test_pure_function(self):
        p = poi(categories=["Bar"], rating=3.0, reviews=["loud music"])
        assert build_neighborhood_bag([p]) == build_neighborhood_bag([p])


class TestNeighborhoodBag:
    def test_duplicates_across_pois_kept(self):
        pois = [poi(pid="a", categories=["Restaurant"]), poi(pid="b", categories=["Restaurant"])]
        assert build_neighborhood_bag(pois) == Counter({"cat_restaurant": 2})

    def test_zero_pois(self):
        assert build_neighborhood_bag([]) == Counter()

    def test_multiset_union(self):
        pois = [poi(pid="a", reviews=["xx yy"]), poi(pid="b", reviews=["yy zz"])]
        assert build_neighborhood_bag(pois) == Counter({"xx": 1, "yy": 2, "zz": 1})

    def test_mixed_neighborhoods_rejected(self):
        with pytest.raises(ValidationError):
            build_neighborhood_bag([poi(pid="a", nbhd="n1"), poi(pid="b", nbhd="n2")])

    def test_order_independent(self):
        pois = [poi(pid="a", categories=["Bar"]), poi(pid="b", reviews=["beer bar"]),
                poi(pid="c", rating=2.0)]
        assert build_neighborhood_bag(pois) == build_neighborhood_bag(pois[::-1])


def vocabulary(*bags: Counter):
    """The vocabulary of toy bags, built from their bag table."""
    return build_vocabulary(table_of({f"n{i:03d}": bag for i, bag in enumerate(bags)}))


class TestVocabulary:
    def test_counts(self):
        vocab = vocabulary(Counter({"a": 1, "b": 2}))
        assert vocab.size == 2
        assert vocab.frequencies[vocab.tokens.index("a")] == 1
        assert vocab.frequencies[vocab.tokens.index("b")] == 2

    def test_lexicographic_ids(self):
        vocab = vocabulary(Counter({"zeta": 1, "alpha": 1, "mid": 1}))
        assert vocab.tokens == ("alpha", "mid", "zeta")

    def test_deterministic(self):
        bags = [Counter({"x": 3, "y": 1}), Counter({"y": 2})]
        v1, v2 = vocabulary(*bags), vocabulary(*bags)
        assert v1.tokens == v2.tokens
        assert np.array_equal(v1.frequencies, v2.frequencies)

    def test_matches_independent_recount(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(20)]
        bags = [Counter(rng.choice(words, size=30).tolist()) for _ in range(3)]
        vocab = vocabulary(*bags)
        recount = Counter()
        for bag in bags:
            recount.update(bag)
        for token, count in recount.items():
            assert vocab.frequencies[vocab.tokens.index(token)] == count
        assert vocab.frequencies.sum() == sum(recount.values())

    def test_all_empty_rejected(self):
        with pytest.raises(ValidationError):
            vocabulary(Counter(), Counter())

    def test_frequency_conservation(self):
        rng = np.random.default_rng(1)
        bags = [Counter(rng.choice([f"t{i}" for i in range(12)], size=int(rng.integers(1, 40))).tolist())
                for _ in range(7)]
        vocab = vocabulary(*bags)
        assert vocab.frequencies.sum() == sum(sum(b.values()) for b in bags)


def reference_textualize(p):
    """The per-POI bag as built token by token: categories, rating, price,
    then the sorted review words split on non-[0-9a-z] runs."""
    bag = Counter()
    for phrase in p.categories:
        if phrase.strip():
            bag["cat_" + "_".join(phrase.lower().split())] += 1
    if p.rating is not None:
        bucket = min(5.0, max(1.0, math.floor(p.rating * 2.0 + 0.5) / 2.0))
        bag[f"rate_{bucket:.1f}".replace(".", "_")] += 1
    if p.price is not None:
        bag[f"price_{p.price}"] += 1
    words = set()
    for text in p.reviews:
        words.update(t for t in re.split(r"[^0-9a-z]+", text.lower()) if len(t) >= 2 and not t.isdigit())
    bag.update(sorted(words))
    return bag


class TestNeighborhoodBagMatchesPerPoiSum:
    POIS = [
        poi("a", categories=["Bar", "bar", "  ", "Dive  Bar"], rating=3.74, price=2,
            reviews=["Cheap beer, loud bar!", "beer 42 again", "x"]),
        poi("b", categories=["", "Coffee"], rating=None, price=4, reviews=["Coffee: strong; coffee."]),
        poi("c", categories=["Bar"], rating=4.25, price=None, reviews=[]),
        poi("d"),
        poi("e", categories=["Coffee", "Coffee"], rating=1.0, price=1,
            reviews=["\u00c9t\u00e9 caf\u00e9 ok ok", "beer_garden 2nd"]),
    ]

    def test_same_items_in_the_same_order(self):
        expected = Counter()
        for p in self.POIS:
            expected.update(reference_textualize(p))
        bag = build_neighborhood_bag(self.POIS)
        assert list(bag.items()) == list(expected.items())

    def test_textualize_matches_reference_order(self):
        for p in self.POIS:
            assert list(build_neighborhood_bag([p]).items()) == list(reference_textualize(p).items())

    def test_review_words_match_reference_on_random_text(self):
        # Letters, digits, separators and characters whose lower case is or
        # holds ASCII (Kelvin sign, dotted capital I), in random reviews.
        alphabet = list("aZ09 _-.,\t\n") + ["\u212a", "\u0130", "\u00e9", "\u03a3", "\u00df"]
        rng = np.random.default_rng(3)
        for _ in range(300):
            reviews = ["".join(rng.choice(alphabet, size=int(rng.integers(0, 30))))
                       for _ in range(int(rng.integers(0, 4)))]
            p = poi(reviews=reviews)
            assert list(build_neighborhood_bag([p]).items()) == list(reference_textualize(p).items())


class TestBagTable:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rows_equal_the_neighborhood_bags(self, tmp_path, seed):
        city = generate_city(SynthConfig(n_neighborhoods=12, views_per_neighborhood=2,
                                         pois_per_neighborhood=5, vocab_size=60, seed=seed))
        row_ids = sorted(city.neighborhood_ids + ["n_without_pois"])
        # The city's POIs as the line reader reads them from synth's file. The
        # hand-made POIs add blank and repeated categories, absent fields and numbers.
        write_poi_jsonl(tmp_path / "poi.jsonl", city.pois)
        pois = read_poi_jsonl(tmp_path / "poi.jsonl") + [
            dataclasses.replace(p, id=f"x{i}", neighborhood_id=row_ids[i % 3])
            for i, p in enumerate(TestNeighborhoodBagMatchesPerPoiSum.POIS)]
        path = tmp_path / "bags.bin"
        write_bags(path, build_bag_table(columns_of(pois), row_ids))
        table = read_bags(path)
        counters = {nid: build_neighborhood_bag([p for p in pois if p.neighborhood_id == nid])
                    for nid in row_ids}
        want = table_of(counters)
        assert table.row_ids == want.row_ids == row_ids and table.tokens == want.tokens
        for got, expected in ((table.indptr, want.indptr), (table.token_ids, want.token_ids),
                              (table.counts, want.counts)):
            assert got.dtype == np.int64 and np.array_equal(got, expected)
        vocab = build_vocabulary(table)
        recount = sum(counters.values(), Counter())
        assert vocab.tokens == tuple(sorted(recount))
        assert vocab.frequencies.tolist() == [recount[t] for t in vocab.tokens]
        bags = bags_of(table)
        assert list(bags) == row_ids
        for r, nid in enumerate(row_ids):
            lo, hi = table.indptr[r], table.indptr[r + 1]
            assert np.array_equal(bags[nid].ids, table.token_ids[lo:hi]), nid
            assert np.array_equal(bags[nid].counts, table.counts[lo:hi]), nid
        assert not bags["n_without_pois"] and len(bags[row_ids[0]]) == len(counters[row_ids[0]])

    def test_poi_of_another_neighborhood_refused(self):
        with pytest.raises(ValidationError, match="POI 'p1' belongs to an unknown neighborhood 'n9'"):
            build_bag_table(columns_of([poi(nbhd="n9", categories=["Bar"])]), ["n1"])

    def test_empty_corpus_has_no_vocabulary(self):
        table = build_bag_table(columns_of([poi()]), ["n1"])
        assert table.tokens == [] and table.indptr.tolist() == [0, 0]
        with pytest.raises(ValidationError, match="all bags are empty"):
            build_vocabulary(table)


# Lines the column reader must read as the line reader does, one case each.
ODD_LINES = [
    # CRLF, a lone CR, leading and trailing JSON whitespace.
    '{"id": "crlf", "lat": 1.0, "lon": 2.0, "neighborhood_id": "n1", "reviews": ["crlf line"]}\r\n',
    '{"id": "cr", "lat": 1.0, "lon": 2.0, "neighborhood_id": "n1", "reviews": ["cr line"]}\r',
    ' \t {"id": "spaced", "lat": 1.0, "lon": 2.0, "neighborhood_id": "n2", "categories": ["Bar"]} \t\r\n',
    # Blank and whitespace-only lines (a form feed and an ideographic space
    # are whitespace to str.strip, not to JSON).
    '\n', '   \t  \n', '\x0c\u3000\n', '\r\n',
    # Non-string list items, blank phrases, empty and missing lists.
    '{"id": "mixed", "lat": 1.0, "lon": 2.0, "neighborhood_id": "n2", "categories": '
    '[1, 2.5, null, true, ["x y"], {"a": 1}, "", "   ", "Dive  Bar"], "reviews": [3, null, "ok words", ["ab cd"]]}\n',
    '{"id": "empty", "lat": 1.0, "lon": 2.0, "neighborhood_id": "n2", "categories": [], "reviews": []}\n',
    '{"id": "bare", "lat": 1.0, "lon": 2.0, "neighborhood_id": "n3"}\n',
    # Strings and floats where numbers go, null rating and price.
    '{"id": "cast", "lat": "37.1", "lon": -122, "neighborhood_id": "n3", "price": 2.0, "rating": "4.26"}\n',
    '{"id": "nulls", "lat": 1, "lon": 2, "neighborhood_id": "n3", "price": null, "rating": null}\n',
    '{"id": "true", "lat": 1, "lon": 2, "neighborhood_id": "n3", "price": true, "rating": 4}\n',
    # NUL and a lone surrogate inside reviews; dotted capital I, capital
    # sigma and the Kelvin sign.
    '{"id": "nul", "lat": 1, "lon": 2, "neighborhood_id": "n4", '
    '"reviews": ["ab\\u0000cd ef\\u0000", "\\u0000gh\\ud800ij"]}\n',
    '{"id": "case", "lat": 1, "lon": 2, "neighborhood_id": "n4", '
    '"reviews": ["\u0130stanbul \u03a3\u03a3ab \u212aelvin", "\u2126hm x\u212a \u0130i"]}\n',
    # Blank and absent neighborhood ids, non-string ids, no line end at the end of the file.
    '{"id": "blank", "lat": 1, "lon": 2, "neighborhood_id": "", "categories": ["Bar"]}\n',
    '{"id": "absent", "lat": 1, "lon": 2, "categories": ["bar"], "rating": 1.0, "price": 4}\n',
    '{"id": 7, "lat": 1, "lon": 2, "neighborhood_id": 5, "reviews": ["fives"]}',
]


class TestPoiColumns:
    """``read_poi_columns`` + ``build_bag_table`` against the reference line
    reader and the per-POI reference, ``read_poi_jsonl`` +
    ``build_neighborhood_bag``."""

    def test_columns_and_table_equal_the_line_reader(self, tmp_path):
        path = tmp_path / "poi.jsonl"
        path.write_bytes("".join(ODD_LINES).encode("utf-8"))
        records = read_poi_jsonl(path)
        assert len(records) == 14
        # The record view of the columns joins each POI's reviews into one text.
        assert corpus.read_poi_jsonl(path) == [dataclasses.replace(p, reviews=[" ".join(p.reviews)])
                                               for p in records]
        columns = read_poi_columns(path)
        assert_columns_equal(columns, columns_of(records))
        assert columns.neighborhood_ids[-3:] == [None, None, "5"]
        assert "\0" in columns.reviews[-5] and "\ud800" in columns.reviews[-5]

        # Blank ids go to a row of their own, as --assign-missing would put them in one.
        columns.neighborhood_ids[-3:-1] = ["n5", "n5"]
        for p in records[-3:-1]:
            p.neighborhood_id = "n5"
        row_ids = ["5", "n1", "n2", "n3", "n4", "n5", "n6"]
        table = build_bag_table(columns, row_ids)
        bags = {nid: build_neighborhood_bag([p for p in records if p.neighborhood_id == nid]) for nid in row_ids}
        assert bags["n4"] == Counter(["ab", "cd", "ef", "gh", "ij", "stanbul", "ab", "kelvin", "hm", "xk"])
        expected = table_of(bags)
        assert table.row_ids == row_ids and table.tokens == expected.tokens
        for got, want in ((table.indptr, expected.indptr), (table.token_ids, expected.token_ids),
                          (table.counts, expected.counts)):
            assert got.dtype == np.int64 and np.array_equal(got, want)

    def test_review_words_match_reference_on_random_text(self, tmp_path):
        # Letters, digits, separators, NUL and characters whose lower case is
        # or holds ASCII, in random reviews: one POI per neighborhood.
        alphabet = list("aZ09 _-.,\t\n\0") + ["\u212a", "\u0130", "\u00e9", "\u03a3", "\u00df"]
        rng = np.random.default_rng(4)
        pois = [poi(pid=f"p{i:03d}", nbhd=f"n{i:03d}",
                    reviews=["".join(rng.choice(alphabet, size=int(rng.integers(0, 30))))
                             for _ in range(int(rng.integers(0, 4)))])
                for i in range(300)]
        path = tmp_path / "poi.jsonl"
        write_poi_records(path, pois)
        row_ids = [p.neighborhood_id for p in pois]
        table = build_bag_table(read_poi_columns(path), row_ids)
        expected = table_of({p.neighborhood_id: build_neighborhood_bag([p]) for p in pois})
        assert table.tokens == expected.tokens
        for got, want in ((table.indptr, expected.indptr), (table.token_ids, expected.token_ids),
                          (table.counts, expected.counts)):
            assert np.array_equal(got, want)

    def test_duplicate_ids_refused(self, tmp_path):
        path = tmp_path / "poi.jsonl"
        path.write_text('{"id": "a", "lat": 0, "lon": 0}\n{"id": "b", "lat": 0, "lon": 0}\n'
                        '{"id": "a", "lat": 1, "lon": 1}\n')
        for reader in (read_poi_columns, corpus.read_poi_jsonl):
            with pytest.raises(ValidationError, match="^duplicate POI ids$"):
                reader(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "poi.jsonl"
        path.write_text("\n \n")
        columns = read_poi_columns(path)
        assert len(columns) == 0 and columns.lat.dtype == np.float64 and columns.prices.dtype == np.int64
        table = build_bag_table(columns, ["n1"])
        assert table.tokens == [] and table.indptr.tolist() == [0, 0]


class TestNegativeSampling:
    def test_forced_single_candidate(self):
        vocab = vocabulary(Counter({"a": 1, "b": 5}))
        rng = np.random.default_rng(0)
        ctx = {vocab.tokens.index("a")}
        assert NegativeWordSampler(vocab, ctx).draw(rng, size=1).tolist() == [vocab.tokens.index("b")]

    def test_sqrt_weighting_two_tokens(self):
        # frequencies 1 and 4 -> probabilities 1/3 and 2/3
        vocab = vocabulary(Counter({"ctx": 2, "u": 1, "v": 4}))
        sampler = NegativeWordSampler(vocab, {vocab.tokens.index("ctx")})
        rng = np.random.default_rng(2)
        draws = sampler.draw(rng, size=100_000)
        p_u = float(np.mean(draws == vocab.tokens.index("u")))
        assert abs(p_u - 1.0 / 3.0) < 0.01

    def test_empirical_matches_analytic_five_tokens(self):
        freqs = {"a": 1, "b": 4, "c": 9, "d": 16, "e": 25}
        vocab = vocabulary(Counter(freqs))
        ctx = {vocab.tokens.index("a")}
        sampler = NegativeWordSampler(vocab, ctx)
        weights = {t: f ** 0.5 for t, f in freqs.items() if t != "a"}
        total = sum(weights.values())
        rng = np.random.default_rng(3)
        draws = sampler.draw(rng, size=100_000)
        for token, w in weights.items():
            emp = float(np.mean(draws == vocab.tokens.index(token)))
            assert abs(emp - w / total) < 0.01
        assert not np.any(draws == vocab.tokens.index("a"))

    def test_full_context_rejected(self):
        vocab = vocabulary(Counter({"a": 1, "b": 1}))
        with pytest.raises(ValidationError):
            NegativeWordSampler(vocab, {0, 1})

    @pytest.mark.parametrize("size", [1, 7, (3, 4)])
    def test_draws_equal_generator_choice(self, size):
        freqs = {f"t{i:02d}": int(f) for i, f in enumerate([1, 3, 7, 2, 50, 1, 9, 4, 4, 12, 5, 1])}
        vocab = vocabulary(Counter(freqs))
        ctx = {vocab.tokens.index("t04"), vocab.tokens.index("t09")}
        weights = vocab.frequencies.astype(np.float64) ** 0.5
        weights[sorted(ctx)] = 0.0
        p = weights / weights.sum()
        sampler = NegativeWordSampler(vocab, ctx)
        ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(50):
            got, want = sampler.draw(ours, size=size), theirs.choice(vocab.size, size=size, p=p)
            assert type(got) is type(want)
            assert np.array_equal(got, want)
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_overflowing_weights_rejected(self):
        vocab = vocabulary(Counter({"a": 10, "b": 20}))
        with pytest.raises(ValidationError, match="overflows"):
            NegativeWordSampler(vocab, set(), exponent=1000.0)

    def test_exponent_zero_is_uniform(self):
        vocab = vocabulary(Counter({"a": 1, "b": 1000}))
        sampler = NegativeWordSampler(vocab, set(), exponent=0.0)
        rng = np.random.default_rng(4)
        draws = sampler.draw(rng, size=50_000)
        assert abs(float(np.mean(draws == 0)) - 0.5) < 0.02


class TestPretrainedVectors:
    def test_no_overlap(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("unseen 0.1 0.2\n")
        vocab = vocabulary(Counter({"coffee": 1}))
        assert load_pretrained_vectors(path, vocab, 2) == {}

    def test_single_match(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("coffee 0.1 0.2\n")
        vocab = vocabulary(Counter({"coffee": 1, "tea": 1}))
        out = load_pretrained_vectors(path, vocab, 2)
        assert set(out) == {vocab.tokens.index("coffee")}
        assert np.allclose(out[vocab.tokens.index("coffee")], [0.1, 0.2])

    def test_wrong_length_rejected(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("coffee 0.1 0.2 0.3\n")
        vocab = vocabulary(Counter({"coffee": 1}))
        with pytest.raises(FormatError):
            load_pretrained_vectors(path, vocab, 2)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_rejected_with_line(self, tmp_path, bad):
        path = tmp_path / "vecs.txt"
        path.write_text(f"tea 0.1 0.2\ncoffee 0.1 {bad}\n")
        vocab = vocabulary(Counter({"coffee": 1, "tea": 1}))
        with pytest.raises(FormatError, match=r"vecs\.txt:2"):
            load_pretrained_vectors(path, vocab, 2)

    def test_prefixed_tokens_never_initialized(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat_coffee 0.1 0.2\nrate_4_5 0.3 0.4\nprice_2 0.5 0.6\ncoffee 0.7 0.8\n")
        vocab = vocabulary(Counter({"cat_coffee": 1, "rate_4_5": 1, "price_2": 1, "coffee": 1}))
        out = load_pretrained_vectors(path, vocab, 2)
        assert set(out) == {vocab.tokens.index("coffee")}

    def test_first_occurrence_wins(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("coffee 1.0 1.0\ncoffee 2.0 2.0\n")
        vocab = vocabulary(Counter({"coffee": 1}))
        out = load_pretrained_vectors(path, vocab, 2)
        assert np.allclose(out[vocab.tokens.index("coffee")], [1.0, 1.0])


class TestPoiJsonl:
    def test_round_trip(self, tmp_path):
        pois = [poi(pid="a", categories=["Dive Bar"], rating=3.5, price=1, reviews=["cheap drinks"]),
                poi(pid="b", nbhd=None)]
        path = tmp_path / "poi.jsonl"
        write_poi_jsonl(path, columns_of(pois))
        # A POI's reviews are one text in the columns, so one text in the file.
        joined = [dataclasses.replace(p, reviews=[" ".join(p.reviews)]) for p in pois]
        assert read_poi_jsonl(path) == joined
        assert corpus.read_poi_jsonl(path) == joined
        assert_columns_equal(read_poi_columns(path), columns_of(pois))

    # A NaN rating and a price of 0 (both absent), no categories, an empty
    # review text, a blank phrase; quotes, backslashes, control characters,
    # non-ASCII text and a lone surrogate in every kind of string.
    ODD = PoiColumns(
        ids=["a", 'q"\\', "c\x00\x1f\u00fc\ud800"],
        lat=np.array([37.5, -0.0, 89.99999999999999]), lon=np.array([-122.25, 180.0, 1e-300]),
        neighborhood_ids=["n1", None, 'n"\\\n\u00e9\ud800'],
        phrases=["Dive Bar", "Café", "", 'q"\\\x07\u212a\ud800'],
        phrase_counts=np.array([2, 0, 2], dtype=np.int64),
        ratings=np.array([3.5, np.nan, 5.0]), prices=np.array([1, 0, 4], dtype=np.int64),
        reviews=['cheap "drinks"', "", "tab\there \\ \u212a \ud800 \x00 \u4e2d"])

    def test_lines_are_sorted_key_json(self, tmp_path):
        pois = self.ODD
        path = tmp_path / "poi.jsonl"
        write_poi_jsonl(path, pois)
        bounds = [0, *np.cumsum(pois.phrase_counts).tolist()]
        want = [json.dumps({"id": pois.ids[i], "lat": pois.lat[i].item(), "lon": pois.lon[i].item(),
                            "neighborhood_id": pois.neighborhood_ids[i],
                            "categories": pois.phrases[bounds[i]:bounds[i + 1]],
                            "rating": None if math.isnan(pois.ratings[i]) else pois.ratings[i].item(),
                            "price": pois.prices[i].item() or None, "reviews": [pois.reviews[i]]},
                           sort_keys=True) + "\n" for i in range(len(pois))]
        assert path.read_text(encoding="utf-8").splitlines(keepends=True) == want
        assert path.read_bytes() == "".join(want).encode("utf-8")
        assert_columns_equal(read_poi_columns(path), pois)

    @pytest.mark.parametrize("line,column,message", [
        ('{"id": "bad", "lat": 10,', 25, "Expecting property name enclosed in double quotes"),
        (' \t{"id": "bad", "lat": 10,  ', 27, "Expecting property name enclosed in double quotes"),
        ('{"id": "a", "lat": 0, "lon": 0}  x', 34, "Extra data"),
        ('\ufeff{"id": "a", "lat": 0, "lon": 0}', 1, "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ], ids=["truncated", "indented-truncated", "extra-data", "bom"])
    def test_json_error_names_a_column_of_its_line(self, tmp_path, line, column, message):
        # Counted in the file's line without its line break: no "line 2" of a
        # text that ends in the line break.
        path = tmp_path / "poi.jsonl"
        path.write_text('{"id": "ok", "lat": 0, "lon": 0}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            read_poi_columns(path)
        assert str(exc.value) == f"{path}:2: invalid JSON at column {column}: {message}"
        assert "line 2" not in str(exc.value)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "poi.jsonl"
        path.write_text('{"id": "a", "lat": 0, "lon": 0}\nnot json\n')
        with pytest.raises(FormatError, match=":2"):
            read_poi_columns(path)

    @pytest.mark.parametrize("field", ["categories", "reviews"])
    def test_non_list_text_field_rejected_with_line(self, tmp_path, field):
        path = tmp_path / "poi.jsonl"
        path.write_text('{"id": "a", "lat": 0, "lon": 0}\n'
                        f'{{"id": "b", "lat": 0, "lon": 0, "{field}": "Coffee"}}\n')
        with pytest.raises(FormatError, match=f":2 .*{field}"):
            read_poi_columns(path)

    def test_range_error_names_record(self, tmp_path):
        path = tmp_path / "poi.jsonl"
        path.write_text('{"id": "bad1", "lat": 91.0, "lon": 0}\n')
        with pytest.raises(ValidationError, match="bad1"):
            read_poi_columns(path)
