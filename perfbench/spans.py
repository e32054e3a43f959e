"""In-memory spans around the public functions of each metrovec layer.

A ``Tracer`` replaces every public function and public method of the layer
modules with a wrapper that records a span: name, start, end, parent span and
the benchmark unit (one set-up or one measured iteration) it ran in. Each
wrapper is installed on every name a caller can look the function up by
(``metrovec.cli.build_index`` as well as ``metrovec.geo.build_index``), and
``uninstall`` puts the originals back. No file of the program changes.

``layer_metrics`` turns the spans of the traced units into the per-layer
metrics of BENCHMARK.json. A metric whose functions no longer exist is
reported as 0 and listed in ``absent``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import math
import os
import statistics
import sys
import time
from collections import defaultdict

PACKAGE = "metrovec"
LAYERS = ("geo", "fileio", "corpus", "encoder", "training", "analytics", "synthcity", "cli")

# Called once per element of a loop (per centroid pair, per POI, per token):
# a span each would cost more than the work it times. Their time stays in
# the caller's self time.
PER_ELEMENT = {"geo.haversine_distance", "corpus.textualize_poi", "corpus.Vocabulary.id_of"}

NAME, START, END, PARENT, UNIT, COUNTS = range(6)


def _file_size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _bytes_written(arguments: dict, result) -> dict:
    path = str(arguments["path"])
    return {"fileio.bytes_written": _file_size(path) + _file_size(path + ".ids")}


def _sampler_draws(arguments: dict, result) -> dict:
    size = arguments.get("size")
    if size is None:
        return {"corpus.sampler_draws": 1}
    return {"corpus.sampler_draws": math.prod(size) if isinstance(size, tuple) else int(size)}


def _sv_work(arguments: dict, result) -> dict:
    config, n = arguments["config"], len(arguments["sv_ids"])
    triplets = n * config.triplets_per_anchor * config.epochs_sv
    forward = sum(2 * w.shape[0] * w.shape[1] for w in arguments["params"].weights)
    # Each triplet runs three forward and three backward passes; a backward
    # pass is counted as two forward passes. The final encode adds one pass
    # per street view.
    return {"training.sv_triplets": triplets, "encoder.flops_computed": triplets * 3 * 3 * forward + n * forward}


def _poi_work(arguments: dict, result) -> dict:
    vocab, bags, config = arguments["vocab"], arguments["bags"], arguments["config"]
    anchors = sum(1 for nid in arguments["neighborhood_ids"]
                  if bags.get(nid) and len(bags[nid]) < vocab.size)
    return {"training.poi_triplets": anchors * config.triplets_per_anchor * config.epochs_poi}


# Counts taken from a call's arguments and result, after its span has ended,
# keyed by the metric they feed.
HOOKS = {
    "fileio.sha256_file": lambda a, r: {"fileio.sha256_bytes": _file_size(a["path"])},
    "fileio.write_embeddings": _bytes_written,
    "corpus.read_poi_jsonl": lambda a, r: {"corpus.pois_read": len(r)},
    "corpus.build_vocabulary": lambda a, r: {"corpus.vocab_size": r.size},
    "corpus.NegativeWordSampler.draw": _sampler_draws,
    "training.train_street_view": _sv_work,
    "training.train_poi_stage": _poi_work,
}


def discover() -> dict:
    """span name -> (function, owning class or None, attribute name)."""
    found = {}
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
        except ImportError:
            continue
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{layer}.{name}"] = (obj, None, name)
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    public = not attr.startswith("_") or (
                        attr == "__init__" and not dataclasses.is_dataclass(obj))
                    if public and inspect.isfunction(member):
                        found[f"{layer}.{name}.{attr}"] = (member, obj, attr)
    return {k: v for k, v in found.items() if k not in PER_ELEMENT}


class Tracer:
    """Records spans while installed and ``recording``; ``unit`` labels the
    spans of the current set-up or iteration."""

    def __init__(self):
        self.targets = discover()
        self.spans: list[list] = []
        self.hook_errors: list[str] = []
        self.unit = None
        self.recording = False
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        tracer, hook = self, HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.unit, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    span[COUNTS] = hook(signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    tracer.hook_errors.append(f"{name}: {exc!r}")
            return result
        return wrapper

    def install(self) -> None:
        if self._restore:
            return
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, (fn, owner, attr) in self.targets.items():
            wrapper = self._wrap(name, fn)
            if owner is not None:
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, fn))
                continue
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, alias, wrapper)
                        self._restore.append((module, alias, fn))

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._restore):
            setattr(holder, attr, fn)
        self._restore.clear()

    @contextlib.contextmanager
    def traced(self, unit: str):
        """Install the wrappers and record spans for one unit."""
        self.install()
        self.unit, self.recording = unit, True
        try:
            yield
        finally:
            self.recording = False
            self.uninstall()

    @contextlib.contextmanager
    def paused(self):
        """Let the benchmark's own checks call the program unrecorded."""
        previous, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = previous


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.
    Spans come from one thread and nest, so children never overlap."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


class UnitView:
    """Spans of one unit, queried by span name. Each query returns None
    when no span of the given names ran in the unit."""

    def __init__(self, spans: list[list], selfs: list[float], indices: list[int]):
        self.spans, self.selfs = spans, selfs
        self.by_name = defaultdict(list)
        for i in indices:
            self.by_name[spans[i][NAME]].append(i)

    def _hits(self, names) -> list[int]:
        return [i for n in names for i in self.by_name.get(n, ())]

    def _outermost(self, names) -> list[int]:
        """Spans of ``names`` not nested in another span of ``names``."""
        group, out = set(names), []
        for i in self._hits(names):
            p = self.spans[i][PARENT]
            while p is not None and self.spans[p][NAME] not in group:
                p = self.spans[p][PARENT]
            if p is None:
                out.append(i)
        return out

    def time(self, names):
        hits = self._outermost(names)
        return sum(self.spans[i][END] - self.spans[i][START] for i in hits) if hits else None

    def calls(self, names):
        return len(self._outermost(names)) or None

    def self_time(self, names):
        hits = self._hits(names)
        return sum(self.selfs[i] for i in hits) if hits else None

    def count(self, key, names):
        values = [self.spans[i][COUNTS][key] for i in self._hits(names)
                  if self.spans[i][COUNTS] and key in self.spans[i][COUNTS]]
        return sum(values) if values else None

    def value(self, kind: str, metric: str, names):
        if kind == "count":
            return self.count(metric, names)
        if kind == "rate":
            count, seconds = self.count(metric.removesuffix("_per_s"), names), self.time(names)
            return None if count is None or not seconds else count / seconds
        return getattr(self, kind)(names)


# (metric, unit, kind, span names). kind is one of
#   time       wall time of the outermost spans of the names
#   calls      number of those spans
#   self_time  the spans' own time, without their children
#   count      sum of the count the spans' hook records under the metric's name
#   rate       that count for the metric without "_per_s", over the time
LAYER_METRICS = [
    ("geo.index_build_s", "s", "time", ["geo.build_index", "geo.SpatialIndex.__init__"]),
    ("geo.k_nearest_s", "s", "time", ["geo.SpatialIndex.k_nearest", "geo.k_nearest"]),
    ("geo.k_nearest_calls", "count", "calls", ["geo.SpatialIndex.k_nearest", "geo.k_nearest"]),
    ("geo.assign_s", "s", "time", ["geo.assign_neighborhood"]),
    ("geo.assign_calls", "count", "calls", ["geo.assign_neighborhood"]),
    ("fileio.read_features_s", "s", "time", ["fileio.read_features_csv"]),
    ("fileio.read_sv_metadata_s", "s", "time", ["fileio.read_sv_metadata"]),
    ("fileio.sha256_s", "s", "time", ["fileio.sha256_file"]),
    ("fileio.sha256_bytes", "B", "count", ["fileio.sha256_file"]),
    ("fileio.read_embeddings_s", "s", "time", ["fileio.read_embeddings"]),
    ("fileio.write_embeddings_s", "s", "time", ["fileio.write_embeddings"]),
    ("fileio.bytes_written", "B", "count", ["fileio.write_embeddings"]),
    ("corpus.read_poi_s", "s", "time", ["corpus.read_poi_jsonl"]),
    ("corpus.pois_read", "count", "count", ["corpus.read_poi_jsonl"]),
    ("corpus.bags_s", "s", "time", ["corpus.build_neighborhood_bag"]),
    ("corpus.vocab_size", "count", "count", ["corpus.build_vocabulary"]),
    ("corpus.sampler_init_s", "s", "time", ["corpus.NegativeWordSampler.__init__"]),
    ("corpus.sampler_draw_s", "s", "time", ["corpus.NegativeWordSampler.draw"]),
    ("corpus.sampler_draws", "count", "count", ["corpus.NegativeWordSampler.draw"]),
    ("encoder.flops_computed", "flop", "count", ["training.train_street_view"]),
    ("training.train_sv_s", "s", "time", ["training.train_street_view"]),
    ("training.train_sv_self_s", "s", "self_time", ["training.train_street_view"]),
    ("training.context_rows_s", "s", "time", ["training.context_rows_from_index"]),
    ("training.sv_triplets", "count", "count", ["training.train_street_view"]),
    ("training.sv_triplets_per_s", "1/s", "rate", ["training.train_street_view"]),
    ("training.aggregate_s", "s", "time", ["training.aggregate_neighborhoods"]),
    ("training.train_poi_s", "s", "time", ["training.train_poi_stage"]),
    ("training.train_poi_self_s", "s", "self_time", ["training.train_poi_stage"]),
    ("training.triplet_grads_s", "s", "time", ["training.triplet_grads"]),
    ("training.triplet_grads_calls", "count", "calls", ["training.triplet_grads"]),
    ("training.poi_triplets", "count", "count", ["training.train_poi_stage"]),
    ("training.poi_triplets_per_s", "1/s", "rate", ["training.train_poi_stage"]),
    ("analytics.evaluate_s", "s", "time", ["analytics.evaluate_regression"]),
    ("analytics.pca_fit_s", "s", "time", ["analytics.pca_fit"]),
    ("analytics.pca_fit_calls", "count", "calls", ["analytics.pca_fit"]),
    ("analytics.linreg_fit_s", "s", "time", ["analytics.linreg_fit"]),
    ("analytics.poistats_tfidf_s", "s", "time", ["analytics.poistats_tfidf"]),
    ("analytics.kmeans_s", "s", "time", ["analytics.kmeans"]),
    ("analytics.cosine_rank_s", "s", "time", ["analytics.cosine_rank"]),
    ("synthcity.generate_s", "s", "time", ["synthcity.generate_city"]),
    ("synthcity.export_s", "s", "time", ["synthcity.export_city"]),
    ("cli.build_parser_s", "s", "time", ["cli.build_parser"]),
    ("cli.manifest_s", "s", "time", ["cli.load_manifest", "cli.save_manifest"]),
] + [(f"cli.{sub}.self_s", "s", "self_time", [f"cli.cmd_{sub}"])
     for sub in ("synth", "ingest", "train_sv", "aggregate", "train_poi", "eval", "cluster", "similar")]


def layer_metrics(spans: list[list], iteration_units: list[str], setup_units: list[str],
                  known: set[str]) -> tuple[dict, list[str]]:
    """Median over the traced iterations of each metric's per-unit value.
    A metric no iteration touches (set-up work such as synthcity) is taken
    over the traced set-ups instead; one nothing touched reads 0."""
    selfs = self_times(spans)
    members = defaultdict(list)
    for i, s in enumerate(spans):
        members[s[UNIT]].append(i)
    iters = [UnitView(spans, selfs, members[u]) for u in iteration_units]
    setups = [UnitView(spans, selfs, members[u]) for u in setup_units]
    out, absent = {}, []
    for metric, unit, kind, names in LAYER_METRICS:
        if not any(n in known for n in names):
            absent.append(metric)
        value = 0.0
        for views in (iters, setups):
            values = [v for v in (view.value(kind, metric, names) for view in views) if v is not None]
            if values:
                value = statistics.median(values)
                break
        out[metric] = {"value": value, "unit": unit}
    return out, absent


def check_nesting(spans: list[list]) -> list[str]:
    """Problems with span structure: a child outside its parent's interval,
    a parent recorded after its child, or a unit that differs from the parent's."""
    problems = []
    for i, s in enumerate(spans):
        if s[END] < s[START]:
            problems.append(f"span {i} {s[NAME]} ends before it starts")
        p = s[PARENT]
        if p is None:
            continue
        parent = spans[p]
        if p >= i or s[START] < parent[START] or s[END] > parent[END] or s[UNIT] != parent[UNIT]:
            problems.append(f"span {i} {s[NAME]} is not nested in its parent {p} {parent[NAME]}")
    return problems
