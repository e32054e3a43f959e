"""The benchmark workloads and the runner that drives the CLI in process.

Every program call goes through ``metrovec.cli.main(argv)``, looked up at
call time so that a traced unit reaches the wrappers. A run interleaves
its set-ups (each generates the inputs from the seed) with measured
iterations until ``--seconds`` are spent. Each CLI call counts as one operation; it
fails if it exits non-zero or its output check fails. Every timed call is
followed by a reference slice of ``hostspeed`` and its time is reported at
the reference speed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import hostspeed
import spans

BLANK_SALT = 0xB1A7   # seed stream for which street-view rows lose their neighborhood id
QUERY_SALT = 0x0E21   # seed stream for the similar-query id list
LEAST_EVERY = 10      # one similar query in ten asks for the least similar
SETUPS = 6            # set-ups per run; setup_s is the mean of the middle four
MIN_ITERATIONS = 4    # measured iterations before a run may stop
DIM, HIDDEN = 32, 16  # --d and --hidden of every workload
CLUSTER_K = 16
CLUSTER_SLOTS = 8     # places in an iteration's read side that run k-means,
CLUSTER_PER_SLOT = 6  # each with this many seeds back to back: the same 48
                      # seeds in every iteration, because Lloyd's iteration
                      # count varies by seed (a mean over 8 moved by 15%)
QUERIES = 125         # similar calls per iteration: 500 in MIN_ITERATIONS
SMOKE_QUERIES = 10
SIMILAR_CHUNK = 25    # similar calls between two reference slices
READ_INGESTS = 1      # ingests per iteration into a scratch workspace, beside the pipeline's
EVAL_PASSES = 1       # passes over the workload's eval calls per iteration
STAGES = ["ingest", "train_sv", "aggregate", "train_poi"]


@dataclass(frozen=True)
class Workload:
    name: str
    city: dict                 # SynthConfig fields; the seed comes from --seed
    features: str              # "bin" or "csv"
    blank_frac: float          # share of street-view rows written without a neighborhood id
    epochs_sv: int
    epochs_poi: int
    evals: tuple               # (embedding, repeats) per eval call


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in [
    Workload("sv_city",
             city={"n_neighborhoods": 200, "views_per_neighborhood": 20, "pois_per_neighborhood": 2},
             features="bin", blank_frac=0.0, epochs_sv=10, epochs_poi=5,
             evals=(("u2v", 20), ("sve", 20))),
    Workload("poi_city",
             city={"n_neighborhoods": 600, "views_per_neighborhood": 3, "pois_per_neighborhood": 20,
                   "vocab_size": 2000},
             features="csv", blank_frac=0.1, epochs_sv=3, epochs_poi=10,
             evals=(("u2v", 20), ("poistats", 2))),
]}

# Seconds-long versions for the benchmark's own tests.
SMOKE = {
    "sv_city": {"city": {"n_neighborhoods": 24, "views_per_neighborhood": 4, "pois_per_neighborhood": 2}},
    "poi_city": {"city": {"n_neighborhoods": 24, "views_per_neighborhood": 3, "pois_per_neighborhood": 6,
                          "vocab_size": 100}},
}


def workload(name: str, smoke: bool = False) -> Workload:
    w = WORKLOADS[name]
    if not smoke:
        return w
    small = {"epochs_sv": 1, "epochs_poi": 1, "evals": tuple((e, 2) for e, _ in w.evals)}
    return dataclasses.replace(w, **{**small, **SMOKE[name]})


class _Discard(io.TextIOBase):
    def write(self, s):
        return len(s)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                h.update(chunk)
    return h.hexdigest()


class Run:
    """One benchmark run: set-ups, measured iterations, and their samples.

    ``samples[traced][metric]`` holds one value per unit, in seconds at
    the reference speed of ``hostspeed``. A traced run alternates untraced
    and traced units so that the tracing overhead is measured under the
    same conditions.
    """

    def __init__(self, name: str, seed: int, workdir: Path, modules, tracer=None, smoke: bool = False):
        self.w, self.seed, self.workdir, self.tracer = workload(name, smoke), seed, workdir, tracer
        self.n_queries = SMOKE_QUERIES if smoke else QUERIES
        self.cli, self.fileio, self.corpus = modules
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.samples = {False: defaultdict(list), True: defaultdict(list)}
        self.similar_ms: list[float] = []  # untraced iterations only
        self.quality: dict = {}
        self.input_digest = None
        self.check_s = 0.0
        self.units = {"setup": [], "iteration": []}
        self.inputs = self.ws = self.held_out = None
        self.queries: list[tuple[str, bool]] = []
        self.host = hostspeed.HostSpeed()
        self.peak = (_max_rss_kb(), "start")  # (ru_maxrss, what last raised it)

    # ------------------------------------------------------------ plumbing

    def _unit(self, kind: str, index: int, traced: bool):
        label = f"{kind}{index}"
        if traced:
            self.units[kind].append(label)
            return self.tracer.traced(label)
        return contextlib.nullcontext()

    def _note_peak(self, label: str) -> None:
        """Attribute a rise of the process's peak resident set to ``label``:
        a CLI subcommand, the benchmark's checks, or the harness in between."""
        kb = _max_rss_kb()
        if kb > self.peak[0]:
            self.peak = (kb, label)

    def _check(self, fn, label: str):
        """Run the benchmark's own check outside the timings and the trace."""
        self._note_peak("harness")
        start = time.perf_counter()
        with self.tracer.paused() if self.tracer else contextlib.nullcontext():
            try:
                return fn()
            finally:
                self.check_s += time.perf_counter() - start
                self._note_peak(label)

    def _fail(self, problem: str) -> None:
        self.problems.append(problem)
        print(f"check failed: {problem}", file=sys.stderr)

    def call(self, argv: list, check=None) -> float:
        """Run one CLI call; return its wall time in seconds."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        self._note_peak("harness")
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(_Discard()):
                code = self.cli.main(argv)
        except Exception:  # a traceback is a failed operation, not a failed benchmark
            traceback.print_exc()
            code = None
        seconds = time.perf_counter() - start
        self._note_peak(argv[0])
        problem = None if code == 0 else f"{argv[0]} exited {code}"
        if problem is None and check is not None:
            try:
                problem = self._check(check, f"check of {argv[0]}")
            except Exception as exc:  # noqa: BLE001 - a broken output is a failed operation
                problem = f"output check raised {exc!r}"
        if problem is not None:
            self.failed += 1
            self._fail(f"{' '.join(argv[:3])}: {problem}")
        return seconds

    def timed(self, argv: list, check=None) -> float:
        """Run one CLI call; return its time at the reference speed."""
        return self.call(argv, check) * self.host.mark()

    def _quality(self, fn) -> None:
        """Record values that must repeat exactly in every unit of the run."""
        try:
            values = self._check(fn, "quality check")
        except Exception as exc:  # noqa: BLE001 - reported as a failed check
            self._fail(f"quality: {exc!r}")
            return
        for key, value in values.items():
            if key not in self.quality:
                self.quality[key] = value
            elif self.quality[key] != value:
                self._fail(f"{key} changed between units: {self.quality[key]!r} then {value!r}")

    # ------------------------------------------------------------ set-up

    def _blank_ids(self, inputs: Path) -> None:
        path = inputs / "street_views.csv"
        rows = checks.read_csv(path)
        rng = np.random.default_rng([self.seed, BLANK_SALT])
        n = len(rows) - 1
        for i in rng.choice(n, size=round(n * self.w.blank_frac), replace=False):
            rows[1 + i][3] = ""
        path.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")

    def _query_list(self, inputs: Path) -> list[tuple[str, bool]]:
        ids = [r[0] for r in checks.read_csv(inputs / "centroids.csv")[1:]]
        rng = np.random.default_rng([self.seed, QUERY_SALT])
        picks = rng.integers(0, len(ids), self.n_queries)
        return [(ids[p], i % LEAST_EVERY == LEAST_EVERY - 1) for i, p in enumerate(picks)]

    def setup(self, rep: int, traced: bool = False) -> None:
        """Generate the inputs from the seed. Every set-up of a run must
        produce byte-identical inputs."""
        w, base = self.w, self.workdir / f"setup{rep}"
        shutil.rmtree(base, ignore_errors=True)
        base.mkdir(parents=True)
        inputs, config = base / "in", base / "city.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in {**w.city, "seed": self.seed}.items()),
                          encoding="utf-8")
        self.held_out = checks.HeldOut(self.corpus, inputs, self.seed)
        with self._unit("setup", rep, traced):
            start, checked = time.perf_counter(), self.check_s
            self.call(["synth", "--config", config, "--out", inputs, "--features-format", w.features],
                      check=lambda: None if (inputs / "attributes.csv").exists() else "no attributes.csv")
            if w.blank_frac:
                self._blank_ids(inputs)
            queries = self._query_list(inputs)
            seconds = time.perf_counter() - start - (self.check_s - checked)
        self.samples[traced]["setup_s"].append(seconds * self.host.mark())
        digest = _digest(sorted(inputs.iterdir())) + repr(queries)
        if self.input_digest not in (None, digest):
            self._fail("set-ups of one seed produced different inputs")
        self.input_digest = digest
        if self.inputs is not None:
            shutil.rmtree(self.inputs.parent, ignore_errors=True)
        self.inputs, self.queries = inputs, queries
        self.ws = self.workdir / "ws"

    # ------------------------------------------------------------ program calls

    def ingest(self, inputs: Path, ws: Path) -> float:
        shutil.rmtree(ws, ignore_errors=True)
        w = self.w
        return self.timed(
            ["ingest", "--workspace", ws, "--poi", inputs / "poi.jsonl",
             "--features", inputs / f"features.{w.features}", "--ids", inputs / "street_views.csv",
             "--centroids", inputs / "centroids.csv", *(["--assign-missing"] if w.blank_frac else [])],
            check=lambda: checks.check_stages(ws, STAGES[:1]))

    def pipeline(self, inputs: Path, ws: Path) -> dict:
        """ingest -> train-sv -> aggregate -> train-poi into a fresh workspace;
        returns each stage's time and their sum."""
        w, fio = self.w, self.fileio
        sv_ids = sorted(r[0] for r in checks.read_csv(inputs / "street_views.csv")[1:])
        nbhd_ids = sorted(r[0] for r in checks.read_csv(inputs / "centroids.csv")[1:])
        model = ["--d", DIM, "--hidden", HIDDEN, "--epochs-sv", w.epochs_sv, "--seed", self.seed]
        t = {"ingest_s": self.ingest(inputs, ws)}
        t["train_sv_s"] = self.timed(
            ["train-sv", "--workspace", ws, *model],
            check=lambda: checks.check_stages(ws, STAGES[:2])
            or checks.check_checkpoint(fio, ws, "sv", sv_ids, DIM))
        t["aggregate_s"] = self.timed(
            ["aggregate", "--workspace", ws],
            check=lambda: checks.check_stages(ws, STAGES[:3])
            or checks.check_checkpoint(fio, ws, "sve", nbhd_ids, DIM))
        t["train_poi_s"] = self.timed(
            ["train-poi", "--workspace", ws, "--epochs-poi", w.epochs_poi],
            check=lambda: checks.check_stages(ws, STAGES)
            or checks.check_checkpoint(fio, ws, "u2v", nbhd_ids, DIM)
            or checks.check_checkpoint(fio, ws, "words", self.held_out.vocabulary(), DIM))
        t["pipeline_s"] = sum(t.values())
        digest = self._check(lambda: _digest(sorted((ws / "checkpoints").iterdir())), "quality check")
        if digest != self.quality.get("checkpoints"):
            # The same checkpoint bytes give the same held-out losses.
            self._quality(lambda: {**self.held_out.losses(fio, ws), "checkpoints": digest})
        return t

    def _record(self, traced: bool, times: dict) -> None:
        for key, value in times.items():
            self.samples[traced][key].append(value)

    def iteration(self, index: int, traced: bool = False) -> None:
        """The pipeline, then the read side: the similar queries with
        ingests, eval passes and k-means calls spread evenly among them.
        Each metric gets one sample: the mean of the iteration's calls
        (ingest, cluster) or passes (eval)."""
        w, ws, inputs = self.w, self.ws, self.inputs
        targets = checks.read_csv(inputs / "attributes.csv")[0][1:]
        nbhd_ids = sorted(r[0] for r in checks.read_csv(inputs / "centroids.csv")[1:])
        times = defaultdict(list)
        with self._unit("iteration", index, traced):
            stages = self.pipeline(inputs, ws)
            times["ingest_s"].append(stages.pop("ingest_s"))
            self._record(traced, stages)
            latencies, chunk = [], []
            order = schedule(len(self.queries), {"ingest": READ_INGESTS, "eval": EVAL_PASSES,
                                                 "cluster": CLUSTER_SLOTS})
            for i, (kind, k) in enumerate(order):
                if kind == "similar":
                    query, least = self.queries[k]
                    chunk.append(self.call(
                        ["similar", "--workspace", ws, "--query", query, "--top", 10,
                         *(["--least"] if least else [])],
                        check=lambda q=query, lst=least: checks.check_similar(ws, q, 10, lst)))
                    if len(chunk) == SIMILAR_CHUNK or i + 1 == len(order) or order[i + 1][0] != "similar":
                        factor = self.host.mark()
                        latencies += [seconds * factor * 1e3 for seconds in chunk]
                        chunk = []
                elif kind == "ingest":
                    # A scratch workspace: the trained one stays as is.
                    times["ingest_s"].append(self.ingest(inputs, self.workdir / "ingest"))
                elif kind == "eval":
                    times["eval_s"].append(sum(self.timed(
                        ["eval", "--workspace", ws, "--targets", inputs / "attributes.csv",
                         "--repeats", repeats, "--embedding", embedding],
                        check=lambda e=embedding: checks.check_eval(ws, e, targets))
                        for embedding, repeats in w.evals))
                    self._quality(lambda: {"latent_r2": checks.overall_r2(ws, "u2v")})
                else:
                    calls = [self.call(
                        ["cluster", "--workspace", ws, "--k", CLUSTER_K,
                         "--seed", self.seed + k * CLUSTER_PER_SLOT + j],
                        check=lambda: checks.check_clusters(ws, nbhd_ids, CLUSTER_K))
                        for j in range(CLUSTER_PER_SLOT)]
                    factor = self.host.mark()
                    times["cluster_s"] += [seconds * factor for seconds in calls]
            self._record(traced, {key: statistics.fmean(v) for key, v in times.items()})
            if not traced:
                self.similar_ms += latencies

    def run(self, seconds: float) -> None:
        """Round i runs set-up i (for the first SETUPS rounds) and then
        iteration i, so every metric's samples spread over the whole run.
        Rounds go on until ``seconds`` of iteration time are spent and
        MIN_ITERATIONS iterations are done; set-ups not run by then follow
        the last round, so every run has SETUPS of them. A traced run
        traces every other unit, so its rounds hold both kinds."""
        tracing = self.tracer is not None
        spent, durations, index = 0.0, [], 0
        while True:
            traced = tracing and index % 2 == 1
            if index < SETUPS:
                self.setup(index, traced)
                # Keep the harness's long-lived objects out of the collector's
                # full passes, which would otherwise land in timed calls.
                gc.collect()
                gc.freeze()
            start = time.perf_counter()
            self.iteration(index, traced)
            durations.append(time.perf_counter() - start)
            spent += durations[-1]
            index += 1
            if index >= MIN_ITERATIONS and spent + statistics.median(durations) > seconds:
                break
        for rep in range(index, SETUPS):
            self.setup(rep, tracing and rep % 2 == 1)

    # ------------------------------------------------------------ results

    def end_to_end(self) -> dict:
        samples = self.samples[False]
        quality = {k: self.quality.get(k, math.nan)
                   for k in ("latent_r2", "sv_heldout_loss", "poi_heldout_loss")}
        values = {
            **{k: (midmean(samples[k]), "s") for k in
               ("setup_s", "pipeline_s", "ingest_s", "train_sv_s", "train_poi_s", "eval_s", "cluster_s")},
            "similar_p50_ms": (statistics.median(self.similar_ms), "ms"),
            "similar_p75_ms": (p75(self.similar_ms), "ms"),
            "peak_rss_mb": (_max_rss_kb() / 1024.0, "MB"),
            "latent_r2": (quality["latent_r2"], "R2"),
            "sv_heldout_loss": (quality["sv_heldout_loss"], "hinge"),
            "poi_heldout_loss": (quality["poi_heldout_loss"], "hinge"),
            "ops_ok": ((self.attempted - self.failed) / self.attempted, "frac"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def per_layer(self) -> tuple[dict, list]:
        tracer = self.tracer
        metrics, absent = spans.layer_metrics(tracer.spans, self.units["iteration"], self.units["setup"],
                                              set(tracer.targets))
        for key in ("sv_active_frac", "poi_active_frac"):
            metrics[f"training.{key}"] = {"value": self.quality.get(key, 0.0), "unit": "frac"}
        traced, plain = self.samples[True]["pipeline_s"], self.samples[False]["pipeline_s"]
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics["trace_overhead_frac"] = {"value": overhead, "unit": "frac"}
        return metrics, absent


def schedule(n_similar: int, counts: dict) -> list[tuple[str, int]]:
    """(kind, k) for the read side of one iteration: the k-th call of each
    kind in ``counts`` sits at fraction (k + 1/2) / count of the similar
    queries, so every metric samples the host across the iteration."""
    marks = sorted(((k + 0.5) / n, kind, k) for kind, n in counts.items() for k in range(n))
    order, done = [], 0
    for frac, kind, k in marks:
        while done < frac * n_similar:
            order.append(("similar", done))
            done += 1
        order.append((kind, k))
    return order + [("similar", i) for i in range(done, n_similar)]


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def midmean(values: list[float]) -> float:
    """Mean of the middle half: the fastest and the slowest quarter of the
    samples are dropped (the median of four samples)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def p75(values: list[float]) -> float:
    """Nearest-rank 75th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-3 * len(ordered) // 4) - 1)]
