"""Pipeline orchestration: synth, ingest, staged training, and evaluation.

A workspace directory holds a JSON manifest plus normalized inputs,
checkpoints, and reports. The manifest keeps one record per completed stage,
with the content hash of every file that stage wrote, and a file is read only
through the record of its stage, so stages can only run in order on
untampered files. All randomness derives from the seed each command runs
with; the records of the three stages after ingest hold the seeds they ran
with.

Exit codes: 0 success, 2 usage error, 3 data validation error,
4 stage-order or integrity error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import os
import sys
import typing
from collections import Counter
from pathlib import Path

import numpy as np

from . import analytics, corpus, fileio, synthcity, training
from .encoder import init_encoder
from .errors import (IntegrityError, NotFoundError, PipelineError, StageOrderError,
                     UsageError, ValidationError)
# Unused here: perfbench's test_wrappers_sit_on_the_names_callers_use calls cli.build_index (ROADMAP C3).
from .geo import SpatialIndex, assign_neighborhood, build_index
from .training import EMPTY_POLICIES, TrainingConfig

log = logging.getLogger(__name__)

STAGES = ["ingest", "train_sv", "aggregate", "train_poi"]
MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 2

INGESTED = {
    "street_views": "ingested/street_views.csv",
    "features": "ingested/features.bin",
    "bags": "ingested/bags.bin",
    "centroids": "ingested/centroids.csv",
}
CHECKPOINTS = {
    "sv": "checkpoints/sv.emb",
    "sve": "checkpoints/sve.emb",
    "u2v": "checkpoints/u2v.emb",
    "words": "checkpoints/words.emb",
}

# The stage that writes each workspace file. Its record holds the file's hash,
# and a file is read only while that record is in the manifest.
WRITTEN_BY = {**{relpath: "ingest" for relpath in INGESTED.values()},
              CHECKPOINTS["sv"]: "train_sv", CHECKPOINTS["sve"]: "aggregate",
              CHECKPOINTS["u2v"]: "train_poi", CHECKPOINTS["words"]: "train_poi"}

# Config fields each stage's checkpoints were made with. A later stage may not
# change them: the manifest record would no longer describe those checkpoints,
# and later commands read it.
_FIXED_BY_STAGE = {
    "train_sv": ("d", "hidden", "k_context", "margin_sv", "lr_sv", "epochs_sv", "batch_size"),
    "aggregate": ("empty_policy",),
}

# Seed offsets off the stage's seed; stage-3 word init and SGD offsets live in
# training.train_poi_stage (seed, seed + 1).
POI_ONLY_Z_SEED_OFFSET = 2


def load_manifest(workspace: Path) -> dict:
    path = workspace / MANIFEST_NAME
    if not path.exists():
        raise StageOrderError(f"no manifest at {path}; run 'ingest' first")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (ValueError, RecursionError) as exc:  # JSON syntax, text encoding or nesting depth
        raise IntegrityError(f"{path} is not a readable manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise IntegrityError(f"{path} is not a manifest: a JSON object is expected")
    if manifest.get("version") != MANIFEST_VERSION:
        raise IntegrityError(f"{path} is a manifest of version {manifest.get('version')!r}, not "
                             f"{MANIFEST_VERSION}; re-run 'ingest' to rebuild the workspace")
    if not isinstance(manifest.get("stages"), dict):
        raise IntegrityError(f"{path} is not a manifest: no 'stages' object")
    for stage, record in manifest["stages"].items():
        if not isinstance(record, dict) or not isinstance(record.get("files"), dict):
            raise IntegrityError(f"{path} is not a manifest: the record of stage {stage!r} has no 'files' object")
        for relpath, recorded in record["files"].items():
            if not isinstance(recorded, str):
                raise IntegrityError(f"{path} is not a manifest: the hash of {relpath!r} is {recorded!r}, "
                                     "not a string")
    config = manifest.get("config")
    if config is not None:
        if not isinstance(config, dict):
            raise IntegrityError(f"{path} is not a manifest: 'config' is not an object")
        types = _field_types(TrainingConfig)
        for key, value in config.items():
            kind = types.get(key)
            if kind is None:
                raise IntegrityError(f"{path} is not a manifest: unknown config field {key!r}")
            allowed = (int, float) if kind is float else kind  # JSON has one number type
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise IntegrityError(f"{path} is not a manifest: config field {key!r} holds {value!r}, "
                                     f"not a {kind.__name__}")
    return manifest


def save_manifest(workspace: Path, manifest: dict) -> None:
    with fileio.atomic_open(workspace / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _require_stage(manifest: dict, stage: str) -> dict:
    """The record of ``stage``, which must have completed."""
    record = manifest["stages"].get(stage)
    if record is None:
        raise StageOrderError(f"stage '{stage.replace('_', '-')}' has not completed in this workspace")
    return record


def _verify_file(workspace: Path, manifest: dict, relpath: str) -> Path:
    """The path of ``relpath`` in the workspace, refused unless the record of
    the stage that wrote it holds the file's hash."""
    recorded = _require_stage(manifest, WRITTEN_BY[relpath])["files"].get(relpath)
    if recorded is None:
        raise IntegrityError(f"{relpath} is not recorded in the manifest")
    path = workspace / relpath
    if not path.exists():
        raise IntegrityError(f"{relpath} is missing from the workspace")
    actual = fileio.sha256_file(path)
    if actual != recorded:
        raise IntegrityError(f"{relpath} hash mismatch: manifest {recorded[:12]}..., file {actual[:12]}...")
    return path


def _complete_stage(workspace: Path, manifest: dict, stage: str, config: TrainingConfig | None = None,
                    **fields) -> None:
    """Drop the records of ``stage`` and every later stage, whose files can
    then no longer be read, and record ``stage``: the hash of each file it
    wrote, the seed of the ``config`` it ran with, and ``fields``. The
    ``config`` becomes the manifest's, which is saved."""
    for later in STAGES[STAGES.index(stage):]:
        manifest["stages"].pop(later, None)
    record = {"files": {relpath: fileio.sha256_file(workspace / relpath)
                        for relpath, writer in WRITTEN_BY.items() if writer == stage}, **fields}
    if config is not None:
        manifest["config"] = dataclasses.asdict(config)
        record["seed"] = config.seed
    manifest["stages"][stage] = record
    save_manifest(workspace, manifest)


def _parse_kv_file(path) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return out


@functools.cache
def _field_types(cls) -> dict[str, type]:
    """Dataclass field name -> its annotated type, resolved from the string
    annotations that ``from __future__ import annotations`` leaves. Cached
    because building the parser asks three times, and config files and
    manifests again."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _coerce_into(instance, values: dict[str, str], source: str):
    types = _field_types(type(instance))
    for key, raw in values.items():
        kind = types.get(key)
        if kind is None:
            raise ValidationError(f"{source}: unknown config field {key!r}")
        try:
            val = _BOOLEANS[raw.lower()] if kind is bool else kind(raw)
        except (KeyError, ValueError):
            raise ValidationError(f"{source}: field {key!r} got unparsable value {raw!r}") from None
        setattr(instance, key, val)
    return instance


def _resolve_config(manifest: dict, args, stage: str | None = None) -> TrainingConfig:
    """The checked config a command runs with. Precedence: defaults < the
    manifest's record < the --config file < flags, where every parsed
    argument named after a field is its flag (so ``eval``'s and
    ``cluster``'s --seed replaces the seed). For a training ``stage``, the
    stage before it must have completed, the record must pass the same check,
    and a field that a stage before it fixed (_FIXED_BY_STAGE) may not
    change."""
    recorded = TrainingConfig(**(manifest.get("config") or {}))
    config = dataclasses.replace(recorded)
    if getattr(args, "config", None):
        _coerce_into(config, _parse_kv_file(args.config), str(args.config))
    for name in _field_types(TrainingConfig):
        if getattr(args, name, None) is not None:
            setattr(config, name, getattr(args, name))
    config.validate()
    if stage:
        _require_stage(manifest, STAGES[STAGES.index(stage) - 1])
        recorded.validate()
        for earlier in STAGES[:STAGES.index(stage)]:
            for name in _FIXED_BY_STAGE.get(earlier, ()):
                want, got = getattr(recorded, name), getattr(config, name)
                if got != want:
                    raise ValidationError(f"{name}={got!r} differs from {name}={want!r}, which "
                                          f"'{earlier.replace('_', '-')}' ran with; re-run it to change {name}")
    return config


def _config_flags(parser: argparse.ArgumentParser) -> None:
    """--config plus one --kebab-case flag per TrainingConfig field."""
    parser.add_argument("--config", default=None, help="key=value config file")
    for name, kind in _field_types(TrainingConfig).items():
        flag = "--" + name.replace("_", "-")
        if name == "empty_policy":
            parser.add_argument(flag, choices=EMPTY_POLICIES, default=None)
        else:
            parser.add_argument(flag, type=kind, default=None)


# ---------------------------------------------------------------- commands


def cmd_synth(args) -> int:
    cfg = synthcity.SynthConfig()
    if args.config:
        _coerce_into(cfg, _parse_kv_file(args.config), str(args.config))
    cfg.validate()
    city = synthcity.generate_city(cfg)
    paths = synthcity.export_city(city, args.out, features_format=args.features_format)
    print(f"synthetic city: {cfg.n_neighborhoods} neighborhoods, "
          f"{len(city.sv_ids)} street views, {len(city.pois)} POIs")
    for name, path in sorted(paths.items()):
        print(f"  {name}: {path}")
    return 0


def _load_features(features_path, meta_ids: list[str]):
    """Features either as GVFEAT01 binary (rows follow the id-sorted metadata)
    or CSV with inline ids; returns the matrix aligned to the metadata order."""
    with open(features_path, "rb") as fh:
        is_bin = fh.read(8) == fileio.FEATURE_MAGIC
    if is_bin:
        if meta_ids != sorted(meta_ids):
            raise ValidationError("binary features require the ids file sorted ascending by id")
        matrix = fileio.read_feature_bin(features_path)
        if matrix.shape[0] != len(meta_ids):
            raise ValidationError(f"{matrix.shape[0]} feature rows but {len(meta_ids)} metadata rows")
        return matrix
    ids, matrix = fileio.read_features_csv(features_path)
    return matrix[_rows_for(ids, meta_ids, "feature CSV")]


def _rows_for(table_ids: list, wanted: list, what: str) -> list[int]:
    """The row of each wanted id in a table whose rows carry ``table_ids``;
    the table must hold each wanted id exactly once and no other."""
    row_of = {rid: i for i, rid in enumerate(table_ids)}
    if len(row_of) != len(table_ids):
        twice = [rid for rid, n in Counter(table_ids).items() if n > 1]
        raise ValidationError(f"duplicate ids in {what}: {twice[:5]}")
    missing = [rid for rid in wanted if rid not in row_of]
    wanted_set = set(wanted)
    extra = [rid for rid in table_ids if rid not in wanted_set]
    if missing or extra:
        raise ValidationError(f"{what} id mismatch: missing {missing[:5]}, extra {extra[:5]}")
    return [row_of[rid] for rid in wanted]


def cmd_ingest(args) -> int:
    workspace = args.workspace

    centroid_ids, centroid_lat, centroid_lon, cities = fileio.read_centroids_csv(args.centroids)
    if len(set(centroid_ids)) != len(centroid_ids):
        raise ValidationError("duplicate centroid ids")
    known = set(centroid_ids)

    sv_ids, sv_lat, sv_lon, sv_nids = fileio.read_sv_metadata(args.ids)
    if len(set(sv_ids)) != len(sv_ids):
        raise ValidationError("duplicate street-view ids")
    features = _load_features(args.features, sv_ids)
    if not np.isfinite(features).all():
        bad = [sv_ids[i] for i in np.unique(np.nonzero(~np.isfinite(features))[0])][:5]
        raise ValidationError(f"non-finite feature values for street views {bad}")

    pois = corpus.read_poi_columns(args.poi)

    def resolve(ids, nids, lat, lon, kind):
        """Fill in the None entries of ``nids`` with the id of the centroid
        nearest the row's ``lat``, ``lon``; refuse unknown ids, and missing
        ones without --assign-missing."""
        dangling = [(rid, nid) for rid, nid in zip(ids, nids) if nid is not None and nid not in known]
        if dangling:
            raise ValidationError(f"{kind} records reference unknown neighborhoods: {dangling[:10]}")
        unassigned = [i for i, nid in enumerate(nids) if nid is None]
        if unassigned:
            if not args.assign_missing:
                names = [ids[i] for i in unassigned[:10]]
                raise ValidationError(f"{kind} records without neighborhood ids (use --assign-missing): {names}")
            nearest = assign_neighborhood(lat[unassigned], lon[unassigned], centroid_ids, centroid_lat, centroid_lon)
            for i, nid in zip(unassigned, nearest):
                nids[i] = nid
            log.info("assigned %d %s records to nearest centroids", len(unassigned), kind)

    resolve(sv_ids, sv_nids, sv_lat, sv_lon, "street-view")
    resolve(pois.ids, pois.neighborhood_ids, pois.lat, pois.lon, "POI")
    table = corpus.build_bag_table(pois, sorted(centroid_ids))
    bad = next((sid for sid in sv_ids if "\n" in sid), None)  # refused before any write
    if bad is not None:
        raise ValidationError(f"{args.ids}: street-view id {bad!r} holds a newline, which a checkpoint cannot hold")

    order = sorted(range(len(sv_ids)), key=sv_ids.__getitem__)
    sv_ids, sv_nids = [sv_ids[i] for i in order], [sv_nids[i] for i in order]

    # The bag table first: it is the one write that can still refuse its data
    # (a token that is not valid Unicode, an id holding a newline), and it
    # makes the workspace only once it has not.
    fileio.write_bags(workspace / INGESTED["bags"], table)
    fileio.write_sv_metadata(workspace / INGESTED["street_views"], sv_ids, sv_lat[order], sv_lon[order], sv_nids)
    fileio.write_feature_bin(workspace / INGESTED["features"], sv_ids, features[order])
    fileio.write_centroids_csv(workspace / INGESTED["centroids"], centroid_ids, centroid_lat, centroid_lon, cities)

    manifest = {"version": MANIFEST_VERSION, "config": None, "stages": {}}
    inputs = {"poi": str(args.poi), "features": str(args.features),
              "ids": str(args.ids), "centroids": str(args.centroids)}
    _complete_stage(workspace, manifest, "ingest", inputs=inputs)
    print(f"ingested {len(sv_ids)} street views, {len(pois)} POIs, "
          f"{len(centroid_ids)} neighborhoods into {workspace}")
    return 0


def _write_report(workspace: Path, name: str, text: str) -> Path:
    """Write ``text`` to ``reports/<name>`` through a temporary file beside
    it: the old report is unlinked, then the temporary file is renamed into
    place. A report is never partial. On a failure the temporary file is
    removed, and before the unlink the old report stays as it was; for the
    moment between unlink and rename there is no report. Not ``atomic_open``'s
    rename over the old file: on ext4 with its default ``auto_da_alloc``, a
    rename over (or a truncation of) an existing file forces the new data out
    to disk first, a cost paid by every repeated read-side command. ``name``
    must be one plain file name: it may carry a query id or a city tag, and
    those come from the input files. The text is written as it is (a CSV
    report's \\r\\n line ends too)."""
    if name in (".", "..") or fileio.splits_a_path(name):
        raise ValidationError(f"report name {name!r} is not a plain file name")
    path = workspace / "reports" / name
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_name(f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        path.unlink(missing_ok=True)
        os.rename(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _read_checkpoint(workspace: Path, manifest: dict, name: str, d: int):
    """The checkpoint's ids and matrix, refused unless it has the ``d``
    columns of the manifest's config: every checkpoint is d wide."""
    relpath = CHECKPOINTS[name]
    ids, matrix = fileio.read_embeddings(_verify_file(workspace, manifest, relpath))
    if matrix.shape[1] != d:
        raise IntegrityError(f"{relpath} has {matrix.shape[1]} columns, but the manifest's config has d = {d}")
    return ids, matrix


def cmd_train_sv(args) -> int:
    workspace = args.workspace
    manifest = load_manifest(workspace)
    config = _resolve_config(manifest, args, "train_sv")
    sv_ids, lat, lon, _ = fileio.read_sv_metadata(_verify_file(workspace, manifest, INGESTED["street_views"]))
    features = fileio.read_feature_bin(_verify_file(workspace, manifest, INGESTED["features"]))

    params = init_encoder(features.shape[1], config.hidden, config.d, config.seed)
    params, X = training.train_street_view(params, sv_ids, features, SpatialIndex(sv_ids, lat, lon), config)
    fileio.write_embeddings(workspace / CHECKPOINTS["sv"], sv_ids, X)
    _complete_stage(workspace, manifest, "train_sv", config)
    print(f"trained street-view embeddings: {X.shape[0]} x {X.shape[1]} "
          f"({config.epochs_sv} epochs, seed {config.seed})")
    return 0


def cmd_aggregate(args) -> int:
    workspace = args.workspace
    manifest = load_manifest(workspace)
    config = _resolve_config(manifest, args, "aggregate")
    sv_ids, X = _read_checkpoint(workspace, manifest, "sv", config.d)
    meta_ids, _, _, meta_nids = fileio.read_sv_metadata(_verify_file(workspace, manifest, INGESTED["street_views"]))
    neighborhood_ids = sorted(fileio.read_centroids_csv(_verify_file(workspace, manifest, INGESTED["centroids"]))[0])
    nbhd_of = dict(zip(meta_ids, meta_nids))
    try:
        assignments = [nbhd_of[sid] for sid in sv_ids]
    except KeyError as exc:
        raise ValidationError(f"checkpoint id {exc} missing from ingested street views") from None
    Z = training.aggregate_neighborhoods(X, assignments, neighborhood_ids, policy=config.empty_policy)
    fileio.write_embeddings(workspace / CHECKPOINTS["sve"], neighborhood_ids, Z)
    _complete_stage(workspace, manifest, "aggregate", config)
    print(f"aggregated {X.shape[0]} street views into {Z.shape[0]} neighborhood embeddings")
    return 0


def cmd_train_poi(args) -> int:
    workspace = args.workspace
    manifest = load_manifest(workspace)
    config = _resolve_config(manifest, args, "train_poi")
    neighborhood_ids, z_init = _read_checkpoint(workspace, manifest, "sve", config.d)
    table = fileio.read_bags(_verify_file(workspace, manifest, INGESTED["bags"]))
    vocab = corpus.build_vocabulary(table)
    pretrained = None
    if args.pretrained:
        pretrained = corpus.load_pretrained_vectors(args.pretrained, vocab, config.d)
        log.info("loaded %d pretrained word vectors", len(pretrained))
    Z, Y = training.train_poi_stage(z_init, neighborhood_ids, vocab, corpus.bags_of(table), config, pretrained)
    fileio.write_embeddings(workspace / CHECKPOINTS["u2v"], neighborhood_ids, Z)
    fileio.write_embeddings(workspace / CHECKPOINTS["words"], list(vocab.tokens), Y)
    _complete_stage(workspace, manifest, "train_poi", config)
    print(f"trained joint embeddings: {Z.shape[0]} neighborhoods, {Y.shape[0]} words "
          f"({config.epochs_poi} epochs)")
    return 0


def cmd_eval(args) -> int:
    workspace = args.workspace
    manifest = load_manifest(workspace)
    config = _resolve_config(manifest, args)
    # Every argument and the targets, their ids included, are checked before
    # the representation is computed, which for ``poi`` means training a model.
    candidates = []
    if args.pca_components:
        try:
            candidates = [int(c) for c in args.pca_components.split(",") if c.strip()]
        except ValueError:
            raise UsageError(f"--pca-components must be a comma-separated int list, got {args.pca_components!r}") from None
    protocol = analytics.SplitProtocol(repeats=args.repeats, pca_candidates=candidates,
                                       seed=config.seed)
    target_ids, target_names, values = fileio.read_targets_csv(args.targets)

    if args.embedding in ("u2v", "sve"):
        ids, Z = _read_checkpoint(workspace, manifest, args.embedding, config.d)
    else:
        table = fileio.read_bags(_verify_file(workspace, manifest, INGESTED["bags"]))
        ids = table.row_ids
    targets = values[_rows_for(target_ids, ids, "targets CSV")]
    if args.embedding == "poistats":
        Z = analytics.poistats_tfidf(table)[2]
    elif args.embedding == "poi":
        rng = np.random.default_rng(config.seed + POI_ONLY_Z_SEED_OFFSET)
        z_init = rng.uniform(-0.5 / config.d, 0.5 / config.d, size=(len(ids), config.d))
        Z, _ = training.train_poi_stage(z_init, ids, corpus.build_vocabulary(table), corpus.bags_of(table),
                                        config)
    report = analytics.evaluate_regression(Z, targets, target_names, protocol)

    csv_path = _write_report(workspace, f"eval_{args.embedding}.csv", fileio.csv_text(report.to_csv_rows()))
    text = f"embedding: {args.embedding}\n{report.format_text()}\n"
    _write_report(workspace, f"eval_{args.embedding}.txt", text)
    print(text, end="")
    print(f"report written to {csv_path}")
    return 0


def cmd_cluster(args) -> int:
    workspace = args.workspace
    manifest = load_manifest(workspace)
    config = _resolve_config(manifest, args)
    ids, Z = _read_checkpoint(workspace, manifest, args.embedding, config.d)
    labels, _ = analytics.kmeans(Z, args.k, seed=config.seed)
    rows = [("id", "cluster"), *zip(ids, labels.tolist())]
    out = _write_report(workspace, f"clusters_{args.embedding}.csv", fileio.csv_text(rows))
    print(f"k-means (k={args.k}) cluster assignments written to {out}")
    return 0


def cmd_similar(args) -> int:
    workspace = args.workspace
    manifest = load_manifest(workspace)
    ids, Z = _read_checkpoint(workspace, manifest, args.embedding, _resolve_config(manifest, args).d)
    if args.query not in ids:
        raise NotFoundError(f"unknown query neighborhood {args.query!r}")

    city_rows = None  # every neighborhood is a candidate
    if args.from_city:
        centroid_ids, _, _, cities = fileio.read_centroids_csv(_verify_file(workspace, manifest, INGESTED["centroids"]))
        city_of = dict(zip(centroid_ids, cities))
        if not any(city_of.values()):
            raise ValidationError("centroids carry no city tags; --from-city is unavailable")
        city_rows = [i for i, nid in enumerate(ids) if city_of.get(nid) == args.from_city]
        if not city_rows:
            raise ValidationError(f"no neighborhoods tagged with city {args.from_city!r}")

    keep, candidates = (ids, Z) if city_rows is None else ([ids[i] for i in city_rows], Z[city_rows])
    ranked = analytics.cosine_rank(Z[ids.index(args.query)], keep, candidates,
                                   top_n=args.top, ascending=args.least)
    suffix = f"_{args.from_city}" if args.from_city else ""
    rows = [("rank", "id", "cosine")] + [(rank, nid, sim) for rank, (nid, sim) in enumerate(ranked, start=1)]
    out = _write_report(workspace, f"similar_{args.query}{suffix}.csv", fileio.csv_text(rows))
    direction = "least" if args.least else "most"
    print(f"{direction} similar to {args.query}:")
    for rank, (nid, sim) in enumerate(ranked, start=1):
        print(f"  {rank}. {nid}  cosine={sim:.6f}")
    print(f"written to {out}")
    return 0


def cmd_export_emb(args) -> int:
    workspace = args.workspace
    manifest = load_manifest(workspace)
    ids, matrix = _read_checkpoint(workspace, manifest, args.embedding, _resolve_config(manifest, args).d)
    fileio.write_embeddings_tsv(args.out, ids, matrix)
    print(f"wrote {len(ids)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="metrovec",
                                     description="Neighborhood embeddings from street-view features and POI text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic city")
    p.add_argument("--config", default=None, help="key=value synth config file")
    p.add_argument("--out", required=True)
    p.add_argument("--features-format", choices=["bin", "csv"], default="bin")

    p = sub.add_parser("ingest", help="validate inputs into a workspace")
    p.add_argument("--workspace", required=True, type=Path)
    p.add_argument("--poi", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--ids", required=True, help="street-view metadata CSV (id,lat,lon,neighborhood_id)")
    p.add_argument("--centroids", required=True)
    p.add_argument("--assign-missing", action="store_true")

    p = sub.add_parser("train-sv", help="stage 1: street-view triplet training")
    p.add_argument("--workspace", required=True, type=Path)
    _config_flags(p)

    p = sub.add_parser("aggregate", help="stage 2: mean street-view embedding per neighborhood")
    p.add_argument("--workspace", required=True, type=Path)
    _config_flags(p)

    p = sub.add_parser("train-poi", help="stage 3: joint neighborhood/word training")
    p.add_argument("--workspace", required=True, type=Path)
    p.add_argument("--pretrained", default=None, help="optional pretrained word-vector file")
    _config_flags(p)

    p = sub.add_parser("eval", help="repeated-split PCA+LR regression report")
    p.add_argument("--workspace", required=True, type=Path)
    p.add_argument("--targets", required=True)
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--regressor", default="pca-lr", choices=["pca-lr"])
    p.add_argument("--embedding", default="u2v", choices=["u2v", "sve", "poi", "poistats"])
    p.add_argument("--pca-components", default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("cluster", help="k-means over neighborhood embeddings")
    p.add_argument("--workspace", required=True, type=Path)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--embedding", default="u2v", choices=["u2v", "sve"])
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("similar", help="cosine-similarity neighborhood search")
    p.add_argument("--workspace", required=True, type=Path)
    p.add_argument("--query", required=True)
    p.add_argument("--from-city", default=None)
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--least", action="store_true")
    p.add_argument("--embedding", default="u2v", choices=["u2v", "sve"])

    p = sub.add_parser("export-emb", help="export a checkpoint as TSV")
    p.add_argument("--workspace", required=True, type=Path)
    p.add_argument("--embedding", required=True, choices=sorted(CHECKPOINTS))
    p.add_argument("--out", required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: building it costs more than most commands."""
    return build_parser()


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Looked up at call time, so a replaced cmd_* function is the one that runs.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
