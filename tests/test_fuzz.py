"""Seeded, bounded fuzz test: damaged inputs end in a documented exit code.

Every input the CLI reads is damaged a few dozen times from a fixed seed:
truncated at a byte, one byte flipped, one line dropped or repeated, and for
JSON one value replaced by null, a string, a list, an object or a list nested
100000 deep. No mutation writes a new number, so none can ask for a large
allocation or a long run. Each damaged file goes through ``cli.main`` on a
tiny city; the workspace's binary files go to their readers directly, since
the manifest hash refuses any edited workspace file before its reader runs.
"""

import json
import random
import shutil
from pathlib import Path

import pytest

from metrovec.cli import main
from metrovec.errors import PipelineError
from metrovec.fileio import read_bags, read_embeddings, read_feature_bin

SEED = 20261019
MUTATIONS = 40  # per input

SYNTH_CFG = """n_neighborhoods = 6
views_per_neighborhood = 3
pois_per_neighborhood = 3
latent_dim = 2
feature_dim = 4
vocab_size = 16
seed = 5
"""
TRAIN_CFG = "d = 4\nepochs_sv = 1\nepochs_poi = 1\nk_context = 2\ntriplets_per_anchor = 1\nseed = 3\n"
DEEP = "[" * 100000 + "]" * 100000
_DEEP_MARK = "\0deep\0"


def _swap_line(data: bytes, rng: random.Random, repeat: bool) -> bytes:
    lines = data.splitlines(keepends=True)
    if not lines:
        return data
    i = rng.randrange(len(lines))
    return b"".join(lines[:i] + lines[i:i + 1] * (2 if repeat else 0) + lines[i + 1:])


def _flip(data: bytes, rng: random.Random) -> bytes:
    if not data:
        return data
    i = rng.randrange(len(data))
    return data[:i] + bytes([data[i] ^ rng.randrange(1, 256)]) + data[i + 1:]


def _value_paths(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _value_paths(item, path + (key,))


def _replace_json_value(text: str, rng: random.Random) -> str:
    """``text``, one JSON value, with one of its values (itself included)
    replaced by null, a string, a list, an object or a 100000-deep list."""
    value = json.loads(text)
    path = rng.choice(list(_value_paths(value)))
    new = rng.choice([None, rng.choice(["", "x", "a/b", "a,b\t\"c\"\r\n"]), rng.choice([[], ["x"]]),
                      rng.choice([{}, {"x": None}]), _DEEP_MARK])
    if not path:
        value = new
    else:
        parent = value
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = new
    return json.dumps(value).replace(json.dumps(_DEEP_MARK), DEEP)


def mutate(data: bytes, rng: random.Random, kind: str) -> tuple[str, bytes]:
    """(what was done, the damaged bytes) for one mutation of ``data``;
    ``kind`` is "json", "jsonl" (one JSON value per line) or "bytes"."""
    ops = ["truncate", "flip", "drop-line", "repeat-line"] + (["json-value"] * 2 if kind != "bytes" else [])
    op = rng.choice(ops)
    if op == "truncate":
        at = rng.randrange(len(data) + 1)
        return f"truncate at {at}", data[:at]
    if op == "flip":
        return op, _flip(data, rng)
    if op in ("drop-line", "repeat-line"):
        return op, _swap_line(data, rng, op == "repeat-line")
    if kind == "json":
        return op, _replace_json_value(data.decode(), rng).encode()
    lines = data.decode().splitlines(keepends=True)
    i = rng.randrange(len(lines))
    lines[i] = _replace_json_value(lines[i], rng) + "\n"
    return f"{op} on line {i + 1}", "".join(lines).encode()


@pytest.fixture(scope="module")
def city(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    (base / "synth.cfg").write_text(SYNTH_CFG)
    (base / "train.cfg").write_text(TRAIN_CFG)
    assert main(["synth", "--config", str(base / "synth.cfg"), "--out", str(base / "city"),
                 "--features-format", "csv"]) == 0
    # The same city with binary features, whose rows follow the same ids.
    assert main(["synth", "--config", str(base / "synth.cfg"), "--out", str(base / "city-bin")]) == 0
    (base / "words.txt").write_text("".join(f"term{t:03d} 0.5 -0.25 0.125 1.0\n" for t in range(12)))
    ws = base / "ws"
    assert main(_ingest_args(base / "city", ws)) == 0
    assert main(["train-sv", "--workspace", str(ws), "--config", str(base / "train.cfg")]) == 0
    assert main(["aggregate", "--workspace", str(ws)]) == 0
    assert main(["train-poi", "--workspace", str(ws), "--pretrained", str(base / "words.txt")]) == 0
    return base


def _run(argv: list[str], case: str) -> int:
    try:
        return main(argv)
    except Exception as exc:  # noqa: BLE001 - the failure names it
        pytest.fail(f"{case}: {argv[0]} ended in {type(exc).__name__}: {exc}")


def _ingest_args(city_dir: Path, ws: Path, **replaced: Path) -> list[str]:
    files = {"poi": city_dir / "poi.jsonl", "features": city_dir / "features.csv",
             "ids": city_dir / "street_views.csv", "centroids": city_dir / "centroids.csv", **replaced}
    return ["ingest", "--workspace", str(ws), "--assign-missing"] + [
        arg for flag, path in files.items() for arg in (f"--{flag}", str(path))]


# input -> (its file under the fixture's directory, its kind, the commands
# that read it: "ingest" with the damaged file in place of the named input,
# or commands run each on its own copy of the trained workspace).
CLI_INPUTS = {
    "poi.jsonl": ("city/poi.jsonl", "jsonl", ["ingest:poi"]),
    "features.csv": ("city/features.csv", "bytes", ["ingest:features"]),
    "features.bin": ("city-bin/features.bin", "bytes", ["ingest:features"]),
    "street_views.csv": ("city/street_views.csv", "bytes", ["ingest:ids"]),
    "centroids.csv": ("city/centroids.csv", "bytes", ["ingest:centroids"]),
    "targets.csv": ("city/attributes.csv", "bytes", ["eval --repeats 2 --targets {bad}"]),
    "pretrained": ("words.txt", "bytes", ["train-poi --pretrained {bad}"]),
    "train-config": ("train.cfg", "bytes", ["train-sv --config {bad}"]),
    "manifest.json": ("ws/manifest.json", "json", ["aggregate", "export-emb --embedding u2v --out {case}/u2v.tsv"]),
}


@pytest.mark.parametrize("name", sorted(CLI_INPUTS))
def test_damaged_input_ends_in_a_documented_exit_code(city, tmp_path, name):
    relpath, kind, commands = CLI_INPUTS[name]
    data = (city / relpath).read_bytes()
    rng = random.Random(f"{SEED}:{name}")
    for n in range(MUTATIONS):
        what, bad_bytes = mutate(data, rng, kind)
        for command in commands:
            case = tmp_path / str(n)
            case.mkdir()
            bad = case / Path(relpath).name
            ws = case / "ws"
            if command.startswith("ingest:"):
                bad.write_bytes(bad_bytes)
                code = _run(_ingest_args(city / "city", ws, **{command[7:]: bad}), f"{name}, {what}")
                if code != 0:
                    assert not ws.exists(), f"{name}, {what}: a refused ingest created its workspace"
            else:
                shutil.copytree(city / "ws", ws)
                if name == "manifest.json":
                    bad = ws / "manifest.json"
                bad.write_bytes(bad_bytes)
                before = (ws / "manifest.json").read_bytes()
                argv = command.format(bad=bad, case=case).split()
                code = _run([argv[0], "--workspace", str(ws)] + argv[1:], f"{name}, {what}")
                if code != 0:
                    assert (ws / "manifest.json").read_bytes() == before, \
                        f"{name}, {what}: a refused {argv[0]} changed the manifest"
                    assert not (case / "u2v.tsv").exists(), f"{name}, {what}: a refused export-emb wrote its TSV"
            assert code in (0, 3, 4), f"{name}, {what}: {command.split()[0]} exited {code}"
            shutil.rmtree(case)


WORKSPACE_READERS = {
    "features.bin": ("ingested/features.bin", read_feature_bin),
    "bags.bin": ("ingested/bags.bin", read_bags),
    "u2v.emb": ("checkpoints/u2v.emb", read_embeddings),
    "words.emb": ("checkpoints/words.emb", read_embeddings),
}


@pytest.mark.parametrize("name", sorted(WORKSPACE_READERS))
def test_damaged_workspace_file_is_read_or_refused(city, tmp_path, name):
    relpath, reader = WORKSPACE_READERS[name]
    data = (city / "ws" / relpath).read_bytes()
    rng = random.Random(f"{SEED}:{name}")
    bad = tmp_path / name
    for _ in range(MUTATIONS):
        what, bad_bytes = mutate(data, rng, "bytes")
        bad.write_bytes(bad_bytes)
        try:
            reader(bad)
        except PipelineError:
            pass
        except Exception as exc:  # noqa: BLE001 - the assertion names it
            pytest.fail(f"{name}, {what}: {type(exc).__name__}: {exc}")
