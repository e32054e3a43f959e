"""Every public function and method of the package is reached by a command.

A tiny two-city chain runs through ``cli.main`` under ``sys.setprofile``;
a public name that no command calls is either a reference the tests compare
against (``UNREACHED``, with its reason) or code that only its tests run.
"""

import inspect
import sys

from metrovec import analytics, cli, corpus, encoder, errors, fileio, geo, synthcity, training

MODULES = (analytics, cli, corpus, encoder, errors, fileio, geo, synthcity, training)

UNREACHED = {
    "analytics.linreg_fit": "the general-solve regression evaluate_regression's closed form is checked against",
    "corpus.build_neighborhood_bag": "the Counter bag of one neighborhood that bag-table rows are checked against",
    "corpus.read_poi_jsonl": "the records perfbench's held-out check reads",
    "geo.build_index": "the index over (id, GeoPoint) pairs, which perfbench's tracer test calls as "
                       "cli.build_index; the commands build a SpatialIndex from columns",
}

CITY = """
n_neighborhoods = 6
views_per_neighborhood = 4
pois_per_neighborhood = 3
latent_dim = 2
feature_dim = 4
vocab_size = 24
seed = {seed}
city_tag = {tag}
"""


def public_functions():
    """Qualified name -> code object of each public function, method and
    property getter defined in the package's modules."""
    out = {}
    for module in MODULES:
        layer = module.__name__.rsplit(".", 1)[1]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = {name: obj} if inspect.isfunction(obj) else {}
            if inspect.isclass(obj):
                members = {f"{name}.{attr}": getattr(member, "fget", member)
                           for attr, member in vars(obj).items() if not attr.startswith("_")}
            for qualified, fn in members.items():
                if inspect.isfunction(fn):
                    out[f"{layer}.{qualified}"] = inspect.unwrap(fn).__code__
    return out


def run_chain(base):
    """Two tagged cities: one ingested from binary features (and once from a
    POI file with a malformed line, refused), and both merged
    with CSV features, a blank street-view neighborhood id and
    --assign-missing, then trained and read by every read-side command."""
    def main(*argv):
        assert cli.main([str(a) for a in argv]) == 0, argv

    cities = {}
    for tag, seed, fmt in (("aa_", 1, "bin"), ("aa_", 1, "csv"), ("bb_", 2, "csv")):
        cfg = base / f"{tag}{fmt}.cfg"
        cfg.write_text(CITY.format(seed=seed, tag=tag))
        cities[tag, fmt] = base / f"{tag}{fmt}"
        main("synth", "--config", cfg, "--out", cities[tag, fmt], "--features-format", fmt)

    single = cities["aa_", "bin"]
    main("ingest", "--workspace", base / "ws-bin", "--poi", single / "poi.jsonl",
         "--features", single / "features.bin", "--ids", single / "street_views.csv",
         "--centroids", single / "centroids.csv")

    # A malformed line: the column reader words the error.
    malformed = base / "malformed.jsonl"
    malformed.write_text((single / "poi.jsonl").read_text() + '{"id": "bad", "lat": 7,\n')
    assert cli.main([str(a) for a in ("ingest", "--workspace", base / "ws-malformed", "--poi", malformed,
                                      "--features", single / "features.bin", "--ids", single / "street_views.csv",
                                      "--centroids", single / "centroids.csv")]) == 3

    merged = base / "merged"
    merged.mkdir()
    for name in ("features.csv", "street_views.csv", "centroids.csv", "attributes.csv", "poi.jsonl"):
        a, b = ((cities[tag, "csv"] / name).read_text().splitlines() for tag in ("aa_", "bb_"))
        lines = a + (b if name == "poi.jsonl" else b[1:])
        if name == "street_views.csv":
            lines[1] = lines[1].rsplit(",", 1)[0] + ","
        (merged / name).write_text("\n".join(lines) + "\n")
    ws = base / "ws"
    main("ingest", "--workspace", ws, "--poi", merged / "poi.jsonl", "--features", merged / "features.csv",
         "--ids", merged / "street_views.csv", "--centroids", merged / "centroids.csv", "--assign-missing")
    config = base / "train.cfg"
    config.write_text("d = 4\nhidden = 3\nk_context = 3\nepochs_sv = 1\nepochs_poi = 1\nseed = 3\n")
    main("train-sv", "--workspace", ws, "--config", config)
    main("aggregate", "--workspace", ws)
    # Every review word synth can draw for vocab_size 24; the POIs hold some.
    pretrained = base / "vectors.txt"
    pretrained.write_text("".join(f"term{t:03d} 0.1 0.2 0.3 0.4\n" for t in range(18)))
    main("train-poi", "--workspace", ws, "--pretrained", pretrained)
    for embedding in ("u2v", "sve", "poi", "poistats"):
        main("eval", "--workspace", ws, "--targets", merged / "attributes.csv", "--repeats", 1,
             "--embedding", embedding)
    main("cluster", "--workspace", ws, "--k", 2)
    main("similar", "--workspace", ws, "--query", "aa_n0000", "--from-city", "bb_", "--top", 2)
    main("export-emb", "--workspace", ws, "--embedding", "words", "--out", base / "words.tsv")


def test_every_public_function_is_reached_by_a_command(tmp_path):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    cli._parser.cache_clear()  # so that this chain builds the parser
    sys.setprofile(profile)
    try:
        run_chain(tmp_path)
    finally:
        sys.setprofile(None)
    functions = public_functions()
    assert set(UNREACHED) <= set(functions)
    unreached = sorted(name for name, code in functions.items() if code not in called)
    assert unreached == sorted(UNREACHED)
