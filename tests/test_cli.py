"""End-to-end tests of the `wavemesh` command line and its exit codes.

Every command runs in-process through `cli.main` on a tiny bar (resolution
2) with k=20, one epoch and a one-layer network, so the file takes a few
seconds. One module-scoped dataset is generated, its spectra solved and a
model trained once; tests that write spectra or banks, or count geodesic
computations, use a cache of their own. An eval on the shared cache adds
only its pair's GEO1 file there.
"""

import argparse
import dataclasses
import gc
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from wavemesh import cli, corresp, network, spectrum, synth, wavelets
from wavemesh.containers import read_container, write_container
from wavemesh.curvature import estimate_frames
from wavemesh.errors import DisconnectedMesh, ValidationError, ZeroColumnNorm
from wavemesh.mesh import TriMesh, load_mesh, write_off
from wavemesh.operators import assemble_albo

from .conftest import jittered_grid, traced_peak

K = "20"
MODEL = {"encoder_hidden": 8, "feature_dim": 8, "conv_layers": 1, "scales": 2}


def _json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def _gen_data(root, deformations, **extra):
    root.mkdir(parents=True, exist_ok=True)
    config = _json(root / "dataset.json", {
        "base": "bar", "resolution": 2, "deformations": deformations,
        "holdout": 1, "split_seed": 0, **extra})
    assert cli.main(["gen-data", "--config", config,
                     "--out", str(root / "data")]) == 0
    return root / "data"


def _meshes(data):
    manifest = json.loads((data / "manifest.json").read_text())
    names = [manifest["template"]["mesh"],
             *(e["mesh"] for e in manifest["training"]),
             *(p["target"] for p in manifest["pairs"])]
    return [data / name for name in dict.fromkeys(names)]


def _spectrum(mesh, cache, out, *extra):
    return cli.main(["spectrum", "--mesh", str(mesh), "--k", K,
                     "--cache", str(cache), "--out", str(out), *extra])


def _train(data, cache, out, config, *extra):
    return cli.main(["train", "--dataset", str(data / "manifest.json"),
                     "--config", config, "--k", K, "--epochs", "1",
                     "--cache", str(cache), "--out", str(out), *extra])


def _eval(run, out, *extra, checkpoint=None, cache=None, data=None):
    checkpoint = checkpoint or run.train_out / "checkpoint.ckpt"
    data = data or run.data
    return cli.main(["eval", "--dataset", str(data / "manifest.json"),
                     "--checkpoint", str(checkpoint),
                     "--cache", str(cache or run.cache), "--out", str(out),
                     *extra])


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """gen-data -> spectrum on every mesh -> train, each exiting 0."""
    root = tmp_path_factory.mktemp("cli")
    data = _gen_data(root, [["bend", 0.6], ["twist", 0.3]])
    cache = root / "cache"
    for mesh in _meshes(data):
        assert _spectrum(mesh, cache, root / "spectrum") == 0
    model = _json(root / "model.json", MODEL)
    train_out = root / "train"
    assert _train(data, cache, train_out, model) == 0
    echo = json.loads((train_out / "config.echo.json").read_text())
    return SimpleNamespace(root=root, data=data, cache=cache, model=model,
                           train_out=train_out,
                           lambda_max=echo["kernel_lambda_max"])


def test_round_trip_evaluates_every_pair(run, tmp_path):
    assert _eval(run, tmp_path) == 0
    rows = (tmp_path / "pairs.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 1
    assert np.isfinite(float(rows[0].rsplit(",", 1)[1]))


def test_eval_takes_radii_from_its_flag_and_the_rest_from_the_checkpoint(
        run, tmp_path):
    # eval takes no config file: its radii come from --radii, and every
    # other setting from the checkpoint
    assert _eval(run, tmp_path / "eval", "--radii", "0:0.1:0.05") == 0
    echo = json.loads((tmp_path / "eval" / "config.echo.json").read_text())
    assert echo["radii"] == [0.0, 0.1, 0.05]
    assert echo["encoder_hidden"] == MODEL["encoder_hidden"]
    cge = (tmp_path / "eval" / "cge_pooled.csv").read_text().splitlines()
    assert len(cge) == 1 + 3


def test_pooled_curve_is_the_curve_of_all_pairs(run, tmp_path):
    # the remeshed held-out pose adds a second pair; both pairs map the
    # template's vertices, so each pooled fraction is the mean of theirs
    data = _gen_data(tmp_path, [["bend", 0.6], ["twist", 0.3]],
                     remesh_holdout=True)
    out = tmp_path / "eval"
    assert _eval(run, out, data=data,
                 cache=_own_cache(run, tmp_path / "cache")) == 0

    def curve(name):
        return np.loadtxt(out / name, delimiter=",", skiprows=1)

    pooled = curve("cge_pooled.csv")
    pairs = [curve(f"cge_pair{i}.csv") for i in range(2)]
    assert not (out / "cge_pair2.csv").exists()
    assert not np.array_equal(pairs[0][:, 1], pairs[1][:, 1])
    for pair in pairs:
        assert np.array_equal(pair[:, 0], pooled[:, 0])
    np.testing.assert_allclose(
        pooled[:, 1], (pairs[0][:, 1] + pairs[1][:, 1]) / 2, rtol=0,
        atol=1e-15)


def test_eval_without_out_writes_beside_the_checkpoint(run, tmp_path):
    # a training run without --cache keeps its spectra under <out>/cache;
    # eval given only the checkpoint reads that cache and the saved
    # dataset, and writes under <checkpoint directory>/eval
    train = tmp_path / "train"
    train.mkdir()
    _own_cache(run, train / "cache")
    assert cli.main(["train", "--dataset", str(run.data / "manifest.json"),
                     "--config", run.model, "--k", K, "--epochs", "1",
                     "--out", str(train)]) == 0

    def files():
        return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
                for p in train.iterdir() if p.is_file()}

    before = files()
    echo = (train / "config.echo.json").read_bytes()
    assert cli.main(["eval", "--checkpoint",
                     str(train / "checkpoint.ckpt")]) == 0
    assert files() == before
    assert (train / "config.echo.json").read_bytes() == echo
    assert sorted(p.name for p in (train / "eval").iterdir()) == [
        "cge_pair0.csv", "cge_pooled.csv", "config.echo.json", "pairs.csv"]
    assert len(list((train / "cache").glob("*.geo"))) == 1


def test_checkpoint_trained_on_relative_paths_evaluates_from_elsewhere(
        run, tmp_path, monkeypatch):
    # train saves its dataset, cache and out absolute, so eval given only
    # the checkpoint reads them from any working directory
    work = tmp_path / "relA"
    shutil.copytree(run.data, work / "data")
    _own_cache(run, work / "cache")
    monkeypatch.chdir(work)
    assert cli.main(["train", "--dataset", "data/manifest.json",
                     "--config", run.model, "--k", K, "--epochs", "1",
                     "--cache", "cache", "--out", "train"]) == 0
    assert cli.main(["eval", "--checkpoint", "train/checkpoint.ckpt",
                     "--out", "here"]) == 0
    monkeypatch.chdir(tmp_path)
    assert cli.main(["eval", "--checkpoint",
                     "relA/train/checkpoint.ckpt"]) == 0
    assert _outputs(work / "train" / "eval") == _outputs(work / "here")
    saved = read_container(work / "train" / "checkpoint.ckpt",
                           "CKPT1")[1]["experiment"]
    assert [saved[key] for key in ("dataset", "cache", "out")] == [
        str((work / name).resolve())
        for name in ("data/manifest.json", "cache", "train")]


def _snapshot(cache):
    """Name, size and modification time of every file in a cache."""
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in cache.iterdir()}


@pytest.mark.parametrize("flag", [
    ("--k", "10"), ("--alpha", "5"), ("--scales", "3"), ("--directions", "2"),
    ("--config", "x.json")], ids=lambda flag: flag[0][2:])
def test_eval_with_a_setting_its_checkpoint_fixes_exits_1(run, tmp_path,
                                                          flag):
    # the checkpoint fixes the operator, bank and network a model is
    # scored under, so eval takes no flag or config file that changes them
    before = _snapshot(run.cache)
    assert _eval(run, tmp_path, *flag) == 1
    assert not (tmp_path / "pairs.csv").exists()
    assert _snapshot(run.cache) == before


# the option strings each subcommand takes
FLAGS = {
    "spectrum": "config mesh k alpha directions cache out",
    "frames": "mesh out",
    "gen-data": "config out",
    "train": "config dataset k alpha directions scales perturb epochs seed "
             "cache out",
    "eval": "dataset checkpoint cache out radii",
    "wavelet-dump": "config mesh k alpha directions scales cache out vertex "
                    "direction scale",
    "mesh-info": "mesh",
}


@pytest.mark.parametrize("command", FLAGS)
def test_subcommand_takes_only_the_flags_it_reads(command):
    (subparsers,) = [a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert sorted(subparsers.choices) == sorted(FLAGS)
    options = {s for a in subparsers.choices[command]._actions
               for s in a.option_strings} - {"-h", "--help"}
    assert options == {f"--{name}" for name in FLAGS[command].split()}


def test_unknown_key_in_checkpoint_experiment_exits_2(run, tmp_path):
    arrays, meta = read_container(run.train_out / "checkpoint.ckpt", "CKPT1")
    meta["experiment"]["no_such_key"] = 1
    ckpt = tmp_path / "checkpoint.ckpt"
    write_container(ckpt, "CKPT1", arrays, meta=meta)
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--cache",
                     str(run.cache), "--out", str(tmp_path)]) == 2


def _damaged_checkpoint(run, path, damage):
    """The shared checkpoint with `damage(arrays, meta)` applied, at `path`."""
    arrays, meta = read_container(run.train_out / "checkpoint.ckpt", "CKPT1")
    damage(arrays, meta)
    write_container(path, "CKPT1", arrays, meta=meta)
    return path


@pytest.mark.parametrize("damage, code", [
    (lambda a, m: a.pop("param:head.b"), 4),
    (lambda a, m: m["experiment"].update(conv_layers="1"), 2),
    (lambda a, m: a.pop("param:conv0.gamma"), 4),
    (lambda a, m: m["experiment"].update(conv_layers=2), 4),
    (lambda a, m: a.update({"param:head.b": a["param:head.b"][:-1]}), 4),
    (lambda a, m: m.update(experiment=[1]), 2),
    (lambda a, m: m["experiment"].update(no_such_key=1), 2),
    (lambda a, m: m.pop("experiment"), 4),
], ids=["no-head-bias", "conv_layers-str", "no-gamma", "one-of-two-layers",
        "short-head-bias", "experiment-list", "unknown-key", "no-experiment"])
def test_malformed_checkpoint_model_exits_4(run, tmp_path, damage, code):
    # the model is derived from the saved experiment: parameters that do
    # not fit it exit 4, an experiment that is not a valid config exits 2
    ckpt = _damaged_checkpoint(run, tmp_path / "checkpoint.ckpt", damage)
    assert _eval(run, tmp_path / "eval", checkpoint=ckpt) == code
    assert not (tmp_path / "eval" / "pairs.csv").exists()


def test_checkpoint_saves_only_its_experiment(run):
    meta = read_container(run.train_out / "checkpoint.ckpt", "CKPT1")[1]
    assert list(meta) == ["experiment"]


def _saved_model_entry(arrays, meta):
    # earlier versions saved the network's shape a second time, as "model";
    # it is not read, whatever it says
    cfg = cli.ExperimentConfig.load(base=meta["experiment"])
    shape = cfg.model_config(arrays["param:head.b"].size)
    meta["model"] = {**dataclasses.asdict(shape), "point_dim": 3}


def _saved_shuffle(arrays, meta):
    # earlier versions saved a --perturb model's training shuffle as
    # perm:n, which evaluation never read
    n = arrays["param:head.b"].size
    arrays[f"perm:{n}"] = np.random.default_rng(0).permutation(n)


def _saving(**retired):
    return lambda arrays, meta: meta["experiment"].update(retired)


@pytest.mark.parametrize("damage", [
    _saved_model_entry, lambda arrays, meta: meta.update(model=[1]),
    _saved_shuffle, _saving(float32=True),
], ids=["model-entry", "wrong-model-entry", "perm-array", "float32-key"])
def test_checkpoint_of_an_earlier_version_evaluates_unchanged(
        run, tmp_path, damage):
    checkpoint = run.train_out / "checkpoint.ckpt"
    arrays, meta = read_container(checkpoint, "CKPT1")
    damage(arrays, meta)
    old = tmp_path / "old.ckpt"
    write_container(old, "CKPT1", arrays, meta=meta)
    assert _eval(run, tmp_path / "old", checkpoint=old) == 0
    assert _eval(run, tmp_path / "new", checkpoint=checkpoint) == 0
    assert _outputs(tmp_path / "old") == _outputs(tmp_path / "new")


@pytest.mark.parametrize("key, value", [
    ("tighten", True), ("descriptor", "softmax"), ("curvature_radius", 0.2),
    ("curvature_radius", False), ("curvature_radius", "0"),
], ids=["tighten-true", "descriptor-softmax", "curvature_radius-0.2",
        "curvature_radius-false", "curvature_radius-string"])
def test_checkpoint_saving_another_value_of_a_retired_key_exits_2(
        run, tmp_path, capsys, key, value):
    ckpt = _damaged_checkpoint(run, tmp_path / "checkpoint.ckpt",
                               _saving(**{key: value}))
    capsys.readouterr()
    assert _eval(run, tmp_path / "eval", checkpoint=ckpt) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "pairs.csv").exists()


def test_eval_of_a_manifest_without_pairs_exits_2_and_writes_no_csv(
        run, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(run.data, data)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["pairs"] = []
    (data / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert _eval(run, tmp_path / "eval", data=data) == 2
    err = capsys.readouterr().err
    assert "no pairs" in err and str(data / "manifest.json") in err
    assert not list((tmp_path / "eval").glob("*.csv"))


def test_eval_checks_every_pairs_gt_before_any_work(run, tmp_path, capsys):
    # the first pair is sound; the second's gt is one entry short
    data = tmp_path / "data"
    shutil.copytree(run.data, data)
    manifest = json.loads((data / "manifest.json").read_text())
    (pair,) = manifest["pairs"]
    gt = (data / pair["gt"]).read_text().splitlines()
    (data / "gt_short.txt").write_text("".join(f"{i}\n" for i in gt[:-1]))
    manifest["pairs"].append({**pair, "target": manifest["training"][0]["mesh"],
                              "gt": "gt_short.txt"})
    (data / "manifest.json").write_text(json.dumps(manifest))
    cache = _own_cache(run, tmp_path / "cache")
    before = _snapshot(cache)
    capsys.readouterr()
    assert _eval(run, tmp_path / "eval", cache=cache, data=data) == 2
    err = capsys.readouterr().err
    assert "gt_short.txt" in err and f"{len(gt) - 1} labels" in err
    assert not list((tmp_path / "eval").glob("cge_*.csv"))
    assert _snapshot(cache) == before


def test_train_on_a_manifest_without_training_shapes_exits_2_and_writes_nothing(
        run, tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    shutil.copytree(run.data, data)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["training"] = []
    (data / "manifest.json").write_text(json.dumps(manifest))
    read = []
    monkeypatch.setattr(cli, "load_mesh", lambda path: read.append(path))
    capsys.readouterr()
    assert _train(data, run.cache, tmp_path / "train", run.model) == 2
    err = capsys.readouterr().err
    assert "no training shapes" in err and str(data / "manifest.json") in err
    assert read == []
    assert not (tmp_path / "train").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("damage", [
    lambda m: m.update(training=[1]),
    lambda m: m.update(pairs=[1]),
    lambda m: m.update(training=5),
    lambda m: m["training"][0].update(mesh=5),
    lambda m: m["pairs"][0].update(gt=None),
    lambda m: [m],
    lambda m: m["pairs"][0].update(gt="absent.txt"),
], ids=["training-entry-int", "pair-int", "training-int", "mesh-int",
        "gt-null", "list", "missing-file"])
def test_malformed_manifest_exits_2_and_writes_nothing(run, tmp_path, capsys,
                                                       damage, command):
    data = tmp_path / "data"
    shutil.copytree(run.data, data)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest = damage(manifest) or manifest  # a damage may replace it
    (data / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    capsys.readouterr()
    if command == "train":
        assert _train(data, run.cache, out, run.model) == 2
    else:
        assert _eval(run, out, data=data) == 2
    assert str(data / "manifest.json") in capsys.readouterr().err
    assert not out.exists()


def _param_dtypes(ckpt):
    arrays, _ = read_container(ckpt, "CKPT1")
    return {v.dtype for k, v in arrays.items() if k.startswith("param:")}


def _eval_descriptor_dtypes(run, out, ckpt, monkeypatch, cache=None):
    """Evaluate `ckpt` into `out`; returns the dtypes of the descriptors."""
    described = []
    original = network.descriptors

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        described.append(result.dtype)
        return result

    monkeypatch.setattr(network, "descriptors", recorded)
    assert _eval(run, out, checkpoint=ckpt, cache=cache) == 0
    assert described
    return set(described)


def test_float32_training_saves_float32_params_and_evaluates(run, tmp_path,
                                                            monkeypatch):
    ckpt = run.train_out / "checkpoint.ckpt"
    assert _param_dtypes(ckpt) == {np.dtype(np.float32)}
    assert (_eval_descriptor_dtypes(run, tmp_path / "eval", ckpt, monkeypatch)
            == {np.dtype(np.float32)})
    rows = (tmp_path / "eval" / "pairs.csv").read_text().splitlines()[1:]
    assert rows and all(np.isfinite(float(r.rsplit(",", 1)[1])) for r in rows)


@pytest.mark.parametrize("float32", [False, True])
def test_config_holding_the_removed_float32_key_exits_2(run, tmp_path, capsys,
                                                       float32):
    # the CLI has one precision; a config that asks for either exits 2
    # before anything is written
    config = _json(tmp_path / "f.json", {**MODEL, "float32": float32})
    capsys.readouterr()
    assert _train(run.data, run.cache, tmp_path / "train", config) == 2
    assert "'float32'" in capsys.readouterr().err
    assert not (tmp_path / "train").exists()


def _spectra_only(run, path):
    """A cache at `path` holding a copy of the shared cache's spectra."""
    path.mkdir()
    for spec in run.cache.glob("*.spec"):
        shutil.copy2(spec, path / spec.name)
    return path


def _record_builds(monkeypatch):
    """The list that each later `wavelets.build_filterbank` call appends
    the dtype of its L1 pass to."""
    builds = []
    original = wavelets.build_filterbank

    def recorded(spectra, kernel, dtype):
        builds.append(np.dtype(dtype))
        return original(spectra, kernel, dtype)

    monkeypatch.setattr(wavelets, "build_filterbank", recorded)
    return builds


def _as_float64(saved):
    """A damage that turns the shared float32 checkpoint into a float64
    one of earlier versions, saving `saved` (a dict) in its experiment."""
    def damage(arrays, meta):
        for name in arrays:
            arrays[name] = arrays[name].astype(np.float64)
        meta["experiment"].update(saved)
    return damage


@pytest.mark.parametrize("saved", [{}, {"float32": False}],
                         ids=["no-float32-key", "float32-false"])
def test_float64_checkpoint_evaluates_in_float64_on_the_shared_banks(
        run, tmp_path, monkeypatch, saved):
    # a float64 checkpoint of earlier versions runs its network in float64
    # on the banks a float32 run built: every bank sums its normalizers in
    # float32, and the precision the checkpoint saved, if any, is not read
    cache = _spectra_only(run, tmp_path / "cache")
    assert _eval(run, tmp_path / "f32", cache=cache) == 0
    files = sorted(cache.iterdir())
    ckpt = _damaged_checkpoint(run, tmp_path / "old.ckpt", _as_float64(saved))
    assert _param_dtypes(ckpt) == {np.dtype(np.float64)}
    builds = _record_builds(monkeypatch)
    assert _eval_descriptor_dtypes(run, tmp_path / "f64", ckpt, monkeypatch,
                                   cache=cache) == {np.dtype(np.float64)}
    assert builds == []
    assert sorted(cache.iterdir()) == files


def _dump(mesh, cache, out, config, *extra):
    assert cli.main(["wavelet-dump", "--mesh", str(mesh), "--k", K,
                     "--config", config, "--cache", str(cache),
                     "--out", str(out), "--vertex", "5", "--direction", "1",
                     "--scale", "1", *extra]) == 0
    (csv,) = out.glob("wavelet_*.csv")
    return np.loadtxt(csv, delimiter=",", skiprows=1)[:, 1]


# two values of each field that keys a SPEC1 or FBK1 file; kernel_lambda_max
# is given as a multiple of the lambda_max pinned by training
KEYED_FIELDS = {"alpha": (50.0, 20.0), "k": (20, 10), "scales": (2, 3),
                "kernel_lambda_max": (1.0, 2.0)}


@pytest.mark.parametrize("field", KEYED_FIELDS)
def test_changed_keyed_field_rebuilds_the_bank(run, tmp_path, field):
    # kernel_lambda_max is pinned as in training, so only the changed field
    # can tell the two banks apart
    mesh = run.data / "template.off"

    def dump(cache, value, name):
        settings = {**MODEL, "kernel_lambda_max": run.lambda_max,
                    field: value}
        if field == "kernel_lambda_max":
            settings[field] *= run.lambda_max
        config = _json(tmp_path / f"{name}.json", settings)
        k = ("--k", str(settings.get("k", K)))  # the flag overrides the config
        assert _spectrum(mesh, cache, tmp_path / "s", "--config", config,
                         *k) == 0
        # scale 1 sees only the first few eigenpairs of this bar, so a
        # change of k shows at scale 0
        return _dump(mesh, cache, tmp_path / f"dump-{name}", config, *k,
                     "--scale", "0" if field == "k" else "1")

    first, second = KEYED_FIELDS[field]
    before = dump(tmp_path / "cache", first, "first")
    after = dump(tmp_path / "cache", second, "second")
    fresh = dump(tmp_path / "fresh", second, "fresh")
    assert not np.allclose(before, fresh)
    assert np.array_equal(after, fresh)


def _count_solves(monkeypatch):
    """The list that each later `cli.solve_eigs` call appends its args to."""
    solves = []
    solve_eigs = cli.solve_eigs

    def counted(*args):
        solves.append(args)
        return solve_eigs(*args)

    monkeypatch.setattr(cli, "solve_eigs", counted)
    return solves


def test_datasets_sharing_a_cache_keep_their_own_spectra(run, tmp_path,
                                                         monkeypatch):
    other = _gen_data(tmp_path / "other", [["bend", -0.5], ["twist", -0.2]])
    cache = tmp_path / "cache"
    # both datasets name their training mesh deform_0.off; train solves
    # only what it misses, so a spectrum the other dataset overwrote
    # would show as a solve
    for data in (run.data, other):
        assert _spectrum(data / "deform_0.off", cache, tmp_path / "s") == 0
    solves = _count_solves(monkeypatch)
    assert _train(run.data, cache, tmp_path / "train", run.model) == 0
    assert _train(other, cache, tmp_path / "train-other", run.model) == 0
    assert solves == []


def test_integer_alpha_in_a_config_matches_the_alpha_flag(run, tmp_path,
                                                          monkeypatch):
    # the config's 50 and the flag's 50.0 must key one spectrum: train
    # solves nothing that spectrum cached
    config = _json(tmp_path / "alpha.json", {"alpha": 50})
    cache = tmp_path / "cache"
    assert _spectrum(run.data / "deform_0.off", cache, tmp_path / "s",
                     "--config", config) == 0
    solves = _count_solves(monkeypatch)
    assert cli.main(["train", "--dataset", str(run.data / "manifest.json"),
                     "--config", run.model, "--k", K, "--alpha", "50",
                     "--epochs", "1", "--cache", str(cache),
                     "--out", str(tmp_path / "train")]) == 0
    assert solves == []


def test_corrupt_spectrum_file_is_regenerated_with_a_warning(run, tmp_path,
                                                             capsys):
    mesh = run.data / "template.off"
    cache = tmp_path / "cache"
    assert _spectrum(mesh, cache, tmp_path / "s") == 0
    files = sorted(cache.glob("*.spec"))
    assert len(files) == 4
    files[0].write_bytes(b"SPEC1\x00\x00\x00garbage")
    capsys.readouterr()
    assert _spectrum(mesh, cache, tmp_path / "s") == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err and str(files[0]) in captured.err
    assert captured.out.count(": computed") == 1
    assert captured.out.count(": stored") == 4
    assert sorted(cache.glob("*.spec")) == files
    read_container(files[0], "SPEC1")


def test_spectrum_file_whose_metadata_is_not_an_object_is_regenerated(
        run, tmp_path, capsys):
    mesh = run.data / "template.off"
    cache = tmp_path / "cache"
    assert _spectrum(mesh, cache, tmp_path / "s") == 0
    files = sorted(cache.glob("*.spec"))
    metas = []
    for spec in files:
        arrays, meta = read_container(spec, "SPEC1")
        metas.append(meta)
        write_container(spec, "SPEC1", arrays, meta=[1])
    capsys.readouterr()
    assert _spectrum(mesh, cache, tmp_path / "s") == 0
    captured = capsys.readouterr()
    assert captured.err.count("metadata is not a JSON object") == len(files)
    assert captured.out.count(": computed") == len(files)
    assert [read_container(f, "SPEC1")[1] for f in files] == metas


def test_train_and_eval_on_an_empty_cache_match_the_precomputed_run(
        run, tmp_path):
    # spectrum is an optional precompute: train and eval solve and cache
    # each spectrum they miss, and write what the run fixture's train, fed
    # by spectrum, and an eval on its cache write
    cache = tmp_path / "cache"
    directions = cli.ExperimentConfig().directions
    training = json.loads((run.data / "manifest.json").read_text())["training"]
    train_out = tmp_path / "train"
    assert _train(run.data, cache, train_out, run.model) == 0
    assert len(list(cache.glob("*.spec"))) == directions * len(training)
    assert _eval(run, tmp_path / "eval", cache=cache,
                 checkpoint=train_out / "checkpoint.ckpt") == 0
    assert len(list(cache.glob("*.spec"))) == directions * len(
        _meshes(run.data))
    assert _eval(run, tmp_path / "precomputed") == 0
    assert ((train_out / "history.csv").read_bytes()
            == (run.train_out / "history.csv").read_bytes())
    assert ((tmp_path / "eval" / "pairs.csv").read_bytes()
            == (tmp_path / "precomputed" / "pairs.csv").read_bytes())


def test_train_on_a_cache_path_that_is_a_file_exits_4_and_writes_nothing(
        run, tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    cache.write_text("not a directory")
    solves = _count_solves(monkeypatch)
    assert _train(run.data, cache, tmp_path / "train", run.model) == 4
    assert "i/o failure" in capsys.readouterr().err
    assert solves == []  # it fails before the first miss's work
    assert not (tmp_path / "train").exists()
    assert cache.read_text() == "not a directory"


def test_cache_directory_check_creates_nothing(tmp_path):
    (tmp_path / "file").write_text("")
    for usable in (tmp_path, tmp_path / "new" / "cache"):
        cli._check_cache_dir(usable)
    for unusable in (tmp_path / "file", tmp_path / "file" / "cache"):
        with pytest.raises(NotADirectoryError):
            cli._check_cache_dir(unusable)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_importing_the_cli_loads_no_scipy_spatial():
    # scipy.spatial adds about 7.6 MiB to the resident memory of every
    # command (scipy 1.17, x86-64 Linux)
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import wavemesh.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.spatial')))")
    out = subprocess.run([sys.executable, "-c", code, str(src)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_all_zero_wavelet_columns_exit_3(run, tmp_path):
    # scales ~ 1/lambda_max put every t*lambda at 0, where the Mexican hat
    # is exactly 0, so every L1 normalizer is 0
    config = _json(tmp_path / "huge.json", {"kernel_lambda_max": 1e300})
    assert cli.main(["wavelet-dump", "--mesh", str(run.data / "template.off"),
                     "--k", K, "--config", config, "--cache", str(run.cache),
                     "--out", str(tmp_path), "--vertex", "5"]) == 3


def test_zero_wavelet_columns_of_a_cut_spectrum_name_the_cut(tmp_path,
                                                             capsys):
    # the icosahedron's K 3 cuts its threefold lambda = 2 (counts 1 and 4),
    # so its bank keeps only the constant mode, whose band-pass response
    # g(0) is 0: every column norm is 0, and the error says why
    ico0 = synth.gen_base("icosphere", 0)
    cause = ("K 3 cuts a repeated eigenvalue of direction 0, whose bank "
             "keeps only the n_whole 1 eigenpairs below it; a K of at least "
             "4 (n_below_mu_plus) keeps the cut eigenspace")
    spec = spectrum.solve_eigs(
        assemble_albo(ico0, estimate_frames(ico0), 0.0, 0.0), ico0.mass, 3)
    with pytest.raises(ZeroColumnNorm) as info:
        wavelets.build_filterbank([spec], wavelets.KernelSpec.mexican_hat(
            spec.lambda_max, 1))
    assert str(info.value).endswith("; " + cause)
    write_off(ico0, tmp_path / "ico0.off")
    assert cli.main(["wavelet-dump", "--mesh", str(tmp_path / "ico0.off"),
                     "--k", "3", "--alpha", "0", "--directions", "1",
                     "--scales", "1", "--vertex", "0",
                     "--cache", str(tmp_path / "cache"),
                     "--out", str(tmp_path / "out")]) == 3
    assert cause in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_overflowing_kernel_exits_3_and_caches_no_bank(run, tmp_path):
    # scales ~ 1/1e-300 overflow the Mexican hat to inf * 0 = NaN; a NaN
    # L1 normalizer must fail like a zero one, before the bank is written
    config = _json(tmp_path / "tiny.json", {"kernel_lambda_max": 1e-300})
    banks = set(run.cache.glob("*.fbk"))
    assert cli.main(["wavelet-dump", "--mesh", str(run.data / "template.off"),
                     "--k", K, "--config", config, "--cache", str(run.cache),
                     "--out", str(tmp_path), "--vertex", "5"]) == 3
    assert set(run.cache.glob("*.fbk")) == banks
    assert not list(tmp_path.glob("wavelet_*.csv"))


@pytest.mark.parametrize("flag, value", [
    ("--vertex", "100000"), ("--vertex", "-1"), ("--direction", "4"),
    ("--scale", "4")])
def test_wavelet_dump_of_an_index_out_of_range_exits_2_first(
        run, tmp_path, capsys, flag, value):
    # 4 directions and 4 scales by default; the indices are checked before
    # the config is echoed, any spectrum solved or any bank built
    args = {"--vertex": "5", "--direction": "0", "--scale": "0", flag: value}
    cache, out = tmp_path / "cache", tmp_path / "out"
    assert cli.main(["wavelet-dump", "--mesh", str(run.data / "template.off"),
                     "--k", K, "--cache", str(cache), "--out", str(out),
                     *(a for item in args.items() for a in item)]) == 2
    assert f"{flag[2:]} {value} out of range" in capsys.readouterr().err
    assert not cache.exists() and not out.exists()


def test_unconverged_eigensolve_exits_3_and_caches_no_spectrum(
        run, tmp_path, monkeypatch, capsys):
    def stalled(residuals, theta):
        return np.zeros(len(theta), dtype=bool)

    monkeypatch.setattr(spectrum, "_converged", stalled)
    cache = tmp_path / "cache"
    assert _spectrum(run.data / "template.off", cache, tmp_path / "s") == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not list(cache.glob("*.spec"))


def test_unknown_subcommand_exits_1():
    assert cli.main(["no-such-command"]) == 1


def test_unknown_config_key_exits_2(run, tmp_path):
    config = _json(tmp_path / "bad.json", {"no_such_key": 1})
    assert _spectrum(run.data / "template.off", tmp_path / "cache",
                     tmp_path / "s", "--config", config) == 2


def test_wrongly_typed_config_value_exits_2(run, tmp_path):
    config = _json(tmp_path / "typed.json", {"k": "20"})
    assert _spectrum(run.data / "template.off", tmp_path / "cache",
                     tmp_path / "s", "--config", config) == 2


def test_config_holding_the_removed_tighten_key_exits_2(run, tmp_path,
                                                        capsys):
    config = _json(tmp_path / "tighten.json", {"tighten": False})
    assert _spectrum(run.data / "template.off", tmp_path / "cache",
                     tmp_path / "s", "--config", config) == 2
    assert "'tighten'" in capsys.readouterr().err


def test_config_holding_the_removed_descriptor_key_exits_2(run, tmp_path,
                                                           capsys):
    config = _json(tmp_path / "descriptor.json", {"descriptor": "features"})
    assert _spectrum(run.data / "template.off", tmp_path / "cache",
                     tmp_path / "s", "--config", config) == 2
    err = capsys.readouterr().err
    assert "unknown config" in err and "'descriptor'" in err


@pytest.mark.parametrize("flag", [("--directions", "3"), ("--alpha", "-1")],
                         ids=["directions-3", "alpha-negative"])
def test_invalid_direction_count_or_alpha_exits_2(run, tmp_path, capsys,
                                                  flag):
    assert _spectrum(run.data / "template.off", tmp_path / "cache",
                     tmp_path / "s", *flag) == 2
    assert f"{flag[0][2:]} must be" in capsys.readouterr().err
    assert not (tmp_path / "cache").exists()


def test_config_file_that_is_not_json_exits_2_naming_it(run, tmp_path,
                                                       capsys):
    config = tmp_path / "bad.json"
    config.write_text("{not json")
    assert _spectrum(run.data / "template.off", tmp_path / "cache",
                     tmp_path / "s", "--config", str(config)) == 2
    assert str(config) in capsys.readouterr().err
    assert cli.main(["gen-data", "--config", str(config),
                     "--out", str(tmp_path / "data")]) == 2
    assert str(config) in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_config_that_is_not_an_object_exits_2(run, tmp_path):
    config = _json(tmp_path / "list.json", [1])
    assert _spectrum(run.data / "template.off", tmp_path / "cache",
                     tmp_path / "s", "--config", config) == 2


@pytest.mark.parametrize("command, message", [
    ("gen-data", "gen-data requires --config with a dataset spec"),
    ("eval", "eval requires --checkpoint"),
    ("spectrum", "this command requires --mesh (or config key)"),
    ("train", "this command requires --dataset (or config key)"),
])
def test_command_without_its_input_exits_2_and_writes_nothing(
        tmp_path, capsys, monkeypatch, command, message):
    monkeypatch.chdir(tmp_path)  # where the default `out` would be written
    assert cli.main([command]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


def test_malformed_radii_flag_exits_2(run, tmp_path, capsys):
    assert _eval(run, tmp_path / "eval", "--radii", "1:2") == 2
    assert ("error: radii must be start:stop:step, got '1:2'"
            in capsys.readouterr().err)
    assert not (tmp_path / "eval").exists()


def test_config_whose_radii_step_is_zero_exits_2(run, tmp_path, capsys):
    config = _json(tmp_path / "radii.json", {"radii": [0, 1, 0]})
    assert _spectrum(run.data / "template.off", tmp_path / "cache",
                     tmp_path / "s", "--config", config) == 2
    assert "error: bad radii spec [0, 1, 0]" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_training_labels_of_another_length_exit_2_before_any_bank(
        run, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(run.data, data)
    entry = json.loads((data / "manifest.json").read_text())["training"][0]
    n = load_mesh(data / entry["mesh"]).n_vertices
    (data / entry["labels"]).write_text("".join(f"{i}\n" for i in range(100)))
    cache = _spectra_only(run, tmp_path / "cache")
    capsys.readouterr()
    assert _train(data, cache, tmp_path / "train", run.model) == 2
    err = capsys.readouterr().err
    assert entry["labels"] in err
    assert "100 labels" in err and f"{n} vertices" in err
    assert not list(cache.glob("*.fbk"))


@pytest.mark.parametrize("config", [
    {"base": "bar", "resolution": "2", "deformations": [["bend", 0.6],
                                                        ["twist", 0.3]]},
    {"base": "bar", "resolution": 2, "deformations": 5},
    {"base": "bar", "resolution": 2, "deformations": [["bend", 0.6],
                                                      ["twist", 0.3]],
     "holdout": "1"},
    [["bend"]],
], ids=["resolution-str", "deformations-int", "holdout-str", "list"])
def test_wrongly_typed_dataset_config_exits_2(tmp_path, config):
    path = _json(tmp_path / "dataset.json", config)
    assert cli.main(["gen-data", "--config", path,
                     "--out", str(tmp_path / "data")]) == 2
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("config", [
    {"base": "bar", "resolution": 2, "deformations": [["bend", 3.0],
                                                      ["twist", 0.3]]},
    {"base": "bar", "resolution": 0, "deformations": [["bend", 0.6],
                                                      ["twist", 0.3]]},
], ids=["bend-out-of-range", "resolution-0"])
def test_dataset_config_rejected_while_building_exits_2_and_writes_nothing(
        tmp_path, config):
    # the template passes validation and fails only when it or a pose is
    # built, which happens before the output directory is made
    path = _json(tmp_path / "dataset.json", config)
    assert cli.main(["gen-data", "--config", path,
                     "--out", str(tmp_path / "data")]) == 2
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("count", [-1, 99])
def test_remesh_training_out_of_range_exits_2(tmp_path, capsys, count):
    # remeshed training copies were retired: a dataset config that still
    # asks for them names an unknown key, whatever the count
    path = _json(tmp_path / "dataset.json", {
        "base": "bar", "resolution": 2,
        "deformations": [["bend", 0.6], ["twist", 0.3], ["bend", -0.5],
                         ["twist", -0.2]],
        "holdout": 1, "remesh_training": count})
    assert cli.main(["gen-data", "--config", path,
                     "--out", str(tmp_path / "data")]) == 2
    err = capsys.readouterr().err
    assert "unknown dataset config" in err and "'remesh_training'" in err
    assert not (tmp_path / "data").exists()


def test_nan_descriptors_exit_3_and_write_no_pairs(run, tmp_path):
    # NaN weights give NaN descriptors, which used to match every source
    # to target vertex 0
    arrays, meta = read_container(run.train_out / "checkpoint.ckpt", "CKPT1")
    arrays["param:enc0.w"] = np.full_like(arrays["param:enc0.w"], np.nan)
    bad = tmp_path / "checkpoint.ckpt"
    write_container(bad, "CKPT1", arrays, meta=meta)
    assert _eval(run, tmp_path / "eval", checkpoint=bad) == 3
    assert not (tmp_path / "eval" / "pairs.csv").exists()


# --- the one cache path of SPEC1, FBK1 and GEO1 files --------------------------


def _rekey(path, kind):
    """Rewrite the key stored in a cache file, keeping its name and arrays."""
    arrays, meta = read_container(path, kind)
    write_container(path, kind, arrays, meta={"key": "0" * 64})
    return meta


def test_cache_file_names_of_a_fixed_mesh_are_pinned(tmp_path, monkeypatch):
    # under a fixed package digest, a change to what a SPEC1 or FBK1 key
    # hashes, or to the repr of a part (theta m*pi/M and alpha as Python
    # floats), renames every cached file; the kernel is pinned so that no
    # eigenvalue enters the bank's key
    monkeypatch.setattr(cli, "_SOURCE_DIGEST", "0" * 64)
    cfg = cli.ExperimentConfig(k=10, scales=2, kernel_lambda_max=1.0)
    spectra = cli.MeshSpectra(synth.gen_base("bar", 1), cfg, tmp_path,
                              "bar1.off")
    cli.build_bank(spectra, cfg, tmp_path, "bar1.off")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "bar1.243f0c31427dd4fd.spec", "bar1.98321895d4f91fc6.fbk",
        "bar1.a34b44fc8282b616.spec", "bar1.cefd64983bed9e92.spec",
        "bar1.f60b308930c01c5a.spec"]


def test_package_digest_covers_every_module(tmp_path):
    # an unchanged copy of the package has the imported package's digest,
    # and a comment appended to one module changes it
    copy = tmp_path / "wavemesh"
    shutil.copytree(Path(cli.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert cli._source_digest(copy) == cli._SOURCE_DIGEST
    with open(copy / "mesh.py", "a") as fh:
        fh.write("# a comment\n")
    assert cli._source_digest(copy) != cli._SOURCE_DIGEST


def test_cached_spectrum_reports_how_it_was_solved(run, tmp_path, capsys,
                                                   monkeypatch):
    # the SPEC1 metadata stores the solve's provenance next to the key, so
    # the spectrum command reports for a hit what the miss did
    mesh_path = run.data / "template.off"
    mesh = load_mesh(mesh_path)
    cfg = cli.ExperimentConfig(k=int(K))
    cache = tmp_path / "cache"
    solved = list(cli.MeshSpectra(mesh, cfg, cache, mesh_path))
    missed = capsys.readouterr().out.splitlines()
    cached = list(cli.MeshSpectra(mesh, cfg, cache, mesh_path))
    assert capsys.readouterr().out == ""  # a hit is silent
    assert [s.provenance for s in cached] == [s.provenance for s in solved]
    assert all({"solver", "max_residual", "ortho_error", "key"}
               <= set(s.provenance) for s in solved)
    assert _spectrum(mesh_path, cache, tmp_path / "s") == 0
    reported = capsys.readouterr().out.splitlines()
    assert len(missed) == len(reported) == len(solved)
    for m, (miss, report, s) in enumerate(zip(missed, reported, solved)):
        key = s.provenance["key"]
        (path,) = cache.glob(f"*.{key[:16]}.spec")
        head = f"direction {m}: computed ({path})"
        assert miss.startswith(head)
        # the report lists the miss's fields and the key, sorted by name
        fields = miss[len(head):].split(", ")[1:]
        assert report == ", ".join([f"direction {m}: stored ({path})",
                                    *sorted([*fields, f"key {key}"])])


def test_default_k_on_a_36_vertex_mesh_is_clamped_and_solved_dense(
        tmp_path, capsys, caplog):
    # the default K 200 on bar res 1 (N 36) is clamped to N - 1 = 35,
    # which the size rule (K > N - 2) sends to the dense solver; a second
    # run reads the same four SPEC1 files
    path = tmp_path / "bar1.off"
    write_off(synth.gen_base("bar", 1), path)
    argv = ["spectrum", "--mesh", str(path), "--cache",
            str(tmp_path / "cache"), "--out", str(tmp_path / "s")]
    assert cli.main(argv) == 0
    assert ("requested 200 eigenpairs on a 36-vertex mesh; using 35"
            in caplog.text)
    stored = [line for line in capsys.readouterr().out.splitlines()
              if ": stored (" in line]
    assert len(stored) == 4
    assert all(", solver dense," in line for line in stored)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == stored
    assert len(list((tmp_path / "cache").glob("*.spec"))) == 4


def test_spectrum_reports_the_lanczos_run(run, tmp_path, capsys):
    # a solve records its solver, basis, restarts, operator applications
    # and both inertia counts
    mesh_path = run.data / "template.off"
    cache = tmp_path / "cache"
    assert _spectrum(mesh_path, cache, tmp_path / "s") == 0
    out = capsys.readouterr().out
    spectra = sorted(cache.glob("*.spec"))
    for spec in spectra:
        meta = read_container(spec, "SPEC1")[1]
        assert sorted(meta["provenance"]) == [
            "fallback_face_fraction", "max_residual", "n_below_mu_minus",
            "n_below_mu_plus", "ncv", "operator_applications", "ortho_error",
            "restarts", "solver", "umbilic_fraction"]
        assert meta["provenance"]["solver"] == "lanczos"
        assert meta["provenance"]["n_below_mu_plus"] >= int(K)
    assert out.count(", solver lanczos") == 2 * len(spectra)


@pytest.mark.parametrize("base, cut, whole, counts", [
    (("cylinder", 2), 40, 39, (39, 41)),
    (("icosphere", 0), 3, 4, (1, 4)),
], ids=["cylinder-lanczos", "icosahedron-dense"])
def test_spectrum_warns_when_k_splits_a_repeated_eigenvalue(tmp_path, capsys,
                                                            base, cut, whole,
                                                            counts):
    # at alpha 0 the open cylinder at res 2 has lambda_40 = lambda_41
    # (equal to 6e-16 by the dense oracle), and the icosahedron, solved
    # dense, lambda_2 = lambda_3 = lambda_4: K 40 and 3 cut those
    # eigenspaces, K 39 and 4 do not. A miss warns after its "computed"
    # line and again after its report, a hit after its report
    mesh = tmp_path / "mesh.off"
    write_off(synth.gen_base(*base), mesh)
    cache = tmp_path / "cache"

    def spectrum(k):
        assert cli.main(["spectrum", "--mesh", str(mesh), "--k", str(k),
                         "--alpha", "0", "--directions", "1", "--cache",
                         str(cache), "--out", str(tmp_path / "s")]) == 0
        return capsys.readouterr()

    listed = "n_below_mu_minus {}, n_below_mu_plus {}".format(*counts)
    warning = (f"warning: direction 0: K {cut} splits a repeated eigenvalue "
               f"({listed}); the filter bank drops its returned copies\n")
    for warnings in (2, 1):
        got = spectrum(cut)
        assert listed in got.out
        assert got.err.count(warning) == warnings
        assert "warning" not in got.out
    got = spectrum(whole)
    assert f"n_below_mu_plus {whole}," in got.out
    assert "warning" not in got.err


@pytest.mark.parametrize("base, umbilic", [
    (("bar", 2), 2), (("cylinder", 3), 0),
], ids=["bar2", "open-cylinder"])
def test_frames_and_spectrum_report_the_orientation_dependence(
        tmp_path, capsys, base, umbilic):
    # where a vertex is umbilic or a face's averaged direction vanishes,
    # the operator takes the world +x: frames prints the umbilic share,
    # and spectrum both shares, from the SPEC1 provenance on a miss and on
    # a hit. Bar res 2 has 2 umbilic vertices, the open cylinder none;
    # neither has a fallback face (tests/test_operators.py makes some)
    mesh = synth.gen_base(*base)
    path = tmp_path / "mesh.off"
    write_off(mesh, path)
    n = mesh.n_vertices
    assert cli.main(["frames", "--mesh", str(path),
                     "--out", str(tmp_path / "f")]) == 0
    share = f"{umbilic / n:.3g}"
    assert capsys.readouterr().out.endswith(
        f"umbilic_fraction {share} ({umbilic} of {n} vertices)\n")
    for computed in (1, 0):
        assert _spectrum(path, tmp_path / "cache", tmp_path / "s",
                         "--k", "10", "--directions", "1") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + computed
        for line in lines:
            assert ", fallback_face_fraction 0," in line
            assert line.endswith(f", umbilic_fraction {share}")


def test_spectrum_command_holds_one_direction_at_a_time(tmp_path, capsys):
    # MeshSpectra keeps no direction it has read, and the command reads
    # each direction's eigenvalues alone, so a solve runs beside no other
    # spectrum: the live peak over 4 directions exceeds the peak over 1 by
    # at most a few kB. Measured at N 546, K 80: by -2 kB after a warm-up
    # run (-43 kB without one); by 0.88 to 1.0 spectra when the command
    # held the previous direction through the next solve, and by 2.91
    # when it read all four into a list
    mesh = synth.gen_base("bar", 4)
    write_off(mesh, tmp_path / "bar.off")
    k = 80
    peaks = []
    for directions in (1, 4):
        peak, code = traced_peak(lambda: cli.main([
            "spectrum", "--mesh", str(tmp_path / "bar.off"), "--k", str(k),
            "--directions", str(directions),
            "--cache", str(tmp_path / f"cache{directions}"),
            "--out", str(tmp_path / "s")]))
        assert code == 0
        peaks.append(peak)
    assert capsys.readouterr().out.count(": stored (") == 1 + 4
    one_spectrum = (mesh.n_vertices * k + k) * 8
    assert peaks[1] - peaks[0] <= 4096, (peaks[1] - peaks[0]) / one_spectrum


def test_spectrum_file_with_another_key_is_recomputed(run, tmp_path, capsys):
    mesh = run.data / "template.off"
    cache = tmp_path / "cache"
    assert _spectrum(mesh, cache, tmp_path / "s") == 0
    spec = sorted(cache.glob("*.spec"))[0]
    meta = _rekey(spec, "SPEC1")
    capsys.readouterr()
    assert _spectrum(mesh, cache, tmp_path / "s") == 0
    out = capsys.readouterr().out
    assert out.count(": computed") == 1 and f"computed ({spec})" in out
    # the recomputed file stores the key and provenance the first solve did
    assert read_container(spec, "SPEC1")[1] == meta
    assert sorted(meta) == ["key", "provenance"]


def test_bank_file_with_another_key_is_rebuilt(run, tmp_path, monkeypatch):
    mesh_path = run.data / "template.off"
    cfg = cli.ExperimentConfig.load(run.model, {"k": int(K)})
    cache = _spectra_only(run, tmp_path / "cache")
    spectra = cli.MeshSpectra(load_mesh(mesh_path), cfg, cache, mesh_path)
    builds = []
    original = wavelets.build_filterbank

    def counted(*args):
        builds.append(args)
        return original(*args)

    monkeypatch.setattr(wavelets, "build_filterbank", counted)
    first = cli.build_bank(spectra, cfg, cache, mesh_path)
    (fbk,) = cache.glob("*.fbk")
    assert len(builds) == 1
    cli.build_bank(spectra, cfg, cache, mesh_path)
    assert len(builds) == 1
    meta = _rekey(fbk, "FBK1")
    again = cli.build_bank(spectra, cfg, cache, mesh_path)
    assert len(builds) == 2
    arrays, stored = read_container(fbk, "FBK1")
    assert stored == meta == {"key": meta["key"]}
    assert sorted(arrays) == sorted(cli._BANK_ARRAYS)
    for name in cli._BANK_ARRAYS:
        assert np.array_equal(getattr(again, name), getattr(first, name))


def test_warm_forwards_read_no_spectrum(run, tmp_path, monkeypatch):
    # on a warm cache a bank hit reads one FBK1 file: eval reads no
    # spectrum, and train reads each shape's only in the pass that pins
    # the kernel scales, none in its steps
    cache = _own_cache(run, tmp_path / "cache")
    assert _eval(run, tmp_path / "warmup", cache=cache) == 0  # its banks
    reads, stepping = [], []
    load_spectrum, train_step = cli._load_spectrum, network._train_step

    def counted(*args):
        reads.append(bool(stepping))
        return load_spectrum(*args)

    def step(*args):
        stepping.append(True)
        try:
            return train_step(*args)
        finally:
            stepping.pop()

    monkeypatch.setattr(cli, "_load_spectrum", counted)
    monkeypatch.setattr(network, "_train_step", step)
    assert _train(run.data, cache, tmp_path / "train", run.model) == 0
    manifest = json.loads((run.data / "manifest.json").read_text())
    directions = cli.ExperimentConfig().directions
    assert reads == [False] * directions * len(manifest["training"])
    reads.clear()
    assert _eval(run, tmp_path / "eval", cache=cache,
                 checkpoint=tmp_path / "train" / "checkpoint.ckpt") == 0
    assert reads == []


def _warm_dump(run, cache, out):
    return cli.main(["wavelet-dump", "--mesh", str(run.data / "template.off"),
                     "--config", run.model, "--k", K, "--cache", str(cache),
                     "--out", str(out), "--vertex", "5", "--direction", "3",
                     "--scale", "1"])


# each command as (run, cache, out) -> exit code; eval reads the checkpoint
# that train writes to run.train_out
WARM_COMMANDS = {
    "spectrum": lambda run, cache, out: _spectrum(run.data / "template.off",
                                                  cache, out),
    "train": lambda run, cache, out: _train(run.data, cache, out, run.model),
    "eval": lambda run, cache, out: _eval(run, out, cache=cache),
    "wavelet-dump": _warm_dump,
}


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A dataset of 2 training shapes and a cache that each command of
    WARM_COMMANDS has run on once, train first into `train_out`."""
    root = tmp_path_factory.mktemp("warm")
    run = SimpleNamespace(
        data=_gen_data(root, [["bend", 0.6], ["twist", 0.3], ["bend", -0.4]]),
        model=_json(root / "model.json", MODEL), cache=root / "cache",
        train_out=root / "train")
    for command, start in WARM_COMMANDS.items():
        assert start(run, run.cache, root / command) == 0
    return run


@pytest.mark.parametrize("command, lookups, with_eigenvectors", [
    ("spectrum", 4, 0), ("train", 8, 0), ("eval", 0, 0),
    ("wavelet-dump", 5, 1),
])
def test_warm_commands_read_eigenvectors_only_to_draw_a_wavelet(
        warm, tmp_path, monkeypatch, command, lookups, with_eigenvectors):
    # on a warm cache the kernel scales and the spectrum report come from
    # eigenvalues read without the eigenvectors beside them, the banks are
    # FBK1 hits, and wavelet-dump reads only the direction it draws: 4
    # directions of the template, or of each of the 2 training shapes
    cache = shutil.copytree(warm.cache, tmp_path / "cache")
    found = []
    load_spectrum = cli._load_spectrum

    def counted(*args):
        result = load_spectrum(*args)
        found.append(None if result is None
                     else result[0]["eigenvectors"].size > 0)
        return result

    monkeypatch.setattr(cli, "_load_spectrum", counted)
    assert WARM_COMMANDS[command](warm, cache, tmp_path / "out") == 0
    assert None not in found  # every lookup hit
    assert (len(found), found.count(True)) == (lookups, with_eigenvectors)


def test_bank_describes_alike_built_and_read(run, tmp_path):
    # the FBK1 file stores the L1 pass's float32 cast of the basis, so a
    # bank built on a miss, the same bank read on a hit and the float32
    # build of the same spectra give bit-identical descriptors
    mesh_path = run.data / "template.off"
    mesh = load_mesh(mesh_path)
    cfg = cli.ExperimentConfig.load(
        run.model, {"k": int(K), "kernel_lambda_max": run.lambda_max})
    cache = _spectra_only(run, tmp_path / "cache")
    spectra = cli.MeshSpectra(mesh, cfg, cache, mesh_path)
    built = cli.build_bank(spectra, cfg, cache, mesh_path)
    (fbk,) = cache.glob("*.fbk")
    read = cli.build_bank(spectra, cfg, cache, mesh_path)
    assert read.basis is not built.basis and read.basis.dtype == np.float32
    kernel = wavelets.KernelSpec.mexican_hat(run.lambda_max, cfg.scales)
    oracle = wavelets.build_filterbank(list(spectra), kernel, np.float32)
    model = network.Model.initialize(cfg.model_config(mesh.n_vertices),
                                     np.float32)
    want = network.descriptors(model, mesh.vertices, lambda: oracle)
    for bank in (built, read):
        assert np.array_equal(
            network.descriptors(model, mesh.vertices, lambda: bank), want)
    # the file holds every array the network reads but the mass, which is
    # the mesh's
    arrays = read_container(fbk, "FBK1")[0]
    assert arrays["basis"].shape == (cfg.directions, mesh.n_vertices, int(K))
    assert set(arrays) == set(cli._BANK_ARRAYS)


def test_cache_files_hold_no_mass_and_readers_get_the_meshs(tmp_path,
                                                             capsys):
    # the lumped mass is the mesh's alone: no SPEC1 or FBK1 file stores
    # it, and every spectrum and bank the cache returns, on a miss and on
    # a hit, carries the mesh's own array
    mesh = synth.gen_base("bar", 1)
    mesh_path = tmp_path / "bar1.off"
    write_off(mesh, mesh_path)
    assert cli.main(["wavelet-dump", "--mesh", str(mesh_path), "--k", "10",
                     "--vertex", "0", "--cache", str(tmp_path / "dumped"),
                     "--out", str(tmp_path / "dump")]) == 0
    files = {kind: sorted((tmp_path / "dumped").glob(f"*.{suffix}"))
             for kind, suffix in (("SPEC1", "spec"), ("FBK1", "fbk"))}
    assert (len(files["SPEC1"]), len(files["FBK1"])) == (4, 1)
    for kind, paths in files.items():
        for path in paths:
            assert "mass" not in read_container(path, kind)[0]
    cfg = cli.ExperimentConfig(k=10)
    cache = tmp_path / "cache"
    for hit in (False, True):
        spectra = cli.MeshSpectra(mesh, cfg, cache, mesh_path)
        assert all(spectra[m].mass is mesh.mass for m in range(len(spectra)))
        assert cli.build_bank(spectra, cfg, cache, mesh_path).mass \
            is mesh.mass
        assert bool(capsys.readouterr().out) is not hit  # a miss reports


def test_bank_miss_holds_one_float64_direction(tmp_path, capsys):
    # a miss streams the cached spectra through the float32 L1 pass one
    # direction at a time, so beside the bank's float32 basis, its
    # normalizers and the pass's panel and scaled-basis buffers it holds
    # at most one float64 N x K spectrum, plus vectors and the iteration
    # buffers numpy's multiply takes for a strided basis. Measured at
    # N 546, K 80: 61 kB over those arrays and one spectrum, against an
    # allowance of 131 kB
    mesh = synth.gen_base("bar", 4)
    mesh_path = tmp_path / "bar.off"
    write_off(mesh, mesh_path)
    cache = tmp_path / "cache"
    cfg = cli.ExperimentConfig(k=80, kernel_lambda_max=1000.0)
    assert _spectrum(mesh_path, cache, tmp_path / "s", "--k", "80") == 0
    capsys.readouterr()
    peak, bank = traced_peak(lambda: cli.build_bank(
        cli.MeshSpectra(mesh, cfg, cache, mesh_path), cfg, cache,
        mesh_path))
    assert not capsys.readouterr().out  # the spectra were read, not solved
    n, k = mesh.n_vertices, cfg.k
    float64_spectrum = (n * k + k) * 8
    l1_buffers = (min(wavelets.L1_BLOCK, n) * n + n * k) * 4
    kept = bank.basis.nbytes + bank.l1_normalizers.nbytes
    assert peak <= (kept + l1_buffers + float64_spectrum
                    + 2 * np.getbufsize() * 8), \
        (peak - kept - l1_buffers) / float64_spectrum


def test_geodesic_file_with_another_key_is_recomputed(run, tmp_path,
                                                     geodesic_calls):
    (pair,) = json.loads((run.data / "manifest.json").read_text())["pairs"]
    path = run.data / pair["target"]
    target = load_mesh(path)
    gt = synth.read_indices(run.data / pair["gt"])
    corr = np.roll(gt, 1)
    cache = tmp_path / "cache"
    dist = cli.load_geodesics(target, gt, corr, cache, path)
    (geo,) = cache.glob("*.geo")
    meta = _rekey(geo, "GEO1")
    assert np.array_equal(cli.load_geodesics(target, gt, corr, cache, path),
                          dist)
    assert sum(geodesic_calls) == 2 * np.unique(gt).size
    assert read_container(geo, "GEO1")[1] == meta


def _perfbench_tracing():
    """perfbench's probes, loaded from its source file without changing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_warm_train_and_eval_hit_every_probed_cache_lookup(run, tmp_path):
    # the benchmark's warm check compares hits with attempts; attempts of 0
    # would let a lookup that bypasses the probed functions pass unseen
    cache = _own_cache(run, tmp_path / "cache")
    assert _train(run.data, cache, tmp_path / "warmup", run.model) == 0
    assert _eval(run, tmp_path / "warmup-eval", cache=cache,
                 checkpoint=tmp_path / "warmup" / "checkpoint.ckpt") == 0
    manifest = json.loads((run.data / "manifest.json").read_text())
    described = {p["source"] for p in manifest["pairs"]} \
        | {p["target"] for p in manifest["pairs"]}
    # train reads each shape's spectra once to pin the kernel scales and
    # its bank at every step of its one epoch; eval reads each described
    # mesh's bank once. A bank hit reads no spectrum
    shapes = len(manifest["training"])
    banks = shapes + len(described)
    spectra = shapes

    tracing = _perfbench_tracing()
    tracer = tracing.Tracer()
    with tracing.Probes(tracer):
        assert _train(run.data, cache, tmp_path / "train", run.model) == 0
        assert _eval(run, tmp_path / "eval", cache=cache,
                     checkpoint=tmp_path / "train" / "checkpoint.ckpt") == 0
    c = tracer.counters
    directions = cli.ExperimentConfig().directions
    assert c["cli.spectrum_cache.attempts"] == directions * spectra
    assert c["cli.bank_cache.attempts"] == banks
    for cache_name in ("spectrum_cache", "bank_cache"):
        assert c[f"cli.{cache_name}.hits"] == c[f"cli.{cache_name}.attempts"]
    assert c["spectrum.solve_eigs.calls"] == 0
    assert c["wavelets.build_filterbank.calls"] == 0
    assert c["containers.write_container.calls"] == 1  # the checkpoint


def test_training_holds_one_shape_and_matches_prebuilt_banks(tmp_path,
                                                            monkeypatch):
    data = _gen_data(tmp_path, [["bend", 0.6], ["twist", 0.3],
                                ["bend", -0.4], ["twist", -0.2]])
    manifest_path = data / "manifest.json"
    training = json.loads(manifest_path.read_text())["training"]
    assert len(training) == 3
    cache = tmp_path / "cache"
    for entry in training:
        assert _spectrum(data / entry["mesh"], cache, tmp_path / "s") == 0
    cfg = cli.ExperimentConfig.load(
        _json(tmp_path / "model.json", MODEL),
        {"k": int(K), "epochs": 2, "perturb": True, "cache": str(cache)})

    # with gc off, eigenvectors or a bank still alive when the next
    # direction is read are referenced from somewhere; neither is
    # hashable, so they are weak dict values. The spy counts what is alive
    # as each direction's read starts, of its spectrum or of its
    # eigenvalues alone
    alive = weakref.WeakValueDictionary()
    alive_at_read = []
    build_bank = cli.build_bank

    class Spied(cli.MeshSpectra):
        def _read(self, m, pick=None):
            alive_at_read.append(len(alive))
            arrays, provenance = super()._read(m, pick)
            vectors = arrays["eigenvectors"]
            alive[id(vectors)] = vectors
            return arrays, provenance

    def read_bank(*args):
        bank = build_bank(*args)
        alive[id(bank)] = bank
        return bank

    monkeypatch.setattr(cli, "MeshSpectra", Spied)
    monkeypatch.setattr(cli, "build_bank", read_bank)
    gc.disable()
    try:
        model, history = cli.run_training(cfg, manifest_path)
    finally:
        gc.enable()
    # one pass over 3 shapes, then 2 epochs of 3 steps, the first of which
    # build and cache the banks one direction at a time and the second
    # read them without a spectrum; no spectrum or bank is alive at any
    # read
    d = cfg.directions
    assert alive_at_read == [0] * d * 3 * 2
    monkeypatch.undo()

    # cfg now holds the kernel scales run_training pinned
    items = []
    for entry in training:
        path = data / entry["mesh"]
        mesh = load_mesh(path)
        labels = synth.read_indices(data / entry["labels"])
        bank = cli.build_bank(cli.MeshSpectra(mesh, cfg, cache, path), cfg,
                              cache, path)
        items.append(network.TrainItem(coords=mesh.vertices, labels=labels,
                                       load_bank=lambda bank=bank: bank))
    prebuilt = network.Model.initialize(model.config,
                                        model.params["head.w"].dtype)
    assert network.train(prebuilt, items, epochs=2) == history
    for name, value in model.params.items():
        assert np.array_equal(prebuilt.params[name], value), name


# --- the GEO1 cache of ground-truth geodesic rows ---------------------------------


def _own_cache(run, path):
    """A copy of the shared cache's spectra and banks, without geodesics."""
    path.mkdir()
    for f in [*run.cache.glob("*.spec"), *run.cache.glob("*.fbk")]:
        shutil.copy2(f, path / f.name)
    return path


def _gt_sources(run):
    (pair,) = json.loads((run.data / "manifest.json").read_text())["pairs"]
    return np.unique(synth.read_indices(run.data / pair["gt"])).size


@pytest.fixture
def geodesic_calls(monkeypatch):
    """Source counts of every corresp.geodesic_rows call."""
    calls = []
    original = corresp.geodesic_rows

    def counted(mesh, sources, *graph):
        calls.append(len(sources))
        return original(mesh, sources, *graph)

    monkeypatch.setattr(corresp, "geodesic_rows", counted)
    return calls


def _outputs(out):
    return {p.name: p.read_bytes()
            for p in [out / "pairs.csv", *sorted(out.glob("cge_*.csv"))]}


def test_a_changed_package_digest_misses_every_cache_kind(
        run, tmp_path, capsys, monkeypatch, geodesic_calls):
    # as after an edit to any module: spectrum solves every direction
    # again, train builds every bank again and eval computes its geodesic
    # rows again; with the digest restored, the original files hit
    cache = _own_cache(run, tmp_path / "cache")
    assert _eval(run, tmp_path / "warm", cache=cache) == 0
    manifest = json.loads((run.data / "manifest.json").read_text())
    builds = _record_builds(monkeypatch)

    def misses(name):
        """(spectra solved, banks built by train, geodesic sources)."""
        del builds[:], geodesic_calls[:]
        capsys.readouterr()
        assert _spectrum(run.data / "template.off", cache,
                         tmp_path / f"spectrum-{name}") == 0
        solved = capsys.readouterr().out.count(": computed (")
        assert _train(run.data, cache, tmp_path / f"train-{name}",
                      run.model) == 0
        built = len(builds)
        assert _eval(run, tmp_path / f"eval-{name}", cache=cache) == 0
        return solved, built, sum(geodesic_calls)

    digest = cli._SOURCE_DIGEST
    monkeypatch.setattr(cli, "_SOURCE_DIGEST", "0" * 64)
    directions = cli.ExperimentConfig().directions
    assert misses("edited") == (directions, len(manifest["training"]),
                                _gt_sources(run))
    monkeypatch.setattr(cli, "_SOURCE_DIGEST", digest)
    assert misses("restored") == (0, 0, 0)
    assert (_outputs(tmp_path / "eval-edited")
            == _outputs(tmp_path / "eval-restored"))


def test_second_eval_reads_the_geodesic_cache(run, tmp_path, geodesic_calls):
    cache = _own_cache(run, tmp_path / "cache")
    assert _eval(run, tmp_path / "first", cache=cache) == 0
    assert sum(geodesic_calls) == _gt_sources(run)
    assert len(list(cache.glob("*.geo"))) == 1
    assert _eval(run, tmp_path / "second", cache=cache) == 0
    assert sum(geodesic_calls) == _gt_sources(run)
    assert _outputs(tmp_path / "first") == _outputs(tmp_path / "second")


def test_changed_gt_or_target_misses_the_geodesic_cache(run, tmp_path,
                                                       geodesic_calls):
    (pair,) = json.loads((run.data / "manifest.json").read_text())["pairs"]
    path = run.data / pair["target"]
    target = load_mesh(path)
    gt = synth.read_indices(run.data / pair["gt"])
    corr = np.roll(gt, 1)
    cache = tmp_path / "cache"
    dist = cli.load_geodesics(target, gt, corr, cache, path)
    # gt[0] no longer a ground-truth vertex; the same mesh, scaled
    fewer = np.where(gt == gt[0], gt[1], gt)
    scaled = TriMesh(target.vertices * 1.01, target.faces)
    for changed_target, changed_gt in ((target, fewer), (scaled, gt)):
        cli.load_geodesics(changed_target, changed_gt, corr, cache, path)
    n = np.unique(gt).size
    assert sum(geodesic_calls) == n + (n - 1) + n
    assert len(list(cache.glob("*.geo"))) == 3
    assert np.array_equal(cli.load_geodesics(target, gt, corr, cache, path),
                          dist)
    assert sum(geodesic_calls) == 3 * n - 1


def test_corrupt_geodesic_file_is_recomputed_with_a_warning(run, tmp_path,
                                                            capsys,
                                                            geodesic_calls):
    cache = _own_cache(run, tmp_path / "cache")
    assert _eval(run, tmp_path / "first", cache=cache) == 0
    (geo,) = cache.glob("*.geo")
    whole = geo.read_bytes()
    # a garbled header, then a file cut off inside its rows region
    for i, corrupt in enumerate([b"GEO1\x00\x00\x00\x00garbage",
                                 whole[:len(whole) // 2]]):
        geo.write_bytes(corrupt)
        capsys.readouterr()
        assert _eval(run, tmp_path / f"again{i}", cache=cache) == 0
        err = capsys.readouterr().err
        assert "warning" in err and str(geo) in err
        assert sum(geodesic_calls) == (i + 2) * _gt_sources(run)
        assert _outputs(tmp_path / "first") == _outputs(tmp_path / f"again{i}")
        assert geo.read_bytes() == whole
    assert "'rows' runs past the end" in err


def test_disconnected_target_caches_no_geodesics(tmp_path):
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0],
             [10, 10, 10], [11, 10, 10], [10, 11, 10]]
    mesh = TriMesh(verts, [[0, 1, 2], [3, 4, 5]])
    cache = tmp_path / "cache"
    # gt in one component, then in both: every vertex some source misses
    for gt, unreachable in (([2, 0, 2], [3, 4, 5]), (range(6), range(6))):
        with pytest.raises(DisconnectedMesh) as info:
            cli.load_geodesics(mesh, np.array(gt), np.array(gt), cache,
                               tmp_path / "two.off")
        assert info.value.unreachable.tolist() == list(unreachable)
        assert not cache.exists()
    assert list(tmp_path.iterdir()) == []
    assert issubclass(DisconnectedMesh, ValidationError)  # exit 2


def test_matching_runs_before_the_geodesic_read(run, tmp_path, monkeypatch):
    # holding the rows next to the target's descriptors raises the peak
    # memory of an eval
    cache = _own_cache(run, tmp_path / "cache")
    assert _eval(run, tmp_path / "first", cache=cache) == 0
    events = []
    match, read = corresp.match_nn, cli.read_container

    def logged_match(*args):
        events.append("match")
        return match(*args)

    def logged_read(path, kind=None, pick=None):
        events.append(kind)
        return read(path, kind, pick)

    monkeypatch.setattr(corresp, "match_nn", logged_match)
    monkeypatch.setattr(cli, "read_container", logged_read)
    assert _eval(run, tmp_path / "second", cache=cache) == 0
    assert events.count("GEO1") == 1
    assert events[-2:] == ["match", "GEO1"]


def test_geodesics_stream_below_one_whole_rows_array(tmp_path, monkeypatch):
    # a miss computes and writes GEO_BLOCK rows at a time, then reads back
    # one entry per source vertex; a hit only reads them, and holds less
    # than one block of rows
    monkeypatch.setattr(corresp, "GEO_BLOCK", 16)
    mesh = jittered_grid(19, 19, seed=13)  # 400 vertices
    gt = np.arange(mesh.n_vertices)
    corr = np.roll(gt, 7)
    cache = tmp_path / "cache"
    whole = corresp.geodesic_rows(mesh, gt)
    for bound in (whole.nbytes, 16 * whole[0].nbytes):  # a miss, then a hit
        peak, dist = traced_peak(lambda: cli.load_geodesics(
            mesh, gt, corr, cache, tmp_path / "grid.off"))
        assert peak < bound
        assert np.array_equal(dist, whole[gt, corr])
    (geo,) = cache.glob("*.geo")
    write_container(tmp_path / "whole.geo", "GEO1", {"rows": whole},
                    read_container(geo, "GEO1")[1])
    assert geo.read_bytes() == (tmp_path / "whole.geo").read_bytes()


def test_geodesics_read_one_entry_per_source_vertex(tmp_path, monkeypatch):
    # gt repeats vertices and corr lands on both ends of the rows; after a
    # miss's write, as on a hit, only 8 bytes per source vertex are read
    mesh = jittered_grid(9, 9, seed=3)  # 100 vertices
    rng = np.random.default_rng(5)
    gt = rng.integers(0, mesh.n_vertices, 60)
    corr = rng.integers(0, mesh.n_vertices, 60)
    corr[:2] = 0, mesh.n_vertices - 1
    uniq, inverse = np.unique(gt, return_inverse=True)
    want = corresp.geodesic_rows(mesh, uniq)[inverse, corr]
    reads = []
    pread = os.pread

    def counted(fd, n, offset):
        reads.append(n)
        return pread(fd, n, offset)

    monkeypatch.setattr(os, "pread", counted)
    for _ in ("miss", "hit"):
        reads.clear()
        dist = cli.load_geodesics(mesh, gt, corr, tmp_path / "cache",
                                  tmp_path / "grid.off")
        assert np.array_equal(dist, want)
        assert 0 < sum(reads) <= 8 * gt.size


def test_a_pick_outside_the_rows_keeps_the_geodesic_file(tmp_path, capsys):
    # a pick outside the rows is an IndexError (exit 2), not a corrupt file
    # to rebuild. load_geodesics checks the map first, since a corr index
    # past the end of its row would pick a valid entry of the next row
    mesh = jittered_grid(4, 4, seed=2)  # 25 vertices
    gt = np.arange(mesh.n_vertices)
    cache = tmp_path / "cache"
    cli.load_geodesics(mesh, gt, gt, cache, tmp_path / "grid.off")
    (geo,) = cache.glob("*.geo")
    whole, key = geo.read_bytes(), read_container(geo, "GEO1")[1]["key"]
    with pytest.raises(IndexError, match="outside array 'rows'"):
        cli._read_cache(geo, "GEO1", key, {"rows": [gt.size ** 2]})
    corr = gt.copy()
    corr[0] = mesh.n_vertices
    with pytest.raises(IndexError, match="corr contains indices outside"):
        cli.load_geodesics(mesh, gt, corr, cache, tmp_path / "grid.off")
    assert "warning" not in capsys.readouterr().err
    assert geo.read_bytes() == whole


def test_a_source_shared_by_pairs_is_described_once(run, tmp_path,
                                                    monkeypatch):
    data = tmp_path / "data"
    shutil.copytree(run.data, data)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["pairs"] *= 2
    (data / "manifest.json").write_text(json.dumps(manifest))
    cache = _own_cache(run, tmp_path / "cache")
    assert _eval(run, tmp_path / "single", cache=cache) == 0
    described = []
    original = network.descriptors

    def counted(model, coords, *args, **kwargs):
        described.append(len(coords))
        return original(model, coords, *args, **kwargs)

    monkeypatch.setattr(network, "descriptors", counted)
    assert _eval(run, tmp_path / "double", cache=cache, data=data) == 0
    assert len(described) == 3  # the source once, the target per pair
    single = (tmp_path / "single" / "pairs.csv").read_text().splitlines()
    double = (tmp_path / "double" / "pairs.csv").read_text().splitlines()
    assert double == single + single[1:]


# --- renumbered vertices: metamorphic oracles ----------------------------------


def _renumbered(run, root, name):
    """A copy at `root` of the shared dataset and cache in which the mesh
    `name` numbers its vertices by a fixed permutation perm (new vertex i
    is old vertex perm[i]), its faces renumbered along, and its spectra are
    solved. Returns (data, cache, perm); index files are the caller's."""
    data = root / "data"
    shutil.copytree(run.data, data)
    mesh = load_mesh(data / name)
    perm = np.random.default_rng(0).permutation(mesh.n_vertices)
    write_off(TriMesh(mesh.vertices[perm], np.argsort(perm)[mesh.faces]),
              data / name)
    cache = _own_cache(run, root / "cache")
    assert _spectrum(data / name, cache, root / "spectrum") == 0
    return data, cache, perm


def test_renumbering_a_training_shape_leaves_float32_training_unchanged(
        run, tmp_path):
    # a training shape renumbered with its labels states the same
    # correspondence, so training and the scores must not change; in
    # float32 the loss curves agree within 1e-6, about 8 float32 epsilons
    # (measured 8e-9). tests/test_network.py holds float64 training to 1e-9
    manifest = json.loads((run.data / "manifest.json").read_text())
    (entry,) = manifest["training"]
    data, cache, perm = _renumbered(run, tmp_path, entry["mesh"])
    labels = synth.read_indices(data / entry["labels"])
    np.savetxt(data / entry["labels"], labels[perm], fmt="%d")
    losses = []
    for name, dataset in (("base", run.data), ("renumbered", data)):
        out = tmp_path / name
        assert _train(dataset, cache, out, run.model, "--perturb",
                      "--epochs", "5") == 0
        losses.append(np.loadtxt(out / "history.csv", delimiter=",",
                                 skiprows=1)[:, 1])
        assert _eval(run, out / "eval", cache=cache,
                     checkpoint=out / "checkpoint.ckpt") == 0
    assert (_outputs(tmp_path / "renumbered" / "eval")
            == _outputs(tmp_path / "base" / "eval"))
    np.testing.assert_allclose(losses[1], losses[0], rtol=1e-6, atol=0)


def test_renumbering_an_eval_target_leaves_the_scores_unchanged(run,
                                                                tmp_path):
    (pair,) = json.loads((run.data / "manifest.json").read_text())["pairs"]
    data, cache, perm = _renumbered(run, tmp_path, pair["target"])
    gt = synth.read_indices(data / pair["gt"])
    np.savetxt(data / pair["gt"], np.argsort(perm)[gt], fmt="%d")
    assert _eval(run, tmp_path / "base", cache=cache) == 0
    assert _eval(run, tmp_path / "renumbered", cache=cache, data=data) == 0
    assert _outputs(tmp_path / "renumbered") == _outputs(tmp_path / "base")


def _write_obj(mesh, path):
    """An OBJ file of `mesh`, coordinates as `repr` of Python floats."""
    with open(path, "w") as fh:
        fh.writelines(f"v {x!r} {y!r} {z!r}\n"
                      for x, y, z in mesh.vertices.tolist())
        fh.writelines(f"f {a + 1} {b + 1} {c + 1}\n"
                      for a, b, c in mesh.faces.tolist())


def test_dataset_written_as_obj_gives_the_same_outputs(run, tmp_path):
    # both readers share one line pass, so the same meshes read from OBJ
    # files give the same arrays, spectra, training and scores; pairs.csv
    # names the meshes, so it differs only in their suffix
    data = tmp_path / "data"
    shutil.copytree(run.data, data)
    manifest = json.loads((data / "manifest.json").read_text())
    entries = [manifest["template"], *manifest["training"]]
    for entry in entries:
        entry["mesh"] = entry["mesh"].replace(".off", ".obj")
    for pair in manifest["pairs"]:
        for end in ("source", "target"):
            pair[end] = pair[end].replace(".off", ".obj")
    _json(data / "manifest.json", manifest)
    for off in _meshes(run.data):
        _write_obj(load_mesh(off), data / f"{off.stem}.obj")
        (data / off.name).unlink()
    cache = tmp_path / "cache"
    for mesh in _meshes(data):
        assert mesh.suffix == ".obj"
        assert _spectrum(mesh, cache, tmp_path / "spectrum") == 0
    assert _train(data, cache, tmp_path / "train", run.model) == 0
    assert _eval(run, tmp_path / "eval", data=data, cache=cache,
                 checkpoint=tmp_path / "train" / "checkpoint.ckpt") == 0
    assert _eval(run, tmp_path / "off") == 0
    assert ((tmp_path / "train" / "history.csv").read_bytes()
            == (run.train_out / "history.csv").read_bytes())
    got, want = _outputs(tmp_path / "eval"), _outputs(tmp_path / "off")
    got["pairs.csv"] = got["pairs.csv"].replace(b".obj", b".off")
    assert got == want


# --- the frames and mesh-info subcommands ------------------------------------


def test_mesh_info_reports_the_closed_bar(run, capsys):
    # bar resolution 2 is an 8 x 1 x 1 box: closed, a sphere's Euler
    # characteristic and area 2 (8 + 8 + 1)
    capsys.readouterr()
    mesh = run.data / "template.off"
    assert cli.main(["mesh-info", "--mesh", str(mesh)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["vertices"] == 138
    assert info["closed"] is True
    assert info["euler_characteristic"] == 2
    assert info["total_area"] == pytest.approx(34.0, rel=1e-14)


def test_frames_csv_reads_back_as_the_estimated_frames(run, tmp_path):
    mesh_path = run.data / "template.off"
    assert cli.main(["frames", "--mesh", str(mesh_path),
                     "--out", str(tmp_path)]) == 0
    csv = tmp_path / "template.frames.csv"
    frames = estimate_frames(load_mesh(mesh_path))
    assert len(csv.read_text().splitlines()) == frames.n_vertices + 1
    table = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert np.array_equal(table[:, 0], np.arange(frames.n_vertices))
    assert np.array_equal(table[:, 1], frames.k_min)
    assert np.array_equal(table[:, 2], frames.k_max)
    assert np.array_equal(table[:, 3:6], frames.dir_max)
    assert np.array_equal(table[:, 6], frames.umbilic)


# --- CSV files ------------------------------------------------------------------


def _frames_csv_per_row(frames, path):
    """The per-row f-string writer of `frames`, kept as an oracle."""
    with open(path, "w") as fh:
        fh.write("vertex,k_min,k_max,dir_x,dir_y,dir_z,umbilic\n")
        for i in range(frames.n_vertices):
            d = frames.dir_max[i]
            fh.write(f"{i},{float(frames.k_min[i])!r},{float(frames.k_max[i])!r},"
                     f"{float(d[0])!r},{float(d[1])!r},{float(d[2])!r},"
                     f"{int(frames.umbilic[i])}\n")


def _wavelet_csv_per_row(values, path):
    """The per-row f-string writer of `wavelet-dump`, kept as an oracle."""
    with open(path, "w") as fh:
        fh.write("vertex,value\n")
        for i, val in enumerate(values):
            fh.write(f"{i},{float(val)!r}\n")


def test_frames_and_wavelet_csvs_match_per_row_writers(run, tmp_path):
    mesh_path = run.data / "template.off"
    mesh = load_mesh(mesh_path)
    frames = estimate_frames(mesh)
    # both umbilic values occur, so the flag column is exercised
    assert frames.umbilic.any() and not frames.umbilic.all()
    assert cli.main(["frames", "--mesh", str(mesh_path),
                     "--out", str(tmp_path / "frames")]) == 0
    _frames_csv_per_row(frames, tmp_path / "want.frames.csv")
    assert ((tmp_path / "frames" / "template.frames.csv").read_bytes()
            == (tmp_path / "want.frames.csv").read_bytes())

    cache = _own_cache(run, tmp_path / "cache")
    _dump(mesh_path, cache, tmp_path / "dump", run.model)
    cfg = cli.ExperimentConfig.load(run.model, {"k": int(K)})
    spectra = cli.MeshSpectra(mesh, cfg, cache, mesh_path)
    bank = cli.build_bank(spectra, cfg, cache, mesh_path)
    # the dump synthesizes from the float64 spectrum, not the float32 basis
    spec = list(spectra)[1]
    _wavelet_csv_per_row(
        wavelets.localized_wavelet(spec.eigenvectors, spec.mass,
                                   bank.responses[1, 1], 5),
        tmp_path / "want.csv")
    (got,) = (tmp_path / "dump").glob("wavelet_*.csv")
    assert got.read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_write_csv_cells(tmp_path):
    # history.csv and pairs.csv as their per-row writers formatted them:
    # ints and floats as Python scalars, strings unquoted
    history = [(1, 5.25, 0.1), (2, 1e-05, 1.0 / 3.0)]
    cli.write_csv(tmp_path / "history.csv", "epoch,loss,accuracy",
                  *map(np.asarray, zip(*history)))
    assert (tmp_path / "history.csv").read_text() == "".join(
        ["epoch,loss,accuracy\n"]
        + [f"{epoch},{loss!r},{acc!r}\n" for epoch, loss, acc in history])
    cli.write_csv(tmp_path / "pairs.csv", "source_mesh,target_mesh,age_x100",
                  ["template.off"], ["deform 1.off"], np.array([2.5e-17]))
    assert (tmp_path / "pairs.csv").read_text() == (
        "source_mesh,target_mesh,age_x100\n"
        "template.off,deform 1.off,2.5e-17\n")
    cli.write_csv(tmp_path / "empty.csv", "r,fraction",
                  np.empty(0), np.empty(0))
    assert (tmp_path / "empty.csv").read_text() == "r,fraction\n"
