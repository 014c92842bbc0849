"""End-to-end tests of the `wavemesh` command line and its exit codes.

Every command runs in-process through `cli.main` on a tiny bar (resolution
2) with k=20, one epoch and a one-layer network, so the file takes a few
seconds. One module-scoped dataset is generated, its spectra solved and a
model trained once; tests that write to a cache use a cache of their own.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from wavemesh import cli
from wavemesh.containers import read_container, write_container

K = "20"
MODEL = {"encoder_hidden": 8, "feature_dim": 8, "conv_layers": 1, "scales": 2}


def _json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def _gen_data(root, deformations):
    root.mkdir(parents=True, exist_ok=True)
    config = _json(root / "dataset.json", {
        "base": "bar", "resolution": 2, "deformations": deformations,
        "holdout": 1, "split_seed": 0})
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


def _eval(run, out, *extra, checkpoint=None):
    checkpoint = checkpoint or run.train_out / "checkpoint.ckpt"
    return cli.main(["eval", "--dataset", str(run.data / "manifest.json"),
                     "--checkpoint", str(checkpoint),
                     "--cache", str(run.cache), "--out", str(out), *extra])


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


def test_eval_applies_its_config_file_over_the_checkpoint(run, tmp_path):
    config = _json(tmp_path / "radii.json", {"radii": [0.0, 0.1, 0.05]})
    assert _eval(run, tmp_path / "eval", "--config", config) == 0
    echo = json.loads((tmp_path / "eval" / "config.echo.json").read_text())
    assert echo["radii"] == [0.0, 0.1, 0.05]
    assert echo["encoder_hidden"] == MODEL["encoder_hidden"]
    cge = (tmp_path / "eval" / "cge_pooled.csv").read_text().splitlines()
    assert len(cge) == 1 + 3


def _snapshot(cache):
    """Name, size and modification time of every file in a cache."""
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in cache.iterdir()}


def test_eval_with_more_scales_than_the_model_exits_2(run, tmp_path):
    # the model mixes 2 scales; a 3-scale bank must not be mixed by a
    # 4 x 2 sub-block of its filters, nor built and cached before the
    # mismatch is found
    before = _snapshot(run.cache)
    assert _eval(run, tmp_path, "--scales", "3") == 2
    assert not (tmp_path / "pairs.csv").exists()
    assert _snapshot(run.cache) == before


def test_eval_with_fewer_directions_than_the_model_exits_2(run, tmp_path,
                                                          capsys):
    before = _snapshot(run.cache)
    assert _eval(run, tmp_path, "--directions", "2") == 2
    err = capsys.readouterr().err
    assert "4 x 2 grid" in err and "2 directions x 2 scales" in err
    assert _snapshot(run.cache) == before


@pytest.fixture(scope="module")
def perturbed(run):
    """A --perturb checkpoint, which stores the training shuffle as perm:n,
    and a config that evaluates it through the perturbation stage."""
    out = run.root / "train-perturb"
    assert _train(run.data, run.cache, out, run.model, "--perturb") == 0
    config = _json(run.root / "softmax.json", {"descriptor": "softmax"})
    checkpoint = out / "checkpoint.ckpt"
    assert _eval(run, run.root / "eval-perturb", "--config", config,
                 checkpoint=checkpoint) == 0
    return checkpoint, config


@pytest.mark.parametrize("damage", ["zeros", "short"])
def test_checkpoint_perm_that_is_no_permutation_exits_4(run, perturbed,
                                                        tmp_path, damage):
    checkpoint, config = perturbed
    arrays, meta = read_container(checkpoint, "CKPT1")
    (name,) = [k for k in arrays if k.startswith("perm:")]
    perm = arrays[name]
    arrays[name] = np.zeros_like(perm) if damage == "zeros" else perm[:-1]
    bad = tmp_path / "checkpoint.ckpt"
    write_container(bad, "CKPT1", arrays, meta=meta)
    assert _eval(run, tmp_path / "bad", "--config", config,
                 checkpoint=bad) == 4
    assert not (tmp_path / "bad" / "pairs.csv").exists()


def test_unknown_key_in_checkpoint_experiment_exits_2(run, tmp_path):
    arrays, meta = read_container(run.train_out / "checkpoint.ckpt", "CKPT1")
    meta["experiment"]["no_such_key"] = 1
    ckpt = tmp_path / "checkpoint.ckpt"
    write_container(ckpt, "CKPT1", arrays, meta=meta)
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--cache",
                     str(run.cache), "--out", str(tmp_path)]) == 2


def _dump(mesh, cache, out, config):
    assert cli.main(["wavelet-dump", "--mesh", str(mesh), "--k", K,
                     "--config", config, "--cache", str(cache),
                     "--out", str(out), "--vertex", "5", "--direction", "1",
                     "--scale", "1"]) == 0
    (csv,) = out.glob("wavelet_*.csv")
    return np.loadtxt(csv, delimiter=",", skiprows=1)[:, 1]


def test_changed_curvature_radius_rebuilds_the_bank(run, tmp_path):
    # kernel_lambda_max is pinned as in training, so only the spectra's
    # content can tell the two banks apart
    mesh = run.data / "template.off"
    cache = tmp_path / "cache"
    values = {}
    for radius in (0.0, 0.2):
        config = _json(tmp_path / f"r{radius}.json", {
            **MODEL, "curvature_radius": radius,
            "kernel_lambda_max": run.lambda_max})
        assert _spectrum(mesh, cache, tmp_path / "s", "--config", config) == 0
        values[radius] = _dump(mesh, cache, tmp_path / f"dump{radius}", config)
    assert _spectrum(mesh, tmp_path / "fresh", tmp_path / "s",
                     "--config", config) == 0
    fresh = _dump(mesh, tmp_path / "fresh", tmp_path / "dump-fresh", config)
    assert not np.allclose(values[0.0], fresh)
    assert np.array_equal(values[0.2], fresh)


def test_datasets_sharing_a_cache_keep_their_own_spectra(run, tmp_path):
    other = _gen_data(tmp_path / "other", [["bend", -0.5], ["twist", -0.2]])
    cache = tmp_path / "cache"
    # both datasets name their training mesh deform_0.off
    for data in (run.data, other):
        assert _spectrum(data / "deform_0.off", cache, tmp_path / "s") == 0
    assert _train(run.data, cache, tmp_path / "train", run.model) == 0
    assert _train(other, cache, tmp_path / "train-other", run.model) == 0


def test_integer_alpha_in_a_config_matches_the_alpha_flag(run, tmp_path):
    config = _json(tmp_path / "alpha.json", {"alpha": 50})
    cache = tmp_path / "cache"
    assert _spectrum(run.data / "deform_0.off", cache, tmp_path / "s",
                     "--config", config) == 0
    assert cli.main(["train", "--dataset", str(run.data / "manifest.json"),
                     "--config", run.model, "--k", K, "--alpha", "50",
                     "--epochs", "1", "--cache", str(cache),
                     "--out", str(tmp_path / "train")]) == 0


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
    assert captured.out.count(": cached") == 3
    assert sorted(cache.glob("*.spec")) == files
    read_container(files[0], "SPEC1")


def test_train_before_spectrum_exits_4(run, tmp_path):
    assert _train(run.data, tmp_path / "empty", tmp_path / "train",
                  run.model) == 4


def test_all_zero_wavelet_columns_exit_3(run, tmp_path):
    # scales ~ 1/lambda_max put every t*lambda at 0, where the Mexican hat
    # is exactly 0, so every L1 normalizer is 0
    config = _json(tmp_path / "huge.json", {"kernel_lambda_max": 1e300})
    assert cli.main(["wavelet-dump", "--mesh", str(run.data / "template.off"),
                     "--k", K, "--config", config, "--cache", str(run.cache),
                     "--out", str(tmp_path), "--vertex", "5"]) == 3


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


def test_config_that_is_not_an_object_exits_2(run, tmp_path):
    config = _json(tmp_path / "list.json", [1])
    assert _spectrum(run.data / "template.off", tmp_path / "cache",
                     tmp_path / "s", "--config", config) == 2
