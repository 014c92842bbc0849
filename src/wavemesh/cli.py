"""Batch orchestration: precompute, train, match, evaluate, plot data.

Subcommands: spectrum, frames, gen-data, train, eval, wavelet-dump,
mesh-info. A single JSON experiment config feeds every command; CLI flags
override config keys and the merged effective config is echoed into the
output directory; `eval` starts from the experiment saved in its checkpoint.
Exit codes: 0 success, 1 usage, 2 validation, 3 numerical failure, 4 I/O or
cache problems.

Cache layout: the cache directory holds one SPEC1 file per mesh and
direction, `{mesh stem}.{key[:16]}.spec`, and one FBK1 filter bank per mesh
and kernel, `{mesh stem}.{key[:16]}.fbk`. A key is a digest of everything
the file was computed from: for a spectrum the mesh content, alpha, theta,
the clamped k and curvature_radius; for a bank its spectra's keys, the
resolved lambda_max, scales and tighten. A changed input is therefore a
different file name, i.e. a miss, and the full key stored in each file is
checked again on read. Nothing is evicted. Caches written before this
layout (named `{stem}.{alpha}.{direction}.spec`) are never read, so
`spectrum` must run once more on every mesh.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import corresp, network, synth, wavelets
from .containers import read_container, write_container
from .curvature import estimate_frames
from .errors import (
    CacheError,
    ConfigInvalid,
    CorruptCache,
    MissingCache,
    NumericalError,
    ValidationError,
)
from .mesh import load_mesh
from .operators import AnisoConfig, assemble_albo
from .spectrum import Spectrum, clamp_k, solve_eigs

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


@dataclass
class ExperimentConfig:
    """Merged experiment settings; unknown keys in the JSON are rejected."""

    dataset: str = None
    mesh: str = None
    k: int = 200
    alpha: float = 50.0
    directions: int = 4
    scales: int = 4
    tighten: bool = False
    encoder_hidden: int = 64
    feature_dim: int = 128
    conv_layers: int = 4
    perturb: bool = False
    curvature_radius: float = 0.0
    kernel_lambda_max: float = None
    epochs: int = None
    lr: float = 0.001
    weight_decay: float = 0.0001
    seed: int = 0
    descriptor: str = "features"
    radii: tuple = (0.0, 0.25, 0.0025)
    float32: bool = False
    out: str = "out"
    cache: str = None

    @classmethod
    def load(cls, path=None, overrides=None, base=None):
        """Merge, each over the one before: `base` (a checkpoint's saved
        experiment), the JSON file at `path`, and the non-None overrides."""
        data = dict(base or {})
        if path is not None:
            with open(path) as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise ConfigInvalid(
                    f"config {path} must hold a JSON object, got "
                    f"{type(loaded).__name__}")
            data.update(loaded)
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = set(data) - set(fields)
        if unknown:
            raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            if not _has_type(value, fields[key]):
                raise ConfigInvalid(
                    f"config key {key!r} must be {fields[key].type.__name__}, "
                    f"got {value!r}")
        cfg = cls(**data)
        for key, value in (overrides or {}).items():
            if value is not None:
                setattr(cfg, key, value)
        cfg.validate()
        return cfg

    def validate(self):
        checks = [
            (self.k >= 1, "k must be >= 1"),
            (self.alpha >= 0, "alpha must be >= 0"),
            (self.directions in (1, 2, 4), "directions must be 1, 2 or 4"),
            (self.scales >= 1, "scales must be >= 1"),
            (self.encoder_hidden >= 1, "encoder_hidden must be >= 1"),
            (self.feature_dim >= 1, "feature_dim must be >= 1"),
            (self.conv_layers >= 1, "conv_layers must be >= 1"),
            (self.epochs is None or self.epochs >= 1, "epochs must be >= 1"),
            (self.lr > 0, "lr must be positive"),
            (self.weight_decay >= 0, "weight_decay must be >= 0"),
            (self.curvature_radius >= 0, "curvature_radius must be >= 0"),
            (self.kernel_lambda_max is None or self.kernel_lambda_max > 0,
             "kernel_lambda_max must be positive"),
            (self.descriptor in ("features", "softmax"), "bad descriptor mode"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigInvalid(msg)
        r = tuple(self.radii)
        if len(r) != 3 or r[2] <= 0 or r[1] < r[0] or r[0] < 0:
            raise ConfigInvalid(f"bad radii spec {self.radii!r}")
        self.radii = r

    @property
    def effective_epochs(self):
        if self.epochs is not None:
            return self.epochs
        return 50 if self.perturb else 200

    def radii_array(self):
        start, stop, step = self.radii
        return np.arange(start, stop + 0.5 * step, step)

    def cache_dir(self):
        return Path(self.cache) if self.cache else Path(self.out) / "cache"

    def echo(self, out_dir):
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = dataclasses.asdict(self)
        payload["epochs"] = self.effective_epochs
        with open(out_dir / "config.echo.json", "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _has_type(value, field):
    """Whether a JSON value fits an ExperimentConfig field: ints and floats
    both pass as a float, a bool passes only as a bool, and None only where
    it is the default."""
    if value is None:
        return field.default is None
    if field.type is float:
        return _is_number(value)
    if field.type is int:
        return _is_number(value) and isinstance(value, int)
    if field.type is tuple:
        return isinstance(value, (list, tuple)) and all(map(_is_number, value))
    return isinstance(value, field.type)


# --- spectra and filter-bank caching -------------------------------------------


def _cache_key(*parts):
    """SHA-256 hex digest of the parts' reprs; every cache key comes from here."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _cache_path(cache_dir, mesh_path, key, suffix):
    return Path(cache_dir) / f"{Path(mesh_path).stem}.{key[:16]}.{suffix}"


def _read_cache(path, kind, key):
    """(arrays, meta) of the cache file at path when its stored key is `key`,
    else None. A corrupt file counts as a miss and is reported."""
    if not Path(path).exists():
        return None
    try:
        arrays, meta = read_container(path, kind)
    except CorruptCache as exc:
        print(f"warning: {exc}; regenerating", file=sys.stderr)
        return None
    if not meta or meta.get("key") != key:
        return None
    return arrays, meta


def _load_spectrum(path, key):
    cached = _read_cache(path, "SPEC1", key)
    if cached is None:
        return None
    arrays, meta = cached
    vals = arrays["eigenvalues"]
    return Spectrum(eigenvalues=vals, eigenvectors=arrays["eigenvectors"],
                    mass=arrays["mass"], k=len(vals), provenance=meta)


def _frames_for(mesh, cfg):
    radius = cfg.curvature_radius * mesh.bbox_diagonal \
        if cfg.curvature_radius else None
    return estimate_frames(mesh, radius=radius)


def load_spectra(mesh, cfg, cache_dir, mesh_path, solve=False):
    """Per-direction spectra from the SPEC1 cache. A miss is solved and
    written when `solve` is set, and raises MissingCache otherwise."""
    k = clamp_k(cfg.k, mesh.n_vertices)
    aniso = AnisoConfig(alpha=cfg.alpha, theta=0.0, directions=cfg.directions)
    mesh_hash = mesh.content_hash()
    frames = None
    spectra = []
    for m, theta in enumerate(aniso.angles()):
        # float() so that a JSON 50 and a flag's 50.0 give one key
        key = _cache_key("SPEC1", mesh_hash, float(cfg.alpha), theta, k,
                         float(cfg.curvature_radius))
        path = _cache_path(cache_dir, mesh_path, key, "spec")
        spec = _load_spectrum(path, key)
        status = "cached"
        if spec is None:
            if not solve:
                raise MissingCache(
                    f"spectrum cache {path} missing or stale; run the "
                    f"spectrum command first")
            if frames is None:
                frames = _frames_for(mesh, cfg)
            ops = assemble_albo(mesh, frames, aniso.with_theta(theta))
            spec = solve_eigs(ops, k, provenance={
                "key": key, "alpha": cfg.alpha, "theta": theta, "k": k})
            Path(cache_dir).mkdir(parents=True, exist_ok=True)
            write_container(path, "SPEC1", {
                "eigenvalues": spec.eigenvalues,
                "eigenvectors": spec.eigenvectors,
                "mass": spec.mass,
            }, meta=spec.provenance)
            status = "computed"
        if solve:
            print(f"direction {m}: {status} ({path})")
        spectra.append(spec)
    return spectra


def build_bank(spectra, cfg, cache_dir, mesh_path):
    """The filter bank of `spectra`, from the FBK1 cache or built and cached.

    The kernel scales come from cfg.kernel_lambda_max when set (training
    pins them so every mesh is filtered with the same scales); otherwise
    from this mesh's own spectra."""
    lambda_max = cfg.kernel_lambda_max or max(s.lambda_max for s in spectra)
    kernel = wavelets.KernelSpec.mexican_hat(lambda_max, cfg.scales,
                                             tighten=cfg.tighten)
    key = _cache_key("FBK1", *(s.provenance["key"] for s in spectra),
                     float(lambda_max), cfg.scales, bool(cfg.tighten))
    path = _cache_path(cache_dir, mesh_path, key, "fbk")
    cached = _read_cache(path, "FBK1", key)
    if cached is not None:
        arrays, _ = cached
        return wavelets.FilterBank(
            spectra=list(spectra), kernel=kernel,
            responses=arrays["responses"],
            scaling_responses=arrays["scaling_responses"],
            l1_normalizers=arrays["l1_normalizers"],
            frame_bounds=arrays["frame_bounds"],
            tighten=bool(cfg.tighten))
    bank = wavelets.build_filterbank(spectra, kernel)
    Path(cache_dir).mkdir(parents=True, exist_ok=True)
    write_container(path, "FBK1", {
        "responses": bank.responses,
        "scaling_responses": bank.scaling_responses,
        "l1_normalizers": bank.l1_normalizers,
        "frame_bounds": bank.frame_bounds,
        "scales": np.asarray(kernel.scales),
    }, meta={"key": key, "tighten": bool(cfg.tighten), "scales": cfg.scales})
    return bank


# --- checkpoints ---------------------------------------------------------------


def save_checkpoint(path, model, cfg):
    arrays = {f"param:{k}": v for k, v in model.params.items()}
    for n, perm in sorted(model.perms.items()):
        arrays[f"perm:{n}"] = perm.astype(np.int64)
    meta = {
        "model": {
            "n_classes": model.config.n_classes,
            "point_dim": model.config.point_dim,
            "encoder_dims": list(model.config.encoder_dims),
            "conv_layers": model.config.conv_layers,
            "directions": model.config.directions,
            "scales": model.config.scales,
            "perturb": model.config.perturb,
            "seed": model.config.seed,
        },
        "experiment": dataclasses.asdict(cfg),
    }
    write_container(path, "CKPT1", arrays, meta=meta)


def load_checkpoint(path):
    arrays, meta = read_container(path, "CKPT1")
    if meta is None or "model" not in meta:
        raise CorruptCache(f"{path}: checkpoint missing model metadata")
    mc = meta["model"]
    config = network.ModelConfig(
        n_classes=mc["n_classes"], point_dim=mc["point_dim"],
        encoder_dims=tuple(mc["encoder_dims"]), conv_layers=mc["conv_layers"],
        directions=mc["directions"], scales=mc["scales"],
        perturb=mc["perturb"], seed=mc["seed"])
    params = {k[len("param:"):]: v for k, v in arrays.items()
              if k.startswith("param:")}
    perms = {int(k.split(":", 1)[1]): v for k, v in arrays.items()
             if k.startswith("perm:")}
    for n, perm in perms.items():
        if not np.array_equal(np.sort(perm), np.arange(n)):
            raise CorruptCache(
                f"{path}: perm:{n} is not a permutation of range({n})")
    model = network.Model(config, params, perms)
    return model, meta.get("experiment", {})


# --- training / evaluation drivers ----------------------------------------------


def write_history_csv(path, history):
    with open(path, "w") as fh:
        fh.write("epoch,loss,accuracy\n")
        for epoch, loss, acc in history:
            fh.write(f"{epoch},{loss!r},{acc!r}\n")


def run_training(cfg, manifest_path, verbose=False):
    manifest = synth.load_manifest(manifest_path)
    root = Path(manifest_path).parent
    cache_dir = cfg.cache_dir()
    template = load_mesh(root / manifest["template"]["mesh"])

    loaded = []
    for entry in manifest["training"]:
        mesh = load_mesh(root / entry["mesh"])
        labels = synth.read_indices(root / entry["labels"])
        if labels.min() < 0 or labels.max() >= template.n_vertices:
            raise ValidationError(
                f"labels in {entry['labels']} outside the template")
        spectra = load_spectra(mesh, cfg, cache_dir, root / entry["mesh"])
        loaded.append((entry, mesh, labels, spectra))

    if cfg.kernel_lambda_max is None:
        # pin the wavelet scales to the training spectra so evaluation
        # meshes (other poses, other discretizations) get identical filters
        cfg.kernel_lambda_max = max(
            s.lambda_max for _, _, _, spectra in loaded for s in spectra)

    items = []
    dtype = np.float32 if cfg.float32 else np.float64
    for entry, mesh, labels, spectra in loaded:
        bank = build_bank(spectra, cfg, cache_dir, root / entry["mesh"])
        items.append(network.TrainItem(
            coords=mesh.vertices.astype(dtype), labels=labels, bank=bank,
            name=entry["mesh"]))

    model_config = network.ModelConfig(
        n_classes=template.n_vertices,
        encoder_dims=(cfg.encoder_hidden, cfg.feature_dim),
        conv_layers=cfg.conv_layers, directions=cfg.directions,
        scales=cfg.scales, perturb=cfg.perturb, seed=cfg.seed)
    model = network.Model.initialize(
        model_config, items[0].coords.shape[0], dtype=dtype)
    if verbose:
        print(f"training on {len(items)} shapes, "
              f"{model.parameter_count} parameters, "
              f"{cfg.effective_epochs} epochs")
    history = network.train(model, items, epochs=cfg.effective_epochs,
                            lr=cfg.lr, weight_decay=cfg.weight_decay)
    return model, history


def evaluate_pair(model, cfg, source_mesh, target_mesh, gt, banks):
    source_bank, target_bank = banks
    desc_s = network.descriptors(model, source_mesh.vertices, source_bank,
                                 mode=cfg.descriptor)
    desc_t = network.descriptors(model, target_mesh.vertices, target_bank,
                                 mode=cfg.descriptor)
    corr = corresp.match_nn(desc_s, desc_t)
    return corresp.evaluate(corr, gt, target_mesh, radii=cfg.radii_array())


def write_cge_csv(path, cge):
    with open(path, "w") as fh:
        fh.write("r,fraction\n")
        for r, frac in cge:
            fh.write(f"{float(r)!r},{float(frac)!r}\n")


def run_evaluation(model, cfg, manifest_path, out_dir, verbose=False):
    manifest = synth.load_manifest(manifest_path)
    root = Path(manifest_path).parent
    cache_dir = cfg.cache_dir()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = []
    pooled_errors = []
    radii = cfg.radii_array()
    for i, pair in enumerate(manifest["pairs"]):
        source = load_mesh(root / pair["source"])
        target = load_mesh(root / pair["target"])
        gt = synth.read_indices(root / pair["gt"])
        banks = []
        for mesh, rel in ((source, pair["source"]), (target, pair["target"])):
            spectra = load_spectra(mesh, cfg, cache_dir, root / rel)
            banks.append(build_bank(spectra, cfg, cache_dir, root / rel))
        result = evaluate_pair(model, cfg, source, target, gt, banks)
        results.append((pair, result))
        pooled_errors.append(result.geodesic_errors)
        write_cge_csv(out_dir / f"cge_pair{i}.csv", result.cge)
        if verbose:
            print(f"pair {pair['source']} -> {pair['target']}: "
                  f"AGEx100 = {result.average_geodesic_error:.4f}")

    with open(out_dir / "pairs.csv", "w") as fh:
        fh.write("source_mesh,target_mesh,age_x100\n")
        for pair, result in results:
            fh.write(f"{pair['source']},{pair['target']},"
                     f"{result.average_geodesic_error!r}\n")

    pooled = np.concatenate(pooled_errors)
    fractions = (pooled[None, :] <= radii[:, None]).mean(axis=1)
    write_cge_csv(out_dir / "cge_pooled.csv", np.stack([radii, fractions], axis=1))
    mean_age = float(np.mean([r.average_geodesic_error for _, r in results]))
    print(f"mean AGEx100 over {len(results)} pairs: {mean_age:.6f}")
    return results


# --- subcommands ------------------------------------------------------------------


def cmd_spectrum(args):
    cfg = _config_from_args(args, need_mesh=True)
    mesh = load_mesh(cfg.mesh)
    cfg.echo(cfg.out)
    load_spectra(mesh, cfg, cfg.cache_dir(), cfg.mesh, solve=True)
    return EXIT_OK


def cmd_frames(args):
    cfg = _config_from_args(args, need_mesh=True)
    mesh = load_mesh(cfg.mesh)
    cfg.echo(cfg.out)
    frames = _frames_for(mesh, cfg)
    out = Path(cfg.out) / f"{Path(cfg.mesh).stem}.frames.csv"
    with open(out, "w") as fh:
        fh.write("vertex,k_min,k_max,dir_x,dir_y,dir_z,umbilic\n")
        for i in range(frames.n_vertices):
            d = frames.dir_max[i]
            fh.write(f"{i},{float(frames.k_min[i])!r},{float(frames.k_max[i])!r},"
                     f"{float(d[0])!r},{float(d[1])!r},{float(d[2])!r},"
                     f"{int(frames.umbilic[i])}\n")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_gen_data(args):
    if args.config is None:
        raise ConfigInvalid("gen-data requires --config with a dataset spec")
    with open(args.config) as fh:
        raw = json.load(fh)
    known = {f.name for f in dataclasses.fields(synth.DatasetConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigInvalid(f"unknown dataset config keys: {sorted(unknown)}")
    if "deformations" in raw:
        raw["deformations"] = tuple(tuple(d) for d in raw["deformations"])
    dconfig = synth.DatasetConfig(**raw)
    out = args.out or "out"
    manifest = synth.make_dataset(dconfig, out)
    print(f"wrote {len(manifest['training'])} training meshes and "
          f"{len(manifest['pairs'])} pairs to {out}")
    return EXIT_OK


def cmd_train(args):
    cfg = _config_from_args(args, need_dataset=True)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    model, history = run_training(cfg, cfg.dataset, verbose=True)
    cfg.echo(out)  # after training so the resolved kernel scales are echoed
    save_checkpoint(out / "checkpoint.ckpt", model, cfg)
    write_history_csv(out / "history.csv", history)
    print(f"final loss {history[-1][1]:.6f}, accuracy {history[-1][2]:.4f}")
    return EXIT_OK


def cmd_eval(args):
    if args.checkpoint is None:
        raise ConfigInvalid("eval requires --checkpoint")
    model, exp = load_checkpoint(args.checkpoint)
    cfg = _config_from_args(args, need_dataset=True, base=exp)
    # fail before any spectrum is loaded or bank built for a grid the
    # model's mixing weights cannot use
    grid = (model.config.directions, model.config.scales)
    if (cfg.directions, cfg.scales) != grid:
        raise ConfigInvalid(
            f"the model's mixing weights form a {grid[0]} x {grid[1]} grid, "
            f"the filter bank has {cfg.directions} directions x "
            f"{cfg.scales} scales")
    cfg.echo(cfg.out)
    run_evaluation(model, cfg, cfg.dataset, cfg.out, verbose=True)
    return EXIT_OK


def cmd_wavelet_dump(args):
    cfg = _config_from_args(args, need_mesh=True)
    mesh = load_mesh(cfg.mesh)
    cfg.echo(cfg.out)
    cache_dir = cfg.cache_dir()
    spectra = load_spectra(mesh, cfg, cache_dir, cfg.mesh)
    bank = build_bank(spectra, cfg, cache_dir, cfg.mesh)
    values = wavelets.wavelet_at(bank, args.direction, args.scale, args.vertex)
    out = Path(cfg.out) / (f"wavelet_{Path(cfg.mesh).stem}"
                           f"_v{args.vertex}_m{args.direction}_j{args.scale}.csv")
    with open(out, "w") as fh:
        fh.write("vertex,value\n")
        for i, val in enumerate(values):
            fh.write(f"{i},{float(val)!r}\n")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_mesh_info(args):
    cfg = _config_from_args(args, need_mesh=True)
    mesh = load_mesh(cfg.mesh)
    info = {
        "vertices": mesh.n_vertices,
        "faces": mesh.n_faces,
        "edges": mesh.n_edges,
        "boundary_edges": int(mesh.boundary_edges.shape[0]),
        "closed": bool(mesh.is_closed),
        "total_area": mesh.total_area,
        "bbox_diagonal": mesh.bbox_diagonal,
        "euler_characteristic": mesh.n_vertices - mesh.n_edges + mesh.n_faces,
    }
    print(json.dumps(info, indent=2))
    return EXIT_OK


# --- argument plumbing ---------------------------------------------------------


def _parse_radii(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigInvalid(f"radii must be start:stop:step, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigInvalid(f"malformed radii spec {text!r}") from None


def _overrides_from_args(args):
    overrides = {
        "mesh": getattr(args, "mesh", None),
        "dataset": getattr(args, "dataset", None),
        "k": getattr(args, "k", None),
        "alpha": getattr(args, "alpha", None),
        "directions": getattr(args, "directions", None),
        "scales": getattr(args, "scales", None),
        "epochs": getattr(args, "epochs", None),
        "seed": getattr(args, "seed", None),
        "out": getattr(args, "out", None),
        "cache": getattr(args, "cache", None),
    }
    if getattr(args, "perturb", False):
        overrides["perturb"] = True
    if getattr(args, "radii", None) is not None:
        overrides["radii"] = _parse_radii(args.radii)
    return overrides


def _config_from_args(args, need_mesh=False, need_dataset=False, base=None):
    cfg = ExperimentConfig.load(getattr(args, "config", None),
                                _overrides_from_args(args), base=base)
    if need_mesh and cfg.mesh is None:
        raise ConfigInvalid("this command requires --mesh (or config key)")
    if need_dataset and cfg.dataset is None:
        raise ConfigInvalid("this command requires --dataset (or config key)")
    return cfg


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wavemesh",
        description="anisotropic spectral wavelet toolkit for triangle meshes")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mesh=False, dataset=False):
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--cache")
        p.add_argument("--k", type=int)
        p.add_argument("--alpha", type=float)
        p.add_argument("--directions", type=int)
        p.add_argument("--scales", type=int)
        p.add_argument("--perturb", action="store_true", default=False)
        p.add_argument("--epochs", type=int)
        p.add_argument("--radii", help="start:stop:step")
        if mesh:
            p.add_argument("--mesh")
        if dataset:
            p.add_argument("--dataset")

    p = sub.add_parser("spectrum", help="precompute per-direction eigenpairs")
    common(p, mesh=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("frames", help="principal curvature frames CSV")
    common(p, mesh=True)
    p.set_defaults(func=cmd_frames)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--config", required=False)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the correspondence model")
    common(p, dataset=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on held-out pairs")
    common(p, dataset=True)
    p.add_argument("--checkpoint")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("wavelet-dump", help="dump one localized wavelet as CSV")
    common(p, mesh=True)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--direction", type=int, default=0)
    p.add_argument("--scale", type=int, default=0)
    p.set_defaults(func=cmd_wavelet_dump)

    p = sub.add_parser("mesh-info", help="validate a mesh and print stats")
    common(p, mesh=True)
    p.set_defaults(func=cmd_mesh_info)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValidationError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (CacheError, OSError, json.JSONDecodeError) as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
