"""Batch orchestration: precompute, train, match, evaluate, plot data.

Each subcommand takes only the flags it reads (`_COMMANDS`):

    spectrum      --config --mesh --k --alpha --directions --cache --out
    frames        --mesh --out
    gen-data      --config --out
    train         --config --dataset --k --alpha --directions --scales
                  --perturb --epochs --seed --cache --out
    eval          --dataset --checkpoint --cache --out --radii
    wavelet-dump  spectrum's, and --scales --vertex --direction --scale
    mesh-info     --mesh

A gen-data config is a `synth.DatasetConfig`; any other may hold every
`ExperimentConfig` key, so one JSON feeds each command. Flags override its
keys, and the merged config is echoed into the output directory. A
checkpoint holds one experiment, the one `train` ran with the kernel
scales it pinned and its dataset, cache and output paths made absolute,
so that it evaluates from any working directory; the network's shape is
derived from it. `eval` reads all else from there, so a model is scored
under the operator, filter bank and network it was trained with. Without
`--dataset` or `--cache` it reads the training run's (its cache is
`<saved out>/cache` unless the experiment names one); without `--out` it
writes under `<checkpoint directory>/eval`, never into the training run's
own files. Its scores are three kinds of CSV file: `pairs.csv`, one row
`source_mesh,target_mesh,age_x100` per manifest pair, whose AGE x100 is
the mean geodesic error normalized by sqrt(target area), times 100; per
pair i, `cge_pair{i}.csv`; and `cge_pooled.csv`, the curve over every
pair's source vertices at once. Each curve is `r,fraction` over the radii
of `--radii` (start:stop:step, stop included).
`train` makes float32 parameters, and the network runs in its parameters'
dtype, so `eval` runs a float64 checkpoint of earlier versions in float64.
Every filter bank sums its L1 normalizers in float32
(`wavelets.build_filterbank`), whichever network reads it; spectra,
geodesic rows, banks' stored arrays, their cache files and the matching of
descriptors stay float64.
Exit codes: 0 success, 1 usage, 2 validation, 3 numerical failure, 4 I/O or
cache problems.

Cache layout: the cache directory holds one SPEC1 file per mesh and
direction, one FBK1 filter bank per mesh and kernel, and one GEO1 file of
ground-truth geodesic rows per evaluated target mesh and ground truth.
Every command gets or builds each file it needs (so `spectrum` is an
optional precompute) through one path, `_cached`: a key is a digest of
everything the file was computed from, the file is named (`_cache_path`)
`{mesh stem}.{key[:16]}.{spec,fbk,geo}`, and its metadata is {"key": key},
checked again on read. A SPEC1 file also stores, under "provenance", how
its spectrum was solved (`Spectrum.provenance`: the solver, "dense" or
"lanczos", the largest residual, the orthonormality error and the inertia
counts n_below_mu_minus and n_below_mu_plus, which both solvers record, and
for a Lanczos solve ncv, restarts and operator_applications), which
`spectrum` reports with the file's path, one "stored" line per direction
in direction order; a direction it solves gets its "computed" line just
before its "stored" one. When n_below_mu_plus exceeds K, K
splits a repeated eigenvalue, whose returned copies the filter banks drop
(`Spectrum.n_whole`), and the line that reports a solve, as the one that
reports a stored spectrum, is followed by a warning on stderr. The keys
cover, for a spectrum, the mesh content, alpha, theta (m*pi/M as a Python
float) and the clamped k; for a bank, its spectra's keys, the resolved
lambda_max and scales and `_BANK_RULE`, which names how banks are built, so
that no bank of earlier versions is served; for geodesic rows, the target
mesh content, the SHA-256 of the sorted distinct gt vertices and the
geodesic method (`corresp.GEODESIC_METHOD`). A changed input is therefore a
different file name, i.e. a miss; a corrupt file is a miss too, reported
and rebuilt. Nothing is evicted; a GEO1 file holds |unique gt| x N_target x
8 bytes (88 MiB at N = 3402 with every vertex a gt vertex).

A GEO1 file is never loaded whole. On a miss its rows are computed
`corresp.GEO_BLOCK` sources at a time and each block is written as it is
made. On a hit, and after that write, `load_geodesics` reads only what
`corresp.evaluate` scores: per source vertex, the one entry that holds the
distance from its gt vertex to its predicted vertex. So `eval` holds
O(len(gt)) geodesic distances on a hit and O(GEO_BLOCK x N_target) on a
miss, and matching O(MATCH_BLOCK x N_target) scores, whatever the number of
gt vertices.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import corresp, network, synth, wavelets
from .containers import RowBlocks, read_container, write_container
from .curvature import estimate_frames
from .errors import (
    CacheError,
    ConfigInvalid,
    CorruptCache,
    ManifestInvalid,
    NumericalError,
    ValidationError,
)
from .mesh import chunked_rows, load_mesh
from .operators import assemble_albo, direction_angles
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
    encoder_hidden: int = 64
    feature_dim: int = 128
    conv_layers: int = 4
    perturb: bool = False
    kernel_lambda_max: float = None
    epochs: int = None
    lr: float = 0.001
    weight_decay: float = 0.0001
    seed: int = 0
    radii: tuple[float, float, float] = (0.0, 0.25, 0.0025)
    out: str = "out"
    cache: str = None

    @classmethod
    def load(cls, path=None, overrides=None, base=None):
        """Merge, each over the one before: `base` (a checkpoint's saved
        experiment), the JSON file at `path`, and the non-None overrides."""
        data = dict(_checked(base or {}, cls, "saved experiment"))
        if path is not None:
            data.update(_checked(_load_json(path, "config"), cls,
                                 f"config {path}"))
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
            (self.kernel_lambda_max is None or self.kernel_lambda_max > 0,
             "kernel_lambda_max must be positive"),
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

    def model_config(self, n_classes):
        """The network this experiment trains, with `n_classes` classes."""
        return network.ModelConfig(
            n_classes=n_classes,
            encoder_dims=(self.encoder_hidden, self.feature_dim),
            conv_layers=self.conv_layers, directions=self.directions,
            scales=self.scales, perturb=self.perturb, seed=self.seed)

    def cache_dir(self):
        return Path(self.cache) if self.cache else Path(self.out) / "cache"

    def echo(self, out_dir):
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = dataclasses.asdict(self)
        payload["epochs"] = self.effective_epochs
        with open(out_dir / "config.echo.json", "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)


def _load_json(path, what):
    """The JSON value in the file at `path`; a file that is not JSON raises
    ConfigInvalid naming `what` and the path."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"{what} {path} is not JSON: {exc}") from None


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _has_type(value, hint):
    """Whether a JSON value fits a type hint: ints and floats both pass as
    a float, a bool only as a bool, and a tuple hint takes a list whose
    items fit its item hints (`tuple[X, ...]`: any number of X)."""
    origin, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    if origin is float:
        return _is_number(value)
    if origin is int:
        return _is_number(value) and isinstance(value, int)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if args[1:] == (Ellipsis,):
            args = args[:1] * len(value)
        return len(value) == len(args) and all(map(_has_type, value, args))
    return isinstance(value, origin)


def _checked(data, cls, what):
    """`data`, once it is a JSON object whose keys are fields of the
    dataclass `cls` and whose values fit their types (None only where it
    is the default); raises ConfigInvalid otherwise."""
    if not isinstance(data, dict):
        raise ConfigInvalid(
            f"{what} must hold a JSON object, got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigInvalid(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in data.items():
        field = fields[key]
        if not (field.default is None if value is None
                else _has_type(value, field.type)):
            hint = field.type
            raise ConfigInvalid(
                f"{what} key {key!r} must be "
                f"{hint.__name__ if isinstance(hint, type) else hint}, "
                f"got {value!r}")
    return data


# --- the cache of spectra, filter banks and geodesic rows ----------------------

_SUFFIXES = {"SPEC1": "spec", "FBK1": "fbk", "GEO1": "geo"}
_BANK_ARRAYS = ("responses", "l1_normalizers", "frame_bounds")
_BANK_RULE = "float32 L1 pass over whole eigenspaces"


def _cache_key(*parts):
    """SHA-256 hex digest of the parts' reprs; every cache key comes from here."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _read_cache(path, kind, key, pick=None):
    """(arrays, metadata) of the `kind` file at `path` when it stores
    `key`, else None. A corrupt file, or one whose metadata is not a JSON
    object, counts as a miss and is reported. The arrays that `pick`
    names come back as the elements it picks (see `read_container`); a
    pick outside its array raises IndexError."""
    if not path.exists():
        return None
    try:
        arrays, meta = read_container(path, kind, pick)
        if not isinstance(meta, dict):
            raise CorruptCache(f"{path}: metadata is not a JSON object")
    except CorruptCache as exc:
        print(f"warning: {exc}; regenerating", file=sys.stderr)
        return None
    return (arrays, meta) if meta.get("key") == key else None


def _load_spectrum(path, key):
    """`_read_cache` of a SPEC1 file, under a name of its own so that every
    spectrum lookup is one call of it (None on a miss)."""
    return _read_cache(path, "SPEC1", key)


def _cache_path(kind, key, cache_dir, mesh_path):
    """Where the `kind` cache file of `mesh_path` under `key` lives."""
    return (Path(cache_dir)
            / f"{Path(mesh_path).stem}.{key[:16]}.{_SUFFIXES[kind]}")


def _check_cache_dir(cache_dir):
    """Raise NotADirectoryError unless `cache_dir` is a directory or can
    be made one: the nearest of it and its ancestors that exists must be a
    directory. Creates nothing, so a miss fails before its build runs."""
    path = Path(cache_dir)
    while not path.exists() and path != path.parent:
        path = path.parent
    if not path.is_dir():
        raise NotADirectoryError(
            f"cache {cache_dir} cannot be a directory: {path} is not one")


def _cached(kind, parts, cache_dir, mesh_path, build, pick=None):
    """(arrays, meta, path, hit) of the `kind` cache file keyed by `parts`.

    The arrays and metadata are read from the file when it holds this key;
    otherwise `build()` returns (arrays, extra metadata), and they are
    written there with meta {"key": key, **extra}. This is the only writer
    of SPEC1, FBK1 and GEO1 files; a RowBlocks from `build()` is written
    block by block. The arrays that `pick` names come back as the elements
    it picks (see `read_container`), read from the file after a write as
    on a hit."""
    key = _cache_key(kind, *parts)
    path = _cache_path(kind, key, cache_dir, mesh_path)
    if kind == "SPEC1":
        found = _load_spectrum(path, key)
    else:
        found = _read_cache(path, kind, key, pick)
    hit = found is not None
    if hit:
        arrays, meta = found
    else:
        _check_cache_dir(cache_dir)
        arrays, extra = build()
        meta = {"key": key, **extra}
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        write_container(path, kind, arrays, meta=meta)
        if pick is not None:
            arrays = read_container(path, kind, pick)[0]
    return arrays, meta, path, hit


def _listed(provenance):
    """The ", name value" of each provenance entry, sorted by name."""
    return "".join(f", {name} {value:.3g}" if isinstance(value, float)
                   else f", {name} {value}"
                   for name, value in sorted(provenance.items()))


def _warn_if_split(m, spectrum):
    """Warn on stderr when the spectrum's K cuts through a repeated
    eigenvalue (`Spectrum.n_whole`): the filter banks drop its copies."""
    counts = spectrum.provenance
    if spectrum.n_whole < spectrum.k:
        print(f"warning: direction {m}: K {spectrum.k} splits a repeated "
              f"eigenvalue (n_below_mu_minus {counts['n_below_mu_minus']}, "
              f"n_below_mu_plus {counts['n_below_mu_plus']}); the filter "
              f"bank drops its returned copies", file=sys.stderr)


def load_spectra(mesh, cfg, cache_dir, mesh_path):
    """Per-direction spectra from the SPEC1 cache, yielded one direction at
    a time, so that a caller that reads them one at a time holds one of
    them while the next is read or solved; `build_bank` takes them all. A
    miss is solved, written and reported in one line, followed by
    `_warn_if_split`'s warning when K splits an eigenspace; a hit is
    silent."""
    k = clamp_k(cfg.k, mesh.n_vertices)
    mesh_hash = mesh.content_hash()
    frames = []  # estimated at the first miss, shared by every direction
    for m, theta in enumerate(direction_angles(cfg.directions)):
        def build():
            if not frames:
                frames.append(estimate_frames(mesh))
            spec = solve_eigs(assemble_albo(mesh, frames[0], cfg.alpha, theta),
                              k)
            return ({"eigenvalues": spec.eigenvalues,
                     "eigenvectors": spec.eigenvectors, "mass": spec.mass},
                    {"provenance": spec.provenance})

        # float() so that a JSON 50 and a flag's 50.0 give one key
        arrays, meta, path, hit = _cached(
            "SPEC1", (mesh_hash, float(cfg.alpha), theta, k),
            cache_dir, mesh_path, build)
        solved = meta["provenance"]
        spectrum = Spectrum(
            eigenvalues=arrays["eigenvalues"],
            eigenvectors=arrays["eigenvectors"], mass=arrays["mass"],
            provenance={**solved, "key": meta["key"]})
        if not hit:
            print(f"direction {m}: computed ({path}){_listed(solved)}")
            _warn_if_split(m, spectrum)
        yield spectrum


def build_bank(spectra, cfg, cache_dir, mesh_path):
    """The filter bank of `spectra` (one mesh's, in any iterable, such as
    `load_spectra`'s), from the FBK1 cache or built and cached.

    The kernel scales come from cfg.kernel_lambda_max when set (training
    pins them so every mesh is filtered with the same scales); otherwise
    from this mesh's own spectra. The L1 normalizers are summed in float32,
    for a network of either precision."""
    spectra = list(spectra)
    lambda_max = cfg.kernel_lambda_max or max(s.lambda_max for s in spectra)
    kernel = wavelets.KernelSpec.mexican_hat(lambda_max, cfg.scales)

    def build():
        bank = wavelets.build_filterbank(spectra, kernel, np.float32)
        return {name: getattr(bank, name) for name in _BANK_ARRAYS}, {}

    arrays = _cached(
        "FBK1", (*(s.provenance["key"] for s in spectra), float(lambda_max),
                 cfg.scales, _BANK_RULE),
        cache_dir, mesh_path, build)[0]
    return wavelets.FilterBank(
        spectra=spectra, kernel=kernel,
        **{name: arrays[name] for name in _BANK_ARRAYS})


def _bank_loader(mesh, cfg, cache_dir, mesh_path):
    """A zero-argument callable that loads `mesh`'s filter bank, as the
    network's forward takes it (`network.TrainItem`). It reads cfg when
    called, so a training shape's bank is built only once the kernel
    scales are pinned."""
    return lambda: build_bank(load_spectra(mesh, cfg, cache_dir, mesh_path),
                              cfg, cache_dir, mesh_path)


# --- checkpoints ---------------------------------------------------------------


def save_checkpoint(path, model, cfg):
    write_container(path, "CKPT1",
                    {f"param:{k}": v for k, v in model.params.items()},
                    meta={"experiment": dataclasses.asdict(cfg)})


def load_checkpoint(path):
    """(model, saved experiment) of a CKPT1 file. The model's config is
    the saved experiment's, with as many classes as the head bias has
    entries; a missing experiment or head bias, or parameters whose names
    and shapes that config does not imply, raise CorruptCache. The `model`
    entry and the `float32` key that earlier versions saved are not read."""
    arrays, meta = read_container(path, "CKPT1")
    if not isinstance(meta, dict) or "experiment" not in meta:
        raise CorruptCache(f"{path}: checkpoint missing its experiment")
    experiment = meta["experiment"]
    if isinstance(experiment, dict):  # the parameters carry the precision
        experiment.pop("float32", None)
    cfg = ExperimentConfig.load(base=experiment)
    params = {k[len("param:"):]: v for k, v in arrays.items()
              if k.startswith("param:")}
    if "head.b" not in params:
        raise CorruptCache(f"{path}: checkpoint has no head bias")
    config = cfg.model_config(params["head.b"].size)
    expected = network.param_shapes(config)
    wrong = sorted(set(params) ^ set(expected)) or [
        name for name, shape in expected.items()
        if params[name].shape != shape]
    if wrong:
        raise CorruptCache(
            f"{path}: parameters {wrong[:3]} do not fit the saved experiment")
    return network.Model(config, params), experiment


# --- training / evaluation drivers ----------------------------------------------


def write_csv(path, header, *columns):
    """Write `header` and then one comma-separated line per row of the
    columns. A NumPy column gives its cells as Python scalars through
    `chunked_rows`, so a float is written as its `repr` and reads back bit
    for bit; any other column is a list of strings, written unquoted."""
    cells = (chunked_rows(c) if isinstance(c, np.ndarray) else c
             for c in columns)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in zip(*cells))


def _read_labels(root, name, mesh_name, n_vertices, n_labels):
    """root/name's labels, checked to be one in [0, n_labels) per vertex."""
    labels = synth.read_indices(root / name)
    if (len(labels) != n_vertices or labels.min() < 0
            or labels.max() >= n_labels):
        raise ValidationError(
            f"{name} holds {len(labels)} labels, not one in [0, {n_labels}) "
            f"for each of the {n_vertices} vertices of {mesh_name}")
    return labels


def run_training(cfg, manifest_path):
    """Train a model on the manifest's training shapes; returns (model,
    history).

    At most one training shape's spectra and filter bank are in memory at
    a time. One pass checks every shape's labels and reads its spectra one
    direction at a time to pin cfg.kernel_lambda_max (when unset). Each
    step then loads its shape's bank through `load_spectra` and
    `build_bank`, which builds and caches it on an FBK1 miss at the shape's
    first step, and drops it once the forward has cast it
    (`network.TrainItem`); a SPEC1 file removed mid-run is solved again
    there.
    A manifest without training shapes raises ManifestInvalid before any
    mesh or spectrum is read."""
    manifest = synth.load_manifest(manifest_path)
    if not manifest["training"]:
        raise ManifestInvalid(f"{manifest_path}: no training shapes")
    root = Path(manifest_path).parent
    cache_dir = cfg.cache_dir()
    template = load_mesh(root / manifest["template"]["mesh"])

    items = []
    lambda_maxes = []
    for entry in manifest["training"]:
        path = root / entry["mesh"]
        mesh = load_mesh(path)
        labels = _read_labels(root, entry["labels"], entry["mesh"],
                              mesh.n_vertices, template.n_vertices)
        lambda_maxes.append(max(
            s.lambda_max for s in load_spectra(mesh, cfg, cache_dir, path)))
        items.append(network.TrainItem(
            coords=mesh.vertices, labels=labels,
            load_bank=_bank_loader(mesh, cfg, cache_dir, path),
            name=entry["mesh"]))

    if cfg.kernel_lambda_max is None:
        # pin the wavelet scales to the training spectra so evaluation
        # meshes (other poses, other discretizations) get identical filters
        cfg.kernel_lambda_max = max(lambda_maxes)

    model = network.Model.initialize(cfg.model_config(template.n_vertices),
                                     np.float32)
    print(f"training on {len(items)} shapes, "
          f"{model.parameter_count} parameters, "
          f"{cfg.effective_epochs} epochs")
    history = network.train(model, items, epochs=cfg.effective_epochs,
                            lr=cfg.lr, weight_decay=cfg.weight_decay)
    return model, history


def load_geodesics(target, gt, corr, cache_dir, mesh_path):
    """Per source vertex i, the geodesic distance on `target` from gt[i] to
    corr[i], as `corresp.evaluate` takes it: its one entry of the rows of
    np.unique(gt), picked from the GEO1 cache. A miss is computed block by
    block into the cache first; a target whose sources do not reach every
    vertex raises DisconnectedMesh before any cache directory or file is
    made. A map that does not fit the target raises ValueError or
    IndexError (`corresp.check_map`) before that."""
    corr, gt = corresp.check_map(corr, gt, target.n_vertices)
    sources, inverse = np.unique(gt, return_inverse=True)

    def build():
        rows = RowBlocks((sources.size, target.n_vertices), np.float64,
                         corresp.geodesic_blocks(target, sources))
        return {"rows": rows}, {}

    arrays = _cached(
        "GEO1", (target.content_hash(),
                 hashlib.sha256(sources.tobytes()).hexdigest(),
                 corresp.GEODESIC_METHOD),
        cache_dir, mesh_path, build,
        pick={"rows": inverse * target.n_vertices + corr})[0]
    return arrays["rows"]


def run_evaluation(model, cfg, manifest_path, out_dir):
    """Match and score every pair of the manifest; writes one CGE curve
    per pair, `pairs.csv` and the pooled curve to `out_dir`. A manifest
    without pairs or with a bad gt file raises before anything is written."""
    manifest = synth.load_manifest(manifest_path)
    if not manifest["pairs"]:
        raise ManifestInvalid(f"{manifest_path}: no pairs to evaluate")
    root = Path(manifest_path).parent
    cache_dir = cfg.cache_dir()
    out_dir = Path(out_dir)
    meshes = {rel: load_mesh(root / rel) for rel in dict.fromkeys(
        p[end] for p in manifest["pairs"] for end in ("source", "target"))}
    gts = [_read_labels(root, p["gt"], p["source"],
                        meshes[p["source"]].n_vertices,
                        meshes[p["target"]].n_vertices)
           for p in manifest["pairs"]]
    out_dir.mkdir(parents=True, exist_ok=True)

    def describe(rel):
        return network.descriptors(model, meshes[rel].vertices, _bank_loader(
            meshes[rel], cfg, cache_dir, root / rel))

    ages = []
    pooled_errors = []
    radii = cfg.radii_array()
    source_descriptors = {}  # each distinct source is described once
    for i, (pair, gt) in enumerate(zip(manifest["pairs"], gts)):
        if pair["source"] not in source_descriptors:
            source_descriptors[pair["source"]] = describe(pair["source"])
        desc_t = describe(pair["target"])
        corr = corresp.match_nn(source_descriptors[pair["source"]], desc_t)
        # the geodesics are read (on a miss, computed first) only once the
        # target's descriptors are freed: holding a miss's row block next
        # to them raised the process's peak memory
        del desc_t
        target = meshes[pair["target"]]
        dist = load_geodesics(target, gt, corr, cache_dir,
                              root / pair["target"])
        result = corresp.evaluate(dist, target, radii)
        ages.append(result.average_geodesic_error)
        pooled_errors.append(result.geodesic_errors)
        write_csv(out_dir / f"cge_pair{i}.csv", "r,fraction", *result.cge.T)
        print(f"pair {pair['source']} -> {pair['target']}: "
              f"AGEx100 = {result.average_geodesic_error:.4f}")

    write_csv(out_dir / "pairs.csv", "source_mesh,target_mesh,age_x100",
              [pair["source"] for pair in manifest["pairs"]],
              [pair["target"] for pair in manifest["pairs"]], np.array(ages))
    write_csv(out_dir / "cge_pooled.csv", "r,fraction",
              *corresp.cge(np.concatenate(pooled_errors), radii).T)
    print(f"mean AGEx100 over {len(ages)} pairs: {np.mean(ages):.6f}")


# --- subcommands ------------------------------------------------------------------


def cmd_spectrum(args):
    cfg = _config_from_args(args, need_mesh=True)
    mesh = load_mesh(cfg.mesh)
    cfg.echo(cfg.out)
    cache = cfg.cache_dir()
    for m, s in enumerate(load_spectra(mesh, cfg, cache, cfg.mesh)):
        path = _cache_path("SPEC1", s.provenance["key"], cache, cfg.mesh)
        print(f"direction {m}: stored ({path}){_listed(s.provenance)}")
        _warn_if_split(m, s)
    return EXIT_OK


def cmd_frames(args):
    cfg = _config_from_args(args, need_mesh=True)
    mesh = load_mesh(cfg.mesh)
    cfg.echo(cfg.out)
    frames = estimate_frames(mesh)
    out = Path(cfg.out) / f"{Path(cfg.mesh).stem}.frames.csv"
    write_csv(out, "vertex,k_min,k_max,dir_x,dir_y,dir_z,umbilic",
              np.arange(frames.n_vertices), frames.k_min, frames.k_max,
              *frames.dir_max.T, frames.umbilic.astype(np.int64))
    print(f"wrote {out}")
    return EXIT_OK


def cmd_gen_data(args):
    if args.config is None:
        raise ConfigInvalid("gen-data requires --config with a dataset spec")
    raw = _checked(_load_json(args.config, "dataset config"),
                   synth.DatasetConfig, f"dataset config {args.config}")
    if "deformations" in raw:
        raw["deformations"] = tuple(map(tuple, raw["deformations"]))
    dconfig = synth.DatasetConfig(**raw)
    out = args.out or "out"
    manifest = synth.make_dataset(dconfig, out)
    print(f"wrote {len(manifest['training'])} training meshes and "
          f"{len(manifest['pairs'])} pairs to {out}")
    return EXIT_OK


def cmd_train(args):
    cfg = _config_from_args(args, need_dataset=True)
    # saved absolute, so that eval reads them from any working directory
    for key in ("dataset", "cache", "out"):
        if getattr(cfg, key) is not None:
            setattr(cfg, key, str(Path(getattr(cfg, key)).resolve()))
    out = Path(cfg.out)
    model, history = run_training(cfg, cfg.dataset)
    cfg.echo(out)  # after training so the resolved kernel scales are echoed
    save_checkpoint(out / "checkpoint.ckpt", model, cfg)
    write_csv(out / "history.csv", "epoch,loss,accuracy",
              *map(np.asarray, zip(*history)))
    print(f"final loss {history[-1][1]:.6f}, accuracy {history[-1][2]:.4f}")
    return EXIT_OK


def cmd_eval(args):
    if args.checkpoint is None:
        raise ConfigInvalid("eval requires --checkpoint")
    model, saved = load_checkpoint(args.checkpoint)
    cfg = _config_from_args(args, need_dataset=True, base=saved)
    # the cache resolves before --out's default replaces the training run's
    # out, so a run without a cache of its own still reads the training one's
    cfg.cache = str(cfg.cache_dir())
    if args.out is None:
        cfg.out = str(Path(args.checkpoint).parent / "eval")
    run_evaluation(model, cfg, cfg.dataset, cfg.out)
    cfg.echo(cfg.out)  # after evaluation, so a rejected manifest writes nothing
    return EXIT_OK


def cmd_wavelet_dump(args):
    cfg = _config_from_args(args, need_mesh=True)
    mesh = load_mesh(cfg.mesh)
    wavelets.check_indices((cfg.directions, cfg.scales, mesh.n_vertices),
                           args.direction, args.scale, args.vertex)
    cfg.echo(cfg.out)
    cache_dir = cfg.cache_dir()
    bank = build_bank(load_spectra(mesh, cfg, cache_dir, cfg.mesh), cfg,
                      cache_dir, cfg.mesh)
    values = wavelets.wavelet_at(bank, args.direction, args.scale, args.vertex)
    out = Path(cfg.out) / (f"wavelet_{Path(cfg.mesh).stem}"
                           f"_v{args.vertex}_m{args.direction}_j{args.scale}.csv")
    write_csv(out, "vertex,value", np.arange(len(values)), values)
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
    try:
        start, stop, step = map(float, text.split(":"))
    except ValueError:
        raise ConfigInvalid(
            f"radii must be start:stop:step, got {text!r}") from None
    return start, stop, step


def _config_from_args(args, need_mesh=False, need_dataset=False, base=None):
    overrides = {f.name: getattr(args, f.name, None)
                 for f in dataclasses.fields(ExperimentConfig)}
    if overrides["radii"] is not None:
        overrides["radii"] = _parse_radii(overrides["radii"])
    cfg = ExperimentConfig.load(getattr(args, "config", None), overrides,
                                base=base)
    if need_mesh and cfg.mesh is None:
        raise ConfigInvalid("this command requires --mesh (or config key)")
    if need_dataset and cfg.dataset is None:
        raise ConfigInvalid("this command requires --dataset (or config key)")
    return cfg


# Every flag once, by name, with its argparse keywords; each subcommand in
# _COMMANDS lists the names it reads
_FLAGS = {
    "config": {"help": "config JSON"}, "mesh": {}, "dataset": {},
    "checkpoint": {}, "cache": {}, "out": {},
    "radii": {"help": "start:stop:step"}, "k": {"type": int},
    "alpha": {"type": float}, "directions": {"type": int},
    "scales": {"type": int}, "epochs": {"type": int}, "seed": {"type": int},
    "perturb": {"action": "store_true", "default": None},
    "vertex": {"type": int, "required": True},
    "direction": {"type": int, "default": 0},
    "scale": {"type": int, "default": 0},
}

_COMMANDS = {
    "spectrum": (cmd_spectrum, "precompute per-direction eigenpairs (optional)",
                 "config mesh k alpha directions cache out"),
    "frames": (cmd_frames, "principal curvature frames CSV", "mesh out"),
    "gen-data": (cmd_gen_data, "generate a synthetic dataset", "config out"),
    "train": (cmd_train, "train the correspondence model",
              "config dataset k alpha directions scales perturb epochs seed "
              "cache out"),
    "eval": (cmd_eval, "evaluate a checkpoint on held-out pairs; --dataset "
             "and --cache default to the checkpoint's experiment, --out to "
             "<checkpoint directory>/eval",
             "dataset checkpoint cache out radii"),
    "wavelet-dump": (cmd_wavelet_dump, "dump one localized wavelet as CSV",
                     "config mesh k alpha directions scales cache out "
                     "vertex direction scale"),
    "mesh-info": (cmd_mesh_info, "validate a mesh and print stats", "mesh"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wavemesh",
        description="anisotropic spectral wavelet toolkit for triangle meshes")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary, description=summary)
        for name in flags.split():
            p.add_argument(f"--{name}", **_FLAGS[name])
        p.set_defaults(func=func)
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
    except (CacheError, OSError) as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
