"""Synthetic shapes with ground-truth correspondence.

Base generators (icosphere, bar, open cylinder) produce deterministic
vertex orderings. Deformations (bend, twist) keep the connectivity, so the
ground-truth map is the identity; midpoint subdivision produces a remeshed
variant whose new vertices map to the nearer (smaller-index) endpoint of
their edge.

Every base mesh is built from two NumPy primitives, not per-element loops.
The lattice quad split `_quad_split` triangulates the six sides of the bar
and the ring lattice of the cylinder. The 1-to-4 split `remesh` numbers
the midpoint of edge i (a row of `TriMesh.edges`) as n + i and finds it by
a binary search of the edge key lo * n + hi; the icosphere is the
icosahedron refined by `remesh` and projected onto the sphere, so its
midpoints are numbered the same way.
"""

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .errors import (
    ConfigInvalid,
    MagnitudeOutOfRange,
    ManifestInvalid,
    ResolutionTooSmall,
)
from .mesh import TriMesh, chunked_rows, load_mesh, read_indices, write_off

MAX_BEND = math.pi / 2
MAX_TWIST_RATE = math.pi
# the bar's extent along x and across; the cylinder's radius and its height
# along z
BAR_LENGTH, BAR_WIDTH = 8.0, 1.0
CYLINDER_RADIUS, CYLINDER_HEIGHT = 1.0, 4.0


def gen_base(kind, resolution):
    if kind == "icosphere":
        mesh = icosphere(resolution)
    elif kind == "bar":
        mesh = bar(resolution)
    elif kind == "cylinder":
        mesh = cylinder(resolution)
    else:
        raise ConfigInvalid(f"unknown base kind {kind!r}")
    if mesh.n_vertices < 12:
        raise ResolutionTooSmall(
            f"{kind} at resolution {resolution} has {mesh.n_vertices} vertices")
    return mesh


def icosphere(subdivisions):
    """Unit sphere of 10 * 4**s + 2 vertices: the icosahedron refined `s`
    times by `remesh`, with each level's midpoints projected onto the
    sphere. As in `remesh`, the midpoint of edge i of a level is vertex
    n + i of the next, so the vertices of every coarser level keep their
    numbers and their bits."""
    if subdivisions < 0:
        raise ResolutionTooSmall("subdivisions must be >= 0")
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ], dtype=np.float64)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    mesh = TriMesh(verts, np.array([
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ], dtype=np.int64))
    for _ in range(subdivisions):
        n = mesh.n_vertices
        refined, _ = remesh(mesh)
        verts = refined.vertices.copy()
        verts[n:] /= np.linalg.norm(verts[n:], axis=1)[:, None]
        mesh = TriMesh(verts, refined.faces)
    return mesh


def bar(resolution):
    """Closed box of BAR_LENGTH x BAR_WIDTH x BAR_WIDTH, long axis x,
    centered at the origin; resolution r gives 8r segments along the length
    and r across.

    Each side is an (nu + 1) x (nv + 1) grid of integer lattice points,
    split into two triangles per cell. A lattice point (i, j, k) has the
    key (i * (ny + 1) + j) * (nz + 1) + k; points shared by several sides
    become one vertex, and vertices are numbered in the order their keys
    first occur over the sides, side by side in the order below and
    row-major (u, then v) within a side. A vertex lies at
    low + (i, j, k) * step.
    """
    if resolution < 1:
        raise ResolutionTooSmall("bar resolution must be >= 1")
    nx, ny, nz = 8 * resolution, resolution, resolution
    step = np.array([BAR_LENGTH / nx, BAR_WIDTH / ny, BAR_WIDTH / nz])
    low = np.array([-BAR_LENGTH / 2.0, -BAR_WIDTH / 2.0, -BAR_WIDTH / 2.0])

    o = np.zeros(3, dtype=np.int64)
    ex, ey, ez = np.eye(3, dtype=np.int64)
    # (lattice origin, u axis, v axis) of each side; u x v points outward
    sides = [(nx * ex, ey, ez), (o, ez, ey), (ny * ey, ez, ex),
             (o, ex, ez), (nz * ez, ex, ey), (o, ey, ex)]
    points, shapes = [], []
    for origin, du, dv in sides:
        nu, nv = int(du @ (nx, ny, nz)), int(dv @ (nx, ny, nz))
        iu, iv = np.meshgrid(np.arange(nu + 1), np.arange(nv + 1),
                             indexing="ij")
        points.append((origin + iu[..., None] * du
                       + iv[..., None] * dv).reshape(-1, 3))
        shapes.append((nu + 1, nv + 1))
    points = np.concatenate(points)
    keys = (points[:, 0] * (ny + 1) + points[:, 1]) * (nz + 1) + points[:, 2]

    # number each distinct key by its first occurrence
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    ids = rank[inverse]
    verts = low + points[first[order]] * step

    faces = []
    offset = 0
    for nu1, nv1 in shapes:
        idx = ids[offset:offset + nu1 * nv1].reshape(nu1, nv1)
        offset += nu1 * nv1
        faces.append(_quad_split(idx).reshape(-1, 3))
    return TriMesh(verts, np.concatenate(faces))


def _quad_split(idx):
    """The two triangles (a, b, c) and (a, c, d) of every cell of a lattice
    of vertex ids, with a = idx[u, v], b = idx[u + 1, v],
    c = idx[u + 1, v + 1] and d = idx[u, v + 1]; they turn counter-clockwise
    seen from the side that u x v points to. Returns a (nu, nv, 6) array,
    one row per cell, so that the caller chooses the order of the cells."""
    a, b = idx[:-1, :-1], idx[1:, :-1]
    c, d = idx[1:, 1:], idx[:-1, 1:]
    return np.stack([a, b, c, a, c, d], axis=-1)


def cylinder(resolution):
    """Open cylinder (two boundary rings) of CYLINDER_RADIUS and
    CYLINDER_HEIGHT along z, centered at the origin. Ring j holds vertices
    j * n_theta + i at angle 2 pi i / n_theta; the side is the quad split
    of the ring lattice, whose last column wraps to angle 0."""
    if resolution < 1:
        raise ResolutionTooSmall("cylinder resolution must be >= 1")
    n_theta = 8 * resolution
    n_z = 4 * resolution
    angle = 2.0 * math.pi * np.arange(n_theta) / n_theta
    z = -CYLINDER_HEIGHT / 2.0 + CYLINDER_HEIGHT * np.arange(n_z + 1) / n_z
    verts = np.column_stack([np.tile(CYLINDER_RADIUS * np.cos(angle), n_z + 1),
                             np.tile(CYLINDER_RADIUS * np.sin(angle), n_z + 1),
                             np.repeat(z, n_theta)])
    # idx[i, j]: the vertex at angle i of ring j, angle n_theta wrapping to
    # 0; angle x height points outward, and the cells go ring by ring
    idx = ((np.arange(n_theta + 1) % n_theta)[:, None]
           + n_theta * np.arange(n_z + 1))
    faces = _quad_split(idx).swapaxes(0, 1).reshape(-1, 3)
    return TriMesh(verts, faces)


def _deformation_axes(mesh):
    ext = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
    u = int(np.argmax(ext))
    rest = [a for a in range(3) if a != u]
    return u, rest[0], rest[1]  # principal, passive, displacement


def deform(mesh, mode, magnitude):
    """Near-isometric pose change with unchanged connectivity."""
    if mode == "bend":
        if abs(magnitude) > MAX_BEND + 1e-12:
            raise MagnitudeOutOfRange(
                f"bend angle {magnitude} outside [-pi/2, pi/2]")
        return _bend(mesh, magnitude)
    if mode == "twist":
        if abs(magnitude) > MAX_TWIST_RATE + 1e-12:
            raise MagnitudeOutOfRange(
                f"twist rate {magnitude} outside [-pi, pi]")
        return _twist(mesh, magnitude)
    raise ConfigInvalid(f"unknown deformation mode {mode!r}")


def _bend(mesh, angle):
    if angle == 0:
        return TriMesh(mesh.vertices.copy(), mesh.faces.copy())
    u, v, w = _deformation_axes(mesh)
    p = mesh.vertices.copy()
    s = p[:, u]
    s0, s1 = s.min(), s.max()
    length = s1 - s0
    mid = 0.5 * (s0 + s1)
    radius = length / angle
    phi = angle * (s - mid) / length
    t = p[:, w]
    p[:, u] = (radius - t) * np.sin(phi)
    p[:, w] = radius - (radius - t) * np.cos(phi)
    return TriMesh(p, mesh.faces.copy())


def _twist(mesh, rate):
    u, v, w = _deformation_axes(mesh)
    p = mesh.vertices.copy()
    s = p[:, u]
    mid = 0.5 * (s.min() + s.max())
    psi = rate * (s - mid)
    cv, sv = np.cos(psi), np.sin(psi)
    pv, pw = p[:, v].copy(), p[:, w].copy()
    p[:, v] = cv * pv - sv * pw
    p[:, w] = sv * pv + cv * pw
    return TriMesh(p, mesh.faces.copy())


def isometry_distortion(source, target):
    """Max relative edge-length change between corresponding edges."""
    if source.n_vertices != target.n_vertices or not np.array_equal(
            source.faces, target.faces):
        raise ValueError("meshes must share connectivity")
    ls = source.edge_lengths()
    lt = target.edge_lengths()
    return float((np.abs(lt - ls) / ls).max()) if len(ls) else 0.0


def remesh(mesh):
    """Midpoint 1-to-4 subdivision.

    Returns the refined mesh plus a map from its vertices to the original:
    kept vertices map to themselves, each edge midpoint to the smaller
    endpoint index (midpoints are equidistant from both ends). Midpoint i
    is vertex n + i, for the i-th row of `mesh.edges`; its place is found
    by a binary search of the edge key lo * n + hi, in which those rows are
    sorted.
    """
    v, f = mesh.vertices, mesh.faces
    n = mesh.n_vertices
    edges = mesh.edges
    mids = 0.5 * (v[edges[:, 0]] + v[edges[:, 1]])
    new_verts = np.concatenate([v, mids], axis=0)

    head = f[:, [1, 2, 0]]
    mid = n + np.searchsorted(edges[:, 0] * n + edges[:, 1],
                              np.minimum(f, head) * n + np.maximum(f, head))
    a, b, c = f.T
    ab, bc, ca = mid.T
    new_faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca],
                         axis=1).reshape(-1, 3)
    refined = TriMesh(new_verts, new_faces)
    gt_map = np.concatenate([np.arange(n, dtype=np.int64),
                             edges.min(axis=1).astype(np.int64)])
    return refined, gt_map


@dataclass(frozen=True)
class DatasetConfig:
    base: str = "bar"
    resolution: int = 4
    deformations: tuple[tuple[str, float], ...] = ()  # (mode, magnitude)
    holdout: int = 1
    split_seed: int = 0
    remesh_holdout: bool = False

    def validate(self):
        if self.base not in ("icosphere", "bar", "cylinder"):
            raise ConfigInvalid(f"unknown base {self.base!r}")
        if not self.deformations:
            raise ConfigInvalid("need at least one deformation")
        for d in self.deformations:
            if len(d) != 2 or d[0] not in ("bend", "twist"):
                raise ConfigInvalid(f"bad deformation spec {d!r}")
        if not (0 < self.holdout < len(self.deformations)):
            raise ConfigInvalid(
                f"holdout {self.holdout} must leave at least one training shape")


def make_dataset(config, out_dir):
    """Generate meshes, identity labels and held-out pairs; write a
    manifest describing them all. Returns the manifest dict. Every mesh is
    built before the output directory is made, so a config that fails
    while building (a magnitude out of range, a resolution too small)
    writes nothing."""
    config.validate()
    template = gen_base(config.base, config.resolution)
    labels = np.arange(template.n_vertices)
    meshes = {"template.off": template}
    label_files = ["labels_template.txt"]  # each holds `labels`

    deformed = []
    for i, (mode, mag) in enumerate(config.deformations):
        m = deform(template, mode, float(mag))
        meshes[f"deform_{i}.off"] = m
        label_files.append(f"labels_{i}.txt")
        deformed.append(m)

    rng = np.random.default_rng(config.split_seed)
    order = rng.permutation(len(deformed))
    train_idx = sorted(int(i) for i in order[:len(deformed) - config.holdout])
    test_idx = sorted(int(i) for i in order[len(deformed) - config.holdout:])

    training = [{"mesh": f"deform_{i}.off", "labels": f"labels_{i}.txt"}
                for i in train_idx]

    pairs = []
    for i in test_idx:
        gt_file = f"gt_{i}.txt"
        label_files.append(gt_file)
        pairs.append({"source": "template.off", "target": f"deform_{i}.off",
                      "gt": gt_file, "kind": "deformed",
                      "distortion": isometry_distortion(template, deformed[i])})
        if config.remesh_holdout:
            meshes[f"deform_{i}_remesh.off"] = remesh(deformed[i])[0]
            pairs.append({"source": "template.off",
                          "target": f"deform_{i}_remesh.off",
                          "gt": gt_file, "kind": "remeshed"})

    manifest = {
        "template": {"mesh": "template.off", "labels": "labels_template.txt"},
        "training": training,
        "pairs": pairs,
        "config": asdict(config) | {
            "deformations": [list(d) for d in config.deformations]},
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, mesh in meshes.items():
        write_off(mesh, out / name)
    for name in label_files:
        _write_indices(labels, out / name)
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


def load_manifest(path):
    """The dataset manifest at `path`: a JSON object whose template and
    training entries name `mesh` and `labels` files, and whose pairs name
    `source`, `target` and `gt` files, each relative to the manifest and
    present. Anything else raises ManifestInvalid."""
    path = Path(path)
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ManifestInvalid(f"{path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ManifestInvalid(f"{path}: not a JSON object")
    for key in ("template", "training", "pairs"):
        if key not in manifest:
            raise ManifestInvalid(f"{path}: missing key {key!r}")
    for key in ("training", "pairs"):
        if not isinstance(manifest[key], list):
            raise ManifestInvalid(f"{path}: {key!r} is not a list")
    root = path.parent
    fields = [(entry, ("mesh", "labels"))
              for entry in [manifest["template"], *manifest["training"]]]
    fields += [(pair, ("source", "target", "gt"))
               for pair in manifest["pairs"]]
    for entry, keys in fields:
        if not (isinstance(entry, dict)
                and all(isinstance(entry.get(k), str) for k in keys)):
            raise ManifestInvalid(
                f"{path}: entry {entry!r} needs file names under {keys}")
        for k in keys:
            if not (root / entry[k]).exists():
                raise ManifestInvalid(f"{path}: missing file {entry[k]}")
    return manifest


def _write_indices(indices, path):
    with open(path, "w") as fh:
        fh.writelines(f"{i}\n" for i in
                      chunked_rows(np.asarray(indices, dtype=np.int64)))
