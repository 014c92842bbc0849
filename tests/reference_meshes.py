"""Per-element reference implementations: oracles for the vectorized code.

Each function is the straightforward Python loop that `wavemesh.synth` and
`wavemesh.mesh` replaced with NumPy passes or shared primitives; the tests
assert that the replacements produce bit-identical arrays, byte-identical
files and the same errors. The icosphere's midpoints are numbered in the
order the faces reach them, so it matches `wavemesh.synth.icosphere` only
up to a relabelling of its vertices and round-off in their coordinates.
"""

import math

import numpy as np

from wavemesh.errors import NonTriangleFace, ParseError
from wavemesh.mesh import TriMesh


def _grid_face(register, origin, du, dv, nu, nv):
    """Triangulate one rectangular box face; du x dv must point outward."""
    faces = []
    idx = {}
    for iu in range(nu + 1):
        for iv in range(nv + 1):
            idx[iu, iv] = register(origin + iu * du + iv * dv)
    for iu in range(nu):
        for iv in range(nv):
            a = idx[iu, iv]
            b = idx[iu + 1, iv]
            c = idx[iu + 1, iv + 1]
            d = idx[iu, iv + 1]
            faces += [(a, b, c), (a, c, d)]
    return faces


def bar(resolution, length=8.0, width=1.0):
    """Closed box registered vertex by vertex through a lattice dict."""
    nx, ny, nz = 8 * resolution, resolution, resolution
    hx, hy, hz = length / 2.0, width / 2.0, width / 2.0
    step = np.array([length / nx, width / ny, width / nz])
    low = np.array([-hx, -hy, -hz])

    verts = []
    lattice = {}

    def register(p):
        key = tuple(int(round(c)) for c in (p - low) / step)
        if key not in lattice:
            lattice[key] = len(verts)
            verts.append(low + np.asarray(key) * step)
        return lattice[key]

    ex = np.array([step[0], 0, 0])
    ey = np.array([0, step[1], 0])
    ez = np.array([0, 0, step[2]])
    c000 = low
    faces = []
    faces += _grid_face(register, low + np.array([length, 0, 0]), ey, ez, ny, nz)
    faces += _grid_face(register, c000, ez, ey, nz, ny)
    faces += _grid_face(register, low + np.array([0, width, 0]), ez, ex, nz, nx)
    faces += _grid_face(register, c000, ex, ez, nx, nz)
    faces += _grid_face(register, low + np.array([0, 0, width]), ex, ey, nx, ny)
    faces += _grid_face(register, c000, ey, ex, ny, nx)
    return TriMesh(np.asarray(verts), np.asarray(faces, dtype=np.int64))


def icosphere(subdivisions):
    """Icosphere whose midpoints are numbered in the order the faces first
    reach them, through an edge dict and a per-face loop."""
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ], dtype=np.float64)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array([
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ], dtype=np.int64)
    verts = [v for v in verts]
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in cache:
                p = verts[i] + verts[j]
                verts.append(p / np.linalg.norm(p))
                cache[key] = len(verts) - 1
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = np.asarray(new_faces, dtype=np.int64)
    return TriMesh(np.asarray(verts), faces)


def cylinder(resolution, radius=1.0, height=4.0):
    """Cylinder built vertex by vertex and face by face in nested loops."""
    n_theta = 8 * resolution
    n_z = 4 * resolution
    verts = []
    for j in range(n_z + 1):
        z = -height / 2.0 + height * j / n_z
        for i in range(n_theta):
            a = 2.0 * math.pi * i / n_theta
            verts.append((radius * math.cos(a), radius * math.sin(a), z))
    faces = []
    for j in range(n_z):
        for i in range(n_theta):
            a = j * n_theta + i
            b = j * n_theta + (i + 1) % n_theta
            c = (j + 1) * n_theta + (i + 1) % n_theta
            d = (j + 1) * n_theta + i
            faces += [(a, b, c), (a, c, d)]
    return TriMesh(np.asarray(verts, dtype=np.float64),
                   np.asarray(faces, dtype=np.int64))


def remesh(mesh):
    """Midpoint 1-to-4 subdivision through an edge dict, face by face."""
    v, f = mesh.vertices, mesh.faces
    n = mesh.n_vertices
    edges = mesh.edges
    edge_index = {(int(a), int(b)): n + i for i, (a, b) in enumerate(edges)}
    mids = 0.5 * (v[edges[:, 0]] + v[edges[:, 1]])
    new_verts = np.concatenate([v, mids], axis=0)

    def mid(i, j):
        return edge_index[(i, j) if i < j else (j, i)]

    new_faces = []
    for a, b, c in f:
        a, b, c = int(a), int(b), int(c)
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
    refined = TriMesh(new_verts, np.asarray(new_faces, dtype=np.int64))
    gt_map = np.concatenate([np.arange(n, dtype=np.int64),
                             edges.min(axis=1).astype(np.int64)])
    return refined, gt_map


def write_off(mesh, path):
    """OFF writer that formats one numpy row per line."""
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{mesh.n_vertices} {mesh.n_faces} 0\n")
        for p in mesh.vertices:
            fh.write(f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}\n")
        for f in mesh.faces:
            fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")


def read_obj(path):
    """OBJ reader that walks the file line by line through a generator."""

    def significant_lines():
        with open(path, "r") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if line:
                    yield lineno, line

    vertices = []
    faces = []   # (line, vertices before it, given indices)
    for lineno, line in significant_lines():
        tok = line.split()
        if tok[0] == "v":
            if len(tok) < 4:
                raise ParseError("vertex line needs 3 coordinates", path, lineno)
            try:
                vertices.append([float(t) for t in tok[1:4]])
            except ValueError:
                raise ParseError("malformed vertex line", path, lineno) from None
        elif tok[0] == "f":
            refs = tok[1:]
            if len(refs) != 3:
                raise NonTriangleFace(
                    f"{path}:{lineno}: face with {len(refs)} vertices")
            idx = []
            for r in refs:
                try:
                    k = int(r.split("/", 1)[0])
                except ValueError:
                    raise ParseError("malformed face index", path, lineno) from None
                if not -2**63 <= k < 2**63:   # an index int64 cannot hold
                    raise ParseError("malformed face index", path, lineno)
                if k == 0:
                    raise ParseError("face index 0 names no vertex", path, lineno)
                idx.append(k)
            faces.append((lineno, len(vertices), idx))
    if not vertices:
        raise ParseError("no vertices found", path, 1)
    resolved = []
    for lineno, before, idx in faces:
        row = []
        for k in idx:
            # -k names the k-th most recent vertex before the face line
            i = before + k if k < 0 else k - 1
            if i < 0:
                raise ParseError(
                    f"face index {k} reaches before the first vertex",
                    path, lineno)
            if i >= len(vertices):
                raise ParseError(
                    f"face index {k} out of range for {len(vertices)} "
                    "vertices", path, lineno)
            row.append(i)
        resolved.append(row)
    return TriMesh(np.asarray(vertices), np.asarray(resolved, dtype=np.int64))


def write_indices(indices, path):
    """One index per line, formatted element by element."""
    with open(path, "w") as fh:
        for i in indices:
            fh.write(f"{int(i)}\n")


def unique_edges(faces):
    """Unique undirected edges and their face counts by row-wise unique."""
    f = np.asarray(faces)
    directed = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    und = np.sort(directed, axis=1)
    return np.unique(und, axis=0, return_counts=True)
