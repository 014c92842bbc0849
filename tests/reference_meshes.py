"""Per-element reference implementations: oracles for the vectorized code.

Each function is the straightforward Python loop that `wavemesh.synth` and
`wavemesh.mesh` replaced with NumPy passes; the tests assert that the
vectorized versions produce bit-identical arrays and byte-identical files.
"""

import numpy as np

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
