"""Triangle mesh loading, validation, and lumped-mass geometry.

A TriMesh is immutable after construction: vertex positions, triangle
connectivity and all derived fields (face areas and normals, area-weighted
vertex normals, per-vertex Voronoi mass) are computed once and the arrays
are marked read-only, so instances are safe to share between threads.

Edges are found without per-face Python: each undirected edge gets one
int64 key lo * n + hi (n vertices, lo < hi), and one `np.unique` of the
keys gives the edges and their face counts. Sorting the keys sorts the
edges by (lo, hi), so `edges` holds the rows of a row-wise unique in the
same order, and `synth.remesh` finds an edge's row by a binary search of
its key.

Text tables (OFF and OBJ meshes, label and gt index files) are read
without per-value Python steps: `_read_block` parses each block of
lines with one `np.loadtxt` call, and only if that fails do per-line
checks, which parse tokens the same way, raise the first bad line's error
with its file and line number. So `1_0` or an integer beyond int64 is a
ParseError. A face index that names no vertex raises there too, with the
first such face line; OBJ's relative indices (-k, the k-th most recent
vertex) are resolved for all faces at once. The OFF writer formats values
from `.tolist()` and streams the lines to the file.
"""

import hashlib
import re

import numpy as np

from .errors import (
    DegenerateTriangle,
    InconsistentOrientation,
    NonManifoldEdge,
    NonTriangleFace,
    ParseError,
)

# Faces whose area falls below this fraction of the squared bounding-box
# diagonal are rejected as degenerate, so the threshold is unit-free.
DEGENERACY_FACTOR = 1e-12

# Rows the writers convert per `.tolist()` call (`chunked_rows`): bounds
# the Python scalars alive at once
OFF_CHUNK = 1024


class TriMesh:
    """Manifold, consistently oriented triangle mesh.

    Parameters
    ----------
    vertices : (n, 3) array_like of float
        Vertex positions. Order is preserved.
    faces : (m, 3) array_like of int
        Vertex-index triples, consistently oriented (counter-clockwise
        seen from the outward normal side).

    Attributes
    ----------
    vertices : (n, 3) float64, read-only
    faces : (m, 3) int64, read-only
    face_areas : (m,) float64
    face_normals : (m, 3) float64, unit length
    vertex_normals : (n, 3) float64, area-weighted average of incident
        face normals, unit length (zero for isolated vertices)
    mass : (n,) float64, mixed-Voronoi cell areas; sums to the total
        surface area
    edges : (e, 2) int64, unique undirected edges, each row sorted
    boundary_edges : (b, 2) int64, edges with exactly one incident face
    """

    def __init__(self, vertices, faces):
        vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        faces = np.ascontiguousarray(faces, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ParseError(f"vertices must be (n, 3), got {vertices.shape}")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise NonTriangleFace(f"faces must be (m, 3), got {faces.shape}")
        self.vertices = vertices
        self.faces = faces

        self._check_indices()

        tri = vertices[faces]
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        double_area = np.linalg.norm(cross, axis=1)
        self.face_areas = 0.5 * double_area
        self._check_degenerate()
        with np.errstate(invalid="ignore", divide="ignore"):
            self.face_normals = np.where(
                double_area[:, None] > 0, cross / double_area[:, None], 0.0
            )

        self.vertex_normals = self._vertex_normals()
        self.edges, self._edge_face_count = self._collect_edges()
        self.boundary_edges = self.edges[self._edge_face_count == 1]
        self.mass = vertex_mass(self)

        for arr in (self.vertices, self.faces, self.face_areas,
                    self.face_normals, self.vertex_normals, self.edges,
                    self.boundary_edges, self.mass):
            arr.setflags(write=False)

    # -- derived quantities ------------------------------------------------

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_faces(self):
        return self.faces.shape[0]

    @property
    def n_edges(self):
        return self.edges.shape[0]

    @property
    def is_closed(self):
        return self.boundary_edges.shape[0] == 0

    @property
    def total_area(self):
        return float(self.face_areas.sum())

    @property
    def bbox_diagonal(self):
        ext = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return float(np.linalg.norm(ext))

    def edge_lengths(self):
        d = self.vertices[self.edges[:, 0]] - self.vertices[self.edges[:, 1]]
        return np.linalg.norm(d, axis=1)

    def content_hash(self):
        """Hex digest over vertex and face bytes; stable across runs."""
        h = hashlib.sha256()
        h.update(self.vertices.tobytes())
        h.update(self.faces.tobytes())
        return h.hexdigest()

    # -- validation ----------------------------------------------------------

    def _check_indices(self):
        if self.faces.size and (self.faces.min() < 0
                                or self.faces.max() >= self.n_vertices):
            raise ParseError("face index out of range")
        f = self.faces
        repeated = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])
        if repeated.any():
            raise DegenerateTriangle(
                f"face {int(np.nonzero(repeated)[0][0])} repeats a vertex")

    def _check_degenerate(self):
        threshold = DEGENERACY_FACTOR * max(self.bbox_diagonal, 1e-300) ** 2
        bad = self.face_areas <= threshold
        if bad.any():
            raise DegenerateTriangle(
                f"{int(bad.sum())} faces below area threshold {threshold:g}")

    def _vertex_normals(self):
        weighted = self.face_normals * self.face_areas[:, None]
        out = np.zeros_like(self.vertices)
        for c in range(3):
            np.add.at(out, self.faces[:, c], weighted)
        norms = np.linalg.norm(out, axis=1)
        nonzero = norms > 0
        out[nonzero] /= norms[nonzero, None]
        return out

    def _collect_edges(self):
        # One int64 key lo * n + hi per undirected edge: sorting the keys
        # sorts the edges by (lo, hi), the row order of a row-wise unique.
        n = self.n_vertices
        f = self.faces
        tail = f.T.ravel()
        head = f[:, [1, 2, 0]].T.ravel()
        keys, counts = np.unique(np.minimum(tail, head) * n
                                 + np.maximum(tail, head), return_counts=True)
        edges = np.stack([keys // n, keys % n], axis=1)
        if self.faces.size:
            if counts.max() > 2:
                e = edges[np.argmax(counts)]
                raise NonManifoldEdge(
                    f"edge ({e[0]}, {e[1]}) has {counts.max()} incident faces")
            # On a manifold mesh, consistent orientation means the two faces
            # sharing an edge traverse it in opposite directions.
            directed = np.sort(tail * n + head)
            dup = np.flatnonzero(directed[1:] == directed[:-1])
            if dup.size:
                key = directed[dup[0]]
                raise InconsistentOrientation(
                    f"edge ({key // n}, {key % n}) traversed twice in the "
                    "same direction")
        return edges, counts


def corner_cotangents(mesh):
    """(m, 3) cotangent of the angle at each face corner: the dot of the two
    incident edges over twice the face area. Shared by the Voronoi mass and
    the cotangent stiffness."""
    v, f = mesh.vertices, mesh.faces
    p0, p1, p2 = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    double = 2.0 * mesh.face_areas
    cot = np.empty((len(f), 3))
    cot[:, 0] = np.einsum("ij,ij->i", p1 - p0, p2 - p0) / double
    cot[:, 1] = np.einsum("ij,ij->i", p2 - p1, p0 - p1) / double
    cot[:, 2] = np.einsum("ij,ij->i", p0 - p2, p1 - p2) / double
    return cot


def vertex_mass(mesh):
    """Per-vertex mixed-Voronoi cell areas (lumped mass vector).

    Uses the cotangent Voronoi area inside non-obtuse triangles; obtuse
    triangles contribute area/2 at the obtuse corner and area/4 at the
    other two. Entries are positive for every vertex incident to a face
    and the vector sums to the total surface area.
    """
    cot = corner_cotangents(mesh)
    v, f = mesh.vertices, mesh.faces
    p0, p1, p2 = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    area = mesh.face_areas

    # squared length of the edge opposite each corner
    sq = np.empty((len(f), 3))
    sq[:, 0] = np.einsum("ij,ij->i", p2 - p1, p2 - p1)
    sq[:, 1] = np.einsum("ij,ij->i", p0 - p2, p0 - p2)
    sq[:, 2] = np.einsum("ij,ij->i", p1 - p0, p1 - p0)

    contrib = np.empty((len(f), 3))
    # Voronoi area at corner i uses the two incident edges (opposite j and
    # k), each weighted by the cot at the far corner.
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        contrib[:, i] = (sq[:, j] * cot[:, j] + sq[:, k] * cot[:, k]) / 8.0

    obtuse = cot < 0  # an obtuse angle has negative cotangent
    any_obtuse = obtuse.any(axis=1)
    if any_obtuse.any():
        half = area[any_obtuse] / 2.0
        quarter = area[any_obtuse] / 4.0
        at_corner = obtuse[any_obtuse]
        contrib[any_obtuse] = np.where(at_corner, half[:, None], quarter[:, None])

    mass = np.zeros(mesh.n_vertices)
    for c in range(3):
        np.add.at(mass, f[:, c], contrib[:, c])
    return mass


# -- file formats -------------------------------------------------------------

def load_mesh(path):
    """Load an OFF or OBJ triangle mesh; format inferred from the suffix.
    A file that holds no faces raises ParseError, whatever its format."""
    path = str(path)
    lower = path.lower()
    if lower.endswith(".off"):
        vertices, faces = _read_off(path)
    elif lower.endswith(".obj"):
        vertices, faces = _read_obj(path)
    else:
        raise ParseError(f"cannot infer format from {path!r}")
    if len(faces) == 0:
        raise ParseError("no faces found", path)
    return TriMesh(vertices, faces)


def _read_lines(path):
    """(lines, sig) of a text file: its lines, numbered from 0 as iterating
    the file would give them and cut at any `#` comment, and the numbers of
    the significant (non-blank) ones. The file is read and split once."""
    with open(path, "r") as fh:
        text = fh.read()
    lines = text.split("\n")
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    del text
    return lines, [i for i, line in enumerate(lines)
                   if line and not line.isspace()]


def _parse_rows(rows, dtype, usecols=None):
    """The rows (strings) parsed by one `np.loadtxt` call as a 2-D `dtype`
    array of the columns `usecols`, or of all columns (then the same number
    in each row); None if a row, or an empty one loadtxt would skip, does
    not parse. The line checks parse their tokens here too, one per row."""
    if not rows:
        return np.empty((0, len(usecols or ())), dtype)
    if not all(rows):
        return None
    try:
        return np.loadtxt(rows, dtype, comments=None, usecols=usecols,
                          ndmin=2)
    except ValueError:
        return None


def _read_block(path, lines, idx, check_line, dtype, usecols=None,
                valid=None, rows=None):
    """`_parse_rows` of `rows`, by default the lines numbered `idx`. If a
    row does not parse, or the array fails `valid`, `check_line(tokens,
    path, lineno)` runs on the lines numbered `idx` in turn, to raise the
    first bad line's error."""
    table = _parse_rows([lines[i] for i in idx] if rows is None else rows,
                        dtype, usecols)
    if table is None or (valid is not None and not valid(table)):
        for i in idx:
            check_line(lines[i].split(), path, i + 1)
        raise ParseError("a line does not parse", path)
    return table


def _check_vertex_line(tok, path, lineno):
    if len(tok) < 3:
        raise ParseError("vertex line needs 3 coordinates", path, lineno)
    if _parse_rows(tok[:3], np.float64) is None:
        raise ParseError("malformed vertex line", path, lineno)


def _check_face_line(tok, path, lineno):
    count = _parse_rows(tok[:1], np.int64)
    if count is None:
        raise ParseError("malformed face line", path, lineno)
    if count[0, 0] != 3:
        raise NonTriangleFace(
            f"{path}:{lineno}: face with {count[0, 0]} vertices")
    if len(tok) < 4:
        raise ParseError("face line needs 3 indices", path, lineno)
    if _parse_rows(tok[1:4], np.int64) is None:
        raise ParseError("malformed face index", path, lineno)


def _check_obj_line(tok, path, lineno):
    if tok[0] == "v":
        _check_vertex_line(tok[1:], path, lineno)
    elif tok[0] == "f":
        if len(tok) != 4:
            raise NonTriangleFace(
                f"{path}:{lineno}: face with {len(tok) - 1} vertices")
        for ref in tok[1:]:
            k = _parse_rows([ref.split("/", 1)[0]], np.int64)
            if k is None:
                raise ParseError("malformed face index", path, lineno)
            if k[0, 0] == 0:
                raise ParseError("face index 0 names no vertex", path, lineno)


def _check_index_line(tok, path, lineno):
    if len(tok) != 1 or _parse_rows(tok, np.int64) is None:
        raise ParseError("index line must hold one integer", path, lineno)


def _read_off(path):
    """Vertex and face arrays of an OFF file, each block read by one
    `_read_block`; trailing columns (colors) are ignored."""
    lines, sig = _read_lines(path)
    if not sig:
        raise ParseError("empty file", path, 1)

    header = lines[sig[0]].strip()
    if header == "OFF":
        if len(sig) < 2:
            raise ParseError("missing counts line", path, sig[0] + 1)
        start = 2
        tok = lines[sig[1]].split()
    elif header.startswith("OFF"):
        start = 1
        tok = header[3:].split()
    else:
        raise ParseError("missing OFF header", path, sig[0] + 1)
    counts_line = sig[start - 1] + 1
    if len(tok) < 2:
        raise ParseError("counts line needs vertex and face counts", path,
                         counts_line)
    counts = _parse_rows(tok[:2], np.int64)
    if counts is None:
        raise ParseError("malformed counts line", path, counts_line)
    nv, nf = counts[:, 0]
    if nv < 0 or nf < 0:
        raise ParseError("negative counts", path, counts_line)

    vertices = _read_block(path, lines, sig[start:start + nv],
                           _check_vertex_line, np.float64, (0, 1, 2))
    table = _read_block(path, lines, sig[start + nv:start + nv + nf],
                        _check_face_line, np.int64, (0, 1, 2, 3),
                        valid=lambda t: (t[:, 0] == 3).all())
    # a block falls short only where the file ends
    for n, got, what in ((nv, len(vertices), "vertices"),
                         (nf, len(table), "faces")):
        if got < n:
            raise ParseError(f"expected {n} {what}, got {got}", path,
                             sig[-1] + 1)
    faces = table[:, 1:]
    _check_range(path, faces, nv, sig[start + nv:])
    return vertices, faces


def _check_range(path, faces, n, face_at, given=None):
    """Raise ParseError naming the first face line, numbered face_at[row]
    from 0, whose row of 0-based `faces` holds an index outside [0, n).
    `given` holds OBJ's indices as written, 1-based or, if negative,
    relative to the latest vertex; the error quotes those."""
    bad = (faces < 0) | (faces >= n)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        k = (faces if given is None else given)[row, col]
        what = ("reaches before the first vertex"
                if given is not None and k < 0
                else f"out of range for {n} vertices")
        raise ParseError(f"face index {k} {what}", path, face_at[row] + 1)


def _read_obj(path):
    """Vertex and face arrays of an OBJ file: its `v` and `f` lines, each
    kind read by one `_read_block` after the keyword, with the /vt/vn tails
    of face references cut. Either's checks walk every line, so the file's
    first bad line raises; other directives (vn, usemtl, ...) are ignored.
    A face index k >= 1 names the k-th vertex of the file, and -k the k-th
    most recent vertex before its face line; then the first face line
    whose index names no vertex raises."""
    lines, sig = _read_lines(path)
    split = [lines[i].split(None, 1) for i in sig]
    v_at = [i for i, s in zip(sig, split) if s[0] == "v"]
    f_at = [i for i, s in zip(sig, split) if s[0] == "f"]
    v = [s[-1] for s in split if s[0] == "v"]
    f = [re.sub(r"(?<=\S)/\S*", "", s[-1]) for s in split if s[0] == "f"]
    vertices = _read_block(path, lines, sig, _check_obj_line, np.float64,
                           (0, 1, 2), rows=v)
    given = _read_block(
        path, lines, sig, _check_obj_line, np.int64, rows=f,
        valid=lambda t: t.shape[1] in (0, 3) and (t != 0).all())
    if not len(vertices):
        raise ParseError("no vertices found", path, 1)
    # the number of v lines before each face line resolves its -k
    before = np.searchsorted(v_at, f_at)[:, None]
    faces = np.where(given < 0, given + before, given - 1)
    _check_range(path, faces, len(vertices), f_at, given)
    return vertices, faces


def read_indices(path):
    """The int64 vector of a label or gt file, one integer per significant
    line; any other line raises ParseError naming the file and line."""
    lines, sig = _read_lines(path)
    return _read_block(path, lines, sig, _check_index_line, np.int64,
                       valid=lambda t: t.shape[1] <= 1).ravel()


def chunked_rows(array):
    """The rows of an array as Python scalars (lists of them for a 2-D
    array), converted by `.tolist()` OFF_CHUNK rows at a time."""
    for s in range(0, len(array), OFF_CHUNK):
        yield from array[s:s + OFF_CHUNK].tolist()


def write_off(mesh, path):
    """Write an OFF file: coordinates as `repr` of Python floats, so that
    they read back bit for bit, and one `3 a b c` line per face. The lines
    are streamed to the file, not joined into one string."""
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{mesh.n_vertices} {mesh.n_faces} 0\n")
        fh.writelines(f"{x!r} {y!r} {z!r}\n"
                      for x, y, z in chunked_rows(mesh.vertices))
        fh.writelines(f"3 {a} {b} {c}\n" for a, b, c in chunked_rows(mesh.faces))
