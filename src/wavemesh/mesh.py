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

OFF files are read and written without per-value Python steps: the
reader splits each line once and converts the tokens of each chunk of
lines in one pass, and the writer formats values from `.tolist()` and
streams the lines to the file.
"""

import hashlib
from itertools import chain

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

# OFF lines converted per pass: bounds the token lists alive at once
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
    if (double <= 0).any():
        raise DegenerateTriangle("zero-area face")
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


def _tokens_to_array(rows, width, convert, dtype):
    """The first `width` tokens of every row of tokens, each converted once,
    as one (len(rows), width) array; None if a row is short or a token does
    not convert."""
    count = len(rows) * width
    widths = set(map(len, rows))
    if widths and min(widths) < width:
        return None
    if widths != {width}:
        rows = (row[:width] for row in rows)
    try:
        flat = np.fromiter(map(convert, chain.from_iterable(rows)), dtype,
                           count=count)
    except ValueError:
        return None
    return flat.reshape(-1, width)


def _check_vertex_line(tok, path, lineno):
    if len(tok) < 3:
        raise ParseError("vertex line needs 3 coordinates", path, lineno)
    try:
        list(map(float, tok[:3]))
    except ValueError:
        raise ParseError("malformed vertex line", path, lineno) from None


def _check_face_line(tok, path, lineno):
    try:
        count = int(tok[0])
    except ValueError:
        raise ParseError("malformed face line", path, lineno) from None
    if count != 3:
        raise NonTriangleFace(f"{path}:{lineno}: face with {count} vertices")
    if len(tok) < 4:
        raise ParseError("face line needs 3 indices", path, lineno)
    try:
        list(map(int, tok[1:4]))
    except ValueError:
        raise ParseError("malformed face index", path, lineno) from None


def _off_block(path, lines, sig, start, n, what, check_line, width, convert,
               dtype, valid=None):
    """The (n, width) array of the `n` significant lines from `sig[start]`
    on, converted OFF_CHUNK lines at a time so that few token lists are
    alive at once. A chunk that does not convert whole, or fails `valid`,
    is checked line by line to raise the first bad line's error."""
    idx = sig[start:start + n]
    out = np.empty((len(idx), width), dtype)
    for s in range(0, len(idx), OFF_CHUNK):
        chunk = idx[s:s + OFF_CHUNK]
        rows = [lines[i].split() for i in chunk]
        part = _tokens_to_array(rows, width, convert, dtype)
        if part is None or (valid is not None and not valid(part)):
            for i, tok in zip(chunk, rows):
                check_line(tok, path, i + 1)
        out[s:s + len(chunk)] = part
    if len(idx) < n:
        raise ParseError(f"expected {n} {what}, got {len(idx)}", path,
                         sig[start + len(idx) - 1] + 1)
    return out


def _read_off(path):
    """Vertex and face arrays of an OFF file, parsed in whole blocks; the
    parser's lines and tokens are freed before the TriMesh is built.

    The file is read and split into lines once, comments are cut and the
    significant (non-blank) lines are found in one pass, `_read_lines`,
    which the OBJ reader shares. Each vertex and face line is then split
    once and its tokens converted once, by `np.fromiter` over a chunk of
    lines; only a chunk that fails is checked line by line, to raise the
    first bad line's error with its number.
    """
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
    try:
        nv, nf = int(tok[0]), int(tok[1])
    except ValueError:
        raise ParseError("malformed counts line", path, counts_line) from None
    if nv < 0 or nf < 0:
        raise ParseError("negative counts", path, counts_line)

    vertices = _off_block(path, lines, sig, start, nv, "vertices",
                          _check_vertex_line, 3, float, np.float64)
    table = _off_block(path, lines, sig, start + nv, nf, "faces",
                       _check_face_line, 4, int, np.int64,
                       valid=lambda t: (t[:, 0] == 3).all())
    return vertices, table[:, 1:]


def _read_obj(path):
    lines, sig = _read_lines(path)
    vertices = []
    faces = []
    for i in sig:
        lineno = i + 1
        tok = lines[i].split()
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
                head = r.split("/", 1)[0]
                try:
                    k = int(head)
                except ValueError:
                    raise ParseError("malformed face index", path, lineno) from None
                if k < 1:
                    raise ParseError("face indices must be positive", path, lineno)
                idx.append(k - 1)
            faces.append(idx)
        # all other directives (vn, vt, usemtl, ...) are ignored
    if not vertices:
        raise ParseError("no vertices found", path, 1)
    return np.asarray(vertices), np.asarray(faces, dtype=np.int64)


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
