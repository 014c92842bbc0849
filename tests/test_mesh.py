import math
import re
import types

import numpy as np
import pytest

import wavemesh as wm
from wavemesh.errors import (
    DegenerateTriangle,
    InconsistentOrientation,
    NonManifoldEdge,
    NonTriangleFace,
    ParseError,
)
from wavemesh import cli
from wavemesh import mesh as mesh_module
from wavemesh.mesh import TriMesh, load_mesh, vertex_mass, write_off

from . import reference_meshes as ref

TETRA_OFF = """OFF
4 4 6
0 0 0
1 0 0
0 1 0
0 0 1
3 0 2 1
3 0 1 3
3 0 3 2
3 1 2 3
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def rotation_matrix(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis /= np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


class TestLoading:
    def test_tetrahedron_off(self, tmp_path):
        mesh = load_mesh(write(tmp_path, "tet.off", TETRA_OFF))
        assert mesh.n_vertices == 4
        assert mesh.n_faces == 4
        assert mesh.n_edges == 6
        assert mesh.is_closed
        # Euler formula for a closed genus-0 surface
        assert mesh.n_vertices - mesh.n_edges + mesh.n_faces == 2

    def test_vertex_order_preserved(self, tmp_path):
        mesh = load_mesh(write(tmp_path, "tet.off", TETRA_OFF))
        assert np.allclose(mesh.vertices[1], [1, 0, 0])
        assert np.allclose(mesh.vertices[3], [0, 0, 1])

    def test_obj_quad_rejected(self, tmp_path):
        text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
        with pytest.raises(NonTriangleFace):
            load_mesh(write(tmp_path, "quad.obj", text))

    def test_off_quad_rejected(self, tmp_path):
        text = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
        with pytest.raises(NonTriangleFace):
            load_mesh(write(tmp_path, "quad.off", text))

    def test_obj_with_slashes_and_directives(self, tmp_path):
        text = ("# comment\nvn 0 0 1\nv 0 0 0\nv 1 0 0\nv 0 1 0\n"
                "usemtl whatever\nf 1/1/1 2/2/1 3/3/1\n")
        mesh = load_mesh(write(tmp_path, "tri.obj", text))
        assert mesh.n_faces == 1

    def test_malformed_vertex_reports_line(self, tmp_path):
        text = "OFF\n3 1 0\n0 0 0\n1 oops 0\n0 1 0\n3 0 1 2\n"
        with pytest.raises(ParseError) as err:
            load_mesh(write(tmp_path, "bad.off", text))
        assert err.value.line == 4

    def test_missing_header(self, tmp_path):
        with pytest.raises(ParseError):
            load_mesh(write(tmp_path, "bad.off", "3 1 0\n"))

    @pytest.mark.parametrize("name, text", [
        ("faceless.off", "OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n"),
        ("faceless.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\n"),
    ], ids=["off", "obj"])
    def test_file_without_faces_rejected(self, tmp_path, capsys, name, text):
        path = write(tmp_path, name, text)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "):
            load_mesh(path)
        assert cli.main(["mesh-info", "--mesh", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_unknown_suffix_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "tet.ply", "ply\n")
        with pytest.raises(ParseError, match="cannot infer format"):
            load_mesh(path)
        assert cli.main(["mesh-info", "--mesh", str(path)]) == 2
        assert f"cannot infer format from {str(path)!r}" in \
            capsys.readouterr().err

    def test_unit_icosahedron_area(self, tmp_path, ico0):
        # closed form: 20 equilateral faces of edge s = 4/sqrt(10+2*sqrt(5))
        # for unit circumradius, total 5*sqrt(3)*s^2
        path = tmp_path / "ico.off"
        write_off(ico0, path)
        mesh = load_mesh(path)
        s = 4.0 / math.sqrt(10.0 + 2.0 * math.sqrt(5.0))
        closed_form = 5.0 * math.sqrt(3.0) * s * s
        assert abs(mesh.total_area - closed_form) < 1e-6
        assert abs(closed_form - 9.5746) < 1e-4

    def test_write_read_roundtrip(self, tmp_path, ico1):
        path = tmp_path / "r.off"
        write_off(ico1, path)
        back = load_mesh(path)
        assert np.array_equal(back.faces, ico1.faces)
        assert np.abs(back.vertices - ico1.vertices).max() == 0.0


class TestValidation:
    def test_index_out_of_range(self):
        with pytest.raises(ParseError):
            TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 5]])

    def test_repeated_vertex_in_face(self):
        with pytest.raises(DegenerateTriangle):
            TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 1]])

    def test_degenerate_face(self):
        verts = [[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]]
        with pytest.raises(DegenerateTriangle):
            TriMesh(verts, [[0, 1, 2], [0, 1, 3]])

    def test_non_manifold_edge(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]]
        faces = [[0, 1, 2], [0, 3, 1], [0, 1, 4]]
        with pytest.raises(NonManifoldEdge):
            TriMesh(verts, faces)

    def test_inconsistent_orientation(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]
        faces = [[0, 1, 2], [1, 3, 2]]
        TriMesh(verts, faces)  # consistent version is fine
        with pytest.raises(InconsistentOrientation):
            TriMesh(verts, [[0, 1, 2], [1, 2, 3]])

    def test_boundary_mesh_accepted(self, flat_grid):
        assert not flat_grid.is_closed
        assert flat_grid.boundary_edges.shape[0] > 0

    def test_closed_mesh_signed_normals_sum_to_zero(self, ico1):
        total = (ico1.face_normals * ico1.face_areas[:, None]).sum(axis=0)
        assert np.abs(total).max() < 1e-12 * ico1.total_area


class TestMass:
    def test_unit_square_masses_sum_to_one(self):
        mesh = TriMesh([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
                       [[0, 1, 2], [0, 2, 3]])
        assert abs(mesh.mass.sum() - 1.0) < 1e-12
        assert (mesh.mass > 0).all()

    def test_equilateral_triangle_thirds(self):
        # hand evaluation of the mixed-Voronoi rule on a non-obtuse
        # triangle: each corner gets (sqrt(3)/4)/3
        mesh = TriMesh([[0, 0, 0], [1, 0, 0], [0.5, math.sqrt(3) / 2, 0]],
                       [[0, 1, 2]])
        expected = (math.sqrt(3) / 4.0) / 3.0
        assert np.abs(mesh.mass - expected).max() < 1e-12
        assert abs(expected - 0.14434) < 5e-6

    def test_obtuse_triangle_split(self):
        # obtuse at vertex 0: area/2 there, area/4 at the others
        mesh = TriMesh([[0, 0.05, 0], [-1, 0, 0], [1, 0, 0]], [[0, 2, 1]])
        area = mesh.face_areas[0]
        assert abs(mesh.mass[0] - area / 2) < 1e-15
        assert abs(mesh.mass[1] - area / 4) < 1e-15
        assert abs(mesh.mass.sum() - area) < 1e-15

    def test_mass_sums_to_area(self, ico3, open_cylinder, flat_grid):
        for mesh in (ico3, open_cylinder, flat_grid):
            assert abs(mesh.mass.sum() - mesh.total_area) < 1e-10 * mesh.total_area

    def test_rigid_invariance(self, ico1):
        r = rotation_matrix([1, 2, 3], 0.7)
        moved = TriMesh(ico1.vertices @ r.T + np.array([3.0, -1.0, 2.0]),
                        ico1.faces.copy())
        assert np.abs(moved.mass - ico1.mass).max() < 1e-12
        assert np.abs(moved.face_areas - ico1.face_areas).max() < 1e-10

    def test_uniform_scale_squares_mass(self, ico1):
        s = 3.7
        scaled = TriMesh(ico1.vertices * s, ico1.faces.copy())
        assert np.abs(scaled.mass / ico1.mass - s * s).max() < 1e-10 * s * s

    def test_vertex_mass_matches_attribute(self, ico1):
        assert np.array_equal(vertex_mass(ico1), ico1.mass)


class TestHash:
    def test_content_hash_stable_and_sensitive(self, ico1):
        assert ico1.content_hash() == ico1.content_hash()
        moved = TriMesh(ico1.vertices + 1e-12, ico1.faces.copy())
        assert moved.content_hash() != ico1.content_hash()


TRIANGLE = "0 0 0\n1 0 0\n0 1 0\n"


class TestOffParsing:
    """Every error path of the OFF reader names its line."""

    @pytest.mark.parametrize("text, line, match", [
        ("", 1, "empty file"),
        ("# only a comment\n\n", 1, "empty file"),
        ("OFF\n", 1, "missing counts line"),
        ("OFF\n# no counts follow\n\n", 1, "missing counts line"),
        ("OFF\nthree 1 0\n", 2, "malformed counts line"),
        ("OFF\n3\n", 2, "needs vertex and face counts"),
        ("OFF\n3 1_0 0\n" + TRIANGLE + "3 0 1 2\n", 2, "malformed counts line"),
        ("OFF\n-1 1 0\n0 0 0\n", 2, "negative counts"),
        ("OFF 3\n", 1, "needs vertex and face counts"),
        ("OFF\n3 1 0\n0 0 0\n1 0 0\n", 4, "expected 3 vertices, got 2"),
        ("OFF\n3 1 0\n", 2, "expected 3 vertices, got 0"),
        ("OFF\n3 1 0\n0 0 0\n1 0\n0 1 0\n3 0 1 2\n", 4,
         "vertex line needs 3 coordinates"),
        ("OFF\n3 2 0\n" + TRIANGLE + "3 0 1 2\n", 6, "expected 2 faces, got 1"),
        ("OFF\n3 1 0\n" + TRIANGLE, 5, "expected 1 faces, got 0"),
        ("OFF\n3 1 0\n" + TRIANGLE + "3 0 x 2\n", 6, "malformed face index"),
        ("OFF\n3 1 0\n" + TRIANGLE + "3 0 1 99999999999999999999\n", 6,
         "malformed face index"),
        ("OFF\n3 1 0\n0 0 0\n1_0 0 0\n0 1 0\n3 0 1 2\n", 4,
         "malformed vertex line"),
        ("OFF\n3 1 0\n" + TRIANGLE + "3 0 1\n", 6, "needs 3 indices"),
        ("OFF\n3 1 0\n" + TRIANGLE + "x 0 1 2\n", 6, "malformed face line"),
        ("OFF\n3 1 0\n# c\n\n0 0 0\n1 0 0\n0 1 0\n\n# c\n3 0 1 x\n", 10,
         "malformed face index"),
        ("OFF\n3 1 0\n0 0 0\n# c\n1 e 0\n0 1 0\n3 0 1 2\n", 5,
         "malformed vertex line"),
        ("OFF\n3 1 0\n" + TRIANGLE + "3 0 1 5\n", 6,
         "face index 5 out of range for 3 vertices"),
        ("OFF\n3 1 0\n" + TRIANGLE + "3 0 1 3\n", 6,
         "face index 3 out of range for 3 vertices"),
        ("OFF\n4 2 0\n" + TRIANGLE + "0 0 1\n3 0 1 2\n# c\n\n3 -1 2 1\n",
         10, "face index -1 out of range for 4 vertices"),
    ])
    def test_error_names_its_line(self, tmp_path, text, line, match):
        with pytest.raises(ParseError, match=match) as err:
            load_mesh(write(tmp_path, "bad.off", text))
        assert err.value.line == line

    def test_blocks_longer_than_one_chunk(self, tmp_path, ico3):
        # 1280 faces, more than the writer's OFF_CHUNK rows per pass: the
        # reader parses the whole block at once and still names a late line
        assert ico3.n_faces > mesh_module.OFF_CHUNK
        path = tmp_path / "ico3.off"
        write_off(ico3, path)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, ico3.vertices)
        assert np.array_equal(back.faces, ico3.faces)
        lines = path.read_text().splitlines()
        bad = 2 + ico3.n_vertices + 1100   # index of a face past OFF_CHUNK
        lines[bad] = "3 0 1 oops"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="malformed face index") as err:
            load_mesh(path)
        assert err.value.line == bad + 1

    def test_face_of_four_names_its_line(self, tmp_path):
        text = "OFF\n3 1 0\n# c\n" + TRIANGLE + "\n4 0 1 2 0\n"
        with pytest.raises(NonTriangleFace, match=r"bad\.off:8: face with 4"):
            load_mesh(write(tmp_path, "bad.off", text))

    def test_counts_on_the_header_line(self, tmp_path):
        text = TETRA_OFF.replace("OFF\n4 4 6\n", "OFF 4 4 0\n")
        mesh = load_mesh(write(tmp_path, "tet.off", text))
        want = load_mesh(write(tmp_path, "want.off", TETRA_OFF))
        assert np.array_equal(mesh.vertices, want.vertices)
        assert np.array_equal(mesh.faces, want.faces)

    def test_comments_and_blank_lines_between_records(self, tmp_path):
        text = ("# header comment\nOFF # trailing\n\n4 4 6 # counts\n"
                "0 0 0\n  \n1 0 0 # vertex 1\n0 1 0\n\n# gap\n0 0 1\n"
                "3 0 2 1\n3 0 1 3\n# gap\n3 0 3 2\n\t\n3 1 2 3 # last\n")
        mesh = load_mesh(write(tmp_path, "tet.off", text))
        want = load_mesh(write(tmp_path, "want.off", TETRA_OFF))
        assert np.array_equal(mesh.vertices, want.vertices)
        assert np.array_equal(mesh.faces, want.faces)

    def test_vertex_colors_and_trailing_face_columns_ignored(self, tmp_path):
        text = ("OFF\n4 4 0\n0 0 0 255 0 0\n1 0 0 0.5 0.5 0.5 1\n0 1 0\n"
                "0 0 1 9\n3 0 2 1 7 7 7\n3 0 1 3\n3 0 3 2\n3 1 2 3\n")
        mesh = load_mesh(write(tmp_path, "tet.off", text))
        want = load_mesh(write(tmp_path, "want.off", TETRA_OFF))
        assert np.array_equal(mesh.vertices, want.vertices)
        assert np.array_equal(mesh.faces, want.faces)

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "tet.off"
        path.write_bytes(TETRA_OFF.replace("\n", "\r\n").encode())
        mesh = load_mesh(path)
        want = load_mesh(write(tmp_path, "want.off", TETRA_OFF))
        assert np.array_equal(mesh.vertices, want.vertices)
        assert np.array_equal(mesh.faces, want.faces)


OBJ_TRIANGLE = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
OBJ_TETRA = ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
             "f 1 3 2\nf 1 2 4\nf 1 4 3\nf 2 3 4\n")


def _read_outcome(read, path):
    """A reader's arrays, or the class, message and line of its error."""
    try:
        mesh = read(path)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return mesh.vertices.tobytes(), mesh.faces.tobytes()


class TestObjParsing:
    """The OBJ reader, on the shared line pass, gives the arrays or the error
    of the reference reader that walks the file line by line."""

    @pytest.mark.parametrize("text, error, line", [
        (OBJ_TETRA, None, None),
        ("# head\nv 0 0 0 # a\nv 1 0 0\n#v 9 9 9\nv 0 1 0\n"
         "v 0 0 1\nf 1 3 2 # b\nf 1 2 4\nf 1 4 3\nf 2 3 4\n", None, None),
        (OBJ_TRIANGLE + "f 1 2 3 # one face\n", None, None),
        (OBJ_TETRA.replace("\n", "\r\n"), None, None),
        (OBJ_TETRA.replace("\n", "\r"), None, None),
        ("\n\n" + OBJ_TETRA.replace("\n", "\n  \n\t\n") + "\n", None, None),
        ("vn 0 0 1\nvt 0 0\nusemtl skin\no tri\ns off\n" + OBJ_TRIANGLE
         + "g side\nf 1 2 3\n", None, None),
        (OBJ_TRIANGLE + "f 1/1/1 2//1 3/3\n", None, None),
        (OBJ_TRIANGLE + "v 1 1 0\nf 1 2 3 4\n", NonTriangleFace, None),
        ("v 0 0 0\n\nv 1 oops 0\nv 0 1 0\nf 1 2 3\n", ParseError, 3),
        ("v 0 0\n", ParseError, 1),
        (OBJ_TRIANGLE + "# c\nf 0 1 2\n", ParseError, 5),
        (OBJ_TRIANGLE + "f 1 x/1 3\n", ParseError, 4),
        (OBJ_TRIANGLE + "f 1 2 99999999999999999999\n", ParseError, 4),
        ("", ParseError, 1),
        ("# only a comment\n\n", ParseError, 1),
        (OBJ_TRIANGLE + "f -3 -2 -1\n", None, None),
        (OBJ_TRIANGLE + "f 1 2 -1\nv 1 1 0\nf -1 -2 -3\n", None, None),
        (OBJ_TRIANGLE + "f 1 2 -4\n", ParseError, 4),
        ("v 0 0 0\nv 1 0 0\nf -3 -2 -1\nv 0 1 0\n", ParseError, 3),
        (OBJ_TRIANGLE + "f 1 2 3\n# c\nf 1 2 4\n", ParseError, 6),
        (OBJ_TRIANGLE + "f 1 2 -4\nf 1 2 x\n", ParseError, 5),
        (OBJ_TRIANGLE + "f 1 2 -99999999999999999999\n", ParseError, 4),
    ])
    def test_matches_the_line_by_line_reader(self, tmp_path, text, error, line):
        path = tmp_path / "mesh.obj"
        path.write_bytes(text.encode())
        got = _read_outcome(load_mesh, path)
        assert got == _read_outcome(ref.read_obj, path)
        if error is None:
            assert len(got) == 2
        else:
            assert got[0] is error and got[2] == line

    def test_relative_indices_name_the_same_faces(self, tmp_path):
        # -k names the k-th most recent vertex before the face line
        text = ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
                "f -4 -2 -3\nf -4 -3 -1\nf -4 -1 -2\nf -3 -2 -1\n")
        got = load_mesh(write(tmp_path, "rel.obj", text))
        want = load_mesh(write(tmp_path, "tet.obj", OBJ_TETRA))
        assert np.array_equal(got.vertices, want.vertices)
        assert np.array_equal(got.faces, want.faces)


class TestVectorizedEdgesAndWriter:
    @pytest.mark.parametrize("name", ["ico3", "open_cylinder", "flat_grid"])
    def test_edges_match_rowwise_unique(self, request, name):
        mesh = request.getfixturevalue(name)
        edges, counts = ref.unique_edges(mesh.faces)
        assert np.array_equal(mesh.edges, edges)
        assert mesh.edges.dtype == np.int64
        assert np.array_equal(mesh.boundary_edges, edges[counts == 1])

    @pytest.mark.parametrize("res", [1, 3, 6])
    def test_bar_edges_match_rowwise_unique(self, res):
        mesh = wm.gen_base("bar", res)
        edges, _ = ref.unique_edges(mesh.faces)
        assert np.array_equal(mesh.edges, edges)

    def test_non_manifold_and_orientation_messages(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]]
        with pytest.raises(NonManifoldEdge,
                           match=r"edge \(0, 1\) has 3 incident faces"):
            TriMesh(verts, [[0, 1, 2], [0, 3, 1], [0, 1, 4]])
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]
        with pytest.raises(InconsistentOrientation,
                           match=r"edge \(1, 2\) traversed twice"):
            TriMesh(verts, [[0, 1, 2], [1, 2, 3]])

    def test_write_off_matches_per_line_writer(self, tmp_path):
        # write_off reads only the arrays and counts, so extreme values need
        # no valid geometry
        verts = np.array([[-0.0, 1e-300, 1.0 / 3.0],
                          [1e308, -1e308, 5e-324],
                          [0.1, -2.5, 123456789.125]])
        faces = np.array([[0, 1, 2], [2, 1, 0]], dtype=np.int64)
        extreme = types.SimpleNamespace(vertices=verts, faces=faces,
                                        n_vertices=3, n_faces=2)
        for mesh in (wm.gen_base("icosphere", 2), extreme):
            write_off(mesh, tmp_path / "got.off")
            ref.write_off(mesh, tmp_path / "want.off")
            got = (tmp_path / "got.off").read_bytes()
            assert got == (tmp_path / "want.off").read_bytes()
        assert got.splitlines()[2:4] == [b"-0.0 1e-300 0.3333333333333333",
                                         b"1e+308 -1e+308 5e-324"]
