import json
import math
import re
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

import wavemesh as wm
from wavemesh.errors import (
    ConfigInvalid,
    MagnitudeOutOfRange,
    ManifestInvalid,
    ParseError,
    ResolutionTooSmall,
)
from wavemesh.synth import (
    DatasetConfig,
    deform,
    cylinder,
    gen_base,
    isometry_distortion,
    load_manifest,
    make_dataset,
    read_indices,
    remesh,
)

from . import reference_meshes as ref
from .conftest import gt_distances


class TestBases:
    def test_icosphere_counts(self):
        for s in (0, 1, 2):
            mesh = gen_base("icosphere", s)
            assert mesh.n_vertices == 10 * 4**s + 2
            assert mesh.is_closed
        assert gen_base("icosphere", 0).n_faces == 20

    def test_icosphere_unit_radius(self):
        mesh = gen_base("icosphere", 2)
        assert np.abs(np.linalg.norm(mesh.vertices, axis=1) - 1).max() < 1e-12

    def test_bar_closed_and_sized(self):
        mesh = gen_base("bar", 3)
        assert mesh.is_closed
        ext = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
        assert abs(ext[0] / ext[1] - 8.0) < 1e-9

    def test_cylinder_open_by_default(self):
        mesh = gen_base("cylinder", 2)
        assert not mesh.is_closed

    def test_resolution_too_small(self):
        with pytest.raises(ResolutionTooSmall):
            gen_base("bar", 0)
        with pytest.raises(ResolutionTooSmall):
            gen_base("icosphere", -1)

    def test_unknown_kind(self):
        with pytest.raises(ConfigInvalid):
            gen_base("torus", 2)

    def test_keyword_arguments_rejected(self):
        # a base generator takes no keyword arguments; one must not be
        # dropped silently
        with pytest.raises(TypeError):
            gen_base("bar", 2, caps=True)

    def test_outward_orientation(self):
        # positive enclosed volume means consistently outward normals
        for kind, res in (("icosphere", 1), ("bar", 2)):
            mesh = gen_base(kind, res)
            tri = mesh.vertices[mesh.faces]
            volume = np.einsum("ij,ij->i", tri[:, 0],
                               np.cross(tri[:, 1], tri[:, 2])).sum() / 6.0
            assert volume > 0

    def test_cylinder_orientation_and_topology(self):
        # resolution 2: 16 vertices around each of 9 rings
        mesh = cylinder(2)
        assert mesh.n_vertices == 16 * 9
        assert mesh.n_faces == 2 * 16 * 8
        centroid = mesh.vertices[mesh.faces].mean(axis=1)
        outward = np.einsum("ij,ij->i", mesh.face_normals[:, :2],
                            centroid[:, :2])
        assert (outward > 0).all()
        assert mesh.n_vertices - mesh.n_edges + mesh.n_faces == 0
        assert not mesh.is_closed


class TestDeform:
    def test_zero_magnitude_identity(self):
        bar = gen_base("bar", 2)
        for mode in ("bend", "twist"):
            out = deform(bar, mode, 0.0)
            assert np.array_equal(out.vertices, bar.vertices)
            assert isometry_distortion(bar, out) == 0.0

    def test_bend_45_degrees_near_isometric(self):
        # aspect-8 bar bent by pi/4 stays within 5% edge-length change
        bar = gen_base("bar", 3)
        bent = deform(bar, "bend", math.pi / 4)
        assert isometry_distortion(bar, bent) < 0.05

    def test_twist_untwist_restores(self):
        bar = gen_base("bar", 2)
        twisted = deform(bar, "twist", 0.3)
        restored = deform(twisted, "twist", -0.3)
        assert np.abs(restored.vertices - bar.vertices).max() < 1e-9

    def test_magnitude_out_of_range(self):
        bar = gen_base("bar", 2)
        with pytest.raises(MagnitudeOutOfRange):
            deform(bar, "bend", math.pi / 2 + 0.1)
        with pytest.raises(MagnitudeOutOfRange):
            deform(bar, "twist", math.pi + 0.1)

    def test_unknown_mode(self):
        with pytest.raises(ConfigInvalid):
            deform(gen_base("bar", 2), "stretch", 0.1)

    def test_connectivity_unchanged(self):
        bar = gen_base("bar", 2)
        bent = deform(bar, "bend", 0.5)
        assert np.array_equal(bent.faces, bar.faces)


class TestRemesh:
    def test_icosahedron_counts(self, ico0):
        refined, gt_map = remesh(ico0)
        assert refined.n_vertices == 12 + 30
        assert refined.n_faces == 80
        assert gt_map.shape == (42,)

    def test_gt_map_identity_on_originals(self, ico1):
        refined, gt_map = remesh(ico1)
        n = ico1.n_vertices
        assert np.array_equal(gt_map[:n], np.arange(n))

    def test_midpoints_map_to_smaller_endpoint(self, ico1):
        refined, gt_map = remesh(ico1)
        n = ico1.n_vertices
        assert np.array_equal(gt_map[n:], ico1.edges.min(axis=1))

    def test_surface_unchanged_pointwise(self, ico0):
        refined, _ = remesh(ico0)
        n = ico0.n_vertices
        mids = 0.5 * (ico0.vertices[ico0.edges[:, 0]]
                      + ico0.vertices[ico0.edges[:, 1]])
        assert np.array_equal(refined.vertices[:n], ico0.vertices)
        assert np.abs(refined.vertices[n:] - mids).max() == 0.0

    def test_snap_error_bound(self, ico1):
        # the gt map moves each new vertex at most half the longest edge
        refined, gt_map = remesh(ico1)
        jump = np.linalg.norm(
            refined.vertices - ico1.vertices[gt_map], axis=1)
        assert jump.max() <= 0.5 * ico1.edge_lengths().max() + 1e-12

    def test_refined_mesh_valid_and_evaluates_clean(self, ico1):
        refined, gt_map = remesh(ico1)
        assert refined.is_closed
        result = wm.evaluate(gt_distances(ico1, gt_map, gt_map), ico1,
                             [0.0])
        assert result.average_geodesic_error == 0.0


class TestDataset:
    def test_split_counts_and_labels(self, tmp_path):
        config = DatasetConfig(
            base="bar", resolution=1,
            deformations=tuple(("bend", 0.15 * i) for i in range(1, 6)),
            holdout=1, split_seed=0)
        manifest = make_dataset(config, tmp_path)
        assert len(manifest["training"]) == 4
        assert len(manifest["pairs"]) == 1
        labels = read_indices(tmp_path / manifest["training"][0]["labels"])
        template = wm.load_mesh(tmp_path / manifest["template"]["mesh"])
        assert np.array_equal(labels, np.arange(template.n_vertices))

    def test_remesh_holdout_pairs(self, tmp_path):
        config = DatasetConfig(
            base="bar", resolution=1,
            deformations=(("bend", 0.2), ("bend", 0.4), ("twist", 0.3)),
            holdout=1, split_seed=1, remesh_holdout=True)
        manifest = make_dataset(config, tmp_path)
        kinds = sorted(p["kind"] for p in manifest["pairs"])
        assert kinds == ["deformed", "remeshed"]

    def test_manifest_roundtrip(self, tmp_path):
        config = DatasetConfig(
            base="bar", resolution=1,
            deformations=(("bend", 0.2), ("twist", 0.3)),
            holdout=1, split_seed=3)
        written = make_dataset(config, tmp_path)
        loaded = load_manifest(tmp_path / "manifest.json")
        assert loaded == json.loads(json.dumps(written))

    def test_every_generated_mesh_validates(self, tmp_path):
        config = DatasetConfig(
            base="cylinder", resolution=1,
            deformations=(("bend", 0.3), ("twist", 0.5)),
            holdout=1, split_seed=0, remesh_holdout=True)
        manifest = make_dataset(config, tmp_path)
        files = {manifest["template"]["mesh"]}
        files.update(e["mesh"] for e in manifest["training"])
        files.update(p["target"] for p in manifest["pairs"])
        for f in files:
            wm.load_mesh(tmp_path / f)  # constructor validates

    def test_deformation_pairs_report_distortion(self, tmp_path):
        config = DatasetConfig(
            base="bar", resolution=1,
            deformations=(("bend", 0.2), ("twist", 0.3)),
            holdout=1, split_seed=3)
        manifest = make_dataset(config, tmp_path)
        pair = manifest["pairs"][0]
        assert pair["kind"] == "deformed"
        assert np.isfinite(pair["distortion"])

    def test_config_validation(self):
        with pytest.raises(ConfigInvalid):
            DatasetConfig(base="bar", deformations=()).validate()
        with pytest.raises(ConfigInvalid):
            DatasetConfig(base="nope",
                          deformations=(("bend", 0.1),)).validate()
        with pytest.raises(ConfigInvalid):
            DatasetConfig(base="bar", deformations=(("bend", 0.1),),
                          holdout=1).validate()

    def test_manifest_invalid(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text("{not json")
        with pytest.raises(ManifestInvalid):
            load_manifest(bad)
        bad.write_text(json.dumps({"template": {}}))
        with pytest.raises(ManifestInvalid):
            load_manifest(bad)

    @pytest.mark.parametrize("text, line", [
        ("0\nx\n2\n", 2),
        ("0\n# c\n\n1 7\n", 4),
        ("0\n1\n99999999999999999999\n", 3),
    ], ids=["not-an-integer", "two-columns", "beyond-int64"])
    def test_bad_index_line_names_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "gt_0.txt"
        path.write_text(text)
        where = f"^{re.escape(str(path))}:{line}: "
        with pytest.raises(ParseError, match=where) as err:
            read_indices(path)
        assert err.value.line == line

    def test_empty_index_file_reads_as_empty_vector(self, tmp_path):
        path = tmp_path / "labels_0.txt"
        path.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = read_indices(path)
        assert got.dtype == np.int64 and got.shape == (0,)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestVectorizedGenerators:
    """The NumPy generators reproduce the per-element references bit for bit."""

    @pytest.mark.parametrize("res", [1, 2, 3, 6, 10])
    def test_bar_matches_lattice_dict(self, res):
        got, want = gen_base("bar", res), ref.bar(res)
        assert same_bits(got.vertices, want.vertices)
        assert same_bits(got.faces, want.faces)

    @pytest.mark.parametrize("res", [1, 2, 3, 5])
    def test_cylinder_matches_nested_loops(self, res):
        got = cylinder(res)
        want = ref.cylinder(res)
        assert same_bits(got.vertices, want.vertices)
        assert same_bits(got.faces, want.faces)

    @pytest.mark.parametrize("s", [0, 1, 2, 3, 4])
    def test_icosphere_is_the_midpoint_dict_relabelled(self, s):
        # the remesh-based icosphere numbers midpoints by edge, the
        # reference by first visit: nearest vertices must pair them one to
        # one, and the faces must agree under that pairing in order
        got, want = gen_base("icosphere", s), ref.icosphere(s)
        gap, match = cKDTree(want.vertices).query(got.vertices)
        assert np.array_equal(np.sort(match), np.arange(want.n_vertices))
        assert gap.max() <= 4e-16
        assert np.array_equal(match[got.faces], want.faces)
        assert same_bits(got.vertices[:12], want.vertices[:12])
        assert np.array_equal(match[:12], np.arange(12))

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_icosphere_keeps_every_coarser_level(self, s):
        # remesh keeps vertices 0..n-1, and only the midpoints are projected
        fine, coarse = gen_base("icosphere", s), gen_base("icosphere", s - 1)
        assert same_bits(fine.vertices[:coarse.n_vertices], coarse.vertices)
        mids = fine.vertices[coarse.n_vertices:]
        assert np.abs(np.linalg.norm(mids, axis=1) - 1.0).max() < 1e-15

    @pytest.mark.parametrize("res", [1, 2, 3, 6, 10])
    def test_remesh_matches_per_face_loop(self, res):
        base = deform(gen_base("bar", res), "twist", 0.4)
        got, got_map = remesh(base)
        want, want_map = ref.remesh(base)
        assert same_bits(got.vertices, want.vertices)
        assert same_bits(got.faces, want.faces)
        assert same_bits(got_map, want_map)

    def test_remesh_matches_on_open_and_spherical_meshes(self, ico1,
                                                         open_cylinder):
        for mesh in (ico1, open_cylinder):
            got, got_map = remesh(mesh)
            want, want_map = ref.remesh(mesh)
            assert same_bits(got.faces, want.faces)
            assert same_bits(got.vertices, want.vertices)
            assert same_bits(got_map, want_map)

    def test_dataset_files_match_reference_writers(self, tmp_path):
        config = DatasetConfig(
            base="bar", resolution=2,
            deformations=(("bend", 0.3), ("twist", 0.5), ("bend", -0.2)),
            holdout=1, split_seed=0, remesh_holdout=True)
        manifest = make_dataset(config, tmp_path / "new")
        files = {manifest["template"]["mesh"]}
        files.update(e["mesh"] for e in manifest["training"])
        files.update(p["target"] for p in manifest["pairs"])
        for f in sorted(files):
            mesh = wm.load_mesh(tmp_path / "new" / f)
            ref.write_off(mesh, tmp_path / "want.off")
            assert ((tmp_path / "new" / f).read_bytes()
                    == (tmp_path / "want.off").read_bytes())
        for entry in manifest["training"]:
            labels = read_indices(tmp_path / "new" / entry["labels"])
            ref.write_indices(labels, tmp_path / "want.txt")
            assert ((tmp_path / "new" / entry["labels"]).read_bytes()
                    == (tmp_path / "want.txt").read_bytes())


def _rotated_faces(faces):
    """The faces with each rotated to begin at its smallest index, in
    lexicographic order: equal for two face lists that hold the same
    triangles with the same orientation, in any order."""
    turn = (faces.argmin(axis=1)[:, None] + np.arange(3)) % 3
    rotated = np.take_along_axis(faces, turn, axis=1)
    return rotated[np.lexsort(rotated.T[::-1])]


class TestNesting:
    """The lattices nest under doubling, so a per-vertex quantity of a shape
    at r and at 2r compares at their shared vertices without interpolation.
    (The cylinder's remesh does not give cylinder(2r): its midpoints lie on
    chords, not on the circle.)"""

    @pytest.mark.parametrize("res", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["bar", "cylinder"])
    def test_every_vertex_is_a_vertex_at_twice_the_resolution(self, kind,
                                                               res):
        fine = {tuple(v) for v in gen_base(kind, 2 * res).vertices.tolist()}
        assert all(tuple(v) in fine
                   for v in gen_base(kind, res).vertices.tolist())

    @pytest.mark.parametrize("res", [1, 2, 3])
    def test_remeshed_bar_is_the_bar_at_twice_the_resolution(self, res):
        refined, _ = remesh(gen_base("bar", res))
        fine = gen_base("bar", 2 * res)
        assert refined.n_vertices == fine.n_vertices
        # a midpoint may differ from its lattice point in the last bit
        gap, match = cKDTree(fine.vertices).query(refined.vertices)
        assert gap.max() <= 1e-15
        assert np.array_equal(np.sort(match), np.arange(fine.n_vertices))
        assert np.array_equal(_rotated_faces(match[refined.faces]),
                              _rotated_faces(fine.faces))
