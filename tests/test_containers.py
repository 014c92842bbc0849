import os

import numpy as np
import pytest

from wavemesh.containers import RowBlocks, read_container, write_container
from wavemesh.errors import CorruptCache


class TestRoundTrip:
    def test_arrays_and_meta(self, tmp_path):
        path = tmp_path / "x.spec"
        arrays = {
            "vals": np.linspace(0, 1, 7),
            "vecs": np.arange(12, dtype=np.float64).reshape(3, 4),
            "idx": np.array([3, 1, 2], dtype=np.int64),
        }
        meta = {"key": "abc", "k": 7, "nested": {"alpha": 50.0}}
        write_container(path, "SPEC1", arrays, meta=meta)
        back, back_meta = read_container(path, "SPEC1")
        assert back_meta == meta
        for name, arr in arrays.items():
            assert np.array_equal(back[name], arr)
            assert back[name].dtype == arr.dtype

    def test_no_meta(self, tmp_path):
        path = tmp_path / "x.fbk"
        write_container(path, "FBK1", {"a": np.zeros(2)})
        arrays, meta = read_container(path)
        assert meta is None
        assert "a" in arrays

    def test_no_temp_file_left(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_container(path, "CKPT1", {"a": np.ones(3)})
        assert not (tmp_path / "x.ckpt.tmp").exists()


def _blocks(arr, rows):
    return RowBlocks(arr.shape, arr.dtype,
                     (arr[i:i + rows] for i in range(0, arr.shape[0], rows)))


class TestRowBlocks:
    ROWS = np.random.default_rng(0).standard_normal((30, 11))

    @pytest.mark.parametrize("rows", [1, 7, 30, 64])
    def test_block_write_is_byte_identical(self, tmp_path, rows):
        whole, blocked = tmp_path / "whole.geo", tmp_path / "blocked.geo"
        meta = {"key": "k" * 64}
        write_container(whole, "GEO1", {"rows": self.ROWS}, meta)
        write_container(blocked, "GEO1", {"rows": _blocks(self.ROWS, rows)},
                        meta)
        assert blocked.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("blocks", [
        [ROWS[:10], ROWS[10:20]],           # too few rows
        [ROWS[:20], ROWS[10:]],             # too many rows
        [ROWS[:10], ROWS[10:, :5]],         # a block of the wrong width
    ])
    def test_blocks_that_do_not_fit_leave_no_file(self, tmp_path, blocks):
        path = tmp_path / "x.geo"
        with pytest.raises(ValueError):
            write_container(path, "GEO1", {"rows": RowBlocks(
                self.ROWS.shape, np.float64, iter(blocks))})
        assert list(tmp_path.iterdir()) == []

    def test_failing_block_source_leaves_no_file(self, tmp_path):
        def blocks():
            yield self.ROWS[:10]
            raise KeyboardInterrupt

        path = tmp_path / "x.geo"
        with pytest.raises(KeyboardInterrupt):
            write_container(path, "GEO1", {"rows": RowBlocks(
                self.ROWS.shape, np.float64, blocks())})
        assert list(tmp_path.iterdir()) == []


class TestPick:
    ROWS = TestRowBlocks.ROWS

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_picks_are_the_flat_elements(self, tmp_path, dtype):
        rows = (self.ROWS * 1e3).astype(dtype)
        path = tmp_path / "x.geo"
        write_container(path, "GEO1", {"rows": rows, "ids": np.arange(3)},
                        {"key": "k"})
        idx = np.random.default_rng(1).integers(0, rows.size, 50)
        idx[:4] = 0, rows.size - 1, idx[4], idx[4]  # both ends, a duplicate
        arrays, meta = read_container(path, "GEO1", pick={"rows": idx})
        assert meta == {"key": "k"}
        assert arrays["rows"].dtype == dtype
        assert np.array_equal(arrays["rows"], rows.reshape(-1)[idx])
        assert np.array_equal(arrays["ids"], np.arange(3))  # unpicked: whole

    def test_file_cut_inside_a_picked_array_raises_before_any_pread(
            self, tmp_path, monkeypatch):
        path = tmp_path / "x.geo"
        write_container(path, "GEO1", {"rows": self.ROWS})
        path.write_bytes(path.read_bytes()[:-8])
        reads = []
        monkeypatch.setattr(os, "pread", lambda *args: reads.append(args))
        with pytest.raises(CorruptCache, match="'rows' runs past the end"):
            read_container(path, "GEO1", pick={"rows": [0]})
        assert reads == []

    def test_file_that_shrinks_while_picked_is_corrupt(self, tmp_path,
                                                       monkeypatch):
        path = tmp_path / "x.geo"
        write_container(path, "GEO1", {"rows": self.ROWS})
        pread = os.pread

        def shrinking(fd, n, offset):
            os.truncate(path, offset)  # cut at the element being read
            return pread(fd, n, offset)

        monkeypatch.setattr(os, "pread", shrinking)
        with pytest.raises(CorruptCache, match="file shrank while read"):
            read_container(path, "GEO1", pick={"rows": [5, 3]})

    @pytest.mark.parametrize("index", [-1, 30 * 11])
    def test_pick_outside_its_array_raises_index_error(self, tmp_path, index):
        # the file is sound, so this is not a CorruptCache
        path = tmp_path / "x.geo"
        write_container(path, "GEO1", {"rows": self.ROWS})
        with pytest.raises(IndexError, match="outside array 'rows'"):
            read_container(path, "GEO1", pick={"rows": [0, index]})


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.spec"
        path.write_bytes(b"GARBAGE!" + b"\x00" * 100)
        with pytest.raises(CorruptCache):
            read_container(path)

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "x.spec"
        write_container(path, "FBK1", {"a": np.zeros(2)})
        with pytest.raises(CorruptCache):
            read_container(path, "SPEC1")

    def test_truncated(self, tmp_path):
        path = tmp_path / "x.spec"
        write_container(path, "SPEC1", {"a": np.arange(100.0)})
        blob = path.read_bytes()
        path.write_bytes(blob[:40])
        with pytest.raises(CorruptCache):
            read_container(path)

    def test_unsupported_version(self, tmp_path):
        # the u32 version follows the 8-byte magic
        path = tmp_path / "x.spec"
        write_container(path, "SPEC1", {"a": np.zeros(2)})
        blob = bytearray(path.read_bytes())
        blob[8:12] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptCache, match="unsupported version 2"):
            read_container(path, "SPEC1")

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorruptCache):
            read_container(tmp_path / "absent.spec")

    def test_unknown_kind_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError):
            write_container(tmp_path / "x", "NOPE", {"a": np.zeros(1)})
