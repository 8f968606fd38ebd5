"""TIFF codec: roundtrip, structure, and malformed-input rejection."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.io.tiff import TiffError, read_tiff, write_tiff


class TestRoundtrip:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    def test_exact_roundtrip(self, tmp_path, dtype):
        rng = np.random.default_rng(0)
        a = rng.integers(0, np.iinfo(dtype).max, (33, 47)).astype(dtype)
        p = tmp_path / "t.tif"
        write_tiff(p, a)
        b = read_tiff(p)
        assert b.dtype == dtype
        assert np.array_equal(a, b)

    def test_description_roundtrip(self, tmp_path):
        a = np.zeros((4, 4), dtype=np.uint16)
        p = tmp_path / "t.tif"
        write_tiff(p, a, description="r=3 c=7 overlap=0.1")
        _, desc = read_tiff(p, return_description=True)
        assert desc == "r=3 c=7 overlap=0.1"

    def test_no_description_reads_empty(self, tmp_path):
        p = tmp_path / "t.tif"
        write_tiff(p, np.zeros((4, 4), dtype=np.uint8))
        _, desc = read_tiff(p, return_description=True)
        assert desc == ""

    def test_multi_strip_layout(self, tmp_path):
        # Force many small strips; data must reassemble exactly.
        a = np.arange(64 * 64, dtype=np.uint16).reshape(64, 64)
        p = tmp_path / "t.tif"
        write_tiff(p, a, rows_per_strip=3)
        assert np.array_equal(read_tiff(p), a)

    def test_single_row_image(self, tmp_path):
        a = np.arange(100, dtype=np.uint16).reshape(1, 100)
        p = tmp_path / "t.tif"
        write_tiff(p, a)
        assert np.array_equal(read_tiff(p), a)

    @settings(max_examples=30, deadline=None)
    @given(
        h=st.integers(min_value=1, max_value=40),
        w=st.integers(min_value=1, max_value=40),
        bits=st.sampled_from([8, 16]),
        rps=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_roundtrip_property(self, tmp_path_factory, h, w, bits, rps, seed):
        dtype = np.uint8 if bits == 8 else np.uint16
        rng = np.random.default_rng(seed)
        a = rng.integers(0, np.iinfo(dtype).max + 1, (h, w)).astype(dtype)
        p = tmp_path_factory.mktemp("prop") / "t.tif"
        write_tiff(p, a, rows_per_strip=rps)
        assert np.array_equal(read_tiff(p), a)


class TestBigEndianRead:
    def test_reads_motorola_order(self, tmp_path):
        """Hand-built big-endian file (as MM-order microscopes emit)."""
        h, w = 2, 3
        pixels = np.array([[1, 2, 3], [4, 500, 60000]], dtype=np.uint16)
        data = pixels.astype(">u2").tobytes()
        entries = [
            (256, 3, 1, w), (257, 3, 1, h), (258, 3, 1, 16),
            (259, 3, 1, 1), (262, 3, 1, 1),
            (273, 4, 1, None),  # strip offset patched below
            (277, 3, 1, 1), (278, 4, 1, h), (279, 4, 1, len(data)),
        ]
        ifd_off = 8
        data_off = ifd_off + 2 + 12 * len(entries) + 4
        blob = struct.pack(">2sHI", b"MM", 42, ifd_off)
        blob += struct.pack(">H", len(entries))
        for tag, typ, cnt, val in entries:
            if val is None:
                val = data_off
            if typ == 3:
                blob += struct.pack(">HHIHH", tag, typ, cnt, val, 0)
            else:
                blob += struct.pack(">HHII", tag, typ, cnt, val)
        blob += struct.pack(">I", 0) + data
        p = tmp_path / "mm.tif"
        p.write_bytes(blob)
        assert np.array_equal(read_tiff(p), pixels)


class TestWriterValidation:
    def test_rejects_3d(self, tmp_path):
        with pytest.raises(ValueError):
            write_tiff(tmp_path / "t.tif", np.zeros((2, 2, 3), dtype=np.uint8))

    def test_rejects_float(self, tmp_path):
        with pytest.raises(ValueError):
            write_tiff(tmp_path / "t.tif", np.zeros((2, 2), dtype=np.float32))

    @pytest.mark.parametrize("shape,options,match", [
        ((0, 5), {}, "bad dimensions"),        # was ZeroDivisionError
        ((5, 0), {}, "bad dimensions"),        # wrote a file read_tiff rejects
        ((5, 5), {"rows_per_strip": 0}, "rows_per_strip"),   # ZeroDivisionError
        ((5, 5), {"rows_per_strip": -1}, "rows_per_strip"),  # struct.error
    ])
    def test_rejects_empty_image_or_strip(self, tmp_path, shape, options, match):
        with pytest.raises(ValueError, match=match):
            write_tiff(tmp_path / "t.tif", np.zeros(shape, np.uint8), **options)
        assert not (tmp_path / "t.tif").exists()


class TestMalformedInputs:
    def write_valid(self, tmp_path):
        p = tmp_path / "t.tif"
        write_tiff(p, np.arange(16, dtype=np.uint16).reshape(4, 4))
        return p

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "t.tif"
        p.write_bytes(b"II\x2a\x00")
        with pytest.raises(TiffError, match="too small"):
            read_tiff(p)

    def test_bad_byte_order(self, tmp_path):
        p = tmp_path / "t.tif"
        p.write_bytes(b"XX" + b"\x00" * 20)
        with pytest.raises(TiffError, match="byte-order"):
            read_tiff(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "t.tif"
        p.write_bytes(struct.pack("<2sHI", b"II", 44, 8) + b"\x00" * 16)
        with pytest.raises(TiffError, match="magic"):
            read_tiff(p)

    def test_bad_bigtiff_header(self, tmp_path):
        p = tmp_path / "t.tif"
        # Magic 43 is BigTIFF, but the offset size must be 8.
        p.write_bytes(struct.pack("<2sHHH", b"II", 43, 4, 0) + b"\x00" * 16)
        with pytest.raises(TiffError, match="BigTIFF"):
            read_tiff(p)

    def test_truncated_pixel_data(self, tmp_path):
        p = self.write_valid(tmp_path)
        blob = p.read_bytes()
        p.write_bytes(blob[:-8])  # chop the last strip bytes
        with pytest.raises(TiffError, match="truncated"):
            read_tiff(p)

    def test_unsupported_compression(self, tmp_path):
        p = self.write_valid(tmp_path)
        blob = bytearray(p.read_bytes())
        # Patch the Compression tag value (find tag 259 in the IFD).
        n = struct.unpack_from("<H", blob, 8)[0]
        for i in range(n):
            off = 10 + 12 * i
            tag = struct.unpack_from("<H", blob, off)[0]
            if tag == 259:
                struct.pack_into("<H", blob, off + 8, 5)  # LZW
        p.write_bytes(bytes(blob))
        with pytest.raises(TiffError, match="compression"):
            read_tiff(p)

    def test_strip_size_mismatch_detected(self, tmp_path):
        p = self.write_valid(tmp_path)
        blob = bytearray(p.read_bytes())
        n = struct.unpack_from("<H", blob, 8)[0]
        for i in range(n):
            off = 10 + 12 * i
            tag = struct.unpack_from("<H", blob, off)[0]
            if tag == 257:  # claim more rows than the strips hold
                struct.pack_into("<I", blob, off + 8, 400)
        p.write_bytes(bytes(blob))
        with pytest.raises(TiffError):
            read_tiff(p)


def _striped_tiff(pixels, rows_per_strip, bo="<", placement=None, gap=0):
    """Hand-built classic TIFF whose strips sit where the test puts them.

    ``placement`` is the order the strips are laid out in the file
    (default: image order, i.e. one file-contiguous run); ``gap`` bytes of
    filler follow every strip.  Returns ``(blob, offsets, counts)``.
    """
    h, w = pixels.shape
    bits = pixels.dtype.itemsize * 8
    strips = [
        pixels[r : r + rows_per_strip].astype(bo + f"u{bits // 8}").tobytes()
        for r in range(0, h, rows_per_strip)
    ]
    n = len(strips)
    placement = list(range(n)) if placement is None else placement
    entries = [
        (256, 4, 1, (w,)), (257, 4, 1, (h,)), (258, 3, 1, (bits,)),
        (259, 3, 1, (1,)), (262, 3, 1, (1,)), (273, 4, n, None),
        (277, 3, 1, (1,)), (278, 4, 1, (rows_per_strip,)),
        (279, 4, n, tuple(len(s) for s in strips)),
    ]
    tables_at = 8 + 2 + 12 * len(entries) + 4
    data_at = tables_at + 2 * 4 * n
    offsets = [0] * n
    pos = data_at
    body = b""
    for s in placement:
        offsets[s] = pos
        body += strips[s] + b"\xee" * gap
        pos += len(strips[s]) + gap
    ifd = struct.pack(bo + "H", len(entries))
    overflow = b""
    for tag, typ, cnt, vals in entries:
        vals = tuple(offsets) if vals is None else vals
        payload = struct.pack(bo + {3: "H", 4: "I"}[typ] * cnt, *vals)
        if len(payload) <= 4:
            ifd += struct.pack(bo + "HHI", tag, typ, cnt) + payload.ljust(4, b"\0")
        else:
            ifd += struct.pack(bo + "HHII", tag, typ, cnt,
                               tables_at + len(overflow))
            overflow += payload
    mark = b"II" if bo == "<" else b"MM"
    blob = (struct.pack(bo + "2sHI", mark, 42, 8) + ifd
            + struct.pack(bo + "I", 0) + overflow + body)
    return blob, offsets, [len(s) for s in strips]


class TestCoalescedStripReads:
    """Uncompressed strips that follow each other in the file are fetched
    in one read; every layout must still decode to the same pixels."""

    pixels = np.arange(23 * 7, dtype=np.uint16).reshape(23, 7) * 257

    def read(self, tmp_path, blob):
        p = tmp_path / "t.tif"
        p.write_bytes(blob)
        return read_tiff(p)

    @pytest.mark.parametrize("bo", ["<", ">"])
    def test_contiguous_run_either_byte_order(self, tmp_path, bo):
        blob, _, _ = _striped_tiff(self.pixels, 3, bo=bo)
        got = self.read(tmp_path, blob)
        assert got.dtype == np.uint16 and got.dtype.isnative
        assert np.array_equal(got, self.pixels)

    @pytest.mark.parametrize("bo", ["<", ">"])
    def test_non_contiguous_strips(self, tmp_path, bo):
        # Reversed on disk with filler between: no two strips form a run.
        n = -(-23 // 3)
        blob, offsets, _ = _striped_tiff(
            self.pixels, 3, bo=bo, placement=list(range(n))[::-1], gap=5)
        assert offsets == sorted(offsets, reverse=True)
        assert np.array_equal(self.read(tmp_path, blob), self.pixels)

    def test_runs_broken_in_the_middle(self, tmp_path):
        # Strips 0-2 contiguous, then a jump, then 3-7 contiguous.
        blob, _, _ = _striped_tiff(
            self.pixels, 3, placement=[3, 4, 5, 6, 7, 0, 1, 2])
        assert np.array_equal(self.read(tmp_path, blob), self.pixels)

    def test_windowed_rows_from_a_run(self, tmp_path):
        from repro.io.tiff import TiffReader

        blob, _, _ = _striped_tiff(self.pixels, 3, bo=">")
        p = tmp_path / "t.tif"
        p.write_bytes(blob)
        with TiffReader(p) as reader:
            assert np.array_equal(reader.read_rows(4, 17), self.pixels[4:17])

    def test_file_truncated_mid_run(self, tmp_path):
        blob, offsets, counts = _striped_tiff(self.pixels, 3)
        cut = offsets[4] + counts[4] // 2  # inside the run's fifth strip
        with pytest.raises(TiffError, match="truncated"):
            self.read(tmp_path, blob[:cut])

    def test_byte_count_mismatch_inside_a_run(self, tmp_path):
        blob, _, counts = _striped_tiff(self.pixels, 3)
        blob = bytearray(blob)
        # StripByteCounts is the second table of the overflow area.
        tables_at = 8 + 2 + 12 * 9 + 4
        at = tables_at + 4 * len(counts) + 4 * 2
        struct.pack_into("<I", blob, at, counts[2] - 2)
        with pytest.raises(TiffError, match="size mismatch"):
            self.read(tmp_path, bytes(blob))

    def test_strip_table_truncated_mid_run(self, tmp_path):
        # The offsets table promises eight strips but the file ends inside
        # it: the IFD read must fail typed, before any pixel read.
        blob, _, _ = _striped_tiff(self.pixels, 3)
        tables_at = 8 + 2 + 12 * 9 + 4
        with pytest.raises(TiffError, match="truncated"):
            self.read(tmp_path, blob[: tables_at + 4 * 3])
