"""BigTIFF round-trips, windowed reads, and >4 GiB offsets without the GiBs.

The >4 GiB fixture relies on :meth:`TiffStripWriter.skip_rows`: skipped
rows are seeked over, not written, so the file is logically huge but
sparse on disk (a few KiB of actual blocks) -- strip offsets past the
classic 32-bit limit get exercised without a multi-GB artifact.
"""

import struct

import numpy as np
import pytest

from repro.io.tiff import (
    TiffError,
    TiffReader,
    TiffStripWriter,
    read_tiff,
    write_tiff,
)


class TestBigTiffRoundTrip:
    def test_forced_bigtiff_roundtrips(self, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 65536, (41, 29)).astype(np.uint16)
        p = tmp_path / "big.tif"
        with TiffStripWriter(p, 41, 29, np.uint16, bigtiff=True) as w:
            w.write_rows(img[:17])
            w.write_rows(img[17:])
        assert p.read_bytes()[:4] == struct.pack("<2sH", b"II", 43)
        assert np.array_equal(read_tiff(p), img)

    def test_forced_bigtiff_uint8(self, tmp_path):
        img = np.arange(77, dtype=np.uint8).reshape(7, 11)
        p = tmp_path / "big8.tif"
        with TiffStripWriter(p, 7, 11, np.uint8, bigtiff=True) as w:
            w.write_rows(img)
        assert np.array_equal(read_tiff(p), img)

    def test_auto_stays_classic_for_small_images(self, tmp_path):
        p = tmp_path / "small.tif"
        with TiffStripWriter(p, 4, 4, np.uint16) as w:
            w.write_rows(np.zeros((4, 4), dtype=np.uint16))
        assert p.read_bytes()[:4] == struct.pack("<2sH", b"II", 42)

    def test_multi_strip_layout_roundtrips(self, tmp_path):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 65536, (23, 9)).astype(np.uint16)
        for big in (False, True):
            p = tmp_path / f"strips-{big}.tif"
            with TiffStripWriter(p, 23, 9, np.uint16,
                                 rows_per_strip=4, bigtiff=big) as w:
                w.write_rows(img[:10])  # bands need not align to strips
                w.write_rows(img[10:])
            assert np.array_equal(read_tiff(p), img)

    def test_classic_writer_rejects_huge_image(self, tmp_path):
        # 70k x 35k u16 = ~4.9 GB of pixels: classic offsets cannot
        # address it, and the error should say to use BigTIFF.
        with pytest.raises(TiffError, match="BigTIFF"):
            TiffStripWriter(tmp_path / "too-big.tif", 70_000, 35_000,
                            np.uint16, bigtiff=False)

    def test_auto_promotes_huge_image_to_bigtiff(self, tmp_path):
        p = tmp_path / "auto.tif"
        w = TiffStripWriter(p, 70_000, 35_000, np.uint16)  # bigtiff="auto"
        try:
            assert w.bigtiff
        finally:
            w._closed = True
            w._file.close()


class TestStripWriterBandLayouts:
    """``write_rows`` writes a band's own buffer when it can; the file must
    not be able to tell which layout the caller handed over."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    def test_file_bytes_independent_of_band_layout(self, tmp_path, dtype):
        rng = np.random.default_rng(11)
        img = rng.integers(0, np.iinfo(dtype).max + 1, (12, 9)).astype(dtype)
        wide = np.zeros((12, 18), dtype=dtype)
        wide[:, ::2] = img
        layouts = {
            "contiguous": img,
            "strided": wide[:, ::2],
            "fortran": np.asfortranarray(img),
            "big-endian": img.astype(np.dtype(dtype).newbyteorder(">")),
        }
        assert not layouts["strided"].flags.c_contiguous
        files = {}
        for name, band in layouts.items():
            p = tmp_path / f"{name}.tif"
            with TiffStripWriter(p, 12, 9, dtype, rows_per_strip=5) as w:
                w.write_rows(band[:7])
                w.write_rows(band[7:])
            files[name] = p.read_bytes()
            assert np.array_equal(read_tiff(p), img), name
        assert len(set(files.values())) == 1

    def test_other_dtypes_still_rejected(self, tmp_path):
        with TiffStripWriter(tmp_path / "x.tif", 2, 2, np.uint16) as w:
            with pytest.raises(ValueError, match="band dtype"):
                w.write_rows(np.zeros((2, 2), dtype=np.int16))
            w.write_rows(np.zeros((2, 2), dtype=np.uint16))


class TestSparseHugeOffsets:
    def test_offsets_past_4gib_roundtrip_sparse(self, tmp_path):
        """Strip offsets beyond 2**32 read back, with no multi-GB artifact.

        100k rows x 25k u16 columns = ~5 GB logical pixel data.  All rows
        but the first and last bands are skip_rows()-sparse, so the file
        consumes only a few data blocks on disk while its last strip
        offset sits past the classic 32-bit limit.
        """
        height, width = 100_000, 25_000
        rows_per_strip = 1000
        rng = np.random.default_rng(9)
        first = rng.integers(0, 65536, (8, width)).astype(np.uint16)
        last = rng.integers(0, 65536, (8, width)).astype(np.uint16)
        p = tmp_path / "huge.tif"
        with TiffStripWriter(p, height, width, np.uint16,
                             rows_per_strip=rows_per_strip) as w:
            assert w.bigtiff  # auto-promoted
            w.write_rows(first)
            w.skip_rows(height - 16)
            w.write_rows(last)

        logical = p.stat().st_size
        assert logical > 2**32  # the offsets really are past 4 GiB
        physical = p.stat().st_blocks * 512
        assert physical < 64 * 1024 * 1024  # sparse: no multi-GB artifact

        with TiffReader(p) as r:
            assert r.bigtiff
            assert (r.height, r.width) == (height, width)
            assert r.offsets[-1] > 2**32
            assert np.array_equal(r.read_rows(0, 8), first)
            assert np.array_equal(r.read_rows(height - 8, height), last)
            # Skipped region reads back as zeros.
            mid = r.read_rows(height // 2, height // 2 + 2)
            assert not mid.any()

    def test_skip_rows_validation(self, tmp_path):
        w = TiffStripWriter(tmp_path / "s.tif", 10, 4, np.uint16)
        with pytest.raises(ValueError, match="overruns"):
            w.skip_rows(11)
        with pytest.raises(ValueError):
            w.skip_rows(-1)
        w.skip_rows(10)
        w.close()
        assert not read_tiff(tmp_path / "s.tif").any()


class TestTiffReaderWindowed:
    def make(self, tmp_path, h=37, w=23, rows_per_strip=None,
             compression="none", seed=0):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 65536, (h, w)).astype(np.uint16)
        p = tmp_path / "img.tif"
        write_tiff(p, img, rows_per_strip=rows_per_strip,
                   compression=compression)
        return p, img

    @pytest.mark.parametrize("rows_per_strip", [None, 1, 5, 37, 100])
    @pytest.mark.parametrize("compression", ["none", "packbits"])
    def test_read_rows_any_window(self, tmp_path, rows_per_strip, compression):
        p, img = self.make(tmp_path, rows_per_strip=rows_per_strip,
                           compression=compression)
        with TiffReader(p) as r:
            for y0, y1 in [(0, 37), (0, 1), (36, 37), (3, 18), (17, 23)]:
                assert np.array_equal(r.read_rows(y0, y1), img[y0:y1])

    def test_read_region(self, tmp_path):
        p, img = self.make(tmp_path)
        with TiffReader(p) as r:
            got = r.read_region(5, 7, 11, 13)
            assert np.array_equal(got, img[5:16, 7:20])

    def test_window_validation(self, tmp_path):
        p, _ = self.make(tmp_path)
        with TiffReader(p) as r:
            with pytest.raises(ValueError):
                r.read_rows(5, 5)
            with pytest.raises(ValueError):
                r.read_rows(0, 38)
            with pytest.raises(ValueError):
                r.read_region(0, 20, 2, 10)

    def test_matches_read_tiff(self, tmp_path):
        p, img = self.make(tmp_path, compression="packbits")
        with TiffReader(p) as r:
            assert np.array_equal(r.read(), read_tiff(p))
            assert np.array_equal(r.read(), img)

    def test_big_endian_input(self, tmp_path):
        """MM files (big-endian) decode to native-endian arrays."""
        img = np.arange(12, dtype=np.uint16).reshape(3, 4)
        p = tmp_path / "mm.tif"
        entries = [
            (256, 4, 1, (4,)), (257, 4, 1, (3,)), (258, 3, 1, (16,)),
            (259, 3, 1, (1,)), (262, 3, 1, (1,)), (273, 4, 1, (None,)),
            (277, 3, 1, (1,)), (278, 4, 1, (3,)), (279, 4, 1, (24,)),
        ]
        data_off = 8 + 2 + 12 * len(entries) + 4
        blob = struct.pack(">2sHI", b"MM", 42, 8)
        blob += struct.pack(">H", len(entries))
        for tag, typ, count, (val,) in entries:
            v = data_off if val is None else val
            if typ == 3:
                blob += struct.pack(">HHIHH", tag, typ, count, v, 0)
            else:
                blob += struct.pack(">HHII", tag, typ, count, v)
        blob += struct.pack(">I", 0)
        blob += img.astype(">u2").tobytes()
        p.write_bytes(blob)
        got = read_tiff(p)
        assert got.dtype == np.uint16
        assert np.array_equal(got, img)
