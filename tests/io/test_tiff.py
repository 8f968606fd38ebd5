"""TIFF codec: roundtrip, structure, and malformed-input rejection."""

import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.io import tiff
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

    def test_whole_image_is_one_read(self, tmp_path):
        """Back-to-back strips: no per-strip work, one read."""
        from repro.io.tiff import TiffReader

        blob, _, _ = _striped_tiff(self.pixels, 3)
        p = tmp_path / "t.tif"
        p.write_bytes(blob)
        with TiffReader(p) as reader:
            reads = []
            f = reader._f

            class Counting:
                def __getattr__(self, name):
                    return getattr(f, name)

                def readinto(self, buf):
                    reads.append(len(buf))
                    return f.readinto(buf)

            checked = []
            check = reader._check_strip
            reader._f = Counting()
            reader._check_strip = lambda s: checked.append(s) or check(s)
            assert np.array_equal(reader.read(), self.pixels)
            assert reads == [self.pixels.nbytes]
            assert checked == []  # the table was validated as a whole

    @pytest.mark.parametrize("bad", [
        {2: ("count", -2), 5: ("offset", 10**6)},
        {1: ("offset", 10**6), 4: ("count", 2)},
        {6: ("count", 1), 7: ("offset", 3)},
    ])
    def test_first_bad_strip_names_the_error(self, tmp_path, bad):
        """The strip table is validated at once, and the error is the one
        the first bad strip raises on its own."""
        from repro.io.tiff import TiffReader

        blob, offsets, counts = _striped_tiff(self.pixels, 3)
        blob = bytearray(blob)
        tables_at = 8 + 2 + 12 * 9 + 4
        for s, (field, delta) in bad.items():
            if field == "offset":
                struct.pack_into("<I", blob, tables_at + 4 * s,
                                 offsets[s] + delta)
            else:
                at = tables_at + 4 * len(counts) + 4 * s
                struct.pack_into("<I", blob, at, counts[s] + delta)
        p = tmp_path / "t.tif"
        p.write_bytes(bytes(blob))
        with TiffReader(p) as reader:
            with pytest.raises(TiffError) as first:
                reader._check_strip(min(bad))
            for s in range(min(bad)):
                reader._check_strip(s)  # every earlier strip is fine
            with pytest.raises(TiffError) as got:
                reader.read()
        assert str(got.value) == str(first.value)

    def test_strip_table_truncated_mid_run(self, tmp_path):
        # The offsets table promises eight strips but the file ends inside
        # it: the IFD read must fail typed, before any pixel read.
        blob, _, _ = _striped_tiff(self.pixels, 3)
        tables_at = 8 + 2 + 12 * 9 + 4
        with pytest.raises(TiffError, match="truncated"):
            self.read(tmp_path, blob[: tables_at + 4 * 3])


class TestBoundedReads:
    """No length field of the file sizes a read or a buffer past the file."""

    def test_huge_tag_count_fails_typed_without_allocating(self, tmp_path):
        p = tmp_path / "t.tif"
        write_tiff(p, np.zeros((4, 4), dtype=np.uint16))
        blob = bytearray(p.read_bytes())
        (ifd,) = struct.unpack_from("<I", blob, 4)
        (n,) = struct.unpack_from("<H", blob, ifd)
        for entry in range(ifd + 2, ifd + 2 + 12 * n, 12):
            if struct.unpack_from("<H", blob, entry)[0] == 256:  # ImageWidth
                struct.pack_into("<I", blob, entry + 4, 2**30)  # 4 GiB of LONGs
        p.write_bytes(bytes(blob))
        tracemalloc.start()
        try:
            with pytest.raises(TiffError, match="truncated"):
                read_tiff(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_width_past_the_strips_fails_before_the_window(self, tmp_path):
        p = tmp_path / "t.tif"
        write_tiff(p, np.zeros((30, 40), dtype=np.uint16),
                   compression="packbits")
        blob = bytearray(p.read_bytes())
        (ifd,) = struct.unpack_from("<I", blob, 4)
        struct.pack_into("<I", blob, ifd + 2 + 8, 2**31)  # ImageWidth value
        p.write_bytes(bytes(blob))
        with pytest.raises(TiffError, match="cannot decode"):
            read_tiff(p)

    @pytest.mark.parametrize("compression", ["none", "packbits"])
    def test_seeded_mutations_decode_or_fail_typed(self, tmp_path, compression):
        """Groundwork for parser fuzzing: 1-4 random byte writes into a
        valid file either still decode or raise :class:`TiffError` --
        never ``MemoryError``, ``struct.error`` or another crash."""
        outcomes = {"decoded": 0, "TiffError": 0}
        for _src, p in seeded_mutations(tmp_path, compression):
            try:
                read_tiff(p)
                outcomes["decoded"] += 1
            except TiffError:
                outcomes["TiffError"] += 1
        assert outcomes["decoded"] and outcomes["TiffError"]


def seeded_mutations(tmp_path, compression):
    """``(clean file, mutated file)`` 2000 times: 1-4 random byte writes
    into a valid file, rewritten in place at the same path each time."""
    rng = np.random.default_rng(35)
    src = tmp_path / "src.tif"
    pixels = (np.arange(30 * 40).reshape(30, 40) // 7).astype(np.uint16)
    write_tiff(src, pixels, description="r=1 c=2", rows_per_strip=4,
               compression=compression)
    blob = src.read_bytes()
    p = tmp_path / "m.tif"
    for _ in range(2000):
        mutated = bytearray(blob)
        for at in rng.integers(0, len(blob), rng.integers(1, 5)):
            mutated[at] = rng.integers(0, 256)
        p.write_bytes(bytes(mutated))
        yield src, p


def outcome(path):
    """What reading ``path`` gives: the pixels, or the error's message."""
    try:
        a = read_tiff(path, return_description=True)
        return a[0].dtype.str, a[0].shape, a[0].tobytes(), a[1]
    except TiffError as exc:
        return str(exc)


@pytest.fixture
def layouts(monkeypatch):
    """An empty layout cache for the test, and a count of full parses."""
    monkeypatch.setattr(tiff, "_LAYOUTS", {})
    parses = []
    real = tiff._parse_first_ifd
    monkeypatch.setattr(tiff, "_parse_first_ifd",
                        lambda *a: parses.append(1) or real(*a))
    return parses


class TestLayoutCache:
    """A file adopts a cached parse only when its size and every byte the
    parse read repeat; anything else reads exactly as with no cache."""

    @pytest.mark.parametrize("compression", ["none", "packbits"])
    def test_warm_cache_answers_every_mutation_as_a_cold_one(
            self, tmp_path, layouts, compression):
        for src, p in seeded_mutations(tmp_path, compression):
            tiff._LAYOUTS.clear()
            cold = outcome(p)
            tiff._LAYOUTS.clear()
            read_tiff(src)
            assert outcome(p) == cold

    def test_size_or_one_ifd_byte_misses(self, tmp_path, layouts):
        a = (np.arange(24 * 20).reshape(24, 20) * 3).astype(np.uint16)
        src = tmp_path / "src.tif"
        write_tiff(src, a, description="r=1 c=2", rows_per_strip=5)
        blob = src.read_bytes()
        assert np.array_equal(read_tiff(src), a) and len(layouts) == 1
        (tmp_path / "same.tif").write_bytes(blob)
        assert np.array_equal(read_tiff(tmp_path / "same.tif"), a)
        assert len(layouts) == 1  # adopted: no parse
        (tmp_path / "longer.tif").write_bytes(blob + b"\0")
        assert np.array_equal(read_tiff(tmp_path / "longer.tif"), a)
        assert len(layouts) == 2
        (ifd,) = struct.unpack_from("<I", blob, 4)
        desc = blob.index(b"r=1 c=2")  # an out-of-line value the parse read
        for at, value, want in ((ifd + 2 + 12 * 2 + 8, 8, None),  # bits 16 -> 8
                                (desc + 2, ord("9"), "r=9 c=2")):
            changed = bytearray(blob)
            changed[at] = value
            p = tmp_path / f"changed{at}.tif"
            p.write_bytes(bytes(changed))
            before = len(layouts)
            got = outcome(p)
            assert len(layouts) == before + 1
            tiff._LAYOUTS.clear()
            assert got == outcome(p)
            if want is not None:
                assert got[3] == want

    def test_cache_stays_within_its_bound(self, tmp_path, layouts):
        bound = tiff._LAYOUTS_MAX
        for n in range(1, 3 * bound):
            write_tiff(tmp_path / f"{n}.tif", np.zeros((n, 3), np.uint8))
            read_tiff(tmp_path / f"{n}.tif")
            assert len(tiff._LAYOUTS) <= bound
        assert len(layouts) == 3 * bound - 1
        # A parse reading more than the byte bound is never kept.
        tiff._LAYOUTS.clear()
        tall = np.zeros((tiff._LAYOUT_MAX_BYTES // 4, 1), np.uint8)
        write_tiff(tmp_path / "tall.tif", tall, rows_per_strip=1)
        read_tiff(tmp_path / "tall.tif")
        assert len(tiff._LAYOUTS) == 0

    def test_one_layout_per_size(self, tmp_path, layouts):
        """A miss compares against one layout: the size's newest.  It
        replaces a layout files have adopted; one they never adopted means
        the size's files differ, and the size is no longer cached."""
        a = np.zeros((8, 8), np.uint8)

        def decode(name, desc):
            write_tiff(tmp_path / name, a, description=desc)
            before = len(layouts)
            assert outcome(tmp_path / name)[3] == desc
            return len(layouts) - before  # 1 if it parsed

        assert [decode(f"{n}.tif", d) for n, d in enumerate(
            ("job aaa", "job aaa", "job bbb", "job bbb", "job aaa"))] \
            == [1, 0, 1, 0, 1]
        (size,) = tiff._LAYOUTS
        assert [decode(f"t{c}.tif", f"r=1 c={c}") for c in (2, 3, 4, 2)] \
            == [1, 1, 1, 1]
        assert tiff._LAYOUTS == {size: None}

    def test_threads_decode_one_dataset_identically(self, tmp_path, layouts):
        rng = np.random.default_rng(4)
        tiles = rng.integers(0, 65536, (12, 16, 16)).astype(np.uint16)
        paths = [tmp_path / f"t{k}.tif" for k in range(len(tiles))]
        for p, tile in zip(paths, tiles):
            write_tiff(p, tile)
        got: list[list] = [[] for _ in range(8)]

        def decode(k: int) -> None:
            for _ in range(10):
                got[k].extend(read_tiff(p) for p in paths)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=decode, args=(k,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for arrays in got:
            assert len(arrays) == 10 * len(tiles)
            for k, a in enumerate(arrays):
                assert np.array_equal(a, tiles[k % len(tiles)])
        assert len(tiff._LAYOUTS) == 1
