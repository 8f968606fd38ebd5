"""Minimal TIFF 6.0 / BigTIFF codec for microscope tiles and mosaics.

Scope (everything the paper's datasets need, nothing more):

- baseline TIFF, little- or big-endian, classic *or* BigTIFF headers
  (BigTIFF carries 64-bit offsets, so >4 GiB mosaics -- the paper's
  42x59-tile grids compose far past the classic 32-bit limit -- are
  writable and readable at all);
- single image (first IFD read; chained IFDs ignored on read);
- grayscale (``PhotometricInterpretation`` 0/1), 1 sample/pixel;
- 8- or 16-bit unsigned integer samples;
- uncompressed (``Compression == 1``) or PackBits (``32773``) strips --
  the two baseline-TIFF compressions microscope software emits;
- strip-based layout (any ``RowsPerStrip``).

Unsupported structure raises :class:`TiffError` with a precise message; a
truncated or corrupt file never produces silently wrong pixels.  The writers
always emit little-endian, single-IFD, striped files that this reader (and
libTIFF/ImageJ) can read back bit-exactly.

Two readers exist: :func:`read_tiff` materializes the whole image (tiles),
while :class:`TiffReader` is a seek-based windowed reader -- it parses the
header/IFD once and serves arbitrary row bands without ever holding more
than the requested window, which is what lets the mosaic pyramid and the
out-of-core composition path work against images far larger than RAM.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# TIFF tag ids used here (TIFF 6.0 specification names).
TAG_IMAGE_WIDTH = 256
TAG_IMAGE_LENGTH = 257
TAG_BITS_PER_SAMPLE = 258
TAG_COMPRESSION = 259
TAG_PHOTOMETRIC = 262
TAG_IMAGE_DESCRIPTION = 270
TAG_STRIP_OFFSETS = 273
TAG_SAMPLES_PER_PIXEL = 277
TAG_ROWS_PER_STRIP = 278
TAG_STRIP_BYTE_COUNTS = 279
TAG_PLANAR_CONFIG = 284
TAG_SAMPLE_FORMAT = 339

TYPE_BYTE = 1
TYPE_ASCII = 2
TYPE_SHORT = 3
TYPE_LONG = 4
#: BigTIFF 64-bit unsigned (and its signed / IFD-pointer siblings).
TYPE_LONG8 = 16
TYPE_SLONG8 = 17
TYPE_IFD8 = 18

_TYPE_SIZE = {
    TYPE_BYTE: 1,
    TYPE_ASCII: 1,
    TYPE_SHORT: 2,
    TYPE_LONG: 4,
    TYPE_LONG8: 8,
    TYPE_SLONG8: 8,
    TYPE_IFD8: 8,
}
_TYPE_FMT = {
    TYPE_BYTE: "B",
    TYPE_ASCII: "B",
    TYPE_SHORT: "H",
    TYPE_LONG: "I",
    TYPE_LONG8: "Q",
    TYPE_SLONG8: "q",
    TYPE_IFD8: "Q",
}

COMPRESSION_NONE = 1
COMPRESSION_PACKBITS = 32773

#: Classic TIFF cannot address bytes at or past 4 GiB.
_CLASSIC_LIMIT = 2**32 - 1

#: This machine's byte order, as a ``struct`` / TIFF-header prefix.
_NATIVE_BO = "<" if sys.byteorder == "little" else ">"


class TiffError(Exception):
    """Raised for malformed or unsupported TIFF structure."""


def packbits_encode(data: bytes) -> bytes:
    """PackBits (Apple RLE) encoding, TIFF 6.0 Section 9.

    Runs of >= 3 identical bytes become ``(1 - n, byte)``; everything else
    is emitted as literal groups of <= 128 bytes.
    """
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        # Measure the run starting at i.
        run = 1
        while i + run < n and run < 128 and data[i + run] == data[i]:
            run += 1
        if run >= 3:
            out.append(257 - run)  # two's complement of 1 - run
            out.append(data[i])
            i += run
            continue
        # Literal segment: until the next >= 3-byte run or 128 bytes.
        start = i
        i += run
        while i < n and i - start < 128:
            run = 1
            while i + run < n and run < 3 and data[i + run] == data[i]:
                run += 1
            if run >= 3:
                break
            i += run
        i = min(i, start + 128)
        out.append(i - start - 1)
        out.extend(data[start:i])
    return bytes(out)


def packbits_decode(data: bytes, expected: int) -> bytes:
    """Decode PackBits to exactly ``expected`` bytes (strict)."""
    out = bytearray()
    i = 0
    n = len(data)
    while len(out) < expected:
        if i >= n:
            raise TiffError(
                f"PackBits stream exhausted at {len(out)} of {expected} bytes"
            )
        ctrl = data[i]
        i += 1
        if ctrl < 128:  # literal run of ctrl + 1 bytes
            end = i + ctrl + 1
            if end > n:
                raise TiffError("PackBits literal run overruns the strip")
            out.extend(data[i:end])
            i = end
        elif ctrl == 128:  # no-op
            continue
        else:  # repeat next byte 257 - ctrl times
            if i >= n:
                raise TiffError("PackBits repeat run missing its byte")
            out.extend(bytes([data[i]]) * (257 - ctrl))
            i += 1
    if len(out) != expected:
        raise TiffError(
            f"PackBits decoded {len(out)} bytes, expected {expected}"
        )
    return bytes(out)


@dataclass
class _Entry:
    tag: int
    type: int
    count: int
    values: tuple


def _read_at(f, offset: int, n: int, what: str) -> bytes:
    """Read exactly ``n`` bytes at ``offset`` or raise a truncation error."""
    if offset < 0:
        raise TiffError(f"truncated file while reading {what} "
                        f"(negative offset {offset})")
    f.seek(offset)
    data = f.read(n)
    if len(data) != n:
        raise TiffError(f"truncated file while reading {what} "
                        f"(need {n} bytes at offset {offset})")
    return data


def _parse_header(f):
    """Parse the TIFF/BigTIFF header; returns ``(bo, bigtiff, ifd_offset)``."""
    f.seek(0)
    head = f.read(8)
    if len(head) < 8:
        raise TiffError("file too small to hold a TIFF header")
    if head[:2] == b"II":
        bo = "<"
    elif head[:2] == b"MM":
        bo = ">"
    else:
        raise TiffError(f"bad byte-order mark {head[:2]!r}")
    (magic,) = struct.unpack(bo + "H", head[2:4])
    if magic == 42:
        (ifd_off,) = struct.unpack(bo + "I", head[4:8])
        return bo, False, ifd_off
    if magic == 43:
        offsize, reserved = struct.unpack(bo + "HH", head[4:8])
        if offsize != 8 or reserved != 0:
            raise TiffError(
                f"bad BigTIFF header (offset size {offsize}, "
                f"reserved {reserved}; expected 8, 0)"
            )
        (ifd_off,) = struct.unpack(
            bo + "Q", _read_at(f, 8, 8, "BigTIFF IFD offset")
        )
        return bo, True, ifd_off
    raise TiffError(f"bad TIFF magic {magic} (42=classic, 43=BigTIFF)")


def _parse_ifd_entry(f, raw: bytes, bo: str, bigtiff: bool) -> _Entry:
    """Decode one IFD entry from its ``raw`` table bytes; only values too
    large for the entry's inline field cost a read."""
    if bigtiff:
        tag, typ = struct.unpack(bo + "HH", raw[:4])
        (count,) = struct.unpack(bo + "Q", raw[4:12])
        inline, inline_max, ptr_fmt = raw[12:20], 8, "Q"
    else:
        tag, typ, count = struct.unpack(bo + "HHI", raw[:8])
        inline, inline_max, ptr_fmt = raw[8:12], 4, "I"
    size = _TYPE_SIZE.get(typ)
    if size is None:
        # Unknown value types are legal TIFF; carry no values.
        return _Entry(tag, typ, count, ())
    total = size * count
    if total <= inline_max:
        payload = inline[:total]
    else:
        (ptr,) = struct.unpack(bo + ptr_fmt, inline)
        payload = _read_at(f, ptr, total, f"tag {tag} values")
    fmt = _TYPE_FMT[typ]
    values = struct.unpack(bo + fmt * count, payload)
    return _Entry(tag, typ, count, values)


def _parse_first_ifd(f, bo: str, bigtiff: bool, ifd_off: int) -> dict[int, _Entry]:
    if bigtiff:
        (n_entries,) = struct.unpack(
            bo + "Q", _read_at(f, ifd_off, 8, "IFD count")
        )
        base, entry_size = ifd_off + 8, 20
    else:
        (n_entries,) = struct.unpack(
            bo + "H", _read_at(f, ifd_off, 2, "IFD count")
        )
        base, entry_size = ifd_off + 2, 12
    if n_entries > 65536:
        raise TiffError(f"implausible IFD entry count {n_entries}")
    table = _read_at(f, base, entry_size * int(n_entries), "IFD entry")
    entries: dict[int, _Entry] = {}
    for off in range(0, len(table), entry_size):
        e = _parse_ifd_entry(f, table[off : off + entry_size], bo, bigtiff)
        entries[e.tag] = e
    return entries


class TiffReader:
    """Windowed, seek-based reader for striped grayscale TIFF/BigTIFF.

    Parses the header and first IFD once; :meth:`read_rows` /
    :meth:`read_region` then touch only the strip bytes the requested
    window needs.  For uncompressed files the read is exact (partial
    strips are sliced by arithmetic, so a 4 GiB mosaic costs one band of
    memory to window into); PackBits files decode whole strips
    intersecting the window.

    Use as a context manager, or call :meth:`close` explicitly.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._f = open(self.path, "rb")
        try:
            self._bo, self.bigtiff, ifd_off = _parse_header(self._f)
            self._entries = _parse_first_ifd(
                self._f, self._bo, self.bigtiff, ifd_off
            )
            self._validate()
        except BaseException:
            self._f.close()
            raise

    # -- IFD digestion -----------------------------------------------------

    def _one(self, tag: int, default=None):
        e = self._entries.get(tag)
        if e is None or not e.values:
            if default is None:
                raise TiffError(f"required tag {tag} missing")
            return default
        return e.values[0]

    def _validate(self) -> None:
        self.width = int(self._one(TAG_IMAGE_WIDTH))
        self.height = int(self._one(TAG_IMAGE_LENGTH))
        self._bits = int(self._one(TAG_BITS_PER_SAMPLE, 1))
        self._compression = int(self._one(TAG_COMPRESSION, 1))
        self._photometric = int(self._one(TAG_PHOTOMETRIC, 1))
        spp = int(self._one(TAG_SAMPLES_PER_PIXEL, 1))
        planar = int(self._one(TAG_PLANAR_CONFIG, 1))
        sample_format = int(self._one(TAG_SAMPLE_FORMAT, 1))

        if self._compression not in (COMPRESSION_NONE, COMPRESSION_PACKBITS):
            raise TiffError(
                f"unsupported compression {self._compression} "
                f"(1=None, 32773=PackBits)"
            )
        if self._photometric not in (0, 1):
            raise TiffError(
                f"unsupported photometric {self._photometric} (grayscale only)"
            )
        if spp != 1:
            raise TiffError(f"unsupported samples/pixel {spp} (grayscale only)")
        if planar != 1:
            raise TiffError(f"unsupported planar configuration {planar}")
        if sample_format != 1:
            raise TiffError(
                f"unsupported sample format {sample_format} (uint only)"
            )
        if self._bits not in (8, 16):
            raise TiffError(f"unsupported bit depth {self._bits} (8/16 only)")
        if self.width <= 0 or self.height <= 0:
            raise TiffError(f"bad dimensions {self.width}x{self.height}")

        offsets_e = self._entries.get(TAG_STRIP_OFFSETS)
        counts_e = self._entries.get(TAG_STRIP_BYTE_COUNTS)
        if offsets_e is None or counts_e is None:
            raise TiffError(
                "strip offsets/byte-counts missing (tiled TIFF unsupported)"
            )
        if len(offsets_e.values) != len(counts_e.values):
            raise TiffError("strip offset/count tables disagree in length")
        self.offsets = tuple(int(v) for v in offsets_e.values)
        self.byte_counts = tuple(int(v) for v in counts_e.values)
        self.rows_per_strip = int(self._one(TAG_ROWS_PER_STRIP, self.height))
        if self.rows_per_strip < 1:
            raise TiffError(f"bad RowsPerStrip {self.rows_per_strip}")
        self.bytes_per_row = self.width * (self._bits // 8)
        needed = -(-self.height // self.rows_per_strip)
        if len(self.offsets) < needed:
            raise TiffError(
                f"pixel data size mismatch: {len(self.offsets)} strips cover "
                f"{len(self.offsets) * self.rows_per_strip} rows, image "
                f"needs {self.height}"
            )
        if len(self.offsets) > needed:
            raise TiffError("more strips than image rows")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype("u1" if self._bits == 8 else "u2")

    def _strip_rows(self, s: int) -> tuple[int, int]:
        r0 = s * self.rows_per_strip
        return r0, min(self.height, r0 + self.rows_per_strip)

    def _decoded_strip(self, s: int) -> bytes:
        r0, r1 = self._strip_rows(s)
        expected = (r1 - r0) * self.bytes_per_row
        raw = _read_at(self._f, self.offsets[s], self.byte_counts[s],
                       "strip data")
        if self._compression == COMPRESSION_PACKBITS:
            return packbits_decode(raw, expected)
        if len(raw) != expected:
            raise TiffError(
                f"pixel data size mismatch: strip {s} holds {len(raw)} "
                f"bytes, needs {expected}"
            )
        return raw

    # -- windowed access ---------------------------------------------------

    def read_rows(self, y0: int, y1: int) -> np.ndarray:
        """Decode rows ``[y0, y1)`` into a native-endian 2-D array.

        Peak memory is the window itself: uncompressed files are read
        straight into the result (strips that follow each other in the
        file in one read, however many there are), PackBits decodes the
        strips the window intersects.
        """
        if not 0 <= y0 < y1 <= self.height:
            raise ValueError(
                f"row window [{y0}, {y1}) outside image of {self.height} rows"
            )
        bpr = self.bytes_per_row
        arr = np.empty((y1 - y0, self.width), dtype=self.dtype)
        dest = memoryview(arr.reshape(-1).view(np.uint8))
        filled = 0  # bytes of ``dest`` decoded or claimed by a pending run
        run_at = run_len = 0  # file-contiguous bytes not read yet

        def read_run() -> None:
            if not run_len:
                return
            self._f.seek(run_at)
            got = self._f.readinto(dest[filled - run_len : filled])
            if got != run_len:
                raise TiffError(
                    f"truncated file while reading strip data "
                    f"(need {run_len} bytes at offset {run_at})"
                )

        s0 = y0 // self.rows_per_strip
        s1 = (y1 - 1) // self.rows_per_strip
        for s in range(s0, s1 + 1):
            r0, r1 = self._strip_rows(s)
            a, b = max(r0, y0), min(r1, y1)
            n = (b - a) * bpr
            if self._compression == COMPRESSION_NONE:
                # Exact partial-strip read: row n of strip s lives at a
                # fixed arithmetic offset, no need to touch the rest.
                expected = (r1 - r0) * bpr
                if self.byte_counts[s] != expected:
                    raise TiffError(
                        f"pixel data size mismatch: strip {s} holds "
                        f"{self.byte_counts[s]} bytes, needs {expected}"
                    )
                if self.offsets[s] < 0:
                    raise TiffError(
                        f"truncated file while reading strip data "
                        f"(negative offset {self.offsets[s]})"
                    )
                at = self.offsets[s] + (a - r0) * bpr
                if at != run_at + run_len:
                    read_run()
                    run_at, run_len = at, 0
                run_len += n
            else:
                data = self._decoded_strip(s)
                dest[filled : filled + n] = data[(a - r0) * bpr : (b - r0) * bpr]
            filled += n
        read_run()
        if self._bits == 16 and self._bo != _NATIVE_BO:
            arr.byteswap(inplace=True)
        if self._photometric == 0:  # WhiteIsZero -> BlackIsZero sense
            np.subtract(np.iinfo(arr.dtype).max, arr, out=arr)
        return arr

    def read_region(self, y: int, x: int, height: int, width: int) -> np.ndarray:
        """Decode the window ``[y, y+height) x [x, x+width)``."""
        if height < 1 or width < 1:
            raise ValueError("region must be at least 1x1")
        if not (0 <= x and x + width <= self.width):
            raise ValueError(
                f"column window [{x}, {x + width}) outside image of "
                f"{self.width} columns"
            )
        return self.read_rows(y, y + height)[:, x : x + width].copy()

    def read(self) -> np.ndarray:
        """The whole image (equivalent to :func:`read_tiff`)."""
        return self.read_rows(0, self.height)

    def description(self) -> str:
        """``ImageDescription`` contents, ``""`` when absent."""
        e = self._entries.get(TAG_IMAGE_DESCRIPTION)
        if e is None or not e.values:
            return ""
        return bytes(e.values).rstrip(b"\x00").decode("ascii", "replace")

    def close(self) -> None:
        self._f.close()

    def __enter__(self) -> "TiffReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_tiff(path: str | Path, return_description: bool = False):
    """Read a grayscale TIFF/BigTIFF into a NumPy array.

    Returns the pixel array (``uint8`` or ``uint16``, shape ``(h, w)``), or a
    ``(array, description)`` tuple when ``return_description`` is set (the
    description is the ``ImageDescription`` tag contents, ``""`` if absent).
    """
    with TiffReader(path) as reader:
        arr = reader.read()
        if return_description:
            return arr, reader.description()
        return arr


def _strip_spans(
    height: int, width: int, rows_per_strip: int
) -> list[tuple[int, int]]:
    """Row span ``[r0, r1)`` of every strip of a ``height x width`` image."""
    if height < 1 or width < 1:
        raise ValueError(f"bad dimensions {height}x{width}")
    if rows_per_strip < 1:
        raise ValueError(f"rows_per_strip must be >= 1, got {rows_per_strip}")
    return [
        (r0, min(height, r0 + rows_per_strip))
        for r0 in range(0, height, rows_per_strip)
    ]


def _header_blob(
    width: int,
    height: int,
    bits: int,
    compression: int,
    rows_per_strip: int,
    strip_counts: list[int],
    description: bytes = b"",
    bigtiff: bool = False,
) -> bytes:
    """Header, IFD and out-of-line values of a single-IFD striped file.

    The one layout both writers emit: entries in tag order, a value that
    fits the entry's value field inline and any other in the overflow
    area behind the IFD (word-aligned), strip data -- ``strip_counts``
    bytes per strip, back to back -- starting right after the returned
    bytes.  ``bigtiff`` widens counts, offsets and the strip tables to 64
    bits.
    """
    table_typ = TYPE_LONG8 if bigtiff else TYPE_LONG
    entries: list[tuple[int, int, int, tuple | bytes | None]] = [
        (TAG_IMAGE_WIDTH, TYPE_LONG, 1, (width,)),
        (TAG_IMAGE_LENGTH, TYPE_LONG, 1, (height,)),
        (TAG_BITS_PER_SAMPLE, TYPE_SHORT, 1, (bits,)),
        (TAG_COMPRESSION, TYPE_SHORT, 1, (compression,)),
        (TAG_PHOTOMETRIC, TYPE_SHORT, 1, (1,)),  # BlackIsZero
        # The offsets are known only once the layout below is.
        (TAG_STRIP_OFFSETS, table_typ, len(strip_counts), None),
        (TAG_SAMPLES_PER_PIXEL, TYPE_SHORT, 1, (1,)),
        (TAG_ROWS_PER_STRIP, TYPE_LONG, 1, (rows_per_strip,)),
        (TAG_STRIP_BYTE_COUNTS, table_typ, len(strip_counts), strip_counts),
        (TAG_PLANAR_CONFIG, TYPE_SHORT, 1, (1,)),
        (TAG_SAMPLE_FORMAT, TYPE_SHORT, 1, (1,)),
    ]
    if description:
        entries.append(
            (TAG_IMAGE_DESCRIPTION, TYPE_ASCII, len(description), description)
        )
        entries.sort(key=lambda e: e[0])
    if bigtiff:
        head = struct.pack("<2sHHHQ", b"II", 43, 8, 0, 16)
        count_fmt, entry_fmt, word_fmt, word = "<Q", "<HHQ", "<Q", 8
    else:
        head = struct.pack("<2sHI", b"II", 42, 8)
        count_fmt, entry_fmt, word_fmt, word = "<H", "<HHI", "<I", 4
    ifd_size = (
        struct.calcsize(count_fmt)
        + (struct.calcsize(entry_fmt) + word) * len(entries)
        + word
    )
    # Out-of-line values follow the IFD, each padded to word length;
    # strip data follows them.
    sizes = [_TYPE_SIZE[typ] * count for _tag, typ, count, _values in entries]
    data_start = len(head) + ifd_size + sum(
        n + n % 2 for n in sizes if n > word
    )
    offsets = [data_start]
    for count in strip_counts:
        offsets.append(offsets[-1] + count)
    end = offsets.pop()
    if not bigtiff and end > _CLASSIC_LIMIT:
        raise TiffError(
            f"image needs BigTIFF: pixel data ends at byte {end}, past "
            f"the classic 32-bit limit (use TiffStripWriter(bigtiff=True))"
        )

    ifd = [struct.pack(count_fmt, len(entries))]
    overflow: list[bytes] = []
    overflow_at = len(head) + ifd_size
    for tag, typ, count, values in entries:
        payload = struct.pack(
            "<" + _TYPE_FMT[typ] * count,
            *(offsets if values is None else values),
        )
        ifd.append(struct.pack(entry_fmt, tag, typ, count))
        if len(payload) <= word:
            ifd.append(payload.ljust(word, b"\x00"))
        else:
            ifd.append(struct.pack(word_fmt, overflow_at))
            overflow.append(payload + b"\x00" * (len(payload) % 2))
            overflow_at += len(overflow[-1])
    ifd.append(struct.pack(word_fmt, 0))  # no next IFD
    blob = head + b"".join(ifd) + b"".join(overflow)
    if len(blob) != data_start:
        raise AssertionError(
            f"TIFF layout bug: header+IFD+overflow is {len(blob)} bytes, "
            f"expected {data_start}"
        )
    return blob


def write_tiff(
    path: str | Path,
    array: np.ndarray,
    description: str = "",
    rows_per_strip: int | None = None,
    compression: str = "none",
) -> None:
    """Write a grayscale ``uint8``/``uint16`` array as a classic TIFF.

    Output is little-endian, single IFD, strip-based.  ``rows_per_strip``
    defaults to roughly 8 KiB strips (libTIFF's default policy).
    ``compression`` is ``"none"`` or ``"packbits"``.  For images too large
    to materialize (or past the classic 4 GiB limit) use
    :class:`TiffStripWriter`, which streams row bands and can emit BigTIFF.
    """
    if compression == "none":
        comp_tag = COMPRESSION_NONE
    elif compression == "packbits":
        comp_tag = COMPRESSION_PACKBITS
    else:
        raise ValueError(f"unknown compression {compression!r} (none/packbits)")
    a = np.asarray(array)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D grayscale array, got shape {a.shape}")
    if a.dtype == np.uint8:
        bits = 8
    elif a.dtype == np.uint16:
        bits = 16
    else:
        raise ValueError(f"unsupported dtype {a.dtype} (uint8/uint16 only)")
    height, width = a.shape
    bytes_per_row = width * (bits // 8)
    if rows_per_strip is None:
        rows_per_strip = max(1, 8192 // max(1, bytes_per_row))
    rows_per_strip = min(rows_per_strip, height)
    spans = _strip_spans(height, width, rows_per_strip)

    raw = a.astype("<" + ("u1" if bits == 8 else "u2"), copy=False).tobytes()
    strips = [raw[r0 * bytes_per_row : r1 * bytes_per_row] for r0, r1 in spans]
    if comp_tag == COMPRESSION_PACKBITS:
        strips = [packbits_encode(strip) for strip in strips]
    desc = description.encode("ascii", "replace") + b"\x00" if description else b""
    blob = _header_blob(
        width, height, bits, comp_tag, rows_per_strip,
        [len(strip) for strip in strips], desc,
    )
    Path(path).write_bytes(blob + b"".join(strips))


class TiffStripWriter:
    """Incremental row-band TIFF/BigTIFF writer for images too large for RAM.

    The paper's mosaics reach 17k x 22k pixels (Fiji needs 1.5 h to
    compose *and save* one), and out-of-core composition pushes far past
    that.  Writing such an image must never require materializing it:
    the header, IFD and strip tables are fully determined up front
    (strip offsets are arithmetic for uncompressed data) and written
    first; callers then push row bands top to bottom, each flushed to
    the file as it completes, so peak memory is one band.

    ``bigtiff`` selects the header: ``True``/``False`` force the format,
    ``"auto"`` (default) emits BigTIFF exactly when the classic 32-bit
    offsets could not address the pixel data.  ``rows_per_strip`` sizes
    the strip table (default: the whole image as one strip descriptor,
    which windowed readers of uncompressed data handle exactly).

    ``skip_rows`` advances over all-zero rows without writing them --
    the file stays sparse where the filesystem supports it, which is how
    the >4 GiB-offset test fixtures stay cheap on disk.

    Usage::

        with TiffStripWriter(path, height, width, np.uint16) as w:
            for band in bands_top_to_bottom:   # 2-D, widths must match
                w.write_rows(band)

    ``close`` (or the context manager) validates that exactly ``height``
    rows arrived.
    """

    def __init__(
        self,
        path: str | Path,
        height: int,
        width: int,
        dtype,
        rows_per_strip: int | None = None,
        bigtiff: bool | str = "auto",
    ) -> None:
        dtype = np.dtype(dtype)
        if dtype == np.uint8:
            self._bits = 8
        elif dtype == np.uint16:
            self._bits = 16
        else:
            raise ValueError(f"unsupported dtype {dtype} (uint8/uint16 only)")
        self.height = height
        self.width = width
        self.dtype = dtype
        self._bytes_per_row = width * (self._bits // 8)
        if rows_per_strip is None:
            rows_per_strip = height
        rows_per_strip = max(1, min(int(rows_per_strip), height))
        counts = [
            (r1 - r0) * self._bytes_per_row
            for r0, r1 in _strip_spans(height, width, rows_per_strip)
        ]
        if bigtiff == "auto":
            # Conservative: header + IFD + strip tables stay far below
            # 1 MiB, so the pixel payload decides the format.
            bigtiff = height * self._bytes_per_row + (1 << 20) > _CLASSIC_LIMIT
        self.bigtiff = bool(bigtiff)
        blob = _header_blob(
            width, height, self._bits, COMPRESSION_NONE, rows_per_strip,
            counts, bigtiff=self.bigtiff,
        )
        self._data_start = len(blob)
        self._rows_written = 0
        self._closed = False
        self._file = open(path, "wb")
        try:
            self._file.write(blob)
        except BaseException:
            self._file.close()
            raise

    # -- streaming ---------------------------------------------------------

    def write_rows(self, band: np.ndarray) -> None:
        """Append a 2-D row band (must match width and dtype); flushed."""
        if self._closed:
            raise ValueError("writer already closed")
        band = np.asarray(band)
        if band.ndim != 2 or band.shape[1] != self.width:
            raise ValueError(
                f"band shape {band.shape} incompatible with width {self.width}"
            )
        if band.dtype.newbyteorder("=") != self.dtype:  # either byte order
            raise ValueError(f"band dtype {band.dtype} != {self.dtype}")
        if self._rows_written + band.shape[0] > self.height:
            raise ValueError(
                f"band overruns image: {self._rows_written} + {band.shape[0]} "
                f"> {self.height}"
            )
        # The file is little-endian and row-major: a band already laid out
        # that way is written from its own buffer, anything else (big-endian,
        # a strided view) is converted first.
        self._file.write(np.ascontiguousarray(
            band, dtype="<" + ("u1" if self._bits == 8 else "u2")))
        self._file.flush()
        self._rows_written += band.shape[0]

    def skip_rows(self, n: int) -> None:
        """Advance over ``n`` all-zero rows without writing their bytes.

        The skipped region reads back as zeros; on filesystems with
        sparse-file support it occupies no disk blocks, which keeps
        >4 GiB-offset fixtures cheap.
        """
        if self._closed:
            raise ValueError("writer already closed")
        if n < 0:
            raise ValueError(f"cannot skip {n} rows")
        if self._rows_written + n > self.height:
            raise ValueError(
                f"band overruns image: {self._rows_written} + {n} "
                f"> {self.height}"
            )
        self._file.seek(n * self._bytes_per_row, 1)
        self._rows_written += n

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            if self._rows_written != self.height:
                raise ValueError(
                    f"image incomplete: {self._rows_written} of "
                    f"{self.height} rows written"
                )
            # A trailing skip_rows leaves the file short of its logical
            # size; extend it so every strip is addressable (zeros).
            end = self._data_start + self.height * self._bytes_per_row
            self._file.truncate(end)
            self._file.flush()
        finally:
            self._file.close()

    def __enter__(self) -> "TiffStripWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._closed = True
            self._file.close()
