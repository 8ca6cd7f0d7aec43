"""Multiband raster data model and bit-exact file I/O.

Supported containers:

* ENVI-flavored BSQ: a UTF-8 text header of ``key = value`` lines stored
  next to a raw binary payload (header at ``<data>.hdr``; either path may
  be passed to the loader). Recognized keys: ``samples``, ``lines``,
  ``bands``, ``data type`` (1 = uint8, 12 = uint16), ``interleave``
  (must be ``bsq``) and ``byte order`` (must be 0, little-endian).
  Unknown keys and lines without ``=`` are ignored.
* Binary PPM (P6, maxval <= 255): read as a 3-band 8-bit image, and used
  as the preview output format. A sample above the header's maxval is
  rejected.
* Label rasters: ``<path>`` holds row-major little-endian uint32 ids
  (0 = unlabeled) and ``<path>.json`` is a sidecar carrying ``width``,
  ``height`` and ``label_count`` as JSON integers.

Loading is strict: header numbers must be plain ASCII decimal integers,
and any size mismatch between a header and its payload, or a sidecar
``label_count`` that differs from the distinct nonzero ids in the payload,
is rejected rather than repaired.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, FormatError, UnsupportedFormatError

_DEPTH_DTYPES = {8: np.uint8, 16: np.uint16}

# ENVI numeric type codes accepted for input payloads.
_ENVI_TYPE_TO_DEPTH = {1: 8, 12: 16}
_DEPTH_TO_ENVI_TYPE = {8: 1, 16: 12}


@dataclass
class MultibandImage:
    """A width x height grid of N-band digital-level vectors.

    ``data`` has shape (height, width, bands), with dtype uint8 for
    ``depth`` 8 and uint16 for ``depth`` 16, so every sample is bounded by
    the declared bit depth. It is a view of ``planes``, the C-contiguous
    (bands, height, width) layout of a BSQ file; data in any other layout
    is copied into planes once, here. The medoid's integer sums stay exact
    for at most 2⁵³ / (4·(2^depth − 1)²) bands, 524 304 at 16 bits.
    """

    data: np.ndarray
    depth: int

    def __post_init__(self):
        if self.depth not in _DEPTH_DTYPES:
            raise ContractError(f"unsupported bit depth {self.depth}; expected 8 or 16")
        if self.data.ndim != 3:
            raise ContractError("image data must have shape (height, width, bands)")
        if self.data.dtype != _DEPTH_DTYPES[self.depth]:
            raise ContractError(
                f"image dtype {self.data.dtype} does not match depth {self.depth}"
            )
        h, w, n = self.data.shape
        if h < 1 or w < 1 or n < 1:
            raise ContractError("image dimensions and band count must be >= 1")
        limit = 2**53 // (4 * self.max_level**2)
        if n > limit:
            raise ContractError(f"{n} bands exceed the limit of {limit} for exact medoid sums")
        self.data = np.ascontiguousarray(self.data.transpose(2, 0, 1)).transpose(1, 2, 0)

    @classmethod
    def from_planes(cls, planes: np.ndarray, depth: int) -> MultibandImage:
        """The image whose (bands, height, width) band planes are ``planes``."""
        return cls(data=planes.transpose(1, 2, 0), depth=depth)

    @property
    def planes(self) -> np.ndarray:
        """The C-contiguous (bands, height, width) band planes that ``data`` views."""
        return self.data.transpose(2, 0, 1)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def bands(self) -> int:
        return self.data.shape[2]

    @property
    def max_level(self) -> int:
        """Largest representable digital level, 2**depth - 1."""
        return (1 << self.depth) - 1

    @property
    def max_distance(self) -> float:
        """Largest spectral distance two pixels can be apart, (2**depth - 1)·√bands."""
        return self.max_level * np.sqrt(self.bands)

    def sum_dtype(self, power: int = 1):
        """int32, or int64 once a sum over the bands of levels to ``power`` can reach 2**31."""
        return np.int32 if self.bands * self.max_level**power < 2**31 else np.int64

    def check_bands(self, indices, what: str) -> None:
        """Raise ``ContractError`` unless every band index in ``indices`` exists."""
        if any(b < 0 or b >= self.bands for b in indices):
            raise ContractError(f"{what} {indices} out of range for {self.bands} bands")


@dataclass
class LabelRaster:
    """Row-major uint32 label ids aligned with a source image; 0 = null."""

    labels: np.ndarray

    def __post_init__(self):
        if self.labels.ndim != 2:
            raise ContractError("label raster must have shape (height, width)")
        if self.labels.dtype != np.uint32:
            raise ContractError("label raster dtype must be uint32")

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


def _envi_paths(path):
    # Either the header ('x.hdr') or the payload path may be given.
    if path.endswith(".hdr"):
        return path, path[:-4]
    return path + ".hdr", path


def _parse_envi_header(text):
    fields = {}
    for line in text.splitlines():
        if "=" not in line:
            continue  # banner lines and comments
        key, _, value = line.partition("=")
        fields[key.strip().lower()] = value.strip()
    return fields


def _decimal(token, what):
    """The value of a header number written as plain ASCII digits.

    ``int`` would also take a sign, ``_`` separators and non-ASCII digits,
    which other readers of these formats reject.
    """
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:  # past the int digit limit
            pass
    raise FormatError(f"{what} is not a plain decimal integer: {token!r}")


def _header_int(fields, key):
    if key not in fields:
        raise FormatError(f"ENVI header missing required key '{key}'")
    return _decimal(fields[key], f"ENVI header key '{key}'")


def _read_utf8(path, what):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} is not valid UTF-8: {exc}")


def load_envi_bsq(path) -> MultibandImage:
    """Load a band-sequential raster from its header/payload pair, straight into band planes."""
    header_path, data_path = _envi_paths(path)
    if not os.path.exists(header_path):
        raise FormatError(f"ENVI header not found: {header_path}")
    if not os.path.exists(data_path):
        raise FormatError(f"ENVI payload not found: {data_path}")
    fields = _parse_envi_header(_read_utf8(header_path, "ENVI header"))

    samples = _header_int(fields, "samples")
    lines = _header_int(fields, "lines")
    bands = _header_int(fields, "bands")
    type_code = _header_int(fields, "data type")
    if samples < 1 or lines < 1 or bands < 1:
        raise FormatError("ENVI header dimensions must be >= 1")
    if type_code not in _ENVI_TYPE_TO_DEPTH:
        raise UnsupportedFormatError(f"unsupported ENVI data type code {type_code}")
    interleave = fields.get("interleave", "bsq").lower()
    if interleave != "bsq":
        raise UnsupportedFormatError(f"unsupported interleave '{interleave}'; only bsq")
    byte_order = fields.get("byte order", "0")
    if byte_order.strip() != "0":
        raise UnsupportedFormatError("only byte order 0 (little-endian) is supported")

    depth = _ENVI_TYPE_TO_DEPTH[type_code]
    dtype = np.dtype(_DEPTH_DTYPES[depth]).newbyteorder("<")
    expected = samples * lines * bands * dtype.itemsize
    size = os.path.getsize(data_path)
    if size != expected:
        raise FormatError(f"ENVI payload is {size} bytes, header declares {expected}")
    planes = np.empty((bands, lines, samples), dtype=dtype)
    with open(data_path, "rb") as fh:
        fh.readinto(planes)
    return MultibandImage.from_planes(planes.astype(_DEPTH_DTYPES[depth], copy=False), depth)


def save_envi_bsq(image: MultibandImage, path) -> None:
    """Write ``image`` as a BSQ payload plus sidecar text header."""
    header_path, data_path = _envi_paths(path)
    planes = image.planes
    payload = planes.astype(planes.dtype.newbyteorder("<"), copy=False).tobytes()
    header = (
        "ENVI\n"
        f"samples = {image.width}\n"
        f"lines = {image.height}\n"
        f"bands = {image.bands}\n"
        f"data type = {_DEPTH_TO_ENVI_TYPE[image.depth]}\n"
        "interleave = bsq\n"
        "byte order = 0\n"
    )
    with open(data_path, "wb") as fh:
        fh.write(payload)
    with open(header_path, "w", encoding="utf-8") as fh:
        fh.write(header)


# The P6 header: three tokens, each after a run of ASCII whitespace and whole
# comments ('#' to the end of its line) and ended by whitespace or '#', then
# the one byte that ends maxval. ``re`` compiles it on the first load, not at import.
_PPM_HEADER = rb"P6" + rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]+)(?=[\s#])" * 3 + rb"[\s\S]"


def load_ppm(path) -> MultibandImage:
    """Load a binary P6 PPM as a 3-band, 8-bit image, copied once into band planes.

    ``_PPM_HEADER`` reads the header; the payload is every byte after it,
    exactly width * height * 3 samples, none above the header's maxval.
    Samples are kept as stored, not rescaled to 255.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] != b"P6":
        raise FormatError("not a binary PPM (P6) file")
    header = re.match(_PPM_HEADER, buf)
    if header is None:
        raise FormatError("truncated PPM header")
    width, height, maxval = (_decimal(t, "PPM header field") for t in header.groups())
    if width < 1 or height < 1:
        raise FormatError("PPM dimensions must be >= 1")
    if maxval < 1 or maxval > 65535:
        raise FormatError(f"invalid PPM maxval {maxval}")
    if maxval > 255:
        raise UnsupportedFormatError("16-bit PPM is not supported; maxval must be <= 255")
    expected = width * height * 3
    payload = buf[header.end():]
    if len(payload) != expected:
        raise FormatError(f"PPM payload is {len(payload)} bytes, expected {expected}")
    data = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    if maxval < 255:
        top = int(data.max())
        if top > maxval:
            raise FormatError(f"PPM sample {top} exceeds maxval {maxval}")
    return MultibandImage(data=data, depth=8)


def save_ppm(data: np.ndarray, path) -> None:
    """Write an (H, W, 3) uint8 array as binary P6, maxval 255."""
    if data.ndim != 3 or data.shape[2] != 3 or data.dtype != np.uint8:
        raise ContractError("PPM payload must be (H, W, 3) uint8")
    h, w = data.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def load_image(path, format=None) -> MultibandImage:
    """Load a multiband image, inferring the container from the extension.

    ``format`` may be 'envi-bsq' or 'ppm'; when None, '.ppm'/'.pnm' selects
    PPM and anything else the ENVI-BSQ pair.
    """
    if format is None:
        ext = os.path.splitext(path)[1].lower()
        format = "ppm" if ext in (".ppm", ".pnm") else "envi-bsq"
    if format == "ppm":
        return load_ppm(path)
    if format == "envi-bsq":
        return load_envi_bsq(path)
    raise ContractError(f"unknown image format '{format}'")


def save_label_raster(raster: LabelRaster, path, label_count: int) -> None:
    """Write raw little-endian uint32 labels plus a JSON sidecar.

    The sidecar at ``<path>.json`` records width, height and
    ``label_count``, the caller's count of the distinct nonzero ids, so
    ``load_label_raster`` can rebuild the grid and check the count.
    """
    payload = raster.labels.astype("<u4", copy=False).tobytes()
    sidecar = {
        "width": raster.width,
        "height": raster.height,
        "label_count": label_count,
    }
    with open(path, "wb") as fh:
        fh.write(payload)
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True)
        fh.write("\n")


def _sidecar_int(sidecar, key):
    if key not in sidecar:
        raise FormatError(f"label raster sidecar missing required key '{key}'")
    value = sidecar[key]
    # a JSON true or false would pass as an int, and 2.9 or "2" would convert
    if type(value) is not int:
        raise FormatError(f"label raster sidecar key '{key}' is not an integer: {value!r}")
    return value


def load_label_raster(path) -> LabelRaster:
    sidecar_path = path + ".json"
    if not os.path.exists(sidecar_path):
        raise FormatError(f"label raster sidecar not found: {sidecar_path}")
    try:
        sidecar = json.loads(_read_utf8(sidecar_path, "label raster sidecar"))
    except (ValueError, RecursionError) as exc:
        # malformed JSON, an integer past the digit limit or too deep nesting
        raise FormatError(f"invalid label raster sidecar: {exc}")
    if not isinstance(sidecar, dict):
        raise FormatError("label raster sidecar must be a JSON object")
    width, height, label_count = (
        _sidecar_int(sidecar, key) for key in ("width", "height", "label_count")
    )
    if width < 1 or height < 1:
        raise FormatError("label raster dimensions must be >= 1")
    with open(path, "rb") as fh:
        payload = fh.read()
    expected = width * height * 4
    if len(payload) != expected:
        raise FormatError(
            f"label raster payload is {len(payload)} bytes, sidecar declares {expected}"
        )
    labels = (
        np.frombuffer(payload, dtype="<u4").reshape(height, width).astype(np.uint32)
    )
    # distinct nonzero ids from one sorted copy: plain np.unique imports numpy.ma
    ids = np.sort(labels, axis=None)
    present = int(np.count_nonzero(ids[1:] != ids[:-1])) + int(ids[0] != 0)
    if label_count != present:
        raise FormatError(
            f"label raster sidecar declares {label_count} labels, the payload holds {present}"
        )
    return LabelRaster(labels=labels)


def save_preview(
    image: MultibandImage,
    labels: LabelRaster,
    signatures,
    band_triple,
    path,
) -> None:
    """Render each labeled cell with its signature color and write a PPM.

    ``signatures`` holds one N-vector of digital levels per id, row i for
    id i + 1, and must reach the largest id in ``labels``; the (r, g, b)
    samples taken at ``band_triple`` are rescaled from the image depth to
    8 bit. Null cells render black.
    """
    if labels.height != image.height or labels.width != image.width:
        raise ContractError("label raster dimensions do not match the image")
    triple = tuple(int(b) for b in band_triple)
    if len(triple) != 3:
        raise ContractError("band_triple must have exactly three entries")
    image.check_bands(triple, "band triple")
    if any(np.shape(sig) != (image.bands,) for sig in signatures):
        raise ContractError(f"every signature must be a {image.bands}-vector")
    top = int(labels.labels.max())
    if top > len(signatures):
        raise ContractError(f"no signature for label {top}")

    # row 0 (null) stays black; rounded rescale from [0, 2^depth - 1] to [0, 255]
    table = np.zeros((len(signatures) + 1, 3), dtype=np.int64)
    table[1:] = np.reshape(signatures, (-1, image.bands))[:, list(triple)]
    maxv = image.max_level
    table = ((table * 255 + maxv // 2) // maxv).astype(np.uint8)
    save_ppm(table[labels.labels], path)
