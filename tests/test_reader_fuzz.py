"""Fuzz of every reader: a damaged file loads or raises a FormatError.

Each example builds a valid file, then cuts it short, flips one byte,
appends bytes or writes an out-of-range number into one header field.
Whatever the damage, the reader must return a raster that meets its own
contract or raise ``FormatError`` (``UnsupportedFormatError`` is one);
any other exception is a defect. The examples are few per reader so the
suite stays fast.
"""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ca_segment import (
    FormatError,
    LabelRaster,
    MultibandImage,
    load_envi_bsq,
    load_label_raster,
    load_ppm,
    save_envi_bsq,
    save_label_raster,
)
from ca_segment.raster import save_ppm

FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# text numbers a header field may carry: zero, negative, past 32 and 64
# bits, past Python's 4300-digit int limit, and not integers at all
NUMBERS = st.one_of(
    st.sampled_from(["0", "-0", "-1", str(2**31), str(2**64), "9" * 5000,
                     "1e3", "1.5", "0x10", "", " ", "nan", "Infinity", "٣"]),
    st.integers(-(2**70), 2**70).map(str),
)

# JSON values a sidecar field may carry
JSON_VALUES = st.one_of(
    st.sampled_from(["true", "false", "null", "2.0", "1e400", "-1e400", "NaN", "Infinity",
                     '"2"', "[]", "{}", "[" * 100000, "0", "-1", str(2**64), "9" * 5000]),
    st.integers(-(2**70), 2**70).map(str),
)


@st.composite
def damaged(draw, blob):
    """``blob`` cut short, with one byte flipped, or with bytes appended."""
    kind = draw(st.sampled_from(["truncate", "flip", "append"]))
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        at = draw(st.integers(0, len(blob) - 1))
        return blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1 :]
    return blob + draw(st.binary(min_size=1, max_size=8))


@st.composite
def images(draw):
    depth = draw(st.sampled_from([8, 16]))
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    dtype = np.uint8 if depth == 8 else np.uint16
    return MultibandImage(data=rng.integers(0, 1 << depth, size=shape).astype(dtype), depth=depth)


def loads_or_format_error(load, path, kind):
    try:
        result = load(path)
    except FormatError:
        return
    assert isinstance(result, kind)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def write(path, blob):
    with open(path, "wb") as fh:
        fh.write(blob)


def with_field(text, key, value):
    """``text`` with the value of each ``key = ...`` line replaced."""
    lines = [f"{key} = {value}" if line.partition("=")[0].strip() == key else line
             for line in text.split("\n")]
    return "\n".join(lines)


@FUZZ
@given(image=images(), header=st.booleans(), data=st.data())
def test_envi_damaged(tmp_path, image, header, data):
    path = str(tmp_path / "cube.bsq")
    save_envi_bsq(image, path)
    name = path + ".hdr" if header else path
    write(name, data.draw(damaged(read(name))))
    loads_or_format_error(load_envi_bsq, path, MultibandImage)


@FUZZ
@given(
    image=images(),
    key=st.sampled_from(["samples", "lines", "bands", "data type", "interleave", "byte order"]),
    value=NUMBERS,
)
def test_envi_field_out_of_range(tmp_path, image, key, value):
    path = str(tmp_path / "cube.bsq")
    save_envi_bsq(image, path)
    header = read(path + ".hdr").decode("utf-8")
    write(path + ".hdr", with_field(header, key, value).encode("utf-8"))
    loads_or_format_error(load_envi_bsq, path, MultibandImage)


def write_ppm_of(image, path):
    save_ppm((image.data[:, :, [0] * 3] >> (image.depth - 8)).astype(np.uint8), path)


@FUZZ
@given(image=images(), data=st.data())
def test_ppm_damaged(tmp_path, image, data):
    path = str(tmp_path / "image.ppm")
    write_ppm_of(image, path)
    write(path, data.draw(damaged(read(path))))
    loads_or_format_error(load_ppm, path, MultibandImage)


@FUZZ
@given(image=images(), field=st.integers(0, 2), value=NUMBERS)
def test_ppm_field_out_of_range(tmp_path, image, field, value):
    path = str(tmp_path / "image.ppm")
    write_ppm_of(image, path)
    # the header is "P6\n<width> <height>\n255\n"
    _, size, maxval, payload = read(path).split(b"\n", 3)
    fields = size.split() + [maxval]
    fields[field] = value.encode("utf-8")
    write(path, b"P6\n%s %s\n%s\n" % tuple(fields) + payload)
    loads_or_format_error(load_ppm, path, MultibandImage)


label_rows = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=12).map(
    lambda v: np.array(v, dtype=np.uint32).reshape(1, -1)
)


def save_labels(labels, path):
    save_label_raster(LabelRaster(labels=labels), path, len(set(labels.flat) - {0}))


def loads_as_declared(path):
    """A raster loads only with JSON integer dimensions that match its shape
    and a JSON integer ``label_count`` equal to its distinct nonzero ids."""
    try:
        raster = load_label_raster(path)
    except FormatError:
        return
    sidecar = json.loads(read(path + ".json"))
    width, height, count = sidecar["width"], sidecar["height"], sidecar["label_count"]
    assert type(width) is int and type(height) is int and type(count) is int
    assert raster.labels.shape == (height, width)
    assert count == len(set(raster.labels.flat) - {0})


@FUZZ
@given(labels=label_rows, sidecar=st.booleans(), data=st.data())
def test_label_raster_damaged(tmp_path, labels, sidecar, data):
    path = str(tmp_path / "labels.u32")
    save_labels(labels, path)
    name = path + ".json" if sidecar else path
    write(name, data.draw(damaged(read(name))))
    loads_as_declared(path)


@FUZZ
@given(labels=label_rows, key=st.sampled_from(["width", "height", "label_count"]),
       value=JSON_VALUES)
def test_label_raster_field_out_of_range(tmp_path, labels, key, value):
    path = str(tmp_path / "labels.u32")
    save_labels(labels, path)
    sidecar = json.loads(read(path + ".json"))
    sidecar[key] = "@"
    write(path + ".json", json.dumps(sidecar).replace('"@"', value).encode("utf-8"))
    loads_as_declared(path)
