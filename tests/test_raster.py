import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ca_segment import (
    ContractError,
    FormatError,
    LabelRaster,
    MultibandImage,
    NeighborhoodKind,
    SumRange,
    UnsupportedFormatError,
    compute_sum_histogram,
    extract_segments,
    generate_seeds,
    load_image,
    load_label_raster,
    medoid_signature,
    neighbor_weights,
    save_envi_bsq,
    save_label_raster,
    save_preview,
    select_ranges,
)
from ca_segment.raster import load_ppm, save_ppm


def make_image(rng, height, width, bands, depth):
    dtype = np.uint8 if depth == 8 else np.uint16
    data = rng.integers(0, (1 << depth), size=(height, width, bands)).astype(dtype)
    return MultibandImage(data=data, depth=depth)


def write_ppm(path, width, height, payload, maxval=255, header_extra=""):
    with open(path, "wb") as fh:
        fh.write(f"P6\n{header_extra}{width} {height}\n{maxval}\n".encode())
        fh.write(payload)


class TestPpm:
    def test_uniform_round_trip(self, tmp_path):
        path = str(tmp_path / "img.ppm")
        write_ppm(path, 2, 2, bytes([10, 20, 30]) * 4)
        image = load_image(path)
        assert (image.width, image.height, image.bands, image.depth) == (2, 2, 3, 8)
        assert (image.data == np.array([10, 20, 30], dtype=np.uint8)).all()

    def test_comments_and_whitespace(self, tmp_path):
        path = str(tmp_path / "img.ppm")
        with open(path, "wb") as fh:
            fh.write(b"P6 # magic\n# a comment line\n 3\t1 # width height\n255\n")
            fh.write(bytes(range(9)))
        image = load_ppm(path)
        assert image.width == 3 and image.height == 1
        assert image.data.ravel().tolist() == list(range(9))

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 256, size=(5, 4, 3)).astype(np.uint8)
        path = str(tmp_path / "img.ppm")
        save_ppm(data, path)
        again = load_ppm(path)
        assert (again.data == data).all()

    def test_payload_too_short(self, tmp_path):
        path = str(tmp_path / "img.ppm")
        write_ppm(path, 2, 2, b"\x00" * 11)
        with pytest.raises(FormatError):
            load_ppm(path)

    def test_payload_too_long(self, tmp_path):
        path = str(tmp_path / "img.ppm")
        write_ppm(path, 2, 2, b"\x00" * 13)
        with pytest.raises(FormatError):
            load_ppm(path)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = str(tmp_path / "img.ppm")
        write_ppm(path, 1, 1, b"\x00" * 6, maxval=65535)
        with pytest.raises(UnsupportedFormatError):
            load_ppm(path)

    @pytest.mark.parametrize("field", [0, 1, 2])
    @pytest.mark.parametrize("value", ["+2", "2_55", "\u0662", "-2", "2.0", "0x2"])
    def test_header_numbers_must_be_ascii_decimal(self, tmp_path, field, value):
        # int() reads "+2", "2_55" and Arabic-Indic "\u0662" as numbers
        fields = ["2", "1", "255"]
        fields[field] = value
        path = str(tmp_path / "img.ppm")
        with open(path, "wb") as fh:
            fh.write(("P6\n%s %s\n%s\n" % tuple(fields)).encode() + b"\x00" * 6)
        with pytest.raises(FormatError, match="not a plain decimal integer"):
            load_ppm(path)

    def test_samples_above_maxval_rejected(self, tmp_path):
        path = str(tmp_path / "img.ppm")
        write_ppm(path, 1, 1, bytes([255, 0, 7]), maxval=1)
        with pytest.raises(FormatError, match="PPM sample 255 exceeds maxval 1"):
            load_ppm(path)
        # samples up to maxval load as stored, and maxval 255 bounds nothing
        for maxval, payload in ((100, bytes([0, 50, 100, 100, 7, 99])), (255, bytes([255, 0, 7] * 2))):
            write_ppm(path, 2, 1, payload, maxval=maxval)
            assert load_ppm(path).data.tobytes() == payload

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "img.ppm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n1 1\n255\n\x00")
        with pytest.raises(FormatError):
            load_ppm(path)


# the six ASCII whitespace bytes, and comments of digits, spaces, tabs and
# '#' ended by a newline or a carriage return
WHITESPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
COMMENTS = st.builds(
    lambda body, end: b"#" + body.encode("ascii") + end,
    st.text("0123456789 \t#", max_size=6),
    st.sampled_from([b"\n", b"\r"]),
)


def separators(min_size):
    return st.lists(st.one_of(WHITESPACE, COMMENTS), min_size=min_size, max_size=4).map(b"".join)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    width=st.integers(1, 3),
    height=st.integers(1, 3),
    maxval=st.integers(1, 255),
    runs=st.tuples(separators(0), separators(1), separators(1)),
    end=WHITESPACE,
)
def test_ppm_header_grammar(tmp_path, width, height, maxval, runs, end):
    # a header built from known parts loads with exactly its dimensions and
    # payload, and every cut inside it is a truncated header
    tokens = [str(v).encode("ascii") for v in (width, height, maxval)]
    header = b"P6" + b"".join(run + token for run, token in zip(runs, tokens)) + end
    payload = bytes(v % (maxval + 1) for v in range(width * height * 3))
    path = tmp_path / "img.ppm"
    path.write_bytes(header + payload)
    image = load_ppm(path)
    assert (image.width, image.height) == (width, height)
    assert image.data.tobytes() == payload
    for cut in range(2, len(header)):
        path.write_bytes(header[:cut])
        with pytest.raises(FormatError, match="truncated PPM header"):
            load_ppm(path)


class TestEnviBsq:
    def test_header_arithmetic(self, tmp_path):
        # 4 samples x 3 lines x 2 bands of uint8 = 24 payload bytes
        data_path = str(tmp_path / "cube")
        with open(data_path, "wb") as fh:
            fh.write(bytes(range(24)))
        with open(data_path + ".hdr", "w") as fh:
            fh.write("ENVI\nsamples = 4\nlines = 3\nbands = 2\ndata type = 1\n"
                     "interleave = bsq\nbyte order = 0\nwavelength units = nm\n")
        image = load_image(data_path)
        assert (image.width, image.height, image.bands, image.depth) == (4, 3, 2, 8)
        # BSQ: first 12 bytes are band 0, row-major
        assert image.data[:, :, 0].ravel().tolist() == list(range(12))
        assert image.data[:, :, 1].ravel().tolist() == list(range(12, 24))

    def test_loading_via_header_path(self, tmp_path):
        image = make_image(np.random.default_rng(0), 3, 2, 2, 8)
        data_path = str(tmp_path / "cube")
        save_envi_bsq(image, data_path)
        again = load_image(data_path + ".hdr")
        assert (again.data == image.data).all()

    @pytest.mark.parametrize("depth", [8, 16])
    def test_round_trip_bit_identical(self, tmp_path, depth):
        rng = np.random.default_rng(depth)
        image = make_image(rng, 7, 5, 4, depth)
        path = str(tmp_path / "cube")
        save_envi_bsq(image, path)
        again = load_image(path)
        assert again.depth == depth
        assert again.data.dtype == image.data.dtype
        assert (again.data == image.data).all()

    def test_truncated_payload_rejected(self, tmp_path):
        image = make_image(np.random.default_rng(1), 4, 4, 2, 8)
        path = str(tmp_path / "cube")
        save_envi_bsq(image, path)
        with open(path, "rb") as fh:
            payload = fh.read()
        with open(path, "wb") as fh:
            fh.write(payload[:-1])
        with pytest.raises(FormatError):
            load_image(path)

    def test_unsupported_type_code(self, tmp_path):
        path = str(tmp_path / "cube")
        with open(path, "wb") as fh:
            fh.write(b"\x00" * 4)
        with open(path + ".hdr", "w") as fh:
            fh.write("samples = 2\nlines = 2\nbands = 1\ndata type = 4\n")
        with pytest.raises(UnsupportedFormatError):
            load_image(path)

    @pytest.mark.parametrize("value", ["1_0", "+10", "\u0661\u0660", "10.0", "1 0", "0x0a"])
    def test_header_numbers_must_be_ascii_decimal(self, tmp_path, value):
        # int() reads "1_0", "+10" and Arabic-Indic "\u0661\u0660" as 10
        path = str(tmp_path / "cube")
        with open(path, "wb") as fh:
            fh.write(b"\x00" * 10)
        header = "ENVI\nsamples = %s\nlines = 1\nbands = 1\ndata type = 1\n"
        with open(path + ".hdr", "w", encoding="utf-8") as fh:
            fh.write(header % value)
        with pytest.raises(FormatError, match="'samples' is not a plain decimal integer"):
            load_image(path)
        with open(path + ".hdr", "w", encoding="utf-8") as fh:
            fh.write(header % "10")
        assert load_image(path).width == 10

    def test_missing_key(self, tmp_path):
        path = str(tmp_path / "cube")
        with open(path, "wb") as fh:
            fh.write(b"\x00" * 4)
        with open(path + ".hdr", "w") as fh:
            fh.write("samples = 2\nlines = 2\ndata type = 1\n")
        with pytest.raises(FormatError):
            load_image(path)

    def test_wrong_interleave(self, tmp_path):
        path = str(tmp_path / "cube")
        with open(path, "wb") as fh:
            fh.write(b"\x00" * 4)
        with open(path + ".hdr", "w") as fh:
            fh.write("samples = 2\nlines = 2\nbands = 1\ndata type = 1\n"
                     "interleave = bip\n")
        with pytest.raises(UnsupportedFormatError):
            load_image(path)

    def test_header_not_utf8_rejected(self, tmp_path):
        path = str(tmp_path / "cube")
        with open(path, "wb") as fh:
            fh.write(b"\x00" * 16)
        with open(path + ".hdr", "wb") as fh:
            fh.write(b"ENVI\n\xff\xfe = 3\n")
        with pytest.raises(FormatError, match="ENVI header is not valid UTF-8"):
            load_image(path)


def write_label_raster(path, sidecar, payload=b"\x00" * 16):
    with open(path, "wb") as fh:
        fh.write(payload)
    with open(path + ".json", "wb") as fh:
        fh.write(sidecar)


class TestLabelRaster:
    def test_little_endian_payload(self, tmp_path):
        raster = LabelRaster(labels=np.array([[0, 7]], dtype=np.uint32))
        path = str(tmp_path / "out.labels")
        save_label_raster(raster, path, 1)
        with open(path, "rb") as fh:
            assert fh.read().hex() == "0000000007000000"

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2**32, size=(6, 9), dtype=np.uint32)
        path = str(tmp_path / "out.labels")
        save_label_raster(LabelRaster(labels=labels), path, len(set(labels.flat) - {0}))
        again = load_label_raster(path)
        assert (again.labels == labels).all()

    def test_empty_label_count(self, tmp_path):
        import json

        raster = LabelRaster(labels=np.zeros((2, 2), dtype=np.uint32))
        path = str(tmp_path / "out.labels")
        save_label_raster(raster, path, 0)
        with open(path + ".json") as fh:
            assert json.load(fh)["label_count"] == 0

    def test_size_mismatch_rejected(self, tmp_path):
        raster = LabelRaster(labels=np.ones((2, 2), dtype=np.uint32))
        path = str(tmp_path / "out.labels")
        save_label_raster(raster, path, 1)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(FormatError):
            load_label_raster(path)

    @pytest.mark.parametrize("value", ["2.9", "2.0", '"2"', "true", "null", "[2]"])
    def test_sidecar_dimensions_must_be_json_integers(self, tmp_path, value):
        # a 16-byte payload fits 2 x 2, so only the type check can reject
        path = str(tmp_path / "out.labels")
        write_label_raster(path, b'{"width": %s, "height": 2, "label_count": 0}' % value.encode())
        with pytest.raises(FormatError, match="'width' is not an integer"):
            load_label_raster(path)
        write_label_raster(path, b'{"width": 2, "height": %s, "label_count": 0}' % value.encode())
        with pytest.raises(FormatError, match="'height' is not an integer"):
            load_label_raster(path)
        write_label_raster(path, b'{"width": 2, "height": 2, "label_count": 0}')
        assert load_label_raster(path).labels.shape == (2, 2)

    @pytest.mark.parametrize("value", ["2.0", '"2"', "true", "null", "0", "3", "-1"])
    def test_sidecar_label_count_must_match_the_payload(self, tmp_path, value):
        # the payload holds ids 0, 7, 7 and 9: two labels
        path = str(tmp_path / "out.labels")
        payload = np.array([0, 7, 7, 9], dtype="<u4").tobytes()
        write_label_raster(path, b'{"width": 2, "height": 2, "label_count": %s}' % value.encode(),
                           payload)
        with pytest.raises(FormatError, match="label_count|declares"):
            load_label_raster(path)
        write_label_raster(path, b'{"width": 2, "height": 2}', payload)
        with pytest.raises(FormatError, match="missing required key 'label_count'"):
            load_label_raster(path)
        write_label_raster(path, b'{"width": 2, "height": 2, "label_count": 1}',
                           np.array([0, 7, 7, 7], dtype="<u4").tobytes())
        assert load_label_raster(path).labels.tolist() == [[0, 7], [7, 7]]

    @pytest.mark.parametrize("sidecar, message", [
        (b'{"height": 2}', "missing required key 'width'"),
        (b"[2, 2]", "must be a JSON object"),
        (b'{"width": 2, "height": 2', "invalid label raster sidecar"),
        (b'{"width": 2, "height": 2, "\xff\xfe": 3}', "sidecar is not valid UTF-8"),
    ])
    def test_malformed_sidecar_rejected(self, tmp_path, sidecar, message):
        path = str(tmp_path / "out.labels")
        write_label_raster(path, sidecar)
        with pytest.raises(FormatError, match=message):
            load_label_raster(path)

    @pytest.mark.parametrize("sidecar", [b"[" * 100000, b'{"width": %s}' % (b"9" * 5000)],
                             ids=["deeply-nested", "past-the-int-digit-limit"])
    def test_sidecar_json_beyond_the_parser_limits_rejected(self, tmp_path, sidecar):
        path = str(tmp_path / "out.labels")
        write_label_raster(path, sidecar)
        with pytest.raises(FormatError, match="invalid label raster sidecar"):
            load_label_raster(path)

    def test_missing_sidecar_rejected(self, tmp_path):
        path = str(tmp_path / "orphan.labels")
        with open(path, "wb") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(FormatError):
            load_label_raster(path)


class TestPreview:
    def test_uniform_signature(self, tmp_path):
        image = MultibandImage(data=np.zeros((2, 2, 3), dtype=np.uint8), depth=8)
        labels = LabelRaster(labels=np.ones((2, 2), dtype=np.uint32))
        path = str(tmp_path / "prev.ppm")
        save_preview(image, labels, [np.array([100, 150, 200])], (0, 1, 2), path)
        rendered = load_ppm(path)
        assert (rendered.data == np.array([100, 150, 200], dtype=np.uint8)).all()

    def test_null_cells_black(self, tmp_path):
        image = MultibandImage(data=np.zeros((1, 2, 3), dtype=np.uint8), depth=8)
        labels = LabelRaster(labels=np.array([[1, 0]], dtype=np.uint32))
        path = str(tmp_path / "prev.ppm")
        save_preview(image, labels, [np.array([9, 9, 9])], (0, 1, 2), path)
        rendered = load_ppm(path)
        assert rendered.data[0, 0].tolist() == [9, 9, 9]
        assert rendered.data[0, 1].tolist() == [0, 0, 0]

    def test_sixteen_bit_rescale_endpoint(self, tmp_path):
        image = MultibandImage(data=np.zeros((1, 1, 3), dtype=np.uint16), depth=16)
        labels = LabelRaster(labels=np.ones((1, 1), dtype=np.uint32))
        path = str(tmp_path / "prev.ppm")
        save_preview(image, labels, [np.array([65535, 0, 32768])], (0, 1, 2), path)
        rendered = load_ppm(path)
        assert rendered.data[0, 0].tolist() == [255, 0, 128]

    def test_missing_signature_rejected(self, tmp_path):
        image = MultibandImage(data=np.zeros((1, 2, 3), dtype=np.uint8), depth=8)
        labels = LabelRaster(labels=np.array([[1, 2]], dtype=np.uint32))
        with pytest.raises(ContractError, match="no signature for label 2"):
            save_preview(image, labels, [np.zeros(3)], (0, 1, 2),
                         str(tmp_path / "prev.ppm"))

    def test_signature_of_wrong_length_rejected(self, tmp_path):
        image = MultibandImage(data=np.zeros((1, 2, 3), dtype=np.uint8), depth=8)
        labels = LabelRaster(labels=np.array([[1, 2]], dtype=np.uint32))
        for signatures in ([np.zeros(3), np.zeros(4)], [np.zeros(3), np.zeros((1, 3))]):
            with pytest.raises(ContractError, match="3-vector"):
                save_preview(image, labels, signatures, (0, 1, 2), str(tmp_path / "prev.ppm"))

    def test_all_null_raster_without_signatures_is_black(self, tmp_path):
        image = MultibandImage(data=np.full((2, 3, 4), 200, dtype=np.uint8), depth=8)
        labels = LabelRaster(labels=np.zeros((2, 3), dtype=np.uint32))
        path = str(tmp_path / "prev.ppm")
        save_preview(image, labels, [], (0, 1, 2), path)
        assert (load_ppm(path).data == 0).all()

    def test_band_triple_out_of_range(self, tmp_path):
        image = MultibandImage(data=np.zeros((1, 1, 2), dtype=np.uint8), depth=8)
        labels = LabelRaster(labels=np.ones((1, 1), dtype=np.uint32))
        with pytest.raises(ContractError):
            save_preview(image, labels, [np.zeros(2)], (0, 1, 2),
                         str(tmp_path / "prev.ppm"))

    def test_band_triple_out_of_range_message(self, tmp_path):
        image = MultibandImage(data=np.zeros((1, 1, 2), dtype=np.uint8), depth=8)
        labels = LabelRaster(labels=np.ones((1, 1), dtype=np.uint32))
        with pytest.raises(ContractError) as err:
            save_preview(image, labels, [np.zeros(2)], (0, 1, 2), str(tmp_path / "prev.ppm"))
        assert str(err.value) == "band triple (0, 1, 2) out of range for 2 bands"
        assert not (tmp_path / "prev.ppm").exists()


def test_image_invariants_enforced():
    with pytest.raises(ContractError):
        MultibandImage(data=np.zeros((2, 2, 1), dtype=np.uint16), depth=8)
    with pytest.raises(ContractError):
        MultibandImage(data=np.zeros((2, 2), dtype=np.uint8), depth=8)
    with pytest.raises(ContractError):
        MultibandImage(data=np.zeros((0, 2, 1), dtype=np.uint8), depth=8)


def test_band_limit_keeps_medoid_sums_exact():
    # the medoid's sums are exact while 4·bands·(2^depth − 1)² ≤ 2⁵³
    assert 4 * 524304 * 65535**2 <= 2**53 < 4 * 524305 * 65535**2
    image = MultibandImage(data=np.zeros((1, 1, 524304), dtype=np.uint16), depth=16)
    assert image.bands == 524304
    with pytest.raises(ContractError, match="524305 bands exceed the limit of 524304"):
        MultibandImage(data=np.zeros((1, 1, 524305), dtype=np.uint16), depth=16)


class TestWidthRules:
    """Each integer sum over an image's bands at the edge of ``sum_dtype``'s int32."""

    @pytest.mark.parametrize("bands, dtype", [(32768, np.int32), (32769, np.int64)])
    def test_band_sums_at_the_boundary(self, bands, dtype):
        # 32 768 · 65535 < 2³¹ ≤ 32 769 · 65535
        image = MultibandImage(data=np.full((1, 1, bands), 65535, dtype=np.uint16), depth=16)
        assert image.sum_dtype() is dtype
        total = bands * 65535
        hist = compute_sum_histogram(image)
        assert hist.bins.tolist() == [total] and hist.counts.tolist() == [1]
        seeds = generate_seeds(image, [SumRange(total, total, total)])
        assert len(seeds) == 1 and seeds.labels.tolist() == [[1]]

    @pytest.mark.parametrize("bands, dtype", [(33025, np.int32), (33026, np.int64)])
    def test_squared_distances_at_the_boundary(self, bands, dtype):
        # 33 025 · 255² < 2³¹ ≤ 33 026 · 255²
        data = np.zeros((1, 2, bands), dtype=np.uint8)
        data[0, 0] = 255
        image = MultibandImage(data=data, depth=8)
        assert image.sum_dtype(2) is dtype
        epsilon = 1e-6
        want = max(epsilon, 1.0 - np.sqrt(float(bands * 255**2)) / image.max_distance)
        planes = {(dr, dc): plane for dr, dc, plane in
                  neighbor_weights(image, NeighborhoodKind.VONNEUMANN4, epsilon)}
        assert planes[0, 1].tolist() == [[want, 0.0]]
        assert planes[0, -1].tolist() == [[0.0, want]]


def test_every_source_of_the_same_samples_gives_the_same_image(tmp_path):
    # patches of three colours plus noise, so seeding finds several ranges
    rng = np.random.default_rng(3)
    palette = rng.integers(0, 256, size=(3, 3))
    data = palette[rng.integers(0, 3, size=(4, 5)).repeat(3, 0).repeat(3, 1)[:11, :13]]
    data = np.clip(data + rng.integers(-4, 5, size=data.shape), 0, 255).astype(np.uint8)
    bsq, ppm = str(tmp_path / "scene.bsq"), str(tmp_path / "scene.ppm")
    save_envi_bsq(MultibandImage(data=data.copy(), depth=8), bsq)
    save_ppm(data, ppm)
    band_major = np.ascontiguousarray(data.transpose(2, 0, 1))
    images = {
        "interleaved": MultibandImage(data=data.copy(), depth=8),
        "band-major view": MultibandImage(data=band_major.transpose(1, 2, 0), depth=8),
        "bsq": load_image(bsq),
        "ppm": load_image(ppm),
    }

    def results(image):
        hist = compute_sum_histogram(image)
        seeds = generate_seeds(image, select_ranges(hist, smooth_window=1, max_peaks=4), stride=2)
        segs = extract_segments(LabelRaster(labels=seeds.labels), NeighborhoodKind.MOORE8)
        return {
            "weights": [(dr, dc, plane.tobytes())
                        for nb in NeighborhoodKind for dr, dc, plane in neighbor_weights(image, nb, 1e-6)],
            "histogram": (hist.bins.tobytes(), hist.counts.tobytes(), hist.size),
            "seeds": (seeds.labels.tobytes(), seeds.keys),
            "medoids": [medoid_signature(image, seg).tobytes() for seg in segs.segments],
        }

    want = results(images["interleaved"])
    assert len(want["medoids"]) > 1
    assert np.shares_memory(images["band-major view"].planes, band_major)  # wrapped, not copied
    for source, image in images.items():
        assert image.planes.flags.c_contiguous, source
        assert image.planes.shape == (3, 11, 13), source
        assert np.array_equal(image.data, data), source
        assert results(image) == want, source
