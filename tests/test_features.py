"""Synthetic generators (golden-pinned) and MVGF round-trips."""

import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framescope.errors import (
    ArgumentError,
    BadMagicError,
    DimensionOverflowError,
    FormatError,
    NonFiniteValueError,
    TruncatedPayloadError,
)
from framescope import features
from framescope.features import (
    EncoderSpec,
    read_features,
    splitmix64,
    synth_image_features,
    synth_video_features,
    tensor_digest,
    write_features,
)

GAMMA = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


class TestSplitmix64:
    def test_reference_sequence(self):
        """First outputs of the canonical generator seeded with 1234567."""
        seq = [splitmix64((1234567 + i * GAMMA) & MASK) for i in range(3)]
        assert seq == [6457827717110365317, 3203168211198807973, 9817491932198370423]

    def test_zero_input(self):
        assert splitmix64(0) == 16294208416658607535

    def test_vectorized_matches_scalar(self):
        xs = np.array([0, 1, 42, MASK], dtype=np.uint64)
        vec = splitmix64(xs)
        assert [int(v) for v in vec] == [splitmix64(int(x)) for x in xs]


def stream_value_scalar(key, i, scale):
    """Element i of ``stream_values(key, n, scale)``, one Python int at a time."""
    u = (splitmix64((key ^ i) & MASK) >> 11) / 2.0**53
    return np.float32((2.0 * u - 1.0) * scale)


class TestStreamValues:
    CHUNK = features._STREAM_CHUNK

    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    @pytest.mark.parametrize("key", [0, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("scale", [1.0, 0.03])
    def test_matches_scalar_formula_at_sampled_indices(self, n, key, scale):
        vals = features.stream_values(key, n, scale)
        assert vals.shape == (n,) and vals.dtype == np.float32
        # both ends of every chunk, plus a spread of interior indices
        ends = {i for c in range(0, n, self.CHUNK) for i in (c, c + 1, c + self.CHUNK - 1)}
        picks = sorted({i for i in ends | set(range(0, n, 997)) | {n - 1} if i < n})
        got = [vals[i] for i in picks]
        want = [stream_value_scalar(key, i, scale) for i in picks]
        assert np.array_equal(np.array(got), np.array(want))


class TestSyntheticImage:
    def test_shape_for_default_geometry(self):
        spec = EncoderSpec("synthetic-image", (14, 14), 768)
        feats = synth_image_features(0, 16, spec)
        assert feats.tensor.shape == (16, 14, 14, 768)
        assert feats.tensor.dtype == np.float32

    def test_deterministic(self):
        spec = EncoderSpec("synthetic-image", (4, 4), 8)
        a = synth_image_features(9, 3, spec)
        b = synth_image_features(9, 3, spec)
        assert np.array_equal(a.tensor, b.tensor)

    def test_seed_changes_values(self):
        spec = EncoderSpec("synthetic-image", (4, 4), 8)
        a = synth_image_features(0, 2, spec)
        b = synth_image_features(1, 2, spec)
        assert not np.array_equal(a.tensor, b.tensor)

    def test_values_in_unit_range(self):
        feats = synth_image_features(3, 2, EncoderSpec("synthetic-image", (5, 5), 16))
        assert np.all(feats.tensor >= -1.0) and np.all(feats.tensor < 1.0)

    def test_golden_digest(self):
        feats = synth_image_features(7, 2, EncoderSpec("synthetic-image", (3, 3), 4))
        assert tensor_digest(feats.tensor) == "e83985d27afcb408"

    def test_golden_digest_default_geometry(self):
        feats = synth_image_features(0, 16)
        assert tensor_digest(feats.tensor) == "74a76adf454cb876"

    def test_peak_allocation_is_output_plus_chunk_temporaries(self):
        """The value stream is generated in chunks, so a default 16-frame call
        (9.6 MB of float32) never holds full-size uint64/float64 temporaries."""
        tracemalloc.start()
        try:
            feats = synth_image_features(0, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < feats.tensor.nbytes + 16 * features._STREAM_CHUNK * 8

    def test_zero_frames_rejected(self):
        with pytest.raises(ArgumentError):
            synth_image_features(0, 0)


class TestSyntheticVideo:
    def test_shape_for_default_geometry(self):
        spec = EncoderSpec("synthetic-video", (14, 14), 576)
        feats = synth_video_features(0, list(range(8)), spec)
        assert feats.tensor.shape == (8, 14, 14, 576)

    def test_deterministic(self):
        spec = EncoderSpec("synthetic-video", (2, 2), 3)
        a = synth_video_features(5, [1, 4], spec)
        b = synth_video_features(5, [1, 4], spec)
        assert np.array_equal(a.tensor, b.tensor)

    def test_index_set_changes_values(self):
        spec = EncoderSpec("synthetic-video", (2, 2), 3)
        a = synth_video_features(5, [0, 2], spec)
        b = synth_video_features(5, [0, 3], spec)
        assert np.array_equal(a.tensor[0], b.tensor[0])  # shared first frame
        assert not np.array_equal(a.tensor[1], b.tensor[1])

    def test_golden_digest(self):
        feats = synth_video_features(7, [0, 2, 5], EncoderSpec("synthetic-video", (2, 2), 3))
        assert tensor_digest(feats.tensor) == "dc659a07405452cd"

    def test_golden_digest_default_geometry(self):
        feats = synth_video_features(0, list(range(8)))
        assert tensor_digest(feats.tensor) == "ed07c8c590d93632"

    def test_peak_allocation_is_output_plus_one_slot(self):
        """Each slot streams into its slice of the output; per-slot arrays
        stacked into a copy would hold twice the 3.6 MB 8-slot tensor."""
        tracemalloc.start()
        try:
            feats = synth_video_features(0, list(range(0, 16, 2)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * feats.tensor.nbytes

    @pytest.mark.parametrize("bad", [[], [3, 2], [1, 1], [-1, 0]])
    def test_bad_index_lists_rejected(self, bad):
        with pytest.raises(ArgumentError):
            synth_video_features(0, bad)


class TestMvgfRoundTrip:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_round_trip_bitwise(self, tmp_path, dtype, rank):
        rng = np.random.default_rng(rank)
        shape = tuple(rng.integers(1, 5) for _ in range(rank))
        t = rng.standard_normal(shape).astype(dtype)
        path = tmp_path / "t.mvgf"
        write_features(path, t)
        back = read_features(path)
        assert back.dtype == t.dtype
        assert back.shape == t.shape
        assert np.array_equal(back.view(np.uint8), t.view(np.uint8))

    def test_round_trip_sweep(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(100):
            rank = int(rng.integers(1, 5))
            shape = tuple(int(d) for d in rng.integers(1, 6, size=rank))
            dtype = np.float32 if i % 2 == 0 else np.float64
            t = rng.standard_normal(shape).astype(dtype)
            path = tmp_path / f"t{i}.mvgf"
            write_features(path, t)
            back = read_features(path)
            assert back.shape == t.shape and back.dtype == t.dtype
            assert np.array_equal(back.view(np.uint8), t.view(np.uint8))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mvgf"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(BadMagicError):
            read_features(path)

    def test_truncated_payload(self, tmp_path):
        # header declares 2x2 float32 but only 3 floats follow
        path = tmp_path / "trunc.mvgf"
        body = struct.pack("<BB", 1, 2) + struct.pack("<2Q", 2, 2)
        payload = struct.pack("<3f", 1.0, 2.0, 3.0)
        path.write_bytes(b"MVGF" + struct.pack("<I", 1) + body + payload)
        with pytest.raises(TruncatedPayloadError):
            read_features(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.mvgf"
        path.write_bytes(b"MVGF" + struct.pack("<I", 1) + b"\x01")
        with pytest.raises(TruncatedPayloadError):
            read_features(path)

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "huge.mvgf"
        body = struct.pack("<BB", 1, 2) + struct.pack("<2Q", 2**40, 2**40)
        path.write_bytes(b"MVGF" + struct.pack("<I", 1) + body)
        with pytest.raises(DimensionOverflowError):
            read_features(path)

    def test_unknown_dtype_code(self, tmp_path):
        path = tmp_path / "dtype.mvgf"
        body = struct.pack("<BB", 9, 1) + struct.pack("<Q", 1) + struct.pack("<f", 0.0)
        path.write_bytes(b"MVGF" + struct.pack("<I", 1) + body)
        with pytest.raises(FormatError):
            read_features(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "ver.mvgf"
        body = struct.pack("<BB", 1, 1) + struct.pack("<Q", 1) + struct.pack("<f", 0.0)
        path.write_bytes(b"MVGF" + struct.pack("<I", 2) + body)
        with pytest.raises(FormatError):
            read_features(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "extra.mvgf"
        t = np.zeros((2,), dtype=np.float32)
        write_features(path, t)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(FormatError):
            read_features(path)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, dtype, bad):
        import framescope

        path = tmp_path / "bad.mvgf"
        t = np.ones((2, 3, 3, 4), dtype=dtype)
        t[1, 2, 0, 3] = bad
        write_features(path, t)
        with pytest.raises(NonFiniteValueError, match="bad.mvgf"):
            read_features(path)
        assert issubclass(framescope.NonFiniteValueError, FormatError)


def write_fifo(path, raw):
    """Start a thread that writes ``raw`` into the FIFO at ``path`` in 4 KiB pieces."""

    def feed():
        with open(path, "wb", buffering=0) as f:
            for i in range(0, len(raw), 4096):
                f.write(raw[i : i + 4096])

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    return writer


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
class TestMvgfStreams:
    def test_fifo_reads_back_the_same_bits(self, tmp_path):
        t = synth_image_features(3, 2, EncoderSpec("s", (4, 5), 24)).tensor
        file_path, fifo = tmp_path / "t.mvgf", tmp_path / "t.fifo"
        write_features(file_path, t)
        os.mkfifo(fifo)
        writer = write_fifo(fifo, file_path.read_bytes())
        back = read_features(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(back.view(np.uint8), t.view(np.uint8))

    def test_fifo_with_truncated_payload_raises(self, tmp_path):
        t = np.ones((64, 33), dtype=np.float32)
        file_path, fifo = tmp_path / "t.mvgf", tmp_path / "t.fifo"
        write_features(file_path, t)
        os.mkfifo(fifo)
        writer = write_fifo(fifo, file_path.read_bytes()[:-5])
        with pytest.raises(TruncatedPayloadError):
            read_features(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()

    def test_fifo_declaring_more_than_memory_raises(self, tmp_path):
        # 2**60 bytes is past any address space, so the allocation fails without touching memory
        fifo = tmp_path / "t.fifo"
        os.mkfifo(fifo)
        head = b"MVGF" + struct.pack("<I", 1) + struct.pack("<BB", 1, 1) + struct.pack("<Q", 2**58)
        writer = write_fifo(fifo, head + b"\x00" * 64)
        with pytest.raises(DimensionOverflowError):
            read_features(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()


class TestMvgfReadCopies:
    def test_peak_allocation_is_one_payload(self, tmp_path):
        # a whole-file bytes object plus a converted copy would hold 2x the payload
        t = synth_image_features(0, 16).tensor
        path = tmp_path / "t.mvgf"
        write_features(path, t)
        tracemalloc.start()
        try:
            back = read_features(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, t)
        assert peak < 1.3 * t.nbytes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_result_is_writable_native_and_contiguous(self, tmp_path, dtype):
        path = tmp_path / "t.mvgf"
        write_features(path, np.arange(24, dtype=dtype).reshape(2, 3, 4))
        back = read_features(path)
        assert back.flags.writeable and back.flags.c_contiguous
        assert back.dtype.isnative and back.dtype == dtype
        back[0, 0, 0] = -1.0


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mvgf_fuzz") / "fuzz.mvgf"


class TestMvgfFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_corrupted_file_reads_back_or_raises_format_error(
        self, fuzz_path, shape, dtype, seed, data
    ):
        t = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
        write_features(fuzz_path, t)
        raw = bytearray(fuzz_path.read_bytes())
        cut = data.draw(st.one_of(st.none(), st.integers(0, len(raw) - 1)))
        if cut is not None:
            del raw[cut:]
        if raw:
            flips = data.draw(
                st.lists(
                    st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)),
                    min_size=0 if cut is not None else 1,
                    max_size=3,
                )
            )
            for pos, mask in flips:
                raw[pos] ^= mask
        fuzz_path.write_bytes(bytes(raw))
        try:
            back = read_features(fuzz_path)
        except FormatError:
            return
        assert np.isfinite(back).all()


class TestDigest:
    def test_digest_is_stable_and_shape_aware(self):
        a = np.arange(6, dtype=np.float32).reshape(2, 3)
        b = np.arange(6, dtype=np.float32).reshape(3, 2)
        assert tensor_digest(a) == tensor_digest(a.copy())
        assert tensor_digest(a) != tensor_digest(b)
        assert tensor_digest(a) != tensor_digest(a.astype(np.float64))
