"""Synthetic encoder stand-ins and the MVGF tensor container.

Two deterministic generators replace the real encoders at desk scale: a
per-frame image encoder producing a spatial patch grid (default 14x14,
depth 768, i.e. a 224 px input with 16 px patches) and a clip-level video
encoder consuming selected key-frames (default 14x14, depth 576).  Both
are pure functions of (seed, arguments) built on splitmix64, so outputs
are bitwise reproducible across platforms and pinned by golden digests in
the test suite.

MVGF file format (little-endian, no padding or compression):

    magic   4 bytes  b"MVGF"
    version u32      1
    dtype   u8       1 = float32, 2 = float64
    rank    u8
    dims    rank x u64
    payload product(dims) scalars, row-major

Feature files hold raw encoder outputs (pre-projection) so one file can
drive every downstream configuration.
"""

from __future__ import annotations

import hashlib
import os
import struct
import typing
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .errors import (
    ArgumentError,
    BadMagicError,
    DimensionOverflowError,
    FormatError,
    NonFiniteValueError,
    ShapeError,
    TruncatedPayloadError,
)

MAGIC = b"MVGF"
FORMAT_VERSION = 1

_DTYPE_CODES = {np.dtype("float32"): 1, np.dtype("float64"): 2}
_CODE_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}

_U64 = np.uint64
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


# ---------------------------------------------------------------------------
# splitmix64
# ---------------------------------------------------------------------------

def splitmix64(x: int | np.ndarray) -> int | np.ndarray:
    """One splitmix64 step: add the golden-gamma increment, then mix.

    Accepts a Python int or a uint64 ndarray; vectorized over arrays.
    All arithmetic is modulo 2**64.
    """
    if isinstance(x, np.ndarray):
        z = x.astype(_U64, copy=True)
        _splitmix64_inplace(z, np.empty_like(z))
        return z
    z = (int(x) + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _splitmix64_inplace(z: np.ndarray, scratch: np.ndarray) -> None:
    """``splitmix64`` over a uint64 array, in place; ``scratch`` is a uint64 array of z's shape."""
    z += _U64(_GAMMA)
    np.right_shift(z, _U64(30), out=scratch)
    z ^= scratch
    z *= _U64(0xBF58476D1CE4E5B9)
    np.right_shift(z, _U64(27), out=scratch)
    z ^= scratch
    z *= _U64(0x94D049BB133111EB)
    np.right_shift(z, _U64(31), out=scratch)
    z ^= scratch


_STREAM_CHUNK = 1 << 15  # elements per pass: each uint64/float64 chunk buffer is 256 KiB


def stream_values(key: int, n: int, scale: float = 1.0) -> np.ndarray:
    """float32 values ``(2u - 1) * scale`` for i < n, u = top 53 bits of splitmix64(key ^ i) / 2**53."""
    out = np.empty(n, dtype=np.float32)
    _fill_stream(out, key, scale)
    return out


def _fill_stream(out: np.ndarray, key: int, scale: float = 1.0) -> None:
    """Write ``stream_values(key, out.size, scale)`` into the flat float32 array ``out``.

    Filled a fixed-size chunk at a time, in place in one uint64 index base,
    two uint64 chunk buffers and one float64 chunk buffer, so no temporary
    grows with the size; each value depends only on its index, so the
    chunking does not change a bit.  The top 53 bits are cast to float64
    through an int64 view, which is exact because they are below 2**53.
    """
    n = out.size
    size = min(_STREAM_CHUNK, n)
    base = np.arange(size, dtype=_U64)
    z, scratch = np.empty(size, dtype=_U64), np.empty(size, dtype=_U64)
    u = np.empty(size, dtype=np.float64)
    key = _U64(key & _MASK64)
    for start in range(0, n, _STREAM_CHUNK):
        m = min(_STREAM_CHUNK, n - start)
        zc, uc = z[:m], u[:m]
        np.add(base[:m], _U64(start), out=zc)
        zc ^= key
        _splitmix64_inplace(zc, scratch[:m])
        zc >>= _U64(11)
        # 2u: the power-of-two scalings are exact, so this is 2.0 * (z * 2**-53)
        np.multiply(zc.view(np.int64), 2.0**-52, out=uc)
        uc -= 1.0
        uc *= scale
        out[start : start + m] = uc


# ---------------------------------------------------------------------------
# Feature containers
# ---------------------------------------------------------------------------

def json_int(value, key: str) -> int:
    """The integer JSON field ``key``: an int, or an integral float such as ``16.0``.

    Raises ArgumentError naming ``key`` for a bool, a string, a fraction, a
    non-finite number or any other value.
    """
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ArgumentError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _json_field(kind, value, key: str):
    """The JSON value of field ``key``, read as its annotation ``kind``."""
    if kind is int:
        return json_int(value, key)
    if kind is str:
        if not isinstance(value, str):
            raise ArgumentError(f"{key} must be a string, got {value!r}")
        return value
    if kind == tuple[int, int]:
        if not isinstance(value, list) or len(value) != 2:
            raise ArgumentError(f"{key} must be a list of two integers, got {value!r}")
        return (json_int(value[0], key), json_int(value[1], key))
    if kind == int | None:
        return None if value is None else json_int(value, key)
    return kind.from_dict(value, key)


class JsonConfig:
    """JSON form of a frozen config dataclass: one key per field.

    ``to_dict`` writes tuples as lists and nested configs as objects.
    ``from_dict`` reads exactly those keys, each by its field annotation;
    fields with a default may be absent.  A non-object, an unknown, missing
    or mistyped key, or a value the dataclass refuses raises ArgumentError
    naming the key path, such as ``image_encoder.grid``.
    """

    def to_dict(self) -> dict:
        return asdict(
            self, dict_factory=lambda kv: {k: list(v) if isinstance(v, tuple) else v for k, v in kv}
        )

    @classmethod
    def from_dict(cls, d, path: str = ""):
        if not isinstance(d, dict):
            where = path or "the top level"
            raise ArgumentError(f"{where} must be an object, got {type(d).__name__}")
        prefix = f"{path}." if path else ""
        known = {f.name: f for f in fields(cls)}
        unknown = [key for key in d if key not in known]
        if unknown:
            raise ArgumentError(f"unknown key '{prefix}{unknown[0]}'")
        hints = typing.get_type_hints(cls)
        kwargs = {}
        for name, f in known.items():
            if name in d:
                kwargs[name] = _json_field(hints[name], d[name], prefix + name)
            elif f.default is MISSING:
                raise ArgumentError(f"missing key '{prefix}{name}'")
        try:
            return cls(**kwargs)
        except ArgumentError as exc:
            if not path:
                raise
            raise ArgumentError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class EncoderSpec(JsonConfig):
    """Geometry of one encoder stand-in."""

    name: str
    grid: tuple[int, int]
    depth: int
    input_resolution: int = 224

    def __post_init__(self) -> None:
        h, w = self.grid
        if h < 1 or w < 1 or self.depth < 1:
            raise ArgumentError(
                f"encoder grid and depth must be positive, got {self.grid} x {self.depth}"
            )
        if self.input_resolution < 1:
            raise ArgumentError(f"input_resolution must be >= 1, got {self.input_resolution}")

    @property
    def tokens_per_frame(self) -> int:
        return self.grid[0] * self.grid[1]


DEFAULT_IMAGE_SPEC = EncoderSpec("synthetic-image", (14, 14), 768)
DEFAULT_VIDEO_SPEC = EncoderSpec("synthetic-video", (14, 14), 576)


@dataclass
class FrameFeatures:
    """Per-frame spatial features of either encoder: tensor (T, H, W, D).

    For the video encoder T is the number of selected key-frames.
    """

    tensor: np.ndarray

    def __post_init__(self) -> None:
        if self.tensor.ndim != 4:
            raise ShapeError(f"frame features must be (T, H, W, D), got {self.tensor.shape}")
        if min(self.tensor.shape) < 1:
            raise ShapeError(f"frame feature dims must be positive, got {self.tensor.shape}")

    @property
    def frames(self) -> int:
        return self.tensor.shape[0]

    @property
    def grid(self) -> tuple[int, int]:
        return self.tensor.shape[1], self.tensor.shape[2]

    @property
    def depth(self) -> int:
        return self.tensor.shape[3]


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------

def synth_image_features(seed: int, frames: int, spec: EncoderSpec = DEFAULT_IMAGE_SPEC) -> FrameFeatures:
    """Deterministic image-encoder stand-in.

    The value at flat index i is ``splitmix64(seed ^ i)`` mapped uniformly
    onto [-1, 1); the tensor has shape (frames, H, W, depth), float32.
    """
    if frames < 1:
        raise ArgumentError(f"frame count must be >= 1, got {frames}")
    h, w = spec.grid
    vals = stream_values(seed, frames * h * w * spec.depth)
    return FrameFeatures(vals.reshape(frames, h, w, spec.depth))


def synth_video_features(
    seed: int,
    keyframe_indices: "list[int] | tuple[int, ...]",
    spec: EncoderSpec = DEFAULT_VIDEO_SPEC,
) -> FrameFeatures:
    """Deterministic video-encoder stand-in over the selected key-frames.

    Frame slot j mixes the frame's source index into its value stream:
    element i of slot j is ``splitmix64(seed ^ splitmix64(index_j) ^ i)``
    mapped onto [-1, 1), so distinct key-frame sets give distinct tensors
    and the selection provably reaches the downstream branch.  Each slot's
    stream is written straight into its slice of the one output tensor.
    """
    idxs = list(keyframe_indices)
    if not idxs:
        raise ArgumentError("key-frame index list must not be empty")
    if any(i < 0 for i in idxs):
        raise ArgumentError(f"key-frame indices must be non-negative, got {idxs}")
    if any(b <= a for a, b in zip(idxs, idxs[1:])):
        raise ArgumentError(f"key-frame indices must be strictly increasing, got {idxs}")
    h, w = spec.grid
    out = np.empty((len(idxs), h, w, spec.depth), dtype=np.float32)
    for slot, frame_index in zip(out, idxs):
        _fill_stream(slot.reshape(-1), seed ^ splitmix64(frame_index))
    return FrameFeatures(out)


# ---------------------------------------------------------------------------
# MVGF container
# ---------------------------------------------------------------------------

def _encode_body(t: np.ndarray) -> bytes:
    """Header-after-version plus payload; also the digest preimage."""
    dtype = np.dtype(t.dtype)
    if dtype not in _DTYPE_CODES:
        raise FormatError(f"unsupported dtype {dtype}; MVGF stores float32/float64 only")
    if t.ndim < 1 or t.ndim > 255:
        raise FormatError(f"unsupported rank {t.ndim}")
    if min(t.shape) < 1:
        raise FormatError(f"dimensions must be positive, got {t.shape}")
    head = struct.pack("<BB", _DTYPE_CODES[dtype], t.ndim)
    head += struct.pack(f"<{t.ndim}Q", *t.shape)
    le = t.astype(f"<f{dtype.itemsize}", copy=False)
    return head + np.ascontiguousarray(le).tobytes()


def write_features(path, t: np.ndarray) -> None:
    """Write one tensor to an MVGF file; round-trips bitwise via read_features."""
    body = _encode_body(t)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(body)


def read_features(path) -> np.ndarray:
    """Read one MVGF tensor; raises a named FormatError on malformed files.

    The header and dimension list are read with small reads, then the
    payload goes straight into one freshly allocated array with
    ``readinto``: the result is the only copy, native-order, writable and
    C-contiguous.  A seekable file whose size cannot hold the declared
    payload is refused before the allocation, and a pipe whose header
    declares more than can be allocated raises DimensionOverflowError.
    Trailing bytes are found by reading past the payload, so a FIFO or
    pipe path reads like a file.
    """
    with open(path, "rb") as f:
        head = f.read(10)
        if head[:4] != MAGIC:
            raise BadMagicError(f"expected magic {MAGIC!r}, found {head[:4]!r}")
        if len(head) < 10:
            raise TruncatedPayloadError(f"file ends inside the fixed header ({len(head)} bytes)")
        (version,) = struct.unpack_from("<I", head, 4)
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported format version {version}")
        code, rank = struct.unpack_from("<BB", head, 8)
        if code not in _CODE_DTYPES:
            raise FormatError(f"unknown dtype code {code}")
        if rank < 1:
            raise FormatError(f"rank must be >= 1, got {rank}")
        dim_bytes = f.read(8 * rank)
        if len(dim_bytes) < 8 * rank:
            raise TruncatedPayloadError("file ends inside the dimension list")
        dims = struct.unpack(f"<{rank}Q", dim_bytes)
        dtype = _CODE_DTYPES[code]
        count = 1
        for d in dims:
            if d < 1:
                raise FormatError(f"dimension {d} is not positive in {dims}")
            count *= d
            if count * dtype.itemsize > 2**62:
                raise DimensionOverflowError(f"dimensions {dims} overflow a real payload size")
        need = count * dtype.itemsize
        have = need  # a pipe has no size; a short read below tells the same
        if f.seekable():  # a file's size refuses a corrupt header before the allocation
            here = f.tell()
            have = f.seek(0, os.SEEK_END) - here
            f.seek(here)
        if have >= need:
            try:
                data = np.empty(count, dtype=dtype.newbyteorder("="))
            except MemoryError:
                msg = f"dimensions {dims} need more memory than can be allocated"
                raise DimensionOverflowError(msg) from None
            have = f.readinto(data)
        if have < need:
            raise TruncatedPayloadError(
                f"header declares {count} scalars ({need} bytes) but only {have} bytes follow"
            )
        if f.read(1):
            raise FormatError("trailing bytes after the declared payload")
    if dtype != data.dtype:
        data.byteswap(inplace=True)  # big-endian host: the payload is little-endian
    # min and max propagate NaN, and an infinity reaches one of them
    if not (np.isfinite(data.min()) and np.isfinite(data.max())):
        raise NonFiniteValueError(f"{path}: payload holds NaN or infinite values")
    return data.reshape(dims)


def tensor_digest(t: np.ndarray) -> str:
    """Stable 64-bit content digest (blake2b-8) over dtype, shape, and bytes."""
    return hashlib.blake2b(_encode_body(t), digest_size=8).hexdigest()
