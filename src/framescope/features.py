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
import struct
from dataclasses import dataclass

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
        z = x.astype(_U64, copy=True) + _U64(_GAMMA)
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        return z ^ (z >> _U64(31))
    z = (int(x) + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


_STREAM_CHUNK = 1 << 15  # elements per pass: the uint64/float64 temporaries stay at 256 KiB each


def stream_values(key: int, n: int, scale: float = 1.0) -> np.ndarray:
    """float32 values ``(2u - 1) * scale`` for i < n, u = top 53 bits of splitmix64(key ^ i) / 2**53.

    Filled in fixed-size chunks so the integer and double temporaries stay
    small; each value depends only on its index, so the chunking does not
    change a bit.
    """
    out = np.empty(n, dtype=np.float32)
    key = _U64(key & _MASK64)
    for start in range(0, n, _STREAM_CHUNK):
        stop = min(start + _STREAM_CHUNK, n)
        words = splitmix64(np.arange(start, stop, dtype=_U64) ^ key)
        u = (words >> _U64(11)).astype(np.float64) * (2.0 ** -53)
        out[start:stop] = (2.0 * u - 1.0) * scale
    return out


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


@dataclass(frozen=True)
class EncoderSpec:
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

    @property
    def tokens_per_frame(self) -> int:
        return self.grid[0] * self.grid[1]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "grid": list(self.grid),
            "depth": self.depth,
            "input_resolution": self.input_resolution,
        }

    @staticmethod
    def from_dict(d: dict) -> "EncoderSpec":
        return EncoderSpec(
            name=d["name"],
            grid=(json_int(d["grid"][0], "grid"), json_int(d["grid"][1], "grid")),
            depth=json_int(d["depth"], "depth"),
            input_resolution=json_int(d.get("input_resolution", 224), "input_resolution"),
        )


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
    and the selection provably reaches the downstream branch.
    """
    idxs = list(keyframe_indices)
    if not idxs:
        raise ArgumentError("key-frame index list must not be empty")
    if any(i < 0 for i in idxs):
        raise ArgumentError(f"key-frame indices must be non-negative, got {idxs}")
    if any(b <= a for a, b in zip(idxs, idxs[1:])):
        raise ArgumentError(f"key-frame indices must be strictly increasing, got {idxs}")
    h, w = spec.grid
    slots = [
        stream_values(seed ^ splitmix64(frame_index), h * w * spec.depth).reshape(h, w, spec.depth)
        for frame_index in idxs
    ]
    return FrameFeatures(np.stack(slots, axis=0))


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
    """Read one MVGF tensor; raises a named FormatError on malformed files."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != MAGIC:
        raise BadMagicError(f"expected magic {MAGIC!r}, found {raw[:4]!r}")
    if len(raw) < 10:
        raise TruncatedPayloadError(f"file ends inside the fixed header ({len(raw)} bytes)")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    code, rank = struct.unpack_from("<BB", raw, 8)
    if code not in _CODE_DTYPES:
        raise FormatError(f"unknown dtype code {code}")
    if rank < 1:
        raise FormatError(f"rank must be >= 1, got {rank}")
    off = 10
    if len(raw) < off + 8 * rank:
        raise TruncatedPayloadError("file ends inside the dimension list")
    dims = struct.unpack_from(f"<{rank}Q", raw, off)
    off += 8 * rank
    dtype = _CODE_DTYPES[code]
    count = 1
    for d in dims:
        if d < 1:
            raise FormatError(f"dimension {d} is not positive in {dims}")
        count *= d
        if count * dtype.itemsize > 2**62:
            raise DimensionOverflowError(f"dimensions {dims} overflow a real payload size")
    need = count * dtype.itemsize
    have = len(raw) - off
    if have < need:
        raise TruncatedPayloadError(
            f"header declares {count} scalars ({need} bytes) but only {have} bytes follow"
        )
    if have > need:
        raise FormatError(f"{have - need} trailing bytes after the declared payload")
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=off)
    if not np.isfinite(data).all():
        raise NonFiniteValueError(f"{path}: payload holds NaN or infinite values")
    native = data.astype(data.dtype.newbyteorder("="), copy=True)
    return native.reshape(dims)


def tensor_digest(t: np.ndarray) -> str:
    """Stable 64-bit content digest (blake2b-8) over dtype, shape, and bytes."""
    return hashlib.blake2b(_encode_body(t), digest_size=8).hexdigest()
