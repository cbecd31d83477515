"""Token projectors mapping encoder features into the language-model space.

Two kinds share one config/param surface:

* ``et_proj`` (efficient token projector): per-token FFN, reshape onto the
  spatial grid, adaptive average pooling down to a smaller grid, then a
  depthwise 3x3 positional encoder with an additive skip connection
  (``pooled + conv(pooled)``).  Token count shrinks from H*W to Hr*Wr.
* ``mlp_proj``: per-token two-layer MLP; token count is unchanged.

``project_branch`` projects every frame of a feature tensor in one batched
call; frames never mix, so the token blocks come out in temporal order.

Fresh parameters are deterministic: FFN weights come from the splitmix64
value stream scaled by 1/sqrt(fan_in); biases and the positional-encoder
weights start at zero, so a new et_proj is exactly ``pool(ffn(x))`` until
trained.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ArgumentError, ShapeError
from .features import (
    FrameFeatures,
    VideoFeatures,
    read_features,
    splitmix64,
    stream_values,
    write_features,
)
from .numerics import (
    ConvParams,
    LinearParams,
    adaptive_avg_pool2d,
    conv_grad,
    depthwise_conv3x3,
    ffn_forward,
    ffn_grad,
    pool_grad,
)

ET_PROJ = "et_proj"
MLP_PROJ = "mlp_proj"


@dataclass(frozen=True)
class ProjectorConfig:
    """Shape contract of one projector instance."""

    kind: str
    c_in: int
    c_out: int
    grid_in: tuple[int, int]
    grid_out: tuple[int, int]
    c_hidden: int | None = None  # None -> c_out

    def __post_init__(self) -> None:
        if self.c_hidden is None:
            object.__setattr__(self, "c_hidden", self.c_out)
        if self.kind not in (ET_PROJ, MLP_PROJ):
            raise ArgumentError(f"unknown projector kind {self.kind!r}")
        if min(self.c_in, self.c_out, self.hidden) < 1:
            raise ArgumentError("channel widths must be positive")
        if min(self.grid_in) < 1 or min(self.grid_out) < 1:
            raise ArgumentError(f"grids must be positive, got {self.grid_in} -> {self.grid_out}")
        if self.kind == MLP_PROJ and self.grid_out != self.grid_in:
            raise ArgumentError(
                f"mlp_proj keeps the token grid; got {self.grid_in} -> {self.grid_out}"
            )
        if self.kind == ET_PROJ and (
            self.grid_out[0] > self.grid_in[0] or self.grid_out[1] > self.grid_in[1]
        ):
            raise ArgumentError(
                f"et_proj cannot upsample the grid: {self.grid_in} -> {self.grid_out}"
            )

    @property
    def hidden(self) -> int:
        return self.c_hidden

    @property
    def tokens_in(self) -> int:
        return self.grid_in[0] * self.grid_in[1]

    @property
    def tokens_out(self) -> int:
        h, w = self.grid_out if self.kind == ET_PROJ else self.grid_in
        return h * w

    def macs_per_frame(self) -> int:
        """Forward multiplies for one frame, matching the instrumented kernels."""
        n = self.tokens_in
        ffn = n * self.c_in * self.hidden + n * self.hidden * self.c_out
        if self.kind == MLP_PROJ:
            return ffn
        hr, wr = self.grid_out
        pool = self.c_out * hr * wr
        conv = 9 * self.c_out * hr * wr
        return ffn + pool + conv

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "c_in": self.c_in,
            "c_hidden": self.hidden,
            "c_out": self.c_out,
            "grid_in": list(self.grid_in),
            "grid_out": list(self.grid_out),
        }

    @staticmethod
    def from_dict(d: dict) -> "ProjectorConfig":
        return ProjectorConfig(
            kind=d["kind"],
            c_in=int(d["c_in"]),
            c_out=int(d["c_out"]),
            grid_in=(int(d["grid_in"][0]), int(d["grid_in"][1])),
            grid_out=(int(d["grid_out"][0]), int(d["grid_out"][1])),
            c_hidden=int(d["c_hidden"]) if d.get("c_hidden") is not None else None,
        )


@dataclass
class ProjectorParams:
    """Learnable state of one projector; fields depend on the kind."""

    ffn1: LinearParams | None = None
    ffn2: LinearParams | None = None
    posenc: ConvParams | None = None
    mlp: list[LinearParams] = field(default_factory=list)


@dataclass
class TokenSequence:
    """Projected tokens of one branch: (B, M, C_out)."""

    tokens: np.ndarray
    branch: str

    def __post_init__(self) -> None:
        if self.tokens.ndim != 3:
            raise ShapeError(f"token sequence must be (B, M, C), got {self.tokens.shape}")

    @property
    def count(self) -> int:
        return self.tokens.shape[1]

    @property
    def width(self) -> int:
        return self.tokens.shape[2]


def _stream_weights(seed: int, role: int, shape: tuple[int, ...], scale: float) -> np.ndarray:
    return stream_values(seed ^ splitmix64(role), int(np.prod(shape)), scale).reshape(shape)


def init_projector_params(cfg: ProjectorConfig, seed: int) -> ProjectorParams:
    """Deterministic fresh parameters for the given config and seed."""
    w1 = _stream_weights(seed, 1, (cfg.c_in, cfg.hidden), 1.0 / math.sqrt(cfg.c_in))
    w2 = _stream_weights(seed, 2, (cfg.hidden, cfg.c_out), 1.0 / math.sqrt(cfg.hidden))
    l1 = LinearParams(w1, np.zeros(cfg.hidden, dtype=np.float32))
    l2 = LinearParams(w2, np.zeros(cfg.c_out, dtype=np.float32))
    if cfg.kind == MLP_PROJ:
        return ProjectorParams(mlp=[l1, l2])
    posenc = ConvParams(
        np.zeros((cfg.c_out, 3, 3), dtype=np.float32),
        np.zeros(cfg.c_out, dtype=np.float32),
    )
    return ProjectorParams(ffn1=l1, ffn2=l2, posenc=posenc)


def _check_input(x: np.ndarray, cfg: ProjectorConfig) -> None:
    if x.ndim != 3:
        raise ShapeError(f"projector input must be (B, N, C_in), got {x.shape}")
    h, w = cfg.grid_in
    if x.shape[1] != h * w:
        raise ShapeError(
            f"token count {x.shape[1]} does not match grid_in {cfg.grid_in} ({h * w} tokens)"
        )
    if x.shape[2] != cfg.c_in:
        raise ShapeError(f"channel width {x.shape[2]} does not match c_in {cfg.c_in}")


def et_proj_forward(x: np.ndarray, cfg: ProjectorConfig, params: ProjectorParams) -> np.ndarray:
    """FFN -> grid reshape -> adaptive pool -> positional conv with skip.

    x: (B, N, C_in) with N = H*W (token n sits at grid cell (n // W, n % W));
    returns (B, Hr*Wr, C_out).  With zero positional-encoder parameters the
    skip connection makes the output exactly the pooled FFN output.
    """
    _check_input(x, cfg)
    if cfg.kind != ET_PROJ:
        raise ArgumentError(f"config kind is {cfg.kind!r}, expected {ET_PROJ!r}")
    h, w = cfg.grid_in
    hr, wr = cfg.grid_out
    b = x.shape[0]
    # The FFN output (B, N, C_out) is already (B, H, W, C_out) in memory, so
    # the pool reads it channel-last without a copy; it is freed before the conv.
    grid = ffn_forward(x, params.ffn1, params.ffn2).reshape(b, h, w, cfg.c_out)
    pooled = adaptive_avg_pool2d(grid.transpose(0, 3, 1, 2), hr, wr)
    del grid
    out = depthwise_conv3x3(pooled, params.posenc)
    out += pooled  # skip connection
    return out.transpose(0, 2, 3, 1).reshape(b, hr * wr, cfg.c_out)


def et_proj_backward(
    x: np.ndarray, cfg: ProjectorConfig, params: ProjectorParams, g: np.ndarray
) -> tuple[np.ndarray, dict[str, tuple[np.ndarray, ...]]]:
    """Gradients of et_proj_forward; returns (dx, {ffn1, ffn2, posenc})."""
    _check_input(x, cfg)
    h, w = cfg.grid_in
    hr, wr = cfg.grid_out
    b = x.shape[0]
    if g.shape != (b, hr * wr, cfg.c_out):
        raise ShapeError(
            f"upstream gradient {g.shape} does not match output ({b}, {hr * wr}, {cfg.c_out})"
        )
    y = ffn_forward(x, params.ffn1, params.ffn2)
    grid = y.reshape(b, h, w, cfg.c_out).transpose(0, 3, 1, 2)
    g_grid = g.reshape(b, hr, wr, cfg.c_out).transpose(0, 3, 1, 2)
    pooled = adaptive_avg_pool2d(grid, hr, wr)
    dconv_in, dk, db = conv_grad(pooled, params.posenc, g_grid)
    dy_grid = pool_grad(grid.shape, g_grid + dconv_in)  # skip connection
    dy = dy_grid.transpose(0, 2, 3, 1).reshape(b, h * w, cfg.c_out)
    dx, dffn1, dffn2 = ffn_grad(x, params.ffn1, params.ffn2, dy)
    return dx, {"ffn1": dffn1, "ffn2": dffn2, "posenc": (dk, db)}


def mlp_proj_forward(x: np.ndarray, cfg: ProjectorConfig, params: ProjectorParams) -> np.ndarray:
    """Per-token two-layer MLP; token count unchanged: (B, N, C_in) -> (B, N, C_out)."""
    _check_input(x, cfg)
    if cfg.kind != MLP_PROJ:
        raise ArgumentError(f"config kind is {cfg.kind!r}, expected {MLP_PROJ!r}")
    return ffn_forward(x, params.mlp[0], params.mlp[1])


def mlp_proj_backward(
    x: np.ndarray, cfg: ProjectorConfig, params: ProjectorParams, g: np.ndarray
) -> tuple[np.ndarray, dict[str, tuple[np.ndarray, ...]]]:
    """Gradients of mlp_proj_forward; returns (dx, {mlp0, mlp1})."""
    _check_input(x, cfg)
    dx, d0, d1 = ffn_grad(x, params.mlp[0], params.mlp[1], g)
    return dx, {"mlp0": d0, "mlp1": d1}


def project_branch(
    features: FrameFeatures | VideoFeatures,
    cfg: ProjectorConfig,
    params: ProjectorParams,
    branch: str,
) -> TokenSequence:
    """Project all frames in one batched call, token blocks in frame order.

    A feature tensor (frames, H, W, D) yields (1, frames * tokens_out, C_out);
    frame f occupies token rows [f * tokens_out, (f+1) * tokens_out).
    """
    tensor = features.tensor
    if (tensor.shape[1], tensor.shape[2]) != cfg.grid_in:
        raise ShapeError(
            f"feature grid {tensor.shape[1:3]} does not match projector grid_in {cfg.grid_in}"
        )
    if tensor.shape[3] != cfg.c_in:
        raise ShapeError(f"feature depth {tensor.shape[3]} does not match c_in {cfg.c_in}")
    frames = tensor.shape[0]
    forward = et_proj_forward if cfg.kind == ET_PROJ else mlp_proj_forward
    out = forward(tensor.reshape(frames, cfg.tokens_in, cfg.c_in), cfg, params)
    return TokenSequence(out.reshape(1, frames * cfg.tokens_out, cfg.c_out), branch)


# ---------------------------------------------------------------------------
# Persistence: MVGF tensors plus a JSON manifest
# ---------------------------------------------------------------------------

MANIFEST_SCHEMA = "framescope/projector-manifest-v1"

# The layers each kind saves, in file order.  A tensor's role is
# "<layer>.<field>" for each field of the layer's type, e.g. "ffn1.weight".
_LAYERS = {
    ET_PROJ: (("ffn1", LinearParams), ("ffn2", LinearParams), ("posenc", ConvParams)),
    MLP_PROJ: (("mlp0", LinearParams), ("mlp1", LinearParams)),
}


def _role_shapes(cfg: ProjectorConfig) -> dict[str, tuple[int, ...]]:
    """Expected shape of every tensor role; both kinds start with the same two linears."""
    roles = [f"{name}.{f.name}" for name, layer in _LAYERS[cfg.kind] for f in fields(layer)]
    linears = [(cfg.c_in, cfg.hidden), (cfg.hidden,), (cfg.hidden, cfg.c_out), (cfg.c_out,)]
    posenc = [(cfg.c_out, 3, 3), (cfg.c_out,)] if cfg.kind == ET_PROJ else []
    return dict(zip(roles, linears + posenc, strict=True))


def role_tensors(cfg: ProjectorConfig, params: ProjectorParams) -> dict[str, np.ndarray]:
    """Every tensor of ``params`` by role ("ffn1.weight", ...), in file order."""
    layers = [params.ffn1, params.ffn2, params.posenc] if cfg.kind == ET_PROJ else params.mlp
    return {
        f"{name}.{f.name}": getattr(layer, f.name)
        for (name, _), layer in zip(_LAYERS[cfg.kind], layers, strict=True)
        for f in fields(layer)
    }


def save_projector(dirpath, cfg: ProjectorConfig, params: ProjectorParams) -> None:
    """Persist one projector as MVGF tensors plus manifest.json in dirpath."""
    os.makedirs(dirpath, exist_ok=True)
    tensors = role_tensors(cfg, params)
    files = {}
    for role, tensor in tensors.items():
        fname = role.replace(".", "_") + ".mvgf"
        write_features(os.path.join(dirpath, fname), tensor)
        files[role] = fname
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "config": cfg.to_dict(),
        "tensors": files,
    }
    with open(os.path.join(dirpath, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)


def load_projector(dirpath) -> tuple[ProjectorConfig, ProjectorParams]:
    """Load a projector saved by save_projector.

    Raises ArgumentError for a manifest with another schema id or missing
    keys or tensor roles, and ShapeError for a tensor whose shape disagrees
    with the manifest's config.
    """
    with open(os.path.join(dirpath, "manifest.json")) as f:
        manifest = json.load(f)
    missing = [key for key in ("schema", "config", "tensors") if key not in manifest]
    if missing:
        raise ArgumentError(f"projector manifest is missing keys: {missing}")
    if manifest["schema"] != MANIFEST_SCHEMA:
        raise ArgumentError(
            f"unsupported projector manifest schema {manifest['schema']!r}; "
            f"expected {MANIFEST_SCHEMA!r}"
        )
    try:
        cfg = ProjectorConfig.from_dict(manifest["config"])
    except KeyError as exc:
        raise ArgumentError(f"projector manifest config is missing key {exc}") from None
    shapes = _role_shapes(cfg)
    missing = [role for role in shapes if role not in manifest["tensors"]]
    if missing:
        raise ArgumentError(f"manifest is missing tensor roles: {missing}")
    tensors = {}
    for role, shape in shapes.items():
        tensors[role] = read_features(os.path.join(dirpath, manifest["tensors"][role]))
        if tensors[role].shape != shape:
            raise ShapeError(
                f"tensor {role} has shape {tensors[role].shape} but the manifest "
                f"config needs {shape}"
            )
    layers = [
        layer(*(tensors[f"{name}.{f.name}"] for f in fields(layer)))
        for name, layer in _LAYERS[cfg.kind]
    ]
    params = ProjectorParams(*layers) if cfg.kind == ET_PROJ else ProjectorParams(mlp=layers)
    return cfg, params
