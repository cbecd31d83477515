"""Token projectors mapping encoder features into the language-model space.

Two kinds share one config/param surface:

* ``et_proj`` (efficient token projector): per-token FFN, reshape onto the
  spatial grid, adaptive average pooling down to a smaller grid, then a
  depthwise 3x3 positional encoder with an additive skip connection
  (``pooled + conv(pooled)``).  Token count shrinks from H*W to Hr*Wr.
* ``mlp_proj``: per-token two-layer MLP; token count is unchanged.

``project_branch`` projects every frame of a feature tensor in one batched
call; frames never mix, so the token blocks come out in temporal order.

Parameters are one mapping from tensor role to array, ``"ffn1.weight"``,
``"posenc.kernel"``, ``"mlp0.bias"`` and so on, in file order.  Fresh
parameters are deterministic: FFN weights come from the splitmix64 value
stream scaled by 1/sqrt(fan_in); biases and the positional-encoder weights
start at zero, so a new et_proj is exactly ``pool(ffn(x))`` until trained.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ShapeError
from .features import (
    FrameFeatures,
    JsonConfig,
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
class ProjectorConfig(JsonConfig):
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
        if min(self.c_in, self.c_out, self.c_hidden) < 1:
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
    def tokens_in(self) -> int:
        return self.grid_in[0] * self.grid_in[1]

    @property
    def tokens_out(self) -> int:
        h, w = self.grid_out if self.kind == ET_PROJ else self.grid_in
        return h * w

    def macs_per_frame(self) -> int:
        """Forward multiplies for one frame, matching the instrumented kernels."""
        n = self.tokens_in
        ffn = n * self.c_in * self.c_hidden + n * self.c_hidden * self.c_out
        if self.kind == MLP_PROJ:
            return ffn
        hr, wr = self.grid_out
        pool = self.c_out * hr * wr
        conv = 9 * self.c_out * hr * wr
        return ffn + pool + conv


# Learnable state of one projector: tensor role ("ffn1.weight", ...) -> array, in file order.
ProjectorParams = dict[str, np.ndarray]

# The layers of each kind, in file order.  A linear layer has the roles
# "<layer>.weight" and "<layer>.bias", the positional conv "posenc.kernel"
# and "posenc.bias".
_LAYERS = {ET_PROJ: ("ffn1", "ffn2", "posenc"), MLP_PROJ: ("mlp0", "mlp1")}


def role_shapes(cfg: ProjectorConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every tensor role, in file order; both kinds start with the same two linears."""
    first, second, *conv = _LAYERS[cfg.kind]
    shapes = {
        f"{first}.weight": (cfg.c_in, cfg.c_hidden),
        f"{first}.bias": (cfg.c_hidden,),
        f"{second}.weight": (cfg.c_hidden, cfg.c_out),
        f"{second}.bias": (cfg.c_out,),
    }
    for name in conv:
        shapes[f"{name}.kernel"] = (cfg.c_out, 3, 3)
        shapes[f"{name}.bias"] = (cfg.c_out,)
    return shapes


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
    """Deterministic fresh parameters: the two FFN weights from value streams 1 and 2, the rest zero."""
    params = {}
    stream = 1
    for role, shape in role_shapes(cfg).items():
        if role.endswith(".weight"):
            params[role] = _stream_weights(seed, stream, shape, 1.0 / math.sqrt(shape[0]))
            stream += 1
        else:
            params[role] = np.zeros(shape, dtype=np.float32)
    return params


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


def _ffn_layers(cfg: ProjectorConfig, params: ProjectorParams) -> tuple[LinearParams, LinearParams]:
    return tuple(
        LinearParams(params[f"{name}.weight"], params[f"{name}.bias"]) for name in _LAYERS[cfg.kind][:2]
    )


def projector_forward(x: np.ndarray, cfg: ProjectorConfig, params: ProjectorParams) -> np.ndarray:
    """Per-token FFN; et_proj then pools onto grid_out and adds a positional conv with skip.

    x: (B, N, C_in) with N = H*W (token n sits at grid cell (n // W, n % W));
    returns (B, tokens_out, C_out).  With zero positional-encoder parameters
    the skip connection makes et_proj exactly the pooled FFN output.
    """
    _check_input(x, cfg)
    out = ffn_forward(x, *_ffn_layers(cfg, params))
    if cfg.kind == MLP_PROJ:
        return out
    h, w = cfg.grid_in
    hr, wr = cfg.grid_out
    b = x.shape[0]
    # (B, H*W, C_out) reshapes to the grid without a copy; it is freed before the conv.
    pooled = adaptive_avg_pool2d(out.reshape(b, h, w, cfg.c_out), hr, wr)
    del out
    out = depthwise_conv3x3(pooled, ConvParams(params["posenc.kernel"], params["posenc.bias"]))
    out += pooled  # skip connection
    return out.reshape(b, hr * wr, cfg.c_out)


def projector_backward(
    x: np.ndarray, cfg: ProjectorConfig, params: ProjectorParams, g: np.ndarray
) -> tuple[np.ndarray, ProjectorParams]:
    """Gradients of projector_forward: (dx, parameter gradients keyed like params)."""
    _check_input(x, cfg)
    b = x.shape[0]
    if g.shape != (b, cfg.tokens_out, cfg.c_out):
        raise ShapeError(
            f"upstream gradient {g.shape} does not match output ({b}, {cfg.tokens_out}, {cfg.c_out})"
        )
    p1, p2 = _ffn_layers(cfg, params)
    conv = ()
    if cfg.kind == ET_PROJ:
        h, w = cfg.grid_in
        hr, wr = cfg.grid_out
        grid = ffn_forward(x, p1, p2).reshape(b, h, w, cfg.c_out)
        g_grid = g.reshape(b, hr, wr, cfg.c_out)
        posenc = ConvParams(params["posenc.kernel"], params["posenc.bias"])
        dconv_in, *conv = conv_grad(adaptive_avg_pool2d(grid, hr, wr), posenc, g_grid)
        g = pool_grad(grid.shape, g_grid + dconv_in).reshape(b, h * w, cfg.c_out)  # skip connection
    dx, dffn1, dffn2 = ffn_grad(x, p1, p2, g)
    return dx, dict(zip(role_shapes(cfg), (*dffn1, *dffn2, *conv), strict=True))


def project_branch(
    features: FrameFeatures,
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
    out = projector_forward(tensor.reshape(frames, cfg.tokens_in, cfg.c_in), cfg, params)
    return TokenSequence(out.reshape(1, frames * cfg.tokens_out, cfg.c_out), branch)


# ---------------------------------------------------------------------------
# Persistence: MVGF tensors plus a JSON manifest
# ---------------------------------------------------------------------------

MANIFEST_SCHEMA = "framescope/projector-manifest-v1"


def save_projector(dirpath, cfg: ProjectorConfig, params: ProjectorParams) -> None:
    """Persist one projector as MVGF tensors plus manifest.json in dirpath."""
    os.makedirs(dirpath, exist_ok=True)
    files = {}
    for role, tensor in params.items():
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

    Raises ArgumentError naming the manifest for text that is not JSON, a
    non-object, another schema id, missing keys or roles, an invalid config
    or a bad tensor file name (not a string, holding a NUL, absolute, or
    resolving outside ``dirpath``), and ShapeError for a tensor whose shape
    disagrees with the config.
    """
    path = os.path.join(dirpath, "manifest.json")
    with open(path) as f:
        try:
            manifest = json.load(f)
        except ValueError as exc:
            raise ArgumentError(f"projector manifest {path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ArgumentError(f"projector manifest {path} must be an object")
    missing = [key for key in ("schema", "config", "tensors") if key not in manifest]
    if missing:
        raise ArgumentError(f"projector manifest {path} is missing keys: {missing}")
    if manifest["schema"] != MANIFEST_SCHEMA:
        raise ArgumentError(
            f"unsupported projector manifest schema {manifest['schema']!r}; "
            f"expected {MANIFEST_SCHEMA!r}"
        )
    try:
        cfg = ProjectorConfig.from_dict(manifest["config"], "config")
    except (ArgumentError, ShapeError) as exc:
        raise ArgumentError(f"projector manifest {path} is invalid: {exc}") from None
    files = manifest["tensors"]
    if not isinstance(files, dict) or not all(
        isinstance(name, str) and "\0" not in name for name in files.values()
    ):
        raise ArgumentError(f"projector manifest {path}: tensors must map roles to file names")
    shapes = role_shapes(cfg)
    missing = [role for role in shapes if role not in files]
    if missing:
        raise ArgumentError(f"manifest is missing tensor roles: {missing}")
    root = os.path.realpath(dirpath)
    params = {}
    for role, shape in shapes.items():
        file = os.path.realpath(os.path.join(root, files[role]))
        if os.path.isabs(files[role]) or os.path.commonpath([root, file]) != root:
            raise ArgumentError(
                f"projector manifest {path}: tensor {role} file {files[role]!r} "
                f"is outside the projector directory"
            )
        params[role] = read_features(file)
        if params[role].shape != shape:
            raise ShapeError(
                f"tensor {role} has shape {params[role].shape} but the manifest "
                f"config needs {shape}"
            )
    return cfg, params
