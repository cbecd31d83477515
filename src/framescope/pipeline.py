"""End-to-end orchestration: sample, score, select, project, fuse, account.

The flow mirrors a dual-encoder design: per-frame image features are
scored with token-token attention, the top-K frames feed a clip-level
video encoder stand-in, both branches pass through their projectors, and
the projected tokens are fused image-first into one sequence for a
language model (represented here only by its embedding width).

Alongside the tensor path, closed-form accounting answers "what would
this configuration cost": ``token_budget`` counts the visual tokens
handed to the language model and ``mac_report`` counts forward multiplies
per stage, in exact agreement with the instrumented kernels in
:mod:`framescope.numerics`.

Every run is a pure function of (config, feature source): same seed, same
bytes, across runs and processes.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ShapeError
from .features import (
    EncoderSpec,
    FrameFeatures,
    json_int,
    read_features,
    splitmix64,
    synth_image_features,
    synth_video_features,
    tensor_digest,
)
from .projector import (
    ET_PROJ,
    MLP_PROJ,
    ProjectorConfig,
    ProjectorParams,
    TokenSequence,
    init_projector_params,
    project_branch,
)
from .selection import FrameScore, KeyFrameSet, frame_scores, top_k_frames, uniform_sample_indices

ATTENTION_BASED = "attention_based"
NO_SELECTION = "none"

DUAL = "dual"
IMAGE_ONLY = "image_only"
VIDEO_ONLY = "video_only"

DEFAULT_EMBED_WIDTH = 896  # language-model embedding width consumed downstream

CONFIG_SCHEMA = "framescope/pipeline-config-v1"

_MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineConfig:
    """Full run configuration; construct via make_config for the defaults."""

    frames: int
    keyframes: int
    frame_selection: str
    projector_kind: str
    branch_mode: str
    seed: int
    image_encoder: EncoderSpec
    video_encoder: EncoderSpec
    image_projector: ProjectorConfig
    video_projector: ProjectorConfig

    def __post_init__(self) -> None:
        if self.frames < 1:
            raise ArgumentError(f"frames must be >= 1, got {self.frames}")
        if not (1 <= self.keyframes <= self.frames):
            raise ArgumentError(
                f"keyframes must satisfy 1 <= K <= {self.frames}, got {self.keyframes}"
            )
        if self.frame_selection not in (ATTENTION_BASED, NO_SELECTION):
            raise ArgumentError(f"unknown frame_selection {self.frame_selection!r}")
        if self.frame_selection == NO_SELECTION and self.keyframes != self.frames:
            raise ArgumentError(
                "frame_selection='none' feeds every frame to the video branch; "
                f"keyframes must equal frames ({self.frames})"
            )
        if self.projector_kind not in (ET_PROJ, MLP_PROJ):
            raise ArgumentError(f"unknown projector_kind {self.projector_kind!r}")
        if self.branch_mode not in (DUAL, IMAGE_ONLY, VIDEO_ONLY):
            raise ArgumentError(f"unknown branch_mode {self.branch_mode!r}")
        for name, spec, proj in (
            ("image", self.image_encoder, self.image_projector),
            ("video", self.video_encoder, self.video_projector),
        ):
            if proj.kind != self.projector_kind:
                raise ArgumentError(
                    f"{name} projector kind {proj.kind!r} conflicts with "
                    f"projector_kind {self.projector_kind!r}"
                )
            if proj.grid_in != spec.grid or proj.c_in != spec.depth:
                raise ShapeError(
                    f"{name} projector expects grid {proj.grid_in} x {proj.c_in} but the "
                    f"encoder provides {spec.grid} x {spec.depth}"
                )

    @property
    def has_image_branch(self) -> bool:
        return self.branch_mode in (DUAL, IMAGE_ONLY)

    @property
    def has_video_branch(self) -> bool:
        return self.branch_mode in (DUAL, VIDEO_ONLY)

    @property
    def scoring_active(self) -> bool:
        """Attention scoring runs only when a video branch consumes the selection."""
        return self.has_video_branch and self.frame_selection == ATTENTION_BASED

    def to_dict(self) -> dict:
        return {
            "schema": CONFIG_SCHEMA,
            "frames": self.frames,
            "keyframes": self.keyframes,
            "frame_selection": self.frame_selection,
            "projector_kind": self.projector_kind,
            "branch_mode": self.branch_mode,
            "seed": self.seed,
            "image_encoder": self.image_encoder.to_dict(),
            "video_encoder": self.video_encoder.to_dict(),
            "image_projector": self.image_projector.to_dict(),
            "video_projector": self.video_projector.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_dict(d: dict) -> "PipelineConfig":
        schema = d.get("schema", CONFIG_SCHEMA)
        if schema != CONFIG_SCHEMA:
            raise ArgumentError(f"unsupported config schema {schema!r}")
        return PipelineConfig(
            frames=json_int(d["frames"], "frames"),
            keyframes=json_int(d["keyframes"], "keyframes"),
            frame_selection=d["frame_selection"],
            projector_kind=d["projector_kind"],
            branch_mode=d["branch_mode"],
            seed=json_int(d["seed"], "seed"),
            image_encoder=EncoderSpec.from_dict(d["image_encoder"]),
            video_encoder=EncoderSpec.from_dict(d["video_encoder"]),
            image_projector=ProjectorConfig.from_dict(d["image_projector"]),
            video_projector=ProjectorConfig.from_dict(d["video_projector"]),
        )

    @staticmethod
    def from_json(text: str) -> "PipelineConfig":
        return PipelineConfig.from_dict(json.loads(text))


def make_config(
    frames: int = 16,
    keyframes: int | None = None,
    frame_selection: str = ATTENTION_BASED,
    projector_kind: str = ET_PROJ,
    branch_mode: str = DUAL,
    seed: int = 0,
    embed_width: int = DEFAULT_EMBED_WIDTH,
    ffn_hidden: int | None = None,
    image_grid: tuple[int, int] = (14, 14),
    image_depth: int = 768,
    image_grid_out: tuple[int, int] = (12, 12),
    video_grid: tuple[int, int] = (14, 14),
    video_depth: int = 576,
    video_grid_out: tuple[int, int] = (7, 7),
) -> PipelineConfig:
    """Build a consistent configuration.

    Defaults reproduce the reference setup: 16 frames, K = frames // 2,
    attention-based selection, dual branches, token-reducing projector
    (image 14x14 -> 12x12, video 14x14 -> 7x7).  ``frame_selection='none'``
    forces K to the full frame count; ``mlp_proj`` keeps the input grids.
    """
    if frame_selection == NO_SELECTION:
        keyframes = frames
    elif keyframes is None:
        keyframes = max(1, frames // 2)
    image_spec = EncoderSpec("synthetic-image", image_grid, image_depth)
    video_spec = EncoderSpec("synthetic-video", video_grid, video_depth)
    if projector_kind == MLP_PROJ:
        image_grid_out = image_grid
        video_grid_out = video_grid
    image_proj = ProjectorConfig(
        kind=projector_kind,
        c_in=image_depth,
        c_out=embed_width,
        grid_in=image_grid,
        grid_out=image_grid_out,
        c_hidden=ffn_hidden,
    )
    video_proj = ProjectorConfig(
        kind=projector_kind,
        c_in=video_depth,
        c_out=embed_width,
        grid_in=video_grid,
        grid_out=video_grid_out,
        c_hidden=ffn_hidden,
    )
    return PipelineConfig(
        frames=frames,
        keyframes=keyframes,
        frame_selection=frame_selection,
        projector_kind=projector_kind,
        branch_mode=branch_mode,
        seed=seed,
        image_encoder=image_spec,
        video_encoder=video_spec,
        image_projector=image_proj,
        video_projector=video_proj,
    )


def default_config(seed: int = 0) -> PipelineConfig:
    return make_config(seed=seed)


# ---------------------------------------------------------------------------
# Closed-form accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TokenBudget:
    """Visual tokens handed to the language model, per branch."""

    image_tokens: int
    video_tokens: int

    @property
    def total(self) -> int:
        return self.image_tokens + self.video_tokens

    def to_dict(self) -> dict:
        return {
            "image_tokens": self.image_tokens,
            "video_tokens": self.video_tokens,
            "total": self.total,
        }


def token_budget(cfg: PipelineConfig) -> TokenBudget:
    """Closed-form token counts: frames x tokens-per-frame, per active branch."""
    image = cfg.frames * cfg.image_projector.tokens_out if cfg.has_image_branch else 0
    video = cfg.keyframes * cfg.video_projector.tokens_out if cfg.has_video_branch else 0
    return TokenBudget(image, video)


@dataclass(frozen=True)
class MacReport:
    """Forward multiply counts per pipeline stage (additions are free)."""

    scoring: int
    image_projection: int
    video_projection: int
    fusion: int

    @property
    def total(self) -> int:
        return self.scoring + self.image_projection + self.video_projection + self.fusion

    def to_dict(self) -> dict:
        return {
            "scoring": self.scoring,
            "image_projection": self.image_projection,
            "video_projection": self.video_projection,
            "fusion": self.fusion,
            "total": self.total,
        }


def mac_report(cfg: PipelineConfig) -> MacReport:
    """Analytic multiply counts; exact integers, equal to the instrumented kernels.

    scoring: S^2 * D_f attention-logit multiplies over S = T * H * W image
    tokens, as ``frame_scores`` computes them (softmax exponentials and
    the 1/sqrt(D_f) scaling are not modeled).  Projection stages follow
    ``ProjectorConfig.macs_per_frame``; fusion is pure concatenation and
    costs nothing.
    """
    s = cfg.frames * cfg.image_encoder.tokens_per_frame
    scoring = s * s * cfg.image_encoder.depth if cfg.scoring_active else 0
    image = cfg.frames * cfg.image_projector.macs_per_frame() if cfg.has_image_branch else 0
    video = cfg.keyframes * cfg.video_projector.macs_per_frame() if cfg.has_video_branch else 0
    return MacReport(scoring=scoring, image_projection=image, video_projection=video, fusion=0)


# ---------------------------------------------------------------------------
# Training-stage plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StagePlan:
    """Which modules train and which stay frozen in one training stage."""

    stage: int
    trainable: frozenset[str]
    frozen: frozenset[str]
    adapter_note: str

    def __post_init__(self) -> None:
        if self.trainable & self.frozen:
            raise ArgumentError(
                f"modules cannot be both trainable and frozen: {self.trainable & self.frozen}"
            )

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "trainable": sorted(self.trainable),
            "frozen": sorted(self.frozen),
            "adapter_note": self.adapter_note,
        }


_LORA_NOTE = (
    "language model tuned through low-rank adapters; recorded settings disagree "
    "(rank 64 in the tuning recipe vs rank 128 with alpha 256 in the stage table) "
    "and both values are retained unresolved"
)


def stage_plan(stage: int) -> StagePlan:
    """Trainability mask of the three-stage training plan.

    Encoders are frozen in every stage.  Stage 1 warms up the image
    projector, stage 2 the video projector; stage 3 tunes both projectors
    plus a low-rank language-model adapter while the base model stays
    frozen.
    """
    if stage == 1:
        return StagePlan(
            1,
            frozenset({"image_projector"}),
            frozenset({"image_encoder", "video_encoder", "slm", "video_projector"}),
            "no language-model adapter in warm-up stages",
        )
    if stage == 2:
        return StagePlan(
            2,
            frozenset({"video_projector"}),
            frozenset({"image_encoder", "video_encoder", "slm", "image_projector"}),
            "no language-model adapter in warm-up stages",
        )
    if stage == 3:
        return StagePlan(
            3,
            frozenset({"image_projector", "video_projector", "slm_adapter"}),
            frozenset({"image_encoder", "video_encoder", "slm"}),
            _LORA_NOTE,
        )
    raise ArgumentError(f"stage must be 1, 2, or 3, got {stage}")


# ---------------------------------------------------------------------------
# Feature sources
# ---------------------------------------------------------------------------

class SyntheticSource:
    """Generates both branches' features deterministically from cfg.seed."""

    def image_features(self, cfg: PipelineConfig) -> FrameFeatures:
        return synth_image_features(cfg.seed, cfg.frames, cfg.image_encoder)

    def video_features(self, cfg: PipelineConfig, indices: tuple[int, ...]) -> FrameFeatures:
        return synth_video_features(cfg.seed, indices, cfg.video_encoder)


class FileSource:
    """Feeds externally computed features from MVGF files.

    ``image_path`` must hold (T', H, W, D) raw image-encoder output; if T'
    differs from cfg.frames the frames are uniformly resampled.  The
    optional ``video_path`` holds (K, H, W, D) video-encoder output for the
    already-selected key-frames (run selection first, encode externally,
    then feed the result); without it the video branch falls back to the
    synthetic generator so selection still reaches downstream values.
    """

    def __init__(self, image_path, video_path=None) -> None:
        self.image_path = image_path
        self.video_path = video_path

    def image_features(self, cfg: PipelineConfig) -> FrameFeatures:
        feats = FrameFeatures(read_features(self.image_path))
        if feats.grid != cfg.image_encoder.grid or feats.depth != cfg.image_encoder.depth:
            raise ShapeError(
                f"feature file grid {feats.grid} x {feats.depth} does not match the "
                f"configured encoder {cfg.image_encoder.grid} x {cfg.image_encoder.depth}"
            )
        if feats.frames != cfg.frames:
            picks = uniform_sample_indices(feats.frames, cfg.frames)
            feats = FrameFeatures(feats.tensor[picks])
        return feats

    def video_features(self, cfg: PipelineConfig, indices: tuple[int, ...]) -> FrameFeatures:
        if self.video_path is None:
            return synth_video_features(cfg.seed, indices, cfg.video_encoder)
        feats = FrameFeatures(read_features(self.video_path))
        if feats.frames != len(indices):
            raise ShapeError(
                f"video feature file holds {feats.frames} frames but {len(indices)} "
                f"key-frames were selected"
            )
        if feats.grid != cfg.video_encoder.grid or feats.depth != cfg.video_encoder.depth:
            raise ShapeError(
                f"video feature file grid {feats.grid} x {feats.depth} does not match "
                f"the configured encoder {cfg.video_encoder.grid} x {cfg.video_encoder.depth}"
            )
        return feats


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------

@dataclass
class PipelineResult:
    tokens: TokenSequence
    keyframes: KeyFrameSet
    scores: FrameScore | None
    budget: TokenBudget
    macs: MacReport
    durations_ms: dict[str, float]

    @property
    def digest(self) -> str:
        """64-bit content digest of the fused token tensor."""
        return tensor_digest(self.tokens.tokens)


def _branch_seed(seed: int, stream: int) -> int:
    return splitmix64((seed & _MASK64) ^ splitmix64(stream))


@functools.lru_cache(maxsize=4)  # two branches x two configs
def _branch_params(cfg: ProjectorConfig, seed: int) -> ProjectorParams:
    """One branch's parameters, built once per (config, seed) and shared read-only.

    Calls ``init_projector_params`` through this module's global, so a
    wrapper installed there sees each cache miss.
    """
    params = init_projector_params(cfg, seed)
    for array in params.values():
        array.flags.writeable = False
    return params


class _StageClock:
    """Bills the wall time since the previous lap to a stage, so the stages tile the run."""

    def __init__(self) -> None:
        self.durations_ms: dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.durations_ms[stage] = self.durations_ms.get(stage, 0.0) + (now - self._last) * 1e3
        self._last = now


def run_pipeline(cfg: PipelineConfig, source=None) -> PipelineResult:
    """Execute the full flow; deterministic for fixed (cfg, source).

    Stages: projector parameters -> image features -> attention scoring
    and top-K selection (only when a video branch consumes it) -> image
    projection -> video features for the selected frames and video
    projection -> image-first fusion.  Each branch's projector parameters
    are built from cfg.seed on the first call for its config and reused,
    read-only, by later calls.

    ``durations_ms`` bills every moment of the call to one stage, so its
    values sum to the call's wall time: ``params`` (the cached parameter
    lookup, near zero once built), ``features`` (image and video feature
    acquisition), ``scoring``, ``image_projection``, ``video_projection``
    and ``fusion``.
    """
    if source is None:
        source = SyntheticSource()

    clock = _StageClock()
    if cfg.has_image_branch:
        image_params = _branch_params(cfg.image_projector, _branch_seed(cfg.seed, 1))
    if cfg.has_video_branch:
        video_params = _branch_params(cfg.video_projector, _branch_seed(cfg.seed, 2))
    clock.lap("params")

    image_feats = source.image_features(cfg)
    clock.lap("features")

    scores: FrameScore | None = None
    if cfg.scoring_active:
        scores = frame_scores(image_feats)
        keyframes = top_k_frames(scores, cfg.keyframes)
    elif cfg.has_video_branch:
        keyframes = KeyFrameSet(tuple(range(cfg.frames)))
    else:
        keyframes = KeyFrameSet(())
    clock.lap("scoring")

    image_seq = None
    if cfg.has_image_branch:
        image_seq = project_branch(image_feats, cfg.image_projector, image_params, "image")
    clock.lap("image_projection")

    video_seq = None
    if cfg.has_video_branch:
        video_feats = source.video_features(cfg, keyframes.indices)
        clock.lap("features")
        video_seq = project_branch(video_feats, cfg.video_projector, video_params, "video")
    clock.lap("video_projection")

    blocks = [seq.tokens for seq in (image_seq, video_seq) if seq is not None]
    fused = TokenSequence(np.concatenate(blocks, axis=1), "fused")
    clock.lap("fusion")

    return PipelineResult(
        tokens=fused,
        keyframes=keyframes,
        scores=scores,
        budget=token_budget(cfg),
        macs=mac_report(cfg),
        durations_ms=clock.durations_ms,
    )
