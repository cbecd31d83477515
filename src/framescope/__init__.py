"""framescope: token-efficiency machinery for dual-encoder video pipelines.

Attention-based key-frame scoring and selection, token-reducing
projectors, deterministic synthetic encoder stand-ins, an MVGF tensor
container, and closed-form token/MAC budgeting with an end-to-end
pipeline -- all numpy, all reproducible bit-for-bit.
"""

from .errors import (
    ArgumentError,
    BadMagicError,
    DimensionOverflowError,
    FormatError,
    FrameScopeError,
    NonFiniteValueError,
    ShapeError,
    TruncatedPayloadError,
    UnsupportedUpsampleError,
)
from .features import (
    DEFAULT_IMAGE_SPEC,
    DEFAULT_VIDEO_SPEC,
    EncoderSpec,
    FrameFeatures,
    read_features,
    splitmix64,
    synth_image_features,
    synth_video_features,
    tensor_digest,
    write_features,
)
from .gradcheck import run_gradient_checks
from .numerics import (
    ConvParams,
    LinearParams,
    adaptive_avg_pool2d,
    count_macs,
    depthwise_conv3x3,
    ffn_forward,
    gelu,
    linear,
    matmul,
    softmax_rows,
)
from .pipeline import (
    FileSource,
    MacReport,
    PipelineConfig,
    PipelineResult,
    StagePlan,
    SyntheticSource,
    TokenBudget,
    default_config,
    mac_report,
    make_config,
    run_pipeline,
    stage_plan,
    token_budget,
)
from .projector import (
    ET_PROJ,
    MLP_PROJ,
    ProjectorConfig,
    ProjectorParams,
    TokenSequence,
    init_projector_params,
    load_projector,
    project_branch,
    projector_backward,
    projector_forward,
    role_shapes,
    save_projector,
)
from .selection import (
    FrameScore,
    KeyFrameSet,
    frame_scores,
    spatial_attention,
    top_k_frames,
    uniform_sample_indices,
)

__version__ = "0.1.0"
