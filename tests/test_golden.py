"""Golden values that a refactor of the projector or feature types must not move.

Fused-token digests of three reference configs, and the blake2b-8 digest
of every file ``save_projector`` writes for both projector kinds.
"""

import hashlib

import pytest

from framescope.pipeline import default_config, make_config, run_pipeline
from framescope.projector import (
    ET_PROJ,
    MLP_PROJ,
    ProjectorConfig,
    init_projector_params,
    save_projector,
)


@pytest.mark.parametrize(
    "make, digest",
    [
        (lambda: default_config(0), "2ece75f6ec61f24a"),
        (lambda: make_config(frames=4, projector_kind=MLP_PROJ), "316031333570f200"),
        (lambda: make_config(frames=32, keyframes=4, branch_mode="video_only"), "7e7c9582c33cdbb3"),
    ],
    ids=["default", "mlp_4f", "video_only_32f"],
)
def test_fused_digest(make, digest):
    assert run_pipeline(make()).digest == digest


SAVED_FILES = {
    ET_PROJ: {
        "manifest.json": "9d9b8eb634eba64b",
        "ffn1_weight.mvgf": "a8b8a2e994792b13",
        "ffn1_bias.mvgf": "4ab8e3563679369a",
        "ffn2_weight.mvgf": "b32ca075d4b4f652",
        "ffn2_bias.mvgf": "0f6ee34cfdd37e60",
        "posenc_kernel.mvgf": "1857e61a508630aa",
        "posenc_bias.mvgf": "0f6ee34cfdd37e60",
    },
    MLP_PROJ: {
        "manifest.json": "9692ef39d44e8734",
        "mlp0_weight.mvgf": "a8b8a2e994792b13",
        "mlp0_bias.mvgf": "4ab8e3563679369a",
        "mlp1_weight.mvgf": "b32ca075d4b4f652",
        "mlp1_bias.mvgf": "0f6ee34cfdd37e60",
    },
}


@pytest.mark.parametrize("kind", [ET_PROJ, MLP_PROJ])
def test_saved_projector_bytes(tmp_path, kind):
    grid_out = (2, 2) if kind == ET_PROJ else (3, 3)
    cfg = ProjectorConfig(kind, 5, 4, (3, 3), grid_out, 6)
    save_projector(tmp_path, cfg, init_projector_params(cfg, 11))
    got = {
        path.name: hashlib.blake2b(path.read_bytes(), digest_size=8).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert got == SAVED_FILES[kind]
