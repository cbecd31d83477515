"""Token projectors: shape laws, identities, oracles, persistence."""

import json
import tracemalloc

import numpy as np
import pytest

from framescope import features, projector
from framescope.errors import ArgumentError, ShapeError
from framescope.features import (
    EncoderSpec,
    splitmix64,
    synth_image_features,
    synth_video_features,
    write_features,
)
from framescope.numerics import LinearParams, adaptive_avg_pool2d, ffn_forward
from framescope.pipeline import default_config
from framescope.projector import (
    ET_PROJ,
    MLP_PROJ,
    ProjectorConfig,
    init_projector_params,
    load_projector,
    project_branch,
    projector_backward,
    projector_forward,
    role_shapes,
    save_projector,
)


def layer(params, name):
    """The linear layer ``name`` ("ffn1", "mlp0", ...) of a role mapping."""
    return LinearParams(params[f"{name}.weight"], params[f"{name}.bias"])


def mlp_oracle(x, p1, p2):
    """Independent per-token two-layer MLP in scalar math."""
    import math

    b, n, _ = x.shape
    out = np.zeros((b, n, p2.weight.shape[1]), dtype=np.float64)
    for bi in range(b):
        for t in range(n):
            h = x[bi, t].astype(np.float64) @ p1.weight.astype(np.float64) + p1.bias
            h = np.array(
                [0.5 * v * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (v + 0.044715 * v**3))) for v in h]
            )
            out[bi, t] = h @ p2.weight.astype(np.float64) + p2.bias
    return out


def et_cfg(c_in=768, c_out=64, grid_in=(14, 14), grid_out=(12, 12), c_hidden=None):
    return ProjectorConfig(ET_PROJ, c_in, c_out, grid_in, grid_out, c_hidden)


def mlp_cfg(c_in=768, c_out=64, grid=(14, 14), c_hidden=None):
    return ProjectorConfig(MLP_PROJ, c_in, c_out, grid, grid, c_hidden)


class TestEtProj:
    def test_reduces_196_tokens_to_144(self):
        cfg = et_cfg()
        params = init_projector_params(cfg, 0)
        x = synth_image_features(0, 1, EncoderSpec("synthetic-image", (14, 14), 768))
        out = projector_forward(x.tensor.reshape(1, 196, 768), cfg, params)
        assert out.shape == (1, 144, 64)

    def test_zero_posenc_is_pool_of_ffn(self):
        """Fresh params have a zero positional encoder: output == pool(ffn(x)) bitwise."""
        cfg = et_cfg(c_in=6, c_out=5, grid_in=(4, 4), grid_out=(2, 2), c_hidden=7)
        params = init_projector_params(cfg, 3)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 16, 6)).astype(np.float32)
        out = projector_forward(x, cfg, params)
        y = ffn_forward(x, layer(params, "ffn1"), layer(params, "ffn2"))
        expected = np.stack(
            [
                adaptive_avg_pool2d(y[i].reshape(4, 4, 5).transpose(2, 0, 1), 2, 2)
                .transpose(1, 2, 0)
                .reshape(4, 5)
                for i in range(2)
            ]
        )
        assert np.array_equal(out, expected)

    def test_constant_input_gives_identical_output_tokens(self):
        # divisible grid: every pooling region has 4 cells, so the constant
        # survives bitwise; overlapping regions agree to rounding only
        cfg = et_cfg(c_in=3, c_out=4, grid_in=(6, 6), grid_out=(3, 3))
        params = init_projector_params(cfg, 1)
        x = np.full((1, 36, 3), 0.37, dtype=np.float32)
        out = projector_forward(x, cfg, params)
        assert np.array_equal(out[0], np.broadcast_to(out[0, 0], out[0].shape))

        cfg2 = et_cfg(c_in=3, c_out=4, grid_in=(5, 5), grid_out=(3, 3))
        out2 = projector_forward(
            np.full((1, 25, 3), 0.37, dtype=np.float32), cfg2, init_projector_params(cfg2, 1)
        )
        assert np.allclose(out2[0], out2[0, 0], rtol=1e-6, atol=0)

    def test_shape_law_sweep(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            h = int(rng.integers(2, 8))
            w = int(rng.integers(2, 8))
            hr = int(rng.integers(1, h + 1))
            wr = int(rng.integers(1, w + 1))
            c_in = int(rng.integers(2, 6))
            c_out = int(rng.integers(2, 6))
            frames = int(rng.integers(1, 4))
            cfg = et_cfg(c_in=c_in, c_out=c_out, grid_in=(h, w), grid_out=(hr, wr))
            params = init_projector_params(cfg, trial)
            feats = synth_image_features(trial, frames, EncoderSpec("e", (h, w), c_in))
            seq = project_branch(feats, cfg, params, "image")
            assert seq.tokens.shape == (1, frames * hr * wr, c_out)

    def test_token_count_mismatch_rejected(self):
        cfg = et_cfg(c_in=3, c_out=2, grid_in=(4, 4), grid_out=(2, 2))
        params = init_projector_params(cfg, 0)
        with pytest.raises(ShapeError):
            projector_forward(np.zeros((1, 15, 3), dtype=np.float32), cfg, params)

    def test_upsampling_config_rejected(self):
        with pytest.raises(ArgumentError):
            et_cfg(grid_in=(4, 4), grid_out=(5, 4))


class TestMlpProj:
    def test_token_count_unchanged(self):
        cfg = mlp_cfg()
        params = init_projector_params(cfg, 0)
        x = synth_image_features(1, 1, EncoderSpec("synthetic-image", (14, 14), 768))
        out = projector_forward(x.tensor.reshape(1, 196, 768), cfg, params)
        assert out.shape == (1, 196, 64)

    def test_zero_params_zero_output(self):
        cfg = mlp_cfg(c_in=3, c_out=2, grid=(2, 2), c_hidden=4)
        params = init_projector_params(cfg, 0)
        params["mlp0.weight"][:] = 0.0
        params["mlp1.weight"][:] = 0.0
        out = projector_forward(np.ones((1, 4, 3), dtype=np.float32), cfg, params)
        assert np.array_equal(out, np.zeros((1, 4, 2)))

    def test_matches_per_token_oracle(self):
        cfg = mlp_cfg(c_in=3, c_out=2, grid=(2, 2), c_hidden=5)
        params = init_projector_params(cfg, 7)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 4, 3)).astype(np.float32)
        out = projector_forward(x, cfg, params)
        assert np.allclose(out, mlp_oracle(x, layer(params, "mlp0"), layer(params, "mlp1")), atol=1e-6)

    def test_grid_reduction_rejected(self):
        with pytest.raises(ArgumentError):
            ProjectorConfig(MLP_PROJ, 8, 4, (4, 4), (2, 2))


class TestRoleMapping:
    @pytest.mark.parametrize("kind", [ET_PROJ, MLP_PROJ])
    def test_init_and_backward_follow_role_order(self, kind):
        """Fresh params and their gradients carry every role, in file order, at its shape."""
        if kind == ET_PROJ:
            cfg = et_cfg(c_in=5, c_out=4, grid_in=(3, 3), grid_out=(2, 2), c_hidden=6)
            roles = ["ffn1.weight", "ffn1.bias", "ffn2.weight", "ffn2.bias", "posenc.kernel", "posenc.bias"]
        else:
            cfg = mlp_cfg(c_in=5, c_out=4, grid=(3, 3), c_hidden=6)
            roles = ["mlp0.weight", "mlp0.bias", "mlp1.weight", "mlp1.bias"]
        shapes = role_shapes(cfg)
        assert list(shapes) == roles
        params = init_projector_params(cfg, 2)
        assert {role: a.shape for role, a in params.items()} == shapes
        x = np.random.default_rng(2).standard_normal((2, 9, 5)).astype(np.float32)
        y = projector_forward(x, cfg, params)
        dx, grads = projector_backward(x, cfg, params, 2.0 * y)
        assert dx.shape == x.shape
        assert {role: a.shape for role, a in grads.items()} == shapes
        assert list(grads) == roles

    def test_backward_rejects_mis_shaped_gradient(self):
        cfg = et_cfg(c_in=5, c_out=4, grid_in=(3, 3), grid_out=(2, 2))
        x = np.zeros((1, 9, 5), dtype=np.float32)
        with pytest.raises(ShapeError, match="upstream gradient"):
            projector_backward(x, cfg, init_projector_params(cfg, 0), np.zeros((1, 9, 4)))


class TestProjectBranch:
    def test_image_branch_totals_2304_tokens(self):
        cfg = et_cfg()
        params = init_projector_params(cfg, 0)
        feats = synth_image_features(0, 16, EncoderSpec("synthetic-image", (14, 14), 768))
        seq = project_branch(feats, cfg, params, "image")
        assert seq.count == 2304
        assert seq.tokens.shape == (1, 2304, 64)

    def test_video_branch_totals_392_tokens(self):
        cfg = et_cfg(c_in=576, grid_out=(7, 7))
        params = init_projector_params(cfg, 0)
        feats = synth_video_features(0, list(range(8)), EncoderSpec("synthetic-video", (14, 14), 576))
        seq = project_branch(feats, cfg, params, "video")
        assert seq.count == 392

    def test_single_frame_equals_direct_call(self):
        cfg = et_cfg(c_in=4, c_out=3, grid_in=(3, 3), grid_out=(2, 2))
        params = init_projector_params(cfg, 5)
        feats = synth_image_features(5, 1, EncoderSpec("e", (3, 3), 4))
        seq = project_branch(feats, cfg, params, "image")
        direct = projector_forward(feats.tensor.reshape(1, 9, 4), cfg, params)
        assert np.array_equal(seq.tokens, direct)

    def test_frame_independence(self):
        """Per-frame projection then concatenation is bitwise project_branch."""
        cfg = et_cfg(c_in=4, c_out=3, grid_in=(3, 3), grid_out=(2, 2))
        params = init_projector_params(cfg, 6)
        feats = synth_image_features(6, 5, EncoderSpec("e", (3, 3), 4))
        seq = project_branch(feats, cfg, params, "image")
        blocks = [
            projector_forward(feats.tensor[f].reshape(1, 9, 4), cfg, params) for f in range(5)
        ]
        assert np.array_equal(seq.tokens, np.concatenate(blocks, axis=1))

    def test_grid_mismatch_rejected(self):
        cfg = et_cfg(c_in=4, c_out=3, grid_in=(3, 3), grid_out=(2, 2))
        params = init_projector_params(cfg, 0)
        feats = synth_image_features(0, 2, EncoderSpec("e", (4, 4), 4))
        with pytest.raises(ShapeError):
            project_branch(feats, cfg, params, "image")

    def test_image_branch_peak_allocation(self):
        """Default image branch: 16 x 196 tokens, 768 -> 896 -> 896, pooled to 12 x 12.

        The two live FFN activations (2 x 11.2 MB) and the pool's
        intermediates set the peak; the GELU and conv temporaries stay
        chunk-sized, and the FFN output is freed before the conv.
        """
        cfg = default_config(0).image_projector
        params = init_projector_params(cfg, 0)
        feats = synth_image_features(0, 16, EncoderSpec("synthetic-image", (14, 14), 768))
        tracemalloc.start()
        try:
            project_branch(feats, cfg, params, "image")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


class TestParamsInit:
    def test_deterministic_for_seed(self):
        cfg = et_cfg(c_in=5, c_out=4, grid_in=(3, 3), grid_out=(2, 2))
        a = init_projector_params(cfg, 42)
        b = init_projector_params(cfg, 42)
        assert np.array_equal(a["ffn1.weight"], b["ffn1.weight"])
        assert np.array_equal(a["ffn2.weight"], b["ffn2.weight"])

    def test_posenc_starts_at_zero(self):
        cfg = et_cfg(c_in=5, c_out=4, grid_in=(3, 3), grid_out=(2, 2))
        p = init_projector_params(cfg, 0)
        assert not p["posenc.kernel"].any()
        assert not p["posenc.bias"].any()

    def test_weight_scale_tracks_fan_in(self):
        cfg = et_cfg(c_in=400, c_out=4, grid_in=(2, 2), grid_out=(1, 1), c_hidden=100)
        p = init_projector_params(cfg, 0)
        assert np.abs(p["ffn1.weight"]).max() <= 1.0 / 20.0
        assert np.abs(p["ffn2.weight"]).max() <= 1.0 / 10.0

    @pytest.mark.parametrize("kind", [ET_PROJ, MLP_PROJ])
    def test_fresh_arrays_are_writable_and_distinct(self, kind):
        cfg = et_cfg(c_in=5, c_out=4, grid_in=(3, 3), grid_out=(2, 2))
        if kind == MLP_PROJ:
            cfg = mlp_cfg(c_in=5, c_out=4, grid=(3, 3))
        a = init_projector_params(cfg, 42)
        b = init_projector_params(cfg, 42)
        for role in a:
            assert a[role].flags.writeable and b[role].flags.writeable, role
            assert not np.shares_memory(a[role], b[role]), role
            a[role][...] = 1.0
            assert not (b[role] == 1.0).all(), role

    @pytest.mark.parametrize("n", [1, 1000, features._STREAM_CHUNK, 2 * features._STREAM_CHUNK + 17])
    def test_stream_weights_match_one_shot_reference(self, n):
        def one_shot(seed, role, shape, scale):
            idx = np.arange(n, dtype=np.uint64) ^ np.uint64(seed) ^ np.uint64(splitmix64(role))
            u = (splitmix64(idx) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
            return ((2.0 * u - 1.0) * scale).astype(np.float32).reshape(shape)

        for seed, role, scale in ((0, 1, 1.0), (2**64 - 1, 2, 0.037)):
            got = projector._stream_weights(seed, role, (n, 1), scale)
            want = one_shot(seed, role, (n, 1), scale)
            assert got.dtype == np.float32 and got.shape == (n, 1)
            assert got.tobytes() == want.tobytes()

    def test_hidden_defaults_to_c_out(self):
        cfg = et_cfg(c_in=5, c_out=4, grid_in=(2, 2), grid_out=(1, 1))
        assert cfg.c_hidden == 4
        p = init_projector_params(cfg, 0)
        assert p["ffn1.weight"].shape == (5, 4)


class TestPersistence:
    @pytest.mark.parametrize("kind", [ET_PROJ, MLP_PROJ])
    def test_round_trip(self, tmp_path, kind):
        if kind == ET_PROJ:
            cfg = et_cfg(c_in=5, c_out=4, grid_in=(3, 3), grid_out=(2, 2), c_hidden=6)
        else:
            cfg = mlp_cfg(c_in=5, c_out=4, grid=(3, 3), c_hidden=6)
        params = init_projector_params(cfg, 11)
        save_projector(tmp_path / "proj", cfg, params)
        cfg2, params2 = load_projector(tmp_path / "proj")
        assert cfg2 == cfg
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 9, 5)).astype(np.float32)
        assert np.array_equal(projector_forward(x, cfg, params), projector_forward(x, cfg2, params2))


class TestLoadValidation:
    @pytest.fixture
    def saved(self, tmp_path):
        cfg = et_cfg(c_in=5, c_out=4, grid_in=(3, 3), grid_out=(2, 2), c_hidden=6)
        save_projector(tmp_path / "proj", cfg, init_projector_params(cfg, 11))
        return tmp_path / "proj"

    @staticmethod
    def edit_manifest(dirpath, edit):
        path = dirpath / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))

    def test_wrong_schema_rejected(self, saved):
        self.edit_manifest(saved, lambda m: m.update(schema="framescope/projector-manifest-v9"))
        with pytest.raises(ArgumentError, match="projector-manifest-v9"):
            load_projector(saved)

    @pytest.mark.parametrize("key", ["schema", "config", "tensors"])
    def test_missing_manifest_key_named(self, saved, key):
        self.edit_manifest(saved, lambda m: m.pop(key))
        with pytest.raises(ArgumentError, match=key):
            load_projector(saved)

    def test_missing_config_key_named(self, saved):
        self.edit_manifest(saved, lambda m: m["config"].pop("c_in"))
        with pytest.raises(ArgumentError, match="c_in"):
            load_projector(saved)

    @pytest.mark.parametrize(
        "key, value",
        [("grid_in", [3]), ("c_in", "x"), ("c_hidden", [6]), ("kind", "conv"), (None, [1])],
        ids=["short_grid", "text_width", "list_width", "unknown_kind", "config_list"],
    )
    def test_invalid_config_named_with_the_file(self, saved, key, value):
        def edit(m):
            if key is None:
                m["config"] = value
            else:
                m["config"][key] = value

        self.edit_manifest(saved, edit)
        with pytest.raises(ArgumentError, match="manifest.json") as info:
            load_projector(saved)
        assert type(info.value) is ArgumentError

    @pytest.mark.parametrize(
        "key, value",
        [
            ("c_in", 5.5),
            ("c_in", float("inf")),
            ("c_out", "4"),
            ("c_hidden", True),
            ("grid_out", [2, 2.5]),
        ],
        ids=["fractional_width", "infinite_width", "text_width", "bool_hidden", "fractional_grid"],
    )
    def test_non_integer_config_value_named(self, saved, key, value):
        self.edit_manifest(saved, lambda m: m["config"].update({key: value}))
        with pytest.raises(ArgumentError, match="manifest.json") as info:
            load_projector(saved)
        assert type(info.value) is ArgumentError and f"{key} must be an integer" in str(info.value)

    def test_integral_float_config_value_loads(self, saved):
        cfg, _ = load_projector(saved)
        self.edit_manifest(saved, lambda m: m["config"].update(c_in=5.0, grid_out=[2.0, 2]))
        assert load_projector(saved)[0] == cfg

    def test_consistently_mis_shaped_tensors_rejected(self, saved):
        """ffn1 hidden 5 against a config hidden of 6: every layer agrees with its
        neighbour, so only a check against the config catches it."""
        rng = np.random.default_rng(0)
        for name, shape in (("ffn1_weight", (5, 5)), ("ffn1_bias", (5,)), ("ffn2_weight", (5, 4))):
            write_features(saved / f"{name}.mvgf", rng.standard_normal(shape).astype(np.float32))
        with pytest.raises(ShapeError, match="ffn1.weight"):
            load_projector(saved)
