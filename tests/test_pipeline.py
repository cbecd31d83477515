"""End-to-end pipeline: budgets, MAC accounting, determinism, stage plan."""

import json
import re
import time

import numpy as np
import pytest

from framescope import pipeline
from framescope.errors import ArgumentError, ShapeError
from framescope.features import EncoderSpec, synth_image_features, write_features
from framescope.numerics import count_macs
from framescope.pipeline import (
    ATTENTION_BASED,
    DUAL,
    IMAGE_ONLY,
    NO_SELECTION,
    VIDEO_ONLY,
    FileSource,
    PipelineConfig,
    default_config,
    mac_report,
    make_config,
    run_pipeline,
    stage_plan,
    token_budget,
)


def small_config(**kw):
    base = dict(
        frames=4,
        image_grid=(4, 4),
        image_depth=8,
        image_grid_out=(3, 3),
        video_grid=(4, 4),
        video_depth=6,
        video_grid_out=(2, 2),
        embed_width=5,
        seed=3,
    )
    base.update(kw)
    return make_config(**base)


class TestTokenBudget:
    def test_default_budget(self):
        b = token_budget(default_config())
        assert (b.image_tokens, b.video_tokens, b.total) == (2304, 392, 2696)

    def test_mlp_32_frame_baseline(self):
        cfg = make_config(frames=32, projector_kind="mlp_proj", branch_mode=IMAGE_ONLY)
        b = token_budget(cfg)
        assert b.image_tokens == 32 * 196 == 6272
        assert b.total == 6272

    def test_no_selection_feeds_all_frames(self):
        cfg = make_config(frame_selection=NO_SELECTION)
        b = token_budget(cfg)
        assert cfg.keyframes == 16
        assert b.video_tokens == 16 * 49 == 784
        assert b.total == 2304 + 784 == 3088

    def test_video_only(self):
        b = token_budget(make_config(branch_mode=VIDEO_ONLY))
        assert (b.image_tokens, b.video_tokens, b.total) == (0, 392, 392)

    def test_budget_matches_run_across_ablation_grid(self):
        """Every branch mode x projector kind x selection wiring runs, and the
        closed-form budget equals the realized token count."""
        import itertools

        rng = np.random.default_rng(0)
        combos = itertools.product(
            (DUAL, IMAGE_ONLY, VIDEO_ONLY),
            ("et_proj", "mlp_proj"),
            (ATTENTION_BASED, NO_SELECTION),
        )
        for trial, (branch, kind, selection) in enumerate(combos):
            cfg = make_config(
                frames=int(rng.integers(1, 6)),
                image_grid=(3, 3),
                image_depth=4,
                image_grid_out=(2, 2),
                video_grid=(3, 3),
                video_depth=4,
                video_grid_out=(1, 1),
                embed_width=int(rng.integers(2, 6)),
                projector_kind=kind,
                branch_mode=branch,
                frame_selection=selection,
                seed=trial,
            )
            result = run_pipeline(cfg)
            assert result.tokens.count == token_budget(cfg).total, (branch, kind, selection)


class TestMacReport:
    def test_scoring_formula(self):
        # 4 blocks of 4 frames x 196 tokens; 10 of the 16 block pairs are formed
        m = mac_report(default_config())
        assert m.scoring == (3136 * 3136 + 4 * 784 * 784) // 2 * 768 == 4720558080

    def test_halving_keyframes_halves_video_macs(self):
        full = mac_report(make_config(frame_selection=NO_SELECTION))
        half = mac_report(make_config())  # K = 8 of 16
        assert half.video_projection * 2 == full.video_projection
        b_full = token_budget(make_config(frame_selection=NO_SELECTION))
        b_half = token_budget(make_config())
        assert b_half.video_tokens * 2 == b_full.video_tokens

    def test_image_only_has_no_video_or_scoring_macs(self):
        m = mac_report(make_config(branch_mode=IMAGE_ONLY))
        assert m.video_projection == 0
        assert m.scoring == 0

    def test_no_selection_has_no_scoring_macs(self):
        m = mac_report(make_config(frame_selection=NO_SELECTION))
        assert m.scoring == 0

    def test_instrumented_counter_matches_exactly(self):
        for kw in (
            {},
            {"projector_kind": "mlp_proj"},
            {"branch_mode": IMAGE_ONLY},
            {"branch_mode": VIDEO_ONLY},
            {"frame_selection": NO_SELECTION},
        ):
            cfg = small_config(**kw)
            with count_macs() as c:
                run_pipeline(cfg)
            assert c.total == mac_report(cfg).total, kw

    @pytest.mark.parametrize("projector_kind", ["et_proj", "mlp_proj"])
    @pytest.mark.parametrize("branch_mode", [DUAL, VIDEO_ONLY])
    @pytest.mark.parametrize("frames", [7, 17])
    def test_counter_matches_on_ragged_block_plans(self, frames, branch_mode, projector_kind):
        # 12 x 12 tokens put 5 frames in a block: blocks of 5 + 2 and 5 + 5 + 5 + 2 frames
        cfg = small_config(
            frames=frames, image_grid=(12, 12), branch_mode=branch_mode, projector_kind=projector_kind
        )
        with count_macs() as c:
            run_pipeline(cfg)
        assert c.total == mac_report(cfg).total
        assert mac_report(cfg).scoring < (frames * 144) ** 2 * 8

    def test_total_is_sum_of_parts(self):
        m = mac_report(default_config())
        assert m.total == m.scoring + m.image_projection + m.video_projection + m.fusion


class TestRunPipeline:
    def test_selection_feeds_video_branch(self):
        """Different key-frame sets must change the video-branch tokens."""
        cfg = small_config(seed=1)
        r1 = run_pipeline(cfg)
        cfg2 = small_config(seed=1, frame_selection=NO_SELECTION)
        r2 = run_pipeline(cfg2)
        assert r1.keyframes.indices != r2.keyframes.indices
        assert r1.tokens.count != r2.tokens.count

    def test_fusion_order_is_image_then_video(self):
        cfg = small_config()
        result = run_pipeline(cfg)
        image_count = token_budget(cfg).image_tokens
        image_only = run_pipeline(small_config(branch_mode=IMAGE_ONLY))
        assert np.array_equal(result.tokens.tokens[:, :image_count], image_only.tokens.tokens)

    def test_repeat_runs_are_bitwise_identical(self):
        cfg = small_config()
        a = run_pipeline(cfg)
        b = run_pipeline(cfg)
        assert np.array_equal(a.tokens.tokens, b.tokens.tokens)
        assert a.digest == b.digest

    def test_image_only_reports_empty_keyframes(self):
        result = run_pipeline(small_config(branch_mode=IMAGE_ONLY))
        assert result.keyframes.indices == ()
        assert result.scores is None

    def test_video_only_still_scores_from_image_features(self):
        result = run_pipeline(small_config(branch_mode=VIDEO_ONLY))
        assert result.scores is not None
        assert len(result.keyframes) == 2

    def test_file_source_with_resampling(self, tmp_path):
        cfg = small_config()
        feats = synth_image_features(9, 8, cfg.image_encoder)  # 8 frames -> resample to 4
        path = tmp_path / "img.mvgf"
        write_features(path, feats.tensor)
        result = run_pipeline(cfg, source=FileSource(path))
        assert result.tokens.count == token_budget(cfg).total

    def test_file_source_video_frame_count_checked(self, tmp_path):
        cfg = small_config()
        img = synth_image_features(9, 4, cfg.image_encoder)
        vid = synth_image_features(9, 5, cfg.video_encoder)  # wrong K
        ipath, vpath = tmp_path / "i.mvgf", tmp_path / "v.mvgf"
        write_features(ipath, img.tensor)
        write_features(vpath, vid.tensor)
        with pytest.raises(ShapeError):
            run_pipeline(cfg, source=FileSource(ipath, vpath))

    def test_file_source_grid_mismatch_rejected(self, tmp_path):
        from framescope.features import EncoderSpec

        cfg = small_config()
        wrong = synth_image_features(0, 4, EncoderSpec("synthetic-image", (5, 5), 8))
        path = tmp_path / "w.mvgf"
        write_features(path, wrong.tensor)
        with pytest.raises(ShapeError):
            run_pipeline(cfg, source=FileSource(path))


class TestStageAccounting:
    def test_stages_sum_to_the_call(self):
        cfg = small_config(seed=41)
        for _ in range(2):  # cold, then warm parameters
            t0 = time.perf_counter()
            result = run_pipeline(cfg)
            wall_ms = (time.perf_counter() - t0) * 1e3
            assert abs(sum(result.durations_ms.values()) - wall_ms) < 2.0
        assert list(result.durations_ms) == [
            "params", "features", "scoring", "image_projection", "video_projection", "fusion",
        ]

    def test_video_features_billed_to_features(self, monkeypatch):
        cfg = small_config(seed=42)
        source = pipeline.SyntheticSource()
        slow = source.video_features

        def video_features(*args):
            time.sleep(0.05)
            return slow(*args)

        monkeypatch.setattr(source, "video_features", video_features)
        durations = run_pipeline(cfg, source).durations_ms
        assert durations["features"] >= 50.0
        assert durations["video_projection"] < 50.0


class TestBranchParamsCache:
    @pytest.fixture(autouse=True)
    def cold_cache(self):
        pipeline._branch_params.cache_clear()
        yield
        pipeline._branch_params.cache_clear()

    def test_one_build_per_branch_over_three_calls(self, monkeypatch):
        built = []
        original = pipeline.init_projector_params

        def counting(cfg, seed):
            built.append((cfg, seed))
            return original(cfg, seed)

        monkeypatch.setattr(pipeline, "init_projector_params", counting)
        cfg = small_config(seed=43)
        digests = {run_pipeline(cfg).digest for _ in range(3)}
        assert len(digests) == 1
        assert sorted(c.c_in for c, _ in built) == [6, 8]  # video branch, image branch
        assert len(set(built)) == 2

    def test_rebuilt_params_give_the_warm_digest(self):
        cfg = small_config(seed=44)
        run_pipeline(cfg)
        warm = run_pipeline(cfg).digest
        pipeline._branch_params.cache_clear()
        assert run_pipeline(cfg).digest == warm

    @pytest.mark.parametrize("kind", ["et_proj", "mlp_proj"])
    def test_cached_arrays_are_read_only(self, kind):
        cfg = small_config(seed=45, projector_kind=kind)
        run_pipeline(cfg)
        params = pipeline._branch_params(cfg.image_projector, pipeline._branch_seed(cfg.seed, 1))
        arrays = list(params.values())
        assert len(arrays) == (6 if kind == "et_proj" else 4)
        for array in arrays:
            with pytest.raises(ValueError):
                array[...] = 0.0

    def test_cache_stays_bounded_over_a_config_sweep(self):
        for seed in range(6):
            run_pipeline(small_config(seed=seed, branch_mode=IMAGE_ONLY, frames=1, keyframes=1))
            assert pipeline._branch_params.cache_info().currsize <= 4
        assert pipeline._branch_params.cache_info().misses == 6


class TestConfig:
    def test_json_round_trip(self):
        cfg = make_config(seed=5, projector_kind="mlp_proj", branch_mode=VIDEO_ONLY,
                          frame_selection=NO_SELECTION)
        assert PipelineConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_keyframes_default_to_half(self):
        assert make_config(frames=16).keyframes == 8
        assert make_config(frames=7).keyframes == 3
        assert make_config(frames=1).keyframes == 1

    def test_k_above_t_rejected(self):
        with pytest.raises(ArgumentError):
            make_config(frames=4, keyframes=5)

    def test_no_selection_requires_k_equals_t(self):
        with pytest.raises(ArgumentError):
            PipelineConfig.from_dict(
                {**make_config(frame_selection=NO_SELECTION).to_dict(), "keyframes": 8}
            )

    def test_unknown_schema_rejected(self):
        with pytest.raises(ArgumentError):
            PipelineConfig.from_dict({**default_config().to_dict(), "schema": "nope/v9"})

    def test_schema_key_is_optional(self):
        d = default_config().to_dict()
        del d["schema"]
        assert PipelineConfig.from_dict(d) == default_config()

    @pytest.mark.parametrize(
        "section, key, value, named",
        [
            ("image_encoder", "grid", [14, 14.5], "image_encoder.grid must be an integer"),
            ("video_encoder", "depth", None, "video_encoder.depth must be an integer"),
            ("video_projector", "grid_out", [7, 7, 1], "video_projector.grid_out must be a list"),
            ("image_projector", "kind", "conv", "image_projector: unknown projector kind"),
            ("image_projector", "c_hidden", 0, "image_projector: channel widths"),
            ("image_encoder", "depth", ..., "missing key 'image_encoder.depth'"),
        ],
        ids=["fractional_grid", "null_depth", "long_grid_out", "unknown_kind", "zero_hidden",
             "missing_depth"],
    )
    def test_nested_error_names_the_key_path(self, section, key, value, named):
        d = default_config().to_dict()
        if value is ...:
            del d[section][key]
        else:
            d[section][key] = value
        with pytest.raises(ArgumentError, match=re.escape(named)):
            PipelineConfig.from_dict(d)

    def test_negative_seed_rejected(self):
        with pytest.raises(ArgumentError, match="seed must be >= 0"):
            make_config(seed=-1)

    def test_zero_input_resolution_rejected(self):
        with pytest.raises(ArgumentError, match="input_resolution"):
            EncoderSpec("vit", (14, 14), 768, input_resolution=0)


class TestStagePlan:
    def test_stage_one_trains_image_projector_only(self):
        plan = stage_plan(1)
        assert plan.trainable == {"image_projector"}
        assert {"image_encoder", "video_encoder", "slm"} <= plan.frozen

    def test_stage_two_trains_video_projector_only(self):
        plan = stage_plan(2)
        assert plan.trainable == {"video_projector"}
        assert {"image_encoder", "video_encoder", "slm"} <= plan.frozen

    def test_stage_three_adds_language_model_adapter(self):
        plan = stage_plan(3)
        assert plan.trainable == {"image_projector", "video_projector", "slm_adapter"}
        assert {"image_encoder", "video_encoder"} <= plan.frozen
        assert "rank 64" in plan.adapter_note and "128" in plan.adapter_note

    def test_encoders_frozen_everywhere(self):
        for stage in (1, 2, 3):
            plan = stage_plan(stage)
            assert "image_encoder" in plan.frozen and "video_encoder" in plan.frozen
            assert not (plan.trainable & plan.frozen)

    @pytest.mark.parametrize("stage", [0, 4, -1])
    def test_invalid_stage_rejected(self, stage):
        with pytest.raises(ArgumentError):
            stage_plan(stage)
