"""CLI surface: JSON reports, schema conformance, exit codes, determinism."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framescope import cli, pipeline, schemas
from framescope.cli import main
from framescope.errors import FrameScopeError
from framescope.features import read_features


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_error(capsys, *argv, error_type="ArgumentError"):
    """Run a failing command; its stderr must be one schema-valid JSON error line."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    jsonschema.validate(payload, schemas.ERROR_REPORT)
    assert payload["error"]["type"] == error_type
    return payload["error"]["message"]


def parse_report(capsys, *argv, schema=None):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    report = json.loads(out)
    if schema is not None:
        jsonschema.validate(report, schema)
    return report


SMALL_RUN = ["--frames", "4", "--seed", "3"]


class TestSynth:
    def test_writes_declared_shape(self, capsys, tmp_path):
        out = tmp_path / "f.mvgf"
        report = parse_report(
            capsys,
            "synth", "--seed", "7", "--frames", "16", "--grid", "14", "--depth", "768",
            "-o", str(out),
            schema=schemas.SYNTH_REPORT,
        )
        assert report["shape"] == [16, 14, 14, 768]
        assert read_features(out).shape == (16, 14, 14, 768)

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.mvgf", tmp_path / "b.mvgf"
        ra = parse_report(capsys, "synth", "--seed", "1", "--frames", "2", "--grid", "3",
                          "--depth", "4", "-o", str(a))
        rb = parse_report(capsys, "synth", "--seed", "1", "--frames", "2", "--grid", "3",
                          "--depth", "4", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert ra["digest"] == rb["digest"]

    def test_zero_frames_fails_with_json_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "synth", "--frames", "0", "-o", str(tmp_path / "x"))
        assert code == 1
        payload = json.loads(err)
        jsonschema.validate(payload, schemas.ERROR_REPORT)
        assert payload["error"]["type"] == "ArgumentError"

    def test_bad_grid_fails_with_json_error(self, capsys, tmp_path):
        message = parse_error(capsys, "synth", "--frames", "2", "--grid", "abc",
                              "-o", str(tmp_path / "x"))
        assert "'abc'" in message


@pytest.fixture
def feature_file(tmp_path, capsys):
    path = tmp_path / "feats.mvgf"
    parse_report(capsys, "synth", "--seed", "5", "--frames", "6", "--grid", "3",
                 "--depth", "8", "-o", str(path))
    return path


@pytest.fixture
def nan_file(tmp_path):
    """(6, 3, 3, 8) features, like feature_file, with one NaN."""
    import numpy as np

    from framescope.features import write_features

    tensor = np.ones((6, 3, 3, 8), dtype=np.float32)
    tensor[2, 1, 1, 5] = np.nan
    path = tmp_path / "nan.mvgf"
    write_features(path, tensor)
    return path


class TestSelect:
    def test_identical_frames_tie_break(self, capsys, tmp_path, monkeypatch):
        import numpy as np

        from framescope.features import write_features

        one = np.arange(2 * 2 * 3, dtype=np.float32).reshape(1, 2, 2, 3)
        tensor = np.repeat(one, 4, axis=0)
        path = tmp_path / "same.mvgf"
        write_features(path, tensor)
        report = parse_report(capsys, "select", str(path), "-K", "2",
                              schema=schemas.SELECT_REPORT)
        assert report["keyframes"] == [0, 1]

    def test_matches_library(self, capsys, feature_file):
        from framescope.features import FrameFeatures, read_features as rf
        from framescope.selection import frame_scores, top_k_frames

        report = parse_report(capsys, "select", str(feature_file), "-K", "3",
                              schema=schemas.SELECT_REPORT)
        feats = FrameFeatures(rf(feature_file))
        scores = frame_scores(feats)
        expected = top_k_frames(scores, 3)
        assert report["keyframes"] == list(expected.indices)
        assert report["scores"] == pytest.approx(list(scores.scores))

    def test_default_k_is_half(self, capsys, feature_file):
        report = parse_report(capsys, "select", str(feature_file))
        assert len(report["keyframes"]) == 3  # 6 frames -> K = 3

    def test_k_above_t_fails(self, capsys, feature_file):
        code, out, err = run_cli(capsys, "select", str(feature_file), "-K", "9")
        assert code == 1
        assert json.loads(err)["error"]["type"] == "ArgumentError"

    def test_non_finite_features_fail_on_read(self, capsys, nan_file):
        parse_error(capsys, "select", str(nan_file), error_type="NonFiniteValueError")


class TestProject:
    def test_reduces_tokens(self, capsys, feature_file, tmp_path):
        out = tmp_path / "tokens.mvgf"
        report = parse_report(
            capsys,
            "project", str(feature_file), "--projector", "et", "--grid-out", "2",
            "--c-out", "7", "-o", str(out),
            schema=schemas.PROJECT_REPORT,
        )
        assert report["tokens_shape"] == [1, 6 * 4, 7]
        assert read_features(out).shape == (1, 24, 7)

    def test_mlp_keeps_tokens(self, capsys, feature_file):
        report = parse_report(
            capsys, "project", str(feature_file), "--projector", "mlp", "--c-out", "7",
            schema=schemas.PROJECT_REPORT,
        )
        assert report["tokens_shape"] == [1, 6 * 9, 7]

    def test_bad_grid_out_fails_with_json_error(self, capsys, feature_file):
        parse_error(capsys, "project", str(feature_file), "--grid-out", "abc")

    def test_non_finite_features_fail_on_read(self, capsys, nan_file, tmp_path):
        out = tmp_path / "tokens.mvgf"
        parse_error(capsys, "project", str(nan_file), "--grid-out", "2", "-o", str(out),
                    error_type="NonFiniteValueError")
        assert not out.exists()


class TestRun:
    def test_default_budget_total(self, capsys):
        report = parse_report(capsys, "run", *SMALL_RUN, schema=schemas.RUN_REPORT)
        assert report["budget"]["total"] == (
            report["budget"]["image_tokens"] + report["budget"]["video_tokens"]
        )

    def test_durations_cover_params_and_features(self, capsys):
        report = parse_report(capsys, "run", *SMALL_RUN, schema=schemas.RUN_REPORT)
        assert list(report["durations_ms"]) == [
            "params", "features", "scoring", "image_projection", "video_projection", "fusion",
        ]

    def test_default_config_reports_2696(self, capsys):
        report = parse_report(capsys, "budget", schema=schemas.BUDGET_REPORT)
        assert report["total"] == 2696

    def test_no_frame_selection_video_tokens(self, capsys):
        report = parse_report(capsys, "budget", "--no-frame-selection",
                              schema=schemas.BUDGET_REPORT)
        assert report["video_tokens"] == 784

    def test_repeat_runs_share_digest(self, capsys):
        r1 = parse_report(capsys, "run", *SMALL_RUN, schema=schemas.RUN_REPORT)
        r2 = parse_report(capsys, "run", *SMALL_RUN, schema=schemas.RUN_REPORT)
        assert r1["digest"] == r2["digest"]

    def test_config_file_round_trip(self, capsys, tmp_path):
        from framescope.pipeline import make_config

        cfg = make_config(frames=4, image_grid=(3, 3), image_depth=4, image_grid_out=(2, 2),
                          video_grid=(3, 3), video_depth=4, video_grid_out=(1, 1),
                          embed_width=5, seed=2)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        report = parse_report(capsys, "run", "--config", str(path), schema=schemas.RUN_REPORT)
        assert report["config"] == cfg.to_dict()

    def test_branch_flag(self, capsys):
        report = parse_report(capsys, "budget", "--branch", "video")
        assert report["image_tokens"] == 0

    def test_projector_flag(self, capsys):
        report = parse_report(capsys, "budget", "--projector", "mlp", "--frames", "32",
                              "--branch", "image")
        assert report["total"] == 6272

    def test_default_run_reports_2696_total(self, capsys):
        report = parse_report(capsys, "run", schema=schemas.RUN_REPORT)
        assert report["budget"]["total"] == 2696
        assert len(report["keyframes"]) == 8

    def test_missing_config_file_fails_cleanly(self, capsys):
        code, out, err = run_cli(capsys, "run", "--config", "/nonexistent/cfg.json")
        assert code == 1
        assert "error" in json.loads(err)

    def test_malformed_config_fails_with_json_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"frames": 4,')
        message = parse_error(capsys, "run", "--config", str(path))
        assert str(path) in message

    def test_deeply_nested_config_fails_with_json_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert str(path) in parse_error(capsys, "budget", "--config", str(path))

    def test_config_missing_key_fails_with_json_error(self, capsys, tmp_path):
        from framescope.pipeline import make_config

        d = make_config(frames=4).to_dict()
        del d["keyframes"]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(d))
        message = parse_error(capsys, "run", "--config", str(path))
        assert str(path) in message and "'keyframes'" in message

    def test_non_finite_features_fail_on_read(self, capsys, nan_file):
        parse_error(capsys, "run", "--features", str(nan_file), error_type="NonFiniteValueError")

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda d: {**d, "frames": "abc"}, "frames"),
            (lambda d: {**d, "image_encoder": {**d["image_encoder"], "grid": [14]}},
             "image_encoder.grid"),
            (lambda d: {**d, "frames": None}, "frames"),
            (lambda d: {**d, "image_projector": "x"}, "image_projector"),
            (lambda d: [d], "top level"),
            (lambda d: {**d, "image_encoder": {**d["image_encoder"], "grid": 14}},
             "image_encoder.grid"),
            (lambda d: {**d, "video_encoder": {**d["video_encoder"], "grid": [14, 14, 3]}},
             "video_encoder.grid"),
            (lambda d: {**d, "image_encoder": {**d["image_encoder"], "name": 5}},
             "image_encoder.name"),
            (lambda d: {**d, "keyframe": 2}, "'keyframe'"),
            (lambda d: {**d, "video_projector": {**d["video_projector"], "stride": 2}},
             "'video_projector.stride'"),
            (lambda d: {**d, "video_encoder": {**d["video_encoder"], "input_resolution": 0}},
             "video_encoder: input_resolution"),
            (lambda d: {**d, "seed": -1}, "seed"),
        ],
        ids=["text_frames", "short_grid", "null_frames", "projector_string", "top_level_list",
             "scalar_grid", "long_grid", "number_name", "unknown_key", "unknown_nested_key",
             "zero_resolution", "negative_seed"],
    )
    def test_invalid_config_value_fails_with_json_error(self, capsys, tmp_path, edit, key):
        from framescope.pipeline import make_config

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(make_config(frames=4).to_dict())))
        message = parse_error(capsys, "budget", "--config", str(path))
        assert str(path) in message and key in message

    def test_negative_seed_flag_fails_without_a_report(self, capsys):
        assert "seed must be >= 0" in parse_error(capsys, "run", "--seed", "-1")

    def test_defaulted_fields_may_be_omitted(self, capsys, tmp_path):
        from framescope.pipeline import make_config

        d = make_config(frames=4).to_dict()
        del d["image_encoder"]["input_resolution"], d["video_projector"]["c_hidden"]
        path = tmp_path / "short.json"
        path.write_text(json.dumps(d))
        report = parse_report(capsys, "run", "--config", str(path), schema=schemas.RUN_REPORT)
        assert report["config"] == make_config(frames=4).to_dict()

    @pytest.mark.parametrize(
        "keys, value",
        [
            (["frames"], 2.7),
            (["frames"], True),
            (["keyframes"], 1.5),
            (["seed"], "3"),
            (["seed"], 1e999),
            (["image_encoder", "depth"], 1e999),
            (["video_projector", "c_hidden"], 8.5),
        ],
        ids=["fractional_frames", "bool_frames", "fractional_keyframes", "text_seed",
             "infinite_seed", "infinite_depth", "fractional_hidden"],
    )
    def test_non_integer_value_fails_with_json_error(self, capsys, tmp_path, keys, value):
        from framescope.pipeline import make_config

        d = make_config(frames=4).to_dict()
        section = d[keys[0]] if len(keys) == 2 else d
        section[keys[-1]] = value
        path = tmp_path / "bad.json"
        # json.dumps writes 1e999 (inf) as Infinity; the plain JSON number 1e999 parses to inf
        path.write_text(json.dumps(d).replace("Infinity", "1e999"))
        message = parse_error(capsys, "budget", "--config", str(path))
        assert str(path) in message and f"{keys[-1]} must be an integer" in message

    def test_integral_float_is_read_as_integer(self, capsys, tmp_path):
        from framescope.pipeline import make_config

        d = make_config(frames=4).to_dict()
        path = tmp_path / "float.json"
        path.write_text(json.dumps({**d, "frames": 4.0, "keyframes": 2.0}))
        assert parse_report(capsys, "budget", "--config", str(path)) == parse_report(
            capsys, "budget", "--frames", "4"
        )

    @pytest.mark.parametrize(
        "flags, overridden",
        [
            (["--seed", "3"], {"seed"}),
            (["--frames", "6"], {"frames", "keyframes"}),
            (["-K", "1"], {"keyframes"}),
            (["--no-frame-selection"], {"frame_selection", "keyframes"}),
            (["--branch", "video"], {"branch_mode"}),
            (["--projector", "mlp"], {"projector_kind", "image_projector.kind",
                                      "image_projector.grid_out", "video_projector.kind",
                                      "video_projector.grid_out"}),
        ],
        ids=["seed", "frames", "keyframes", "no_selection", "branch", "projector"],
    )
    def test_flag_overrides_keep_every_other_file_field(self, tmp_path, flags, overridden):
        from framescope.pipeline import make_config

        d = make_config(frames=4, image_grid=(3, 3), image_depth=4, image_grid_out=(2, 2),
                        video_grid=(3, 3), video_depth=4, video_grid_out=(1, 1),
                        embed_width=5, seed=2).to_dict()
        # fields make_config cannot express
        d["video_projector"]["c_hidden"] = 3
        d["image_encoder"]["name"] = "vit"
        d["video_encoder"]["input_resolution"] = 336
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        args = cli.build_parser().parse_args(["budget", "--config", str(path), *flags])

        def flat(config: dict) -> dict:
            out = {}
            for key, value in config.items():
                if isinstance(value, dict):
                    out.update({f"{key}.{k}": v for k, v in value.items()})
                else:
                    out[key] = value
            return out

        before, after = flat(d), flat(cli._load_config(args).to_dict())
        assert before.keys() == after.keys()
        assert {key for key in before if before[key] != after[key]} == overridden

    def test_projector_widths_that_differ_fail_with_json_error(self, capsys, tmp_path):
        from framescope.pipeline import make_config

        d = make_config(frames=4, image_grid=(3, 3), image_depth=4, image_grid_out=(2, 2),
                        video_grid=(3, 3), video_depth=4, video_grid_out=(1, 1),
                        embed_width=5).to_dict()
        d["video_projector"]["c_out"] = 7
        path = tmp_path / "widths.json"
        path.write_text(json.dumps(d))
        message = parse_error(capsys, "run", "--config", str(path))
        assert str(path) in message and "c_out 5" in message and "c_out 7" in message

    def test_reports_are_byte_identical_across_calls(self, capsys, feature_file):
        for argv in (["budget"], ["flops", "--branch", "video"],
                     ["select", str(feature_file), "-K", "2"]):
            _, out1, _ = run_cli(capsys, *argv)
            _, out2, _ = run_cli(capsys, *argv)
            assert out1 == out2, argv


class TestFlops:
    def test_schema_and_total(self, capsys):
        report = parse_report(capsys, "flops", schema=schemas.FLOPS_REPORT)
        assert report["total"] == (
            report["scoring"] + report["image_projection"]
            + report["video_projection"] + report["fusion"]
        )

    def test_selection_halves_video_column(self, capsys):
        on = parse_report(capsys, "flops")
        off = parse_report(capsys, "flops", "--no-frame-selection")
        assert on["video_projection"] * 2 == off["video_projection"]


class TestGradcheck:
    def test_passes_by_default(self, capsys):
        report = parse_report(capsys, "gradcheck", "--seeds", "2",
                              schema=schemas.GRADCHECK_REPORT)
        assert report["passed"] is True
        assert all(r["passed"] for r in report["results"])

    def test_single_seed_runs_one_trial_per_op(self, capsys):
        report = parse_report(capsys, "gradcheck", "--seeds", "1")
        assert all(r["trials"] == 1 for r in report["results"])

    def test_injected_fault_fails_nonzero(self, capsys):
        code, out, err = run_cli(capsys, "gradcheck", "--seeds", "1",
                                 "--inject-fault", "linear")
        assert code == 1
        report = json.loads(out)
        jsonschema.validate(report, schemas.GRADCHECK_REPORT)
        rows = {r["op"]: r["passed"] for r in report["results"]}
        assert rows["linear"] is False
        assert rows["conv"] is True


class TestBench:
    def test_report_schema(self, capsys):
        report = parse_report(capsys, "bench", *SMALL_RUN, "--repeat", "2",
                              schema=schemas.BENCH_REPORT)
        assert report["repeat"] == 2

    def test_params_and_features_stages_have_no_macs(self, capsys):
        report = parse_report(capsys, "bench", *SMALL_RUN, "--repeat", "1",
                              schema=schemas.BENCH_REPORT)
        for name in ("params", "features"):
            assert report["stages"][name]["macs"] == 0
            assert report["stages"][name]["macs_per_sec"] is None
        assert sum(s["macs"] for s in report["stages"].values()) == report["total"]["macs"]

    def test_single_repeat_min_equals_median(self, capsys):
        report = parse_report(capsys, "bench", *SMALL_RUN, "--repeat", "1")
        for stage in report["stages"].values():
            assert stage["min_ms"] == stage["median_ms"]

    def test_selection_ratio_visible_in_mac_column(self, capsys):
        on = parse_report(capsys, "bench", *SMALL_RUN, "--repeat", "1")
        off = parse_report(capsys, "bench", *SMALL_RUN, "--repeat", "1",
                           "--no-frame-selection")
        assert on["stages"]["video_projection"]["macs"] * 2 == (
            off["stages"]["video_projection"]["macs"]
        )

    def test_untimed_warm_up_run_precedes_timed_runs(self, capsys, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return pipeline.run_pipeline(*args, **kwargs)

        monkeypatch.setattr(cli, "run_pipeline", counting)
        pipeline._branch_params.cache_clear()
        report = parse_report(capsys, "bench", "--frames", "4", "--repeat", "2",
                              schema=schemas.BENCH_REPORT)
        assert len(calls) == 3
        assert report["repeat"] == 2

    def test_medians_exclude_the_cold_weight_build(self, capsys):
        pipeline._branch_params.cache_clear()
        report = parse_report(capsys, "bench", "--frames", "4", "--repeat", "2")
        assert report["stages"]["params"]["median_ms"] < 1.0

    def test_save_writes_report_and_machine(self, capsys, tmp_path):
        path = tmp_path / "bench.json"
        report = parse_report(capsys, "bench", *SMALL_RUN, "--repeat", "1", "--save", str(path))
        saved = json.loads(path.read_text())
        jsonschema.validate(saved, schemas.BENCH_REPORT)
        assert saved["machine"]["nproc"] == os.cpu_count()
        assert saved["machine"]["numpy"] == np.__version__
        assert {k: v for k, v in saved.items() if k != "machine"} == report
        assert "machine" not in report

    def test_save_to_missing_directory_fails_with_json_error(self, capsys, tmp_path):
        parse_error(capsys, "bench", *SMALL_RUN, "--repeat", "1",
                    "--save", str(tmp_path / "no" / "b.json"), error_type="FileNotFoundError")

    @pytest.mark.parametrize("repeat", ["0", "-2"])
    def test_repeat_below_one_fails_with_json_error(self, capsys, repeat):
        message = parse_error(capsys, "bench", *SMALL_RUN, "--repeat", repeat)
        assert "--repeat" in message


# JSON values a mutation writes in place of a field
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 40),
                     st.floats(-2, 40), st.text(max_size=4))
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3),
                    st.dictionaries(st.text(max_size=4), _SCALARS, max_size=2))


def _paths(node, path=()):
    """The key path of every value in a JSON document, the root's ``()`` first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(value, (*path, key))


@st.composite
def mutated(draw, doc):
    """``doc`` after one to three edits.

    Each edit drops, retypes, nests or truncates a value, or adds a key.
    """
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        value = parent[path[-1]] if path else doc
        op = draw(st.sampled_from(["drop", "retype", "nest", "truncate", "add"]))
        if op == "add":
            if isinstance(value, dict):
                value[draw(st.text(max_size=8))] = draw(_VALUES)
            continue
        if op == "drop":
            if path:
                del parent[path[-1]]
            continue
        if op == "retype":
            value = draw(_VALUES)
        elif op == "nest":
            value = draw(st.sampled_from([[value], {"value": value}]))
        elif isinstance(value, (list, str, dict)):
            n = draw(st.integers(0, max(len(value) - 1, 0)))
            value = dict(list(value.items())[:n]) if isinstance(value, dict) else value[:n]
        if path:
            parent[path[-1]] = value
        else:
            doc = value
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config_fuzz")


@pytest.fixture(scope="module")
def saved_projector(tmp_path_factory):
    """A saved projector's directory and its manifest as written."""
    from framescope.projector import ProjectorConfig, init_projector_params, save_projector

    path = tmp_path_factory.mktemp("manifest_fuzz")
    cfg = ProjectorConfig("et_proj", 5, 4, (3, 3), (2, 2), 6)
    save_projector(path, cfg, init_projector_params(cfg, 11))
    return path, json.loads((path / "manifest.json").read_text())


class TestConfigFuzz:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mutated_config_is_read_or_fails_with_one_json_line(self, fuzz_dir, data):
        from framescope.pipeline import make_config

        path = fuzz_dir / "cfg.json"
        path.write_text(json.dumps(data.draw(mutated(make_config(frames=4).to_dict()))))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["budget", "--config", str(path)])
        if code == 0:
            jsonschema.validate(json.loads(out.getvalue()), schemas.BUDGET_REPORT)
        else:
            assert code == 1 and out.getvalue() == ""
            assert len(err.getvalue().splitlines()) == 1
            jsonschema.validate(json.loads(err.getvalue()), schemas.ERROR_REPORT)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mutated_manifest_loads_or_raises_a_package_error(self, saved_projector, data):
        from framescope.projector import load_projector

        path, manifest = saved_projector
        (path / "manifest.json").write_text(json.dumps(data.draw(mutated(manifest))))
        try:
            load_projector(path)
        except (FrameScopeError, OSError):
            pass


class TestProcessLevel:
    def test_usage_error_is_json_and_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "framescope", "run", "--branch", "sideways"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        payload = json.loads(proc.stderr.strip().splitlines()[-1])
        assert payload["error"]["type"] == "UsageError"

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "framescope", "budget"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["total"] == 2696

    def test_digest_stable_across_processes(self):
        digests = set()
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "framescope", "run", *SMALL_RUN],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0
            digests.add(json.loads(proc.stdout)["digest"])
        assert len(digests) == 1

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_digests_and_keyframes_do_not_depend_on_blas_threads(self, threads):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        reports = [
            json.loads(subprocess.run(
                [sys.executable, "-m", "framescope", "run", *argv],
                capture_output=True, text=True, env=env, check=True,
            ).stdout)
            for argv in ([], ["--frames", "32", "-K", "4", "--branch", "video"])
        ]
        assert reports[0]["digest"] == "2ece75f6ec61f24a"
        assert reports[1]["digest"] == "7e7c9582c33cdbb3"
        assert reports[1]["keyframes"] == [17, 22, 25, 30]
