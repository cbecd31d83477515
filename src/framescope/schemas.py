"""Versioned JSON Schemas for every CLI report.

Each stdout report carries a ``schema`` field naming its document type and
version; these dicts are standard JSON Schema (draft 2020-12) and are what
the test suite validates reports against.
"""

_GRID = {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 2, "maxItems": 2}

_ENCODER = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name", "grid", "depth", "input_resolution"],
    "properties": {
        "name": {"type": "string"},
        "grid": _GRID,
        "depth": {"type": "integer", "minimum": 1},
        "input_resolution": {"type": "integer", "minimum": 1},
    },
}

_PROJECTOR = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "c_in", "c_hidden", "c_out", "grid_in", "grid_out"],
    "properties": {
        "kind": {"enum": ["et_proj", "mlp_proj"]},
        "c_in": {"type": "integer", "minimum": 1},
        "c_hidden": {"type": "integer", "minimum": 1},
        "c_out": {"type": "integer", "minimum": 1},
        "grid_in": _GRID,
        "grid_out": _GRID,
    },
}

PIPELINE_CONFIG = {
    "type": "object",
    "additionalProperties": False,
    "required": [
        "schema", "frames", "keyframes", "frame_selection", "projector_kind",
        "branch_mode", "seed", "image_encoder", "video_encoder",
        "image_projector", "video_projector",
    ],
    "properties": {
        "schema": {"const": "framescope/pipeline-config-v1"},
        "frames": {"type": "integer", "minimum": 1},
        "keyframes": {"type": "integer", "minimum": 1},
        "frame_selection": {"enum": ["attention_based", "none"]},
        "projector_kind": {"enum": ["et_proj", "mlp_proj"]},
        "branch_mode": {"enum": ["dual", "image_only", "video_only"]},
        "seed": {"type": "integer", "minimum": 0},
        "image_encoder": _ENCODER,
        "video_encoder": _ENCODER,
        "image_projector": _PROJECTOR,
        "video_projector": _PROJECTOR,
    },
}

_BUDGET = {
    "type": "object",
    "required": ["image_tokens", "video_tokens", "total"],
    "properties": {
        "image_tokens": {"type": "integer", "minimum": 0},
        "video_tokens": {"type": "integer", "minimum": 0},
        "total": {"type": "integer", "minimum": 0},
    },
}

_MACS = {
    "type": "object",
    "required": ["scoring", "image_projection", "video_projection", "fusion", "total"],
    "properties": {
        "scoring": {"type": "integer", "minimum": 0},
        "image_projection": {"type": "integer", "minimum": 0},
        "video_projection": {"type": "integer", "minimum": 0},
        "fusion": {"type": "integer", "minimum": 0},
        "total": {"type": "integer", "minimum": 0},
    },
}

_DIGEST = {"type": "string", "pattern": "^[0-9a-f]{16}$"}

SYNTH_REPORT = {
    "type": "object",
    "required": ["schema", "path", "shape", "dtype", "digest"],
    "properties": {
        "schema": {"const": "framescope/synth-report-v1"},
        "path": {"type": "string"},
        "shape": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "dtype": {"enum": ["float32", "float64"]},
        "digest": _DIGEST,
    },
}

SELECT_REPORT = {
    "type": "object",
    "required": ["schema", "frames", "keyframes", "scores"],
    "properties": {
        "schema": {"const": "framescope/select-report-v1"},
        "frames": {"type": "integer", "minimum": 1},
        "keyframes": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "scores": {"type": "array", "items": {"type": "number", "minimum": 0}},
    },
}

PROJECT_REPORT = {
    "type": "object",
    "required": ["schema", "input_shape", "tokens_shape", "token_count", "macs", "digest"],
    "properties": {
        "schema": {"const": "framescope/project-report-v1"},
        "input_shape": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "tokens_shape": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "token_count": {"type": "integer", "minimum": 1},
        "macs": {"type": "integer", "minimum": 0},
        "digest": _DIGEST,
        "path": {"type": "string"},
    },
}

RUN_REPORT = {
    "type": "object",
    "required": ["schema", "config", "keyframes", "budget", "macs", "durations_ms", "digest"],
    "properties": {
        "schema": {"const": "framescope/run-report-v1"},
        "config": PIPELINE_CONFIG,
        "keyframes": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "budget": _BUDGET,
        "macs": _MACS,
        "durations_ms": {
            "type": "object",
            "required": ["scoring", "image_projection", "video_projection", "fusion"],
            "additionalProperties": {"type": "number", "minimum": 0},
        },
        "digest": _DIGEST,
    },
}

BUDGET_REPORT = {
    "type": "object",
    "required": ["schema", "image_tokens", "video_tokens", "total"],
    "properties": {
        "schema": {"const": "framescope/budget-report-v1"},
        **_BUDGET["properties"],
    },
}

FLOPS_REPORT = {
    "type": "object",
    "required": ["schema", "scoring", "image_projection", "video_projection", "fusion", "total"],
    "properties": {
        "schema": {"const": "framescope/flops-report-v1"},
        **_MACS["properties"],
    },
}

GRADCHECK_REPORT = {
    "type": "object",
    "required": ["schema", "seeds", "tolerance", "results", "passed"],
    "properties": {
        "schema": {"const": "framescope/gradcheck-report-v1"},
        "seeds": {"type": "integer", "minimum": 1},
        "tolerance": {"type": "number"},
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["op", "trials", "max_rel_err", "passed"],
                "properties": {
                    "op": {"type": "string"},
                    "trials": {"type": "integer", "minimum": 1},
                    "max_rel_err": {"type": "number", "minimum": 0},
                    "passed": {"type": "boolean"},
                },
            },
        },
        "passed": {"type": "boolean"},
    },
}

_STAGE_TIMING = {
    "type": "object",
    "required": ["median_ms", "min_ms", "macs", "macs_per_sec"],
    "properties": {
        "median_ms": {"type": "number", "minimum": 0},
        "min_ms": {"type": "number", "minimum": 0},
        "macs": {"type": "integer", "minimum": 0},
        "macs_per_sec": {"type": ["number", "null"], "minimum": 0},
    },
}

_MACHINE = {
    "type": "object",
    "required": ["nproc", "python", "numpy", "blas", "commit", "dirty"],
    "properties": {
        "nproc": {"type": ["integer", "null"], "minimum": 1},
        "python": {"type": "string"},
        "numpy": {"type": "string"},
        "blas": {
            "type": "object",
            "required": ["name", "version"],
            "properties": {
                "name": {"type": ["string", "null"]},
                "version": {"type": ["string", "null"]},
            },
        },
        "commit": {"type": ["string", "null"]},
        "dirty": {"type": ["boolean", "null"]},
    },
}

BENCH_REPORT = {
    "type": "object",
    "required": ["schema", "repeat", "stages", "total", "budget", "digest"],
    "properties": {
        "schema": {"const": "framescope/bench-report-v1"},
        "repeat": {"type": "integer", "minimum": 1},
        "stages": {
            "type": "object",
            "required": ["scoring", "image_projection", "video_projection", "fusion"],
            "additionalProperties": _STAGE_TIMING,
        },
        "total": _STAGE_TIMING,
        "budget": _BUDGET,
        "digest": _DIGEST,
        "machine": _MACHINE,
    },
}

ERROR_REPORT = {
    "type": "object",
    "required": ["error"],
    "properties": {
        "error": {
            "type": "object",
            "required": ["type", "message"],
            "properties": {
                "type": {"type": "string"},
                "message": {"type": "string"},
            },
        },
    },
}
