"""JSON schemas for run configurations and emitted reports.

The config file is a single JSON object; unknown keys are rejected
everywhere. Every report the CLI writes validates against the matching
schema below (the CLI checks its own output before writing).
"""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema


class ConfigError(Exception):
    """Invalid run configuration (schema violation or bad values)."""


_SCENARIO_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "n_th"],
    "properties": {
        "kind": {
            "enum": ["free_single", "free_two_mode", "free_unequal_baths", "parametric"]
        },
        "n_th": {
            "anyOf": [
                {"type": "number", "minimum": 0},
                {
                    "type": "array",
                    "items": {"type": "number", "minimum": 0},
                    "minItems": 2,
                    "maxItems": 2,
                },
            ]
        },
        "strategy": {"enum": ["optimal", "homodyne", "none"]},
        "chi": {"type": "number", "minimum": 0},
        "eta": {"type": "number", "minimum": 0, "maximum": 1},
        "phi": {"type": "number"},
    },
}

_TRAJECTORIES_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["dt", "horizon", "n_traj", "seed"],
    "properties": {
        "dt": {"type": "number", "exclusiveMinimum": 0},
        "horizon": {"type": "number", "exclusiveMinimum": 0},
        "n_traj": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
        "record_stride": {"type": "integer", "minimum": 1},
        "burn_in": {"type": "number", "minimum": 0},
    },
}

_SWEEP_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["parameter", "grid"],
    "properties": {
        "parameter": {"enum": ["N", "eta", "chi"]},
        "grid": {
            "anyOf": [
                {"type": "array", "items": {"type": "number"}, "minItems": 1},
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["start", "stop", "count"],
                    "properties": {
                        "start": {"type": "number"},
                        "stop": {"type": "number"},
                        "count": {"type": "integer", "minimum": 1},
                    },
                },
            ]
        },
    },
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["scenario"],
    "properties": {
        "scenario": _SCENARIO_SCHEMA,
        "trajectories": _TRAJECTORIES_SCHEMA,
        "sweep": _SWEEP_SCHEMA,
    },
}

_PROVENANCE = {
    "library_version": {"type": "string"},
    "config": {"type": "object"},
}

_NUMBER_OR_NULL = {"type": ["number", "null"]}
_MATRIX = {"type": "array", "items": {"type": "array", "items": {"type": "number"}}}
_VECTOR = {"type": "array", "items": {"type": "number"}}

BOUNDS_REPORT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["library_version", "config", "stable", "spectral", "bounds", "tightness"],
    "properties": {
        **_PROVENANCE,
        "stable": {"type": "boolean"},
        "spectral": {
            "type": "object",
            "additionalProperties": False,
            "required": ["alphas", "deltas"],
            "properties": {"alphas": _VECTOR, "deltas": _VECTOR},
        },
        "bounds": {
            "type": "object",
            "additionalProperties": False,
            "required": ["squeezing", "eig_product", "entanglement", "pt_nu_lower"],
            "properties": {
                "squeezing": {"type": "number"},
                "eig_product": {"type": "number"},
                "entanglement": _NUMBER_OR_NULL,
                "pt_nu_lower": _NUMBER_OR_NULL,
            },
        },
        "tightness": {
            "type": "object",
            "additionalProperties": False,
            "required": ["squeezing", "entanglement"],
            "properties": {
                "squeezing": {"type": "boolean"},
                "entanglement": {"type": ["boolean", "null"]},
            },
        },
    },
}

# A steady report without its provenance; also one row of a JSON sweep.
_STEADY_BODY = {
    "type": "object",
    "additionalProperties": False,
    "required": [
        "scenario",
        "stable",
        "spectral",
        "bounds",
        "sigma_c",
        "achieved",
        "tightness",
        "margins",
        "residuals",
        "unique_solution",
        "thresholds",
    ],
    "properties": {
        "scenario": {"type": "object"},
        "stable": {"type": "boolean"},
        "spectral": {"type": "object"},
        "bounds": {"type": "object"},
        "sigma_c": _MATRIX,
        "achieved": {
            "type": "object",
            "additionalProperties": False,
            "required": [
                "min_eigenvalue",
                "log_negativity",
                "pt_nu",
                "symplectic_eigenvalues",
                "pure",
                "purity",
            ],
            "properties": {
                "min_eigenvalue": {"type": "number"},
                "log_negativity": _NUMBER_OR_NULL,
                "pt_nu": _NUMBER_OR_NULL,
                "symplectic_eigenvalues": _VECTOR,
                "pure": {"type": "boolean"},
                "purity": {"type": "number"},
            },
        },
        "tightness": {"type": "object"},
        "margins": {"type": "object"},
        "residuals": {"type": "object"},
        "unique_solution": {"type": ["boolean", "null"]},
        "thresholds": {"type": "object"},
    },
}

STEADY_REPORT_SCHEMA = {
    **_STEADY_BODY,
    "required": ["library_version", "config", *_STEADY_BODY["required"]],
    "properties": {**_PROVENANCE, **_STEADY_BODY["properties"]},
}

# A sweep row at a point whose drift admits no steady state.
_UNSTABLE_ROW = {
    "type": "object",
    "additionalProperties": False,
    "required": ["scenario", "stable"],
    "properties": {"scenario": {"type": "object"}, "stable": {"const": False}},
}

SWEEP_REPORT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["library_version", "config", "rows"],
    "properties": {
        **_PROVENANCE,
        "rows": {"type": "array", "minItems": 1, "items": {"anyOf": [_STEADY_BODY, _UNSTABLE_ROW]}},
    },
}

TIGHTNESS_REPORT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["library_version", "config", "stable", "spectral", "tightness"],
    "properties": {
        **_PROVENANCE,
        "stable": {"type": "boolean"},
        "spectral": {"type": "object"},
        "tightness": {"type": "object"},
    },
}

SIMULATE_REPORT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": [
        "library_version",
        "config",
        "window",
        "mean",
        "mean_standard_error",
        "tau",
        "reconstructed_sigma",
        "sigma_standard_error",
        "predicted_sigma",
        "max_abs_deviation",
        "deterministic_window_gap",
        "within_three_se",
        "n_samples",
    ],
    "properties": {
        **_PROVENANCE,
        "window": _VECTOR,
        "mean": _VECTOR,
        "mean_standard_error": _VECTOR,
        "tau": _MATRIX,
        "reconstructed_sigma": _MATRIX,
        "sigma_standard_error": _MATRIX,
        "predicted_sigma": _MATRIX,
        "max_abs_deviation": {"type": "number"},
        "deterministic_window_gap": {"type": "number"},
        "within_three_se": {"type": "boolean"},
        "n_samples": {"type": "integer"},
    },
}

SWEEP_COLUMNS = [
    "parameter",
    "value",
    "stable",
    "squeezing_bound",
    "achieved_min_eigenvalue",
    "entanglement_bound",
    "achieved_log_negativity",
    "tightness_squeezing",
    "tightness_entanglement",
    "pure",
    "purity",
    "riccati_residual",
    "closed_loop_residual",
    "threshold_eta",
    "threshold_chi",
]


# One validator per schema, built and its schema checked on first use;
# jsonschema.validate redoes both on every call. Keyed by id(): a validator
# holds its schema, so the id cannot be reused while it is cached.
_VALIDATORS: dict[int, object] = {}


def _validate(obj: dict, schema: dict) -> None:
    """jsonschema.validate with a cached validator; raises the same error."""
    validator = _VALIDATORS.get(id(schema))
    if validator is None:
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        validator = _VALIDATORS[id(schema)] = cls(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(obj))
    if error is not None:
        raise error


def validate_config(obj: dict) -> dict:
    try:
        _validate(obj, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"invalid configuration: {exc.message}") from exc
    return obj


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with path.open("r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    return validate_config(obj)


def validate_report(obj: dict, schema: dict) -> dict:
    _validate(obj, schema)
    return obj
