"""JSON model configurations for the command line front end.

A config document looks like

    {
      "components": [
        {"mu": [0.3], "scale": [[1.5]], "delta": [0.3], "dof": 3}
      ],
      "weights": [1.0],
      "seed": 20240601,
      "samples": 1000000
    }

``weights`` may be omitted for a single component. ``seed`` and
``samples`` (defaults DEFAULT_SEED and DEFAULT_SAMPLES) are the only way
to set the Monte Carlo seed and sample count of ``entropy`` and
``bounds``. Validation errors name the JSON path of the offending entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .distributions import MixtureParams, SkewTParams
from .linalg import SpdMatrix

__all__ = ["ConfigError", "ModelConfig", "load_config", "parse_config"]

DEFAULT_SEED = 20240601
DEFAULT_SAMPLES = 1_000_000


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class ModelConfig:
    mixture: MixtureParams
    seed: int = DEFAULT_SEED
    samples: int = DEFAULT_SAMPLES


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(path, "integer too large to convert to float") from None


def _vector(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected a non-empty list of numbers")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected a non-empty list of rows")
    rows = [_vector(row, f"{path}[{i}]") for i, row in enumerate(value)]
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise ConfigError(path, "rows have inconsistent lengths")
    return np.vstack(rows)


def _component(raw, path: str) -> SkewTParams:
    if not isinstance(raw, dict):
        raise ConfigError(path, "expected an object with mu, scale, delta, dof")
    for key in ("mu", "scale", "delta", "dof"):
        if key not in raw:
            raise ConfigError(f"{path}.{key}", "missing required field")
    unknown = set(raw) - {"mu", "scale", "delta", "dof"}
    if unknown:
        raise ConfigError(path, f"unknown field(s): {sorted(unknown)}")
    mu = _vector(raw["mu"], f"{path}.mu")
    scale_entries = _matrix(raw["scale"], f"{path}.scale")
    delta = _vector(raw["delta"], f"{path}.delta")
    dof = _number(raw["dof"], f"{path}.dof")
    try:
        scale = SpdMatrix(scale_entries)
    except ValueError as exc:
        raise ConfigError(f"{path}.scale", str(exc)) from exc
    try:
        return SkewTParams(mu=mu, scale=scale, delta=delta, dof=dof)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def parse_config(document: dict) -> ModelConfig:
    """Validate a decoded JSON document into a ModelConfig."""
    if not isinstance(document, dict):
        raise ConfigError("$", "top level must be an object")
    unknown = set(document) - {"components", "weights", "seed", "samples"}
    if unknown:
        raise ConfigError("$", f"unknown field(s): {sorted(unknown)}")
    raw_components = document.get("components")
    if not isinstance(raw_components, list) or not raw_components:
        raise ConfigError("components", "expected a non-empty list")
    components = [_component(c, f"components[{i}]") for i, c in enumerate(raw_components)]

    if "weights" in document:
        weights = _vector(document["weights"], "weights")
    elif len(components) == 1:
        weights = np.array([1.0])
    else:
        raise ConfigError("weights", "required when more than one component is given")
    try:
        mixture = MixtureParams(components=tuple(components), weights=weights)
    except ValueError as exc:
        raise ConfigError("weights", str(exc)) from exc

    seed = document.get("seed", DEFAULT_SEED)
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 1 << 64:
        raise ConfigError("seed", f"expected an integer in [0, 2**64), got {seed!r}")
    samples = document.get("samples", DEFAULT_SAMPLES)
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 2:
        raise ConfigError("samples", f"expected an integer >= 2, got {samples!r}")

    return ModelConfig(mixture=mixture, seed=seed, samples=samples)


def load_config(path: str) -> ModelConfig:
    """Read and validate a JSON config file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except ValueError as exc:  # also integer literals past int's digit limit
            raise ConfigError("$", f"invalid JSON: {exc}") from exc
    return parse_config(document)
