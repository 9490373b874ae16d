"""Multivariate skew-t distributions, finite mixtures, and their entropies.

The package provides densities, deterministic samplers, Shannon and Renyi
entropies with semi-closed evaluations for the skew-t family, entropy
bound combinators for finite mixtures, and Monte Carlo oracles used to
validate all of it.
"""

from .bounds import (
    BoundsReport,
    Composition,
    CompositionCapError,
    enumerate_compositions,
    renyi_bounds,
    renyi_large_alpha_approx,
    renyi_lower,
    renyi_upper,
    shannon_bounds,
)
from .config import ConfigError, ModelConfig, load_config, parse_config
from .distributions import (
    DerivedShape,
    MixtureParams,
    SkewTParams,
    derive_shape,
    mixture_cov,
    mixture_logpdf,
    mixture_mean,
    mt_logpdf,
    sample_mixture,
    sample_skewt,
    skewt_cov,
    skewt_logpdf,
    skewt_mean,
)
from .entropy import (
    mt_renyi,
    mt_shannon,
    power_integral_constant,
    skew_correction,
    skewt_renyi,
    skewt_shannon,
)
from .linalg import NotPositiveDefiniteError, SpdMatrix
from .mc import Estimate, estimates, fat_proposal, is_renyi, mc_renyi, mc_shannon

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "Composition",
    "CompositionCapError",
    "ConfigError",
    "DerivedShape",
    "Estimate",
    "MixtureParams",
    "ModelConfig",
    "NotPositiveDefiniteError",
    "SkewTParams",
    "SpdMatrix",
    "derive_shape",
    "enumerate_compositions",
    "estimates",
    "fat_proposal",
    "is_renyi",
    "load_config",
    "mc_renyi",
    "mc_shannon",
    "mixture_cov",
    "mixture_logpdf",
    "mixture_mean",
    "mt_logpdf",
    "mt_renyi",
    "mt_shannon",
    "parse_config",
    "power_integral_constant",
    "renyi_bounds",
    "renyi_large_alpha_approx",
    "renyi_lower",
    "renyi_upper",
    "sample_mixture",
    "sample_skewt",
    "shannon_bounds",
    "skew_correction",
    "skewt_cov",
    "skewt_logpdf",
    "skewt_mean",
    "skewt_renyi",
    "skewt_shannon",
]
