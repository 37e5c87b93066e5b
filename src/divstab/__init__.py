"""Stability invariants of big line bundles on exactly-computable geometries.

Surfaces (declared Neron-Severi lattice + Zariski decomposition) and smooth
toric varieties (section polytopes + monomial valuations) implement one
backend protocol, `GeometryModel`; on it live divisorial filtrations, expected
vanishing orders, Legendre-transform norms, Danskin derivatives, beta and
delta invariants, and a variational Monge-Ampere solver.
"""
__version__ = "0.1.0"

from .core import (
    ConvergenceError,
    DivisorClass,
    DivisorialMeasure,
    GeometryError,
    BasisMismatchError,
    NotPseudoeffectiveError,
    GeometryModel,
    TRIVIAL_VALUATION,
    Valuation,
    gamma_threshold,
    is_big,
)
from .surface import SurfaceModel, SurfaceRealization, ZariskiDecomposition, zariski
from .toric import ToricModel
from .filtrations import (
    FiltrationSpec,
    JumpingProfile,
    d_infinity,
    expected_order_S,
    expected_order_S_grad,
    filtration_volume_finite_k,
    restriction_inequality_check,
)
from .stability import (
    BetaReport,
    MASolution,
    NormResult,
    OptimizerOptions,
    ProbeReport,
    beta,
    danskin_derivative,
    delta_anticanonical,
    divisorial_stability_probe,
    ma_solve,
    norm,
)
from .models import SURFACE_MODEL_NAMES, bundled_model, bundled_model_names

# No library code integrates by quadrature: the module stays loaded for
# perfbench/tracer.py, which wraps quadrature.integrate beside
# filtrations.integration_range, SurfaceModel.volume_float, twisted_volume,
# twist_integrals and ToricModel.twist_evaluator (ROADMAP item 0).
from . import quadrature  # noqa: F401

__all__ = [
    "BasisMismatchError",
    "BetaReport",
    "ConvergenceError",
    "DivisorClass",
    "DivisorialMeasure",
    "FiltrationSpec",
    "GeometryError",
    "GeometryModel",
    "JumpingProfile",
    "MASolution",
    "NormResult",
    "NotPseudoeffectiveError",
    "OptimizerOptions",
    "ProbeReport",
    "SURFACE_MODEL_NAMES",
    "SurfaceModel",
    "SurfaceRealization",
    "ToricModel",
    "TRIVIAL_VALUATION",
    "Valuation",
    "ZariskiDecomposition",
    "beta",
    "bundled_model",
    "bundled_model_names",
    "d_infinity",
    "danskin_derivative",
    "delta_anticanonical",
    "divisorial_stability_probe",
    "expected_order_S",
    "expected_order_S_grad",
    "filtration_volume_finite_k",
    "gamma_threshold",
    "is_big",
    "ma_solve",
    "norm",
    "restriction_inequality_check",
    "zariski",
]
