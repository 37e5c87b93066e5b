"""Bundled example geometries: the projective plane, its one-point blowup
(the degree-8 del Pezzo), the quadric P1 x P1, and the Hirzebruch surface F1,
each as a surface model and (except the blowup, which coincides with F1) as a
toric model.

Negative-curve lists are the full known ones for these surfaces, so volumes
are exact on the whole pseudoeffective cone.
"""
from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

from .core import GeometryModel, Valuation
from .surface import SurfaceModel, SurfaceRealization
from .toric import ToricModel


def _blp2() -> SurfaceModel:
    # basis (H, E): H pullback of a line, E the exceptional curve
    m = SurfaceModel(
        "blp2",
        intersection_matrix=[[1, 0], [0, -1]],
        negative_curves=[[0, 1]],
        canonical_class=[-3, 1],
        sample_curves=[[1, 0], [1, -1]],
    )
    m.curve_valuation("ord_e", [0, 1])
    m.curve_valuation("ord_line", [1, 0])
    m.curve_valuation("ord_line_p", [1, -1])
    return m


def _p2() -> SurfaceModel:
    m = SurfaceModel(
        "p2",
        intersection_matrix=[[1]],
        negative_curves=[],
        canonical_class=[-3],
        sample_curves=[[1]],
    )
    m.curve_valuation("line", [1])
    m.curve_valuation("conic", [2])
    # the exceptional divisor over a point, realised on the blowup;
    # log discrepancy 2 = 1 + multiplicity of the exceptional in K_blp2 - pull(K_p2)
    bl = bundled_model("blp2")
    realization = SurfaceRealization(
        bl,
        bl.divisor([0, 1]),
        base_id="p2",
        pullback=((Fraction(1),), (Fraction(0),)),
    )
    m.add_valuation(
        Valuation("point_blowup", Fraction(2), order_model=realization)
    )
    return m


def _p1xp1() -> SurfaceModel:
    # basis (F1, F2), the two ruling fibers
    m = SurfaceModel(
        "p1xp1",
        intersection_matrix=[[0, 1], [1, 0]],
        negative_curves=[],
        canonical_class=[-2, -2],
        sample_curves=[[1, 0], [0, 1]],
    )
    m.curve_valuation("ord_f1", [1, 0])
    m.curve_valuation("ord_f2", [0, 1])
    m.curve_valuation("ord_diag", [1, 1])
    return m


def _f1() -> SurfaceModel:
    # basis (S, F): S the -1 section, F the fiber
    m = SurfaceModel(
        "f1",
        intersection_matrix=[[-1, 1], [1, 0]],
        negative_curves=[[1, 0]],
        canonical_class=[-2, -3],
        sample_curves=[[0, 1]],
    )
    m.curve_valuation("ord_s", [1, 0])
    m.curve_valuation("ord_f", [0, 1])
    m.curve_valuation("ord_sf", [1, 1])
    return m


def _p2_toric() -> ToricModel:
    m = ToricModel("p2_toric", rays=[[1, 0], [0, 1], [-1, -1]])
    m.monomial_valuation("e1", [1, 0])
    m.monomial_valuation("e2", [0, 1])
    m.monomial_valuation("e3", [-1, -1])
    m.monomial_valuation("diag", [1, 1])
    return m


def _p1xp1_toric() -> ToricModel:
    m = ToricModel("p1xp1_toric", rays=[[1, 0], [-1, 0], [0, 1], [0, -1]])
    m.monomial_valuation("e1", [1, 0])
    m.monomial_valuation("e2", [0, 1])
    m.monomial_valuation("diag", [1, 1])
    return m


def _f1_toric() -> ToricModel:
    m = ToricModel("f1_toric", rays=[[1, 0], [0, 1], [-1, 1], [0, -1]])
    m.monomial_valuation("e1", [1, 0])
    m.monomial_valuation("e2", [0, 1])
    return m


_BUILDERS = {
    "p2": _p2,
    "blp2": _blp2,
    "p1xp1": _p1xp1,
    "f1": _f1,
    "p2_toric": _p2_toric,
    "p1xp1_toric": _p1xp1_toric,
    "f1_toric": _f1_toric,
}
_SHARED: dict[str, GeometryModel] = {}


def bundled_model_names() -> list[str]:
    return sorted(_BUILDERS)


def bundled_model(name: str) -> GeometryModel:
    """The model `name`, built once per process and shared by every caller,
    so its valuations are read-only.  It pickles as its name, so it and its
    valuations unpickle as the shared ones; a model built fresh pickles
    with its valuations, and each of them with the model."""
    model = _SHARED.get(name)
    if model is None:
        try:
            model = _BUILDERS[name]()
        except KeyError:
            raise KeyError(
                f"unknown bundled model {name!r}; available: {bundled_model_names()}"
            ) from None
        model.named_valuations = MappingProxyType(model.named_valuations)
        _SHARED[name] = model
    return model


SURFACE_MODEL_NAMES = ("p2", "blp2", "p1xp1", "f1")
