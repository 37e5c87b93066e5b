"""The backend protocol: a model that is neither a surface nor a toric model,
and that answers only `GeometryModel`'s protocol methods, gets every
filtration and stability result that the model it forwards to gets."""
import ast
from fractions import Fraction
from pathlib import Path

import pytest

import divstab as ds
from divstab import models

SOURCE = Path(ds.__file__).parent

# (model, L = -K, atoms of a measure with two non-trivial valuations)
CASES = [
    ("p2", [3], [("line", Fraction(1, 3)), ("conic", Fraction(1, 6)), ("trivial", Fraction(1, 2))]),
    ("blp2", [3, -1], [("ord_e", Fraction(1, 3)), ("ord_line", Fraction(1, 3)), ("trivial", Fraction(1, 3))]),
    ("f1", [2, 3], [("ord_s", Fraction(1, 4)), ("ord_f", Fraction(1, 4)), ("trivial", Fraction(1, 2))]),
    ("p2_toric", [0, 0, 3], [("e1", Fraction(1, 3)), ("diag", Fraction(1, 3)), ("trivial", Fraction(1, 3))]),
]


class Forwarding(ds.GeometryModel):
    """Forwards the protocol to `inner` and shares its lattice, name,
    valuations and canonical class; it declares nothing else."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.name, self.dimension, self.class_rank = inner.name, inner.dimension, inner.class_rank
        self.canonical_class = inner.canonical_class
        self.named_valuations = inner.named_valuations

    def volume(self, D):
        return self.inner.volume(D)

    def closed_form_threshold(self, L, v):
        return self.inner.closed_form_threshold(L, v)

    def expected_order(self, L, support, shifts):
        return self.inner.expected_order(L, support, shifts)

    def order_derivative(self, L, support, shifts, H):
        return self.inner.order_derivative(L, support, shifts, H)

    def order_hessian(self, L, support, shifts):
        return self.inner.order_hessian(L, support, shifts)


def _valuation(model, name):
    return ds.TRIVIAL_VALUATION if name == "trivial" else model.named_valuations[name]


@pytest.mark.parametrize("name, L, atoms", CASES, ids=[c[0] for c in CASES])
def test_forwarding_model_gets_the_same_results(name, L, atoms):
    model = models._BUILDERS[name]()
    wrapped = Forwarding(model)
    assert not isinstance(wrapped, (ds.SurfaceModel, ds.ToricModel))
    L = model.divisor(L)
    mu = ds.DivisorialMeasure.make([(_valuation(model, v), m) for v, m in atoms])
    dirac = ds.DivisorialMeasure.make([(mu.support[0], 1)])
    K = model.canonical_class

    def results(m):
        out = [
            ds.expected_order_S_grad(m, L, ds.FiltrationSpec(mu.support, t))
            for t in [(0.0, 0.0, 0.0), (0.25, 0.0, 1.5), (0.0, 0.75, 0.5)]
        ]
        out += [
            ds.norm(m, L, mu),
            ds.beta(m, L, mu),
            ds.beta(m, L, dirac),
            ds.danskin_derivative(m, L, mu, K, side="right"),
            ds.danskin_derivative(m, L, mu, K, side="left"),
            ds.ma_solve(m, L, mu),
            ds.divisorial_stability_probe(m, L, [dirac, mu]),
        ]
        return out

    assert results(wrapped) == results(model)


def _imports(module):
    """The modules that `module` imports from, `from . import x` as x."""
    names = set()
    for node in ast.walk(ast.parse((SOURCE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            names |= {node.module} if node.module else {a.name for a in node.names}
    return names


def test_layers_import_no_backend():
    assert not {"surface", "toric"} & _imports("stability")
    assert "surface" not in _imports("filtrations")


def test_filtrations_import_no_backend():
    assert not {"surface", "toric"} & _imports("filtrations")


class ForwardingLevels(Forwarding):
    def jumping_values(self, L, k, support, shifts):
        return self.inner.jumping_values(L, k, support, shifts)


def _level_specs(model):
    e1, e2, diag = (model.named_valuations[v] for v in ("e1", "e2", "diag"))
    return ds.FiltrationSpec((e1, diag), (0.0, 0.5)), ds.FiltrationSpec((e2,), (0.25,))


def test_finite_levels_read_the_protocol_alone():
    # a model that forwards `jumping_values` gets the toric model's results
    model = models._BUILDERS["p2_toric"]()
    wrapped, L, (spec, other) = ForwardingLevels(model), model.divisor([0, 0, 3]), _level_specs(model)
    assert ds.filtration_volume_finite_k(wrapped, L, spec, 4) == ds.filtration_volume_finite_k(model, L, spec, 4)
    assert ds.d_infinity(wrapped, L, spec, other, 4) == ds.d_infinity(model, L, spec, other, 4)


@pytest.mark.parametrize(
    "make, L",
    [(lambda: Forwarding(models._BUILDERS["p2_toric"]()), [0, 0, 3]), (lambda: models._BUILDERS["p2"](), [3])],
    ids=["forwarding", "surface"],
)
def test_finite_levels_need_jumping_values(make, L):
    # the protocol's default raises: a model that forwards the rest of the
    # protocol, and a surface, have no finite levels
    model, (spec, other) = make(), _level_specs(models._BUILDERS["p2_toric"]())
    with pytest.raises(ds.GeometryError, match="^finite-level jumping numbers need a toric model$"):
        ds.filtration_volume_finite_k(model, model.divisor(L), spec, 4)
    with pytest.raises(ds.GeometryError, match="^finite-level jumping numbers need a toric model$"):
        ds.d_infinity(model, model.divisor(L), spec, other, 4)
