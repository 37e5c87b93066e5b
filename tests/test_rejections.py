"""Rejections of ill-posed input that no other test reaches, each with the
error it names."""
import pytest

import divstab as ds
from divstab.core import DivisorClass, Valuation
from divstab.surface import SurfaceRealization

p2 = ds.bundled_model("p2")
p2t = ds.bundled_model("p2_toric")


def _S_on_p2(*valuations):
    ds.expected_order_S(p2, p2.divisor([3]), ds.FiltrationSpec(valuations, (0.0,) * len(valuations)))


def _on_the_blowup(name, pullback):
    """A valuation of p2 along the exceptional curve of blp2, mapped there by
    this pullback."""
    blp2 = p2.named_valuations["point_blowup"].order_model.model
    return Valuation(name, 2, order_model=SurfaceRealization(blp2, blp2.divisor([0, 1]), "p2", pullback))


@pytest.mark.parametrize("ask, error, message", [
    (lambda: _S_on_p2(p2t.named_valuations["e1"]), ds.GeometryError, "^valuation 'e1' is not a surface valuation$"),
    (lambda: _S_on_p2(ds.bundled_model("blp2").named_valuations["ord_e"]), ds.BasisMismatchError,
     "^valuation 'ord_e' is declared over base 'blp2', not 'p2'$"),
    (lambda: _S_on_p2(p2.named_valuations["point_blowup"], _on_the_blowup("other", ((1,), (1,)))), ds.GeometryError,
     "^inconsistent pullback maps among valuations$"),
    (lambda: _S_on_p2(_on_the_blowup("unmapped", None)), ds.GeometryError,
     "^missing pullback map to the realization model$"),
    (lambda: ds.delta_anticanonical(ds.SurfaceModel("noK", [[1]], sample_curves=[[1]]), [p2.named_valuations["line"]]),
     ds.GeometryError, "^the anticanonical class is not big$"),
], ids=["toric_valuation", "other_base", "two_pullbacks", "no_pullback", "anticanonical_not_big"])
def test_a_valuation_or_model_a_query_cannot_use(ask, error, message):
    with pytest.raises(error, match=message):
        ask()


def test_a_level_without_sections():
    # -H has no sections at any level
    L, spec = p2t.divisor([0, 0, -1]), ds.FiltrationSpec((p2t.named_valuations["e1"],), (0.0,))
    with pytest.raises(ds.GeometryError, match="^no sections at this level$"):
        ds.filtration_volume_finite_k(p2t, L, spec, 1)
    with pytest.raises(ds.GeometryError, match="^no sections at this level$"):
        ds.d_infinity(p2t, L, spec, spec, 1)


def test_a_toric_model_without_rays():
    with pytest.raises(ds.GeometryError, match="^a toric model needs at least one ray$"):
        ds.ToricModel("none", [])


def test_classes_of_two_ranks_in_one_lattice():
    with pytest.raises(ds.BasisMismatchError, match="^class lattice ranks differ$"):
        DivisorClass.make([1], "x") + DivisorClass.make([1, 2], "x")


def test_an_empty_filtration():
    with pytest.raises(ds.GeometryError, match="^filtration support is empty$"):
        ds.FiltrationSpec((), ())


def test_a_side_that_is_neither_left_nor_right():
    mu = ds.DivisorialMeasure.make([(p2.named_valuations["line"], 1)])
    with pytest.raises(ValueError):
        ds.danskin_derivative(p2, p2.divisor([3]), mu, p2.divisor([1]), side="up")


def test_the_zariski_function_is_the_method():
    blp2 = ds.bundled_model("blp2")
    D = blp2.divisor([1, 2])
    assert ds.zariski(blp2, D) == blp2.zariski(D)


@pytest.mark.parametrize("model", [ds.models._BUILDERS["p2"](), ds.models._BUILDERS["p2_toric"]()], ids=["surface", "toric"])
def test_a_kept_class_in_another_lattice(model):
    # a model keeps its last classes by lattice and coefficients: the same
    # coefficients in another lattice are rejected, whether or not they are
    # the class asked last
    kept = [model.divisor([0] * (model.class_rank - 1) + [d]) for d in (3, 4)]
    for L in kept + kept[:1]:
        assert model.volume(L) > 0
        for other in kept:
            with pytest.raises(ds.BasisMismatchError, match="^class in lattice 'other' queried against model "):
                model.volume(DivisorClass(other.coefficients, "other"))
