"""A surface whose declared curves do not cut out the nef cone gives a
positive part of negative square, which no nef class has (Hodge index):
every volume routine raises, the float one as the exact one."""
import pytest

from divstab.core import GeometryError
from divstab.surface import SurfaceModel


def test_volume_float_rejects_an_incomplete_curve_list():
    # E^2 = -2 is not declared: P = H + E passes the one declared curve H
    model = SurfaceModel("open", [[1, 0], [0, -2]], sample_curves=[[1, 0]])
    with pytest.raises(GeometryError, match="the declared curves are incomplete"):
        model.volume(model.divisor([1, 1]))
    with pytest.raises(GeometryError, match="the declared curves are incomplete"):
        model.volume_float((1.0, 1.0))
    assert model.volume_float((1.0, 0.0)) == 1.0
