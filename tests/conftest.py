import pytest

from divstab.core import NotPseudoeffectiveError
from divstab.surface import SurfaceModel, _SurfaceProblem


@pytest.fixture
def searches(monkeypatch):
    """The chamber searches of `_SurfaceProblem.walk`, the only ones a
    compiled problem makes once it holds vol L and its thresholds, and none
    where a kept walk serves the relative shifts (`_SurfaceProblem.records`):
    one (point, failed) pair per `SurfaceModel._chamber` call inside a walk."""
    calls, walking = [], []
    walk, chamber = _SurfaceProblem.walk, SurfaceModel._chamber

    def counting_walk(self, *args):
        walking.append(self)
        try:
            return walk(self, *args)
        finally:
            walking.pop()

    def counting_chamber(self, lat, b, d, q, x):
        if not walking:
            return chamber(self, lat, b, d, q, x)
        try:
            found = chamber(self, lat, b, d, q, x)
        except NotPseudoeffectiveError:
            calls.append((x, True))
            raise
        calls.append((x, False))
        return found

    monkeypatch.setattr(_SurfaceProblem, "walk", counting_walk)
    monkeypatch.setattr(SurfaceModel, "_chamber", counting_chamber)
    return calls
