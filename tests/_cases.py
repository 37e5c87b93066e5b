"""Random but reproducible case generators over the bundled surface models,
and the norm checks the property suites share."""
from fractions import Fraction

import divstab as ds
from divstab.core import TRIVIAL_VALUATION

# looser tolerance for large randomized property sweeps
FAST_OPTIONS = ds.OptimizerOptions(tol=1e-8)

# ample generators per bundled surface, in each model's own basis
AMPLE = {
    "p2": [[1]],
    "blp2": [[3, -1], [1, 0]],
    "p1xp1": [[1, 0], [0, 1]],
    "f1": [[1, 1], [0, 1]],
}


def surface_models():
    return [ds.bundled_model(name) for name in ds.SURFACE_MODEL_NAMES]


def random_big_class(model, rng):
    """An ample combination, sometimes plus a negative curve to force a
    nontrivial Zariski decomposition; always verified big."""
    while True:
        total = model.divisor([0] * model.class_rank)
        for gen in AMPLE[model.name]:
            c = Fraction(rng.randint(1, 8), rng.randint(1, 3))
            total = total + c * model.divisor(gen)
        if model.negative_curves and rng.random() < 0.4:
            curve = model.negative_curves[rng.randrange(len(model.negative_curves))]
            total = total + Fraction(rng.randint(1, 3), 2) * curve
        if model.is_big(total):
            return total


def random_support(model, rng, allow_trivial=True, max_size=2):
    if model.name == "p2":
        # the exceptional-model valuation lives on a different realization
        # and cannot share a support with the plane curves
        pool = ["line", "conic"] if rng.random() < 0.7 else ["point_blowup"]
    else:
        pool = sorted(model.named_valuations)
    size = rng.randint(1, min(max_size, len(pool)))
    vals = [model.named_valuations[n] for n in rng.sample(pool, size)]
    if allow_trivial and rng.random() < 0.3:
        vals.append(TRIVIAL_VALUATION)
    rng.shuffle(vals)
    return tuple(vals)


def random_shifts(rng, size, lo=0.0, hi=2.0):
    return tuple(rng.uniform(lo, hi) for _ in range(size))


def random_masses(rng, size):
    weights = [rng.randint(1, 5) for _ in range(size)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def random_measure(model, rng, allow_trivial=True, max_size=2):
    support = random_support(model, rng, allow_trivial=allow_trivial, max_size=max_size)
    return ds.DivisorialMeasure.make(
        list(zip(support, random_masses(rng, len(support))))
    )


def norm_enlarged_support_check(model, L, mu, extra, options=ds.OptimizerOptions()):
    """The norm is unchanged, within 1e-6, by adding zero-mass valuations to
    the support; a valuation that already supports mu is a GeometryError."""
    names = {v.name for v in mu.support}
    for v in extra:
        if v.name in names:
            raise ds.GeometryError(f"valuation {v.name!r} already supports the measure")
    base = ds.norm(model, L, mu, options=options)
    if not extra:
        return True
    enlarged = ds.DivisorialMeasure(mu.atoms + tuple((v, Fraction(0)) for v in extra))
    big = ds.norm(model, L, enlarged, options=options)
    return abs(base.value - big.value) <= 1e-6
