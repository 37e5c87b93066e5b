"""One chamber integrator for every surface support (`surface._integrate`).

S(t + c) = S(t) + c, so the gradient of S sums to 1 on every support: one
atom takes 1 minus the others, and the sum is 1 to the last bit.  The
one-centre maximizer is the exact root of vol(L - y E) = xi_0 vol L on the
exact quadratics of the gamma walk, rounded once."""
import math
import random
from fractions import Fraction

import divstab as ds
from divstab.core import TRIVIAL_VALUATION, DivisorialMeasure
from divstab.filtrations import FiltrationSpec, expected_order_S_grad

from _cases import random_big_class, random_support, surface_models

# a second trivial valuation: only its name differs
TRIVIAL_2 = ds.Valuation("trivial_2", 0, is_trivial=True)


def test_gradient_sums_to_one():
    """Random supports of one to three non-trivial valuations, with and
    without trivial atoms, at shifts k / 8, on the four bundled surfaces."""
    rng = random.Random(3)
    seen = {"no_trivial": 0, "trivial": 0, "three": 0}
    for n in range(240):
        model = surface_models()[n % 4]
        L = random_big_class(model, rng)
        support = random_support(model, rng, max_size=3) + ((TRIVIAL_2,) if rng.random() < 0.3 else ())
        shifts = tuple(rng.randint(0, 16) / 8 for _ in support)
        _, grad = expected_order_S_grad(model, L, FiltrationSpec(support, shifts))
        assert abs(math.fsum(grad) - 1) <= 2**-53, (model.name, L, support, shifts, grad)
        seen["trivial" if any(v.is_trivial for v in support) else "no_trivial"] += 1
        seen["three"] += sum(not v.is_trivial for v in support) == 3
    assert min(seen.values()) >= 40, seen


def test_one_centre_maximizer_is_exact():
    # blp2 at L = H - E/3: vol(L - yE) = 1 - (1/3 + y)^2 is 5/8 vol L = 5/9 at y = 1/3
    blp2 = ds.bundled_model("blp2")
    L, ord_e = blp2.divisor([1, Fraction(-1, 3)]), blp2.named_valuations["ord_e"]
    assert blp2.one_valuation_maximizer(L, ord_e, Fraction(5, 8)) == float(Fraction(1, 3))
    mu = DivisorialMeasure.make([(TRIVIAL_VALUATION, Fraction(5, 8)), (ord_e, Fraction(3, 8))])
    assert ds.ma_solve(blp2, L, mu).t_star[0] == 1 / 3
    # the ends: no trivial mass is the threshold, all of it 0
    assert blp2.one_valuation_maximizer(L, ord_e, Fraction(0)) == float(ds.gamma_threshold(blp2, L, ord_e))
    assert blp2.one_valuation_maximizer(L, ord_e, Fraction(1)) == 0.0
