"""The AMS family: images of a smooth Weierstrass cubic under automorphisms
of the affine plane, checked against an oracle that never calls `classify`.

The paper's AMS curves are the closures of smooth affine elliptic curves
with one place at infinity.  That number of places is intrinsic to the
affine curve, and every automorphism of A^2 is tame (Jung 1942; van der
Kulk 1953), so the image of W: y^2 z = x^3 + a x z^2 + b z^3 under a chain
of shears y -> y + p(x) and swaps is again one of them: for degree >= 4
its closure is unicuspidal of genus one, with (C')^2 = 6 and a cusp
tangent that meets it only at the cusp.

The degree is predicted from the pole orders of x and y at the place at
infinity, 2 and 3 on W.  A swap exchanges them; a shear with deg p >= 2
sets ord y = max(ord y, deg p * ord x), and the two orders never tie along
the chains drawn here.  The degree is the larger order.
"""

import random

import pytest

from unicusp.corpus import curve_by_name, param_set
from unicusp.cremona import extend_affine_automorphism, strict_transform
from unicusp.curves import ProjPoint, _local_numbers, intersection_cycle
from unicusp.fibers import CASE_ON, complete_and_classify
from unicusp.poly import Poly, X
from unicusp.resolution import VERDICT_AMS, classify

MAX_DEGREE = 16


def _random_shear(rng: random.Random, degree: int) -> tuple:
    lead = rng.choice([-2, -1, 1, 2, 3])
    p = Poly.const(lead) * X**degree
    for k in range(degree):
        p = p + Poly.const(rng.randint(-3, 3)) * X**k
    return ("shear", p)


def predicted_degree(chain) -> int:
    ord_x, ord_y = 2, 3
    for step in chain:
        if step[0] == "swap":
            ord_x, ord_y = ord_y, ord_x
        else:
            ord_y = max(ord_y, step[1].total_degree() * ord_x)
    return max(ord_x, ord_y)


def _random_member(rng: random.Random):
    """A seeded chain of one to three shears with a swap between each two,
    drawn so that the degree stays at most MAX_DEGREE, and a nonsingular
    (a, b).  Each shear multiplies the larger pole order by deg p, so the
    degree is twice the product of the degrees of the p's."""
    shears = rng.randint(1, 3)
    chain, budget = [], MAX_DEGREE // 2
    for i in range(shears):
        k = rng.randint(2, budget // 2 ** (shears - 1 - i))
        budget //= k
        chain += [("swap",)] * (i > 0) + [_random_shear(rng, k)]
    while True:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if 4 * a**3 + 27 * b**2 != 0:
            return chain, param_set(a, b)


SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_ams_family_member(seed, cut_eliminants):
    chain, ps = _random_member(random.Random(seed))
    line = curve_by_name("line-z", ps)
    curve = strict_transform(
        extend_affine_automorphism(chain), curve_by_name("weierstrass-cubic", ps), [line]
    )
    d = predicted_degree(chain)
    assert curve.degree == d

    report = classify(curve)
    # the cusp (0 : 1 : 0) is the projection vertex, its tangent already
    # the line z = 0: the search's eliminant and its certificate's image
    # take one cut each, and each cut one is the uncut one
    assert len(cut_eliminants) == 2
    assert report.verdict == VERDICT_AMS
    assert report.resolution.strict_self_intersection == 6
    assert report.tangent_contact_only is True
    assert report.genus == 1
    # the blowup count n = #(m >= 2) + m_last under minimal_embedded_resolution's bound
    res, ms = report.resolution, report.resolution.multiplicity_sequence
    assert len(res.records) == len(ms) + ms[-1] <= 2 * res.delta + 1 <= (d - 1) * (d - 2) + 1

    # the cusp tangent z = 0, read off its restriction, and the eliminant's oracle
    cycle = intersection_cycle(curve, line)
    assert (cycle.points, cycle.residual) == ([(ProjPoint.of(0, 1, 0), d)], 0)
    assert _local_numbers(curve.poly, line.poly) == cycle.points

    _, completions = complete_and_classify(report.resolution, CASE_ON)
    assert [c.kodaira for c in completions] == ["II*"]


def test_the_family_has_one_two_and_three_shears_up_to_degree_sixteen():
    chains = [_random_member(random.Random(seed))[0] for seed in SEEDS]
    assert {(len(c) + 1) // 2 for c in chains} == {1, 2, 3}
    assert max(predicted_degree(c) for c in chains) == MAX_DEGREE
