"""The decimal references the accuracy tests are measured against."""

import math
from decimal import Decimal

import numpy as np
import pytest

import reference

# pi to 60 significant digits
PI_60 = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def test_pi_has_sixty_digits():
    assert reference.PI == PI_60


@pytest.mark.parametrize("x", [0.0, 1e-300, 0.5, 1.0, 3.0, math.pi, 100.0, 1e6, 1e20, 1e300, -7.5])
def test_sin_and_cos_match_the_library_to_an_ulp_and_each_other_to_sixty_digits(x):
    s, c = reference.sin(x), reference.cos(x)
    assert abs(float(s) - math.sin(x)) <= math.ulp(math.sin(x))
    assert abs(float(c) - math.cos(x)) <= math.ulp(math.cos(x))
    with reference.context():
        assert abs(s * s + c * c - 1) <= Decimal("1e-58")


def test_sin_of_float_pi_is_the_gap_to_pi():
    # sin(pi - e) = e - e^3/6 + ...; e = pi - math.pi is 1.2246e-16
    with reference.context():
        gap = PI_60 - Decimal(math.pi)
        assert abs(reference.sin(math.pi) - gap) <= gap**3


def test_random_arguments():
    rng = np.random.default_rng(18)
    for x in rng.uniform(-50.0, 50.0, 200).tolist():
        assert abs(float(reference.sin(x)) - math.sin(x)) <= math.ulp(1.0)
        assert abs(float(reference.sinc(x)) - math.sin(x) / x) <= math.ulp(1.0)
    assert reference.sinc(0.0) == 1


def test_sqrt():
    with reference.context():
        root = reference.sqrt(2)
        assert abs(root * root - 2) <= Decimal("1e-58")
