import math

import pytest
from scipy import integrate

from duplexem.elliptic import elliptic_E, elliptic_K


# quad asked for 1e-15 warns that roundoff stops it short of that
quad_at_roundoff = pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")


def quad_K(k):
    val, _ = integrate.quad(lambda y: 1.0 / math.sqrt(1 - (k * math.sin(y)) ** 2),
                            0, 0.5 * math.pi, epsabs=1e-15, epsrel=1e-15)
    return val


def quad_E(k):
    val, _ = integrate.quad(lambda y: math.sqrt(1 - (k * math.sin(y)) ** 2),
                            0, 0.5 * math.pi, epsabs=1e-15, epsrel=1e-15)
    return val


def test_values_at_zero():
    assert abs(elliptic_K(0.0) - 0.5 * math.pi) <= 1e-15
    assert abs(elliptic_E(0.0) - 0.5 * math.pi) <= 1e-15


def test_second_kind_at_one():
    assert elliptic_E(1.0) == 1.0


@quad_at_roundoff
def test_lemniscatic_point_against_quadrature():
    k = 1.0 / math.sqrt(2.0)
    # frozen from the quadrature oracle below
    assert abs(elliptic_K(k) - 1.8540746773013719) <= 1e-13
    assert abs(elliptic_K(k) - quad_K(k)) <= 1e-13


def test_first_kind_diverges_at_one():
    with pytest.raises(ValueError):
        elliptic_K(1.0)


@quad_at_roundoff
@pytest.mark.parametrize("k", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999])
def test_against_quadrature(k):
    assert abs(elliptic_K(k) - quad_K(k)) <= 1e-13 * max(1.0, quad_K(k))
    assert abs(elliptic_E(k) - quad_E(k)) <= 1e-13


def test_domain_checks():
    for bad in (-0.1, 1.5):
        with pytest.raises(ValueError):
            elliptic_K(bad)
        with pytest.raises(ValueError):
            elliptic_E(bad)

