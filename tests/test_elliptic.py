import math

import numpy as np
import pytest
from scipy import integrate, special

from duplexem.elliptic import _agm_array, elliptic_E, elliptic_K


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


def test_lemniscatic_point_against_quadrature():
    k = 1.0 / math.sqrt(2.0)
    # frozen from the quadrature oracle below
    assert abs(elliptic_K(k) - 1.8540746773013719) <= 1e-13
    assert abs(elliptic_K(k) - quad_K(k)) <= 1e-13


def test_first_kind_diverges_at_one():
    with pytest.raises(ValueError):
        elliptic_K(1.0)


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


def test_array_agm_matches_scalar_bit_for_bit():
    k = np.concatenate([[0.0, 1e-300, 1e-8, 1 / math.sqrt(2), 1 - 1e-8,
                         1 - 2.0**-52, 1 - 2.0**-53],
                        np.linspace(0.0, 0.9999, 101)])
    big_k, big_e = _agm_array(k, np.sqrt((1.0 - k) * (1.0 + k)))
    assert big_k.tolist() == [elliptic_K(x) for x in k.tolist()]
    assert big_e.tolist() == [elliptic_E(x) for x in k.tolist()]


def test_array_agm_matches_scipy():
    kc = np.geomspace(1e-12, 1.0, 200)
    k = np.sqrt((1.0 - kc) * (1.0 + kc))
    big_k, big_e = _agm_array(k, kc)
    assert np.max(np.abs(big_k - special.ellipkm1(kc * kc)) / big_k) <= 1e-13
    assert np.max(np.abs(big_e - special.ellipe(k * k))) <= 1e-13
