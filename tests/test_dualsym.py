import math

import numpy as np
import pytest

from duplexem.dualsym import (FieldPair, complex_invariant,
                              dual_rotate, hyperbolic_boost_magnitudes,
                              hyperbolic_dual, invariants,
                              lorentz_boost_fields)


def random_pair(rng):
    return FieldPair(rng.normal(size=3), rng.normal(size=3))


def test_quarter_turn_is_field_exchange():
    rng = np.random.default_rng(0)
    f = random_pair(rng)
    g = dual_rotate(f, 0.5 * math.pi)
    assert np.array_equal(g.e, f.h)
    assert np.array_equal(g.h, -f.e)


def test_zero_angle_identity():
    rng = np.random.default_rng(1)
    f = random_pair(rng)
    g = dual_rotate(f, 0.0)
    assert np.array_equal(g.e, f.e) and np.array_equal(g.h, f.h)


def test_half_turn_equals_two_quarter_turns():
    rng = np.random.default_rng(2)
    f = random_pair(rng)
    once = dual_rotate(dual_rotate(f, 0.5 * math.pi), 0.5 * math.pi)
    direct = dual_rotate(f, math.pi)
    assert np.allclose(direct.e, once.e, atol=1e-15)
    assert np.allclose(direct.h, once.h, atol=1e-15)
    assert np.allclose(direct.e, -f.e, atol=1e-15)


def test_rotation_composition_law():
    rng = np.random.default_rng(3)
    f = random_pair(rng)
    t1, t2 = rng.uniform(0, 2 * math.pi, size=2)
    two_step = dual_rotate(dual_rotate(f, t1), t2)
    one_step = dual_rotate(f, t1 + t2)
    assert np.allclose(two_step.e, one_step.e, atol=1e-14)
    assert np.allclose(two_step.h, one_step.h, atol=1e-14)


def test_rotation_is_six_vector_isometry():
    rng = np.random.default_rng(4)
    f = random_pair(rng)
    n0 = f.six_vector_norm()
    for theta in rng.uniform(0, 2 * math.pi, size=10):
        assert abs(dual_rotate(f, theta).six_vector_norm() - n0) <= 1e-12 * n0


def test_hyperbolic_identity_and_group_law():
    rng = np.random.default_rng(5)
    f = random_pair(rng)
    g = hyperbolic_dual(f, 0.0)
    assert np.allclose(g.e, f.e, atol=0.0) and np.allclose(g.h, f.h, atol=0.0)
    v1, v2 = rng.uniform(-1.5, 1.5, size=2)
    two_step = hyperbolic_dual(hyperbolic_dual(f, v1), v2)
    one_step = hyperbolic_dual(f, v1 + v2)
    scale = max(np.max(np.abs(one_step.e)), np.max(np.abs(one_step.h)))
    assert np.max(np.abs(two_step.e - one_step.e)) <= 1e-12 * scale
    assert np.max(np.abs(two_step.h - one_step.h)) <= 1e-12 * scale


@pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
def test_hyperbolic_matches_boost_magnitudes(beta):
    e0, h0 = 1.2, 0.7
    f = FieldPair(np.array([e0, 0, 0]), np.array([0, h0, 0]))
    gamma = 1.0 / math.sqrt(1.0 - beta**2)
    em, hm = hyperbolic_boost_magnitudes(f, math.atanh(beta), (1, 0, 0), (0, 1, 0))
    assert abs(em - gamma * (e0 + beta * h0)) <= 1e-12
    assert abs(hm - gamma * (h0 - beta * e0)) <= 1e-12


def test_invariants_at_zero_angle():
    rng = np.random.default_rng(6)
    f = random_pair(rng)
    inv = invariants(f)
    e2 = np.dot(f.e, f.e)
    h2 = np.dot(f.h, f.h)
    eh = np.dot(f.e, f.h)
    assert inv.i1p == pytest.approx(e2 - h2, abs=1e-14)
    assert inv.i2p == pytest.approx(2 * eh, abs=1e-14)
    assert inv.k_inv == pytest.approx((e2 - h2) ** 2 + 4 * eh**2, rel=1e-14)


def test_null_field_invariants_vanish():
    f = FieldPair(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
    for theta in (0.0, 0.3, 1.2, 4.0):
        inv = invariants(f, theta=theta)
        assert inv.i1p == pytest.approx(0.0, abs=1e-15)
        assert inv.i2p == pytest.approx(0.0, abs=1e-15)
        assert inv.k_inv == pytest.approx(0.0, abs=1e-15)


def test_k_invariant_under_rotation():
    rng = np.random.default_rng(7)
    f = random_pair(rng)
    k0 = invariants(f).k_inv
    for theta in rng.uniform(0, 2 * math.pi, size=50):
        k1 = invariants(dual_rotate(f, theta)).k_inv
        assert abs(k1 - k0) <= 1e-12 * abs(k0)


def test_w_ratio_invariant_under_hyperbolic():
    rng = np.random.default_rng(8)
    f = random_pair(rng)
    w0 = invariants(f).w
    for vt in rng.uniform(-2, 2, size=100):
        w1 = invariants(hyperbolic_dual(f, vt)).w
        assert abs(w1 - w0) <= 1e-12 * abs(w0)


def test_w_undefined_for_orthogonal_fields():
    f = FieldPair(np.array([2.0, 0, 0]), np.array([0, 1.0, 0]))
    assert invariants(f).w is None


def test_complex_combination_constant_along_family():
    # with E' = E cos + H sin the combination picks up exp(-2 i theta)
    rng = np.random.default_rng(9)
    f = random_pair(rng)
    c0 = complex_invariant(f)
    for theta in rng.uniform(0, 2 * math.pi, size=25):
        c1 = complex_invariant(dual_rotate(f, theta))
        assert abs(c1 * np.exp(2j * theta) - c0) <= 1e-12 * abs(c0)


def test_invariant_pair_at_special_angles():
    # at 45 and 90 degrees the pair returns sign-flipped / swapped, not equal
    rng = np.random.default_rng(10)
    f = random_pair(rng)
    base = invariants(f)
    q45 = invariants(f, theta=0.25 * math.pi)
    assert q45.i1p == pytest.approx(base.i2p, rel=1e-12)
    assert q45.i2p == pytest.approx(-base.i1p, rel=1e-12)
    q90 = invariants(f, theta=0.5 * math.pi)
    assert q90.i1p == pytest.approx(-base.i1p, rel=1e-12)
    assert q90.i2p == pytest.approx(-base.i2p, rel=1e-12)


def test_boost_identity_at_zero_beta():
    rng = np.random.default_rng(11)
    f = random_pair(rng)
    g = lorentz_boost_fields(f, 0.0)
    assert np.allclose(g.e, f.e, atol=0.0) and np.allclose(g.h, f.h, atol=0.0)


def test_boost_example_magnitudes():
    f = FieldPair(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
    g = lorentz_boost_fields(f, 0.5)
    assert np.linalg.norm(g.e) == pytest.approx(1.5 / math.sqrt(0.75), rel=1e-14)
    # the vector boost grows both transverse fields; the mixed-sign pair
    # (1.5, 0.5)/sqrt(0.75) is produced by the hyperbolic-dual magnitudes
    assert np.linalg.norm(g.h) == pytest.approx(1.5 / math.sqrt(0.75), rel=1e-14)
    em, hm = hyperbolic_boost_magnitudes(f, math.atanh(0.5), (1, 0, 0), (0, 1, 0))
    assert em == pytest.approx(1.5 / math.sqrt(0.75), rel=1e-14)
    assert hm == pytest.approx(0.5 / math.sqrt(0.75), rel=1e-14)


def test_boost_composition_via_rapidity():
    rng = np.random.default_rng(12)
    f = random_pair(rng)
    b1, b2 = 0.3, 0.45
    two = lorentz_boost_fields(lorentz_boost_fields(f, b1), b2)
    combined = math.tanh(math.atanh(b1) + math.atanh(b2))
    one = lorentz_boost_fields(f, combined)
    scale = max(np.max(np.abs(one.e)), np.max(np.abs(one.h)))
    assert np.max(np.abs(two.e - one.e)) <= 1e-12 * scale
    assert np.max(np.abs(two.h - one.h)) <= 1e-12 * scale


def test_boost_rejects_superluminal():
    f = FieldPair(np.ones(3), np.ones(3))
    with pytest.raises(ValueError):
        lorentz_boost_fields(f, 1.0)


def test_angle_reduction():
    # the circular angle acts modulo 2 pi; a rapidity is undone by its negative
    rng = np.random.default_rng(14)
    f = random_pair(rng)
    reduced, direct = dual_rotate(f, 2 * math.pi + 0.3), dual_rotate(f, 0.3)
    assert np.allclose(reduced.e, direct.e, atol=1e-15)
    assert np.allclose(reduced.h, direct.h, atol=1e-15)
    back = hyperbolic_dual(hyperbolic_dual(f, 1.0), -1.0)
    assert np.allclose(back.e, f.e, atol=1e-14) and np.allclose(back.h, f.h, atol=1e-14)


def test_field_pair_validation():
    with pytest.raises(ValueError):
        FieldPair(np.ones(2), np.ones(3))
    with pytest.raises(ValueError):
        FieldPair(np.array([np.inf, 0, 0]), np.ones(3))


def test_batch_rotation_matches_single_pairs_bit_for_bit():
    rng = np.random.default_rng(11)
    e = rng.normal(size=(400, 3)) * rng.uniform(0.1, 10.0, size=(400, 1))
    h = rng.normal(size=(400, 3))
    h[:3] = 0.0   # rows with i2h = 0: w is nan there, None for the single pair
    # 50 pairs at each quarter turn: unsnapped, cos(pi/2) = 6e-17 moves the
    # last bits of K on about half of them
    theta = np.concatenate([rng.uniform(0.0, 2 * math.pi, 200),
                            np.repeat([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi], 50)])
    pairs = FieldPair(e, h)
    rotated = dual_rotate(pairs, theta)
    ref, rot = invariants(pairs, 0.3, 0.2), invariants(rotated)
    c_inv = complex_invariant(pairs)
    for i in range(len(theta)):
        f = FieldPair(e[i], h[i])
        g = dual_rotate(f, theta[i])
        assert np.array_equal(rotated.e[i], g.e) and np.array_equal(rotated.h[i], g.h)
        one = invariants(f, 0.3, 0.2)
        assert [x[i] for x in (ref.i1p, ref.i2p, ref.k_inv, ref.i1h, ref.i2h)] == \
            [one.i1p, one.i2p, one.k_inv, one.i1h, one.i2h]
        assert ref.w[i] == one.w if one.w is not None else np.isnan(ref.w[i])
        assert rot.k_inv[i] == invariants(g).k_inv
        assert c_inv[i] == complex_invariant(f)
    assert np.isnan(ref.w[:3]).all() and not np.isnan(ref.w[3:]).any()
    # the snapped quarter turns exchange the fields exactly, so K keeps its bits
    assert np.array_equal(rot.k_inv[200:], invariants(pairs).k_inv[200:])
    # one angle for the whole batch
    assert np.array_equal(dual_rotate(pairs, 0.7).e,
                          dual_rotate(pairs, np.full(len(theta), 0.7)).e)


def test_batch_field_pair_validation():
    for e, h in ((np.ones((2, 2)), np.ones((2, 2))), (np.ones((2, 3)), np.ones((3, 3))),
                 (np.ones((2, 3)), np.ones(3)), (np.ones((1, 2, 3)), np.ones((1, 2, 3)))):
        with pytest.raises(ValueError, match="3-vectors"):
            FieldPair(e, h)
    for bad in (np.inf, np.nan, complex(0.0, np.inf)):
        e = np.ones((4, 3), dtype=complex)
        e[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            FieldPair(e, np.ones((4, 3)))
    pairs = FieldPair(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError, match="angle"):
        dual_rotate(pairs, np.zeros(3))
    with pytest.raises(ValueError, match="angle"):
        dual_rotate(FieldPair(np.ones(3), np.ones(3)), np.zeros(1))
    # three rows would broadcast against the boost axis without an error
    with pytest.raises(ValueError, match="one pair"):
        lorentz_boost_fields(FieldPair(np.ones((3, 3)), np.ones((3, 3))), 0.5)
    # and float() of the three boosted magnitudes would raise TypeError
    with pytest.raises(ValueError, match="one pair"):
        hyperbolic_boost_magnitudes(FieldPair(np.ones((3, 3)), np.ones((3, 3))), 0.5,
                                    (1, 0, 0), (0, 1, 0))


def test_batch_six_vector_norm_is_per_row():
    assert FieldPair(np.ones((4, 3)), np.zeros((4, 3))).six_vector_norm().tolist() == \
        [math.sqrt(3.0)] * 4
    rng = np.random.default_rng(5)
    e = rng.normal(size=(50, 3)) + 1j * rng.normal(size=(50, 3))
    h = rng.normal(size=(50, 3))
    norms = FieldPair(e, h).six_vector_norm()
    singles = [FieldPair(e[i], h[i]).six_vector_norm() for i in range(50)]
    assert all(type(n) is float for n in singles)
    assert norms.shape == (50,) and norms.tolist() == singles
