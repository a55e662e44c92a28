"""Tests for quadrature rules on the ball."""

import mpmath as mp
import numpy as np
import pytest

from berglab.basis import monomial_norm, multi_indices
from berglab.quadrature import (_gauss_legendre, build_rule, integrate,
                                panel_gauss_legendre, rule_for_basis)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_weights_normalized_and_nodes_inside(n):
    rule = build_rule(n, 20 if n < 3 else 6)
    assert abs(np.sum(rule.weights) - 1.0) < 1e-13
    assert np.all(rule.weights > 0)
    assert np.all(np.linalg.norm(rule.nodes, axis=1) < 1.0)


def test_constant_integrates_to_one():
    rule = build_rule(2, 12)
    val = integrate(lambda pts: np.ones(pts.shape[0], complex), rule)
    assert abs(val - 1.0) < 1e-14


def test_disk_radial_moments():
    rule = build_rule(1, 30, angular=64)
    for k in range(9):
        val = integrate(lambda pts, k=k: np.abs(pts[:, 0]) ** (2 * k), rule)
        assert abs(val - 1.0 / (k + 1)) < 1e-13


def test_disk_angular_orthogonality():
    rule = build_rule(1, 20, angular=64)
    for j, k in [(1, 0), (2, 1), (5, 2), (9, 8)]:
        val = integrate(
            lambda pts, j=j, k=k: pts[:, 0] ** j * np.conj(pts[:, 0]) ** k,
            rule)
        assert abs(val) < 1e-12


def test_ball_volume_scaling():
    # nu(B(0, R)) = R^(2n); radial break makes the indicator exact
    for n in (1, 2):
        rule = build_rule(n, 24, radial_breaks=(0.36,))
        val = integrate(
            lambda pts: (np.linalg.norm(pts, axis=1) < 0.6).astype(complex),
            rule)
        assert abs(val - 0.6 ** (2 * n)) < 1e-13


def test_kernel_norm_is_one():
    from berglab.basis import kernel
    rule = build_rule(1, 40, angular=128)
    val = integrate(lambda pts: np.abs(kernel([0.6], pts)) ** 2, rule)
    assert abs(val - 1.0) < 1e-9


def test_hopf_monomial_orthogonality():
    rule = rule_for_basis(2, 6)
    rng = np.random.default_rng(5)
    idx = [(0, 0), (1, 0), (0, 2), (2, 1), (3, 3)]
    for a in idx:
        for b in idx:
            val = integrate(
                lambda pts, a=a, b=b:
                pts[:, 0] ** a[0] * pts[:, 1] ** a[1]
                * np.conj(pts[:, 0]) ** b[0] * np.conj(pts[:, 1]) ** b[1],
                rule)
            if a != b:
                assert abs(val) < 1e-8
    del rng


def test_hopf_diagonal_moment():
    # integral of |z1|^2 over the two-ball is 1/3
    rule = build_rule(2, 12)
    val = integrate(lambda pts: np.abs(pts[:, 0]) ** 2, rule)
    assert abs(val - 1.0 / 3.0) < 1e-13


# (p, angular) per dimension: exactness min(2p - n, angular - 1)
_MOMENT_RULES = {1: (8, 16), 2: (6, 10), 3: (4, 7)}


@pytest.mark.parametrize("breaks", [(), (0.36,)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_monomial_moments_exact(n, breaks):
    # integral of z^alpha conj(z)^beta is delta_{alpha beta} n! alpha! /
    # (n + |alpha|)! for every |alpha|, |beta| <= exactness_degree
    p, angular = _MOMENT_RULES[n]
    rule = build_rule(n, p, angular=angular, radial_breaks=breaks)
    degree = rule.exactness_degree
    assert degree == min(2 * p - n, angular - 1)
    alphas = multi_indices(n, degree)
    mono = np.ones((len(rule), len(alphas)), dtype=complex)
    for j in range(n):
        mono *= rule.nodes[:, j][:, None] ** alphas[:, j]
    got = mono.conj().T @ (rule.weights[:, None] * mono)
    expect = np.diag([monomial_norm(a, n) ** 2 for a in alphas.tolist()])
    assert np.max(np.abs(got - expect)) <= 1e-14


def test_integrand_errors():
    rule = build_rule(1, 8)
    with pytest.raises(ValueError, match="node"):
        integrate(lambda pts: np.where(
            np.arange(pts.shape[0]) == 3, np.nan, 1.0), rule)
    with pytest.raises(ValueError, match="shape"):
        integrate(lambda pts: np.ones(3), rule)


def test_piecewise_polynomial_exact_with_breaks():
    rule = build_rule(1, 20, radial_breaks=(0.25,))
    # f = (1 - |z|^2/0.25) on |z|^2 < 0.25: polynomial on each panel
    def f(pts):
        t = np.abs(pts[:, 0]) ** 2
        return np.where(t < 0.25, 1.0 - t / 0.25, 0.0).astype(complex)
    # exact: integral of (1 - 4t) dt over [0, 0.25] = 0.125
    assert abs(integrate(f, rule) - 0.125) < 1e-15


def test_validation():
    with pytest.raises(ValueError):
        build_rule(0, 10)
    with pytest.raises(ValueError):
        build_rule(1, 0)
    with pytest.raises(ValueError):
        build_rule(1, 10, radial_breaks=(1.5,))


def test_meta_roundtrip():
    rule = rule_for_basis(2, 8, seed=7)
    meta = rule.meta()
    assert meta["dimension"] == 2
    assert meta["exactness_degree"] >= 16
    assert meta["node_count"] == len(rule)


@pytest.mark.parametrize("breaks", [(), (0.36,)])
@pytest.mark.parametrize("p", [1, 9, 15, 40, 120])
def test_panel_rule_moments_to_roundoff(p, breaks):
    # exactness for degree <= 2p - 1 must hold to roundoff, not to the
    # weight error of the underlying library rule
    t, w = panel_gauss_legendre(p, (0.0, *breaks, 1.0))
    eps = np.finfo(float).eps
    for k in range(2 * p):
        err = abs((k + 1) * np.sum(w * t ** k) - 1.0)
        assert err <= 4 * eps * (k + 1), (k, err / eps)


def _legendre_mp(mp, p, x):
    prev, cur = mp.mpf(1), x
    for k in range(1, p):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur, p * (prev - x * cur) / ((1 - x) * (1 + x))


@pytest.mark.parametrize("p", [9, 40, 120])
def test_panel_rule_matches_high_precision_rule(p):
    t, w = panel_gauss_legendre(p, (0.0, 1.0))
    eps = np.finfo(float).eps
    with mp.workdps(40):
        for ti, wi in zip(t, w):
            # Newton-refine the node in high precision; the weight on
            # [0, 1] is 1 / ((1 - x^2) P_p'(x)^2) at the node x = 2t - 1
            x = 2 * mp.mpf(ti) - 1
            for _ in range(3):
                val, der = _legendre_mp(mp, p, x)
                x -= val / der
            _, der = _legendre_mp(mp, p, x)
            # absolute errors: the weights sum to 1, and near t = 0 the
            # node's own rounding limits the relative accuracy of a weight
            assert abs(ti - float((x + 1) / 2)) <= eps
            assert abs(wi - float(1 / ((1 - x) * (1 + x) * der * der))) <= 2 * eps


def _breaks_rule(p, breaks):
    """The composite rule on [0, 1] split at ``breaks``, built panel by
    panel as ``panel_gauss_legendre`` did when it took break points."""
    x, w = _gauss_legendre(p)
    edges = [0.0, *sorted(b for b in breaks if 0.0 < b < 1.0), 1.0]
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        xs.append(a + half * (x + 1.0))
        ws.append(half * w)
    return np.concatenate(xs), np.concatenate(ws)


@pytest.mark.parametrize("breaks", [(), (0.36,), (0.25, 0.81)])
@pytest.mark.parametrize("p", [1, 12, 120])
def test_panel_rule_is_the_breaks_rule(p, breaks):
    # edges (0, *breaks, 1) give the nodes and weights bit for bit
    for got, want in zip(panel_gauss_legendre(p, (0.0, *breaks, 1.0)),
                         _breaks_rule(p, breaks)):
        assert got.tobytes() == want.tobytes()


def test_panel_rule_skips_empty_panels():
    t, w = panel_gauss_legendre(8, (0.0, 2.0, 2.0))
    ref_t, ref_w = panel_gauss_legendre(8, (0.0, 2.0))
    assert t.tobytes() == ref_t.tobytes() and w.tobytes() == ref_w.tobytes()
    assert len(t) == 8 and np.sum(w) == pytest.approx(2.0, rel=1e-15)


def _complex_symbol(pts):
    return np.exp(np.conj(pts[:, 0])) * (1.0 + pts[:, -1] ** 2)


def _real_integrand(pts):
    return np.sum(np.abs(pts) ** 2, axis=1) ** 1.5


# P slices not a multiple of the 2^14 // A^n slices per evaluation block
_BLOCKED_RULES = [(1, 40, 1000), (2, 10, None), (3, 4, None)]


class TestEvaluate:
    @pytest.mark.parametrize("n, p, angular", _BLOCKED_RULES)
    @pytest.mark.parametrize("f", [_complex_symbol, _real_integrand],
                             ids=["complex", "real"])
    def test_matches_values_at_nodes_bit_for_bit(self, n, p, angular, f):
        rule = build_rule(n, p, angular=angular)
        step = max(1, (1 << 14) // rule.angular ** n)
        assert len(rule.moduli) > step and len(rule.moduli) % step
        got = rule.evaluate(f)
        ref = f(rule.nodes)
        assert got.dtype == ref.dtype
        assert got.shape == (len(rule),)
        assert np.array_equal(got.view(float), ref.view(float))

    def test_boolean_integrand_promoted(self):
        rule = build_rule(2, 10)

        def inside(pts):
            return np.abs(pts[:, 0]) < 0.5
        assert rule.evaluate(inside).dtype == np.float64
        assert integrate(inside, rule) == integrate(
            lambda pts: inside(pts).astype(float), rule)

    def test_nonfinite_named_by_global_index(self):
        rule = build_rule(2, 10)
        k = 30_000  # in the third block of 37 slices x 441 nodes
        target = rule.nodes[k]

        def f(pts):
            out = np.ones(len(pts))
            out[np.all(pts == target, axis=1)] = np.nan
            return out
        with pytest.raises(ValueError, match=rf"not finite at node {k}:"):
            rule.evaluate(f)

    @pytest.mark.parametrize("n, p, angular", [
        *_BLOCKED_RULES, (3, 2, 27)])  # 27^3 > 2^14: one slice per block
    def test_blocks_are_bounded(self, n, p, angular):
        rule = build_rule(n, p, angular=angular)
        sizes = []

        def f(pts):
            sizes.append(len(pts))
            return np.ones(len(pts))
        rule.evaluate(f)
        assert sum(sizes) == len(rule)
        assert max(sizes) <= max(1 << 14, rule.angular ** n)

