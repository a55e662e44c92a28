"""Tests for the composition unitaries, the exact route for
Moebius-composed symbols and the weak-decay pairing."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from berglab.basis import TruncatedBasis, kernel_expansion
from berglab.geometry import sample_ball
from berglab.quadrature import build_rule, rule_for_basis
from berglab.sequences import build_sequence
from berglab import toeplitz, unitaries
from berglab.toeplitz import Symbol, toeplitz_matrix
from berglab.unitaries import (exact_available, toeplitz_auto,
                               toeplitz_route, unitary_matrix,
                               unitary_matrix_exact,
                               unitary_matrix_quadrature, weak_pairing_exact)
from berglab.witness import (SphereSet, build_prop1_config, default_panel,
                             witness_symbol)


def window(mat, basis, probe):
    keep = basis.degrees <= probe
    return float(np.linalg.norm(mat[np.ix_(keep, keep)], 2))


@pytest.fixture(scope="module")
def basis():
    return TruncatedBasis.create(1, 12)


@pytest.fixture(scope="module")
def rule():
    return build_rule(1, 40, angular=192)


class TestMatrixRoutes:
    def test_origin_is_parity(self, basis):
        u = unitary_matrix_exact([0.0], basis)
        expect = np.diag((-1.0) ** np.arange(13) + 0j)
        np.testing.assert_allclose(u.mat, expect, atol=1e-15)

    def test_origin_parity_two_variables(self):
        b2 = TruncatedBasis.create(2, 4)
        u = unitary_matrix_exact(np.zeros(2, complex), b2)
        np.testing.assert_allclose(np.diag(u.mat), (-1.0) ** b2.degrees,
                                   atol=1e-15)

    def test_first_column_is_kernel(self, basis):
        for z in (0.5, 0.3 + 0.4j):
            u = unitary_matrix_exact([z], basis)
            kexp = kernel_expansion([z], basis)
            np.testing.assert_allclose(u.mat[:, 0], kexp.coeffs, atol=1e-14)
        for n, degree in ((2, 24), (3, 10)):
            b = TruncatedBasis.create(n, degree)
            for axis in range(n):
                for t in (0.5, 0.9, 1 - 2.0 ** -10, 1 - 2.0 ** -20):
                    z = np.zeros(n, dtype=complex)
                    z[axis] = t
                    u = unitary_matrix_exact(z, b)
                    np.testing.assert_allclose(
                        u.mat[:, 0], kernel_expansion(z, b).coeffs,
                        rtol=0.0, atol=1e-14, err_msg=f"{n} {axis} {t}")

    def test_self_adjoint(self, basis):
        u = unitary_matrix_exact([0.3 - 0.55j], basis)
        assert np.max(np.abs(u.mat - u.mat.conj().T)) < 1e-13

    def test_exact_matches_quadrature(self, basis, rule):
        for z in ([0.5 + 0.0j], [0.2 - 0.4j]):
            ue = unitary_matrix_exact(z, basis)
            uq = unitary_matrix_quadrature(z, basis, rule)
            assert np.max(np.abs(ue.mat - uq.mat)) < 1e-11

    def test_exact_matches_quadrature_two_variables(self):
        b2 = TruncatedBasis.create(2, 5)
        rule2 = build_rule(2, 14, angular=64)
        z = np.array([0.4 + 0j, 0.0 + 0j])
        ue = unitary_matrix_exact(z, b2)
        uq = unitary_matrix_quadrature(z, b2, rule2)
        assert np.max(np.abs(ue.mat - uq.mat)) < 1e-10

    def test_exact_availability(self):
        assert exact_available([0.3 + 0.2j], 1)
        assert exact_available([0.5, 0.0], 2)
        assert exact_available([0.0, 0.0], 2)
        assert not exact_available([0.3, 0.2], 2)
        assert not exact_available([0.3j, 0.0], 2)

    def test_auto_route_policy(self, basis, rule):
        z_near = [1.0 - 1e-6]
        u = unitary_matrix(z_near, basis)  # exact, no rule needed in n=1
        assert np.all(np.isfinite(u.mat))
        b2 = TruncatedBasis.create(2, 4)
        with pytest.raises(ValueError, match="coordinate ray"):
            unitary_matrix(np.array([(1 - 1e-6) / np.sqrt(2)] * 2,
                                    dtype=complex), b2)

    def test_off_ray_point_rejected_at_moderate_modulus(self):
        # no quadrature fallback: an off-ray point fails loudly even where
        # a rule would return an unchecked matrix
        assert unitary_matrix is unitary_matrix_exact
        z = 0.5 * np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        with pytest.raises(ValueError, match="coordinate ray"):
            unitary_matrix(z, TruncatedBasis.create(2, 6))

    def test_compression_is_contraction(self):
        for n, degree in ((1, 12), (1, 64), (2, 24)):
            b = TruncatedBasis.create(n, degree)
            for t in (0.3, 0.9, 0.99, 1 - 1e-5):
                z = np.zeros(n, dtype=complex)
                z[0] = t
                u = unitary_matrix_exact(z, b)
                assert np.linalg.norm(u.mat, 2) <= 1.0 + 1e-12, (n, degree, t)


def closed_form(zeta, axis, basis, dps=60):
    """<U_z e_alpha, e_beta> for z = zeta e_axis in dps-digit arithmetic.

    Expands (zeta - w)^a (1 - conj(zeta) w)^(-(a+s+n+1)) along the axis as
    the alternating binomial sum
    sum_i (-1)^i C(a, i) C(a+s+n+b-i, b-i) zeta^(a-i) conj(zeta)^(b-i),
    with a, b the axis components and s the off-axis degree, times
    (-1)^s (1 - |zeta|^2)^((s+n+1)/2) ||z^beta|| / ||z^alpha||.
    """
    mp = pytest.importorskip("mpmath")
    n, d = basis.n, basis.degree
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    pos = {alpha: i for i, alpha in enumerate(basis.indices)}
    with mp.workdps(dps):
        zeta = mp.mpc(zeta)
        zp = [zeta ** k for k in range(d + 1)]
        zcp = [mp.conj(zeta) ** k for k in range(d + 1)]
        gap = 1 - abs(zeta) ** 2
        norms = [mp.sqrt(mp.factorial(n) * mp.fprod(map(mp.factorial, alpha))
                         / mp.factorial(n + sum(alpha)))
                 for alpha in basis.indices]
        sums = {}
        for ia, alpha in enumerate(basis.indices):
            a = alpha[axis]
            s = sum(alpha) - a
            for b in range(d - s + 1):
                if (a, b, s) not in sums:
                    m = a + s + n
                    sums[a, b, s] = ((-1) ** s * gap ** (mp.mpf(s + n + 1) / 2)
                                     * mp.fsum((-1) ** i * math.comb(a, i)
                                               * math.comb(m + b - i, b - i)
                                               * zp[a - i] * zcp[b - i]
                                               for i in range(min(a, b) + 1)))
                ib = pos[alpha[:axis] + (b,) + alpha[axis + 1:]]
                out[ib, ia] = complex(sums[a, b, s] * norms[ib] / norms[ia])
    return out


class TestExactOracle:
    """The exact route against the closed form in 60-digit arithmetic."""

    @pytest.mark.parametrize("degree", [12, 24, 40])
    @pytest.mark.parametrize("z", [0.5, 0.9 + 0.05j, 1 - 2.0 ** -10,
                                   1 - 2.0 ** -30])
    def test_disk(self, z, degree):
        b = TruncatedBasis.create(1, degree)
        u = unitary_matrix_exact([z], b)
        assert np.max(np.abs(u.mat - closed_form(z, 0, b))) <= 1e-14

    @pytest.mark.parametrize("n, degree, axis", [(2, 24, 1), (3, 12, 0),
                                                 (3, 12, 2)])
    @pytest.mark.parametrize("t", [0.5, 0.99, 1 - 2.0 ** -20])
    def test_ray(self, n, degree, axis, t):
        b = TruncatedBasis.create(n, degree)
        z = np.zeros(n, dtype=complex)
        z[axis] = t
        u = unitary_matrix_exact(z, b)
        assert np.max(np.abs(u.mat - closed_form(t, axis, b))) <= 1e-14


def perturb_where(select, change):
    """A wrapper of the recurrence kernel that changes part of its output."""
    kernel = unitaries._diagonals

    def wrapped(*args):
        out = kernel(*args)
        out[select] = change(out[select])
        return out
    return wrapped


class TestExactGuards:
    # D[a, block, delta] is entry (a + delta, a) and, conjugated, (a, a + delta)
    @pytest.mark.parametrize("z, select, change, defect", [
        (0.5, np.s_[:], lambda v: v + 1e-6j, "self-adjointness defect"),
        (0.0, np.s_[1:], lambda v: v * (1 + 1e-6), "column norm excess"),
        (0.5, np.s_[:1], lambda v: v + 1e-6, "kernel column error"),
        (0.5, np.s_[-1:], lambda v: v * np.nan, "not finite"),
    ], ids=["hermitian", "contraction", "kernel-column", "finite"])
    def test_perturbed_kernel_raises(self, monkeypatch, z, select, change,
                                     defect):
        b = TruncatedBasis.create(1, 8)
        unitary_matrix_exact([z], b)
        monkeypatch.setattr(unitaries, "_diagonals",
                            perturb_where(select, change))
        with pytest.raises(ValueError, match=f"n=1, degree 8.*{defect}"):
            unitary_matrix_exact([z], b)

    def test_perturbed_kernel_raises_in_moebius_route(self, monkeypatch):
        g = bump(BUMP_R).compose_moebius([0.0])
        b = TruncatedBasis.create(1, 8)
        toeplitz_auto(g, b)
        monkeypatch.setattr(unitaries, "_diagonals",
                            perturb_where(np.s_[1:], lambda v: v * (1 + 1e-6)))
        with pytest.raises(ValueError, match="column norm excess"):
            toeplitz_auto(g, b)


class TestUnitarityDefect:
    def test_window_defect_decreases_n1(self):
        defects = []
        for d in (6, 8, 10, 12):
            b = TruncatedBasis.create(1, d)
            u = unitary_matrix_exact([0.5], b)
            v = u.mat.conj().T @ u.mat - np.eye(d + 1)
            defects.append(window(v, b, 3))
        assert all(a > b for a, b in zip(defects, defects[1:]))

    def test_window_defect_decreases_n2(self):
        defects = []
        for d in (4, 6, 8):
            b = TruncatedBasis.create(2, d)
            u = unitary_matrix_exact(np.array([0.5, 0.0], complex), b)
            v = u.mat.conj().T @ u.mat - np.eye(len(b))
            defects.append(window(v, b, 2))
        assert all(a > b for a, b in zip(defects, defects[1:]))


def bump(radius):
    """The radial profile (1 - |w|^2 / R^2)_+ of the panel's rho-bumps."""
    return Symbol.radial(
        lambda u: np.clip(1.0 - (np.asarray(u) / radius) ** 2, 0.0, None),
        1.0, support=radius)


BUMP_R = 0.45


class TestConjugation:
    """The exact route for h o phi_z against quadrature of the same symbol."""

    def test_radial_symbol_at_origin(self, basis):
        # phi_0 = -id: the composed symbol is radial, which a rule with a
        # break at R^2 integrates exactly
        g = bump(BUMP_R).compose_moebius([0.0])
        rule = rule_for_basis(1, 12, radial_breaks=(BUMP_R ** 2,))
        assert toeplitz_route(g, 1)["route"] == "moebius"
        exact = toeplitz_auto(g, basis, rule)
        quad = toeplitz_matrix(g, basis, rule)
        assert np.max(np.abs(exact.mat - quad.mat)) < 1e-12

    def test_bump_off_origin(self, basis, rule):
        g = bump(BUMP_R).compose_moebius([0.5])
        exact = toeplitz_auto(g, basis, rule)
        quad = toeplitz_matrix(g, basis, rule)
        # the kink of g is not on a radial slice, so quadrature converges
        # slowly; the exact route is Hermitian to roundoff
        assert np.max(np.abs(exact.mat - quad.mat)) < 1e-4
        assert np.max(np.abs(exact.mat - exact.mat.conj().T)) < 1e-15

    def test_defect_decreases_with_degree(self):
        g = bump(BUMP_R).compose_moebius([0.5])
        defects = []
        for d in (6, 8, 10, 12):
            b = TruncatedBasis.create(1, d)
            rule = build_rule(1, 4 * d, angular=16 * d)
            exact = toeplitz_auto(g, b, rule).mat
            defects.append(window(exact - toeplitz_matrix(g, b, rule).mat,
                                  b, 3))
        assert all(a > b for a, b in zip(defects, defects[1:]))


def rho_bump(r, tau, n=2, axis=1):
    zeta = np.zeros(n, complex)
    zeta[axis] = 1.0
    panel = default_panel(SphereSet.create([zeta]), r, n)
    return panel[[0.35, 0.6, 0.8].index(tau)]


class TestMoebiusRoute:
    @pytest.mark.parametrize("g", [
        rho_bump(0.5, 0.6),
        witness_symbol(0.5).compose_moebius([0.5, 0.0]),
        witness_symbol(0.5).compose_moebius([0.0, 0.5])],
        ids=["rho_bump", "monomial_on_axis", "monomial_off_axis"])
    def test_core_degree_is_converged(self, g):
        b = TruncatedBasis.create(2, 10)
        k = toeplitz_route(g, 2)["core_degree"]
        at_k = toeplitz_auto(g, b).mat
        for more in (10, 20):
            wider = unitaries._compress_moebius(g, b, k + more)
            assert np.max(np.abs(wider - at_k)) < 1e-17

    def test_gap_to_quadrature_shrinks_with_rule(self):
        b = TruncatedBasis.create(2, 6)
        g = rho_bump(0.5, 0.6)
        exact = toeplitz_auto(g, b).mat
        gaps = [np.linalg.norm(exact - toeplitz_matrix(
                    g, b, rule_for_basis(2, d, radial_breaks=(0.25,))).mat, 2)
                for d in (10, 20)]
        assert gaps[1] < 0.5 * gaps[0]

    def test_monomial_off_the_ray_axis(self):
        # f = z_1 eta with the centre on e_2: the band links blocks
        # alpha' and alpha' + e_1 of U_c
        b = TruncatedBasis.create(2, 8)
        g = witness_symbol(0.5).compose_moebius([0.0, 0.5])
        rule = rule_for_basis(2, 16, radial_breaks=(0.25,))
        exact = toeplitz_auto(g, b, rule).mat
        assert np.max(np.abs(exact - toeplitz_matrix(g, b, rule).mat)) < 2e-6

    def test_rho_bump_three_variables(self):
        b = TruncatedBasis.create(3, 3)
        g = rho_bump(0.5, 0.35, n=3, axis=2)
        rule = rule_for_basis(3, 3, radial_breaks=(BUMP_R ** 2,))
        assert toeplitz_route(g, 3)["route"] == "moebius"
        exact = toeplitz_auto(g, b, rule).mat
        assert np.max(np.abs(exact - toeplitz_matrix(g, b, rule).mat)) < 2e-5

    def test_off_ray_centre_takes_quadrature(self):
        b = TruncatedBasis.create(2, 4)
        g = bump(BUMP_R).compose_moebius([0.3, 0.3])
        rule = rule_for_basis(2, 4)
        assert toeplitz_route(g, 2, rule) == {
            "route": "quadrature", "invariant_axes": [], "nodes": len(rule)}
        assert np.array_equal(toeplitz_auto(g, b, rule).mat,
                              toeplitz_matrix(g, b, rule).mat)
        with pytest.raises(ValueError, match="quadrature rule"):
            toeplitz_route(g, 2)
        with pytest.raises(ValueError, match="quadrature rule"):
            toeplitz_auto(g, b)

    def test_core_degree_cap_names_radius(self):
        g = bump(0.99).compose_moebius([0.0, 0.5])
        with pytest.raises(ValueError, match="R = 0.99"):
            toeplitz_route(g, 2)

    def test_assembly_memory_below_core_square(self):
        # no array of B_K^2 entries: V is applied block by block
        b = TruncatedBasis.create(2, 24)
        g = rho_bump(0.6, 0.6)
        k = toeplitz_route(g, 2)["core_degree"]
        assert k > b.degree
        size_k = (k + 1) * (k + 2) // 2
        tracemalloc.start()
        try:
            toeplitz_auto(g, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * size_k ** 2


def eta_e2():
    """Proposition 1's cutoff for F = {e_2} at n = 2: invariant along z_1."""
    f_set = SphereSet.create([[0.0, 1.0]])
    return build_prop1_config(f_set, 0.5, rule_for_basis(2, 4)).eta


# the assembly function ``toeplitz_auto`` calls for each route
ASSEMBLERS = {"radial": "toeplitz_radial",
              "monomial_radial": "toeplitz_monomial_radial",
              "moebius": "_compress_moebius",
              "quadrature": "toeplitz_matrix"}


class TestRouteRecord:
    """The record ``toeplitz_route`` gives is what ``toeplitz_auto`` does."""

    @pytest.mark.parametrize("f", [
        eta_e2(), bump(BUMP_R).compose_moebius([0.3, 0.2j])],
        ids=["eta_e2", "off_ray_rho_bump"])
    def test_nodes_are_the_points_evaluated(self, monkeypatch, f):
        b = TruncatedBasis.create(2, 4)
        rule = rule_for_basis(2, 4)
        points = []

        def counted(pts):
            points.append(len(pts))
            return f(pts)

        g = Symbol.sampled(counted, f.sup_norm_bound, invariant=f.invariant)
        route = toeplitz_route(f, 2, rule)
        assert route == toeplitz_route(g, 2, rule)
        assert route["route"] == "quadrature"
        assert route["invariant_axes"] == list(f.invariant)
        # the invariance probe evaluates f too, and has tests of its own
        monkeypatch.setattr(toeplitz, "_check_invariant",
                            lambda f, rule: tuple(sorted(f.invariant)))
        toeplitz_auto(g, b, rule)
        assert sum(points) == route["nodes"]
        assert route["nodes"] == (len(rule) if not f.invariant
                                  else len(rule) // rule.angular)

    @pytest.mark.parametrize("f, expect", [
        (bump(BUMP_R), "radial"),
        (witness_symbol(0.5), "monomial_radial"),
        (rho_bump(0.5, 0.6), "moebius"),
        (eta_e2(), "quadrature")],
        ids=["radial", "monomial_radial", "moebius", "quadrature"])
    def test_auto_calls_what_the_record_names(self, monkeypatch, f, expect):
        b = TruncatedBasis.create(2, 4)
        rule = rule_for_basis(2, 4)
        called = []
        for name in ASSEMBLERS.values():
            def spy(*args, _name=name, _orig=getattr(unitaries, name),
                    **kwargs):
                called.append(_name)
                return _orig(*args, **kwargs)
            monkeypatch.setattr(unitaries, name, spy)
        assert toeplitz_route(f, 2, rule)["route"] == expect
        toeplitz_auto(f, b, rule)
        assert called == [ASSEMBLERS[expect]]


class TestWeakPairing:
    def test_benchmark_value(self):
        value, bound = weak_pairing_exact([0.9], [0.0], [0.0])
        assert abs(value - 0.19) < 1e-12
        assert bound >= abs(value)

    def test_center_pairing_formula(self):
        # value at z = w = 0 is (1 - |z_m|^2)^((n+1)/2)
        zm = np.array([0.6 + 0j, 0.3 + 0j])
        value, _ = weak_pairing_exact(zm, np.zeros(2), np.zeros(2))
        assert abs(value - (1 - 0.45) ** 1.5) < 1e-14

    @pytest.mark.parametrize("n", [1, 2])
    def test_center_pairing_exact_near_sphere(self, n):
        # 1 - |z_m|^2 as (1 - t)(1 + t): exact at t = 1 - 2^-28, where
        # 1 - fl(t^2) is off by 1.9e-9 relative
        t = 1.0 - 2.0 ** -28
        zm = np.zeros(n, dtype=complex)
        zm[0] = t
        value, _ = weak_pairing_exact(zm, np.zeros(n), np.zeros(n))
        with mp.workdps(40):
            expect = float((1 - mp.mpf(t) ** 2) ** (mp.mpf(n + 1) / 2))
        assert abs(complex(value) / expect - 1.0) < 1e-14

    def test_bound_dominates_randomly(self):
        rng = np.random.default_rng(41)
        for n in (1, 2, 3):
            zm = sample_ball(n, 1000, rng, 0.999)
            z = sample_ball(n, 1000, rng, 0.9)
            w = sample_ball(n, 1000, rng, 0.9)
            v, b = weak_pairing_exact(zm, z, w)
            assert np.all(np.abs(v) <= b + 1e-14)

    def test_broadcast_matches_pointwise(self):
        rng = np.random.default_rng(43)
        for n in (1, 2, 3):
            zm = sample_ball(n, 1000, rng, 0.999)
            z = sample_ball(n, 1000, rng, 0.9)
            w = sample_ball(n, 1000, rng, 0.9)
            v, b = weak_pairing_exact(zm, z, w)
            assert v.shape == b.shape == (1000,)
            for i in range(1000):
                vi, bi = weak_pairing_exact(zm[i], z[i], w[i])
                assert vi.shape == bi.shape == ()
                assert vi == v[i] and bi == b[i], (n, i)

    def test_matrix_pairing_converges(self):
        zm, zp, wp = [0.6], [0.3], [0.2j]
        target, _ = weak_pairing_exact(zm, zp, wp)
        errs = []
        for d in (6, 8, 10, 12):
            b = TruncatedBasis.create(1, d)
            u = unitary_matrix_exact(zm, b)
            kz = kernel_expansion(zp, b).coeffs
            kw = kernel_expansion(wp, b).coeffs
            errs.append(abs(complex(np.vdot(kw, u.mat @ kz)) - target))
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-8

    def test_decay_along_separated_sequence(self):
        seq = build_sequence([1.0], 0.5, 8)
        v, bounds = weak_pairing_exact(seq.points(), [0.2], [0.1])
        vals = np.abs(v)
        assert all(a > b for a, b in zip(vals, vals[1:]))
        one_minus = 1.0 - seq.radii ** 2
        slope = np.polyfit(np.log(one_minus), np.log(bounds), 1)[0]
        assert abs(slope - 1.0) <= 0.05  # (n+1)/2 at n = 1
