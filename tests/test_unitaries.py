"""Tests for the composition unitaries, the exact route for
Moebius-composed symbols and the weak-decay pairing."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from berglab.basis import TruncatedBasis, kernel_expansion
from berglab.geometry import sample_ball
from berglab.quadrature import _gauss_legendre, build_rule, rule_for_basis
from berglab.sequences import build_sequence
from berglab import unitaries
from berglab.toeplitz import (Symbol, _profile_integrals, _scatter,
                              apply_blocks, toeplitz_matrix, toeplitz_radial)
from berglab.unitaries import (toeplitz_blocks, unitary_matrix,
                               unitary_matrix_exact,
                               unitary_matrix_quadrature, weak_pairing_exact)
from berglab.witness import (SphereSet, build_prop1_config, default_panel,
                             lens_volume, witness_symbol)


def toeplitz_dense(f, basis):
    """T_f as one dense matrix: the scatter of its triples."""
    return _scatter(toeplitz_blocks(f, basis)[1], basis)


def compress_moebius(g, basis, core):
    """The triples of V* T_h V at core degree ``core``, with V's blocks
    built as ``toeplitz_blocks`` builds them."""
    axis, c = unitaries._axis_point(g.center)
    return unitaries._compress_moebius(
        g, basis, core, axis,
        unitaries._ray_blocks(c, basis.n, core, basis.degree))


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
        # exact entries exist at every point c e_j of a coordinate axis,
        # whatever the phase of c, and at no other point
        axis_point = unitaries._axis_point
        assert axis_point([0.3 + 0.2j]) == (0, 0.3 + 0.2j)
        assert axis_point([0.5, 0.0]) == (0, 0.5)
        assert axis_point([0.0, 0.0]) == (0, 0.0)
        assert axis_point([0.3j, 0.0]) == (0, 0.3j)
        assert axis_point([0.0, -0.5]) == (1, -0.5)
        assert axis_point([0.0, 0.0, 0.4 * np.exp(2j)]) == (
            2, 0.4 * np.exp(2j))
        assert axis_point([0.3, 0.2]) is None

    def test_ray_axis(self):
        # one helper names the axis for U_z, V* T_h V, the two-route probe
        # and the cutoff: phased and negative points take every exact route
        b = TruncatedBasis.create(2, 4)
        for z in ([0.0, -0.5], [0.0, 0.5j], [0.3j, 0.0]):
            unitary_matrix_exact(z, b)
            g = witness_symbol(0.5).compose_moebius(z)
            assert toeplitz_blocks(g, b)[0]["route"] == "moebius"
            unitaries.moebius_pair(g, b)
        route = toeplitz_blocks(eta([[0.0, -1j]]), b)[0]["route"]
        assert route == "cutoff"
        # off the axes U_z raises, and V* T_h V is not tried
        g = bump(BUMP_R).compose_moebius([0.3, 0.2])
        with pytest.raises(ValueError, match="coordinate axis c e_j"):
            unitary_matrix_exact([0.3, 0.2], b)
        assert toeplitz_blocks(g, b)[0]["route"] == "quadrature"

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
    alphas = list(map(tuple, basis.indices.tolist()))
    pos = {alpha: i for i, alpha in enumerate(alphas)}
    with mp.workdps(dps):
        zeta = mp.mpc(zeta)
        zp = [zeta ** k for k in range(d + 1)]
        zcp = [mp.conj(zeta) ** k for k in range(d + 1)]
        gap = 1 - abs(zeta) ** 2
        norms = [mp.sqrt(mp.factorial(n) * mp.fprod(map(mp.factorial, alpha))
                         / mp.factorial(n + sum(alpha)))
                 for alpha in alphas]
        sums = {}
        for ia, alpha in enumerate(alphas):
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
        toeplitz_dense(g, b)
        monkeypatch.setattr(unitaries, "_diagonals",
                            perturb_where(np.s_[1:], lambda v: v * (1 + 1e-6)))
        with pytest.raises(ValueError, match="column norm excess"):
            toeplitz_dense(g, b)


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
        assert toeplitz_blocks(g, basis)[0]["route"] == "moebius"
        exact = toeplitz_dense(g, basis)
        quad = toeplitz_matrix(g, basis, rule)
        assert np.max(np.abs(exact.mat - quad.mat)) < 1e-12

    def test_bump_off_origin(self, basis, rule):
        g = bump(BUMP_R).compose_moebius([0.5])
        exact = toeplitz_dense(g, basis)
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
            exact = toeplitz_dense(g, b).mat
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
        k = toeplitz_blocks(g, b)[0]["core_degree"]
        at_k = toeplitz_dense(g, b).mat
        for more in (10, 20):
            wider = _scatter(compress_moebius(g, b, k + more), b).mat
            assert np.max(np.abs(wider - at_k)) < 1e-17

    def test_gap_to_quadrature_shrinks_with_rule(self):
        b = TruncatedBasis.create(2, 6)
        g = rho_bump(0.5, 0.6)
        exact = toeplitz_dense(g, b).mat
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
        exact = toeplitz_dense(g, b).mat
        assert np.max(np.abs(exact - toeplitz_matrix(g, b, rule).mat)) < 2e-6

    def test_rho_bump_three_variables(self):
        b = TruncatedBasis.create(3, 3)
        g = rho_bump(0.5, 0.35, n=3, axis=2)
        rule = rule_for_basis(3, 3, radial_breaks=(BUMP_R ** 2,))
        assert toeplitz_blocks(g, b)[0]["route"] == "moebius"
        exact = toeplitz_dense(g, b).mat
        assert np.max(np.abs(exact - toeplitz_matrix(g, b, rule).mat)) < 2e-5

    def test_off_ray_centre_takes_quadrature(self):
        b = TruncatedBasis.create(2, 4)
        g = bump(BUMP_R).compose_moebius([0.3, 0.3])
        # the route builds the rule of its basis itself
        rule = rule_for_basis(2, 4)
        assert toeplitz_blocks(g, b)[0] == {
            "route": "quadrature", "nodes": len(rule), "defect": None}
        assert np.array_equal(toeplitz_dense(g, b).mat,
                              toeplitz_matrix(g, b, rule).mat)

    def test_core_degree_cap_names_radius(self):
        g = bump(0.99).compose_moebius([0.0, 0.5])
        with pytest.raises(ValueError, match="R = 0.99"):
            toeplitz_blocks(g, TruncatedBasis.create(2, 4))[0]

    def test_assembly_memory_below_core_square(self):
        # no array of B_K^2 entries: V is applied block by block
        b = TruncatedBasis.create(2, 24)
        g = rho_bump(0.6, 0.6)
        k = toeplitz_blocks(g, b)[0]["core_degree"]
        assert k > b.degree
        size_k = (k + 1) * (k + 2) // 2
        tracemalloc.start()
        try:
            toeplitz_dense(g, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * size_k ** 2


def eta(points, eps=0.5):
    """Proposition 1's cutoff around the rows of ``points``."""
    return build_prop1_config(SphereSet.create(points), eps).eta


def eta_e2():
    """Proposition 1's cutoff for F = {e_2} at n = 2."""
    return eta([[0.0, 1.0]])


OFF_AXIS = [[2 ** -0.5, 2 ** -0.5]]

# the assembly functions ``toeplitz_blocks`` calls for each route, in order
ASSEMBLERS = {"radial": ["ray_bands"],
              "monomial_radial": ["ray_bands"],
              "moebius": ["_compress_moebius", "ray_bands"],
              "cutoff": ["_assemble_cutoff"],
              "quadrature": ["toeplitz_matrix"]}


def spy(monkeypatch, name, log):
    """Replace unitaries.<name> by a wrapper that appends (name, args) to
    ``log`` on every call."""
    orig = getattr(unitaries, name)

    def wrapper(*args, **kwargs):
        log.append((name, args))
        return orig(*args, **kwargs)

    monkeypatch.setattr(unitaries, name, wrapper)


class TestRouteRecord:
    """One ``toeplitz_blocks`` call picks the route, names it in its
    record and builds each input of that route once."""

    @pytest.mark.parametrize("f", [
        eta(OFF_AXIS), bump(BUMP_R).compose_moebius([0.3, 0.2j])],
        ids=["eta_off_axis", "off_ray_rho_bump"])
    def test_nodes_are_the_points_evaluated(self, f):
        b = TruncatedBasis.create(2, 4)
        rule = rule_for_basis(2, 4)
        points = []

        def counted(pts):
            points.append(len(pts))
            return f(pts)

        route, _ = toeplitz_blocks(Symbol.sampled(counted, f.sup_norm_bound),
                                   b)
        assert route == {"route": "quadrature", "nodes": len(rule),
                         "defect": None}
        assert sum(points) == route["nodes"]
        assert toeplitz_blocks(f, b)[0] == route

    @pytest.mark.parametrize("f, expect", [
        (bump(BUMP_R), "radial"),
        (witness_symbol(0.5), "monomial_radial"),
        (rho_bump(0.5, 0.6), "moebius"),
        (eta_e2(), "cutoff"),
        (eta(OFF_AXIS), "quadrature")],
        ids=["radial", "monomial_radial", "moebius", "cutoff", "quadrature"])
    def test_auto_calls_what_the_record_names(self, monkeypatch, f, expect):
        b = TruncatedBasis.create(2, 4)
        log = []
        for name in {n for names in ASSEMBLERS.values() for n in names}:
            spy(monkeypatch, name, log)
        route, _ = toeplitz_blocks(f, b)
        assert route["route"] == expect
        assert [name for name, _ in log] == ASSEMBLERS[expect]

    def test_quadrature_builds_one_rule(self, monkeypatch):
        log = []
        spy(monkeypatch, "rule_for_basis", log)
        route, _ = toeplitz_blocks(eta(OFF_AXIS), TruncatedBasis.create(2, 4))
        assert route["route"] == "quadrature"
        assert log == [("rule_for_basis", (2, 4))]

    def test_cutoff_sums_once_per_gauss_size(self, monkeypatch):
        log = []
        for name in ("_cutoff_axes", "_cutoff_blocks"):
            spy(monkeypatch, name, log)
        route, _ = toeplitz_blocks(eta_e2(), TruncatedBasis.create(2, 8))
        assert route["route"] == "cutoff"
        assert [(name, args[-1]) for name, args in log] == [
            ("_cutoff_axes", 2), ("_cutoff_blocks", route["p"]),
            ("_cutoff_blocks", route["p"] - 4)]

    @pytest.mark.parametrize("pair", [False, True], ids=["blocks", "pair"])
    def test_moebius_finds_the_axis_once(self, monkeypatch, pair):
        # toeplitz_blocks and moebius_pair: one axis test, one core
        # degree and one set of blocks of U_c
        log = []
        for name in ("_axis_point", "_core_degree", "_ray_blocks"):
            spy(monkeypatch, name, log)
        g = rho_bump(0.5, 0.6)
        b = TruncatedBasis.create(2, 4)
        route = (unitaries.moebius_pair(g, b) if pair
                 else toeplitz_blocks(g, b))[0]
        assert route["route"] == "moebius"
        assert [name for name, _ in log] == [
            "_axis_point", "_core_degree", "_ray_blocks"]


def cutoff_mean(n, eps):
    """The integral of eta over the ball for one point of F: the mean of
    nu(|z - zeta| < u) over u in [eps/3, eps/2] (``lens_volume``), by
    60-point Gauss-Legendre, since the lens volume is smooth in u."""
    x, w = np.polynomial.legendre.leggauss(60)
    lo, hi = eps / 3.0, eps / 2.0
    u = lo + 0.5 * (hi - lo) * (x + 1.0)
    return 0.5 * sum(wi * lens_volume(n, ui) for wi, ui in zip(w, u))


def cutoff_blocks_table(profile, radius, n, degree, p):
    """The blocks of ``_cutoff_blocks`` from a complex table of the
    powers z_j^a, its real and imaginary parts concatenated, and tiled
    weights (reference)."""
    x, wx = _gauss_legendre(p)
    edges = np.minimum([0.0, 2.0 * radius / 3.0, radius], 2.0)
    u, wu = (np.concatenate(v) for v in zip(*[
        (lo + 0.5 * (hi - lo) * (x + 1.0), 0.5 * (hi - lo) * wx)
        for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]))
    top = 0.5 * np.arccos(0.5 * u)[:, None]
    theta = top * (x + 1.0)
    y = u[:, None] * np.sin(theta)
    base = (wu * profile(u) * u)[:, None] * (top * wx) * y ** (2 * n - 2)
    t, wt = np.ones(1), np.ones(1)
    if n > 1:
        t, wt = _gauss_legendre(degree + n)
        half = t >= 0.0
        t, wt = t[half], np.where(t > 0.0, 2.0, 1.0)[half] * wt[half]
        wt = wt * (1.0 - t * t) ** (n - 2)
    w = ((1.0 - u[:, None] * np.cos(theta))[..., None]
         + 1j * y[..., None] * t).ravel()
    powers = np.empty((degree + 1, len(w)), dtype=complex)
    powers[0] = 1.0
    for a in range(degree):
        powers[a + 1] = powers[a] * w
    parts = np.concatenate([powers.real, powers.imag], axis=1)
    parts *= np.tile(np.sqrt((base[..., None] * wt).ravel()), 2)
    s = np.tile((y[..., None] * np.sqrt(1.0 - t * t)).ravel(), 2)
    blocks = []
    for k in range(degree + 1 if n > 1 else 1):
        m = degree - k + 1
        scale = math.perm(n + k, 2) if n > 1 else 1
        c = np.sqrt([2.0 / math.pi * math.comb(n + k + a, a) * scale
                     for a in range(m)])
        blocks.append(np.outer(c, c) * (parts[:m] @ parts[:m].T))
        parts[:m - 1] *= s
    return blocks


class TestCutoffRoute:
    """Proposition 1's cutoff eta around points c e_j of the sphere,
    assembled from its blocks with no quadrature over the ball."""

    @pytest.mark.parametrize("degree", [5, 12])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_blocks_are_the_power_table_sum(self, n, degree):
        # one real work array gives the bytes of the complex power table
        f = eta([np.eye(n)[-1]])
        p = 12 + degree // 4
        got = unitaries._cutoff_blocks(f.profile, f.support, n, degree, p)
        want = cutoff_blocks_table(f.profile, f.support, n, degree, p)
        assert len(got) == len(want) == (degree + 1 if n > 1 else 1)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("eps", [0.3, 0.5, 1.0, 2.0])
    def test_constant_entry_is_the_lens_mean(self, n, eps):
        # T_eta[0, 0] = integral of eta = (6/eps) int_{eps/3}^{eps/2}
        # nu(|z - e_n| < u) du
        f = eta([np.eye(n)[-1]], eps)
        got = toeplitz_dense(f, TruncatedBasis.create(n, 2)).mat[0, 0]
        assert got.imag == 0.0
        assert got.real == pytest.approx(cutoff_mean(n, eps), rel=4e-15)

    @pytest.mark.parametrize("n, degree", [(2, 8), (3, 6)])
    def test_blocks_depend_on_the_off_axis_degree(self, n, degree):
        b = TruncatedBasis.create(n, degree)
        mat = toeplitz_dense(eta([np.eye(n)[0]]), b).mat
        rest = [tuple(a[1:]) for a in b.indices.tolist()]
        same = np.array([[r == q for q in rest] for r in rest])
        assert np.all(mat[~same] == 0.0)
        assert np.all(mat.imag == 0.0)
        assert np.array_equal(mat, mat.T)
        # every alpha' of the same degree carries the same block
        for k in range(degree + 1):
            blocks = {r: mat[np.ix_(pos, pos)] for r, pos in
                      ray_positions_loop(b, 0).items() if sum(r) == k}
            first = next(iter(blocks.values()))
            assert all(np.array_equal(v, first) for v in blocks.values())

    def test_phase_point_rotates_the_entries(self):
        # eta around i e2 is eta around e2 with z_2 rotated by i, so the
        # entry at (b, a) picks up i^a conj(i)^b
        b = TruncatedBasis.create(2, 6)
        plain = toeplitz_dense(eta([[0.0, 1.0]]), b).mat
        turned = toeplitz_dense(eta([[0.0, 1j]]), b).mat
        a2 = b.indices[:, 1]
        phase = np.conj(1j) ** a2[:, None] * 1j ** a2[None, :]
        assert np.max(np.abs(turned - phase * plain)) <= 1e-16
        rule = rule_for_basis(2, 14)
        quad = toeplitz_matrix(eta([[0.0, 1j]]), b, rule).mat
        assert np.linalg.norm(turned - quad, 2) < 5e-3

    def test_points_apart_add(self):
        b = TruncatedBasis.create(2, 6)
        both = eta([[1.0, 0.0], [0.0, -1.0]])
        assert toeplitz_blocks(both, b)[0]["route"] == "cutoff"
        one = toeplitz_dense(eta([[1.0, 0.0]]), b).mat
        two = toeplitz_dense(eta([[0.0, -1.0]]), b).mat
        assert np.max(np.abs(toeplitz_dense(both, b).mat - (one + two))) \
            <= 1e-16

    def test_overlapping_or_off_axis_points_take_quadrature(self):
        b = TruncatedBasis.create(2, 3)
        near = [[1.0, 0.0], [np.cos(0.2), np.sin(0.2)]]  # 0.2 < eps apart
        for points in (near, OFF_AXIS):
            route = toeplitz_blocks(eta(points), b)[0]["route"]
            assert route == "quadrature"

    @pytest.mark.parametrize("eps", [4.0, 6.0])
    def test_support_past_the_ball(self, eps):
        # at eps/2 >= 2 the support of eta covers the ball, and u is cut
        # at 2; at eps = 6, eta = 1 on the ball and T_eta = I
        b = TruncatedBasis.create(2, 4)
        f = eta([[0.0, 1.0]], eps)
        route = toeplitz_blocks(f, b)[0]
        mat = toeplitz_dense(f, b).mat
        assert np.all(np.isfinite(mat))
        quad = toeplitz_matrix(f, b, rule_for_basis(2, 14)).mat
        assert np.linalg.norm(mat - quad, 2) < 1e-3
        if eps == 6.0:
            assert np.linalg.norm(mat - np.eye(len(b))) <= route["defect"]

    def test_default_config_defect(self):
        # the prop1 suite's n = 2 config: F = {e2}, eps = 0.5, degree 8
        route, _ = toeplitz_blocks(eta_e2(), TruncatedBasis.create(2, 8))
        assert route["route"] == "cutoff"
        assert route["p"] == 14
        assert 0.0 < route["defect"] <= 1e-12


def ray_positions_loop(basis, axis):
    """Per off-axis multi-index alpha', the positions of its ray in a,
    the alpha' in order of first position: the per-index loop that
    ``TruncatedBasis.rays`` replaced, kept as its oracle and as the
    positions of the dense oracles below."""
    groups = {}
    for i, alpha in enumerate(map(tuple, basis.indices.tolist())):
        rest = alpha[:axis] + alpha[axis + 1:]
        groups.setdefault(rest, []).append((alpha[axis], i))
    return {rest: np.array([i for _, i in sorted(pairs)])
            for rest, pairs in groups.items()}


def dense_moebius(f, basis, core):
    """V* T_h V assembled densely, one product per off-axis multi-index:
    the assembly the triples of ``_compress_moebius`` replaced, kept as
    their oracle."""
    h, n = f.inner, basis.n
    c = np.asarray(f.center)
    axis = int(np.argmax(np.abs(c) > 0.0))
    blocks = unitaries._ray_blocks(complex(c[axis]), n, core, basis.degree)
    ints = _profile_integrals(h.profile, n, core, h.support)
    k = np.arange(core + 1)
    positions = ray_positions_loop(basis, axis)
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    for rest, pos in positions.items():
        s = sum(rest)
        if s >= len(blocks):
            continue
        v = blocks[s]
        if h.kind == "radial":
            diag = ((n + k) * ints)[s:]
            out[np.ix_(pos, pos)] = v.conj().T @ (diag[:, None] * v)
            continue
        kk = k[s + 1:]
        if h.coordinate == axis:
            band = ints[kk] * np.sqrt((n + kk) * (kk - s))
            out[np.ix_(pos, pos)] = v[1:].conj().T @ (band[:, None] * v[:-1])
            continue
        j = h.coordinate - (h.coordinate > axis)
        up = rest[:j] + (rest[j] + 1,) + rest[j + 1:]
        if up not in positions or s + 1 >= len(blocks):
            continue
        band = ints[kk] * np.sqrt((n + kk) * (rest[j] + 1))
        out[np.ix_(positions[up], pos)] = (
            blocks[s + 1].conj().T @ (band[:, None] * v[:-1]))
    return out


def dense_cutoff(f, basis, p):
    """T_eta assembled densely, one block per off-axis multi-index: the
    assembly the triples of ``_assemble_cutoff`` replaced (oracle)."""
    blocks = unitaries._cutoff_blocks(f.profile, f.support, basis.n,
                                      basis.degree, p)
    a = np.arange(basis.degree + 1)
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    for axis, c in unitaries._cutoff_axes(f, basis.n):
        phase = np.outer(np.conj(c) ** a, c ** a)
        for rest, pos in ray_positions_loop(basis, axis).items():
            m = len(pos)
            out[np.ix_(pos, pos)] += blocks[sum(rest)] * phase[:m, :m]
    return out


class TestRayPositions:
    @pytest.mark.parametrize("n, degree", [(1, 40), (2, 30), (3, 20),
                                           (4, 12)])
    def test_match_the_loop(self, n, degree):
        # per off-axis degree s, the loop's rays in their order
        b = TruncatedBasis.create(n, degree)
        for axis in range(n):
            got = b.rays(axis)
            want = {}
            for rest, pos in ray_positions_loop(b, axis).items():
                want.setdefault(sum(rest), []).append(pos)
            assert len(got) == len(want) == (degree + 1 if n > 1 else 1)
            for s, pos in want.items():
                assert got[s].shape == (len(pos), degree - s + 1)
                assert np.array_equal(got[s], np.array(pos))
                assert got[s].dtype == pos[0].dtype

    def test_kept_with_the_basis_and_read_only(self):
        b = TruncatedBasis.create(3, 6)
        first = b.rays(1)
        assert b.rays(1) is first
        for table in first:
            with pytest.raises(ValueError):
                table[0, 0] = 1
        with pytest.raises(ValueError):
            b.indices[0, 0] = 1
        # a new basis of the same size computes its own
        assert TruncatedBasis.create(3, 6).rays(1) is not first


def on_ray(n, axis, t):
    z = np.zeros(n, complex)
    z[axis] = t
    return z


class TestBlockTriples:
    """Each route's (rows, cols, block) triples: their scatter is the
    dense assembly they replaced, bit for bit, and each distinct block
    is formed once."""

    @pytest.mark.parametrize("n, degree, g", [
        (1, 12, bump(BUMP_R).compose_moebius([0.5])),
        (1, 12, witness_symbol(0.5).compose_moebius([0.3 + 0.2j])),
        (2, 10, rho_bump(0.5, 0.6)),
        (2, 10, witness_symbol(0.5).compose_moebius(on_ray(2, 0, 0.5))),
        (2, 10, witness_symbol(0.5).compose_moebius(on_ray(2, 1, 0.5))),
        (3, 8, rho_bump(0.5, 0.35, n=3, axis=2)),
        (3, 8, witness_symbol(0.5).compose_moebius(on_ray(3, 0, 0.7))),
        (3, 8, witness_symbol(0.5).compose_moebius(on_ray(3, 1, 0.7)))],
        ids=["n1_radial", "n1_band", "n2_radial", "n2_band_on_axis",
             "n2_band_off_axis", "n3_radial", "n3_band_on_axis",
             "n3_band_off_axis"])
    def test_moebius_scatter_is_the_dense_assembly(self, n, degree, g):
        b = TruncatedBasis.create(n, degree)
        k = toeplitz_blocks(g, b)[0]["core_degree"]
        triples = compress_moebius(g, b, k)
        oracle = dense_moebius(g, b, k)
        assert _scatter(triples, b).mat.tobytes() == \
            oracle.tobytes()
        assert toeplitz_dense(g, b).mat.tobytes() == oracle.tobytes()
        # one block per off-axis degree, or per (degree, alpha'_j) for a
        # band off the axis
        h, c = g.inner, np.asarray(g.center)
        axis = int(np.argmax(np.abs(c) > 0.0))
        top = min(k, degree) if n > 1 else 0
        if h.kind == "radial":
            assert len(triples) == top + 1
        elif h.coordinate == axis:  # the band at s = k is empty: no triple
            assert len(triples) == (min(k - 1, degree) + 1 if n > 1 else 1)
        else:
            j = h.coordinate - (h.coordinate > axis)
            assert len(triples) == len({
                (sum(rest), rest[j]) for rest in
                ray_positions_loop(b, axis) if sum(rest) < top})

    @pytest.mark.parametrize("n, degree, points", [
        (1, 8, [[1.0]]),
        (2, 8, [[0.0, 1.0]]),
        (2, 6, [[0.0, 1j]]),
        (2, 6, [[1.0, 0.0], [0.0, -1.0]]),
        (3, 6, [[1.0, 0.0, 0.0], [0.0, 0.0, 1j]])],
        ids=["n1", "n2_e2", "n2_phase", "n2_two_points", "n3_two_points"])
    def test_cutoff_scatter_is_the_dense_assembly(self, n, degree, points):
        b = TruncatedBasis.create(n, degree)
        f = eta(points)
        p = toeplitz_blocks(f, b)[0]["p"]
        triples = unitaries._assemble_cutoff(
            unitaries._cutoff_blocks(f.profile, f.support, n, degree, p),
            unitaries._cutoff_axes(f, n), b)
        oracle = dense_cutoff(f, b, p)
        assert _scatter(triples, b).mat.tobytes() == \
            oracle.tobytes()
        assert toeplitz_dense(f, b).mat.tobytes() == oracle.tobytes()
        assert len(triples) == len(points) * (degree + 1 if n > 1 else 1)

    @pytest.mark.parametrize("n, degree", [(1, 12), (2, 10), (3, 8)])
    def test_radial_scatter_is_the_fast_path(self, n, degree):
        b = TruncatedBasis.create(n, degree)
        g = bump(BUMP_R)
        route, triples = toeplitz_blocks(g, b)
        assert route["route"] == "radial"
        assert len(triples) == (degree + 1 if n > 1 else 1)
        dense = toeplitz_radial(g.profile, b, support=g.support).mat
        assert _scatter(triples, b).mat.tobytes() == dense.tobytes()

    @pytest.mark.parametrize("n, degree", [(1, 12), (2, 10), (3, 8), (4, 6)])
    @pytest.mark.parametrize("coordinate", [None, 0, -1],
                             ids=["radial", "band_e1", "band_en"])
    def test_fast_path_triples_fit_a_ray(self, n, degree, coordinate):
        # no triple of a fast path is larger than (d + 1) x (d + 1)
        g = bump(BUMP_R)
        f = g if coordinate is None else Symbol.monomial_times_radial(
            coordinate % n, g.profile, 1.0, support=g.support)
        b = TruncatedBasis.create(n, degree)
        route, triples = toeplitz_blocks(f, b)
        assert route["route"] == f.kind
        for rows, cols, (offset, values) in triples:
            assert rows.shape[1] <= degree + 1
            assert cols.shape[1] <= degree + 1
            assert offset + len(values) <= rows.shape[1]
            assert len(values) <= cols.shape[1]

    @pytest.mark.parametrize("f, n", [
        (bump(BUMP_R), 2), (rho_bump(0.5, 0.6), 2),
        (eta([[1.0, 0.0], [0.0, 1j]]), 2), (witness_symbol(0.5), 2),
        (eta(OFF_AXIS), 2),
        (witness_symbol(0.5).compose_moebius(on_ray(2, 1, 0.5)), 2),
        (bump(BUMP_R), 3), (witness_symbol(0.5), 3),
        (rho_bump(0.5, 0.35, n=3, axis=2), 3),
        (witness_symbol(0.5).compose_moebius(on_ray(3, 1, 0.7)), 3)],
        ids=["radial", "moebius", "cutoff", "monomial_radial", "quadrature",
             "moebius_band_off_axis", "n3_radial", "n3_monomial_radial",
             "n3_moebius", "n3_moebius_band_off_axis"])
    def test_apply_is_the_dense_product(self, f, n):
        b = TruncatedBasis.create(n, 6)
        x = (np.random.default_rng(5).standard_normal((len(b), 3, 2))
             @ [1.0, 1j])
        got = apply_blocks(toeplitz_blocks(f, b)[1], x)
        want = toeplitz_dense(f, b).mat @ x
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


class TestAxisPhase:
    """phi_{Vz} = V phi_z V* for every unitary V, so at z = c e_j the
    exact entries are those at |c| e_j conjugated by V = omega on axis j,
    omega = c / |c|: the entry at (beta, alpha) picks up
    omega^alpha_j conj(omega)^beta_j, for U_z and for T_{h o phi_z} with
    h radial."""

    @pytest.mark.parametrize("n, degree", [(1, 16), (2, 10), (3, 6)])
    @pytest.mark.parametrize("omega", [
        1j, -1.0, np.exp(2j), (1 + 1j) / np.sqrt(2.0)],
        ids=["i", "minus_one", "e2i", "diagonal"])
    def test_entries_pick_up_the_phase(self, n, degree, omega):
        b = TruncatedBasis.create(n, degree)
        for axis in range(n):
            a = b.indices[:, axis]
            phase = np.conj(omega) ** a[:, None] * omega ** a[None, :]
            for t in (0.4, 0.9):
                plain = unitary_matrix_exact(on_ray(n, axis, t), b).mat
                turned = unitary_matrix_exact(on_ray(n, axis, t * omega), b)
                assert np.max(np.abs(turned.mat - phase * plain)) <= 1e-13
            plain, turned = (bump(BUMP_R).compose_moebius(
                on_ray(n, axis, 0.6 * w)) for w in (1.0, omega))
            assert toeplitz_blocks(turned, b)[0]["route"] == "moebius"
            assert np.max(np.abs(toeplitz_dense(turned, b).mat - phase
                                 * toeplitz_dense(plain, b).mat)) <= 1e-13

    def test_matches_quadrature_off_the_positive_ray(self):
        # the reference and bound the positive ray is checked against
        b = TruncatedBasis.create(2, 5)
        z = np.array([0.0, 0.4 * np.exp(2j)])
        gap = unitary_matrix_exact(z, b).mat - unitary_matrix_quadrature(
            z, b, build_rule(2, 14, angular=64)).mat
        assert np.max(np.abs(gap)) < 1e-10


class TestMoebiusPair:
    """U_z and T_{f o phi_z} from one set of ray blocks are the ones
    ``unitary_matrix`` and ``toeplitz_auto`` build apart, bit for bit."""

    @pytest.mark.parametrize("n, degree, axis", [
        (1, 8, 0), (1, 64, 0), (2, 10, 0), (2, 24, 1), (3, 8, 2)])
    def test_matches_the_separate_routes(self, n, degree, axis):
        b = TruncatedBasis.create(n, degree)
        zeta = on_ray(n, axis, 1.0)
        for p in build_sequence(zeta, 0.5, 5).points():
            g = witness_symbol(0.5).compose_moebius(p)
            route, u, t = unitaries.moebius_pair(g, b)
            assert route == toeplitz_blocks(g, b)[0]
            assert u.mat.tobytes() == unitary_matrix(p, b).mat.tobytes()
            assert t.mat.tobytes() == toeplitz_dense(g, b).mat.tobytes()

    def test_off_ray_centre_rejected(self):
        g = witness_symbol(0.5).compose_moebius([0.3, 0.3])
        with pytest.raises(ValueError, match="coordinate ray"):
            unitaries.moebius_pair(g, TruncatedBasis.create(2, 4))


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
