"""Tests for unit-ball geometry: Moebius maps, the metric, metric balls."""

import mpmath as mp
import numpy as np
import pytest

from berglab.geometry import (
    delta_for,
    disjoint_threshold,
    ellipsoid_params,
    in_ellipsoid,
    in_metric_ball,
    metric_combined_bound,
    moebius,
    pseudo_metric,
    random_sphere_points,
    sample_ball,
    sample_metric_ball,
)
from berglab import geometry, suites
from berglab.config import ExperimentConfig
from berglab.unitaries import weak_pairing_exact
from berglab.witness import SphereSet, region_infimum


class TestMoebius:
    def test_at_origin_is_minus_identity(self):
        z = np.array([0.3 + 0.0j, 0.0 + 0.4j])
        out = moebius(np.zeros(2), z)
        np.testing.assert_allclose(out, -z, atol=1e-15)

    def test_exchanges_zero_and_center(self):
        np.testing.assert_allclose(moebius([0.6], [0.6]), [0.0], atol=1e-15)
        np.testing.assert_allclose(moebius([0.6], [0.0]), [0.6], atol=1e-15)

    def test_involution(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            a = sample_ball(n, 1000, rng, 0.9)
            z = sample_ball(n, 1000, rng, 0.9)
            back = moebius(a, moebius(a, z))
            np.testing.assert_allclose(back, z, atol=1e-12)

    def test_stays_inside_ball(self):
        rng = np.random.default_rng(12)
        a = sample_ball(2, 500, rng, 0.95)
        z = sample_ball(2, 500, rng, 0.95)
        assert np.all(np.linalg.norm(moebius(a, z), axis=1) < 1.0)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension"):
            moebius([0.1], [0.1, 0.2])

    def test_outside_ball_raises(self):
        with pytest.raises(ValueError, match="unit ball"):
            moebius([1.2], [0.1])
        with pytest.raises(ValueError, match="unit ball"):
            moebius([0.2], [1.0])


class TestPseudoMetric:
    def test_from_origin_is_euclidean(self):
        rng = np.random.default_rng(13)
        w = sample_ball(2, 200, rng)
        np.testing.assert_allclose(
            pseudo_metric(np.zeros(2), w), np.linalg.norm(w, axis=1),
            atol=1e-14)

    def test_one_dimensional_closed_form(self):
        # |z - w| / |1 - z conj(w)| cross-checked against the Moebius route
        val = pseudo_metric([0.5], [-0.5])
        assert abs(val - 0.8) < 1e-15
        assert abs(val - abs(moebius([0.5], [-0.5])[0])) < 1e-15

    def test_zero_iff_equal_and_symmetry(self):
        rng = np.random.default_rng(14)
        z = sample_ball(3, 100, rng, 0.9)
        w = sample_ball(3, 100, rng, 0.9)
        assert np.max(pseudo_metric(z, z)) < 1e-12
        np.testing.assert_allclose(pseudo_metric(z, w), pseudo_metric(w, z),
                                   atol=1e-14)

    def test_matches_moebius_magnitude(self):
        rng = np.random.default_rng(15)
        z = sample_ball(2, 300, rng, 0.9)
        w = sample_ball(2, 300, rng, 0.9)
        direct = np.linalg.norm(moebius(z, w), axis=1)
        np.testing.assert_allclose(pseudo_metric(z, w), direct, atol=1e-13)


def _rho_oracle(z, w):
    """rho(z, w) in 50 digits from 1 - rho^2 = (1-|z|^2)(1-|w|^2)/|1-<w,z>|^2."""
    with mp.workdps(50):
        z = [mp.mpc(complex(x)) for x in z]
        w = [mp.mpc(complex(x)) for x in w]
        zz = sum(abs(x) ** 2 for x in z)
        ww = sum(abs(x) ** 2 for x in w)
        wz = sum(a * mp.conj(b) for a, b in zip(w, z))
        return mp.sqrt(1 - (1 - zz) * (1 - ww) / abs(1 - wz) ** 2)


def _phi_oracle(z, w):
    """phi_z(w) in 50 digits from the defining formula (z != 0)."""
    with mp.workdps(50):
        z = [mp.mpc(complex(x)) for x in z]
        w = [mp.mpc(complex(x)) for x in w]
        zz = sum(abs(x) ** 2 for x in z)
        wz = sum(a * mp.conj(b) for a, b in zip(w, z))
        s = mp.sqrt(1 - zz)
        proj = [wz / zz * x for x in z]  # P_z w
        return np.array([complex((x - p - s * (y - p)) / (1 - wz))
                         for x, y, p in zip(z, w, proj)])


def _oracle_pairs(n, regime):
    """Pairs (z, w) that stress rho.  "coincident": |z - w| = 1e-9 with
    |z| <= 0.9.  "sphere": z = (1 - 1e-6) c e_j with c in {1, i, -1, -i},
    so |z| is a double as on the coordinate rays the sequences use, and w
    the next ray point, an interior point, or a point 1e-9 away."""
    rng = np.random.default_rng(100 + n)

    def unit():
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return u / np.linalg.norm(u)

    pairs = []
    for k in range(12):
        if regime == "coincident":
            z = sample_ball(n, 1, rng, 0.9)[0]
            pairs.append((z, z + 1e-9 * unit()))
            continue
        axis = np.zeros(n, dtype=complex)
        axis[k % n] = (1, 1j, -1, -1j)[k % 4]
        z = (1.0 - 1e-6) * axis
        w = ((1.0 - 2e-6) * axis, sample_ball(n, 1, rng, 0.9)[0],
             z + 1e-9 * unit())[k % 3]
        pairs.append((z, w))
    return pairs


class TestMetricAccuracy:
    @pytest.mark.parametrize("regime", ["coincident", "sphere"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rho_matches_mpmath(self, n, regime):
        for z, w in _oracle_pairs(n, regime):
            ref = _rho_oracle(z, w)
            rel = abs(float(pseudo_metric(z, w)) - ref) / ref
            assert rel <= 1e-12, (z, w, float(rel))

    @pytest.mark.parametrize("regime", ["coincident", "sphere"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_involution_at_oracle_points(self, n, regime):
        # phi_z has condition number ~ 1/(1 - |z|^2) near the sphere
        for z, w in _oracle_pairs(n, regime):
            back = moebius(z, moebius(z, w))
            tol = 1e-14 / (1.0 - np.vdot(z, z).real)
            assert np.linalg.norm(back - w) <= tol

    @pytest.mark.parametrize("regime", ["coincident", "sphere"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_phi_matches_mpmath(self, n, regime):
        # same conditioning as the involution: measured error * (1 - |z|^2)
        # is at most 2e-16 in both regimes
        for z, w in _oracle_pairs(n, regime):
            tol = 1e-14 / (1.0 - np.vdot(z, z).real)
            err = np.linalg.norm(moebius(z, w) - _phi_oracle(z, w))
            assert err <= tol, (z, w, float(err))


class TestCombinedBound:
    def test_degenerate_midpoint_gives_equality(self):
        z, w = np.array([0.2 + 0.1j]), np.array([-0.3 + 0.2j])
        lhs, rhs = metric_combined_bound(z, w, z)
        assert abs(lhs - rhs) < 1e-15

    def test_collinear_through_origin(self):
        lhs, rhs = metric_combined_bound([0.5], [-0.5], [0.0])
        assert abs(lhs - 0.8) < 1e-15
        assert abs(rhs - 0.8) < 1e-15

    def test_inequality_on_random_triples(self):
        rng = np.random.default_rng(16)
        for n in (1, 2, 3):
            z = sample_ball(n, 20_000, rng, 0.95)
            w = sample_ball(n, 20_000, rng, 0.95)
            u = sample_ball(n, 20_000, rng, 0.95)
            lhs, rhs = metric_combined_bound(z, w, u)
            assert float(np.max(lhs - rhs)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_three_pseudo_metric_calls(self, n):
        rng = np.random.default_rng(40 + n)
        z, w, u = (sample_ball(n, 5000, rng, 0.95) for _ in range(3))
        lhs, rhs = metric_combined_bound(z, w, u)
        a, b = pseudo_metric(z, u), pseudo_metric(u, w)
        np.testing.assert_array_equal(lhs, pseudo_metric(z, w))
        np.testing.assert_array_equal(rhs, (a + b) / (1.0 + a * b))
        # broadcasting one point against a stack validates it the same way
        lhs, _ = metric_combined_bound(z[0], w, u)
        np.testing.assert_array_equal(lhs, pseudo_metric(z[0], w))
        with pytest.raises(ValueError, match="u must lie"):
            metric_combined_bound(z, w, np.full(n, 1.0))
        with pytest.raises(ValueError, match="dimension"):
            metric_combined_bound(z, w, np.zeros(n + 1))


class TestDisjointThreshold:
    def test_values(self):
        assert abs(disjoint_threshold(0.5, 0.5) - 0.8) < 1e-15
        assert abs(disjoint_threshold(0.3, 0.7) - 1.0 / 1.21) < 1e-15

    def test_small_radius_limit(self):
        assert abs(disjoint_threshold(0.4, 1e-12) - 0.4) < 1e-11

    def test_domain(self):
        for bad in ((0.0, 0.5), (0.5, 1.0), (-0.1, 0.5)):
            with pytest.raises(ValueError):
                disjoint_threshold(*bad)

    def test_implies_disjoint_balls(self):
        rng = np.random.default_rng(17)
        z = sample_ball(2, 1, rng, 0.8)[0]
        w = sample_ball(2, 1, rng, 0.8)[0]
        rho = float(pseudo_metric(z, w))
        s = 0.999 * (1.0 - np.sqrt(1.0 - rho * rho)) / rho
        assert rho >= disjoint_threshold(s, s)
        pts = sample_metric_ball(z, s, 2000, rng)
        assert not np.any(in_metric_ball(w, s, pts))


class TestEllipsoid:
    def test_centered_ball(self):
        p = ellipsoid_params(np.zeros(2), 0.3)
        assert p.s == 1.0
        assert p.axis_direction is None
        np.testing.assert_allclose(p.center, 0.0)

    def test_one_dimensional_values(self):
        p = ellipsoid_params([0.6], 0.5)
        assert abs(p.s - 0.64 / 0.91) < 1e-14
        assert abs(p.center[0].real - 0.75 * 0.6 / 0.91) < 1e-14

    def test_s_complement_identity(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            a = sample_ball(2, 1, rng, 0.9)[0]
            r = rng.uniform(0.1, 0.9)
            p = ellipsoid_params(a, r)
            amod2 = float(np.sum(np.abs(a) ** 2))
            lhs = 1.0 - p.s
            rhs = (1.0 - r * r) * amod2 / (1.0 - r * r * amod2)
            assert abs(lhs - rhs) < 1e-14

    def test_membership_agreement(self):
        rng = np.random.default_rng(19)
        for n in (1, 2, 3):
            a = sample_ball(n, 1, rng, 0.85)[0]
            r = float(rng.uniform(0.2, 0.8))
            z = sample_ball(n, 5000, rng)
            rho = pseudo_metric(z, a)
            off_band = np.abs(rho - r) > 1e-9
            m1 = in_metric_ball(a, r, z[off_band])
            m2 = in_ellipsoid(a, r, z[off_band])
            assert np.array_equal(m1, m2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_broadcasts_over_centers(self, n):
        rng = np.random.default_rng(50 + n)
        centers = sample_ball(n, 5, rng, 0.85)
        centers[2] = 0.0  # the round ball, decided elementwise
        z = sample_ball(n, 400, rng).reshape(1, 400, n)
        got = in_ellipsoid(centers[:, None, :], 0.6, z)
        assert got.shape == (5, 400)
        for k, a in enumerate(centers):
            np.testing.assert_array_equal(got[k], in_ellipsoid(a, 0.6, z[0]))
        # one point per center
        pts = z[0, :5]
        np.testing.assert_array_equal(
            in_ellipsoid(centers, 0.6, pts),
            [in_ellipsoid(a, 0.6, p) for a, p in zip(centers, pts)])


def _old_sample_ball(n, count, rng, radius=1.0):
    """The row-major sampler the coordinate-major one replaced: the oracle."""
    x = rng.standard_normal((count, 2 * n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    rad = radius * rng.random(count) ** (1.0 / (2 * n))
    x *= rad[:, None]
    return x[:, :n] + 1j * x[:, n:]


def _old_random_sphere_points(n, count, rng):
    x = rng.standard_normal((count, 2 * n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x[:, :n] + 1j * x[:, n:]


def _old_sample_metric_ball(a, r, count, rng):
    a = np.asarray(a, dtype=complex)
    lead, n = a.shape[:-1], a.shape[-1]
    u = np.stack([_old_sample_ball(n, count, rng, radius=rk)
                  for rk in np.broadcast_to(r, lead).ravel()])
    return moebius(a[..., None, :], u.reshape(*lead, count, n))


def _same_state(rng1, rng2):
    return rng1.bit_generator.state == rng2.bit_generator.state


class TestSampleBall:
    # n = 4, 5 take the pairwise |x|^2 of 8 or more terms
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_bit_for_bit_with_row_major_sampler(self, n):
        new_rng, old_rng = np.random.default_rng(60), np.random.default_rng(60)
        got = sample_ball(n, 3000, new_rng, 0.95)
        np.testing.assert_array_equal(got, _old_sample_ball(n, 3000, old_rng,
                                                            0.95))
        assert got.flags.f_contiguous  # coordinate-major
        assert _same_state(new_rng, old_rng)
        np.testing.assert_array_equal(random_sphere_points(n, 900, new_rng),
                                      _old_random_sphere_points(n, 900,
                                                                old_rng))
        assert _same_state(new_rng, old_rng)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stacked_metric_ball_bit_for_bit(self, n):
        rng = np.random.default_rng(61)
        centers = _old_sample_ball(n, 6, rng, 0.9).reshape(3, 2, n)
        for r in (rng.uniform(0.1, 0.9, (3, 2)),  # one radius per center
                  rng.uniform(0.1, 0.9, (3, 1)),  # broadcast along axis 1
                  0.4):
            new_rng = np.random.default_rng(62)
            old_rng = np.random.default_rng(62)
            np.testing.assert_array_equal(
                sample_metric_ball(centers, r, 700, new_rng),
                _old_sample_metric_ball(centers, r, 700, old_rng))
            assert _same_state(new_rng, old_rng)
        # a single center
        new_rng, old_rng = np.random.default_rng(63), np.random.default_rng(63)
        np.testing.assert_array_equal(
            sample_metric_ball(centers[0, 0], 0.3, 500, new_rng),
            _old_sample_metric_ball(centers[0, 0], 0.3, 500, old_rng))
        assert _same_state(new_rng, old_rng)


# The kernels the coordinate loops replaced, kept as oracles: einsum
# sums, n complex divisions per point in phi_a, and a complex denominator
# in rho.
def _old_dot(x, y):
    return np.einsum("...i,...i->...", x, y)


def _old_norm2(z):
    return _old_dot(z.real, z.real) + _old_dot(z.imag, z.imag)


def _old_moebius(a, aa, z):
    s = np.sqrt(geometry._gap(aa))[..., None]
    za = _old_dot(z, a.conj())[..., None]
    return ((1.0 - za / (1.0 + s)) * a - s * z) / (1.0 - za)


def _old_rho(z, zz, w):
    h = w - z
    hz = _old_dot(h, z.conj())
    gap = geometry._gap(zz)
    den = gap - hz  # 1 - <w, z>
    num = gap * _old_norm2(h) + (hz.real ** 2 + hz.imag ** 2)
    return np.sqrt(num / (den.real ** 2 + den.imag ** 2))


def _layouts(n, rng, count, radius):
    """The same points coordinate-major, as the samplers give them, and
    C-ordered."""
    z = sample_ball(n, count, rng, radius)
    return z, np.ascontiguousarray(z)


class TestKernelOracles:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_norm2_bit_for_bit(self, n):
        rng = np.random.default_rng(80 + n)
        for z in _layouts(n, rng, 3000, 0.99):
            np.testing.assert_array_equal(geometry._norm2(z), _old_norm2(z))
            stack = z.reshape(3, 1000, n)
            np.testing.assert_array_equal(geometry._norm2(stack),
                                          _old_norm2(stack))
        assert geometry._norm2(z[0]).shape == ()
        # real input reads as complex with zero imaginary part
        np.testing.assert_array_equal(geometry._norm2(z.real),
                                      _old_norm2(z.real))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rho_bit_for_bit(self, n):
        rng = np.random.default_rng(90 + n)
        (z, zc), (w, wc), (u, uc) = (_layouts(n, rng, 5000, 0.95)
                                     for _ in range(3))
        for z_, w_, u_ in ((z, w, u), (zc, wc, uc), (z, wc, u)):
            zz, uu = _old_norm2(z_), _old_norm2(u_)
            want = _old_rho(z_, zz, w_)
            np.testing.assert_array_equal(geometry._rho(z_, zz, w_), want)
            np.testing.assert_array_equal(pseudo_metric(z_, w_), want)
            lhs, rhs = metric_combined_bound(z_, w_, u_)
            a, b = _old_rho(z_, zz, u_), _old_rho(u_, uu, w_)
            np.testing.assert_array_equal(lhs, want)
            np.testing.assert_array_equal(rhs, (a + b) / (1.0 + a * b))
        # one point against a stack, and stacks of centres
        np.testing.assert_array_equal(
            pseudo_metric(z[0], w), _old_rho(z[0], _old_norm2(z[0]), w))
        c = z[:4, None, :]
        np.testing.assert_array_equal(
            pseudo_metric(c, w), _old_rho(c, _old_norm2(c), w))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_moebius_within_4_ulp_of_old(self, n):
        # |a|, |z| < 0.9 as in the suite; |phi_a(z)| < 1, so an ulp of 1
        # is the scale (the worst over 1M draws per n was 4.04 ulp at n = 1)
        rng = np.random.default_rng(100 + n)
        tol = 4 * np.spacing(1.0)
        z = sample_ball(n, 20_000, rng, 0.9)
        a = sample_ball(n, 20_000, rng, 0.9)
        for a_, z_ in ((a, z), (a[0], z), (a[:20, None, :],
                                           z.reshape(20, 1000, n))):
            got = moebius(a_, z_)
            want = _old_moebius(a_, _old_norm2(a_), z_)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= tol

    @pytest.mark.parametrize("seed", [7, 11, 12])
    def test_suite_counts_unchanged(self, seed, monkeypatch):
        # the old kernels move the roundoff residuals by a few ulp of 1 at
        # most; every verdict, count and bound stays
        cfg = ExperimentConfig(seed=seed)
        new = suites.run_geometry(cfg)
        for name, old in (("_norm2", _old_norm2), ("_moebius", _old_moebius),
                          ("_rho", _old_rho)):
            monkeypatch.setattr(geometry, name, old)
        monkeypatch.setattr(suites, "_norm2", _old_norm2)
        ref = suites.run_geometry(cfg)
        residual = ("eq4_combined_metric", "moebius_involution",
                    "rho_moebius_isometry")
        assert new["checks"] == [
            {**c, "value": new_c["value"]} if c["name"] in residual else c
            for c, new_c in zip(ref["checks"], new["checks"])]
        assert new.keys() == ref.keys()
        for key, value in ref.items():
            if key.endswith(("_error", "_violation")):
                assert abs(new[key] - value) <= 1e-14, key
            elif key != "checks":
                assert new[key] == value, key


class TestLayoutIndependence:
    """Samples are coordinate-major; every result must equal the one on a
    C-ordered copy of the same points, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_same_bits_on_c_and_f_order(self, n):
        rng = np.random.default_rng(70 + n)
        z, w, u = (sample_ball(n, 4000, rng, 0.9) for _ in range(3))
        a = sample_ball(n, 1, rng, 0.85)[0]
        centers = sample_ball(n, 4, rng, 0.85)[:, None, :]
        zm = sample_ball(n, 4000, rng, 0.999)
        # one generic direction: a BLAS product z @ F^H rounds by layout
        one = SphereSet.create(random_sphere_points(n, 1, rng))
        runs = [
            lambda z, w, u, zm: pseudo_metric(z, w),
            lambda z, w, u, zm: moebius(u, z),
            lambda z, w, u, zm: moebius(a, z),
            lambda z, w, u, zm: in_metric_ball(a, 0.5, z),
            lambda z, w, u, zm: in_ellipsoid(a, 0.5, z),
            lambda z, w, u, zm: in_ellipsoid(centers, 0.5, z),
            lambda z, w, u, zm: metric_combined_bound(z, w, u),
            lambda z, w, u, zm: weak_pairing_exact(zm, z, w),
            lambda z, w, u, zm: region_infimum(one, z),
        ]
        f_order = (z, w, u, zm)
        assert all(p.flags.f_contiguous for p in f_order)
        c_order = tuple(np.ascontiguousarray(p) for p in f_order)
        for run in runs:
            got, want = run(*f_order), run(*c_order)
            if isinstance(got, tuple):
                for g, w_ in zip(got, want):
                    np.testing.assert_array_equal(g, w_)
            else:
                np.testing.assert_array_equal(got, want)


class TestMetricBall:
    def test_centered_reduces_to_euclidean(self):
        rng = np.random.default_rng(20)
        z = sample_ball(2, 500, rng)
        got = in_metric_ball(np.zeros(2), 0.4, z)
        np.testing.assert_array_equal(got, np.linalg.norm(z, axis=1) < 0.4)

    def test_center_belongs_and_origin_does_not(self):
        assert in_metric_ball([0.6], 0.5, [0.6])
        assert not in_metric_ball([0.6], 0.5, [0.0])  # rho = 0.6 >= 0.5

    def test_sampler_lands_inside(self):
        rng = np.random.default_rng(21)
        a = np.array([0.5 + 0.2j, -0.1 + 0.3j])
        pts = sample_metric_ball(a, 0.45, 3000, rng)
        assert np.all(pseudo_metric(pts, a) < 0.45)

    def test_sampler_rejects_radius_beyond_one(self):
        rng = np.random.default_rng(21)
        with pytest.raises(ValueError, match="at most 1"):
            sample_metric_ball([0.5], 1.5, 10, rng)
        with pytest.raises(ValueError, match="at most 1"):
            sample_metric_ball([[0.5], [0.1]], [0.3, np.nan], 10, rng)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stacked_sampling_matches_serial(self, n):
        rng = np.random.default_rng(23)
        centers = sample_ball(n, 6, rng, 0.9).reshape(3, 2, n)
        radii = rng.uniform(0.1, 0.9, (3, 2))
        stacked = sample_metric_ball(centers, radii, 500,
                                     np.random.default_rng(9))
        serial_rng = np.random.default_rng(9)
        serial = [[sample_metric_ball(centers[i, j], radii[i, j], 500,
                                      serial_rng) for j in range(2)]
                  for i in range(3)]
        np.testing.assert_array_equal(stacked, np.array(serial))
        # one scalar radius for every center draws the same way
        stacked = sample_metric_ball(centers[:, 0], 0.4, 500,
                                     np.random.default_rng(9))
        serial_rng = np.random.default_rng(9)
        serial = [sample_metric_ball(a, 0.4, 500, serial_rng)
                  for a in centers[:, 0]]
        np.testing.assert_array_equal(stacked, np.array(serial))


class TestConstructions:
    """The closed-form sets the geometry suite checks on, against 50-digit
    rho.  The bounds cover centres |a| <= 0.9 and pairs rho(a, w) <= 0.95,
    the suite's range, with a factor of about 5 over the worst residual
    seen there; at |a| = 0.99 the residuals reach about 1e-13."""

    @staticmethod
    def _centres(n, rng):
        dirs = random_sphere_points(n, 4, rng)
        return [t * d for t in (0.0, 0.3, 0.6, 0.9) for d in dirs]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_boundary_is_phi_a_of_r_sphere(self, n):
        rng = np.random.default_rng(40 + n)
        for a in self._centres(n, rng):
            for r in (0.2, 0.5, 0.8):
                for xi in random_sphere_points(n, 3, rng):
                    w = moebius(a, r * xi)
                    assert abs(float(_rho_oracle(a, w)) - r) <= 2e-14

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closest_point_distance(self, n):
        rng = np.random.default_rng(50 + n)
        for a in self._centres(n, rng):
            for r, p in ((0.2, 0.35), (0.5, 0.85), (0.8, 0.95)):
                w = moebius(a, p * random_sphere_points(n, 1, rng)[0])
                c = suites._closest_point(a, r, w)
                with mp.workdps(50):
                    rho_aw = _rho_oracle(a, w)
                    want = (rho_aw - r) / (1 - rho_aw * r)
                    assert abs(float(_rho_oracle(c, w) - want)) <= 5e-14
                    assert abs(float(_rho_oracle(a, c)) - r) <= 2e-14
                # no other boundary point of E(a, r) is closer to w
                others = moebius(a, r * random_sphere_points(n, 200, rng))
                assert pseudo_metric(others, w).min() >= float(want) - 5e-14

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_eq4_equality_on_the_geodesic(self, n):
        rng = np.random.default_rng(60 + n)
        z, w = sample_ball(n, 2, rng, 0.9)
        u = moebius(z, np.multiply.outer([0.25, 0.5, 0.75], moebius(z, w)))
        lhs, rhs = metric_combined_bound(z, w, u)
        assert np.max(np.abs(lhs - rhs)) <= 1e-15


class TestDeltaFor:
    def test_closed_form_value(self):
        assert abs(delta_for(0.5, 0.1) - 9.375e-4) < 1e-18

    def test_defining_inequality(self):
        for r in (0.3, 0.5, 0.7, 0.9):
            for eps in (2.0, 0.5, 0.2, 0.1, 0.05, 0.01):
                d = delta_for(r, eps)
                assert d > 0
                assert 2 * r * np.sqrt(2 * d / (1 - r * r)) + d < eps

    def test_domain(self):
        with pytest.raises(ValueError):
            delta_for(1.0, 0.1)
        with pytest.raises(ValueError):
            delta_for(0.5, 0.0)

    def test_inclusion_near_boundary(self):
        rng = np.random.default_rng(22)
        r, eps = 0.5, 0.1
        delta = delta_for(r, eps)
        zeta = np.array([1.0 + 0.0j, 0.0 + 0.0j])
        a = zeta * (1.0 - 0.9 * delta)
        pts = sample_metric_ball(a, r, 2000, rng)
        assert np.all(np.linalg.norm(pts - zeta, axis=1) < eps)
