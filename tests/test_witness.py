"""Tests for regions, boundary traces, the witness operator, decay and
the separation experiment."""

import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from berglab import quadrature, unitaries, witness
from berglab.basis import TruncatedBasis, kernel_expansion
from berglab.config import ExperimentConfig
from berglab.geometry import pseudo_metric, sample_ball
from berglab.quadrature import integrate, rule_for_basis
from berglab.sequences import build_sequence
from berglab.suites import (DECAY_FRACTION, SLOPE_REL, _panel_checks,
                            _separation_checks, run_prop1, run_separate,
                            run_unitary, run_witness)
from berglab.toeplitz import (Symbol, _scatter, apply_blocks, op_norm,
                              toeplitz_matrix, toeplitz_monomial_radial)
from berglab.unitaries import toeplitz_blocks, unitary_matrix
from berglab.witness import (SphereSet, boundary_trace_check,
                             build_prop1_config, default_panel,
                             exclusion_radius, in_region_W, lens_volume,
                             lemma3_lower_bound, prop1_decay, region_infimum,
                             separation_experiment, witness_operator,
                             witness_symbol)

R = 0.5


def failed(checks):
    """The names of the failing records of a check list."""
    return [c["name"] for c in checks if not c["ok"]]


def toeplitz_dense(f, basis):
    """T_f as one dense matrix: the scatter of its triples."""
    return _scatter(toeplitz_blocks(f, basis)[1], basis)


def self_commutator(a):
    """[A, A*] = AA* - A*A of an array A."""
    adj = a.conj().T
    return a @ adj - adj @ a


def e1(n):
    v = np.zeros(n, dtype=complex)
    v[0] = 1.0
    return v


def e2(n):
    v = np.zeros(n, dtype=complex)
    v[1] = 1.0
    return v


class TestSphereSet:
    def test_create_and_distance(self):
        f = SphereSet.create([e1(2), e2(2)])
        assert len(f) == 2
        d = f.min_dist(np.array([[0.5 + 0j, 0.0 + 0j]]))
        assert abs(d[0] - 0.5) < 1e-14

    def test_empty_needs_dimension(self):
        with pytest.raises(ValueError):
            SphereSet.create([])
        f = SphereSet.create([], n=2)
        assert len(f) == 0
        assert np.isinf(f.min_dist(np.zeros((1, 2)))[0])

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            SphereSet.create([[0.9 + 0j]])


class TestRegionMembership:
    def test_empty_set_is_centered_ball(self):
        f = SphereSet.create([], n=1)
        assert in_region_W(f, R, [0.3])
        assert not in_region_W(f, R, [0.6])

    def test_on_ray_point_belongs(self):
        f = SphereSet.create([e1(2)])
        assert in_region_W(f, R, 0.5 * e1(2))

    def test_orthogonal_direction_excluded(self):
        # inf_t rho(0.5 e2, t e1) = 0.5, approached only at t = 0;
        # strict comparison with r = 0.5 excludes the point
        f = SphereSet.create([e1(2)])
        z = 0.5 * e2(2)
        inf_val = region_infimum(f, z[None, :])[0]
        assert abs(inf_val - 0.5) < 1e-9
        assert not in_region_W(f, R, z)

    def test_infimum_matches_grid_search(self):
        rng = np.random.default_rng(51)
        f = SphereSet.create([e1(2)])
        z = sample_ball(2, 12, rng, 0.9)
        golden = region_infimum(f, z)
        ts = np.linspace(0.0, 1.0 - 1e-9, 20001)
        for i in range(len(z)):
            grid = np.min(pseudo_metric(
                z[i][None, :], ts[:, None] * e1(2)[None, :]))
            assert golden[i] <= grid + 1e-9
            assert golden[i] >= grid - 1e-6

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_infimum_matches_mpmath(self, n, k):
        # rho at the closed-form ray minimiser t*, evaluated in 40 digits
        from berglab.geometry import random_sphere_points
        rng = np.random.default_rng(50 + 10 * n + k)
        dirs = random_sphere_points(n, k, rng)
        f = SphereSet.create(dirs)
        z = np.concatenate([
            sample_ball(n, 16, rng),
            0.8 * dirs[:1] + 1e-5 * sample_ball(n, 4, rng),  # near a ray
            -0.6 * dirs[:1],                                 # Re c < 0
            0.5 * e1(n)[None, :] * 1j ** np.arange(4)[:, None]])
        got = region_infimum(f, z)
        with mp.workdps(40):
            for zi, value in zip(z, got):
                zm = [mp.mpc(complex(v)) for v in zi]
                zz = mp.fsum(abs(v) ** 2 for v in zm)
                best = mp.sqrt(zz)
                for zeta in dirs:
                    zeta = [mp.mpc(complex(v)) for v in zeta]
                    c = mp.fsum(a * mp.conj(b) for a, b in zip(zm, zeta))
                    if mp.re(c) <= 0:
                        continue  # the infimum is rho(z, 0) = |z|
                    s = 1 + abs(c) ** 2
                    t = 2 * mp.re(c) / (s + mp.sqrt((s - 2 * mp.re(c))
                                                    * (s + 2 * mp.re(c))))
                    w = [t * v for v in zeta]
                    ww = mp.fsum(abs(v) ** 2 for v in w)
                    zw = mp.fsum(a * mp.conj(b) for a, b in zip(zm, w))
                    rho = mp.sqrt(1 - (1 - zz) * (1 - ww) / abs(1 - zw) ** 2)
                    best = min(best, rho)
                assert abs(value - float(best)) <= 1e-13

    def test_dense_direction_sample_accepts_aligned_points(self):
        rng = np.random.default_rng(52)
        from berglab.geometry import random_sphere_points
        dirs = random_sphere_points(2, 24, rng)
        f = SphereSet.create(dirs)
        for t in (0.1, 0.5, 0.9):
            pts = t * dirs
            assert np.all(in_region_W(f, R, pts))

    def test_monotone_in_direction_set(self):
        rng = np.random.default_rng(53)
        f1 = SphereSet.create([e1(2)])
        f2 = SphereSet.create([e1(2), e2(2)])
        z = sample_ball(2, 200, rng)
        m1 = np.atleast_1d(in_region_W(f1, R, z))
        m2 = np.atleast_1d(in_region_W(f2, R, z))
        assert not np.any(m1 & ~m2)


class TestBoundaryTrace:
    def test_single_direction(self):
        rng = np.random.default_rng(54)
        for n in (1, 2):
            f = SphereSet.create([e1(n)])
            rep = boundary_trace_check(f, R, 200, 0.999, rng)
            assert rep["directions_confirmed"] == rep["directions_total"] == 1
            assert rep["violations"] == 0

    def test_empty_set(self):
        rng = np.random.default_rng(55)
        f = SphereSet.create([], n=2)
        rep = boundary_trace_check(f, R, 100, 0.999, rng)
        assert rep["violations"] == rep["directions_total"] == 0

    def test_far_sphere_point_outside(self):
        f = SphereSet.create([e1(2)])
        assert not in_region_W(f, R, 0.999 * e2(2))

    def test_exclusion_radius_inverts_delta(self):
        from berglab.geometry import delta_for
        for r in (0.3, 0.5, 0.7):
            for gap in (1e-3, 1e-4):
                eps_star = exclusion_radius(r, gap) / 2.0
                assert delta_for(r, eps_star) >= gap


class TestWitnessSymbol:
    def test_vanishes_at_origin_and_off_support(self):
        rng = np.random.default_rng(56)
        f = witness_symbol(R)
        assert f(np.zeros((1, 1), complex))[0] == 0.0
        z = sample_ball(1, 500, rng)
        outside = np.linalg.norm(z, axis=1) >= R
        assert np.max(np.abs(f(z[outside]))) == 0.0

    def test_sup_norm_attained(self):
        f = witness_symbol(R)
        u = np.linspace(0, R, 4001)[:, None].astype(complex)
        vals = np.abs(f(u))
        assert vals.max() <= f.sup_norm_bound + 1e-12
        assert vals.max() > f.sup_norm_bound - 1e-6

    def test_commutator_nonzero_with_frozen_norm(self):
        basis = TruncatedBasis.create(1, 12)
        f = witness_symbol(R)
        a = toeplitz_monomial_radial(0, f.profile, basis, support=R).mat
        assert abs(op_norm(self_commutator(a)) - R ** 8 / 18.0) < 1e-15


@pytest.fixture(scope="module")
def flagship():
    return TruncatedBasis.create(1, 12)


class TestWitnessOperator:
    def test_single_term_spectrum_close_to_s(self, flagship):
        # one term: the Berezin value is S~(0), the top eigenvalue of S
        basis = flagship
        w = witness_operator(e1(1), R, 1, basis)
        top_s = float(w.S.max())
        value = lemma3_lower_bound(build_sequence(e1(1), R, 1))["values"][0]
        assert abs(value - top_s) / top_s < 1e-12

    def test_s_positive_semidefinite(self, flagship):
        basis = flagship
        w = witness_operator(e1(1), R, 3, basis)
        a = toeplitz_monomial_radial(0, witness_symbol(R).profile, basis,
                                     support=R).mat
        c = self_commutator(a)
        # S is the diagonal of C^2, all of it, and its smallest eigenvalue
        assert np.array_equal(np.diag(w.S), c @ c)
        assert float(w.S.min()) == float(
            np.linalg.eigvalsh(c @ c).min()) >= -1e-10

    def test_two_route_agreement_tightens(self, flagship):
        defects = {}
        for d in (6, 12):
            basis = TruncatedBasis.create(1, d)
            w = witness_operator(e1(1), R, 1, basis)
            defects[d] = w.two_route_defects[0]
        assert defects[12] < defects[6]

    def test_two_route_defect_shrinks_at_high_degree(self):
        # the disk sweep to d = 64: quadrature of the kinked f o phi_z
        # left the defect at ~1e-11 whatever d; the exact route reaches
        # roundoff
        cfg = ExperimentConfig.from_json(
            {"n": 1, "degree": 64, "d_sweep": [16, 32, 48, 64]})
        rep = run_witness(cfg)
        verdict = {c["name"]: c["ok"] for c in rep["checks"]}
        assert verdict["two_route_defect_shrinks_m1"]
        routes = [r for rs in rep["two_route_assembly"].values() for r in rs]
        assert [r["route"] for r in routes] == ["moebius"] * 2 * cfg.M

    def test_one_degree_sweep_fails_every_sweep_check(self):
        # one value shows no decrease: np.diff of it is empty
        cfg = ExperimentConfig(d_sweep=(8,))
        assert {"unitarity_defect_decreasing",
                "conjugation_defect_decreasing",
                "pairing_matrix_converges"} <= set(run_unitary(cfg)["failures"])
        assert "two_route_defect_shrinks_m1" in run_witness(cfg)["failures"]

    @pytest.mark.parametrize("n, degree, axis, phase", [
        (1, 64, 0, 1), (2, 10, 0, 1), (2, 8, 1, 1), (2, 8, 1, 1j),
        (3, 6, 0, 1), (3, 6, 2, 1)], ids=[
        "1-64-0", "2-10-0", "2-8-1", "2-8-1-phased", "3-6-0", "3-6-2"])
    def test_two_route_defects_match_separate_routes(self, n, degree, axis,
                                                     phase):
        # U_z and T_{f o phi_z} built apart, by ``unitary_matrix`` and
        # ``toeplitz_blocks``, and the defect taken as one full SVD: the
        # same defects, bit for bit at n = 1, where the probe's one ray
        # class is the whole matrix, and within 1e-14 max S above it,
        # where a block SVD rounds apart from the full one
        basis = TruncatedBasis.create(n, degree)
        zeta = phase * np.eye(n, dtype=complex)[axis]
        w = witness_operator(zeta, R, 5, basis)
        f = witness_symbol(R)
        for p, defect, route in zip(build_sequence(zeta, R, 5).points(),
                                    w.two_route_defects,
                                    w.two_route_routes):
            u = unitary_matrix(p, basis).mat
            cc = self_commutator(toeplitz_dense(f.compose_moebius(p),
                                                basis).mat)
            dense = op_norm((u * w.S) @ u.conj().T - cc @ cc)
            if n == 1:
                assert defect == dense
            else:
                assert abs(defect - dense) <= 1e-14 * w.S.max()
            assert route == unitaries.toeplitz_blocks(
                f.compose_moebius(p), basis)[0]

    def test_probe_memory_without_dense_matrices(self):
        # B = 2925 at n = 3, d = 24: one dense complex B x B array is
        # 137 MB, and the probe works on blocks of at most 25 x 25
        basis = TruncatedBasis.create(3, 24)
        tracemalloc.start()
        try:
            witness_operator(e1(3), R, 5, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("fault", ["nan", "column"])
    def test_probe_guards_match_dense_route(self, monkeypatch, fault):
        # a bad block of U_z, injected where the probe and the dense
        # route both read it, raises the same error from either
        original = unitaries._ray_blocks

        def injected(*args):
            blocks = original(*args)
            if fault == "nan":
                blocks[1][2, 1] = np.nan
            else:
                blocks[1] *= 2.0  # still self-adjoint
            return blocks

        basis = TruncatedBasis.create(2, 10)
        point = build_sequence(e1(2), R, 1).points()[0]
        monkeypatch.setattr(unitaries, "_ray_blocks", injected)
        with pytest.raises(ValueError) as dense:
            unitary_matrix(point, basis)
        with pytest.raises(ValueError) as probe:
            witness_operator(e1(2), R, 1, basis)
        expect = "not finite" if fault == "nan" else "column norm excess"
        assert expect in str(dense.value)
        assert str(probe.value) == str(dense.value)

    def test_conditioning_warning(self):
        rep = lemma3_lower_bound(build_sequence(e1(1), R, 6))
        assert rep["conditioning_warning"]  # 1 - t_6 is below 1e-6


def _direct_value(seq, basis, m):
    """<T k_{z_m}, k_{z_m}> from the truncated witness
    T = sum_k (P U_k P) S (P U_k P): the route the Berezin sum replaced."""
    s = witness_operator(seq.zeta, R, 1, basis).S
    total = np.zeros((len(basis), len(basis)), dtype=complex)
    for p in seq.points():
        u = unitary_matrix(p, basis).mat
        total += (u * s) @ u.conj().T
    kz = kernel_expansion(seq.points()[m], basis).coeffs
    return float(np.real(np.vdot(kz, total @ kz)))


class TestLemma3:
    def test_flagship_lower_bound(self):
        rep = lemma3_lower_bound(build_sequence(e1(1), R, 5))
        assert abs(rep["lambda_max"] - R ** 16 / 324.0) < 1e-18
        vals = np.asarray(rep["values"])
        assert np.all(vals >= rep["lambda_max"])
        assert rep["floor_c"] == vals.min() >= rep["lambda_max"]
        assert rep["core_defect"] <= rep["tail_bound"] < 1e-25

    def test_single_term_value_close_to_lambda(self):
        rep = lemma3_lower_bound(build_sequence(e1(1), R, 1))
        assert rep["values"] == [rep["lambda_max"]]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_diagonal_matches_dense(self, n):
        core = lemma3_lower_bound(build_sequence(e1(n), R, 1))["core_degree"]
        basis = TruncatedBasis.create(n, core + 1)
        a = toeplitz_monomial_radial(0, witness_symbol(R).profile, basis,
                                     support=R).mat
        c = self_commutator(a)
        dense = (c @ c)[basis.degrees <= core][:, basis.degrees <= core]
        diag = witness._s_diagonal(R, TruncatedBasis.create(n, core))
        assert np.all(dense - np.diag(np.diag(dense)) == 0.0)
        assert np.allclose(np.diag(dense).real, diag, rtol=1e-12, atol=0.0)
        assert np.all(np.diag(dense).imag == 0.0)

    @pytest.mark.parametrize("n, degree, points", [(1, 200, (0, 1)),
                                                   (2, 40, (0,))])
    def test_berezin_sum_matches_direct_route(self, n, degree, points):
        seq = build_sequence(e1(n), R, 2)
        values = lemma3_lower_bound(seq)["values"]
        basis = TruncatedBasis.create(n, degree)
        for m in points:
            direct = _direct_value(seq, basis, m)
            assert abs(direct - values[m]) <= 1e-9 * values[m]

    def test_top_entry_off_degree_zero_rejected(self, monkeypatch):
        monkeypatch.setattr(witness, "_s_diagonal",
                            lambda r, basis: np.arange(1.0, len(basis) + 1))
        with pytest.raises(ValueError, match="not at degree 0"):
            lemma3_lower_bound(build_sequence(e1(1), R, 2))

    def test_core_degree_cap(self):
        with pytest.raises(ValueError, match="core degree above"):
            lemma3_lower_bound(build_sequence(e1(1), 0.99, 1))


class TestProp1:
    def test_sequence_too_close_rejected(self, flagship):
        basis = flagship
        f = SphereSet.create([e1(1)])
        seq = build_sequence(e1(1), R, 3)
        cfg = build_prop1_config(f, 0.5)
        with pytest.raises(ValueError, match="within eps"):
            prop1_decay(default_panel(SphereSet.create([], n=1), R, 1),
                        seq, cfg, basis)

    def test_zero_symbol_gives_zero_curve(self, flagship):
        basis = flagship
        f_empty = SphereSet.create([], n=1)
        seq = build_sequence(e1(1), R, 4)
        cfg = build_prop1_config(f_empty, 0.5)
        zero = Symbol.sampled(lambda pts: np.zeros(pts.shape[0], complex),
                              0.0)
        rep = prop1_decay([zero], seq, cfg, basis)
        assert np.max(np.abs(rep["curves"][0])) == 0.0
        # no ratio to its first value, no log-log slope: both fail
        assert rep["decay_ratios"] == [None]
        assert rep["slopes"] == rep["slope_deviations"] == [None]
        assert failed(_panel_checks(rep, "")) == [
            "decay_below_fraction", "slope_within_tolerance"]

    def test_one_point_curve_has_no_slope(self):
        # one point fits no line: no polyfit (which would warn), no slope
        rep = run_prop1(ExperimentConfig(M=1, decay_M=1))
        assert rep["n1"]["slopes"] == rep["n1"]["slope_deviations"] == [
            None] * 3
        assert {"decay_below_fraction_n1",
                "slope_within_tolerance_n1"} <= set(rep["failures"])

    def test_verdicts_read_the_recorded_numbers(self, flagship):
        f_empty = SphereSet.create([], n=1)
        rep = prop1_decay(default_panel(f_empty, R, 1),
                          build_sequence(e1(1), R, 10),
                          build_prop1_config(f_empty, 0.5), flagship)
        assert rep["slope_deviations"] == [
            abs(s - 1.0) / 1.0 for s in rep["slopes"]]
        assert rep["decay_ratios"] == [c[-1] / c[0] for c in rep["curves"]]
        decay, slope, cutoff = _panel_checks(rep, "")
        assert decay["value"] == rep["decay_ratios"]
        assert decay["ok"] == all(
            v <= DECAY_FRACTION for v in rep["decay_ratios"])
        assert slope["value"] == rep["slope_deviations"]
        assert slope["ok"] == all(
            v <= SLOPE_REL for v in rep["slope_deviations"])
        assert cutoff["value"] == 0.0 and cutoff["ok"]  # F is empty

    def test_off_ray_direction_decays(self):
        # U_{z_m} 1 = k_{z_m} needs no U_z, so any direction of the sphere
        # works, also off the coordinate rays and past 1 - |z| < 0.05
        basis = TruncatedBasis.create(2, 6)
        f_empty = SphereSet.create([], n=2)
        seq = build_sequence(np.array([1.0, 1.0], complex) / np.sqrt(2.0),
                             R, 6)
        assert seq.gaps[-1] < 0.05
        cfg = build_prop1_config(f_empty, 0.5)
        rep = prop1_decay(default_panel(f_empty, R, 2), seq, cfg, basis)
        curves = np.asarray(rep["curves"])
        assert curves.shape == (3, 6)
        assert np.all(np.isfinite(curves))
        assert np.all(curves[:, -1] <= 0.05 * curves[:, 0])

    def test_empty_config_trivial(self, flagship):
        cfg = build_prop1_config(SphereSet.create([], n=1), 0.5)
        assert cfg.delta == 1.0
        assert cfg.nu_v2 == 0.0
        assert cfg.nu_v2_method is None

    def test_nonempty_config_values(self):
        f = SphereSet.create([e2(2)])
        cfg = build_prop1_config(f, 0.5)
        assert cfg.delta > 0.0
        assert 0.0 < cfg.nu_v2 < 0.2
        near = (1.0 - 0.05) * e2(2)
        far = 0.5 * e1(2)
        assert abs(cfg.eta(near[None, :])[0] - 1.0) < 1e-14
        assert abs(cfg.eta(far[None, :])[0]) == 0.0

    def test_delta_below_aligned_sphere_pair(self):
        # z at distance eps/2 and w at distance eps from e2, both on the
        # sphere and in one real plane, nearly attain min |1 - <z, w>|
        eps = 0.5
        cfg = build_prop1_config(SphereSet.create([e2(2)]), eps)
        a = np.arccos(1.0 - eps ** 2 / 8.0)
        b = np.arccos(1.0 - eps ** 2 / 2.0)
        z = np.array([np.sin(a), np.cos(a)], dtype=complex)
        w = np.array([np.sin(b), np.cos(b)], dtype=complex)
        assert np.linalg.norm(z - e2(2)) == pytest.approx(eps / 2.0)
        assert np.linalg.norm(w - e2(2)) == pytest.approx(eps)
        assert 0.0 < cfg.delta <= abs(1.0 - np.vdot(w, z))


class TestCutoffVolume:
    """nu(V2) as closed-form lenses, and T_eta on the angles it needs."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("eps", [0.05, 0.5, 1.0, 2.0])
    def test_lens_matches_mpmath(self, n, eps):
        mp.mp.dps = 40
        s = mp.mpf(eps) / 2
        a, b = n + mp.mpf(1) / 2, mp.mpf(1) / 2
        ref = (mp.betainc(a, b, 0, s * s * (1 - s * s / 4), regularized=True)
               + s ** (2 * n) * mp.betainc(a, b, 0, 1 - s * s / 4,
                                           regularized=True)) / 2
        assert abs(lens_volume(n, eps / 2) - float(ref)) <= 1e-13 * float(ref)

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.7, 1.2])
    def test_lens_is_the_circle_lens_at_n1(self, s):
        # circles of radii 1 and s with centres 1 apart
        area = (s * s * np.arccos(s / 2.0) + np.arccos(1.0 - s * s / 2.0)
                - 0.5 * s * np.sqrt(4.0 - s * s))
        assert lens_volume(1, s) == pytest.approx(area / np.pi, rel=1e-13)

    def test_lens_radius_validated(self):
        with pytest.raises(ValueError, match="lens radius"):
            lens_volume(2, 1.5)

    def test_default_n2_config(self):
        cfg = build_prop1_config(SphereSet.create([e2(2)]), 0.5)
        assert cfg.nu_v2_method == "lens"
        assert cfg.nu_v2 == pytest.approx(1.7049088221851e-3, rel=1e-12)

    def test_points_apart_add_their_lenses(self):
        f = SphereSet.create([e1(2), e2(2)])  # sqrt(2) >= eps apart
        cfg = build_prop1_config(f, 0.5)
        assert cfg.nu_v2_method == "lens"
        assert cfg.nu_v2 == 2.0 * lens_volume(2, 0.25)

    def test_overlapping_points_bound_by_their_lenses(self):
        # the union of two overlapping lenses measures at most their sum:
        # an upper bound on nu(V2), at least the quadrature estimate
        near = np.array([np.cos(0.2), np.sin(0.2)], dtype=complex)
        f = SphereSet.create([e1(2), near])  # 0.2 < eps apart
        cfg = build_prop1_config(f, 0.5)
        assert cfg.nu_v2_method == "lens_bound"
        assert cfg.nu_v2 == 2.0 * lens_volume(2, 0.25)
        estimate = integrate(
            lambda pts: (f.min_dist(pts) < 0.25).astype(float),
            rule_for_basis(2, 40)).real
        assert lens_volume(2, 0.25) < estimate <= cfg.nu_v2
        # a neighborhood past the lens formula is bounded by nu(ball) = 1
        wide = build_prop1_config(SphereSet.create([e2(2)]), 3.0)
        assert wide.nu_v2_method == "lens_bound"
        assert wide.nu_v2 == 1.0

    def test_prop1_reports_eta_route(self):
        basis = TruncatedBasis.create(2, 6)
        cfg = build_prop1_config(SphereSet.create([e2(2)]), 0.5)
        rep = prop1_decay(default_panel(SphereSet.create([e2(2)]), R, 2),
                          build_sequence(e1(2), R, 4), cfg, basis)
        assert rep["eta_route"]["route"] == "cutoff"
        assert rep["eta_route"]["p"] == 12 + 6 // 4
        assert rep["eta_route"]["defect"] <= 1e-12
        assert rep["nu_v2"] == cfg.nu_v2
        assert rep["nu_v2_method"] == "lens"

    def test_eta_quadrature_error_shrinks_with_the_rule(self):
        # no product rule follows the kinks of eta at |z - e2| = eps/3 and
        # eps/2: full-torus quadrature of T_eta converges to the exact
        # cutoff route slowly as the rule is refined past the basis degree
        basis = TruncatedBasis.create(2, 4)
        eta = build_prop1_config(SphereSet.create([e2(2)]), 0.5).eta
        exact = toeplitz_dense(eta, basis).mat
        errs = [op_norm(toeplitz_matrix(
                    eta, basis,
                    rule_for_basis(2, 4 + extra, radial_breaks=(R * R,))).mat
                    - exact) for extra in (0, 10, 20)]
        assert errs[0] > 10 * errs[1] > 100 * errs[2]
        assert errs[0] > 1e-2 and errs[2] < 2e-4

    def test_n3_separation_memory(self):
        # n = 3, d = 8 held 1 GB when T_eta ran over the full torus by
        # quadrature; the cutoff route assembles it from its blocks
        e = np.eye(3, dtype=complex)
        basis = TruncatedBasis.create(3, 8)
        tracemalloc.start()
        try:
            rep = separation_experiment(
                SphereSet.create([e[1]]), SphereSet.create([e[0], e[1]]), R,
                5, basis, eps=0.5, rng=np.random.default_rng(64),
                decay_M=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert failed(_separation_checks(rep)) == []
        assert rep["prop1"]["eta_route"]["route"] == "cutoff"
        assert peak < 100 * 2 ** 20


def dense_prop1(panel, seq, cfg, basis):
    """The panel curves and the eta lhs by dense B x B products
    ``prod @ tmat`` of ``toeplitz_dense`` matrices: the route the block
    application replaced, kept as its oracle."""
    # P k_{z_m} from the exact gaps 1 - t_m^2, as prop1_decay takes it
    one_minus = seq.gaps * (2.0 - seq.gaps)
    kz = [x ** (0.5 * (basis.n + 1)) * np.conj(e) for x, e in
          zip(one_minus.tolist(), basis.eval(seq.points()))]
    curves, prod = [], None
    for tmat in [toeplitz_dense(g, basis).mat for g in panel[:3]]:
        prod = tmat if prod is None else prod @ tmat
        curves.append([float(np.linalg.norm(prod @ v)) for v in kz])
    lhs = [0.0] * len(kz)
    if len(cfg.f_set):
        t_eta = toeplitz_dense(cfg.eta, basis).mat
        lhs = [float(np.linalg.norm(t_eta @ v)) for v in kz]
    return curves, lhs


OFF_DIAGONAL = np.array([1.0, 1.0], complex) / np.sqrt(2.0)


class TestBlockApplication:
    """prop1_decay applies each panel operator and T_eta to the kernel
    columns block by block; the dense products agree to roundoff."""

    @pytest.mark.parametrize("n, degree, zeta, f1, length", [
        (1, 12, e1(1), [], 10),
        (2, 10, e1(2), [e2(2)], 8),
        (3, 8, e1(3), [e2(3)], 8),
        (2, 6, OFF_DIAGONAL, [], 6),
        (2, 4, e1(2), [OFF_DIAGONAL], 6)],
        ids=["n1", "n2_e2", "n3_e2", "off_axis_zeta", "off_axis_f1"])
    def test_curves_match_dense_products(self, n, degree, zeta, f1, length):
        basis = TruncatedBasis.create(n, degree)
        f_set = SphereSet.create(f1, n=n)
        cfg = build_prop1_config(f_set, 0.5)
        panel = default_panel(f_set, R, n)
        seq = build_sequence(zeta, R, length)
        rep = prop1_decay(panel, seq, cfg, basis)
        curves, lhs = dense_prop1(panel, seq, cfg, basis)
        got = np.asarray(rep["curves"] + [rep["eta_bound"]["lhs"]])
        want = np.asarray(curves + [lhs])
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ray_columns_are_the_kernel_expansion(self, n):
        # on a coordinate ray 1 - t_m^2 from the exact gaps is the value
        # kernel_expansion rounds, and each column takes its scalar pow:
        # the curves are those of its columns bit for bit
        empty = SphereSet.create([], n=n)
        basis = TruncatedBasis.create(n, 6)
        panel = default_panel(empty, R, n)
        seq = build_sequence(e1(n), R, 10)
        rep = prop1_decay(panel, seq, build_prop1_config(empty, 0.5),
                          basis)
        kz = np.stack([kernel_expansion(p, basis).coeffs
                       for p in seq.points()], axis=1)
        ops = [toeplitz_blocks(g, basis)[1] for g in panel]
        curves = []
        for k in range(1, 4):
            prod = kz
            for op in reversed(ops[:k]):
                prod = apply_blocks(op, prod)
            curves.append([float(np.linalg.norm(v)) for v in prod.T])
        assert rep["curves"] == curves

    @pytest.mark.parametrize("n, r", [(4, 0.5), (2, 0.4)])
    def test_bound_takes_the_column_factors(self, n, r):
        # (1 - t_m^2)^((n+1)/2) is rounded once, by the scalar pow of the
        # kernel columns; numpy's vector pow rounds apart here
        f_set = SphereSet.create([e2(n)])
        cfg = build_prop1_config(f_set, 0.5)
        seq = build_sequence(e1(n), r, 10)
        rep = prop1_decay(default_panel(f_set, r, n), seq, cfg,
                          TruncatedBasis.create(n, 4))
        assert rep["eta_bound"]["rhs"] == [
            np.sqrt(cfg.nu_v2) * x ** (0.5 * (n + 1)) / cfg.delta ** (n + 1)
            for x in rep["one_minus_sq"]]

    def test_n3_separation_holds_no_dense_matrix(self):
        # B = 969: one dense complex B x B matrix is 16 B^2 bytes
        e = np.eye(3, dtype=complex)
        basis = TruncatedBasis.create(3, 16)
        tracemalloc.start()
        try:
            rep = separation_experiment(
                SphereSet.create([e[1]]), SphereSet.create([e[0], e[1]]), R,
                5, basis, eps=0.5, rng=np.random.default_rng(64),
                decay_M=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert failed(_separation_checks(rep)) == []
        assert peak < 16 * len(basis) ** 2


class TestSeparation:
    def test_rejects_equal_sets(self, flagship):
        basis = flagship
        rng = np.random.default_rng(61)
        f = SphereSet.create([e1(1)])
        with pytest.raises(ValueError, match="2 eps"):
            separation_experiment(f, f, R, 3, basis, eps=0.5, rng=rng,
                                  decay_M=10)

    def test_flagship_report(self, flagship):
        basis = flagship
        rng = np.random.default_rng(62)
        rep = separation_experiment(
            SphereSet.create([], n=1), SphereSet.create([e1(1)]), R, 5,
            basis, eps=0.5, rng=rng, decay_M=10)
        assert failed(_separation_checks(rep)) == []
        assert rep["separation_factor"] >= 10.0
        assert rep["monotone_violations"] == 0
        assert rep["vanish_off_region_max"] <= 1e-12
        # both sides at the witness horizon M = 5
        assert rep["witness_floor_normalized"] == pytest.approx(
            0.9077768672, rel=1e-8)
        assert rep["separation_factor"] == pytest.approx(
            rep["witness_floor_normalized"]
            / max(c[4] / c[0] for c in rep["prop1"]["curves"]))

    def test_needs_no_unitaries(self, flagship, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("separation_experiment built a U_z")

        # every name bound to the exact route, unitary_matrix included
        orig = unitaries.unitary_matrix_exact
        for mod in [m for k, m in list(sys.modules.items())
                    if k.startswith("berglab") and m is not None]:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, key, refuse)
        basis = flagship
        rep = separation_experiment(
            SphereSet.create([], n=1), SphereSet.create([e1(1)]), R, 5,
            basis, eps=0.5, rng=np.random.default_rng(62),
            decay_M=10)
        assert failed(_separation_checks(rep)) == []

    def test_invariant_under_axis_phases(self):
        # every point of F1, F2 and zeta turned on its axis by omega: the
        # configuration is the image of the first under a diagonal
        # unitary, every panel symbol still takes the exact "moebius"
        # route, and every reported quantity is unchanged
        e = np.eye(2, dtype=complex)
        omega = (1 + 1j) / np.sqrt(2.0)
        basis = TruncatedBasis.create(2, 16)
        reps = [separation_experiment(
            SphereSet.create([w * e[0]]), SphereSet.create([w * e[1],
                                                            w * e[0]]),
            R, 5, basis, eps=0.5, rng=np.random.default_rng(65),
            decay_M=10)
            for w in (1.0, omega)]
        assert [failed(_separation_checks(rep)) for rep in reps] == [[], []]
        assert [g["route"] for g in reps[1]["prop1"]["routes"]] == [
            "moebius"] * 3
        assert reps[1]["prop1"]["eta_route"]["route"] == "cutoff"
        for get in (lambda r: r["prop1"]["curves"],
                    lambda r: r["prop1"]["eta_bound"]["lhs"],
                    lambda r: r["lemma3"]["values"],
                    lambda r: r["separation_factor"]):
            plain, turned = (np.asarray(get(rep)) for rep in reps)
            assert np.all(np.abs(turned - plain) <= 1e-13 * np.abs(plain))

    def test_two_dimensional_configuration(self):
        basis = TruncatedBasis.create(2, 8)
        rng = np.random.default_rng(63)
        f1 = SphereSet.create([e2(2)])
        f2 = SphereSet.create([e1(2), e2(2)])
        rep = separation_experiment(f1, f2, R, 4, basis, eps=0.5,
                                    rng=rng, decay_M=8)
        assert failed(_separation_checks(rep)) == []
        # zeta must be the direction of F2 farthest from F1
        zeta = np.asarray(rep["zeta"])
        assert abs(zeta[0][0] - 1.0) < 1e-14
        # each product curve's fitted slope, against (n+1)/2 = 1.5
        assert rep["prop1"]["slopes"] == pytest.approx(
            [1.4992297661024403, 1.499987733408488, 1.4999998705908717],
            rel=1e-6)


def axis_config(n, degree):
    """The frontier config: zeta = e1, F1 = {e2}, F2 = {e1, e2}."""
    e = [[[float(i == j), 0.0] for j in range(n)] for i in range(2)]
    return ExperimentConfig(n=n, degree=degree, d_sweep=(degree,),
                            zeta=e[0], F1=[e[1]], F2=[e[0], e[1]])


class TestRuleOnDemand:
    """Only the quadrature route reads a quadrature rule, and it builds
    its own: axis-aligned runs build none."""

    def test_axis_aligned_suites_build_no_rule(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a quadrature rule was built")

        # every name bound to build_rule, which rule_for_basis calls
        orig = quadrature.build_rule
        for mod in [m for k, m in list(sys.modules.items())
                    if k.startswith("berglab") and m is not None]:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, key, refuse)
        assert run_prop1(ExperimentConfig())["passed"]
        assert run_separate(axis_config(4, 8))["passed"]

    def test_separate_frontier_memory(self):
        # n = 5, d = 16: the rule separate built and never read held
        # about 750 MiB
        tracemalloc.start()
        try:
            report = run_separate(axis_config(5, 16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["passed"]
        assert peak < 128 * 2 ** 20

    def test_separate_cutoff_memory(self):
        # n = 2, d = 48: T_eta's Gauss sum held a complex table of the
        # powers beside a real copy, about 48 MiB traced
        tracemalloc.start()
        try:
            report = run_separate(axis_config(2, 48))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["passed"]
        assert peak < 36 * 2 ** 20
