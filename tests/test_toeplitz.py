"""Tests for Toeplitz matrices, fast paths, commutators, operator norms."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from berglab.basis import TruncatedBasis, project, weighted_gram
from berglab.geometry import moebius
from berglab.quadrature import build_rule, integrate, rule_for_basis
from berglab.toeplitz import (OperatorMatrix, Symbol, _profile_integrals,
                              commutator, op_norm, toeplitz_matrix,
                              toeplitz_monomial_radial, toeplitz_radial)
from berglab.unitaries import toeplitz_auto
from berglab.witness import (SphereSet, build_prop1_config, default_panel,
                             witness_symbol)

R = 0.5


@pytest.fixture(scope="module")
def basis():
    return TruncatedBasis.create(1, 12)


@pytest.fixture(scope="module")
def rule():
    return rule_for_basis(1, 12, radial_breaks=(R * R,))


class TestToeplitzMatrix:
    def test_constant_symbol_gives_identity(self, basis, rule):
        t = toeplitz_matrix(Symbol.constant(1.0), basis, rule)
        assert np.max(np.abs(t.mat - np.eye(len(basis)))) < 1e-13

    def test_radius_squared_diagonal(self, basis, rule):
        t = toeplitz_matrix(Symbol.radial(lambda u: u ** 2, 1.0), basis, rule)
        k = np.arange(13)
        np.testing.assert_allclose(np.diag(t.mat), (k + 1) / (k + 2),
                                   atol=1e-13)
        off = t.mat - np.diag(np.diag(t.mat))
        assert np.max(np.abs(off)) < 1e-13

    def test_real_symbol_self_adjoint(self, basis, rule):
        sym = Symbol.sampled(
            lambda pts: (np.abs(pts[:, 0]) ** 2
                         + np.real(pts[:, 0])).astype(complex), 2.0)
        t = toeplitz_matrix(sym, basis, rule)
        assert np.max(np.abs(t.mat - t.mat.conj().T)) < 1e-13

    def test_adjoint_is_conjugate_symbol(self, basis, rule):
        sym = Symbol.sampled(
            lambda pts: pts[:, 0] * np.exp(-np.abs(pts[:, 0]) ** 2), 1.0)
        t = toeplitz_matrix(sym, basis, rule)
        tc = toeplitz_matrix(sym.conjugate(), basis, rule)
        assert np.max(np.abs(tc.mat - t.mat.conj().T)) < 1e-13


class TestFastPaths:
    def test_radial_identity(self, basis):
        t = toeplitz_radial(lambda u: np.ones_like(u), basis)
        assert np.max(np.abs(t.mat - np.eye(len(basis)))) < 1e-14

    def test_radial_matches_generic(self, basis, rule):
        for profile, support in (
                (lambda u: u ** 2, None),
                (lambda u: np.exp(-2.0 * np.asarray(u) ** 2), None),
                (lambda u: np.clip(1 - (np.asarray(u) / R) ** 2, 0, None), R)):
            gen = toeplitz_matrix(Symbol.radial(profile, 1.0,
                                                support=support),
                                  basis, rule)
            fast = toeplitz_radial(profile, basis, support=support)
            assert np.max(np.abs(gen.mat - fast.mat)) < 1e-8

    def test_compact_support_diagonal_decays(self, basis):
        t = toeplitz_radial(lambda u: (np.asarray(u) < 0.4).astype(float),
                            basis, support=0.4)
        diag = np.real(np.diag(t.mat))
        assert np.all(np.diff(diag) < 0)
        assert diag[-1] < 1e-6 * diag[0]

    def test_band_matches_generic(self, basis, rule):
        wit = witness_symbol(R)
        gen = toeplitz_matrix(wit, basis, rule)
        fast = toeplitz_monomial_radial(0, wit.profile, basis, support=R)
        assert np.max(np.abs(gen.mat - fast.mat)) < 1e-8

    def test_band_structure(self, basis):
        wit = witness_symbol(R)
        fast = toeplitz_monomial_radial(0, wit.profile, basis, support=R)
        below = np.diag(fast.mat, -1)
        assert np.all(np.abs(below[:-1]) > 0)
        no_band = fast.mat - np.diag(below, -1)
        assert np.max(np.abs(no_band)) == 0.0

    def test_band_entries_closed_form(self, basis):
        # entries sqrt(k+1) r^(2k+4) / (sqrt(k+2) (k+3)) for the bump profile
        wit = witness_symbol(R)
        fast = toeplitz_monomial_radial(0, wit.profile, basis, support=R)
        k = np.arange(12)
        expect = R ** (2 * k + 4) * np.sqrt(k + 1) / (np.sqrt(k + 2) * (k + 3))
        np.testing.assert_allclose(np.diag(fast.mat, -1), expect, atol=1e-15)

    @pytest.mark.parametrize("n, d", [(1, 64), (2, 24), (3, 10)])
    def test_unit_profile_is_norm_ratio(self, n, d):
        # T_{z_j} e_alpha = sqrt((alpha_j + 1) / (n + |alpha| + 1)) e_{alpha+e_j}
        mp = pytest.importorskip("mpmath")
        b = TruncatedBasis.create(n, d)
        pos = {alpha: i for i, alpha in enumerate(b.indices)}
        for j in range(n):
            t = toeplitz_monomial_radial(j, lambda u: np.ones_like(u), b)
            for i, alpha in enumerate(b.indices):
                beta = list(alpha)
                beta[j] += 1
                k = pos.get(tuple(beta))
                if k is None:
                    continue
                exact = mp.sqrt(mp.mpf(alpha[j] + 1) / (n + sum(alpha) + 1))
                got = t.mat[k, i]
                assert got.imag == 0.0
                rel = float(abs(mp.mpf(got.real) - exact) / exact)
                assert rel <= 8 * np.finfo(float).eps, (alpha, j)

    def test_coordinate_shift_in_two_variables(self):
        basis2 = TruncatedBasis.create(2, 5)
        rule2 = rule_for_basis(2, 5)
        sym = Symbol.monomial_times_radial(1, lambda u: np.ones_like(u), 1.0)
        gen = toeplitz_matrix(sym, basis2, rule2)
        fast = toeplitz_monomial_radial(1, lambda u: np.ones_like(u), basis2)
        assert np.max(np.abs(gen.mat - fast.mat)) < 1e-10


class TestCommutatorAndNorm:
    def test_self_commutator_vanishes(self, basis, rule):
        t = toeplitz_matrix(Symbol.radial(lambda u: u ** 2, 1.0), basis, rule)
        assert op_norm(commutator(t, t)) < 1e-15

    def test_radial_symbols_commute(self, basis):
        a = toeplitz_radial(lambda u: u ** 2, basis)
        b = toeplitz_radial(lambda u: np.exp(-np.asarray(u)), basis)
        assert op_norm(commutator(a, b)) < 1e-14

    def test_witness_commutator_norm_closed_form(self, basis):
        wit = witness_symbol(R)
        a = toeplitz_monomial_radial(0, wit.profile, basis, support=R)
        c = commutator(a, a.adjoint())
        assert abs(op_norm(c) - R ** 8 / 18.0) < 1e-15

    def test_squared_commutator_psd_and_top_eig(self, basis):
        wit = witness_symbol(R)
        a = toeplitz_monomial_radial(0, wit.profile, basis, support=R)
        c = commutator(a, a.adjoint())
        s = c @ c
        eigs = np.linalg.eigvalsh(s.mat)
        assert eigs.min() >= -1e-10
        assert abs(eigs.max() - R ** 16 / 324.0) < 1e-18

    def test_norm_contraction(self, basis, rule):
        for sym in (Symbol.constant(1.0),
                    Symbol.radial(lambda u: u ** 2, 1.0),
                    witness_symbol(R),
                    Symbol.sampled(
                        lambda pts: (np.linalg.norm(pts, axis=1) < R)
                        .astype(complex), 1.0)):
            t = toeplitz_matrix(sym, basis, rule)
            assert op_norm(t) <= sym.sup_norm_bound + 1e-8

    def test_op_norm_basics(self, basis):
        eye = OperatorMatrix(basis, np.eye(len(basis)))
        assert op_norm(eye) == pytest.approx(1.0)
        d = np.zeros((len(basis), len(basis)), complex)
        d[3, 3] = -2.5
        assert op_norm(OperatorMatrix(basis, d)) == pytest.approx(2.5)


class TestOperatorMatrix:
    def test_basis_mismatch_raises(self, basis):
        other = TruncatedBasis.create(1, 6)
        a = OperatorMatrix(basis, np.eye(len(basis)))
        b = OperatorMatrix(other, np.eye(len(other)))
        with pytest.raises(ValueError):
            _ = a @ b


class TestSymbolSemantics:
    def test_compose_moebius_support_moves(self, basis, rule):
        wit = witness_symbol(R)
        z = np.array([0.5 + 0.0j])
        moved = wit.compose_moebius(z)
        pts = np.array([[0.5 + 0.0j], [0.0 + 0.0j]])
        vals = moved(pts)
        assert abs(vals[0]) == 0.0  # phi_z(z) = 0 and the symbol vanishes at 0
        assert abs(vals[1] - wit(np.array([[0.5 + 0j]]))[0]) < 1e-15

    @pytest.mark.parametrize("sym", [
        witness_symbol(R),
        Symbol.radial(lambda u: (1.0 + 2.0j) * np.asarray(u) ** 2, 3.0)],
        ids=["monomial_radial", "complex_radial"])
    def test_conjugate_gives_adjoint(self, sym, basis, rule):
        # T_{conj f} = T_f*, whichever route each side takes
        t = toeplitz_auto(sym, basis, rule)
        tc = toeplitz_auto(sym.conjugate(), basis, rule)
        assert np.max(np.abs(tc.mat - t.mat.conj().T)) < 1e-12

    def test_nonfinite_symbol_rejected(self, basis, rule):
        bad = Symbol.sampled(
            lambda pts: np.where(np.arange(pts.shape[0]) == 5, np.inf, 1.0),
            1.0)
        with pytest.raises(ValueError, match="node"):
            toeplitz_matrix(bad, basis, rule)

    def test_underpowered_rule_flagged(self, basis):
        from berglab.quadrature import build_rule
        weak = build_rule(1, 6, angular=16)
        with pytest.warns(UserWarning, match="exactness"):
            toeplitz_matrix(Symbol.constant(1.0), basis, weak)


def _mixed_symbol(n: int) -> Symbol:
    """Non-radial, with anti-holomorphic and Moebius-composed parts."""
    z = np.array([0.3 + 0.2j] + [0.1j] * (n - 1))

    def fn(pts):
        return (np.exp(np.conj(pts[:, 0])) * (1.0 + pts[:, -1] ** 2)
                + np.abs(moebius(z, pts)[:, 0]) ** 3)
    return Symbol.sampled(fn, 6.0, label="mixed")


def _dense_reference(f: Symbol, basis, rule) -> np.ndarray:
    """E^H diag(w f) E straight from the basis values at every node,
    summed over chunks of nodes to bound the memory of E."""
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    for start in range(0, len(rule), 1 << 16):
        nodes = rule.nodes[start:start + (1 << 16)]
        emat = basis.eval(nodes)
        wf = rule.weights[start:start + (1 << 16)] * f(nodes)
        out += emat.conj().T @ (wf[:, None] * emat)
    return out


def _max_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


class TestTorusAssembly:
    """The FFT route over the torus angles is the dense sum reordered."""

    @pytest.mark.parametrize("degree, n", [
        (0, 1), (0, 2), (0, 3), (3, 1), (3, 2), (3, 3), (8, 1), (8, 2)])
    @pytest.mark.parametrize("breaks", [(), (0.36,)])
    def test_matches_dense_reference(self, n, degree, breaks):
        basis = TruncatedBasis.create(n, degree)
        rule = rule_for_basis(n, degree, radial_breaks=breaks)
        f = _mixed_symbol(n)
        got = toeplitz_matrix(f, basis, rule).mat
        assert _max_diff(got, _dense_reference(f, basis, rule)) <= 1e-14

    @pytest.mark.parametrize("n, angular", [(1, 9), (2, 11)])
    def test_aliased_angles_match_dense_reference(self, n, angular):
        # angular <= 2d: frequencies beta - alpha wrap around the grid
        basis = TruncatedBasis.create(n, 8)
        rule = build_rule(n, 10, angular=angular)
        f = _mixed_symbol(n)
        with pytest.warns(UserWarning, match="exactness"):
            got = toeplitz_matrix(f, basis, rule).mat
        assert _max_diff(got, _dense_reference(f, basis, rule)) <= 1e-14

    def test_projection_is_the_constant_column(self):
        basis = TruncatedBasis.create(2, 6)
        rule = rule_for_basis(2, 6)
        f = _mixed_symbol(2)
        emat = basis.eval(rule.nodes)
        ref = emat.conj().T @ (rule.weights * f(rule.nodes))
        assert _max_diff(project(f, basis, rule).coeffs, ref) <= 1e-14


class TestBlockedEvaluation:
    """Symbols are evaluated block by block; the node arrays are never built."""

    def test_no_node_or_weight_arrays_built(self):
        basis = TruncatedBasis.create(2, 6)
        rule = rule_for_basis(2, 6)
        sizes = []

        def fn(pts):
            sizes.append(len(pts))
            return _mixed_symbol(2).fn(pts)
        toeplitz_matrix(Symbol.sampled(fn, 6.0), basis, rule)
        project(fn, basis, rule)
        integrate(fn, rule)
        assert rule.meta()["weight_sum"] == float(np.sum(rule.slice_weights))
        assert "nodes" not in rule.__dict__
        assert "weights" not in rule.__dict__
        assert max(sizes) <= max(1 << 14, rule.angular ** 2)

    def test_rho_bump_assembly_memory(self):
        # one rho-bump of the n = 2 panel on the d = 10 separation rule:
        # the values, one spectrum and a gather block, not the nodes
        basis = TruncatedBasis.create(2, 10)
        rule = rule_for_basis(2, 10, radial_breaks=(R * R,))
        bump = default_panel(SphereSet.create([[0.0, 1.0]]), R, 2)[0]
        tracemalloc.start()
        try:
            toeplitz_matrix(bump, basis, rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 16 * len(rule)


def _one_group_gram(basis, rule, values) -> np.ndarray:
    """The torus assembly with every (alpha, beta) pair in one gather, as
    ``weighted_gram`` ran before it grouped the basis: the reference that
    the one-group case must match bit for bit."""
    n, size, slices = basis.n, len(basis), len(rule.moduli)
    grid = rule.weigh(values)
    spec = np.fft.fftn(grid, axes=tuple(range(1, n + 1)),
                       out=grid if grid.dtype == complex else None)
    spec = np.ascontiguousarray(spec.reshape(slices, -1).T)
    rho = basis.eval(rule.moduli).real.T
    idx = np.asarray(basis.indices)
    diff = (idx[:, None, :] - idx[None, :, :]) % rule.angular
    freq = np.ravel_multi_index(tuple(np.moveaxis(diff, -1, 0)),
                                (rule.angular,) * n)
    out = np.empty((size, size), dtype=complex)
    rows = max(1, (1 << 17) // (slices * size))
    for start in range(0, size, rows):
        r = slice(start, start + rows)
        block = np.take(spec, freq[r], axis=0) * rho[None]
        out[r] = np.matmul(block, rho[r, :, None])[..., 0]
    return out


def _eta(n: int, points: list[int], eps: float = 0.5) -> Symbol:
    rule = rule_for_basis(n, 2)
    return build_prop1_config(SphereSet.create(np.eye(n)[points]), eps,
                              rule).eta


class TestInvariantAssembly:
    """A symbol constant along some torus angles is assembled on the
    others alone, and the matrix is the full-torus one."""

    @pytest.mark.parametrize("n, degree, points", [
        (2, 8, [1]), (3, 4, [1]), (2, 8, [0])])
    def test_reduced_matches_full_torus(self, n, degree, points):
        basis = TruncatedBasis.create(n, degree)
        rule = rule_for_basis(n, degree, radial_breaks=(R * R,))
        eta = _eta(n, points)
        assert eta.invariant == tuple(j for j in range(n) if j not in points)
        got = toeplitz_matrix(eta, basis, rule).mat
        full = weighted_gram(basis, rule, rule.evaluate(eta))
        assert _max_diff(got, full) <= 1e-15

    def test_nothing_invariant_is_bit_for_bit(self):
        basis = TruncatedBasis.create(2, 8)
        rule = rule_for_basis(2, 8, radial_breaks=(R * R,))
        eta = _eta(2, [0, 1])
        assert eta.invariant == ()
        got = toeplitz_matrix(eta, basis, rule).mat
        assert np.array_equal(got, _one_group_gram(basis, rule,
                                                   rule.evaluate(eta)))

    @pytest.mark.parametrize("n, degree", [(1, 8), (2, 3), (2, 8), (3, 3)])
    def test_one_group_matches_reference_bit_for_bit(self, n, degree):
        basis = TruncatedBasis.create(n, degree)
        rule = rule_for_basis(n, degree, radial_breaks=(0.36,))
        f = _mixed_symbol(n)
        assert np.array_equal(toeplitz_matrix(f, basis, rule).mat,
                              _one_group_gram(basis, rule, rule.evaluate(f)))

    def test_evaluated_on_the_active_angles_only(self):
        basis = TruncatedBasis.create(3, 4)
        rule = rule_for_basis(3, 4)
        eta = _eta(3, [1])
        sizes = []

        def fn(pts):
            sizes.append(len(pts))
            return eta.fn(pts)
        toeplitz_matrix(replace(eta, fn=fn), basis, rule)
        reduced = len(replace(rule, fixed_angles=(0, 2)))
        assert reduced == len(rule.moduli) * rule.angular == len(rule) // 169
        # the invariance check (two points per slice, unrotated and at two
        # turns of each invariant coordinate), then the reduced nodes
        assert sizes[-1] == reduced
        assert sum(sizes[:-1]) == 2 * len(rule.moduli) * (1 + 2 * 2)

    def test_zero_off_the_diagonal_groups(self):
        basis = TruncatedBasis.create(2, 6)
        got = toeplitz_matrix(_eta(2, [1]), basis, rule_for_basis(2, 6)).mat
        idx = np.asarray(basis.indices)
        other = idx[:, None, 0] != idx[None, :, 0]
        assert np.all(got[other] == 0.0)
        assert np.all(np.abs(np.diag(got)) > 0.0)

    def test_false_invariance_rejected(self):
        # depends on the phase of z_1, declared invariant along it
        sym = Symbol.sampled(lambda pts: pts[:, 0].real.astype(complex), 1.0,
                             label="re z1", invariant=(0,))
        basis = TruncatedBasis.create(2, 4)
        with pytest.raises(ValueError, match="declares coordinate 0"):
            toeplitz_matrix(sym, basis, rule_for_basis(2, 4))

    def test_wrong_eta_axis_rejected(self):
        # eta of F = {e2} depends on the phase of z_2
        eta = replace(_eta(2, [1]), invariant=(1,))
        with pytest.raises(ValueError, match="declares coordinate 1"):
            toeplitz_matrix(eta, TruncatedBasis.create(2, 4),
                            rule_for_basis(2, 4))

    def test_out_of_range_invariant_rejected(self):
        sym = Symbol.sampled(lambda pts: np.ones(len(pts), complex), 1.0,
                             invariant=(2,))
        with pytest.raises(ValueError, match="out of range"):
            toeplitz_matrix(sym, TruncatedBasis.create(2, 2),
                            rule_for_basis(2, 2))


class TestProfileIntegrals:
    def test_independent_of_the_truncation(self):
        # the witness profile at r = 0.5, n = 1: I_1 = r^4 / 6
        profile = witness_symbol(R).profile
        ints = [_profile_integrals(profile, 1, k, R) for k in (1, 13, 19, 200)]
        for narrow, wide in zip(ints, ints[1:]):
            assert np.array_equal(narrow, wide[:len(narrow)])
        assert abs(ints[0][1] - R ** 4 / 6.0) <= np.spacing(R ** 4 / 6.0)
