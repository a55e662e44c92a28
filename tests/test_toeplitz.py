"""Tests for Toeplitz matrices, fast paths, commutators, operator norms."""

import dataclasses

import numpy as np
import pytest

from berglab.basis import TruncatedBasis, project
from berglab.geometry import moebius
from berglab.quadrature import build_rule, rule_for_basis
from berglab.toeplitz import (OperatorMatrix, Symbol, commutator,
                              matrix_to_csv, matrix_to_json, op_norm,
                              toeplitz_matrix, toeplitz_monomial_radial,
                              toeplitz_radial)
from berglab.witness import witness_symbol

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
                    Symbol.region_indicator(
                        lambda pts: np.linalg.norm(pts, axis=1) < R)):
            t = toeplitz_matrix(sym, basis, rule)
            assert op_norm(t) <= sym.sup_norm_bound + 1e-8

    def test_op_norm_basics(self, basis):
        eye = OperatorMatrix.identity(basis)
        assert op_norm(eye) == pytest.approx(1.0)
        d = np.zeros((len(basis), len(basis)), complex)
        d[3, 3] = -2.5
        assert op_norm(OperatorMatrix(basis, d)) == pytest.approx(2.5)


class TestOperatorMatrix:
    def test_basis_mismatch_raises(self, basis):
        other = TruncatedBasis.create(1, 6)
        a = OperatorMatrix.identity(basis)
        b = OperatorMatrix.identity(other)
        with pytest.raises(ValueError):
            _ = a @ b

    def test_export_formats(self, basis):
        a = OperatorMatrix.identity(basis)
        blob = matrix_to_json(a)
        assert blob["degree"] == 12
        text = matrix_to_csv(a)
        assert text.startswith("row,col,re,im")
        assert len(text.strip().split("\n")) == 1 + len(basis) ** 2


class TestSymbolSemantics:
    def test_compose_moebius_support_moves(self, basis, rule):
        wit = witness_symbol(R)
        z = np.array([0.5 + 0.0j])
        moved = wit.compose_moebius(z)
        pts = np.array([[0.5 + 0.0j], [0.0 + 0.0j]])
        vals = moved(pts)
        assert abs(vals[0]) == 0.0  # phi_z(z) = 0 and the symbol vanishes at 0
        assert abs(vals[1] - wit(np.array([[0.5 + 0j]]))[0]) < 1e-15

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
    """E^H diag(w f) E straight from the basis values at every node."""
    emat = basis.eval(rule.nodes)
    return emat.conj().T @ ((rule.weights * f(rule.nodes))[:, None] * emat)


def _max_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


class TestTorusAssembly:
    """The FFT route over the torus angles is the dense sum reordered."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("degree", [0, 3, 8])
    @pytest.mark.parametrize("breaks", [(), (0.36,)])
    def test_matches_dense_reference(self, n, degree, breaks):
        basis = TruncatedBasis.create(n, degree)
        rule = rule_for_basis(n, degree, radial_breaks=breaks)
        assert rule.torus is not None
        f = _mixed_symbol(n)
        got = toeplitz_matrix(f, basis, rule).mat
        assert _max_diff(got, _dense_reference(f, basis, rule)) <= 1e-14

    @pytest.mark.parametrize("n, angular", [(1, 9), (2, 11)])
    def test_aliased_angles_match_dense_reference(self, n, angular):
        # angular <= 2d: frequencies beta - alpha wrap around the grid
        basis = TruncatedBasis.create(n, 8)
        rule = build_rule(n, 10, angular=angular)
        assert rule.torus is not None
        f = _mixed_symbol(n)
        with pytest.warns(UserWarning, match="exactness"):
            got = toeplitz_matrix(f, basis, rule).mat
        assert _max_diff(got, _dense_reference(f, basis, rule)) <= 1e-14

    def test_stochastic_rule_uses_dense_product(self):
        basis = TruncatedBasis.create(3, 3)
        rule = build_rule(3, 4, angular=256, seed=5)
        assert rule.torus is None
        f = _mixed_symbol(3)
        got = toeplitz_matrix(f, basis, rule).mat
        assert _max_diff(got, _dense_reference(f, basis, rule)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("keep_angle_zero", [False, True])
    def test_reordered_nodes_lose_the_layout(self, n, keep_angle_zero):
        basis = TruncatedBasis.create(n, 3)
        rule = rule_for_basis(n, 3, radial_breaks=(0.36,))
        rng = np.random.default_rng(7)
        if keep_angle_zero:  # shuffle each slice's angles past its head
            perm = np.arange(len(rule)).reshape(-1, rule.angular ** n)
            perm[:, 1:] = rng.permuted(perm[:, 1:], axis=1)
            perm = perm.ravel()
        else:
            perm = rng.permutation(len(rule))
        shuffled = dataclasses.replace(rule, nodes=rule.nodes[perm],
                                       weights=rule.weights[perm])
        assert shuffled.torus is None
        f = _mixed_symbol(n)
        got = toeplitz_matrix(f, basis, shuffled).mat
        assert _max_diff(got, _dense_reference(f, basis, rule)) <= 1e-14

    def test_projection_is_the_constant_column(self):
        basis = TruncatedBasis.create(2, 6)
        rule = rule_for_basis(2, 6)
        f = _mixed_symbol(2)
        emat = basis.eval(rule.nodes)
        ref = emat.conj().T @ (rule.weights * f(rule.nodes))
        assert _max_diff(project(f, basis, rule).coeffs, ref) <= 1e-14
