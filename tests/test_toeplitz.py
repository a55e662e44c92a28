"""Tests for Toeplitz matrices, fast paths, commutators, operator norms."""

import math
import tracemalloc

import numpy as np
import pytest

from berglab.basis import TruncatedBasis, project
from berglab.geometry import moebius
from berglab.quadrature import (build_rule, integrate, panel_gauss_legendre,
                                rule_for_basis)
from berglab.toeplitz import (_PROFILE_POINTS, OperatorMatrix, Symbol,
                              _profile_integrals, _scatter, commutator, op_norm, ray_bands,
                              toeplitz_matrix, toeplitz_monomial_radial,
                              toeplitz_radial)
from berglab.unitaries import toeplitz_blocks
from berglab.witness import (SphereSet, build_prop1_config, default_panel,
                             witness_symbol)

R = 0.5


def toeplitz_dense(f, basis):
    """T_f as one dense matrix: the scatter of its triples."""
    return _scatter(toeplitz_blocks(f, basis)[1], basis)


def radial_diag(profile, basis, support=None):
    """The np.diag assembly that the scatter of ``ray_bands`` replaced in
    ``toeplitz_radial``, kept as its oracle."""
    n = basis.n
    integrals = _profile_integrals(profile, n, basis.degree, support)
    degs = basis.degrees
    diag = (n + degs) * integrals[degs]
    return np.diag(diag.astype(complex))


def band_loop(coordinate, profile, basis, support=None):
    """The per-index loop that the scatter of ``ray_bands`` replaced in
    ``toeplitz_monomial_radial``, kept as its oracle."""
    n = basis.n
    integrals = _profile_integrals(profile, n, basis.degree + 1, support)
    alphas = list(map(tuple, basis.indices.tolist()))
    pos = {alpha: i for i, alpha in enumerate(alphas)}
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for i, alpha in enumerate(alphas):
        beta = list(alpha)
        beta[coordinate] += 1
        j = pos.get(tuple(beta))
        if j is None:
            continue  # band exits the truncation at top degree
        k = sum(alpha) + 1
        mat[j, i] = integrals[k] * math.sqrt((n + k) * beta[coordinate])
    return mat


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
        alphas = list(map(tuple, b.indices.tolist()))
        pos = {alpha: i for i, alpha in enumerate(alphas)}
        for j in range(n):
            t = toeplitz_monomial_radial(j, lambda u: np.ones_like(u), b)
            for i, alpha in enumerate(alphas):
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


PROFILES = [
    (lambda u: np.clip(1 - (np.asarray(u) / R) ** 2, 0, None), R),
    (lambda u: np.ones_like(u), None),
    (lambda u: (1.0 + 2.0j) * np.exp(-np.asarray(u) ** 2), None)]
SIZES = [(1, 16), (2, 10), (3, 7), (4, 5)]


class TestRayBands:
    """The fast paths are the scatter of ``ray_bands``: bit for bit the
    dense assemblies it replaced, along any axis."""

    @pytest.mark.parametrize("n, d", SIZES)
    @pytest.mark.parametrize("profile, support", PROFILES,
                             ids=["bump", "unit", "complex"])
    def test_radial_is_the_diagonal(self, n, d, profile, support):
        b = TruncatedBasis.create(n, d)
        want = radial_diag(profile, b, support).tobytes()
        assert toeplitz_radial(profile, b, support).mat.tobytes() == want
        for axis in range(n):
            triples = ray_bands(profile, None, b, axis, support)
            assert len(triples) == (d + 1 if n > 1 else 1)
            assert _scatter(triples, b).mat.tobytes() == want

    @pytest.mark.parametrize("n, d", SIZES)
    @pytest.mark.parametrize("profile, support", PROFILES,
                             ids=["bump", "unit", "complex"])
    def test_band_is_the_loop(self, n, d, profile, support):
        b = TruncatedBasis.create(n, d)
        top = b.degrees == d
        for j in range(n):
            want = band_loop(j, profile, b, support)
            got = toeplitz_monomial_radial(j, profile, b, support).mat
            assert got.tobytes() == want.tobytes()
            assert np.all(got[:, top] == 0.0)  # the band exits at degree d
            assert np.count_nonzero(got) == np.count_nonzero(~top)
            # on the axis one band per off-axis degree below d, off it
            # one per (s, alpha'_j), and the same matrix either way
            for axis in range(n):
                triples = ray_bands(profile, j, b, axis, support)
                if axis == j:
                    assert len(triples) == (d if n > 1 else 1)
                assert _scatter(triples, b).mat.tobytes() == want.tobytes()

    def test_coordinate_out_of_range(self):
        b = TruncatedBasis.create(2, 3)
        for j in (-1, 2):
            with pytest.raises(ValueError, match="out of range"):
                toeplitz_monomial_radial(j, lambda u: np.ones_like(u), b)


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

    def test_same_size_on_another_basis_raises(self):
        # n = 2, d = 3 and n = 3, d = 2 both have 10 elements, so only the
        # basis check tells the matrices apart
        a = OperatorMatrix(TruncatedBasis.create(2, 3), np.eye(10))
        b = OperatorMatrix(TruncatedBasis.create(3, 2), np.eye(10))
        for op in (a.__matmul__, a.__add__, a.__sub__):
            with pytest.raises(ValueError, match="live on different bases"):
                op(b)

    def test_equal_bases_combine(self):
        # two separately built bases of the same (n, degree) are one basis
        a = OperatorMatrix(TruncatedBasis.create(2, 3), 2.0 * np.eye(10))
        b = OperatorMatrix(TruncatedBasis.create(2, 3), np.eye(10))
        assert np.array_equal((a @ b).mat, 2.0 * np.eye(10))
        assert np.array_equal((a + b).mat, 3.0 * np.eye(10))
        assert np.array_equal((a - b).mat, np.eye(10))


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
        # T_{conj f} = T_f*: f by its fast path, the sampled conj f by
        # quadrature over the rule with a break at the witness's kink
        t = toeplitz_dense(sym, basis)
        tc = toeplitz_matrix(sym.conjugate(), basis, rule)
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
    """The torus assembly with every (alpha, beta) pair in one gather:
    the reference that ``weighted_gram`` must match bit for bit."""
    n, size, slices = basis.n, len(basis), len(rule.moduli)
    grid = rule.weigh(values)
    spec = np.fft.fftn(grid, axes=tuple(range(1, n + 1)),
                       out=grid if grid.dtype == complex else None)
    spec = np.ascontiguousarray(spec.reshape(slices, -1).T)
    rho = basis.eval(rule.moduli).real.T
    idx = basis.indices
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
    return build_prop1_config(SphereSet.create(np.eye(n)[points]), eps).eta


class TestInvariantAssembly:
    """Symbols constant along some torus angles: the quadrature kernel
    runs over the full torus and matches its one-gather reference bit for
    bit, and the cutoff route gives T_eta the block structure that the
    invariance implies."""

    def test_nothing_invariant_is_bit_for_bit(self):
        basis = TruncatedBasis.create(2, 8)
        rule = rule_for_basis(2, 8, radial_breaks=(R * R,))
        eta = _eta(2, [0, 1])
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

    def test_zero_off_the_diagonal_groups(self):
        # eta of F = {e2} is invariant along the angle of z_1, so T_eta
        # pairs only indices with the same alpha_1
        basis = TruncatedBasis.create(2, 6)
        got = toeplitz_dense(_eta(2, [1]), basis).mat
        idx = basis.indices
        other = idx[:, None, 0] != idx[None, :, 0]
        assert np.all(got[other] == 0.0)
        assert np.all(np.abs(np.diag(got)) > 0.0)


class TestProfileIntegrals:
    def test_independent_of_the_truncation(self):
        # the witness profile at r = 0.5, n = 1: I_1 = r^4 / 6
        profile = witness_symbol(R).profile
        ints = [_profile_integrals(profile, 1, k, R) for k in (1, 13, 19, 200)]
        for narrow, wide in zip(ints, ints[1:]):
            assert np.array_equal(narrow, wide[:len(narrow)])
        assert abs(ints[0][1] - R ** 4 / 6.0) <= np.spacing(R ** 4 / 6.0)

    @pytest.mark.parametrize("support", [0.3, 1.0, 1.5, None])
    def test_one_panel_is_the_filtered_rule(self, support):
        # the panel on [0, min(R^2, 1)] gives the bytes of the rule on
        # [0, 1] split at R^2 and cut back to its first panel
        def profile(u):
            return np.exp(-u) * np.cos(3.0 * u)

        inside = support is not None and support < 1.0
        upper = support * support if inside else 1.0
        t, w = panel_gauss_legendre(
            _PROFILE_POINTS, (0.0, upper, 1.0) if inside else (0.0, 1.0))
        keep = t <= upper
        t, w = t[keep], w[keep]
        g = np.asarray(profile(np.sqrt(t)), dtype=complex)
        want = (t[None, :] ** (1 + np.arange(31))[:, None] * (w * g)).sum(axis=1)
        got = _profile_integrals(profile, 2, 30, support)
        assert got.tobytes() == want.tobytes()
