"""Tests for the truncated Bergman basis, kernels and projection."""

import math

import mpmath as mp
import numpy as np
import pytest

from berglab.basis import (Expansion, TruncatedBasis, kernel,
                           kernel_expansion, monomial_norm, multi_indices,
                           project)
from berglab.quadrature import integrate, rule_for_basis


def indices_recursive(n, degree):
    """The recursive generator that ``multi_indices`` replaced, kept as its
    oracle: each degree's compositions in lexicographic order."""
    def of_degree(dim, total):
        if dim == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in of_degree(dim - 1, total - head):
                yield (head, *rest)

    return [a for total in range(degree + 1) for a in of_degree(n, total)]


class TestIndices:
    def test_count_is_binomial(self):
        for n, d in [(1, 12), (2, 8), (3, 5)]:
            assert multi_indices(n, d).shape == (math.comb(n + d, n), n)

    def test_graded_lex_order(self):
        idx = multi_indices(2, 2)
        assert idx.tolist() == [[0, 0], [0, 1], [1, 0], [0, 2], [1, 1],
                                [2, 0]]
        for n, degree in ((3, 9), (4, 7)):
            idx = list(map(tuple, multi_indices(n, degree).tolist()))
            degs = [sum(a) for a in idx]
            assert degs == sorted(degs)
            for k in range(degree + 1):
                block = [a for a in idx if sum(a) == k]
                assert block == sorted(block)
                assert len(block) == math.comb(k + n - 1, n - 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_the_recursive_generator(self, n):
        for degree in range(14):
            got = multi_indices(n, degree)
            assert got.dtype == np.intp
            assert got.tolist() == [list(a) for a in
                                    indices_recursive(n, degree)]

    def test_read_only_and_shared_by_the_basis(self):
        b = TruncatedBasis.create(3, 4)
        assert np.array_equal(b.indices, multi_indices(3, 4))
        with pytest.raises(ValueError):
            b.indices[1, 0] = 7
        assert np.array_equal(b.degrees, b.indices.sum(axis=1))

    def test_validation(self):
        with pytest.raises(ValueError):
            multi_indices(0, 3)
        with pytest.raises(ValueError):
            multi_indices(2, -1)


class TestBasisEquality:
    def test_equal_bases_compare_and_hash_equal(self):
        a, b = TruncatedBasis.create(2, 3), TruncatedBasis.create(2, 3)
        assert a == b and hash(a) == hash(b)
        assert a != TruncatedBasis.create(2, 4)
        assert a != TruncatedBasis.create(3, 3)
        assert a != (2, 3)

    def test_same_size_on_different_bases_is_not_equal(self):
        # both have 10 elements: only (n, degree) tells them apart
        a, b = TruncatedBasis.create(2, 3), TruncatedBasis.create(3, 2)
        assert len(a) == len(b) == 10
        assert a != b


class TestNorms:
    def test_constant(self):
        assert monomial_norm((0,), 1) == pytest.approx(1.0)

    def test_disk_linear(self):
        assert monomial_norm((1,), 1) == pytest.approx(math.sqrt(0.5))

    def test_two_ball_linear(self):
        assert monomial_norm((1, 0), 2) == pytest.approx(math.sqrt(1 / 3))

    def test_against_quadrature(self):
        rule = rule_for_basis(2, 6)
        for alpha in [(0, 0), (1, 0), (2, 1), (0, 3)]:
            val = integrate(
                lambda pts, a=alpha: np.abs(
                    pts[:, 0] ** a[0] * pts[:, 1] ** a[1]) ** 2, rule)
            assert abs(val - monomial_norm(alpha, 2) ** 2) < 1e-14

    def test_high_degree_finite(self):
        v = monomial_norm((400,), 1)
        assert 0.0 < v < 1.0 and np.isfinite(v)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_create_matches_monomial_norm(self, n):
        # one basis at d = 32 holds every index of every lower degree
        basis = TruncatedBasis.create(n, 32)
        want = np.array([monomial_norm(a, n) for a in basis.indices])
        assert np.array_equal(basis.norms, want)

    @pytest.mark.parametrize("n, d", [(1, 64), (2, 24), (3, 10)])
    def test_within_4_ulp_of_mpmath(self, n, d):
        basis = TruncatedBasis.create(n, d)
        with mp.workdps(40):
            for alpha, got in zip(basis.indices, basis.norms):
                ref = mp.sqrt(mp.factorial(n)
                              * mp.fprod(mp.factorial(a) for a in alpha)
                              / mp.factorial(n + sum(alpha)))
                ulps = abs(got - ref) / math.ulp(float(ref))
                assert ulps <= 4, (alpha, float(ulps))


class TestBasisEvaluation:
    def test_zero_power_at_origin(self):
        basis = TruncatedBasis.create(2, 3)
        row = basis.eval(np.zeros((1, 2), dtype=complex))[0]
        assert row[0] == pytest.approx(1.0)  # constant element
        assert np.max(np.abs(row[1:])) == 0.0

    def test_gram_identity(self):
        basis = TruncatedBasis.create(1, 8)
        rule = rule_for_basis(1, 8)
        emat = basis.eval(rule.nodes)
        gram = emat.conj().T @ (rule.weights[:, None] * emat)
        assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-13


class TestKernel:
    def test_at_origin_center(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(-0.4, 0.4, (50, 2)) + 0j
        np.testing.assert_allclose(kernel(np.zeros(2), w), 1.0)

    def test_value_at_zero(self):
        assert kernel([0.6], np.zeros((1, 1), complex))[0] == pytest.approx(0.64)

    def test_reproducing_identity_for_polynomials(self):
        basis = TruncatedBasis.create(1, 10)
        rule = rule_for_basis(1, 10)
        rng = np.random.default_rng(4)
        g = Expansion(basis, rng.standard_normal(len(basis))
                      + 1j * rng.standard_normal(len(basis)))
        z = np.array([0.4 - 0.25j])
        pair = integrate(lambda pts: g.eval(pts) * np.conj(kernel(z, pts)),
                         rule)
        expect = (1 - float(np.sum(np.abs(z) ** 2))) * complex(g.eval(z))
        assert abs(pair - expect) < 1e-12

    def test_partial_sums_increase_to_limit(self):
        z = np.array([0.45 + 0.1j])
        limit = (1 - float(np.sum(np.abs(z) ** 2))) ** -2
        sums = []
        for d in range(1, 13):
            b = TruncatedBasis.create(1, d)
            sums.append(float(np.sum(np.abs(b.eval(z[None, :])[0]) ** 2)))
        assert np.all(np.diff(sums) > 0)
        assert sums[-1] < limit
        assert limit - sums[-1] < 1e-5 * limit


    @pytest.mark.parametrize("n", [1, 2])
    def test_gap_exact_near_sphere(self, n):
        # at t = 1 - 2^-28, 1 - fl(t^2) is off by 1.9e-9 relative, while
        # (1 - t)(1 + t) rounds once because |t e_1| = t exactly
        t = 1.0 - 2.0 ** -28
        z = np.zeros(n, dtype=complex)
        z[0] = t
        with mp.workdps(40):
            expect = float((1 - mp.mpf(t) ** 2) ** (mp.mpf(n + 1) / 2))
        assert abs(kernel(z, np.zeros(n)) / expect - 1.0) < 1e-14
        coeff = kernel_expansion(z, TruncatedBasis.create(n, 2)).coeffs[0]
        assert abs(coeff / expect - 1.0) < 1e-14


class TestExpansion:
    def test_zero_and_unit(self):
        basis = TruncatedBasis.create(1, 6)
        zero = Expansion(basis, np.zeros(len(basis), complex))
        assert complex(zero.eval([0.3])) == 0.0
        unit = Expansion(basis, np.eye(len(basis), dtype=complex)[:, 0])
        assert complex(unit.eval([0.3])) == pytest.approx(1.0)

    def test_coefficient_count_checked(self):
        basis = TruncatedBasis.create(1, 6)
        with pytest.raises(ValueError):
            Expansion(basis, np.zeros(3, complex))

    def test_kernel_expansion_value_at_origin(self):
        basis = TruncatedBasis.create(1, 12)
        kexp = kernel_expansion([0.6], basis)
        assert abs(complex(kexp.eval([0.0])) - 0.64) < 1e-10


class TestProjection:
    def setup_method(self):
        self.basis = TruncatedBasis.create(1, 12)
        self.rule = rule_for_basis(1, 12)

    def test_projects_basis_element_to_itself(self):
        target = Expansion(self.basis,
                           np.eye(len(self.basis), dtype=complex)[:, 4])
        got = project(target.eval, self.basis, self.rule)
        np.testing.assert_allclose(got.coeffs, target.coeffs, atol=1e-13)

    def test_kills_antianalytic(self):
        got = project(lambda pts: np.conj(pts[:, 0]), self.basis, self.rule)
        assert np.max(np.abs(got.coeffs)) < 1e-13

    def test_kernel_matches_binomial_series(self):
        z = 0.6
        got = project(lambda pts: kernel([z], pts), self.basis, self.rule)
        ks = np.arange(13)
        expect = (1 - z * z) * np.sqrt(ks + 1.0) * z ** ks
        np.testing.assert_allclose(got.coeffs, expect, atol=1e-12)

    def test_matches_closed_form_expansion(self):
        got = project(lambda pts: kernel([0.3 + 0.4j], pts), self.basis,
                      self.rule)
        closed = kernel_expansion([0.3 + 0.4j], self.basis)
        np.testing.assert_allclose(got.coeffs, closed.coeffs, atol=1e-12)
