"""Finite model of the Bergman space: truncated monomial basis, kernels,
expansions and projection.

The monomials z^alpha are orthogonal; their norms satisfy
||z^alpha||^2 = n! alpha! / (n + |alpha|)!, a ratio of integers rounded
once, so every norm is within one ulp at any degree.  A truncated
basis collects all normalized monomials e_alpha with |alpha| <= d in
graded lexicographic order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _gap, _point, as_point, inner
from .quadrature import QuadratureRule

__all__ = ["multi_indices", "monomial_norm", "TruncatedBasis", "Expansion",
           "kernel", "kernel_expansion", "weighted_gram", "project"]

_BLOCK = 1 << 17  # complex entries per gathered (rows, B, slices) block
_RHO_BLOCK = 1 << 20  # basis values per evaluation at the slices


def multi_indices(n: int, degree: int) -> list[tuple[int, ...]]:
    """All multi-indices of length n with total degree <= degree,
    ordered by (total degree, lexicographic)."""
    if n < 1 or degree < 0:
        raise ValueError(f"need n >= 1 and degree >= 0, got {n}, {degree}")

    def of_degree(dim: int, total: int):
        if dim == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in of_degree(dim - 1, total - head):
                yield (head, *rest)

    out: list[tuple[int, ...]] = []
    for total in range(degree + 1):
        out.extend(sorted(of_degree(n, total)))
    return out


def monomial_norm(alpha: tuple[int, ...], n: int) -> float:
    """||z^alpha|| = sqrt(n! alpha! / (n + |alpha|)!), within one ulp: the
    factorials are exact integers and int / int rounds once."""
    if len(alpha) != n or any(a < 0 for a in alpha):
        raise ValueError(f"invalid multi-index {alpha} for dimension {n}")
    num = math.factorial(n) * math.prod(math.factorial(a) for a in alpha)
    return math.sqrt(num / math.factorial(n + sum(alpha)))


@dataclass(frozen=True)
class TruncatedBasis:
    """Orthonormal monomial basis e_alpha = z^alpha / ||z^alpha||, |alpha| <= d."""

    n: int
    degree: int
    indices: tuple[tuple[int, ...], ...]
    norms: np.ndarray

    @classmethod
    def create(cls, n: int, degree: int) -> "TruncatedBasis":
        idx = tuple(multi_indices(n, degree))
        norms = np.array([monomial_norm(a, n) for a in idx])
        return cls(n=n, degree=degree, indices=idx, norms=norms)

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def degrees(self) -> np.ndarray:
        """Total degree |alpha| per basis element."""
        return np.array([sum(a) for a in self.indices])

    def eval(self, points) -> np.ndarray:
        """Matrix of basis values, shape (N, count); column j is e_{alpha_j}."""
        pts = as_point(points, name="points")
        pts = pts.reshape(-1, self.n)
        powers = [pts[:, j][:, None] ** np.arange(self.degree + 1)[None, :]
                  for j in range(self.n)]
        idx = np.asarray(self.indices)
        out = np.ones((pts.shape[0], len(self.indices)), dtype=complex)
        for j in range(self.n):
            out *= powers[j][:, idx[:, j]]
        out /= self.norms[None, :]
        return out


@dataclass(frozen=True)
class Expansion:
    """Coefficients against a truncated basis: f = sum_a coeffs[a] e_a."""

    basis: TruncatedBasis
    coeffs: np.ndarray

    def __post_init__(self):
        if len(self.coeffs) != len(self.basis):
            raise ValueError(
                f"coefficient count {len(self.coeffs)} does not match basis "
                f"size {len(self.basis)}")

    def eval(self, points) -> np.ndarray:
        """Evaluate the expansion at ball points (broadcasts)."""
        pts = as_point(points, name="points")
        squeeze = pts.ndim == 1
        values = self.basis.eval(pts) @ self.coeffs
        return values[0] if squeeze else values


def kernel(z, w) -> np.ndarray:
    """Normalized reproducing kernel k_z evaluated at w.

    k_z(w) = (1 - |z|^2)^((n+1)/2) (1 - <w, z>)^(-n-1); ||k_z|| = 1 and
    <g, k_z> = (1 - |z|^2)^((n+1)/2) g(z) for analytic g.
    """
    z, zz = _point(z, "z")
    w = as_point(w, name="w")
    n = z.shape[-1]
    return (_gap(zz) ** (0.5 * (n + 1))
            * (1.0 - inner(w, z)) ** (-(n + 1)))


def kernel_expansion(z, basis: TruncatedBasis) -> Expansion:
    """Truncated expansion of k_z: coefficients (1-|z|^2)^((n+1)/2) conj(e_a(z))."""
    z, zz = _point(z, "z")
    if z.ndim != 1:
        raise ValueError("kernel_expansion expects a single point")
    coeffs = (float(_gap(zz)) ** (0.5 * (basis.n + 1))
              * np.conj(basis.eval(z[None, :])[0]))
    return Expansion(basis=basis, coeffs=coeffs)


def weighted_gram(basis: TruncatedBasis, rule: QuadratureRule,
                  values: np.ndarray) -> np.ndarray:
    """G[beta, alpha] = sum_i w_i values_i e_alpha(x_i) conj(e_beta(x_i)).

    Node (p, k) of the rule is moduli[p] exp(i theta_k) on a uniform
    angle grid, so e_alpha = rho_alpha(p) exp(i alpha.theta_k) with
    rho_alpha(p) real, and

        G[beta, alpha] = sum_p rho_beta(p) rho_alpha(p) F_p[beta - alpha]

    with beta - alpha taken mod A = ``angular`` in each coordinate, where
    F_p is the n-dimensional DFT of w * values over the angles of slice p.
    This is the same finite sum reordered, exact even when the angles
    alias 2 * degree.  It costs one FFT of the N values plus O(P B^2)
    for P slices and B basis elements.

    On a rule with ``fixed_angles`` the values do not depend on those
    angles, so F_p vanishes unless beta - alpha is 0 mod A there: the
    basis splits into groups that agree mod A on the fixed coordinates,
    G is zero between groups, and each group's block is the sum above
    over the active angles alone.  With no fixed angle the whole basis
    is one group.

    ``values`` is consumed: it is weighted in place and, when complex,
    overwritten by its spectrum.  Beyond it the call holds one
    frequency-major copy of the spectrum (N complex entries), the basis
    values of one group at the P angle-zero nodes, and one reused gather
    block of at most max(2^17, m P) complex entries for the largest
    group size m.
    """
    size, slices = len(basis), len(rule.moduli)
    active = list(rule.active)
    grid = rule.weigh(values)
    spec = np.fft.fftn(grid, axes=tuple(range(1, len(active) + 1)),
                       out=grid if grid.dtype == complex else None)
    # frequency-major, so a gather reads whole rows of P slice values
    spec = np.ascontiguousarray(spec.reshape(slices, -1).T)
    idx = np.asarray(basis.indices)
    keys, group_of = np.unique(idx[:, list(rule.fixed_angles)] % rule.angular,
                               axis=0, return_inverse=True)
    groups = [np.flatnonzero(group_of.ravel() == g) for g in range(len(keys))]
    # row-major strides of the active angle grid, as in ravel_multi_index
    strides = rule.angular ** np.arange(len(active) - 1, -1, -1)
    out = np.zeros((size, size), dtype=complex)

    def rows(m: int) -> int:  # gather rows per block for a group of size m
        return min(m, max(1, _BLOCK // (slices * m)))
    buf = np.empty(max(rows(len(g)) * len(g) for g in groups) * slices,
                   dtype=complex)
    # whole groups whose basis values at the P slices are evaluated at once
    batches, held = [[]], 0
    for g in groups:
        if batches[-1] and (held + len(g)) * slices > _RHO_BLOCK:
            batches.append([])
            held = 0
        batches[-1].append(g)
        held += len(g)
    for batch in batches:
        cols = np.concatenate(batch)
        part = basis if len(batch) == 1 and len(cols) == size else (
            TruncatedBasis(basis.n, basis.degree,
                           tuple(basis.indices[i] for i in cols),
                           basis.norms[cols]))
        rho_batch = part.eval(rule.moduli).real.T  # at the angle-zero nodes
        first = 0
        for members in batch:
            m, step = len(members), rows(len(members))
            rho = rho_batch[first:first + m]
            first += m
            sub = idx[members][:, active]
            diff = (sub[:, None, :] - sub[None, :, :]) % rule.angular
            freq = diff @ strides
            for start in range(0, m, step):
                r = slice(start, start + step)
                count = len(freq[r])
                # F_p[beta - alpha]; freq is in range, and mode="clip" lets
                # take write straight into the buffer instead of a copy
                block = np.take(spec, freq[r], axis=0, mode="clip",
                                out=buf[:count * m * slices].reshape(
                                    count, m, slices))
                block *= rho[None]
                out[np.ix_(members[r], members)] = np.matmul(
                    block, rho[r, :, None])[..., 0]
    return out


def project(f, basis: TruncatedBasis, rule: QuadratureRule) -> Expansion:
    """Orthogonal projection onto the truncated basis by quadrature.

    ``f`` maps an (m, n) array of points to (m,) values (see
    ``QuadratureRule.evaluate``); the coefficient at alpha is the rule's
    value of <f, e_alpha>, the alpha-th entry of the weighted Gram column
    at e_0 = 1.
    """
    if rule.n != basis.n:
        raise ValueError("rule and basis dimensions differ")
    coeffs = weighted_gram(basis, rule, rule.evaluate(f))[:, 0]
    return Expansion(basis=basis, coeffs=coeffs)
