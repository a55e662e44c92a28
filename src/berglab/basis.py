"""Finite model of the Bergman space: truncated monomial basis, kernels,
expansions and projection.

The monomials z^alpha are orthogonal; their norms satisfy
||z^alpha||^2 = n! alpha! / (n + |alpha|)!, a ratio of integers rounded
once, so every norm is within one ulp at any degree.  A truncated
basis collects all normalized monomials e_alpha with |alpha| <= d in
graded lexicographic order, as one read-only (count, n) integer array
whose rows are the multi-indices.  Operators that keep the off-axis
multi-index alpha' of a coordinate axis act ray by ray, on the positions
of (alpha', a), a = 0..d - |alpha'|: ``TruncatedBasis.rays``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import _gap, _point, as_point, inner
from .quadrature import QuadratureRule

__all__ = ["multi_indices", "monomial_norm", "TruncatedBasis", "Expansion",
           "kernel", "kernel_expansion", "weighted_gram", "project"]

_BLOCK = 1 << 17  # complex entries per gathered (rows, B, slices) block


def multi_indices(n: int, degree: int) -> np.ndarray:
    """All multi-indices of length n with total degree <= degree, as a
    read-only (count, n) integer array ordered by (total degree,
    lexicographic).

    |alpha| <= d in n parts is d in n + 1 parts, the last the slack
    d - |alpha|; n bars among d + n slots give those in lexicographic
    order, and a stable sort by degree keeps that order within each."""
    if n < 1 or degree < 0:
        raise ValueError(f"need n >= 1 and degree >= 0, got {n}, {degree}")
    count = math.comb(n + degree, n)
    bars = np.fromiter(itertools.chain.from_iterable(itertools.combinations(
        range(degree + n), n)), dtype=np.intp, count=count * n)
    parts = np.diff(bars.reshape(count, n), axis=1, prepend=-1) - 1
    out = parts[np.argsort(parts.sum(axis=1), kind="stable")]
    out.setflags(write=False)
    return out


def monomial_norm(alpha: tuple[int, ...], n: int) -> float:
    """||z^alpha|| = sqrt(n! alpha! / (n + |alpha|)!), within one ulp: the
    factorials are exact integers and int / int rounds once."""
    if len(alpha) != n or any(a < 0 for a in alpha):
        raise ValueError(f"invalid multi-index {alpha} for dimension {n}")
    num = math.factorial(n) * math.prod(math.factorial(a) for a in alpha)
    return math.sqrt(num / math.factorial(n + sum(alpha)))


@dataclass(frozen=True, eq=False)
class TruncatedBasis:
    """Orthonormal monomial basis e_alpha = z^alpha / ||z^alpha||, |alpha| <= d.

    ``indices`` is the read-only (count, n) array of ``multi_indices``;
    (n, degree) determine it and the norms, so they alone decide equality.
    """

    n: int
    degree: int
    indices: np.ndarray
    norms: np.ndarray
    _rays: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def create(cls, n: int, degree: int) -> "TruncatedBasis":
        """The basis of degree <= ``degree``; each norm is
        ``monomial_norm``'s, from an object array of exact factorials."""
        idx = multi_indices(n, degree)
        fact = np.array([math.factorial(k) for k in range(n + degree + 1)],
                        dtype=object)
        norms = np.sqrt((fact[idx].prod(axis=1) * fact[n]
                         / fact[n + idx.sum(axis=1)]).astype(float))
        return cls(n=n, degree=degree, indices=idx, norms=norms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedBasis):
            return NotImplemented
        return (self.n, self.degree) == (other.n, other.degree)

    def __hash__(self) -> int:
        return hash((self.n, self.degree))

    def __len__(self) -> int:
        return len(self.indices)

    def rays(self, axis: int) -> tuple[np.ndarray, ...]:
        """The rays of ``axis`` grouped by off-axis degree: entry s is the
        read-only (count_s, d - s + 1) array whose row is one ray, the
        positions of alpha = (alpha', a) for a = 0..d - s at one off-axis
        multi-index alpha' (alpha without its ``axis`` component) of
        degree s, the rows in lexicographic order of alpha'.  When n = 1
        there is only s = 0.

        One sort of the index array by (s, alpha', a) per axis, kept with
        the basis.
        """
        if axis not in self._rays:
            rest = np.delete(self.indices, axis, axis=1)
            s = rest.sum(axis=1)
            order = np.lexsort((self.indices[:, axis], *rest.T[::-1], s))
            order.setflags(write=False)
            self._rays[axis] = tuple(
                part.reshape(-1, self.degree - k + 1) for k, part in
                enumerate(np.split(order, np.cumsum(np.bincount(s))[:-1])))
        return self._rays[axis]

    @property
    def degrees(self) -> np.ndarray:
        """Total degree |alpha| per basis element."""
        return self.indices.sum(axis=1)

    def eval(self, points) -> np.ndarray:
        """Matrix of basis values, shape (N, count); column j is e_{alpha_j}."""
        pts = as_point(points, name="points")
        pts = pts.reshape(-1, self.n)
        powers = [pts[:, j][:, None] ** np.arange(self.degree + 1)[None, :]
                  for j in range(self.n)]
        out = np.ones((pts.shape[0], len(self.indices)), dtype=complex)
        for j in range(self.n):
            out *= powers[j][:, self.indices[:, j]]
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

    ``values`` is consumed: it is weighted in place and, when complex,
    overwritten by its spectrum.  Beyond it the call holds one
    frequency-major copy of the spectrum (N complex entries) and one
    reused gather block of at most max(2^17, B P) complex entries.
    """
    n, size, slices = basis.n, len(basis), len(rule.moduli)
    grid = rule.weigh(values)
    spec = np.fft.fftn(grid, axes=tuple(range(1, n + 1)),
                       out=grid if grid.dtype == complex else None)
    # frequency-major, so a gather reads whole rows of P slice values
    spec = np.ascontiguousarray(spec.reshape(slices, -1).T)
    rho = basis.eval(rule.moduli).real.T  # (B, P) at the angle-zero nodes
    idx = basis.indices
    diff = (idx[:, None, :] - idx[None, :, :]) % rule.angular
    freq = np.ravel_multi_index(tuple(np.moveaxis(diff, -1, 0)),
                                (rule.angular,) * n)
    out = np.empty((size, size), dtype=complex)
    rows = max(1, _BLOCK // (slices * size))
    gather = np.empty((min(rows, size), size, slices), dtype=complex)
    for start in range(0, size, rows):
        r = slice(start, start + rows)
        # F_p[beta - alpha]; freq is in range, and mode="clip" lets take
        # write straight into the buffer instead of through a copy
        block = np.take(spec, freq[r], axis=0, out=gather[:len(freq[r])],
                        mode="clip")
        block *= rho[None]
        out[r] = np.matmul(block, rho[r, :, None])[..., 0]
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
