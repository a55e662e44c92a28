"""Finite model of the Bergman space: truncated monomial basis, kernels,
expansions and projection.

The monomials z^alpha are orthogonal; their norms satisfy
||z^alpha||^2 = n! alpha! / (n + |alpha|)!, computed through log-gamma to
keep relative error near machine precision at any degree.  A truncated
basis collects all normalized monomials e_alpha with |alpha| <= d in
graded lexicographic order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import as_point, inner
from .quadrature import QuadratureRule

__all__ = ["multi_indices", "monomial_norm", "TruncatedBasis", "Expansion",
           "kernel", "kernel_expansion", "weighted_gram", "project"]

_BLOCK = 1 << 20  # complex entries per gathered (rows, B, slices) block


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
    """||z^alpha|| = sqrt(n! alpha! / (n + |alpha|)!)."""
    if len(alpha) != n or any(a < 0 for a in alpha):
        raise ValueError(f"invalid multi-index {alpha} for dimension {n}")
    total = sum(alpha)
    log_sq = (math.lgamma(n + 1)
              + sum(math.lgamma(a + 1) for a in alpha)
              - math.lgamma(n + total + 1))
    return math.exp(0.5 * log_sq)


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

    def index_of(self, alpha: tuple[int, ...]) -> int:
        return self.indices.index(tuple(alpha))

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

    def to_json(self) -> dict:
        return {"dimension": self.n, "degree": self.degree,
                "indices": [list(a) for a in self.indices],
                "norms": self.norms.tolist()}


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

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def to_json(self) -> dict:
        return {"re": self.coeffs.real.tolist(),
                "im": self.coeffs.imag.tolist()}


def kernel(z, w) -> np.ndarray:
    """Normalized reproducing kernel k_z evaluated at w.

    k_z(w) = (1 - |z|^2)^((n+1)/2) (1 - <w, z>)^(-n-1); ||k_z|| = 1 and
    <g, k_z> = (1 - |z|^2)^((n+1)/2) g(z) for analytic g.
    """
    z = as_point(z, name="z")
    w = as_point(w, name="w")
    n = z.shape[-1]
    zz = np.sum(np.abs(z) ** 2, axis=-1)
    return ((1.0 - zz) ** (0.5 * (n + 1))
            * (1.0 - inner(w, z)) ** (-(n + 1)))


def kernel_expansion(z, basis: TruncatedBasis) -> Expansion:
    """Truncated expansion of k_z: coefficients (1-|z|^2)^((n+1)/2) conj(e_a(z))."""
    z = as_point(z, name="z")
    if z.ndim != 1:
        raise ValueError("kernel_expansion expects a single point")
    zz = float(np.sum(np.abs(z) ** 2))
    coeffs = ((1.0 - zz) ** (0.5 * (basis.n + 1))
              * np.conj(basis.eval(z[None, :])[0]))
    return Expansion(basis=basis, coeffs=coeffs)


def weighted_gram(basis: TruncatedBasis, rule: QuadratureRule,
                  values: np.ndarray) -> np.ndarray:
    """G[beta, alpha] = sum_i w_i values_i e_alpha(x_i) conj(e_beta(x_i)).

    On a rule with a torus layout (``rule.torus``), node (p, k) has
    e_alpha = rho_alpha(p) exp(i alpha.theta_k) with rho_alpha(p) real, so

        G[beta, alpha] = sum_p rho_beta(p) rho_alpha(p) F_p[beta - alpha]

    with beta - alpha taken mod A = ``angular`` in each coordinate, where
    F_p is the n-dimensional DFT of w * values over the angles of slice p.
    This is the same finite sum reordered, exact even when the angles
    alias 2 * degree.  It costs one FFT of the N values plus
    O(P B^2) for P slices and B basis elements, in O(N + P B) memory.
    Other rules take the dense product E^H diag(w * values) E, in O(N B)
    memory.
    """
    weighted = rule.weights * values
    layout = rule.torus
    if layout is None:
        emat = basis.eval(rule.nodes)
        return emat.conj().T @ (weighted[:, None] * emat)
    n, size, slices = basis.n, len(basis), len(layout.moduli)
    spec = np.fft.fftn(layout.grid(weighted), axes=tuple(range(1, n + 1)))
    # frequency-major, so a gather reads whole rows of P slice values
    spec = np.ascontiguousarray(spec.reshape(slices, -1).T)
    rho = basis.eval(layout.moduli).real.T  # (B, P) at the angle-zero nodes
    idx = np.asarray(basis.indices)
    diff = (idx[:, None, :] - idx[None, :, :]) % layout.angular
    freq = np.ravel_multi_index(tuple(np.moveaxis(diff, -1, 0)),
                                (layout.angular,) * n)
    out = np.empty((size, size), dtype=complex)
    rows = max(1, _BLOCK // (slices * size))
    for start in range(0, size, rows):
        r = slice(start, start + rows)
        block = spec[freq[r]]  # (rows, B, P): F_p[beta - alpha]
        block *= rho[None]
        out[r] = np.matmul(block, rho[r, :, None])[..., 0]
    return out


def project(f, basis: TruncatedBasis, rule: QuadratureRule) -> Expansion:
    """Orthogonal projection onto the truncated basis by quadrature.

    ``f`` maps an (N, n) array of points to (N,) values; the coefficient
    at alpha is the rule's value of <f, e_alpha>, the alpha-th entry of
    the weighted Gram column at e_0 = 1.
    """
    if rule.n != basis.n:
        raise ValueError("rule and basis dimensions differ")
    values = np.asarray(f(rule.nodes))
    if not np.all(np.isfinite(values)):
        i = int(np.argmax(~np.isfinite(values)))
        raise ValueError(f"integrand is not finite at node {i}")
    coeffs = weighted_gram(basis, rule, values)[:, 0]
    return Expansion(basis=basis, coeffs=coeffs)
