"""Toeplitz matrices on the truncated basis, commutators and operator norms.

A Toeplitz operator with bounded symbol f acts by multiply-then-project;
its compression to the truncated basis has entries <f e_alpha, e_beta>,
the quadrature sum over the rule's nodes of w f e_alpha conj(e_beta).
On the disk and Hopf rules the nodes are radial slices times uniform
angles on each torus circle, and e_alpha = rho_alpha(|z|) e^{i alpha.theta}
with rho_alpha real, so the angular part of that sum is a DFT: the
entry is sum over slices of rho_alpha rho_beta times the (beta - alpha)-th
FFT coefficient of w f on the slice (``basis.weighted_gram``).  It is the
same finite sum in another order, not an approximation, and it holds
even when the angles alias.  Rules without that layout (the stochastic
n >= 3 sphere samples) sum E^H diag(w f) E directly.

Two structured fast paths bypass quadrature:

  * radial symbols f(z) = g(|z|) give diagonal matrices, constant on
    degree blocks, from one-dimensional integrals;
  * symbols f(z) = z_j g(|z|) populate the single band beta = alpha + e_j,
    again from one-dimensional integrals.

Both reduce to I_k(g) = integral over [0,1] of t^(n+k-1) g(sqrt(t)) dt,
evaluated by composite Gauss-Legendre split at the profile's support
radius.  The integrand in t is g(sqrt(t)), so the result is exact (to
roundoff) only when g is a polynomial in |z|^2 on each panel, such as
1, |z|^2 or (1 - |z|^2/R^2)_+ at support R; a profile with odd powers
of |z|, such as |z| itself, is integrated only approximately.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .basis import TruncatedBasis, weighted_gram
from .geometry import moebius
from .quadrature import QuadratureRule, panel_gauss_legendre

__all__ = ["Symbol", "OperatorMatrix", "toeplitz_matrix", "toeplitz_radial",
           "toeplitz_monomial_radial", "toeplitz_auto", "commutator",
           "op_norm", "matrix_to_json", "matrix_to_csv"]

_PROFILE_POINTS = 120  # per-panel Gauss-Legendre size for profile integrals


@dataclass(frozen=True)
class Symbol:
    """A bounded symbol: evaluation contract plus a declared sup-norm bound.

    ``kind`` tags the structure ("radial", "monomial_radial",
    "region_indicator", "sampled"); structured kinds carry their radial
    profile g (a function of |z|), the coordinate for the monomial factor,
    and the support radius in |z| when the profile vanishes beyond it.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    sup_norm_bound: float
    kind: str = "sampled"
    profile: Callable[[np.ndarray], np.ndarray] | None = None
    coordinate: int | None = None
    support: float | None = None
    label: str = ""

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(points), dtype=complex)

    @staticmethod
    def sampled(fn, bound: float, label: str = "") -> "Symbol":
        return Symbol(fn=fn, sup_norm_bound=float(bound), kind="sampled",
                      label=label)

    @staticmethod
    def constant(value: complex) -> "Symbol":
        return Symbol(fn=lambda pts: np.full(pts.shape[0], value, complex),
                      sup_norm_bound=abs(value), kind="radial",
                      profile=lambda u: np.full(u.shape, value, complex),
                      label=f"const({value})")

    @staticmethod
    def radial(profile, bound: float, support: float | None = None,
               label: str = "") -> "Symbol":
        def fn(pts):
            return np.asarray(profile(np.linalg.norm(pts, axis=-1)),
                              dtype=complex)
        return Symbol(fn=fn, sup_norm_bound=float(bound), kind="radial",
                      profile=profile, support=support, label=label)

    @staticmethod
    def monomial_times_radial(coordinate: int, profile, bound: float,
                              support: float | None = None,
                              label: str = "") -> "Symbol":
        def fn(pts):
            u = np.linalg.norm(pts, axis=-1)
            return pts[..., coordinate] * np.asarray(profile(u), dtype=complex)
        return Symbol(fn=fn, sup_norm_bound=float(bound),
                      kind="monomial_radial", profile=profile,
                      coordinate=coordinate, support=support, label=label)

    @staticmethod
    def region_indicator(test, bound: float = 1.0, label: str = "") -> "Symbol":
        def fn(pts):
            return np.asarray(test(pts), dtype=float).astype(complex)
        return Symbol(fn=fn, sup_norm_bound=float(bound),
                      kind="region_indicator", label=label)

    def conjugate(self) -> "Symbol":
        f = self.fn
        sym = replace(self, fn=lambda pts: np.conj(f(pts)),
                      label=f"conj({self.label})" if self.label else "")
        return sym

    def compose_moebius(self, z) -> "Symbol":
        """The symbol f o phi_z (same sup-norm bound, generic kind)."""
        f = self.fn
        zz = np.asarray(z, dtype=complex)
        return Symbol(
            fn=lambda pts: np.asarray(f(moebius(zz, pts)), dtype=complex),
            sup_norm_bound=self.sup_norm_bound, kind="sampled",
            label=f"{self.label}∘φ" if self.label else "")


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix of an operator compressed to a truncated basis."""

    basis: TruncatedBasis
    mat: np.ndarray

    def __post_init__(self):
        b = len(self.basis)
        if self.mat.shape != (b, b):
            raise ValueError(
                f"matrix shape {self.mat.shape} does not match basis size {b}")

    def _check(self, other: "OperatorMatrix") -> None:
        if self.basis is not other.basis and (
                self.basis.n != other.basis.n
                or self.basis.degree != other.basis.degree
                or self.basis.indices != other.basis.indices):
            raise ValueError("operator matrices live on different bases")

    def __matmul__(self, other):
        if isinstance(other, OperatorMatrix):
            self._check(other)
            return OperatorMatrix(self.basis, self.mat @ other.mat)
        return self.mat @ other

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check(other)
        return OperatorMatrix(self.basis, self.mat + other.mat)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check(other)
        return OperatorMatrix(self.basis, self.mat - other.mat)

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix(self.basis, self.mat.conj().T)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.mat @ vec

    @staticmethod
    def identity(basis: TruncatedBasis) -> "OperatorMatrix":
        return OperatorMatrix(basis, np.eye(len(basis), dtype=complex))


def toeplitz_matrix(f: Symbol, basis: TruncatedBasis,
                    rule: QuadratureRule) -> OperatorMatrix:
    """Compression of the Toeplitz operator: entries <f e_alpha, e_beta>.

    The symbol is evaluated once at the N rule nodes.  On a rule with a
    torus layout (P radial slices, B basis elements) the matrix costs one
    FFT of those N values plus O(P B^2), in O(N + P B) memory; otherwise
    it is the dense product E^H diag(w f) E, O(N B^2) time and O(N B)
    memory.  Rule exactness below twice the basis degree leaves polynomial
    symbol entries inexact; such calls are flagged with a warning.
    """
    if rule.n != basis.n:
        raise ValueError("rule and basis dimensions differ")
    if not rule.stochastic_sphere and rule.exactness_degree < 2 * basis.degree:
        warnings.warn(
            f"rule exactness {rule.exactness_degree} is below twice the "
            f"basis degree {basis.degree}; entries may be inexact",
            stacklevel=2)
    values = f(rule.nodes)
    if not np.all(np.isfinite(values)):
        i = int(np.argmax(~np.isfinite(values)))
        raise ValueError(f"symbol is not finite at node {i}")
    return OperatorMatrix(basis, weighted_gram(basis, rule, values))


def _profile_integrals(profile, n: int, max_k: int,
                       support: float | None) -> np.ndarray:
    """I_k = integral of t^(n+k-1) g(sqrt(t)) dt on [0,1] for k = 0..max_k."""
    if support is not None and not 0.0 < support:
        raise ValueError(f"support radius must be positive, got {support}")
    breaks: tuple[float, ...] = ()
    upper = 1.0
    if support is not None and support < 1.0:
        upper = support * support
        breaks = (upper,)
    t, w = panel_gauss_legendre(_PROFILE_POINTS, breaks)
    if support is not None and support < 1.0:
        keep = t <= upper
        t, w = t[keep], w[keep]
    g = np.asarray(profile(np.sqrt(t)), dtype=complex)
    if not np.all(np.isfinite(g)):
        raise ValueError("profile is not finite on (0, 1)")
    powers = t[:, None] ** (n - 1 + np.arange(max_k + 1))[None, :]
    return (w * g) @ powers


def _log_sphere_moment(alpha: tuple[int, ...], n: int) -> float:
    """log of the normalized sphere moment (n-1)! alpha! / (n-1+|alpha|)!."""
    return (math.lgamma(n)
            + sum(math.lgamma(a + 1) for a in alpha)
            - math.lgamma(n + sum(alpha)))


def toeplitz_radial(profile, basis: TruncatedBasis,
                    support: float | None = None) -> OperatorMatrix:
    """Fast path for radial symbols f(z) = g(|z|): diagonal matrix with
    entries (n + k) I_k at total degree k."""
    n = basis.n
    integrals = _profile_integrals(profile, n, basis.degree, support)
    degs = basis.degrees
    diag = (n + degs) * integrals[degs]
    return OperatorMatrix(basis, np.diag(diag.astype(complex)))


def toeplitz_monomial_radial(coordinate: int, profile, basis: TruncatedBasis,
                             support: float | None = None) -> OperatorMatrix:
    """Fast path for f(z) = z_j g(|z|): single band beta = alpha + e_j.

    The entry at (beta, alpha) is n I_{|beta|} c_beta / (||z^alpha|| ||z^beta||)
    with c_beta the normalized sphere moment of |xi^beta|^2.
    """
    n = basis.n
    if not 0 <= coordinate < n:
        raise ValueError(f"coordinate {coordinate} out of range for n = {n}")
    integrals = _profile_integrals(profile, n, basis.degree + 1, support)
    pos = {alpha: i for i, alpha in enumerate(basis.indices)}
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for i, alpha in enumerate(basis.indices):
        beta = list(alpha)
        beta[coordinate] += 1
        beta = tuple(beta)
        j = pos.get(beta)
        if j is None:
            continue  # band exits the truncation at top degree
        log_c = _log_sphere_moment(beta, n)
        norm_prod = basis.norms[i] * basis.norms[j]
        mat[j, i] = n * integrals[sum(beta)] * math.exp(log_c) / norm_prod
    return OperatorMatrix(basis, mat)


def toeplitz_auto(f: Symbol, basis: TruncatedBasis,
                  rule: QuadratureRule) -> OperatorMatrix:
    """Route a symbol to its structured fast path when one exists.

    Radial and monomial-times-radial symbols carry their profile, so
    their matrices come from one-dimensional integrals (exact for
    piecewise-polynomial profiles); everything else goes through
    quadrature.
    """
    if f.kind == "radial" and f.profile is not None:
        return toeplitz_radial(f.profile, basis, support=f.support)
    if f.kind == "monomial_radial" and f.profile is not None:
        return toeplitz_monomial_radial(f.coordinate, f.profile, basis,
                                        support=f.support)
    return toeplitz_matrix(f, basis, rule)


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """[A, B] = AB - BA."""
    return a @ b - b @ a


def op_norm(a: OperatorMatrix | np.ndarray) -> float:
    """Operator norm: largest singular value (full decomposition)."""
    mat = a.mat if isinstance(a, OperatorMatrix) else np.asarray(a)
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    if mat.size == 0:
        return 0.0
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def matrix_to_json(a: OperatorMatrix) -> dict:
    return {"dimension": a.basis.n, "degree": a.basis.degree,
            "re": a.mat.real.tolist(), "im": a.mat.imag.tolist()}


def matrix_to_csv(a: OperatorMatrix) -> str:
    """CSV with header row; entries as re/im pairs."""
    lines = ["row,col,re,im"]
    for i in range(a.mat.shape[0]):
        for j in range(a.mat.shape[1]):
            v = a.mat[i, j]
            lines.append(f"{i},{j},{v.real!r},{v.imag!r}")
    return "\n".join(lines) + "\n"
