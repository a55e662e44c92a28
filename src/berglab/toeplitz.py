"""Toeplitz matrices on the truncated basis, commutators and operator norms.

A Toeplitz operator with bounded symbol f acts by multiply-then-project;
its compression to the truncated basis has entries <f e_alpha, e_beta>,
the quadrature sum over the rule's nodes of w f e_alpha conj(e_beta).
Every rule's nodes are radial slices times uniform angles on each torus
circle, and e_alpha = rho_alpha(|z|) e^{i alpha.theta} with rho_alpha
real, so the angular part of that sum is a DFT: the entry is sum over
slices of rho_alpha rho_beta times the (beta - alpha)-th FFT coefficient
of w f on the slice (``basis.weighted_gram``).  It is the same finite
sum in another order, not an approximation, and it holds even when the
angles alias.  A symbol that declares coordinates along whose angles it
is constant (``Symbol.invariant``, such as Proposition 1's cutoff eta
for F = {e_j}) is evaluated with those angles held at 0, and its matrix
is assembled block by block over the indices that agree there: A^k
nodes per slice for the k other coordinates instead of A^n.

Two fast paths bypass quadrature: radial symbols f(z) = g(|z|) give
diagonal matrices, constant on degree blocks (``toeplitz_radial``), and
symbols f(z) = z_j g(|z|) populate the single band beta = alpha + e_j
(``toeplitz_monomial_radial``).  ``unitaries.toeplitz_route`` decides
which route a symbol takes: one of these two, quadrature, or the exact
compression of a Moebius-composed symbol.

Both fast paths reduce to I_k(g) = integral over [0,1] of t^(n+k-1)
g(sqrt(t)) dt, evaluated by composite Gauss-Legendre split at the
profile's support radius.  The integrand in t is g(sqrt(t)), so the
result is exact (to roundoff) only when g is a polynomial in |z|^2 on
each panel, such as 1, |z|^2 or (1 - |z|^2/R^2)_+ at support R; a profile
with odd powers of |z|, such as |z| itself, is integrated only
approximately.  Each I_k is summed on its own, so it does not depend on
how many are taken: an entry is the same at every basis degree.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .basis import TruncatedBasis, weighted_gram
from .geometry import _norm2, moebius, pseudo_metric
from .quadrature import QuadratureRule, panel_gauss_legendre

__all__ = ["Symbol", "OperatorMatrix", "toeplitz_matrix", "toeplitz_radial",
           "toeplitz_monomial_radial", "commutator", "op_norm"]

_PROFILE_POINTS = 120  # per-panel Gauss-Legendre size for profile integrals


@dataclass(frozen=True)
class Symbol:
    """A bounded symbol: evaluation contract plus a declared sup-norm bound.

    ``kind`` tags the structure ("radial", "monomial_radial", "moebius",
    "sampled").  The radial kinds carry their radial profile g (a
    function of |z|), the coordinate for the monomial factor, and the
    support radius in |z| when the profile vanishes beyond it.  The kind
    "moebius" is h o phi_c and carries h (``inner``) and c (``center``).
    ``invariant`` lists coordinates j such that f does not change when
    z_j is rotated, f(.., e^{it} z_j, ..) = f(z); quadrature then runs
    over the other coordinates' angles only (``toeplitz_matrix``).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    sup_norm_bound: float
    kind: str = "sampled"
    profile: Callable[[np.ndarray], np.ndarray] | None = None
    coordinate: int | None = None
    support: float | None = None
    label: str = ""
    inner: "Symbol | None" = None
    center: tuple[complex, ...] | None = None
    invariant: tuple[int, ...] = ()

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(points), dtype=complex)

    @staticmethod
    def sampled(fn, bound: float, label: str = "",
                invariant: tuple[int, ...] = ()) -> "Symbol":
        return Symbol(fn=fn, sup_norm_bound=float(bound), kind="sampled",
                      label=label, invariant=tuple(invariant))

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
            return np.asarray(profile(np.sqrt(_norm2(pts))), dtype=complex)
        return Symbol(fn=fn, sup_norm_bound=float(bound), kind="radial",
                      profile=profile, support=support, label=label)

    @staticmethod
    def monomial_times_radial(coordinate: int, profile, bound: float,
                              support: float | None = None,
                              label: str = "") -> "Symbol":
        def fn(pts):
            u = np.sqrt(_norm2(pts))
            return pts[..., coordinate] * np.asarray(profile(u), dtype=complex)
        return Symbol(fn=fn, sup_norm_bound=float(bound),
                      kind="monomial_radial", profile=profile,
                      coordinate=coordinate, support=support, label=label)

    def conjugate(self) -> "Symbol":
        """The symbol conj(f), sampled: the structured fast paths hold the
        profile of f, not of conj(f), so the structure is dropped."""
        f = self.fn
        return Symbol.sampled(lambda pts: np.conj(f(pts)),
                              self.sup_norm_bound,
                              label=f"conj({self.label})" if self.label else "")

    def compose_moebius(self, z) -> "Symbol":
        """The symbol f o phi_z, with the same sup-norm bound.

        A radial or monomial-times-radial f supported in |w| <= R < 1
        yields the kind "moebius", which keeps f and z so that
        ``unitaries.toeplitz_auto`` can compress it exactly as U_z T_f U_z;
        a radial f is then evaluated at points as g(rho(w, z))
        (``pseudo_metric``, accurate where f vanishes).  Any other f yields
        the sampled kind, evaluated as f(phi_z(w)).
        """
        zz = np.asarray(z, dtype=complex)
        f, profile = self.fn, self.profile
        structured = (self.kind in ("radial", "monomial_radial")
                      and profile is not None
                      and self.support is not None and self.support < 1.0)
        radial = structured and self.kind == "radial"

        def fn(pts):
            if radial:  # rho(w, z) = |phi_z(w)|
                return np.asarray(profile(pseudo_metric(pts, zz)),
                                  dtype=complex)
            return np.asarray(f(moebius(zz, pts)), dtype=complex)

        label = f"{self.label}∘φ" if self.label else ""
        if not structured:
            return Symbol(fn=fn, sup_norm_bound=self.sup_norm_bound,
                          kind="sampled", label=label)
        return Symbol(fn=fn, sup_norm_bound=self.sup_norm_bound,
                      kind="moebius", label=label, inner=self,
                      center=tuple(complex(v) for v in zz.ravel()))


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


def toeplitz_matrix(f: Symbol, basis: TruncatedBasis,
                    rule: QuadratureRule) -> OperatorMatrix:
    """Compression of the Toeplitz operator: entries <f e_alpha, e_beta>.

    The symbol is evaluated once at the N rule nodes, one block of whole
    slices at a time (``QuadratureRule.evaluate``).  With P radial slices
    and B basis elements the matrix costs one FFT of those N values plus
    O(P B^2).  Its memory is one (N,) values array, which the spectrum
    overwrites, one frequency-major copy of the spectrum and a gather
    block of at most max(2^17, B P) entries; the symbol's temporaries
    are those of one evaluation block.  Rule exactness below
    twice the basis degree leaves polynomial symbol entries inexact; such
    calls are flagged with a warning.

    A symbol with ``invariant`` coordinates is evaluated with their
    angles held at 0 (``QuadratureRule.fixed_angles``), so N shrinks by
    a factor A per such coordinate; it is the same finite sum.  The
    matrix is then block diagonal: entries pair only indices that agree
    on those coordinates (``weighted_gram``).  The declaration is
    checked first (``_check_invariant``).
    """
    if rule.n != basis.n:
        raise ValueError("rule and basis dimensions differ")
    if rule.exactness_degree < 2 * basis.degree:
        warnings.warn(
            f"rule exactness {rule.exactness_degree} is below twice the "
            f"basis degree {basis.degree}; entries may be inexact",
            stacklevel=2)
    if f.invariant:
        rule = replace(rule, fixed_angles=_check_invariant(f, rule))
    return OperatorMatrix(basis, weighted_gram(basis, rule, rule.evaluate(f)))


_INVARIANCE_TURNS = (0.9, 2.3)  # rotations that test a declared invariance


def _check_invariant(f: Symbol, rule: QuadratureRule) -> tuple[int, ...]:
    """Validate ``f.invariant`` against f; return it sorted.

    At every slice of ``rule``, f is evaluated at the angle-zero node and
    at one node with every angle turned, then again with each invariant
    coordinate rotated by the angles ``_INVARIANCE_TURNS``.  A value
    that moves by more than roundoff raises ValueError: the reduced
    assembly would otherwise drop the entries that pair indices
    differing on that coordinate.
    """
    n = rule.n
    inv = tuple(sorted(set(f.invariant)))
    if any(not 0 <= j < n for j in inv):
        raise ValueError(f"invariant coordinates {f.invariant} out of range "
                         f"for n = {n}")
    turned = np.exp(1j * _INVARIANCE_TURNS[0] * np.arange(1, n + 1))
    base = np.concatenate([rule.moduli, rule.moduli * turned]).astype(complex)
    ref = f(base)
    tol = 1e-12 * max(1.0, f.sup_norm_bound)
    for j in inv:
        for turn in _INVARIANCE_TURNS:
            pts = base.copy()
            pts[:, j] *= np.exp(1j * turn)
            moved = float(np.max(np.abs(f(pts) - ref)))
            if moved > tol:
                raise ValueError(
                    f"symbol {f.label or f.kind!r} declares coordinate {j} "
                    f"invariant, but rotating z_{j} by {turn} moves it by "
                    f"{moved:.3g}")
    return inv


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
    terms = t[None, :] ** (n - 1 + np.arange(max_k + 1))[:, None] * (w * g)
    # one pairwise sum per contiguous row, so that I_k does not depend on
    # max_k (a BLAS product sums in an order set by the width)
    return terms.sum(axis=1)


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

    The entry at (beta, alpha) is <f e_alpha, e_beta> = (n + |beta|)
    I_{|beta|} ||z^beta|| / ||z^alpha||, and the norm ratio is
    ||z^beta||^2 / ||z^alpha||^2 = (alpha_j + 1) / (n + |alpha| + 1), so
    the entry is I_{|alpha|+1} sqrt((n + |alpha| + 1)(alpha_j + 1)).
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
        j = pos.get(tuple(beta))
        if j is None:
            continue  # band exits the truncation at top degree
        k = sum(alpha) + 1
        mat[j, i] = integrals[k] * math.sqrt((n + k) * beta[coordinate])
    return OperatorMatrix(basis, mat)


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
