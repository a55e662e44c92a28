"""Toeplitz matrices on the truncated basis, and the operator norm.

A Toeplitz operator with bounded symbol f acts by multiply-then-project;
its compression to the truncated basis has entries <f e_alpha, e_beta>,
the quadrature sum over the rule's nodes of w f e_alpha conj(e_beta).
Every rule's nodes are radial slices times uniform angles on each torus
circle, and e_alpha = rho_alpha(|z|) e^{i alpha.theta} with rho_alpha
real, so the angular part of that sum is a DFT: the entry is sum over
slices of rho_alpha rho_beta times the (beta - alpha)-th FFT coefficient
of w f on the slice (``basis.weighted_gram``).  It is the same finite
sum in another order, not an approximation, and it holds even when the
angles alias.

Two fast paths bypass quadrature: radial symbols f(z) = g(|z|) give
diagonal matrices, constant on degree blocks (``toeplitz_radial``), and
symbols f(z) = z_j g(|z|) populate the single band beta = alpha + e_j
(``toeplitz_monomial_radial``).  Both are the scatter of one kernel,
``ray_bands``, which holds T_f as bands along the rays of a coordinate
axis; the exact compression of a Moebius-composed symbol multiplies
those same bands by blocks of U_c.  ``unitaries.toeplitz_blocks``
decides which route a symbol takes: one of these two, quadrature, the
exact compression of a Moebius-composed symbol, or the exact assembly of
Proposition 1's cutoff eta around points c e_j of the sphere.

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

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import TruncatedBasis, weighted_gram
from .geometry import _norm2, moebius, pseudo_metric
from .quadrature import QuadratureRule, panel_gauss_legendre

__all__ = ["Symbol", "OperatorMatrix", "toeplitz_matrix", "ray_bands",
           "apply_blocks", "toeplitz_radial", "toeplitz_monomial_radial",
           "op_norm"]

_PROFILE_POINTS = 120  # per-panel Gauss-Legendre size for profile integrals


@dataclass(frozen=True)
class Symbol:
    """A bounded symbol: evaluation contract plus a declared sup-norm bound.

    ``kind`` tags the structure ("radial", "monomial_radial", "moebius",
    "cutoff", "sampled").  The radial kinds carry their radial profile g
    (a function of |z|), the coordinate for the monomial factor, and the
    support radius in |z| when the profile vanishes beyond it.  The kind
    "moebius" is h o phi_c and carries h (``inner``) and c (``center``).
    The kind "cutoff" is g(dist(z, points)) for unit vectors ``points``,
    with g linear on [0, 2R/3] and on [2R/3, R] and 0 beyond the support
    radius R (Proposition 1's eta, ``witness.build_prop1_config``).
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
    points: tuple[tuple[complex, ...], ...] | None = None

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
        ``unitaries.toeplitz_blocks`` can compress it exactly as
        U_z T_f U_z; a radial f is then evaluated at points as
        g(rho(w, z)) (``pseudo_metric``, accurate where f vanishes).  Any
        other f yields the sampled kind, evaluated as f(phi_z(w)).
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
    """Dense complex matrix of an operator compressed to a truncated basis:
    the record the dense builders return.  Products, sums and adjoints
    are numpy operations on ``mat``."""

    basis: TruncatedBasis
    mat: np.ndarray

    def __post_init__(self):
        b = len(self.basis)
        if self.mat.shape != (b, b):
            raise ValueError(
                f"matrix shape {self.mat.shape} does not match basis size {b}")


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
    """
    if rule.n != basis.n:
        raise ValueError("rule and basis dimensions differ")
    if rule.exactness_degree < 2 * basis.degree:
        warnings.warn(
            f"rule exactness {rule.exactness_degree} is below twice the "
            f"basis degree {basis.degree}; entries may be inexact",
            stacklevel=2)
    return OperatorMatrix(basis, weighted_gram(basis, rule, rule.evaluate(f)))


def _profile_integrals(profile, n: int, max_k: int,
                       support: float | None) -> np.ndarray:
    """I_k = integral of t^(n+k-1) g(sqrt(t)) dt on [0,1] for k = 0..max_k,
    by one Gauss-Legendre panel on [0, min(R^2, 1)]: g is zero beyond
    the support radius R."""
    if support is not None and not 0.0 < support:
        raise ValueError(f"support radius must be positive, got {support}")
    upper = 1.0 if support is None else min(support * support, 1.0)
    t, w = panel_gauss_legendre(_PROFILE_POINTS, (0.0, upper))
    g = np.asarray(profile(np.sqrt(t)), dtype=complex)
    if not np.all(np.isfinite(g)):
        raise ValueError("profile is not finite on (0, 1)")
    terms = t[None, :] ** (n - 1 + np.arange(max_k + 1))[:, None] * (w * g)
    # one pairwise sum per contiguous row, so that I_k does not depend on
    # max_k (a BLAS product sums in an order set by the width)
    return terms.sum(axis=1)


def ray_bands(profile, coordinate: int | None, basis: TruncatedBasis,
              axis: int, support: float | None = None,
              degree: int | None = None) -> list:
    """T_h for h = g(|z|) (``coordinate`` None) or h = z_j g(|z|)
    (j = ``coordinate``) as triples along the rays of ``axis``.

    T_h is diagonal with (n + k) I_k at total degree k, or the single
    band beta = alpha + e_j with (n + k) I_k ||z^beta|| / ||z^alpha||
    = I_k sqrt((n + k) beta_j) at k = |beta|.  A ray is the
    positions of alpha = (alpha', a), a = 0..d - |alpha'|, for one
    off-axis multi-index alpha' (``TruncatedBasis.rays``).  The
    diagonal, and a band along the axis (row a + 1 from column a), stay
    on a ray and depend on s = |alpha'| alone; a band off the axis takes
    ray alpha' to ray alpha' + e_j and depends on s and alpha'_j.  Each
    such band is formed once, as (offset, values): values[i] sits at
    row offset + i and column i of each placement.  A triple
    (rows, cols, band) places it at every ray that shares it, with rows
    and cols (placements, ray length) arrays of basis positions
    (``apply_blocks``, ``_scatter``).

    The values are those of T_h truncated at ``degree`` (the basis
    degree by default), and a band empty there has no triple.  Above the
    basis degree they run past their placement, which only the exact
    Moebius route reads, through V (``unitaries._compress_moebius``).
    """
    n = basis.n
    if coordinate is not None and not 0 <= coordinate < n:
        raise ValueError(f"coordinate {coordinate} out of range for n = {n}")
    top = basis.degree if degree is None else degree
    ints = _profile_integrals(profile, n, top, support)
    k = np.arange(top + 1)
    diag = (n + k) * ints
    rays = basis.rays(axis)
    out = []
    for s, pos in enumerate(rays[:top + 1]):
        kk = k[s + 1:]
        if coordinate is None:
            out.append((pos, pos, (0, diag[s:])))
        elif coordinate == axis:
            band = ints[kk] * np.sqrt((n + kk) * (kk - s))
            out.append((pos, pos, (1, band)))
        elif s < min(top, basis.degree):
            # alpha' -> alpha' + e_j keeps lexicographic order, so the
            # rays of degree s + 1 with alpha'_j > 0 are the images of
            # the rays of degree s, row for row
            nxt = rays[s + 1]
            up = nxt[basis.indices[nxt[:, 0], coordinate] > 0]
            aj = basis.indices[pos[:, 0], coordinate]
            for v in dict.fromkeys(aj.tolist()):  # in order of first row
                on = aj == v
                out.append((up[on], pos[on],
                            (0, ints[kk] * np.sqrt((n + kk) * (v + 1)))))
    return [t for t in out if len(t[2][1])]


def _scatter(triples: list, basis: TruncatedBasis) -> OperatorMatrix:
    """The dense matrix of (rows, cols, block) triples on ``basis``; a
    block is a dense array or a band (offset, values) (``ray_bands``)."""
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    for rows, cols, block in triples:
        if isinstance(block, tuple):
            offset, vals = block
            m = len(vals)
            out[rows[:, offset:offset + m], cols[:, :m]] += vals
        else:
            out[rows[:, :, None], cols[:, None, :]] += block
    return OperatorMatrix(basis, out)


def apply_blocks(triples: list, x: np.ndarray) -> np.ndarray:
    """T x for T held as (rows, cols, block) triples (``ray_bands``,
    ``unitaries.toeplitz_blocks``) and x of shape (B, M): one product per
    triple, over every placement and column at once."""
    out = np.zeros(x.shape, dtype=complex)
    for rows, cols, block in triples:
        if isinstance(block, tuple):
            offset, vals = block
            m = len(vals)
            out[rows[:, offset:offset + m].T] += (vals[:, None, None]
                                                  * x[cols[:, :m].T])
            continue
        y = block @ x[cols.T].reshape(cols.shape[1], -1)
        out[rows.T] += y.reshape(rows.shape[1], rows.shape[0], -1)
    return out


def toeplitz_radial(profile, basis: TruncatedBasis,
                    support: float | None = None) -> OperatorMatrix:
    """Fast path for radial symbols f(z) = g(|z|): the diagonal matrix
    with entries (n + k) I_k at total degree k (``ray_bands``)."""
    return _scatter(ray_bands(profile, None, basis, 0, support), basis)


def toeplitz_monomial_radial(coordinate: int, profile, basis: TruncatedBasis,
                             support: float | None = None) -> OperatorMatrix:
    """Fast path for f(z) = z_j g(|z|): the single band beta = alpha + e_j
    with entries I_k sqrt((n + k) beta_j) at k = |beta| (``ray_bands``,
    along the rays of axis j)."""
    return _scatter(ray_bands(profile, coordinate, basis, coordinate,
                              support), basis)


def op_norm(mat: np.ndarray) -> float:
    """Operator norm: largest singular value (full decomposition)."""
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    if mat.size == 0:
        return 0.0
    return float(np.linalg.svd(mat, compute_uv=False)[0])
