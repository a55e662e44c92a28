"""Quadrature on the complex unit ball against normalized Lebesgue measure.

The measure nu is normalized so that nu(ball) = 1.  In polar form
dnu = 2n r^(2n-1) dr x dsigma with sigma the normalized surface measure,
and the substitution t = r^2 turns the radial factor into n t^(n-1) dt,
polynomial in t.

One construction serves every dimension (the conical product rule of
Stroud, Approximate Calculation of Multiple Integrals, 1971).  For a
uniform point of the sphere, (|xi_1|^2, ..., |xi_n|^2) is uniform on the
simplex; building it one coordinate at a time, coordinate k + 1 takes a
Beta(1, k) share u of t and the earlier ones keep 1 - u.  The rule is

  Gauss-Legendre in t = |z|^2 with weight n t^(n-1),
  times Gauss-Legendre in each share u_k with weight k (1 - u_k)^(k-1),
  times A = ``angular`` uniform angles per coordinate.

At n = 1 that is the disk rule; at n = 2 the share is the Hopf latitude
x = sin^2.  With p points per panel the rule is exact for degree
min(2p - n, A - 1).

Radial break points split the t-interval into panels so that piecewise
polynomial radial factors (compactly supported symbol profiles) are
integrated exactly.

Node order is part of the contract of ``build_rule``.  The nodes run
over radial slices (t, then u_1, ..., u_{n-1}) and, within a slice, over
the angle grid theta_j = 2 pi k_j / A with the last coordinate's angle
fastest; the angle-zero node of a slice is real and carries the slice's
moduli |z_j|.  ``QuadratureRule`` stores exactly that structure (slice
moduli, slice weights, A), so sums over the angles can be taken by FFT.

Functions are evaluated through ``QuadratureRule.evaluate``, one block
of whole slices at a time, and weighted per slice in place
(``QuadratureRule.weigh``).  So production code holds one (N,) array of
values and never the (N, n) nodes or the (N,) node weights; those stay
available as derived properties for reference computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import ClassVar

import numpy as np

__all__ = ["QuadratureRule", "build_rule", "rule_for_basis", "integrate",
           "panel_gauss_legendre"]

_NEWTON_STEPS = 2  # the starting nodes are already within a few ulp
_EVAL_NODES = 1 << 14  # nodes per evaluation block, in whole slices


def _legendre_with_derivative(p: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_p(x) and P_p'(x) by the three-term recurrence, for |x| < 1."""
    prev, cur = np.ones_like(x), x.copy()
    for k in range(1, p):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur, p * (prev - x * cur) / ((1.0 - x) * (1.0 + x))


@lru_cache(maxsize=None)
def _gauss_legendre(p: int) -> tuple[np.ndarray, np.ndarray]:
    """p-point Gauss-Legendre rule on [-1, 1] with weights accurate to roundoff.

    numpy's nodes are accurate, but its weights carry relative errors up
    to ~1e-11 at p ~ 100, which spoil high moments.  The nodes are polished
    by Newton steps and the weights recomputed as 2 / ((1 - x^2) P_p'(x)^2)
    (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013).  The recurrence runs
    in extended precision where the platform has it: in float64 its
    rounding biases the weights by ~2 ulp, which shows in high moments.
    Memoised; the returned arrays are shared, so they are read-only.
    """
    x, _ = np.polynomial.legendre.leggauss(p)
    x = x.astype(np.longdouble)
    for _ in range(_NEWTON_STEPS):
        val, der = _legendre_with_derivative(p, x)
        x = x - val / der
    _, der = _legendre_with_derivative(p, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * der * der)
    x, w = x.astype(float), w.astype(float)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def panel_gauss_legendre(points_per_panel: int, edges: tuple[float, ...]
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights, p per panel between
    consecutive ``edges``, none on an empty panel.

    Exact for polynomials of degree <= 2p - 1 on each panel, hence for
    global polynomials of that degree and for piecewise polynomials with
    kinks at the edges.  The exactness holds to roundoff (moments of t^k
    within a few ulp times k + 1) because the weights are refined from
    the Legendre recurrence rather than taken from numpy as is.
    """
    x, w = _gauss_legendre(points_per_panel)
    panels = [(a, 0.5 * (b - a)) for a, b in zip(edges, edges[1:]) if b > a]
    return (np.concatenate([a + half * (x + 1.0) for a, half in panels]),
            np.concatenate([half * w for _, half in panels]))


@dataclass(frozen=True)
class QuadratureRule:
    """A product rule on the ball: P radial slices times a torus of angles.

    Slice p has real moduli ``moduli[p]`` = (|z_1|, ..., |z_n|) and weight
    ``slice_weights[p]``; node (p, k) is moduli[p] * exp(2 pi i k / angular)
    coordinatewise, k ranging over the angular**n grid points with the
    last coordinate's angle fastest, and carries weight
    slice_weights[p] / angular**n.

    ``evaluate`` fills the (N,) values of a function block by block and
    ``weigh`` applies the weights to them in place, so a sum over the
    rule needs one (N,) array.  ``nodes`` (N, n) and ``weights`` (N,)
    are derived on first use, for reference computations only.

    ``exactness_degree`` D means monomials z^alpha conj(z)^beta with
    |alpha|, |beta| <= D are integrated exactly (up to roundoff).
    """

    n: int
    moduli: np.ndarray         # (P, n) real, the slice's |z_j|
    slice_weights: np.ndarray  # (P,) positive, summing to 1
    radial_points: int
    angular: int
    radial_breaks: tuple[float, ...] = field(default=())

    # Reserved: rules are deterministic, so there is no seed to record.
    seed: ClassVar[None] = None

    @property
    def exactness_degree(self) -> int:
        """Gauss-Legendre in t and in each simplex share is exact while
        |alpha| <= 2p - n; the angles separate frequencies below A."""
        return min(2 * self.radial_points - self.n, self.angular - 1)

    def grid(self, values: np.ndarray) -> np.ndarray:
        """Per-node values as a (P, angular, ..., angular) array."""
        return values.reshape((len(self.moduli),) + (self.angular,) * self.n)

    def _slice_nodes(self, start: int, stop: int) -> np.ndarray:
        """(m, n) complex nodes of slices start..stop-1, in node order."""
        n, moduli = self.n, self.moduli[start:stop]
        theta = 2.0 * np.pi * np.arange(self.angular) / self.angular
        phase = np.exp(1j * theta)
        out = np.empty((len(moduli),) + (self.angular,) * n + (n,),
                       dtype=complex)
        for j in range(n):
            axis = [1] * n
            axis[j] = self.angular
            out[..., j] = (moduli[:, j].reshape((len(moduli),) + (1,) * n)
                           * phase.reshape(axis))
        return out.reshape(-1, n)

    @cached_property
    def nodes(self) -> np.ndarray:
        """(N, n) complex nodes, strictly inside the ball."""
        return self._slice_nodes(0, len(self.moduli))

    @cached_property
    def weights(self) -> np.ndarray:
        """(N,) positive node weights, summing to 1."""
        per_slice = self.angular ** self.n
        return np.repeat(self.slice_weights / per_slice, per_slice)

    def evaluate(self, f) -> np.ndarray:
        """(N,) values of f at the nodes, equal to f(nodes) bit for bit.

        ``f`` maps an (m, n) complex array of points to (m,) finite
        values.  It is called on one block of whole slices at a time, at
        most max(2^14, angular**n) points, so its temporaries stay that
        size whatever N is.  The values keep the dtype f returns,
        promoted to at least float64 so that they can be weighted.
        """
        per_slice = self.angular ** self.n
        step = max(1, _EVAL_NODES // per_slice)
        out = None
        for start in range(0, len(self.moduli), step):
            stop = min(start + step, len(self.moduli))
            pts = self._slice_nodes(start, stop)
            vals = np.asarray(f(pts))
            if vals.shape != (len(pts),):
                raise ValueError(f"function returned shape {vals.shape}, "
                                 f"expected ({len(pts)},)")
            bad = ~np.isfinite(vals)
            if np.any(bad):
                i = int(np.argmax(bad))
                raise ValueError(f"function is not finite at node "
                                 f"{start * per_slice + i}: z = {pts[i]}")
            if out is None:
                out = np.empty(len(self),
                               dtype=np.result_type(vals.dtype, np.float64))
            out[start * per_slice:stop * per_slice] = vals
        return out

    def weigh(self, values: np.ndarray) -> np.ndarray:
        """Multiply (N,) values by the node weights, in place, and return
        them as a grid: slice p's values scale by slice_weights[p] / A^n."""
        grid = self.grid(values)
        grid *= (self.slice_weights / self.angular ** self.n).reshape(
            (-1,) + (1,) * self.n)
        return grid

    def __len__(self) -> int:
        return len(self.slice_weights) * self.angular ** self.n

    def meta(self) -> dict:
        return {
            "dimension": self.n,
            "node_count": len(self),
            "exactness_degree": int(self.exactness_degree),
            "radial_points": int(self.radial_points),
            "angular": int(self.angular),
            "radial_breaks": list(self.radial_breaks),
            "weight_sum": float(np.sum(self.slice_weights)),
        }


def build_rule(n: int, radial_points: int, angular: int | None = None,
               radial_breaks: tuple[float, ...] = ()) -> QuadratureRule:
    """Build the product rule for the complex n-ball.

    ``radial_points`` Gauss-Legendre points per panel in t = |z|^2 and in
    each simplex share, ``angular`` uniform angles per coordinate
    (default 4p for n = 1, 2p + 1 otherwise).
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if radial_points < 1:
        raise ValueError(f"radial_points must be >= 1, got {radial_points}")
    breaks = tuple(sorted(set(float(b) for b in radial_breaks)))
    if any(not 0.0 < b < 1.0 for b in breaks):
        raise ValueError(f"radial breaks must lie in (0, 1): {breaks}")
    if angular is None:
        angular = 4 * radial_points if n == 1 else 2 * radial_points + 1

    t, wt = panel_gauss_legendre(radial_points, (0.0, *breaks, 1.0))
    radius = np.sqrt(t)
    moduli = radius[:, None]
    slice_weights = wt * n * t ** (n - 1)  # radial factor n t^(n-1) dt
    u, wu = panel_gauss_legendre(radial_points, (0.0, 1.0))
    for k in range(1, n):
        # coordinate k + 1 takes a Beta(1, k) share u of t, the others 1 - u
        share = wu * k * (1.0 - u) ** (k - 1)
        head = moduli[:, None, :] * np.sqrt(1.0 - u)[None, :, None]
        tail = radius[:, None, None] * np.sqrt(u)[None, :, None]
        moduli = np.concatenate([head, tail], axis=2).reshape(-1, k + 1)
        radius = np.repeat(radius, len(u))
        slice_weights = (slice_weights[:, None] * share[None, :]).ravel()

    return QuadratureRule(
        n=n, moduli=moduli, slice_weights=slice_weights,
        radial_points=radial_points, angular=angular, radial_breaks=breaks)


def rule_for_basis(n: int, degree: int, *, seed: int | None = None,
                   radial_breaks: tuple[float, ...] = ()) -> QuadratureRule:
    """A rule whose exactness covers Toeplitz entries at basis ``degree``.

    Targets exactness 2*degree + 4, enough for products of two basis
    elements and a polynomial symbol factor.  ``seed`` is reserved: it is
    accepted and ignored, since every rule is deterministic.
    """
    target = 2 * degree + 4
    p = (target + n + 1) // 2
    angular = target + 1
    if n == 1:
        p, angular = max(p, 12), max(angular, 64)
    return build_rule(n, p, angular=angular, radial_breaks=radial_breaks)


def integrate(f, rule: QuadratureRule) -> complex:
    """Integrate f over the ball: sum of w_i f(node_i).

    ``f`` must accept an (m, n) complex array and return (m,) values; see
    ``QuadratureRule.evaluate``.
    """
    return complex(np.sum(rule.weigh(rule.evaluate(f))))
