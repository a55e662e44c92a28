"""Quadrature on the complex unit ball against normalized Lebesgue measure.

The measure nu is normalized so that nu(ball) = 1.  In polar form
dnu = 2n r^(2n-1) dr x dsigma with sigma the normalized surface measure,
and the substitution t = r^2 turns the radial factor into n t^(n-1) dt,
polynomial in t.

Constructions:
  n = 1   Gauss-Legendre in t = |z|^2 on [0, 1] times uniform angles.
  n = 2   Gauss-Legendre in t times a Hopf product rule on the 3-sphere
          (uniform angles in both torus directions, Gauss-Legendre in
          x = sin^2 of the Hopf latitude).
  n >= 3  Gauss-Legendre in t times seeded quasi-random sphere samples
          (Sobol points pushed through the Gaussian inverse CDF); the
          rule is flagged stochastic and reports exactness 0.

Radial break points split the t-interval into panels so that piecewise
polynomial radial factors (compactly supported symbol profiles) are
integrated exactly.

Node order is part of the contract of ``build_rule``.  For n <= 2 the
nodes run over radial slices (t, then for n = 2 the Hopf latitude x)
and, within a slice, over the angle grid theta_j = 2 pi k_j / angular
with the last coordinate's angle fastest; the angle-zero node of a slice
is real and carries the slice's moduli |z_j|.  ``QuadratureRule.torus``
exposes that layout, after checking it against the nodes, so sums over
the angles can be taken by FFT.  Rules without it (n >= 3, or nodes in
another order) have ``torus = None``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

__all__ = ["QuadratureRule", "TorusLayout", "build_rule", "rule_for_basis",
           "integrate", "panel_gauss_legendre"]

_CHUNK = 4096  # fixed reduction block; keeps sums independent of job count
_NEWTON_STEPS = 2  # the starting nodes are already within a few ulp


def _legendre_with_derivative(p: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_p(x) and P_p'(x) by the three-term recurrence, for |x| < 1."""
    prev, cur = np.ones_like(x), x.copy()
    for k in range(1, p):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur, p * (prev - x * cur) / ((1.0 - x) * (1.0 + x))


def _gauss_legendre(p: int) -> tuple[np.ndarray, np.ndarray]:
    """p-point Gauss-Legendre rule on [-1, 1] with weights accurate to roundoff.

    numpy's nodes are accurate, but its weights carry relative errors up
    to ~1e-11 at p ~ 100, which spoil high moments.  The nodes are polished
    by Newton steps and the weights recomputed as 2 / ((1 - x^2) P_p'(x)^2)
    (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013).  The recurrence runs
    in extended precision where the platform has it: in float64 its
    rounding biases the weights by ~2 ulp, which shows in high moments.
    """
    x, _ = np.polynomial.legendre.leggauss(p)
    x = x.astype(np.longdouble)
    for _ in range(_NEWTON_STEPS):
        val, der = _legendre_with_derivative(p, x)
        x = x - val / der
    _, der = _legendre_with_derivative(p, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * der * der)
    return x.astype(float), w.astype(float)


def panel_gauss_legendre(points_per_panel: int,
                         breaks: tuple[float, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on [0, 1] split at ``breaks``.

    Exact for polynomials of degree <= 2p - 1 on each panel, hence for
    global polynomials of that degree and for piecewise polynomials with
    kinks at the break points.  The exactness holds to roundoff (moments
    of t^k within a few ulp times k + 1) because the weights are refined
    from the Legendre recurrence rather than taken from numpy as is.
    """
    edges = [0.0, *sorted(b for b in breaks if 0.0 < b < 1.0), 1.0]
    x, w = _gauss_legendre(points_per_panel)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        xs.append(a + half * (x + 1.0))
        ws.append(half * w)
    return np.concatenate(xs), np.concatenate(ws)


@dataclass(frozen=True)
class TorusLayout:
    """Nodes on P radial slices times a uniform angle grid per coordinate.

    Node (p, k) is moduli[p] * exp(2 pi i k / angular) coordinatewise,
    k ranging over the angular**n grid points of slice p.
    """

    moduli: np.ndarray  # (P, n) real, the slice's |z_j|
    angular: int

    def grid(self, values: np.ndarray) -> np.ndarray:
        """Per-node values as a (P, angular, ..., angular) array."""
        n = self.moduli.shape[1]
        return values.reshape((len(self.moduli),) + (self.angular,) * n)


def _torus_layout(n: int, nodes: np.ndarray,
                  angular: int) -> TorusLayout | None:
    """The torus layout of ``nodes`` if they have it, else None."""
    per_slice = angular ** n
    if angular < 1 or len(nodes) % per_slice:
        return None
    grid = nodes.reshape(-1, per_slice, n)
    base = grid[:, 0, :]
    if np.any(base.imag != 0.0) or np.any(base.real < 0.0):
        return None
    phase = np.exp(2j * np.pi * np.arange(angular) / angular)
    ks = np.indices((angular,) * n).reshape(n, -1)
    tol = 8 * np.finfo(float).eps
    for j in range(n):  # one coordinate at a time keeps temporaries at O(N)
        expected = base[:, j].real[:, None] * phase[ks[j]][None, :]
        if np.max(np.abs(grid[:, :, j] - expected)) > tol:
            return None
    return TorusLayout(moduli=base.real.copy(), angular=angular)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights on the ball, with exactness metadata.

    ``exactness_degree`` D means monomials z^alpha conj(z)^beta with
    |alpha|, |beta| <= D are integrated exactly (up to roundoff).  Rules
    with a stochastic spherical part report D = 0 and carry a warning
    flag.
    """

    n: int
    nodes: np.ndarray    # (N, n) complex, strictly inside the ball
    weights: np.ndarray  # (N,) positive, summing to 1
    exactness_degree: int
    radial_points: int
    angular: int
    seed: int | None = None
    stochastic_sphere: bool = False
    radial_breaks: tuple[float, ...] = field(default=())

    @cached_property
    def torus(self) -> TorusLayout | None:
        """The torus layout of the nodes, or None where they lack it.

        Checked against the nodes themselves on first use, so a rule
        rebuilt with its nodes in another order (dataclasses.replace)
        cannot claim it.
        """
        if self.stochastic_sphere or self.n > 2:
            return None
        return _torus_layout(self.n, self.nodes, self.angular)

    def __len__(self) -> int:
        return len(self.weights)

    def meta(self) -> dict:
        return {
            "dimension": self.n,
            "node_count": int(len(self.weights)),
            "exactness_degree": int(self.exactness_degree),
            "radial_points": int(self.radial_points),
            "angular": int(self.angular),
            "seed": self.seed,
            "stochastic_sphere": bool(self.stochastic_sphere),
            "radial_breaks": list(self.radial_breaks),
            "weight_sum": float(np.sum(self.weights)),
        }


def _disk_rule(radial_points: int, angular: int,
               breaks: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray, int]:
    t, wt = panel_gauss_legendre(radial_points, breaks)
    theta = 2.0 * np.pi * np.arange(angular) / angular
    radii = np.sqrt(t)
    nodes = (radii[:, None] * np.exp(1j * theta)[None, :]).reshape(-1, 1)
    weights = np.repeat(wt / angular, angular)
    exact = min(2 * radial_points - 1, angular - 1)
    return nodes, weights, exact


def _hopf_rule(radial_points: int, angular: int,
               breaks: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray, int]:
    t, wt = panel_gauss_legendre(radial_points, breaks)
    wt = wt * 2.0 * t  # radial factor n t^(n-1) dt, n = 2
    x, wx = panel_gauss_legendre(radial_points, ())
    th = 2.0 * np.pi * np.arange(angular) / angular
    phase = np.exp(1j * th)

    rad = np.sqrt(t)
    c1 = np.sqrt(1.0 - x)
    c2 = np.sqrt(x)
    # node (sqrt(t(1-x)) e^{i th1}, sqrt(t x) e^{i th2}), weight product
    z1 = (rad[:, None, None, None] * c1[None, :, None, None]
          * phase[None, None, :, None])
    z2 = (rad[:, None, None, None] * c2[None, :, None, None]
          * phase[None, None, None, :])
    z1 = np.broadcast_to(z1, (len(t), len(x), angular, angular))
    z2 = np.broadcast_to(z2, (len(t), len(x), angular, angular))
    nodes = np.stack([z1.ravel(), z2.ravel()], axis=1)
    weights = (wt[:, None, None, None] * wx[None, :, None, None]
               * np.full((angular, angular), angular ** -2.0)[None, None])
    weights = weights.ravel()
    exact = min(2 * radial_points - 2, angular - 1)
    return nodes, weights, exact


def _sphere_sample_rule(n: int, radial_points: int, count: int, seed: int,
                        breaks: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray, int]:
    t, wt = panel_gauss_legendre(radial_points, breaks)
    wt = wt * n * t ** (n - 1)
    sob = qmc.Sobol(d=2 * n, scramble=True, seed=seed)
    u = sob.random(count)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    g = ndtri(u)
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    xi = g[:, :n] + 1j * g[:, n:]
    rad = np.sqrt(t)
    nodes = (rad[:, None, None] * xi[None, :, :]).reshape(-1, n)
    weights = np.repeat(wt / count, count)
    return nodes, weights, 0


def build_rule(n: int, radial_points: int, angular: int | None = None,
               seed: int | None = None,
               radial_breaks: tuple[float, ...] = ()) -> QuadratureRule:
    """Build a quadrature rule for the complex n-ball.

    ``angular`` is the number of uniform angles per torus circle for
    n <= 2, and the number of quasi-random sphere samples for n >= 3
    (where ``seed`` controls the sampling and is required).
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if radial_points < 1:
        raise ValueError(f"radial_points must be >= 1, got {radial_points}")
    breaks = tuple(sorted(set(float(b) for b in radial_breaks)))
    if any(not 0.0 < b < 1.0 for b in breaks):
        raise ValueError(f"radial breaks must lie in (0, 1): {breaks}")

    stochastic = False
    if n == 1:
        angular = angular if angular is not None else 4 * radial_points
        nodes, weights, exact = _disk_rule(radial_points, angular, breaks)
    elif n == 2:
        angular = angular if angular is not None else 2 * radial_points + 1
        nodes, weights, exact = _hopf_rule(radial_points, angular, breaks)
    else:
        angular = angular if angular is not None else 4096
        seed = 0 if seed is None else seed
        nodes, weights, exact = _sphere_sample_rule(
            n, radial_points, angular, seed, breaks)
        stochastic = True

    return QuadratureRule(
        n=n, nodes=nodes, weights=weights, exactness_degree=exact,
        radial_points=radial_points, angular=angular, seed=seed,
        stochastic_sphere=stochastic, radial_breaks=breaks)


def rule_for_basis(n: int, degree: int, *, margin: int = 4,
                   seed: int | None = None,
                   radial_breaks: tuple[float, ...] = ()) -> QuadratureRule:
    """A rule whose exactness covers Toeplitz entries at basis ``degree``.

    Targets exactness 2*degree + margin, enough for products of two basis
    elements and a polynomial symbol factor.
    """
    target = 2 * degree + margin
    if n == 1:
        p = (target + 2) // 2
        return build_rule(n, max(p, 12), angular=max(target + 1, 64),
                          seed=seed, radial_breaks=radial_breaks)
    if n == 2:
        p = (target + 3) // 2
        return build_rule(n, p, angular=target + 1, seed=seed,
                          radial_breaks=radial_breaks)
    p = (target + 2) // 2
    return build_rule(n, p, seed=seed, radial_breaks=radial_breaks)


def _chunk_slices(total: int) -> list[slice]:
    return [slice(i, min(i + _CHUNK, total)) for i in range(0, total, _CHUNK)]


def integrate(f, rule: QuadratureRule, jobs: int = 1) -> complex:
    """Integrate f over the ball: sum of w_i f(node_i).

    ``f`` must accept an (N, n) complex array and return (N,) values.
    The reduction is blocked into fixed-size chunks summed in order, so
    the result is bit-identical for any ``jobs``.
    """
    values = np.asarray(f(rule.nodes))
    if values.shape != (len(rule),):
        raise ValueError(
            f"integrand returned shape {values.shape}, expected ({len(rule)},)")
    bad = ~np.isfinite(values)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"integrand is not finite at node {i}: z = {rule.nodes[i]}")
    terms = rule.weights * values
    slices = _chunk_slices(len(terms))
    if jobs > 1 and len(slices) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            partials = list(pool.map(lambda s: np.sum(terms[s]), slices))
    else:
        partials = [np.sum(terms[s]) for s in slices]
    return complex(np.sum(np.asarray(partials)))
