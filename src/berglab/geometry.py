"""Geometry of the complex unit ball.

Moebius involutions, the pseudo-hyperbolic metric rho, metric balls
E(a, r) and their Euclidean ellipsoid description.

A point of the ball is a 1-D complex array z of length n with |z| < 1.
Every function broadcasts over leading axes, so stacks of shape (..., n)
work anywhere a single point does, with the same bits in either memory
layout; the samplers return coordinate-major stacks.

Conventions:
    phi_a(z) = (a - P_a z - sqrt(1 - |a|^2) Q_a z) / (1 - <z, a>)
with P_a the projection onto span(a) (P_0 = 0, hence phi_0 = -identity),
and rho(z, w) = |phi_z(w)|, evaluated without phi (see pseudo_metric).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_point",
    "inner",
    "moebius",
    "pseudo_metric",
    "metric_combined_bound",
    "disjoint_threshold",
    "EllipsoidParams",
    "ellipsoid_params",
    "in_metric_ball",
    "in_ellipsoid",
    "delta_for",
    "sample_ball",
    "sample_ball_blocks",
    "sample_metric_ball",
    "random_sphere_points",
]


def _dot(x, y) -> np.ndarray:
    """sum_i x_i y_i over the last axis (einsum: np.sum is slower on n <= 3).

    It fixes the bits of ``inner`` and rho: numpy's complex multiply rounds
    unlike einsum's, so a loop over the coordinates would move them."""
    return np.einsum("...i,...i->...", x, y)


def _norm2(z) -> np.ndarray:
    """|z|^2 over the last axis, as a real array.

    Coordinate by coordinate, one pass squares the real and imaginary
    parts together and adds them to the sums so far, real parts apart
    from imaginary ones: the bits of two einsum sums over the real and
    imaginary views, at about two thirds of their cost for n <= 3."""
    z = np.asarray(z, dtype=complex)
    parts = z[..., None].view(np.float64)  # (..., n, 2): real, imaginary
    acc = np.square(parts[..., 0, :])
    for k in range(1, z.shape[-1]):
        acc += np.square(parts[..., k, :])
    return acc[..., 0] + acc[..., 1]


def _gap(zz) -> np.ndarray:
    """1 - |z|^2 as (1 - |z|)(1 + |z|): exact up to one rounding on the rays
    z = t e_j, as sqrt(fl(t^2)) = t; 1 - fl(t^2) is not near t = 1."""
    m = np.sqrt(zz)
    return (1.0 - m) * (1.0 + m)


def _point(z, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(z as a complex array, |z|^2), after checking |z| < 1."""
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    zz = _norm2(arr)
    if not np.all(zz < 1.0):
        bad = float(np.sqrt(np.max(zz)))
        raise ValueError(f"{name} must lie strictly inside the unit ball "
                         f"(max |z| = {bad:.17g})")
    return arr, zz


def as_point(z, *, name: str = "point") -> np.ndarray:
    """Coerce to a complex array of ball points; validate |z| < 1.

    Accepts a scalar (read as a point of the 1-dimensional ball), a length-n
    sequence, or any stack of shape (..., n).
    """
    return _point(z, name)[0]


def _check_same_dim(*points: np.ndarray) -> int:
    dims = {p.shape[-1] for p in points}
    if len(dims) != 1:
        raise ValueError(f"dimension mismatch: {sorted(dims)}")
    return dims.pop()


def inner(z, w) -> np.ndarray:
    """Hermitian inner product <z, w> = sum_i z_i * conj(w_i) (last axis)."""
    return _dot(np.asarray(z, dtype=complex),
                np.conj(np.asarray(w, dtype=complex)))


def moebius(a, z) -> np.ndarray:
    """Evaluate the involutive automorphism phi_a at z.

    phi_a exchanges 0 and a and is an involution: phi_a(phi_a(z)) = z.
    With s = sqrt(1 - |a|^2) and (1 - s)/|a|^2 = 1/(1 + s) it is
    ((1 - <z, a>/(1 + s)) a - s z) / (1 - <z, a>), with no case at a = 0.
    Broadcasts over leading axes of both arguments.
    """
    a, aa = _point(a, "a")
    z, _ = _point(z, "z")
    _check_same_dim(a, z)
    return _moebius(a, aa, z)


def _moebius(a, aa, z) -> np.ndarray:
    """phi_a(z) of ``moebius`` for checked points, aa = |a|^2.

    One complex division per point, q = 1/(1 - <z, a>), and then one
    multiply-add per coordinate, phi_a(z) = c_a a + c_z z with
    c_a = (1 - <z, a>/(1 + s)) q, c_z = -s q and s = sqrt(1 - |a|^2),
    into a coordinate-major result.  Within a few ulp of the form in
    ``moebius``'s docstring, which divides every coordinate.
    """
    s = np.sqrt(_gap(aa))
    ac = a.conj()
    za = z[..., 0] * ac[..., 0]
    for k in range(1, z.shape[-1]):
        za += z[..., k] * ac[..., k]
    q = 1.0 / (1.0 - za)
    # numpy's za / (1 + s) multiplies by the reciprocal too: same bits
    c_a, c_z = (1.0 - za * (1.0 / (1.0 + s))) * q, -s * q
    out = np.empty((z.shape[-1], *c_a.shape), dtype=complex)
    for k in range(len(out)):
        part = out[k, ...]
        np.multiply(c_a, a[..., k], out=part)
        part += c_z * z[..., k]
    return out.transpose(*range(1, out.ndim), 0)


def _rho(z, zz, w) -> np.ndarray:
    """rho(z, w) of ``pseudo_metric`` for checked points, zz = |z|^2."""
    h = w - z
    hz = _dot(h, z.conj())
    gap = _gap(zz)
    num = gap * _norm2(h) + (hz.real ** 2 + hz.imag ** 2)
    # |1 - <w, z>|^2 = |gap - <h, z>|^2, in real parts
    return np.sqrt(num / ((gap - hz.real) ** 2 + hz.imag ** 2))


def pseudo_metric(z, w) -> np.ndarray:
    """Pseudo-hyperbolic metric rho(z, w) = |phi_z(w)|, in [0, 1).

    With h = w - z, Rudin's identity for 1 - rho^2 (Function Theory in
    the Unit Ball of C^n, Thm 2.2.2) rearranges to

        rho^2 = ((1 - |z|^2) |h|^2 + |<h, z>|^2) / |1 - <w, z>|^2,

    nonnegative terms that vanish exactly at w = z: within 1e-15 of 50
    digits at |z - w| = 1e-9 and at |z| = 1 - 1e-6 on a coordinate ray
    (|phi_z(w)| was off by up to 5e-7).  Broadcasts like ``moebius``.
    """
    z, zz = _point(z, "z")
    w, _ = _point(w, "w")
    _check_same_dim(z, w)
    return _rho(z, zz, w)


def metric_combined_bound(z, w, u) -> tuple[np.ndarray, np.ndarray]:
    """Return (lhs, rhs) of the combined-metric inequality

        rho(z, w) <= (rho(z, u) + rho(u, w)) / (1 + rho(z, u) rho(u, w)).

    Checks each point once; the rho are ``pseudo_metric``'s bit for bit.
    """
    (z, zz), (w, _), (u, uu) = _point(z, "z"), _point(w, "w"), _point(u, "u")
    _check_same_dim(z, w, u)
    lhs = _rho(z, zz, w)
    a = _rho(z, zz, u)
    b = _rho(u, uu, w)
    rhs = (a + b) / (1.0 + a * b)
    return lhs, rhs


def disjoint_threshold(r1: float, r2: float) -> float:
    """Threshold t = (r1 + r2)/(1 + r1 r2).

    If rho(z, w) >= t then E(z, r1) and E(w, r2) are disjoint.
    """
    if not (0.0 < r1 < 1.0 and 0.0 < r2 < 1.0):
        raise ValueError(f"radii must lie in (0, 1), got {r1}, {r2}")
    return (r1 + r2) / (1.0 + r1 * r2)


@dataclass(frozen=True)
class EllipsoidParams:
    """Euclidean parameters of the metric ball E(a, r).

    E(a, r) is the ellipsoid of center ``center``, semiaxis r*s along the
    direction of a and r*sqrt(s) transverse to it, where
    s = (1 - |a|^2)/(1 - r^2 |a|^2).  axis_direction is None when a = 0
    (the ellipsoid degenerates to the round ball B(0, r)).
    """

    center: np.ndarray
    s: float
    radial_semiaxis: float
    transverse_semiaxis: float
    axis_direction: np.ndarray | None


def _ellipsoid(aa, r: float):
    """(s, c) of E(a, r) from aa = |a|^2, its center being c * a."""
    return (1.0 - aa) / (1.0 - r * r * aa), (1.0 - r * r) / (1.0 - r * r * aa)


def ellipsoid_params(a, r: float) -> EllipsoidParams:
    """Ellipsoid parameters (c, s) of E(a, r)."""
    a, aa = _point(a, "a")
    if a.ndim != 1:
        raise ValueError("ellipsoid_params expects a single center point")
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0, 1), got {r}")
    amod2 = float(aa)
    s, c = _ellipsoid(amod2, r)
    if amod2 > 0.0:
        direction = a / np.sqrt(amod2)
    else:
        direction = None
    return EllipsoidParams(
        center=c * a,
        s=s,
        radial_semiaxis=r * s,
        transverse_semiaxis=r * np.sqrt(s),
        axis_direction=direction,
    )


def in_metric_ball(a, r: float, z) -> np.ndarray:
    """Membership test rho(z, a) < r (strict).  Broadcasts over z."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0, 1), got {r}")
    return pseudo_metric(z, a) < r


def in_ellipsoid(a, r: float, z) -> np.ndarray:
    """Membership in E(a, r) through the ellipsoid inequality

        |P z - c|^2 / (r^2 s^2) + |Q z|^2 / (r^2 s) < 1,

    or |z| < r where a = 0.  Broadcasts over z and over centers a.
    Agrees with in_metric_ball away from the common boundary.
    """
    a, aa = _point(a, "a")
    z, zz = _point(z, "z")
    _check_same_dim(a, z)
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0, 1), got {r}")
    s, c = _ellipsoid(aa, r)
    at_zero = aa == 0.0
    proj = (_dot(z, a.conj()) / np.where(at_zero, 1.0, aa))[..., None] * a
    lhs = (_norm2(proj - c[..., None] * a) / (r * r * s ** 2)
           + _norm2(z - proj) / (r * r * s))
    return np.where(at_zero, zz < r * r, lhs < 1.0)


def delta_for(r: float, eps: float) -> float:
    """A delta > 0 with 2 r sqrt(2 delta / (1 - r^2)) + delta < eps.

    Closed form delta = min(eps/2, (1 - r^2) eps^2 / (32 r^2)); each summand
    is then at most eps/2, with strict slack whenever the two branches
    differ.  Consequence: if |a - zeta| < delta for a boundary direction
    zeta, every point of E(a, r) lies within eps of zeta.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0, 1), got {r}")
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    return min(eps / 2.0, (1.0 - r * r) * eps * eps / (32.0 * r * r))


def _ball_points(x: np.ndarray, scale) -> np.ndarray:
    """x / |x| * scale for normal draws x (..., 2n): bit for bit the points
    x[..., :n] + 1j x[..., n:] of C^n, as the (..., n) view of an (n, ...)
    buffer.  |x|^2 adds column by column as numpy's norm does for fewer
    than 8 terms; longer rows keep that norm's pairwise reduction."""
    n = x.shape[-1] // 2
    xt = x.transpose(-1, *range(x.ndim - 1))
    if 2 * n < 8:
        nrm2 = xt[0] * xt[0]
        for xk in xt[1:]:
            nrm2 += xk * xk
    else:
        nrm2 = np.add.reduce(x * x, axis=-1)
    nrm = np.sqrt(nrm2)
    out = np.empty((n, *x.shape[:-1]), dtype=complex)
    for part, xs in ((out.real, xt[:n]), (out.imag, xt[n:])):
        np.divide(xs, nrm, out=part)
        part *= scale
    return out.transpose(*range(1, out.ndim), 0)


def sample_ball(n: int, count: int, rng: np.random.Generator,
                radius: float = 1.0) -> np.ndarray:
    """Uniform samples from the complex n-ball of the given radius.

    Uniform with respect to Lebesgue measure on C^n = R^(2n): Gaussian
    direction (2n normal draws per point, then one uniform U per point)
    times radius U^(1/(2n)), returned coordinate-major.
    """
    x = rng.standard_normal((count, 2 * n))
    return _ball_points(x, radius * rng.random(count) ** (1.0 / (2 * n)))


def sample_ball_blocks(n: int, count: int, rng: np.random.Generator,
                       radius: float, rows: int) -> list[np.ndarray]:
    """``sample_ball(n, count, rng, radius)`` as blocks of <= ``rows`` points.

    The draws are sample_ball's, in its order (every direction, then every
    radius), so the concatenated blocks are its points bit for bit and
    ``rng`` ends in the same state.  The blocks together hold all ``count``
    points, but ``_ball_points``' temporaries stay one block in size: whole
    draws raise the peak RSS of ``berglab all --jobs 2`` by about 6 MiB.
    """
    blocks = [rng.standard_normal((min(rows, count - i), 2 * n))
              for i in range(0, count, rows)]
    for k, x in enumerate(blocks):
        blocks[k] = _ball_points(
            x, radius * rng.random(len(x)) ** (1.0 / (2 * n)))
    return blocks


def sample_metric_ball(a, r, count: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Exact samples of E(a, r): the image under phi_a of uniform B(0, r).

    Centers (..., n) and one radius r or one per center give (..., count, n),
    drawn from ``rng`` exactly as by one ``sample_ball`` call per center in
    turn, into one stack of draws that is finished at once.  With |r| <= 1
    the draws lie in the ball, so phi_a takes them unchecked.
    """
    if not np.all(np.abs(r) <= 1.0):
        raise ValueError(f"metric ball radius must be at most 1, got {r}")
    a, aa = _point(a, "a")
    lead, n = a.shape[:-1], a.shape[-1]
    x, u = np.empty((*lead, count, 2 * n)), np.empty((*lead, count))
    for xi, ui in zip(x.reshape(-1, count, 2 * n), u.reshape(-1, count)):
        rng.standard_normal(out=xi)
        rng.random(out=ui)
    pts = _ball_points(x, np.broadcast_to(r, lead)[..., None]
                       * u ** (1.0 / (2 * n)))
    del x, u  # free the draws before phi_a's temporaries
    return _moebius(a[..., None, :], aa[..., None], pts)


def random_sphere_points(n: int, count: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Uniform points of the unit sphere of C^n, coordinate-major."""
    return _ball_points(rng.standard_normal((count, 2 * n)), 1.0)
