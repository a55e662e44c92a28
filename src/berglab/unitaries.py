"""Weighted composition unitaries U_z and their truncated matrices.

U_z f = (f o phi_z) k_z is a self-adjoint unitary involution of the
Bergman space, and U_z T_f U_z* = T_{f o phi_z}.  The truncated matrix is
the compression P U_z P.  ``unitary_matrix`` (also reachable as
``unitary_matrix_exact``) builds it from exact entries, Jacobi
polynomials in 1 - 2|z|^2 at roundoff at any degree, for every z when
n = 1 and on the coordinate rays t e_j (t >= 0) when n >= 2; any other
point raises ValueError.  ``unitary_matrix_quadrature`` integrates
e_alpha(phi_z(w)) k_z(w) conj(e_beta(w)) over a rule and serves only as
the reference the exact route is compared against at moderate |z|.

The same exact entries give the Toeplitz compression of a
Moebius-composed symbol h o phi_c with h radial or monomial-times-radial
and compactly supported: T_{h o phi_c} = U_c T_h U_c, assembled as
V* T_h V with V = P_K U_c P_d, block by block, with no quadrature.

Every Toeplitz matrix whose route depends on its symbol is chosen here:
``toeplitz_route`` reads ``Symbol.kind`` once and returns the route's
record, and ``toeplitz_auto`` assembles T_f by the route it names (the
radial or banded fast path, the exact V* T_h V, or quadrature).

The compression of a unitary has norm <= 1, and P U_z P -> U_z entrywise
as the truncation degree grows; identities involving products of
compressions hold only up to a degree-dependent defect, which is why the
laboratory's checks always sweep the degree.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .basis import TruncatedBasis, kernel, kernel_expansion
from .geometry import _gap, _norm2, as_point, inner, moebius
from .quadrature import QuadratureRule
from .toeplitz import (OperatorMatrix, Symbol, _profile_integrals,
                       toeplitz_matrix, toeplitz_monomial_radial,
                       toeplitz_radial)

__all__ = ["unitary_matrix", "unitary_matrix_quadrature",
           "unitary_matrix_exact", "exact_available", "core_degree",
           "toeplitz_route", "toeplitz_auto", "weak_pairing_exact"]

# invariant guards on exact compressions, which the recurrence meets to ~1e-15
_GUARD_TOL = 1e-10


def unitary_matrix_quadrature(z, basis: TruncatedBasis,
                              rule: QuadratureRule) -> OperatorMatrix:
    """Entries <U_z e_alpha, e_beta> by quadrature: the reference the exact
    route is checked against, trustworthy only while ``rule`` resolves the
    kernel peak at w ~ z."""
    z = as_point(z, name="z")
    if z.ndim != 1 or z.shape[0] != basis.n:
        raise ValueError("z must be a single point of the basis dimension")
    if rule.n != basis.n:
        raise ValueError("rule and basis dimensions differ")
    composed = basis.eval(moebius(z, rule.nodes))
    kv = kernel(z, rule.nodes)
    emat = basis.eval(rule.nodes)
    mat = emat.conj().T @ ((rule.weights * kv)[:, None] * composed)
    return OperatorMatrix(basis, mat)


def _diagonals(zeta: complex, beta: np.ndarray, size: int) -> np.ndarray:
    """Exact entries D[a, i, delta] = <V e_a, e_{a+delta}>, a, delta < size,
    of V f = (1 - |zeta|^2)^((b+1)/2) (f o phi_zeta) (1 - conj(zeta) w)^(-b-1)
    on the weighted space with orthonormal basis e_j = w^j sqrt(C(j+b, j)),
    for each b = beta[i] >= 1 (b = 1 is U_zeta on the disk).

    D = (-1)^a N_a y_a, with y_a = P_a^(delta,b)(x) / P_a^(delta,b)(1) a
    Jacobi polynomial at x = 1 - 2|zeta|^2 and
    N_a = N_{a-1} sqrt((a+delta+b)(a+delta) / (a(a+b))),
    N_0 = (1 - |zeta|^2)^((b+1)/2) conj(zeta)^delta sqrt(C(delta+b, delta)).
    y runs the Jacobi recurrence in Reinsch's difference form,
    y_{a+1} = y_a + h_{a+1}, s = 2a + delta + b,
    h_{a+1} = (a(a+b)(s+2) h_a - (s+1)(s+2) s |zeta|^2 y_a)
              / (s (a+1+delta)(a+1+delta+b)),
    which stays at roundoff for every |zeta| < 1: the plain three-term form
    loses a^2 eps as |zeta| -> 0, and building column a+1 from column a
    (multiplying by the Blaschke factor phi_zeta) loses
    sqrt(C(a+b, a)) eps at moderate |zeta|.  Each step of a is one vector
    operation over all b and delta.
    """
    t = abs(zeta)
    a = np.arange(size)[:, None, None]
    delta = np.arange(size)
    beta = np.asarray(beta, dtype=float)[:, None]
    db = delta + beta
    s = 2 * a + db
    keep = a * (a + beta) * (s + 2) / (s * (a + 1 + delta) * (a + 1 + db))
    pull = t * t * (s + 1) * (s + 2) / ((a + 1 + delta) * (a + 1 + db))
    y, h = np.ones(s.shape), 0.0
    for i in range(size - 1):
        h = keep[i] * h - pull[i] * y[i]
        y[i + 1] = y[i] + h
    amp = np.ones(s.shape, dtype=complex)
    amp[0, :, 1:] = np.cumprod(np.sqrt((beta + delta[1:]) / delta[1:]), axis=1)
    amp[0] *= ((1.0 - t) * (1.0 + t)) ** (0.5 * (beta + 1)) * np.conj(zeta) ** delta
    amp[1:] = np.sqrt((a[1:] + db) * (a[1:] + delta) / (a[1:] * (a[1:] + beta)))
    return (-1.0) ** a * np.cumprod(amp, axis=0) * y


def exact_available(z, n: int) -> bool:
    """Exact entries exist for every z when n = 1, and for points on a
    coordinate ray t e_j (t >= 0 real) when n >= 2."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if n == 1:
        return True
    nz = np.abs(z) > 0.0
    if np.count_nonzero(nz) > 1:
        return False
    if not np.any(nz):
        return True
    j = int(np.argmax(nz))
    return abs(z[j].imag) == 0.0 and z[j].real >= 0.0


def _ray_positions(basis: TruncatedBasis, axis: int) -> dict:
    """Per off-axis multi-index alpha' (alpha without its axis component),
    the basis positions of alpha = (alpha', a) for a = 0..d - |alpha'|."""
    groups: dict = {}
    for i, alpha in enumerate(basis.indices):
        rest = alpha[:axis] + alpha[axis + 1:]
        groups.setdefault(rest, []).append((alpha[axis], i))
    return {rest: np.array([i for _, i in sorted(pairs)])
            for rest, pairs in groups.items()}


def _ray_blocks(zeta: complex, n: int, rows: int, cols: int) -> list:
    """Blocks of P_rows U_z P_cols for z = zeta e_axis, one per off-axis
    degree s <= min(rows, cols) (only s = 0 when n = 1).

    U_z maps z^alpha to (-1)^s w'^alpha' (1 - |zeta|^2)^((s+n+1)/2)
    (zeta - w_axis)^a (1 - conj(zeta) w_axis)^(-(a+s+n+1)), with a the
    axis component of alpha, alpha' the rest and s = |alpha'|.  So the
    entry at (beta, alpha) vanishes unless beta' = alpha', and every
    alpha' of degree s shares block s: rows a = 0..rows - s, columns
    a = 0..cols - s, from ``_diagonals`` at b = s + n (its basis carries
    the norm ratios), conjugated above the diagonal.
    """
    top = min(rows, cols) if n > 1 else 0
    diag = _diagonals(zeta, np.arange(top + 1) + n, max(rows, cols) + 1)
    blocks = []
    for s in range(top + 1):
        ar = np.arange(rows - s + 1)[:, None]
        ac = np.arange(cols - s + 1)[None, :]
        vals = diag[np.minimum(ar, ac), s, np.abs(ar - ac)]
        blocks.append(np.where(ar >= ac, vals, vals.conj()) * (-1.0) ** s)
    return blocks


def unitary_matrix_exact(z, basis: TruncatedBasis) -> OperatorMatrix:
    """Exact compression P U_z P (no quadrature error source).

    For z = zeta e_axis the matrix is block diagonal in the off-axis
    multi-index alpha', with one block per off-axis degree
    (``_ray_blocks``); n = 1 is the single block s = 0.

    Raises ValueError when the result breaks an invariant every
    compression of U_z keeps: finite entries, self-adjointness, column
    norms <= 1 (each column is P of a unit vector) and column e_0 equal
    to the kernel expansion of k_z.
    """
    z = as_point(z, name="z")
    if z.ndim != 1 or z.shape[0] != basis.n:
        raise ValueError("z must be a single point of the basis dimension")
    if not exact_available(z, basis.n):
        raise ValueError(
            "exact entries for n >= 2 require z on a coordinate ray t e_j")
    axis = int(np.argmax(np.abs(z) > 0.0))
    blocks = _ray_blocks(complex(z[axis]), basis.n, basis.degree,
                         basis.degree)
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for rest, pos in _ray_positions(basis, axis).items():
        mat[np.ix_(pos, pos)] = blocks[sum(rest)]

    where = f"exact U_z at z={z.tolist()} (n={basis.n}, degree {basis.degree})"
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{where}: entries are not finite")
    kexp = kernel_expansion(z, basis).coeffs
    for name, value in (
            ("self-adjointness defect", np.max(np.abs(mat - mat.conj().T))),
            ("column norm excess", np.max(np.linalg.norm(mat, axis=0)) - 1.0),
            ("kernel column error", np.max(np.abs(mat[:, 0] - kexp)))):
        if value > _GUARD_TOL:
            raise ValueError(
                f"{where}: {name} {value:.3g} exceeds {_GUARD_TOL:g}")
    return OperatorMatrix(basis, mat)


# the one production route
unitary_matrix = unitary_matrix_exact


def core_degree(tail, scale: float, what: str) -> tuple[int, float]:
    """The smallest K <= 200 with tail(K) < 2^-60 scale, and tail(K).

    ``tail`` bounds what dropping every degree above K changes; ``what``
    names the quantity that sets it in the error raised when no K <= 200
    suffices.
    """
    for k in range(201):
        bound = tail(k)
        if bound < 2.0 ** -60 * scale:
            return k, bound
    raise ValueError(f"{what} needs a core degree above 200 for a tail "
                     "below 2^-60")


def _core_degree(h: Symbol, n: int) -> tuple[int, float]:
    """Core degree K of T_h for a radial or monomial-times-radial h with
    profile g supported in |w| <= R < 1, and its tail bound.

    The entries of T_h at total degree k are at most sup|g| R^(2(n+k)),
    and T_h is diagonal or a single band, so dropping every degree above
    K changes it by at most sup|g| R^(2(n+K+1)) in operator norm, at any
    truncation degree.  K is the smallest degree where that bound is
    below 2^-60 (``core_degree``); sup|g| is taken over 257 points of
    [0, R].
    """
    radius = h.support
    sup_g = float(np.max(np.abs(h.profile(np.linspace(0.0, radius, 257)))))
    return core_degree(lambda k: sup_g * radius ** (2 * (n + k + 1)), 1.0,
                       f"support radius R = {radius} at n = {n}")


def toeplitz_route(f: Symbol, n: int,
                   rule: QuadratureRule | None = None) -> dict:
    """The route by which ``toeplitz_auto`` assembles T_f at dimension n.

    This is the one place a route is chosen from ``Symbol.kind``.
    "radial" and "monomial_radial" are the one-dimensional fast paths,
    and "moebius" is the exact compression V* T_h V of f = h o phi_c,
    which needs c on a coordinate ray (``exact_available``); their
    records give the core degree K and tail bound of a "moebius" route
    (``_core_degree``) and None for the others.  Everything else is
    "quadrature" over ``rule``, which must then be given: its record
    gives the invariant axes whose angles are held at 0 and the number
    of nodes f is evaluated at (``toeplitz_matrix``).
    """
    if f.kind in ("radial", "monomial_radial") and f.profile is not None:
        return {"route": f.kind, "core_degree": None, "tail_bound": None}
    if f.kind == "moebius":
        if len(f.center) != n:
            raise ValueError(f"symbol centre has dimension {len(f.center)}, "
                             f"expected {n}")
        if exact_available(f.center, n):
            k, tail = _core_degree(f.inner, n)
            return {"route": "moebius", "core_degree": k, "tail_bound": tail}
    if rule is None:
        raise ValueError(f"symbol {f.label or f.kind!r} takes the quadrature "
                         "route: T_f needs a quadrature rule")
    axes = sorted(set(f.invariant))
    return {"route": "quadrature", "invariant_axes": axes,
            "nodes": len(replace(rule, fixed_angles=tuple(axes)))}


def toeplitz_auto(f: Symbol, basis: TruncatedBasis,
                  rule: QuadratureRule | None = None) -> OperatorMatrix:
    """T_f compressed to ``basis`` by the route ``toeplitz_route`` names:
    ``toeplitz_radial``, ``toeplitz_monomial_radial``, V* T_h V at the
    core degree (``_compress_moebius``), or ``toeplitz_matrix`` over
    ``rule``."""
    route = toeplitz_route(f, basis.n, rule)
    if route["route"] == "radial":
        return toeplitz_radial(f.profile, basis, support=f.support)
    if route["route"] == "monomial_radial":
        return toeplitz_monomial_radial(f.coordinate, f.profile, basis,
                                        support=f.support)
    if route["route"] == "moebius":
        return OperatorMatrix(basis, _compress_moebius(f, basis,
                                                       route["core_degree"]))
    return toeplitz_matrix(f, basis, rule)


def _compress_moebius(f: Symbol, basis: TruncatedBasis,
                      core: int) -> np.ndarray:
    """V* T_h V with V = P_core U_c P_d, one off-axis multi-index alpha'
    at a time.  U_c keeps alpha' (``_ray_blocks``) and T_h is diagonal
    (radial h) or the single band beta = alpha + e_j (h = z_j g), so each
    block of the result is a product of one or two blocks of V around a
    diagonal.  V is held as its blocks, one per off-axis degree, and no
    array has B_core^2 entries."""
    h, n = f.inner, basis.n
    c = np.asarray(f.center)
    axis = int(np.argmax(np.abs(c) > 0.0))
    blocks = _ray_blocks(complex(c[axis]), n, core, basis.degree)
    # each column of V is P_core of a unit vector U_c e_alpha
    excess = max(float(np.max(np.linalg.norm(v, axis=0))) for v in blocks)
    if not excess - 1.0 <= _GUARD_TOL:  # also catches NaN
        raise ValueError(
            f"exact V at c={list(f.center)} (n={n}, degree {basis.degree}, "
            f"core {core}): column norm excess {excess - 1.0:.3g} exceeds "
            f"{_GUARD_TOL:g}")
    ints = _profile_integrals(h.profile, n, core, h.support)
    k = np.arange(core + 1)
    positions = _ray_positions(basis, axis)
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    for rest, pos in positions.items():
        s = sum(rest)
        if s >= len(blocks):
            continue  # no degree <= core in this block
        v = blocks[s]
        if h.kind == "radial":  # T_h = (n + k) I_k at total degree k
            diag = ((n + k) * ints)[s:]
            out[np.ix_(pos, pos)] = v.conj().T @ (diag[:, None] * v)
            continue
        # entry of T_h at beta = alpha + e_j: I_k sqrt((n + k)(alpha_j + 1)),
        # k = |alpha| + 1, as in ``toeplitz_monomial_radial``
        kk = k[s + 1:]
        if h.coordinate == axis:  # within the block: row a + 1 from row a
            band = ints[kk] * np.sqrt((n + kk) * (kk - s))
            out[np.ix_(pos, pos)] = v[1:].conj().T @ (band[:, None] * v[:-1])
            continue
        j = h.coordinate - (h.coordinate > axis)  # its place in alpha'
        up = rest[:j] + (rest[j] + 1,) + rest[j + 1:]
        if up not in positions or s + 1 >= len(blocks):
            continue  # the band leaves the truncation
        band = ints[kk] * np.sqrt((n + kk) * (rest[j] + 1))
        out[np.ix_(positions[up], pos)] = (
            blocks[s + 1].conj().T @ (band[:, None] * v[:-1]))
    return out


def weak_pairing_exact(zm, z, w) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form pairing <U_{z_m} k_z, k_w> and its decay bound.

    value = ((1-|w|^2)(1-|z|^2)(1-|z_m|^2))^((n+1)/2)
            / ((1 - <phi_{z_m}(w), z>)(1 - <w, z_m>))^(n+1),
    |value| <= bound = same numerator / ((1-|z|)(1-|w|))^(n+1).
    The bound decays like (1 - |z_m|^2)^((n+1)/2) along any sequence
    approaching the sphere.  Broadcasts over leading axes; single points
    give 0-d arrays.
    """
    zm = as_point(zm, name="zm")
    z = as_point(z, name="z")
    w = as_point(w, name="w")
    n = zm.shape[-1]
    lead = np.broadcast_shapes(zm.shape, z.shape, w.shape)[:-1]
    # single points run through the same vector loops as stacks, whose
    # complex products and powers can round differently from numpy scalars
    zm, z, w = (np.atleast_2d(p) for p in (zm, z, w))
    zz, ww, mm = _norm2(z), _norm2(w), _norm2(zm)
    numer = (_gap(ww) * _gap(zz) * _gap(mm)) ** (0.5 * (n + 1))
    phi_w = moebius(zm, w)
    denom = ((1.0 - inner(phi_w, z)) * (1.0 - inner(w, zm))) ** (n + 1)
    value = numer / denom
    bound = numer / ((1.0 - np.sqrt(zz)) * (1.0 - np.sqrt(ww))) ** (n + 1)
    return value.reshape(lead), bound.reshape(lead)
