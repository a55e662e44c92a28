"""Weighted composition unitaries U_z and their truncated matrices.

U_z f = (f o phi_z) k_z is a self-adjoint unitary involution of the
Bergman space, and U_z T_f U_z* = T_{f o phi_z}.  The truncated matrix is
the compression P U_z P.  ``unitary_matrix`` (also reachable as
``unitary_matrix_exact``) builds it from exact entries, Jacobi
polynomials in 1 - 2|z|^2 at roundoff at any degree, at every z = c e_j
on a coordinate axis, c complex (``_axis_point``, the one test of every
exact route); any other point raises ValueError.
``unitary_matrix_quadrature`` integrates e_alpha(phi_z(w)) k_z(w)
conj(e_beta(w)) over a rule and serves only as the reference the exact
route is compared against at moderate |z|.

The same exact entries give the Toeplitz compression of a
Moebius-composed symbol h o phi_c with h radial or monomial-times-radial
and compactly supported: T_{h o phi_c} = U_c T_h U_c, assembled as
V* T_h V with V = P_K U_c P_d, block by block, with no quadrature.
Proposition 1's cutoff eta around points c e_j has the same blocks, each
a tensor Gauss sum in coordinates centred on e_j (``_cutoff_blocks``).

Every Toeplitz matrix whose route depends on its symbol is chosen here,
in one function: ``toeplitz_blocks`` reads ``Symbol.kind`` once, builds
each input of the route it picks once, and gives the route's record (the
radial or banded fast path, the exact V* T_h V, the exact cutoff, or
quadrature) and T_f as (rows, cols, block) triples.

One band kernel.  On the fast paths T_h is diagonal or one band, and
``toeplitz.ray_bands`` forms it once per off-axis degree s of a
coordinate axis, or per (s, alpha'_j) for a band off the axis, each
triple placing it at every ray (``TruncatedBasis.rays``) that shares
it.  The "moebius" route multiplies each such band by two blocks of V;
the "cutoff" route has its own block per off-axis degree.  Only
quadrature is one block over the whole basis.  ``toeplitz.apply_blocks``
applies triples to a block of vectors, which is all Proposition 1's
decay curves need, and ``toeplitz._scatter`` makes a dense matrix: the
fast paths' and the two-route probe's, which takes U_c and
T_{h o phi_c} from one set of blocks of U_c (``moebius_pair``).

The compression of a unitary has norm <= 1, and P U_z P -> U_z entrywise
as the truncation degree grows; identities involving products of
compressions hold only up to a degree-dependent defect, which is why the
laboratory's checks always sweep the degree.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import TruncatedBasis, kernel, kernel_expansion
from .geometry import _gap, _norm2, as_point, inner, moebius
from .quadrature import QuadratureRule, _gauss_legendre, rule_for_basis
from .toeplitz import (OperatorMatrix, Symbol, _scatter, ray_bands,
                       toeplitz_matrix)

__all__ = ["unitary_matrix", "unitary_matrix_quadrature",
           "unitary_matrix_exact", "core_degree", "toeplitz_blocks",
           "moebius_pair", "weak_pairing_exact"]

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


def _axis_point(z) -> tuple[int, complex] | None:
    """(j, z_j) when at most one coordinate of z is nonzero, so that
    z = c e_j on a coordinate axis (axis 0 at the origin, and always when
    n = 1); None otherwise."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    on = np.flatnonzero(z)
    if len(on) > 1:
        return None
    j = int(on[0]) if len(on) else 0
    return j, complex(z[j])


def _off_axis(z):
    """Raise the ValueError for a z off every coordinate axis."""
    raise ValueError(f"exact entries at z={np.asarray(z).tolist()} for "
                     "n >= 2 require z on a coordinate axis c e_j: a "
                     "coordinate ray t e_j turned by the phase of c")


def _ray_blocks(zeta: complex, n: int, rows: int, cols: int) -> list:
    """Blocks of P_rows U_z P_cols for z = zeta e_j, one per off-axis
    degree s <= min(rows, cols) (only s = 0 when n = 1).

    U_z maps z^alpha to (-1)^s w'^alpha' (1 - |zeta|^2)^((s+n+1)/2)
    (zeta - w_j)^a (1 - conj(zeta) w_j)^(-(a+s+n+1)), with a the axis
    component of alpha, alpha' the rest and s = |alpha'|, for complex
    zeta as for real (phi_{Vz} = V phi_z V* for every unitary V).  So the
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

    For z = c e_j the matrix is block diagonal in the off-axis
    multi-index alpha', one block per off-axis degree (``_ray_blocks``;
    n = 1 is the single block s = 0); any other z raises ValueError.

    Raises ValueError when the result breaks an invariant every
    compression of U_z keeps (``_ray_unitary``).
    """
    z = as_point(z, name="z")
    if z.ndim != 1 or z.shape[0] != basis.n:
        raise ValueError("z must be a single point of the basis dimension")
    axis, c = _axis_point(z) or _off_axis(z)
    return _ray_unitary(z, basis, axis, _ray_blocks(
        c, basis.n, basis.degree, basis.degree))


def _ray_unitary(z: np.ndarray, basis: TruncatedBasis, axis: int,
                 blocks: list) -> OperatorMatrix:
    """P U_z P from its blocks per off-axis degree, for z on the ray of
    ``axis``.

    Raises ValueError when the result breaks an invariant every
    compression of U_z keeps: finite entries, self-adjointness, column
    norms <= 1 (each column is P of a unit vector) and column e_0 equal
    to the kernel expansion of k_z.
    """
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for pos, block in zip(basis.rays(axis), blocks):
        mat[pos[:, :, None], pos[:, None, :]] = block

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


def _cutoff_axes(f: Symbol, n: int) -> list[tuple[int, complex]] | None:
    """(j, c) for each point c e_j of a cutoff symbol (``_axis_point``;
    |c| = 1), or None unless every point is one and they are at least
    twice the support radius apart: their supports are disjoint."""
    pts = np.asarray(f.points, dtype=complex)
    if pts.shape[1] != n:
        raise ValueError(f"cutoff points have dimension {pts.shape[1]}, "
                         f"expected {n}")
    axes = [_axis_point(p) for p in pts]
    dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    if (None in axes
            or np.any(dists[~np.eye(len(pts), dtype=bool)] < 2 * f.support)):
        return None
    return axes


def _cutoff_blocks(profile, radius: float, n: int, degree: int,
                   p: int) -> list:
    """Blocks k = 0..d of T_g for g(|z - e_j|), g linear on [0, 2R/3] and
    [2R/3, R] and 0 beyond R = ``radius``, by p Gauss points per u-panel
    and per theta-interval.

    The angles of z' keep alpha', and alpha'! cancels against the basis
    norms, so the entry at ((alpha', b), (alpha', a)) depends on
    k = |alpha'| alone.  With (Re z_j, Im z_j, |z'|) = (1 - u cos theta,
    Y t, Y sqrt(1 - t^2)), Y = u sin theta, the ball is cos theta > u/2:

        block_k[b, a] = (2/pi) sqrt((n+k+a)! (n+k+b)! / (a! b!)) / (n+k-2)!
            int g(u) u Y^(2n-2) (Y^2 (1 - t^2))^k (1 - t^2)^(n-2)
                z_j^a conj(z_j)^b du dtheta dt

    over u < min(R, 2), theta < arccos(u/2), |t| < 1 (at n = 1, t = 1
    and the prefactor is (2/pi) sqrt((a+1)(b+1))).  The u-panels end at
    the kinks of g and the theta integrand is analytic, so both sums
    converge geometrically while R < 2.  t -> -t conjugates z_j, so the
    blocks are real symmetric, and the t >= 0 nodes of the (d+n)-point
    rule, doubled, sum the polynomial in t exactly.
    """
    x, wx = _gauss_legendre(p)
    edges = np.minimum([0.0, 2.0 * radius / 3.0, radius], 2.0)
    u, wu = (np.concatenate(v) for v in zip(*[
        (lo + 0.5 * (hi - lo) * (x + 1.0), 0.5 * (hi - lo) * wx)
        for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]))
    top = 0.5 * np.arccos(0.5 * u)[:, None]  # half of each theta interval
    theta = top * (x + 1.0)
    y = u[:, None] * np.sin(theta)
    base = (wu * profile(u) * u)[:, None] * (top * wx) * y ** (2 * n - 2)
    t, wt = np.ones(1), np.ones(1)
    if n > 1:
        t, wt = _gauss_legendre(degree + n)
        half = t >= 0.0  # t = 0, if a node, is not doubled
        t, wt = t[half], np.where(t > 0.0, 2.0, 1.0)[half] * wt[half]
        wt = wt * (1.0 - t * t) ** (n - 2)
    w = ((1.0 - u[:, None] * np.cos(theta))[..., None]
         + 1j * y[..., None] * t).ravel()
    powers = np.empty((degree + 1, len(w)), dtype=complex)
    powers[0] = 1.0
    for a in range(degree):
        powers[a + 1] = powers[a] * w
    # Re(w^a conj(w)^b) = Re w^a Re w^b + Im w^a Im w^b, so a block is
    # c_a c_b (C C^T)[a, b], exactly symmetric, for C the real and
    # imaginary parts of w^a times the root of each weight
    parts = np.concatenate([powers.real, powers.imag], axis=1)
    parts *= np.tile(np.sqrt((base[..., None] * wt).ravel()), 2)
    s = np.tile((y[..., None] * np.sqrt(1.0 - t * t)).ravel(), 2)
    blocks = []
    for k in range(degree + 1 if n > 1 else 1):
        m = degree - k + 1
        scale = math.perm(n + k, 2) if n > 1 else 1
        c = np.sqrt([2.0 / math.pi * math.comb(n + k + a, a) * scale
                     for a in range(m)])
        blocks.append(np.outer(c, c) * (parts[:m] @ parts[:m].T))
        parts[:m - 1] *= s  # the weight of block k + 1
    return blocks


def toeplitz_blocks(f: Symbol, basis: TruncatedBasis) -> tuple[dict, list]:
    """T_f on ``basis``: the record of the route it takes and T_f as
    (rows, cols, block) triples.

    This is the one place a route is chosen from ``Symbol.kind``, and
    every input of a route is built once here and passed down.
    "radial" and "monomial_radial" are the fast paths, bands along a
    coordinate axis (``ray_bands``).  "moebius" is the exact V* T_h V of
    f = h o phi_c for c = c_j e_j on a coordinate axis
    (``_compress_moebius``); its record (``_moebius_route``) gives the
    core degree K and tail bound, which are None on the fast paths.
    "cutoff" is the exact assembly of a cutoff symbol whose points are
    c e_j with disjoint supports (``_cutoff_axes``, ``_assemble_cutoff``);
    its record gives the Gauss size p = 12 + d // 4 of ``_cutoff_blocks``
    and the defect: |F| times the Frobenius norm over the whole matrix
    (block k once per alpha' of degree k) of the change from p - 4.
    Everything else is "quadrature", one block over the whole basis
    (``toeplitz_matrix`` over ``rule_for_basis(n, d)``, the only rule any
    route builds); its record gives the number of nodes f is evaluated
    at and no defect (None), since quadrature error is not measured.

    T_f is the sum over triples of block placed at rows[i] x cols[i] for
    each i: rows and cols are (placements, size) arrays of basis
    positions, and the placements of one triple never share a row.
    ``apply_blocks`` applies the triples and ``_scatter`` makes the
    dense matrix.
    """
    n, d = basis.n, basis.degree
    if f.kind in ("radial", "monomial_radial") and f.profile is not None:
        j = f.coordinate if f.kind == "monomial_radial" else None
        return ({"route": f.kind, "core_degree": None, "tail_bound": None},
                ray_bands(f.profile, j, basis, j or 0, f.support))
    on = _moebius_route(f, n) if f.kind == "moebius" else None
    if on is not None:
        route, (axis, c) = on
        core = route["core_degree"]
        return route, _compress_moebius(f, basis, core, axis,
                                        _ray_blocks(c, n, core, d))
    axes = _cutoff_axes(f, n) if f.kind == "cutoff" else None
    if axes is not None:
        p = 12 + d // 4
        fine, coarse = (_cutoff_blocks(f.profile, f.support, n, d, q)
                        for q in (p, p - 4))
        defect = math.sqrt(sum(
            (math.comb(k + n - 2, n - 2) if n > 1 else 1)
            * float(np.sum((a - b) ** 2))
            for k, (a, b) in enumerate(zip(fine, coarse))))
        return ({"route": "cutoff", "p": p, "defect": len(f.points) * defect},
                _assemble_cutoff(fine, axes, basis))
    rule = rule_for_basis(n, d)
    whole = np.arange(len(basis))[None, :]
    return ({"route": "quadrature", "nodes": len(rule), "defect": None},
            [(whole, whole, toeplitz_matrix(f, basis, rule).mat)])


def _moebius_route(f: Symbol, n: int) -> tuple[dict, tuple] | None:
    """The "moebius" record of f = h o phi_c (``_core_degree``) and the
    (axis, c_j) of its centre c = c_j e_j (``_axis_point``), or None for
    a centre off the coordinate axes."""
    if len(f.center) != n:
        raise ValueError(f"symbol centre has dimension {len(f.center)}, "
                         f"expected {n}")
    on = _axis_point(f.center)
    if on is None:
        return None
    k, tail = _core_degree(f.inner, n)
    return {"route": "moebius", "core_degree": k, "tail_bound": tail}, on


def _assemble_cutoff(blocks: list, axes: list, basis: TruncatedBasis) -> list:
    """The cutoff's triples: for each point c e_j of ``axes``, block k of
    ``blocks`` (``_cutoff_blocks`` around e_j) placed at every alpha' of
    degree k off axis j, each block once per point; rotating z_j by c
    multiplies the entry at (b, a) by c^a conj(c)^b."""
    a = np.arange(basis.degree + 1)
    out = []
    for axis, c in axes:
        phase = np.outer(np.conj(c) ** a, c ** a)
        for k, pos in enumerate(basis.rays(axis)):
            m = pos.shape[1]
            out.append((pos, pos, blocks[k] * phase[:m, :m]))
    return out


def _compress_moebius(f: Symbol, basis: TruncatedBasis, core: int,
                      axis: int, v: list) -> list:
    """The triples of V* T_h V with V = P_core U_c P_d for c on the ray
    of ``axis``.  U_c keeps the off-axis multi-index alpha' of that axis
    (``_ray_blocks``) and T_h at degree core is one band per ray, or per
    pair of rays (``ray_bands``), so each block of the result is that
    band between two blocks of V, formed once for every placement of the
    band.  V is held as its blocks ``v``, one per off-axis degree, and no
    array has B_core^2 entries."""
    h, n, d = f.inner, basis.n, basis.degree
    # each column of V is P_core of a unit vector U_c e_alpha
    excess = max(float(np.max(np.linalg.norm(b, axis=0))) for b in v)
    if not excess - 1.0 <= _GUARD_TOL:  # also catches NaN
        raise ValueError(
            f"exact V at c={list(f.center)} (n={n}, degree {d}, "
            f"core {core}): column norm excess {excess - 1.0:.3g} exceeds "
            f"{_GUARD_TOL:g}")
    out = []
    for rows, cols, (offset, vals) in ray_bands(
            h.profile, h.coordinate, basis, axis, h.support, core):
        m = len(vals)
        # a ray of off-axis degree s has d - s + 1 positions
        vr, vc = v[d + 1 - rows.shape[1]], v[d + 1 - cols.shape[1]]
        out.append((rows, cols, vr[offset:offset + m].conj().T
                    @ (vals[:, None] * vc[:m])))
    return out


def moebius_pair(f: Symbol, basis: TruncatedBasis) -> tuple[
        dict, OperatorMatrix, OperatorMatrix]:
    """The route record of f = h o phi_c (``_moebius_route``, as
    ``toeplitz_blocks`` gives it), P U_c P (``unitary_matrix_exact``) and
    T_f (the scatter of ``toeplitz_blocks``), from one ``_ray_blocks``
    call.

    P_d U_c P_d and V = P_K U_c P_d at the core degree K are the first
    d - s + 1 and K - s + 1 rows of the blocks of P_max(K,d) U_c P_d:
    ``_diagonals`` is elementwise in the off-axis degree and the
    diagonal offset and runs its recurrence down the rows, so a larger
    call repeats the entries of a smaller one.  Raises ValueError as
    ``unitary_matrix_exact`` does, and for a centre off the coordinate
    axes.
    """
    route, (axis, c) = _moebius_route(f, basis.n) or _off_axis(f.center)
    core, d = route["core_degree"], basis.degree
    blocks = _ray_blocks(c, basis.n, max(core, d), d)
    u = _ray_unitary(np.asarray(f.center), basis, axis,
                     [b[:d - s + 1] for s, b in enumerate(blocks)])
    t = _compress_moebius(f, basis, core, axis, [
        b[:core - s + 1] for s, b in enumerate(blocks[:core + 1])])
    return route, u, _scatter(t, basis)


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
