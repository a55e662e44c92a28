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

The compression of a unitary has norm <= 1, and P U_z P -> U_z entrywise
as the truncation degree grows; identities involving products of
compressions hold only up to a degree-dependent defect, which is why the
laboratory's checks always sweep the degree.
"""

from __future__ import annotations

import numpy as np

from .basis import TruncatedBasis, kernel, kernel_expansion
from .geometry import _gap, _norm2, as_point, inner, moebius
from .quadrature import QuadratureRule
from .toeplitz import OperatorMatrix, Symbol, toeplitz_matrix

__all__ = ["unitary_matrix", "unitary_matrix_quadrature",
           "unitary_matrix_exact", "exact_available", "unitarity_defect",
           "conjugate_toeplitz", "weak_pairing_exact"]

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


def unitary_matrix_exact(z, basis: TruncatedBasis) -> OperatorMatrix:
    """Exact compression P U_z P (no quadrature error source).

    For z = zeta e_axis, U_z maps z^alpha to
    (-1)^s w'^alpha' (1 - |zeta|^2)^((s+n+1)/2) (zeta - w_axis)^a
    (1 - conj(zeta) w_axis)^(-(a+s+n+1)), with a the axis component of
    alpha, alpha' the rest and s = |alpha'|.  So the entry at (beta, alpha)
    vanishes unless beta' = alpha', and all alpha' of degree s share one
    block, ``_diagonals`` at b = s + n (its basis carries the norm ratios),
    conjugated above the diagonal.  n = 1 is the single block s = 0.

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
    idx = np.asarray(basis.indices)
    a = idx[:, axis]
    rest = np.delete(idx, axis, axis=1)
    s = rest.sum(axis=1)
    group = rest @ (basis.degree + 1) ** np.arange(basis.n - 1)
    rows, cols = np.nonzero(group[:, None] == group[None, :])
    diag = _diagonals(complex(z[axis]), np.arange(s.max() + 1) + basis.n,
                      basis.degree + 1)
    ar, ac = a[rows], a[cols]
    vals = diag[np.minimum(ar, ac), s[cols], np.abs(ar - ac)]
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    mat[rows, cols] = np.where(ar >= ac, vals, vals.conj()) * (-1.0) ** s[cols]

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


def unitarity_defect(u: OperatorMatrix) -> float:
    """Operator norm of U*U - I on the truncation."""
    eye = np.eye(len(u.basis))
    return float(np.linalg.norm(u.mat.conj().T @ u.mat - eye, 2))


def conjugate_toeplitz(z, f: Symbol, basis: TruncatedBasis,
                       rule: QuadratureRule) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Both routes of the conjugation identity.

    Returns (U_z T_f U_z*, T_{f o phi_z}); they agree up to a defect that
    shrinks as the truncation degree grows.
    """
    u = unitary_matrix(z, basis)
    tf = toeplitz_matrix(f, basis, rule)
    lhs = u @ tf @ u.adjoint()
    rhs = toeplitz_matrix(f.compose_moebius(z), basis, rule)
    return lhs, rhs


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
