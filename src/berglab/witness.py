"""Regions along boundary directions, the witness operator, and the
numerical separation experiment.

For a finite set F of boundary directions, W_F is the union of the metric
balls E(t zeta, r) over rays toward F (the ball E(0, r) when F is empty),
and the symbol class attached to F consists of bounded functions vanishing
off W_F.  The closure of W_F meets the sphere exactly in F, which is what
the boundary-trace check verifies at finite resolution.

The witness construction contrasts two behaviors along a separated
sequence z_m = t_m zeta with zeta in F2 but far from F1:

  * products of Toeplitz operators with symbols from the F1 class, applied
    to U_{z_m} 1 = k_{z_m}, decay to zero (cutoff-factor bound with an
    explicit decay rate);
  * the witness T = sum_m U_{z_m} S U_{z_m}* with S = [T_f, T_conj(f)]^2,
    f(z) = z_1 eta(|z|/r) supported in E(0, r), stays bounded below along
    the same directions.

On the truncated model every quantity carries a degree-dependent defect;
the lower-bound check is therefore stated against the measured truncation
tolerance, and the separation verdict compares decay curves normalized at
their first point, which cancels the common truncation factor
||P_d k_{z_m}|| shared by both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import TruncatedBasis, kernel_expansion
from .geometry import (_norm2, as_point, pseudo_metric, random_sphere_points,
                       sample_ball)
from .quadrature import QuadratureRule, integrate
from .sequences import SeparatedSequence, build_sequence
from .toeplitz import (OperatorMatrix, Symbol, commutator, op_norm,
                       toeplitz_auto, toeplitz_matrix,
                       toeplitz_monomial_radial)
from .unitaries import toeplitz_moebius, toeplitz_route, unitary_matrix

__all__ = ["SphereSet", "in_region_W", "region_infimum",
           "boundary_trace_check", "exclusion_radius", "witness_symbol",
           "WitnessOperator", "witness_operator", "lemma3_lower_bound",
           "Prop1Config", "build_prop1_config", "prop1_decay", "default_panel",
           "separation_experiment"]

@dataclass(frozen=True)
class SphereSet:
    """A finite (hence closed) set of boundary directions; may be empty."""

    points: np.ndarray  # (K, n) complex, unit vectors

    @classmethod
    def create(cls, points, n: int | None = None) -> "SphereSet":
        arr = np.asarray(points, dtype=complex)
        if arr.size == 0:
            if n is None:
                raise ValueError("empty sphere set needs an explicit dimension")
            arr = arr.reshape(0, n)
        arr = np.atleast_2d(arr)
        norms = np.linalg.norm(arr, axis=1)
        if arr.shape[0] and np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("sphere set points must be unit vectors")
        return cls(points=arr)

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def min_dist(self, z) -> np.ndarray:
        """Euclidean distance from z (stack allowed) to the set; inf if empty."""
        z = np.atleast_2d(np.asarray(z, dtype=complex))
        if len(self) == 0:
            return np.full(z.shape[0], np.inf)
        return np.sqrt(_norm2(z[:, None, :] - self.points[None]).min(axis=1))

    def contains(self, other: "SphereSet", tol: float = 1e-12) -> bool:
        if len(other) == 0:
            return True
        if len(self) == 0:
            return False
        return bool(np.all(self.min_dist(other.points) <= tol))


def region_infimum(F: SphereSet, z) -> np.ndarray:
    """inf over zeta in F and t in [0, 1) of rho(z, t zeta); |z| when F is
    empty (distance to the center of E(0, r)).

    The ray infimum is attained in closed form.  With c = <z, zeta> and
    s = 1 + |c|^2, 1 - rho(z, t zeta)^2 = (1 - |z|^2) (1 - t^2) / |1 - t c|^2
    and its t-derivative vanishes where Re(c) t^2 - s t + Re(c) = 0.  When
    Re c > 0 the root in (0, 1) is
    t* = 2 Re c / (s + sqrt((s - 2 Re c)(s + 2 Re c))), and it maximises
    1 - rho^2 since the derivative is positive at t = 0; when Re c <= 0 the
    derivative is nonpositive on [0, 1) and the infimum is rho(z, 0) = |z|.
    Here s - 2 Re c = |1 - c|^2 and s + 2 Re c = |1 + c|^2.
    """
    z = np.atleast_2d(as_point(z, name="z"))
    if len(F) == 0:
        return np.linalg.norm(z, axis=1)
    c = z @ F.points.conj().T  # (B, K)
    re_c = np.maximum(c.real, 0.0)
    s = 1.0 + np.abs(c) ** 2
    t = 2.0 * re_c / (s + np.abs(1.0 - c) * np.abs(1.0 + c))
    rho = pseudo_metric(z[:, None, :], t[..., None] * F.points[None, :, :])
    return rho.min(axis=1)


def in_region_W(F: SphereSet, r: float, z) -> np.ndarray:
    """Membership of z in W_F (strict inequality against r).  Broadcasts."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0, 1), got {r}")
    z_arr = np.atleast_2d(as_point(z, name="z"))
    result = region_infimum(F, z_arr) < r
    return result if np.asarray(z).ndim > 1 else bool(result[0])


def exclusion_radius(r: float, gap: float) -> float:
    """Smallest certified exclusion distance for the boundary-trace check.

    Inverts the delta construction: eps* = max(2 gap, sqrt(32 r^2 gap /
    (1 - r^2))) gives delta(r, eps*) >= gap, and any sphere direction xi
    with dist(xi, F) >= 2 eps* then has (1 - gap) xi outside W_F.
    """
    eps_star = max(2.0 * gap, math.sqrt(32.0 * r * r * gap / (1.0 - r * r)))
    return 2.0 * eps_star


def boundary_trace_check(F: SphereSet, r: float, samples: int,
                         approach: float,
                         rng: np.random.Generator) -> dict:
    """Check that the closure of W_F meets the sphere exactly in F.

    (a) each direction of F is confirmed: (approach) zeta lies in W_F;
    (b) random sphere directions farther from F than the certified
        exclusion radius give points (approach) xi outside W_F.

    Returns counts; the contract is zero violations.
    """
    if not 0.0 < approach < 1.0:
        raise ValueError(f"approach must lie in (0, 1), got {approach}")
    gap = 1.0 - approach
    excl = exclusion_radius(r, gap)

    confirmed = 0
    if len(F):
        inside = in_region_W(F, r, approach * F.points)
        confirmed = int(np.count_nonzero(inside))

    xi = random_sphere_points(F.n, samples, rng)
    dist = F.min_dist(xi)
    if len(F) == 0:
        testable = np.ones(samples, dtype=bool)
    else:
        testable = dist >= excl
    tested = int(np.count_nonzero(testable))
    violations = 0
    if tested:
        inside_w = in_region_W(F, r, approach * xi[testable])
        violations = int(np.count_nonzero(inside_w))
    return {
        "directions_confirmed": confirmed,
        "directions_total": int(len(F)),
        "samples": int(samples),
        "tested_outside": tested,
        "excluded_band": int(samples - tested),
        "exclusion_radius": float(excl),
        "approach": float(approach),
        "violations": violations,
        "ok": violations == 0 and confirmed == len(F),
    }


def witness_symbol(r: float) -> Symbol:
    """The witness symbol f(z) = z_1 eta(|z| / r) with eta(t) = max(0, 1-t^2).

    Continuous, supported in E(0, r), polynomial inside the support; its
    sup norm is 2r/(3 sqrt(3)), attained at |z| = r/sqrt(3) on the z_1 axis.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0, 1), got {r}")

    def profile(u):
        q = np.asarray(u) / r
        return np.clip(1.0 - q * q, 0.0, None)

    return Symbol.monomial_times_radial(
        0, profile, 2.0 * r / (3.0 * math.sqrt(3.0)), support=r,
        label=f"witness(r={r})")


@dataclass(frozen=True)
class WitnessOperator:
    """The truncated witness operator with its ingredients; with the
    two-route probe, its defects and the route of each composed
    assembly (``unitaries.toeplitz_route``)."""

    T: OperatorMatrix
    S: OperatorMatrix
    seq: SeparatedSequence
    unitaries: tuple[OperatorMatrix, ...]
    two_route_defects: tuple[float, ...] | None
    two_route_routes: tuple[dict, ...] | None
    conditioning_warning: bool


def witness_operator(zeta, r: float, M: int, basis: TruncatedBasis, *,
                     two_route: bool = False) -> WitnessOperator:
    """Assemble S = [T_f, T_conj(f)]^2 and T = sum_m U_{z_m} S U_{z_m}*.

    The Toeplitz factor uses the banded fast path (exact for the witness
    profile).  Each U_{z_m} comes from ``unitary_matrix`` (exact entries,
    so zeta must be a coordinate direction e_j when n >= 2).  With
    two_route=True the identity
    U_z [T_f, T_conj(f)] U_z* = [T_{f o phi_z}, T_{conj(f) o phi_z}]
    is probed per term: the left side is a product of compressions,
    (P U_z P) S (P U_z P), and the right side the compression of a
    product, [B, B*]^2 with B = P U_z T_f U_z P, the exact compression
    of the composed symbol (``unitaries.toeplitz_moebius``).  So the
    defect measures truncation alone, and shrinks with the degree.
    """
    f = witness_symbol(r)
    a = toeplitz_monomial_radial(0, f.profile, basis, support=r)
    c = commutator(a, a.adjoint())
    s = c @ c
    seq = build_sequence(zeta, r, M)
    pts = seq.points()
    unitaries = tuple(unitary_matrix(p, basis) for p in pts)
    total = np.zeros_like(s.mat)
    for u in unitaries:
        total += (u @ s @ u.adjoint()).mat
    t_mat = OperatorMatrix(basis, total)

    defects = routes = None
    if two_route:
        ds, rs = [], []
        for m in range(M):
            composed = f.compose_moebius(pts[m])
            b = toeplitz_moebius(composed, basis)
            cc = commutator(b, b.adjoint())
            route2 = cc @ cc
            route1 = unitaries[m] @ s @ unitaries[m].adjoint()
            ds.append(op_norm(route1 - route2))
            rs.append(toeplitz_route(composed, basis.n))
        defects, routes = tuple(ds), tuple(rs)

    return WitnessOperator(
        T=t_mat, S=s, seq=seq, unitaries=unitaries,
        two_route_defects=defects, two_route_routes=routes,
        conditioning_warning=bool(seq.gaps[-1] < 1e-6))


def _top_eigvec(s: OperatorMatrix) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and (phase-fixed) eigenvector of a PSD matrix."""
    w, v = np.linalg.eigh(s.mat)
    vec = v[:, -1]
    k = int(np.argmax(np.abs(vec)))
    phase = vec[k] / abs(vec[k])
    return float(w[-1]), vec / phase


def lemma3_lower_bound(T: OperatorMatrix, S: OperatorMatrix,
                       unitaries: tuple[OperatorMatrix, ...]) -> dict:
    """Lower-bound check for the witness along the sequence.

    ``unitaries`` holds the compressions U_{z_m} that built T, one per
    sequence point (``WitnessOperator.unitaries``).  With f_hat the top
    eigenvector of S, every pairing
    value_m = <T U_{z_m} f_hat, U_{z_m} f_hat> dominates
    <S V_m f_hat, V_m f_hat> with V_m = U_m* U_m (the other summands of T
    are positive), and the truncation tolerance
    tol_m = <S f_hat, f_hat> - <S V_m f_hat, V_m f_hat> is measured, not
    assumed.  The reported floor is c = min_m value_m; the norms
    ||T U_{z_m} f_hat|| dominate c because the compressed unitaries are
    contractions.
    """
    lam, fhat = _top_eigvec(S)
    values, guaranteed, norms, unorms = [], [], [], []
    for u in unitaries:
        uvec = u.apply(fhat)
        vvec = u.adjoint().apply(uvec)
        values.append(float(np.real(np.vdot(uvec, T.apply(uvec)))))
        guaranteed.append(float(np.real(np.vdot(vvec, S.apply(vvec)))))
        norms.append(float(np.linalg.norm(T.apply(uvec))))
        unorms.append(float(np.linalg.norm(uvec)))
    values = np.asarray(values)
    guaranteed = np.asarray(guaranteed)
    norms = np.asarray(norms)
    tol = lam - guaranteed
    slack = 1e-15 * (1.0 + lam)
    lower_ok = values >= guaranteed - slack
    c = float(values.min())
    norm_ok = norms >= c - slack
    offending = [int(m) for m in range(len(unitaries))
                 if not (lower_ok[m] and norm_ok[m])]
    return {
        "lambda_max": lam,
        "values": values.tolist(),
        "guaranteed": guaranteed.tolist(),
        "tolerances": tol.tolist(),
        "margins": (values - lam).tolist(),
        "norms": norms.tolist(),
        "u_norms": unorms,
        "floor_c": c,
        "floor_positive": bool(c > 0.0),
        "offending": offending,
        "ok": not offending and c > 0.0,
    }


@dataclass(frozen=True)
class Prop1Config:
    """Cutoff data for the decay bound along a sequence avoiding F.

    eta is 1 on the eps/3-neighborhood of F, 0 outside the eps/2-
    neighborhood, linear in Euclidean distance between; nu_v2 is the
    measure of the eps/2-neighborhood within the ball.  delta is the
    certified lower bound eps^2 / 8 on |1 - <z, w>| for z in the closed
    ball within eps/2 of F and w in the closed ball at distance >= eps
    from F (see ``build_prop1_config``).
    """

    eps: float
    eta: Symbol
    delta: float
    nu_v2: float
    f_set: SphereSet


def build_prop1_config(F: SphereSet, eps: float,
                       rule: QuadratureRule) -> Prop1Config:
    """Realize the cutoff construction for a finite direction set F.

    delta = eps^2 / 8 is a proven bound: for z, w in the closed ball,
    2 Re(1 - <z, w>) = |z - w|^2 + (1 - |z|^2) + (1 - |w|^2) >= |z - w|^2,
    and |z - w| >= eps / 2 when z is within eps/2 of F and w is at
    distance >= eps, so |1 - <z, w>| >= Re(1 - <z, w>) >= eps^2 / 8.
    nu_v2 is integrated over ``rule``.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if len(F) == 0:
        zero = Symbol.sampled(lambda pts: np.zeros(pts.shape[0], complex),
                              0.0, label="eta(empty)")
        return Prop1Config(eps=eps, eta=zero, delta=1.0, nu_v2=0.0, f_set=F)

    lo, hi = eps / 3.0, eps / 2.0

    def eta_fn(pts):
        d = F.min_dist(pts)
        return np.clip((hi - d) / (hi - lo), 0.0, 1.0).astype(complex)

    eta = Symbol.sampled(eta_fn, 1.0, label=f"eta(eps={eps})")

    nu_v2 = float(np.real(integrate(
        lambda pts: (F.min_dist(pts) < hi).astype(complex), rule)))
    return Prop1Config(eps=eps, eta=eta, delta=eps * eps / 8.0, nu_v2=nu_v2,
                       f_set=F)


def prop1_decay(g_symbols: list[Symbol], seq: SeparatedSequence,
                cfg: Prop1Config, basis: TruncatedBasis,
                rule: QuadratureRule, *, decay_frac: float,
                slope_rel: float) -> dict:
    """Decay of ||T_{g1}..T_{gk} U_{z_m} 1|| along a sequence avoiding
    ``cfg.f_set``.

    U_{z_m} 1 = k_{z_m}, so the panel acts on the closed-form kernel
    column P k_{z_m} (``kernel_expansion``) and builds no U_z.  Checks,
    per product prefix (k <= 3): decay of the curve below ``decay_frac``
    of its first value; the cutoff-factor bound
    ||T_eta k_{z_m}|| <= sqrt(nu_V2) (1-|z_m|^2)^((n+1)/2) / delta^(n+1)
    plus the truncation slack ||T_eta|| sqrt(1 - ||P k_{z_m}||^2); and,
    for every product curve, the log-log slope of the curve against
    1 - |z_m|^2 within ``slope_rel`` of (n+1)/2.  ``routes`` records how
    each panel matrix was assembled (``unitaries.toeplitz_route``).
    """
    pts = seq.points()
    n = basis.n
    dists = cfg.f_set.min_dist(pts)
    bad = np.nonzero(dists < cfg.eps)[0]
    if bad.size:
        raise ValueError(
            f"sequence point {int(bad[0])} is within eps of the direction set "
            f"(dist = {float(dists[bad[0]]):.6g} < {cfg.eps})")

    kz = [kernel_expansion(p, basis).coeffs for p in pts]

    panel = g_symbols[:3]
    mats = [toeplitz_auto(g, basis, rule) for g in panel]
    curves = []
    decay_ok = []
    prod = None
    for tmat in mats:
        prod = tmat if prod is None else prod @ tmat
        curve = [float(np.linalg.norm(prod.apply(v))) for v in kz]
        curves.append(curve)
        decay_ok.append(bool(curve[-1] <= decay_frac * curve[0]))

    one_minus = seq.gaps * (2.0 - seq.gaps)  # 1 - t_m^2 from the exact gaps
    factors = one_minus ** (0.5 * (n + 1))

    if len(cfg.f_set):
        t_eta = toeplitz_matrix(cfg.eta, basis, rule)
        eta_norm = op_norm(t_eta)
        lhs = np.asarray([float(np.linalg.norm(t_eta.apply(v))) for v in kz])
        knorms = [float(np.linalg.norm(v)) for v in kz]
        escape = np.asarray([math.sqrt(max(0.0, 1.0 - k ** 2))
                             for k in knorms])
        slack = eta_norm * escape + 1e-8  # quadrature error of T_eta
        rhs = math.sqrt(max(cfg.nu_v2, 0.0)) * factors / cfg.delta ** (n + 1)
        bound_ok = bool(np.all(lhs <= rhs + slack))
        eta_data = {"lhs": lhs.tolist(), "rhs": rhs.tolist(),
                    "slack": slack.tolist()}
    else:
        bound_ok = True
        eta_data = {"lhs": [0.0] * len(seq), "rhs": [0.0] * len(seq),
                    "slack": [0.0] * len(seq)}

    # a curve that reaches 0 has no log-log slope (None), and fails
    x = np.log(one_minus)
    slopes = [float(np.polyfit(x, np.log(curve), 1)[0]) if min(curve) > 0.0
              else None for curve in curves]
    slope_target = 0.5 * (n + 1)
    slope_ok = all(v is not None and abs(v - slope_target)
                   <= slope_rel * slope_target for v in slopes)

    return {
        "radii": seq.radii.tolist(),
        "one_minus_sq": one_minus.tolist(),
        "curves": curves,
        "decay_ok": decay_ok,
        "eta_bound": eta_data,
        "eta_bound_ok": bound_ok,
        "slopes": slopes,
        "slope_target": slope_target,
        "slope_ok": slope_ok,
        "routes": [toeplitz_route(g, n) for g in panel],
        "ok": all(decay_ok) and bound_ok and slope_ok,
    }


def default_panel(F1: SphereSet, r: float, n: int) -> list[Symbol]:
    """Three generators supported in W_{F1} (compact-support class).

    With F1 empty they are radial bumps and a disk.  Otherwise they are
    rho-bumps (1 - rho(z, c)^2 / R^2)_+ with R = 0.9 r at c = tau zeta,
    zeta in F1, built as h o phi_c with h radial (``compose_moebius``).
    """
    if len(F1) == 0:
        def bump(scale):
            def profile(u, R=scale * r):
                q = np.asarray(u) / R
                return np.clip(1.0 - q * q, 0.0, None)
            return profile
        return [
            Symbol.radial(bump(1.0), 1.0, support=r, label="g1:bump(r)"),
            Symbol.radial(bump(0.8), 1.0, support=0.8 * r, label="g2:bump(0.8r)"),
            Symbol.radial(lambda u: (np.asarray(u) < 0.6 * r).astype(float),
                          1.0, support=0.6 * r, label="g3:disk(0.6r)"),
        ]
    out = []
    rr = 0.9 * r

    def profile(u):
        return np.clip(1.0 - (np.asarray(u) / rr) ** 2, 0.0, None)

    h = Symbol.radial(profile, 1.0, support=rr)
    for i, tau in enumerate((0.35, 0.6, 0.8)):
        zeta = F1.points[i % len(F1)]
        out.append(replace(h.compose_moebius(tau * zeta),
                           label=f"g{i+1}:rho-bump({tau})"))
    return out


def separation_experiment(F1: SphereSet, F2: SphereSet, r: float, M: int,
                          basis: TruncatedBasis, rule: QuadratureRule, *,
                          eps: float, rng: np.random.Generator,
                          decay_M: int, separation_factor: float,
                          decay_frac: float, slope_rel: float) -> dict:
    """The flagship experiment: witness floor against ideal-sample decay.

    Builds the witness along a direction of F2 far from F1, runs the
    lower-bound check over its M-term sequence, and runs the decay panel
    from the F1 symbol class along the same ray, extended to the decay
    suite's horizon ``decay_M`` (the deterministic schedule makes the
    M-term sequence a prefix).  All curves are
    normalized at their first point, which cancels the common truncation
    factor ||P_d k_{z_m}||.  The verdict compares the witness floor at
    its own horizon against the ideal finals at theirs, each suite at the
    baseline its criteria pin; the same-horizon factor (structurally
    limited by the constant-function channel to roughly
    ||T v||/||A v|| on the flat limit vector) is reported alongside.

    Also verifies region monotonicity (F1 inside F2), the boundary
    traces, and that every panel symbol vanishes off W_{F1}.
    """
    n = basis.n
    if len(F2) == 0:
        raise ValueError("F2 must be non-empty")
    dists = (np.full(len(F2), np.inf) if len(F1) == 0
             else F1.min_dist(F2.points))
    order = np.argsort(-dists)
    best = int(order[0])
    if not (dists[best] >= 2.0 * eps):
        raise ValueError(
            f"no direction of F2 is at distance >= 2 eps = {2 * eps} from F1 "
            f"(best is {float(dists[best]):.6g})")
    zeta = F2.points[best]

    witness = witness_operator(zeta, r, M, basis)
    lemma3 = lemma3_lower_bound(witness.T, witness.S, witness.unitaries)

    symbols = default_panel(F1, r, n)

    # panel symbols must vanish off W_{F1}
    probe = sample_ball(n, 512, rng)
    m1 = np.atleast_1d(in_region_W(F1, r, probe))
    vanish_max = 0.0
    for g in symbols:
        if not np.all(m1):
            vanish_max = max(vanish_max, float(np.max(np.abs(g(probe[~m1])))))
    vanish_ok = vanish_max <= 1e-12

    # monotone region: membership in W_{F1} implies membership in W_{F2}
    m2 = np.atleast_1d(in_region_W(F2, r, probe))
    monotone_violations = int(np.count_nonzero(m1 & ~m2))

    trace1 = boundary_trace_check(F1, r, 200, 0.999, rng)
    trace2 = boundary_trace_check(F2, r, 200, 0.999, rng)

    seq_decay = build_sequence(zeta, r, decay_M)
    cfg = build_prop1_config(F1, eps, rule)
    prop1 = prop1_decay(symbols, seq_decay, cfg, basis, rule,
                        decay_frac=decay_frac, slope_rel=slope_rel)

    wnorms = np.asarray(lemma3["norms"])
    wcurve = (wnorms / wnorms[0]).tolist()
    floor = float(np.min(wnorms) / wnorms[0])
    ceilings = [curve[-1] / curve[0] for curve in prop1["curves"]]
    ceiling = float(max(ceilings))
    ceilings_same_m = [curve[M - 1] / curve[0] for curve in prop1["curves"]]
    ceiling_same_m = float(max(ceilings_same_m))
    factor = floor / ceiling if ceiling > 0 else math.inf
    factor_same_m = floor / ceiling_same_m if ceiling_same_m > 0 else math.inf
    separation_ok = bool(factor >= separation_factor)

    ok = (separation_ok and vanish_ok and monotone_violations == 0
          and trace1["ok"] and trace2["ok"] and lemma3["ok"] and prop1["ok"])
    return {
        "zeta": [[float(v.real), float(v.imag)] for v in zeta],
        "selected_distance": (None if math.isinf(float(dists[best]))
                              else float(dists[best])),
        "witness_curve_raw": wnorms.tolist(),
        "witness_curve_normalized": wcurve,
        "witness_floor_normalized": floor,
        "ideal_ceiling_normalized": ceiling,
        "ideal_ceiling_same_horizon": ceiling_same_m,
        "witness_horizon": int(M),
        "decay_horizon": int(decay_M),
        "separation_factor": factor,
        "separation_factor_same_horizon": factor_same_m,
        "separation_ok": separation_ok,
        "panel_labels": [g.label for g in symbols],
        "vanish_off_region_max": vanish_max,
        "vanish_ok": vanish_ok,
        "monotone_violations": monotone_violations,
        "boundary_trace_F1": trace1,
        "boundary_trace_F2": trace2,
        "lemma3": lemma3,
        "prop1": prop1,
        "conditioning_warning": witness.conditioning_warning,
        "ok": ok,
    }
