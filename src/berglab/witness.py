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

The witness needs no truncated model: S is diagonal in the monomial
basis, so each <T k_{z_m}, k_{z_m}> is a closed-form Berezin sum over the
pairwise pseudo-hyperbolic distances, cut at a core degree with a proven
tail bound (``lemma3_lower_bound``).  The decay side acts on the
truncated kernel columns P_d k_{z_m}, and the separation experiment
measures the two, each normalized at its first point, at the same horizon.
These functions return measurements; the suites hold the bounds and judge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import TruncatedBasis
from .geometry import (_norm2, as_point, inner, pseudo_metric,
                       random_sphere_points, sample_ball)
from .sequences import SeparatedSequence, build_sequence, pairwise_rho
# toeplitz_matrix is unused here, but the benchmark tracer patches it here
from .toeplitz import (Symbol, _profile_integrals, apply_blocks, ray_bands,
                       toeplitz_matrix)
from .unitaries import core_degree, moebius_pair, toeplitz_blocks

__all__ = ["SphereSet", "in_region_W", "region_infimum",
           "boundary_trace_check", "exclusion_radius", "witness_symbol",
           "WitnessOperator", "witness_operator", "lemma3_lower_bound",
           "Prop1Config", "build_prop1_config", "lens_volume", "prop1_decay",
           "default_panel", "separation_experiment"]


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
    c = inner(z[:, None, :], F.points[None])  # (B, K)
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

    Returns counts; the contract is zero violations, all of F confirmed.
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
    """S = [T_f, T_conj(f)]^2 on the truncation, as its real diagonal, and
    the two-route probe along the sequence: its defects and the route
    record of each composed assembly (``unitaries.moebius_pair``)."""

    S: np.ndarray
    two_route_defects: tuple[float, ...]
    two_route_routes: tuple[dict, ...]


def witness_operator(zeta, r: float, M: int,
                     basis: TruncatedBasis) -> WitnessOperator:
    """Assemble S = [T_f, T_conj(f)]^2 and probe, per sequence term, the
    identity U_z [T_f, T_conj(f)] U_z* = [T_{f o phi_z}, T_{conj(f) o phi_z}].

    T_f (the banded fast path, exact for the witness profile) is a
    shift, so its commutator and S = C^2 are exactly diagonal: S at
    alpha is (|a(alpha - e_1)|^2 - |a(alpha)|^2)^2 with a(alpha) the band
    value that takes e_alpha to e_{alpha + e_1} (``ray_bands``).
    U_{z_m} has exact entries, so zeta must be a point c e_j of a
    coordinate axis, |c| = 1, when n >= 2.
    The left side is a product of compressions, (P U_z P) S (P U_z P),
    and the right side the compression of a product, [B, B*]^2 with
    B = P U_z T_f U_z P, the exact compression of the composed symbol.
    Both come from one set of blocks of U_z
    (``unitaries.moebius_pair``), so the defect measures truncation
    alone, and shrinks with the degree.

    U_z keeps each ray of axis j (positions (alpha', a), a = 0..d - |alpha'|)
    and B maps the ray of alpha' into itself (j = 0) or into the ray of
    alpha' + e_1, so the difference keeps each ray and its block is the
    same on every ray of one class: s = |alpha'| on axis 0, and
    (s, alpha'_1) off it.  The defect, its operator norm, is the largest
    norm of U_s diag(S) U_s* - C^2 over the classes, with
    C = B B* - B* B on the ray from the triple of B that enters it and the
    one that leaves it; no B x B array is formed.
    """
    f = witness_symbol(r)
    size = len(basis)
    into, out = np.zeros(size), np.zeros(size)
    for rows, cols, (offset, vals) in ray_bands(f.profile, 0, basis, 0, r):
        sq = np.abs(vals) ** 2
        into[rows[:, offset:offset + len(sq)]] = sq
        out[cols[:, :len(sq)]] = sq
    s = (into - out) ** 2
    defects, routes = [], []
    for p in build_sequence(zeta, r, M).points():
        route, u, b = moebius_pair(f.compose_moebius(p), basis)
        # the triple of B that enters and that leaves each ray, by its
        # first position, and their parts B B* and B* B on that ray
        enter, leave = np.full(size, -1), np.full(size, -1)
        for i, (rows, cols, _) in enumerate(b):
            enter[rows[:, 0]], leave[cols[:, 0]] = i, i
        grams_in = [blk @ blk.conj().T for _, _, blk in b]
        grams_out = [blk.conj().T @ blk for _, _, blk in b]
        norms = []
        for pos, _, v in u:
            # one ray per class: the first ray of each alpha_1
            _, first = np.unique(basis.indices[pos[:, 0], 0],
                                 return_index=True)
            for ray in pos[first]:
                zero = np.zeros((len(ray), len(ray)))
                i, o = enter[ray[0]], leave[ray[0]]
                c = ((grams_in[i] if i >= 0 else zero)
                     - (grams_out[o] if o >= 0 else zero))
                norms.append(np.linalg.norm(
                    (v * s[ray]) @ v.conj().T - c @ c, 2))
        defects.append(float(max(norms)))
        routes.append(route)
    return WitnessOperator(S=s, two_route_defects=tuple(defects),
                           two_route_routes=tuple(routes))


def _s_diagonal(r: float, basis: TruncatedBasis) -> np.ndarray:
    """Diagonal of S = [T_f, T_conj(f)]^2 for the witness symbol, which is
    all of S.

    T_f e_alpha = a(alpha) e_{alpha + e_1} with
    a(alpha)^2 = I_{k+1}^2 (n + k + 1)(alpha_1 + 1) at k = |alpha|
    (``toeplitz_monomial_radial``), so the commutator is diagonal with
    c(alpha) = a(alpha - e_1)^2 - a(alpha)^2
             = I_k^2 (n + k) alpha_1 - I_{k+1}^2 (n + k + 1)(alpha_1 + 1),
    and S = C^2 has entries c(alpha)^2.  Every entry is exact: unlike
    the compression of C, nothing is lost at the top degree.
    """
    n = basis.n
    ints = _profile_integrals(witness_symbol(r).profile, n, basis.degree + 1,
                              r).real
    k = basis.degrees
    a1 = basis.indices[:, 0]
    c = (ints[k] ** 2 * (n + k) * a1
         - ints[k + 1] ** 2 * (n + k + 1) * (a1 + 1))
    return c * c


def _berezin_core(r: float, n: int, lam: float) -> tuple[int, float]:
    """Core degree K of the Berezin sum and its per-term tail bound.

    I_k <= R^(2(n+k)) / (n+k) for the profile 0 <= eta <= 1 supported in
    |z| <= R = r, so a(alpha) <= R^(2(n+|alpha|+1)) and
    s_alpha <= R^(8(n+|alpha|)).  Since ||k_w|| = 1, the entries above
    degree K add at most R^(8(n+K+1)) to S~(w) = <S k_w, k_w> at any w.
    K is the smallest degree where that bound is below 2^-60 lambda.
    """
    return core_degree(lambda k: r ** (8 * (n + k + 1)), lam,
                       f"the Berezin sum at witness radius r = {r}, n = {n}")


def lemma3_lower_bound(seq: SeparatedSequence) -> dict:
    """Lower bound of the witness T = sum_k U_{z_k} S U_{z_k}* along the
    sequence, as a closed-form Berezin sum with no U_z.

    S is diagonal in the monomial basis (``_s_diagonal``), and its
    largest entry s_0 = lambda_max belongs to e_0 = 1, whose image
    U_{z_m} 1 is the normalized kernel k_{z_m}.  Since
    U_a k_z = c k_{phi_a(z)} with |c| = 1 and |phi_{z_k}(z_m)| = rho_km,
    value_m = <T k_{z_m}, k_{z_m}> = sum_k S~(rho_km zeta), with
    S~(w) = (1 - |w|^2)^(n+1) sum_alpha s_alpha |e_alpha(w)|^2.  The
    k = m term is S~(0) = lambda_max and every other term is >= 0, so
    ||T k_{z_m}|| >= value_m >= lambda_max (Lemma 3), which the floating
    sum keeps exactly.

    The sum runs over degrees <= K (``_berezin_core``).  Dropping the
    rest lowers each value by at most ``tail_bound`` (M terms, each
    within the per-term bound); ``core_defect`` is the largest part of
    a value carried by degrees K + 1 to K + 10, which must stay within
    it.  The suites judge that, and ``floor_c`` against ``lambda_max``.
    """
    n, r, M = len(seq.zeta), seq.r, len(seq)
    core, tail = _berezin_core(
        r, n, _s_diagonal(r, TruncatedBasis.create(n, 0))[0])
    basis = TruncatedBasis.create(n, core + 10)
    s = _s_diagonal(r, basis)
    lam = float(s[0])  # the k = m term, exactly, so floor_c >= lam holds
    if int(np.argmax(s)) != 0:
        raise ValueError(f"the largest entry of S at r = {r}, n = {n} is "
                         "not at degree 0")
    rho = pairwise_rho(seq).reshape(-1)
    terms = (np.abs(basis.eval(rho[:, None] * seq.zeta[None, :])) ** 2 * s
             * (((1.0 - rho) * (1.0 + rho)) ** (n + 1))[:, None])
    kept = basis.degrees <= core
    values = terms[:, kept].sum(axis=1).reshape(M, M).sum(axis=0)
    defect = float(terms[:, ~kept].sum(axis=1).reshape(M, M)
                   .sum(axis=0).max())
    return {
        "lambda_max": lam,
        "values": values.tolist(),
        "margins": (values - lam).tolist(),
        "floor_c": float(values.min()),
        "core_degree": core,
        "tail_bound": M * tail,
        "core_defect": defect,
        "conditioning_warning": bool(seq.gaps[-1] < 1e-6),
    }


@dataclass(frozen=True)
class Prop1Config:
    """Cutoff data for the decay bound along a sequence avoiding F.

    eta is 1 on the eps/3-neighborhood of F, 0 outside the eps/2-
    neighborhood, linear in Euclidean distance between; nu_v2 is the
    measure of the eps/2-neighborhood within the ball ("lens", exact),
    or an upper bound on it ("lens_bound"), as ``nu_v2_method`` says
    (None when F is empty).
    delta is the certified lower bound eps^2 / 8 on |1 - <z, w>| for z
    in the closed ball within eps/2 of F and w in the closed ball at
    distance >= eps from F (see ``build_prop1_config``).
    """

    eps: float
    eta: Symbol
    delta: float
    nu_v2: float
    f_set: SphereSet
    nu_v2_method: str | None


def _beta_half(x: float, n: int) -> float:
    """The regularized incomplete beta function I_x(n + 1/2, 1/2).

    For x > 1/2, upward recurrence in a from I_x(1/2, 1/2) =
    (2/pi) arcsin sqrt(x): I_x(a + 1, b) = I_x(a, b) - x^a (1-x)^b /
    (a B(a, b)) (DLMF 8.17.20).  For x <= 1/2 the result is small and
    that difference cancels, so the hypergeometric series
    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) sum_k (a+b)_k / (a+1)_k x^k
    (DLMF 8.17.8), whose terms are positive, is summed instead.
    """
    a, beta = 0.5, math.pi  # B(1/2, 1/2)
    root = math.sqrt(1.0 - x)
    if x <= 0.5:
        for _ in range(n):
            beta *= a / (a + 0.5)
            a += 1.0
        term = total = 1.0
        k = 0
        while term > 2.0 ** -53 * total:
            term *= x * (a + 0.5 + k) / (a + 1.0 + k)
            total += term
            k += 1
        return x ** a * root / (a * beta) * total
    value = 2.0 / math.pi * math.asin(math.sqrt(x))
    for _ in range(n):
        value -= x ** a * root / (a * beta)
        beta *= a / (a + 0.5)
        a += 1.0
    return value


def lens_volume(n: int, s: float) -> float:
    """nu of {|z - zeta| < s} within the ball, for |zeta| = 1 and s^2 <= 2.

    Two balls of R^(2n), one of radius s centred on the unit sphere:
    the plane between their boundaries cuts a cap of height s^2 / 2 off
    the unit ball and one of height s - s^2 / 2 off the small ball, so
    by the hyperspherical-cap formula (S. Li, Asian J. Math. Stat. 4,
    2011) nu = I_{x1}(n+1/2, 1/2) / 2 + s^(2n) I_{x2}(n+1/2, 1/2) / 2
    with x1 = s^2 (1 - s^2/4) and x2 = 1 - s^2/4.
    """
    if not 0.0 < s * s <= 2.0:
        raise ValueError(f"lens radius must satisfy 0 < s^2 <= 2, got {s}")
    q = s * s / 4.0
    return 0.5 * (_beta_half(s * s * (1.0 - q), n)
                  + s ** (2 * n) * _beta_half(1.0 - q, n))


def build_prop1_config(F: SphereSet, eps: float) -> Prop1Config:
    """Realize the cutoff construction for a finite direction set F.

    delta = eps^2 / 8 is a proven bound: for z, w in the closed ball,
    2 Re(1 - <z, w>) = |z - w|^2 + (1 - |z|^2) + (1 - |w|^2) >= |z - w|^2,
    and |z - w| >= eps / 2 when z is within eps/2 of F and w is at
    distance >= eps, so |1 - <z, w>| >= Re(1 - <z, w>) >= eps^2 / 8.

    eta is a "cutoff" symbol (``Symbol``), 0 when F is empty.  nu_v2 is
    min(1, |F| lens), with lens the closed-form measure of one
    eps/2-neighborhood (``lens_volume``), or 1 when (eps/2)^2 > 2, past
    the lens formula.  A union measures at most the sum of its parts and
    nu(ball) = 1, so that is an upper bound, which is all the decay bound
    needs ("lens_bound"); it is exact ("lens") when the points of F are at
    least eps apart, so their eps/2-neighborhoods are disjoint, and
    (eps/2)^2 <= 2.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if len(F) == 0:
        zero = Symbol.sampled(lambda pts: np.zeros(pts.shape[0], complex),
                              0.0, label="eta(empty)")
        return Prop1Config(eps=eps, eta=zero, delta=1.0, nu_v2=0.0, f_set=F,
                           nu_v2_method=None)

    lo, hi = eps / 3.0, eps / 2.0

    def profile(u):
        return np.clip((hi - np.asarray(u)) / (hi - lo), 0.0, 1.0)
    eta = Symbol(fn=lambda pts: profile(F.min_dist(pts)).astype(complex),
                 sup_norm_bound=1.0, kind="cutoff", profile=profile,
                 support=hi, label=f"eta(eps={eps})",
                 points=tuple(map(tuple, F.points.tolist())))

    dists = np.linalg.norm(F.points[:, None, :] - F.points[None, :, :],
                           axis=2)
    apart = bool(np.all(dists[~np.eye(len(F), dtype=bool)] >= eps))
    fits = hi * hi <= 2.0  # within the lens formula
    nu_v2 = min(1.0, len(F) * lens_volume(F.n, hi)) if fits else 1.0
    method = "lens" if apart and fits else "lens_bound"
    return Prop1Config(eps=eps, eta=eta, delta=eps * eps / 8.0, nu_v2=nu_v2,
                       f_set=F, nu_v2_method=method)


def prop1_decay(g_symbols: list[Symbol], seq: SeparatedSequence,
                cfg: Prop1Config, basis: TruncatedBasis) -> dict:
    """Decay of ||T_{g1}..T_{gk} U_{z_m} 1|| along a sequence avoiding
    ``cfg.f_set``.

    U_{z_m} 1 = k_{z_m}, so the panel acts on the closed-form kernel
    columns P k_{z_m} = (1 - t_m^2)^((n+1)/2) conj(e_alpha(z_m)), with
    1 - t_m^2 from the sequence's exact gaps, and builds no U_z; the
    factors (1 - t_m^2)^((n+1)/2), rounded once, also scale the bound.
    The columns are one (B, M) block K, and each operator is held as its
    block triples (``unitaries.toeplitz_blocks``) and applied to it from
    the right, T_{g1}(T_{g2}(T_{g3} K)) (``toeplitz.apply_blocks``), as
    is T_eta: no operator is multiplied by another, and off the
    quadrature route no B x B array is formed.  Measures, for the suites
    to judge, per product prefix (k <= 3): the ratio c[-1] / c[0] of the
    curve (``decay_ratios``; None where c[0] = 0); the sides of the bound
    ||T_eta k_{z_m}|| <= sqrt(nu_V2) (1-|z_m|^2)^((n+1)/2) / delta^(n+1)
    plus a slack (``eta_bound``); and the log-log slope of the curve
    against 1 - |z_m|^2, relative to (n+1)/2 (``slope_deviations``; None
    for a curve with no slope).

    ||P T_eta P k_{z_m}|| exceeds ||T_eta k_{z_m}|| by at most
    ||T_eta|| ||(I - P) k_{z_m}|| <= sup eta sqrt(1 - ||P k_{z_m}||^2)
    plus the error of the assembled T_eta, so the slack is that plus the
    defect of T_eta's route (none on quadrature, which is not measured).
    ``routes`` and ``eta_route`` record how each panel matrix and T_eta
    were assembled (``unitaries.toeplitz_blocks``, which builds a
    quadrature rule only on that route); ``eta_route`` is None when F
    is empty and T_eta is 0.
    """
    pts = seq.points()
    n = basis.n
    dists = cfg.f_set.min_dist(pts)
    bad = np.nonzero(dists < cfg.eps)[0]
    if bad.size:
        raise ValueError(
            f"sequence point {int(bad[0])} is within eps of the direction set "
            f"(dist = {float(dists[bad[0]]):.6g} < {cfg.eps})")

    one_minus = seq.one_minus_sq
    # scalar pows, as in kernel_expansion: numpy's vector pow can round apart
    factors = np.array([x ** (0.5 * (n + 1)) for x in one_minus.tolist()])
    kz = np.conj(basis.eval(pts)).T * factors

    built = [toeplitz_blocks(g, basis) for g in g_symbols[:3]]
    routes, ops = [r for r, _ in built], [t for _, t in built]
    curves = []
    for k in range(1, len(ops) + 1):
        prod = kz
        for op in reversed(ops[:k]):  # T_{g1}(...(T_{gk} K))
            prod = apply_blocks(op, prod)
        curves.append([float(np.linalg.norm(v)) for v in prod.T])

    eta_route = None
    if len(cfg.f_set):
        eta_route, t_eta = toeplitz_blocks(cfg.eta, basis)
        lhs = np.asarray([float(np.linalg.norm(v))
                          for v in apply_blocks(t_eta, kz).T])
        knorms = [float(np.linalg.norm(v)) for v in kz.T]
        escape = np.asarray([math.sqrt(max(0.0, 1.0 - k ** 2))
                             for k in knorms])
        slack = cfg.eta.sup_norm_bound * escape + (eta_route["defect"] or 0.0)
        rhs = math.sqrt(max(cfg.nu_v2, 0.0)) * factors / cfg.delta ** (n + 1)
        eta_data = {"lhs": lhs.tolist(), "rhs": rhs.tolist(),
                    "slack": slack.tolist()}
    else:
        eta_data = {"lhs": [0.0] * len(seq), "rhs": [0.0] * len(seq),
                    "slack": [0.0] * len(seq)}

    # a curve that starts at 0 has no decay ratio, and a curve of one
    # point, or one that reaches 0, no log-log slope (None)
    ratios = [c[-1] / c[0] if c[0] > 0.0 else None for c in curves]
    x = np.log(one_minus)
    slopes = [float(np.polyfit(x, np.log(curve), 1)[0])
              if len(curve) >= 2 and min(curve) > 0.0 else None
              for curve in curves]
    slope_target = 0.5 * (n + 1)
    deviations = [None if v is None else abs(v - slope_target) / slope_target
                  for v in slopes]

    return {
        "radii": seq.radii.tolist(),
        "one_minus_sq": one_minus.tolist(),
        "curves": curves,
        "decay_ratios": ratios,
        "eta_bound": eta_data,
        "eta_route": eta_route,
        "nu_v2": cfg.nu_v2,
        "nu_v2_method": cfg.nu_v2_method,
        "slopes": slopes,
        "slope_target": slope_target,
        "slope_deviations": deviations,
        "routes": routes,
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
                          basis: TruncatedBasis, *, eps: float,
                          rng: np.random.Generator, decay_M: int) -> dict:
    """The flagship experiment: witness floor against ideal-sample decay.

    Runs the lower-bound check (``lemma3_lower_bound``, no U_z) over the
    M-term sequence along a direction of F2 far from F1, and the decay
    panel from the F1 symbol class along the same ray, extended to the
    decay suite's horizon ``decay_M`` (the deterministic schedule makes
    the M-term sequence a prefix).  The witness curve is the Berezin
    values <T k_{z_m}, k_{z_m}>; every curve is normalized at its first
    point.  ``separation_factor`` is the witness floor over the largest
    panel curve, both at the witness horizon M.

    Also measures region monotonicity (points of W_{F1} outside W_{F2}),
    the boundary traces, and the panel symbols off W_{F1}, for
    ``suites.run_separate`` to judge.  No quadrature rule is built unless
    a panel symbol or eta takes the quadrature route
    (``unitaries.toeplitz_blocks``).
    """
    n = basis.n
    if len(F2) == 0:
        raise ValueError("F2 must be non-empty")
    dists = F1.min_dist(F2.points)
    order = np.argsort(-dists)
    best = int(order[0])
    if not (dists[best] >= 2.0 * eps):
        raise ValueError(
            f"no direction of F2 is at distance >= 2 eps = {2 * eps} from F1 "
            f"(best is {float(dists[best]):.6g})")
    zeta = F2.points[best]

    lemma3 = lemma3_lower_bound(build_sequence(zeta, r, M))

    symbols = default_panel(F1, r, n)

    # panel symbols must vanish off W_{F1}
    probe = sample_ball(n, 512, rng)
    m1 = np.atleast_1d(in_region_W(F1, r, probe))
    vanish_max = 0.0
    for g in symbols:
        if not np.all(m1):
            vanish_max = max(vanish_max, float(np.max(np.abs(g(probe[~m1])))))

    # monotone region: membership in W_{F1} implies membership in W_{F2}
    m2 = np.atleast_1d(in_region_W(F2, r, probe))
    monotone_violations = int(np.count_nonzero(m1 & ~m2))

    trace1 = boundary_trace_check(F1, r, 200, 0.999, rng)
    trace2 = boundary_trace_check(F2, r, 200, 0.999, rng)

    seq_decay = build_sequence(zeta, r, decay_M)
    cfg = build_prop1_config(F1, eps)
    prop1 = prop1_decay(symbols, seq_decay, cfg, basis)

    values = np.asarray(lemma3["values"])
    wcurve = values / values[0]
    floor = float(wcurve.min())
    ceiling = float(max(curve[M - 1] / curve[0]
                        for curve in prop1["curves"]))
    factor = floor / ceiling if ceiling > 0 else math.inf
    return {
        "zeta": [[float(v.real), float(v.imag)] for v in zeta],
        "selected_distance": (None if math.isinf(float(dists[best]))
                              else float(dists[best])),
        "witness_curve_raw": values.tolist(),
        "witness_curve_normalized": wcurve.tolist(),
        "witness_floor_normalized": floor,
        "ideal_ceiling_normalized": ceiling,
        "witness_horizon": int(M),
        "decay_horizon": int(decay_M),
        "separation_factor": factor,
        "panel_labels": [g.label for g in symbols],
        "vanish_off_region_max": vanish_max,
        "monotone_violations": monotone_violations,
        "boundary_trace_F1": trace1,
        "boundary_trace_F2": trace2,
        "lemma3": lemma3,
        "prop1": prop1,
        "conditioning_warning": lemma3["conditioning_warning"],
    }
