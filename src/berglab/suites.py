"""Experiment suites: one callable per CLI subcommand.

Each suite returns a report dict with a machine-readable check list
("checks", "failures", "passed"), the measured values, and any curve
data destined for CSV.  The acceptance tests call the same functions, so
the CLI exit code and the test verdicts cannot drift apart.
"""

from __future__ import annotations

import numpy as np

from .basis import (Expansion, TruncatedBasis, kernel, kernel_expansion,
                    project, weighted_gram)
from .config import ExperimentConfig
from .geometry import (_ellipsoid, _norm2, delta_for, disjoint_threshold,
                       in_ellipsoid, in_metric_ball, metric_combined_bound,
                       moebius, pseudo_metric, random_sphere_points,
                       sample_ball, sample_ball_blocks, sample_metric_ball)
from .quadrature import build_rule, integrate, rule_for_basis
from .sequences import build_sequence, pairwise_rho
from .toeplitz import (Symbol, commutator, op_norm, toeplitz_matrix,
                       toeplitz_monomial_radial, toeplitz_radial)
from .unitaries import (unitary_matrix_exact, unitary_matrix_quadrature,
                        weak_pairing_exact)
from .witness import (SphereSet, build_prop1_config, default_panel,
                      lemma3_lower_bound, prop1_decay,
                      separation_experiment, witness_operator,
                      witness_symbol)
from .reports import check, summarize_checks

__all__ = ["run_geometry", "run_sequence", "run_basis", "run_toeplitz",
           "run_unitary", "run_witness", "run_prop1", "run_separate",
           "run_all", "SUITES"]

_GEOM_DIMS = (1, 2, 3)
# The geometry checks draw up to 100k points per dimension and take them
# in blocks of at most this many points, from the same draws, so no array
# exceeds about 0.5 MB.  Whole-sample arrays (4.8 MB at n = 3) were placed
# by malloc around small blocks left over from earlier work, so the peak
# RSS of a run moved by up to 5 MiB with the seed.
_SAMPLE_ROWS = 10_000


def _rng(cfg: ExperimentConfig, suite: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, suite])


def _window_norm(mat: np.ndarray, basis: TruncatedBasis,
                 probe_degree: int) -> float:
    keep = basis.degrees <= probe_degree
    return float(np.linalg.norm(mat[np.ix_(keep, keep)], 2))


def _decreasing(values) -> bool:
    """True iff there are at least two values and each is below the one
    before: a sweep of one degree shows no convergence."""
    return len(values) >= 2 and bool(np.all(np.diff(values) < 0))


def _near_boundary_points(zetas: np.ndarray, delta: float,
                          rng: np.random.Generator) -> np.ndarray:
    """One point a per direction with |a - zeta| < delta and |a| < 1."""
    n = zetas.shape[1]
    out = np.empty_like(zetas)
    pending = np.arange(len(zetas))
    while pending.size:
        v = sample_ball(n, pending.size, rng)
        cand = zetas[pending] + 0.98 * delta * v
        good = np.linalg.norm(cand, axis=1) < 1.0
        out[pending[good]] = cand[good]
        pending = pending[~good]
    return out


# ----------------------------------------------------------------- geometry

def _combined_metric_violation(n: int, rng: np.random.Generator) -> float:
    """Largest lhs - rhs of the combined-metric inequality over 100k
    triples.  The kernel runs one block of triples at a time, but all
    three lists of blocks are held at once (3 x 4.8 MB at n = 3), since
    every z is drawn before the first w and u."""
    z, w, u = (sample_ball_blocks(n, 100_000, rng, 0.95, _SAMPLE_ROWS)
               for _ in range(3))
    return max(float(np.max(lhs - rhs)) for lhs, rhs in
               (metric_combined_bound(*block) for block in zip(z, w, u)))


def _geometry_metrics(cfg: ExperimentConfig) -> tuple[list, dict]:
    """The Möbius and metric checks: eq. 4, involution, isometry and
    disjointness.  Their values depend on the draws, so they keep the
    suite's stream and its order."""
    rng = _rng(cfg, 1)
    checks = []
    payload: dict = {}

    eq4_tol = cfg.tol("eq4_violation")
    worst_eq4 = 0.0
    for n in _GEOM_DIMS:
        worst_eq4 = max(worst_eq4, _combined_metric_violation(n, rng))
    payload["eq4_max_violation"] = worst_eq4
    checks.append(check("eq4_combined_metric", worst_eq4 <= eq4_tol,
                        worst_eq4, eq4_tol))

    inv_tol = cfg.tol("moebius_involution")
    worst_inv = 0.0
    for n in _GEOM_DIMS:
        a = sample_ball(n, 10_000, rng, 0.9)
        z = sample_ball(n, 10_000, rng, 0.9)
        back = moebius(a, moebius(a, z))
        worst_inv = max(worst_inv,
                        float(np.max(np.linalg.norm(back - z, axis=1))))
    payload["involution_max_error"] = worst_inv
    checks.append(check("moebius_involution", worst_inv <= inv_tol,
                        worst_inv, inv_tol))

    iso_tol = cfg.tol("rho_isometry")
    worst_iso = 0.0
    for n in _GEOM_DIMS:
        u = sample_ball(n, 10_000, rng, 0.9)
        z = sample_ball(n, 10_000, rng, 0.9)
        w = sample_ball(n, 10_000, rng, 0.9)
        before = pseudo_metric(z, w)
        after = pseudo_metric(moebius(u, z), moebius(u, w))
        worst_iso = max(worst_iso, float(np.max(np.abs(after - before))))
    payload["isometry_max_error"] = worst_iso
    checks.append(check("rho_moebius_isometry", worst_iso <= iso_tol,
                        worst_iso, iso_tol))

    # ball disjointness under the threshold: pair k samples E(z_k), E(w_k)
    overlap = 0
    tested = 0
    for n in _GEOM_DIMS:
        z = sample_ball(n, 40, rng, 0.9)
        w = sample_ball(n, 40, rng, 0.9)
        rho = pseudo_metric(z, w)
        keep = rho > 0.3
        rho = rho[keep]
        radii = 0.999 * (1.0 - np.sqrt(1.0 - rho * rho)) / rho
        if any(p < disjoint_threshold(s, s) for p, s in zip(rho, radii)):
            raise ValueError("disjointness radii too large: some pair is "
                             "closer than disjoint_threshold of its radii")
        centers = np.stack([z[keep], w[keep]], axis=1)  # (K, 2, n)
        step = _SAMPLE_ROWS // 2000  # pairs per block of points
        for k in range(0, len(centers), step):
            c, rk = centers[k:k + step], radii[k:k + step, None]
            pts = sample_metric_ball(c, rk, 1000, rng)
            inside = pseudo_metric(pts, c[:, ::-1, None, :]) < rk[..., None]
            overlap += int(np.count_nonzero(inside))
        tested += len(rho)
    payload["disjointness_configs"] = tested
    payload["disjointness_overlaps"] = overlap
    checks.append(check("ball_disjointness", overlap == 0, overlap, 0))
    return checks, payload


def _geometry_inclusion(cfg: ExperimentConfig) -> tuple[list, dict]:
    """Membership agreement and the delta-inclusion grid.  They report
    only violation counts (0) and the draw-free delta_for inequality, so
    they take a stream of their own and can run apart from the rest."""
    rng = np.random.default_rng([cfg.seed, 1, 1])
    checks = []
    payload: dict = {}

    # metric vs ellipsoid membership, away from the boundary band
    band = cfg.tol("membership_band")
    disagreements = 0
    for n in _GEOM_DIMS:
        draws = [(sample_ball(n, 1, rng, 0.85)[0], rng.uniform(0.2, 0.8),
                  sample_ball(n, 4000, rng)) for _ in range(12)]
        for a, r, z in draws:
            rho = pseudo_metric(z, a)
            off_band = np.abs(rho - r) > band
            m1 = rho[off_band] < r  # in_metric_ball, same rho
            m2 = in_ellipsoid(a, r, z[off_band])
            disagreements += int(np.count_nonzero(m1 != m2))
    payload["membership_disagreements"] = disagreements
    checks.append(check("membership_agreement", disagreements == 0,
                        disagreements, 0))

    # delta_for: inclusion of E(a, r) in the eps-ball at zeta, plus the
    # Euclidean inclusion E(a, r) within B(a, 2 r sqrt(s))
    grid = [(0.3, 0.2), (0.3, 0.1), (0.3, 0.05),
            (0.5, 0.2), (0.5, 0.1), (0.5, 0.05),
            (0.7, 0.2), (0.7, 0.1), (0.7, 0.05)]
    inclusion_violations = 0
    euclid_violations = 0
    ineq_ok = True
    for r, eps in grid:
        delta = delta_for(r, eps)
        ineq_ok &= 2 * r * np.sqrt(2 * delta / (1 - r * r)) + delta < eps
        for n in _GEOM_DIMS:
            count = 34 if n == 1 else 33
            zetas = random_sphere_points(n, count, rng)
            centers = _near_boundary_points(zetas, delta, rng)
            s = _ellipsoid(_norm2(centers), r)[0]
            step = _SAMPLE_ROWS // 1000  # centers per block of points
            for k in range(0, count, step):
                c = centers[k:k + step]
                pts = sample_metric_ball(c, r, 1000, rng)
                dist = np.sqrt(_norm2(pts - zetas[k:k + step, None, :]))
                inclusion_violations += int(np.count_nonzero(dist >= eps))
                da = np.sqrt(_norm2(pts - c[:, None, :]))
                euclid_violations += int(np.count_nonzero(
                    da >= 2 * r * np.sqrt(s[k:k + step])[:, None]))
    payload["delta_inclusion_violations"] = inclusion_violations
    payload["euclidean_inclusion_violations"] = euclid_violations
    checks.append(check("delta_for_inequality", bool(ineq_ok)))
    checks.append(check("lemma_delta_inclusion", inclusion_violations == 0,
                        inclusion_violations, 0))
    checks.append(check("euclidean_inclusion_2rsqrt_s",
                        euclid_violations == 0, euclid_violations, 0))
    return checks, payload


def _run_halves(cfg: ExperimentConfig, first, second) -> tuple:
    """``(first(cfg), second(cfg))``.  With ``cfg.jobs >= 2`` and
    ``os.fork`` available, ``second`` runs in one forked child while this
    process runs ``first``; its result, or the exception it raised, comes
    back pickled through a pipe.  The child inherits no BLAS threads, so
    ``second`` must call no BLAS or LAPACK routine."""
    import os
    import pickle

    if cfg.jobs < 2 or not hasattr(os, "fork"):
        return first(cfg), second(cfg)
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()  # the child has this thread only: no BLAS pool
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                out = (True, second(cfg))
            except BaseException as exc:  # sent to the parent, raised there
                out = (False, exc)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(out))
            status = 0
        finally:
            os._exit(status)  # no atexit, no flush of inherited buffers
    os.close(write_fd)
    try:
        result = first(cfg)
    finally:
        with open(read_fd, "rb") as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
    if not data:
        code = os.waitstatus_to_exitcode(status)
        raise RuntimeError(f"forked half exited with code {code} and sent "
                           "no result")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return result, value


def run_geometry(cfg: ExperimentConfig) -> dict:
    # The inclusion half is the one forked: it calls ufuncs, einsum and
    # the Generator only, no BLAS, so forking after OpenBLAS has started
    # its threads is safe.
    (checks, payload), (more_checks, more_payload) = _run_halves(
        cfg, _geometry_metrics, _geometry_inclusion)
    report = summarize_checks(checks + more_checks)
    report.update(payload)
    report.update(more_payload)
    return report


# ----------------------------------------------------------------- sequence

def run_sequence(cfg: ExperimentConfig) -> dict:
    rng = _rng(cfg, 2)
    checks = []
    r = 0.5
    zeta = np.zeros(cfg.n, dtype=complex)
    zeta[0] = 1.0
    seq = build_sequence(zeta, r, 10)
    thr = disjoint_threshold(r, r)

    increasing = bool(np.all(np.diff(seq.radii) > 0))
    floors = bool(np.all(seq.radii > 1.0 - 1.0 / np.arange(1, 11)))
    checks.append(check("radii_strictly_increasing", increasing))
    checks.append(check("radii_above_floor", floors))

    rho = pairwise_rho(seq)
    off = rho[np.triu_indices(10, 1)]
    min_rho = float(off.min())
    checks.append(check("pairwise_rho_above_threshold", min_rho >= thr,
                        min_rho, thr))

    pts = seq.points()
    samples = sample_metric_ball(pts, r, 1000, rng)  # (10, 1000, n)
    inside = in_metric_ball(pts[None, :, None, :], r, samples[:, None])
    overlaps = int(np.count_nonzero(inside[~np.eye(10, dtype=bool)]))
    checks.append(check("ball_overlap_samples", overlaps == 0, overlaps, 0))

    prefix = build_sequence(zeta, r, 6)
    prefix_ok = bool(np.array_equal(prefix.radii, seq.radii[:6]))
    checks.append(check("prefix_determinism", prefix_ok))

    report = summarize_checks(checks)
    report.update({
        "radii": seq.radii.tolist(),
        "gaps": seq.gaps.tolist(),
        "threshold": thr,
        "min_pairwise_rho": min_rho,
        "csv": {
            "sequence_radii": (["m", "t", "one_minus_t"],
                               [[m + 1, float(seq.radii[m]),
                                 float(seq.gaps[m])] for m in range(10)]),
            "sequence_rho": (["k", "l", "rho"],
                             [[k + 1, l + 1, float(rho[k, l])]
                              for k in range(10) for l in range(10)]),
        },
    })
    return report


# -------------------------------------------------------------------- basis

def run_basis(cfg: ExperimentConfig) -> dict:
    checks = []
    payload: dict = {}

    basis1 = TruncatedBasis.create(1, 12)
    rule1 = rule_for_basis(1, 12)
    gram = weighted_gram(basis1, rule1, np.ones(len(rule1)))
    defect1 = float(np.max(np.abs(gram - np.eye(len(basis1)))))
    checks.append(check("gram_identity_n1_d12",
                        defect1 <= cfg.tol("gram_defect_n1"), defect1,
                        cfg.tol("gram_defect_n1")))

    basis2 = TruncatedBasis.create(2, 8)
    rule2 = rule_for_basis(2, 8)
    gram2 = weighted_gram(basis2, rule2, np.ones(len(rule2)))
    defect2 = float(np.max(np.abs(gram2 - np.eye(len(basis2)))))
    checks.append(check("gram_identity_n2_d8",
                        defect2 <= cfg.tol("gram_defect_n2"), defect2,
                        cfg.tol("gram_defect_n2")))

    z6 = np.array([0.6 + 0.0j])
    knorm = integrate(lambda pts: np.abs(kernel(z6, pts)) ** 2, rule1)
    kerr = abs(float(np.real(knorm)) - 1.0)
    checks.append(check("kernel_norm_one", kerr <= cfg.tol("kernel_norm"),
                        kerr, cfg.tol("kernel_norm")))

    # reproducing identity for a random polynomial of full degree
    rng = _rng(cfg, 3)
    coeffs = rng.standard_normal(len(basis1)) + 1j * rng.standard_normal(
        len(basis1))
    g = Expansion(basis1, coeffs)
    zz = np.array([0.35 - 0.2j])
    pair = integrate(lambda pts: g.eval(pts) * np.conj(kernel(zz, pts)),
                     rule1)
    expect = (1.0 - float(np.sum(np.abs(zz) ** 2))) * g.eval(zz)
    rep_err = abs(complex(pair) - complex(expect))
    checks.append(check("reproducing_identity", rep_err <= 1e-10,
                        rep_err, 1e-10))

    # kernel diagonal partial sums increase toward (1-|z|^2)^(-(n+1))
    zdiag = np.array([0.4 + 0.1j])
    limit = (1.0 - float(np.sum(np.abs(zdiag) ** 2))) ** -2.0
    sums = []
    for d in range(1, 13):
        bd = TruncatedBasis.create(1, d)
        sums.append(float(np.sum(np.abs(bd.eval(zdiag[None, :])[0]) ** 2)))
    monotone = bool(np.all(np.diff(sums) > 0)) and bool(sums[-1] < limit)
    tail = abs(sums[-1] - limit) / limit
    checks.append(check("kernel_diagonal_monotone", monotone))
    checks.append(check("kernel_diagonal_limit", tail <= 1e-6, tail, 1e-6))

    # projection: orthonormality, anti-analytic annihilation, kernel match
    e_beta = Expansion(basis1,
                       np.eye(len(basis1), dtype=complex)[:, 5])
    proj = project(e_beta.eval, basis1, rule1)
    unit_err = float(np.max(np.abs(proj.coeffs
                                   - e_beta.coeffs)))
    checks.append(check("projection_orthonormal", unit_err <= 1e-12,
                        unit_err, 1e-12))

    anti = project(lambda pts: np.conj(pts[:, 0]), basis1, rule1)
    anti_err = float(np.max(np.abs(anti.coeffs)))
    checks.append(check("projection_kills_antianalytic", anti_err <= 1e-12,
                        anti_err, 1e-12))

    kexp = project(lambda pts: kernel(z6, pts), basis1, rule1)
    kclosed = kernel_expansion(z6, basis1)
    kerr2 = float(np.max(np.abs(kexp.coeffs - kclosed.coeffs)))
    checks.append(check("projection_matches_kernel_series", kerr2 <= 1e-10,
                        kerr2, 1e-10))

    payload.update({
        "gram_defect_n1": defect1,
        "gram_defect_n2": defect2,
        "kernel_norm_error": kerr,
        "kernel_partial_sums": sums,
        "rule_n1": rule1.meta(),
        "rule_n2": rule2.meta(),
    })
    report = summarize_checks(checks)
    report.update(payload)
    return report


# ----------------------------------------------------------------- toeplitz

def _symbol_panel(r: float) -> list[Symbol]:
    wit = witness_symbol(r)
    return [
        Symbol.constant(1.0),
        Symbol.radial(lambda u: u ** 2, 1.0, label="|z|^2"),
        wit,
        Symbol.radial(lambda u: (np.asarray(u) < r).astype(float), 1.0,
                      support=r, label="disk indicator"),
        Symbol.sampled(lambda pts: np.exp(
            -np.sum(np.abs(pts) ** 2, axis=-1)) * (1.0 + 0.5 * pts[:, 0]),
            1.5, label="smooth sampled"),
    ]


def run_toeplitz(cfg: ExperimentConfig) -> dict:
    checks = []
    r = cfg.r
    basis = TruncatedBasis.create(1, 12)
    rule = rule_for_basis(1, 12, radial_breaks=(r * r,))

    t_one = toeplitz_matrix(Symbol.constant(1.0), basis, rule)
    id_err = float(np.max(np.abs(t_one.mat - np.eye(len(basis)))))
    checks.append(check("t_const_is_identity", id_err <= 1e-13, id_err, 1e-13))

    ks = np.arange(13)
    t_r2 = toeplitz_matrix(Symbol.radial(lambda u: u ** 2, 1.0), basis, rule)
    diag_err = float(np.max(np.abs(np.diag(t_r2.mat) - (ks + 1) / (ks + 2))))
    checks.append(check("diag_radius_squared",
                        diag_err <= cfg.tol("toeplitz_diag"), diag_err,
                        cfg.tol("toeplitz_diag")))

    fast_tol = cfg.tol("fast_path")
    worst_fast = 0.0
    for profile, support, label in (
            (lambda u: u ** 2, None, "u^2"),
            (lambda u: np.exp(-3.0 * np.asarray(u) ** 2), None, "gaussian"),
            (lambda u: np.clip(1.0 - (np.asarray(u) / r) ** 2, 0.0, None),
             r, "bump"),
    ):
        gen = toeplitz_matrix(Symbol.radial(profile, 1.0, support=support),
                              basis, rule)
        fast = toeplitz_radial(profile, basis, support=support)
        worst_fast = max(worst_fast,
                         float(np.max(np.abs(gen.mat - fast.mat))))
    checks.append(check("radial_fast_path", worst_fast <= fast_tol,
                        worst_fast, fast_tol))

    wit = witness_symbol(r)
    band_gen = toeplitz_matrix(wit, basis, rule)
    band_fast = toeplitz_monomial_radial(0, wit.profile, basis, support=r)
    band_err = float(np.max(np.abs(band_gen.mat - band_fast.mat)))
    checks.append(check("band_fast_path", band_err <= fast_tol, band_err,
                        fast_tol))

    # also in two variables (band entries carry sphere moments there)
    basis2 = TruncatedBasis.create(2, 6)
    rule2 = rule_for_basis(2, 6, radial_breaks=(r * r,))
    wit2_gen = toeplitz_matrix(wit, basis2, rule2)
    wit2_fast = toeplitz_monomial_radial(0, wit.profile, basis2, support=r)
    band2_err = float(np.max(np.abs(wit2_gen.mat - wit2_fast.mat)))
    checks.append(check("band_fast_path_n2", band2_err <= fast_tol,
                        band2_err, fast_tol))

    contraction_tol = cfg.tol("norm_contraction")
    worst_excess = -np.inf
    for sym in _symbol_panel(r):
        tm = toeplitz_matrix(sym, basis, rule)
        excess = op_norm(tm) - sym.sup_norm_bound
        worst_excess = max(worst_excess, excess)
    checks.append(check("norm_contraction", worst_excess <= contraction_tol,
                        worst_excess, contraction_tol))

    ns = Symbol.sampled(
        lambda pts: pts[:, 0] * np.exp(-np.sum(np.abs(pts) ** 2, axis=-1)),
        1.0, label="nonradial")
    t_ns = toeplitz_matrix(ns, basis, rule)
    t_conj = toeplitz_matrix(ns.conjugate(), basis, rule)
    adj_err = float(np.max(np.abs(t_conj.mat - t_ns.mat.conj().T)))
    checks.append(check("adjoint_symmetry", adj_err <= 1e-12, adj_err, 1e-12))

    self_comm = commutator(t_r2, t_r2)
    radial_comm = commutator(t_r2, toeplitz_radial(
        lambda u: np.exp(-3.0 * np.asarray(u) ** 2), basis))
    checks.append(check("self_commutator_zero",
                        op_norm(self_comm) <= 1e-14))
    checks.append(check("radial_symbols_commute",
                        op_norm(radial_comm) <= 1e-12))

    cmat = commutator(band_fast, band_fast.adjoint())
    smat = cmat @ cmat
    eigs = np.linalg.eigvalsh(smat.mat)
    min_eig = float(eigs.min())
    comm_norm = op_norm(cmat)
    checks.append(check("witness_commutator_nonzero", comm_norm > 0.0,
                        comm_norm))
    checks.append(check("squared_commutator_psd",
                        min_eig >= -cfg.tol("psd_floor"), min_eig,
                        -cfg.tol("psd_floor")))

    # compactly supported radial symbols have geometrically decaying diagonal
    small = toeplitz_radial(
        lambda u: (np.asarray(u) < 0.4).astype(float), basis, support=0.4)
    diag = np.real(np.diag(small.mat))
    decay_ok = bool(np.all(np.diff(diag) < 0)) and diag[-1] < 1e-6 * diag[0]
    checks.append(check("compact_support_diagonal_decay", decay_ok,
                        float(diag[-1] / diag[0])))

    report = summarize_checks(checks)
    report.update({
        "identity_error": id_err,
        "diag_error": diag_err,
        "fast_path_worst": worst_fast,
        "band_fast_path_error": band_err,
        "band_fast_path_error_n2": band2_err,
        "norm_excess_worst": worst_excess,
        "commutator_norm": comm_norm,
        "s_min_eigenvalue": min_eig,
        "rule": rule.meta(),
    })
    return report


# ------------------------------------------------------------------ unitary

def run_unitary(cfg: ExperimentConfig) -> dict:
    rng = _rng(cfg, 4)
    checks = []
    sweep = list(cfg.d_sweep)
    probe = max(2, min(sweep) // 2)
    z_half = np.array([0.5 + 0.0j])
    f_sq = Symbol.radial(lambda u: u ** 2, 1.0, label="|z|^2")

    rule = build_rule(1, 40, angular=192)
    unit_defects = []
    conj_defects = []
    for d in sweep:
        basis = TruncatedBasis.create(1, d)
        u = unitary_matrix_exact(z_half, basis)
        vmat = u.mat.conj().T @ u.mat - np.eye(len(basis))
        unit_defects.append(_window_norm(vmat, basis, probe))
        tf = toeplitz_matrix(f_sq, basis, rule)
        lhs = (u @ tf @ u.adjoint()).mat
        rhs = toeplitz_matrix(f_sq.compose_moebius(z_half), basis, rule).mat
        conj_defects.append(_window_norm(lhs - rhs, basis, probe))
    checks.append(check("unitarity_defect_decreasing",
                        _decreasing(unit_defects), unit_defects))
    checks.append(check("conjugation_defect_decreasing",
                        _decreasing(conj_defects), conj_defects))

    # d_sweep is increasing: the loop left u, basis at max(sweep)
    u_q = unitary_matrix_quadrature(z_half, basis, rule)
    route_err = float(np.max(np.abs(u.mat - u_q.mat)))
    checks.append(check("exact_matches_quadrature", route_err <= 1e-10,
                        route_err, 1e-10))

    kexp = kernel_expansion(z_half, basis)
    col_err = float(np.max(np.abs(u.mat[:, 0] - kexp.coeffs)))
    checks.append(check("u_e0_is_kernel", col_err <= 1e-13, col_err, 1e-13))
    e0_norm = float(np.linalg.norm(u.mat[:, 0]))
    checks.append(check("u_e0_norm_one", abs(e0_norm - 1.0) <= 1e-6,
                        abs(e0_norm - 1.0), 1e-6))

    # closed-form pairing: exact value at the benchmark point
    value, _ = weak_pairing_exact(np.array([0.9 + 0j]),
                                  np.array([0.0 + 0j]),
                                  np.array([0.0 + 0j]))
    bench_err = abs(complex(value) - 0.19)
    checks.append(check("pairing_benchmark",
                        bench_err <= cfg.tol("lemma1_value"), bench_err,
                        cfg.tol("lemma1_value")))

    worst_gap = -np.inf
    for n in _GEOM_DIMS:
        zm = sample_ball(n, 3334, rng, 0.999)
        z = sample_ball(n, 3334, rng, 0.9)
        w = sample_ball(n, 3334, rng, 0.9)
        v, b = weak_pairing_exact(zm, z, w)
        worst_gap = max(worst_gap, float(np.max(np.abs(v) - b)))
    checks.append(check("pairing_bound_dominates", worst_gap <= 1e-14,
                        worst_gap, 1e-14))

    # matrix pairing converges to the closed form across the sweep
    zm = np.array([0.6 + 0.0j])
    zp = np.array([0.3 + 0.0j])
    wp = np.array([0.0 + 0.2j])
    target = complex(weak_pairing_exact(zm, zp, wp)[0])
    pair_errs = []
    for d in sweep:
        bd = TruncatedBasis.create(1, d)
        ud = unitary_matrix_exact(zm, bd)
        kz = kernel_expansion(zp, bd).coeffs
        kw = kernel_expansion(wp, bd).coeffs
        pair_errs.append(abs(complex(np.vdot(kw, ud.mat @ kz)) - target))
    checks.append(check("pairing_matrix_converges", _decreasing(pair_errs),
                        pair_errs))

    # decay along a separated sequence: values vanish, log-bound is linear
    zeta = np.zeros(cfg.n, dtype=complex)
    zeta[0] = 1.0
    seq = build_sequence(zeta, cfg.r, 8)
    v, b = weak_pairing_exact(seq.points(), 0.2 * zeta, 0.1 * zeta)
    vals, bounds = np.abs(v).tolist(), b.tolist()
    vals_dec = bool(np.all(np.diff(vals) < 0))
    one_minus = seq.gaps * (1.0 + seq.radii)  # 1 - t^2 from exact gaps
    slope = float(np.polyfit(np.log(one_minus), np.log(bounds), 1)[0])
    target_slope = 0.5 * (cfg.n + 1)
    slope_ok = abs(slope - target_slope) <= 0.05 * target_slope
    checks.append(check("pairing_decays_along_sequence", vals_dec, vals))
    checks.append(check("bound_log_slope", slope_ok, slope, target_slope))

    report = summarize_checks(checks)
    report.update({
        "d_sweep": sweep,
        "probe_degree": probe,
        "unitarity_defects": unit_defects,
        "conjugation_defects": conj_defects,
        "route_agreement": route_err,
        "pairing_matrix_errors": pair_errs,
        "sequence_pairing_values": vals,
        "sequence_pairing_bounds": bounds,
        "bound_slope": slope,
        "csv": {
            "unitary_sweep": (["d", "unitarity_defect", "conjugation_defect"],
                              [[d, unit_defects[i], conj_defects[i]]
                               for i, d in enumerate(sweep)]),
        },
    })
    return report


# ------------------------------------------------------------------ witness

def run_witness(cfg: ExperimentConfig) -> dict:
    checks = []
    sweep = list(cfg.d_sweep)
    rep = lemma3_lower_bound(build_sequence(cfg.zeta_vec, cfg.r, cfg.M))
    checks.append(check("floor_positive", rep["floor_positive"],
                        rep["floor_c"], rep["lambda_max"]))
    checks.append(check("core_degree_converged",
                        rep["core_defect"] <= rep["tail_bound"],
                        rep["core_defect"], rep["tail_bound"]))

    # two-route agreement at the first sequence point improves with degree
    probes = {d: witness_operator(cfg.zeta_vec, cfg.r, cfg.M,
                                  TruncatedBasis.create(cfg.n, d))
              for d in (sweep[0], sweep[-1])}
    first_defects = [probes[d].two_route_defects[0] for d in sorted(probes)]
    checks.append(check("two_route_defect_shrinks_m1",
                        _decreasing(first_defects), first_defects))

    # PSD of S itself at the flagship degree: the sweep ends there
    s_min = float(np.linalg.eigvalsh(probes[sweep[-1]].S.mat).min())
    checks.append(check("s_positive_semidefinite",
                        s_min >= -cfg.tol("psd_floor"), s_min))

    report = summarize_checks(checks)
    report.update({key: rep[key] for key in (
        "lambda_max", "floor_c", "values", "margins", "core_degree",
        "tail_bound", "core_defect", "conditioning_warning")})
    report.update({
        "d_sweep": sweep,
        "two_route_defects": {str(d): list(w.two_route_defects)
                              for d, w in probes.items()},
        "two_route_assembly": {str(d): list(w.two_route_routes)
                               for d, w in probes.items()},
        "csv": {
            "witness_margins": (
                ["m", "value", "margin"],
                [[m + 1, rep["values"][m], rep["margins"][m]]
                 for m in range(cfg.M)]),
        },
    })
    return report


# -------------------------------------------------------------------- prop1

def run_prop1(cfg: ExperimentConfig) -> dict:
    checks = []
    r = cfg.r

    # one-dimensional compact-support panel over the long sequence
    basis = TruncatedBasis.create(1, 12)
    F_empty = SphereSet.create([], n=1)
    seq = build_sequence(np.array([1.0 + 0j]), r, cfg.decay_M)
    cfg1 = build_prop1_config(F_empty, cfg.eps)
    panel = default_panel(F_empty, r, 1)
    rep1 = prop1_decay(panel, seq, cfg1, basis,
                       decay_frac=cfg.tol("decay_fraction"),
                       slope_rel=cfg.tol("slope_rel"))
    checks.append(check("decay_below_fraction_n1", all(rep1["decay_ok"]),
                        [c[-1] / c[0] for c in rep1["curves"]],
                        cfg.tol("decay_fraction")))
    checks.append(check("slope_within_tolerance_n1", rep1["slope_ok"],
                        rep1["slopes"], rep1["slope_target"]))

    # two dimensions: nonempty direction set, real cutoff bound
    basis2 = TruncatedBasis.create(2, 8)
    F1 = SphereSet.create([[0.0 + 0j, 1.0 + 0j]])
    seq2 = build_sequence(np.array([1.0 + 0j, 0.0 + 0j]), r, 8)
    cfg2 = build_prop1_config(F1, cfg.eps)
    panel2 = default_panel(F1, r, 2)
    rep2 = prop1_decay(panel2, seq2, cfg2, basis2,
                       decay_frac=cfg.tol("decay_fraction"),
                       slope_rel=cfg.tol("slope_rel"))
    checks.append(check("slope_within_tolerance_n2", rep2["slope_ok"],
                        rep2["slopes"], rep2["slope_target"]))
    eta = rep2["eta_bound"]
    checks.append(check("cutoff_bound_holds_n2", rep2["eta_bound_ok"],
                        max(lhs - (rhs + slack) for lhs, rhs, slack in zip(
                            eta["lhs"], eta["rhs"], eta["slack"])), 0.0))
    checks.append(check("decay_below_fraction_n2", all(rep2["decay_ok"]),
                        [c[-1] / c[0] for c in rep2["curves"]]))

    report = summarize_checks(checks)
    report.update({
        "n1": rep1,
        "n2": rep2,
        "delta_n2": cfg2.delta,
        "nu_v2_n2": cfg2.nu_v2,
        "csv": {
            "prop1_curves_n1": (
                ["m", "t"] + [f"product_{k+1}" for k in range(len(rep1["curves"]))],
                [[m + 1, rep1["radii"][m]]
                 + [rep1["curves"][k][m] for k in range(len(rep1["curves"]))]
                 for m in range(len(rep1["radii"]))]),
        },
    })
    return report


# ----------------------------------------------------------------- separate

def run_separate(cfg: ExperimentConfig) -> dict:
    rng = _rng(cfg, 6)
    basis = TruncatedBasis.create(cfg.n, cfg.degree)
    F1 = SphereSet.create(cfg.f1_vecs, n=cfg.n)
    F2 = SphereSet.create(cfg.f2_vecs, n=cfg.n)
    rep = separation_experiment(
        F1, F2, cfg.r, cfg.M, basis, eps=cfg.eps, rng=rng,
        decay_M=cfg.decay_M,
        separation_factor=cfg.tol("separation_factor"),
        decay_frac=cfg.tol("decay_fraction"),
        slope_rel=cfg.tol("slope_rel"))

    checks = [
        check("separation_factor",
              rep["separation_ok"], rep["separation_factor"],
              cfg.tol("separation_factor")),
        check("witness_floor_positive", rep["lemma3"]["floor_positive"],
              rep["lemma3"]["floor_c"]),
        check("panel_vanishes_off_region", rep["vanish_ok"],
              rep["vanish_off_region_max"]),
        check("monotone_region", rep["monotone_violations"] == 0,
              rep["monotone_violations"], 0),
        check("boundary_trace_F1", rep["boundary_trace_F1"]["ok"],
              rep["boundary_trace_F1"]["violations"], 0),
        check("boundary_trace_F2", rep["boundary_trace_F2"]["ok"],
              rep["boundary_trace_F2"]["violations"], 0),
        check("ideal_panel_decays", rep["prop1"]["ok"]),
    ]
    report = summarize_checks(checks)
    curves = rep["prop1"]["curves"]
    report.update(rep)
    report["csv"] = {
        "separation_curves": (
            ["m", "witness_normalized"]
            + [f"ideal_{k+1}_normalized" for k in range(len(curves))],
            [[m + 1,
              rep["witness_curve_normalized"][m] if m < cfg.M else ""]
             + [curves[k][m] / curves[k][0] for k in range(len(curves))]
             for m in range(len(curves[0]))]),
    }
    return report


# ---------------------------------------------------------------------- all

SUITES = {
    "geometry": run_geometry,
    "sequence": run_sequence,
    "basis": run_basis,
    "toeplitz": run_toeplitz,
    "unitary": run_unitary,
    "witness": run_witness,
    "prop1": run_prop1,
    "separate": run_separate,
}


def run_all(cfg: ExperimentConfig) -> dict:
    results = {}
    failures = []
    for name, fn in SUITES.items():
        rep = fn(cfg)
        results[name] = rep
        failures.extend(f"{name}:{f}" for f in rep["failures"])
    return {"suites": results, "failures": failures,
            "passed": not failures}
