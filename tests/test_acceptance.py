"""Acceptance criteria, one test per criterion.

Each test runs its criterion at the stated tolerance through the same
suite functions the CLI uses and prints one pass/fail line.  Suite
reports are computed once per session and shared.
"""

import filecmp

import pytest

from berglab.cli import main
from berglab.config import ExperimentConfig
from berglab.suites import (_geometry_inclusion, run_basis, run_geometry,
                            run_prop1, run_separate, run_sequence,
                            run_toeplitz, run_unitary, run_witness)

CFG = ExperimentConfig()


@pytest.fixture(scope="session")
def reports():
    cache = {}

    def get(name, fn):
        if name not in cache:
            cache[name] = fn(CFG)
        return cache[name]

    return get


def _verdict(num, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label}")
    assert ok, f"criterion {num}: {label}"


def _subchecks(report, names):
    by_name = {c["name"]: c["ok"] for c in report["checks"]}
    missing = [n for n in names if n not in by_name]
    assert not missing, f"missing checks: {missing}"
    return all(by_name[n] for n in names)


def test_criterion_01_geometry(reports):
    rep = reports("geometry", run_geometry)
    ok = (_subchecks(rep, ["eq4_combined_metric", "moebius_involution",
                           "rho_moebius_isometry"])
          and rep["eq4_max_violation"] <= 1e-12
          and rep["involution_max_error"] <= 1e-12
          and rep["isometry_max_error"] <= 1e-12)
    _verdict(1, "combined-metric inequality, involution and isometry "
                "within 1e-12", ok)


def test_criterion_02_boundary_inclusion(reports):
    rep = reports("geometry", run_geometry)
    ok = (_subchecks(rep, ["delta_for_inequality", "lemma_delta_inclusion",
                           "euclidean_inclusion_2rsqrt_s"])
          and rep["delta_inclusion_violations"] == 0)
    _verdict(2, "delta construction: zero inclusion violations over the "
                "(r, eps) grid", ok)


def test_geometry_sample_counts(reports):
    # the metric half (eq. 4, involution, isometry, disjointness) draws
    # from the suite's stream in the serial order, so its values are
    # pinned bit for bit; the inclusion half draws from a stream of its
    # own and reports only violation counts, which are 0
    rep = reports("geometry", run_geometry)
    assert rep["eq4_max_violation"] == 0.0
    assert rep["involution_max_error"] == 4.5094055844222076e-15
    assert rep["isometry_max_error"] == 6.772360450213455e-15
    assert rep["disjointness_configs"] == 120
    for key in ("disjointness_overlaps", "membership_disagreements",
                "delta_inclusion_violations",
                "euclidean_inclusion_violations"):
        assert rep[key] == 0, key


@pytest.mark.parametrize("seed", range(8))
def test_geometry_inclusion_counts_zero(seed):
    # the inclusion half's report is draw-free only while it finds nothing
    checks, payload = _geometry_inclusion(ExperimentConfig(seed=seed))
    assert all(c["ok"] for c in checks)
    assert payload == {"membership_disagreements": 0,
                       "delta_inclusion_violations": 0,
                       "euclidean_inclusion_violations": 0}


def test_criterion_03_separated_sequence(reports):
    rep = reports("sequence", run_sequence)
    ok = (_subchecks(rep, ["pairwise_rho_above_threshold",
                           "ball_overlap_samples",
                           "radii_strictly_increasing",
                           "radii_above_floor"])
          and rep["min_pairwise_rho"] >= 0.8)
    _verdict(3, "ten separated radii at r = 0.5: pairwise rho >= 0.8, "
                "zero overlap samples", ok)


def test_criterion_04_basis_quadrature(reports):
    rep = reports("basis", run_basis)
    ok = (_subchecks(rep, ["gram_identity_n1_d12", "gram_identity_n2_d8",
                           "kernel_norm_one"])
          and rep["gram_defect_n1"] <= 1e-10
          and rep["gram_defect_n2"] <= 1e-6
          and rep["kernel_norm_error"] <= 1e-9)
    _verdict(4, "Gram defects (1e-10 / 1e-6) and unit kernel norm (1e-9)",
             ok)


def test_criterion_05_toeplitz(reports):
    rep = reports("toeplitz", run_toeplitz)
    ok = (_subchecks(rep, ["t_const_is_identity", "radial_fast_path",
                           "band_fast_path", "norm_contraction",
                           "diag_radius_squared"])
          and rep["fast_path_worst"] <= 1e-8
          and rep["band_fast_path_error"] <= 1e-8
          and rep["norm_excess_worst"] <= 1e-8
          and rep["diag_error"] <= 1e-10)
    _verdict(5, "identity symbol, fast paths within 1e-8, norm "
                "contraction, exact diagonal", ok)


def test_criterion_06_unitaries(reports):
    rep = reports("unitary", run_unitary)
    ok = _subchecks(rep, ["unitarity_defect_decreasing",
                          "conjugation_defect_decreasing",
                          "pairing_benchmark", "pairing_bound_dominates"])
    _verdict(6, "defects strictly decrease over d in {6,8,10,12}; pairing "
                "benchmark 0.19 within 1e-12; bound dominates", ok)


def test_criterion_07_witness_lower_bound(reports):
    rep = reports("witness", run_witness)
    ok = (_subchecks(rep, ["floor_positive", "core_degree_converged"])
          and rep["floor_c"] >= rep["lambda_max"] > 0.0)
    _verdict(7, "witness Berezin values at least lambda_max along the "
                "sequence, core degree converged", ok)


def test_criterion_08_decay(reports):
    rep = reports("prop1", run_prop1)
    ok = _subchecks(rep, ["decay_below_fraction_n1",
                          "slope_within_tolerance_n1",
                          "slope_within_tolerance_n2",
                          "cutoff_bound_holds_n2"])
    _verdict(8, "compact-support panel decays below 5% by m = 10; "
                "log-log slopes within 10% of (n+1)/2 for n in {1,2}", ok)


def test_criterion_09_separation(reports):
    rep = reports("separate", run_separate)
    ok = (_subchecks(rep, ["separation_factor", "monotone_region",
                           "boundary_trace_F1", "boundary_trace_F2"])
          and rep["separation_factor"] >= 10.0
          and rep["monotone_violations"] == 0)
    _verdict(9, "witness floor at least 10x the ideal-sample ceiling; "
                "region and trace checks clean", ok)


def test_criterion_10_reproducibility(tmp_path):
    outs = []
    for name, jobs in (("a", 1), ("b", 1), ("c", 3)):
        out = tmp_path / name
        code = main(["all", "--out", str(out), "--jobs", str(jobs)])
        assert code == 0
        outs.append(out)
    identical = True
    files = sorted(p.name for p in outs[0].iterdir())
    for other in outs[1:]:
        assert sorted(p.name for p in other.iterdir()) == files
        for f in files:
            if not filecmp.cmp(outs[0] / f, other / f, shallow=False):
                identical = False
    _verdict(10, "repeated `all` runs (including --jobs 3) are "
                 "byte-identical", identical)
