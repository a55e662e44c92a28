"""Tests for configuration handling, report emission and the CLI."""

import json
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from berglab import suites
from berglab.cli import main
from berglab.config import ExperimentConfig, load_config
from berglab.quadrature import rule_for_basis
from berglab.reports import canonical_json, config_hash, write_csv, write_report

# n = 2, zeta = e1, F1 = {e2}, F2 = {e1, e2}: F2's best distance is sqrt(2)
E12 = {"n": 2, "zeta": [[1.0, 0.0], [0.0, 0.0]],
       "F1": [[[0.0, 0.0], [1.0, 0.0]]],
       "F2": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
# (e1 + e2) / sqrt 2, off both coordinate axes
DIAG2 = [[2 ** -0.5, 0.0], [2 ** -0.5, 0.0]]
# the steps of the benchmark's inputs: separate then witness at n = 2,
# d = 10; witness and separate at n = 1 up to d = 64, then separate at
# n = 2, d = 24
BALL2 = dict(E12, degree=10, d_sweep=[6, 10])
DISK64 = {"n": 1, "degree": 64, "d_sweep": [16, 32, 48, 64]}
RAY24 = {"n": 2, "degree": 24, "zeta": E12["zeta"], "F1": [],
         "F2": [E12["zeta"]]}
BALL2_STEPS = [("separate", BALL2), ("witness", BALL2)]
EXACT_STEPS = [("witness", DISK64), ("separate", DISK64),
               ("separate", RAY24)]


class TestConfig:
    def test_defaults_validate(self):
        cfg = ExperimentConfig()
        cfg.validate()

    def test_roundtrip_lossless(self):
        cfg = ExperimentConfig(n=2, degree=8, zeta=[[1.0, 0.0], [0.0, 0.0]],
                               F1=[[[0.0, 0.0], [1.0, 0.0]]],
                               F2=[[[1.0, 0.0], [0.0, 0.0]],
                                   [[0.0, 0.0], [1.0, 0.0]]])
        cfg.validate()
        back = ExperimentConfig.from_json(
            json.loads(json.dumps(cfg.to_json())))
        assert back == cfg

    def test_invalid_radius_rejected(self):
        with pytest.raises(ValueError, match="r must"):
            ExperimentConfig(r=1.5).validate()

    def test_non_unit_zeta_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            ExperimentConfig(zeta=[[0.5, 0.0]]).validate()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            ExperimentConfig.from_json({"nonsense": 1})
        with pytest.raises(ValueError, match=r"unknown config keys: \['tol"):
            ExperimentConfig.from_json({"tolerances": {"bogus": 1.0}})

    def test_out_dir_must_be_a_string(self):
        # the CLI's --out always overrides it with a string
        with pytest.raises(ValueError, match="out_dir must be str, got 3"):
            ExperimentConfig(out_dir=3).validate()

    def test_sweep_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            ExperimentConfig(d_sweep=(8, 6)).validate()
        ExperimentConfig(d_sweep=(8,)).validate()  # one degree is a sweep

    def test_radius_must_leave_every_sequence(self):
        # the suites build sequences of length M, decay_M and 8 at r
        with pytest.raises(ValueError, match="only 10 .* need 12"):
            ExperimentConfig(r=0.65, decay_M=12).validate()
        ExperimentConfig(r=0.65).validate()

    def test_provenance_excludes_execution_fields(self):
        cfg = ExperimentConfig()
        prov = cfg.provenance_json()
        assert "out_dir" not in prov and "jobs" not in prov
        assert config_hash(prov) == config_hash(
            load_config(None, jobs=5, out_dir="elsewhere").provenance_json())

    def test_load_missing_file_fails(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "nope.json")

    def test_load_merges_overrides_that_are_set(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 3, "M": 4}))
        cfg = load_config(path, seed=9, jobs=None, out_dir="there")
        assert (cfg.seed, cfg.M, cfg.jobs, cfg.out_dir) == (9, 4, 1, "there")
        with pytest.raises(ValueError, match="jobs must be"):
            load_config(path, jobs=0)

    def test_load_rejects_a_file_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_config(path)


class TestReports:
    def test_canonical_json_sorted_and_stable(self):
        a = canonical_json({"b": 1.5, "a": [1, 2]})
        b = canonical_json({"a": [1, 2], "b": 1.5})
        assert a == b
        assert a.index('"a"') < a.index('"b"')

    def test_write_report_and_csv(self, tmp_path):
        p = write_report(tmp_path, "demo", {"x": 1})
        assert json.loads(p.read_text()) == {"x": 1}
        c = write_csv(tmp_path, "curve", ["m", "v"], [[1, 0.5], [2, 0.25]])
        lines = c.read_text().strip().split("\n")
        assert lines[0] == "m,v"
        assert lines[1] == "1,0.5"


class TestCli:
    def test_sequence_subcommand(self, tmp_path):
        out = tmp_path / "rep"
        code = main(["sequence", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "sequence.json").read_text())
        assert payload["report"]["passed"]
        assert payload["config_sha256"]
        assert (out / "sequence_radii.csv").exists()

    def test_malformed_config_exits_before_compute(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"r": 1.5}))
        out = tmp_path / "rep"
        code = main(["sequence", "--config", str(bad), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["unitary", "witness", "all"])
    @pytest.mark.parametrize("bad, why", [
        ({"d_sweep": []}, "d_sweep must be non-empty"),
        ({"d_sweep": [8, 8]}, "d_sweep must be strictly increasing"),
        ({"r": 0.99}, "r = 0.99 leaves only 4 separated radii"),
        ({"eps": 1.2}, "eps = 1.2 exceeds sqrt(5)/2"),
        (dict(E12, eps=0.8), "no direction of F2 is at distance >= 2 eps"),
        ({"tolerances": {"separation_factor": 0}},
         "unknown config keys: ['tolerances']"),
        ({"n": "2"}, "n must be int, got '2'"),
        ({"d_sweep": 8}, "d_sweep must be list or tuple, got 8"),
        ({"d_sweep": [4, 6.5]}, "d_sweep entries must be int"),
        ({"r": None}, "r must be int or float, got None"),
        ({"M": 2.5}, "M must be int, got 2.5"),
        ({"eps": "0.5"}, "eps must be int or float, got '0.5'"),
        ({"degree": True}, "degree must be int, got True"),
        ({"zeta": "e1"}, "zeta must be list, got 'e1'"),
        ({"zeta": [[float("nan"), 0.0]]}, "zeta must be a unit vector"),
        ({"F2": [[[float("nan"), 0.0]]]}, "F2 members must be unit vectors"),
        ({"F1": [{"re": 1.0}]}, "F1[0]: expected [[re, im], ...], got {'re'"),
        ({"n": 2, "d_sweep": [4, 6], "zeta": DIAG2, "F2": [DIAG2]},
         "zeta must lie on a coordinate axis"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ("--seed -1", "seed must be >= 0, got -1"),
        ({"zeta": [[1.0, 0.0, 3.0]]},
         "zeta: expected [[re, im], ...], got shape (1, 3)"),
        ({"F1": [[[1.0, 0.0, 3.0]]]},
         "F1[0]: expected [[re, im], ...], got shape (1, 3)"),
        ({"F2": [[[1.0, 0.0]], [[1.0, 0.0, 3.0]]]},
         "F2[1]: expected [[re, im], ...], got shape (1, 3)"),
        (dict(E12, F2=[E12["zeta"]], d_sweep=[8]),
         "F1[0] is not a member of F2 (distance 1.41421)")],
        ids=["empty_sweep", "repeated_degree", "underflowing_radius",
             "eps_beyond_prop1_sequence", "f2_within_2eps_of_f1",
             "tolerances_key", "string_n", "scalar_sweep", "float_degree",
             "null_radius", "float_M", "string_eps", "bool_degree",
             "string_zeta", "nan_zeta", "nan_f2", "object_f1",
             "off_axis_zeta", "negative_seed", "negative_seed_override",
             "zeta_shape", "f1_member_shape", "f2_member_shape",
             "f1_outside_f2"])
    def test_invalid_config_exits_before_compute(self, tmp_path, capsys,
                                                 suite, bad, why):
        # a config file, or (a string) command-line overrides
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps({} if isinstance(bad, str) else bad))
        out = tmp_path / "rep"
        args = bad.split() if isinstance(bad, str) else []
        code = main([suite, "--config", str(cfgfile), *args,
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert f"configuration error: {why}" in capsys.readouterr().err

    def test_config_validated_once_per_run(self, tmp_path, monkeypatch):
        calls = []
        validate = ExperimentConfig.validate

        def counted(cfg):
            calls.append(cfg)
            validate(cfg)

        monkeypatch.setattr(ExperimentConfig, "validate", counted)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"M": 4}))
        for argv in (["sequence"], ["sequence", "--config", str(cfgfile),
                                    "--seed", "7", "--jobs", "2"]):
            calls.clear()
            assert main([*argv, "--out", str(tmp_path / "rep")]) == 0
            assert len(calls) == 1

    def test_decay_horizon_below_witness_horizon_rejected(
            self, tmp_path, capsys):
        # separation compares both curves at m = M, so decay_M >= M
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"decay_M": 3}))
        out = tmp_path / "rep"
        code = main(["separate", "--config", str(bad), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "configuration error" in capsys.readouterr().err

    def test_separate_runs_off_axis(self, tmp_path):
        # separate takes its direction from F2, and the witness side is a
        # Berezin sum that builds no U_z, so that direction need not be a
        # coordinate ray (zeta, which the witness suite reads, must be)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n": 2, "degree": 10,
                                       "zeta": E12["zeta"], "F1": [],
                                       "F2": [DIAG2]}))
        out = tmp_path / "rep"
        assert main(["separate", "--config", str(cfgfile),
                     "--out", str(out)]) == 0
        lemma3 = json.loads((out / "separate.json").read_text())[
            "report"]["lemma3"]
        assert lemma3["floor_c"] >= lemma3["lambda_max"]
        assert lemma3["values"] == pytest.approx(
            [2.75115e-11, 2.80419e-11, 2.69717e-11, 2.70123e-11,
             2.64425e-11], rel=1e-5)

    def test_separate_then_witness_repeat_in_one_process(self, tmp_path):
        # each input's steps twice in one process: every check passes
        # both times and the report trees are equal byte for byte, so no
        # state carried between runs moves a report.  The inputs are the
        # ball2 steps, and the exact-route steps at two seeds
        inputs = [BALL2_STEPS] + [
            [(suite, dict(cfg, seed=seed)) for suite, cfg in EXACT_STEPS]
            for seed in (7, 2499)]
        for i, steps in enumerate(inputs):
            trees = []
            for run in ("first", "second"):
                files = {}
                for k, (suite, cfg) in enumerate(steps):
                    cfgfile = tmp_path / f"cfg{i}_{k}.json"
                    cfgfile.write_text(json.dumps(cfg))
                    out = tmp_path / f"{i}" / run / f"{k}"
                    assert main([suite, "--config", str(cfgfile),
                                 "--out", str(out)]) == 0
                    report = json.loads(
                        (out / f"{suite}.json").read_text())["report"]
                    assert report["checks"]
                    assert all(c["ok"] for c in report["checks"]), suite
                    files.update({str(p.relative_to(out.parent)):
                                  p.read_bytes()
                                  for p in out.rglob("*") if p.is_file()})
                trees.append(files)
            assert trees[0] == trees[1]

    def test_witness_at_a_phased_direction(self, tmp_path):
        # zeta = i e2 takes the exact routes, and the two-route defects
        # are those at e2: V = diag(1, i) keeps f = z_1 eta and S, so both
        # sides of the probed identity are conjugated by C_V
        defects = []
        for zeta in ([[0.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]]):
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps({"n": 2, "degree": 10,
                                           "d_sweep": [6, 10],
                                           "zeta": zeta, "F2": [zeta]}))
            out = tmp_path / str(len(defects))
            assert main(["witness", "--config", str(cfgfile),
                         "--out", str(out)]) == 0
            report = json.loads((out / "witness.json").read_text())["report"]
            assert report["checks"]
            assert all(c["ok"] for c in report["checks"])
            defects.append([report["two_route_defects"][d]
                            for d in ("6", "10")])
        turned, plain = np.asarray(defects)
        assert np.all(np.abs(turned - plain) <= 1e-12 * np.abs(plain))

    def test_separate_with_a_phased_f1_point(self, tmp_path):
        # F1 = {(0, (1+i)/sqrt 2)}: the three rho-bumps take the exact
        # "moebius" route and T_eta the "cutoff" route
        e1, w = [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2 ** -0.5] * 2]
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n": 2, "degree": 16, "d_sweep": [16],
                                       "zeta": e1, "F1": [w],
                                       "F2": [e1, w]}))
        assert main(["separate", "--config", str(cfgfile),
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "separate.json").read_text())["report"]
        assert report["passed"]
        assert [r["route"] for r in report["prop1"]["routes"]] == [
            "moebius"] * 3
        assert report["prop1"]["eta_route"]["route"] == "cutoff"

    def test_off_axis_routes_build_the_rule_of_the_basis(self, tmp_path):
        # F1 = {(0.3, sqrt 0.91)} is off the axes: the panel and T_eta take
        # quadrature over the rule of the basis, which no report describes
        e1, w = [[1.0, 0.0], [0.0, 0.0]], [[0.3, 0.0], [0.91 ** 0.5, 0.0]]
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n": 2, "degree": 8, "d_sweep": [8],
                                       "zeta": e1, "F1": [w],
                                       "F2": [e1, w]}))
        assert main(["separate", "--config", str(cfgfile),
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "separate.json").read_text())["report"]
        assert "quadrature" not in report
        routes = report["prop1"]["routes"] + [report["prop1"]["eta_route"]]
        nodes = len(rule_for_basis(2, 8))
        assert routes == [{"route": "quadrature", "nodes": nodes,
                           "defect": None}] * 4

    def test_failing_check_exits_nonzero_with_partial_results(
            self, tmp_path, capsys):
        # a one-degree sweep shows no convergence: a recorded failure of
        # a valid config, not a crash
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"d_sweep": [8]}))
        out = tmp_path / "rep"
        code = main(["unitary", "--config", str(cfgfile), "--out", str(out)])
        assert code == 1
        payload = json.loads((out / "unitary.json").read_text())
        assert not payload["report"]["passed"]
        assert ("unitary:unitarity_defect_decreasing"
                in capsys.readouterr().err)

    def test_kernel_column_norm_read_against_its_truncation(self, tmp_path):
        # at degree 10, ||P_10 k_{1/2}|| is 1 - 1.1e-6: the column's norm
        # is held to that closed form, not to 1
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"d_sweep": [6, 10]}))
        assert main(["unitary", "--config", str(cfgfile),
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "unitary.json").read_text())["report"]
        record = {c["name"]: c for c in report["checks"]}["u_e0_norm_one"]
        assert record["ok"] and record["value"] < 1e-13

    def test_seed_override_changes_hash(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["sequence", "--out", str(out1)]) == 0
        assert main(["sequence", "--out", str(out2), "--seed", "7"]) == 0
        h1 = json.loads((out1 / "sequence.json").read_text())["config_sha256"]
        h2 = json.loads((out2 / "sequence.json").read_text())["config_sha256"]
        assert h1 != h2

    def test_import_needs_only_numpy(self):
        # a fresh interpreter, so modules imported by other tests don't count
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, berglab.cli; print('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"

    def test_benchmark_tracer_patches_existing_names(self, monkeypatch):
        # the harness patches berglab functions by name; a renamed or
        # deleted one fails here instead of only in a traced benchmark run
        bench = Path(__file__).resolve().parent.parent / "benchmarks"
        monkeypatch.syspath_prepend(str(bench))
        from tracer import Tracer

        from berglab import witness
        orig = witness.region_infimum
        tr = Tracer()
        tr.install()
        try:
            assert witness.region_infimum is not orig
        finally:
            tr.restore()
        assert witness.region_infimum is orig


# the checks that hold no number to a bound: boolean verdicts, and lists
# that must fall strictly
UNBOUNDED_CHECKS = {
    "kernel_diagonal_monotone", "delta_for_inequality",
    "radii_strictly_increasing", "radii_above_floor", "prefix_determinism",
    "ideal_panel_decays", "unitarity_defect_decreasing",
    "conjugation_defect_decreasing", "pairing_matrix_converges",
    "pairing_decays_along_sequence", "two_route_defect_shrinks_m1"}


REPORT_SETS = {
    "all": [("all", {})],
    "ball2": [(suite, dict(cfg, seed=7)) for suite, cfg in BALL2_STEPS],
    "exact_route": [(suite, dict(cfg, seed=7)) for suite, cfg in EXACT_STEPS]}
COMPARISONS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt,
               ">": operator.gt}


@pytest.fixture(scope="class", params=list(REPORT_SETS))
def payloads(request, tmp_path_factory):
    """Every JSON file that one report set's steps write, by path; each
    step passes."""
    work = tmp_path_factory.mktemp(request.param)
    files = {}
    for k, (suite, cfg) in enumerate(REPORT_SETS[request.param]):
        cfgfile = work / f"cfg{k}.json"
        cfgfile.write_text(json.dumps(cfg))
        out = work / f"{k}"
        assert main([suite, "--config", str(cfgfile), "--out", str(out)]) == 0
        files.update({f"{k}/{path.name}": json.loads(path.read_text())
                      for path in out.glob("*.json")})
    return files


def _reports(payloads):
    # the summary of ``all`` holds no report
    return [p["report"] for p in payloads.values() if "report" in p]


def _verdict_keys(obj, path=""):
    """The paths of every ok, *_ok or floor_positive key outside the
    check lists."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        if key == "checks":
            continue
        if key in ("ok", "floor_positive") or str(key).endswith("_ok"):
            yield f"{path}.{key}"
        yield from _verdict_keys(value, f"{path}.{key}")


class TestCheckRecords:
    def test_every_bounded_record_gives_its_bound(self, payloads):
        records = [c for rep in _reports(payloads) for c in rep["checks"]]
        assert records
        missing = [c["name"] for c in records
                   if c["name"] not in UNBOUNDED_CHECKS
                   and not {"value", "tolerance"} <= set(c)]
        assert missing == []

    def test_no_verdict_outside_the_check_lists(self, payloads):
        found = [key for name, payload in payloads.items()
                 for key in _verdict_keys(payload, name)]
        assert found == []
        for rep in _reports(payloads):  # passed summarizes the checks
            failing = [c["name"] for c in rep["checks"] if not c["ok"]]
            assert rep["failures"] == failing
            assert rep["passed"] is (failing == [])

    def test_bounded_records_give_their_comparison(self, payloads):
        for record in (c for rep in _reports(payloads) for c in rep["checks"]):
            if "tolerance" not in record:
                assert "kind" not in record, record
                continue
            holds = COMPARISONS[record["kind"]]
            value = record["value"]
            values = value if isinstance(value, list) else [value]
            if record["ok"] and all(isinstance(v, (int, float))
                                    for v in values):
                assert all(holds(v, record["tolerance"]) for v in values), \
                    record

    def test_separate_records_core_degree_converged(self, payloads):
        separate = [p["report"] for p in payloads.values()
                    if p.get("suite") == "separate"]
        assert separate
        for rep in separate:
            record = {c["name"]: c for c in rep["checks"]}[
                "core_degree_converged"]
            assert record == {
                "name": "core_degree_converged", "ok": True,
                "value": rep["lemma3"]["core_defect"],
                "tolerance": rep["lemma3"]["tail_bound"], "kind": "<="}

    def test_within_and_at_least(self):
        assert suites._within("x", [0.1, 0.2], 0.2) == {
            "name": "x", "ok": True, "value": [0.1, 0.2], "tolerance": 0.2,
            "kind": "<="}
        for value in ([0.1, None], [0.1, 0.3], 0.3, float("nan")):
            assert not suites._within("x", value, 0.2)["ok"]
        assert suites._at_least("x", 2.0, 2.0) == {
            "name": "x", "ok": True, "value": 2.0, "tolerance": 2.0,
            "kind": ">="}
        assert not suites._at_least("x", 1.0, 2.0)["ok"]


class TestGeometryJobs:
    """With --jobs >= 2 the geometry suite runs its inclusion half in one
    forked child: the report, errors and process table must not show it."""

    @staticmethod
    def _no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("seed", [3, 11, 20240])
    def test_jobs_do_not_change_the_report(self, seed):
        serial = suites.run_geometry(ExperimentConfig(seed=seed))
        forked = suites.run_geometry(ExperimentConfig(seed=seed, jobs=2))
        assert forked == serial
        self._no_child_left()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_child_half_error_reaches_the_caller(self, jobs, monkeypatch):
        def fail(*args):
            raise OverflowError("in the inclusion half")

        monkeypatch.setattr(suites, "in_ellipsoid", fail)
        with pytest.raises(OverflowError, match="inclusion half"):
            suites.run_geometry(ExperimentConfig(jobs=jobs))
        self._no_child_left()

    def test_child_exit_without_result_raises(self, monkeypatch):
        monkeypatch.setattr(suites, "in_ellipsoid",
                            lambda *args: os._exit(3))
        with pytest.raises(RuntimeError, match="code 3 "):
            suites.run_geometry(ExperimentConfig(jobs=2))
        self._no_child_left()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_disjointness_radii_checked_without_assert(self, jobs,
                                                       monkeypatch):
        # an explicit error, kept under python -O; with jobs = 2 it is
        # raised by the parent's half and the child is still reaped
        monkeypatch.setattr(suites, "disjoint_threshold", lambda r1, r2: 2.0)
        with pytest.raises(ValueError, match="disjoint_threshold"):
            suites.run_geometry(ExperimentConfig(jobs=jobs))
        self._no_child_left()
