"""Tests for configuration handling, report emission and the CLI."""

import json
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
        with pytest.raises(ValueError, match="tolerance"):
            ExperimentConfig(tolerances={"bogus": 1.0}).validate()

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

    @pytest.mark.parametrize("suite", ["unitary", "witness"])
    @pytest.mark.parametrize("bad, why", [
        ({"d_sweep": []}, "d_sweep must be non-empty"),
        ({"d_sweep": [8, 8]}, "d_sweep must be strictly increasing"),
        ({"r": 0.99}, "r = 0.99 leaves only 4 separated radii"),
        ({"eps": 1.2}, "eps = 1.2 exceeds sqrt(5)/2"),
        (dict(E12, eps=0.8), "no direction of F2 is at distance >= 2 eps")],
        ids=["empty_sweep", "repeated_degree", "underflowing_radius",
             "eps_beyond_prop1_sequence", "f2_within_2eps_of_f1"])
    def test_invalid_config_exits_before_compute(self, tmp_path, capsys,
                                                 suite, bad, why):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps(bad))
        out = tmp_path / "rep"
        code = main([suite, "--config", str(cfgfile), "--out", str(out)])
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
        # the witness side is a Berezin sum and builds no U_z, so the
        # direction need not be a coordinate ray
        zeta = [[2 ** -0.5, 0.0], [2 ** -0.5, 0.0]]
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n": 2, "degree": 10, "zeta": zeta,
                                       "F1": [], "F2": [zeta]}))
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
        # separate then witness at n = 2, d = 10, twice in one process:
        # every check passes both times and the report trees are equal
        # byte for byte, so no state carried between runs moves a report
        e1, e2 = [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n": 2, "degree": 10,
                                       "d_sweep": [6, 10], "zeta": e1,
                                       "F1": [e2], "F2": [e1, e2]}))
        trees = []
        for run in ("first", "second"):
            files = {}
            for suite in ("separate", "witness"):
                out = tmp_path / run / suite
                assert main([suite, "--config", str(cfgfile),
                             "--out", str(out)]) == 0
                report = json.loads(
                    (out / f"{suite}.json").read_text())["report"]
                assert report["checks"]
                assert all(c["ok"] for c in report["checks"]), suite
                files.update({str(p.relative_to(tmp_path / run)):
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
        # an absurd tolerance forces a recorded failure, not a crash
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(
            {"tolerances": {"gram_defect_n1": 1e-30}}))
        out = tmp_path / "rep"
        code = main(["basis", "--config", str(cfgfile), "--out", str(out)])
        assert code == 1
        payload = json.loads((out / "basis.json").read_text())
        assert not payload["report"]["passed"]
        assert "basis:gram_identity_n1_d12" in capsys.readouterr().err

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
