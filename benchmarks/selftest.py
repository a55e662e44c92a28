"""Self-tests of the benchmark harness (not part of the project's test
suite; run with ``python3 -m pytest benchmarks/selftest.py``)."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import berglab  # noqa: E402
from berglab import basis, quadrature, suites, toeplitz, unitaries  # noqa: E402
from berglab.config import ExperimentConfig  # noqa: E402
from berglab.reports import canonical_json  # noqa: E402

import workloads  # noqa: E402
from hostspeed import SpeedProbe  # noqa: E402
from tracer import ROOT_SPAN, Tracer, layer_metrics  # noqa: E402


def _berglab_names() -> dict:
    """Every name bound in every berglab module, plus the patched
    containers, as object identities."""
    snap = {}
    for key, mod in sys.modules.items():
        if key == "berglab" or key.startswith("berglab."):
            for name, value in vars(mod).items():
                snap[(key, name)] = id(value)
    for name, fn in suites.SUITES.items():
        snap[("SUITES", name)] = id(fn)
    snap[("TruncatedBasis", "eval")] = id(
        basis.TruncatedBasis.__dict__["eval"])
    return snap


def _small_report(cfg: ExperimentConfig) -> str:
    rep = {name: suites.SUITES[name](cfg)
           for name in ("sequence", "basis", "toeplitz")}
    for r in rep.values():
        r.pop("csv", None)
    return canonical_json(rep)


def test_tracer_restores_every_name():
    before = _berglab_names()
    with Tracer():
        during = _berglab_names()
    assert _berglab_names() == before
    changed = {k for k in before if during.get(k) != before[k]}
    # the function is replaced in every module that imports it by name
    for mod in ("berglab.suites", "berglab.witness", "berglab.unitaries",
                "berglab.toeplitz", "berglab"):
        assert (mod, "toeplitz_matrix") in changed
    assert ("SUITES", "separate") in changed


def test_tracer_restores_on_error():
    before = _berglab_names()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert _berglab_names() == before


def test_wrapped_functions_are_bit_identical():
    b = basis.TruncatedBasis.create(2, 6)
    z = np.array([0.3 + 0.1j, -0.2j])

    def compute():
        rule = quadrature.rule_for_basis(2, 6, seed=5, radial_breaks=(0.25,))
        sym = toeplitz.Symbol.sampled(
            lambda p: np.exp(-np.sum(np.abs(p) ** 2, axis=-1)), 1.0)
        return [rule.nodes, rule.weights, b.eval(rule.nodes),
                toeplitz.toeplitz_matrix(sym, b, rule).mat,
                unitaries.unitary_matrix_exact(np.array([0.9, 0.0]), b).mat,
                unitaries.unitary_matrix_quadrature(z, b, rule).mat,
                np.asarray(unitaries.weak_pairing_exact(z, 0.5 * z, -z)),
                berglab.moebius(z, rule.nodes[:50])]

    plain = compute()
    with Tracer():
        traced = compute()
    for a, t in zip(plain, traced):
        assert a.dtype == t.dtype and a.shape == t.shape
        assert a.tobytes() == t.tobytes()


def test_traced_suites_report_identical_bytes():
    cfg = ExperimentConfig(seed=11)
    plain = _small_report(cfg)
    with Tracer() as tr:
        traced = _small_report(cfg)
    assert traced == plain
    assert tr.spans


def test_self_times_sum_to_parent_spans():
    tr = Tracer()
    with tr:
        idx = tr.open(ROOT_SPAN)
        _small_report(ExperimentConfig(seed=3))
        tr.close(idx)
    spans = tr.spans
    assert spans[idx][3] == -1 and all(s[3] >= 0 for s in spans[idx + 1:])
    # self time of a span = duration minus the children's durations, so the
    # self times of a subtree add up to the subtree root's duration
    subtree_self = [0.0] * len(spans)
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for i in range(len(spans) - 1, -1, -1):
        name, start, end, parent = spans[i]
        subtree_self[i] += (end - start) - child[i]
        assert subtree_self[i] == pytest.approx(end - start, abs=1e-9)
        if parent >= 0:
            subtree_self[parent] += subtree_self[i]
    root_len = spans[idx][2] - spans[idx][1]
    assert sum(tr.self_times().values()) == pytest.approx(root_len, abs=1e-9)


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tr = Tracer()
    with tr:
        suites.SUITES["sequence"](ExperimentConfig(seed=1))
    emitted = set(layer_metrics(tr)) | {
        "trace.overhead_frac", "checks.attempted", "checks.failed",
        "checks.fail_frac"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
    assert {m["name"] for m in spec["end_to_end"]} == {
        "run_s", "setup_s", "peak_rss_mb", "pass_frac"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


def test_speed_probe_samples_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        speed = probe.speed()
        probe.reset()
        with pytest.raises(RuntimeError):
            probe.speed()
    assert speed > 0.0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_configs_validate(name, tmp_path):
    cfgs = workloads.step_configs(name, 123)
    assert len(cfgs) == len(workloads.WORKLOADS[name].steps)
    assert all(cfg.seed == 123 for cfg in cfgs)
    assert workloads._gate_targets(name, 123)
    for argv in workloads.write_configs(name, 123, tmp_path):
        assert ExperimentConfig.from_json(
            json.loads(Path(argv[2]).read_text())).seed == 123


def test_known_defects_name_real_gate_checks():
    names = {n for n, _, _ in workloads.outside_checks("exact_route", 0)}
    known = workloads.known_defects()
    assert set(known) == set(workloads.WORKLOADS)
    gate_known = {n for n in known["exact_route"] if n.startswith("gate:")}
    assert gate_known and gate_known <= names


def test_default_all_matches_plain_cli(tmp_path):
    """The benchmark's in-process, traced berglab all writes the same bytes
    as a plain command-line run."""
    seed = 20240
    plain = tmp_path / "plain"
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    subprocess.run([sys.executable, "-m", "berglab.cli", "all", "--out",
                    str(plain), "--seed", str(seed), "--jobs", "2"],
                   env=env, check=True, capture_output=True, timeout=300)
    argvs = workloads.write_configs("default_all", seed, tmp_path)
    with Tracer():
        workloads.run_iteration(argvs, tmp_path / "bench")
    assert (workloads.digest_reports(tmp_path / "bench" / "step0")
            == workloads.digest_reports(plain))


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "default_all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
