"""Benchmark runner for berglab.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; berglab is imported from the
checkout's ``src/`` (the run fails if it is missing).  With ``--trace 0``
it times whole iterations of the workload with tracing off, scales them
to a reference host speed (``hostspeed.py``) and reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and
traced iterations and reports per-layer metrics.  Both modes run the
outside correctness gate.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; working
output and the traced spans go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3

# Fresh-interpreter set-up: import the CLI and validate the step configs,
# under the host-speed probe; prints the seconds at reference speed.
_SETUP = """\
import json, sys, time
sys.path.append(sys.argv[2])
from hostspeed import SpeedProbe
with SpeedProbe() as probe:
    t0 = time.perf_counter()
    import berglab.cli
    from berglab.config import ExperimentConfig
    for partial in json.loads(sys.argv[1]):
        ExperimentConfig.from_json(partial)
    wall = time.perf_counter() - t0
    speed = probe.speed()
print(wall * speed)
"""


def _pin_threads() -> str:
    """Cap BLAS/OpenMP threads at the usable core count; must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return os.environ["OPENBLAS_NUM_THREADS"]


def _args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _setup_seconds(name: str, seed: int) -> float:
    from workloads import WORKLOADS
    partials = json.dumps([{**partial, "seed": seed}
                           for _, partial in WORKLOADS[name].steps])
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", _SETUP, partials,
                           str(Path(__file__).resolve().parent)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def _provenance(name: str, seed: int, blas_threads: str) -> dict:
    import hashlib
    import platform

    import numpy
    import scipy
    from berglab.reports import config_hash
    from workloads import WORKLOADS, step_configs

    files = sorted((SRC / "berglab").glob("*.py"))
    src_hash = hashlib.sha256()
    for f in files:
        src_hash.update(f.name.encode() + b"\0" + f.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    steps = []
    for (suite, _), cfg in zip(WORKLOADS[name].steps,
                               step_configs(name, seed)):
        prov = cfg.provenance_json()
        steps.append({"suite": suite, "config": prov,
                      "config_sha256": config_hash(prov)})
    return {
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "src_lines": sum(len(f.read_text(encoding="utf-8").splitlines())
                         for f in files),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(blas_threads),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": name,
        "seed": seed,
        "steps": steps,
    }


class Runner:
    """Iterations of one workload, with the per-iteration output check:
    every iteration must finish and write byte-identical reports."""

    def __init__(self, name: str, seed: int, work: Path):
        from workloads import write_configs
        self.work = work
        self.argvs = write_configs(name, seed, work)
        self.count = 0
        self.errors = 0
        self.digests: set[str] = set()
        self.checks: list[tuple[str, bool]] | None = None

    def iterate(self, tracer=None, probe=None) -> tuple[float, float]:
        """Run one iteration; return its wall seconds and the host speed
        relative to the reference while it ran (1.0 without a probe)."""
        from tracer import ROOT_SPAN
        from workloads import digest_reports, program_checks, run_iteration
        out = self.work / f"it{self.count}"
        self.count += 1
        speed = 1.0
        if probe is not None:
            probe.reset()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                run_iteration(self.argvs, out)
            else:
                with tracer:
                    idx = tracer.open(ROOT_SPAN)
                    try:
                        run_iteration(self.argvs, out)
                    finally:
                        tracer.close(idx)
            elapsed = time.perf_counter() - t0
            if probe is not None:
                speed = probe.speed()
            self.digests.add(digest_reports(out))
            if self.checks is None:
                self.checks = program_checks(out)
        except Exception:
            elapsed = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            self.errors += 1
        shutil.rmtree(out, ignore_errors=True)
        return elapsed, speed


def _verdict(name: str, seed: int, runner: Runner) -> tuple[bool, list]:
    """Checks of one iteration plus the outside gate, against the known
    defects.  Returns (correct, all checks)."""
    from workloads import known_defects, outside_checks
    checks = list(runner.checks or [])
    try:
        checks += [(n, ok) for n, ok, _ in outside_checks(name, seed)]
    except Exception:
        traceback.print_exc(file=sys.stderr)
        checks.append(("gate:exception", False))
    checks += [("iteration:exception", False)] * runner.errors
    known = set(known_defects().get(name, ()))
    unexpected = [n for n, ok in checks if not ok and n not in known]
    failing_known = [n for n, ok in checks if not ok and n in known]
    print(f"checks: {len(checks)} attempted, {len(failing_known)} known "
          f"defects failing, {len(unexpected)} unexpected failures")
    for n in unexpected:
        print(f"  unexpected failure: {n}")
    correct = (not unexpected and runner.errors == 0
               and runner.checks is not None and len(runner.digests) == 1)
    if len(runner.digests) > 1:
        print(f"  reports differ across iterations: {len(runner.digests)} "
              "distinct digests")
    return correct, checks


def _timed(name: str, seed: int, seconds: float, runner: Runner) -> dict:
    from hostspeed import SpeedProbe
    setup = [_setup_seconds(name, seed) for _ in range(SETUP_REPEATS)]
    walls, speeds = [], []
    with SpeedProbe() as probe:
        runner.iterate(probe=probe)  # warm-up
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            wall, speed = runner.iterate(probe=probe)
            walls.append(wall)
            speeds.append(speed)
    times = [w * s for w, s in zip(walls, speeds)]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"setup_s samples: {[round(s, 4) for s in setup]}")
    print(f"wall seconds ({len(walls)} iterations after warm-up): "
          f"{[round(t, 4) for t in walls]}")
    print(f"relative host speed: {[round(s, 4) for s in speeds]}")
    print(f"run_s samples: {[round(t, 4) for t in times]}")
    return {"run_s": statistics.median(times),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_mb}


def _traced(name: str, seed: int, seconds: float, runner: Runner) -> dict:
    from tracer import Tracer, layer_metrics
    runner.iterate()  # warm-up
    plain, traced, per_iter, spans = [], [], [], []
    start = time.perf_counter()
    while (not plain or not traced
           or time.perf_counter() - start < seconds):
        if len(plain) <= len(traced):
            plain.append(runner.iterate()[0])
        else:
            tracer = Tracer()
            traced.append(runner.iterate(tracer)[0])
            per_iter.append(layer_metrics(tracer))
            spans.append(tracer.spans)
    OUT.mkdir(exist_ok=True)
    (OUT / f"spans-{name}-{seed}.json").write_text(
        json.dumps({"columns": ["name", "start", "end", "parent"],
                    "iterations": spans}), encoding="utf-8")
    print(f"untraced run_s: {[round(t, 4) for t in plain]}")
    print(f"traced run_s: {[round(t, 4) for t in traced]}")
    metrics = {k: statistics.median(d[k] for d in per_iter)
               for k in per_iter[0]}
    metrics["trace.overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(plain) - 1.0)
    return metrics


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "berglab" / "__init__.py").is_file():
        print(f"berglab sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    blas_threads = _pin_threads()
    sys.path.insert(0, str(SRC))
    import berglab
    if Path(berglab.__file__).resolve().parent != SRC / "berglab":
        print(f"imported berglab from {berglab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    prov = _provenance(args.workload, args.seed, blas_threads)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, work)
        measure = _traced if args.trace else _timed
        raw = measure(args.workload, args.seed, args.seconds, runner)
        correct, checks = _verdict(args.workload, args.seed, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_checks = sum(1 for _, ok in checks if not ok)
    if args.trace:
        raw["checks.attempted"] = len(checks)
        raw["checks.failed"] = failed_checks
        raw["checks.fail_frac"] = failed_checks / len(checks)
    else:
        raw["pass_frac"] = 1.0 - failed_checks / len(checks)
    metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {"correct": correct, "attempted": runner.count,
              "failed": runner.errors, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"provenance": prov, **result}, indent=1),
                  encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
