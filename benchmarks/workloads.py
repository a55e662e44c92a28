"""The benchmark's workloads and its outside correctness gate.

A workload is a list of CLI steps, each a suite name and a partial
configuration; the workload seed goes into ``cfg.seed``.  One iteration
runs every step through ``berglab.cli.main`` in-process, writing reports
under a fresh directory.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

E1 = [[1.0, 0.0], [0.0, 0.0]]
E2 = [[0.0, 0.0], [1.0, 0.0]]

_BALL2 = {"n": 2, "degree": 10, "d_sweep": [6, 10], "zeta": E1,
          "F1": [E2], "F2": [E1, E2]}
_DISK64 = {"n": 1, "degree": 64, "d_sweep": [16, 32, 48, 64]}
_RAY24 = {"n": 2, "degree": 24, "zeta": E1, "F1": [], "F2": [E1]}

# ||P U_z P|| <= 1 + this, and column 0 of P U_z P equals P k_z within
# KERNEL_COLUMN_TOL: both hold exactly for a compressed unitary.
CONTRACTION_TOL = 1e-8
KERNEL_COLUMN_TOL = 1e-10


@dataclass(frozen=True)
class Workload:
    why: str
    steps: tuple[tuple[str, dict], ...]


WORKLOADS = {
    "default_all": Workload(
        why="berglab all at the default config: every layer at small size, "
            "dominated by per-call overhead and suite fan-out",
        steps=(("all", {}),)),
    "ball2_dense": Workload(
        why="separate then witness at n=2, d=10: dense quadrature Toeplitz "
            "assembly and basis evaluation on a ~211k-node Hopf rule",
        steps=(("separate", _BALL2), ("witness", _BALL2))),
    "exact_route": Workload(
        why="witness and separate at n=1, d<=64, then separate at n=2, d=24: "
            "closed-form U_z and rule building, little dense assembly",
        steps=(("witness", _DISK64), ("separate", _DISK64),
               ("separate", _RAY24))),
}


def step_configs(name: str, seed: int):
    """Validated ExperimentConfig per step of a workload."""
    from berglab.config import ExperimentConfig
    return [ExperimentConfig.from_json({**partial, "seed": seed})
            for _, partial in WORKLOADS[name].steps]


def write_configs(name: str, seed: int, work: Path) -> list[list[str]]:
    """Write each step's config file; return the CLI argv per step (the
    output directory is appended per iteration)."""
    argvs = []
    for i, (suite, partial) in enumerate(WORKLOADS[name].steps):
        path = work / f"config{i}.json"
        path.write_text(json.dumps({**partial, "seed": seed}),
                        encoding="utf-8")
        argv = [suite, "--config", str(path)]
        if suite == "all":  # 2 workers, capped at the usable cores
            argv += ["--jobs", str(min(2, len(os.sched_getaffinity(0))))]
        argvs.append(argv)
    return argvs


def run_iteration(argvs: list[list[str]], out: Path) -> None:
    """One iteration: every step through the public CLI entry point."""
    from berglab.cli import main
    for i, argv in enumerate(argvs):
        main([*argv, "--out", str(out / f"step{i}")])


def digest_reports(out: Path) -> str:
    """SHA-256 over every report file's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def program_checks(out: Path) -> list[tuple[str, bool]]:
    """The program's own check list, from every suite report written."""
    checks = []
    for path in sorted(out.rglob("*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        report = payload.get("report")
        if not isinstance(report, dict):
            continue  # the run summary of ``all`` repeats the suites
        step = path.parent.name
        for c in report["checks"]:
            checks.append((f"{step}:{payload['suite']}:{c['name']}",
                           bool(c["ok"])))
    return checks


def _gate_targets(name: str, seed: int) -> dict:
    """Per dimension: (zeta, r, sequence length, degrees) the workload's
    steps build sequence U_z for."""
    targets: dict = {}
    for (suite, _), cfg in zip(WORKLOADS[name].steps, step_configs(name, seed)):
        degrees = set()
        length = cfg.M
        if suite in ("witness", "all"):
            degrees |= set(cfg.d_sweep)
        if suite in ("separate", "all"):
            degrees.add(cfg.degree)
            length = max(cfg.M, cfg.decay_M)
        zeta = tuple(cfg.zeta_vec.tolist())
        prev = targets.get(cfg.n)
        if prev is not None:
            if prev[:2] != (zeta, cfg.r):
                raise ValueError(f"{name}: steps at n={cfg.n} disagree on "
                                 "the sequence direction or radius")
            length = max(length, prev[2])
            degrees |= prev[3]
        targets[cfg.n] = (zeta, cfg.r, length, degrees)
    return targets


def outside_checks(name: str, seed: int) -> list[tuple[str, bool, float]]:
    """Rebuild each step's sequence U_z through the public API and check
    the compression invariants: contraction and the kernel column."""
    from berglab import (TruncatedBasis, build_sequence, kernel_expansion,
                         unitary_matrix)
    out = []
    for n, (zeta, r, length, degrees) in sorted(
            _gate_targets(name, seed).items()):
        pts = build_sequence(np.asarray(zeta), r, length).points()
        for d in sorted(degrees):
            basis = TruncatedBasis.create(n, d)
            for m, z in enumerate(pts, start=1):
                u = unitary_matrix(z, basis).mat
                excess = float(np.linalg.norm(u, 2)) - 1.0
                col = float(np.max(np.abs(
                    u[:, 0] - kernel_expansion(z, basis).coeffs)))
                tag = f"n={n},d={d},m={m}"
                out.append((f"gate:contraction[{tag}]",
                            excess <= CONTRACTION_TOL, excess))
                out.append((f"gate:kernel_column[{tag}]",
                            col <= KERNEL_COLUMN_TOL, col))
    return out


def known_defects() -> dict[str, list[str]]:
    """Checks that fail at the seed commit, per workload (documented in
    README.md).  They count in fail_frac; only other failures make a run
    incorrect."""
    path = Path(__file__).with_name("known_defects.json")
    return json.loads(path.read_text(encoding="utf-8"))
