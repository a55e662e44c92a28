"""Experiment configuration: explicit keys, validated before computation,
lossless JSON round-trip."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .sequences import SequenceUnderflowError, build_sequence
from .witness import SphereSet

__all__ = ["ExperimentConfig", "DEFAULT_TOLERANCES", "load_config",
           "complex_vector"]

DEFAULT_TOLERANCES: dict[str, float] = {
    "eq4_violation": 1e-12,
    "moebius_involution": 1e-12,
    "rho_isometry": 1e-12,
    "gram_defect_n1": 1e-10,
    "gram_defect_n2": 1e-6,
    "kernel_norm": 1e-9,
    "fast_path": 1e-8,
    "norm_contraction": 1e-8,
    "toeplitz_diag": 1e-10,
    "lemma1_value": 1e-12,
    "membership_band": 1e-9,
    "psd_floor": 1e-10,
    "decay_fraction": 0.05,
    "slope_rel": 0.10,
    "separation_factor": 10.0,
}


def complex_vector(pairs) -> np.ndarray:
    """Decode [[re, im], ...] into a complex vector."""
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim == 1 and arr.size == 2:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected [[re, im], ...], got shape {arr.shape}")
    return arr[:, 0] + 1j * arr[:, 1]


@dataclass(frozen=True)
class ExperimentConfig:
    """Driving parameters for the experiment suites.

    Directions (zeta and the members of F1/F2) are stored as lists of
    [re, im] coordinate pairs so the configuration serializes to plain
    JSON.
    """

    n: int = 1
    degree: int = 12
    d_sweep: tuple[int, ...] = (6, 8, 10, 12)
    r: float = 0.5
    zeta: list = field(default_factory=lambda: [[1.0, 0.0]])
    M: int = 5
    decay_M: int = 10
    F1: list = field(default_factory=list)
    F2: list = field(default_factory=lambda: [[[1.0, 0.0]]])
    eps: float = 0.5
    seed: int = 20240
    jobs: int = 1  # >= 2: run_geometry forks its inclusion half
    out_dir: str = "reports"
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def validate(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if not 0.0 < self.r < 1.0:
            raise ValueError(f"r must lie in (0, 1), got {self.r}")
        if self.M < 1 or self.decay_M < self.M:
            raise ValueError(f"need 1 <= M <= decay_M, got M = {self.M}, "
                             f"decay_M = {self.decay_M}")
        try:  # the suites build sequences at r of length M, decay_M and 8
            build_sequence([1.0], self.r, max(self.decay_M, 8))
        except SequenceUnderflowError as exc:
            raise ValueError(f"r = {self.r} leaves only {len(exc.achieved)} "
                             "separated radii in double precision; the "
                             f"suites need {exc.requested}") from None
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not self.d_sweep:
            raise ValueError("d_sweep must be non-empty")
        if any(d < 1 for d in self.d_sweep):
            raise ValueError("d_sweep entries must be >= 1")
        if any(a >= b for a, b in zip(self.d_sweep, self.d_sweep[1:])):
            raise ValueError("d_sweep must be strictly increasing")
        z = complex_vector(self.zeta)
        if z.size != self.n:
            raise ValueError(f"zeta has dimension {z.size}, expected {self.n}")
        if abs(np.linalg.norm(z) - 1.0) > 1e-12:
            raise ValueError("zeta must be a unit vector")
        for name, group in (("F1", self.F1), ("F2", self.F2)):
            for vec in group:
                v = complex_vector(vec)
                if v.size != self.n:
                    raise ValueError(f"{name} member has wrong dimension")
                if abs(np.linalg.norm(v) - 1.0) > 1e-12:
                    raise ValueError(f"{name} members must be unit vectors")
        if not self.F2:
            raise ValueError("F2 must be non-empty")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.eps > np.sqrt(1.25):
            raise ValueError(f"eps = {self.eps} exceeds sqrt(5)/2, the gap "
                             "from prop1's first point e1/2 to F1 = {e2}")
        dists = SphereSet.create(self.f1_vecs, n=self.n).min_dist(self.f2_vecs)
        if not dists.max() >= 2 * self.eps:
            raise ValueError("no direction of F2 is at distance >= 2 eps = "
                             f"{2 * self.eps} from F1 (best is "
                             f"{dists.max():.6g})")
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")

    def tol(self, key: str) -> float:
        return float(self.tolerances.get(key, DEFAULT_TOLERANCES[key]))

    @property
    def zeta_vec(self) -> np.ndarray:
        return complex_vector(self.zeta)

    @property
    def f1_vecs(self) -> np.ndarray:
        if not self.F1:
            return np.zeros((0, self.n), dtype=complex)
        return np.stack([complex_vector(v) for v in self.F1])

    @property
    def f2_vecs(self) -> np.ndarray:
        return np.stack([complex_vector(v) for v in self.F2])

    def to_json(self) -> dict:
        d = asdict(self)
        d["d_sweep"] = list(self.d_sweep)
        return d

    def provenance_json(self) -> dict:
        """The experiment-defining parameters: everything except the
        execution-only fields (output directory and worker count), so
        that reports stay byte-identical across --out and --jobs."""
        d = self.to_json()
        d.pop("out_dir")
        d.pop("jobs")
        return d

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged = dict(data)
        if "d_sweep" in merged:
            merged["d_sweep"] = tuple(merged["d_sweep"])
        if "tolerances" in merged:
            merged["tolerances"] = {**DEFAULT_TOLERANCES,
                                    **merged["tolerances"]}
        cfg = cls(**merged)
        cfg.validate()
        return cfg


def load_config(path: str | Path | None, **overrides) -> ExperimentConfig:
    """The config of a JSON file (the defaults when path is None) with
    every override that is not None on top, validated once."""
    data = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
    return ExperimentConfig.from_json(
        {**data, **{k: v for k, v in overrides.items() if v is not None}})
