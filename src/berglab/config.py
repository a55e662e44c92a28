"""Experiment configuration: the parameters of an experiment, explicit
keys of checked types, validated before computation, lossless JSON
round-trip.  The bounds the checks read are not parameters: each is a
constant beside the code that checks it, recorded in that check's
``tolerance`` field."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .sequences import SequenceUnderflowError, build_sequence
from .unitaries import _axis_point
from .witness import SphereSet

__all__ = ["ExperimentConfig", "load_config", "complex_vector"]

# the JSON types each field accepts (a bool is not an int here)
_TYPES = {**dict.fromkeys(("n", "degree", "M", "decay_M", "seed", "jobs"),
                          (int,)),
          "r": (int, float), "eps": (int, float), "d_sweep": (list, tuple),
          "zeta": (list,), "F1": (list,), "F2": (list,), "out_dir": (str,)}


def complex_vector(name: str, pairs) -> np.ndarray:
    """Decode the [[re, im], ...] of field ``name`` into a complex vector."""
    try:
        arr = np.asarray(pairs, dtype=float)
    except TypeError:  # an entry that is no number, such as an object
        raise ValueError(f"{name}: expected [[re, im], ...], got "
                         f"{pairs!r}") from None
    if arr.ndim == 1 and arr.size == 2:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{name}: expected [[re, im], ...], got shape "
                         f"{arr.shape}")
    return arr[:, 0] + 1j * arr[:, 1]


@dataclass(frozen=True)
class ExperimentConfig:
    """The parameters of the experiment suites: dimension, degrees,
    radius, sequence lengths, direction sets, seed and execution fields.
    The check bounds are fixed in code, not here.

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

    def validate(self) -> None:
        for name, types in _TYPES.items():
            value = getattr(self, name)
            if type(value) not in types:
                raise ValueError(f"{name} must be "
                                 f"{' or '.join(t.__name__ for t in types)}"
                                 f", got {value!r}")
        if any(type(d) is not int for d in self.d_sweep):
            raise ValueError(f"d_sweep entries must be int, got "
                             f"{list(self.d_sweep)!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if self.seed < 0:  # numpy's seed sequences take no negative entry
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
        z = complex_vector("zeta", self.zeta)
        if z.size != self.n:
            raise ValueError(f"zeta has dimension {z.size}, expected {self.n}")
        if not abs(np.linalg.norm(z) - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError("zeta must be a unit vector")
        if _axis_point(z) is None:
            raise ValueError("zeta must lie on a coordinate axis: the "
                             "witness suite builds U_zeta exactly only at "
                             "zeta = c e_j")
        for name, group in (("F1", self.F1), ("F2", self.F2)):
            for i, vec in enumerate(group):
                v = complex_vector(f"{name}[{i}]", vec)
                if v.size != self.n:
                    raise ValueError(f"{name} member has wrong dimension")
                if not abs(np.linalg.norm(v) - 1.0) <= 1e-12:
                    raise ValueError(f"{name} members must be unit vectors")
        if not self.F2:
            raise ValueError("F2 must be non-empty")
        f2 = SphereSet.create(self.f2_vecs)
        for i, gap in enumerate(f2.min_dist(self.f1_vecs)):
            if not gap <= 1e-12:  # W_F1 lies in W_F2 only when F1 is in F2
                raise ValueError(f"F1[{i}] is not a member of F2 (distance "
                                 f"{gap:.6g})")
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

    @property
    def zeta_vec(self) -> np.ndarray:
        return complex_vector("zeta", self.zeta)

    @property
    def f1_vecs(self) -> np.ndarray:
        if not self.F1:
            return np.zeros((0, self.n), dtype=complex)
        return np.stack([complex_vector("F1", v) for v in self.F1])

    @property
    def f2_vecs(self) -> np.ndarray:
        return np.stack([complex_vector("F2", v) for v in self.F2])

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
        cfg = cls(**data)
        cfg.validate()
        return replace(cfg, d_sweep=tuple(cfg.d_sweep))


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
