"""Separated sequences along a boundary ray.

Construct increasing radii t_1 < t_2 < ... < t_M in (0, 1) such that the
metric balls E(t_m zeta, r) are pairwise disjoint.  Each step scans the
deterministic schedule t = 1 - (1 - t_m)/2^k, k = 1, 2, ..., and accepts
the first candidate that clears both the floor 1 - 1/(m+1) and the
pairwise separation threshold 2r/(1 + r^2).  Termination is guaranteed
because rho(t zeta, s zeta) -> 1 as t -> 1.

The gaps 1 - t_m are exact dyadic halvings of 1/2, so they are stored
alongside the radii and reused for cancellation-free metric evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import disjoint_threshold

__all__ = ["SeparatedSequence", "SequenceUnderflowError", "build_sequence",
           "ray_rho", "pairwise_rho"]

# smallest gap 1 - t that still leaves t strictly below 1 in double precision
_MIN_GAP = 1e-15


class SequenceUnderflowError(RuntimeError):
    """Raised when the requested length would drive 1 - t_m below double
    precision; carries the achievable prefix."""

    def __init__(self, requested: int, radii: np.ndarray):
        self.requested = requested
        self.achieved = radii
        super().__init__(
            f"cannot build {requested} separated radii in double precision; "
            f"achievable prefix has length {len(radii)}")


@dataclass(frozen=True)
class SeparatedSequence:
    """Radii t_m along the ray t * zeta with pairwise-disjoint E(t_m zeta, r)."""

    zeta: np.ndarray
    r: float
    radii: np.ndarray
    gaps: np.ndarray  # 1 - t_m, exact dyadics

    def __len__(self) -> int:
        return len(self.radii)

    @property
    def one_minus_sq(self) -> np.ndarray:
        """1 - t_m^2 = gap (2 - gap), with no cancellation near t = 1."""
        return self.gaps * (2.0 - self.gaps)

    def points(self) -> np.ndarray:
        """The sequence points z_m = t_m * zeta, shape (M, n)."""
        return self.radii[:, None] * self.zeta[None, :]


def ray_rho(t: float, s: float, *, gap_t: float | None = None,
            gap_s: float | None = None) -> float:
    """rho(t zeta, s zeta) = |t - s| / (1 - t s) for radii t, s in [0, 1).

    Optional exact gaps 1 - t, 1 - s avoid cancellation when both radii
    are close to 1.
    """
    gt = (1.0 - t) if gap_t is None else gap_t
    gs = (1.0 - s) if gap_s is None else gap_s
    denom = gt + (1.0 - gt) * gs  # 1 - t s, cancellation free
    return abs(gs - gt) / denom


def build_sequence(zeta, r: float, M: int) -> SeparatedSequence:
    """Build M separated radii along the ray toward zeta.

    Deterministic: rebuilding with a larger M extends the prefix without
    changing it.  Raises SequenceUnderflowError when the schedule hits the
    resolution of double precision before reaching M radii.
    """
    zeta = np.atleast_1d(np.asarray(zeta, dtype=complex))
    norm = float(np.linalg.norm(zeta))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"zeta must be a unit vector (|zeta| = {norm:.17g})")
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0, 1), got {r}")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")

    thr = disjoint_threshold(r, r)
    radii = [0.5]
    gaps = [0.5]
    while len(radii) < M:
        m = len(radii)  # choosing t_{m+1}
        gap = gaps[-1]
        accepted = False
        while not accepted:
            gap = gap / 2.0
            if gap < _MIN_GAP:
                raise SequenceUnderflowError(M, np.asarray(radii))
            t = 1.0 - gap
            if t <= max(radii[-1], 1.0 - 1.0 / (m + 1)):
                continue
            seps = [ray_rho(t, radii[j], gap_t=gap, gap_s=gaps[j])
                    for j in range(m)]
            if min(seps) > thr:
                accepted = True
        radii.append(t)
        gaps.append(gap)

    return SeparatedSequence(zeta=zeta, r=r, radii=np.asarray(radii),
                             gaps=np.asarray(gaps))


def pairwise_rho(seq: SeparatedSequence) -> np.ndarray:
    """Matrix of rho(t_k zeta, t_l zeta) for all pairs (zero diagonal)."""
    m = len(seq)
    out = np.zeros((m, m))
    for k in range(m):
        for l in range(k + 1, m):
            v = ray_rho(seq.radii[k], seq.radii[l],
                        gap_t=seq.gaps[k], gap_s=seq.gaps[l])
            out[k, l] = out[l, k] = v
    return out
