"""Span tracer that instruments berglab from outside.

``Tracer`` replaces each instrumented public function with a wrapper in
every ``berglab.*`` module that holds it by name (suites import functions
by name, so patching the defining module alone would miss them), and
restores every name on exit.  Each call records a span
``[name, start, end, parent]`` in memory; counters are taken at the same
boundary, inside a ``trace.counters`` span so that their cost lands in no
layer's self time.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

ROOT_SPAN = "iteration"
COUNTERS = "trace.counters"

_COMPLEX_BYTES = 16

GEOMETRY = ("as_point", "inner", "moebius", "pseudo_metric",
            "metric_combined_bound", "disjoint_threshold", "ellipsoid_params",
            "in_metric_ball", "in_ellipsoid", "delta_for", "sample_ball",
            "sample_metric_ball", "random_sphere_points")
WITNESS_GLUE = ("witness_operator", "lemma3_lower_bound", "prop1_decay",
                "build_prop1_config", "separation_experiment")
WITNESS_REGION = ("in_region_W", "region_infimum", "boundary_trace_check")


def _digest(arr) -> bytes:
    a = np.ascontiguousarray(arr)
    h = hashlib.blake2b(digest_size=16)
    h.update(str((a.dtype.str, a.shape)).encode())
    h.update(memoryview(a).cast("B"))
    return h.digest()


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.excess_max: float | None = None
        self._stack: list[int] = []
        self._seen: dict[str, set] = defaultdict(set)
        self._rules: dict[int, list] = {}   # id(nodes) -> [ref, size, used]
        self._patches: list[tuple] = []

    # ---------------------------------------------------------------- spans

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                cidx = self.open(COUNTERS)
                try:
                    after(self, result, *args, **kwargs)
                finally:
                    self.close(cidx)
            return result
        return traced

    # ------------------------------------------------------------- counters

    def _repeat(self, layer: str, key) -> None:
        seen = self._seen[layer]
        if key in seen:
            self.counts[layer + ".repeats"] += 1
        seen.add(key)

    def _mark_read(self, nodes) -> None:
        rec = self._rules.get(id(nodes))
        if rec is not None and rec[0]() is nodes:
            rec[2] = True

    def _excess(self, mat: np.ndarray) -> None:
        excess = float(np.linalg.norm(mat, 2)) - 1.0
        self.excess_max = (excess if self.excess_max is None
                           else max(self.excess_max, excess))

    def rules_used_frac(self) -> float:
        total = sum(rec[1] for rec in self._rules.values())
        used = sum(rec[1] for rec in self._rules.values() if rec[2])
        return used / total if total else 0.0

    # ------------------------------------------------------------ patching

    def _patch_everywhere(self, orig, wrapper) -> None:
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "berglab" or k.startswith("berglab."))]
        for mod in mods:
            names = [k for k, v in vars(mod).items() if v is orig]
            for key in names:
                self._patches.append((mod, key, orig))
                setattr(mod, key, wrapper)

    def install(self) -> "Tracer":
        from berglab import (basis, geometry, quadrature, reports, suites,
                             toeplitz, unitaries, witness)

        def func(mod, attr, name, after=None):
            orig = getattr(mod, attr)
            self._patch_everywhere(orig, self.wrap(orig, name, after))

        func(quadrature, "build_rule", "quadrature.build_rule", _after_rule)
        func(quadrature, "integrate", "quadrature.integrate", _after_integrate)
        orig_eval = basis.TruncatedBasis.__dict__["eval"]
        self._patches.append((basis.TruncatedBasis, "eval", orig_eval))
        basis.TruncatedBasis.eval = self.wrap(orig_eval, "basis.eval",
                                              _after_eval)
        func(toeplitz, "toeplitz_matrix", "toeplitz.dense", _after_dense)
        func(toeplitz, "toeplitz_radial", "toeplitz.fast")
        func(toeplitz, "toeplitz_monomial_radial", "toeplitz.fast")
        func(toeplitz, "op_norm", "toeplitz.op_norm")
        func(unitaries, "unitary_matrix_exact", "unitaries.exact", _after_exact)
        func(unitaries, "unitary_matrix_quadrature", "unitaries.quadrature",
             _after_quadrature_u)
        func(unitaries, "weak_pairing_exact", "unitaries.pairing")
        for attr in GEOMETRY:
            func(geometry, attr, "geometry")
        for attr in WITNESS_GLUE:
            func(witness, attr, f"witness.{attr}")
        for attr in WITNESS_REGION:
            func(witness, attr, "witness.region")
        func(reports, "write_report", "reports", _after_write)
        func(reports, "write_csv", "reports", _after_write)
        for key, orig in list(suites.SUITES.items()):
            wrapper = self.wrap(orig, f"suites.{key}")
            self._patches.append((suites.SUITES, key, orig))
            suites.SUITES[key] = wrapper
            self._patch_everywhere(orig, wrapper)
        return self

    def restore(self) -> None:
        for owner, key, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------- summary

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the children's durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Per span name: call count and summed (inclusive) duration."""
        calls: dict[str, int] = defaultdict(int)
        wall: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            calls[name] += 1
            wall[name] += end - start
        return calls, wall


# Counter hooks: called as after(tracer, result, *args, **kwargs).

def _after_rule(tr: Tracer, rule, *args, **kwargs) -> None:
    tr.counts["quadrature.build_rule.nodes"] += len(rule)
    tr._repeat("quadrature.build_rule", (
        rule.n, rule.radial_points, rule.angular, rule.seed,
        rule.radial_breaks))
    tr._rules[id(rule.nodes)] = [weakref.ref(rule.nodes), len(rule), False]


def _after_integrate(tr: Tracer, result, f, rule, *args, **kwargs) -> None:
    tr._mark_read(rule.nodes)


def _after_eval(tr: Tracer, result, basis, points) -> None:
    tr._mark_read(points)
    tr.counts["basis.eval.entries"] += result.size
    tr.counts["basis.eval.bytes_computed"] += result.nbytes
    tr._repeat("basis.eval", (basis.n, basis.degree, _digest(points)))


def _after_dense(tr: Tracer, result, f, basis, rule) -> None:
    nodes, size = len(rule), len(basis)
    # E^H ((w f)[:, None] * E): weighting 6 N B, product 8 N B^2 real flops;
    # bytes are the two N x B work matrices and the B x B result
    tr.counts["toeplitz.dense.flops_computed"] += (
        8 * nodes * size * size + 6 * nodes * size)
    tr.counts["toeplitz.dense.bytes_computed"] += _COMPLEX_BYTES * (
        2 * nodes * size + size * size)


def _after_exact(tr: Tracer, result, z, basis) -> None:
    tr.counts["unitaries.exact.entries"] += result.mat.size
    tr._repeat("unitaries.exact", (basis.n, basis.degree, _digest(z)))
    tr._excess(result.mat)


def _after_quadrature_u(tr: Tracer, result, z, basis, rule) -> None:
    tr._excess(result.mat)


def _after_write(tr: Tracer, path, *args, **kwargs) -> None:
    tr.counts["reports.bytes_written"] += path.stat().st_size


SUITE_NAMES = ("geometry", "sequence", "basis", "toeplitz", "unitary",
               "witness", "prop1", "separate")
_TIMED = ("quadrature.build_rule", "quadrature.integrate", "basis.eval",
          "toeplitz.dense", "toeplitz.fast", "unitaries.exact",
          "unitaries.quadrature", "unitaries.pairing", "geometry")


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    calls, wall = tr.totals()
    own = tr.self_times()
    c = tr.counts

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for name in _TIMED:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = own[name]
    m["quadrature.build_rule.nodes"] = c["quadrature.build_rule.nodes"]
    m["quadrature.build_rule.repeat_frac"] = frac(
        c["quadrature.build_rule.repeats"], calls["quadrature.build_rule"])
    m["quadrature.build_rule.used_frac"] = tr.rules_used_frac()
    m["basis.eval.entries"] = c["basis.eval.entries"]
    m["basis.eval.bytes_computed"] = c["basis.eval.bytes_computed"]
    m["basis.eval.repeat_frac"] = frac(c["basis.eval.repeats"],
                                       calls["basis.eval"])
    m["toeplitz.dense.flops_computed"] = c["toeplitz.dense.flops_computed"]
    m["toeplitz.dense.bytes_computed"] = c["toeplitz.dense.bytes_computed"]
    m["toeplitz.fast_frac"] = frac(
        calls["toeplitz.fast"], calls["toeplitz.fast"] + calls["toeplitz.dense"])
    m["toeplitz.op_norm.self_s"] = own["toeplitz.op_norm"]
    m["unitaries.exact.entries"] = c["unitaries.exact.entries"]
    m["unitaries.exact.repeat_frac"] = frac(c["unitaries.exact.repeats"],
                                            calls["unitaries.exact"])
    m["unitaries.contraction_excess_max"] = (
        tr.excess_max if tr.excess_max is not None else 0.0)
    for name in WITNESS_GLUE + ("region",):
        m[f"witness.{name}.self_s"] = own[f"witness.{name}"]
    for name in SUITE_NAMES:
        m[f"suites.{name}.wall_s"] = wall[f"suites.{name}"]
    m["reports.self_s"] = own["reports"]
    m["reports.bytes_written"] = c["reports.bytes_written"]
    return m
