"""Deterministic report emission: canonical JSON for scalars and check
lists, CSV for curves.

Reports carry no timestamps or absolute paths; identical configurations
produce byte-identical files.  Floats are rendered with shortest
round-trip repr.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

__all__ = ["canonical_json", "config_hash", "write_report", "write_csv",
           "check", "summarize_checks"]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2,
                      ensure_ascii=True, allow_nan=False) + "\n"


def config_hash(config_json: dict) -> str:
    blob = json.dumps(config_json, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check(name: str, ok: bool, value=None, tol=None, kind=None) -> dict:
    """One pass/fail record for the check list; beside a tolerance,
    ``kind`` ("<=", ">=", "<" or ">") says how value must compare to it."""
    entry: dict = {"name": name, "ok": bool(ok)}
    if value is not None:
        entry["value"] = value
    if tol is not None:
        entry["tolerance"] = tol
        entry["kind"] = kind
    return entry


def summarize_checks(checks: list[dict]) -> dict:
    failures = [c["name"] for c in checks if not c["ok"]]
    return {"checks": checks, "failures": failures,
            "passed": not failures}


def write_report(out_dir: str | Path, name: str, payload: dict) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.json"
    path.write_text(canonical_json(payload), encoding="utf-8")
    return path


def write_csv(out_dir: str | Path, name: str, header: list[str],
              rows: list[list]) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.csv"
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
