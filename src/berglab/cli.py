"""Command-line experiment driver.

Subcommands map one-to-one onto the experiment suites; ``all`` runs every
suite.  Reports are written as canonical JSON (plus CSV files for
curves), embed the full configuration and its hash (the basis and
toeplitz reports also give the metadata of the quadrature rules they
integrate over), and are byte-identical for identical configurations.
With --jobs 2 or more the geometry suite runs its inclusion checks in
one forked child beside the rest (no other suite reads --jobs); every
--jobs value writes the same bytes.  Exit status is 0 iff every check
in scope passed; on failure a machine-readable failure list is written
alongside the partial results.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import ExperimentConfig, load_config
from .reports import canonical_json, config_hash, write_csv, write_report
from .suites import SUITES, run_all


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="berglab",
        description="Truncated-operator experiments on the Bergman space "
                    "of the unit ball")
    p.add_argument("suite", choices=[*SUITES, "all"],
                   help="which experiment suite to run")
    p.add_argument("--config", help="path to a JSON configuration file")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--seed", type=int, help="seed override")
    p.add_argument("--jobs", type=int,
                   help="worker processes (>= 1); 2 or more runs the "
                        "geometry suite's inclusion checks in one forked "
                        "child")
    return p


def _emit(out_dir: str, name: str, cfg: ExperimentConfig,
          report: dict) -> None:
    csv_blocks = report.pop("csv", {})
    payload = {
        "suite": name,
        "config": cfg.provenance_json(),
        "config_sha256": config_hash(cfg.provenance_json()),
        "report": report,
    }
    write_report(out_dir, name, payload)
    for csv_name, (header, rows) in csv_blocks.items():
        write_csv(out_dir, csv_name, header, rows)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, out_dir=args.out, seed=args.seed,
                          jobs=args.jobs)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    failures: list[str] = []
    if args.suite == "all":
        result = run_all(cfg)
        for name, rep in result["suites"].items():
            _emit(cfg.out_dir, name, cfg, rep)
        failures = result["failures"]
        summary = {"config_sha256": config_hash(cfg.provenance_json()),
                   "failures": failures, "passed": result["passed"]}
        write_report(cfg.out_dir, "summary", summary)
    else:
        report = SUITES[args.suite](cfg)
        failures = [f"{args.suite}:{f}" for f in report["failures"]]
        _emit(cfg.out_dir, args.suite, cfg, report)

    if failures:
        print(canonical_json({"failures": failures}), file=sys.stderr,
              end="")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
