"""Command-line front end.

    umwsim run      --config cfg.json [--seed N] [--horizon T] [--policy P]
                    [--out out.csv] [--diagnostics]
    umwsim sweep    --config cfg.json --load 0.1,0.3,0.5 --out out.csv
    umwsim compare  --config cfg.json --policies umw,bp --out out.csv
    umwsim capacity --config cfg.json --out cert.json

run/sweep/compare write a CSV table plus a JSON summary next to it
(suffix .summary.json). In diagnostics mode the exit code is nonzero if
any per-slot invariant check failed. A package error, or a file that
cannot be read or written, exits with its message and status 1.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from itertools import chain, islice
from pathlib import Path

from .capacity import max_scaling, verify_certificate
from .engine import (
    compare,
    load_config,
    run,
    sweep,
    sweep_csv_rows,
    write_csv_rows,
)
from .errors import UmwsimError
from .policy import POLICY_NAMES


def _summary_path(out: str) -> Path:
    return Path(str(out) + ".summary.json")


def _write_summary(out: str, doc: dict) -> None:
    _summary_path(out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _loads(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {text!r}") from None


def _config_overrides(args) -> dict:
    overrides: dict = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "horizon", None) is not None:
        overrides["horizon"] = args.horizon
    if getattr(args, "policy", None) is not None:
        overrides["policy"] = args.policy
    return overrides


def cmd_run(args) -> int:
    cfg = load_config(args.config, **_config_overrides(args))
    if args.diagnostics:
        metrics = dataclasses.replace(cfg.metrics, diagnostics=True)
        cfg = dataclasses.replace(cfg, metrics=metrics)
    report = run(cfg)
    if args.out:
        report.write_csv(args.out)
        _write_summary(args.out, report.summary())
    else:
        print(json.dumps(report.summary(), indent=2, sort_keys=True))
    bad = sum(report.violations.values())
    if args.diagnostics and bad:
        print(f"invariant violations: {report.violations}", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, **_config_overrides(args))
    rows = sweep(cfg, args.load)
    if args.out:
        write_csv_rows(args.out, sweep_csv_rows(rows))
        _write_summary(args.out, {"config": cfg.echo(), "rows": rows})
    else:
        print(json.dumps(rows, indent=2))
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config, **_config_overrides(args))
    policies = args.policies.split(",")
    reports = compare(cfg, policies)
    if args.out:
        # One shared header: every table after the first drops its own.
        first, *rest = (reports[policy].csv_rows() for policy in policies)
        write_csv_rows(args.out, chain(first, *(islice(rows, 1, None) for rows in rest)))
        _write_summary(args.out, {p: r.summary() for p, r in reports.items()})
    else:
        print(json.dumps({p: r.summary() for p, r in reports.items()}, indent=2, sort_keys=True))
    return 0


def cmd_capacity(args) -> int:
    cfg = load_config(args.config)
    g, aset, classes = dataclasses.replace(cfg, load_factor=1.0).resolve()
    cert = max_scaling(g, aset, classes)
    ok = verify_certificate(cert, g, aset, classes)
    doc = cert.to_json_dict()
    doc["verified"] = bool(ok)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="umwsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate one configuration")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--policy", choices=POLICY_NAMES)
    p.add_argument("--out")
    p.add_argument("--diagnostics", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="one run per load factor")
    p.add_argument("--config", required=True)
    p.add_argument("--load", required=True, type=_loads, help="comma-separated ascending load factors")
    p.add_argument("--seed", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="run several policies on shared arrivals")
    p.add_argument("--config", required=True)
    p.add_argument("--policies", required=True, help="comma-separated policy names")
    p.add_argument("--seed", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("capacity", help="compute and verify a capacity certificate")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_capacity)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UmwsimError, OSError) as exc:
        raise SystemExit(f"umwsim {args.command}: error: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
