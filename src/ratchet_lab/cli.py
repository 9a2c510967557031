"""Command-line entry point.

    ratchet-lab <subcommand> [--config FILE] [--key=value ...] --out DIR

Subcommands: evolve, optical, scan, mirror, compare, figs. Any configuration
key can be overridden with --key=value. Exit codes: 0 success, 2 configuration
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, parse_config, parse_config_file
from .evolution import NumericalFailure, ladder_record
from .experiments import (
    bounce_image,
    compare_engines,
    quantum_kick_ladders,
    run_fig4,
    run_figs,
    write_manifest,
    write_panel,
)
from .fileio import write_csv, write_ndjson
from .model import save_mirror_profile
from .observables import stats_from_ladder
from .optics import image_ladders, ratchet_mirror

SUBCOMMANDS = ("evolve", "optical", "scan", "mirror", "compare", "figs")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ratchet-lab",
                                     description="Delta-kicked ratchet simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value configuration file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--fixed-kick-phase", action="store_true",
                       help="hold K/hbar_eff fixed across scans instead of K")
    return parser


def _collect_overrides(extras: list[str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for token in extras:
        if not token.startswith("--") or "=" not in token:
            raise ConfigError(f"unrecognized argument {token!r} (expected --key=value)")
        key, value = token[2:].split("=", 1)
        overrides[key] = value
    return overrides


def _cmd_evolve(cfg: RunConfig, out: Path) -> None:
    ladders = quantum_kick_ladders(cfg, cfg.hbar, cfg.n_kicks)
    write_ndjson(out / "spectra.ndjson",
                 (ladder_record(k, lad) for k, lad in enumerate(ladders, start=1)))
    stats = [stats_from_ladder(k, lad) for k, lad in enumerate(ladders, start=1)]
    write_csv(out / "stats.csv", ["kick", "mean_p", "mean_p2", "participation"],
              [(s.kick, s.mean_p, s.mean_p2, s.participation) for s in stats],
              comments=[f"hbar={cfg.hbar!r} beta={cfg.beta!r} n_kicks={cfg.n_kicks}"])


def _cmd_optical(cfg: RunConfig, out: Path) -> None:
    image = bounce_image(cfg, cfg.hbar, cfg.n_kicks)
    write_panel(out / "orders.csv", out / "ccd.pgm", image, image_ladders(image), cfg,
                [f"hbar={cfg.hbar!r} n_levels={cfg.n_levels}"])


def _cmd_mirror(cfg: RunConfig, out: Path) -> None:
    mirror = ratchet_mirror(cfg.potential(), cfg.effective_planck(), cfg.wavelength,
                            cfg.period, samples_per_period=cfg.beam_points_per_period,
                            n_levels=cfg.n_levels)
    save_mirror_profile(mirror, out / "mirror.txt")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 2 if code != 0 else 0
    try:
        overrides = _collect_overrides(extras)
        if args.fixed_kick_phase:
            overrides.setdefault("scan_mode", "fixed-kick-phase")
        cfg = (parse_config_file(args.config, overrides) if args.config
               else parse_config("", overrides))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_manifest(cfg, out)
        if args.command == "evolve":
            _cmd_evolve(cfg, out)
        elif args.command == "optical":
            _cmd_optical(cfg, out)
        elif args.command == "scan":
            run_fig4(cfg, out)
        elif args.command == "mirror":
            _cmd_mirror(cfg, out)
        elif args.command == "compare":
            compare_engines(cfg, out)
        elif args.command == "figs":
            run_figs(cfg, out)
    except ConfigError as exc:
        print(f"ratchet-lab: configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"ratchet-lab: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"ratchet-lab: configuration error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
