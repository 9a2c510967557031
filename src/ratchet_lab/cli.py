"""Command-line entry point.

    ratchet-lab <subcommand> [--config FILE] [--key=value ...] --out DIR

Subcommands: evolve, optical, scan, mirror, compare, figs. Any configuration
key can be overridden with --key=value. Exit codes: 0 success, 2 configuration
error (a bad option or key, an unreadable config file, an unusable output
directory, or a subcommand's own check of the config), 3 numerical failure.
Any other error during a run propagates with its traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable

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
    write_stats,
)
from .fileio import write_ndjson
from .model import save_mirror_profile
from .optics import ratchet_mirror


def _build_parser() -> argparse.ArgumentParser:
    # no abbreviations: --config and --out have one spelling each
    parser = argparse.ArgumentParser(prog="ratchet-lab", description="Delta-kicked ratchet simulator",
                                     allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", default=None, help="key=value configuration file")
        p.add_argument("--out", required=True, help="output directory")
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
    write_ndjson(out / "spectra.ndjson", (ladder_record(k, ladders) for k in range(1, cfg.n_kicks + 1)))
    write_stats(out / "stats.csv", ladders, [f"hbar={cfg.hbar!r} beta={cfg.beta!r} n_kicks={cfg.n_kicks}"])


def _cmd_optical(cfg: RunConfig, out: Path) -> None:
    write_panel(out / "orders.csv", out / "ccd.pgm", bounce_image(cfg, cfg.hbar, cfg.n_kicks), cfg,
                [f"hbar={cfg.hbar!r} n_levels={cfg.n_levels}"])


def _cmd_mirror(cfg: RunConfig, out: Path) -> None:
    mirror = ratchet_mirror(cfg.potential(), cfg.effective_planck(), cfg.wavelength,
                            cfg.period, samples_per_period=cfg.beam_points_per_period,
                            n_levels=cfg.n_levels)
    save_mirror_profile(mirror, out / "mirror.txt")


SUBCOMMANDS: dict[str, Callable[[RunConfig, Path], object]] = {
    "evolve": _cmd_evolve,
    "optical": _cmd_optical,
    "scan": run_fig4,
    "mirror": _cmd_mirror,
    "compare": compare_engines,
    "figs": run_figs,
}


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
        cfg = (parse_config_file(args.config, overrides) if args.config
               else parse_config("", overrides))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_manifest(cfg, out)
    except (ConfigError, OSError) as exc:  # OSError: the config file or the output directory
        print(f"ratchet-lab: configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        SUBCOMMANDS[args.command](cfg, out)
    except NumericalFailure as exc:
        print(f"ratchet-lab: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:  # a subcommand's own check, as fig 3's kick count
        print(f"ratchet-lab: configuration error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
