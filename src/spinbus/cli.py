"""Command-line interface.

Subcommands:
  couplings  closed-form coupling map over (r_loop, I_p)
  spectrum   steady-state power spectra over one scan axis
  scan       run whatever products the config requests
  check      built-in invariant/oracle suite

Exit codes: 0 success, 1 computation/validation failure (with a
machine-readable `error: category=...` line on stderr), 2 usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources

# Set before NumPy loads, so that OpenBLAS starts no server threads here or
# in a forked worker; _blas.pin lowers the count but leaves started threads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .config import ScanConfig, load_config
from .errors import SpinbusError
from .selfcheck import run_checks
from .sweeps import emit_csv, emit_plotdata, run_couplings_scan, run_spectrum_scan

PRESETS = ("fig3", "fig4a", "fig4b", "fig6a", "fig6b", "fig7")


def preset_path(name: str) -> str:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESETS}")
    return str(resources.files("spinbus").joinpath(f"presets/{name}.cfg"))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH",
                   help="config file (or use --preset)")
    p.add_argument("--preset", choices=PRESETS,
                   help="bundled figure-reproduction config")
    p.add_argument("--out", metavar="PATH", help="output data file")
    p.add_argument("--override", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="override a config key or collapse an axis "
                        "(repeatable), e.g. tau=20us or loop.I_p=600nA")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for scan points (default: 1)")
    p.add_argument("--format", choices=("csv", "plotdata"), default="csv")
    p.add_argument("--echo", action="store_true",
                   help="print the fully resolved config before running")


def _load(args) -> ScanConfig:
    if args.config and args.preset:
        raise UsageError("--config and --preset are mutually exclusive")
    if not args.config and not args.preset:
        raise UsageError("one of --config or --preset is required")
    path = args.config or preset_path(args.preset)
    cfg = load_config(path, args.override)
    if args.echo:
        print(cfg.describe())
    return cfg


class UsageError(Exception):
    pass


def _emit(table, path: str, fmt: str) -> None:
    (emit_csv if fmt == "csv" else emit_plotdata)(table, path)
    print(f"wrote {path}")


def _beside(path: str, tag: str) -> str:
    """Path of a companion table: the tag joined to the stem of `path`."""
    stem, ext = os.path.splitext(path)
    return f"{stem}_{tag}{ext}"


def _run(cfg: ScanConfig, args, couplings: bool, spectra: bool) -> int:
    """Write the requested tables.

    Spectra go to --out (default spectrum.csv or .dat); the peaks table and,
    when spectra are written too, the coupling map go beside that path as
    <stem>_peaks and <stem>_couplings. A coupling map alone goes to --out
    (default couplings.csv or .dat).
    """
    ext = ".csv" if args.format == "csv" else ".dat"
    spectrum_path = args.out or "spectrum" + ext
    if couplings:
        path = (_beside(spectrum_path, "couplings") if spectra
                else args.out or "couplings" + ext)
        _emit(run_couplings_scan(cfg), path, args.format)
    if spectra:
        result = run_spectrum_scan(cfg, threads=args.threads)
        _emit(result.spectra, spectrum_path, args.format)
        if result.peaks is not None:
            _emit(result.peaks, _beside(spectrum_path, "peaks"), args.format)
            for row in result.peaks.rows:
                print(f"  {result.peaks.columns[0][0]}={row[0]:g}: "
                      f"{row[1]} peak(s), resolved={row[2]}, dip={row[3]:.3f}")
    return 0


def cmd_couplings(args) -> int:
    return _run(_load(args), args, couplings=True, spectra=False)


def cmd_spectrum(args) -> int:
    return _run(_load(args), args, couplings=False, spectra=True)


def cmd_scan(args) -> int:
    cfg = _load(args)
    couplings = "couplings" in cfg.products
    spectra = "spectrum" in cfg.products or "peaks" in cfg.products
    if not (couplings or spectra):
        raise UsageError(f"config requests no runnable products: {cfg.products}")
    return _run(cfg, args, couplings, spectra)


def cmd_check(_args) -> int:
    return 0 if run_checks() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinbus",
        description="Coupling calculators and driven-cavity spectra for a "
                    "resonator/persistent-current-loop/single-spin stack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("couplings", help="closed-form coupling map")
    _add_common(p)
    p.set_defaults(fn=cmd_couplings)

    p = sub.add_parser("spectrum", help="steady-state spectra over one axis")
    _add_common(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("scan", help="run the products the config requests")
    _add_common(p)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("check", help="run the built-in oracle suite")
    p.set_defaults(fn=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SpinbusError as exc:
        print(f"error: category={type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
