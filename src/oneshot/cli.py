"""Command-line harness.

Subcommands:

    generate   cavity manifest -> problem directory (matrix container files)
    run        experiment spec -> trace CSVs + summary + manifest
    bounds     problem directory -> TauBoundReport CSV
    certify    problem directory + (tau, alpha, k) -> certificate CSV

Exit codes: 0 success, 1 usage error, 2 validation error (any
ValueError: a bad argument, spec, manifest or matrix file), 3 numerical
failure.  Progress lines are best effort: once a reader of stdout has
gone (``oneshot run ... | head -n 1``), a command stops printing them and
still finishes, writes its files and exits 0.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .bounds import (DEFAULT_PARAMETERS, CaseParameters, bound_report_for,
                     report_csv_header, report_csv_row)
from .cavity import (CavityConfig, export_cavity, generate, load_problem,
                     parse_manifest)
from .errors import (EigensolverError, OneShotError, ProblemAssumptionError,
                     SingularSystemError, SizeGuardError)
from .experiments import load_spec, print_progress, run_experiment
from .spectral import (SIZE_GUARD, certificate_csv_header,
                       certificate_csv_row, certify, spectrum, spectrum_csv)

USAGE_ERROR, VALIDATION_ERROR, NUMERICAL_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _build_parser() -> _Parser:
    parser = _Parser(prog="oneshot",
                     description="Multi-step one-shot inversion toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a cavity problem directory")
    gen.add_argument("--spec", help="cavity manifest (defaults to the built-in configuration)")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, help="override the manifest rng seed")
    gen.add_argument("--quiet", action="store_true")
    gen.set_defaults(handler=_cmd_generate)

    run = sub.add_parser("run", help="run an experiment spec")
    run.add_argument("--spec", required=True, help="experiment document")
    run.add_argument("--out", help="override the spec output_dir")
    run.add_argument("--seed", type=int, help="override the cavity rng seed")
    run.add_argument("--quiet", action="store_true")
    run.set_defaults(handler=_cmd_run)

    bounds = sub.add_parser("bounds", help="sufficient descent-step bounds for a problem")
    bounds.add_argument("--problem", required=True, help="problem directory (from generate)")
    bounds.add_argument("--alpha", type=float, default=0.0)
    bounds.add_argument("--k", type=int, default=1)
    bounds.add_argument("--theta0", type=float, default=DEFAULT_PARAMETERS.theta0)
    bounds.add_argument("--delta0", type=float, default=DEFAULT_PARAMETERS.delta0)
    bounds.add_argument("--out", help="write CSV here instead of stdout")
    bounds.set_defaults(handler=_cmd_bounds)

    cert = sub.add_parser("certify", help="spectral certificate for (tau, alpha, k)")
    cert.add_argument("--problem", required=True)
    cert.add_argument("--tau", type=float, required=True)
    cert.add_argument("--alpha", type=float, default=0.0)
    cert.add_argument("--k", type=int, default=1)
    cert.add_argument("--size-guard", type=int, default=SIZE_GUARD,
                      help="largest block dimension 2 n_u + n_sigma for which "
                           f"--spectrum computes the dense spectrum (default {SIZE_GUARD})")
    cert.add_argument("--out", help="write CSV here instead of stdout")
    cert.add_argument("--spectrum", help="also dump the full spectrum as re,im CSV")
    cert.set_defaults(handler=_cmd_certify)
    return parser


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_generate(args) -> int:
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            config = parse_manifest(fh.read())
    else:
        config = CavityConfig()
    if args.seed is not None:
        config = replace(config, rng_seed=args.seed)
    cavity = generate(config)
    export_cavity(cavity, args.out)
    if not args.quiet:
        ms = cavity.mesh_summary
        print_progress(f"generated cavity: n_u={ms.n_u} n_sigma={ms.n_sigma} n_g={ms.n_g} "
                       f"(single-source n_u={ms.n_u_single}) -> {args.out}")
    return 0


def _cmd_run(args) -> int:
    spec = load_spec(args.spec)
    if args.seed is not None:
        spec = replace(spec, cavity=replace(spec.cavity, rng_seed=args.seed))
    written = run_experiment(spec, output_dir=args.out, quiet=args.quiet)
    if not args.quiet:
        print_progress(f"wrote {len(written)} files to {args.out or spec.output_dir}")
    return 0


def _cmd_bounds(args) -> int:
    problem, _, _ = load_problem(args.problem)
    report = bound_report_for(problem, alpha=args.alpha, k=args.k,
                              params=CaseParameters(args.theta0, args.delta0))
    _emit(report_csv_header() + "\n" + report_csv_row(report) + "\n", args.out)
    return 0


def _cmd_certify(args) -> int:
    problem, _, _ = load_problem(args.problem)
    if args.spectrum:
        eigenvalues = spectrum(problem, args.tau, args.alpha, args.k,
                               size_guard=args.size_guard)
    certificate = certify(problem, args.tau, args.alpha, args.k)
    _emit(certificate_csv_header() + "\n" + certificate_csv_row(certificate) + "\n",
          args.out)
    if args.spectrum:
        with open(args.spectrum, "w", encoding="utf-8") as fh:
            fh.write(spectrum_csv(eigenvalues))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"oneshot: file not found: {exc.filename or exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"oneshot: validation error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR
    except (ProblemAssumptionError, SingularSystemError, SizeGuardError,
            EigensolverError) as exc:
        print(f"oneshot: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except OneShotError as exc:
        print(f"oneshot: error: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
