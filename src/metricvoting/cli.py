"""Command-line entry point.

Subcommands: validate, cost, election, estimate, scan, classify,
adversarial, oracle.  Every randomized run either receives an explicit
--seed or echoes the one it generated, and each run prints a ``#`` header
with everything needed to reproduce it.  Output is CSV (stdout or --out);
plots are left to external tools.

Exit codes: 0 success, 2 input error, 3 invariant violation detected at
runtime (failed validation, oracle mismatch).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys
from fractions import Fraction

from . import adversarial as adv
from . import condition, montecarlo, spaces
from .elections import one_median, oracle_sweep, run_election, social_cost, rankings as election_rankings
from .scoring import parse_family

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INVARIANT = 3


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def nonnegative_int(text: str) -> int:
    """argparse type for indices and caps that must be at least 0."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def word64(text: str) -> int:
    """argparse type for seeds and trial indices, the two 64-bit words that
    key a trial's stream: an integer in [0, 2^64)."""
    value = nonnegative_int(text)
    if value >= 1 << 64:
        raise argparse.ArgumentTypeError(f"must be below 2^64, got {text!r}")
    return value


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int.from_bytes(os.urandom(4), "big")


@contextlib.contextmanager
def _output(path):
    """The file at ``path``, closed on exit, or stdout without a path."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", newline="") as fh:
        yield fh


def _header(out, **fields):
    print("# " + " ".join(f"{k}={v}" for k, v in fields.items()), file=out)


def rational(text: str) -> Fraction:
    """``Fraction(text)`` with a zero denominator rejected as bad input."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _load_source(args, seed):
    """Resolve the --space/--random space source (exactly one)."""
    has_file = getattr(args, "space", None) is not None
    has_random = getattr(args, "random", None) is not None
    if has_file == has_random:
        raise ValueError("exactly one of --space/--random is required")
    if has_file:
        return spaces.load_space(args.space, validate_axioms=not args.no_validate)
    spec = args.random.split(",")
    if len(spec) != 2:
        raise ValueError("--random wants P,MODE (e.g. 20,uniform-box-L2)")
    return spaces.random_space(seed, int(spec[0]), spec[1])


def _add_source_args(p):
    p.add_argument("--space", help="metric space file")
    p.add_argument("--random", help="random space spec P,MODE")
    p.add_argument("--no-validate", action="store_true", help="skip axiom checks on load")


def cmd_validate(args) -> int:
    space = spaces.load_space(args.space, validate_axioms=False)
    report = spaces.validate(space, triple_cap=args.triple_cap)
    print(f"# space={args.space} points={space.npoints} exhaustive={report.exhaustive}")
    print(f"ok={report.ok} violations={len(report.violations)}")
    for v in report.violations[:32]:
        magnitude = spaces._format_number(v.magnitude) if space.exact else f"{v.magnitude:g}"
        print(f"violation kind={v.kind} witness={v.witness} magnitude={magnitude}")
    return EXIT_OK if report.ok else EXIT_INVARIANT


def cmd_cost(args) -> int:
    space = spaces.load_space(args.space, validate_axioms=not args.no_validate)
    if args.location is not None and not 0 <= args.location < space.npoints:
        raise ValueError(f"location {args.location} out of range for P={space.npoints}")
    targets = [args.location] if args.location is not None else range(space.npoints)
    with _output(args.out) as out:
        _header(out, space=args.space, points=space.npoints)
        writer = csv.writer(out)
        writer.writerow(["location", "social_cost"])
        for i in targets:
            writer.writerow([i, float(social_cost(space, i))])
        median = one_median(space)
        print(f"one_median={median} cost={float(social_cost(space, median))}", file=out)
    return EXIT_OK


def cmd_election(args) -> int:
    seed = _resolve_seed(args)
    space = _load_source(args, seed)
    family = parse_family(args.family)
    if args.slate is not None:
        slate = [int(tok) for tok in args.slate.split(",")]
    else:
        slate = montecarlo.sample_candidates(space, args.n, seed, args.trial).tolist()
    vector = family.score_vector(len(slate))
    outcome = run_election(space, slate, vector)
    with _output(args.out) as out:
        _header(out, family=family.spec, n=len(slate), seed=seed, trial=args.trial,
                space=space.label or args.space or "")
        writer = csv.writer(out)
        writer.writerow(["candidate", "location", "score", "cost"])
        for i, loc in enumerate(slate):
            writer.writerow([i, loc, float(outcome.scores[i]), float(social_cost(space, loc))])
        print(
            f"winner={outcome.winner} optimum={outcome.optimum} "
            f"winner_cost={float(outcome.winner_cost)} optimum_cost={float(outcome.optimum_cost)} "
            f"distortion={'infinite' if outcome.infinite else float(outcome.distortion)}",
            file=out,
        )
        if args.rankings:
            table = election_rankings(space, slate)
            writer.writerow(["location"] + [f"rank{r}" for r in range(len(slate))])
            for omega in range(space.npoints):
                writer.writerow([omega] + table[omega].tolist())
    return EXIT_OK


def cmd_estimate(args) -> int:
    if args.probe_z is not None:
        probe_z = montecarlo.checked_probe_z(args.probe_z)  # before anything is written
    elif args.probe_out is not None:
        raise ValueError("--probe-out needs --probe-z")
    seed = _resolve_seed(args)
    space = _load_source(args, seed)
    if args.probe_z is not None:
        montecarlo.probe_tilde_y(space, probe_z)  # the masses must reach it before any trial
    family = parse_family(args.family)
    est = montecarlo.estimate_distortion(
        space, family, args.n, args.trials, seed, jobs=args.jobs
    )
    with _output(args.out) as out:
        _header(out, family=family.spec, n=args.n, trials=args.trials, seed=seed,
                jobs=args.jobs, scenario=space.label or args.space)
        writer = csv.writer(out)
        writer.writerow(
            ["scenario", "n", "trials", "mean", "stderr", "ci95_low", "ci95_high", "max", "infinite_count"]
        )
        writer.writerow(
            [space.label or args.space, args.n, est.trials, est.mean, est.stderr,
             est.ci95_low, est.ci95_high, est.max_observed, est.infinite_flag_count]
        )
    if args.histogram_out:
        with open(args.histogram_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r", "pr_winner_distance_ge_r"])
            writer.writerows(est.winner_distance_histogram)
    if args.probe_z is not None:
        probe = montecarlo.probe_estimate(space, est, probe_z)
        with _output(args.probe_out) as fh:
            _header(fh, z=probe.z, tilde_y=probe.tilde_y, r_tilde=probe.r_tilde,
                    median=probe.median_index, trials=probe.trials)
            writer = csv.writer(fh)
            writer.writerow(["r", "outside_mass", "event_count", "winner_outside_count", "violation_count"])
            for row in zip(probe.radii, probe.outside_mass_at, probe.event_counts,
                           probe.winner_outside_counts, probe.violation_counts):
                writer.writerow(row)
    return EXIT_OK


def cmd_scan(args) -> int:
    family = parse_family(args.family)
    y_grid = condition.DEFAULT_Y_GRID
    if args.y_grid is not None:  # "" is an empty grid, which scan refuses
        y_grid = [rational(tok) for tok in args.y_grid.split(",")] if args.y_grid else []
    report = condition.scan(family, y_grid, args.n_min, args.n_max)
    with _output(args.out) as out:
        _header(out, family=family.spec, n_min=args.n_min, n_max=args.n_max,
                y_grid=",".join(spaces._format_number(y) for y in y_grid))
        writer = csv.writer(out)
        writer.writerow(["family", "y_num", "y_den", "n", "lhs", "rhs", "holds"])
        for cell in report.cells:
            writer.writerow(
                [family.spec, cell.y.numerator, cell.y.denominator, cell.n,
                 spaces._format_number(cell.lhs), spaces._format_number(cell.rhs), int(cell.holds)]
            )
        print(str(report.verdict), file=out)
    return EXIT_OK


def cmd_classify(args) -> int:
    family = parse_family(args.family)
    print(f"# family={family.spec}")
    print(condition.classify_by_limit(family))
    return EXIT_OK


def cmd_adversarial(args) -> int:
    seed = _resolve_seed(args)
    family = parse_family(args.family)
    report = adv.run_experiment(
        args.rho, family, args.trials, seed,
        n_override=args.n, big_n_override=args.big_n, m_atoms=args.m_atoms,
        jobs=args.jobs,
    )
    p = report.params
    with _output(args.out) as out:
        _header(out, rho=args.rho, family=family.spec, trials=args.trials, seed=seed,
                n=p.n_candidates, big_n=p.near_locations, m_atoms=p.far_atoms,
                beta=p.far_mass, cluster_distance=p.cluster_distance,
                premise_fails=report.condition_holds_at_cap)
        writer = csv.writer(out)
        writer.writerow(["trial", "E", "winner_cluster", "distortion"])
        for r in report.records:
            writer.writerow([r.trial, int(r.event.occurred), "F" if r.winner_from_far else "A", r.distortion])
        print(
            f"pr_event={report.pr_event:.4f} pr_far_winner={report.pr_far_winner:.4f} "
            f"pr_far_winner_given_event={report.pr_far_winner_given_event:.4f} "
            f"mean_distortion={report.mean_distortion:.6f} "
            f"stderr={report.stderr_distortion:.6f} "
            f"mean_distortion_given_far={report.mean_distortion_given_far:.6f}",
            file=out,
        )
    return EXIT_OK


def cmd_oracle(args) -> int:
    seed = _resolve_seed(args)
    result = oracle_sweep(args.trials, seed)
    print(f"# trials={args.trials} seed={seed}")
    print(f"{result.matches}/{result.trials} oracle matches")
    for trial, desc in result.mismatches[:16]:
        print(f"mismatch trial={trial}: {desc}", file=sys.stderr)
    return EXIT_OK if result.ok else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metricvoting",
        description="Positional voting over finite metric spaces: distortion "
        "estimation, exact condition scans, adversarial lower-bound instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check metric axioms of a space file")
    p.add_argument("--space", required=True)
    p.add_argument("--triple-cap", type=nonnegative_int, default=spaces.DEFAULT_TRIPLE_CAP)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cost", help="social costs and the 1-median")
    p.add_argument("--space", required=True)
    p.add_argument("--location", type=int)
    p.add_argument("--no-validate", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("election", help="run a single election")
    _add_source_args(p)
    p.add_argument("--family", required=True)
    slate = p.add_mutually_exclusive_group(required=True)
    slate.add_argument("--slate", help="comma-separated candidate locations")
    slate.add_argument("--n", type=int, help="sample this many candidates instead")
    p.add_argument("--trial", type=word64, default=0, help="trial index for sampling")
    p.add_argument("--seed", type=word64)
    p.add_argument("--rankings", action="store_true", help="dump per-location rankings")
    p.add_argument("--out")
    p.set_defaults(func=cmd_election)

    p = sub.add_parser("estimate", help="Monte Carlo expected distortion")
    _add_source_args(p)
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=word64)
    p.add_argument("--jobs", type=positive_int, default=os.environ.get("METRICVOTING_JOBS", "1"))
    p.add_argument("--probe-z", type=rational, help="also run the sufficiency probe at this z")
    p.add_argument("--probe-out")
    p.add_argument("--histogram-out")
    p.add_argument("--out")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("scan", help="exact condition scan over a (y, n) grid")
    p.add_argument("--family", required=True)
    p.add_argument("--y-grid", help="comma-separated rationals, default dense-near-1 grid")
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=condition.DEFAULT_N_MAX)
    p.add_argument("--out")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("classify", help="classify a family by its limit rule")
    p.add_argument("--family", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("adversarial", help="two-cluster necessity experiment")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=word64)
    p.add_argument("--n", type=int, help="candidate count override")
    p.add_argument("--big-n", type=int, help="near-cluster location count override")
    p.add_argument("--m-atoms", type=int, default=512)
    p.add_argument("--jobs", type=positive_int, default=os.environ.get("METRICVOTING_JOBS", "1"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_adversarial)

    p = sub.add_parser("oracle", help="cross-check fast election against brute force")
    p.add_argument("--trials", type=positive_int, default=1000)
    p.add_argument("--seed", type=word64)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # malformed files, rejected (axiom-violating) spaces, unallocatable sizes
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
