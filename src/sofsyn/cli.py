"""Command-line front end: solve | bench | oracle | validate.

Exit codes: 0 success, 2 bad input (file, flags, dimensions, output path),
3 requested analysis impossible (unstable closed loop), 1 unexpected
numerical failure. A ``bench`` campaign runs its solves on up to --threads
worker processes (see ``campaign.run_campaign``); its rows do not depend on
--threads. A single ``solve`` runs on the calling thread and ignores it.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .analysis import hinf_norm, hinf_norm_grid
from .campaign import (
    CampaignSpec,
    run_campaign,
    write_campaign_json,
    write_rows_csv,
    write_run_result_json,
    write_summary_csv,
)
from .driver import SolverConfig, solve
from .errors import (
    ConfigError,
    DimensionMismatchError,
    InstabilityError,
    NonFiniteEntryError,
    ProblemFileError,
    SofsynError,
)
from .model import close_loop, unflatten_gain
from .objectives import ObjectiveKind, PenaltyMode
from .problem_io import load_problem

_OBJECTIVES = {"hinf": ObjectiveKind.HINF_NORM, "sa": ObjectiveKind.SPECTRAL_ABSCISSA}
_PENALTY_MODES = {"strict": PenaltyMode.STRICT, "guided": PenaltyMode.GUIDED}

def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        objective=_OBJECTIVES[args.objective],
        t_max=args.budget,
        t_s=args.local_iters,
        beta=args.beta,
        penalty_mode=_PENALTY_MODES[args.penalty_mode],
        seed=args.seed,
        sigma0=args.sigma0,
        local_search_enabled=not args.no_local_search,
        charge_local_to_budget=args.charge_local,
        threads=args.threads,
    )


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--objective", choices=sorted(_OBJECTIVES), default="hinf",
                        help="hinf: closed-loop H-infinity norm; sa: spectral abscissa")
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--budget", type=int, default=10000,
                        help="global sample evaluations (t_max)")
    parser.add_argument("--local-iters", type=int, default=10,
                        help="(1+1) refinement evaluations per offspring (t_s)")
    parser.add_argument("--beta", type=float, default=1e-10,
                        help="weight of the gain-magnitude penalty")
    parser.add_argument("--penalty-mode", choices=sorted(_PENALTY_MODES), default="guided",
                        help="scoring of infeasible candidates")
    parser.add_argument("--no-local-search", action="store_true",
                        help="disable the (1+1) refinement phase")
    parser.add_argument("--charge-local", action="store_true",
                        help="charge local-search evaluations against the budget")
    parser.add_argument("--sigma0", type=float, default=0.3, help="initial step size")
    parser.add_argument("--threads", type=int, default=1,
                        help="bench: worker processes for its runs, at most one per CPU "
                             "(rows do not depend on it); solve: ignored")


def _format_matrix(M: np.ndarray) -> str:
    return "\n".join("  [" + "  ".join(f"{v: .10g}" for v in row) + "]" for row in M)


def _check_out_dir(path: str) -> None:
    """Fail before a solve or campaign, not after it, when ``path`` cannot
    be written for want of its directory or because it is one."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"output directory {directory} does not exist")
    if os.path.isdir(path):
        raise ConfigError(f"cannot write output: {path} is a directory")


def _write(write, *args) -> None:
    """``write(*args)``, an ``OSError`` becoming a ``ConfigError`` (exit 2)."""
    try:
        write(*args)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None


def _cmd_solve(args) -> int:
    if args.out:
        _check_out_dir(args.out)
    plant = load_problem(args.problem)
    config = _solver_config(args)
    progress = None
    if args.verbose:
        def progress(rec):
            print(
                f"gen {rec.generation:5d}  best {rec.best_fitness: .8e}  "
                f"sigma {rec.sigma:.3e}  feasible {rec.feasible_fraction:.0%}  "
                f"evals {rec.global_evals}+{rec.local_evals}",
                file=sys.stderr,
            )
    result = solve(plant, config, progress)
    dims = plant.dims
    F = unflatten_gain(result.best_alpha, dims.n_u, dims.n_y)
    print(f"problem: {plant.name} (n_x={dims.n_x} n_u={dims.n_u} n_y={dims.n_y})")
    print(f"objective ({args.objective}): {result.best_objective!r}")
    print(f"feasible: {str(result.feasible).lower()}")
    print("gain F:")
    print(_format_matrix(F))
    print(f"fitness: {result.best_fitness!r}")
    print(f"evals: global={result.global_evals} local={result.local_evals}")
    print(f"wall time: {result.wall_time:.2f} s")
    if args.out:
        _write(write_run_result_json, result, args.out)
        print(f"result written to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    spec = CampaignSpec(
        problems=tuple(args.problem),
        config=_solver_config(args),
        runs=args.runs,
        base_seed=args.seed,
    )
    if args.format == "json":
        written = [args.out if args.out.endswith(".json") else args.out + ".json"]
    else:
        written = [args.out + "_rows.csv", args.out + "_summary.csv"]
    for path in written:
        _check_out_dir(path)
    rows, summaries = run_campaign(spec)
    if args.format == "json":
        _write(write_campaign_json, rows, summaries, written[0])
    else:
        _write(write_rows_csv, rows, written[0])
        _write(write_summary_csv, summaries, written[1])
    for s in summaries:
        print(
            f"{s.problem}: success {s.success_count}/{s.runs}  "
            f"best {s.best!r}  median {s.median!r}  worst {s.worst!r}"
        )
    for path in written:
        print(f"written: {path}")
    return 0


def _parse_gain(text: str) -> np.ndarray:
    try:
        rows = [[float(v) for v in row.split(",")] for row in text.split(";")]
    except ValueError:
        raise ConfigError(f"cannot parse gain {text!r}; expected rows 'a,b;c,d'") from None
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ConfigError(f"gain rows have inconsistent lengths in {text!r}")
    return np.array(rows, dtype=float)


def _cmd_oracle(args) -> int:
    plant = load_problem(args.problem)
    if args.gain is not None:
        F = _parse_gain(args.gain)
    elif args.gain_file is not None:
        try:
            F = np.loadtxt(args.gain_file, dtype=float, ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read gain file {args.gain_file}: {exc}") from exc
    else:
        F = np.zeros((plant.dims.n_u, plant.dims.n_y))
    cl = close_loop(plant, F)
    level_set = hinf_norm(cl)
    grid = hinf_norm_grid(cl)
    print(f"level-set norm : {level_set.value!r}")
    print(f"grid oracle    : {grid!r}")
    print(f"difference     : {abs(level_set.value - grid):.6e}")
    print(f"peak frequency : {level_set.peak_frequency!r} rad/s")
    return 0


def _cmd_validate(args) -> int:
    plant = load_problem(args.problem)
    dims = plant.dims
    print(
        f"name={plant.name} n_x={dims.n_x} n_w={dims.n_w} "
        f"n_u={dims.n_u} n_y={dims.n_y} n_z={dims.n_z}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sofsyn",
        description="Static output feedback synthesis by memetic CMA-ES.",
    )
    parser.add_argument("--version", action="version", version=f"sofsyn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one synthesis and report the gain")
    p_solve.add_argument("--problem", required=True, help="plant file")
    _add_solver_flags(p_solve)
    p_solve.add_argument("--out", help="write the full result as JSON here")
    p_solve.add_argument("--verbose", action="store_true",
                         help="log per-generation progress to stderr")
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="multi-seed campaign over one or more plants")
    p_bench.add_argument("--problem", action="append", required=True,
                         help="plant file (repeatable)")
    p_bench.add_argument("--runs", type=int, default=10, help="independent runs per problem")
    _add_solver_flags(p_bench)
    p_bench.add_argument("--out", required=True,
                         help="output prefix (csv) or file (json)")
    p_bench.add_argument("--format", choices=("csv", "json"), default="csv")
    p_bench.set_defaults(func=_cmd_bench)

    p_oracle = sub.add_parser(
        "oracle", help="compare level-set and grid H-infinity norms for a fixed gain"
    )
    p_oracle.add_argument("--problem", required=True, help="plant file")
    p_oracle.add_argument(
        "--gain",
        help="inline gain matrix, rows 'a,b;c,d' (write --gain=-1,-2 for negative entries)",
    )
    p_oracle.add_argument("--gain-file", help="whitespace-separated gain matrix file")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_validate = sub.add_parser("validate", help="parse a plant file and print dimensions")
    p_validate.add_argument("--problem", required=True, help="plant file")
    p_validate.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProblemFileError, DimensionMismatchError, NonFiniteEntryError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InstabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SofsynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
