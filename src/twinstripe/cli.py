"""Command line front end.

Subcommands map one-to-one onto the library: point evaluations
(``energy``, ``optimal-stripes``, ``branched``), the descent driver
(``relax``), the phase-diagram table (``sweep``), and the verification
suites (``verify-chessboard``, ``certify``).  Results are written as
JSON, or CSV for the sweep table, to stdout or to ``--output``.

Exit status: 0 on success, 1 when an input violates a model invariant
(the message names the offending field), 2 when an iterative routine
reports non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .chessboard import verify_suite
from .energy import total_energy
from .localization import DEFAULT_ETA, DEFAULT_KAPPA, certificate_check
from .model_core import (
    Configuration,
    InvariantError,
    ModelParams,
    NonConvergenceError,
    _json_dumps,
)
from .one_dim import optimal_even_m
from .optimize import (
    RelaxOptions,
    SweepGrid,
    branched_candidate,
    _descend,
    phase_sweep,
)

__all__ = ["build_parser", "main"]


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as invariant errors.

    Keeps exit status 2 reserved for numerical non-convergence.
    """

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise InvariantError(message)


def _write_text(text: str, path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _emit_json(payload: dict, path: str | None) -> None:
    _write_text(_json_dumps(payload), path)


def _load_configuration(path: str) -> Configuration:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvariantError(f"config: cannot read {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvariantError(f"config: {path!r} is not valid JSON: {exc}") from exc
    return Configuration.from_json(data)


def _params_from_args(args: argparse.Namespace) -> ModelParams:
    return ModelParams(args.beta, args.epsilon, args.length, args.height)


def _float_list(text: str, field: str) -> tuple[float, ...]:
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise InvariantError(f"{field}: expected a comma separated list of numbers")
    try:
        return tuple(float(tok) for tok in tokens)
    except ValueError as exc:
        raise InvariantError(f"{field}: {exc}") from exc


# -- subcommand handlers ----------------------------------------------------------


def _cmd_energy(args: argparse.Namespace) -> int:
    config = _load_configuration(args.config)
    breakdown = total_energy(config)
    _emit_json(breakdown.to_json(), args.output)
    return 0


def _cmd_optimal_stripes(args: argparse.Namespace) -> int:
    result = optimal_even_m(_params_from_args(args))
    if result.m_continuous >= 2.0**53:  # a float no longer fixes its even neighbours
        raise InvariantError("--beta, --epsilon, --length, --height: interface count "
                             f"{result.m_continuous!r} is past 2^53, where m_star is not exact")
    payload = {
        "m_star": list(result.m_star),
        "e_star": result.energy,
        "m_continuous": result.m_continuous,
    }
    _emit_json(payload, args.output)
    return 0


def _cmd_relax(args: argparse.Namespace) -> int:
    config = _load_configuration(args.config)
    opts = RelaxOptions(
        max_iters=args.max_iters,
        tol_energy=args.tol,
        topology_moves=args.topology,
    )
    final, run = _descend(config, opts, None)
    breakdown = total_energy(final)
    payload = {
        "energy": breakdown.to_json(),
        "initial_energy": run.initial,
        "accepted_moves": run.accepted,
        "configuration": final.to_json(),
    }
    _emit_json(payload, args.output)
    return 0


def _cmd_branched(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    config = branched_candidate(params, args.levels, m0=args.m0)
    breakdown = total_energy(config)
    payload = {
        "levels": args.levels,
        "m0": config.profiles[-1].interface_count(),
        "m_fine": config.profiles[0].interface_count(),
        "stations": len(config.stations),
        "energy": breakdown.to_json(),
    }
    if args.state_out is not None:
        _write_text(config.dumps(), args.state_out)
    _emit_json(payload, args.output)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    grid = SweepGrid(
        beta_values=_float_list(args.betas, "betas"),
        epsilon_values=_float_list(args.epsilons, "epsilons"),
        compare=tuple(tok.strip() for tok in args.compare.split(",") if tok.strip()),
    )
    template = ModelParams(
        grid.beta_values[0], grid.epsilon_values[0], args.length, args.height
    )
    try:
        opts = RelaxOptions(max_iters=args.relax_iters, tol_energy=args.relax_tol)
    except InvariantError as exc:
        raise InvariantError(f"--relax-iters, --relax-tol: {exc}") from None
    result = phase_sweep(grid, template, levels_max=args.levels_max, relax_opts=opts)
    if args.format == "csv":
        _write_text(result.to_csv(), args.output)
    else:
        _emit_json(result.to_json(), args.output)
    return 0


def _cmd_verify_chessboard(args: argparse.Namespace) -> int:
    report = verify_suite(
        trials=args.trials,
        seed=args.seed,
        alphas=_float_list(args.alphas, "alphas"),
    )
    _emit_json(report, args.output)
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    config = _load_configuration(args.config)
    report = certificate_check(config, eta=args.eta, kappa=args.kappa)
    _emit_json(report.to_json(), args.output)
    return 0


# -- parser wiring ----------------------------------------------------------------


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--output", default=None, metavar="FILE", help="write result here instead of stdout"
    )


def _add_params(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--beta", type=float, required=True, help="boundary-term weight")
    sub.add_argument("--epsilon", type=float, required=True, help="interface-term weight")
    sub.add_argument("--length", type=float, default=1.0, help="rectangle length L")
    sub.add_argument("--height", type=float, default=1.0, help="rectangle height h")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twinstripe",
        description="Striped and branched twin microstructures: energies, descent, and verification.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("energy", help="evaluate the energy of a stored configuration")
    p.add_argument("--config", required=True, metavar="FILE", help="configuration JSON")
    _add_output(p)
    p.set_defaults(func=_cmd_energy)

    p = subs.add_parser("optimal-stripes", help="optimal even interface count and energy")
    _add_params(p)
    _add_output(p)
    p.set_defaults(func=_cmd_optimal_stripes)

    p = subs.add_parser("relax", help="descend from a stored configuration")
    p.add_argument("--config", required=True, metavar="FILE", help="starting configuration JSON")
    p.add_argument("--max-iters", type=int, default=200, help="sweep budget")
    p.add_argument("--tol", type=float, default=1e-10, help="stop when a sweep improves less than this")
    p.add_argument(
        "--topology",
        action="store_true",
        help="allow moves that change the interface count",
    )
    _add_output(p)
    p.set_defaults(func=_cmd_relax)

    p = subs.add_parser("branched", help="period-doubling trial state and its energy")
    _add_params(p)
    p.add_argument("--levels", type=int, required=True, help="number of doubling bands")
    p.add_argument("--m0", type=int, default=None, help="interface count at x = L (default: optimized)")
    p.add_argument(
        "--state-out", default=None, metavar="FILE", help="also write the configuration JSON here"
    )
    _add_output(p)
    p.set_defaults(func=_cmd_branched)

    p = subs.add_parser("sweep", help="compare candidate energies over a parameter grid")
    p.add_argument("--betas", required=True, help="comma separated boundary weights")
    p.add_argument("--epsilons", required=True, help="comma separated interface weights")
    p.add_argument(
        "--compare",
        default="striped,branched",
        help="columns to fill: any of striped,branched,relaxed",
    )
    p.add_argument("--length", type=float, default=1.0, help="rectangle length L")
    p.add_argument("--height", type=float, default=1.0, help="rectangle height h")
    p.add_argument("--levels-max", type=int, default=8, help="deepest branching tried")
    p.add_argument("--relax-iters", type=int, default=30, help="sweep budget for the relaxed column")
    p.add_argument("--relax-tol", type=float, default=1e-10, help="descent stopping tolerance")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    _add_output(p)
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser(
        "verify-chessboard", help="randomized reflection-bound suite with slack statistics"
    )
    p.add_argument("--trials", type=int, default=100, help="random sequences per family")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--alphas", default="0.1,1,10", help="comma separated screening rates")
    _add_output(p)
    p.set_defaults(func=_cmd_verify_chessboard)

    p = subs.add_parser("certify", help="interval-by-interval excess certificate for a configuration")
    p.add_argument("--config", required=True, metavar="FILE", help="configuration JSON")
    p.add_argument("--eta", type=float, default=DEFAULT_ETA, help="interface-count slack fraction")
    p.add_argument("--kappa", type=float, default=DEFAULT_KAPPA, help="width-comparison factor")
    _add_output(p)
    p.set_defaults(func=_cmd_certify)

    return parser


# built by the first main() call, not at import, and reused by later calls
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        return args.func(args)
    except InvariantError as exc:
        print(f"twinstripe: error: {exc}", file=sys.stderr)
        return 1
    except NonConvergenceError as exc:
        print(f"twinstripe: error: did not converge: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
