"""Command line interface.

All results go to stdout as a single JSON object; diagnostics go to
stderr. Exit codes: 0 success, 2 parse or validation problems, 3
infeasible requests (including oracle guard refusals) and requests
that run out of memory, 4 a skew override below the natural bound.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .errors import GuardLimitError, InfeasibleError, ModelError, SkewOverrideError
from .generate import random_model
from .metrics import (
    failure_aggregate,
    multi_aggregate,
    parse_multi_placement,
    parse_placement,
)
from .model import FailureModel, parse_model, render_model
from .multi import solve_multi
from .oracle import check_balanced, oracle_multi, oracle_single
from .single import solve_basic, solve_fast, solve_greedy


def _load_model(path: str) -> tuple[FailureModel, str]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ModelError(f"cannot read model file: {exc}") from exc
    digest = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelError(f"model file is not UTF-8: {exc}") from exc
    return parse_model(text), digest


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ModelError(f"cannot read file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ModelError(f"file is not UTF-8: {exc}") from exc


def _parse_sizes(raw: str) -> list[int]:
    try:
        sizes = [int(part) for part in raw.split(",") if part != ""]
    except ValueError as exc:
        raise ModelError(f"sizes must be a comma-separated list of integers: {raw!r}") from exc
    if not sizes:
        raise ModelError("sizes list is empty")
    return sizes


def _emit(report: dict) -> None:
    print(json.dumps(report))


def _report(
    command: str,
    digest: str,
    objective,
    witness,
    started: float,
    algorithm: str,
) -> dict:
    return {
        "command": command,
        "model_digest": digest,
        "objective": list(objective),
        "witness": witness,
        "wall_time_ms": int(round((time.perf_counter() - started) * 1000)),
        "algorithm": algorithm,
    }


def _cmd_solve_single(args: argparse.Namespace) -> int:
    model, digest = _load_model(args.model)
    solvers = {"basic": solve_basic, "fast": solve_fast, "greedy": solve_greedy}
    started = time.perf_counter()
    agg, placement = solvers[args.algorithm](model, args.rho)
    report = _report(
        "solve-single",
        digest,
        agg.entries,
        {"leaves": sorted(placement.leaves)},
        started,
        args.algorithm,
    )
    print(f"objective {agg}", file=sys.stderr)
    _emit(report)
    return 0


def _cmd_solve_multi(args: argparse.Namespace) -> int:
    model, digest = _load_model(args.model)
    sizes = _parse_sizes(args.sizes)
    started = time.perf_counter()
    agg, mp = solve_multi(model, sizes, skew=args.skew)
    report = _report(
        "solve-multi",
        digest,
        agg.entries,
        {"blocks": [sorted(block) for block in mp.blocks]},
        started,
        "dp",
    )
    print(f"objective {agg}", file=sys.stderr)
    _emit(report)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    model, digest = _load_model(args.model)
    if (args.placement is None) == (args.blocks is None):
        raise ModelError("eval needs exactly one of --placement or --blocks")
    started = time.perf_counter()
    if args.placement is not None:
        placement = parse_placement(_read_text(args.placement))
        if args.rho is not None and args.rho > len(model.leaves):
            raise ModelError(
                f"rho={args.rho} exceeds the {len(model.leaves)} leaves of the model"
            )
        rho = args.rho if args.rho is not None else len(placement.leaves)
        agg = failure_aggregate(model, placement, rho)
        witness = {"leaves": sorted(placement.leaves)}
    else:
        if args.rho is not None:
            raise ModelError("--rho applies only to --placement")
        mp = parse_multi_placement(_read_text(args.blocks))
        agg = multi_aggregate(model, mp)
        witness = {"blocks": [sorted(block) for block in mp.blocks]}
    report = _report("eval", digest, agg.entries, witness, started, "eval")
    print(f"objective {agg}", file=sys.stderr)
    _emit(report)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    model, _digest = _load_model(args.model)
    placement = parse_placement(_read_text(args.placement))
    violations = check_balanced(model, placement)
    _emit(
        {
            "balanced": not violations,
            "violations": [
                {
                    "node": v.node,
                    "light_child": v.light_child,
                    "heavy_child": v.heavy_child,
                    "light_count": v.light_count,
                    "heavy_count": v.heavy_count,
                }
                for v in violations
            ],
        }
    )
    return 0


def _cmd_oracle_single(args: argparse.Namespace) -> int:
    model, digest = _load_model(args.model)
    started = time.perf_counter()
    agg, optima = oracle_single(model, args.rho, guard=args.guard)
    print(f"{len(optima)} optimal placements", file=sys.stderr)
    report = _report(
        "oracle-single",
        digest,
        agg.entries,
        {"leaves": sorted(optima[0].leaves)},
        started,
        "oracle-single",
    )
    _emit(report)
    return 0


def _cmd_oracle_multi(args: argparse.Namespace) -> int:
    model, digest = _load_model(args.model)
    sizes = _parse_sizes(args.sizes)
    started = time.perf_counter()
    agg, mp = oracle_multi(model, sizes, guard=args.guard)
    report = _report(
        "oracle-multi",
        digest,
        agg.entries,
        {"blocks": [sorted(block) for block in mp.blocks]},
        started,
        "oracle-multi",
    )
    _emit(report)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        model = random_model(
            leaves=args.leaves,
            seed=args.seed,
            max_fanout=args.max_fanout,
            max_capacity=args.max_capacity,
            roots=args.roots,
        )
    except ValueError as exc:
        raise ModelError(str(exc)) from exc
    text = render_model(model)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdplace",
        description="Replica placement on hierarchical failure-domain models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-single", help="place one block of rho replicas")
    p.add_argument("model")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--algorithm", choices=["basic", "fast", "greedy"], default="fast")
    p.set_defaults(func=_cmd_solve_single)

    p = sub.add_parser("solve-multi", help="place several blocks at once")
    p.add_argument("model")
    p.add_argument("--sizes", required=True, help="comma-separated block sizes")
    p.add_argument("--skew", type=int, default=None)
    p.set_defaults(func=_cmd_solve_multi)

    p = sub.add_parser("eval", help="score a given placement")
    p.add_argument("model")
    p.add_argument("--placement")
    p.add_argument("--blocks")
    p.add_argument("--rho", type=int, default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check", help="report balance violations of a placement")
    p.add_argument("model")
    p.add_argument("--placement", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("oracle-single", help="exhaustive single-block reference")
    p.add_argument("model")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--guard", type=int, default=None)
    p.set_defaults(func=_cmd_oracle_single)

    p = sub.add_parser("oracle-multi", help="exhaustive multi-block reference")
    p.add_argument("model")
    p.add_argument("--sizes", required=True)
    p.add_argument("--guard", type=int, default=None)
    p.set_defaults(func=_cmd_oracle_multi)

    p = sub.add_parser("gen", help="generate a random model")
    p.add_argument("--leaves", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-fanout", type=int, default=4)
    p.add_argument("--max-capacity", type=int, default=1)
    p.add_argument("--roots", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SkewOverrideError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (InfeasibleError, GuardLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        pass
    # Reported after the handler, once the traceback no longer keeps the
    # failed request's data alive.
    print("error: out of memory", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
