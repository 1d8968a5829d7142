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
from collections.abc import Callable

# Each command loads only the modules it runs. The four solvers load on
# the first read of their name in this module (PEP 562, __getattr__
# below), and oracle and generate are imported by the commands that use
# them, so eval and check load no solver, solve-single only single and
# solve-multi only multi. A solver stays bound here once read:
# bench/tracer.py wraps these bindings, and the solve commands call
# whatever they hold.
from .errors import GuardLimitError, InfeasibleError, ModelError, SkewOverrideError
from .metrics import (
    FailureAggregate,
    MultiPlacement,
    Placement,
    failure_aggregate,
    multi_aggregate,
    parse_multi_placement,
    parse_placement,
)
from .model import FailureModel, parse_model, render_model

_SOLVERS = frozenset(("solve_basic", "solve_fast", "solve_greedy", "solve_multi"))


def __getattr__(name: str) -> object:
    """A solver, loaded through the package root, which knows its
    module, and bound here from then on."""
    if name not in _SOLVERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[__package__], name)
    globals()[name] = value
    return value


def _solver(name: str) -> Callable:
    """This module's binding of a solver, loading its module first if
    nothing has read it yet."""
    return globals().get(name) or __getattr__(name)


def _read(path: str, what: str) -> tuple[str, str]:
    """The text of a file and the sha256 of its bytes; what names it in
    a refusal. The bytes live only in this call: they are hashed, then
    decoded, and dropped when it returns."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ModelError(f"cannot read {what}: {exc}") from exc
    digest = hashlib.sha256(data).hexdigest()
    try:
        return data.decode("utf-8"), digest
    except UnicodeDecodeError as exc:
        raise ModelError(f"{what} is not UTF-8: {exc}") from exc


def _load_model(path: str) -> tuple[FailureModel, str]:
    """The parsed model file and its digest. While parse_model runs,
    the text and the decoded document are alive, not the bytes; the
    text is released when this returns."""
    text, digest = _read(path, "model file")
    return parse_model(text), digest


def _parse_sizes(raw: str) -> list[int]:
    try:
        sizes = [int(part) for part in raw.split(",") if part != ""]
    except ValueError as exc:
        raise ModelError(f"sizes must be a comma-separated list of integers: {raw!r}") from exc
    if not sizes:
        raise ModelError("sizes list is empty")
    return sizes


Found = Placement | MultiPlacement
Solve = Callable[[FailureModel], tuple[FailureAggregate, Found]]


def _run(args: argparse.Namespace, solve: Solve) -> int:
    """Load the model, time solve on it, print the report to stdout and
    the objective to stderr."""
    model, digest = _load_model(args.model)
    started = time.perf_counter()
    agg, found = solve(model)
    if isinstance(found, MultiPlacement):
        witness = {"blocks": [sorted(block) for block in found.blocks]}
    else:
        witness = {"leaves": sorted(found.leaves)}
    report = {
        "command": args.command,
        "model_digest": digest,
        "objective": list(agg.entries),
        "witness": witness,
        "wall_time_ms": int(round((time.perf_counter() - started) * 1000)),
        "algorithm": args.algorithm,
    }
    print(f"objective {agg}", file=sys.stderr)
    print(json.dumps(report))
    return 0


def _cmd_solve_single(args: argparse.Namespace) -> int:
    solve = _solver(f"solve_{args.algorithm}")
    return _run(args, lambda model: solve(model, args.rho))


def _cmd_solve_multi(args: argparse.Namespace) -> int:
    solve = _solver("solve_multi")
    return _run(args, lambda model: solve(model, _parse_sizes(args.sizes), skew=args.skew))


def _cmd_eval(args: argparse.Namespace) -> int:
    def solve(model: FailureModel) -> tuple[FailureAggregate, Found]:
        if (args.placement is None) == (args.blocks is None):
            raise ModelError("eval needs exactly one of --placement or --blocks")
        if args.placement is None:
            if args.rho is not None:
                raise ModelError("--rho applies only to --placement")
            found = parse_multi_placement(_read(args.blocks, "file")[0])
            return multi_aggregate(model, found), found
        found = parse_placement(_read(args.placement, "file")[0])
        rho = args.rho if args.rho is not None else len(found.leaves)
        return failure_aggregate(model, found, rho), found

    return _run(args, solve)


def _cmd_check(args: argparse.Namespace) -> int:
    from .oracle import check_balanced

    model, _digest = _load_model(args.model)
    placement = parse_placement(_read(args.placement, "file")[0])
    violations = check_balanced(model, placement)
    print(json.dumps({"balanced": not violations, "violations": [v.as_dict() for v in violations]}))
    return 0


def _cmd_oracle_single(args: argparse.Namespace) -> int:
    from .oracle import oracle_single

    def solve(model: FailureModel) -> tuple[FailureAggregate, Found]:
        agg, optima = oracle_single(model, args.rho, guard=args.guard)
        print(f"{len(optima)} optimal placements", file=sys.stderr)
        return agg, optima[0]

    return _run(args, solve)


def _cmd_oracle_multi(args: argparse.Namespace) -> int:
    from .oracle import oracle_multi

    return _run(args, lambda model: oracle_multi(model, _parse_sizes(args.sizes), guard=args.guard))


def _cmd_gen(args: argparse.Namespace) -> int:
    from .generate import random_model

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
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ModelError(f"cannot write model file: {exc}") from exc
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
    p.set_defaults(func=_cmd_solve_multi, algorithm="dp")

    p = sub.add_parser("eval", help="score a given placement")
    p.add_argument("model")
    p.add_argument("--placement")
    p.add_argument("--blocks")
    p.add_argument("--rho", type=int, default=None)
    p.set_defaults(func=_cmd_eval, algorithm="eval")

    p = sub.add_parser("check", help="report balance violations of a placement")
    p.add_argument("model")
    p.add_argument("--placement", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("oracle-single", help="exhaustive single-block reference")
    p.add_argument("model")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--guard", type=int, default=None)
    p.set_defaults(func=_cmd_oracle_single, algorithm="oracle-single")

    p = sub.add_parser("oracle-multi", help="exhaustive multi-block reference")
    p.add_argument("model")
    p.add_argument("--sizes", required=True)
    p.add_argument("--guard", type=int, default=None)
    p.set_defaults(func=_cmd_oracle_multi, algorithm="oracle-multi")

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
