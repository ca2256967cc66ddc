"""Command-line interface.

Subcommands: ``gen`` (instance generation), ``opt`` (offline optimum),
``run`` (single seeded online run), ``montecarlo`` (ratio estimation),
``exact`` (enumeration oracle), ``theory`` (analysis constants), ``verify``
(bound and lemma checks).  Every run is fully determined by its flags; CSV
output is byte-identical across invocations.

Exit codes: 0 success, 1 verification failure, 2 usage or validation error
(including an input file that cannot be read or an output that cannot be
written).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .exact import _enumerable, exact_expectation
from .experiments import _opt_weight, exact_ratio, monte_carlo_ratio, verify_report
from .generators import FAMILIES, FAMILY_FIELDS, WEIGHTS, GenSpec, generate
from .kicknext import make_trial, run_kicknext, trace_csv
from .matroid import _left_sum, greedy_opt
from .model import InstanceError, dump_instance, load_instance
from .theory import _theory_csv, p_grid


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="laminar-secretary", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a seeded instance")
    g.add_argument("--family", required=True, choices=FAMILIES)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--weights", default="uniform", choices=WEIGHTS)
    g.add_argument("--k", dest="rank", metavar="K", type=int, help="capacity for the uniform family")
    g.add_argument("--parts", type=int, default=None)
    g.add_argument("--part-capacity", type=int, default=None)
    g.add_argument("--depth", type=int, default=None)
    g.add_argument("--max-branching", type=int, default=None)
    g.add_argument("--power-exponent", type=float, default=2.0)
    g.add_argument("-o", "--output", default=None)

    o = sub.add_parser("opt", help="offline maximum-weight feasible set")
    o.add_argument("file")
    o.add_argument("--node", type=int, default=None)

    r = sub.add_parser("run", help="one seeded online run")
    r.add_argument("file")
    r.add_argument("--p", type=float, default=0.08)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--trace", action="store_true")
    r.add_argument("--no-padding", action="store_true")
    r.add_argument("-o", "--output", default=None, help="trace CSV file (needs --trace)")

    m = sub.add_parser("montecarlo", help="Monte Carlo ratio estimate")
    m.add_argument("file")
    m.add_argument("--p", type=float, default=0.08)
    m.add_argument("--trials", type=int, default=100000)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--jobs", type=int, default=1)
    m.add_argument("--no-padding", action="store_true")
    m.add_argument("--csv", default=None)

    e = sub.add_parser("exact", help="exact expected ratio by enumeration")
    e.add_argument("file")
    e.add_argument("--p", type=float, default=0.08)
    e.add_argument("--no-padding", action="store_true")

    t = sub.add_parser("theory", help="analysis constants and the ratio guarantee")
    t.add_argument("--p", type=float, default=None)
    t.add_argument("--p-min", type=float, default=None)
    t.add_argument("--p-max", type=float, default=None)
    t.add_argument("--step", type=float, default=None, help="grid step (default 0.01)")
    t.add_argument("--csv", default=None)

    v = sub.add_parser("verify", help="run lemma and bound checks on an instance")
    v.add_argument("file")
    v.add_argument("--p", type=float, default=0.08)
    v.add_argument("--trials", type=int, default=2000)
    v.add_argument("--seed", type=int, default=0)
    return top


def _load(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InstanceError(f"cannot read instance file {path}: {exc}") from None
    return load_instance(text)


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        _write(output, text)


# gen's shape flags by the ``GenSpec`` field each sets (unset: its default)
_SHAPE_FLAGS = {"rank": "--k", "parts": "--parts", "part_capacity": "--part-capacity",
                "depth": "--depth", "max_branching": "--max-branching"}


def _cmd_gen(args) -> int:
    shape = {f: getattr(args, f) for f in _SHAPE_FLAGS if getattr(args, f) is not None}
    foreign = [_SHAPE_FLAGS[f] for f in shape if f not in FAMILY_FIELDS[args.family]]
    if foreign:
        raise ValueError(f"{foreign[0]} does not apply to the {args.family} family")
    spec = GenSpec(args.family, args.n, args.seed, args.weights,
                   power_exponent=args.power_exponent, **shape)
    _emit(dump_instance(generate(spec)) + "\n", args.output)
    return 0


def _cmd_opt(args) -> int:
    inst = _load(args.file)
    node = args.node if args.node is not None else inst.root_id
    opt = greedy_opt(inst, None, node)
    print(f"instance {inst.name}: node {node} optimum has "
          f"{len(opt)} elements, weight {opt.weight!r}")
    for eid in reversed(opt.elements):  # heaviest first
        print(f"element {eid} weight {inst.weight(eid)!r}")
    return 0


def _cmd_run(args) -> int:
    if args.output is not None and not args.trace:
        raise ValueError("-o/--output needs --trace")
    inst = _load(args.file)
    trial = make_trial(inst, args.p, args.seed)
    result = run_kicknext(inst, trial, padding=not args.no_padding)
    if args.trace:
        _emit(trace_csv(result), args.output)
        if args.output is None:
            return 0
    total = _left_sum(map(inst.weight, result.sol_root))  # as OPT's weight is added
    print(f"sample {len(trial.sample_set)} elements, arrivals {len(trial.arrival_order)}")
    print(f"selected {len(result.sol_root)} elements, weight {total!r}")
    for eid in result.sol_root:
        print(f"element {eid} weight {inst.weight(eid)!r}")
    return 0


def _cmd_montecarlo(args) -> int:
    inst = _load(args.file)
    report = monte_carlo_ratio(
        inst, args.p, args.trials, args.seed,
        padding=not args.no_padding, jobs=args.jobs,
    )
    if args.csv:
        _write(args.csv, report.to_csv())
    sys.stdout.write(report.summary())
    return 0


def _cmd_exact(args) -> int:
    inst = _load(args.file)
    padding = not args.no_padding
    expected, prob_total = exact_expectation(inst, args.p, padding=padding)
    ratio = expected / _opt_weight(inst)
    print(f"exact expected weight {expected!r} (probability mass {prob_total!r})")
    print(f"exact ratio {ratio!r}")
    return 0


def _cmd_theory(args) -> int:
    grid_flags = args.p_min is not None or args.p_max is not None or args.step is not None
    if args.p is not None:
        if grid_flags:
            raise ValueError("--p excludes --p-min, --p-max and --step")
        grid = [args.p]
    elif args.p_min is not None:
        grid = p_grid(0.01 if args.step is None else args.step, args.p_min, args.p_max)
    elif grid_flags:
        raise ValueError("--p-max and --step need --p-min")
    else:
        grid = [0.08]
    text = _theory_csv(grid)
    if args.csv:
        _write(args.csv, text)
    sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    inst = _load(args.file)
    report = verify_report(inst, args.p, args.trials, args.seed)
    sys.stdout.write(report.summary())
    if _enumerable(inst.n):
        unpadded = exact_ratio(inst, args.p, padding=False)
        padded = exact_ratio(inst, args.p, padding=True)
        print(f"exact ratio: padded {padded!r}, unpadded {unpadded!r} (informational)")
    ok = report.all_passed()
    print("verify: PASS" if ok else "verify: FAIL")
    return 0 if ok else 1


_COMMANDS = {
    "gen": _cmd_gen,
    "opt": _cmd_opt,
    "run": _cmd_run,
    "montecarlo": _cmd_montecarlo,
    "exact": _cmd_exact,
    "theory": _cmd_theory,
    "verify": _cmd_verify,
}


# built once: a parser is about 380 objects of cyclic garbage, and parsing
# leaves it unchanged
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (InstanceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
