"""Command-line front end.

Exit codes: 0 ok, 1 validation/format failure, 2 usage error, 3 internal
assertion: an oracle disagreement under --verify, or an ExplorationError,
MergeError or OracleStabilizationError raised by a broken invariant.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .bench import bench_scaling
from .classify import compute_tau
from .driver import (
    MinMaxPartition,
    max_partition,
    min_partition,
    minmax_partition,
    reduction_step,
)
from .generators import KINDS, gen
from .graph import (
    GraphFormatError,
    InvalidGraphError,
    LabeledGraph,
    format_graph,
    parse_graph,
    require_valid,
    validate,
)
from .merge import MergeError, Partition
from .oracle import OracleStabilizationError, oracle_minmax, oracle_partition
from .reduction import ExplorationError

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_ASSERT = 3


def _load(path: str) -> LabeledGraph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise GraphFormatError(f"{path}: not UTF-8 at byte {e.start} ({e.reason})") from e
    return parse_graph(text)


def _oracle(g: LabeledGraph, kind: str) -> Partition | MinMaxPartition:
    return oracle_minmax(g) if kind == "minmax" else oracle_partition(g, kind)


def _print_partition(p: Partition | MinMaxPartition, as_json: bool) -> None:
    """One group per line (a joint key as m:NODE or M:NODE), or one JSON object."""
    joint = isinstance(p, MinMaxPartition)
    if as_json:
        groups = [[[k.node, k.kind] if joint else k for k in grp] for grp in p.groups]
        print(json.dumps({"groups": groups}))
        return
    for grp in p.groups:
        keys = (f"{'m' if k.kind == 'min' else 'M'}:{k.node}" if joint else str(k) for k in grp)
        print(" ".join(keys))


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gsa",
        description="Suffix-array-style orderings of deterministic labeled graphs",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="check the structural invariants")
    p.add_argument("file")

    p = sub.add_parser("tau", help="print the per-node classification")
    p.add_argument("file")

    for name in ("min", "max", "minmax"):
        p = sub.add_parser(name, help=f"compute the {name}-partition")
        p.add_argument("file")
        p.add_argument("--json", action="store_true")
        p.add_argument(
            "--verify", action="store_true", help="cross-check against the oracle"
        )

    p = sub.add_parser("oracle", help="brute-force partition (debug)")
    p.add_argument("file")
    p.add_argument("--kind", choices=["min", "max", "minmax"], default="min")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("reduce", help="print the first reduction step (debug)")
    p.add_argument("file")

    p = sub.add_parser("gen", help="generate a graph")
    p.add_argument("--kind", choices=KINDS, default="random")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--sigma", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=float, default=0.1)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("bench", help="empirical scaling measurement")
    p.add_argument("--kinds", default="random")
    p.add_argument("--sizes", default="1000,2000,4000,8000")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (GraphFormatError, InvalidGraphError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (
        MergeError, ExplorationError, OracleStabilizationError, AssertionError
    ) as e:
        print(f"internal assertion: {e}", file=sys.stderr)
        return EXIT_ASSERT
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args: argparse.Namespace) -> int:
    if args.cmd == "validate":
        rep = validate(_load(args.file))
        if rep.ok:
            print("ok")
            return EXIT_OK
        for rule, where, msg in rep.violations:
            print(f"{rule}\t{where}\t{msg}")
        return EXIT_INVALID

    if args.cmd == "tau":
        g = _load(args.file)
        require_valid(g)
        for u, t in enumerate(compute_tau(g)):
            print(f"{u}\t{t}")
        return EXIT_OK

    if args.cmd in ("min", "max", "minmax"):
        g = _load(args.file)
        engine = {"min": min_partition, "max": max_partition, "minmax": minmax_partition}
        part = engine[args.cmd](g)
        if args.verify and part != _oracle(g, args.cmd):
            print("internal assertion: oracle disagreement", file=sys.stderr)
            return EXIT_ASSERT
        _print_partition(part, args.json)
        return EXIT_OK

    if args.cmd == "oracle":
        _print_partition(_oracle(_load(args.file), args.kind), args.json)
        return EXIT_OK

    if args.cmd == "reduce":
        g = _load(args.file)
        tau, direction, rg = reduction_step(g)
        print(f"direction\t{direction}")
        if rg is None:
            print("class empty; no reduction")
            return EXIT_OK
        print("nodes\t" + " ".join(str(p) for p in rg.node_map))
        for c, (gamma, t) in enumerate(rg.letter_key):
            gs = ",".join(str(x) for x in gamma)
            print(f"char\t{c}\t({gs})\tt={t}")
        for v, ps in enumerate(rg.graph.preds):
            for u in sorted(ps):
                print(f"edge\t{u}\t{v}")
        return EXIT_OK

    if args.cmd == "gen":
        g = gen(args.kind, args.n, args.sigma, seed=args.seed, density=args.density)
        text = format_graph(g)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return EXIT_OK

    # bench: the subparsers are required, so every other command returned above
    kinds = [k for k in args.kinds.split(",") if k]
    sizes = [int(s) for s in args.sizes.split(",") if s]
    records, slopes = bench_scaling(
        kinds,
        sizes,
        repeats=args.repeats,
        seed=args.seed,
    )
    if args.json:
        print(
            json.dumps(
                {
                    "records": [dataclasses.asdict(r) for r in records],
                    "slopes": slopes,
                }
            )
        )
    else:
        print("kind\tn\tm\ttime_ms\tdepth\tpeak_work")
        for r in records:
            print(
                f"{r.kind}\t{r.n}\t{r.m}\t{r.wall_time_ns / 1e6:.1f}"
                f"\t{r.recursion_depth}\t{r.peak_frontier_work}"
            )
        for kind, slope in slopes.items():
            print(f"slope\t{kind}\t{slope:.3f}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
