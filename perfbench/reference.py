"""Generate one workload and its brute-force reference, in a child process.

Usage: ``python3 perfbench/reference.py WORKLOAD SEED TSV_PATH [--tiny]``,
run from the root of a checkout. Writes the workload's TSV text to TSV_PATH
and prints one JSON object: n, m, the sha256 of the sorted edge list, and a
digest of each reference output. Running this apart from the measured
process keeps the generator and the oracle out of its peak memory.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any


def digest_partition(p: Any) -> str:
    """Digest of a ``Partition`` (groups of node ids, ascending)."""
    groups = [list(grp) for grp in p.groups]
    return hashlib.sha256(repr(groups).encode()).hexdigest()


def digest_minmax(p: Any) -> str:
    """Digest of a ``MinMaxPartition`` (groups of (node, kind) keys)."""
    groups = [[(k.node, k.kind) for k in grp] for grp in p.groups]
    return hashlib.sha256(repr(groups).encode()).hexdigest()


def main(argv: list[str]) -> int:
    if "src" not in sys.path:
        sys.path.insert(0, "src")
    from gsa import parse_graph
    from gsa.oracle import oracle_minmax, oracle_partition

    from workloads import make_workload

    name, seed, out = argv[0], int(argv[1]), Path(argv[2])
    w = make_workload(name, seed, tiny="--tiny" in argv[3:])
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(w.text, encoding="utf-8")
    g = parse_graph(w.text)
    pmin = oracle_partition(g, "min")
    pmax = oracle_partition(g, "max")
    pmm = oracle_minmax(g)
    # the joint order restricted to one kind is that kind's order
    if digest_partition(pmm.restricted("min")) != digest_partition(pmin) or (
        digest_partition(pmm.restricted("max")) != digest_partition(pmax)
    ):
        print("perfbench: oracle minmax disagrees with oracle min/max", file=sys.stderr)
        return 1
    print(json.dumps({
        "n": w.n,
        "m": w.m,
        "edges_sha256": w.edges_sha256,
        "min": digest_partition(pmin),
        "max": digest_partition(pmax),
        "minmax": digest_minmax(pmm),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
