"""The scaling benchmark's records."""

from __future__ import annotations

import pytest

from gsa.bench import bench_scaling


def test_records_the_seed_passed_to_gen():
    # only random graphs are drawn with seed + n; the other kinds get seed
    records, _slopes = bench_scaling(
        ["cycle", "debruijn", "random"], [16, 32, 64], repeats=1, seed=5
    )
    seeds = {(r.kind, r.n): r.seed for r in records}
    assert seeds == {
        **{("cycle", n): 5 for n in (16, 32, 64)},
        **{("debruijn", n): 5 for n in (16, 32, 64)},
        **{("random", n): 5 + n for n in (16, 32, 64)},
    }


@pytest.mark.parametrize("repeats", [0, -1])
def test_rejects_fewer_than_one_repeat(repeats):
    with pytest.raises(ValueError, match="repeats"):
        bench_scaling(["cycle"], [16, 32, 64], repeats=repeats)


@pytest.mark.parametrize(
    "sizes, repeats, seed",
    [([8.0, 16, 32], 1, 0), ([8, 16, 32], 1.5, 0), ([8, 16, 32], 1, None)],
    ids=["float-size", "float-repeats", "none-seed"],
)
def test_rejects_non_int_arguments(sizes, repeats, seed):
    with pytest.raises(ValueError, match="must be ints"):
        bench_scaling(["cycle"], sizes, repeats=repeats, seed=seed)


def test_accepts_any_sequence_of_sizes():
    as_list, _ = bench_scaling(["cycle"], [8, 16, 32], repeats=1)
    as_tuple, _ = bench_scaling(["cycle"], (8, 16, 32), repeats=1)
    assert [(r.n, r.m) for r in as_tuple] == [(r.n, r.m) for r in as_list]
    with pytest.raises(ValueError, match="strictly increasing"):
        bench_scaling(["cycle"], (8, 32, 16), repeats=1)
