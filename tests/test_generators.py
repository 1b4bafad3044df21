"""The graph generators' argument checks."""

from __future__ import annotations

import pytest

from gsa import gen


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (("random", 10.5, 3), {}, "n, sigma and seed must be ints"),
        (("cycle", "6", 2), {}, "n, sigma and seed must be ints"),
        (("random", 10, 3.0), {}, "n, sigma and seed must be ints"),
        # an unseeded Random would draw a different graph on each call
        (("random", 10, 3), {"seed": None}, "n, sigma and seed must be ints"),
        (("random", 10, 3), {"density": "x"}, "density must be a number"),
        (("cycle", 6, 2), {"density": None}, "density must be a number"),
    ],
    ids=["float-n", "str-n", "float-sigma", "none-seed", "str-density", "none-density"],
)
def test_rejects_non_numbers(args, kwargs, message):
    with pytest.raises(ValueError, match=message):
        gen(*args, **kwargs)


def test_bool_counts_as_an_int():
    assert gen("cycle", 2, True, seed=False) == gen("cycle", 2, 1, seed=0)
