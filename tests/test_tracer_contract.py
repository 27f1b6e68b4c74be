"""perfbench's tracer binds the arguments of some traced functions by name.

A traced call whose parameter names changed raises inside the tracer's
work counters, while ``perfbench/tests`` can still pass, so the names it
binds are pinned here.
"""

import inspect

import pytest

from dcposets import count_linear_extensions, inverse_rsk, rsk, weight_sum

BOUND_NAMES = [
    (weight_sum, ("P", "method")),
    (rsk, ("P", "order", "analysis")),
    (inverse_rsk, ("P", "order", "analysis")),
    (count_linear_extensions, ("P",)),
]


@pytest.mark.parametrize(
    "fn, names", BOUND_NAMES, ids=[fn.__name__ for fn, _ in BOUND_NAMES]
)
def test_traced_functions_keep_the_bound_names(fn, names):
    parameters = inspect.signature(fn).parameters
    assert all(name in parameters for name in names), (fn.__name__, list(parameters))
