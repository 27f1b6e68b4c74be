"""perfbench's tracer binds the arguments of some traced functions by name.

A traced call whose parameter names changed raises inside the tracer's
work counters, while ``perfbench/tests`` can still pass, so the names it
binds are pinned here.  ``weight_sum``'s ``method`` has one value left,
``"ideal-dp"``, so a change that drops the parameter from the tracer can
drop it here too.
"""

import inspect

import pytest

from dcposets import all_ones_point, analyze, count_linear_extensions, d_k_one, inverse_rsk, rsk, weight_sum

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


def test_weight_sum_method_has_one_value():
    P = d_k_one(4)
    a = analyze(P)
    ones = all_ones_point(a.diagonals.count)
    assert weight_sum(P, a.diagonals, ones, method="ideal-dp") == weight_sum(P, a.diagonals, ones)
    with pytest.raises(ValueError, match="unknown method 'enumerate'"):
        weight_sum(P, a.diagonals, ones, method="enumerate")
