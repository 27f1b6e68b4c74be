"""perfbench binds the arguments of some traced functions by name or by position.

``perfbench/tracer.py`` binds the arguments of the functions it counts,
and ``perfbench/workloads.py`` passes ``analysis=`` and ``weight_sum``'s
partition as it calls them.  A call whose parameters changed raises
inside the benchmark, while ``perfbench/tests`` can still pass, so what
they bind is pinned here.  ``weight_sum``'s ``method`` has one value
left, ``"ideal-dp"``, so a change that drops the parameter from the
tracer can drop it here too.
"""

import inspect

import pytest

from dcposets import (
    all_ones_point,
    analyze,
    count_linear_extensions,
    d_k_one,
    inverse_rsk,
    rsk,
    rsk_jacobian_det,
    verify_proctor,
    weight_sum,
)

BOUND_NAMES = [
    (weight_sum, ("P", "method")),
    (rsk, ("P", "order", "analysis")),
    (inverse_rsk, ("P", "order", "analysis")),
    (rsk_jacobian_det, ("P", "analysis")),
    (verify_proctor, ("P", "analysis")),
    (count_linear_extensions, ("P",)),
]


@pytest.mark.parametrize(
    "fn, names", BOUND_NAMES, ids=[fn.__name__ for fn, _ in BOUND_NAMES]
)
def test_traced_functions_keep_the_bound_names(fn, names):
    parameters = inspect.signature(fn).parameters
    assert all(name in parameters for name in names), (fn.__name__, list(parameters))


def test_weight_sum_keeps_its_positional_order():
    # workloads.py passes weight_sum(P, a.diagonals, x) by position
    names = list(inspect.signature(weight_sum).parameters)
    assert names[:4] == ["P", "part", "x", "method"]


def test_weight_sum_method_has_one_value():
    P = d_k_one(4)
    a = analyze(P)
    ones = all_ones_point(a.diagonals.count)
    assert weight_sum(P, a.diagonals, ones, method="ideal-dp") == weight_sum(P, a.diagonals, ones)
    with pytest.raises(ValueError, match="unknown method 'enumerate'"):
        weight_sum(P, a.diagonals, ones, method="enumerate")
