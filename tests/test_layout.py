"""The layout of ``tests/``: one home per oracle, one home for the test
corpus (only ``conftest.py`` calls ``catalog()`` or ``seeded_joins()``),
and no test module importing another; and of ``src/dcposets/``: one
reader of exact input, one home for each check on caller ids, counts and
``analysis=``, four entry points that take ``analysis=``, one builder of
insertion steps, no run that records its choices, two callers of the
strict step, no call of a public ``Poset`` query method, one helper that
picks a label matrix's dtype, one module that reads the ideal
lattice's layout, and a battery whose ``run_all`` passes no count, so
each shipped count lives in its criterion's signature, and whose
``volume_preservation`` has no ``while`` loop, so no retry cap on its
draws comes back, and checks each point by two runs.

All read the sources with ``ast``, parsed once, so they import nothing
and take a fraction of a second.
"""

import ast
import re
from collections import Counter
from functools import cache
from pathlib import Path

TESTS = Path(__file__).parent
PACKAGE = TESTS.parent / "src" / "dcposets"

# every brute-force oracle, each defined once, in oracles.py
ORACLES = (
    "_brute_force_order",
    "_recursive_extensions",
    "_reference_diagram",
    "_brute_force_dminus",
    "_brute_force_d_intervals",
    "_dminus_model",
    "_reference_dminus",
    "_grow",
    "_reference_forbidden",
    "_reference_structure_report",
    "_reference_diagonal_report",
    "_upper_set_diagonals",
    "_reference_hook_vectors",
    "_reference_positive_labels",
    "_dense_numerators",
    "classical_hook_length",
    "_reference_toggle",
    "_reference_is_order_reversing",
    "_reference_insertion",
    "_reference_program",
    "_reference_inverse",
    "_det",
    "_finite_difference_det",
    "_dense_jacobian_rows",
    "_reference_choices",
    "_reference_jacobian_rows",
    "_last_passage",
    "_brute_force_reverse_partitions",
    "_reference_hook_series",
    "_reference_stable_order",
    "_reference_is_stable",
    "_reference_ideal_levels",
    "_reference_weight_sum",
    "_reference_sample",
    "_reference_inside",
    "_reference_polytope_check",
    "_reference_monte_carlo_volume",
    "_box_monte_carlo_hits",
    "_simplex_points",
    "_column_dot",
)


@cache
def _modules():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(TESTS.glob("*.py"))}


def test_no_test_module_imports_another():
    imports = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            imports += [(name, m) for m in modules if m.split(".")[-1].startswith("test_")]
    assert imports == []


def test_each_oracle_is_defined_once_in_oracles():
    # a _reference_* or _brute_force_* function is an oracle by its name, so
    # it too may live only in oracles.py
    modules = _modules()
    homes = {}
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (
                node.name in ORACLES or node.name.startswith(("_reference_", "_brute_force_"))
            ):
                homes.setdefault(node.name, []).append(name)
    assert homes == {oracle: ["oracles.py"] for oracle in ORACLES}
    defined = {node.name for node in modules["oracles.py"].body if isinstance(node, ast.FunctionDef)}
    assert defined == set(ORACLES)


def test_the_corpus_has_one_home():
    # the catalog and the seeded joins reach a test through conftest.corpus,
    # so only conftest.py calls catalog() or seeded_joins()
    callers = set()
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                if called in ("catalog", "seeded_joins"):
                    callers.add(name)
    assert callers == {"conftest.py"}



def _value_reads(tree):
    """Each use of ``exact_value`` or ``as_integer_ratio`` in ``tree``, called or passed, by name."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return Counter(name for name in names if name in ("exact_value", "as_integer_ratio"))


def test_exact_labels_is_the_one_reader_of_exact_input():
    # every exact value a caller passes is read by exact_value and then
    # as_integer_ratio(), and only in hooks.exact_labels, so no edge grows a
    # reader of its own with its own checks
    reads = {path.name: _value_reads(ast.parse(path.read_text(), str(path))) for path in sorted(PACKAGE.glob("*.py"))}
    hooks = ast.parse((PACKAGE / "hooks.py").read_text())
    (reader,) = [node for node in hooks.body if isinstance(node, ast.FunctionDef) and node.name == "exact_labels"]
    assert _value_reads(reader) == Counter(exact_value=1, as_integer_ratio=1)
    assert {name: count for name, count in reads.items() if count} == {"hooks.py": _value_reads(reader)}


@cache
def _package():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _functions_where(test):
    """``module.function`` of each innermost function in ``src/dcposets/`` holding a node that ``test`` accepts."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split('.')[0]}.{node.name}"
        if test(node):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for module, tree in _package().items():
        visit(tree, module)
    return found


def _is_call_of(node, name):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


def _checks_int(node):
    """``isinstance(x, int)``, or ``isinstance`` with ``int`` in a tuple of types."""
    if not _is_call_of(node, "isinstance") or len(node.args) != 2:
        return False
    kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
    return any(isinstance(k, ast.Name) and k.id == "int" for k in kinds)


def test_each_check_on_caller_input_has_one_home():
    # ids and counts are typed by the readers in poset.py (and the order
    # predicate); classical.py keeps its own check, as the independent oracle
    assert _functions_where(_checks_int) == {
        "poset._require_ids",
        "poset._require_count",
        "poset.is_descending_extension",
        "classical._validated_matrix",
    }
    # every analysis= falls back to P's live analysis in the one resolver
    falls_back = lambda node: isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or) and any(
        _is_call_of(value, "analyze") for value in node.values
    )
    assert _functions_where(falls_back) == {"analysis._resolve"}
    homes = [
        module
        for module, tree in _package().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_require_count"
    ]
    assert homes == ["poset"]


# the entry points perfbench/workloads.py passes analysis= to; every other one reads analyze(P)
TAKE_ANALYSIS = {"rsk.rsk", "rsk.inverse_rsk", "rsk.rsk_jacobian_det", "verify.verify_proctor"}


def test_only_the_benchmarked_entry_points_take_analysis():
    # only these public functions have an analysis parameter, only they
    # call the resolver, and no call in the package passes analysis=
    takes = set()
    for module, tree in _package().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if any(arg.arg == "analysis" for arg in args):
                    takes.add(f"{module}.{node.name}")
    assert takes == TAKE_ANALYSIS
    assert _functions_where(lambda node: _is_call_of(node, "_resolve")) == TAKE_ANALYSIS
    passes = lambda node: isinstance(node, ast.Call) and any(k.arg == "analysis" for k in node.keywords)
    assert _functions_where(passes) == set()


def test_insertion_steps_have_one_builder():
    # the step table is the one builder of insertion steps, and it keeps no
    # per-order bookkeeping: in rsk.py only the order draws keep a sorted
    # list, the maximal or minimal elements of what remains (the walk's edge
    # builds a new node's)
    sorts = {where for where in _functions_where(lambda node: _is_call_of(node, "insort")) if where.startswith("rsk.")}
    assert sorts == {"rsk.random_descending_extension", "rsk.stable_insertion_order", "rsk.edge"}


def _names_in(function):
    """``module.function`` of each innermost function in ``src/dcposets/`` that names ``function``, called or passed."""
    return _functions_where(lambda node: isinstance(node, ast.Name) and node.id == function)


def test_no_run_records_its_choices():
    # the Jacobian's run and criterion 6's reference refuse ties and record
    # nothing: src/ names no recording run, replay or choice record, only
    # those two run the strict step, and rsk_jacobian_det runs no plain step
    for path in sorted(PACKAGE.glob("*.py")):
        assert not re.search(r"\b(_choices|_jacobian_times|Choice)\b", path.read_text()), path.name
    assert _names_in("_strict_step") == {"rsk.rsk_jacobian_det", "rsk._derivative_check"}
    assert "rsk.rsk_jacobian_det" not in _names_in("_toggle_all")


def test_no_module_calls_a_poset_query():
    # the structure layer, the diagonals and the extension walk read
    # P._upper, P._lower, P._up and P._dn, so the checks of Poset's public
    # query methods stay off every hot path; a method may hand its own
    # arguments on to another (interval to interval_mask), which checks them
    (poset,) = [node for node in _package()["poset"].body if isinstance(node, ast.ClassDef) and node.name == "Poset"]
    queries = {node.name for node in poset.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    assert len(queries) == 12 and {"leq", "upper_covers", "interval_mask", "minimal_in_mask"} <= queries

    def calls_query(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in queries
            and not (isinstance(node.func.value, ast.Name) and node.func.value.id == "self")
        )

    assert _functions_where(calls_query) == set()


# a numpy dtype a label matrix could take, written as a string
_DTYPE_STRINGS = {"object", "O", "int64", "i8", "<i8"}


def _names_a_label_dtype(node):
    """``np.int64``, the name ``object``, or either as a string given as a dtype."""
    if isinstance(node, ast.Attribute):
        return node.attr == "int64"
    if isinstance(node, ast.Name):
        return node.id in ("object", "int64")
    if isinstance(node, ast.keyword) and node.arg == "dtype":
        return isinstance(node.value, ast.Constant) and node.value.value in _DTYPE_STRINGS
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
        return any(isinstance(arg, ast.Constant) and arg.value in _DTYPE_STRINGS for arg in node.args)
    return False


def test_only_the_label_matrix_helper_picks_a_dtype():
    # rsk._label_matrix picks int64 only under the proved bound on every
    # value a run reaches, and object past it, so no label matrix may take
    # either dtype anywhere else.  The one other site is the batched draw's
    # decode, exact in int64 by its docstring's bound, which its runners read
    # through the helper
    modules = ("rsk", "verify", "acceptance", "hooks")
    named = {where for where in _functions_where(_names_a_label_dtype) if where.split(".")[0] in modules}
    assert named == {"rsk._label_matrix", "hooks.random_scaled_points"}


def test_only_poset_reads_the_lattice_layout():
    # the walk and the folds in poset.py are the one home of the layout of
    # IdealLattice, so a change to it touches no other module
    layout = {"successors", "first", "added"}
    reads = lambda node: isinstance(node, ast.Attribute) and node.attr in layout
    readers = {where.split(".")[0] for where in _functions_where(reads)}
    assert readers == {"poset"}


def test_run_all_passes_no_count():
    # every criterion runs at its own signature's default, so `suite` has no
    # count to cut and a fail line replays from its poset and seed alone
    (run_all,) = [node for node in _package()["acceptance"].body if isinstance(node, ast.FunctionDef) and node.name == "run_all"]
    assert [arg.arg for arg in run_all.args.args] == ["seed", "entries"]
    counts = {"points", "trials", "samples"}
    passed = [k.arg for node in ast.walk(run_all) if isinstance(node, ast.Call) for k in node.keywords if k.arg in counts]
    assert passed == []


def _function(module, name):
    (function,) = [node for node in _package()[module].body if isinstance(node, ast.FunctionDef) and node.name == name]
    return function


def test_volume_preservation_checks_each_draw_once():
    # criterion 6 checks every filling it draws: no loop draws until enough
    # fillings qualify, and its check runs the strict step and the kernel
    # once each, with no run on the drawn filling to throw ties away
    assert not any(isinstance(node, ast.While) for node in ast.walk(_function("acceptance", "volume_preservation")))
    runs = [node for node in ast.walk(_function("rsk", "_derivative_check")) if _is_call_of(node, "_run")]
    assert len(runs) == 2
