"""Command-line front end.

Line-oriented key=value output throughout; exit code 0 on success, 1 on a
verification failure, 2 on usage or input-format errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import analyze
from .catalog import catalog, catalog_map, catalog_names
from .fileformats import (
    FormatError,
    filling_from_text,
    filling_to_text,
    format_fraction,
    matrix_from_text,
    order_from_text,
    poset_from_text,
    poset_to_text,
)
from .hooks import exact_labels
from .poset import ExtensionLimitError, Poset, _require_order, count_linear_extensions, linear_extensions
from .rsk import inverse_rsk, rsk
from .verify import (
    PolytopeSpec,
    closed_form_volume,
    monte_carlo_volume,
    verify_multivariate,
    verify_proctor,
)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _at_least(text: str, low: int, kind: str) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text}")
    return value


def _positive(text: str) -> int:
    """The argparse type of a count option: a positive integer."""
    return _at_least(text, 1, "positive")


def _non_negative(text: str) -> int:
    """The argparse type of ``--seed`` and ``--cap``: a non-negative integer."""
    return _at_least(text, 0, "non-negative")


def _load_poset(path: str) -> Poset:
    return poset_from_text(Path(path).read_text())


def _load_filling(path: str, n: int):
    """A filling file's values for the ids 0..n-1; a missing or extra id is a format error (exit 2)."""
    mapping = filling_from_text(Path(path).read_text())
    try:
        exact_labels(mapping, n, "filling", "elements")
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return mapping


def _resolve_order(spec: str, P: Poset):
    """None for the stable order, or an order file's ids, read against P; a bad order is a format error (exit 2)."""
    if spec == "stable":
        return None
    if not spec.startswith("given:"):
        raise FormatError(f"--order must be 'stable' or 'given:<file>', got {spec!r}")
    order = order_from_text(Path(spec[len("given:"):]).read_text())
    try:
        return _require_order(P, order)
    except (ValueError, TypeError) as exc:
        raise FormatError(str(exc)) from exc


def _cmd_gen(args) -> int:
    if args.list:
        for name in catalog_names():
            print(name)
        return 0
    if args.name is None:
        print("gen: a poset name is required (or --list)", file=sys.stderr)
        return 2
    posets = catalog_map()
    if args.name not in posets:
        print(f"gen: unknown poset {args.name!r}; try --list", file=sys.stderr)
        return 2
    out = Path(args.out if args.out else f"{args.name}.poset")
    out.write_text(poset_to_text(posets[args.name]))
    print(f"wrote {out}")
    return 0


def _cmd_check(args) -> int:
    P = _load_poset(args.poset)
    report = analyze(P).axiom_report
    print(f"d_complete={_bool(report.is_d_complete)}")
    for violation in report.violations:
        witness = ",".join(str(w) for w in violation.witness)
        print(f"violation axiom={violation.axiom} witness={witness}")
    return 0 if report.is_d_complete else 1


def _cmd_diagonals(args) -> int:
    P = _load_poset(args.poset)
    a = analyze(P)
    a.ensure_d_complete()
    part = a.diagonals
    for d, members in enumerate(part.classes):
        listed = ",".join(str(m) for m in sorted(members))
        print(f"diagonal {d} members={listed}")
    for c, d in part.adjacent:
        print(f"adjacent {c} {d}")
    return 0


def _cmd_hooks(args) -> int:
    P = _load_poset(args.poset)
    a = analyze(P)
    for p in range(P.n):
        vector = ",".join(str(v) for v in a.hook_vectors[p])
        print(f"element {p} vector={vector} length={a.hook_lengths[p]}")
    return 0


def _cmd_extensions(args) -> int:
    P = _load_poset(args.poset)
    count = count_linear_extensions(P)
    print(f"count={count}")
    if args.list:
        if count > args.cap:
            print(f"extensions: {count} extensions exceed --cap {args.cap}", file=sys.stderr)
            return 2
        for ext in linear_extensions(P):
            print("extension " + " ".join(str(p) for p in ext))
    return 0


def _cmd_rsk(args, inverse: bool) -> int:
    P = _load_poset(args.poset)
    values = _load_filling(args.filling, P.n)
    order = _resolve_order(args.order, P)
    image = inverse_rsk(P, values, order) if inverse else rsk(P, values, order)
    sys.stdout.write(filling_to_text(image))
    return 0


def _cmd_verify_proctor(args) -> int:
    P = _load_poset(args.poset)
    report = verify_proctor(P)
    print(
        f"extensions={report.extensions} hook_product={report.hook_product} "
        f"factorial={report.factorial} ok={_bool(report.ok)}"
    )
    return 0 if report.ok else 1


def _cmd_verify_hlf(args) -> int:
    P = _load_poset(args.poset)
    report = verify_multivariate(P, points=args.points, seed=args.seed)
    print(
        f"points={report.points} seed={report.seed} extensions={report.extensions} "
        f"ok={_bool(report.ok)}"
    )
    for failure in report.failures:
        point = ",".join(format_fraction(v) for v in failure.point)
        print(
            f"mismatch point={point} lhs={format_fraction(failure.lhs)} "
            f"rhs={format_fraction(failure.rhs)}"
        )
    return 0 if report.ok else 1


def _cmd_volume(args) -> int:
    P = _load_poset(args.poset)
    a = analyze(P)
    a.ensure_d_complete()
    from .hooks import all_ones_point

    spec = PolytopeSpec(args.kind, all_ones_point(a.diagonals.count))
    estimate = monte_carlo_volume(P, spec, samples=args.samples, seed=args.seed)
    exact = closed_form_volume(P, spec)
    print(
        f"kind={estimate.kind} samples={estimate.samples} seed={estimate.seed} "
        f"hits={estimate.hits} box_volume={estimate.box_volume!r} "
        f"estimate={estimate.estimate!r} std_error={estimate.std_error!r} "
        f"closed_form={format_fraction(exact)}"
    )
    return 0


def _cmd_classical(args) -> int:
    from .classical import classical_insert_rsk, gt_from_rpp, toggle_rpp

    matrix = matrix_from_text(Path(args.matrix).read_text())
    p, q = classical_insert_rsk(matrix)
    for row in p.rows:
        print("P " + ",".join(str(v) for v in row))
    for row in q.rows:
        print("Q " + ",".join(str(v) for v in row))
    rpp = toggle_rpp(matrix)
    for row in rpp:
        print("rpp " + ",".join(str(v) for v in row))
    if len(matrix) == len(matrix[0]):
        lower, upper = gt_from_rpp(rpp)
        for row in lower.rows:
            print("gt_lower " + ",".join(str(v) for v in row))
        for row in upper.rows:
            print("gt_upper " + ",".join(str(v) for v in row))
    return 0


def _cmd_suite(args) -> int:
    from . import acceptance

    entries = None
    if args.subset is not None:
        wanted = args.subset.split(",")
        by_name = {entry.name: entry for entry in catalog()}
        unknown = [name for name in wanted if name not in by_name]
        if unknown:
            raise FormatError(f"unknown catalog posets in --subset: {', '.join(map(repr, unknown))}")
        repeated = sorted({name for name in wanted if wanted.count(name) > 1})
        if repeated:
            raise FormatError(f"repeated catalog posets in --subset: {', '.join(repeated)}")
        entries = [by_name[name] for name in wanted]
    results = acceptance.run_all(
        seed=args.seed,
        points=args.points,
        trials=args.trials,
        samples=args.samples,
        entries=entries,
    )
    all_ok = True
    for result in results:
        print(f"criterion name={result.name} ok={_bool(result.ok)}")
        for line in result.lines:
            print(f"  {line}")
        all_ok = all_ok and result.ok
    print(f"suite ok={_bool(all_ok)}")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcposets",
        description="d-complete posets: structure checks, hook vectors, insertion bijection, "
        "and exact hook length formula verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a catalog poset to a file")
    gen.add_argument("name", nargs="?", help="catalog poset name, e.g. d4")
    gen.add_argument("--out", help="output path (default <name>.poset)")
    gen.add_argument("--list", action="store_true", help="list catalog names")

    for name, helptext in (
        ("check", "run the d-completeness axioms"),
        ("diagonals", "print the diagonal partition and adjacency"),
        ("hooks", "print hook vectors and hook lengths"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("poset", help="poset file")

    ext = sub.add_parser("extensions", help="count (and optionally list) linear extensions")
    ext.add_argument("poset")
    ext.add_argument("--list", action="store_true")
    ext.add_argument("--cap", type=_non_negative, default=10**6, help="most extensions --list prints")

    for name in ("rsk", "inverse-rsk"):
        cmd = sub.add_parser(name, help=f"apply the {name.replace('-', ' ')} map to a filling")
        cmd.add_argument("poset")
        cmd.add_argument("filling")
        cmd.add_argument("--order", default="stable", help="stable | given:<file>")

    vp = sub.add_parser("verify-proctor", help="check extensions * hook product == n!")
    vp.add_argument("poset")

    vh = sub.add_parser("verify-hlf", help="check the multivariate identity at random points")
    vh.add_argument("poset")
    vh.add_argument("--points", type=_positive, default=20)
    vh.add_argument("--seed", type=_non_negative, default=0)

    vol = sub.add_parser("volume", help="Monte Carlo volume of one of the two polytopes")
    vol.add_argument("poset")
    vol.add_argument("--kind", choices=("fillings", "rpp"), required=True)
    vol.add_argument("--samples", type=_positive, default=10**6)
    vol.add_argument("--seed", type=_non_negative, default=0)

    cr = sub.add_parser("classical-rsk", help="insertion RSK and toggle RPP of an integer matrix")
    cr.add_argument("matrix")

    suite = sub.add_parser("suite", help="run the full acceptance battery")
    suite.add_argument("--seed", type=_non_negative, default=0)
    suite.add_argument("--points", type=_positive, default=20)
    suite.add_argument("--trials", type=_positive, default=100)
    suite.add_argument("--samples", type=_positive, default=10**6)
    suite.add_argument("--subset", help="comma-separated catalog names to restrict the battery")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "check": _cmd_check,
        "diagonals": _cmd_diagonals,
        "hooks": _cmd_hooks,
        "extensions": _cmd_extensions,
        "rsk": lambda a: _cmd_rsk(a, inverse=False),
        "inverse-rsk": lambda a: _cmd_rsk(a, inverse=True),
        "verify-proctor": _cmd_verify_proctor,
        "verify-hlf": _cmd_verify_hlf,
        "volume": _cmd_volume,
        "classical-rsk": _cmd_classical,
        "suite": _cmd_suite,
    }
    try:
        return handlers[args.command](args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ExtensionLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
