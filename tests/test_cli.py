import hashlib
import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dcposets import Poset, acceptance, builtin_poset, d_k_one, young
from dcposets.cli import main
from dcposets.fileformats import (
    filling_from_text,
    filling_to_text,
    format_fraction,
    parse_fraction,
    poset_to_text,
)

from conftest import _double_where_first_denominator_is_even, large

# the package's ``rsk`` attribute is the function, not the module
rsk_module = importlib.import_module("dcposets.rsk")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fraction_format_round_trip():
    for value in (Fraction(3, 4), Fraction(-2, 6), Fraction(5)):
        assert parse_fraction(format_fraction(value)) == value
    assert format_fraction(Fraction(5)) == "5/1"
    assert parse_fraction("7") == 7


def test_gen_then_check(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "gen", "d4")
    assert code == 0 and "wrote d4.poset" in out
    code, out, _ = run(capsys, "check", "d4.poset")
    assert code == 0
    assert out.splitlines()[0] == "d_complete=true"


def test_gen_list(capsys):
    code, out, _ = run(capsys, "gen", "--list")
    assert code == 0
    names = out.split()
    assert "d4" in names and "sample10" in names and len(names) == 296
    # the catalog's order names every fail line's poset: pin it
    digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
    assert digest == "5156cb5e069b4b6fdf30f534269c274ecc555fe0816358b795350802f9f43eb2"


def test_module_runs_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "dcposets.cli", "gen", "--list"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "d4" in proc.stdout.split()


def test_check_rejects_incomplete(tmp_path, capsys):
    path = tmp_path / "bad.poset"
    # a d_3^- shape with no completing top
    path.write_text("elements 3\ncover 0 1\ncover 0 2\n")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert out.splitlines()[0] == "d_complete=false"
    assert any(line.startswith("violation axiom=1") for line in out.splitlines())


def test_verify_proctor_line(tmp_path, capsys):
    path = tmp_path / "d4.poset"
    path.write_text(poset_to_text(d_k_one(4)))
    code, out, _ = run(capsys, "verify-proctor", str(path))
    assert code == 0
    assert out == "extensions=2 hook_product=360 factorial=720 ok=true\n"


def test_diagonals_and_hooks_output(tmp_path, capsys):
    path = tmp_path / "d4.poset"
    path.write_text(poset_to_text(d_k_one(4)))
    code, out, _ = run(capsys, "diagonals", str(path))
    assert code == 0
    assert out.splitlines() == [
        "diagonal 0 members=0,5",
        "diagonal 1 members=1,4",
        "diagonal 2 members=2",
        "diagonal 3 members=3",
        "adjacent 0 1",
        "adjacent 1 2",
        "adjacent 1 3",
    ]
    code, out, _ = run(capsys, "hooks", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "element 5 vector=1,2,1,1 length=5"


def test_extensions_listing(tmp_path, capsys):
    path = tmp_path / "d4.poset"
    path.write_text(poset_to_text(d_k_one(4)))
    code, out, _ = run(capsys, "extensions", str(path), "--list")
    assert code == 0
    assert out.splitlines() == [
        "count=2",
        "extension 5 4 2 3 1 0",
        "extension 5 4 3 2 1 0",
    ]


def test_extensions_list_over_cap_is_usage_error(tmp_path, capsys):
    path = tmp_path / "young-3.3.poset"
    path.write_text(poset_to_text(young((3, 3))))
    code, out, err = run(capsys, "extensions", str(path), "--list", "--cap", "2")
    assert code == 2
    assert out == "count=5\n"
    assert "--cap 2" in err


# not d-complete: axiom 3 fails at (0, 1, 2, 3)
TWO_DIAMONDS = Poset(5, [(0, 2), (1, 2), (0, 3), (1, 3), (2, 4), (3, 4)])
# every command that needs a d-complete poset, with what it takes after the poset file
NEEDS_D_COMPLETE = {
    "hooks": (),
    "diagonals": (),
    "rsk": ("zero.fill",),
    "inverse-rsk": ("zero.fill",),
    "verify-proctor": (),
    "verify-hlf": (),
    "volume": ("--kind", "rpp"),
}


@pytest.mark.parametrize("command", list(NEEDS_D_COMPLETE))
def test_refused_posets_exit_1(tmp_path, capsys, monkeypatch, command):
    # a poset the command cannot take is no usage error: exit 1, with the
    # refusal's own message
    monkeypatch.chdir(tmp_path)
    Path("two-diamonds.poset").write_text(poset_to_text(TWO_DIAMONDS))
    Path("zero.fill").write_text(filling_to_text([Fraction(0)] * 5))
    code, out, err = run(capsys, command, "two-diamonds.poset", *NEEDS_D_COMPLETE[command])
    assert (code, out) == (1, "")
    assert err == "error: poset is not d-complete: axiom 3 fails at (0, 1, 2, 3)\n"


def test_extensions_count_any_poset_within_the_limit(tmp_path, capsys):
    # extensions needs no d-completeness, only a lattice within IDEAL_LIMIT
    path = tmp_path / "two-diamonds.poset"
    path.write_text(poset_to_text(TWO_DIAMONDS))
    assert run(capsys, "extensions", str(path)) == (0, "count=4\n", "")
    path = tmp_path / "young-12x12.poset"
    path.write_text(poset_to_text(large("young-12x12")))
    code, out, err = run(capsys, "extensions", str(path))
    assert (code, out) == (1, "")
    assert err == "error: poset has more than IDEAL_LIMIT = 65536 order ideals; refusing\n"


def test_rsk_round_trip_through_files(tmp_path, capsys):
    poset_path = tmp_path / "d4.poset"
    poset_path.write_text(poset_to_text(d_k_one(4)))
    fill_path = tmp_path / "t.fill"
    fill_path.write_text(filling_to_text([Fraction(v) for v in (2, 2, 3, 4, 2, 1)]))
    order_path = tmp_path / "order.txt"
    order_path.write_text("5 4 2 3 1 0\n")

    code, out, _ = run(capsys, "rsk", str(poset_path), str(fill_path), "--order", f"given:{order_path}")
    assert code == 0
    image = filling_from_text(out)
    assert [image[i] for i in range(6)] == [11, 9, 6, 7, 4, 3]

    image_path = tmp_path / "s.fill"
    image_path.write_text(out)
    code, out, _ = run(capsys, "inverse-rsk", str(poset_path), str(image_path))
    assert code == 0
    recovered = filling_from_text(out)
    assert [recovered[i] for i in range(6)] == [2, 2, 3, 4, 2, 1]


def test_verify_hlf_deterministic(tmp_path, capsys):
    path = tmp_path / "d4.poset"
    path.write_text(poset_to_text(d_k_one(4)))
    code1, out1, _ = run(capsys, "verify-hlf", str(path), "--points", "5", "--seed", "9")
    code2, out2, _ = run(capsys, "verify-hlf", str(path), "--points", "5", "--seed", "9")
    assert code1 == code2 == 0
    assert out1 == out2 == "points=5 seed=9 extensions=2 ok=true\n"


def test_volume_command(tmp_path, capsys):
    path = tmp_path / "c2.poset"
    path.write_text("elements 2\ncover 0 1\n")
    code, out, _ = run(capsys, "volume", str(path), "--kind", "fillings", "--samples", "20000")
    assert code == 0
    assert "closed_form=1/4" in out
    # the draw stream is pinned, not only bounded (the oracle
    # _reference_monte_carlo_volume draws the same 5003 hits)
    assert " hits=5003 " in out
    code2, out2, _ = run(capsys, "volume", str(path), "--kind", "fillings", "--samples", "20000")
    assert out == out2


def test_volume_command_on_empty_poset(tmp_path, capsys):
    path = tmp_path / "empty.poset"
    path.write_text("elements 0\n")
    for kind in ("fillings", "rpp"):
        code, out, err = run(capsys, "volume", str(path), "--kind", kind, "--samples", "1000")
        assert (code, err) == (0, "")
        assert out == (
            f"kind={kind} samples=1000 seed=0 hits=1000 box_volume=1.0 estimate=1.0 "
            "std_error=0.0 closed_form=1/1\n"
        )


def test_classical_rsk_command(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("1 0 2\n0 2 0\n1 1 0\n")
    code, out, _ = run(capsys, "classical-rsk", str(path))
    assert code == 0
    lines = out.splitlines()
    assert "P 1,1,2,2" in lines and "Q 1,1,1,3" in lines
    assert "rpp 2,4,4" in lines
    assert "gt_lower 4,2,1" in lines and "gt_upper 4,2,1" in lines


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("1 2\n3\n", "line 2: row has 1 entries, the first row 2"),
        ("1 -2\n3 0\n", "line 1: negative entry -2"),
        (
            "99999999999999999999 1\n1 1\n",
            f"matrix entries sum to 100000000000000000002, past sys.maxsize = {sys.maxsize} biword pairs",
        ),
    ],
    ids=["ragged-rows", "negative-entry", "biword-past-sys-maxsize"],
)
def test_malformed_matrix_is_usage_error(tmp_path, capsys, text, message):
    path = tmp_path / "m.txt"
    path.write_text(text)
    code, out, err = run(capsys, "classical-rsk", str(path))
    assert code == 2 and out == ""
    assert f"error: {message}" in err


def test_negative_cap_is_usage_error(tmp_path, capsys):
    path = tmp_path / "d4.poset"
    path.write_text(poset_to_text(d_k_one(4)))
    with pytest.raises(SystemExit) as err:
        main(["extensions", str(path), "--list", "--cap", "-3"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be a non-negative integer, got -3" in captured.err


def test_cold_start_leaves_numpy_and_the_battery_unloaded(tmp_path):
    # numpy is imported by the first Monte Carlo call, and the battery only by
    # `suite`; the records are NamedTuples, so dataclasses (and the inspect it
    # imports) never load
    path = tmp_path / "c2.poset"
    path.write_text("elements 2\ncover 0 1\n")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import dcposets\n"
        "assert 'numpy' not in sys.modules\n"
        "assert 'dataclasses' not in sys.modules and 'inspect' not in sys.modules\n"
        "import dcposets.cli\n"
        "assert 'numpy' not in sys.modules\n"
        "assert 'dcposets.acceptance' not in sys.modules\n"
        "assert 'dataclasses' not in sys.modules and 'inspect' not in sys.modules\n"
        "sys.exit(dcposets.cli.main(['volume', sys.argv[2], '--kind', 'fillings', '--samples', '20000']))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(src), str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "kind=fillings samples=20000 seed=0 hits=5003 box_volume=1.0 estimate=0.25015 "
        "std_error=0.0030624743060146645 closed_form=1/4\n"
    )


def test_cold_start_runs_the_list_kernel_without_numpy(tmp_path):
    # rsk and inverse-rsk insert one label list, which never takes the
    # runner's label-matrix branch, so numpy stays unloaded through both
    poset_path = tmp_path / "d4.poset"
    poset_path.write_text(poset_to_text(d_k_one(4)))
    fill_path = tmp_path / "t.fill"
    fill_path.write_text(filling_to_text([Fraction(v) for v in (2, 2, 3, 4, 2, 1)]))
    image_path = tmp_path / "s.fill"
    code = (
        "import contextlib, io, sys; sys.path.insert(0, sys.argv[1])\n"
        "import dcposets.cli\n"
        "image = io.StringIO()\n"
        "with contextlib.redirect_stdout(image):\n"
        "    assert dcposets.cli.main(['rsk', sys.argv[2], sys.argv[3]]) == 0\n"
        "open(sys.argv[4], 'w').write(image.getvalue())\n"
        "assert dcposets.cli.main(['inverse-rsk', sys.argv[2], sys.argv[4]]) == 0\n"
        "assert 'numpy' not in sys.modules\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(src), str(poset_path), str(fill_path), str(image_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert filling_from_text(image_path.read_text()) == dict(enumerate(map(Fraction, (11, 9, 6, 7, 4, 3))))
    assert filling_from_text(proc.stdout) == dict(enumerate(map(Fraction, (2, 2, 3, 4, 2, 1))))


@pytest.mark.parametrize(
    "order, message",
    [
        ("5 4 2 3 1 9", "insertion order entries outside 0..5: [9]"),
        ("5 4 2", "insertion order must be a descending linear extension"),
        ("0 1 2 3 4 5", "insertion order must be a descending linear extension"),
    ],
    ids=["outside", "short", "ascending"],
)
def test_bad_order_file_is_usage_error(tmp_path, capsys, order, message):
    # an order file is input, read against the poset as a filling file is:
    # once the reader's ValueError, exit 1, the verification-failure code
    poset_path = tmp_path / "d4.poset"
    poset_path.write_text(poset_to_text(d_k_one(4)))
    fill_path = tmp_path / "t.fill"
    order_path = tmp_path / "order.txt"
    # the worked example's input, and its image, which inverse-rsk reads
    for command, values in (("rsk", (2, 2, 3, 4, 2, 1)), ("inverse-rsk", (11, 9, 6, 7, 4, 3))):
        fill_path.write_text(filling_to_text([Fraction(v) for v in values]))
        order_path.write_text(order + "\n")
        code, out, err = run(capsys, command, str(poset_path), str(fill_path), "--order", f"given:{order_path}")
        assert (code, out, err) == (2, "", f"error: {message}\n"), command
        order_path.write_text("5 4 2 3 1 0\n")
        code, _, err = run(capsys, command, str(poset_path), str(fill_path), "--order", f"given:{order_path}")
        assert code == 0 and err == "", command


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "does-not-exist.poset")
    assert code == 2 and "error:" in err


def test_bad_format_is_usage_error(tmp_path, capsys):
    path = tmp_path / "junk.poset"
    path.write_text("not a poset\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2


def test_malformed_poset_line_is_usage_error(tmp_path, capsys):
    # once read as a 3-element chain, the extra fields ignored
    path = tmp_path / "extra.poset"
    path.write_text("elements 3\ncover 0 1 2\ncover 1 2\n")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert "line 2: expected 'cover <lower> <upper>', got 'cover 0 1 2'" in err


def test_incomplete_filling_rejected(tmp_path, capsys):
    poset_path = tmp_path / "d3.poset"
    poset_path.write_text(poset_to_text(d_k_one(3)))
    fill_path = tmp_path / "t.fill"
    fill_path.write_text("value 0 1/1\n")
    code, _, err = run(capsys, "rsk", str(poset_path), str(fill_path))
    assert code == 2 and "filling is missing elements [1, 2, 3]" in err
    fill_path.write_text("".join(f"value {i} 1/1\n" for i in range(5)))
    code, _, err = run(capsys, "rsk", str(poset_path), str(fill_path))
    assert code == 2 and "filling names elements outside 0..3: [4]" in err


def test_parse_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    ("command", "option", "value"),
    [
        ("volume", "--samples", "0"),
        ("volume", "--samples", "-5"),
        ("verify-hlf", "--points", "-3"),
        ("verify-hlf", "--seed", "-1"),
        ("volume", "--seed", "-1"),
        ("suite", "--seed", "-2"),
    ],
)
def test_non_positive_count_is_usage_error(tmp_path, capsys, command, option, value):
    # Once a ZeroDivisionError traceback (exit 1) or a silent pass (exit 0);
    # a negative seed, once numpy's ValueError (exit 1) or a silent pass.
    path = tmp_path / "d4.poset"
    path.write_text(poset_to_text(d_k_one(4)))
    argv = [command] if command == "suite" else [command, str(path)]
    if command == "volume":
        argv += ["--kind", "fillings"]
    with pytest.raises(SystemExit) as err:
        main(argv + [option, value])
    assert err.value.code == 2
    kind = "non-negative" if option == "--seed" else "positive"
    assert f"must be a {kind} integer, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--points", "--trials", "--samples"])
def test_suite_takes_no_count_option(capsys, option):
    # every criterion runs at its shipped count, so a fail line replays from
    # its poset and seed alone
    with pytest.raises(SystemExit) as err:
        main(["suite", "--subset", "d4", option, "5"])
    assert err.value.code == 2
    assert f"unrecognized arguments: {option} 5" in capsys.readouterr().err


def test_sample10_check(tmp_path, capsys):
    path = tmp_path / "s.poset"
    path.write_text(poset_to_text(builtin_poset("sample10")))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0 and out == "d_complete=true\n"


def test_suite_subset(capsys):
    code, out, _ = run(capsys, "suite", "--subset", "d3,d4,young-2.1,tree-0.1.1", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for line in lines if line.startswith("criterion name=")) == 10
    assert lines[-1] == "suite ok=true"
    # d_4(1)'s count prints in the worked example's block, not the counting identity's
    assert lines[:2] == ["criterion name=counting-identity ok=true", "  posets=4"]
    worked = lines.index("criterion name=worked-insertion-example ok=true")
    assert lines[worked + 1 : worked + 3] == [
        "  d4 extensions=2 hook_product=360 factorial=720",
        "  labels top-to-bottom 3,4,6,7,9,11",
    ]


def test_suite_unknown_subset(capsys):
    code, _, err = run(capsys, "suite", "--subset", "not-a-poset")
    assert code == 2 and "unknown catalog" in err


@pytest.mark.parametrize(
    "subset, message",
    [
        ("", "unknown catalog posets in --subset: ''"),
        ("d4,", "unknown catalog posets in --subset: ''"),
        ("d4,d4", "repeated catalog posets in --subset: d4"),
        ("d5,d4,d5,d3,d4", "repeated catalog posets in --subset: d4, d5"),
    ],
    ids=["empty", "trailing-comma", "repeated", "two-repeated"],
)
def test_suite_subset_names_each_poset_once(capsys, subset, message):
    # an empty --subset ran all 296 posets, and a repeated name ran its poset twice
    assert run(capsys, "suite", "--subset", subset) == (2, "", f"error: {message}\n")


def _fail_lines(out):
    """A suite's fail lines, by the name of the criterion that prints them."""
    fails = {}
    criterion = None
    for line in out.splitlines():
        if line.startswith("criterion name="):
            criterion = line.split()[1][len("name="):]
        elif line.startswith("  fail "):
            fails.setdefault(criterion, []).append(line)
    return fails


def _assert_each_line_replays(capsys, fails, names, seed):
    """Each ``fail poset=NAME seed=S`` line reappears under ``suite --subset NAME
    --seed S``, and each line that names no poset under every such run."""
    replays = {name: run(capsys, "suite", "--subset", name, "--seed", str(seed))[1].splitlines() for name in names}
    for line in sum(fails.values(), []):
        fields = line.split()
        if fields[1].startswith("poset="):
            assert fields[2] == f"seed={seed}", line
            assert line in replays[fields[1][len("poset="):]], line
        else:
            assert all(line in replay for replay in replays.values()), line


def test_suite_fail_lines_replay_on_one_poset(capsys, monkeypatch):
    # a step that goes wrong only where a toggled label lands on a multiple of
    # 5 fails criteria 4, 6, 7 and 9 at trials that depend on the draws; each
    # fail line names its poset and seed, and `suite --subset NAME --seed S`
    # prints the same line again.  Criterion 9 draws no poset, so its line,
    # which names the seed and trial, reappears under every subset
    toggle_all = rsk_module._toggle_all

    def faulty(labels, toggles, **reductions):
        # a label list's entry gains True, a label matrix's row gains a row of bools
        toggle_all(labels, toggles, **reductions)
        for e, _, _ in toggles:
            labels[e] += labels[e] % 5 == 0

    monkeypatch.setattr(rsk_module, "_toggle_all", faulty)
    names = ("d4", "young-3.2", "shifted-4.2", "sample10")
    code, out, _ = run(capsys, "suite", "--subset", ",".join(names), "--seed", "3")
    assert code == 1
    fails = _fail_lines(out)
    assert set(fails) == {
        "diagonal-sum-identity",
        "volume-preservation",
        "polytope-bijection",
        "classical-equivalence",
    }
    for criterion in ("diagonal-sum-identity", "volume-preservation", "polytope-bijection"):
        assert {line.split()[1] for line in fails[criterion]} == {f"poset={name}" for name in names}
    assert any(" trial=0 " not in line for line in fails["diagonal-sum-identity"])
    (c9,) = fails["classical-equivalence"]
    assert c9.startswith("  fail seed=3 trial=")
    _assert_each_line_replays(capsys, fails, names, 3)


def test_suite_fail_lines_of_c2_c5_c6_replay_on_one_poset(capsys, monkeypatch):
    # criteria 2 and 6 restart their stream per poset as 4, 5 and 7 do, so
    # their fail lines name the seed too.  Each mutant below goes wrong only at
    # some draws: a weight sum doubled where the point's first coordinate has
    # an even denominator (c2, in the one fold of all its points; see
    # conftest's _double_where_first_denominator_is_even), and the leak of
    # test_acceptance's _leaky_step only where a toggled label lands on a
    # multiple of 7 (c5, and c6's derivative check, whose line names the point
    # and element; c4, c7 and c9 fail too).  Every poset fails each criterion,
    # and `suite --subset NAME --seed S` prints each line again
    toggle_all = rsk_module._toggle_all

    def leak_on_multiples_of_seven(labels, toggles, **reductions):
        # on label lists and label matrices alike, so criteria 4 and 7 fail too
        toggle_all(labels, toggles, **reductions)
        n = len(labels)
        for e, _, _ in toggles:
            labels[e] += (labels[e] % 7 == 0) * labels[(e + 1) % n]

    monkeypatch.setattr(rsk_module, "_toggle_all", leak_on_multiples_of_seven)
    _double_where_first_denominator_is_even(monkeypatch)
    names = ("d4", "young-3.2", "shifted-4.2", "sample10")
    code, out, _ = run(capsys, "suite", "--subset", ",".join(names), "--seed", "3")
    assert code == 1
    fails = _fail_lines(out)
    for criterion in (
        "multivariate-identity",
        "diagonal-sum-identity",
        "order-independence",
        "volume-preservation",
        "polytope-bijection",
    ):
        assert {line.split()[1] for line in fails[criterion]} == {f"poset={name}" for name in names}
    assert any(not line.endswith(" trial=0") for line in fails["order-independence"])
    assert all(" point=" in line and " element=" in line for line in fails["volume-preservation"])
    _assert_each_line_replays(capsys, fails, names, 3)


def test_suite_fail_lines_of_c10_replay_on_one_poset(capsys, monkeypatch):
    # a doubled closed form is off by many standard errors wherever the 10^6
    # samples land many hits: on every catalog poset with at most 5 elements,
    # at seeds 0..7.  Posets of one size share their draws, and a size's
    # draws depend on the seed alone, so each line, which names its poset and
    # seed, reappears under `suite --subset NAME --seed S`.  sample10 is past
    # MONTE_CARLO_MAX_ELEMENTS, so criterion 10 never reads it
    closed_form_volume = acceptance.closed_form_volume
    monkeypatch.setattr(acceptance, "closed_form_volume", lambda P, spec: 2 * closed_form_volume(P, spec))
    names = ("d3", "young-3.2", "sample10")
    code, out, _ = run(capsys, "suite", "--subset", ",".join(names), "--seed", "3")
    assert code == 1
    fails = _fail_lines(out)
    assert list(fails) == ["monte-carlo-volumes"]
    assert [line.split()[1:4] for line in fails["monte-carlo-volumes"]] == [
        [f"poset={name}", "seed=3", f"kind={kind}"] for name in names[:-1] for kind in ("fillings", "rpp")
    ]
    _assert_each_line_replays(capsys, fails, names, 3)
