"""A committed digest of computed values, so that "outputs unchanged" is a test.

Every poset of the catalog and of the 60 seeded joins has one digest per
order-free quantity in ``digests.json``:

- ``d_complete``: the axiom verdict;
- ``d_intervals``: each d-interval as (k, bottom, top, member mask), as a set;
- ``diagonals``: the classes as a set of element sets, whatever their ids;
- ``hooks``: each element's hook vector, keyed by the smallest member of
  each diagonal it counts, or the type of the refusal;
- ``rsk``: the images of 3 seeded fillings, entries in 0..9, or the refusal;
- ``count``: the number of linear extensions, or the refusal;
- ``weight``: one weight sum at x_D = (min D + 1) / (|D| + 1), or the refusal.

None of these reads a stable order, a tuple order the package is free to
change, or an id the package picks, so a refactor that keeps every value
keeps every digest, and a mismatch names the poset and the quantity.

Budget: 1 s of tier-1, analyses included, is the aim.  On two shared
cores under Python 3.11 the digest takes 1.1-1.3 s: nine tenths of it
are the ideal-lattice walks and folds behind ``count`` and ``weight``,
most of those on the 13 joins with 5,000 to 56,000 ideals.  The test
asserts 2.5 s, a bound against a cliff rather than noise.  After a change that
means to move a value, regenerate the file with
``PYTHONPATH=src python tests/test_digest.py`` and say in ``CHANGES.md``
which value moved and why.
"""

import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path
from random import Random

from conftest import corpus

from dcposets import ExtensionLimitError, analyze, rsk, weight_sum

GOLDEN = Path(__file__).with_name("digests.json")
FILLINGS = 3


def _or_refusal(compute):
    """``compute()``, or the type of its refusal: past ``IDEAL_LIMIT``, or on a poset that is not d-complete."""
    try:
        return compute()
    except (ExtensionLimitError, ValueError) as exc:
        return f"refused: {type(exc).__name__}"


def _quantities(name, P):
    """Each order-free quantity of P, by name, as a value with a deterministic repr."""
    a = analyze(P)
    part = a.diagonals
    smallest = [min(members) for members in part.classes]

    def hooks():
        return [sorted((smallest[d], c) for d, c in enumerate(vector) if c) for vector in a.hook_vectors]

    def images():
        rng = Random(f"digest {name}")
        return [rsk(P, [rng.randrange(10) for _ in range(P.n)]) for _ in range(FILLINGS)]

    def weight():
        x = [Fraction(min(members) + 1, len(members) + 1) for members in part.classes]
        return weight_sum(P, part, x)

    return {
        "d_complete": a.is_d_complete,
        "d_intervals": sorted((d.k, d.bottom, d.top, d.member_mask) for d in a.d_intervals),
        "diagonals": sorted(sorted(members) for members in part.classes),
        "hooks": _or_refusal(hooks),
        "rsk": _or_refusal(images),
        "count": _or_refusal(lambda: a.extension_count),
        "weight": _or_refusal(weight),
    }


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def digests() -> dict[str, dict[str, str]]:
    return {
        name: {q: _digest(v) for q, v in _quantities(name, P).items()} for name, P in corpus("catalog", "joins")
    }


def test_computed_values_match_the_committed_digest():
    golden = json.loads(GOLDEN.read_text())
    start = time.perf_counter()
    found = digests()
    elapsed = time.perf_counter() - start
    assert list(found) == list(golden), "the corpus changed: regenerate digests.json and say why"
    mismatches = [
        (name, quantity) for name, row in found.items() for quantity, digest in row.items() if golden[name][quantity] != digest
    ]
    assert mismatches == []
    assert elapsed < 2.5


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=0, sort_keys=False) + "\n")
