import pytest

from dcposets import Poset, analyze, builtin_poset, d_k_one, shifted_young, tree, young


def chain(n: int) -> Poset:
    return Poset(n, [(i, i + 1) for i in range(n - 1)])


def antichain(n: int) -> Poset:
    return Poset(n, [])


def is_isomorphic(P: Poset, Q: Poset) -> bool:
    """Brute-force isomorphism test, intended for small posets only."""
    if P.n != Q.n or len(P.covers) != len(Q.covers):
        return False

    def signature(R: Poset, v: int) -> tuple[int, int, int, int]:
        return (
            bin(R.upset_mask(v)).count("1"),
            bin(R.downset_mask(v)).count("1"),
            len(R.upper_covers(v)),
            len(R.lower_covers(v)),
        )

    sig_p = [signature(P, v) for v in range(P.n)]
    sig_q = [signature(Q, v) for v in range(Q.n)]
    if sorted(sig_p) != sorted(sig_q):
        return False

    mapping = [-1] * P.n
    used = [False] * Q.n

    def rec(i: int) -> bool:
        if i == P.n:
            return True
        for q in range(Q.n):
            if used[q] or sig_q[q] != sig_p[i]:
                continue
            if all(
                P.leq(j, i) == Q.leq(mapping[j], q) and P.leq(i, j) == Q.leq(q, mapping[j])
                for j in range(i)
            ):
                mapping[i] = q
                used[q] = True
                if rec(i + 1):
                    return True
                used[q] = False
                mapping[i] = -1
        return False

    return rec(0)


FAMILY = {
    "singleton": chain(1),
    "chain5": chain(5),
    "antichain2": antichain(2),
    "d3": d_k_one(3),
    "d4": d_k_one(4),
    "d5": d_k_one(5),
    "d4-named": builtin_poset("d4-named"),
    "sample10": builtin_poset("sample10"),
    "young-3.2": young((3, 2)),
    "young-2.2.1": young((2, 2, 1)),
    "young-3.3": young((3, 3)),
    "shifted-3.1": shifted_young((3, 1)),
    "shifted-4.3.1": shifted_young((4, 3, 1)),
    "tree-star": tree([None, 0, 0, 0]),
    "tree-mixed": tree([None, 0, 0, 1, 1, 2]),
}


@pytest.fixture(scope="session")
def family():
    return dict(FAMILY)


@pytest.fixture(scope="session")
def analyses():
    return {name: analyze(P) for name, P in FAMILY.items()}
