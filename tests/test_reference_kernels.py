"""Refinement, ring validation and the dual against the pairwise code they replaced.

The reference implementations below are the earlier bodies of
``core._wl_stabilize``, ``SRing._check_ring`` and ``duality.dual_sring``:
one class-product convolution per pair of classes, and one ``character_sum``
per class and character.  They are kept here as test oracles only.
"""

from __future__ import annotations

import random

from sring import (
    SRing,
    ValidationError,
    character_sum,
    closure,
    cyclotomic_sring,
    dual_sring,
    validate,
)
from sring.core import _wl_stabilize
from sring.errors import NotInverseClosed, NotMultiplicativelyClosed
from sring.modarith import unit_subgroups
from sring.oracle import enumerate_srings


def _wl_stabilize_pairwise(n: int, class_of: list[int]) -> list[list[int]]:
    while True:
        r = max(class_of) + 1
        classes: list[list[int]] = [[] for _ in range(r)]
        for z in range(n):
            classes[class_of[z]].append(z)
        sigs: list[list[int]] = [[class_of[z], class_of[-z % n]] for z in range(n)]
        for i in range(r):
            for j in range(i, r):
                c = [0] * n
                for x in classes[i]:
                    for y in classes[j]:
                        c[(x + y) % n] += 1
                for z in range(n):
                    sigs[z].append(c[z])
        ids: dict[tuple[int, ...], int] = {}
        new_class_of = [0] * n
        for z in range(n):
            key = tuple(sigs[z])
            new_class_of[z] = ids.setdefault(key, len(ids))
        if len(ids) == r:
            return classes
        class_of = new_class_of


def _validate_pairwise(n: int, classes) -> SRing:
    a = SRing(n, classes, check=False)
    for cls in a.classes:
        neg = sorted((-x) % n for x in cls)
        j = a.class_of[neg[0]]
        if list(a.classes[j]) != neg:
            raise NotInverseClosed(f"-1 * {list(cls)} is not a class")
    for i in range(a.rank):
        for j in range(i, a.rank):
            counts = a.product_counts(i, j)
            for cls in a.classes:
                c0 = counts[cls[0]]
                for z in cls[1:]:
                    if counts[z] != c0:
                        raise NotMultiplicativelyClosed(
                            f"product of {list(a.classes[i])} and "
                            f"{list(a.classes[j])} takes values {c0} and "
                            f"{counts[z]} on the class of {cls[0]}"
                        )
    return a


def _dual_pairwise(a: SRing) -> SRing:
    rows: dict[tuple, list[int]] = {}
    for t in range(a.n):
        key = tuple(character_sum(a.n, cls, t).coeffs for cls in a.classes)
        rows.setdefault(key, []).append(t)
    return SRing(a.n, rows.values(), check=False)


def _orbit_labels(rng: random.Random, n: int, labels: int) -> list[int]:
    """{0} alone, then every orbit of a random unit subgroup under a random label."""
    sub = rng.choice(unit_subgroups(n))
    class_of = [0] * n
    for z in range(1, n):
        if not class_of[z]:
            label = 1 + rng.randrange(labels)
            for k in sub:
                class_of[k * z % n] = label
    return class_of


def test_refinement_matches_pairwise_on_random_partitions():
    rng = random.Random(1501)
    for _ in range(300):
        n = rng.randrange(1, 60)
        labels = rng.randint(1, min(n, 6))
        class_of = [rng.randrange(labels) for _ in range(n)]
        assert _wl_stabilize(n, list(class_of)) == _wl_stabilize_pairwise(n, class_of)


def test_refinement_matches_pairwise_on_orbit_unions():
    rng = random.Random(6534)
    for n in (120, 210):
        for _ in range(3):
            class_of = _orbit_labels(rng, n, rng.randint(2, 4))
            assert _wl_stabilize(n, list(class_of)) == _wl_stabilize_pairwise(n, class_of)


def test_closure_refinement_matches_pairwise():
    for n in (360, 512):
        class_of = [0 if z == 0 else 1 if z in (1, n - 1) else 2 for z in range(n)]
        stable = _wl_stabilize(n, list(class_of))
        assert stable == _wl_stabilize_pairwise(n, class_of)
        assert closure(n, [{1, n - 1}]) == SRing(n, stable, check=False)


def _outcome(check, n: int, classes):
    try:
        return SRing, check(n, classes).classes
    except ValidationError as exc:
        return type(exc), str(exc)


def _candidate_partitions():
    """Every ring with n <= 16, its inverse-closed merges, and random partitions."""
    for n in range(1, 17):
        for a in enumerate_srings(n):
            yield n, a.classes
            inv = {i: a.inverse_class(i) for i in range(a.rank)}
            for i in range(1, a.rank):
                for j in range(i + 1, a.rank):
                    merged = {i, inv[i], j, inv[j]}
                    rest = [c for k, c in enumerate(a.classes) if k not in merged]
                    yield n, rest + [[x for k in merged for x in a.classes[k]]]
    rng = random.Random(24)
    for _ in range(300):
        n = rng.randrange(2, 40)
        labels = rng.randint(2, 5)
        if rng.random() < 0.5:
            class_of = _orbit_labels(rng, n, labels)
        else:
            class_of = [0] + [1 + rng.randrange(labels) for _ in range(n - 1)]
        parts: dict[int, list[int]] = {}
        for z in range(n):
            parts.setdefault(class_of[z], []).append(z)
        yield n, list(parts.values())


def test_validate_matches_pairwise_reference():
    kinds = set()
    for n, classes in _candidate_partitions():
        got = _outcome(validate, n, classes)
        assert got == _outcome(_validate_pairwise, n, classes), (n, classes)
        kinds.add(got[0])
    assert {SRing, NotInverseClosed, NotMultiplicativelyClosed} <= kinds


def test_dual_matches_character_sum_rows():
    rings = [a for n in range(1, 25) for a in enumerate_srings(n)]
    rings += [
        cyclotomic_sring(256, [3]),
        cyclotomic_sring(256, [-1]),
        cyclotomic_sring(360, [7]),
    ]
    for a in rings:
        assert dual_sring(a) == _dual_pairwise(a), a
