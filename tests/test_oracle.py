"""Exhaustive enumeration, isomorphism search, and the coset closure."""

from __future__ import annotations

import gc
import warnings

import pytest

from sring import (
    CosetClosureNotCoset,
    LimitExceeded,
    Multiplier,
    SRing,
    coset_closure,
    cyclotomic_sring,
    dual_sring,
    enumerate_srings,
    find_isomorphism,
    fmult_group,
    fs_of,
    full_sring,
    intersect,
    is_quasidense,
    is_separable,
    is_separable_bruteforce,
    phi_infty,
    rank2_sring,
    refines,
    similarities,
    similarity_from_outer,
    tensor,
    validate,
    verify_isomorphism,
)
import sring.oracle
from sring.errors import ValidationError
from sring.modarith import divisors, unit_subgroups
from sring.oracle import _is_coset
from test_reference_kernels import _families_all_pairs, _trivial


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def brute_force_srings(n):
    found = []
    for part in set_partitions(range(1, n)):
        try:
            found.append(validate(n, [[0]] + part))
        except ValidationError:
            continue
    return sorted(found, key=lambda a: a.classes)


def test_enumerate_tiny():
    assert enumerate_srings(1) == [full_sring(1)]
    assert enumerate_srings(2) == [full_sring(2)]
    assert len(enumerate_srings(3)) == 2


def test_enumerate_four_and_five(units4, rank2_4, cyc5):
    four = enumerate_srings(4)
    assert four == sorted(
        [full_sring(4), units4, rank2_4], key=lambda a: a.classes
    )
    five = enumerate_srings(5)
    assert cyc5 in five and len(five) == 3


def test_enumerate_against_brute_force():
    for n in range(1, 10):
        assert enumerate_srings(n) == brute_force_srings(n)


def test_enumerate_output_is_sorted_and_valid():
    for n in (6, 12, 16):
        rings = enumerate_srings(n)
        keys = [a.classes for a in rings]
        assert keys == sorted(keys)
        assert len(set(rings)) == len(rings)
        for a in rings:
            assert validate(a.n, [list(c) for c in a.classes]) == a


def test_enumerate_respects_limit():
    with pytest.raises(LimitExceeded):
        enumerate_srings(37)
    with pytest.raises(LimitExceeded):
        enumerate_srings(10, max_n=9)


@pytest.mark.parametrize("bound", [0, -1])
def test_enumerate_rejects_bound_below_one(bound):
    with pytest.raises(ValueError, match=f"^size bound must be positive, got {bound}$"):
        enumerate_srings(5, max_n=bound)


def test_prime_counts_match_cyclotomic_construction():
    for p in (3, 5, 7, 11, 13):
        rings = set(enumerate_srings(p))
        orbit_rings = {cyclotomic_sring(p, gens) for gens in unit_subgroups(p)}
        assert rings == orbit_rings
        assert len(rings) == len(divisors(p - 1))


def test_find_isomorphism_for_unit_similarity(cyc5):
    swap = [phi for phi in similarities(cyc5, cyc5) if not phi.is_identity][0]
    iso = find_isomorphism(swap)
    assert iso is not None
    assert iso.table == (0, 2, 4, 1, 3)  # multiplication by 2
    assert verify_isomorphism(swap, iso)


def test_find_isomorphism_respects_limit(cyc5):
    phi = similarities(cyc5, cyc5)[0]
    with pytest.raises(LimitExceeded):
        find_isomorphism(phi, max_n=4)


def test_phi_infty_counts(cyc5, units8):
    assert len(phi_infty(cyc5)) == 2
    assert len(phi_infty(units8)) == 1
    assert len(phi_infty(full_sring(6))) == 2


def test_oracle_bound_fires_before_the_similarity_search(monkeypatch):
    def refuse(a, b):
        raise AssertionError("the similarity search ran past the size bound")

    monkeypatch.setattr(sring.oracle, "similarities", refuse)
    a = full_sring(21)
    message = "isomorphism search over Z_21 exceeds the bound 20"
    with pytest.raises(LimitExceeded, match=message):
        phi_infty(a)
    with pytest.raises(LimitExceeded, match=message):
        is_separable_bruteforce(a)


def test_bruteforce_separability_small(cyc5, units8, rank2_4):
    assert is_separable_bruteforce(cyc5)
    assert is_separable_bruteforce(units8)
    assert is_separable_bruteforce(rank2_4)


def test_criterion_matches_oracle_to_twelve():
    for n in range(1, 13):
        for a in enumerate_srings(n):
            assert is_separable(a)[0] == is_separable_bruteforce(a)


def test_intersect(units4, rank2_4, cyc5):
    assert intersect(units4, rank2_4) == rank2_4
    assert intersect(units4, units4) == units4
    assert intersect(full_sring(5), cyc5) == cyc5
    with pytest.raises(ValueError):
        intersect(units4, cyc5)


def test_intersect_is_coarsest_common_coarsening():
    for n in (6, 8, 9):
        rings = enumerate_srings(n)
        for a in rings:
            for b in rings:
                c = intersect(a, b)
                assert refines(a, c) and refines(b, c)


def test_is_coset_detector():
    assert _is_coset(8, (0, 4))
    assert _is_coset(8, (1, 5))
    assert _is_coset(8, (2, 6))
    assert not _is_coset(8, (1, 3, 5))
    assert _is_coset(8, (1, 3, 5, 7))
    assert not _is_coset(5, (1, 4))


def test_coset_closure_examples(cyc5, units8):
    assert coset_closure(cyc5) == full_sring(5)
    assert coset_closure(units8) == units8
    assert coset_closure(rank2_sring(8)) == units8
    assert coset_closure(full_sring(6)) == full_sring(6)


def test_coset_closure_refines_input():
    for n in range(1, 13):
        for a in enumerate_srings(n):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CosetClosureNotCoset)
                fine = coset_closure(a)
            assert refines(fine, a)


def test_coset_closure_output_is_coset_ring_when_quasidense():
    from sring import is_quasidense

    for n in range(1, 13):
        for a in enumerate_srings(n):
            if not is_quasidense(a):
                continue
            fine = coset_closure(a)
            assert all(_is_coset(n, cls) for cls in fine.classes)


def test_coset_closure_warns_exactly_when_not_coset():
    with pytest.warns(CosetClosureNotCoset):
        coset_closure(rank2_sring(6))
    for n in range(1, 13):
        for a in enumerate_srings(n):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fine = coset_closure(a)
            warned = any(
                issubclass(w.category, CosetClosureNotCoset) for w in caught
            )
            assert warned == (not all(_is_coset(n, cls) for cls in fine.classes))


def test_coset_closure_respects_limit():
    with pytest.raises(LimitExceeded):
        coset_closure(rank2_sring(17))


# realized and all similarities of each known non-separable ring, as the
# brute-force oracle counts them
WITNESS_COUNTS = {
    (72, (11, 13)): (8, 16),
    (144, (5, 7)): (8, 16),
    (144, (11, 13)): (16, 64),
    (144, (5,)): (16, 32),
    (144, (5, 19)): (8, 16),
}


def _assert_nonseparable_witness(a: SRing, counts: tuple[int, int]):
    """The oracle finds only some of the similarities of ``a`` realized, and
    the criterion must say the same; returns the separability report."""
    realized = phi_infty(a, max_n=a.n)
    sims = similarities(a, a)
    assert (len(realized), len(sims)) == counts
    separable, report = is_separable(a)
    assert separable is False
    assert report.fmult_order == len(sims)
    assert report.theta_image_order == len(realized)
    assert report.mult_order == len(_families_all_pairs(a, _trivial))
    # the canonical missing outer multiplier is the smallest one carried by
    # a similarity no bijection realizes
    maps = {phi.class_map for phi in realized}
    unrealized = [fs_of(a, phi) for phi in sims if phi.class_map not in maps]
    assert report.missing == min(unrealized, key=Multiplier.canonical_vector)
    assert is_separable(dual_sring(a))[0] is False
    return report


@pytest.mark.parametrize("n, gens", [(n, list(gens)) for n, gens in WITNESS_COUNTS])
def test_nonseparable_witness(n, gens):
    # the smallest known non-separable rings
    _assert_nonseparable_witness(cyclotomic_sring(n, gens), WITNESS_COUNTS[n, tuple(gens)])


# Non-cyclotomic non-separable rings over Z_72, both generalized wreath
# products: classes, (realized, all) similarities, mult_order, and whether
# the dual is the ring itself.
NONCYCLOTOMIC_WITNESSES = {
    "rank15": (
        [[0], [1, 5, 7, 11, 25, 29, 31, 35, 49, 53, 55, 59],
         [2, 10, 14, 22, 26, 34, 38, 46, 50, 58, 62, 70], [3, 33, 39, 69],
         [4, 20, 28, 44, 52, 68], [6, 66], [8, 16, 32, 40, 56, 64], [9, 27, 45, 63],
         [12, 60], [13, 17, 19, 23, 37, 41, 43, 47, 61, 65, 67, 71], [15, 21, 51, 57],
         [18, 54], [24, 48], [30, 42], [36]],
        (4, 8), 16, False,
    ),
    "rank17": (
        [[0], [1, 11, 13, 23, 25, 35, 37, 47, 49, 59, 61, 71], [2, 34, 38, 70],
         [3, 9, 27, 33, 51, 57], [4, 32, 40, 68],
         [5, 7, 17, 19, 29, 31, 41, 43, 53, 55, 65, 67], [6, 66], [8, 28, 44, 64],
         [10, 26, 46, 62], [12, 60], [14, 22, 50, 58], [15, 21, 39, 45, 63, 69],
         [16, 20, 52, 56], [18, 54], [24, 48], [30, 42], [36]],
        (12, 24), 24, True,
    ),
}


@pytest.mark.parametrize("name", sorted(NONCYCLOTOMIC_WITNESSES))
def test_noncyclotomic_witness(name):
    classes, counts, mult_order, self_dual = NONCYCLOTOMIC_WITNESSES[name]
    a = validate(72, classes)
    assert all(a != cyclotomic_sring(72, list(h)) for h in unit_subgroups(72))
    report = _assert_nonseparable_witness(a, counts)
    assert report.mult_order == mult_order
    assert (dual_sring(a) == a) is self_dual


def test_tensor_witness_at_360():
    # A quasidense tensor product with the n = 72 witness as a factor.  Only
    # this ring's verdict is pinned; nothing here is a rule about tensors.
    a = tensor(cyclotomic_sring(72, [11, 13]), cyclotomic_sring(5, [-1]))
    assert (a.n, a.rank) == (360, 48) and is_quasidense(a)
    separable, report = is_separable(a)
    assert separable is False
    # every similarity carries one outer multiplier (the phi-iso identity),
    # counted here by the search that does not use the multiplier layer
    assert len(similarities(a, a)) == report.fmult_order
    assert report.theta_image_order < report.fmult_order


def test_bruteforce_verdict_runs_one_similarity_search(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(a.n)
        return similarities(a, b)

    monkeypatch.setattr(sring.oracle, "similarities", counted)
    # fresh copies: earlier tests may have filled the memo of the enumerated rings
    for a in enumerate_srings(8):
        calls.clear()
        is_separable_bruteforce(SRing(a.n, a.classes, check=False))
        assert calls == [8]


def test_bruteforce_verdict_is_kept_on_the_ring(monkeypatch):
    # a second verdict or phi_infty on the same ring runs no similarity
    # search: the realized class maps are kept on the ring
    calls = []

    def counted(a, b):
        calls.append(a.n)
        return similarities(a, b)

    monkeypatch.setattr(sring.oracle, "similarities", counted)
    for a in enumerate_srings(8):
        a = SRing(a.n, a.classes, check=False)
        verdict, realized = is_separable_bruteforce(a), phi_infty(a)
        calls.clear()
        assert is_separable_bruteforce(a) == verdict
        assert phi_infty(a) == realized
        assert calls == []


def test_oracle_bound_is_checked_before_the_memo():
    # a filled memo answers only calls within the bound
    for a in (full_sring(12), cyclotomic_sring(16, [-1])):
        phi_infty(a)
        with pytest.raises(LimitExceeded):
            phi_infty(a, max_n=a.n - 1)
        with pytest.raises(LimitExceeded):
            is_separable_bruteforce(a, max_n=a.n - 1)


def test_nonseparable_rings_exist_is_not_assumed():
    # informational: record how many rings up to 16 fail separability
    bad = [
        a
        for n in range(1, 17)
        for a in enumerate_srings(n)
        if not is_separable(a)[0]
    ]
    # no witness this small; the criterion and oracle agree on that
    assert bad == []


def test_backtrackers_are_freed_without_the_cycle_collector():
    # the enumerator, the coset-ring search, the similarity search and the
    # isomorphism search hold no reference cycle, so what they try is freed
    # at once rather than at the next run of the cyclic garbage collector
    a = cyclotomic_sring(12, [-1])
    gc.collect()
    gc.disable()
    try:
        sring.oracle._enumerate_cached.__wrapped__(12)
        sring.oracle._coset_rings_refining(a)
        for phi in similarities(a, a):
            find_isomorphism(phi)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_similarity_memos_hold_no_reference_cycle():
    # the per-ring memos of similarities, phi_infty, fs_of and
    # similarity_from_outer keep class maps and unit vectors only, never a
    # Similarity or a ring, so a ring and all it computed are freed at once
    a = SRing(12, cyclotomic_sring(12, [-1]).classes, check=False)
    assert is_quasidense(a)
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):  # the second round reads the memos
            realized = phi_infty(a)
            for phi in similarities(a, a):
                assert similarity_from_outer(a, fs_of(a, phi)) == phi
            for om in fmult_group(a):
                assert fs_of(a, similarity_from_outer(a, om)) == om
        assert len(realized) == len(similarities(a, a))
        del a, realized, phi, om
        assert gc.collect() == 0
    finally:
        gc.enable()
