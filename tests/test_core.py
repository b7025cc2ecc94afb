"""Ring axioms, closure, restriction, and the small constructors."""

from __future__ import annotations

import pickle
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sring import (
    LimitExceeded,
    MissingIdentityClass,
    NotAPartition,
    NotASection,
    NotCoprime,
    NotInverseClosed,
    NotMultiplicativelyClosed,
    SRing,
    TheoryViolation,
    a_subgroups,
    closure,
    cyclotomic_sring,
    dual_sring,
    full_sring,
    generated,
    is_separable,
    is_wreath,
    radical,
    rank2_sring,
    refines,
    restriction,
    structure_constant,
    tensor,
    validate,
)
from sring import core, sections
from sring.errors import ValidationError
from sring.multipliers import aut_stabilizer
from sring.oracle import enumerate_srings
from sring.sections import Section


def test_validate_accepts_named_instances(cyc5, units8, units4, rank2_4):
    for a in (cyc5, units8, units4, rank2_4):
        assert validate(a.n, [list(c) for c in a.classes]) == a


def test_classes_are_canonically_ordered():
    a = SRing(5, [[2, 3], [4, 1], [0]])
    assert a.classes == ((0,), (1, 4), (2, 3))
    assert a.class_of == (0, 1, 2, 2, 1)


def test_not_a_partition():
    with pytest.raises(NotAPartition):
        validate(4, [[0], [1], [2], [3], [1, 3]])
    with pytest.raises(NotAPartition):
        validate(4, [[0], [1, 2]])
    with pytest.raises(NotAPartition):
        validate(4, [[0], [1, 2, 5]])


def test_uncovered_element_is_named_without_listing_z_n():
    # The first uncovered residue is found among the first len(seen) + 1,
    # so a huge n with too few elements is rejected in constant memory.
    with pytest.raises(NotAPartition, match=r"^element 1 is not covered$"):
        SRing(10**12, [[0]])
    with pytest.raises(NotAPartition, match=r"^element 2 is not covered$"):
        SRing(10**12, [[0], [1, 3]])


def test_missing_identity_class():
    with pytest.raises(MissingIdentityClass):
        validate(4, [[0, 2], [1, 3]])


def test_not_inverse_closed():
    with pytest.raises(NotInverseClosed):
        validate(5, [[0], [1], [2, 3, 4]])


def test_not_multiplicatively_closed():
    # {1,4}*{2} hits 3 once and 1 once, but never 4: not constant on {1,4}.
    with pytest.raises(NotMultiplicativelyClosed):
        validate(5, [[0], [1, 4], [2], [3]])


def test_structure_constants(cyc5):
    x = cyc5.class_of[1]
    y = cyc5.class_of[2]
    e = cyc5.class_of[0]
    # {1,4}*{1,4} = 2*{0} + {2,3}
    assert structure_constant(cyc5, x, x, e) == 2
    assert structure_constant(cyc5, x, x, y) == 1
    assert structure_constant(cyc5, x, x, x) == 0
    with pytest.raises(IndexError):
        structure_constant(cyc5, 0, 0, 9)


def test_product_counts_symmetric(units8):
    for i in range(units8.rank):
        for j in range(units8.rank):
            assert units8.product_counts(i, j) == units8.product_counts(j, i)


def test_closure_of_inverse_closed_seed(cyc5):
    assert closure(5, [[1, 4]]) == cyc5


def test_closure_splits_asymmetric_seed():
    # {1} alone is not inverse-closed, so the closure must separate everything.
    assert closure(5, [[1]]) == full_sring(5)


def test_closure_no_seeds_gives_rank_two():
    assert closure(1, []) == full_sring(1)
    for n in (2, 6, 9):
        assert closure(n, []) == rank2_sring(n)


def test_closure_size_bound():
    with pytest.raises(LimitExceeded):
        closure(core.CLOSURE_BOUND + 1, [[1, 2]])
    with pytest.raises(LimitExceeded):
        closure(10, [[1]], max_n=9)
    assert closure(10, [[1]], max_n=10) == full_sring(10)


def test_closure_idempotent_on_every_small_ring():
    for n in range(1, 11):
        for a in enumerate_srings(n):
            assert closure(n, [list(c) for c in a.classes]) == a


def test_closure_is_minimal():
    # Any ring whose classes refine one seed class must refine its closure.
    for n in range(2, 11):
        for b in enumerate_srings(n):
            for cls in b.classes:
                assert refines(b, closure(n, [list(cls)]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_closure_contains_seeds(data):
    n = data.draw(st.integers(min_value=2, max_value=14))
    seeds = data.draw(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n),
            max_size=3,
        )
    )
    a = closure(n, [sorted(s) for s in seeds])
    assert validate(a.n, [list(c) for c in a.classes]) == a
    for seed in seeds:
        # Every seed is a union of closure classes.
        for x in seed:
            assert set(a.classes[a.class_of[x]]) <= set(seed)


def test_a_subgroups(units8, cyc5, rank2_4):
    assert a_subgroups(units8) == (1, 2, 4, 8)
    assert a_subgroups(cyc5) == (1, 5)
    assert a_subgroups(rank2_4) == (1, 4)


def test_restriction_middle_section(units8, units4):
    assert restriction(units8, 2, 8) == units4
    assert restriction(units8, 1, 2) == full_sring(2)
    assert restriction(units8, 1, 1) == full_sring(1)


def test_restriction_composes(units8):
    once = restriction(units8, 2, 8)
    again = restriction(once, 1, 2)
    assert again == restriction(units8, 2, 4)


def test_restriction_rejects_non_section(units8, cyc5):
    with pytest.raises(NotASection):
        restriction(units8, 3, 8)
    with pytest.raises(NotASection):
        restriction(cyc5, 1, 2)


def test_restriction_is_kept_per_ring(units8):
    assert restriction(units8, 2, 8) is restriction(units8, 2, 8)


def test_failed_restriction_is_not_kept():
    a = full_sring(8)
    for _ in range(2):
        with pytest.raises(NotASection):
            restriction(a, 3, 5)


def test_rings_with_equal_restrictions_share_one():
    a = cyclotomic_sring(12, [-1])
    b = cyclotomic_sring(24, [-1])
    shared = restriction(a, 1, 12)
    assert shared == a and shared is not a
    assert restriction(b, 1, 12) is shared


def test_failed_restriction_build_names_the_section_and_is_not_kept(monkeypatch):
    a = SRing(8, [[0], [4], [2, 6], [1, 3, 5, 7]], check=False)
    core._restricted_ring.cache_clear()

    def broken(self):
        raise NotMultiplicativelyClosed("injected")

    monkeypatch.setattr(SRing, "_check_ring", broken)
    for _ in range(2):
        with pytest.raises(TheoryViolation, match=r"restriction to \(2, 8\) .*injected"):
            restriction(a, 2, 8)
        assert core._restricted_ring.cache_info().currsize == 0
    monkeypatch.undo()
    assert restriction(a, 2, 8) == SRing(4, [[0], [2], [1, 3]])
    assert core._restricted_ring.cache_info().currsize == 1


def test_class_stabilizer_is_computed_once_per_ring(monkeypatch):
    # validation refines with a group of its own; the memo computes the
    # group of a ring once, and rings with one restriction share its group
    a = cyclotomic_sring(24, [5])
    s = Section(24, 2, 24)
    stab = core._class_stabilizer(24, a.class_of)
    sub = core._class_stabilizer(12, restriction(a, 2, 24).class_of)
    calls = []
    compute = core._class_stabilizer

    def counted(n, class_of):
        calls.append(n)
        return compute(n, class_of)

    monkeypatch.setattr(core, "_class_stabilizer", counted)
    for _ in range(2):
        assert core.class_stabilizer(a) == stab
        assert aut_stabilizer(a, s).elements == sub
    assert calls == [24, 12]
    dual_sring(a)  # reads the group of a, and refines the dual to check it
    assert calls == [24, 12, 24]


def test_false_result_is_kept(monkeypatch):
    calls = []
    find = sections._composite_rank2_section

    def counted(a):
        calls.append(a)
        return find(a)

    monkeypatch.setattr(sections, "_composite_rank2_section", counted)
    a = rank2_sring(4)
    assert sections.is_quasidense(a) is False
    assert sections.is_quasidense(a) is False
    assert len(calls) == 1


def test_aut_stabilizer_is_kept_per_section(units8):
    whole, top = Section(8, 1, 8), Section(8, 2, 8)
    first = aut_stabilizer(units8, whole)
    assert aut_stabilizer(units8, top).elements == (1, 3)
    assert aut_stabilizer(units8, whole) is first
    assert first.elements == (1, 3, 5, 7)


def test_ring_with_full_cache_pickles():
    a = cyclotomic_sring(24, [5])
    is_separable(a)
    dual_sring(a)
    a.product_counts(1, 2)
    b = pickle.loads(pickle.dumps(a))
    assert b == a
    assert is_separable(b) == is_separable(a)


def test_per_ring_memo_is_not_a_module_cache():
    # a functools-style cache_clear would make the memo a module-level table
    for fn in (restriction, a_subgroups, aut_stabilizer, sections.frs0):
        assert not hasattr(fn, "cache_clear")
        assert not hasattr(fn, "cache_info")


def test_radical_and_generated():
    assert radical(8, [1, 3, 5, 7]) == 4
    assert radical(8, [2, 6]) == 2
    assert radical(8, [2]) == 1
    assert radical(8, [4]) == 1
    assert radical(6, [1, 3, 5]) == 3
    assert generated(8, [2, 6]) == 4
    assert generated(8, [1, 3, 5, 7]) == 8
    assert generated(8, [0]) == 1


def test_is_wreath(units4, rank2_4):
    assert is_wreath(units4, 2, 2)
    assert is_wreath(rank2_4, 1, 1)  # l = 1 makes the condition vacuous
    assert is_wreath(rank2_4, 4, 1)
    assert not is_wreath(full_sring(4), 2, 2)


def test_tensor_of_coprime_parts():
    a = SRing(2, [[0], [1]])
    b = SRing(3, [[0], [1, 2]])
    assert tensor(a, b) == SRing(6, [[0], [3], [2, 4], [1, 5]])
    with pytest.raises(NotCoprime):
        tensor(a, SRing(4, [[0], [1, 2, 3]]))


def test_tensor_of_full_rings_is_full():
    assert tensor(full_sring(3), full_sring(4)) == full_sring(12)


def test_constructors(cyc5):
    assert full_sring(4).rank == 4
    assert rank2_sring(2) == full_sring(2)
    with pytest.raises(ValueError):
        rank2_sring(1)  # the non-identity class would be empty
    assert cyclotomic_sring(5, [4]) == cyc5
    assert cyclotomic_sring(8, [3, 5]).classes == ((0,), (1, 3, 5, 7), (2, 6), (4,))


def test_cyclotomic_rings_always_validate():
    from sring.modarith import unit_subgroups

    for n in range(1, 20):
        for gens in unit_subgroups(n):
            a = cyclotomic_sring(n, gens)
            assert validate(a.n, [list(c) for c in a.classes]) == a


def test_json_round_trip(units8):
    data = units8.to_json_dict()
    assert data == {"n": 8, "classes": [[0], [1, 3, 5, 7], [2, 6], [4]]}
    assert SRing.from_json_dict(data) == units8


def test_duplicate_in_a_class_names_its_first_value():
    with pytest.raises(ValidationError, match="element 1 appears twice"):
        SRing.from_json_dict({"n": 4, "classes": [[0], [1, 2, 2, 1], [3]]})


def test_duplicate_check_is_linear():
    c = list(range(20000)) + [19999]
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="element 19999 appears twice"):
        SRing.from_json_dict({"n": 20000, "classes": [c]})
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize(
    "n, classes, reason",
    [
        (4.9, [[0], [1, 3], [2]], "group order must be an integer, got 4.9"),
        (True, [[0]], "group order must be an integer, got True"),
        (4, [[0], [1.9, 2, 3]], "classes must be a list of lists of integers"),
        (4, [[0], [True, 3], [2]], "classes must be a list of lists of integers"),
    ],
)
def test_checked_build_refuses_non_integers(n, classes, reason):
    # int() would read 4.9 as 4, 1.9 as 1 and True as 1
    with pytest.raises(ValidationError, match=re.escape(reason)):
        validate(n, classes)
    with pytest.raises(ValidationError, match=re.escape(reason)):
        SRing(n, classes)


def test_checked_build_reads_classes_once(units4):
    # the classes may be one-shot iterators
    assert validate(4, (iter(c) for c in [[0], [1, 3], [2]])) == units4


def test_memo_of_the_ring_alone_holds_its_value():
    calls = []

    @core._per_ring
    def rank_plus_one(a):
        calls.append(a)
        if len(calls) == 1:
            raise ValueError("the first call fails")
        return a.rank + 1

    name = f"{__name__}.{rank_plus_one.__qualname__}"
    a = full_sring(4)
    with pytest.raises(ValueError):
        rank_plus_one(a)
    assert name not in a._cache  # a call that raises keeps nothing
    assert rank_plus_one(a) == 5
    assert rank_plus_one(a) == 5
    assert len(calls) == 2
    assert a._cache[name] == 5  # the value itself, not a dict keyed by ()
    stab = core.class_stabilizer(a)
    assert a._cache["sring.core.class_stabilizer"] is stab
    # a memo with arguments keeps one value per argument tuple
    counts = a.product_counts(1, 2)
    assert a._cache["sring.core.SRing.product_counts"] == {(1, 2): counts}


def test_refines(units4, rank2_4):
    assert refines(full_sring(4), rank2_4)
    assert refines(units4, rank2_4)
    assert not refines(rank2_4, units4)
    assert refines(units4, units4)
