"""Sections, projective equivalence, canonical units, and reduction."""

from __future__ import annotations

import random

import pytest

from sring import (
    NotASection,
    NotEquivalent,
    SRing,
    Section,
    f_unit,
    frs0,
    full_sring,
    is_multiple,
    is_quasidense,
    is_separable,
    principal_sections,
    proj_classes,
    rank2_sring,
    reduce_to_quasidense,
    restrict_to,
    ring_sections,
    s_extension,
    singular_witness,
)
from sring import core, sections
from sring.modarith import divisors, unit_mod
from sring.oracle import enumerate_srings
from test_reference_kernels import _proj_component


def all_sections(n):
    return [
        Section(n, l, u) for u in divisors(n) for l in divisors(u)
    ]


def component_of(s):
    ids = _proj_component(s.n)
    return sorted(t for t, c in ids.items() if c == ids[s])


def test_section_validation():
    s = Section(12, 2, 6)
    assert s.m == 3
    with pytest.raises(NotASection):
        Section(12, 5, 10)
    with pytest.raises(NotASection):
        Section(12, 2, 8)
    with pytest.raises(NotASection):
        Section(12, 4, 2)
    with pytest.raises(NotASection, match=r"^\(5, 6\) is not a section of Z_12$"):
        Section(12, 5, 6)
    for n, l, u in [(12, 1, 0), (12, 1, -4), (12, 2, -6), (0, 1, 1), (-6, 1, 2)]:
        with pytest.raises(NotASection, match=rf"^\({l}, {u}\) is not a section of Z_{n}$"):
            Section(n, l, u)
    assert repr(s) == "Section(n=12, l=2, u=6)"
    assert sorted([s, Section(12, 1, 12), Section(6, 2, 6), Section(12, 1, 4)]) == [
        Section(6, 2, 6),
        Section(12, 1, 4),
        Section(12, 1, 12),
        s,
    ]


def test_section_refuses_fields_that_are_not_ints(units8):
    # 2.0 and True pass the divisibility tests; refused here as bad input,
    # not later as a TheoryViolation of the restriction built from them
    for n, l, u in [(8, 2.0, 4), (8, True, 4), (8.0, 2, 4), (8, 2, "4"), (True, 1, 1)]:
        with pytest.raises(NotASection, match=r"^section orders must be ints, got "):
            Section(n, l, u)
    with pytest.raises(NotASection):
        restrict_to(units8, Section(8, 2.0, 4))


def test_ring_sections(cyc5, units8):
    assert {(s.l, s.u) for s in ring_sections(cyc5)} == {(1, 1), (1, 5), (5, 5)}
    assert len(ring_sections(units8)) == 10  # nested pairs from 1|2|4|8
    # one tuple per ring, whose objects frs0 shares
    secs = ring_sections(units8)
    assert ring_sections(units8) is secs
    assert all(any(s is t for t in secs) for s in frs0(units8))


def test_restrict_to_matches_restriction(units8, units4):
    assert restrict_to(units8, Section(8, 2, 8)) == units4


def test_is_multiple():
    # (1,4) -> (3,12): lcm(4,3)=12 and gcd(4,3)=1.
    assert is_multiple(Section(12, 3, 12), Section(12, 1, 4))
    assert is_multiple(Section(12, 1, 4), Section(12, 1, 4))
    assert not is_multiple(Section(12, 2, 4), Section(12, 1, 2))
    assert not is_multiple(Section(12, 1, 2), Section(12, 1, 4))


def test_proj_classes_examples():
    one = proj_classes(12, [Section(12, 1, 2), Section(12, 3, 6)])
    assert len(one) == 1
    assert one[0].smallest == Section(12, 1, 2)
    assert one[0].largest == Section(12, 3, 6)

    two = proj_classes(12, [Section(12, 1, 2), Section(12, 2, 4)])
    assert len(two) == 2


def test_proj_classes_partition_all_sections():
    for n in (8, 12, 18):
        classes = proj_classes(n, all_sections(n))
        seen = [s for c in classes for s in c.members]
        assert sorted(seen) == sorted(all_sections(n))


def test_prime_power_sections_are_projectively_rigid():
    # Over a cyclic p-group, no two distinct sections are equivalent
    # unless trivial (order one).
    for n in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32):
        for c in proj_classes(n, all_sections(n)):
            if c.members[0].m > 1:
                assert len(c.members) == 1


def test_f_unit_direct_step():
    assert f_unit(Section(12, 1, 4), Section(12, 3, 12)) == 3
    assert f_unit(Section(6, 1, 2), Section(6, 3, 6)) == 1
    assert f_unit(Section(12, 1, 4), Section(12, 1, 4)) == 1


def test_f_unit_requires_equivalence():
    with pytest.raises(NotEquivalent):
        f_unit(Section(12, 1, 2), Section(12, 2, 4))
    with pytest.raises(NotEquivalent):
        f_unit(Section(12, 1, 2), Section(8, 1, 2))


def test_f_unit_is_a_coherent_transport():
    # Composing transports along any two legs agrees with the direct one,
    # so the value cannot depend on the path chosen.
    rng = random.Random(2024)
    for n in (12, 24, 30, 36):
        for _ in range(300):
            s = rng.choice(all_sections(n))
            comp = component_of(s)
            t, w = rng.choice(comp), rng.choice(comp)
            m = s.m
            left = f_unit(s, w)
            right = unit_mod(f_unit(t, w) * f_unit(s, t), m)
            assert left == right
            assert unit_mod(f_unit(t, s) * f_unit(s, t), m) == 1
            assert f_unit(s, s) == 1


def test_principal_sections(units8, cyc5, rank2_4):
    assert {(s.l, s.u) for s in principal_sections(units8)} == {
        (1, 1),
        (1, 2),
        (2, 4),
        (4, 8),
    }
    assert {(s.l, s.u) for s in principal_sections(cyc5)} == {(1, 1), (1, 5)}
    assert {(s.l, s.u) for s in principal_sections(rank2_4)} == {(1, 1), (1, 4)}


def test_frs0(units8, cyc5):
    assert {(s.l, s.u) for s in frs0(units8)} == {
        (1, 1),
        (2, 2),
        (4, 4),
        (8, 8),
        (1, 2),
        (2, 4),
        (4, 8),
    }
    assert {(s.l, s.u) for s in frs0(cyc5)} == {(1, 1), (1, 5), (5, 5)}


def test_frs0_is_closed_under_ring_restriction(units8):
    # Every distinguished section is a ring section.
    assert set(frs0(units8)) <= set(ring_sections(units8))


def test_quasidense(cyc5, units8, units4, rank2_4):
    assert is_quasidense(cyc5)
    assert is_quasidense(units8)
    assert is_quasidense(units4)
    assert not is_quasidense(rank2_4)
    assert not is_quasidense(rank2_sring(6))
    assert is_quasidense(rank2_sring(5))  # prime order is fine


def test_is_quasidense_builds_no_restricted_ring():
    # each section is answered from one class of the ring itself
    core._restricted_ring.cache_clear()
    for ring in enumerate_srings(12) + enumerate_srings(24):
        a = SRing(ring.n, ring.classes, check=False)
        is_quasidense(a)
        assert core._restricted_ring.cache_info().misses == 0
        assert "sring.core.restriction" not in a._cache


def test_separability_scans_each_quasidense_ring_once(monkeypatch):
    # singular_witness reads the is_quasidense memo, so the reduct that ends
    # a reduction is not scanned again when the multipliers are searched
    scanned = []
    find = sections._composite_rank2_section
    monkeypatch.setattr(
        sections, "_composite_rank2_section", lambda a: scanned.append(a) or find(a)
    )
    for ring in enumerate_srings(12):
        is_separable(SRing(ring.n, ring.classes, check=False))
    quasidense = [a for a in scanned if find(a) is None]
    assert len(quasidense) == 32
    assert len({id(a) for a in quasidense}) == len(quasidense)


def test_singular_witness(rank2_4):
    witness, site = singular_witness(rank2_4)
    assert site == Section(4, 1, 4)
    assert witness.smallest == witness.largest == Section(4, 1, 4)


def test_s_extension_increases_rank(rank2_4):
    bigger = s_extension(rank2_4, Section(4, 1, 4))
    assert bigger.rank > rank2_4.rank
    assert bigger == full_sring(4)


def test_reduce_to_quasidense(rank2_4):
    reduct, trace = reduce_to_quasidense(rank2_4)
    assert reduct == full_sring(4)
    assert [(s.l, s.u) for s in trace] == [(1, 4)]


def test_reduce_is_identity_on_quasidense(cyc5):
    reduct, trace = reduce_to_quasidense(cyc5)
    assert reduct == cyc5 and trace == []


def test_reduce_always_lands_quasidense():
    for n in range(1, 17):
        for a in enumerate_srings(n):
            reduct, trace = reduce_to_quasidense(a)
            assert is_quasidense(reduct)
            if not is_quasidense(a):
                assert reduct.rank > a.rank and trace


def test_wreath_rings_reduce():
    # The rank-2 ring over Z_9 is singular at the full section.
    a = rank2_sring(9)
    witness, site = singular_witness(a)
    assert site == Section(9, 1, 9)
    reduct, _ = reduce_to_quasidense(a)
    assert is_quasidense(reduct)


def test_subsection_transport(units8):
    # A section projectively equivalent to a subsection of a principal one
    # stays inside the distinguished family.
    fam = set(frs0(units8))
    ring = set(ring_sections(units8))
    for s in fam:
        if s.m == 1:
            continue
        for t in component_of(s):
            if t in ring:
                assert t in fam
