"""Similarities: search, restriction, and the outer-multiplier bridge."""

from __future__ import annotations

import importlib
import re
import tracemalloc

import pytest

from sring import (
    Multiplier,
    NoInducingUnit,
    Section,
    Similarity,
    SRing,
    TheoryViolation,
    cyclotomic_sring,
    from_unit,
    frs0,
    fs_of,
    full_sring,
    identity_similarity,
    inducing_unit,
    is_quasidense,
    is_similarity,
    mult_group,
    rank2_sring,
    restrict_similarity,
    restrict_to,
    similarities,
    similarity_from_outer,
    theta,
)
from sring.modarith import units
from sring.oracle import enumerate_srings
from sring.sections import _class_sections
from sring.similarities import _constants


def test_identity_is_a_similarity(cyc5):
    ident = identity_similarity(cyc5)
    assert ident.is_identity
    assert is_similarity(cyc5, cyc5, ident.class_map)


def test_similarity_count_on_unit_orbit_ring(cyc5):
    maps = [phi.class_map for phi in similarities(cyc5, cyc5)]
    assert maps == [(0, 1, 2), (0, 2, 1)]


def test_similarities_of_full_ring_are_unit_maps():
    for n in (2, 3, 4, 5, 6, 8, 12):
        a = full_sring(n)
        sims = similarities(a, a)
        assert len(sims) == units(n).order
        # each map is multiplication by a unit on the singleton classes
        for phi in sims:
            k = phi.image_of(a.class_of[1])[0]
            assert k in units(n)
            for x in range(n):
                assert phi.image_of(a.class_of[x]) == (x * k % n,)


def test_similarities_of_full_ring_67_are_its_66_unit_maps():
    # the discrete ring over Z_67, past the oracle's bound: every similarity
    # is induced by a unit, and the 66 units induce distinct maps
    a = full_sring(67)
    maps = [phi.class_map for phi in similarities(a, a)]
    assert maps == sorted(from_unit(a, k).class_map for k in units(67).elements)
    assert len(maps) == 66


def test_structure_constant_table_peaks_near_its_own_size():
    # rank 128: the bytes table is r^3 = 2,097,152 bytes, built in place in
    # one buffer of that size; lists of r^3 Python ints would peak past
    # 30 MB
    a = full_sring(128)
    tracemalloc.start()
    try:
        table = _constants(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 128**3
    assert peak <= 3 * 128**3, peak


def test_similarities_between_different_rings(cyc5, units4, rank2_4):
    assert similarities(cyc5, full_sring(5)) == []
    assert similarities(units4, rank2_4) == []
    other = SRing(5, [[0], [2, 3], [1, 4]])
    assert len(similarities(cyc5, other)) == 2


def test_similarity_group_axioms(units8):
    sims = similarities(units8, units8)
    maps = {phi.class_map for phi in sims}
    for phi in sims:
        assert phi.inverse().class_map in maps
        for psi in sims:
            assert phi.then(psi).class_map in maps


def test_then_requires_matching_rings(cyc5, units8):
    phi = identity_similarity(cyc5)
    psi = identity_similarity(units8)
    with pytest.raises(ValueError):
        phi.then(psi)


def test_similarity_preserves_class_sizes_and_subgroups():
    for n in range(2, 13):
        for a in enumerate_srings(n):
            for phi in similarities(a, a):
                for i, cls in enumerate(a.classes):
                    assert len(phi.image_of(i)) == len(cls)
                # subgroup classes map to subgroup classes
                for i, cls in enumerate(a.classes):
                    members = set(cls)
                    if all((x + y) % n in members | {0} for x in cls for y in cls):
                        img = set(phi.image_of(i))
                        assert all(
                            (x + y) % n in img | {0} for x in img for y in img
                        )


def test_restrict_similarity(units8, units4):
    phi = identity_similarity(units8)
    sub = restrict_similarity(phi, Section(8, 2, 8))
    assert sub.source == units4 and sub.is_identity


def test_from_unit(cyc5):
    swap = from_unit(cyc5, 2)
    assert swap is not None and swap.class_map == (0, 2, 1)
    ident = from_unit(cyc5, 4)
    assert ident is not None and ident.is_identity
    with pytest.raises(ValueError):
        from_unit(SRing(8, [[0], [1, 3, 5, 7], [2, 6], [4]]), 2)


def test_every_unit_permutes_the_classes():
    # Multiplication by any unit maps each class onto a class (Schur's
    # theorem), the one from_unit reads off a single element of it.
    for n in range(1, 37):
        for a in enumerate_srings(n):
            for k in units(n).elements:
                image = [frozenset(k * x % n for x in cls) for cls in a.classes]
                got = [frozenset(a.classes[j]) for j in from_unit(a, k).class_map]
                assert got == image, (a, k)


def test_outer_map_reads_the_preimage_of_each_unit_image():
    # For a class X of a quasidense ring with section p = (l, u), q = n / l
    # and any unit k mod m, the class of k * min(X) mod q, which
    # similarity_from_outer reads, is the preimage of {k * x mod q : x in X}.
    pairs = 0
    for n in range(1, 37):
        for a in enumerate_srings(n):
            if not is_quasidense(a):
                continue
            for cls, p in zip(a.classes, _class_sections(a)):
                q = n // p.l
                for k in units(p.m).elements:
                    image = {k * x % q for x in cls}
                    preimage = {y for y in range(n) if y % q in image}
                    assert set(a.classes[a.class_of[k * cls[0] % q]]) == preimage, (a, cls, k)
                    pairs += 1
    assert pairs == 42073


def test_inducing_unit(cyc5):
    sims = similarities(cyc5, cyc5)
    ident = [phi for phi in sims if phi.is_identity][0]
    swap = [phi for phi in sims if not phi.is_identity][0]
    assert inducing_unit(cyc5, ident) == 1
    assert inducing_unit(cyc5, swap) == 2
    assert inducing_unit(rank2_sring(3), identity_similarity(rank2_sring(3))) == 1


def test_inducing_unit_requires_a_similarity_of_the_ring():
    other = identity_similarity(rank2_sring(7))
    with pytest.raises(ValueError, match="^similarity does not act on the given ring$"):
        inducing_unit(rank2_sring(5), other)
    # a class map between two rings of rank 3: its source or its target is
    # not the ring
    a, b = SRing(5, [[0], [1, 4], [2, 3]]), SRing(7, [[0], [1, 2, 4], [3, 5, 6]])
    for ring in (a, b):
        with pytest.raises(ValueError, match="^similarity does not act on the given ring$"):
            inducing_unit(ring, Similarity(a, b, (0, 1, 2)))
    assert inducing_unit(a, identity_similarity(SRing(5, a.classes))) == 1


def test_fs_of_requires_quasidense(rank2_4):
    with pytest.raises(ValueError):
        fs_of(rank2_4, identity_similarity(rank2_4))


def test_fs_of_round_trip_small():
    for n in range(1, 15):
        for a in enumerate_srings(n):
            if not is_quasidense(a):
                continue
            for phi in similarities(a, a):
                om = fs_of(a, phi)
                back = similarity_from_outer(a, om)
                assert back.class_map == phi.class_map


def test_fs_of_identity_gives_trivial_cosets(units8):
    om = fs_of(units8, identity_similarity(units8))
    for s in frs0(units8):
        assert 1 in om.coset_for(s)


def test_every_multiplier_rebuilds_the_similarity_of_its_theta_image():
    # a plain multiplier carries at many sections at once a unit that is not
    # the smallest of its stabilizer coset; theta keeps the coset, so both
    # families rebuild the same similarity
    rings = [a for n in range(1, 25) for a in enumerate_srings(n) if is_quasidense(a)]
    rings.append(cyclotomic_sring(72, [11, 13]))
    checked = 0
    for a in rings:
        for mu in mult_group(a):
            assert similarity_from_outer(a, mu) == similarity_from_outer(a, theta(a, mu)), (a, mu)
            checked += 1
    assert checked == 2581


def test_similarity_from_outer_rejects_wrong_sections(cyc5, units8):
    om = fs_of(units8, identity_similarity(units8))
    with pytest.raises(ValueError):
        similarity_from_outer(cyc5, om)


def test_similarity_from_outer_rejects_a_repeated_section(units8):
    # every section of frs0 appears, but one of them twice: the family is
    # not one unit per section, so it is refused rather than read in part
    om = fs_of(units8, identity_similarity(units8))
    s, stab, k = om.entries[-1]
    twice = Multiplier(om.entries + ((s, stab, k),))
    assert set(twice.sections) == set(frs0(units8))
    with pytest.raises(ValueError, match="not defined over this ring's sections"):
        similarity_from_outer(units8, twice)


@pytest.mark.parametrize(
    "a, cmap, s",
    [
        # moves the class {4} out of H_2
        (SRing(8, [[0], [4], [2, 6], [1, 3, 5, 7]]), (0, 3, 2, 1), Section(8, 1, 2)),
        # swaps {2} and {3}, so the map of Z_4 / H_2 is not well defined
        (full_sring(4), (0, 1, 3, 2), Section(4, 2, 4)),
    ],
)
def test_class_maps_that_are_not_similarities_are_bad_input(a, cmap, s, monkeypatch):
    # a bad class map fails a restriction check that a similarity always
    # passes; fs_of and restrict_similarity then refuse it as input
    bad = Similarity(a, a, cmap)
    message = "^" + re.escape(f"class map {cmap} is not a similarity") + "$"
    with pytest.raises(ValueError, match=message):
        fs_of(a, bad)
    with pytest.raises(ValueError, match=message):
        restrict_similarity(bad, s)
    for phi in similarities(a, a):
        assert similarity_from_outer(a, fs_of(a, phi)) == phi
        assert restrict_similarity(phi, s).source == restrict_to(a, s)
    # on a genuine similarity a failed check is still a broken theorem
    def broken(*args):
        raise TheoryViolation("broken")

    module = importlib.import_module("sring.similarities")
    monkeypatch.setattr(module, "_fs_units", broken)
    monkeypatch.setattr(module, "_restricted_map", broken)
    phi = identity_similarity(a)
    with pytest.raises(TheoryViolation, match="^broken$"):
        fs_of(a, phi)
    with pytest.raises(TheoryViolation, match="^broken$"):
        restrict_similarity(phi, s)
