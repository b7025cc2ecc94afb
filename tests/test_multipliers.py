"""Multipliers, outer multipliers, theta, and the separability decision."""

from __future__ import annotations

import gc
import hashlib
import json
import weakref
from itertools import product

import pytest

import sring.multipliers
from sring import (
    Multiplier,
    Section,
    SRing,
    TheoryViolation,
    aut_stabilizer,
    cyclotomic_sring,
    fmult_group,
    frs0,
    full_sring,
    is_quasidense,
    is_separable,
    is_valid_multiplier,
    is_valid_outer_multiplier,
    mult_group,
    rank2_sring,
    reduce_to_quasidense,
    tensor,
    theta,
)
from sring.modarith import unit_mod, unit_subgroups, units
from sring.multipliers import _is_subsection
from sring.oracle import enumerate_srings
from test_reference_kernels import _proj_component


def test_aut_stabilizer(cyc5, units8):
    assert aut_stabilizer(cyc5, Section(5, 1, 5)).elements == (1, 4)
    assert aut_stabilizer(cyc5, Section(5, 1, 1)).elements == (1,)
    assert aut_stabilizer(units8, Section(8, 1, 8)).elements == (1, 3, 5, 7)
    assert aut_stabilizer(units8, Section(8, 2, 8)).elements == (1, 3)


def test_aut_stabilizer_of_full_restriction():
    a = full_sring(6)
    assert aut_stabilizer(a, Section(6, 1, 6)).elements == (1,)


def test_mult_group_orders(cyc5, units8, units4):
    assert len(mult_group(cyc5)) == 4
    # all distinguished sections of the orbit rings have order at most 2,
    # so the only unit choice is 1 everywhere
    assert len(mult_group(units4)) == 1
    assert len(mult_group(units8)) == 1
    assert len(mult_group(full_sring(5))) == 4


def test_fmult_group_orders(cyc5, units8):
    assert len(fmult_group(cyc5)) == 2
    assert len(fmult_group(units8)) == 1
    assert len(fmult_group(full_sring(5))) == 4


def test_mult_group_requires_quasidense(rank2_4):
    with pytest.raises(ValueError):
        mult_group(rank2_4)


def test_multiplier_group_structure(cyc5):
    group = mult_group(cyc5)
    elems = set(group)
    for mu in group:
        assert is_valid_multiplier(cyc5, mu)
        assert mu.inverse() in elems
        for nu in group:
            assert mu * nu in elems
    vectors = [mu.canonical_vector() for mu in group]
    assert vectors == sorted(vectors)


def test_outer_multiplier_group_structure(units8):
    group = fmult_group(units8)
    elems = set(group)
    for om in group:
        assert is_valid_outer_multiplier(units8, om)
        assert om.inverse() in elems
        for entry in om.to_json_list():
            assert set(entry) == {"l", "u", "k", "stabilizer"}
        for other in group:
            assert om * other in elems


def test_multiplier_congruence_property(cyc5, units8):
    # Along nested sections the chosen unit must reduce consistently.
    for a in (cyc5, units8, full_sring(12)):
        fam = frs0(a)
        for mu in mult_group(a):
            assert is_valid_multiplier(a, mu)
            for s in fam:
                for t in fam:
                    if _is_subsection(t, s):
                        assert unit_mod(mu.unit_for(s), t.m) == mu.unit_for(t)


def test_theta_projects_units_to_cosets(cyc5):
    group = mult_group(cyc5)
    outs = {theta(cyc5, mu) for mu in group}
    assert outs == set(fmult_group(cyc5))
    for mu in group:
        om = theta(cyc5, mu)
        for s in frs0(cyc5):
            stab = set(aut_stabilizer(cyc5, s).elements)
            coset = {unit_mod(e * mu.unit_for(s), s.m) for e in stab}
            assert om.coset_for(s) == coset


def test_theta_guard_runs_on_every_call_and_every_image(monkeypatch):
    # theta validates each projection it returns, and is_separable sends each
    # distinct image of theta through that guard once
    a = cyclotomic_sring(24, [-1])
    mult = mult_group(a)
    image = {theta(a, mu) for mu in mult}
    assert len(mult) == 8 and len(image) == 4
    checked = []

    def rejecting(ring, om):
        checked.append(om)
        return False

    monkeypatch.setattr(sring.multipliers, "is_valid_outer_multiplier", rejecting)
    for mu in mult:
        with pytest.raises(TheoryViolation):
            theta(a, mu)
    assert checked == [
        Multiplier((s, aut_stabilizer(a, s).elements, k) for s, _, k in mu.entries)
        for mu in mult
    ]
    checked.clear()
    monkeypatch.setattr(
        sring.multipliers,
        "is_valid_outer_multiplier",
        lambda ring, om: checked.append(om) or is_valid_outer_multiplier(ring, om),
    )
    _, report = is_separable(a)
    assert sorted(checked, key=Multiplier.canonical_vector) == sorted(
        image, key=Multiplier.canonical_vector
    )
    assert report.theta_image_order == 4


def test_theta_refuses_bad_input_as_bad_input():
    # a multiplier of another ring over Z_12, whose sections are not those
    # of frs0(a), and a family over frs0(a) with a non-unit: both are bad
    # input, not a broken theorem
    a = cyclotomic_sring(12, [5])
    other = mult_group(cyclotomic_sring(12, [7]))[1]
    with pytest.raises(ValueError, match="is not defined over the sections of frs0"):
        theta(a, other)
    mu = mult_group(a)[0]
    s = next(s for s in mu.sections if s.m > 1)
    bad = Multiplier((t, stab, 0 if t == s else k) for t, stab, k in mu.entries)
    assert not is_valid_multiplier(a, bad)
    with pytest.raises(ValueError, match="is not a multiplier of"):
        theta(a, bad)


def test_is_separable_on_named_instances(cyc5, units8, units4, rank2_4):
    for a in (cyc5, units8, units4, rank2_4):
        decided, report = is_separable(a)
        assert decided
        assert report.n == a.n
        assert report.separable is True
        assert report.theta_image_order == report.fmult_order
        assert report.missing is None


def test_separability_report_shape(rank2_4):
    decided, report = is_separable(rank2_4)
    assert decided
    assert report.reduct == full_sring(4)
    assert [(s.l, s.u) for s in report.trace] == [(1, 4)]
    data = report.to_json_dict()
    assert data["separable"] is True
    assert data["reduct"]["n"] == 4
    assert data["trace"] == [{"l": 1, "u": 4}]


def test_theta_image_bounds():
    # The projected multiplier group sits inside the outer multiplier group.
    for n in range(1, 17):
        for a in enumerate_srings(n):
            if not is_quasidense(a):
                continue
            image = {theta(a, mu) for mu in mult_group(a)}
            outer = set(fmult_group(a))
            assert image <= outer


def test_separable_iff_theta_surjective():
    for n in range(1, 17):
        for a in enumerate_srings(n):
            decided, report = is_separable(a)
            assert decided == (report.theta_image_order == report.fmult_order)
            if not decided:
                assert report.missing is not None


def test_wreath_ring_over_composite_is_separable():
    # Rank-2 rings reduce to the full ring, which is plainly separable.
    for n in (4, 6, 8, 9, 12):
        decided, _ = is_separable(rank2_sring(n))
        assert decided


def _all_families(a, stab_of):
    """Every choice of one coset of ``stab_of(s)`` per distinguished section."""
    secs = frs0(a)
    choices = []
    for s in secs:
        cosets = {
            min(unit_mod(k * e, s.m) for e in stab_of(s)) for k in units(s.m).elements
        }
        choices.append(sorted(cosets))
    return [
        Multiplier((s, stab_of(s), k) for s, k in zip(secs, reps))
        for reps in product(*choices)
    ]


def test_enumerators_find_every_valid_family():
    # The backtracking enumerators against an exhaustive filter by the
    # pairwise validators, over every quasidense ring with n <= 12.
    rings = [a for n in range(1, 13) for a in enumerate_srings(n) if is_quasidense(a)]
    assert len(rings) == 68
    for a in rings:
        plain = _all_families(a, lambda s: (1,))
        assert len(plain) <= 512
        assert {mu for mu in plain if is_valid_multiplier(a, mu)} == set(mult_group(a))
        outer = _all_families(a, lambda s: aut_stabilizer(a, s).elements)
        assert {om for om in outer if is_valid_outer_multiplier(a, om)} == set(
            fmult_group(a)
        )


def test_projective_transport_is_enforced():
    # A quasidense ring over Z_24 where (1, 4) and (3, 12) are one projective
    # class.  (1, 4) is a subsection of no other section of frs0, and its own
    # subsections have order at most 2, so a unit of 3 at (1, 4) agrees with
    # every subsection condition and breaks only the transport to (3, 12).
    a = SRing(24, [[0], [1, 3, 9, 11, 17, 19], [2, 10, 14, 22], [4, 20],
                   [5, 7, 13, 15, 21, 23], [6, 18], [8, 16], [12]])
    mult = mult_group(a)
    assert len(mult) == 8
    s, t = Section(24, 1, 4), Section(24, 3, 12)
    assert _proj_component(24)[s] == _proj_component(24)[t]
    one = mult[0]
    assert set(one.canonical_vector()) == {1}
    bad = Multiplier((u, (1,), 3 if u == s else 1) for u in one.sections)
    assert all(
        unit_mod(bad.unit_for(parent), child.m) == bad.unit_for(child)
        for child in bad.sections
        for parent in bad.sections
        if _is_subsection(child, parent)
    )
    assert bad.unit_for(s) != bad.unit_for(t)
    assert not is_valid_multiplier(a, bad)


def test_separability_with_four_free_sections():
    # cyclotomic_sring(720, [7, 11]) is quasidense, and 4 of its 210 sections
    # of frs0 are free; the search it replaced took seconds here, so only the
    # verdict and the group orders are pinned
    a = cyclotomic_sring(720, [7, 11])
    assert len(sring.multipliers._constraints(a).free) == 4
    separable, report = is_separable(a)
    assert separable is True
    assert (report.mult_order, report.fmult_order, report.theta_image_order) == (128, 16, 16)
    assert report.missing is None


def test_families_are_freed_without_the_cycle_collector():
    # the search holds no reference cycle, so a group nobody keeps is freed
    # at once rather than at the next run of the cyclic garbage collector
    a = cyclotomic_sring(24, [-1])
    gc.disable()
    try:
        refs = [weakref.ref(fams[0]) for fams in (mult_group(a), fmult_group(a))]
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def _sha256(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_unit_subgroups_and_multiplier_families_are_unchanged():
    # the SHA-256 of the canonical JSON of the unit subgroups for m < 131,
    # and of every multiplier and outer multiplier of the quasidense reducts
    # of the separability benchmark's four rings and of
    # cyclotomic_sring(720, [7, 11]); the same pins as the CI step "Unit
    # subgroups and multiplier families are unchanged"
    subgroups = [unit_subgroups(m) for m in range(1, 131)]
    assert _sha256(subgroups) == "72e85af526d28850139af766ac73a4edab8ceafe374af47a3d9f782a4f48f445"
    rings = [
        cyclotomic_sring(240, [-1]),
        cyclotomic_sring(210, [-1]),
        rank2_sring(120),
        tensor(rank2_sring(9), cyclotomic_sring(35, [2])),
        cyclotomic_sring(720, [7, 11]),
    ]
    families = []
    for a in rings:
        r = reduce_to_quasidense(a)[0]
        families.append([[f.to_json_list() for f in enum(r)] for enum in (mult_group, fmult_group)])
    assert _sha256(families) == "8336af3500bc4871c2729bc9109b8e54f8e6d1341f4c37f8edbac6be7e629438"
