"""Multiplier families over distinguished sections and the separability test.

A multiplier assigns to every distinguished section a unit of its order,
consistently under taking subsections and under projective transport.  An
outer multiplier assigns instead a coset of the section's class-stabilizing
units.  Both are families of cosets of one class, :class:`Multiplier`; a
multiplier is the family whose stabilizers are all trivial.  Separability of
a quasidense ring is equivalent to every outer multiplier being covered by a
plain multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import SRing, _per_ring, class_stabilizer, coset_mins
from .errors import TheoryViolation
from .modarith import unit_mod, units
from .sections import (
    Section,
    _proj_key,
    frs0,
    is_quasidense,
    reduce_to_quasidense,
    restrict_to,
)

__all__ = [
    "AutStabilizer",
    "Multiplier",
    "OuterMultiplier",
    "aut_stabilizer",
    "mult_group",
    "fmult_group",
    "theta",
    "is_valid_multiplier",
    "is_valid_outer_multiplier",
    "SeparabilityReport",
    "is_separable",
]


@dataclass(frozen=True)
class AutStabilizer:
    """Units fixing every class of the restriction to one section."""

    section: Section
    elements: tuple[int, ...]


@_per_ring
def aut_stabilizer(a: SRing, s: Section) -> AutStabilizer:
    return AutStabilizer(s, class_stabilizer(restrict_to(a, s)))


def _is_subsection(child: Section, parent: Section) -> bool:
    return child.l % parent.l == 0 and parent.u % child.u == 0


class Multiplier:
    """A consistent choice of one stabilizer coset per distinguished section.

    Entries are ``(section, stabilizer, unit)`` triples, and each coset is
    the stabilizer times the unit modulo the section order.  A multiplier is
    the family whose stabilizer is ``(1,)`` at every section, so that every
    coset is one unit; an outer multiplier takes the class-stabilizing units
    of each section instead.
    """

    def __init__(self, entries: Iterable[tuple[Section, tuple[int, ...], int]]):
        self.entries = tuple(
            sorted(
                (s, tuple(sorted(stab)), min(unit_mod(e * rep, s.m) for e in stab))
                for s, stab, rep in entries
            )
        )

    @classmethod
    def _canonical(cls, entries: tuple) -> "Multiplier":
        """A family from entries already as ``__init__`` leaves them: in
        section order, each stabilizer sorted, each unit the smallest of its
        coset."""
        fam = cls.__new__(cls)
        fam.entries = entries
        return fam

    @cached_property
    def _by_section(self) -> dict[Section, tuple[Section, tuple[int, ...], int]]:
        # built on first lookup: most families of a group are never looked up
        return {entry[0]: entry for entry in self.entries}

    def coset_for(self, s: Section) -> frozenset[int]:
        _, stab, rep = self._by_section[s]
        return frozenset(unit_mod(e * rep, s.m) for e in stab)

    def unit_for(self, s: Section) -> int:
        """The smallest unit of the coset at ``s``."""
        return self._by_section[s][2]

    @property
    def sections(self) -> tuple[Section, ...]:
        return tuple(s for s, _, _ in self.entries)

    def canonical_vector(self) -> tuple[int, ...]:
        return tuple(rep for _, _, rep in self.entries)

    def __mul__(self, other: "Multiplier") -> "Multiplier":
        if self.sections != other.sections:
            raise ValueError("multipliers are defined over different section families")
        return Multiplier(
            (s, stab, unit_mod(rep * other.unit_for(s), s.m))
            for s, stab, rep in self.entries
        )

    def inverse(self) -> "Multiplier":
        return Multiplier(
            (s, stab, pow(rep, -1, s.m) if s.m > 1 else 1)
            for s, stab, rep in self.entries
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Multiplier) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        body = ", ".join(
            f"({s.l},{s.u})->{sorted(self.coset_for(s))}" for s, _, _ in self.entries
        )
        return f"Multiplier[{body}]"

    def to_json_list(self) -> list[dict]:
        return [
            {"l": s.l, "u": s.u, "k": rep, "stabilizer": list(stab)}
            for s, stab, rep in self.entries
        ]


OuterMultiplier = Multiplier

_TRIVIAL = (1,)


# -- enumeration -------------------------------------------------------------


class _Constraints(NamedTuple):
    """The constraint lists of ``frs0(a)`` and the roots that the search reads
    from them; see ``_constraints`` and ``_rooted``."""

    secs: tuple[Section, ...]
    supers: tuple[tuple[int, ...], ...]
    peers: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]
    free: tuple[int, ...]
    roots: tuple[int, ...]
    checks: tuple[tuple[tuple[int, int], ...], ...]


def _rooted(
    secs: tuple[Section, ...],
    supers: tuple[tuple[int, ...], ...],
    peers: tuple[tuple[int, ...], ...],
) -> _Constraints:
    """The constraint lists with the section order, the free sections, each
    section's root and the pairwise checks between roots.

    Section i is linked to the sections of ``supers[i]``, then of
    ``peers[i]``, all earlier than i.  A section with no link is free, and
    ``free`` lists the free sections by index.  ``roots[i]`` is the position
    in ``free`` of the root of section i: its own if it is free, else the root
    of its first link.  Each further link j of section i asks that the roots
    of i and j give section i one coset; when the roots differ, that check is
    ``(i, b)`` in ``checks[a]``, where a > b are the positions of the two
    roots, so it runs as soon as the later root has a value.
    """
    order = tuple(sorted(range(len(secs)), key=secs.__getitem__))
    free: list[int] = []
    roots: list[int] = []
    checks: list[set[tuple[int, int]]] = []
    for i, (sup, peer) in enumerate(zip(supers, peers)):
        links = sup + peer
        if not links:
            roots.append(len(free))
            free.append(i)
            checks.append(set())
            continue
        r = roots[links[0]]
        roots.append(r)
        for j in links[1:]:
            if roots[j] != r:
                checks[max(r, roots[j])].add((i, min(r, roots[j])))
    return _Constraints(
        secs, supers, peers, order, tuple(free), tuple(roots),
        tuple(tuple(sorted(c)) for c in checks),
    )


@_per_ring
def _constraints(a: SRing) -> _Constraints:
    """The sections of ``frs0(a)`` in search order, with each one's constraint
    lists: its covering supersections and the first projective peer, and the
    roots that ``_rooted`` reads from them.

    Sections are ordered by decreasing order m.  ``supers[i]`` lists the
    covering supersections of section i: the indices j whose section contains
    section i as a subsection with no section of ``frs0(a)`` strictly between
    them.  ``peers[i]`` holds the first projective peer: the smallest index
    in the projective class of section i, unless that is i itself.  Both hold
    only j < i, since a proper subsection has a smaller order and projectively
    equivalent sections have equal orders.  ``order`` lists the search
    indices in section order, the order of a family's entries.

    These pairs generate every constraint on a family:

    - Restriction is transitive.  If R_t(C_t') <= C_t and R_s(C_t) <= C_s,
      then R_s(C_t') <= C_s, because m_s | m_t | m_t'.  The subsection
      relation on ``frs0(a)`` is the transitive closure of the covering one,
      and every section is checked, so every link of each chain is checked.
      Equality of cosets across projective peers is an equivalence.  So the
      validator gives the verdict of a check over every pair, on any
      family, valid or not.
    - The search compares only the chosen unit of each coset.  If rep_t' mod
      m_t is e * rep_t with e in the stabilizer at t, then rep_t' mod m_s is
      (e mod m_s) * rep_t, and e mod m_s lies in the stabilizer at s: on the
      subquotient s of t, multiplication by e acts as e mod m_s, so a unit
      fixing every class of the restriction to t fixes every class of the
      restriction to s.  The chosen units therefore meet the constraints of
      every pair, as the validator requires.
    """
    secs = tuple(sorted(frs0(a), key=lambda s: (-s.m, s.l, s.u)))
    above = [
        {j for j, t in enumerate(secs[:i]) if _is_subsection(s, t)}
        for i, s in enumerate(secs)
    ]
    supers = tuple(
        tuple(sorted(j for j in sup if not any(j in above[k] for k in sup)))
        for sup in above
    )
    first: dict[tuple[int, int], int] = {}
    peers = tuple(
        () if (j := first.setdefault(_proj_key(s), i)) == i else (j,)
        for i, s in enumerate(secs)
    )
    return _rooted(secs, supers, peers)


@_per_ring
def _coset_tables(a: SRing) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """For each section of ``frs0(a)``, in the search order of ``_constraints``:
    the class stabilizer of the restriction to it, and that stabilizer's
    ``coset_mins`` table.

    Both live on the restricted ring, which every ring with the same
    restriction shares; these tuples only point at them.
    """
    rings = [restrict_to(a, s) for s in _constraints(a)[0]]
    return tuple(map(class_stabilizer, rings)), tuple(map(coset_mins, rings))


def _section_tables(
    a: SRing, secs: tuple[Section, ...], outer: bool
) -> tuple[Sequence[tuple[int, ...]], Sequence[Sequence[int]]]:
    """Stabilizer and coset table at each of ``secs``, the sections of
    ``_constraints(a)``: the class-fixing units for outer multipliers, the
    trivial group for multipliers.

    A table maps each unit k, read at k mod m, to the smallest unit of its
    coset.  Under the trivial group that is the unit itself, so ``range(m)``
    serves, except at m = 1, where the unit is written 1 (see ``unit_mod``)
    and the table is (1, 1), as ``coset_mins`` gives it.
    """
    if outer:
        return _coset_tables(a)
    return [_TRIVIAL] * len(secs), [range(s.m) if s.m > 1 else (1, 1) for s in secs]


def _families(a: SRing, outer: bool) -> list[Multiplier]:
    """All consistent coset families: of the class-stabilizer cosets when
    ``outer`` is true, else of single units.

    ``canon[i]`` maps each unit modulo the order m_i of section i to the
    smallest unit of its coset, so coset membership is a comparison of
    integers and every chosen unit is already the smallest of its coset.
    The search branches only over the free sections of ``_constraints``,
    over the smallest unit of each coset there.  Every other section i has
    the coset ``canon[i][v % m_i]``, where v is the unit chosen at its root,
    and each pairwise check of ``_constraints`` compares two such cosets.
    This gives every family, and only families, for three reasons:

    - m_i divides the order of its root, since along the chain of first
      links each order divides the one before (a supersection's order is a
      multiple, a peer's order is equal), so v mod m_i is defined.
    - The coset at a supersection t of i is e * v mod m_t for some e in the
      stabilizer at t, and its reduction mod m_i, (e mod m_i) * v, lies in
      the coset at i, since e mod m_i lies in the stabilizer at i (see
      ``_constraints``).  So the coset that a family must take at i, read
      from its first link, is the one read from its root, and a further link
      j holds exactly when the roots of i and j give section i one coset.
    - Peers have one order and equal stabilizers, so they share one
      ``coset_mins`` table, and a peer's coset read through that table is
      its own.  The stabilizers are equal because projectively equivalent
      sections S and T are both multiples of their meet D (in the notation
      of ``_proj_key``, l = c * k_l and u = c * k_u with c coprime to m, and
      D takes gcd(c, c') in place of c), which is a section of the ring
      since its subgroups are intersections of ring subgroups.  For a
      multiple S of D, the natural isomorphism H_u(D)/H_l(D) -> H_u/H_l
      maps the image of each class inside H_u(D) onto that class's image in
      H_u/H_l; these images cover H_u/H_l, so they are all the classes of
      the restriction to S.  In the coordinates of ``restrict_to`` that
      isomorphism is multiplication by the unit f = ``f_unit(D, S)``, and
      k * fY = f * kY, so a unit fixes every class at D exactly when it
      fixes every class at S.  The check below is kept as a guard: peers
      with different stabilizers would admit no family at all.
    """
    if not is_quasidense(a):
        raise ValueError("multiplier enumeration requires a quasidense ring")
    secs, _, peers, order, free, roots, checks = _constraints(a)
    stabs, canon = _section_tables(a, secs, outer)
    if any(stabs[j] != stabs[i] for i, peer in enumerate(peers) for j in peer):
        return []
    cands = [[k for k in units(secs[i].m).elements if canon[i][k] == k] for i in free]
    tests = [[(canon[i], secs[i].m, b) for i, b in check] for check in checks]
    layout = [(secs[i], stabs[i], canon[i], secs[i].m, roots[i]) for i in order]
    out: list[Multiplier] = []
    _extend(0, [0] * len(free), cands, tests, layout, out)
    return sorted(out, key=Multiplier.canonical_vector)


def _extend(
    d: int,
    value: list[int],
    cands: list[list[int]],
    tests: list[list[tuple[Sequence[int], int, int]]],
    layout: list[tuple[Section, tuple[int, ...], Sequence[int], int, int]],
    out: list[Multiplier],
) -> None:
    """Give the free section at position d each candidate unit that passes
    its checks against the units ``value[:d]`` chosen before it, and append
    every family that the units complete to ``out``.

    A module-level function, not a closure: a closure that calls itself is a
    reference cycle, which would keep ``out`` and every family in it alive
    until the cyclic garbage collector runs.
    """
    if d == len(value):
        out.append(
            Multiplier._canonical(
                tuple((s, stab, table[value[r] % m]) for s, stab, table, m, r in layout)
            )
        )
        return
    for v in cands[d]:
        if all(table[v % m] == table[value[b] % m] for table, m, b in tests[d]):
            value[d] = v
            _extend(d + 1, value, cands, tests, layout, out)


def mult_group(a: SRing) -> list[Multiplier]:
    """All multipliers of a quasidense ring, in canonical order."""
    return _families(a, False)


def fmult_group(a: SRing) -> list[Multiplier]:
    """All outer multipliers of a quasidense ring, in canonical order."""
    return _families(a, True)


# -- validation and the quotient map -----------------------------------------


def _is_family(a: SRing, fam: Multiplier, outer: bool) -> bool:
    """Restriction and transport checks over the constraint lists of ``frs0(a)``.

    A family must list each section of ``frs0(a)`` exactly once, each with a
    unit and a stabilizer that reduces to the expected one; the coset at a
    section is then named by the ``canon`` entry of its unit.  Once section
    t has passed, its coset is rep_t times the expected stabilizer S_t, so a
    covering pair needs only rep_t mod m_s to lie in the coset at s: the
    reduction of S_t lies in S_s (see ``_constraints``), so the whole reduced
    coset follows.  Projective peers have one order, and two cosets of
    subgroups are equal exactly when the subgroups and the cosets' smallest
    units are.
    """
    secs, supers, peers = _constraints(a)[:3]
    by_section = fam._by_section
    if len(fam.entries) != len(secs) or any(s not in by_section for s in secs):
        return False
    stabs, tables = _section_tables(a, secs, outer)
    reps: list[int] = []
    labels: list[int] = []
    for s, sup, peer, want, canon in zip(secs, supers, peers, stabs, tables):
        _, stab, rep = by_section[s]
        m = s.m
        # a unit rep multiplies Z_m bijectively, so the cosets through rep
        # are equal exactly when the stabilizers reduce to one set
        if gcd(rep, m) != 1 or (
            stab != want and {unit_mod(e, m) for e in stab} != set(want)
        ):
            return False
        label = canon[rep % m]
        for j in sup:
            if canon[reps[j] % m] != label:
                return False
        for j in peer:
            if labels[j] != label or stabs[j] != want:
                return False
        reps.append(rep)
        labels.append(label)
    return True


def is_valid_multiplier(a: SRing, mu: Multiplier) -> bool:
    """Whether ``mu`` is a multiplier: a consistent family of single units."""
    return _is_family(a, mu, False)


def is_valid_outer_multiplier(a: SRing, om: Multiplier) -> bool:
    """Whether ``om`` is a consistent family of class-stabilizer cosets."""
    return _is_family(a, om, True)


def _project(a: SRing, mu: Multiplier) -> Multiplier:
    """The family of stabilizer cosets through the units of ``mu``, unchecked.

    ``mu`` lists the sections of ``frs0(a)``; the validator rejects a
    family with a non-unit, whose coset entry is 0.
    """
    order = _constraints(a).order
    stabs, canons = _coset_tables(a)
    entries = []
    for p, (s, _, k) in enumerate(mu.entries):
        # entry p of a family over frs0(a) is search section order[p]
        i = order[p]
        entries.append((s, stabs[i], canons[i][k % s.m]))
    return Multiplier._canonical(tuple(entries))


def theta(a: SRing, mu: Multiplier) -> Multiplier:
    """Project a multiplier to the outer multiplier of its stabilizer cosets.

    A family over other sections than ``frs0(a)`` raises ``ValueError``
    before it is projected.  A projection that is not an outer multiplier
    raises ``ValueError`` when ``mu`` is not a multiplier of ``a``, and
    ``TheoryViolation`` when it is; that check runs only after the
    projection failed, so valid input pays nothing for it.
    """
    if mu.sections != frs0(a):
        raise ValueError(f"{mu!r} is not defined over the sections of frs0 of {a!r}")
    om = _project(a, mu)
    if not is_valid_outer_multiplier(a, om):
        if not is_valid_multiplier(a, mu):
            raise ValueError(f"{mu!r} is not a multiplier of {a!r}")
        raise TheoryViolation(  # pragma: no cover - theory
            f"projection of {mu!r} is not an outer multiplier"
        )
    return om


# -- the decision procedure ---------------------------------------------------


@dataclass
class SeparabilityReport:
    """Outcome of the separability decision on one ring."""

    n: int
    separable: bool
    reduct: SRing
    trace: list[Section]
    mult_order: int
    fmult_order: int
    theta_image_order: int
    missing: Optional[Multiplier] = field(default=None)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "separable": self.separable,
            "reduct": self.reduct.to_json_dict(),
            "trace": [s.to_json_dict() for s in self.trace],
            "mult_order": self.mult_order,
            "fmult_order": self.fmult_order,
            "theta_image_order": self.theta_image_order,
            "missing": None if self.missing is None else self.missing.to_json_list(),
        }


def is_separable(a: SRing) -> tuple[bool, SeparabilityReport]:
    """Decide separability: reduce to quasidense, then test surjectivity of theta."""
    reduct, trace = reduce_to_quasidense(a)
    mult = mult_group(reduct)
    fmult = fmult_group(reduct)
    # a valid outer family is fixed by its cosets at the free sections (see
    # _families), so those name each image of θ; one multiplier per image
    # goes through θ and its guard, and the checked copy is dropped
    c = _constraints(reduct)
    canons = _coset_tables(reduct)[1]
    at = [(c.order.index(i), canons[i], c.secs[i].m) for i in c.free]

    def key(fam: Multiplier) -> tuple[int, ...]:
        return tuple(canon[fam.entries[p][2] % m] for p, canon, m in at)

    image = {key(mu): mu for mu in mult}
    for mu in image.values():
        theta(reduct, mu)
    missing = sorted(
        (om for om in fmult if key(om) not in image),
        key=Multiplier.canonical_vector,
    )
    separable = not missing
    report = SeparabilityReport(
        n=a.n,
        separable=separable,
        reduct=reduct,
        trace=trace,
        mult_order=len(mult),
        fmult_order=len(fmult),
        theta_image_order=len(image),
        missing=missing[0] if missing else None,
    )
    return separable, report
