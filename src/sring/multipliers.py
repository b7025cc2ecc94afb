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
from typing import Callable, Iterable, Optional

from .core import SRing, _per_ring, class_stabilizer
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


@_per_ring
def _constraints(a: SRing) -> tuple[
    tuple[Section, ...],
    tuple[tuple[int, ...], ...],
    tuple[tuple[int, ...], ...],
    tuple[int, ...],
]:
    """The sections of ``frs0(a)`` in search order, with each one's constraint
    lists: its covering supersections and the first projective peer.

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
    order = tuple(sorted(range(len(secs)), key=secs.__getitem__))
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
    return secs, supers, peers, order


def _families(a: SRing, stab_of: Callable[[Section], tuple[int, ...]]) -> list[Multiplier]:
    """All consistent coset families with stabilizer ``stab_of(s)`` at each section.

    ``canon[i]`` maps each unit modulo the order of section i to the smallest
    unit of its coset, so coset membership is a comparison of integers and
    every chosen unit is already the smallest of its coset.  A section under
    an already chosen supersection, or projectively equivalent to an already
    chosen section, has one possible coset; only the rest branch.  Peers with
    different stabilizers admit no family at all.
    """
    if not is_quasidense(a):
        raise ValueError("multiplier enumeration requires a quasidense ring")
    secs, supers, peers, order = _constraints(a)
    stabs = [stab_of(s) for s in secs]
    if any(stabs[j] != stabs[i] for i, peer in enumerate(peers) for j in peer):
        return []
    canon = [
        {k: k for k in units(s.m).elements}
        if stab == _TRIVIAL
        else {k: min(unit_mod(k * e, s.m) for e in stab) for k in units(s.m).elements}
        for s, stab in zip(secs, stabs)
    ]
    reps = [sorted(set(c.values())) for c in canon]
    chosen = [0] * len(secs)
    out: list[Multiplier] = []

    def extend(i: int) -> None:
        if i == len(secs):
            out.append(
                Multiplier._canonical(tuple((secs[j], stabs[j], chosen[j]) for j in order))
            )
            return
        m, sup, peer = secs[i].m, supers[i], peers[i]
        if sup:
            cands = [canon[i][unit_mod(chosen[sup[0]], m)]]
        elif peer:
            cands = [chosen[peer[0]]]
        else:
            cands = reps[i]
        for rep in cands:
            if all(canon[i][unit_mod(chosen[j], m)] == rep for j in sup) and all(
                chosen[j] == rep for j in peer
            ):
                chosen[i] = rep
                extend(i + 1)

    extend(0)
    return sorted(out, key=Multiplier.canonical_vector)


def mult_group(a: SRing) -> list[Multiplier]:
    """All multipliers of a quasidense ring, in canonical order."""
    return _families(a, lambda s: _TRIVIAL)


def fmult_group(a: SRing) -> list[Multiplier]:
    """All outer multipliers of a quasidense ring, in canonical order."""
    return _families(a, lambda s: aut_stabilizer(a, s).elements)


# -- validation and the quotient map -----------------------------------------


def _is_family(
    a: SRing, fam: Multiplier, stab_of: Callable[[Section], tuple[int, ...]]
) -> bool:
    """Restriction and transport checks over the constraint lists of ``frs0(a)``.

    A family must list each section of ``frs0(a)`` exactly once.
    """
    secs, supers, peers, _ = _constraints(a)
    by_section = fam._by_section
    if len(fam.entries) != len(secs) or any(s not in by_section for s in secs):
        return False
    cosets: list[frozenset[int]] = []
    for s, sup, peer in zip(secs, supers, peers):
        _, stab, rep = by_section[s]
        m = s.m
        coset = frozenset(unit_mod(e * rep, m) for e in stab)
        if gcd(rep, m) != 1 or coset != frozenset(unit_mod(e * rep, m) for e in stab_of(s)):
            return False
        for j in sup:
            if not {unit_mod(k, m) for k in cosets[j]} <= coset:
                return False
        for j in peer:
            if cosets[j] != coset:
                return False
        cosets.append(coset)
    return True


def is_valid_multiplier(a: SRing, mu: Multiplier) -> bool:
    """Whether ``mu`` is a multiplier: a consistent family of single units."""
    return _is_family(a, mu, lambda s: _TRIVIAL)


def is_valid_outer_multiplier(a: SRing, om: Multiplier) -> bool:
    """Whether ``om`` is a consistent family of class-stabilizer cosets."""
    return _is_family(a, om, lambda s: aut_stabilizer(a, s).elements)


def _project(a: SRing, mu: Multiplier) -> Multiplier:
    """The family of stabilizer cosets through the units of ``mu``, unchecked."""
    entries = []
    for s, _, k in mu.entries:
        stab = aut_stabilizer(a, s).elements
        m = s.m
        entries.append((s, stab, min(unit_mod(k * e, m) for e in stab)))
    return Multiplier._canonical(tuple(entries))


def theta(a: SRing, mu: Multiplier) -> Multiplier:
    """Project a multiplier to the outer multiplier of its stabilizer cosets."""
    om = _project(a, mu)
    if not is_valid_outer_multiplier(a, om):  # pragma: no cover - theory
        raise TheoryViolation(f"projection of {mu!r} is not an outer multiplier")
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
    # each distinct image with one multiplier mapping to it; θ's guard runs
    # once per image, and its checked copy is dropped so one copy stays alive
    image = {_project(reduct, mu): mu for mu in mult}
    for mu in image.values():
        theta(reduct, mu)
    missing = sorted(
        (om for om in fmult if om not in image),
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
