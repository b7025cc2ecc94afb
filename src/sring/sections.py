"""Sections of Z_n, projective equivalence, and the quasidense reduction.

A section is a pair of nested subgroups H_l <= H_u, identified by their
orders (l, u) since Z_n has one subgroup per divisor.  Section S' = (l', u')
is a multiple of S = (l, u) when H_u * H_l' = H_u' and H_u inter H_l' = H_l;
the transitive closure of this relation over all sections of Z_n is
projective equivalence, and along it every section of order m carries a
canonical identification with Z_m given by multiplication by a unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple, Optional

from .core import (
    SRing,
    _generated,
    _per_ring,
    _radical,
    _wl_stabilize,
    is_wreath,
    restriction,
    sections_lattice,
    tensor,
)
from .errors import NotASection, NotEquivalent, SingularConditionViolated, TheoryViolation
from .modarith import is_prime

__all__ = [
    "Section",
    "ProjClass",
    "ring_sections",
    "restrict_to",
    "is_multiple",
    "proj_classes",
    "f_unit",
    "principal_sections",
    "frs0",
    "is_quasidense",
    "singular_witness",
    "s_extension",
    "reduce_to_quasidense",
]


class _SectionFields(NamedTuple):
    n: int
    l: int
    u: int


class Section(_SectionFields):
    """Nested subgroup pair of Z_n, written by subgroup orders l | u | n.

    A tuple underneath, so hashing, equality and the ``(n, l, u)`` order
    run in C.  Each field must be an ``int``: a float or a bool is refused
    with ``NotASection``, like a pair that is not nested.
    """

    __slots__ = ()

    def __new__(cls, n: int, l: int, u: int) -> "Section":
        if type(n) is not int or type(l) is not int or type(u) is not int:
            raise NotASection(f"section orders must be ints, got ({n!r}, {l!r}, {u!r})")
        if n < 1 or l < 1 or u < 1 or u % l or n % u:
            raise NotASection(f"({l}, {u}) is not a section of Z_{n}")
        return super().__new__(cls, n, l, u)

    @property
    def m(self) -> int:
        """Order of the section quotient H_u / H_l."""
        return self.u // self.l

    def to_json_dict(self) -> dict:
        return {"l": self.l, "u": self.u}


@dataclass(frozen=True)
class ProjClass:
    """A class of projectively equivalent sections, all of the same order."""

    members: tuple[Section, ...]
    smallest: Optional[Section]
    largest: Optional[Section]


@_per_ring
def ring_sections(a: SRing) -> tuple[Section, ...]:
    """All sections of Z_n whose endpoints are unions of classes of ``a``.

    Kept on the ring: ``frs0``, the rank-2 search and the singular witness
    read this one tuple, and share its ``Section`` objects.
    """
    return tuple(Section(a.n, l, u) for l, u in sections_lattice(a))


def restrict_to(a: SRing, s: Section) -> SRing:
    """Restriction of ``a`` to the section, over Z_m in canonical coordinates."""
    if s.n != a.n:
        raise NotASection(f"{s} does not live over Z_{a.n}")
    return restriction(a, s.l, s.u)


def is_multiple(sp: Section, s: Section) -> bool:
    """True when ``sp`` is a multiple of ``s``: lcm(u, l') = u' and gcd(u, l') = l."""
    if sp.n != s.n:
        raise ValueError("sections live over different groups")
    g = gcd(s.u, sp.l)
    return s.u * sp.l // g == sp.u and g == s.l


def _coprime_part(s: Section) -> int:
    """The largest divisor of ``s.u`` coprime to ``s.m``; it also divides ``s.l``."""
    c, g = s.u, s.m
    while (g := gcd(c, g)) > 1:
        c //= g
    return c


def _proj_key(s: Section) -> tuple[int, int]:
    """Names the projective class of ``s``: equal keys, equivalent sections.

    Z_n is the product of its Sylow subgroups.  At a prime dividing m, a
    multiple keeps the p-parts of l and of u.  At any other prime, l and u
    have equal p-parts, which a chain of multiples moves together to any
    exponent.  So the key divides the part coprime to m out of l and u.
    """
    c = _coprime_part(s)
    return s.l // c, s.u // c


def _proj_class(members: tuple[Section, ...]) -> ProjClass:
    """The class of the sorted ``members``, with its unique smallest member
    (every member a multiple of it) and its unique largest member (a
    multiple of every member), or None where there is no unique one."""
    smallest = [s for s in members if all(is_multiple(t, s) for t in members)]
    largest = [s for s in members if all(is_multiple(s, t) for t in members)]
    return ProjClass(members, *(c[0] if len(c) == 1 else None for c in (smallest, largest)))


def proj_classes(n: int, sections: tuple[Section, ...] | list[Section]) -> list[ProjClass]:
    """Partition the given sections by projective equivalence over Z_n.

    Equivalence is the transitive closure of the multiple relation over all
    sections of Z_n, so two inputs may be linked through sections that are
    not in the input.
    """
    buckets: dict[tuple[int, int], list[Section]] = {}
    for s in sections:
        if s.n != n:
            raise ValueError(f"{s} does not live over Z_{n}")
        buckets.setdefault(_proj_key(s), []).append(s)
    return [
        _proj_class(tuple(sorted(set(group))))
        for group in sorted(buckets.values(), key=min)
    ]


def f_unit(s: Section, t: Section) -> int:
    """The unit c mod m carrying canonical coordinates of ``s`` to those of ``t``.

    One step up the multiple relation, from (l, u) to (l', u'), multiplies
    coordinates by u'/u, which is the ratio of the parts of the two sections
    coprime to m.  Any path from ``s`` to ``t`` therefore composes to the
    ratio of those parts at its ends, so the unit depends on no path.
    """
    if s.n != t.n:
        raise NotEquivalent("sections live over different groups")
    if _proj_key(s) != _proj_key(t):
        raise NotEquivalent(f"{s} and {t} are not projectively equivalent")
    m = s.m
    return _coprime_part(t) * pow(_coprime_part(s), -1, m) % m if m > 1 else 1


# -- distinguished sections of a ring ---------------------------------------


@_per_ring
def _class_sections(a: SRing) -> tuple[Section, ...]:
    """Each class's generated-over-radical section, in class order.

    The sections are those of ``ring_sections(a)``, so classes with one
    section share its object.
    """
    secs = {(s.l, s.u): s for s in ring_sections(a)}
    out = []
    for cls in a.classes:
        l, u = _radical(a.n, cls), _generated(a.n, cls)
        if (l, u) not in secs:  # pragma: no cover - guaranteed by theory
            raise TheoryViolation(
                f"radical/generated pair ({l}, {u}) of {list(cls)} is not a section"
            )
        out.append(secs[l, u])
    return tuple(out)


def principal_sections(a: SRing) -> tuple[Section, ...]:
    """The sections generated-subgroup-over-radical of each class of ``a``."""
    return tuple(sorted(set(_class_sections(a))))


@_per_ring
def frs0(a: SRing) -> tuple[Section, ...]:
    """Sections projectively equivalent to a subsection of a principal section."""
    secs = ring_sections(a)
    principals = principal_sections(a)
    subprincipal = {
        q
        for q in secs
        if any(q.l % p.l == 0 and p.u % q.u == 0 for p in principals)
    }
    keys = {s: _proj_key(s) for s in secs}
    good = {keys[q] for q in subprincipal}
    return tuple(s for s in secs if keys[s] in good)


@_per_ring
def is_quasidense(a: SRing) -> bool:
    """True when no section of ``a`` has rank 2 and composite order.

    Each section is tested on one class of ``a`` (see
    ``_restriction_has_rank2``); no restricted ring is built.
    """
    return _composite_rank2_section(a) is None


def _restriction_has_rank2(a: SRing, s: Section) -> bool:
    """Whether the restriction of ``a`` to ``s``, of order m > 1, has rank 2.

    Let X be the class of n/u, which generates H_u.  H_u and H_l are unions
    of classes, so X lies in H_u and misses H_l, and its image
    {x / (n/u) mod m : x in X} is the restriction's class of 1.  The
    restriction has rank 2 exactly when that class is all of Z_m but 0,
    that is, when the image has m - 1 elements.  This reads |X| residues.
    """
    step, m = a.n // s.u, s.m
    return len({x // step % m for x in a.classes[a.class_of[step]]}) == m - 1


def _composite_rank2_section(a: SRing) -> Optional[Section]:
    """The first section of ``a`` of composite order whose restriction has
    rank 2, tested by ``_restriction_has_rank2``, or None."""
    for s in ring_sections(a):
        if s.m > 1 and not is_prime(s.m) and _restriction_has_rank2(a, s):
            return s
    return None


def _restriction_is_full(a: SRing, s: Section) -> bool:
    """Whether the restriction of ``a`` to ``s`` is the full ring over Z_m.

    The restriction's classes are the images of the classes of ``a`` inside
    H_u, and x, y in H_u have one image exactly when they share an
    H_l-coset, that is, when x = y mod n/l.  So every class of the
    restriction is a singleton exactly when every class of ``a`` inside H_u
    lies in one H_l-coset.
    """
    step_u, step_l = a.n // s.u, a.n // s.l
    return all(
        len({x % step_l for x in cls}) == 1 for cls in a.classes if cls[0] % step_u == 0
    )


def singular_witness(a: SRing) -> Optional[tuple[ProjClass, Section]]:
    """A projective class witnessing non-quasidensity, with its smallest member.

    Returns None for quasidense rings, read through the ``is_quasidense``
    memo, so the quasidense reduct that ends a reduction is not scanned
    again by the separability test.  Otherwise asserts the two structure
    conditions on the smallest/largest pair of the class: the ring is a
    wreath product over both bracketing sections, and the span between them
    decomposes as a tensor product.
    """
    if is_quasidense(a):
        return None
    witness = _composite_rank2_section(a)
    key = _proj_key(witness)
    members = tuple(t for t in ring_sections(a) if _proj_key(t) == key)
    for t in members:
        if not _restriction_has_rank2(a, t):  # pragma: no cover - theory
            raise SingularConditionViolated(f"{t} is equivalent to {witness} but not rank 2")
    pc = _proj_class(members)
    smallest, largest = pc.smallest, pc.largest
    if smallest is None or largest is None:
        raise SingularConditionViolated(
            f"no unique smallest/largest member among {members}"
        )
    l0, l1 = smallest.l, smallest.u
    u0, u1 = largest.l, largest.u
    if not (is_wreath(a, u0, l0) and is_wreath(a, u1, l1)):
        raise SingularConditionViolated(
            f"ring is not a wreath product over ({l0},{u0}) and ({l1},{u1})"
        )
    span = restriction(a, l0, u1)
    product = tensor(restriction(a, l0, l1), restriction(a, l0, u0))
    if span != product:
        raise SingularConditionViolated(
            f"no tensor decomposition between {smallest} and {largest}"
        )
    return pc, smallest


def s_extension(a: SRing, s: Section) -> SRing:
    """Close ``a`` together with all H_l-cosets inside H_u.

    The refinement starts from each class of ``a`` split by the H_l-cosets
    inside H_u, the partition into the atoms that the classes and the
    cosets generate.  That start refines ``a``, which is stable already, so
    refinement is handed ``a``'s classes and queues only the new parts (see
    ``core._wl_stabilize``).

    The result must split the section fully: its restriction to ``s`` is the
    full ring over Z_m exactly when each of its classes inside H_u lies in
    one H_l-coset, which ``_restriction_is_full`` tests on the classes
    without building the restriction.
    """
    if s.n != a.n or (s.l, s.u) not in sections_lattice(a):
        raise NotASection(f"{s} is not a section of {a!r}")
    n = a.n
    step_u = n // s.u
    step_l = n // s.l
    ids: dict[tuple[int, int], int] = {}
    class_of = [
        # z and z' in H_u share an H_l-coset exactly when z = z' mod n/l
        ids.setdefault((c, z % step_l if z % step_u == 0 else -1), len(ids))
        for z, c in enumerate(a.class_of)
    ]
    result = SRing(n, _wl_stabilize(n, class_of, a.class_of)[0], check=False)
    if not _restriction_is_full(result, s):  # pragma: no cover - theory
        raise TheoryViolation(f"extension did not fully split the section {s}")
    return result


def reduce_to_quasidense(a: SRing) -> tuple[SRing, list[Section]]:
    """Iterate singular-section extensions until the ring becomes quasidense.

    Returns the reduct and the list of sections extended at, in order.  Each
    extension strictly increases rank, and separability is preserved both
    ways, so the reduct decides separability of the input.
    """
    current = a
    trace: list[Section] = []
    while True:
        found = singular_witness(current)
        if found is None:
            return current, trace
        _, smallest = found
        extended = s_extension(current, smallest)
        if extended.rank <= current.rank:  # pragma: no cover - theory
            raise TheoryViolation(
                f"extension at {smallest} did not increase rank "
                f"({current.rank} -> {extended.rank})"
            )
        trace.append(smallest)
        current = extended
