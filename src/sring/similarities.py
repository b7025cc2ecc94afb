"""Similarities: structure-constant-preserving bijections between class sets.

A similarity of S-rings over the same Z_n maps classes to classes of equal
size, fixes the identity class, respects negation pairing, and preserves
every structure constant.  For quasidense rings each similarity restricts
to every distinguished section as multiplication by a unit, which yields an
outer multiplier; conversely an outer multiplier reassembles classwise into
a similarity.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import itemgetter
from typing import Optional

from .core import SRing, _per_ring, class_stabilizer
from .errors import NoInducingUnit, NotASection, ReconstructionFailed, TheoryViolation
from .modarith import units
from .multipliers import Multiplier, is_valid_outer_multiplier
from .sections import Section, _class_sections, frs0, is_quasidense, restrict_to

__all__ = [
    "Similarity",
    "identity_similarity",
    "similarities",
    "is_similarity",
    "restrict_similarity",
    "from_unit",
    "inducing_unit",
    "fs_of",
    "similarity_from_outer",
]


@dataclass(frozen=True)
class Similarity:
    """A class bijection from the source ring to the target ring."""

    source: SRing
    target: SRing
    class_map: tuple[int, ...]

    def image_of(self, i: int) -> tuple[int, ...]:
        """The target class the i-th source class maps to."""
        return self.target.classes[self.class_map[i]]

    def then(self, other: "Similarity") -> "Similarity":
        if self.target != other.source:
            raise ValueError("composition mismatch: target differs from source")
        return Similarity(
            self.source,
            other.target,
            tuple(other.class_map[j] for j in self.class_map),
        )

    def inverse(self) -> "Similarity":
        inv = [0] * len(self.class_map)
        for i, j in enumerate(self.class_map):
            inv[j] = i
        return Similarity(self.target, self.source, tuple(inv))

    @property
    def is_identity(self) -> bool:
        return self.source == self.target and all(
            i == j for i, j in enumerate(self.class_map)
        )

    def to_json_dict(self) -> dict:
        return {"map": list(self.class_map)}


def identity_similarity(a: SRing) -> Similarity:
    return Similarity(a, a, tuple(range(a.rank)))


@_per_ring
def _constants(a: SRing) -> bytes | tuple[int, ...]:
    """The structure constants of ``a`` as one flat sequence.

    Entry ``(i * r + j) * r + k`` is the coefficient of X_k in X_i * X_j,
    the number of x in X_i with z - x in X_j for any z in X_k: in an S-ring
    that number is the same at every z of X_k.  So one residue per class,
    z = min(X_k), counts the pairs (class of x, class of z - x) over all x,
    r * n steps in all.  A constant is at most |X_i|, below n when n > 1,
    and the table is ``bytes`` when n <= 256: one byte per constant where a
    tuple keeps an 8-byte pointer.  Past 256 it is a tuple.  Indexing
    ``bytes`` is slower than indexing a tuple, so the similarity search
    reads a tuple copy it does not keep (``_search_setup``).
    """
    n, r, cl = a.n, a.rank, a.class_of
    table = bytearray(r**3) if n <= 256 else [0] * r**3
    rows = [i * r * r for i in cl]
    cols = [j * r for j in cl]
    for k, cls in enumerate(a.classes):
        z = cls[0]
        # cols[z::-1] + cols[:z:-1] lists cols[z - x] for x = 0..n-1
        for i, j in zip(rows, cols[z::-1] + cols[:z:-1]):
            table[i + j + k] += 1
    return bytes(table) if n <= 256 else tuple(table)


def is_similarity(a: SRing, b: SRing, class_map: tuple[int, ...]) -> bool:
    """Full check of the similarity conditions for a candidate class map."""
    if a.n != b.n or a.rank != b.rank or sorted(class_map) != list(range(a.rank)):
        return False
    if class_map[0] != 0:
        return False
    for i in range(a.rank):
        if len(a.classes[i]) != len(b.classes[class_map[i]]):
            return False
        if class_map[a.inverse_class(i)] != b.inverse_class(class_map[i]):
            return False
    r = a.rank
    if r == 1:  # Z_1: nothing left to compare, and itemgetter(0) would not give a tuple
        return True
    ca, cb = _constants(a), _constants(b)
    permute = itemgetter(*class_map)
    for i in range(r):
        for j in range(i, r):
            row_a = (i * r + j) * r
            row_b = (class_map[i] * r + class_map[j]) * r
            if tuple(ca[row_a : row_a + r]) != permute(cb[row_b : row_b + r]):
                return False
    return True


def _class_fingerprints(a: SRing) -> list[tuple]:
    """Per class: its size, self-pairing and the (constant, size) multisets of
    X_i * X_i and X_i * X_i^-1; a similarity maps each class to an equal one."""
    r, c = a.rank, _constants(a)
    sizes = [len(cls) for cls in a.classes]
    out = []
    for i in range(r):
        inv = a.inverse_class(i)
        sq, pair = (i * r + i) * r, (i * r + inv) * r
        out.append(
            (
                sizes[i],
                inv == i,
                tuple(sorted(zip(c[sq : sq + r], sizes))),
                tuple(sorted(zip(c[pair : pair + r], sizes))),
            )
        )
    return out


def similarities(a: SRing, b: SRing) -> list[Similarity]:
    """All similarities from ``a`` to ``b``, sorted by class map.

    The similarities of ``a`` to itself form a group, found by
    ``_self_maps`` and kept on the ring as class maps.  Those to another
    ring are the maps of that group, each followed by one similarity found
    by a search (``_similarity_maps``).  Each call returns new
    ``Similarity`` objects.
    """
    maps = _self_maps(a) if a == b else _similarity_maps(a, b)
    return [Similarity(a, b, cmap) for cmap in maps]


@_per_ring
def _self_maps(a: SRing) -> tuple[tuple[int, ...], ...]:
    """The sorted class maps of the similarities of ``a`` to itself.

    They form a group G under composition, and every one fixes class 0 (see
    ``_first_map``).  Write b_0, b_1, ... for the search order, with b_0 =
    0, and G_l for the maps in G that fix b_0, ..., b_{l-1}; G_0 = G and
    G_r = {identity}.  The levels are walked from l = r - 1 down to 0.  At
    level l, every candidate j of b_l outside the orbit of b_l under the
    generators found so far is tried: the first map of G_l with
    b_l -> j, if there is one, becomes a generator.  After level l the
    generators generate G_l.  By induction they generate a group H with
    G_{l+1} <= H <= G_l, since each generator fixes b_0, ..., b_{l-1}.  The
    orbit of b_l under G_l lies among its candidates, as fingerprints are
    kept, and H reaches every point of it: each point was in the orbit
    already, or was tried and found.  The stabilizer of b_l in H lies
    between G_{l+1} and the stabilizer of b_l in G_l, which is G_{l+1}.  So
    |H| = |orbit| * |G_{l+1}| = |G_l| by orbit-stabilizer, and H = G_l.
    The result is the closure of the generators, G_0 = G: each level runs
    at most one successful search per point of an orbit, where a search of
    every leaf would reach each element of G.  Class maps only, so the memo
    on ``a`` refers to no ring.
    """
    r = a.rank
    order, candidates, tables = _search_setup(a, a)
    # every class pinned to itself; each level frees one more
    image, used = list(range(r)), [True] * r
    done = [(i, i) for i in order]
    gens: list[tuple[int, ...]] = []
    for pos in reversed(range(r)):
        b = order[pos]
        done.pop()
        image[b], used[b] = -1, False
        orbit = _orbit(b, gens)
        for j in candidates[b]:
            if j in orbit or used[j] or not _consistent(b, j, image, done, tables):
                continue
            image[b], used[j] = j, True
            done.append((b, j))
            leaf = _first_map(pos + 1, order, candidates, image, used, done, tables)
            done.pop()
            image[b], used[j] = -1, False
            if leaf is not None:
                gens.append(leaf)
                orbit = _orbit(b, gens)
    return _closure(gens, r)


def _orbit(x: int, gens: list[tuple[int, ...]]) -> set[int]:
    """The orbit of the class ``x`` under the group the class maps generate."""
    orbit, frontier = {x}, [x]
    for y in frontier:
        for g in gens:
            if g[y] not in orbit:
                orbit.add(g[y])
                frontier.append(g[y])
    return orbit


def _closure(gens: list[tuple[int, ...]], r: int) -> tuple[tuple[int, ...], ...]:
    """The group of class maps on r classes that ``gens`` generate, sorted.

    Every product of generators is reached from the identity one generator
    at a time; in a finite group the inverses are among them.
    """
    identity = tuple(range(r))
    group, frontier = {identity}, [identity]
    for g in frontier:
        for s in gens:
            h = tuple(map(s.__getitem__, g))  # g, then s
            if h not in group:
                group.add(h)
                frontier.append(h)
    return tuple(sorted(group))


def _similarity_maps(a: SRing, b: SRing) -> tuple[tuple[int, ...], ...]:
    """The class maps of all similarities from ``a`` to ``b``, sorted.

    When phi_0 is one of them, every one, phi, is the similarity
    phi_0^-1 phi of ``a`` to itself followed by phi_0.  So they are the
    maps of ``_self_maps(a)``, each followed by phi_0, all distinct.  One
    search for phi_0 runs, even when ``b`` equals ``a``.
    """
    if a.n != b.n or a.rank != b.rank:
        return ()
    if sorted(map(len, a.classes)) != sorted(map(len, b.classes)):
        return ()
    order, candidates, tables = _search_setup(a, b)
    if any(not c for c in candidates):
        return ()
    r = a.rank
    phi0 = _first_map(0, order, candidates, [-1] * r, [False] * r, [], tables)
    if phi0 is None:
        return ()
    return tuple(sorted(tuple(map(phi0.__getitem__, g)) for g in _self_maps(a)))


def _search_setup(a: SRing, b: SRing) -> tuple[list[int], list[list[int]], tuple]:
    """The search order of the classes of ``a``, the classes of ``b`` with
    the fingerprint of each, and the tables ``_consistent`` reads: the
    constants and the inverse classes of both rings.  The constants are
    tuple copies of ``_constants``, kept only for the search, since the
    search indexes them most and tuples index faster than ``bytes``."""
    r = a.rank
    fp_a = _class_fingerprints(a)
    fp_b = fp_a if b is a else _class_fingerprints(b)
    candidates = [[j for j in range(r) if fp_b[j] == fp_a[i]] for i in range(r)]
    order = sorted(range(r), key=lambda i: (len(a.classes[i]), a.classes[i][0]))
    inv_a = [a.inverse_class(i) for i in range(r)]
    inv_b = inv_a if b is a else [b.inverse_class(j) for j in range(r)]
    ca = tuple(_constants(a))
    cb = ca if b is a else tuple(_constants(b))
    return order, candidates, (ca, cb, inv_a, inv_b)


def _consistent(
    i: int, j: int, image: list[int], done: list[tuple[int, int]], tables: tuple
) -> bool:
    """Whether i -> j keeps every constant among the assigned classes;
    ``tables`` holds the constants and inverse classes of both rings."""
    ca, cb, inv_a, inv_b = tables
    r = len(image)
    # Inverse pairing. The constants at k = 0 below imply it, since class 0
    # is assigned first, so this is only an early exit.
    if image[inv_a[i]] >= 0 and image[inv_a[i]] != inv_b[j]:
        return False
    # old factor pairs: only the newly assigned target i -> j is unchecked
    for pos, (p, fp) in enumerate(done):
        pa, pb = p * r, fp * r
        for q, fq in done[pos:]:
            if ca[(pa + q) * r + i] != cb[(pb + fq) * r + j]:
                return False
    # factor pairs with i: every assigned target, i itself included
    ia, ib = i * r, j * r
    for p, fp in (*done, (i, j)):
        row_a, row_b = (ia + p) * r, (ib + fp) * r
        if ca[row_a + i] != cb[row_b + j]:
            return False
        for k, fk in done:
            if ca[row_a + k] != cb[row_b + fk]:
                return False
    return True


def _first_map(
    pos: int,
    order: list[int],
    candidates: list[list[int]],
    image: list[int],
    used: list[bool],
    done: list[tuple[int, int]],
    tables: tuple,
) -> Optional[tuple[int, ...]]:
    """The first complete class map, in search order, that extends the
    classes assigned in ``done`` by assigning ``order[pos:]``, or None.

    Every map the search reaches at a leaf is a similarity.  When the last
    of three classes p, q, k is assigned, ``_consistent`` compares the
    constant of X_k in X_p * X_q with its image; products commute, so every
    constant is compared by then.  Class 0 is assigned first (it is the
    only class of size 1 whose smallest element is 0), and its image is 0:
    the constant of X_0 in X_0 * X_0 is 1, and of the classes of size 1,
    {0} and possibly {n/2}, only {0} has it.  The constant of X_0 in
    X_i * X_p is |X_i| when p is the inverse of i and 0 otherwise, so equal
    constants at k = 0 give equal class sizes and keep inverse pairs.  The
    map is injective by ``used``, so it is a bijection of the r classes.
    A module-level function, not a closure: a closure that calls itself is
    a reference cycle.
    """
    if pos == len(order):
        return tuple(image)
    i = order[pos]
    for j in candidates[i]:
        if not used[j] and _consistent(i, j, image, done, tables):
            image[i], used[j] = j, True
            done.append((i, j))
            leaf = _first_map(pos + 1, order, candidates, image, used, done, tables)
            done.pop()
            image[i], used[j] = -1, False
            if leaf is not None:
                return leaf
    return None


@_per_ring
def _section_class_of(a: SRing, s: Section) -> tuple[int, ...]:
    """For each class of ``a``, its class in the restriction to ``s``, or -1
    when the class lies outside H_u."""
    ra = restrict_to(a, s)
    step = a.n // s.u
    return tuple(
        -1 if cls[0] % step else ra.class_of[(cls[0] // step) % s.m] for cls in a.classes
    )


def _restricted_map(
    s: Section,
    src_of: tuple[int, ...],
    dst_of: tuple[int, ...],
    class_map: tuple[int, ...],
    rank: int,
) -> tuple[int, ...]:
    """The map that ``class_map`` induces between the restrictions to ``s``,
    of the given rank; ``src_of`` and ``dst_of`` are the ``_section_class_of``
    lists of its source and its target."""
    image = [-1] * rank
    for src, j in zip(src_of, class_map):
        if src < 0:
            continue
        dst = dst_of[j]
        if dst < 0:  # a similarity keeps H_u; the callers tell a bad map apart
            raise TheoryViolation(f"similarity moved a class out of the subgroup H_{s.u}")
        if image[src] < 0:
            image[src] = dst
        elif image[src] != dst:  # as above: not for a similarity
            raise TheoryViolation(f"restriction to {s} is not well defined")
    return tuple(image)


def restrict_similarity(phi: Similarity, s: Section) -> Similarity:
    """The induced similarity between the restrictions to a common section.

    A class map that is not a similarity raises ``ValueError`` when the
    restriction fails on it."""
    a, b = phi.source, phi.target
    if s.n != a.n:
        raise NotASection(f"{s} does not live over Z_{a.n}")
    ra = restrict_to(a, s)
    src_of, dst_of = _section_class_of(a, s), _section_class_of(b, s)
    try:
        cmap = _restricted_map(s, src_of, dst_of, phi.class_map, ra.rank)
    except TheoryViolation:
        _require_similarity(a, b, phi.class_map)
        raise
    return Similarity(ra, restrict_to(b, s), cmap)


def _require_similarity(a: SRing, b: SRing, class_map: tuple[int, ...]) -> None:
    """Raise ValueError when ``class_map`` is not a similarity from ``a`` to
    ``b``.  Called only after a theory check failed, so that bad input is
    told apart from a broken theorem at no cost to valid input."""
    if not is_similarity(a, b, class_map):
        raise ValueError(f"class map {class_map} is not a similarity")


def from_unit(a_s: SRing, k: int) -> Similarity:
    """The class map X -> k*X of the unit k.

    Every unit k of Z_m maps each class X of an S-ring over Z_m onto a class
    (Schur's theorem on multipliers; Wielandt, *Finite Permutation Groups*,
    1964, Thm 23.9).  So k*X is the class of k*x for any x in X, one lookup
    per class.
    """
    m = a_s.n
    if k not in units(m):
        raise ValueError(f"{k} is not a unit modulo {m}")
    cl = a_s.class_of
    return Similarity(a_s, a_s, tuple(cl[k * cls[0] % m] for cls in a_s.classes))


def inducing_unit(a_s: SRing, psi: Similarity) -> Optional[int]:
    """The smallest unit k with X -> k*X equal to ``psi``, if one exists."""
    if psi.source != a_s or psi.target != a_s:
        raise ValueError("similarity does not act on the given ring")
    return _unit_maps(a_s).get(psi.class_map)


@_per_ring
def _unit_maps(a_s: SRing) -> dict[tuple[int, ...], int]:
    """Each class map X -> k*X that a unit k induces, with its smallest k."""
    maps: dict[tuple[int, ...], int] = {}
    for k in units(a_s.n).elements:
        maps.setdefault(from_unit(a_s, k).class_map, k)
    return maps


@_per_ring
def _extraction(
    a: SRing,
) -> tuple[
    tuple[tuple[int, ...], ...],
    tuple[int, ...],
    tuple[dict[tuple[int, ...], int], ...],
    tuple[tuple[int, ...], ...],
]:
    """For the sections of ``frs0(a)``, in order: each class's restricted class
    (``_section_class_of``), the rank of the restriction, its class maps with
    their smallest units, and its class stabilizer."""
    secs = frs0(a)
    rings = [restrict_to(a, s) for s in secs]
    return (
        tuple(_section_class_of(a, s) for s in secs),
        tuple(a_s.rank for a_s in rings),
        tuple(map(_unit_maps, rings)),
        tuple(map(class_stabilizer, rings)),
    )


def fs_of(a: SRing, phi: Similarity) -> Multiplier:
    """The outer multiplier collecting the units inducing ``phi`` on each section.

    Requires a quasidense ring; every restriction of a similarity of such a
    ring to a distinguished section is induced by a unit.  The units of the
    stabilizer coset at a section are exactly the units inducing the same
    map, so the smallest inducing unit is the smallest of its coset, and
    ``frs0`` lists the sections in order: the entries are already canonical.
    Each restriction is read as ``restrict_similarity`` reads it, without
    building the restricted ``Similarity``.  The units are kept on the ring
    per class map (``_fs_units``); each call returns a new ``Multiplier``.
    A class map that is not a similarity raises ``ValueError`` when the
    extraction fails on it.
    """
    if not is_quasidense(a):
        raise ValueError("outer multiplier extraction requires a quasidense ring")
    if phi.source != a or phi.target != a:
        raise ValueError("similarity does not act on the given ring")
    try:
        ks = _fs_units(a, phi.class_map)
    except TheoryViolation:
        _require_similarity(a, a, phi.class_map)
        raise
    return _outer_family(a, ks)


def _outer_family(a: SRing, ks: tuple[int, ...]) -> Multiplier:
    """The family with unit ``ks[i]`` at the i-th section of ``frs0(a)``."""
    return Multiplier._canonical(tuple(zip(frs0(a), _extraction(a)[3], ks)))


@_per_ring
def _fs_units(a: SRing, class_map: tuple[int, ...]) -> tuple[int, ...]:
    """The smallest unit inducing the class map on each section of
    ``frs0(a)``, checked to form an outer multiplier."""
    ks = []
    for s, section_class, rank, maps in zip(frs0(a), *_extraction(a)[:3]):
        k = maps.get(_restricted_map(s, section_class, section_class, class_map, rank))
        if k is None:
            raise NoInducingUnit(f"restriction to {s} is not induced by any unit")
        ks.append(k)
    if not is_valid_outer_multiplier(a, _outer_family(a, tuple(ks))):  # pragma: no cover - theory
        raise TheoryViolation(
            f"extracted family of the class map {class_map} is not an outer multiplier"
        )
    return tuple(ks)


def similarity_from_outer(a: SRing, om: Multiplier) -> Similarity:
    """Reassemble a similarity from an outer multiplier, classwise.

    Let X be a class, p = (l, u) its generated-over-radical section, q =
    n / l, and k the unit the family gives p.  X lies in H_u and is a union
    of H_l-cosets, the residue classes mod q.  Lift k to a unit k~ of Z_n
    (m = u / l divides n).  By Schur's theorem (see ``from_unit``) k~X is a
    class, a union of H_l-cosets as k~H_l = H_l, and k~x = kx mod q for x
    in H_u.  So k~X is the preimage of {k * x mod q : x in X}, the image
    the family gives X, and the class of k * min(X) mod q: one lookup per
    class.  A family with a non-unit entry is refused with ``ValueError``.
    The class map is kept on the ring per unit vector (``_outer_map``);
    each call returns a new ``Similarity``.
    """
    if not is_quasidense(a):
        raise ValueError("reconstruction requires a quasidense ring")
    secs = frs0(a)
    if len(om.entries) != len(secs) or set(om.sections) != set(secs):
        raise ValueError("outer multiplier is not defined over this ring's sections")
    for s, _, k in om.entries:
        if gcd(k, s.m) != 1:
            raise ValueError(f"{k} is not a unit modulo {s.m} on {s}")
    return Similarity(a, a, _outer_map(a, om.canonical_vector()))


@_per_ring
def _outer_map(a: SRing, ks: tuple[int, ...]) -> tuple[int, ...]:
    """The class map of the similarity with unit ``ks[i]`` at the i-th
    section of ``frs0(a)``, checked to be a similarity."""
    unit_for = dict(zip(frs0(a), ks))
    n, cl = a.n, a.class_of
    cmap = tuple(
        cl[unit_for[p] * cls[0] % (n // p.l)] for cls, p in zip(a.classes, _class_sections(a))
    )
    if not is_similarity(a, a, cmap):
        raise ReconstructionFailed("classwise images do not form a similarity")
    return cmap
