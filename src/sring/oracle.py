"""Brute-force oracle: enumeration, isomorphism search, and coset closure.

Everything here is exhaustive and bound-guarded; it exists to cross-check
the structural machinery, so it shares as little as possible with it.  One
backtracker finds every S-ring and the coset rings of ``coset_closure``,
each with its own candidate function.  It walks classes of the smallest
unassigned element, pruned by the partial closure.  The unit multiples of a
class are classes of the same ring (Schur's theorem on multipliers), so a
candidate that overlaps one of its multiples without equalling it is
skipped before any refinement, and so is a candidate X for which some
product X·P with a pinned class P is not constant on X and on every pinned
class.  Every multiple of a candidate splits the partition before it is
refined and is pinned at once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from math import gcd
from typing import Callable, Iterable, Optional

from .core import (
    SRing,
    _convolve,
    _labels,
    _per_ring,
    _require_order,
    _wl_stabilize,
    refines,
    validate,
)
from .errors import (
    CosetClosureNotCoset,
    IntersectionNotAnSRing,
    LimitExceeded,
    TheoryViolation,
    ValidationError,
)
from .modarith import divisors, subgroup, unit_subgroups, units
from .sections import is_quasidense
from .similarities import Similarity, similarities

__all__ = [
    "ENUMERATE_BOUND",
    "ISOMORPHISM_BOUND",
    "COSET_CLOSURE_BOUND",
    "Isomorphism",
    "enumerate_srings",
    "find_isomorphism",
    "verify_isomorphism",
    "phi_infty",
    "is_separable_bruteforce",
    "intersect",
    "coset_closure",
]

ENUMERATE_BOUND = 36
ISOMORPHISM_BOUND = 20
COSET_CLOSURE_BOUND = 16

_ZERO = frozenset({0})


@dataclass(frozen=True)
class Isomorphism:
    """A normalized bijection of Z_n inducing a similarity, as a value table."""

    n: int
    table: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.table[x % self.n]

    def to_json_dict(self) -> dict:
        return {"table": list(self.table)}


# -- enumeration of all S-rings ----------------------------------------------


def _conv_constant_on(n: int, xs: frozenset[int], ys: frozenset[int], cls: frozenset[int]) -> bool:
    counts = _convolve(n, xs, ys)
    vals = {counts[z] for z in cls}
    return len(vals) == 1


def _candidate_classes(
    n: int,
    anchor: int,
    region: frozenset[int],
    subgroups: tuple[tuple[int, ...], ...],
    dclass: tuple[int, ...],
) -> list[frozenset[int]]:
    """Possible classes of ``anchor`` inside ``region``, by unit-orbit shape.

    Within one ring, elements of a class sharing a divisor class form a
    single coset of the class's unit stabilizer, so candidates are unions of
    one orbit of some unit subgroup per divisor class.
    """
    out: set[frozenset[int]] = set()
    other_divisors = sorted({dclass[x] for x in region if dclass[x] != dclass[anchor]})
    for sub in subgroups:
        base = frozenset((h * anchor) % n for h in sub)
        if not base <= region:
            continue
        option_lists = []
        for d in other_divisors:
            elems = sorted(x for x in region if dclass[x] == d)
            orbits = []
            seen: set[int] = set()
            for x in elems:
                if x in seen:
                    continue
                orb = frozenset((h * x) % n for h in sub)
                seen |= orb
                if orb <= region:
                    orbits.append(orb)
            option_lists.append([None] + orbits)
        for combo in product(*option_lists):
            cand = base
            for orb in combo:
                if orb is not None:
                    cand |= orb
            neg = frozenset((-x) % n for x in cand)
            if neg != cand and neg & cand:
                continue
            if not _conv_constant_on(n, cand, cand, cand):
                continue
            if neg != cand and not _conv_constant_on(n, cand, neg, cand):
                continue
            out.add(cand)
    return sorted(out, key=sorted)


@lru_cache(maxsize=None)
def _enumerate_cached(n: int) -> tuple[SRing, ...]:
    """Every S-ring over Z_n, by backtracking over the class of the smallest
    element not yet in a pinned class.

    The candidates are ``_candidate_classes``.  Every unit multiple kX of a
    class X of a ring is a class of it too (Schur's theorem on multipliers;
    Wielandt, *Finite Permutation Groups*, 1964, Thm 23.9), so two multiples
    of X are equal or disjoint.  A candidate X whose multiples overlap
    otherwise is skipped unrefined.
    """
    unit_elems = units(n).elements
    subgroups = unit_subgroups(n)
    dclass = tuple(gcd(x, n) for x in range(n))
    # (candidate, its unit multiples) for each (anchor, region) met so far,
    # the candidates whose multiples overlap already dropped
    schur: dict[tuple[int, frozenset[int]], list[tuple[frozenset[int], frozenset]]] = {}

    def candidates(anchor: int, region: frozenset[int]) -> list:
        key = (anchor, region)
        if key not in schur:
            kept = []
            for cand in _candidate_classes(n, anchor, region, subgroups, dclass):
                orbit = frozenset(frozenset((k * x) % n for x in cand) for k in unit_elems)
                if sum(map(len, orbit)) == len(frozenset().union(*orbit)):
                    kept.append((cand, orbit))
            schur[key] = kept
        return schur[key]

    return tuple(validate(n, cls) for cls in _search(n, candidates))


def _search(n: int, candidates: Callable) -> list[tuple[tuple[int, ...], ...]]:
    """The sorted class tuples of every ring ``_enumerate_rec`` reaches with
    ``candidates``, from the coarsest S-ring below {0} | Z_n∖{0}."""
    start = tuple(frozenset(c) for c in _wl_stabilize(n, [min(x, 1) for x in range(n)])[0])
    found: set[tuple[tuple[int, ...], ...]] = set()
    _enumerate_rec(n, start, frozenset({_ZERO}), candidates, found)
    return sorted(found)


def _pinned_products_constant(
    n: int, cand: frozenset[int], pinned: frozenset[frozenset[int]]
) -> bool:
    """True when, for every pinned class P other than {0}, the product of
    the set sums of ``cand`` and P is constant on ``cand`` and on every
    pinned class.

    ``_enumerate_rec`` accepts a candidate X only when the coarsest S-ring
    below the split partition has X and every pinned class among its
    classes.  In that ring X·P is a sum of class sums with integer
    coefficients, so its coefficient at z depends only on the class of z,
    and it is constant on X and on each pinned class.  So a candidate for
    which this is False is one the refinement would reject, and skipping it
    changes no ring found.
    """
    checked = (cand, *pinned)
    for p in pinned:
        if p != _ZERO:
            counts = _convolve(n, cand, p)
            if any(len({counts[z] for z in cls}) > 1 for cls in checked):
                return False
    return True


def _enumerate_rec(
    n: int,
    classes: tuple[frozenset[int], ...],
    pinned: frozenset[frozenset[int]],
    candidates: Callable[[int, frozenset[int]], Iterable],
    found: set[tuple[tuple[int, ...], ...]],
) -> None:
    """Try each candidate class of the smallest element outside ``pinned``
    against the stable partition ``classes``, and add every ring reached to
    ``found``.

    ``candidates(anchor, region)`` gives each candidate X inside ``region``
    with its unit multiples, pairwise equal or disjoint.  X is refined only
    when ``_pinned_products_constant`` holds.  It splits each class by
    membership in each multiple of X (the orbit split P_O), not only in X
    (the split P_X), before the refinement WL to the coarsest S-ring.  Both
    splits accept the same candidates and go on from the same partition.
    P_O refines P_X, so WL(P_O) refines WL(P_X).

    - If X is a class of WL(P_X), so is every kX (Schur's theorem, see
      ``_enumerate_cached``); then WL(P_X) refines P_O and hence WL(P_O),
      and the two are equal.
    - If X is a class of WL(P_O), it is a single class of that finer ring
      and a union of classes of WL(P_X), which refines P_X; so X is a class
      of WL(P_X), and the first case applies.

    A module-level function, not a closure: a closure that calls itself is
    a reference cycle, which would keep every partition of the search alive
    until the cyclic garbage collector runs.
    """
    unassigned = sorted(x for cls in classes if cls not in pinned for x in cls)
    if not unassigned:
        found.add(tuple(sorted(tuple(sorted(c)) for c in classes)))
        return
    anchor = unassigned[0]
    region = next(cls for cls in classes if anchor in cls)
    class_of = _labels(n, classes)
    for cand, orbit in candidates(anchor, region):
        if not _pinned_products_constant(n, cand, pinned):
            continue
        multiple_of = [-1] * n
        for j, mult in enumerate(orbit):
            for x in mult:
                multiple_of[x] = j
        ids: dict[tuple[int, int], int] = {}
        refined_of = [ids.setdefault(key, len(ids)) for key in zip(class_of, multiple_of)]
        stable = tuple(frozenset(c) for c in _wl_stabilize(n, refined_of, class_of)[0])
        stable_set = set(stable)
        if cand not in stable_set or not pinned <= stable_set:
            continue
        assert orbit <= stable_set, "unit multiple of a class must be a class"
        singletons = {cls for cls in stable if len(cls) == 1}
        _enumerate_rec(n, stable, pinned | orbit | singletons, candidates, found)


def enumerate_srings(n: int, *, max_n: int = ENUMERATE_BOUND) -> list[SRing]:
    """Every S-ring over Z_n, canonically sorted."""
    _require_order(n)
    if max_n < 1:
        raise ValueError(f"size bound must be positive, got {max_n}")
    if n > max_n:
        raise LimitExceeded(f"enumeration over Z_{n} exceeds the bound {max_n}")
    return list(_enumerate_cached(n))


# -- isomorphism search --------------------------------------------------------


def verify_isomorphism(phi: Similarity, iso: Isomorphism) -> bool:
    """Independent recheck: f(X + y) == phi(X) + f(y) for every class X of
    the source and every y in Z_n, where f is the table of ``iso``.

    It reads one class per pair (x, y): f(x + y) - f(y) must lie in the
    image of the class of x.  For a fixed y, x -> f(x + y) - f(y) is then a
    bijection of Z_n that maps each class X into phi(X).  The class map is
    required to be a permutation, so the images phi(X) partition Z_n as the
    classes do, and each X maps onto phi(X): that is the set equation.
    Conversely the set equation makes the sets f(X + y) - f(y) disjoint,
    so it holds only for a permutation.
    """
    a, b = phi.source, phi.target
    n, t, cmap = a.n, iso.table, phi.class_map
    if sorted(t) != list(range(n)) or t[0] != 0:
        return False
    if b.n != n or b.rank != a.rank or sorted(cmap) != list(range(a.rank)):
        return False
    want = [cmap[c] for c in a.class_of]  # the image of the class of x
    cl_b = b.class_of
    for y, fy in enumerate(t):
        # shifted[z] is the class of z - f(y); t[y:] + t[:y] lists f(x + y)
        shifted = cl_b[n - fy :] + cl_b[: n - fy]
        if list(map(shifted.__getitem__, t[y:] + t[:y])) != want:
            return False
    return True


def _check_isomorphism_bound(n: int, max_n: int) -> None:
    if n > max_n:
        raise LimitExceeded(f"isomorphism search over Z_{n} exceeds the bound {max_n}")


def find_isomorphism(
    phi: Similarity, *, max_n: int = ISOMORPHISM_BOUND
) -> Optional[Isomorphism]:
    """A normalized bijection inducing the similarity, or None.

    Searches values in increasing order, so the result is deterministic.
    """
    n = phi.source.n
    _check_isomorphism_bound(n, max_n)
    table = [-1] * n
    table[0] = 0
    used = [False] * n
    used[0] = True
    if not _search_isomorphism(phi, table, used, 1):
        return None
    iso = Isomorphism(n, tuple(table))
    if not verify_isomorphism(phi, iso):  # pragma: no cover - search invariant
        raise TheoryViolation("search produced a non-isomorphism")
    return iso


def _feasible(phi: Similarity, table: list[int], y: int, v: int) -> bool:
    a, b = phi.source, phi.target
    n = a.n
    for y2 in range(y):
        w = table[y2]
        if b.class_of[(v - w) % n] != phi.class_map[a.class_of[(y - y2) % n]]:
            return False
    return True


def _search_isomorphism(phi: Similarity, table: list[int], used: list[bool], y: int) -> bool:
    """Fill ``table`` from ``y`` on; True when it is complete.  A
    module-level function, not a closure, for the reason given at
    ``_enumerate_rec``."""
    a, b = phi.source, phi.target
    if y == a.n:
        return True
    for v in b.classes[phi.class_map[a.class_of[y]]]:
        if not used[v] and _feasible(phi, table, y, v):
            table[y] = v
            used[v] = True
            if _search_isomorphism(phi, table, used, y + 1):
                return True
            used[v] = False
            table[y] = -1
    return False


def _realized(a: SRing, max_n: int) -> tuple[list[Similarity], int]:
    """The similarities of ``a`` induced by a bijection, and how many there are in all."""
    # before the similarity search, which alone can take minutes past the bound
    _check_isomorphism_bound(a.n, max_n)
    maps, total = _realized_maps(a)
    return [Similarity(a, a, cmap) for cmap in maps], total


@_per_ring
def _realized_maps(a: SRing) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The class maps of ``_realized(a, max_n)`` and its count, kept on the
    ring.  They do not depend on ``max_n`` once ``a.n`` is within it, so the
    bound is checked before the lookup, by ``_realized``, and is no key."""
    sims = similarities(a, a)
    realized = [phi for phi in sims if find_isomorphism(phi, max_n=a.n) is not None]
    by_map = {phi.class_map for phi in realized}
    for phi in realized:
        if phi.inverse().class_map not in by_map:  # pragma: no cover - theory
            raise TheoryViolation("realized similarities are not inverse-closed")
        for psi in realized:
            if phi.then(psi).class_map not in by_map:  # pragma: no cover - theory
                raise TheoryViolation("realized similarities are not composition-closed")
    return tuple(phi.class_map for phi in realized), len(sims)


def phi_infty(a: SRing, *, max_n: int = ISOMORPHISM_BOUND) -> list[Similarity]:
    """Similarities of ``a`` induced by at least one bijection of Z_n."""
    return _realized(a, max_n)[0]


def is_separable_bruteforce(a: SRing, *, max_n: int = ISOMORPHISM_BOUND) -> bool:
    """True when every similarity of ``a`` is induced by some bijection."""
    realized, total = _realized(a, max_n)
    return len(realized) == total


# -- module intersection and coset closure ------------------------------------


def intersect(a: SRing, b: SRing) -> SRing:
    """The largest common coarsening: join of the two partitions."""
    if a.n != b.n:
        raise ValueError("rings live over different groups")
    n = a.n
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for ring in (a, b):
        for cls in ring.classes:
            for x in cls[1:]:
                union(cls[0], x)
    blocks: dict[int, list[int]] = {}
    for x in range(n):
        blocks.setdefault(find(x), []).append(x)
    try:
        return validate(n, blocks.values())
    except ValidationError as exc:  # pragma: no cover - guaranteed by theory
        raise IntersectionNotAnSRing(str(exc)) from exc


def _is_coset(n: int, cls: tuple[int, ...]) -> bool:
    shift = frozenset((x - cls[0]) % n for x in cls)
    return n % len(cls) == 0 and shift == subgroup(n, len(cls))


def _coset_rings_refining(a: SRing) -> list[SRing]:
    """All S-rings refining ``a`` whose every class is a coset, sorted.

    The candidates are the cosets x + H of the anchor inside its region, with
    their unit multiples.  A unit k maps H onto itself, so k(x + H) = kx + H,
    and two multiples are equal or disjoint with no overlap test; -1 is a
    unit, so a coset and its negation are too.  A coset is dropped unrefined
    when it meets two classes of ``a``.  One inside a class X has each
    multiple k(x + H) inside kX, a class by Schur's theorem (see
    ``_enumerate_cached``).  So every class of a ring found, pinned as {0}, a
    singleton or such a multiple, is a coset inside one class of ``a``.
    """
    n, class_of = a.n, a.class_of
    unit_elems = units(n).elements

    def candidates(anchor: int, region: frozenset[int]) -> Iterable:
        for d in divisors(n):
            coset = frozenset((anchor + h) % n for h in subgroup(n, d))
            if coset <= region and len({class_of[x] for x in coset}) == 1:
                yield coset, frozenset(frozenset(k * x % n for x in coset) for k in unit_elems)

    return [SRing(n, cls, check=False) for cls in _search(n, candidates)]


def coset_closure(a: SRing, *, max_n: int = COSET_CLOSURE_BOUND) -> SRing:
    """Intersection of all coset S-rings whose partition refines ``a``'s.

    For quasidense input the result is itself a coset S-ring; for other
    input that can fail, which is reported as a warning rather than an
    error.
    """
    if a.n > max_n:
        raise LimitExceeded(f"coset closure over Z_{a.n} exceeds the bound {max_n}")
    rings = _coset_rings_refining(a)
    if not rings:  # pragma: no cover - the full ring always qualifies
        raise TheoryViolation("no coset S-ring refines the input")
    result = reduce(intersect, rings)
    if not refines(result, a):  # pragma: no cover - theory
        raise TheoryViolation("coset closure does not refine the input")
    if not all(_is_coset(a.n, cls) for cls in result.classes):
        if is_quasidense(a):  # pragma: no cover - theory
            raise TheoryViolation("coset closure of a quasidense ring must be a coset ring")
        warnings.warn(
            f"coset closure over Z_{a.n} is not a coset ring", CosetClosureNotCoset
        )
    return result
