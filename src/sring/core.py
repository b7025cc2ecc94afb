"""S-rings over Z_n: the partition type, validation, closure, and structure maps.

An S-ring is a partition of the residues 0..n-1 whose classes span a subring
of the integral group ring of Z_n: {0} is a class, every class is closed
under negation up to pairing, and the product of any two class sums is a
constant-coefficient combination of class sums.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, wraps
from itertools import chain, compress
from math import gcd
from operator import add
from typing import Callable, Collection, Iterable, Optional, Sequence, TypeVar, cast

from .errors import (
    LimitExceeded,
    MissingIdentityClass,
    NotAPartition,
    NotASection,
    NotCoprime,
    NotInverseClosed,
    NotMultiplicativelyClosed,
    TheoryViolation,
    ValidationError,
)
from .modarith import _adjoin, divisors, subgroup

__all__ = [
    "CLOSURE_BOUND",
    "SRing",
    "validate",
    "structure_constant",
    "closure",
    "a_subgroups",
    "sections_lattice",
    "restriction",
    "radical",
    "generated",
    "is_wreath",
    "tensor",
    "full_sring",
    "rank2_sring",
    "cyclotomic_sring",
    "refines",
]


# closure's default size bound.  The slowest seeds measured are {2} at
# n = 2^k: 2.4 s at n = 4096 (Python 3.11, one core of a shared 2-vCPU
# host), about four times as long with each doubling of n.
CLOSURE_BOUND = 4096

_F = TypeVar("_F", bound=Callable)


def _per_ring(fn: _F) -> _F:
    """Keep ``fn(a, *args)`` for the life of the ring ``a``.

    Values live in ``a._cache``, under the function's qualified name rather
    than the function, so that a ring with a full cache still pickles.  A
    function of the ring alone keeps its value there directly, as
    ``a._cache[name]``, where a dict of one entry keyed by ``()`` would add
    about 220 bytes per ring and function.  A function with further
    arguments keeps ``a._cache[name][args]``.  A call that raises keeps
    nothing, so a failed build raises again on the next call.
    """
    name = f"{fn.__module__}.{fn.__qualname__}"

    if fn.__code__.co_argcount == 1:

        @wraps(fn)
        def memo(a: "SRing"):
            try:
                return a._cache[name]
            except KeyError:
                pass
            value = a._cache[name] = fn(a)
            return value

    else:

        @wraps(fn)
        def memo(a: "SRing", *args):
            try:
                return a._cache[name][args]
            except KeyError:
                pass
            value = fn(a, *args)
            a._cache.setdefault(name, {})[args] = value
            return value

    return cast(_F, memo)


def _canonical_classes(n: int, classes: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    seen: set[int] = set()
    cleaned = []
    for raw in classes:
        cls = sorted(set(map(int, raw)))
        if not cls:
            raise NotAPartition("empty class")
        for x in cls:
            if not 0 <= x < n:
                raise NotAPartition(f"element {x} out of range for Z_{n}")
            if x in seen:
                raise NotAPartition(f"element {x} appears in two classes")
            seen.add(x)
        cleaned.append(tuple(cls))
    if len(seen) != n:
        missing = min(set(range(len(seen) + 1)) - seen)
        raise NotAPartition(f"element {missing} is not covered")
    return tuple(sorted(cleaned, key=lambda c: c[0]))


class SRing:
    """An S-ring over Z_n, stored as the canonically ordered class partition.

    Classes are sorted internally and listed by smallest element, so equal
    rings compare equal.  A checked build refuses an order or an element
    that is not an int, classes it cannot iterate, or a class that lists an
    element twice, with ``ValidationError``.  Pass ``check=False`` only for
    partitions of ints already known to satisfy the ring axioms.
    """

    def __init__(self, n: int, classes: Iterable[Iterable[int]], *, check: bool = True):
        if check:
            classes = _integer_lists(n, classes)
            _require_distinct(classes)
        self.n = int(n)
        if self.n < 1:
            raise NotAPartition(f"group order must be positive, got {n}")
        self.classes = _canonical_classes(self.n, classes)
        if self.classes[0] != (0,):
            raise MissingIdentityClass(
                f"the class of 0 is {self.classes[0]}, expected (0,)"
            )
        self.class_of = tuple(_labels(self.n, self.classes))
        # derived data of this ring, filled by the functions under _per_ring
        self._cache: dict[str, object] = {}
        if check:
            self._check_ring()

    # -- basic protocol ----------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.classes)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SRing)
            and self.n == other.n
            and self.classes == other.classes
        )

    def __hash__(self) -> int:
        return hash((self.n, self.classes))

    def __repr__(self) -> str:
        body = ", ".join(str(list(c)) for c in self.classes)
        return f"SRing({self.n}; [{body}])"

    # -- structure ---------------------------------------------------------

    def inverse_class(self, i: int) -> int:
        return self.class_of[(-self.classes[i][0]) % self.n]

    @_per_ring
    def product_counts(self, i: int, j: int) -> tuple[int, ...]:
        """Coefficient vector of the class-sum product: counts of x+y at each residue."""
        return tuple(_convolve(self.n, self.classes[i], self.classes[j]))

    def _check_ring(self) -> None:
        """Refine the classes; a ring is the partition that nothing splits.

        Inverse closure is scanned only after a split, since it can fail
        only then.  A partition that refinement leaves whole is stable, so
        negation maps each class onto a class.  Refinement that stops early
        leaves every class one orbit of the class stabilizer K, and -Kx =
        K(-x) is an orbit, so again a class.  After a split the scan runs
        ahead of the search for a class product that is not constant.
        """
        n = self.n
        classes, stab = _wl_stabilize(n, self.class_of)
        if len(classes) == self.rank:
            # nothing split, so the start's class stabilizer is the ring's
            self._cache["sring.core.class_stabilizer"] = stab
            return
        for cls in self.classes:
            neg = sorted((-x) % n for x in cls)
            if list(self.classes[self.class_of[neg[0]]]) != neg:
                raise NotInverseClosed(f"-1 * {list(cls)} is not a class")
        # Some product is not constant on a class: find the first witness.
        for i in range(self.rank):
            for j in range(i, self.rank):
                counts = self.product_counts(i, j)
                for cls in self.classes:
                    c0 = counts[cls[0]]
                    for z in cls[1:]:
                        if counts[z] != c0:
                            raise NotMultiplicativelyClosed(
                                f"product of {list(self.classes[i])} and "
                                f"{list(self.classes[j])} takes values {c0} and "
                                f"{counts[z]} on the class of {cls[0]}"
                            )

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"n": self.n, "classes": [list(c) for c in self.classes]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SRing":
        """The checked build of a JSON object."""
        try:
            n = data["n"]
            classes = data["classes"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed S-ring object: {exc}") from exc
        return cls(n, classes)


def _labels(n: int, classes: Iterable[Iterable[int]]) -> list[int]:
    """The class index of each residue of Z_n."""
    class_of = [0] * n
    for i, cls in enumerate(classes):
        for x in cls:
            class_of[x] = i
    return class_of


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _all_of(values: Iterable[object], kind: type) -> bool:
    """Whether every value is a ``kind`` and none is a bool, read from the
    set of their types in one pass; the common case, ``kind`` alone, is
    one set comparison."""
    types = set(map(type, values))
    return types <= {kind} or all(issubclass(t, kind) and t is not bool for t in types)


def _integer_lists(n: object, classes: object) -> list[list[int]]:
    """The classes as lists of ints, or ``ValidationError`` for an order that
    is not an int, then for classes that are not an iterable of iterables
    of ints: ``int`` would truncate 4.9 to 4, and would read True as 1.  A
    string or a dict iterates but lists no elements, so it is refused as
    the classes or as a class, as a number is."""
    if not _is_int(n):
        raise ValidationError(f"group order must be an integer, got {n!r}")
    try:
        lists = [_listed(c) for c in _listed(classes)]
    except TypeError:
        lists = None
    if lists is None or not _all_of(chain.from_iterable(lists), int):
        raise ValidationError("classes must be a list of lists of integers")
    return lists


def _listed(xs: Iterable) -> list:
    """``xs`` as a list; ``TypeError`` when it is a string, a dict or no
    iterable."""
    if isinstance(xs, (str, bytes, dict)):
        raise TypeError(f"{type(xs).__name__} is not a collection")
    return list(xs)


def _require_int(n: object) -> None:
    """Refuse an order that is not an int with ``ValueError``: ``int``
    would truncate 6.5 to 6, and would read True as 1."""
    if not _is_int(n):
        raise ValueError(f"group order must be an integer, got {n!r}")


def _require_order(n: int) -> None:
    """Refuse an order that is not a positive int with ``ValueError``."""
    _require_int(n)
    if n < 1:
        raise ValueError(f"group order must be positive, got {n}")


def _ints(xs: Iterable[int]) -> list[int]:
    """``xs`` as a list, or ``ValueError`` naming its first element that is
    not an int, read from the set of their types in one pass."""
    xs = list(xs)
    if not _all_of(xs, int):
        bad = next(x for x in xs if not _is_int(x))
        raise ValueError(f"every element must be an integer, got {bad!r}")
    return xs


def _require_distinct(classes: list[list[int]]) -> None:
    """Refuse a class that lists an element twice, naming the first such
    value; a set would silently drop the repeat."""
    for c in classes:
        if len(set(c)) != len(c):
            counts = Counter(c)
            x = next(x for x in c if counts[x] > 1)
            raise ValidationError(f"element {x} appears twice in the class {c}")


def validate(n: int, classes: Iterable[Iterable[int]]) -> SRing:
    """Check the S-ring axioms and return the canonical representation.

    Raises ValidationError for an order or an element that is not an int,
    classes that cannot be iterated, or a class that lists an element twice,
    else NotAPartition, MissingIdentityClass, NotInverseClosed or
    NotMultiplicativelyClosed, naming the first violating witness.
    """
    return SRing(n, classes, check=True)


def structure_constant(a: SRing, x: int, y: int, z: int) -> int:
    """The coefficient of class z in the product of class sums x and y."""
    for idx in (x, y, z):
        if not 0 <= idx < a.rank:
            raise IndexError(f"class index {idx} out of range for rank {a.rank}")
    return a.product_counts(x, y)[a.classes[z][0]]


# -- Schur-Wielandt closure ------------------------------------------------


def _convolve(n: int, xs: Iterable[int], ys: Collection[int]) -> list[int]:
    """Coefficients of the product of the set sums of ``xs`` and ``ys`` in Z[Z_n]."""
    c = [0] * n
    for x in xs:
        for y in ys:
            c[(x + y) % n] += 1
    return c


def _class_stabilizer(n: int, class_of: Sequence[int]) -> tuple[int, ...]:
    """The units k of Z_n with ``class_of[k * x] == class_of[x]`` for all x, ascending.

    These units form a group K, found by closure with coset pruning.  Only
    the units in the class of 1 can lie in K, since k = k * 1 must share the
    class of 1, and they are visited in ascending order.  G, the group found
    so far, starts as {1} and always lies in K.  An undecided unit k is
    tested against every residue.

    - If k passes, it is in K, and so is the group generated by G and k,
      which becomes G.
    - If k fails, every kg with g in G fails too, since k = (kg)g^-1 and
      K is closed under products.  The whole coset kG is ruled out.

    Each unit of the class of 1 is tested, put in G or ruled out, so G ends
    as K.  Refinement keeps K: a finer partition has no larger stabilizer,
    and every class that ``_wl_stabilize`` makes is invariant under this
    group.
    """
    if n == 1:
        return (1,)
    cl = class_of
    # the units put in G or ruled out so far
    decided = bytearray(n)
    decided[1] = 1
    group = [1]
    for k in compress(range(2, n), map(cl[1].__eq__, cl[2:])):
        if decided[k] or gcd(k, n) != 1:
            continue
        if all(cl[k * x % n] == c for x, c in enumerate(cl)):
            # the group of G and k lies in K, so none of it was ruled out
            group = _adjoin(n, group, k)
            for g in group:
                decided[g] = 1
        else:
            for g in group:
                decided[g * k % n] = 1
    return tuple(sorted(group))


@_per_ring
def class_stabilizer(a: SRing) -> tuple[int, ...]:
    """The units of Z_n that fix every class of ``a``, ascending.

    Kept on the ring.  A checked build keeps the group that validation
    refines with (see ``SRing._check_ring``); any other ring computes it on
    first use.
    """
    return _class_stabilizer(a.n, a.class_of)


@_per_ring
def coset_mins(a: SRing) -> tuple[int, ...]:
    """Entry k, for each unit k of Z_n, is the smallest unit of the coset
    k * ``class_stabilizer(a)``; every other entry is 0.

    Two units share a coset exactly when their entries are equal.  Over Z_1
    the one unit is written 1 (see ``modarith.unit_mod``) and its residue is
    0, so the table is (1, 1).  Rings with equal restrictions share one ring
    object, so the table of a restriction is built once for all of them.
    """
    n = a.n
    if n == 1:
        return (1, 1)
    stab = class_stabilizer(a)
    out = [0] * n
    # the first unit of a coset that the loop reaches is its smallest
    for k in range(1, n):
        if not out[k] and gcd(k, n) == 1:
            for e in stab:
                out[k * e % n] = k
    return tuple(out)


def _wl_stabilize(
    n: int, class_of: Sequence[int], stable: Optional[Sequence[int]] = None
) -> tuple[list[list[int]], tuple[int, ...]]:
    """Refine a partition of Z_n to the coarsest stable partition below it.

    Returns the classes of that partition and K, the class stabilizer of
    ``class_of``, ascending (see ``_class_stabilizer``).  K is the class
    stabilizer of the result too: the result refines ``class_of``, so no
    unit outside K fixes its classes, and every class it has is a union of
    K-orbits (below).

    A partition is stable when negation maps each class onto a class and
    every product of two class sums is constant on each class; with {0} a
    class, that is an S-ring.  ``stable``, if given, is a stable partition
    that ``class_of`` refines (the ``class_of`` of an S-ring); the default
    is the trivial partition {Z_n}, which is stable too.

    Refinement runs a splitter queue.  For sets A, B of residues let
    N(A, B)(z) = #{x in A : z - x in B}, the coefficient of z in the product
    of the set sums of A and B.  A splitter A gives each residue z the key
    (whether -z is in A, the sorted classes of z - x over x in A), which
    holds N(A, B)(z) for every current class B.  Every class whose residues
    disagree is split, and all its parts but the one with the most elements
    are queued (Hopcroft's rule).  The queue starts with the classes of
    ``class_of`` inside each class of ``stable``, all but the largest.
    These starting splitters A_1, ..., A_m are keyed together, in one pass:
    with b(y) = i for y in A_i and 0 for y in none of them, z gets the key
    (b(-z), the sorted codes b(x) * n + class of z - x over x in their
    union), which holds the test "-z in A_i" and N(A_i, B)(z) for every i
    and every current class B.  After that pass the queue hands out one
    splitter at a time, the newest first, which measured fastest; the order
    does not change the result.  It stops when it is empty or every class
    is one orbit of K, the class stabilizer of the start.  For a stable
    start the starting splitters are all classes but the largest, so
    validation keys each orbit representative once.

    The result is the coarsest stable partition W that refines the start,
    the fixed point that a round over every class product at a time
    reaches too:

    - Every split is forced.  W refines the start and, by induction, every
      later partition, so each splitter, its negation and each class B are
      unions of classes of W; then N(A, B) and the test "-z in A" are
      constant on the classes of W, and W refines the result.
    - The result is stable.  Call Z_n, the classes of ``stable`` and every
      splitter keyed so far processed.  N is additive in both arguments
      and symmetric (x -> z - x maps one count onto the other).  Of two
      splitters keyed one after the other, the first was a union of
      classes when the second was keyed, whose keys then held their N.  Two
      starting splitters are both unions of classes when the batch is
      keyed, so each key holds N with every class and hence with the other
      splitter.  Z_n and the classes of ``stable`` are unions of classes at
      every step, N(Z_n, B) is |B|, and two classes of ``stable`` have N
      constant on its classes.  So the N of any two processed sets is
      constant on the final classes.  Every class is a signed sum of
      processed or queued sets: each class of ``class_of`` is a starting
      splitter or its class of ``stable`` minus the starting ones, and the
      part of a split class that is not queued is the class minus the
      others.  When the queue is empty, every class is a signed sum of
      processed sets, so the product of any two final classes, and the
      test "-z in C" for a final class C, is constant on the final
      classes.  Keys are K-invariant (below), so a class that is one
      K-orbit never splits, and stopping once every class is one changes
      nothing: this ends the validation of an orbit partition, such as a
      cyclotomic ring, before any key is computed.

    Keys are computed only at the smallest element of each K-orbit, and
    the rest of the orbit follows it.  Every class and every splitter A is
    a union of K-orbits, and for k in K, x -> kx permutes A and maps z - x
    to kz - kx, which has the same class; k also fixes the test -z in A,
    and b(kx) = b(x) in the starting pass.

    Classes come back numbered by first occurrence, or in the order of the
    input's labels when nothing splits and those labels are 0..k-1.
    """
    stab = _class_stabilizer(n, class_of)
    first: dict[int, int] = {}
    cl = [first.setdefault(c, len(first)) for c in class_of]
    # reps[c]: the smallest element of each K-orbit in class c
    reps: list[list[int]] = [[] for _ in first]
    orbit: list[list[int]] = [[]] * n
    for z in range(n):
        if not orbit[z]:
            orb = list({k * z % n: None for k in stab})
            for x in orb:
                orbit[x] = orb
            reps[cl[z]].append(z)
    orbits = sum(map(len, reps))

    def elements(rs: list[int]) -> list[int]:
        return [x for z in rs for x in orbit[z]]

    within: dict[int, list[list[int]]] = {}
    for rs in reps:
        within.setdefault(0 if stable is None else stable[rs[0]], []).append(elements(rs))
    batch: list[list[int]] = []
    for parts in within.values():
        parts.sort(key=len)
        batch += parts[:-1]
    queue: list[list[int]] = []
    while batch and len(reps) < orbits:
        # b[x]: the 1-based number of the batch splitter holding x, else 0
        b = [0] * n
        for i, part in enumerate(batch, 1):
            for x in part:
                b[x] = i
        xs = list(compress(range(n), b))
        # more than one splitter: each x is coded by its splitter.  When the
        # batch holds most of Z_n, reading cl[z - x] for every x off a
        # reversed copy of cl and keeping the x of the batch is cheaper than
        # reading one x at a time
        codes = [b[x] * n for x in xs] if len(batch) > 1 else None
        whole = 2 * len(xs) > n
        for c in range(len(reps)):
            if len(reps[c]) < 2:
                continue
            keyed: dict[tuple, list[int]] = {}
            for z in reps[c]:
                if whole:
                    # cl[z::-1] + cl[:z:-1] lists cl[z - x] for x = 0..n-1
                    got = compress(cl[z::-1] + cl[:z:-1], b)
                else:
                    # cl[z - x] is cl[(z - x) % n] for z - x in (-n, 0) too
                    got = map(cl.__getitem__, map(z.__sub__, xs))
                key = (b[-z], *sorted(map(add, codes, got) if codes else got))
                keyed.setdefault(key, []).append(z)
            if len(keyed) > 1:
                split = sorted(
                    ((elements(rs), rs) for rs in keyed.values()), key=lambda p: len(p[0])
                )
                reps[c] = split.pop()[1]
                for part, rs in split:
                    for x in part:
                        cl[x] = len(reps)
                    reps.append(rs)
                    queue.append(part)
        batch = [queue.pop()] if queue else []
    if len(reps) == len(first) and max(class_of) + 1 == len(first):
        labels = class_of
    else:
        first = {}
        labels = [first.setdefault(c, len(first)) for c in cl]
    classes: list[list[int]] = [[] for _ in reps]
    for z, c in enumerate(labels):
        classes[c].append(z)
    return classes, stab


def closure(n: int, seeds: Sequence[Iterable[int]], *, max_n: int = CLOSURE_BOUND) -> SRing:
    """The smallest S-ring over Z_n whose module contains every seed set.

    Starts from the atoms of the boolean algebra generated by the seeds
    together with {0}, then refines them by the splitter queue of
    ``_wl_stabilize``, whose known-stable partition is the trivial one
    {Z_n}: every atom but the largest starts as a splitter.  Raises
    ``LimitExceeded`` when n exceeds ``max_n``, before anything of size n
    is built.
    """
    _require_order(n)
    if n > max_n:
        raise LimitExceeded(f"closure over Z_{n} exceeds the bound {max_n}")
    seed_sets = []
    for raw in seeds:
        s = frozenset(x % n for x in _ints(raw))
        if not s:
            raise ValueError("seed sets must be non-empty")
        seed_sets.append(s)
    ids: dict[tuple[bool, ...], int] = {}
    class_of = [0] * n
    for z in range(n):
        key = (z == 0,) + tuple(z in s for s in seed_sets)
        class_of[z] = ids.setdefault(key, len(ids))
    classes, _ = _wl_stabilize(n, class_of)
    return SRing(n, classes, check=False)


def refines(finer: SRing, coarser: SRing) -> bool:
    """True when every class of ``coarser`` is a union of classes of ``finer``."""
    if finer.n != coarser.n:
        raise ValueError("rings live over different groups")
    return all(
        len({coarser.class_of[x] for x in cls}) == 1 for cls in finer.classes
    )


# -- subgroup lattice ------------------------------------------------------


@_per_ring
def a_subgroups(a: SRing) -> tuple[int, ...]:
    """Orders of the subgroups of Z_n that are unions of classes of ``a``."""
    out = []
    for d in divisors(a.n):
        h = subgroup(a.n, d)
        touched = {a.class_of[x] for x in h}
        if sum(len(a.classes[i]) for i in touched) == d:
            out.append(d)
    return tuple(out)


@_per_ring
def sections_lattice(a: SRing) -> tuple[tuple[int, int], ...]:
    """All pairs (l, u) with l | u, both orders of subgroups respected by ``a``."""
    ds = a_subgroups(a)
    return tuple((l, u) for l in ds for u in ds if u % l == 0)


@_per_ring
def restriction(a: SRing, l: int, u: int) -> SRing:
    """The induced S-ring on the section H_u / H_l, over Z_{u/l}.

    The element j*(n/u) + H_l maps to j mod (u/l).  Rings with equal
    restrictions share one ring object, built and checked once (see
    ``_restricted_ring``).
    """
    if (l, u) not in sections_lattice(a):
        raise NotASection(f"({l}, {u}) is not a section of {a!r}")
    step = a.n // u
    m = u // l
    images = {
        tuple(sorted({(x // step) % m for x in cls})) for cls in a.classes if cls[0] % step == 0
    }
    try:
        return _restricted_ring(m, tuple(sorted(images)))
    except ValidationError as exc:  # pragma: no cover - guaranteed by theory
        raise TheoryViolation(f"restriction to ({l}, {u}) is not an S-ring: {exc}") from exc


@lru_cache(maxsize=4096)
def _restricted_ring(m: int, classes: tuple[tuple[int, ...], ...]) -> SRing:
    """The checked ring over Z_m with these classes, one object per partition.

    ``classes`` is sorted, each class sorted, so equal partitions give equal
    keys; tuples keep the cached keys about a third the size of frozensets.
    Many rings share a restriction, so sharing the ring also shares what
    ``_per_ring`` keeps on it.  The bound keeps the cache from holding every
    ring of a long session alive; a build that raises is not kept.
    """
    return SRing(m, classes, check=True)


def radical(n: int, xs: Iterable[int]) -> int:
    """Order of the largest subgroup H with H + X = X.

    H_d + X = X exactly when X + n/d lies in X: H_d is generated by n/d, and
    translation is a bijection, so X + n/d lies in X only as X itself.  One
    generator per divisor is tested, not every element of H_d.
    """
    _require_int(n)
    return _radical(n, [v % n for v in _ints(xs)])


def _radical(n: int, residues: Iterable[int]) -> int:
    """``radical`` of residues of Z_n, such as a class of a ring, without
    the type checks."""
    x = frozenset(residues)
    if not x:
        raise ValueError("the radical of an empty set is undefined")
    best = 1
    for d in divisors(n)[1:]:
        g = n // d
        if all((g + v) % n in x for v in x):
            best = d
    return best


def generated(n: int, xs: Iterable[int]) -> int:
    """Order of the subgroup of Z_n generated by the set."""
    _require_int(n)
    return _generated(n, _ints(xs))


def _generated(n: int, xs: Iterable[int]) -> int:
    """``generated`` without the type checks, for a class of a ring."""
    return n // gcd(n, *xs)


def is_wreath(a: SRing, u: int, l: int) -> bool:
    """True when every class outside H_u is a union of H_l-cosets."""
    if (l, u) not in sections_lattice(a):
        raise NotASection(f"({l}, {u}) is not a section of {a!r}")
    step = a.n // u
    return all(
        _radical(a.n, cls) % l == 0 for cls in a.classes if cls[0] % step
    )


def tensor(a: SRing, b: SRing) -> SRing:
    """The S-ring over Z_{ab} whose classes are CRT images of class pairs."""
    if gcd(a.n, b.n) != 1:
        raise NotCoprime(f"orders {a.n} and {b.n} share a factor")
    n = a.n * b.n
    crt: dict[tuple[int, int], int] = {}
    for z in range(n):
        crt[(z % a.n, z % b.n)] = z
    classes = [
        frozenset(crt[(x % a.n, y % b.n)] for x in ca for y in cb)
        for ca in a.classes
        for cb in b.classes
    ]
    return SRing(n, classes, check=True)


# -- stock constructions ---------------------------------------------------


def full_sring(n: int) -> SRing:
    """The group ring itself: every class a singleton."""
    return SRing(n, [[x] for x in range(n)], check=False)


def rank2_sring(n: int) -> SRing:
    """The coarsest S-ring over Z_n (n >= 2): {0} and everything else."""
    if n < 2:
        raise ValueError("rank-2 ring needs n >= 2")
    return SRing(n, [[0], list(range(1, n))], check=False)


def cyclotomic_sring(n: int, unit_gens: Iterable[int]) -> SRing:
    """Orbit partition of the unit subgroup generated by ``unit_gens`` acting on Z_n."""
    _require_order(n)
    group = [1 % n]
    for g in _ints(unit_gens):
        g %= n
        if gcd(g, n) != 1:
            raise ValueError(f"{g} is not a unit modulo {n}")
        group = _adjoin(n, group, g)
    seen: set[int] = set()
    classes = []
    for z in range(n):
        if z in seen:
            continue
        orbit = frozenset((k * z) % n for k in group)
        seen |= orbit
        classes.append(orbit)
    return SRing(n, classes, check=True)
