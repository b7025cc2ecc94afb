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
from typing import Optional

from .core import SRing, generated, radical
from .errors import NoInducingUnit, NotASection, ReconstructionFailed, TheoryViolation
from .modarith import units
from .multipliers import Multiplier, aut_stabilizer, is_valid_outer_multiplier
from .sections import Section, frs0, is_quasidense, restrict_to

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
    for i in range(a.rank):
        for j in range(i, a.rank):
            ca = a.product_counts(i, j)
            cb = b.product_counts(class_map[i], class_map[j])
            for k in range(a.rank):
                if ca[a.classes[k][0]] != cb[b.classes[class_map[k]][0]]:
                    return False
    return True


def _class_fingerprints(a: SRing) -> list[tuple]:
    out = []
    for i in range(a.rank):
        inv = a.inverse_class(i)
        out.append(
            (
                len(a.classes[i]),
                inv == i,
                tuple(sorted(a.product_counts(i, i))),
                tuple(sorted(a.product_counts(i, inv))),
            )
        )
    return out


def similarities(a: SRing, b: SRing) -> list[Similarity]:
    """All similarities from ``a`` to ``b``, sorted by class map."""
    if a.n != b.n or a.rank != b.rank:
        return []
    if sorted(map(len, a.classes)) != sorted(map(len, b.classes)):
        return []
    r = a.rank
    fp_a = _class_fingerprints(a)
    fp_b = _class_fingerprints(b)
    candidates = [
        [j for j in range(r) if fp_b[j] == fp_a[i]] for i in range(r)
    ]
    if any(not c for c in candidates):
        return []
    order = sorted(range(r), key=lambda i: (len(a.classes[i]), a.classes[i][0]))
    assigned: dict[int, int] = {}
    used = [False] * r
    found: list[tuple[int, ...]] = []
    sorted_counts_a: dict[tuple[int, int], list[int]] = {}
    sorted_counts_b: dict[tuple[int, int], list[int]] = {}

    def sorted_counts(ring: SRing, memo: dict, p: int, q: int) -> list[int]:
        key = (p, q) if p <= q else (q, p)
        if key not in memo:
            memo[key] = sorted(ring.product_counts(*key))
        return memo[key]

    def consistent(i: int, j: int) -> bool:
        inv_i = a.inverse_class(i)
        if inv_i in assigned and assigned[inv_i] != b.inverse_class(j):
            return False
        trial = dict(assigned)
        trial[i] = j
        items = list(trial.items())
        for pi, (p, fp) in enumerate(items):
            for q, fq in items[pi:]:
                if i not in (p, q):
                    # old factor pair: only the newly assigned target is unchecked
                    ca = a.product_counts(p, q)
                    cb = b.product_counts(fp, fq)
                    if ca[a.classes[i][0]] != cb[b.classes[j][0]]:
                        return False
                    continue
                if sorted_counts(a, sorted_counts_a, p, q) != sorted_counts(
                    b, sorted_counts_b, fp, fq
                ):
                    return False
                ca = a.product_counts(p, q)
                cb = b.product_counts(fp, fq)
                for k, fk in items:
                    if ca[a.classes[k][0]] != cb[b.classes[fk][0]]:
                        return False
        return True

    def search(pos: int) -> None:
        if pos == r:
            found.append(tuple(assigned[i] for i in range(r)))
            return
        i = order[pos]
        for j in candidates[i]:
            if not used[j] and consistent(i, j):
                assigned[i] = j
                used[j] = True
                search(pos + 1)
                used[j] = False
                del assigned[i]

    search(0)
    out = [
        Similarity(a, b, cmap) for cmap in sorted(found) if is_similarity(a, b, cmap)
    ]
    return out


def restrict_similarity(phi: Similarity, s: Section) -> Similarity:
    """The induced similarity between the restrictions to a common section."""
    a, b = phi.source, phi.target
    if s.n != a.n:
        raise NotASection(f"{s} does not live over Z_{a.n}")
    ra = restrict_to(a, s)
    rb = restrict_to(b, s)
    step = a.n // s.u
    m = s.m
    cmap: dict[int, int] = {}
    for i, cls in enumerate(a.classes):
        if cls[0] % step:
            continue
        img = b.classes[phi.class_map[i]]
        if img[0] % step:  # pragma: no cover - theory
            raise TheoryViolation(f"similarity moved a class out of the subgroup H_{s.u}")
        src = ra.class_of[(cls[0] // step) % m]
        dst = rb.class_of[(img[0] // step) % m]
        if cmap.setdefault(src, dst) != dst:  # pragma: no cover - theory
            raise TheoryViolation(f"restriction to {s} is not well defined")
    return Similarity(ra, rb, tuple(cmap[i] for i in range(ra.rank)))


def from_unit(a_s: SRing, k: int) -> Optional[Similarity]:
    """The class map X -> k*X when multiplication by k permutes the classes."""
    m = a_s.n
    if k not in units(m):
        raise ValueError(f"{k} is not a unit modulo {m}")
    cmap = []
    for cls in a_s.classes:
        image = frozenset((k * x) % m for x in cls)
        j = a_s.class_of[min(image)]
        if frozenset(a_s.classes[j]) != image:
            return None
        cmap.append(j)
    return Similarity(a_s, a_s, tuple(cmap))


def inducing_unit(a_s: SRing, psi: Similarity) -> Optional[int]:
    """The smallest unit k with X -> k*X equal to ``psi``, if one exists."""
    for k in units(a_s.n).elements:
        cand = from_unit(a_s, k)
        if cand is not None and cand.class_map == psi.class_map:
            return k
    return None


def fs_of(a: SRing, phi: Similarity) -> Multiplier:
    """The outer multiplier collecting the units inducing ``phi`` on each section.

    Requires a quasidense ring; every restriction of a similarity of such a
    ring to a distinguished section is induced by a unit.
    """
    if not is_quasidense(a):
        raise ValueError("outer multiplier extraction requires a quasidense ring")
    if phi.source != a or phi.target != a:
        raise ValueError("similarity does not act on the given ring")
    entries = []
    for s in frs0(a):
        k = inducing_unit(restrict_to(a, s), restrict_similarity(phi, s))
        if k is None:
            raise NoInducingUnit(f"restriction to {s} is not induced by any unit")
        entries.append((s, aut_stabilizer(a, s).elements, k))
    om = Multiplier(entries)
    if not is_valid_outer_multiplier(a, om):  # pragma: no cover - theory
        raise TheoryViolation(f"extracted family of {phi} is not an outer multiplier")
    return om


def similarity_from_outer(a: SRing, om: Multiplier) -> Similarity:
    """Reassemble a similarity from an outer multiplier, classwise.

    Each class is pushed through the canonical coordinates of its own
    generated-over-radical section, multiplied by the assigned unit there,
    and pulled back.
    """
    if not is_quasidense(a):
        raise ValueError("reconstruction requires a quasidense ring")
    if set(om.sections) != set(frs0(a)):
        raise ValueError("outer multiplier is not defined over this ring's sections")
    cmap = []
    for cls in a.classes:
        p = Section(a.n, radical(a.n, cls), generated(a.n, cls))
        k = om.unit_for(p)
        step = a.n // p.u
        m = p.m
        image_coords = {(k * (x // step)) % m for x in cls}
        image = frozenset(
            x for x in range(0, a.n, step) if (x // step) % m in image_coords
        )
        j = a.class_of[min(image)]
        if frozenset(a.classes[j]) != image:
            raise ReconstructionFailed(
                f"image of {list(cls)} under unit {k} on {p} is not a class"
            )
        cmap.append(j)
    phi = Similarity(a, a, tuple(cmap))
    if not is_similarity(a, a, phi.class_map):
        raise ReconstructionFailed("classwise images do not form a similarity")
    return phi
