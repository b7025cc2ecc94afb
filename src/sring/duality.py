"""Exact duality: character sums as cyclotomic integers and the dual S-ring.

Character values are computed in Z[x]/(Phi_n(x)) with integer coefficient
vectors, never floating point.  Two characters are equivalent for the dual
ring exactly when their value rows over all classes agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .core import SRing, _per_ring, class_stabilizer
from .errors import DualNotAnSRing, ValidationError
from .modarith import cyclotomic_poly
from .sections import Section

__all__ = ["CyclotomicInt", "character_sum", "dual_sring", "dual_section"]


@dataclass(frozen=True)
class CyclotomicInt:
    """An element of Z[zeta_n], stored by coefficients modulo Phi_n."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        deg = len(cyclotomic_poly(self.n)) - 1
        if len(self.coeffs) != deg:
            raise ValueError(
                f"expected {deg} coefficients modulo the {self.n}-th cyclotomic polynomial"
            )

    @classmethod
    def constant(cls, n: int, value: int) -> "CyclotomicInt":
        deg = len(cyclotomic_poly(n)) - 1
        return cls(n, (value,) + (0,) * (deg - 1))

    def __add__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        if self.n != other.n:
            raise ValueError("cyclotomic integers of different conductors")
        return CyclotomicInt(
            self.n, tuple(x + y for x, y in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "CyclotomicInt":
        return CyclotomicInt(self.n, tuple(-x for x in self.coeffs))


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Coefficient vectors of x^k modulo Phi_n for k = 0..n-1."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    rows = []
    cur = [0] * deg
    cur[0] = 1
    for _ in range(n):
        rows.append(tuple(cur))
        top = cur[deg - 1]
        cur = [0] + cur[: deg - 1]
        if top:
            # x^deg = -(lower coefficients of Phi_n), as Phi_n is monic
            for i in range(deg):
                cur[i] -= top * phi[i]
    return tuple(rows)


def character_sum(n: int, xs: Iterable[int], a: int) -> CyclotomicInt:
    """Sum of zeta_n^(a*x) over the set, reduced modulo Phi_n."""
    table = _power_table(n)
    deg = len(table[0])
    acc = [0] * deg
    for x in xs:
        row = table[(a * x) % n]
        for i in range(deg):
            acc[i] += row[i]
    return CyclotomicInt(n, tuple(acc))


@_per_ring
def dual_sring(a: SRing) -> SRing:
    """The S-ring on the character group, classes by equality of value rows.

    Each power of zeta_n is packed into one integer with a w-bit lane per
    coefficient, shifted to be non-negative.  A class sum adds at most n
    rows, which w is wide enough to hold, so no lane carries into the next
    and two packed sums are equal exactly when their coefficients are.

    A unit k that fixes every class of ``a`` maps each class onto itself by
    x -> kx, so the rows of t and kt have the same sums: each orbit of the
    class stabilizer computes one row, at its smallest element.
    """
    n = a.n
    table = _power_table(n)
    low = min(min(row) for row in table)
    w = (n * (max(max(row) for row in table) - low)).bit_length()
    packed = [
        sum((c - low) << (w * i) for i, c in enumerate(row)) for row in table
    ]
    stab = class_stabilizer(a)
    ids: dict[tuple[int, ...], int] = {}
    row_of = [-1] * n
    for t in range(n):
        if row_of[t] < 0:
            key = tuple(sum(packed[t * x % n] for x in cls) for cls in a.classes)
            i = ids.setdefault(key, len(ids))
            for k in stab:
                row_of[k * t % n] = i
    rows: list[list[int]] = [[] for _ in ids]
    for t, i in enumerate(row_of):
        rows[i].append(t)
    try:
        return SRing(n, rows, check=True)
    except ValidationError as exc:  # pragma: no cover - guaranteed by theory
        raise DualNotAnSRing(f"character partition of {a!r}: {exc}") from exc


def dual_section(n: int, s: Section) -> Section:
    """The annihilator section: (l, u) maps to (n/u, n/l)."""
    if s.n != n:
        raise ValueError(f"{s} does not live over Z_{n}")
    return Section(n, n // s.u, n // s.l)
