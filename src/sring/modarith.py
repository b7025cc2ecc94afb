"""Exact arithmetic over Z_n: divisors, subgroups, unit groups, cyclotomic polynomials."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Collection

__all__ = [
    "CyclicGroup",
    "UnitGroup",
    "divisors",
    "subgroup",
    "units",
    "unit_mod",
    "unit_subgroups",
    "is_prime",
    "cyclotomic_poly",
]


@dataclass(frozen=True)
class CyclicGroup:
    """The additive group of residues modulo n."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"group order must be positive, got {self.n}")

    @property
    def elements(self) -> range:
        return range(self.n)


@dataclass(frozen=True)
class UnitGroup:
    """The multiplicative group of residues coprime to the modulus.

    For modulus 1 the single unit is represented by 1.
    """

    modulus: int
    elements: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, k: int) -> bool:
        return unit_mod(k, self.modulus) in self.elements

    def inverse(self, k: int) -> int:
        if k not in self:
            raise ValueError(f"{k} is not a unit modulo {self.modulus}")
        return unit_mod(pow(k, -1, self.modulus), self.modulus) if self.modulus > 1 else 1


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n in increasing order."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def subgroup(n: int, d: int) -> frozenset[int]:
    """The unique subgroup of order d in Z_n, i.e. the multiples of n/d."""
    if n < 1 or d < 1 or n % d:
        raise ValueError(f"{d} does not divide {n}")
    step = n // d
    return frozenset(range(0, n, step))


@lru_cache(maxsize=None)
def units(m: int) -> UnitGroup:
    """The unit group modulo m."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if m == 1:
        return UnitGroup(1, (1,))
    return UnitGroup(m, tuple(k for k in range(1, m) if gcd(k, m) == 1))


def unit_mod(k: int, m: int) -> int:
    """Reduce the unit k modulo m, mapping everything to 1 when m == 1."""
    return k % m if m > 1 else 1


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


def _adjoin(m: int, group: Collection[int], k: int) -> list[int]:
    """The subgroup of U(m) generated by the subgroup ``group`` and the unit
    ``k``, a residue mod m, listed as the cosets G, kG, k^2 G, ... in turn.

    U(m) is abelian, so the cosets k^i G are disjoint up to the first power
    of k in G, and their union is closed under products: it is the group
    generated by G and k.  A power k^i in some k^j G with 0 < j < i would
    put the earlier power k^(i-j) in G, so testing G alone finds it.
    """
    out, p = list(group), k
    while p not in group:
        out += [g * p % m for g in group]
        p = p * k % m
    return out


@lru_cache(maxsize=None)
def unit_subgroups(m: int) -> tuple[tuple[int, ...], ...]:
    """All subgroups of the unit group modulo m, each as a sorted element tuple.

    Every subgroup is reached from {1} by adjoining one unit at a time.
    """
    base = units(m).elements
    found = {frozenset({1})}
    frontier = [frozenset({1})]
    while frontier:
        sub = frontier.pop()
        for g in base:
            if g not in sub:
                bigger = frozenset(_adjoin(m, sub, g))
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
    return tuple(sorted((tuple(sorted(s)) for s in found), key=lambda t: (len(t), t)))


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Divide two integer polynomials (lowest degree first) known to divide exactly."""
    num = list(num)
    if den[-1] not in (1, -1):
        raise ValueError("expected a monic divisor")
    quot = [0] * (len(num) - len(den) + 1)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        quot[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num):
        raise ArithmeticError("division was not exact")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, lowest degree first.

    Computed by exact division of x^n - 1 by the product of all lower
    cyclotomic polynomials indexed by proper divisors of n.
    """
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    num = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        num = _poly_div_exact(num, list(cyclotomic_poly(d)))
    return tuple(num)
