"""Modular arithmetic helpers: divisors, units, cyclotomic polynomials."""

from __future__ import annotations

from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sring.modarith import (
    CyclicGroup,
    UnitGroup,
    cyclotomic_poly,
    divisors,
    is_prime,
    subgroup,
    unit_mod,
    unit_subgroups,
    units,
)


def test_divisors_sorted_and_complete():
    assert divisors(1) == (1,)
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(36) == (1, 2, 3, 4, 6, 9, 12, 18, 36)


@given(st.integers(min_value=1, max_value=400))
def test_divisors_match_definition(n):
    assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0)


def test_subgroup_is_the_unique_subgroup_of_that_order():
    assert subgroup(12, 1) == frozenset({0})
    assert subgroup(12, 3) == frozenset({0, 4, 8})
    assert subgroup(12, 12) == frozenset(range(12))
    with pytest.raises(ValueError):
        subgroup(12, 5)


@given(st.integers(min_value=1, max_value=120))
def test_subgroup_orders(n):
    for d in divisors(n):
        h = subgroup(n, d)
        assert len(h) == d
        assert all((x + y) % n in h for x in h for y in h)


def test_units_small():
    assert tuple(units(1).elements) == (1,)
    assert set(units(8).elements) == {1, 3, 5, 7}
    assert set(units(12).elements) == {1, 5, 7, 11}
    assert units(9).order == 6


def test_unit_group_contains_and_inverse():
    g = units(10)
    assert 3 in g and 5 not in g and 13 in g  # membership is mod 10
    assert g.inverse(3) == 7
    assert unit_mod(21, 10) == 1
    assert unit_mod(5, 1) == 1


def test_cyclic_group_elements():
    assert list(CyclicGroup(4).elements) == [0, 1, 2, 3]
    assert CyclicGroup(1).elements == range(1)
    with pytest.raises(ValueError):
        CyclicGroup(0)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(1, 32):
        assert is_prime(n) == (n in primes)


@pytest.mark.parametrize("m", range(1, 25))
def test_unit_subgroups_against_subset_search(m):
    # Every subset of the units, decided element by element in sorted order.
    # A branch is cut only when the product of two included elements was
    # already excluded, so no subset that passes the leaf check is skipped.
    g = sorted(units(m).elements)
    closed = set()

    def search(i: int, sub: set[int], out: set[int]) -> None:
        if any(x * y % m in out for x in sub for y in sub):
            return
        if i < len(g):
            search(i + 1, sub | {g[i]}, out)
            search(i + 1, sub, out | {g[i]})
        elif 1 in sub and all(x * y % m in sub or m == 1 for x in sub for y in sub):
            if m == 1:
                sub = {1}
            closed.add(tuple(sorted(sub)))

    search(0, set(), set())
    assert set(unit_subgroups(m)) == closed


def _generated_by(m: int, gens: tuple[int, ...]) -> tuple[int, ...]:
    """The subgroup of U(m) that ``gens`` generate, by a breadth-first
    search over products with one generator at a time."""
    group, frontier = {1}, [1]
    for x in frontier:
        for g in gens:
            y = x * g % m
            if y not in group:
                group.add(y)
                frontier.append(y)
    return tuple(sorted(group))


@pytest.mark.parametrize("m, rank", [(81, 1), (243, 1), (64, 2), (128, 2)])
def test_unit_subgroups_against_generator_search(m, rank):
    # U(81) and U(243) are cyclic, so every subgroup is the closure of one
    # unit; U(64) = C2 x C16 and U(128) = C2 x C32 have rank 2, so every
    # subgroup is the closure of two units
    gens = combinations_with_replacement(units(m).elements, rank)
    want = {_generated_by(m, g) for g in gens}
    assert unit_subgroups(m) == tuple(sorted(want, key=lambda t: (len(t), t)))


def test_cyclotomic_known_values():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for n in range(1, 31):
        want = tuple(reversed(sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()))
        assert cyclotomic_poly(n) == want


@given(st.integers(min_value=1, max_value=200))
def test_cyclotomic_degrees_sum_to_n(n):
    total = sum(len(cyclotomic_poly(d)) - 1 for d in divisors(n))
    assert total == n
    assert len(cyclotomic_poly(n)) - 1 == units(n).order


def test_unit_group_of_one_is_trivial():
    g = units(1)
    assert isinstance(g, UnitGroup)
    assert g.order == 1 and 0 in g and 1 in g
