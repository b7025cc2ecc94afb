"""Refinement, ring validation, the dual, projective equivalence, the
multiplier layer and the similarity layer against the code they replaced.

The reference implementations below are the earlier bodies of
``core._wl_stabilize``, ``SRing._check_ring`` and ``duality.dual_sring``:
one class-product convolution per pair of classes, and one ``character_sum``
per class and character; of ``sections.proj_classes`` and
``sections.f_unit``, which label the components of the multiple relation's
graph over all sections of Z_n and compose ``f_unit`` along a BFS path; of
``multipliers._families`` and
``multipliers._is_family``, which test every pair of sections of ``frs0``,
of ``multipliers._families`` over the covering relation, with one recursion
frame per section of ``frs0``, of ``core.radical``, which tested every
element of each subgroup,
of ``multipliers._constraints``, which listed for each section every
section containing it and every earlier projective peer,
and of ``multipliers.theta``, which re-sorted every projected family through
the public ``Multiplier`` constructor and validated it on every call; and of
``similarities.similarities``, ``is_similarity``, ``from_unit`` and
``inducing_unit``, which read structure constants from ``product_counts``
vectors and compare images as frozensets; and of ``core._split`` and the
row loop of ``duality.dual_sring``, which computed a signature or a row for
every residue, and of ``multipliers.aut_stabilizer``, which tested every
unit of Z_m against the classes as frozensets; of
``similarities.restrict_similarity`` and ``inducing_unit``, which rescanned
every class of the ring and tried the units in the image of the class of 1
on each call; and of the loop of ``oracle._enumerate_cached``, which refined
every candidate class split by the candidate alone; of
``similarities.fs_of``, which restricted each similarity through
``restrict_similarity``, of ``similarity_from_outer``, which scanned H_u for
the image of every class, of ``multipliers._is_family``, which compared
cosets as frozensets, and of ``multipliers._project``, which took the
smallest unit over each stabilizer coset; and of ``similarities`` with its
final ``is_similarity`` filter; and of the round loop of
``core._wl_stabilize``, which ran one full ``_split`` round after another
until a round split nothing; and of ``core._class_stabilizer``, which tried
every unit in the class of 1 against every residue, and of
``oracle._enumerate_rec``, which refined every candidate class; and of
``oracle._coset_rings_refining``, which ran a backtracker of its own,
``_coset_rec``, that split by each coset alone and filtered the rings it
reached afterwards, with ``_stabilize_partition`` for its start; and of
``similarities._similarity_maps`` with ``_search_similarities``, which
walked every leaf of the search for the similarities of a ring to itself
and to another ring; and of ``oracle.verify_isomorphism``, which compared
the two sides of f(X + y) = phi(X) + f(y) as sets for every class X and
every y; and ``core._split`` itself, the one full refinement round with
which ``SRing._check_ring`` tested stability before it refined through
the splitter queue of ``core._wl_stabilize``; and of the rank-2 test of
``sections._composite_rank2_section`` and ``singular_witness`` and the
full-split guard of ``sections.s_extension``, which built and validated the
restricted ring.  They are kept here as test oracles only.

The per-ring memos of ``similarities`` of a ring to itself, of
``oracle._realized``, of ``fs_of`` and of ``similarity_from_outer`` are
checked against their own uncached bodies (``__wrapped__``) on fresh copies
of the rings, in ``test_similarity_memos_match_the_uncached_functions``.
"""

from __future__ import annotations

import importlib
import random
import re
from functools import lru_cache, partial
from itertools import compress, permutations
from math import gcd
from operator import add, floordiv
from typing import Optional, Sequence

import sring.multipliers
import sring.oracle
import sring.sections
import pytest

from sring import (
    SRing,
    TheoryViolation,
    NoInducingUnit,
    NotASection,
    ReconstructionFailed,
    SRingError,
    NotEquivalent,
    Section,
    ValidationError,
    aut_stabilizer,
    character_sum,
    closure,
    cyclotomic_sring,
    dual_sring,
    f_unit,
    fmult_group,
    from_unit,
    frs0,
    fs_of,
    full_sring,
    inducing_unit,
    is_quasidense,
    is_separable,
    is_similarity,
    is_valid_multiplier,
    is_multiple,
    is_valid_outer_multiplier,
    mult_group,
    proj_classes,
    radical,
    rank2_sring,
    reduce_to_quasidense,
    refines,
    restrict_similarity,
    restrict_to,
    ring_sections,
    similarities,
    similarity_from_outer,
    tensor,
    theta,
    validate,
)
from sring.core import _class_stabilizer, _wl_stabilize, sections_lattice
from sring.duality import _power_table
from sring.errors import NotInverseClosed, NotMultiplicativelyClosed
from sring.modarith import divisors, subgroup, unit_mod, unit_subgroups, units
from sring.multipliers import Multiplier, _is_subsection
from sring.oracle import (
    COSET_CLOSURE_BOUND,
    Isomorphism,
    _candidate_classes,
    _is_coset,
    _labels,
    _pinned_products_constant,
    _realized_maps,
    enumerate_srings,
    find_isomorphism,
    is_separable_bruteforce,
    phi_infty,
    verify_isomorphism,
)
from sring.sections import (
    _class_sections,
    _proj_key,
    _restriction_has_rank2,
    _restriction_is_full,
)
from sring.similarities import (
    Similarity,
    _class_fingerprints,
    _consistent,
    _constants,
    _fs_units,
    _outer_map,
    _self_maps,
    _similarity_maps,
)


def _radical_by_scan(n: int, xs) -> int:
    x = frozenset(int(v) % n for v in xs)
    best = 1
    for d in divisors(n)[1:]:
        h = subgroup(n, d)
        if all((g + v) % n in x for g in h for v in x):
            best = max(best, d)
    return best


def _wl_stabilize_pairwise(n: int, class_of: list[int]) -> list[list[int]]:
    if max(class_of) + 1 != len(set(class_of)):
        # gapped labels: number the classes by first occurrence, so that the
        # label count is the class count (every later round numbers them so)
        class_of = _relabel(class_of)
    while True:
        r = max(class_of) + 1
        classes: list[list[int]] = [[] for _ in range(r)]
        for z in range(n):
            classes[class_of[z]].append(z)
        sigs: list[list[int]] = [[class_of[z], class_of[-z % n]] for z in range(n)]
        for i in range(r):
            for j in range(i, r):
                c = [0] * n
                for x in classes[i]:
                    for y in classes[j]:
                        c[(x + y) % n] += 1
                for z in range(n):
                    sigs[z].append(c[z])
        ids: dict[tuple[int, ...], int] = {}
        new_class_of = [0] * n
        for z in range(n):
            key = tuple(sigs[z])
            new_class_of[z] = ids.setdefault(key, len(ids))
        if len(ids) == r:
            return classes
        class_of = new_class_of


def _split(
    n: int, class_of: Sequence[int], stab: Sequence[int]
) -> tuple[list[int], int]:
    """One full refinement round: new class ids by first occurrence, and their number.

    ``SRing._check_ring`` validated with it: a partition with {0} a class
    and inverse-closed classes is an S-ring exactly when the round splits
    nothing.

    The signature of z is its class, the class of -z and the sorted codes
    ``class_of[x] * r + class_of[z - x]`` over all x.  The number of codes
    (i, j) is the coefficient of z in X_i * X_j, so two residues share a
    signature exactly when they share a class, the class of their negation
    and every coefficient of every class product.

    ``stab`` is ``_class_stabilizer(n, class_of)``, and residues in one of
    its orbits share a signature, so only the smallest element of each
    orbit computes one and the rest of the orbit copies its id.  For k in
    ``stab``, x -> kx permutes the x of the code list, and ``class_of`` is
    equal on x and kx and on z - x and k(z - x), so the codes of kz are
    those of z; k also fixes the class of z and of -z.  This holds for any
    partition, S-ring or not.  The smallest element of an orbit is the
    first one a loop over 0..n-1 reaches, so the ids, numbered by first
    occurrence, are those that a signature for every residue would give.
    """
    cl = list(class_of)
    r = max(cl) + 1
    row = [c * r for c in cl]
    ids: dict[tuple, int] = {}
    new_class_of = [-1] * n
    for z in range(n):
        if new_class_of[z] < 0:
            # cl[z::-1] + cl[:z:-1] lists class_of[z - x] for x = 0..n-1
            key = (cl[z], cl[-z], *sorted(map(add, row, cl[z::-1] + cl[:z:-1])))
            i = ids.setdefault(key, len(ids))
            for k in stab:
                new_class_of[k * z % n] = i
    return new_class_of, len(ids)


def _wl_stabilize_by_rounds(n: int, class_of: list[int]) -> list[list[int]]:
    """The earlier ``core._wl_stabilize``: one full ``_split`` round after
    another, every class product at a time, until a round splits nothing."""
    if max(class_of) + 1 != len(set(class_of)):
        class_of = _relabel(class_of)
    stab = _class_stabilizer(n, class_of)
    while True:
        new_class_of, count = _split(n, class_of, stab)
        if count == max(class_of) + 1:
            classes: list[list[int]] = [[] for _ in range(count)]
            for z in range(n):
                classes[class_of[z]].append(z)
            return classes
        class_of = new_class_of


def _validate_pairwise(n: int, classes) -> SRing:
    a = SRing(n, classes, check=False)
    for cls in a.classes:
        neg = sorted((-x) % n for x in cls)
        j = a.class_of[neg[0]]
        if list(a.classes[j]) != neg:
            raise NotInverseClosed(f"-1 * {list(cls)} is not a class")
    for i in range(a.rank):
        for j in range(i, a.rank):
            counts = a.product_counts(i, j)
            for cls in a.classes:
                c0 = counts[cls[0]]
                for z in cls[1:]:
                    if counts[z] != c0:
                        raise NotMultiplicativelyClosed(
                            f"product of {list(a.classes[i])} and "
                            f"{list(a.classes[j])} takes values {c0} and "
                            f"{counts[z]} on the class of {cls[0]}"
                        )
    return a


def _dual_pairwise(a: SRing) -> SRing:
    rows: dict[tuple, list[int]] = {}
    for t in range(a.n):
        key = tuple(character_sum(a.n, cls, t).coeffs for cls in a.classes)
        rows.setdefault(key, []).append(t)
    return SRing(a.n, rows.values(), check=False)


def _split_every_residue(n: int, class_of) -> tuple[list[int], int]:
    cl = list(class_of)
    r = max(cl) + 1
    row = [c * r for c in cl]
    ids: dict[tuple, int] = {}
    new_class_of = [0] * n
    for z in range(n):
        key = (cl[z], cl[-z], *sorted(map(add, row, cl[z::-1] + cl[:z:-1])))
        new_class_of[z] = ids.setdefault(key, len(ids))
    return new_class_of, len(ids)


def _dual_every_character(a: SRing) -> SRing:
    n = a.n
    table = _power_table(n)
    low = min(min(row) for row in table)
    w = (n * (max(max(row) for row in table) - low)).bit_length()
    packed = [
        sum((c - low) << (w * i) for i, c in enumerate(row)) for row in table
    ]
    rows: dict[tuple[int, ...], list[int]] = {}
    for t in range(n):
        key = tuple(sum(packed[t * x % n] for x in cls) for cls in a.classes)
        rows.setdefault(key, []).append(t)
    return SRing(n, rows.values(), check=True)


def _fixing_units_by_sets(m: int, classes) -> tuple[int, ...]:
    keep = []
    for k in units(m).elements:
        if all(
            frozenset((k * x) % m for x in cls) == frozenset(cls)
            for cls in classes
        ):
            keep.append(k)
    return tuple(keep)


def _class_stabilizer_by_trial(n: int, class_of) -> tuple[int, ...]:
    """Every unit in the class of 1 tried against every residue."""
    if n == 1:
        return (1,)
    cl = class_of
    return (1,) + tuple(
        k
        for k in compress(range(2, n), map(cl[1].__eq__, cl[2:]))
        if gcd(k, n) == 1 and all(cl[k * x % n] == c for x, c in enumerate(cl))
    )


def _classes(class_of) -> list[list[int]]:
    """The classes of a labelling of 0..n-1, in order of first occurrence."""
    parts: dict[int, list[int]] = {}
    for z, c in enumerate(class_of):
        parts.setdefault(c, []).append(z)
    return list(parts.values())


@lru_cache(maxsize=None)
def _all_sections(n: int) -> tuple[Section, ...]:
    return tuple(
        Section(n, l, u) for l in divisors(n) for u in divisors(n) if u % l == 0
    )


@lru_cache(maxsize=None)
def _proj_graph(n: int) -> dict[Section, tuple[Section, ...]]:
    secs = _all_sections(n)
    adj: dict[Section, list[Section]] = {s: [] for s in secs}
    for s in secs:
        for t in secs:
            if s != t and (is_multiple(t, s) or is_multiple(s, t)):
                adj[s].append(t)
    return {s: tuple(ts) for s, ts in adj.items()}


@lru_cache(maxsize=None)
def _proj_component(n: int) -> dict[Section, int]:
    graph = _proj_graph(n)
    comp: dict[Section, int] = {}
    next_id = 0
    for s in _all_sections(n):
        if s in comp:
            continue
        queue = [s]
        comp[s] = next_id
        while queue:
            cur = queue.pop()
            for t in graph[cur]:
                if t not in comp:
                    comp[t] = next_id
                    queue.append(t)
        next_id += 1
    return comp


def _step_unit(frm: Section, to: Section) -> int:
    m = frm.m
    if is_multiple(to, frm):
        return unit_mod(to.u // frm.u, m)
    if is_multiple(frm, to):
        return unit_mod(pow(frm.u // to.u, -1, m), m) if m > 1 else 1
    raise NotEquivalent(f"{frm} and {to} are not directly related")


def _f_unit_bfs(s: Section, t: Section) -> int:
    if s.n != t.n:
        raise NotEquivalent("sections live over different groups")
    if s.m != t.m or _proj_component(s.n)[s] != _proj_component(t.n)[t]:
        raise NotEquivalent(f"{s} and {t} are not projectively equivalent")
    if s == t:
        return 1
    graph = _proj_graph(s.n)
    parent: dict[Section, Section] = {s: s}
    queue = [s]
    while queue:
        cur = queue.pop(0)
        if cur == t:
            break
        for nxt in graph[cur]:
            if nxt not in parent:
                parent[nxt] = cur
                queue.append(nxt)
    unit = 1
    cur = t
    while cur != s:
        prev = parent[cur]
        unit = unit * _step_unit(prev, cur) % t.m if t.m > 1 else 1
        cur = prev
    return unit_mod(unit, t.m)


def _reference_classes(n: int) -> dict[int, list[Section]]:
    classes: dict[int, list[Section]] = {}
    for s, c in _proj_component(n).items():
        classes.setdefault(c, []).append(s)
    return classes


def test_proj_key_partition_matches_graph_components():
    for n in [*range(1, 401), 720, 1024, 1260]:
        secs = _all_sections(n)
        expected = sorted(sorted(c) for c in _reference_classes(n).values())
        by_key: dict[tuple[int, int], list[Section]] = {}
        for s in secs:
            by_key.setdefault(_proj_key(s), []).append(s)
        assert sorted(sorted(c) for c in by_key.values()) == expected, n
        assert [c.members for c in proj_classes(n, secs)] == [
            tuple(c) for c in sorted(expected, key=min)
        ], n


def test_f_unit_matches_bfs_on_every_equivalent_pair():
    pairs = 0
    for n in [*range(1, 241), 720]:
        for members in _reference_classes(n).values():
            for s in members:
                for t in members:
                    assert f_unit(s, t) == _f_unit_bfs(s, t), (s, t)
                    pairs += 1
    assert pairs == 22174


def _compatible_all_pairs(s, rep, chosen, canon, stabs, comp) -> bool:
    for t, rep_t in chosen.items():
        if _is_subsection(s, t) and canon[s][unit_mod(rep_t, s.m)] != rep:
            return False
        if comp[s] == comp[t] and (rep != rep_t or stabs[s] != stabs[t]):
            return False
    return True


def _families_all_pairs(a: SRing, stab_of) -> list[Multiplier]:
    if not is_quasidense(a):
        raise ValueError("multiplier enumeration requires a quasidense ring")
    secs = sorted(frs0(a), key=lambda s: (-s.m, s.l, s.u))
    comp = _proj_component(a.n)
    stabs = {s: stab_of(s) for s in secs}
    canon = {
        s: {k: min(unit_mod(k * e, s.m) for e in stabs[s]) for k in units(s.m).elements}
        for s in secs
    }
    reps = {s: sorted(set(canon[s].values())) for s in secs}
    out: list[Multiplier] = []

    def extend(idx: int, chosen: dict) -> None:
        if idx == len(secs):
            out.append(Multiplier((s, stabs[s], chosen[s]) for s in secs))
            return
        s = secs[idx]
        for rep in reps[s]:
            if _compatible_all_pairs(s, rep, chosen, canon, stabs, comp):
                chosen[s] = rep
                extend(idx + 1, chosen)
                del chosen[s]

    extend(0, {})
    return sorted(out, key=Multiplier.canonical_vector)


def _families_covering(a: SRing, outer: bool) -> list[Multiplier]:
    """The search over the covering lists of ``_constraints``, one recursion
    frame per section: a section under a chosen supersection, or with a
    chosen peer, has one candidate, and the rest branch over every coset."""
    if not is_quasidense(a):
        raise ValueError("multiplier enumeration requires a quasidense ring")
    secs, supers, peers, order = sring.multipliers._constraints(a)[:4]
    stabs, canon = sring.multipliers._section_tables(a, secs, outer)
    if any(stabs[j] != stabs[i] for i, peer in enumerate(peers) for j in peer):
        return []
    reps = [
        [k for k in units(s.m).elements if table[k] == k] for s, table in zip(secs, canon)
    ]
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
            cands = [canon[i][chosen[sup[0]] % m]]
        elif peer:
            cands = [chosen[peer[0]]]
        else:
            cands = reps[i]
        for rep in cands:
            if all(canon[i][chosen[j] % m] == rep for j in sup) and all(
                chosen[j] == rep for j in peer
            ):
                chosen[i] = rep
                extend(i + 1)

    extend(0)
    return sorted(out, key=Multiplier.canonical_vector)


def _constraints_all_pairs(a: SRing):
    """Search order and constraint lists of ``frs0(a)``: every earlier section
    containing section i, and every earlier section of its projective class,
    with the roots that ``_rooted`` reads from them."""
    secs = tuple(sorted(frs0(a), key=lambda s: (-s.m, s.l, s.u)))
    keys = [_proj_key(s) for s in secs]
    supers = tuple(
        tuple(j for j, t in enumerate(secs[:i]) if _is_subsection(s, t))
        for i, s in enumerate(secs)
    )
    peers = tuple(
        tuple(j for j in range(i) if keys[j] == key)
        for i, key in enumerate(keys)
    )
    return sring.multipliers._rooted(secs, supers, peers)


def _is_family_all_pairs(a: SRing, fam: Multiplier, stab_of) -> bool:
    comp = _proj_component(a.n)
    if set(fam.sections) != set(frs0(a)):
        return False
    rows = []
    for s, _, rep in fam.entries:
        coset = fam.coset_for(s)
        if gcd(rep, s.m) != 1 or coset != frozenset(
            unit_mod(e * rep, s.m) for e in stab_of(s)
        ):
            return False
        rows.append((s.l, s.u, s.m, comp[s], coset))
    for l, u, m, c, coset in rows:
        for l_t, u_t, _, c_t, coset_t in rows:
            if l % l_t == 0 and u_t % u == 0:
                if any(unit_mod(k, m) not in coset for k in coset_t):
                    return False
            if c == c_t and coset != coset_t:
                return False
    return True


def _theta_reference(a: SRing, mu: Multiplier) -> Multiplier:
    om = Multiplier((s, aut_stabilizer(a, s).elements, k) for s, _, k in mu.entries)
    if not _is_family_all_pairs(a, om, _stab_of(a)):
        raise TheoryViolation(f"projection of {mu!r} is not an outer multiplier")
    return om


def _orbit_labels(rng: random.Random, n: int, labels: int) -> list[int]:
    """{0} alone, then every orbit of a random unit subgroup under a random label."""
    sub = rng.choice(unit_subgroups(n))
    class_of = [0] * n
    for z in range(1, n):
        if not class_of[z]:
            label = 1 + rng.randrange(labels)
            for k in sub:
                class_of[k * z % n] = label
    return class_of


def test_radical_matches_scan_over_every_subgroup_element():
    classes = 0
    for n in range(1, 37):
        for a in enumerate_srings(n):
            for cls in a.classes:
                assert radical(n, cls) == _radical_by_scan(n, cls), (n, cls)
                classes += 1
    assert classes == 10298


def test_refinement_matches_pairwise_on_random_partitions():
    rng = random.Random(1501)
    for _ in range(300):
        n = rng.randrange(1, 60)
        labels = rng.randint(1, min(n, 6))
        class_of = [rng.randrange(labels) for _ in range(n)]
        assert _wl_stabilize(n, list(class_of))[0] == _wl_stabilize_pairwise(n, class_of)


def test_refinement_matches_pairwise_on_orbit_unions():
    rng = random.Random(6534)
    for n in (120, 210):
        for _ in range(3):
            class_of = _orbit_labels(rng, n, rng.randint(2, 4))
            assert _wl_stabilize(n, list(class_of))[0] == _wl_stabilize_pairwise(n, class_of)


def test_closure_refinement_matches_pairwise():
    for n in (360, 512):
        class_of = [0 if z == 0 else 1 if z in (1, n - 1) else 2 for z in range(n)]
        stable = _wl_stabilize(n, list(class_of))[0]
        assert stable == _wl_stabilize_pairwise(n, class_of)
        assert closure(n, [{1, n - 1}]) == SRing(n, stable, check=False)


def test_refinement_on_gapped_labels():
    # labels 1 and 2 only; 0 and 1 share a class, but -0 = 0 is in it and
    # -1 = 5 is not, so that class splits
    assert _wl_stabilize(6, [2, 2, 1, 2, 2, 1]) == ([[0, 3], [1, 4], [2, 5]], (1,))
    for kernel in (_wl_stabilize_pairwise, _wl_stabilize_by_rounds):
        assert kernel(6, [2, 2, 1, 2, 2, 1]) == [[0, 3], [1, 4], [2, 5]]


def _assert_refinements_match_rounds(calls) -> int:
    """Each recorded refinement against the round loop, with and without
    its stable partition; returns how many came with one."""
    with_stable = 0
    for n, class_of, stable in calls:
        expected = _wl_stabilize_by_rounds(n, class_of)
        assert _wl_stabilize(n, class_of)[0] == expected, (n, class_of)
        if stable is not None:
            with_stable += 1
            # the caller's partition is stable and the start refines it
            assert _split(n, stable, _class_stabilizer(n, stable))[1] == len(set(stable))
            assert all(len({stable[x] for x in cls}) == 1 for cls in _classes(class_of))
            assert _wl_stabilize(n, class_of, stable)[0] == expected, (n, class_of, stable)
    return with_stable


def _record_refinements(monkeypatch, module, run) -> list:
    """Every (n, class_of, stable) that ``run()`` hands to ``module._wl_stabilize``."""
    calls = []

    def record(n, class_of, stable=None):
        calls.append((n, list(class_of), None if stable is None else list(stable)))
        return _wl_stabilize(n, class_of, stable)

    with monkeypatch.context() as m:
        m.setattr(module, "_wl_stabilize", record)
        run()
    return calls


def test_enumerator_refinements_match_rounds(monkeypatch):
    calls = _record_refinements(
        monkeypatch,
        sring.oracle,
        lambda: [sring.oracle._enumerate_cached.__wrapped__(n) for n in range(1, 25)],
    )
    assert _assert_refinements_match_rounds(calls) == len(calls) - 24 > 0


def test_coset_ring_refinements_match_rounds(monkeypatch):
    rings = [a for n in range(1, 13) for a in enumerate_srings(n)]
    calls = _record_refinements(
        monkeypatch,
        sring.oracle,
        lambda: [sring.oracle._coset_rings_refining(a) for a in rings],
    )
    assert _assert_refinements_match_rounds(calls) == len(calls) - len(rings)


def test_s_extension_refinements_match_rounds(monkeypatch):
    rings = [a for n in range(1, 31) for a in enumerate_srings(n)]
    rings += [rank2_sring(120), tensor(rank2_sring(9), cyclotomic_sring(35, [2]))]
    calls = _record_refinements(
        monkeypatch, sring.sections, lambda: [reduce_to_quasidense(a) for a in rings]
    )
    assert _assert_refinements_match_rounds(calls) == len(calls) > 0


def _restriction_has_rank2_by_restriction(a: SRing, s: Section) -> bool:
    """The earlier rank-2 test of ``sections._composite_rank2_section`` and
    ``singular_witness``: build and validate the restriction."""
    return restrict_to(a, s).rank == 2


def _restriction_is_full_by_restriction(a: SRing, s: Section) -> bool:
    """The earlier full-split guard of ``sections.s_extension``: compare the
    restriction with the full ring."""
    return restrict_to(a, s) == full_sring(s.m)


def test_section_queries_match_restricted_rings():
    # every section of order m > 1 of every ring with n <= 36, on fresh
    # copies, so the restrictions built here stay off the shared rings
    sections = rank2 = full = 0
    for n in range(1, 37):
        for ring in enumerate_srings(n):
            a = _fresh(ring)
            for s in ring_sections(a):
                if s.m == 1:
                    continue
                got = _restriction_has_rank2(a, s)
                assert got == _restriction_has_rank2_by_restriction(a, s), (a, s)
                split = _restriction_is_full(a, s)
                assert split == _restriction_is_full_by_restriction(a, s), (a, s)
                sections, rank2, full = sections + 1, rank2 + got, full + split
    # both answers occur, and both answers of each
    assert sections == 12334 and 0 < rank2 < sections and 0 < full < sections


def test_extension_guard_matches_restricted_rings(monkeypatch):
    # each extension that reduce_to_quasidense makes, on every ring with
    # n <= 36 and the two singular rings of the separability benchmark
    rings = [a for n in range(1, 37) for a in enumerate_srings(n)]
    rings += [rank2_sring(120), tensor(rank2_sring(9), cyclotomic_sring(35, [2]))]
    extensions = []
    extend = sring.sections.s_extension

    def record(a, s):
        extensions.append((extend(a, s), s))
        return extensions[-1][0]

    monkeypatch.setattr(sring.sections, "s_extension", record)
    for a in rings:
        reduce_to_quasidense(_fresh(a))
    assert len(extensions) == 250
    for result, s in extensions:
        assert _restriction_is_full(result, s), (result, s)
        assert _restriction_is_full_by_restriction(result, s), (result, s)


def test_closure_refinements_match_rounds():
    # the construct benchmark's closures: closure(n, [{x, -x}]) for the
    # first eight units x
    for n in (360, 512):
        for x in [x for x in range(1, n) if gcd(x, n) == 1][:8]:
            class_of = [0 if z == 0 else 1 if z in (x, n - x) else 2 for z in range(n)]
            stable = _wl_stabilize_by_rounds(n, class_of)
            assert _wl_stabilize(n, class_of)[0] == stable, (n, x)
            assert closure(n, [{x, n - x}]) == SRing(n, stable, check=False)


def test_refinement_matches_rounds_on_random_partitions():
    rng = random.Random(3117)
    for _ in range(300):
        n = rng.randrange(1, 60)
        labels = rng.randint(1, min(n, 6))
        class_of = _relabel(rng.randrange(labels) for _ in range(n))
        stable = _wl_stabilize_by_rounds(n, class_of)
        classes, stab = _wl_stabilize(n, class_of)
        assert classes == stable, (n, class_of)
        # the start's class stabilizer, returned with the result, is the result's
        assert stab == _class_stabilizer_by_trial(n, _labels(n, stable)), (n, class_of)
        # split the stable partition again at random and refine the meet
        # with and without the stable partition passed in
        stable_of = _labels(n, stable)
        ids: dict[tuple[int, int], int] = {}
        meet = [ids.setdefault((c, rng.randrange(2)), len(ids)) for c in stable_of]
        _assert_refinements_match_rounds([(n, meet, stable_of)])


def _outcome(check, n: int, classes):
    try:
        return SRing, check(n, classes).classes
    except ValidationError as exc:
        return type(exc), str(exc)


def _candidate_partitions():
    """Every ring with n <= 16, its inverse-closed merges, and random partitions."""
    for n in range(1, 17):
        for a in enumerate_srings(n):
            yield n, a.classes
            inv = {i: a.inverse_class(i) for i in range(a.rank)}
            for i in range(1, a.rank):
                for j in range(i + 1, a.rank):
                    merged = {i, inv[i], j, inv[j]}
                    rest = [c for k, c in enumerate(a.classes) if k not in merged]
                    yield n, rest + [[x for k in merged for x in a.classes[k]]]
    rng = random.Random(24)
    for _ in range(300):
        n = rng.randrange(2, 40)
        labels = rng.randint(2, 5)
        if rng.random() < 0.5:
            class_of = _orbit_labels(rng, n, labels)
        else:
            class_of = [0] + [1 + rng.randrange(labels) for _ in range(n - 1)]
        yield n, _classes(class_of)


def test_validate_matches_pairwise_reference():
    kinds = set()
    for n, classes in _candidate_partitions():
        got = _outcome(validate, n, classes)
        assert got == _outcome(_validate_pairwise, n, classes), (n, classes)
        kinds.add(got[0])
    assert {SRing, NotInverseClosed, NotMultiplicativelyClosed} <= kinds


def test_dual_matches_character_sum_rows():
    rings = [a for n in range(1, 25) for a in enumerate_srings(n)]
    rings += [
        cyclotomic_sring(256, [3]),
        cyclotomic_sring(256, [-1]),
        cyclotomic_sring(360, [7]),
    ]
    for a in rings:
        assert dual_sring(a) == _dual_pairwise(a), a


def _relabel(labels) -> list[int]:
    """The partition of ``labels`` with class ids by first occurrence."""
    ids: dict[int, int] = {}
    return [ids.setdefault(c, len(ids)) for c in labels]


def _assert_split_matches(n: int, class_of) -> tuple[int, ...]:
    stab = _class_stabilizer(n, class_of)
    assert stab == _fixing_units_by_sets(n, _classes(class_of)), (n, class_of)
    assert _split(n, class_of, stab) == _split_every_residue(n, class_of), (n, class_of)
    return stab


def _ring_partitions():
    """Every ring with n <= 36, and coarsenings of each: the class of 1
    merged with each other class, and each nonzero class merged with the next."""
    for n in range(1, 37):
        for a in enumerate_srings(n):
            cl = a.class_of
            yield n, list(cl)
            c1 = cl[1 % n]
            for j in range(a.rank):
                if j != c1:
                    yield n, _relabel(c1 if c == j else c for c in cl)
                if 0 < j < a.rank - 1:
                    yield n, _relabel(j if c == j + 1 else c for c in cl)


def _partly_fixed_partitions():
    """Orbits of a unit subgroup H of Z_n, the orbit of 1 widened to that of a
    larger subgroup K.  Every unit of K fixes {0} and the class of 1; only the
    partitions where one of them moves some other class are kept."""
    for n in range(5, 41):
        subs = unit_subgroups(n)
        for h in subs:
            for k in subs:
                if len(k) <= len(h) or not set(h) <= set(k):
                    continue
                cl = [min(g * z % n for g in h) for z in range(n)]
                cl = _relabel(1 if z in k else c for z, c in enumerate(cl))
                if set(k) - set(_fixing_units_by_sets(n, _classes(cl))):
                    yield n, cl


def _random_refinements():
    """Every ring with n <= 36 with each residue outside {0} moved to a second
    copy of its class with probability 1/3, and the coarsest stable partition
    below that."""
    rng = random.Random(1636)
    for n in range(1, 37):
        for a in enumerate_srings(n):
            split = _relabel(
                2 * c + (z > 0 and rng.random() < 1 / 3) for z, c in enumerate(a.class_of)
            )
            yield n, split
            yield n, _labels(n, _wl_stabilize(n, split)[0])


def test_class_stabilizer_matches_trial_of_every_unit():
    grown = pruned = 0
    for source in (_ring_partitions(), _partly_fixed_partitions(), _random_refinements()):
        for n, cl in source:
            stab = _class_stabilizer(n, cl)
            assert stab == _class_stabilizer_by_trial(n, cl), (n, cl)
            grown += len(stab) > 1
            pruned += len(stab) < sum(gcd(k, n) == 1 and cl[k] == cl[1 % n] for k in range(n))
    assert grown > 1000 and pruned > 100


def test_split_matches_every_residue_on_ring_partitions():
    grown = unstable = 0
    for n, cl in _ring_partitions():
        grown += len(_assert_split_matches(n, cl)) > 1
        # the stability verdict of the splitter queue, which validation
        # reads, is that of one full round
        stable = _split(n, cl, _class_stabilizer(n, cl))[1] == len(set(cl))
        assert (len(_wl_stabilize(n, cl)[0]) == len(set(cl))) == stable, (n, cl)
        unstable += not stable
    assert grown > 1000 and unstable > 1000


def test_split_matches_every_residue_when_class_of_1_moves_classes():
    count = 0
    for n, cl in _partly_fixed_partitions():
        stab = _assert_split_matches(n, cl)
        assert len(stab) < sum(gcd(k, n) == 1 and cl[k] == cl[1] for k in range(n))
        count += 1
    assert count > 100


def test_split_matches_every_residue_at_n_1_and_2():
    for n, cl in ((1, [0]), (2, [0, 0]), (2, [0, 1]), (2, [1, 0])):
        _assert_split_matches(n, cl)


def test_dual_matches_every_character_row():
    rings = [a for n in range(1, 31) for a in enumerate_srings(n)]
    rings += [
        cyclotomic_sring(256, [27]),
        cyclotomic_sring(256, [-1]),
        cyclotomic_sring(720, [7, 11]),
    ]
    for a in rings:
        assert dual_sring(a) == _dual_every_character(a), a


def test_aut_stabilizer_matches_search_over_all_units():
    # The stabilizer itself is checked by the split tests above; this checks
    # that aut_stabilizer takes it on the restriction to the right section.
    for n in range(1, 37):
        for a in enumerate_srings(n):
            for s in sorted({Section(n, l, u) for l, u in sections_lattice(a)}):
                got = aut_stabilizer(a, s)
                assert got.section == s
                assert got.elements == _fixing_units_by_sets(s.m, restrict_to(a, s).classes)


def _trivial(s) -> tuple[int, ...]:
    return (1,)


def _stab_of(a: SRing):
    return lambda s: aut_stabilizer(a, s).elements


def _perturbations(fam: Multiplier):
    """Every family that differs from ``fam`` in the coset at one section."""
    for s, stab, rep in fam.entries:
        others = {min(unit_mod(k * e, s.m) for e in stab) for k in units(s.m).elements}
        for k in sorted(others - {rep}):
            yield Multiplier(
                (t, stab_t, k if t == s else rep_t) for t, stab_t, rep_t in fam.entries
            )


def _quasidense_rings() -> list[SRing]:
    """Every quasidense ring with n <= 30, and one with |frs0| = 81."""
    rings = [a for n in range(1, 31) for a in enumerate_srings(n) if is_quasidense(a)]
    assert len(rings) == 618
    rings.append(cyclotomic_sring(210, [-1]))
    assert len(frs0(rings[-1])) == 81
    return rings


def test_multiplier_layer_matches_all_pairs_reference():
    # The same families in the same order, each already as the public
    # constructor would build it, and the same verdicts of both validators on
    # every family and, for n <= 16, on every one-section perturbation of one.
    verdicts = set()
    for a in _quasidense_rings():
        stab_of = _stab_of(a)
        mult, fmult = mult_group(a), fmult_group(a)
        assert mult == _families_all_pairs(a, _trivial), a
        assert fmult == _families_all_pairs(a, stab_of), a
        fams = list(dict.fromkeys(mult + fmult))
        for fam in fams:
            assert fam.entries == Multiplier(fam.entries).entries, (a, fam)
        if a.n <= 16:
            fams += [p for fam in fams for p in _perturbations(fam)]
        for fam in fams:
            got = (is_valid_multiplier(a, fam), is_valid_outer_multiplier(a, fam))
            assert got == (
                _is_family_all_pairs(a, fam, _trivial),
                _is_family_all_pairs(a, fam, stab_of),
            ), (a, fam)
            verdicts.add(got)
    assert len(verdicts) == 4


def test_theta_matches_reference_projection(monkeypatch):
    # theta on every multiplier, and the image is_separable builds, against
    # the projection through the public constructor
    images: list[Multiplier] = []

    def recorded(a, mu):
        om = theta(a, mu)
        images.append(om)
        return om

    monkeypatch.setattr(sring.multipliers, "theta", recorded)
    for a in _quasidense_rings():
        expected = set()
        for mu in mult_group(a):
            ref = _theta_reference(a, mu)
            assert theta(a, mu).entries == ref.entries, (a, mu)
            expected.add(ref)
        images.clear()
        _, report = is_separable(a)
        assert set(images) == expected, a
        assert len(images) == len(expected) == report.theta_image_order, a


def test_fs_of_families_are_canonical():
    # fs_of builds its family without the public constructor, so it must
    # already be in section order with the smallest unit of each coset; the
    # ring with |frs0| = 81 is left out, its similarity search alone takes 3 s
    for a in _quasidense_rings()[:-1]:
        for phi in similarities(a, a):
            om = fs_of(a, phi)
            assert om.entries == Multiplier(om.entries).entries, (a, phi)


def _witnesses() -> list[SRing]:
    return [
        cyclotomic_sring(n, gens)
        for n, gens in ((72, [11, 13]), (144, [11, 13]), (144, [5]), (144, [5, 7]), (144, [5, 19]))
    ]


def _covering_rings() -> list[SRing]:
    """Every quasidense ring with n <= 24, and the five non-separable witnesses."""
    rings = [a for n in range(1, 25) for a in enumerate_srings(n) if is_quasidense(a)]
    return rings + _witnesses()


def test_covering_lists_generate_all_pairs():
    # the transitive closure of the covering supersections is the subsection
    # relation on frs0, and the first peers name the projective classes
    for a in _covering_rings() + [cyclotomic_sring(240, [-1])]:
        secs, supers, peers, order = sring.multipliers._constraints(a)[:4]
        ref = _constraints_all_pairs(a)
        assert (secs, order) == (ref[0], ref[3]), a
        closure_of: list[set[int]] = []
        for i, sup in enumerate(supers):
            assert all(j < i for j in sup), a
            closure_of.append(set(sup).union(*(closure_of[j] for j in sup)))
        assert [sorted(c) for c in closure_of] == [list(r) for r in ref[1]], a
        assert all(not set(sup) & closure_of[j] for sup in supers for j in sup), a
        assert peers == tuple(r[:1] for r in ref[2]), a


def test_stabilizer_restricts_into_subsection_stabilizer():
    # the fact the search relies on when it checks only covering pairs
    for a in _covering_rings():
        secs, supers = _constraints_all_pairs(a)[:2]
        for i, sup in enumerate(supers):
            s = secs[i]
            below = set(aut_stabilizer(a, s).elements)
            for j in sup:
                assert {unit_mod(e, s.m) for e in aut_stabilizer(a, secs[j]).elements} <= below, (
                    a, s, secs[j],
                )


def test_multiplier_layer_matches_all_pairs_constraints(monkeypatch):
    # the same groups, and the same verdicts of both validators on every
    # family and, for n <= 16, on every one-section perturbation of one,
    # whether the search and the validator read the covering lists or every pair
    cases = []
    for a in _covering_rings():
        groups = (mult_group(a), fmult_group(a))
        fams = list(dict.fromkeys(groups[0] + groups[1]))
        if a.n <= 16:
            fams += [p for fam in fams for p in _perturbations(fam)]
        verdicts = [(is_valid_multiplier(a, f), is_valid_outer_multiplier(a, f)) for f in fams]
        cases.append((a, groups, fams, verdicts))
    monkeypatch.setattr(sring.multipliers, "_constraints", _constraints_all_pairs)
    seen = set()
    for a, groups, fams, verdicts in cases:
        assert groups == (mult_group(a), fmult_group(a)), a
        for fam, got in zip(fams, verdicts):
            assert got == (is_valid_multiplier(a, fam), is_valid_outer_multiplier(a, fam)), (
                a, fam,
            )
            seen.add(got)
    assert len(seen) == 4


def _root_search_rings() -> list[SRing]:
    """The rings of ``_quasidense_rings``, the quasidense reducts of the n = 72
    witnesses, and two rings over Z_720 with several free sections."""
    from test_oracle import NONCYCLOTOMIC_WITNESSES, WITNESS_COUNTS

    witnesses = [cyclotomic_sring(n, list(gens)) for n, gens in WITNESS_COUNTS if n == 72]
    witnesses += [validate(72, entry[0]) for entry in NONCYCLOTOMIC_WITNESSES.values()]
    rings = _quasidense_rings() + [reduce_to_quasidense(a)[0] for a in witnesses]
    return rings + [cyclotomic_sring(720, [7]), cyclotomic_sring(720, [-1])]


def test_root_search_matches_covering_search():
    # the search over free sections against the one frame per section it replaced
    free = 0
    for a in _root_search_rings():
        assert mult_group(a) == _families_covering(a, False), a
        assert fmult_group(a) == _families_covering(a, True), a
        free = max(free, len(sring.multipliers._constraints(a).free))
    assert free > 1


def test_projective_peers_have_equal_stabilizers():
    # the restriction to a peer t of s is the restriction to s multiplied by
    # f_unit(s, t), so the two share one stabilizer and one coset table, as
    # the root search assumes
    pairs = 0
    for a in _root_search_rings():
        secs, _, peers = sring.multipliers._constraints(a)[:3]
        for i, peer in enumerate(peers):
            for j in peer:
                s, t = secs[j], secs[i]
                f = f_unit(s, t)
                moved = {
                    tuple(sorted(f * y % s.m for y in cls)) for cls in restrict_to(a, s).classes
                }
                assert moved == set(map(tuple, restrict_to(a, t).classes)), (a, s, t)
                assert aut_stabilizer(a, s).elements == aut_stabilizer(a, t).elements, (a, s, t)
                pairs += 1
    assert pairs == 3862


def _is_similarity_by_vectors(a: SRing, b: SRing, class_map: tuple[int, ...]) -> bool:
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


def _class_fingerprints_by_vectors(a: SRing) -> list[tuple]:
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


def _similarities_by_vectors(a: SRing, b: SRing) -> list[Similarity]:
    if a.n != b.n or a.rank != b.rank:
        return []
    if sorted(map(len, a.classes)) != sorted(map(len, b.classes)):
        return []
    r = a.rank
    fp_a = _class_fingerprints_by_vectors(a)
    fp_b = _class_fingerprints_by_vectors(b)
    candidates = [[j for j in range(r) if fp_b[j] == fp_a[i]] for i in range(r)]
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
    return [
        Similarity(a, b, cmap)
        for cmap in sorted(found)
        if _is_similarity_by_vectors(a, b, cmap)
    ]


def _from_unit_by_sets(a_s: SRing, k: int) -> Optional[Similarity]:
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


def _inducing_unit_over_all_units(a_s: SRing, psi: Similarity) -> Optional[int]:
    for k in units(a_s.n).elements:
        cand = _from_unit_by_sets(a_s, k)
        if cand is not None and cand.class_map == psi.class_map:
            return k
    return None


def _restrict_similarity_by_scan(phi: Similarity, s: Section) -> Similarity:
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
        if img[0] % step:
            raise TheoryViolation(f"similarity moved a class out of the subgroup H_{s.u}")
        src = ra.class_of[(cls[0] // step) % m]
        dst = rb.class_of[(img[0] // step) % m]
        if cmap.setdefault(src, dst) != dst:
            raise TheoryViolation(f"restriction to {s} is not well defined")
    return Similarity(ra, rb, tuple(cmap[i] for i in range(ra.rank)))


def _inducing_unit_in_class_of_1(a_s: SRing, psi: Similarity) -> Optional[int]:
    m = a_s.n
    cl = a_s.class_of
    target = psi.class_map[cl[1 % m]]
    for k in units(m).elements:
        if cl[k % m] == target:
            cand = from_unit(a_s, k)
            if cand is not None and cand.class_map == psi.class_map:
                return k
    return None


def test_structure_constant_table_matches_product_counts():
    # The table is bytes up to n = 256 and a tuple past it.  The rank-2
    # rings over Z_256 and Z_257 hold the constants 255 and 256 (the class
    # of 0 in X_1 * X_1), and cyclotomic_sring(512, [3]) is a ring of low
    # rank past 256.
    rings = [a for n in range(1, 17) for a in enumerate_srings(n)]
    rings += [rank2_sring(256), rank2_sring(257), cyclotomic_sring(512, [3])]
    for a in rings:
        r, table = a.rank, _constants(a)
        assert type(table) is (bytes if a.n <= 256 else tuple), a
        assert len(table) == r**3
        for i in range(r):
            for j in range(r):
                counts = a.product_counts(i, j)
                for k in range(r):
                    assert table[(i * r + j) * r + k] == counts[a.classes[k][0]]
    assert max(_constants(rank2_sring(256))) == 255
    assert max(_constants(rank2_sring(257))) == 256


def _constants_by_pairs(a: SRing) -> bytes | tuple[int, ...]:
    """The earlier ``similarities._constants``: every pair (x, y) counted at
    x + y, then each count divided by the size of the class of x + y."""
    n, r, cl = a.n, a.rank, a.class_of
    counts = [0] * (r * r * r)
    for x in range(n):
        base = cl[x] * r
        # cl[x:] + cl[:x] lists class_of[x + y] for y = 0..n-1
        for j, k in zip(cl, cl[x:] + cl[:x]):
            counts[(base + j) * r + k] += 1
    sizes = [len(c) for c in a.classes] * (r * r)
    return (bytes if n <= 256 else tuple)(map(floordiv, counts, sizes))


def test_structure_constant_table_matches_every_pair_count():
    # one residue per class against every pair (x, y), on every ring with
    # n <= 24 and on rings of rank 64 and 121 and past n = 256
    rings = [a for n in range(1, 25) for a in enumerate_srings(n)]
    rings += [full_sring(64), cyclotomic_sring(240, [-1]), cyclotomic_sring(512, [3])]
    for a in rings:
        assert _constants.__wrapped__(a) == _constants_by_pairs(a), a


def test_self_similarities_match_vector_search():
    # Every ring with n <= 20 and the two smallest non-separable witnesses:
    # the same similarities in the same order.
    rings = [a for n in range(1, 21) for a in enumerate_srings(n)]
    rings += [cyclotomic_sring(72, [11, 13]), cyclotomic_sring(144, [5, 7])]
    rings.append(cyclotomic_sring(512, [3]))  # a structure-constant tuple, past n = 256
    for a in rings:
        assert similarities(a, a) == _similarities_by_vectors(a, a), a


def test_similarities_between_rings_match_vector_search():
    pairs = [
        (a, b)
        for n in range(1, 13)
        for a in enumerate_srings(n)
        for b in enumerate_srings(n)
        if a != b and a.rank == b.rank
    ]
    # No two of these rings are similar: every pair ends at an early exit of
    # both searches, where the two must still agree on the empty list.
    assert len(pairs) == 166
    for a, b in pairs:
        assert similarities(a, b) == _similarities_by_vectors(a, b) == [], (a, b)


def test_is_similarity_matches_vectors_on_every_permutation():
    verdicts = set()
    for n in range(1, 17):
        for a in enumerate_srings(n):
            if a.rank > 6:
                continue
            for rest in permutations(range(1, a.rank)):
                cmap = (0, *rest)
                got = is_similarity(a, a, cmap)
                assert got == _is_similarity_by_vectors(a, a, cmap), (a, cmap)
                verdicts.add(got)
    assert verdicts == {True, False}


def test_inducing_unit_matches_search_over_all_units():
    outcomes = set()
    for n in range(1, 21):
        for a in enumerate_srings(n):
            if not is_quasidense(a):
                continue
            sims = similarities(a, a)
            for s in frs0(a):
                a_s = restrict_to(a, s)
                for k in units(a_s.n).elements:
                    assert from_unit(a_s, k) == _from_unit_by_sets(a_s, k), (a_s, k)
                for phi in sims:
                    got = restrict_similarity(phi, s)
                    assert got == _restrict_similarity_by_scan(phi, s), (phi, s)
                for psi in similarities(a_s, a_s):
                    got = inducing_unit(a_s, psi)
                    assert got == _inducing_unit_in_class_of_1(a_s, psi), (a_s, psi)
                    assert got == _inducing_unit_over_all_units(a_s, psi), (a_s, psi)
                    outcomes.add(got == 1)
    assert outcomes == {True, False}


def _stabilize_partition(n: int, classes) -> tuple[frozenset[int], ...]:
    stable = _wl_stabilize(n, _labels(n, classes))[0]
    return tuple(frozenset(c) for c in stable)


def _coset_rings_by_own_backtracker(a: SRing) -> list[SRing]:
    """All S-rings refining ``a`` whose every class is a coset."""
    n = a.n
    out: list[SRing] = []
    start = _stabilize_partition(
        a.n, [frozenset({0}), frozenset(range(1, n))] if n > 1 else [frozenset({0})]
    )
    if not refines(full_sring(n), a):  # pragma: no cover - trivially true
        raise TheoryViolation("full ring does not refine the input")
    _coset_rec(a, units(n).elements, start, frozenset({frozenset({0})}), out)
    kept = []
    for ring in out:
        if refines(ring, a) and all(_is_coset(n, cls) for cls in ring.classes):
            kept.append(ring)
    return sorted(kept, key=lambda r: r.classes)


def _coset_rec(a, unit_elems, classes, pinned, out) -> None:
    """Try each coset of the smallest element outside ``pinned`` that fits
    the stable partition ``classes`` and ``a`` as a class, and append every
    ring reached to ``out``."""
    n = a.n
    unassigned = sorted(x for cls in classes if cls not in pinned for x in cls)
    if not unassigned:
        out.append(SRing(n, [tuple(sorted(c)) for c in classes], check=False))
        return
    anchor = unassigned[0]
    region = next(cls for cls in classes if anchor in cls)
    host = frozenset(a.classes[a.class_of[anchor]])
    class_of = _labels(n, classes)
    for d in divisors(n):
        coset = frozenset((anchor + h) % n for h in subgroup(n, d))
        if not (coset <= region and coset <= host):
            continue
        neg = frozenset((-x) % n for x in coset)
        if neg != coset and neg & coset:
            continue
        ids: dict[tuple[int, bool], int] = {}
        refined_of = [ids.setdefault((c, x in coset), len(ids)) for x, c in enumerate(class_of)]
        stable = tuple(frozenset(c) for c in _wl_stabilize(n, refined_of, class_of)[0])
        stable_set = set(stable)
        if coset not in stable_set or not pinned <= stable_set:
            continue
        orbit = {frozenset((k * x) % n for x in coset) for k in unit_elems}
        assert orbit <= stable_set, "unit multiple of a class must be a class"
        if any(len({a.class_of[x] for x in cls}) > 1 for cls in orbit):
            continue  # a pinned class would straddle classes of the input
        singletons = {cls for cls in stable if len(cls) == 1}
        _coset_rec(a, unit_elems, stable, pinned | orbit | singletons, out)


def test_coset_rings_match_own_backtracker():
    # the same rings in the same order for every ring with n <= 16; with the
    # old search's final filter gone, each must refine its input and have
    # only coset classes by construction
    count = 0
    for n in range(1, COSET_CLOSURE_BOUND + 1):
        for a in enumerate_srings(n):
            got = sring.oracle._coset_rings_refining(a)
            assert got == _coset_rings_by_own_backtracker(a), a
            for ring in got:
                assert refines(ring, a), (a, ring)
                assert all(_is_coset(n, cls) for cls in ring.classes), (a, ring)
            count += len(got)
    assert count > 0


def _enumerate_refining_by_candidate(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Class tuples of every S-ring over Z_n, canonically sorted."""
    if n == 1:
        return [((0,),)]
    unit_elems = units(n).elements
    subgroups = unit_subgroups(n)
    dclass = tuple(gcd(x, n) for x in range(n))
    found: set[tuple[tuple[int, ...], ...]] = set()

    def rec(classes, pinned) -> None:
        unassigned = sorted(x for cls in classes if cls not in pinned for x in cls)
        if not unassigned:
            found.add(tuple(sorted(tuple(sorted(c)) for c in classes)))
            return
        anchor = unassigned[0]
        region = next(cls for cls in classes if anchor in cls)
        for cand in _candidate_classes(n, anchor, region, subgroups, dclass):
            refined_of = [0] * n
            ids: dict[tuple[int, bool], int] = {}
            for i, cls in enumerate(classes):
                for x in cls:
                    refined_of[x] = ids.setdefault((i, x in cand), len(ids))
            stable = tuple(frozenset(c) for c in _wl_stabilize(n, refined_of)[0])
            stable_set = set(stable)
            if cand not in stable_set or not pinned <= stable_set:
                continue
            orbit = {frozenset((k * x) % n for x in cand) for k in unit_elems}
            assert orbit <= stable_set, "unit multiple of a class must be a class"
            singletons = {cls for cls in stable if len(cls) == 1}
            rec(stable, pinned | orbit | singletons)

    start = _stabilize_partition(n, [frozenset({0}), frozenset(range(1, n))])
    rec(start, frozenset({frozenset({0})}))
    return sorted(found)


def _enumerate_rec_refining_every_candidate(n, classes, pinned, candidates, found, outcomes):
    """``oracle._enumerate_rec`` refining every candidate class; appends
    (candidate, pinned, accepted) to ``outcomes`` for each."""
    unassigned = sorted(x for cls in classes if cls not in pinned for x in cls)
    if not unassigned:
        found.add(tuple(sorted(tuple(sorted(c)) for c in classes)))
        return
    anchor = unassigned[0]
    region = next(cls for cls in classes if anchor in cls)
    class_of = _labels(n, classes)
    for cand, orbit in candidates(anchor, region):
        multiple_of = [-1] * n
        for j, mult in enumerate(orbit):
            for x in mult:
                multiple_of[x] = j
        ids: dict[tuple[int, int], int] = {}
        refined_of = [ids.setdefault(key, len(ids)) for key in zip(class_of, multiple_of)]
        stable = tuple(frozenset(c) for c in _wl_stabilize(n, refined_of, class_of)[0])
        stable_set = set(stable)
        accepted = cand in stable_set and pinned <= stable_set
        outcomes.append((cand, pinned, accepted))
        if not accepted:
            continue
        assert orbit <= stable_set, "unit multiple of a class must be a class"
        singletons = {cls for cls in stable if len(cls) == 1}
        _enumerate_rec_refining_every_candidate(
            n, stable, pinned | orbit | singletons, candidates, found, outcomes
        )


def test_enumeration_matches_refinement_of_every_candidate(monkeypatch):
    # the same rings in the same order for every n <= 30, and the pinned
    # product test keeps every candidate that the refinement accepts
    dropped = 0
    for n in range(1, 31):
        outcomes: list = []
        with monkeypatch.context() as m:
            m.setattr(
                sring.oracle,
                "_enumerate_rec",
                partial(_enumerate_rec_refining_every_candidate, outcomes=outcomes),
            )
            want = sring.oracle._enumerate_cached.__wrapped__(n)
        assert tuple(enumerate_srings(n)) == want, n
        for cand, pinned, accepted in outcomes:
            kept = _pinned_products_constant(n, cand, pinned)
            assert kept or not accepted, (n, cand, pinned)
            dropped += not kept
    assert dropped > 500


def test_enumeration_matches_refinement_by_candidate_alone():
    # the same rings in the same order, for every n <= 30
    for n in range(1, 31):
        got = [a.classes for a in enumerate_srings(n)]
        assert got == _enumerate_refining_by_candidate(n), n


def test_enumeration_totals():
    assert sum(len(enumerate_srings(n)) for n in range(1, 37)) == 1275
    assert len(enumerate_srings(36)) == 284


# -- the similarity <-> outer-multiplier layer over per-section tables ---------


def _is_family_by_sets(a: SRing, fam: Multiplier, stab_of) -> bool:
    secs, supers, peers = sring.multipliers._constraints(a)[:3]
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


def _project_by_min(a: SRing, mu: Multiplier) -> Multiplier:
    entries = []
    for s, _, k in mu.entries:
        stab = aut_stabilizer(a, s).elements
        m = s.m
        entries.append((s, stab, min(unit_mod(k * e, m) for e in stab)))
    return Multiplier._canonical(tuple(entries))


def _theta_by_sets(a: SRing, mu: Multiplier) -> Multiplier:
    if list(mu.sections) != sorted(frs0(a)):
        raise ValueError(f"{mu!r} is not defined over the sections of frs0 of {a!r}")
    om = _project_by_min(a, mu)
    if not _is_family_by_sets(a, om, _stab_of(a)):
        if not _is_family_by_sets(a, mu, _trivial):
            raise ValueError(f"{mu!r} is not a multiplier of {a!r}")
        raise TheoryViolation(f"projection of {mu!r} is not an outer multiplier")
    return om


def _fs_of_by_restriction(a: SRing, phi: Similarity) -> Multiplier:
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
    om = Multiplier._canonical(tuple(entries))
    if not _is_family_by_sets(a, om, _stab_of(a)):
        raise TheoryViolation(f"extracted family of {phi} is not an outer multiplier")
    return om


def _similarity_from_outer_by_scan(a: SRing, om: Multiplier) -> Similarity:
    if not is_quasidense(a):
        raise ValueError("reconstruction requires a quasidense ring")
    if set(om.sections) != set(frs0(a)):
        raise ValueError("outer multiplier is not defined over this ring's sections")
    cl = a.class_of
    cmap = []
    for cls, p in zip(a.classes, _class_sections(a)):
        k = om.unit_for(p)
        step = a.n // p.u
        m = p.m
        image_coords = {(k * (x // step)) % m for x in cls}
        image = [x for x in range(0, a.n, step) if (x // step) % m in image_coords]
        j = cl[image[0]]
        if len(image) != len(a.classes[j]) or any(cl[x] != j for x in image):
            raise ReconstructionFailed(
                f"image of {list(cls)} under unit {k} on {p} is not a class"
            )
        cmap.append(j)
    phi = Similarity(a, a, tuple(cmap))
    if not is_similarity(a, a, phi.class_map):
        raise ReconstructionFailed("classwise images do not form a similarity")
    return phi


def _similarities_filtered(a: SRing, b: SRing) -> list[Similarity]:
    """The search as it was: every map found at a leaf checked again."""
    return [phi for phi in similarities(a, b) if is_similarity(a, b, phi.class_map)]


def _result_of(call, *args):
    """The value of the call, or the type and message of the error it raises."""
    try:
        return ("value", call(*args))
    except (SRingError, ValueError) as exc:
        return (type(exc), str(exc))


def _changed(fam: Multiplier, s: Section, k: int) -> Multiplier:
    """``fam`` with the unit k at the section s, through the public constructor."""
    return Multiplier((t, stab, k if t == s else rep) for t, stab, rep in fam.entries)


def _one_section_changes(fam: Multiplier) -> list[Multiplier]:
    """Every family that differs from ``fam`` at one section, non-units included."""
    out = dict.fromkeys(
        _changed(fam, s, k) for s, _, rep in fam.entries for k in range(s.m) if k != rep
    )
    out.pop(fam, None)
    return list(out)


def _table_rings() -> list[SRing]:
    """Every quasidense ring with n <= 30, and the five non-separable witnesses."""
    return _quasidense_rings()[:-1] + _witnesses()


def _reconstruction_kind(result) -> str:
    if result[0] == "value":
        return "similarity"
    assert result[0] is ReconstructionFailed, result
    return "not a class" if result[1].endswith("is not a class") else result[1]


def test_similarity_layer_matches_restriction_and_scan():
    # the search against its filtered form, fs_of against the restriction of
    # each similarity and similarity_from_outer against the scan of H_u; for
    # n <= 16 also on every family off an outer multiplier at one section.
    # similarity_from_outer refuses a family with a non-unit, on which the
    # scan still finds images that are not classes, and a family of units
    # that is not an outer multiplier, which the scan blames on the theory.
    kinds, scan_kinds = set(), set()
    for a in _table_rings():
        sims = similarities(a, a)
        assert sims == _similarities_filtered(a, a), a
        for phi in sims:
            assert fs_of(a, phi).entries == _fs_of_by_restriction(a, phi).entries, (a, phi)
        fams = fmult_group(a)
        if a.n <= 16:
            fams += [p for om in fams for p in _one_section_changes(om)]
        for om in fams:
            scan = _result_of(_similarity_from_outer_by_scan, a, om)
            if all(gcd(k, s.m) == 1 for s, _, k in om.entries):
                got = _result_of(similarity_from_outer, a, om)
                if scan[0] == "value" or is_valid_outer_multiplier(a, om):
                    assert got == scan, (a, om)
                    kinds.add(_reconstruction_kind(got))
                else:
                    assert got == (ValueError, f"{om!r} is not an outer multiplier of {a!r}")
                    kinds.add("not an outer multiplier")
            else:
                with pytest.raises(ValueError, match="is not a unit modulo"):
                    similarity_from_outer(a, om)
                scan_kinds.add(_reconstruction_kind(scan))
    assert kinds == {"similarity", "not an outer multiplier"}
    assert "not a class" in scan_kinds


def test_validator_and_projection_match_set_references():
    # both validators and theta against the frozenset validator, and the
    # projection against the smallest unit over each coset, on every
    # multiplier and outer multiplier and, for n <= 16, on every family off
    # one of them at one section
    verdicts = set()
    for a in _table_rings():
        stab_of = _stab_of(a)
        mult, fmult = mult_group(a), fmult_group(a)
        fams = list(dict.fromkeys(mult + fmult))
        if a.n <= 16:
            fams += [p for fam in fams for p in _one_section_changes(fam)]
        for fam in fams:
            got = (is_valid_multiplier(a, fam), is_valid_outer_multiplier(a, fam))
            assert got == (
                _is_family_by_sets(a, fam, _trivial),
                _is_family_by_sets(a, fam, stab_of),
            ), (a, fam)
            verdicts.add(got)
            assert _result_of(theta, a, fam) == _result_of(_theta_by_sets, a, fam), (a, fam)
            if all(gcd(rep, s.m) == 1 for s, _, rep in fam.entries):
                got_om = sring.multipliers._outer_family(a, fam.canonical_vector())
                assert got_om.entries == _project_by_min(a, fam).entries, (a, fam)
    assert len(verdicts) == 4


def _faults(fam: Multiplier):
    """Families from the public constructor with one entry of ``fam`` at fault:
    a non-unit (0, and the smallest other one), or a stabilizer unsorted,
    unreduced or with repeats."""
    for s, stab, rep in fam.entries:
        m = s.m
        faults = [(stab, k) for k in range(m) if gcd(k, m) > 1][:2]
        faults += [(stab[::-1], rep), (tuple(e + m for e in stab), rep), (stab + stab, rep)]
        for bad_stab, bad_rep in faults:
            yield Multiplier(
                (t, bad_stab, bad_rep) if t == s else (t, st, r) for t, st, r in fam.entries
            )


def test_public_families_with_faults_match_set_references():
    # the verdicts of both validators, and theta's result or ValueError, on
    # families the constructor accepts but the tables do not hold, made from
    # the first two multipliers and outer multipliers of each ring: a family
    # whose projection fails is not a multiplier, which is bad input
    outcomes = set()
    rings = [a for n in range(1, 17) for a in enumerate_srings(n) if is_quasidense(a)]
    for a in rings + _witnesses()[:1]:
        stab_of = _stab_of(a)
        for fam in dict.fromkeys(mult_group(a)[:2] + fmult_group(a)[:2]):
            for bad in _faults(fam):
                got = (is_valid_multiplier(a, bad), is_valid_outer_multiplier(a, bad))
                assert got == (
                    _is_family_by_sets(a, bad, _trivial),
                    _is_family_by_sets(a, bad, stab_of),
                ), (a, bad)
                result = _result_of(theta, a, bad)
                assert result == _result_of(_theta_by_sets, a, bad), (a, bad)
                outcomes.add((got, result[0]))
    assert {(False, False), (True, False), (False, True)} <= {g for g, _ in outcomes}
    assert {"value", ValueError} == {r for _, r in outcomes}


@pytest.mark.parametrize("rebuild", [similarity_from_outer, _similarity_from_outer_by_scan])
def test_reconstruction_failures_name_their_cause(rebuild):
    # a non-unit at the section of the class [1, 3] sends it onto H_2 = {0, 2},
    # which is two classes, as the scan reports; similarity_from_outer refuses
    # the non-unit as bad input before reading any class
    a = SRing(4, [[0], [1, 3], [2]])
    om = fmult_group(a)[0]
    assert rebuild(a, om).is_identity
    if rebuild is similarity_from_outer:
        error, message = ValueError, "0 is not a unit modulo 2 on Section(n=4, l=2, u=4)"
    else:
        error = ReconstructionFailed
        message = "image of [1, 3] under unit 0 on Section(n=4, l=2, u=4) is not a class"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        rebuild(a, _changed(om, Section(4, 2, 4), 0))
    # the unit 2 on the section of {2, 4} alone swaps those two classes and
    # fixes 1 and 5, which breaks 1 + 1 = 2; that family is not an outer
    # multiplier, which similarity_from_outer reports as bad input
    b = full_sring(6)
    om = fmult_group(b)[0]
    assert rebuild(b, om).is_identity
    bad = _changed(om, Section(6, 1, 3), 2)
    assert not is_valid_outer_multiplier(b, bad)
    if rebuild is similarity_from_outer:
        error, message = ValueError, f"{bad!r} is not an outer multiplier of {b!r}"
    else:
        error, message = ReconstructionFailed, "classwise images do not form a similarity"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        rebuild(b, bad)


def test_similarity_search_body_on_distinct_rings(monkeypatch):
    # No two distinct rings with n <= 36 share their class fingerprints, so
    # the search for a != b stops before its body.  With every fingerprint
    # made equal, the 26 distinct pairs with equal class sizes reach it.
    pairs = [
        (a, b)
        for n in range(1, 13)
        for a in enumerate_srings(n)
        for b in enumerate_srings(n)
        if a.rank == b.rank
    ]
    assert len(pairs) == 250
    module = importlib.import_module("sring.similarities")
    monkeypatch.setattr(module, "_class_fingerprints", lambda a: [()] * a.rank)
    searched = 0
    for a, b in pairs:
        got = similarities(a, b)
        assert got == _similarities_by_vectors(a, b), (a, b)
        assert all(is_similarity(a, b, phi.class_map) for phi in got), (a, b)
        searched += a != b and sorted(map(len, a.classes)) == sorted(map(len, b.classes))
    assert searched == 26


def _fresh(a: SRing) -> SRing:
    """A copy of ``a`` with nothing kept on it."""
    return SRing(a.n, a.classes, check=False)


def _similarity_maps_by_every_leaf(a: SRing, b: SRing) -> tuple[tuple[int, ...], ...]:
    """The search as it was: every leaf of the backtracker, for a == b too."""
    if a.n != b.n or a.rank != b.rank:
        return ()
    if sorted(map(len, a.classes)) != sorted(map(len, b.classes)):
        return ()
    r = a.rank
    fp_a = _class_fingerprints(a)
    fp_b = _class_fingerprints(b)
    candidates = [[j for j in range(r) if fp_b[j] == fp_a[i]] for i in range(r)]
    if any(not c for c in candidates):
        return ()
    ca, cb = _constants(a), _constants(b)
    inv_a = [a.inverse_class(i) for i in range(r)]
    inv_b = [b.inverse_class(j) for j in range(r)]
    order = sorted(range(r), key=lambda i: (len(a.classes[i]), a.classes[i][0]))
    image = [-1] * r
    used = [False] * r
    done: list[tuple[int, int]] = []
    found: list[tuple[int, ...]] = []
    _search_similarities(0, order, candidates, image, used, done, found, (ca, cb, inv_a, inv_b))
    return tuple(sorted(found))


def _search_similarities(pos, order, candidates, image, used, done, found, tables) -> None:
    if pos == len(order):
        found.append(tuple(image))
        return
    i = order[pos]
    for j in candidates[i]:
        if not used[j] and _consistent(i, j, image, done, tables):
            image[i] = j
            used[j] = True
            done.append((i, j))
            _search_similarities(pos + 1, order, candidates, image, used, done, found, tables)
            done.pop()
            used[j] = False
            image[i] = -1


def test_group_search_matches_every_leaf():
    # The stabilizer-chain search of the self-similarities, and phi_0 after
    # them for a second ring object equal to the first: the only way to
    # reach that path, since no two distinct rings with n < 37 are similar.
    rings = [a for n in range(1, 25) for a in enumerate_srings(n)]
    rings += [cyclotomic_sring(72, [11, 13]), cyclotomic_sring(144, [5, 7])]
    assert len(rings) == 479
    sizes = set()
    for a in rings:
        want = _similarity_maps_by_every_leaf(a, a)
        assert _self_maps(_fresh(a)) == want, a
        assert _similarity_maps(a, _fresh(a)) == want, a
        sizes.add(len(want))
    # every group order that occurs among these rings
    assert sizes == {1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 16, 18, 22}


def _verify_isomorphism_by_sets(phi: Similarity, iso: Isomorphism) -> bool:
    """The recheck as it was: f(X + y) == image(X) + f(y) as sets."""
    a, b = phi.source, phi.target
    n = a.n
    if sorted(iso.table) != list(range(n)) or iso.table[0] != 0:
        return False
    for i, cls in enumerate(a.classes):
        img = phi.image_of(i)
        for y in range(n):
            lhs = {iso.table[(x + y) % n] for x in cls}
            rhs = {(x + iso.table[y]) % n for x in img}
            if lhs != rhs:
                return False
    return True


def test_verify_isomorphism_matches_the_set_check():
    # Every similarity of every ring with n <= 12, with the table
    # find_isomorphism gives it, every unit table x -> kx and three random
    # permutations of Z_n fixing 0.  The same tables go with random class
    # permutations, a class map that is not a permutation, random class
    # maps into another ring of the same rank, and the map of the full ring
    # onto the rank-2 ring: a map to fewer classes, which would pass the
    # elementwise test with the identity table if it were not refused.
    rng = random.Random(2407)
    verdicts = []
    for n in range(1, 13):
        tables = [tuple(k * x % n for x in range(n)) for k in units(n).elements]
        for _ in range(3):
            rest = list(range(1, n))
            rng.shuffle(rest)
            tables.append((0, *rest))
        rings = enumerate_srings(n)
        pairs = []
        if n > 2:
            collapse = Similarity(full_sring(n), rank2_sring(n), (0,) + (1,) * (n - 1))
            pairs += [(collapse, t) for t in tables]
        for a in rings:
            r = a.rank
            for phi in similarities(a, a):
                iso = find_isomorphism(phi)
                pairs += [(phi, t) for t in ([iso.table] if iso else []) + tables]
            maps = [tuple(rng.sample(range(r), r)) for _ in range(2)]
            maps.append(tuple(min(i, 1) for i in range(r)))
            others = [b for b in rings if b.rank == r and b != a][:1]
            maps_b = [(b, tuple(rng.sample(range(r), r))) for b in others]
            pairs += [(Similarity(a, a, m), t) for m in maps for t in tables]
            pairs += [(Similarity(a, b, m), t) for b, m in maps_b for t in tables]
        for phi, t in pairs:
            iso = Isomorphism(n, t)
            want = _verify_isomorphism_by_sets(phi, iso)
            assert verify_isomorphism(phi, iso) == want, (phi.source, phi.class_map, t)
            verdicts.append(want)
    assert (len(verdicts), verdicts.count(True)) == (3810, 790)


_SIMILARITY_MEMOS = (
    "sring.similarities._self_maps",
    "sring.oracle._realized_maps",
    "sring.similarities._fs_units",
    "sring.similarities._outer_map",
)


def _ints_only(value) -> bool:
    return isinstance(value, int) or (
        isinstance(value, tuple) and all(map(_ints_only, value))
    )


def test_similarity_memos_match_the_uncached_functions():
    # Each memo, warm, against its uncached body on a fresh copy: the
    # self-similarities and the oracle's verdict for n <= 16, and both round
    # trips on every quasidense ring with n <= 24.  The memos keep integer
    # tuples only, and every call returns new objects.
    checked = 0
    for n in range(1, 25):
        for a in enumerate_srings(n):
            fresh = _fresh(a)
            if n <= 16:
                similarities(a, a)
                sims = similarities(a, a)
                assert sims is not similarities(a, a)
                want = _self_maps.__wrapped__(fresh)
                assert [phi.class_map for phi in sims] == list(want), a
                sims.clear()  # the memo does not hand out its own value
                assert [phi.class_map for phi in similarities(a, a)] == list(want), a
                maps, total = _realized_maps.__wrapped__(fresh)
                phi_infty(a)
                assert [phi.class_map for phi in phi_infty(a)] == list(maps), a
                assert is_separable_bruteforce(a) == (len(maps) == total), a
            if not is_quasidense(a):
                continue
            checked += 1
            for phi in similarities(a, a):
                fs_of(a, phi)
                om = fs_of(a, phi)
                assert om.canonical_vector() == _fs_units.__wrapped__(fresh, phi.class_map), a
                assert om.entries == _fs_of_by_restriction(a, phi).entries, a
                similarity_from_outer(a, om)
                back = similarity_from_outer(a, om)
                assert back.class_map == _outer_map.__wrapped__(fresh, om.canonical_vector())
                assert back.class_map == phi.class_map, a
            for om in fmult_group(a):
                assert fs_of(a, similarity_from_outer(a, om)) == om, a
            for name in _SIMILARITY_MEMOS:
                # a memo of the ring alone holds its value, the others a dict
                memo = a._cache.get(name, {})
                values = memo.values() if isinstance(memo, dict) else [memo]
                assert all(map(_ints_only, values)), (a, name)
    assert checked == 388  # the quasidense rings the phi-iso suite counts
