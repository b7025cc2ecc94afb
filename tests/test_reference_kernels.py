"""Refinement, ring validation, the dual and the multiplier layer against the
code they replaced.

The reference implementations below are the earlier bodies of
``core._wl_stabilize``, ``SRing._check_ring`` and ``duality.dual_sring``:
one class-product convolution per pair of classes, and one ``character_sum``
per class and character; and of ``multipliers._families`` and
``multipliers._is_family``, which test every pair of sections of ``frs0``.
They are kept here as test oracles only.
"""

from __future__ import annotations

import random
from math import gcd

from sring import (
    SRing,
    ValidationError,
    aut_stabilizer,
    character_sum,
    closure,
    cyclotomic_sring,
    dual_sring,
    fmult_group,
    frs0,
    is_quasidense,
    is_valid_multiplier,
    is_valid_outer_multiplier,
    mult_group,
    validate,
)
from sring.core import _wl_stabilize
from sring.errors import NotInverseClosed, NotMultiplicativelyClosed
from sring.modarith import unit_mod, unit_subgroups, units
from sring.multipliers import Multiplier, _is_subsection
from sring.oracle import enumerate_srings
from sring.sections import _proj_component


def _wl_stabilize_pairwise(n: int, class_of: list[int]) -> list[list[int]]:
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


def test_refinement_matches_pairwise_on_random_partitions():
    rng = random.Random(1501)
    for _ in range(300):
        n = rng.randrange(1, 60)
        labels = rng.randint(1, min(n, 6))
        class_of = [rng.randrange(labels) for _ in range(n)]
        assert _wl_stabilize(n, list(class_of)) == _wl_stabilize_pairwise(n, class_of)


def test_refinement_matches_pairwise_on_orbit_unions():
    rng = random.Random(6534)
    for n in (120, 210):
        for _ in range(3):
            class_of = _orbit_labels(rng, n, rng.randint(2, 4))
            assert _wl_stabilize(n, list(class_of)) == _wl_stabilize_pairwise(n, class_of)


def test_closure_refinement_matches_pairwise():
    for n in (360, 512):
        class_of = [0 if z == 0 else 1 if z in (1, n - 1) else 2 for z in range(n)]
        stable = _wl_stabilize(n, list(class_of))
        assert stable == _wl_stabilize_pairwise(n, class_of)
        assert closure(n, [{1, n - 1}]) == SRing(n, stable, check=False)


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
        parts: dict[int, list[int]] = {}
        for z in range(n):
            parts.setdefault(class_of[z], []).append(z)
        yield n, list(parts.values())


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


def test_multiplier_layer_matches_all_pairs_reference():
    # Every quasidense ring with n <= 30 and one with |frs0| = 81: the same
    # families in the same order, and the same verdicts of both validators on
    # every family and, for n <= 16, on every one-section perturbation of one.
    rings = [a for n in range(1, 31) for a in enumerate_srings(n) if is_quasidense(a)]
    assert len(rings) == 618
    rings.append(cyclotomic_sring(210, [-1]))
    assert len(frs0(rings[-1])) == 81
    verdicts = set()
    for a in rings:
        stab_of = _stab_of(a)
        mult, fmult = mult_group(a), fmult_group(a)
        assert mult == _families_all_pairs(a, _trivial), a
        assert fmult == _families_all_pairs(a, stab_of), a
        fams = list(dict.fromkeys(mult + fmult))
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
