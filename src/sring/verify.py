"""Theorem-verification suites over exhaustively enumerated rings."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .core import SRing, closure, restriction, validate
from .duality import dual_section, dual_sring
from .errors import CosetClosureNotCoset, LimitExceeded, SRingError
from .multipliers import aut_stabilizer, fmult_group, is_separable
from .oracle import (
    COSET_CLOSURE_BOUND,
    ENUMERATE_BOUND,
    ISOMORPHISM_BOUND,
    coset_closure,
    enumerate_srings,
    is_separable_bruteforce,
    phi_infty,
)
from .sections import frs0, is_quasidense, ring_sections
from .similarities import fs_of, is_similarity, similarities, similarity_from_outer

__all__ = [
    "Check",
    "SuiteResult",
    "SUITES",
    "run_suite",
    "suite_axioms",
    "suite_coset_closure",
    "suite_duality",
    "suite_oracle",
    "suite_pgroups",
    "suite_phi_iso",
]


@dataclass(frozen=True)
class Check:
    """Outcome of one aggregated verification step."""

    name: str
    passed: bool
    detail: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    max_n: int
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "max_n": self.max_n,
            "passed": self.passed,
            "checks": [c.to_json_dict() for c in self.checks],
        }


class _Failure(Exception):
    """Internal signal that one check failed, carrying the diagnostic."""


def _describe(a: SRing) -> str:
    return f"SRing(n={a.n}, classes={[sorted(c) for c in a.classes]})"


def _sweep(
    suite: str,
    max_n: int,
    limit: int,
    check: Callable[[SRing], None],
    ns: Iterable[int] | None = None,
    keep: Callable[[SRing], bool] | None = None,
    noun: str = "rings",
) -> SuiteResult:
    """Run ``check`` on every enumerated ring over Z_n, one ``Check`` per n.

    ``ns`` defaults to 1, ..., ``max_n``.  Only the rings that ``keep``
    accepts, if given, are checked.  An n passes with the detail "N rings"
    (``noun``), N the number of rings checked, and fails with the message
    of the first ``_Failure`` that ``check`` raises, or of an ``SRingError``.
    ``limit`` is the largest n every search of the suite accepts; a larger
    ``max_n`` raises ``LimitExceeded`` before any n is checked.
    """
    if max_n > limit:
        raise LimitExceeded(f"suite {suite} up to n = {max_n} exceeds the bound {limit}")
    ns = list(range(1, max_n + 1) if ns is None else ns)
    if not ns:
        raise ValueError(f"suite {suite} checks no n up to {max_n}")
    checks = []
    for n in ns:
        try:
            rings = [a for a in enumerate_srings(n) if keep is None or keep(a)]
            for a in rings:
                check(a)
            passed, detail = True, f"{len(rings)} {noun}"
        except _Failure as f:
            passed, detail = False, str(f)
        except LimitExceeded:
            raise
        except SRingError as e:
            passed, detail = False, f"{type(e).__name__}: {e}"
        checks.append(Check(name=f"n={n}", passed=passed, detail=detail))
    return SuiteResult(suite, max_n, tuple(checks))


def suite_axioms(max_n: int = 24) -> SuiteResult:
    """Every enumerated ring validates, closes to itself, and restricts cleanly."""

    def check(a: SRing) -> None:
        validate(a.n, [list(c) for c in a.classes])
        if closure(a.n, [list(c) for c in a.classes]) != a:
            raise _Failure(f"closure not idempotent on {_describe(a)}")
        for s in ring_sections(a):
            sub = restriction(a, s.l, s.u)
            validate(sub.n, [list(c) for c in sub.classes])

    return _sweep("axioms", max_n, ENUMERATE_BOUND, check)


def suite_oracle(max_n: int = 16) -> SuiteResult:
    """The separability criterion agrees with the brute-force isomorphism search."""

    def check(a: SRing) -> None:
        decided, _ = is_separable(a)
        forced = is_separable_bruteforce(a)
        if decided != forced:
            raise _Failure(f"criterion says {decided}, oracle says {forced} on {_describe(a)}")

    return _sweep("oracle", max_n, ISOMORPHISM_BOUND, check)


def suite_phi_iso(max_n: int = 24) -> SuiteResult:
    """Similarities of a quasidense ring biject with outer multiplier families."""

    def check(a: SRing) -> None:
        sims = similarities(a, a)
        outers = fmult_group(a)
        if len(sims) != len(outers):
            raise _Failure(
                f"{len(sims)} similarities vs {len(outers)} outer multipliers on {_describe(a)}"
            )
        for phi in sims:
            if similarity_from_outer(a, fs_of(a, phi)).class_map != phi.class_map:
                raise _Failure(f"round trip broke a similarity on {_describe(a)}")
        for om in outers:
            if fs_of(a, similarity_from_outer(a, om)) != om:
                raise _Failure(f"round trip broke an outer multiplier on {_describe(a)}")

    return _sweep(
        "phi-iso", max_n, ENUMERATE_BOUND, check, keep=is_quasidense, noun="quasidense rings"
    )


def _prime_powers(max_n: int) -> Iterator[int]:
    """The prime powers up to ``max_n``, lazily, so that ``_sweep`` checks
    its bound before any is computed."""
    for n in range(2, max_n + 1):
        p = min(q for q in range(2, n + 1) if n % q == 0)
        m = n
        while m % p == 0:
            m //= p
        if m == 1:
            yield n


def suite_pgroups(max_n: int = 32) -> SuiteResult:
    """Every ring over a cyclic group of prime-power order is separable."""

    def check(a: SRing) -> None:
        if not is_separable(a)[0]:
            raise _Failure(f"declared non-separable: {_describe(a)}")
        if a.n <= 16 and not is_separable_bruteforce(a):
            raise _Failure(f"oracle disagrees on {_describe(a)}")

    return _sweep("pgroups", max_n, ENUMERATE_BOUND, check, _prime_powers(max_n))


def suite_duality(max_n: int = 24) -> SuiteResult:
    """Dualizing is a rank-preserving involution that fixes separability."""

    def check(a: SRing) -> None:
        n = a.n
        d = dual_sring(a)
        validate(d.n, [list(c) for c in d.classes])
        if dual_sring(d) != a:
            raise _Failure(f"dual not involutive on {_describe(a)}")
        if d.rank != a.rank:
            raise _Failure(f"dual changed rank on {_describe(a)}")
        if is_separable(a)[0] != is_separable(d)[0]:
            raise _Failure(f"dual changed separability on {_describe(a)}")
        if not is_quasidense(a):
            return
        if set(frs0(d)) != {dual_section(n, s) for s in frs0(a)}:
            raise _Failure(f"distinguished sections do not dualize on {_describe(a)}")
        for s in frs0(a):
            mine = set(aut_stabilizer(a, s).elements)
            if mine != set(aut_stabilizer(d, dual_section(n, s)).elements):
                raise _Failure(
                    f"stabilizer at ({s.l},{s.u}) does not dualize on {_describe(a)}"
                )

    return _sweep("duality", max_n, ENUMERATE_BOUND, check)


def _restricted_class_maps(a: SRing, fine: SRing) -> set[tuple[int, ...]]:
    """Similarities of the finer ring that descend to class maps of ``a``."""
    out = set()
    for psi in similarities(fine, fine):
        cmap: list[int] | None = []
        for cls in a.classes:
            img: set[int] = set()
            for x in cls:
                img.update(psi.image_of(fine.class_of[x]))
            i = a.class_of[min(img)]
            if frozenset(a.classes[i]) != img:
                cmap = None
                break
            cmap.append(i)
        if cmap is not None and is_similarity(a, a, tuple(cmap)):
            out.add(tuple(cmap))
    return out


def suite_coset_closure(max_n: int = 12) -> SuiteResult:
    """Isomorphism-realized similarities come from the coset closure."""

    def check(a: SRing) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CosetClosureNotCoset)
            fine = coset_closure(a)
        realized = {phi.class_map for phi in phi_infty(a)}
        descended = _restricted_class_maps(a, fine)
        if realized != descended:
            raise _Failure(
                f"{len(realized)} realized vs {len(descended)} descended"
                f" similarities on {_describe(a)}"
            )

    return _sweep("coset-closure", max_n, COSET_CLOSURE_BOUND, check)


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "axioms": suite_axioms,
    "oracle": suite_oracle,
    "phi-iso": suite_phi_iso,
    "pgroups": suite_pgroups,
    "duality": suite_duality,
    "coset-closure": suite_coset_closure,
}


def run_suite(name: str, max_n: int | None = None) -> SuiteResult:
    """Run one named suite, optionally overriding its default bound."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    func = SUITES[name]
    return func() if max_n is None else func(max_n)
