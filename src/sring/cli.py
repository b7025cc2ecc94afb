"""Command-line interface: validation, analysis, separability, duality, suites."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Iterable

from .core import SRing, a_subgroups, closure
from .duality import dual_sring
from .errors import LimitExceeded, SRingError, ValidationError
from .multipliers import SeparabilityReport, is_separable
from .oracle import ENUMERATE_BOUND, enumerate_srings, is_separable_bruteforce
from .sections import (
    ProjClass,
    frs0,
    is_quasidense,
    principal_sections,
    ring_sections,
    singular_witness,
)
from .verify import SUITES, run_suite

__all__ = ["AnalysisReport", "analyze", "main"]

# what a subcommand returns: its canonical JSON object, its text report and
# its exit code; ``main`` prints the object under --json and the text otherwise
_Result = tuple[dict, str, int]


@dataclass(frozen=True)
class AnalysisReport:
    """Pure projection of the structural invariants of one ring."""

    n: int
    rank: int
    subgroups: tuple[int, ...]
    section_count: int
    principal: tuple[tuple[int, int], ...]
    distinguished: tuple[tuple[int, int], ...]
    quasidense: bool
    witness: ProjClass | None
    separability: SeparabilityReport

    def to_json_dict(self) -> dict:
        data = {
            "n": self.n,
            "rank": self.rank,
            "a_subgroups": list(self.subgroups),
            "sections": self.section_count,
            "principal_sections": [{"l": l, "u": u} for l, u in self.principal],
            "frs0": [{"l": l, "u": u} for l, u in self.distinguished],
            "quasidense": self.quasidense,
            "separability": self.separability.to_json_dict(),
        }
        if self.witness is not None:
            data["singular_witness"] = {
                "members": [s.to_json_dict() for s in self.witness.members],
                "smallest": self.witness.smallest.to_json_dict(),
                "largest": self.witness.largest.to_json_dict(),
            }
        return data


def analyze(a: SRing) -> AnalysisReport:
    """Assemble the full structural report for one ring."""
    sections = ring_sections(a)
    principal = principal_sections(a)
    distinguished = frs0(a)
    quasidense = is_quasidense(a)
    witness = None if quasidense else singular_witness(a)[0]
    _, report = is_separable(a)
    return AnalysisReport(
        n=a.n,
        rank=a.rank,
        subgroups=a_subgroups(a),
        section_count=len(sections),
        principal=tuple((s.l, s.u) for s in principal),
        distinguished=tuple(sorted((s.l, s.u) for s in distinguished)),
        quasidense=quasidense,
        witness=witness,
        separability=report,
    )


# -- plumbing -----------------------------------------------------------------


def _read_sring(path: str) -> SRing:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}") from exc
    return SRing.from_json_dict(data)


def _parse_seed_sets(text: str) -> list[list[int]]:
    if not text.strip():
        return []
    try:
        return [
            [int(part) for part in chunk.split(",") if part.strip()]
            for chunk in text.split(";")
            if chunk.strip()
        ]
    except ValueError as exc:
        raise ValidationError(f"malformed seed sets {text!r}: {exc}") from exc


def _section_text(pairs) -> str:
    return " ".join(f"({l},{u})" for l, u in pairs)


def _listing(head: str, rows: Iterable[Iterable[Iterable[int]]]) -> str:
    """``head``, then one indented line per row: its residue lists, each
    comma-separated, joined by " | "."""
    lines = [head]
    lines += ["  " + " | ".join(",".join(map(str, xs)) for xs in row) for row in rows]
    return "\n".join(lines)


def _ring_result(label: str, a: SRing) -> _Result:
    """A ring as JSON, or as a header and one line per class."""
    head = f"{label} over Z_{a.n}: rank {a.rank}"
    return a.to_json_dict(), _listing(head, ([c] for c in a.classes)), 0


# -- subcommands ---------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> _Result:
    a = _read_sring(args.input)
    return {"ok": True, "n": a.n, "rank": a.rank}, f"ok: S-ring over Z_{a.n} with rank {a.rank}", 0


def _cmd_closure(args: argparse.Namespace) -> _Result:
    return _ring_result("closure", closure(args.n, _parse_seed_sets(args.seed_sets)))


def _cmd_analyze(args: argparse.Namespace) -> _Result:
    report = analyze(_read_sring(args.input))
    sep = report.separability
    lines = [
        f"n={report.n} rank={report.rank}",
        f"subgroup orders: {' '.join(str(d) for d in report.subgroups)}",
        f"sections: {report.section_count}",
        f"principal sections: {_section_text(report.principal)}",
        f"distinguished sections: {_section_text(report.distinguished)}",
        f"quasidense: {report.quasidense}",
    ]
    if report.witness is not None:
        s = report.witness.smallest
        lines.append(f"singular witness: smallest member ({s.l},{s.u})")
    lines.append(
        f"multipliers: {sep.mult_order}, outer: {sep.fmult_order},"
        f" projected: {sep.theta_image_order}"
    )
    lines.append(f"separable: {sep.separable}")
    return report.to_json_dict(), "\n".join(lines), 0


def _cmd_separability(args: argparse.Namespace) -> _Result:
    a = _read_sring(args.input)
    decided, report = is_separable(a)
    data = report.to_json_dict()
    text = f"separable: {decided}"
    if args.oracle:
        data["oracle"] = forced = is_separable_bruteforce(a)
        data["agrees"] = agrees = forced == decided
        text += f"\noracle: {forced} ({'agrees' if agrees else 'DISAGREES'})"
    return data, text, 0 if data.get("agrees", True) else 1


def _cmd_dual(args: argparse.Namespace) -> _Result:
    return _ring_result("dual S-ring", dual_sring(_read_sring(args.input)))


def _cmd_enumerate(args: argparse.Namespace) -> _Result:
    rings = enumerate_srings(args.n, max_n=args.max_n)
    data = {"n": args.n, "count": len(rings), "srings": [a.to_json_dict() for a in rings]}
    text = _listing(f"{len(rings)} S-rings over Z_{args.n}", (a.classes for a in rings))
    if args.report_nonseparable:
        witnesses = [a for a in rings if not is_separable(a)[0]]
        data["nonseparable"] = [a.to_json_dict() for a in witnesses]
        text += "\n" + _listing(f"non-separable: {len(witnesses)}", (a.classes for a in witnesses))
    return data, text, 0


def _cmd_verify(args: argparse.Namespace) -> _Result:
    result = run_suite(args.suite, args.max_n)
    lines = [
        f"{'ok  ' if c.passed else 'FAIL'} {result.suite} {c.name}: {c.detail}"
        for c in result.checks
    ]
    lines.append(f"{result.suite}: {'passed' if result.passed else 'FAILED'}")
    return result.to_json_dict(), "\n".join(lines), 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sring",
        description="Schur rings over cyclic groups: structure and separability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_input(p):
        p.add_argument("input", help="path to an S-ring JSON file, or - for stdin")
        p.add_argument("--json", action="store_true", help="emit canonical JSON")

    p = sub.add_parser("validate", help="check the S-ring axioms")
    with_input(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("closure", help="smallest S-ring containing the seed sets")
    p.add_argument("n", type=int, help="order of the underlying cyclic group")
    p.add_argument(
        "--seed-sets",
        default="",
        help='seed subsets as semicolon-separated residue lists, e.g. "1,4;2,3"',
    )
    p.add_argument("--json", action="store_true", help="emit canonical JSON")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("analyze", help="structural report for one ring")
    with_input(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("separability", help="decide separability via multipliers")
    with_input(p)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the brute-force isomorphism search",
    )
    p.set_defaults(func=_cmd_separability)

    p = sub.add_parser("dual", help="dual ring from exact character sums")
    with_input(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("enumerate", help="all S-rings over Z_n")
    p.add_argument("n", type=int, help="order of the underlying cyclic group")
    p.add_argument("--json", action="store_true", help="emit canonical JSON")
    p.add_argument(
        "--max-n", type=int, default=ENUMERATE_BOUND, help="enumeration size limit"
    )
    p.add_argument(
        "--report-nonseparable",
        action="store_true",
        help="also list any non-separable rings found",
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run a theorem-verification suite")
    p.add_argument("suite", choices=sorted(SUITES), help="suite name")
    p.add_argument("--json", action="store_true", help="emit canonical JSON")
    p.add_argument("--max-n", type=int, default=None, help="override the suite bound")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        data, text, code = args.func(args)
    except LimitExceeded as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except SRingError as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(data, sort_keys=True, separators=(",", ":")) if args.json else text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
