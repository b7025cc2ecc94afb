"""Record the expected output of every benchmark operation in expected.json.

    python3 bench/make_expected.py

Run this at the commit whose outputs are the reference (the ROADMAP's
byte-identity rule: canonical JSON must not change).  It runs each
workload's pass once over every input any seed can draw, at both sizes, so
every run checks full digests.  It takes a few minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workload as w  # noqa: E402


def all_inputs(sring, workload: str, size: str):
    """Inputs that cover every draw of the workload's seeded pools."""
    if workload != "construct":
        return w.make_inputs(sring, workload, size, seed=0)
    closures = [(n, x) for n in w.CLOSURE_NS[size] for x in w.closure_units(n)]
    n3 = w.DUAL_POWER_OF_3[size]
    specs = [("cyclotomic", n3, (g,)) for g in w.dual_generators(n3)]
    specs.append(("cyclotomic",) + w.DUAL_FIXED[size])
    duals = [(w.spec_key(spec), w.build_ring(sring, spec)) for spec in specs]
    return closures, w.BUILD[size], duals


def main() -> int:
    sring = w.import_sring(HERE.parent)
    expected: dict[str, dict] = {}
    for size in ("smoke", "full"):
        for workload in w.WORKLOADS:
            p = w.Pass()
            w.PASSES[workload](sring, all_inputs(sring, workload, size), p)
            if p.problems:
                raise RuntimeError(f"{workload} raised: {p.problems}")
            for key, kind, out, extra in p.outputs:
                expected[key] = w.summarize(kind, out, extra)
            print(f"{size} {workload}: {len(p.outputs)} outputs", file=sys.stderr)
    text = json.dumps(expected, indent=1, sort_keys=True) + "\n"
    (HERE / "expected.json").write_text(text)
    print(f"wrote {len(expected)} entries", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
