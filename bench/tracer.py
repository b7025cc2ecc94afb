"""Layer-boundary tracing for the benchmark's traced run.

The tracer wraps sring's boundary functions from outside: each wrapper
replaces the function at every binding in ``sys.modules["sring.*"]``, since
``from .core import closure`` copies the name into other modules (and the
package attribute ``sring.similarities`` is the function, not the module).
Span boundaries record (name, start, end, parent) in memory; the hottest
boundaries only count calls, so that tracing stays cheap.  A layer's self
time is the duration of its spans minus the part their child spans cover;
what no span covers is the benchmark's own time.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# Boundary functions timed as spans, by layer (= module of sring).
SPANS = {
    "modarith": ("unit_subgroups", "cyclotomic_poly"),
    "core": (
        "closure",
        "_wl_stabilize",
        "cyclotomic_sring",
        "tensor",
        "validate",
        "restriction",
    ),
    "sections": (
        "reduce_to_quasidense",
        "singular_witness",
        "s_extension",
        "frs0",
        "proj_classes",
        "f_unit",
    ),
    "similarities": (
        "similarities",
        "fs_of",
        "similarity_from_outer",
        "is_similarity",
        "restrict_similarity",
    ),
    "multipliers": (
        "is_separable",
        "mult_group",
        "fmult_group",
        "theta",
        "is_valid_multiplier",
        "is_valid_outer_multiplier",
    ),
    "duality": ("dual_sring",),
    "oracle": (
        "enumerate_srings",
        "find_isomorphism",
        "phi_infty",
        "is_separable_bruteforce",
        "coset_closure",
        "intersect",
    ),
    "verify": ("run_suite",),
}

# Boundaries called 10^4-10^5 times per pass: counted, never timed.
COUNTERS = {
    "multipliers": ("aut_stabilizer",),
    "modarith": ("units",),
    "duality": ("character_sum",),
}

LAYERS = tuple(SPANS)


class Tracer:
    """Wraps the boundaries of the imported sring and aggregates one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []  # boundary "layer.function", by span name index
        self.layer_of: list[str] = []
        # spans[sid] = (name index, start, end, parent sid, outermost of its name)
        self.spans: list[tuple] = []
        self.child_s: list[float] = []
        self.stack = [-1]
        self.open: list[int] = []  # open spans per name index
        self.counts: dict[str, int] = {}
        self.facts: dict[str, float] = {}
        self.enumerated: dict[int, int] = {}  # n -> rings found
        self.suite_s: dict[str, float] = {}
        self.originals: dict[str, object] = {}
        self.enumerate_idx = -1

    # -- installation ----------------------------------------------------------

    def _modules(self):
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "sring" or name.startswith("sring.")
        ]

    def _replace(self, original, wrapper) -> None:
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def _boundary(self, layer: str, fname: str):
        mod = sys.modules.get(f"sring.{layer}")
        fn = getattr(mod, fname, None) if mod is not None else None
        if not callable(fn):
            raise RuntimeError(f"trace boundary sring.{layer}.{fname} not found")
        return fn

    def install(self) -> None:
        for layer, fnames in SPANS.items():
            for fname in fnames:
                fn = self._boundary(layer, fname)
                self.originals[f"{layer}.{fname}"] = fn
                self._replace(fn, self._span_wrapper(layer, fname, fn))
        for layer, fnames in COUNTERS.items():
            for fname in fnames:
                fn = self._boundary(layer, fname)
                self._replace(fn, self._count_wrapper(f"{layer}.{fname}", fn))
        self.enumerate_idx = self.names.index("oracle.enumerate_srings")

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, layer: str, fname: str, fn):
        idx = len(self.names)
        name = f"{layer}.{fname}"
        self.names.append(name)
        self.layer_of.append(layer)
        self.open.append(0)
        self.counts[name] = 0
        spans, child_s, stack, open_, counts = (
            self.spans,
            self.child_s,
            self.stack,
            self.open,
            self.counts,
        )
        observe = getattr(self, "_observe_" + fname, None)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = len(spans)
            spans.append(None)
            child_s.append(0.0)
            stack.append(sid)
            outermost = open_[idx] == 0
            open_[idx] += 1
            counts[name] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                open_[idx] -= 1
                stack.pop()
                spans[sid] = (idx, start, end, parent, outermost)
                if parent >= 0:
                    child_s[parent] += end - start
            if observe is not None:
                observe(args, result, end - start)
            return result

        return traced

    # -- observations at boundaries (outside the spans' own time) ----------------

    def _add(self, key: str, value: float) -> None:
        self.facts[key] = self.facts.get(key, 0) + value

    def _observe__wl_stabilize(self, args, result, dur) -> None:
        if self.open[self.enumerate_idx]:
            self._add("refines_under_enumerate", 1)

    def _observe_enumerate_srings(self, args, result, dur) -> None:
        self.enumerated[args[0]] = len(result)

    def _observe_is_separable(self, args, result, dur) -> None:
        _, report = result
        self._add("mult_order_sum", report.mult_order)
        self._add("fmult_order_sum", report.fmult_order)
        self._add("theta_image_sum", report.theta_image_order)
        self._add("frs0_size", len(self.originals["sections.frs0"](report.reduct)))

    def _observe_similarities(self, args, result, dur) -> None:
        self._add("similarities_found", len(result))

    def _observe_find_isomorphism(self, args, result, dur) -> None:
        self._add("realized", result is not None)

    def _observe_run_suite(self, args, result, dur) -> None:
        self.suite_s[args[0]] = self.suite_s.get(args[0], 0.0) + dur
        self._add("checks", len(result.checks))

    def metrics(self, total_s: float, untraced_total_s: float) -> dict:
        """Every per-layer metric of the traced pass that took ``total_s``."""
        self_s = {layer: 0.0 for layer in LAYERS}
        inclusive: dict[str, float] = {}
        build_s = 0.0
        top_s = 0.0
        build = {"core.cyclotomic_sring", "core.tensor", "core.validate", "core.restriction"}
        for sid, (idx, start, end, parent, outermost) in enumerate(self.spans):
            dur = end - start
            own = dur - self.child_s[sid]
            name = self.names[idx]
            self_s[self.layer_of[idx]] += own
            if name in build:
                build_s += own
            if outermost:
                inclusive[name] = inclusive.get(name, 0.0) + dur
            if parent < 0:
                top_s += dur
        c = self.counts
        f = self.facts
        inc = lambda name: inclusive.get(name, 0.0)  # noqa: E731
        theta_calls = c["multipliers.theta"]
        rings_found = sum(self.enumerated.values())
        iso_calls = c["oracle.find_isomorphism"]
        out = {
            "core.self_s": self_s["core"],
            "core.refine_s": inc("core._wl_stabilize"),
            "core.refine_calls": c["core._wl_stabilize"],
            "core.closure_s": inc("core.closure"),
            "core.closure_calls": c["core.closure"],
            "core.build_s": build_s,
            "core.restriction_calls": c["core.restriction"],
            "sections.self_s": self_s["sections"],
            "sections.reduce_s": inc("sections.reduce_to_quasidense"),
            "sections.witness_s": inc("sections.singular_witness"),
            "sections.extensions": c["sections.s_extension"],
            "sections.frs0_calls": c["sections.frs0"],
            "sections.frs0_size": f.get("frs0_size", 0),
            "multipliers.self_s": self_s["multipliers"],
            "multipliers.mult_group_s": inc("multipliers.mult_group"),
            "multipliers.fmult_group_s": inc("multipliers.fmult_group"),
            "multipliers.theta_s": inc("multipliers.theta"),
            "multipliers.theta_calls": theta_calls,
            "multipliers.mult_order_sum": f.get("mult_order_sum", 0),
            "multipliers.fmult_order_sum": f.get("fmult_order_sum", 0),
            "multipliers.theta_useful_ratio": (
                f.get("theta_image_sum", 0) / theta_calls if theta_calls else 0.0
            ),
            "multipliers.aut_stabilizer_calls": c["multipliers.aut_stabilizer"],
            "similarities.self_s": self_s["similarities"],
            "similarities.search_s": inc("similarities.similarities"),
            "similarities.search_calls": c["similarities.similarities"],
            "similarities.found": f.get("similarities_found", 0),
            "similarities.fs_of_s": inc("similarities.fs_of"),
            "similarities.from_outer_s": inc("similarities.similarity_from_outer"),
            "oracle.self_s": self_s["oracle"],
            "oracle.enumerate_s": inc("oracle.enumerate_srings"),
            "oracle.rings_found": rings_found,
            "oracle.refines_per_ring": (
                f.get("refines_under_enumerate", 0) / rings_found if rings_found else 0.0
            ),
            "oracle.isomorphism_s": inc("oracle.find_isomorphism"),
            "oracle.isomorphism_calls": iso_calls,
            "oracle.realized_ratio": f.get("realized", 0) / iso_calls if iso_calls else 0.0,
            "oracle.coset_closure_s": inc("oracle.coset_closure"),
            "duality.self_s": self_s["duality"],
            "duality.dual_s": inc("duality.dual_sring"),
            "duality.dual_calls": c["duality.dual_sring"],
            "duality.character_sum_calls": c["duality.character_sum"],
            "verify.self_s": self_s["verify"],
            "verify.oracle_s": self.suite_s.get("oracle", 0.0),
            "verify.phi_iso_s": self.suite_s.get("phi-iso", 0.0),
            "verify.coset_closure_s": self.suite_s.get("coset-closure", 0.0),
            "verify.checks": f.get("checks", 0),
            "modarith.self_s": self_s["modarith"],
            "modarith.units_calls": c["modarith.units"],
            "trace.spans": len(self.spans),
            "trace.overhead_ratio": total_s / untraced_total_s - 1.0,
            "trace.total_s": total_s,
            "trace.bench_s": total_s - top_s,
        }
        return out

    def write(self, out_dir: Path, stem: str, t0: float) -> Path:
        """Write the spans as JSON lines, with times relative to ``t0``."""
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"spans-{stem}.jsonl"
        with path.open("w") as fh:
            fh.write(json.dumps({"names": self.names, "counters": self.counts}) + "\n")
            for sid, (idx, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"[{sid},{idx},{start - t0:.9f},{end - t0:.9f},{parent}]\n")
        return path
