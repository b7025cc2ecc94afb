"""One workload process of the sring benchmark.

``run.py`` starts this file in a fresh, isolated interpreter (``python -I``)
once per run, plus a few times in ``--mode setup`` to time set-up alone.  It
imports ``sring`` from the checkout's ``src/`` and nowhere else, builds the
seeded inputs, then repeats the workload's timed pass: a closed loop with one
caller, each operation starting when the previous one returns.  Every output
is checked against ``expected.json`` after the pass, outside the timed
section.  The last line on stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

WORKLOADS = ("census", "separability", "construct", "verify")

# Inputs per workload and size.  "full" is what a run measures; "smoke"
# exercises the same calls at a size that finishes in seconds.
CENSUS_NS = {"full": (24, 30), "smoke": (8, 12)}

# Every pass decides every ring of the pool; the seed only draws the order.
# A seeded subset would change the work per run by up to 4x between rings,
# which the run-to-run spread could not tell from noise.
SEPARABILITY_POOL = {
    "full": (
        ("cyclotomic", 240, (-1,)),  # quasidense, |frs0| = 135
        ("cyclotomic", 210, (-1,)),  # quasidense, |frs0| = 81
        ("rank2", 120),  # needs the quasidense reduction
        ("tensor", ("rank2", 9), ("cyclotomic", 35, (2,))),  # reduction, n = 315
    ),
    "smoke": (
        ("cyclotomic", 48, (-1,)),
        ("cyclotomic", 42, (-1,)),
        ("rank2", 12),
        ("tensor", ("rank2", 4), ("cyclotomic", 15, (2,))),
    ),
}

# construct: closure(n, [{x, -x}]) for a seeded unit x.  Multiplication by a
# unit is an automorphism of Z_n, so every x costs the same refinement work
# on a relabelled partition.
CLOSURE_NS = {"full": (360, 512), "smoke": (36, 64)}
BUILD = {"full": (512, (-1,)), "smoke": (64, (-1,))}
# dual_sring(cyclotomic_sring(n, [g])): g is a seeded odd power of 3, which
# generates the same unit subgroup as 3 and so gives the same ring and cost.
DUAL_POWER_OF_3 = {"full": 256, "smoke": 64}
DUAL_FIXED = {"full": (256, (-1,)), "smoke": (32, (-1,))}
POOL_SIZE = 8

# verify ignores the seed: the suites are deterministic sweeps.
SUITES = {
    "full": (("oracle", None), ("phi-iso", None), ("coset-closure", None)),
    "smoke": (("oracle", 8), ("phi-iso", 10), ("coset-closure", 8)),
}

# The speed probe: a loop timed every 5 ms during untraced passes.  40 us is
# its time on an uncontended 2-vCPU host with Python 3.11.
PROBE_INTERVAL_S = 0.005
PROBE_LOOPS = 600
PROBE_NOMINAL_S = 40e-6


def closure_units(n: int) -> list[int]:
    """The first POOL_SIZE units of Z_n, the pool x is drawn from."""
    return [x for x in range(1, n) if gcd(x, n) == 1][:POOL_SIZE]


def dual_generators(n: int) -> list[int]:
    return [pow(3, k, n) for k in range(1, 2 * POOL_SIZE, 2)]


def spec_key(spec) -> str:
    """Readable, stable name of a ring construction spec."""
    kind = spec[0]
    if kind == "cyclotomic":
        return f"cyclotomic_sring({spec[1]},{list(spec[2])})"
    if kind == "rank2":
        return f"rank2_sring({spec[1]})"
    if kind == "tensor":
        return f"tensor({spec_key(spec[1])},{spec_key(spec[2])})"
    raise ValueError(f"unknown ring spec {spec!r}")


def build_ring(sring, spec):
    kind = spec[0]
    if kind == "cyclotomic":
        return sring.cyclotomic_sring(spec[1], list(spec[2]))
    if kind == "rank2":
        return sring.rank2_sring(spec[1])
    if kind == "tensor":
        return sring.tensor(build_ring(sring, spec[1]), build_ring(sring, spec[2]))
    raise ValueError(f"unknown ring spec {spec!r}")


# -- output summaries ----------------------------------------------------------


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def summarize(kind: str, out, extra=None) -> dict:
    """Digest of the canonical JSON of one output, plus seed-invariant facts."""
    if kind == "rings":
        return {"sha256": digest([r.to_json_dict() for r in out]), "count": len(out)}
    if kind == "report":
        separable, report = out
        return {
            "sha256": digest(report.to_json_dict()),
            "separable": separable,
            "mult_order": report.mult_order,
            "fmult_order": report.fmult_order,
            "theta_image_order": report.theta_image_order,
            "trace_len": len(report.trace),
        }
    if kind == "ring":
        facts = {"sha256": digest(out.to_json_dict()), "rank": out.rank}
        if extra is not None:  # a dual: its rank must equal the input's
            facts["rank_matches_input"] = out.rank == extra.rank
        return facts
    if kind == "suite":
        return {
            "sha256": digest(out.to_json_dict()),
            "passed": out.passed,
            "checks": len(out.checks),
        }
    raise ValueError(f"unknown output kind {kind!r}")


# -- one timed pass ------------------------------------------------------------


class Pass:
    """Times each operation of one pass and keeps its output for checking."""

    def __init__(self) -> None:
        self.ops: list[tuple[str, str, float]] = []  # (phase, key, seconds)
        self.outputs: list[tuple[str, str, object, object]] = []
        self.attempted = 0
        self.problems: list[tuple[str, str]] = []  # (operation key, what went wrong)
        self.t0 = 0.0
        self.total_s = 0.0
        self.slowdown = 1.0

    def call(self, phase: str, key: str, kind: str, fn, *args, extra=None):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.ops.append((phase, key, time.perf_counter() - t0))
            self.problems.append((key, f"{type(exc).__name__}: {exc}"))
            return None
        self.ops.append((phase, key, time.perf_counter() - t0))
        self.outputs.append((key, kind, out, extra))
        return out


class SpeedProbe:
    """Samples the host's speed during a pass.

    Every PROBE_INTERVAL_S a SIGALRM handler times a fixed pure-Python loop
    between two bytecodes of the workload.  On a shared host the loop's time
    rises and falls with the contention that stretches the workload, so the
    pass time divided by ``slowdown`` is the time the pass would take where
    the loop takes PROBE_NOMINAL_S.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += (i * 7) % 13
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / PROBE_NOMINAL_S


def census_pass(sring, inputs, p: Pass) -> None:
    ns, seed = inputs
    rings = []
    for n in ns:
        found = p.call("enumerate", f"enumerate/{n}", "rings", sring.enumerate_srings, n)
        for i, ring in enumerate(found or ()):
            rings.append((f"census/{n}/{i}", ring))
    order = list(range(len(rings)))
    random.Random(seed).shuffle(order)
    for i in order:
        key, ring = rings[i]
        p.call("decide", key, "report", sring.is_separable, ring)


def separability_pass(sring, inputs, p: Pass) -> None:
    fresh = [(key, sring.SRing(a.n, a.classes, check=False)) for key, a in inputs]
    for key, ring in fresh:
        p.call("decide", f"separability/{key}", "report", sring.is_separable, ring)


def construct_pass(sring, inputs, p: Pass) -> None:
    closures, build, duals = inputs
    fresh = [(key, sring.SRing(a.n, a.classes, check=False)) for key, a in duals]
    for n, x in closures:
        p.call("closure", f"closure/{n}/{x}", "ring", sring.closure, n, [{x, n - x}])
    n, gens = build
    p.call("build", f"build/{n}/{list(gens)}", "ring", sring.cyclotomic_sring, n, list(gens))
    for key, ring in fresh:
        p.call("dual", f"dual/{key}", "ring", sring.dual_sring, ring, extra=ring)


def verify_pass(sring, inputs, p: Pass) -> None:
    for name, max_n in inputs:
        key = f"suite/{name}/{'default' if max_n is None else max_n}"
        p.call("suite", key, "suite", sring.verify.run_suite, name, max_n)


PASSES = {
    "census": census_pass,
    "separability": separability_pass,
    "construct": construct_pass,
    "verify": verify_pass,
}


def make_inputs(sring, workload: str, size: str, seed: int):
    """The seeded inputs of one workload; sring receives only these."""
    rng = random.Random(seed)
    if workload == "census":
        return CENSUS_NS[size], seed
    if workload == "separability":
        pool = list(SEPARABILITY_POOL[size])
        rng.shuffle(pool)
        return [(spec_key(spec), build_ring(sring, spec)) for spec in pool]
    if workload == "construct":
        closures = [(n, rng.choice(closure_units(n))) for n in CLOSURE_NS[size]]
        n3 = DUAL_POWER_OF_3[size]
        dual_specs = [
            ("cyclotomic", n3, (rng.choice(dual_generators(n3)),)),
            ("cyclotomic",) + DUAL_FIXED[size],
        ]
        duals = [(spec_key(spec), build_ring(sring, spec)) for spec in dual_specs]
        return closures, BUILD[size], duals
    if workload == "verify":
        return SUITES[size]
    raise ValueError(f"unknown workload {workload!r}")


# -- checking ------------------------------------------------------------------


def check_pass(p: Pass, expected: dict) -> None:
    """Record every output that differs from its expected summary, then drop
    the outputs so that they do not stay alive through the next pass."""
    for key, kind, out, extra in p.outputs:
        want = expected.get(key)
        got = summarize(kind, out, extra)
        if want is None:
            p.problems.append((key, "no expected output recorded"))
        elif got != want:
            diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            p.problems.append((key, f"output differs in {diff}"))
    p.outputs = []


# -- caches --------------------------------------------------------------------


def sring_caches() -> dict[str, object]:
    """Every functools cache held at module level by an sring module."""
    found: dict[int, tuple[str, object]] = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name != "sring" and not mod_name.startswith("sring."):
            continue
        for attr, value in vars(mod).items():
            if callable(getattr(value, "cache_clear", None)) and callable(
                getattr(value, "cache_info", None)
            ):
                home = f"{value.__module__}.{value.__qualname__}"
                found.setdefault(id(value), (home, value))
    return dict(found.values())


def assert_caches_empty(caches: dict[str, object]) -> None:
    full = {name: c.cache_info().currsize for name, c in caches.items() if c.cache_info().currsize}
    if full:
        raise RuntimeError(f"caches not empty before a timed pass: {full}")


def clear_caches(caches: dict[str, object]) -> None:
    for c in caches.values():
        c.cache_clear()
    assert_caches_empty(caches)


# -- statistics ----------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples above it, else the max."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], "max"
    return xs[n - 11], f"p{100 * (n - 10) // n}"


def end_to_end(workload: str, passes: list[Pass]) -> tuple[dict, dict]:
    """Medians over the untraced passes: the gated metric and the details.

    ``total_scaled_s`` is each pass's time divided by the slowdown its speed
    probe saw.  On a shared 2-vCPU host the same census pass took 5.4 s to
    7.4 s within one minute, while the scaled times stayed within 3.6-4.1 s.
    """
    med = statistics.median
    metrics = {"total_scaled_s": med(p.total_s / p.slowdown for p in passes)}
    details: dict[str, object] = {
        "passes": len(passes),
        "total_s": med(p.total_s for p in passes),
        "slowdown": med(p.slowdown for p in passes),
    }
    for phase in sorted({ph for p in passes for ph, _, _ in p.ops}):
        details[f"{phase}_s"] = med(
            sum(secs for ph, _, secs in p.ops if ph == phase) for p in passes
        )
    if workload == "census":
        verdicts = [[secs for ph, _, secs in p.ops if ph == "decide"] for p in passes]
        details["verdict_p50_s"] = med(med(xs) for xs in verdicts)
        details["verdict_tail_s"] = med(tail(xs)[0] for xs in verdicts)
        details["verdict_tail_rank"] = tail(verdicts[0])[1]
        details["verdicts"] = len(verdicts[0])
    return metrics, details


# -- main ----------------------------------------------------------------------


def import_sring(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import sring
    import sring.verify

    origin = Path(sring.__file__).resolve()
    if src not in origin.parents:
        raise RuntimeError(f"imported sring from {origin}, not from {src}")
    return sring


def timed_pass(workload: str, sring, inputs, expected: dict, probe: bool) -> Pass:
    gc.collect()
    p = Pass()
    with SpeedProbe() if probe else contextlib.nullcontext() as speed:
        p.t0 = time.perf_counter()
        PASSES[workload](sring, inputs, p)
        p.total_s = time.perf_counter() - p.t0
    if speed is not None:
        p.slowdown = speed.slowdown
    check_pass(p, expected)
    return p


def run_passes(workload, sring, inputs, caches, expected, seconds, trace, log):
    """Passes until the next one (and, when traced, room for a traced pass)
    would overrun ``seconds``; also the peak RSS after the first pass, which
    does not depend on how many passes fit."""
    passes: list[Pass] = []
    start = time.perf_counter()
    assert_caches_empty(caches)
    # A traced run keeps room for one traced pass (tracing costs up to ~1.5x).
    reserve = 1.5 if trace else 0.0
    while True:
        p = timed_pass(workload, sring, inputs, expected, probe=not trace)
        if not passes:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        log(
            f"pass {len(passes) + 1}: {p.total_s:.3f} s, slowdown {p.slowdown:.3f},"
            f" {len(p.problems)} problems"
        )
        passes.append(p)
        elapsed = time.perf_counter() - start
        if elapsed + p.total_s * (1 + reserve) > seconds:
            return passes, peak_rss_mb
        clear_caches(caches)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)

    def log(msg: str) -> None:
        print(f"[{args.workload}] {msg}", file=sys.stderr, flush=True)

    t0 = time.perf_counter()
    sring = import_sring(args.root)
    inputs = make_inputs(sring, args.workload, args.size, args.seed)
    setup_s = time.perf_counter() - t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    expected = json.loads(EXPECTED.read_text())
    caches = sring_caches()
    passes, peak_rss_mb = run_passes(
        args.workload, sring, inputs, caches, expected, args.seconds, args.trace, log
    )
    result = {"setup_s": setup_s}
    if args.trace:
        sys.path.insert(0, str(HERE))
        import tracer

        t = tracer.Tracer()
        t.install()
        clear_caches(caches)
        p = timed_pass(args.workload, sring, inputs, expected, probe=False)
        log(f"traced pass: {p.total_s:.3f} s, {len(p.problems)} problems")
        untraced = statistics.median(q.total_s for q in passes)
        result["per_layer"] = t.metrics(p.total_s, untraced)
        stem = f"{args.workload}-{args.size}-seed{args.seed}"
        result["spans_file"] = str(t.write(HERE / "out", stem, p.t0))
        passes.append(p)
    else:
        result["metrics"], result["details"] = end_to_end(args.workload, passes)
        result["metrics"]["peak_rss_mb"] = peak_rss_mb
    result["attempted"] = sum(p.attempted for p in passes)
    result["failed"] = sum(len({key for key, _ in p.problems}) for p in passes)
    result["problems"] = [f"{key}: {msg}" for p in passes for key, msg in p.problems][:20]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
