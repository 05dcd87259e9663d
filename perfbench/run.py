"""The effc benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload corpus-diff --seed 1 --seconds 22 --trace 0

Each program is put through the CLI's operations, each timed on its own:
`check` (compile_text to NoEff), `run_exeff`, `run_skeleff`, `run_noeff`
(the backend's evaluator on the compiled artefact) and, where the workload
says so, `diff` (the differential harness with per-step checks).  Defaults
are the CLI's: fuel 100 000, the interpreter's own recursion limit.  A pass
runs every program once, in order; passes repeat until --seconds have gone
by, and times are medians over passes.

Every observation is checked: corpus programs against
tests/corpus/expected.json, generated programs against the reference
interpreter.  A mismatch, an exception or a failing harness verdict is a
failed operation, sorted by class.

Times are the thread's CPU time, scaled to a reference machine speed by a
calibration loop timed between programs (see calibrate.py); the per-program
rows of the detail file keep the unscaled times.

--trace 0 prints the end-to-end metrics; --trace 1 wraps effc's layers (see
tracer.py) and prints per-layer self times and counts instead.  The last
line of standard output is the JSON result; details and spans go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(ROOT, "tests", "corpus")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import programs  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer  # noqa: E402

FUEL = 100_000  # the CLI's default
# Times are the thread's CPU time: on a shared machine, wall time also counts
# the time other tenants hold the CPU.
CLOCK = time.thread_time
SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
RUN_OPS = ("run_exeff", "run_skeleff", "run_noeff")

# Ladder rungs.  The largest rungs keep one pass to a few seconds; `diff` is
# super-linear in n, so it runs on the small rungs only.  let-poly's probe is
# the first rung past the recursion cliff of ExEff evaluation; it counts only
# towards ok_ratio.
LADDERS = {
    "handler-chain": (programs.handler_chain, (4, 8, 12, 16, 24, 32, 48), 8, None),
    "nested-handlers": (programs.nested_handlers, (3, 6, 9, 12, 18, 24), 3, None),
    "let-poly": (programs.let_poly, (2, 3, 4, 5, 6, 7, 8, 9), 4, 11),
}
WORKLOADS = ("corpus-diff",) + tuple(LADDERS)


@dataclass
class Program:
    pid: str
    text: str
    n: int  # ladder rung, or AST size of a corpus-diff program
    expected: str
    ops: tuple


def ops_for(diff: bool) -> tuple:
    return ("check",) + RUN_OPS + (("diff",) if diff else ())


# A probe stops at the evaluator whose cliff it probes: NoEff evaluation of
# let-poly(11) succeeds and would take longer than the rest of the probe.
PROBE_OPS = ("check", "run_exeff", "run_skeleff")


# ---------------------------------------------------------------------------
# Set-up: import effc, build the inputs, warm up


class Effc:
    """effc's modules, imported afresh."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "effc" or m.startswith("effc.")]:
            del sys.modules[name]
        for name in ("core", "source", "infer", "exeff", "skeleff", "noeff", "pipeline"):
            setattr(self, name, importlib.import_module(f"effc.{name}"))


def corpus_programs() -> list:
    with open(os.path.join(CORPUS, "expected.json"), encoding="utf-8") as f:
        expected = json.load(f)
    out = []
    for name in sorted(expected):
        with open(os.path.join(CORPUS, name), encoding="utf-8") as f:
            text = f.read()
        size = programs.size(reference.parse_corpus(text))
        out.append(Program(name, text, size, expected[name]["observation"], ops_for(True)))
    return out


def build_inputs(workload: str, seed: int) -> tuple:
    """(programs, probes, ASTs to check against the reference interpreter)."""
    if workload == "corpus-diff":
        asts = programs.random_programs(seed)
        randoms = [
            Program(f"random-{i:03d}", programs.program_text(c), programs.size(c), "", ops_for(True))
            for i, c in enumerate(asts)
        ]
        return corpus_programs() + randoms, [], {p.pid: c for p, c in zip(randoms, asts)}
    family, rungs, diff_max, probe = LADDERS[workload]
    asts = {f"n={n}": family(n) for n in rungs + ((probe,) if probe else ())}
    progs = [Program(f"n={n}", programs.program_text(asts[f"n={n}"]), n, "", ops_for(n <= diff_max)) for n in rungs]
    probes = [Program(f"n={probe}", programs.program_text(asts[f"n={probe}"]), probe, "", PROBE_OPS)] if probe else []
    return progs, probes, asts


# ---------------------------------------------------------------------------
# Operations


def failure_class(exc: BaseException, effc: Effc) -> str:
    core = effc.core
    if isinstance(exc, RecursionError):
        return "RecursionError"
    if isinstance(exc, core.FuelExhausted):
        return "FuelExhausted"
    if isinstance(exc, core.StuckTerm):
        return "StuckTerm"
    if isinstance(exc, core.EffError):
        return f"EffError.{type(exc).__name__}"
    return f"other.{type(exc).__name__}"


class Runner:
    """Runs each program's operations, recording times, failures and steps."""

    def __init__(self, effc: Effc, tracer: Tracer | None = None):
        self.effc = effc
        self.tracer = tracer
        self.artefacts: dict = {}  # pid -> compiled artefact of the last pass
        self.steps: dict = {}  # pid -> backend -> steps of the last run op
        self.loop_times: list = []  # every calibration measurement

    def run_program(self, p: Program) -> dict:
        """op -> (seconds, None) on success, or (None, failure class)."""
        pl, exeff, skeleff, noeff = self.effc.pipeline, self.effc.exeff, self.effc.skeleff, self.effc.noeff
        art = None
        steps = self.steps.setdefault(p.pid, {})

        def check():
            nonlocal art
            art = pl.compile_text(p.text, "noeff")
            return []

        def run_exeff():
            out = exeff.eval_comp(art.exeff_term, FUEL)
            steps["exeff"] = out.steps
            return [str(pl.observe_exeff(out.result))]

        def run_skeleff():
            res, steps["skeleff"] = skeleff.eval_sk(art.skeleff_term, FUEL)
            return [str(pl.observe_skeleff(res))]

        def run_noeff():
            res, steps["noeff"] = noeff.eval_noeff(art.noeff_term, FUEL)
            return [str(pl.observe_noeff(res))]

        def diff():
            rep = pl.differential_check_text(p.text, p.pid, FUEL, check_each_step=True)
            if not rep.agreement:
                return f"harness: {rep.failure}"
            return [str(o) for o in rep.observations.values()]

        ops = {"check": check, "run_exeff": run_exeff, "run_skeleff": run_skeleff, "run_noeff": run_noeff, "diff": diff}
        out = {}
        for op in p.ops:
            if op in RUN_OPS and art is None:
                out[op] = (None, "skipped: check failed")
            else:
                out[op] = self._attempt(op, ops[op], p)
        if art is not None:
            self.artefacts[p.pid] = art
        return out

    def _attempt(self, op: str, fn, p: Program) -> tuple:
        span = self.tracer.root(f"op.{op}", p.pid) if self.tracer else contextlib.nullcontext()
        try:
            with span:
                t0 = CLOCK()
                got = fn()
                dt = CLOCK() - t0
        except Exception as exc:  # every failure is recorded and the loop goes on
            return None, failure_class(exc, self.effc)
        if isinstance(got, str):
            return None, got
        if any(o != p.expected for o in got):
            return None, "mismatch"
        return dt, None

    def run_pass(self, progs: list) -> dict:
        """pid -> run_program's result; times the calibration loop as it goes."""
        out = {}
        self.loop_times.append(calibrate.loop_s())
        # After a fixed count of programs, not after a span of wall time: the
        # loop's allocations move the collector's schedule, so timing it at
        # the same points in every run puts collections in the same operations.
        every = max(1, len(progs) // calibrate.PER_PASS)
        for i, p in enumerate(progs, 1):
            out[p.pid] = self.run_program(p)
            if i % every == 0:
                self.loop_times.append(calibrate.loop_s())
        return out

    @property
    def scale(self) -> float:
        """Factor from this run's CPU seconds to seconds at the reference speed."""
        return calibrate.REFERENCE_S / median(self.loop_times)


def warm_up(effc: Effc) -> None:
    p = Program("warm-up", programs.program_text(programs.handler_chain(2)), 2, "return 7", ops_for(True))
    res = Runner(effc).run_program(p)
    bad = {op: why for op, (_, why) in res.items() if why}
    if bad:
        raise SystemExit(f"warm-up failed: {bad}")


# ---------------------------------------------------------------------------
# Statistics


median = statistics.median


def percentile(xs: list, q: float) -> float:
    """Linear interpolation between order statistics; failed programs enter as +inf."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    frac = pos - lo
    if frac == 0:
        return xs[lo]
    if math.isinf(xs[lo + 1]):
        return math.inf
    return xs[lo] + (xs[lo + 1] - xs[lo]) * frac


def slope(points: list) -> float:
    """Least-squares slope of log t against log n, t the mean time of the programs of size n;
    NaN when fewer than two sizes are left (the others failed)."""
    groups: dict = {}
    for n, t in points:
        groups.setdefault(n, []).append(t)
    if len(groups) < 2:
        return math.nan
    pts = [(math.log(n), math.log(sum(ts) / len(ts))) for n, ts in groups.items()]
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def finite(x):
    """A value for JSON: NaN and infinities, which JSON cannot hold, become null."""
    return x if not isinstance(x, float) or math.isfinite(x) else None


def op_medians(progs: list, passes: list) -> dict:
    """(pid, op) -> median seconds over passes, None if the op ever failed."""
    out = {}
    for p in progs:
        for op in p.ops:
            times = [ps[p.pid][op][0] for ps in passes]
            out[p.pid, op] = None if None in times else median(times)
    return out


def failures(passes: list) -> Counter:
    c: Counter = Counter()
    for ps in passes:
        for res in ps.values():
            c.update(why for _, why in res.values() if why)
    return c


def count_nodes(term, classes=None) -> int:
    """Dataclass nodes in a term (terms, types, coercions), walked iteratively."""
    n = 0
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, tuple):
            stack.extend(t)
            continue
        if not dataclasses.is_dataclass(t) or isinstance(t, type):
            continue
        if classes is None or isinstance(t, classes):
            n += 1
        stack.extend(getattr(t, f.name) for f in dataclasses.fields(t))
    return n


def cast_chain(term, casts) -> int:
    """Longest run of directly nested casts anywhere in a term."""
    best = 0
    stack = [(term, 0)]
    while stack:
        t, run = stack.pop()
        if isinstance(t, tuple):
            stack.extend((x, 0) for x in t)
        elif isinstance(t, casts):
            best = max(best, run + 1)
            stack.append((t.comp if hasattr(t, "comp") else t.val, run + 1))
        elif dataclasses.is_dataclass(t) and not isinstance(t, type):
            stack.extend((getattr(t, f.name), 0) for f in dataclasses.fields(t))
    return best


# ---------------------------------------------------------------------------
# End-to-end metrics (--trace 0)


def end_to_end(progs, probes, passes, probe_pass, setups, runner) -> dict:
    med = op_medians(progs, passes)

    scale = runner.scale

    def total(op):
        return scale * sum(t for (_, o), t in med.items() if o == op and t is not None)

    def growth(op):
        return slope([(p.n, med[p.pid, op]) for p in progs if med[p.pid, op] is not None])

    latency = [
        median([sum(math.inf if ps[p.pid][op][0] is None else ps[p.pid][op][0] for op in p.ops) for ps in passes])
        for p in progs
    ]
    ops_per_pass = sum(len(p.ops) for p in progs) + sum(len(p.ops) for p in probes)
    failed_per_pass = median([sum(1 for r in ps.values() for _, why in r.values() if why) for ps in passes])
    failed_probe = sum(1 for r in probe_pass.values() for _, why in r.values() if why)
    arts = [runner.artefacts[p.pid] for p in progs if p.pid in runner.artefacts]
    return {
        "setup_s": (scale * median(setups), "s"),
        "check_s": (total("check"), "s"),
        "run_exeff_s": (total("run_exeff"), "s"),
        "run_skeleff_s": (total("run_skeleff"), "s"),
        "run_noeff_s": (total("run_noeff"), "s"),
        "diff_s": (total("diff"), "s"),
        "program_s.p50": (scale * percentile(latency, 0.50), "s"),
        "program_s.p95": (scale * percentile(latency, 0.95), "s"),
        "growth.check": (growth("check"), "slope"),
        "growth.run_exeff": (growth("run_exeff"), "slope"),
        "growth.run_noeff": (growth("run_noeff"), "slope"),
        "exeff_nodes": (sum(count_nodes(a.exeff_term) for a in arts), "count"),
        "noeff_nodes": (sum(count_nodes(a.noeff_term) for a in arts), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (1 - (failed_per_pass + failed_probe) / ops_per_pass, "ratio"),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics (--trace 1)

# Spans are named <module of src/effc>.<what>.  Each reported one becomes a
# self-time metric; pipeline.compile is traced only so that its own work is
# not charged to the operation around it.
SELF_TIMES = {
    "source.parse": "source.parse_s",
    "infer.gen": "infer.gen_s",
    "infer.solve": "infer.solve_s",
    "infer.default": "infer.default_s",
    "exeff.subst_then": "exeff.subst_then_s",
    "exeff.typecheck": "exeff.typecheck_s",
    "exeff.eval": "exeff.eval_s",
    "skeleff.erase": "skeleff.erase_s",
    "skeleff.typecheck": "skeleff.typecheck_s",
    "skeleff.eval": "skeleff.eval_s",
    "skeleff.congruent": "skeleff.congruent_s",
    "skeleff.normalize": "skeleff.normalize_s",
    "noeff.elab": "noeff.elab_s",
    "noeff.typecheck": "noeff.typecheck_s",
    "noeff.eval": "noeff.eval_s",
    "pipeline.diff": "pipeline.diff_self_s",
}
CALLS = ("infer.solve", "exeff.subst_then", "exeff.typecheck", "skeleff.congruent")


def install(tracer: Tracer, effc: Effc) -> None:
    """Wrap each layer's public entry points; infer_top stands for generation."""
    w = tracer.wrap
    w(effc.pipeline, "compile_text", "pipeline.compile")
    w(effc.pipeline, "differential_check_text", "pipeline.diff")
    w(effc.source, "parse_program", "source.parse")
    tracer.hook(effc.source, "tokenize", lambda c, a, r: c.update({"source.tokens": len(r)}))
    w(effc.infer, "infer_and_default", "infer.default")
    w(effc.infer, "default_residual", "infer.default")
    w(effc.infer, "infer_top", "infer.gen", lambda c, r: c.update({"infer.constraints": len(r.generated), "infer.residual": len(r.residual)}))
    w(effc.infer, "solve", "infer.solve")
    tracer.hook(effc.infer, "split", lambda c, a, r: c.update({"infer.scheme_qualifiers": len(r[3])}))
    w(effc.exeff.Subst, "then", "exeff.subst_then")
    w(effc.exeff, "typecheck_comp", "exeff.typecheck")
    w(effc.exeff, "eval_comp", "exeff.eval")
    w(effc.skeleff, "erase_comp", "skeleff.erase")
    w(effc.skeleff, "typecheck_sk", "skeleff.typecheck")
    w(effc.skeleff, "eval_sk", "skeleff.eval")
    w(effc.skeleff, "congruent", "skeleff.congruent")
    w(effc.skeleff, "normalize_full", "skeleff.normalize")
    w(effc.noeff, "elab_comp", "noeff.elab")
    w(effc.noeff, "typecheck_noeff", "noeff.typecheck")
    w(effc.noeff, "eval_noeff", "noeff.eval")


def traced_passes(effc, progs, seconds, loop_times) -> tuple:
    """(tracer, per-pass [self times, calls, counts, op results])."""
    tracer = Tracer()
    install(tracer, effc)
    runner = Runner(effc, tracer)
    runner.loop_times = loop_times  # one machine-speed estimate for the whole run
    out = []
    start = time.perf_counter()
    try:
        while len(out) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
            first, calls0, counts0 = len(tracer.spans), Counter(tracer.calls), Counter(tracer.counts)
            res = runner.run_pass(progs)
            out.append((tracer.self_times(first), tracer.calls - calls0, tracer.counts - counts0, res))
    finally:
        tracer.restore()
    return tracer, out


def extras(effc, progs, base, runner) -> dict:
    """Counts that need extra work, taken in an untimed pass over the operations
    that succeeded in the base pass (the failed ones are counted there)."""
    hooks = Tracer()
    alpha_eq = effc.skeleff.alpha_eq_sk
    hooks.hook(effc.skeleff, "congruent", lambda c, a, r: c.update({"calls": 1, "alpha_equal": int(alpha_eq(a[0], a[1]))}))
    try:
        for p in progs:
            if "diff" in p.ops and not base[p.pid]["diff"][1]:
                effc.pipeline.differential_check_text(p.text, p.pid, FUEL, check_each_step=True)
    finally:
        hooks.restore()
    casts = (effc.exeff.CCast, effc.exeff.ECast)
    depth = 0
    for p in progs:
        if p.pid in runner.artefacts and not base[p.pid]["run_exeff"][1]:
            trace = effc.exeff.eval_comp(runner.artefacts[p.pid].exeff_term, FUEL, keep_trace=True).trace
            depth = max([depth] + [cast_chain(t, casts) for t in trace])
    return {"alpha_equal_ratio": hooks.counts["alpha_equal"] / max(1, hooks.counts["calls"]), "cast_depth_max": depth}


def per_layer(effc, progs, base, runner, traced, extra) -> tuple:
    """(metrics, names of counts that differ between the first two traced passes)."""
    _, calls, counts, _ = traced[0]
    unstable = sorted(
        k for k in set(calls) | set(counts) | set(traced[1][1]) | set(traced[1][2])
        if calls[k] != traced[1][1][k] or counts[k] != traced[1][2][k]
    )

    def op_total(res):
        return sum(t for r in res.values() for t, _ in r.values() if t is not None)

    arts = [runner.artefacts[p.pid] for p in progs if p.pid in runner.artefacts]
    steps = Counter()
    for p in progs:
        steps.update(runner.steps.get(p.pid, {}))
    noeff = effc.noeff
    m = {metric: (runner.scale * median([st.get(span, 0.0) for st, _, _, _ in traced]), "s") for span, metric in SELF_TIMES.items()}
    m.update({f"{name}_calls": (calls[name], "count") for name in CALLS})
    m.update({name: (counts[name], "count") for name in ("infer.constraints", "infer.residual", "infer.scheme_qualifiers", "source.tokens")})
    m.update({
        "exeff.steps": (steps["exeff"], "count"),
        "skeleff.steps": (steps["skeleff"], "count"),
        "noeff.steps": (steps["noeff"], "count"),
        "exeff.nodes": (sum(count_nodes(a.exeff_term) for a in arts), "count"),
        "skeleff.nodes": (sum(count_nodes(a.skeleff_term) for a in arts), "count"),
        "noeff.nodes": (sum(count_nodes(a.noeff_term) for a in arts), "count"),
        "noeff.bridge_coercions": (sum(count_nodes(a.noeff_term, (noeff.NCoReturn, noeff.NCoUnsafe)) for a in arts), "count"),
        "exeff.cast_depth_max": (extra["cast_depth_max"], "count"),
        "skeleff.alpha_equal_ratio": (extra["alpha_equal_ratio"], "ratio"),
        "trace.overhead": (median([op_total(res) for _, _, _, res in traced]) / (op_total(base) or math.nan) - 1, "ratio"),
        "machine.calibration_s": (median(runner.loop_times), "s"),
    })
    return m, unstable


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "effc")) or not os.path.isdir(CORPUS):
        print(f"run.py: effc sources ({SRC}) or corpus ({CORPUS}) not found", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = CLOCK()
        effc = Effc()
        progs, probes, asts = build_inputs(args.workload, args.seed)
        warm_up(effc)
        setups.append(CLOCK() - t0)

    by_pid = {p.pid: p for p in progs + probes}
    for pid, ast in asts.items():
        by_pid[pid].expected = reference.observe(ast)

    runner = Runner(effc)
    passes = []
    start, cpu_start = time.perf_counter(), CLOCK()
    if args.trace:
        base = runner.run_pass(progs)
        tracer, traced = traced_passes(effc, progs, args.seconds - (time.perf_counter() - start), runner.loop_times)
        extra = extras(effc, progs, base, runner)
        metrics, unstable = per_layer(effc, progs, base, runner, traced, extra)
        passes = [base] + [res for _, _, _, res in traced]
        probe_pass = {}
    else:
        while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            passes.append(runner.run_pass(progs))
        probe_pass = Runner(effc).run_pass(probes)
        metrics = end_to_end(progs, probes, passes, probe_pass, setups, runner)

    failed = failures(passes)
    attempted = sum(len(ps[p.pid]) for ps in passes for p in progs)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    med = op_medians(progs, passes)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "calibration_s": median(runner.loop_times),
        "scale": runner.scale,
        "failures": dict(failed),
        "probes": {pid: {op: why or "ok" for op, (_, why) in r.items()} for pid, r in probe_pass.items()},
        "programs": [
            {"pid": p.pid, "n": p.n, "expected": p.expected, "steps": runner.steps.get(p.pid, {}),
             **{op: med[p.pid, op] for op in p.ops}}
            for p in progs
        ],
        "metrics": {k: finite(v) for k, (v, _) in metrics.items()},
    }
    if args.trace:
        detail["unstable_counts"] = unstable
        tracer.dump(stem + "-spans.json", cpu_start)
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(detail, f, indent=1)

    print(f"workload {args.workload}, seed {args.seed}: {len(progs)} programs, {len(passes)} passes")
    print(f"failures by class: {dict(failed) or 'none'}")
    if probe_pass:
        print(f"probes: {detail['probes']}")
    if args.trace:
        print(f"count determinism: {'all counts repeat' if not unstable else 'NOT REPEATING: ' + ', '.join(unstable)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": sum(failed.values()),
        "metrics": {k: {"value": finite(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
