"""Regenerate the ROADMAP baseline table from the benchmark's program families.

    python3 perfbench/baseline.py

Single runs, as in ROADMAP, but under the interpreter's default recursion
limit (ROADMAP's were made with a raised one); rows where that makes a
difference say so.  ROADMAP's do-chain(n) is handler-chain(n) here and its
let-chain(n) is let-poly(n); ROADMAP's exact let-chain text is not recorded,
so its step counts may differ slightly from let-poly's.
Takes a few minutes: the do-chain(40) harness row alone is about two.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import programs  # noqa: E402
from run import FUEL, Effc, cast_chain, count_nodes  # noqa: E402
from tracer import Tracer  # noqa: E402


def timed(fn, *args):
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except RecursionError:
        return "RecursionError under the default recursion limit", time.perf_counter() - t0
    return out, time.perf_counter() - t0


def row(what: str, n, ours: str, roadmap: str) -> None:
    print(f"| {what} | {n} | {ours} | {roadmap} |", flush=True)


def main() -> int:
    effc = Effc()
    pl, infer, source = effc.pipeline, effc.infer, effc.source
    chain = {n: programs.program_text(programs.handler_chain(n)) for n in (10, 20, 40, 80, 160)}
    print("| measurement | n | this run | ROADMAP |")
    print("|---|---|---|---|")

    cells = []
    for n in (40, 80, 160):
        sig, comp = source.parse_program(chain[n])
        _, dt = timed(infer.infer_and_default, sig, comp)
        cells.append(f"{dt:.2f}")
    row("infer, do-chain", "40 / 80 / 160", " / ".join(cells) + " s", "0.23 / 0.91 / 3.48 s")

    art = pl.compile_text(chain[160])
    ex, dt = timed(effc.exeff.eval_comp, art.exeff_term, FUEL)
    row("ExEff eval, do-chain", 160, ex if isinstance(ex, str) else f"{ex.steps:,} steps, {dt:.1f} s", "14,967 steps, 8.4 s")
    no, dt = timed(effc.noeff.eval_noeff, art.noeff_term, FUEL)
    row("NoEff eval, do-chain", 160, no if isinstance(no, str) else f"{no[1]:,} steps, {dt:.1f} s", "16,897 steps, 23.6 s")
    sk, dt = timed(effc.skeleff.eval_sk, art.skeleff_term, FUEL)
    row("SkelEff eval, do-chain", 160, sk if isinstance(sk, str) else f"{sk[1]:,} steps, {dt:.2f} s", "641 steps, 0.16 s")

    casts = (effc.exeff.CCast, effc.exeff.ECast)
    depths = []
    for n in (10, 20, 40):
        trace = effc.exeff.eval_comp(pl.compile_text(chain[n]).exeff_term, FUEL, keep_trace=True).trace
        depths.append(str(max(cast_chain(t, casts) for t in trace)))
    row("cast-chain depth in the ExEff trace, do-chain", "10 / 20 / 40", " / ".join(depths), "33 / 63 / 123")

    let20 = programs.program_text(programs.let_poly(20))
    art, _ = timed(pl.compile_text, let20)
    if isinstance(art, str):
        row("let-chain", 20, f"compile: {art}", "ExEff 1,241 steps / 10.0 s; NoEff 6,582 steps / 16.8 s; SkelEff 60 steps / 3 ms")
    else:
        parts = []
        for name, fn, term, steps in (
            ("ExEff", effc.exeff.eval_comp, art.exeff_term, lambda r: r.steps),
            ("NoEff", effc.noeff.eval_noeff, art.noeff_term, lambda r: r[1]),
            ("SkelEff", effc.skeleff.eval_sk, art.skeleff_term, lambda r: r[1]),
        ):
            out, dt = timed(fn, term, FUEL)
            parts.append(f"{name} {out}" if isinstance(out, str) else f"{name} {steps(out):,} steps / {dt:.3g} s")
        row("let-chain", 20, "; ".join(parts), "ExEff 1,241 steps / 10.0 s; NoEff 6,582 steps / 16.8 s; SkelEff 60 steps / 3 ms")

    per_scheme = []
    hooks = Tracer()
    hooks.hook(infer, "split", lambda c, a, r: per_scheme.append(len(r[3])))
    try:
        art = pl.compile_text(programs.program_text(programs.let_poly(9)))
    finally:
        hooks.restore()
    row("let-chain", 9, f"qualifiers per scheme {per_scheme}; {count_nodes(art.exeff_term):,} core-term nodes (every dataclass node)",
        "each scheme carries 23 qualifiers; 1,633 core-term nodes")

    cells = []
    for n in (20, 40):
        rep, dt = timed(pl.differential_check_text, chain[n], f"do-chain({n})", FUEL, True)
        cells.append(rep if isinstance(rep, str) else f"{dt:.1f} s" + ("" if rep.agreement else f" ({rep.failure})"))
    row("`differential_check_text`, do-chain", "20 / 40", " / ".join(cells), "10.6 s / 112 s")

    parens = programs.HEADER + "(" * 3000 + "return unit" + ")" * 3000 + "\n"
    out, dt = timed(pl.compile_text, parens)
    row("`compile_text`, 3000 nested parens", "-", out if isinstance(out, str) else f"ok in {dt:.2f} s", "RecursionError traceback, exit 1")
    print("do-chain(900) is not rerun: it takes over two minutes to reach its RecursionError.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
