"""Count the Python calls that each effc operation makes over the test programs.

    python tools/callcount.py

Runs each operation on every program of `tests/corpus` and on the programs
that `tests/gen_helpers.program_texts` generates, and prints, per operation,
the Python function calls it made (`sys.setprofile` "call" events; a
generator's every resumption is one):

- `compile`: `pipeline.compile_text(text, "noeff")`;
- `run_exeff`, `run_skeleff`, `run_noeff`: each backend's evaluator on the
  compiled term, as the benchmark's `run_*` operations call it;
- `diff`: `pipeline.differential_check_text(text)`, with per-step checks.

It then prints the calls of `compile` on each benchmark workload's seed-1
programs (probes left out), built by `perfbench/run.py`'s `build_inputs`, so
that a change to inference can be sized per workload without timing noise.

Every operation runs once on every program before counting starts, so the
per-class tables and caches that effc fills on first use are full, as they
are in a benchmark pass.  The counts are then a property of the code, not of
the machine's load: they repeat exactly between runs, where times of the same
code spread by several percent.  The last line of output is the counts as
JSON.  Only the standard library is needed.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from effc import exeff, noeff, pipeline, skeleff  # noqa: E402
from gen_helpers import program_texts  # noqa: E402
import run as bench  # noqa: E402  (perfbench/run.py, for its inputs only)

FUEL = 100_000  # the CLI's default

# operation -> what it does to one program's text and its compiled artefact
OPERATIONS = {
    "compile": lambda text, art: pipeline.compile_text(text, "noeff"),
    "run_exeff": lambda text, art: exeff.eval_comp(art.exeff_term, FUEL),
    "run_skeleff": lambda text, art: skeleff.eval_sk(art.skeleff_term, FUEL),
    "run_noeff": lambda text, art: noeff.eval_noeff(art.noeff_term, FUEL),
    "diff": lambda text, art: pipeline.differential_check_text(text, fuel=FUEL),
}


def calls(op, text: str, art) -> int:
    """The Python function calls that `op(text, art)` makes."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profile)
    try:
        op(text, art)
    finally:
        sys.setprofile(None)
    return count - 1  # the lambda's own call


def main() -> int:
    programs = [
        (text, pipeline.compile_text(text, "noeff"))
        for _, text in program_texts(sorted((ROOT / "tests" / "corpus").glob("*.eff")))
    ]
    for op in OPERATIONS.values():
        for text, art in programs:
            op(text, art)
    counts = {name: sum(calls(op, text, art) for text, art in programs) for name, op in OPERATIONS.items()}
    print(f"{len(programs)} programs")
    for name, n in counts.items():
        print(f"{name:12} {n:>12,} calls  {n / len(programs):>10,.1f} per program")
    compile_op = OPERATIONS["compile"]
    print("compile per benchmark workload, seed 1:")
    for workload in bench.WORKLOADS:
        texts = [p.text for p in bench.build_inputs(workload, 1)[0]]
        for text in texts:
            compile_op(text, None)
        n = counts[f"compile/{workload}"] = sum(calls(compile_op, text, None) for text in texts)
        print(f"  {workload:16} {n:>10,} calls  {len(texts):>4} programs")
    print(json.dumps(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
