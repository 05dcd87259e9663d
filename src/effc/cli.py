"""Command-line interface.

Exit codes: 0 success, 1 rejected input (unreadable file, lexical, parse or
type error, or a usage error such as an unknown stage or a --fuel that is
not a whole number), 2 runtime or fuel failure, 3 metatheory violation, 4
internal error or input too deep.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import display, infer, pipeline
from .core import EffError, FuelExhausted, StuckTerm
from .traverse import substitute


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise EffError(f"cannot read {path}: {e}") from None


def cmd_check(args) -> int:
    pipeline.compile_text(_read(args.file), stage="noeff")
    print(f"{args.file}: ok")
    return 0


def cmd_infer(args) -> int:
    outcome = pipeline.infer_text(_read(args.file))
    if args.defaulted:
        cty = substitute(infer.default_residual(outcome), outcome.cty)
    print(f"type: {display.show(display.canonicalize(outcome.cty))}")
    for name, scheme in outcome.session.let_schemes:
        print(f"let {name} : {display.show(display.canonicalize(scheme))}")
    if args.defaulted:
        print(f"defaulted: {display.show(display.canonicalize(cty))}")
    return 0


def cmd_run(args) -> int:
    out = pipeline.run_text(_read(args.file), args.backend, args.fuel, keep_trace=args.trace)
    if args.trace:
        for i, step in enumerate(out.trace):
            print(f"[{i}] {display.show(display.canonicalize(step))}")
    print(f"{out.observation} ({out.steps} steps)")
    return 0


def cmd_dump(args) -> int:
    text = _read(args.file)
    if args.stage == "constraints":
        sys.stdout.write(pipeline.dump_constraints(pipeline.infer_text(text)))
    else:
        sys.stdout.write(pipeline.dump_stage(pipeline.compile_text(text, args.stage), args.stage))
    return 0


def cmd_diff(args) -> int:
    report = pipeline.differential_check_text(_read(args.file), args.file, args.fuel)
    for backend in sorted(report.observations):
        print(f"{backend}: {report.observations[backend]} ({report.steps[backend]} steps)")
    if not report.agreement:
        print(f"FAIL: {report.failure}")
        return 3
    print("agree")
    return 0


def cmd_corpus(args) -> int:
    files = sorted(Path(args.dir).glob("*.eff"))
    if not files:
        print(f"no .eff programs under {args.dir}", file=sys.stderr)
        return 1
    failures = 0
    for f in files:
        try:
            report = pipeline.differential_check_text(_read(str(f)), str(f), args.fuel)
        except EffError as e:
            print(f"{f.name}: error: {e}")
            failures += 1
            continue
        except Exception as e:
            print(f"{f.name}: {_internal(e)}")
            failures += 1
            continue
        if report.agreement:
            obs = report.observations["exeff"]
            print(f"{f.name}: ok ({obs})")
        else:
            print(f"{f.name}: FAIL: {report.failure}")
            failures += 1
    return 3 if failures else 0


def _internal(e: Exception) -> str:
    if isinstance(e, RecursionError):
        return "internal error: input too deep (Python recursion limit reached)"
    return f"internal error: {type(e).__name__}: {e}"


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, rejected input, since 2
    is runtime or fuel failure; its subcommands' parsers are of this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fuel(text: str) -> int:
    """A --fuel value: a whole number of steps."""
    try:
        steps = int(text)
    except ValueError:
        steps = -1
    if steps < 0:
        raise argparse.ArgumentTypeError(f"expected a whole number of steps, found {text!r}")
    return steps


def build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(prog="effc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="parse, infer and typecheck through every backend")
    c.add_argument("file")
    c.set_defaults(fn=cmd_check)

    c = sub.add_parser("infer", help="print the inferred type and let-bound schemes")
    c.add_argument("file")
    c.add_argument("--defaulted", action="store_true", help="also print the defaulted ground type")
    c.set_defaults(fn=cmd_infer)

    c = sub.add_parser("run", help="evaluate on a chosen backend")
    c.add_argument("file")
    c.add_argument("--backend", choices=pipeline.BACKENDS, default="exeff")
    c.add_argument("--fuel", type=_fuel, default=100_000)
    c.add_argument("--trace", action="store_true")
    c.set_defaults(fn=cmd_run)

    c = sub.add_parser("dump", help="print a stage's intermediate representation")
    c.add_argument("file")
    c.add_argument("--stage", choices=("constraints", "exeff", "skeleff", "noeff"), required=True)
    c.set_defaults(fn=cmd_dump)

    c = sub.add_parser("diff", help="differential check across all backends")
    c.add_argument("file")
    c.add_argument("--fuel", type=_fuel, default=100_000)
    c.set_defaults(fn=cmd_diff)

    c = sub.add_parser("corpus", help="differential-check every .eff program in a directory")
    c.add_argument("dir")
    c.add_argument("--fuel", type=_fuel, default=100_000)
    c.set_defaults(fn=cmd_corpus)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FuelExhausted as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except StuckTerm as e:
        print(f"metatheory violation: {e}", file=sys.stderr)
        return 3
    except EffError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(_internal(e), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
