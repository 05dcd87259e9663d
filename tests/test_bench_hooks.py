"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps effc's
functions by name, from outside: every function it wraps or hooks must
exist, and every name its runner calls must still work."""

import importlib.util
import sys
import types
from pathlib import Path

from effc import core, exeff, infer, noeff, pipeline, skeleff, source

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _load_run():
    """perfbench/run.py as a module.  Its dataclasses look their module up
    in sys.modules while it loads, and it puts its own directory on sys.path."""
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run)
    finally:
        sys.path[:] = path
        del sys.modules[spec.name]
    return run


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_the_traced_run_wraps_functions_that_exist():
    run = _load_run()
    # The modules `run.Effc` would import afresh, as imported here.
    ns = types.SimpleNamespace(
        core=core, source=source, infer=infer, exeff=exeff, skeleff=skeleff, noeff=noeff, pipeline=pipeline
    )
    tracer = run.Tracer()
    try:
        run.install(tracer, ns)  # a missing attribute raises here
        installed = list(tracer._originals)
        assert installed
        for owner, attr, original in installed:
            assert _current(owner, attr) is not original, attr
        # One program through every operation, the harness included, with
        # the wrappers in place.
        run.warm_up(ns)
    finally:
        tracer.restore()
    for owner, attr, original in installed:
        assert _current(owner, attr) is original, attr
    for name in ("skeleff.erase", "skeleff.typecheck", "skeleff.eval", "skeleff.congruent", "exeff.typecheck"):
        assert tracer.calls[name] > 0, name
