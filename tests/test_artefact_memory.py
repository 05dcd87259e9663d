"""What a compiled artefact keeps alive: its checked terms, and nothing of
the inference that produced them; and what an import of effc keeps alive
once effc is imported again: nothing."""

import gc
import subprocess
import sys
import textwrap
import types
import weakref

from conftest import CORPUS, subprocess_env
from effc import infer, pipeline

STAGES = ("exeff", "skeleff", "noeff")


def _reachable(root):
    """Every object reachable from `root` through `gc.get_referents`, without
    following classes, modules or functions, which every artefact shares."""
    seen = {id(root)}
    todo = [root]
    while todo:
        obj = todo.pop()
        yield obj
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, (type, types.ModuleType, types.FunctionType)):
                seen.add(id(ref))
                todo.append(ref)


def test_compile_frees_its_inference_record(monkeypatch):
    sessions = []

    class Recorded(infer.Session):
        def __init__(self, *args):
            super().__init__(*args)
            sessions.append(weakref.ref(self))

    monkeypatch.setattr(infer, "Session", Recorded)
    record = (infer.InferOutcome, infer.SubCt, infer.SkelAnn, infer.SkelEq)
    gc.disable()
    try:
        for path in sorted(CORPUS.glob("*.eff")):
            for stage in STAGES:
                sessions.clear()
                art = pipeline.compile_text(path.read_text(encoding="utf-8"), stage)
                assert len(sessions) == 1, (path.name, stage)
                assert sessions[0]() is None, (path.name, stage)
                kept = list(_reachable(art))
                assert any(obj is art.exeff_term for obj in kept)
                assert not [obj for obj in kept if isinstance(obj, record)], (path.name, stage)
    finally:
        gc.enable()


REIMPORT = """
    import gc, importlib, sys, weakref

    def fresh():
        for name in [m for m in sys.modules if m == "effc" or m.startswith("effc.")]:
            del sys.modules[name]
        return [importlib.import_module(f"effc.{m}") for m in ("core", "source", "exeff", "display", "readers", "pipeline")]

    core, source, exeff, display, readers, pipeline = fresh()
    text = open(sys.argv[1], encoding="utf-8").read()
    art = pipeline.compile_text(text)
    assert pipeline.differential_check_text(text).agreement
    readers.read_noeff_term(pipeline.dump_stage(art, "noeff"))
    refs = [weakref.ref(c) for c in (exeff.CoVarRef, source.SrcLet, core.TArrow)]
    del core, source, exeff, display, readers, pipeline, art
    fresh()
    gc.collect()
    print(sum(ref() is not None for ref in refs))
"""


def test_a_second_import_frees_the_first():
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(REIMPORT), str(CORPUS / "p06_running_f_id.eff")],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"
