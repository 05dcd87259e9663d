"""Summaries of free term variables: `pipeline.compile_text` records on every
term node of its three terms the node's free term variables, and term
substitution skips each node whose summary lacks the variable."""

import subprocess
import sys

import pytest

from effc import exeff, noeff, pipeline, skeleff, traverse
from effc.core import StuckTerm, TermVar
from conftest import CORPUS, subprocess_env
from gen_helpers import program_texts
from test_solver import handler_chain

# Per backend: the artefact field holding its term, its reduction, and its
# `do` class, which binds `var` over `second`.
BACKENDS = {
    "exeff": ("exeff_term", exeff.REDUCTION, exeff.CDo),
    "skeleff": ("skeleff_term", skeleff.REDUCTION, exeff.CDo),
    "noeff": ("noeff_term", noeff.REDUCTION, exeff.CDo),
}


def nodes(*roots):
    """Every node of term syntax in or under `roots`, each distinct one once."""
    seen, todo = set(), list(roots)
    while todo:
        u = todo.pop()
        if id(u) in seen:
            continue
        seen.add(id(u))
        if type(u) is tuple:
            todo.extend(u)
        else:
            yield u
            todo.extend(getattr(u, f.name) for f in traverse.shape(type(u)).terms)


def summary(u):
    return getattr(u, traverse.FREE, None)


def free_term_bits(u) -> int:
    """The free term variables of `u`, found by a walk, as a summary's bit set."""
    return sum(1 << v.id for v in traverse.free_vars(u, TermVar))


def strip(t) -> None:
    for u in nodes(t):
        u.__dict__.pop(traverse.FREE, None)


def outcome(reduction, t):
    """The whole reduction sequence of `t`, or the stuck term it ends in."""
    try:
        return reduction.run(t, keep_trace=True)[2]
    except StuckTerm as e:
        return "stuck", e.term


@pytest.fixture(scope="module")
def compiled(corpus_paths):
    """(name, artefacts) of the corpus and 360 generated programs."""
    return [(name, pipeline.compile_text(text, "noeff")) for name, text in program_texts(corpus_paths, 360)]


def test_every_term_node_records_its_free_term_variables(compiled):
    checked = free = 0
    for name, art in compiled:
        for backend, (field, _, _) in BACKENDS.items():
            for u in nodes(getattr(art, field)):
                got = summary(u)
                assert got is not None and got == free_term_bits(u), (name, backend, u)
                checked += 1
                free += got != 0
    assert checked > 12_000 and free > checked // 3


def test_the_exeff_stage_records_summaries():
    # `run --backend exeff` compiles only up to ExEff.
    art = pipeline.compile_path(str(CORPUS / "p11_handle_tick_resume.eff"), "exeff")
    assert art.skeleff_term is None
    assert all(summary(u) == free_term_bits(u) for u in nodes(art.exeff_term))


def test_summaries_are_never_stale_during_evaluation(compiled):
    # Every node of every term of every trace either keeps the summary it
    # was compiled with, which still matches it, or was built by evaluation
    # and has none.
    rebuilt = 0
    for name, art in compiled:
        for backend, (field, reduction, _) in BACKENDS.items():
            term = getattr(art, field)
            compiled_nodes = {id(u) for u in nodes(term)}
            trace = reduction.run(term, keep_trace=True)[2]
            for u in nodes(*trace):
                if id(u) in compiled_nodes:
                    assert summary(u) == free_term_bits(u), (name, backend, u)
                else:
                    assert summary(u) is None, (name, backend, u)
                    rebuilt += 1
    assert rebuilt > 5_000


def test_a_rebuilt_node_carries_no_summary():
    art = pipeline.compile_text(handler_chain(4), "noeff")
    for field, _, _ in BACKENDS.values():
        t = getattr(art, field)
        assert summary(t) == 0
        name = traverse.shape(type(t)).terms[-1].name
        kid = getattr(t, name)
        copy = traverse.replace_field(t, name, kid)
        assert copy == t and summary(copy) is None
        assert summary(t) == 0 and summary(kid) is not None
        plugged = traverse._plug((None, t, name, None), kid)
        assert plugged == t and summary(plugged) is None


def test_evaluation_takes_the_same_steps_without_summaries(compiled):
    for name, art in compiled:
        for backend, (field, reduction, _) in BACKENDS.items():
            term = getattr(art, field)
            with_summaries = outcome(reduction, term)
            strip(term)
            try:
                assert summary(term) is None
                assert outcome(reduction, term) == with_summaries, (name, backend)
            finally:
                traverse.summarize(term)


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_a_summary_that_misses_a_variable_changes_evaluation(backend):
    # Remove a `do`-bound variable from the summary of the `do`'s scope (a
    # skip of the whole subject) or of the occurrence under it (a skip of
    # one child): evaluation must then visibly differ, so the tests above
    # watch the skips.
    field, reduction, do = BACKENDS[backend]
    term = getattr(pipeline.compile_text(handler_chain(4), "noeff"), field)
    want = outcome(reduction, term)
    broken = 0
    for u in list(nodes(term)):
        if type(u) is not do or not summary(u.second) >> u.var.id & 1:
            continue
        bit = 1 << u.var.id
        occurrence = next(w for w in nodes(u.second) if summary(w) == bit and not traverse.shape(type(w)).kids)
        for w in (u.second, occurrence):
            kept = summary(w)
            object.__setattr__(w, traverse.FREE, kept ^ bit)
            try:
                assert outcome(reduction, term) != want, (backend, u, w)
            finally:
                object.__setattr__(w, traverse.FREE, kept)
            broken += 1
    assert broken >= 4
    assert outcome(reduction, term) == want


def test_the_summary_pass_is_no_recursion_cliff(tmp_path):
    # `effc check` accepted `do` chains up to 490 before summaries; from 491
    # on, the reflexive-cast pass, which takes more frames per tree level,
    # runs out of stack.  The summary pass takes one frame per level.
    path = tmp_path / "chain.eff"
    path.write_text(handler_chain(490))
    cmd = [sys.executable, "-m", "effc.cli", "check", str(path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0 and proc.stdout.strip().endswith("ok"), proc.stderr
