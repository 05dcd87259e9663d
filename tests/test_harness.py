"""The differential harness catches wrong steps: each test makes the ExEff
step relation take one deliberately wrong step and checks that the named
metatheory failure fires."""

import itertools

import pytest

from effc import cli, exeff, pipeline, source
from effc.core import EMPTY_DIRT, T_INT, T_UNIT, Base, Context, TBase, TypecheckError
from effc.traverse import CLOSED, alpha_eq, contractions, replace_field, subst_term, summarize
from conftest import CORPUS
from gen_helpers import program_texts

STEP = exeff.step_comp


def bump_literal(node):
    return exeff.EInt(node.value + 1) if isinstance(node, exeff.EInt) else None


FILL = {Base.UNIT: exeff.EUnit(), Base.INT: exeff.EInt(0)}


def drop_operation(node):
    """An operation call replaced by its continuation, fed a dummy result."""
    if isinstance(node, exeff.COp) and isinstance(node.var_ty, TBase):
        return subst_term(FILL[node.var_ty.base], node.var, node.body)
    return None


# A cast at a function type: no corpus program computes a function.
UNIT_TO_UNIT = exeff.CoArrow(
    exeff.CoBaseRefl(Base.UNIT), exeff.CoComp(exeff.CoBaseRefl(Base.UNIT), exeff.CoEmpty(EMPTY_DIRT))
)
WRONG_CAST = exeff.CoComp(UNIT_TO_UNIT, exeff.CoEmpty(EMPTY_DIRT))


def miscast(node):
    return exeff.CCast(node, WRONG_CAST)


def kept_type(node):
    """The type a closed node keeps from an earlier check (see
    `traverse.Closed`), or None."""
    kept = getattr(node, CLOSED, None)
    return None if kept is None else kept.ty


def other_base(ty):
    return T_UNIT if alpha_eq(ty, T_INT) else T_INT


def swap_kept_argument(node):
    """An operation call or application whose argument keeps its type,
    rebuilt around a closed value of another base type that an earlier
    check has typed and that keeps its type too."""
    if type(node) not in (exeff.COp, exeff.CApp) or kept_type(node.arg) is None:
        return None
    other = exeff.EUnit() if other_base(kept_type(node.arg)) is T_UNIT else exeff.EInt(0)
    summarize(other)
    exeff.typecheck_value(Context(getattr(node.arg, CLOSED).sig), other)
    assert not alpha_eq(kept_type(other), kept_type(node.arg))
    return replace_field(node, "arg", other)


ANNOTATIONS = {exeff.COp: "var_ty", exeff.EAbs: "ty", exeff.EHandler: "ret_ty"}


def misannotate_kept_node(node):
    """A node that keeps its type, copied by `replace_field` with another
    base type in its annotation; the copy keeps nothing."""
    field = ANNOTATIONS.get(type(node))
    if field is None or kept_type(node) is None:
        return None
    wrong = replace_field(node, field, other_base(getattr(node, field)))
    assert getattr(wrong, CLOSED, None) is None
    return wrong


def mutate_first(monkeypatch, mutation, start=1, results=None):
    """Make the first step from step `start` on whose result `mutation` can
    rewrite (in one node, the first in pre-order) take that rewritten
    result instead; returns a list that records the index of the mutated
    step, counted from 1, and adds the term the step took and its right and
    wrong result to the list `results` when one is given."""
    index, mutated = itertools.count(1), []

    def step(term):
        nxt, k = STEP(term), next(index)
        if nxt is None or mutated or k < start:
            return nxt
        wrong = next(contractions(nxt, mutation), None)
        if wrong is None:
            return nxt
        mutated.append(k)
        if results is not None:
            results.extend((term, nxt, wrong))
        return wrong

    monkeypatch.setattr(exeff, "step_comp", step)
    return mutated


def fired(term, right) -> str:
    """"Class: rule" of the one head rule whose contraction of some node of
    `term` gives `right`, found by trying every head rule at every node."""
    found = {
        f"{cls.__name__}: {head.__name__}"
        for cls, entries in exeff.RULES.items()
        for head in entries
        if callable(head)
        for out in contractions(term, lambda node: head(node) if type(node) is cls else None)
        if out == right
    }
    assert len(found) == 1, found
    return found.pop()


def check_mutated(monkeypatch, name, text, mutation, check_each_step=True, results=None):
    """(the index of the mutated step or None, the harness's failure or
    None, the rule the mutated step's right result came from or None)."""
    results = [] if results is None else results
    with monkeypatch.context() as m:
        mutated = mutate_first(m, mutation, results=results)
        report = pipeline.differential_check_text(text, name, check_each_step=check_each_step)
    rule = fired(*results[:2]) if mutated else None
    return (mutated or [None])[0], report.failure, rule


@pytest.mark.parametrize(
    "mutation, visible", [(bump_literal, 7), (drop_operation, 9)], ids=["bump_literal", "drop_operation"]
)
def test_every_visible_wrong_step_is_caught_at_the_step(monkeypatch, corpus_paths, mutation, visible):
    # A wrong step is visible when, unchecked, it changes the core backend's
    # observation; the per-step congruence check must catch every such step.
    # A mutated literal or operation in dead code may pass unnoticed.
    caught = 0
    for path in corpus_paths:
        text = path.read_text()
        mutated, unchecked, _ = check_mutated(monkeypatch, path.name, text, mutation, check_each_step=False)
        if mutated is None:
            continue
        _, failure, rule = check_mutated(monkeypatch, path.name, text, mutation)
        at_the_step = f"metatheory: erasure of step {mutated} is not congruent ({rule})"
        if unchecked is not None:
            assert unchecked.startswith("backends disagree"), (path.name, unchecked)
            assert failure == at_the_step, (path.name, failure)
            caught += 1
        else:
            assert failure in (None, at_the_step), (path.name, failure)
    assert caught >= visible


def test_wrongly_typed_step_is_a_metatheory_failure(monkeypatch, corpus_paths):
    stepping = 0
    for path in corpus_paths:
        mutated, failure, rule = check_mutated(monkeypatch, path.name, path.read_text(), miscast)
        if mutated is not None:
            assert failure == f"metatheory: step {mutated} changed the subject's type ({rule})", path.name
            stepping += 1
    assert stepping >= 34


def fresh_type(sig, term):
    """The type of `term` checked afresh, with no kept type read, or None
    when it does not check."""
    try:
        return exeff.derive(Context(sig), term).of(term)
    except TypecheckError:
        return None


@pytest.mark.parametrize(
    "mutation, floor", [(swap_kept_argument, 21), (misannotate_kept_node, 20)], ids=["swap", "misannotate"]
)
def test_a_wrong_step_around_kept_types_is_caught(monkeypatch, corpus_paths, mutation, floor):
    # Nodes that keep their type from the check of an earlier step: a
    # rebuilt parent is checked again and reads its children's kept types,
    # and a copied node keeps nothing, so the type check still fires on
    # every wrong step that a fresh check finds changes the subject's type.
    # A rewritten node in dead code can leave that type as it was.
    mutated_steps = 0
    for name, text in program_texts(corpus_paths, 40):
        results = []
        mutated, failure, rule = check_mutated(monkeypatch, name, text, mutation, results=results)
        if mutated is None:
            continue
        sig = source.parse_program(text)[0]
        right, wrong = (fresh_type(sig, t) for t in results[1:])
        changed = f"metatheory: step {mutated} changed the subject's type ({rule})"
        if wrong is not None and alpha_eq(wrong, right):
            assert failure != changed, name
        else:
            assert failure == changed, name
            mutated_steps += 1
    assert mutated_steps >= floor


@pytest.mark.parametrize(
    "mutation, failure",
    [(bump_literal, "metatheory: erasure of step {} is not congruent ({})"), (miscast, "metatheory: step {} changed the subject's type ({})")],
    ids=["bump_literal", "miscast"],
)
@pytest.mark.parametrize("start", [1, 3, 5])
def test_a_wrong_step_reports_its_own_index(monkeypatch, mutation, failure, start):
    results = []
    with monkeypatch.context() as m:
        mutated = mutate_first(m, mutation, start, results)
        report = pipeline.differential_check_text((CORPUS / "p15_get_constant.eff").read_text())
    assert mutated == [start]
    assert report.failure == failure.format(start, fired(*results[:2]))


def test_cli_diff_exits_3_on_a_wrongly_typed_step(monkeypatch, capsys):
    mutate_first(monkeypatch, miscast)
    assert cli.main(["diff", str(CORPUS / "p03_id_app.eff")]) == 3
    captured = capsys.readouterr()
    assert "FAIL: metatheory: step 1 changed the subject's type (CApp: _app)\n" in captured.out
    assert captured.err == ""


def test_harness_typechecks_each_core_term_once(monkeypatch):
    # Compilation checks the initial term; the harness checks each step's.
    outer, depth = [0], [0]

    def counted(*args, _check=exeff.typecheck_comp):
        outer[0] += not depth[0]
        depth[0] += 1
        try:
            return _check(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(exeff, "typecheck_comp", counted)
    report = pipeline.differential_check_text((CORPUS / "p09_do_tick_tock.eff").read_text())
    assert report.agreement and report.steps["exeff"] == 2
    assert outer[0] == report.steps["exeff"] + 1


def test_harness_records_no_derivation_of_its_own(monkeypatch):
    # Compilation builds the one derivation NoEff elaboration reads; the
    # harness's per-step checks record nothing.
    made = []
    init = exeff.Derivation.__init__

    def counted(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(exeff.Derivation, "__init__", counted)
    report = pipeline.differential_check_text((CORPUS / "p09_do_tick_tock.eff").read_text())
    assert report.agreement and report.steps["exeff"] == 2
    assert len(made) == 1


def test_the_rule_of_a_step_is_found_again():
    # p03 applies a function first; a result takes no step and has no rule.
    art = pipeline.compile_text((CORPUS / "p03_id_app.eff").read_text(), "exeff")
    assert exeff.REDUCTION.rule(art.exeff_term) == fired(art.exeff_term, STEP(art.exeff_term)) == "CApp: _app"
    assert exeff.REDUCTION.rule(exeff.CReturn(exeff.EUnit())) is None
