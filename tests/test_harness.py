"""The differential harness catches wrong steps: each test makes the ExEff
step relation take one deliberately wrong step and checks that the named
metatheory failure fires."""

import pytest

from effc import cli, exeff, pipeline
from effc.core import EMPTY_DIRT, T_INT, T_UNIT, Base, Context, TBase
from effc.traverse import CLOSED, alpha_eq, contractions, replace_field, subst_term, summarize
from conftest import CORPUS

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


def mutate_first(monkeypatch, mutation):
    """Make the first step whose result `mutation` can rewrite (in one node,
    the first in pre-order) take that rewritten result instead; returns a
    flag that records whether a step was mutated."""
    mutated = []

    def step(term):
        nxt = STEP(term)
        if nxt is None or mutated:
            return nxt
        wrong = next(contractions(nxt, mutation), None)
        if wrong is None:
            return nxt
        mutated.append(True)
        return wrong

    monkeypatch.setattr(exeff, "step_comp", step)
    return mutated


def check_mutated(monkeypatch, path, mutation, check_each_step=True):
    """(whether a step was mutated, the harness's failure or None)."""
    with monkeypatch.context() as m:
        mutated = mutate_first(m, mutation)
        text = path.read_text()
        report = pipeline.differential_check_text(text, path.name, check_each_step=check_each_step)
    return bool(mutated), report.failure


@pytest.mark.parametrize(
    "mutation, visible", [(bump_literal, 7), (drop_operation, 9)], ids=["bump_literal", "drop_operation"]
)
def test_every_visible_wrong_step_is_caught_at_the_step(monkeypatch, corpus_paths, mutation, visible):
    # A wrong step is visible when, unchecked, it changes the core backend's
    # observation; the per-step congruence check must catch every such step.
    # A mutated literal or operation in dead code may pass unnoticed.
    caught = 0
    for path in corpus_paths:
        mutated, unchecked = check_mutated(monkeypatch, path, mutation, check_each_step=False)
        if not mutated:
            continue
        _, failure = check_mutated(monkeypatch, path, mutation)
        if unchecked is not None:
            assert unchecked.startswith("backends disagree"), (path.name, unchecked)
            assert failure == "metatheory: erasure of a step is not congruent", (path.name, failure)
            caught += 1
        else:
            assert failure in (None, "metatheory: erasure of a step is not congruent"), (path.name, failure)
    assert caught >= visible


def test_wrongly_typed_step_is_a_metatheory_failure(monkeypatch, corpus_paths):
    stepping = 0
    for path in corpus_paths:
        mutated, failure = check_mutated(monkeypatch, path, miscast)
        if mutated:
            assert failure == "metatheory: a step changed the subject's type", path.name
            stepping += 1
    assert stepping >= 34


@pytest.mark.parametrize(
    "mutation, floor", [(swap_kept_argument, 21), (misannotate_kept_node, 20)], ids=["swap", "misannotate"]
)
def test_a_wrong_step_around_kept_types_is_caught(monkeypatch, corpus_paths, mutation, floor):
    # Nodes that keep their type from the check of an earlier step: a
    # rebuilt parent is checked again and reads its children's kept types,
    # and a copied node keeps nothing, so the type check still fires.
    mutated_steps = 0
    for path in corpus_paths:
        mutated, failure = check_mutated(monkeypatch, path, mutation)
        if mutated:
            assert failure == "metatheory: a step changed the subject's type", path.name
            mutated_steps += 1
    assert mutated_steps >= floor


def test_cli_diff_exits_3_on_a_wrongly_typed_step(monkeypatch, capsys):
    mutate_first(monkeypatch, miscast)
    assert cli.main(["diff", str(CORPUS / "p03_id_app.eff")]) == 3
    captured = capsys.readouterr()
    assert "FAIL: metatheory: a step changed the subject's type" in captured.out
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
    report = pipeline.differential_check(str(CORPUS / "p09_do_tick_tock.eff"))
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
    report = pipeline.differential_check(str(CORPUS / "p09_do_tick_tock.eff"))
    assert report.agreement and report.steps["exeff"] == 2
    assert len(made) == 1
