"""The evaluation-context engine: golden step counts, deep contexts, rule coverage."""

import json
import sys
import typing

import pytest

from effc import exeff, noeff, pipeline, skeleff, traverse
from effc.core import Base, Supply, TBase
from conftest import CORPUS, GOLDEN

# Per calculus: its reduction, and every class of its term syntax.
CALCULI = {
    "exeff": (
        exeff.REDUCTION,
        typing.get_args(exeff.Value) + typing.get_args(exeff.Comp) + (exeff.OpClause,),
    ),
    "skeleff": (
        skeleff.REDUCTION,
        typing.get_args(skeleff.SkValue) + typing.get_args(skeleff.SkComp) + (skeleff.SOpClause,),
    ),
    "noeff": (noeff.REDUCTION, typing.get_args(noeff.NTerm) + (noeff.MOpClause,)),
}


def test_corpus_step_counts_match_golden():
    # Recorded before the three step relations moved onto the engine.
    golden = json.loads((GOLDEN / "steps.json").read_text())
    assert sorted(golden) == sorted(p.name for p in CORPUS.glob("*.eff"))
    for name, want in sorted(golden.items()):
        art = pipeline.compile_text((CORPUS / name).read_text(), "noeff")
        got = {
            "exeff": exeff.eval_comp(art.exeff_term).steps,
            "skeleff": skeleff.eval_sk(art.skeleff_term)[1],
            "noeff": noeff.eval_noeff(art.noeff_term)[1],
        }
        assert got == want, name


def _eval_comp(c):
    out = exeff.eval_comp(c)
    return out.result, out.steps


# Per calculus: do, return, variable, unit, and its evaluator.
DEEP = {
    "exeff": (exeff.CDo, exeff.CReturn, exeff.EVar, exeff.EUnit(), _eval_comp),
    "skeleff": (skeleff.SDo, skeleff.SReturn, skeleff.SVar, skeleff.SUnit(), skeleff.eval_sk),
    "noeff": (noeff.MDo, noeff.MReturn, noeff.MVar, noeff.MUnit(), noeff.eval_noeff),
}


@pytest.mark.parametrize("name", list(DEEP))
def test_contexts_deeper_than_the_recursion_limit(name):
    # do x <- (do x <- (... return unit ...) in return x) in return x
    do, ret, var, unit, evaluate = DEEP[name]
    depth = 2000
    assert depth > sys.getrecursionlimit()
    sup = Supply()
    c = ret(unit)
    for _ in range(depth):
        x = sup.term("x")
        c = do(x, c, ret(var(x)))
    assert evaluate(c) == (ret(unit), depth)


@pytest.mark.parametrize("name", list(CALCULI))
def test_every_term_class_has_a_rule_list(name):
    reduction, classes = CALCULI[name]
    assert set(reduction.rules) == set(classes)
    for cls, entries in reduction.rules.items():
        # Plugging copies a node's fields without calling its constructor.
        assert not hasattr(cls, "__post_init__"), cls.__name__
        fields = {f.name: f.role for f in traverse.shape(cls).fields}
        for e in entries:
            if not callable(e):
                field = e if isinstance(e, str) else e[0]
                assert fields.get(field) == traverse.TERM, (cls.__name__, field)
    with pytest.raises(TypeError):
        reduction.step(TBase(Base.UNIT))


def test_a_child_that_cannot_step_resumes_its_parent():
    # `let y = x unit in unit`: the variable in function position cannot
    # step, so the application tries its next rules, none fires, and the
    # let's head rule needs a value: the term is stuck.
    sup = Supply()
    x, y = sup.term("x"), sup.term("y")
    stuck = noeff.MLet(y, noeff.MApp(noeff.MVar(x), noeff.MUnit()), noeff.MUnit())
    assert noeff.step_noeff(stuck) is None
    assert noeff.REDUCTION.positions(stuck) == [stuck.val]
    # With a value in the function position the argument is next.
    lam = noeff.MAbs(x, noeff.NBase(Base.UNIT), noeff.MReturn(noeff.MVar(x)))
    inner = noeff.MApp(lam, noeff.MApp(lam, noeff.MUnit()))
    assert noeff.REDUCTION.positions(inner) == [lam, inner.arg]
    assert noeff.step_noeff(noeff.MLet(y, inner, noeff.MUnit())) == noeff.MLet(
        y, noeff.MApp(lam, noeff.MReturn(noeff.MUnit())), noeff.MUnit()
    )
