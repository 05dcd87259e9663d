"""The evaluation-context engine: golden step counts and traces, refocusing,
fuel and stuck terms, deep contexts, rule coverage."""

import contextlib
import hashlib
import io
import json
import sys

import pytest

from effc import cli, exeff, noeff, pipeline, skeleff, traverse
from effc.core import Base, FuelExhausted, StuckTerm, Supply, TBase, TermVar
from conftest import CORPUS, GOLDEN, read_digests, write_digests
from gen_helpers import program_texts
from test_solver import handler_chain, nested_handlers

# Per calculus: its reduction, and every class of its term syntax.
CALCULI = {
    "exeff": (
        exeff.REDUCTION,
        exeff.Value + exeff.Comp + (exeff.OpClause,),
    ),
    "skeleff": (skeleff.REDUCTION, skeleff.FORMS),
    "noeff": (noeff.REDUCTION, noeff.NTerm + (exeff.OpClause,)),
}

# Per backend: the artefact field holding the term it evaluates.
TERMS = {"exeff": "exeff_term", "skeleff": "skeleff_term", "noeff": "noeff_term"}


STEPS = GOLDEN / "steps.json"
TRACES = GOLDEN / "traces.sha256"


def corpus_step_counts(corpus_paths) -> dict:
    """{program: {backend: steps}} for each corpus program."""
    out = {}
    for path in corpus_paths:
        art = pipeline.compile_text(path.read_text(), "noeff")
        out[path.name] = {
            "exeff": exeff.eval_comp(art.exeff_term).steps,
            "noeff": noeff.eval_noeff(art.noeff_term)[1],
            "skeleff": skeleff.eval_sk(art.skeleff_term)[1],
        }
    return out


def test_corpus_step_counts_match_golden(corpus_paths):
    # Recorded before the three step relations moved onto the engine.
    assert corpus_step_counts(corpus_paths) == json.loads(STEPS.read_text())


def write_corpus_step_counts() -> None:
    """Rewrite the golden step counts in the file's own order and layout."""
    counts = corpus_step_counts(sorted(CORPUS.glob("*.eff")))
    order = [name for name in json.loads(STEPS.read_text()) if name in counts]
    order += sorted(set(counts) - set(order))
    STEPS.write_text(json.dumps({name: counts[name] for name in order}, indent=1) + "\n")


def corpus_trace_digests(corpus_paths) -> dict:
    """sha256 of `run --backend B --trace` per corpus program and backend."""
    out = {}
    for path in corpus_paths:
        for backend in pipeline.BACKENDS:
            with contextlib.redirect_stdout(io.StringIO()) as printed:
                assert cli.main(["run", str(path), "--backend", backend, "--trace"]) == 0
            out[path.name, backend] = hashlib.sha256(printed.getvalue().encode()).hexdigest()
    return out


def test_corpus_traces_match_golden(corpus_paths):
    # Recorded before evaluation was refocused: every term of every
    # reduction sequence, not only its length.
    assert corpus_trace_digests(corpus_paths) == read_digests(TRACES)


def write_corpus_trace_digests() -> None:
    write_digests(TRACES, corpus_trace_digests(sorted(CORPUS.glob("*.eff"))))


@pytest.fixture(scope="module")
def traces(corpus_paths):
    """(program, backend, reduction, the term, its trace) for the corpus and
    200 generated programs on every backend."""
    out = []
    for name, text in program_texts(corpus_paths):
        art = pipeline.compile_text(text, "noeff")
        for backend, (reduction, _) in CALCULI.items():
            term = getattr(art, TERMS[backend])
            out.append((name, backend, reduction, term, reduction.run(term, keep_trace=True)[2]))
    return out


def test_stepping_from_the_root_takes_the_refocused_sequence(traces):
    # `step` descends from the root each time; `run` resumes at each
    # contractum.  Both must take the same sequence of terms.
    for name, backend, reduction, term, trace in traces:
        seq = [term]
        while (nxt := reduction.step(seq[-1])) is not None:
            seq.append(nxt)
        assert seq == trace, (name, backend)


def _subterms(roots):
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


def test_results_never_step(traces):
    # Refocusing stops when no redex is left at the root, where stepping
    # stopped at the first result: the two agree because no result steps.
    # Checked on every term of every trace and on everything under it.
    checked = 0
    for name, backend, reduction, _, trace in traces:
        relations = (reduction, exeff.VALUE_REDUCTION) if backend == "exeff" else (reduction,)
        for u in _subterms(trace):
            for rel in relations:
                if rel.result(u):
                    checked += 1
                    assert rel.step(u) is None, (name, backend, u)
    assert checked > 1000


@pytest.mark.parametrize("name", list(CALCULI))
def test_fuel_bounds_the_number_of_steps(name):
    reduction, _ = CALCULI[name]
    art = pipeline.compile_text((CORPUS / "p14_handle_nested.eff").read_text(), "noeff")
    term = getattr(art, TERMS[name])
    k = reduction.run(term)[1]
    assert k > 1
    assert reduction.run(term, fuel=k)[1] == k
    with pytest.raises(FuelExhausted):
        reduction.run(term, fuel=k - 1)


def test_a_stuck_term_is_reported_whole():
    # After one step, an unsafe coercion over an operation call sits two
    # evaluation contexts deep: the error carries the whole term and the
    # stuck-term class.
    sup = Supply()
    x, y, z, w = (sup.term(v) for v in "xyzw")
    unit = TBase(Base.UNIT)
    op = exeff.COp("Tick", exeff.EUnit(), y, unit, noeff.MReturn(exeff.EVar(y)))
    stuck = exeff.ECast(op, noeff.NCoUnsafe(exeff.CoBaseRefl(Base.UNIT)))

    def program(inner):
        let = exeff.CLet(w, inner, noeff.MReturn(exeff.EVar(w)))
        return exeff.CDo(z, let, noeff.MReturn(exeff.EVar(z)))

    t = program(exeff.CApp(exeff.EAbs(x, unit, stuck), exeff.EUnit()))
    with pytest.raises(StuckTerm) as err:
        noeff.eval_noeff(t)
    assert err.value.term == program(stuck)
    assert str(err.value) == f"stuck term: {noeff.StuckClass.CONTEXT}"


def _eval_comp(c):
    out = exeff.eval_comp(c)
    return out.result, out.steps


# Per calculus: do, return, variable, unit, and its evaluator.
DEEP = {
    "exeff": (exeff.CDo, exeff.CReturn, exeff.EVar, exeff.EUnit(), _eval_comp),
    "skeleff": (exeff.CDo, exeff.CReturn, exeff.EVar, exeff.EUnit(), skeleff.eval_sk),
    "noeff": (exeff.CDo, noeff.MReturn, exeff.EVar, exeff.EUnit(), noeff.eval_noeff),
}


def _do_chain(name, depth):
    # do x <- (do x <- (... return unit ...) in return x) in return x
    do, ret, var, unit, _ = DEEP[name]
    sup = Supply()
    c = ret(unit)
    for _ in range(depth):
        x = sup.term("x")
        c = do(x, c, ret(var(x)))
    return c


def _calls(evaluate, c) -> int:
    """The Python and built-in function calls `evaluate(c)` makes: a count of
    its work that, unlike a time, does not depend on the machine's load."""
    calls = [0]

    def count(frame, event, arg):
        if event == "call" or event == "c_call":
            calls[0] += 1

    sys.setprofile(count)
    try:
        evaluate(c)
    finally:
        sys.setprofile(None)
    return calls[0]


@pytest.mark.parametrize(
    "name, depth",
    [pytest.param(name, 2000, id=name) for name in DEEP]
    + [pytest.param(name, 20_000, id=f"{name}-20000") for name in DEEP],
)
def test_contexts_deeper_than_the_recursion_limit(name, depth):
    _, ret, _, unit, evaluate = DEEP[name]
    assert depth > sys.getrecursionlimit()
    assert evaluate(_do_chain(name, depth)) == (ret(unit), depth)
    if depth == 20_000:
        # Each step resumes where the last one fired, so evaluation is
        # linear in the depth: about 4x the calls for 4x the depth, where a
        # step that re-descends from the root would make about 16x.
        assert _calls(evaluate, _do_chain(name, depth)) < 8 * _calls(evaluate, _do_chain(name, depth // 4))


@pytest.mark.parametrize("backend", list(CALCULI))
@pytest.mark.parametrize(
    "family, n", [(handler_chain, 12), (nested_handlers, 6)], ids=["handler_chain", "nested_handlers"]
)
def test_compiled_ladders_evaluate_in_about_linear_calls(family, n, backend):
    # Each `do` or resume step substitutes into the rest of the program, but
    # its variable occurs only near the redex: term substitution skips every
    # node whose free-variable summary lacks it.  A walk of the whole rest
    # makes about 10x the calls for 4x n; the skips, under 4x.
    reduction = CALCULI[backend][0]
    small, large = (getattr(pipeline.compile_text(family(k), "noeff"), TERMS[backend]) for k in (n, 4 * n))
    assert _calls(reduction.run, large) < 6 * _calls(reduction.run, small)


def test_the_call_count_sees_a_step_that_re_descends_from_the_root():
    # The bound above fails for an evaluator that is not refocused.
    def from_the_root(c):
        while (nxt := exeff.step_comp(c)) is not None:
            c = nxt

    assert _calls(from_the_root, _do_chain("exeff", 400)) > 8 * _calls(from_the_root, _do_chain("exeff", 100))


@pytest.mark.parametrize("name", list(CALCULI))
def test_every_term_class_has_a_rule_list(name):
    reduction, classes = CALCULI[name]
    assert set(reduction.rules) == set(classes)
    broken = []
    for cls, entries in reduction.rules.items():
        reduction._compile(cls)  # raises TypeError where refocusing would be inexact
        # Plugging copies a node's fields without calling its constructor.
        assert not hasattr(cls, "__post_init__"), cls.__name__
        fields = {f.name: f.role for f in traverse.shape(cls).fields}
        for e in entries:
            if not callable(e):
                field = e if isinstance(e, str) else e[0]
                assert fields.get(field) == traverse.TERM, (cls.__name__, field)
        # Lists refocusing cannot follow: a head rule before an evaluation
        # position, or a guard that reads a position after its own entry.
        heads = tuple(e for e in entries if callable(e))
        positions = tuple(e for e in entries if not callable(e))
        if heads and positions:
            broken.append((cls, heads + positions))
        for field, other, pred in (e for e in positions if not isinstance(e, str)):
            broken.append((cls, ((other, field, pred), field) + heads))
    assert broken
    for cls, entries in broken:
        bad = traverse.Reduction({**reduction.rules, cls: entries}, reduction.result, reduction.stuck)
        with pytest.raises(TypeError):
            bad._compile(cls)
    with pytest.raises(TypeError):
        reduction.step(TBase(Base.UNIT))


def test_a_child_that_cannot_step_resumes_its_parent():
    # `let y = x unit in unit`: the variable in function position cannot
    # step, so the application tries its next rules, none fires, and the
    # let's head rule needs a value: the term is stuck.
    sup = Supply()
    x, y = sup.term("x"), sup.term("y")
    stuck = exeff.CLet(y, exeff.CApp(exeff.EVar(x), exeff.EUnit()), exeff.EUnit())
    assert noeff.step_noeff(stuck) is None
    assert noeff.REDUCTION.positions(stuck) == [stuck.val]
    # With a value in the function position the argument is next.
    lam = exeff.EAbs(x, TBase(Base.UNIT), noeff.MReturn(exeff.EVar(x)))
    inner = exeff.CApp(lam, exeff.CApp(lam, exeff.EUnit()))
    assert noeff.REDUCTION.positions(inner) == [lam, inner.arg]
    assert noeff.step_noeff(exeff.CLet(y, inner, exeff.EUnit())) == exeff.CLet(
        y, exeff.CApp(lam, noeff.MReturn(exeff.EUnit())), exeff.EUnit()
    )


_X = TermVar(0, "x")
_UNIT = exeff.EUnit()
_T_UNIT = TBase(Base.UNIT)
_UNIT_REFL = exeff.CoBaseRefl(Base.UNIT)

# Per stuck redex: the relation that steps it and the term.  Each reaches
# the fall-through of its head rule: the rule's class fits, but its
# subterms are of no shape the rule has a contractum for.
STUCK_REDEXES = {
    "exeff-type-application": (exeff.VALUE_REDUCTION, exeff.ETyApp(_UNIT, _T_UNIT)),
    "exeff-application": (exeff.REDUCTION, exeff.CApp(_UNIT, _UNIT)),
    "exeff-handle-by-a-non-handler": (exeff.REDUCTION, exeff.CHandle(_UNIT, exeff.CReturn(_UNIT))),
    "noeff-application": (noeff.REDUCTION, exeff.CApp(_UNIT, _UNIT)),
    "noeff-type-application": (noeff.REDUCTION, exeff.ETyApp(_UNIT, _T_UNIT)),
    "noeff-coercion-application": (noeff.REDUCTION, exeff.ECoApp(_UNIT, _UNIT_REFL)),
    "noeff-handle-a-value": (
        noeff.REDUCTION,
        exeff.CHandle(exeff.EHandler(_X, _T_UNIT, noeff.MReturn(exeff.EVar(_X))), _UNIT),
    ),
    "noeff-handle-by-a-non-handler": (noeff.REDUCTION, exeff.CHandle(_UNIT, noeff.MReturn(_UNIT))),
    "noeff-computation-cast-of-a-value": (noeff.REDUCTION, exeff.ECast(_UNIT, noeff.NCoComp(_UNIT_REFL))),
    "noeff-unsafe-cast-of-a-value": (noeff.REDUCTION, exeff.ECast(_UNIT, noeff.NCoUnsafe(_UNIT_REFL))),
}


@pytest.mark.parametrize("name", list(STUCK_REDEXES))
def test_a_redex_of_no_rule_shape_takes_no_step(name):
    reduction, term = STUCK_REDEXES[name]
    assert reduction.step(term) is None
    with pytest.raises(StuckTerm):
        reduction.run(term)
