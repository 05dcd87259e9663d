"""Casts that witness A ≤ A.  Inference's substitution drops each cast
whose coercion becomes one that `exeff.is_refl` accepts, which keeps the
type, the erasure and the behaviour of the elaborated term, and leaves no
cast whose derived constraint has alpha-equal sides.  No later elaboration
and no step builds one that `is_refl` accepts, and what `is_refl` accepts
witnesses A ≤ A."""

from collections import Counter

import pytest

from effc import display, exeff, infer, noeff, pipeline, skeleff, source, traverse
from effc.core import (
    Base,
    CompType,
    Context,
    CoVar,
    DirtSub,
    DirtVar,
    EMPTY_DIRT,
    TBase,
    TyVar,
    TySub,
    TypecheckError,
    dirt,
    dirt_add,
)
from effc.traverse import alpha_eq, free_vars, shape
from conftest import CORPUS
from gen_helpers import make_signature, program_texts
from test_noeff import noeff_trace_preserves

CASTS = (exeff.ECast, exeff.CCast)


def elaborate_every_cast(text: str):
    """(signature, elaborated term) of `text` with every cast that
    elaboration puts in, reflexive ones included: inferred with the
    substitution's cast test switched off."""
    sig, comp = source.parse_program(text)
    source.check_signature(sig)
    try:
        for cls in CASTS:
            traverse.cast_hook(cls, lambda co: False)
        _, term, _ = infer.infer_and_default(sig, comp)
    finally:
        for cls in CASTS:
            traverse.cast_hook(cls, exeff.is_refl)
    return sig, term


def casts(t):
    """Every cast node in or under the term `t`, in pre-order."""
    todo = [t]
    while todo:
        u = todo.pop()
        if type(u) is tuple:
            todo.extend(reversed(u))
            continue
        if type(u) in CASTS:
            yield u
        todo.extend(reversed([getattr(u, f.name) for f in shape(type(u)).terms]))


def is_reflexive(derived, cast) -> bool:
    ct = derived.of(cast.co)
    return alpha_eq(ct.lhs, ct.rhs)


@pytest.fixture(scope="module")
def compiled(corpus_paths):
    """(name, the term with every cast and its derivation, the compiled
    ExEff term and its derivation) of the corpus and 960 generated
    programs."""
    out = []
    for name, text in program_texts(corpus_paths, 960):
        sig, every = elaborate_every_cast(text)
        term = pipeline.compile_text(text, "exeff").exeff_term
        out.append((name, every, exeff.derive(Context(sig), every), term, exeff.derive(Context(sig), term)))
    return out


def test_no_compiled_cast_witnesses_alpha_equal_sides(compiled):
    before = after = 0
    for name, every, every_derived, term, derived in compiled:
        assert not any(is_reflexive(derived, c) for c in casts(term)), name
        # Substitution drops exactly the casts that witness alpha-equal
        # sides, and keeps every other cast with its coercion.
        old = list(casts(every))
        kept = [c.co for c in old if not is_reflexive(every_derived, c)]
        assert [c.co for c in casts(term)] == kept, name
        before += len(old)
        after += len(kept)
    assert after < before / 2


def test_the_erasure_is_unchanged(compiled):
    # Coercions have no computational content: erasure forgets casts.
    for name, every, _, term, _ in compiled:
        assert skeleff.erase_comp({}, term) == skeleff.erase_comp({}, every), name


def test_the_observations_are_unchanged(compiled):
    for name, every, _, term, _ in compiled:
        want, got = exeff.eval_comp(every), exeff.eval_comp(term)
        assert pipeline.observe_exeff(got.result) == pipeline.observe_exeff(want.result), name
        assert got.steps <= want.steps, name


def test_compile_reads_the_simplified_term():
    # `dump --stage exeff`, the backends and the harness read `exeff_term`.
    art = pipeline.compile_text((CORPUS / "p11_handle_tick_resume.eff").read_text(), "exeff")
    derived = exeff.derive(Context(art.source_sig), art.exeff_term)
    assert not any(is_reflexive(derived, c) for c in casts(art.exeff_term))


def test_a_widening_cast_survives():
    # return unit ▷ w0 ▷ w1 ▷ w2 ▷ w3, solved with w2 the widening
    # Unit ! ∅ ≤ Unit ! {Tick} and the others reflexive: Unit ≤ Unit,
    # Unit ! ∅ ≤ Unit ! ∅ and Unit ! {Tick} ≤ Unit ! {Tick}.
    sig = make_signature()
    unit = exeff.CoBaseRefl(Base.UNIT)
    widen = exeff.CoComp(unit, exeff.CoEmpty(dirt(["Tick"])))
    w0, w1, w2, w3 = (exeff.CoVarRef(CoVar(i)) for i in range(4))
    term = exeff.CCast(exeff.CCast(exeff.CCast(exeff.CReturn(exeff.ECast(exeff.EUnit(), w0)), w1), w2), w3)
    solution = exeff.Subst(co={
        0: unit,
        1: exeff.CoComp(unit, exeff.CoEmpty(EMPTY_DIRT)),
        2: widen,
        3: exeff.CoComp(unit, exeff.CoOpUnion("Tick", exeff.CoEmpty(dirt(["Tick"])))),
    })
    out = exeff.substitute(solution, term)
    assert out == exeff.CCast(exeff.CReturn(exeff.EUnit()), widen)
    assert exeff.derive(Context(sig), out).of(out) == CompType(TBase(Base.UNIT), dirt(["Tick"]))


DELTA = DirtVar(0)
W = CoVar(0)

# Dirt coercions, and whether the two dirts each relates are equal.
DIRT_COERCIONS = {
    "empty-of-empty": (exeff.CoEmpty(EMPTY_DIRT), True),
    "op-over-empty-of-op": (exeff.CoOpUnion("Tick", exeff.CoEmpty(dirt(["Tick"]))), True),
    "chain-over-refl": (
        exeff.CoOpUnion("Tock", exeff.CoOpUnion("Tick", exeff.CoDirtRefl(dirt(["Tick"], DELTA)))),
        True,
    ),
    "empty-of-variable": (exeff.CoEmpty(dirt((), DELTA)), False),
    "empty-of-op": (exeff.CoEmpty(dirt(["Tick"])), False),
    "op-over-empty-of-other-op": (exeff.CoOpUnion("Tick", exeff.CoEmpty(dirt(["Tock"]))), False),
    "chain-over-variable": (exeff.CoOpUnion("Tick", exeff.CoOpUnion("Tock", exeff.CoVarRef(W))), False),
}


@pytest.mark.parametrize("name", DIRT_COERCIONS)
def test_a_dirt_coercion_is_reflexive_when_its_dirts_are_equal(name):
    co, reflexive = DIRT_COERCIONS[name]
    assert exeff.is_refl(co) is reflexive
    # The checker derives the two dirts; the variable widens ∅ to {Get}.
    env = Context(make_signature()).bind(DELTA).bind(W, DirtSub(EMPTY_DIRT, dirt(["Get"])))
    ct = exeff.typecheck_coercion(env, co)
    assert alpha_eq(ct.lhs, ct.rhs) is reflexive
    # So is a congruence over it, and a cast by one is dropped.
    comp = exeff.CoComp(exeff.CoBaseRefl(Base.UNIT), co)
    assert exeff.is_refl(comp) is reflexive
    subject = exeff.CReturn(exeff.EUnit())
    assert (exeff.cast_comp(subject, comp) is subject) is reflexive


OTHER_BASE = {Base.UNIT: Base.INT, Base.INT: Base.UNIT}


def widening(sig, co):
    """A widening of the right side in place of the solution of Δ ≤ Δ."""
    cls = type(co)
    if cls is exeff.CoDirtRefl or cls is exeff.CoEmpty and co.dirt.is_empty():
        return exeff.CoEmpty(dirt_add(sig.names()[:1], co.dirt))
    return None


def other_base(sig, co):
    """The reflexivity of the other base type in place of a base type's."""
    if type(co) is exeff.CoBaseRefl:
        return exeff.CoBaseRefl(OTHER_BASE[co.base])
    return None


def dumps(art) -> list:
    return [display.show(t) for t in (art.exeff_term, art.skeleff_term, art.noeff_term)]


@pytest.mark.parametrize(
    "wrong, floor", [(widening, 23), (other_base, 5)], ids=["widening", "other-base"]
)
def test_a_wrong_coercion_solution_is_rejected(monkeypatch, corpus_paths, wrong, floor):
    # Inference made wrong: the first coercion solution of each corpus
    # program that `wrong` rewrites is recorded rewritten.  Compilation must
    # reject the program, unless the cast carrying the wrong coercion is
    # dropped as reflexive and the program compiles to what the right
    # solution gives.  Every widening is rejected (23 of 23 programs).  A
    # reflexivity at another base type goes unchecked with its cast when
    # the rest of the coercion is reflexive too, so 5 of 35 are rejected.
    record, mutated = infer.Session.record, []

    def wrong_once(session, w, co):
        bad = None if mutated else wrong(session.sig, co)
        if bad is not None:
            mutated.append(w)
        record(session, w, bad or co)

    rejected = unchanged = 0
    for path in corpus_paths:
        text = path.read_text()
        mutated.clear()
        with monkeypatch.context() as m:
            m.setattr(infer.Session, "record", wrong_once)
            try:
                art = pipeline.compile_text(text)
            except TypecheckError:
                rejected += 1
                continue
        if mutated:
            assert dumps(art) == dumps(pipeline.compile_text(text)), path.name
            unchanged += 1
    assert rejected >= floor
    assert rejected + unchanged == (23 if wrong is widening else 35)


# -- no elaboration and no step builds a reflexive cast ---------------------------


def every_node(*roots):
    """Every node in or under `roots`, terms, types and coercions alike, each
    distinct one once."""
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
            todo.extend(getattr(u, f.name) for f in shape(type(u)).kids)


@pytest.fixture(scope="module")
def traced(corpus_paths):
    """(program, signature, coercion checker, every term of the trace) of the
    ExEff and the NoEff backend, for the corpus and 200 generated programs."""
    out = []
    for name, text in program_texts(corpus_paths):
        art = pipeline.compile_text(text, "noeff")
        for term, reduction, check in (
            (art.exeff_term, exeff.REDUCTION, exeff.typecheck_coercion),
            (art.noeff_term, noeff.REDUCTION, noeff.typecheck_noeff_coercion),
        ):
            out.append((name, art.source_sig, check, reduction.run(term, keep_trace=True)[2]))
    return out


def test_no_compiled_or_stepped_term_holds_a_reflexive_cast(traced):
    seen = 0
    for name, _, check, trace in traced:
        for u in every_node(*trace):
            if type(u) in CASTS:
                assert not exeff.is_refl(u.co), (name, check.__name__)
                seen += 1
    assert seen > 1_000


def test_what_is_refl_accepts_witnesses_alpha_equal_sides(traced):
    # Soundness: every coercion of a compiled or stepped term that `is_refl`
    # accepts derives A ≤ A, in a context that binds its free variables.
    accepted = 0
    for name, sig, check, trace in traced:
        for u in every_node(*trace):
            if exeff.is_refl(u):
                env = Context(sig)
                for sort in (TyVar, DirtVar):
                    for v in free_vars(u, sort):
                        env = env.bind(v)
                ct = check(env, u)
                assert alpha_eq(ct.lhs, ct.rhs), (name, check.__name__, u)
                accepted += 1
    assert accepted > 1_000


WIDENINGS = {
    # Unit ! ∅ ≤ Unit ! {Tick}, and its NoEff image Unit ≤ Comp Unit.
    "exeff": exeff.CoComp(exeff.CoBaseRefl(Base.UNIT), exeff.CoEmpty(dirt(["Tick"]))),
    "noeff": noeff.NCoReturn(exeff.CoBaseRefl(Base.UNIT)),
}


def first_rejection(text: str):
    """The first check that rejects `text`: compilation, the harness or type
    preservation along the NoEff trace; None when every check passes."""
    try:
        pipeline.compile_text(text)
    except TypecheckError:
        return "compile"
    if not pipeline.differential_check_text(text).agreement:
        return "harness"
    try:
        noeff_trace_preserves(text)
    except (TypecheckError, AssertionError):
        return "noeff preservation"
    return None


def built(text: str) -> list:
    """Every term of the ExEff and the NoEff trace of `text`."""
    art = pipeline.compile_text(text)
    return [
        exeff.REDUCTION.run(art.exeff_term, keep_trace=True)[2],
        noeff.REDUCTION.run(art.noeff_term, keep_trace=True)[2],
    ]


@pytest.mark.parametrize("calculus", WIDENINGS)
def test_an_is_refl_that_accepts_a_widening_is_rejected(monkeypatch, corpus_paths, calculus):
    # The test made careless: one widening coercion, and every congruence
    # over it, looks reflexive to it.  Each program whose compiled term or
    # traces that changes must be rejected.
    widening = WIDENINGS[calculus]
    is_refl = exeff.is_refl
    want = {path.name: built(path.read_text()) for path in corpus_paths}

    def careless(co):
        return co == widening or is_refl(co)

    monkeypatch.setattr(exeff, "is_refl", careless)
    rejected = Counter()
    try:
        for cls in CASTS:
            traverse.cast_hook(cls, careless)
        for path in corpus_paths:
            verdict = first_rejection(path.read_text())
            if verdict is None:
                assert built(path.read_text()) == want[path.name], path.name
            else:
                rejected[verdict] += 1
    finally:
        for cls in CASTS:
            traverse.cast_hook(cls, is_refl)
    # Compilation rejects 17 corpus programs for the ExEff widening; for the
    # NoEff one, compilation rejects 22 and the harness 3.
    assert sum(rejected.values()) >= 15, rejected


def test_is_refl_rejects_every_other_form_and_every_congruence_over_one():
    unit = exeff.CoBaseRefl(Base.UNIT)
    pure = exeff.CoDirtRefl(EMPTY_DIRT)
    comp = exeff.CoComp(unit, pure)
    w = exeff.CoVarRef(CoVar(0))
    others = (
        w,
        exeff.CoEmpty(dirt(["Tick"])),
        exeff.CoOpUnion("Tick", w),
        noeff.NCoReturn(unit),
        noeff.NCoUnsafe(unit),
        noeff.NCoHandToFun(unit, noeff.NCoComp(unit)),
        noeff.NCoFunToHand(unit, noeff.NCoComp(unit)),
    )
    for co in others:
        assert not exeff.is_refl(co), co
    # Each congruence with a reflexive coercion in every slot but one.
    congruences = (
        (lambda c: exeff.CoArrow(c, comp), unit),
        (lambda c: exeff.CoArrow(unit, c), comp),
        (lambda c: exeff.CoHandler(c, comp), comp),
        (lambda c: exeff.CoHandler(comp, c), comp),
        (lambda c: exeff.CoComp(c, pure), unit),
        (lambda c: exeff.CoComp(unit, c), pure),
        (noeff.NCoComp, unit),
        (lambda c: noeff.NCoQual(TySub(TBase(Base.UNIT), TBase(Base.UNIT)), c), unit),
    )
    for wrap, refl in congruences:
        assert exeff.is_refl(wrap(refl)) and not exeff.is_refl(wrap(w)), wrap(w)
