"""Casts that witness A ≤ A.  Dropping them after elaboration keeps the
type, the erasure and the behaviour of the elaborated term, and its
derivation is carried over without another check.  No later elaboration
and no step builds one that `exeff.is_refl` accepts, and what `is_refl`
accepts witnesses A ≤ A."""

from collections import Counter

import pytest

from effc import exeff, infer, noeff, pipeline, skeleff, source, traverse
from effc.core import (
    Base,
    CompSub,
    CompType,
    Context,
    CoVar,
    DirtVar,
    EMPTY_DIRT,
    TBase,
    TermVar,
    TyVar,
    TySub,
    TypecheckError,
    dirt,
)
from effc.traverse import alpha_eq, free_vars, shape
from conftest import CORPUS
from gen_helpers import make_signature, program_texts
from test_noeff import noeff_trace_preserves

CASTS = (exeff.ECast, exeff.CCast)


def elaborate(text: str, drop=None):
    """(signature, elaborated term, its derivation, the term the pass
    returns), compiled the way `pipeline.compile_text` does."""
    sig, comp = source.parse_program(text)
    source.check_signature(sig)
    cty, term, _ = infer.infer_and_default(sig, comp)
    derived = exeff.derive(Context(sig), term)
    assert alpha_eq(derived.of(term), cty)
    return sig, term, derived, (drop or exeff.drop_reflexive_casts)(derived, term)


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


def structurally_reflexive(co) -> bool:
    """Whether `co` is built from reflexivity alone: reflexivity leaves, the
    empty dirt's `CoEmpty`, and op-union chains that end in a reflexive
    coercion or in the `CoEmpty` of a closed dirt holding only the chain's
    operations.  A cross-check of the pass, which reads the constraint from
    the derivation instead."""
    cls = type(co)
    if cls in (exeff.CoBaseRefl, exeff.CoTyRefl, exeff.CoDirtRefl):
        return True
    if cls is exeff.CoOpUnion:
        ops = set()
        while type(co) is exeff.CoOpUnion:
            ops.add(co.op)
            co = co.rest
        if type(co) is exeff.CoEmpty:
            return co.dirt.tail is None and co.dirt.ops <= ops
        return structurally_reflexive(co)
    if cls is exeff.CoEmpty:
        return co.dirt.is_empty()
    if cls is exeff.CoVarRef:
        return False
    kids = [f.name for f in shape(cls).kids if f.name not in ("constraint", "skel")]
    return all(structurally_reflexive(getattr(co, name)) for name in kids)


def assert_derivation_carried(sig, derived, out) -> int:
    """Check `out` afresh and compare with what the pass carried over, at
    every node; returns the number of nodes compared."""
    fresh = exeff.derive(Context(sig), out)
    for key, t in fresh.items():
        assert alpha_eq(derived[key], t)
    return len(fresh)


@pytest.fixture(scope="module")
def simplified(corpus_paths):
    """(name, signature, elaborated term, derivation, simplified term) of the
    corpus and 960 generated programs."""
    return [(name, *elaborate(text)) for name, text in program_texts(corpus_paths, 960)]


def test_the_pass_drops_exactly_the_reflexive_casts(simplified):
    before = after = 0
    for name, sig, term, derived, out in simplified:
        old, new = list(casts(term)), list(casts(out))
        before += len(old)
        after += len(new)
        # A surviving cast is one of the elaborated term's, with its coercion.
        kept = [c.co for c in old if not is_reflexive(derived, c)]
        assert [c.co for c in new] == kept, name
        for c in old:
            assert structurally_reflexive(c.co) == is_reflexive(derived, c), name
    assert after < before / 2


def test_the_erasure_is_unchanged(simplified):
    # Coercions have no computational content: erasure forgets casts.
    for name, _, term, _, out in simplified:
        assert skeleff.erase_comp({}, out) == skeleff.erase_comp({}, term), name


def test_the_carried_types_are_what_a_fresh_check_derives(simplified):
    compared = 0
    for name, sig, _, derived, out in simplified:
        compared += assert_derivation_carried(sig, derived, out)
    assert compared > 20_000


def test_the_observations_are_unchanged(simplified):
    for name, _, term, _, out in simplified:
        want, got = exeff.eval_comp(term), exeff.eval_comp(out)
        assert pipeline.observe_exeff(got.result) == pipeline.observe_exeff(want.result), name
        assert got.steps <= want.steps, name


def test_compile_reads_the_simplified_term():
    # `dump --stage exeff`, the backends and the harness read `exeff_term`.
    art = pipeline.compile_text((CORPUS / "p11_handle_tick_resume.eff").read_text(), "exeff")
    derived = exeff.derive(Context(art.source_sig), art.exeff_term)
    assert not any(is_reflexive(derived, c) for c in casts(art.exeff_term))


def test_a_widening_cast_survives():
    # return unit ▷ (Unit ! ∅ ≤ Unit ! {Tick}), under reflexive casts.
    sig = make_signature()
    unit = exeff.CoBaseRefl(Base.UNIT)
    widen = exeff.CoComp(unit, exeff.CoEmpty(dirt(["Tick"])))
    ticks = CompType(TBase(Base.UNIT), dirt(["Tick"]))
    term = exeff.CCast(exeff.CCast(exeff.CReturn(exeff.ECast(exeff.EUnit(), unit)), widen), exeff.refl_of(ticks))
    derived = exeff.derive(Context(sig), term)
    assert derived.of(widen) == CompSub(CompType(TBase(Base.UNIT), EMPTY_DIRT), ticks)
    out = exeff.drop_reflexive_casts(derived, term)
    assert out == exeff.CCast(exeff.CReturn(exeff.EUnit()), widen)
    assert derived.of(out) == derived.of(term)
    assert_derivation_carried(sig, derived, out)


def test_a_shared_node_keeps_all_its_entries_when_rebuilt():
    # One `return (unit |> <Unit>)` node in both positions of a `do`: the
    # checker records it twice, and the node that replaces it takes over
    # both records.
    shared = exeff.CReturn(exeff.ECast(exeff.EUnit(), exeff.CoBaseRefl(Base.UNIT)))
    x = TermVar(0, "x")
    term = exeff.CDo(x, shared, shared)
    derived = exeff.derive(Context(make_signature()), term)
    assert derived.again[id(shared)]
    out = exeff.drop_reflexive_casts(derived, term)
    assert out == exeff.CDo(x, exeff.CReturn(exeff.EUnit()), exeff.CReturn(exeff.EUnit()))
    for rebuilt in (out.first, out.second):
        assert derived.again[id(rebuilt)] == derived.again[id(shared)]
        assert derived.of(rebuilt) == derived.of(shared)


def test_a_pass_that_drops_a_widening_cast_is_rejected(monkeypatch, corpus_paths):
    # The pass made careless: every cast looks reflexive to it.
    drop = exeff.drop_reflexive_casts

    def careless(derived, c):
        with monkeypatch.context() as m:
            m.setattr(exeff, "alpha_eq", lambda a, b: True)
            return drop(derived, c)

    widening = in_compile = 0
    for path in corpus_paths:
        text = path.read_text()
        sig, _, derived, out = elaborate(text)
        if not list(casts(out)):
            continue
        widening += 1
        with monkeypatch.context() as m:
            m.setattr(exeff, "drop_reflexive_casts", careless)
            try:
                pipeline.compile_text(text)
            except TypecheckError:
                in_compile += 1
                continue
        sig, _, derived, out = elaborate(text, careless)
        with pytest.raises((TypecheckError, AssertionError)):
            assert_derivation_carried(sig, derived, out)
    # 29 corpus programs keep a cast; compilation rejects 27 of them.
    assert widening >= 25 and in_compile >= 20


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
        exeff.CoEmpty(EMPTY_DIRT),
        exeff.CoOpUnion("Tick", exeff.CoDirtRefl(dirt(["Tick"]))),
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
