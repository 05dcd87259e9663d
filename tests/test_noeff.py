"""Pure backend: elaboration, typing, semantics, stuck classification."""

import pytest

from effc import display, exeff, noeff, pipeline
from effc.core import (
    Base,
    CompType,
    Context,
    DirtSub,
    EMPTY_DIRT,
    Supply,
    TArrow,
    TBase,
    THandler,
    TQual,
    TySub,
    dirt,
    dirt_var,
)
from effc.traverse import alpha_eq
from gen_helpers import program_texts
from paper_examples import RunningExample, tick_tock_signature

T_UNIT = TBase(Base.UNIT)
N_UNIT = TBase(Base.UNIT)


def _env(sig=None):
    return Context(sig or tick_tock_signature())


def _nenv(sig=None):
    sig = sig or tick_tock_signature()
    return Context(sig.map(noeff.elab_vty))


def _derived(check, env, node):
    """The derivation the ExEff checker `check` records for `node`."""
    derived = exeff.Derivation(env.sig)
    check(env, node, derived)
    return derived


def _elab_co(env, co):
    """(the checked constraint of `co`, its NoEff coercion)."""
    derived = _derived(exeff.typecheck_coercion, env, co)
    return derived.of(co), noeff.elab_co(derived, co)


def _elab_value(env, v):
    return noeff.elab_value(_derived(exeff.typecheck_value, env, v), v)


# -- dirt emptiness and type elaboration ------------------------------------------


def test_nonempty_dirt():
    # NoEff reads a dirt variable as possibly non-empty.
    sup = Supply()
    assert EMPTY_DIRT.is_empty()
    assert not dirt_var(sup.dirt()).is_empty()
    assert not dirt(["Tick"], sup.dirt()).is_empty()
    assert not dirt(["Tick"]).is_empty()


def test_elab_cty_pure_and_impure():
    assert noeff.elab_cty(CompType(T_UNIT, EMPTY_DIRT)) == N_UNIT
    assert noeff.elab_cty(CompType(T_UNIT, dirt(["Tick"]))) == noeff.NComp(N_UNIT)


def test_elab_handler_type_with_pure_input_is_function():
    h = THandler(CompType(T_UNIT, EMPTY_DIRT), CompType(T_UNIT, dirt(["Tick"])))
    a = noeff.elab_vty(h)
    assert a == TArrow(N_UNIT, noeff.NComp(N_UNIT))
    h2 = THandler(CompType(T_UNIT, dirt(["Tick"])), CompType(T_UNIT, dirt(["Tick"])))
    a2 = noeff.elab_vty(h2)
    assert a2 == noeff.NHandler(N_UNIT, N_UNIT)


# -- coercion elaboration ------------------------------------------------------------


def test_elab_comp_coercion_both_pure():
    env = _env()
    co = exeff.CoComp(exeff.CoBaseRefl(Base.UNIT), exeff.CoEmpty(EMPTY_DIRT))
    ct, out = _elab_co(env, co)
    assert out == exeff.CoBaseRefl(Base.UNIT)


def test_elab_comp_coercion_pure_to_impure_is_return():
    env = _env()
    co = exeff.CoComp(exeff.CoBaseRefl(Base.UNIT), exeff.CoEmpty(dirt(["Tick"])))
    _, out = _elab_co(env, co)
    assert out == noeff.NCoReturn(exeff.CoBaseRefl(Base.UNIT))


def test_elab_comp_coercion_impure_to_impure_is_comp():
    env = _env()
    co = exeff.CoComp(
        exeff.CoBaseRefl(Base.UNIT),
        exeff.CoOpUnion("Tick", exeff.CoEmpty(dirt(["Tock"]))),
    )
    ct, out = _elab_co(env, co)
    assert ct.lhs == CompType(T_UNIT, dirt(["Tick"]))
    assert ct.rhs == CompType(T_UNIT, dirt(["Tick", "Tock"]))
    assert out == noeff.NCoComp(exeff.CoBaseRefl(Base.UNIT))


# -- from/to-impure coercions ----------------------------------------------------------


def test_from_impure_base():
    sup = Supply()
    d = sup.dirt()
    got = noeff.bridge(T_UNIT, d, dirt(["Tick"]), from_impure=True)
    assert got == exeff.CoBaseRefl(Base.UNIT)


def test_from_impure_computation_at_empty_is_unsafe():
    sup = Supply()
    d = sup.dirt()
    got = noeff.bridge(CompType(T_UNIT, dirt_var(d)), d, EMPTY_DIRT, from_impure=True)
    assert got == noeff.NCoUnsafe(exeff.CoBaseRefl(Base.UNIT))


def test_from_impure_arrow_example():
    sup = Supply()
    d = sup.dirt()
    ty = TArrow(T_UNIT, CompType(T_UNIT, dirt_var(d)))
    got = noeff.bridge(ty, d, EMPTY_DIRT, from_impure=True)
    assert got == exeff.CoArrow(
        exeff.CoBaseRefl(Base.UNIT), noeff.NCoUnsafe(exeff.CoBaseRefl(Base.UNIT))
    )


def test_from_impure_coercion_typing_lemma_instance():
    # The produced coercion bridges the impure-view elaboration to the
    # instantiated elaboration.
    sup = Supply()
    d = sup.dirt()
    ty = TArrow(T_UNIT, CompType(T_UNIT, dirt_var(d)))
    co = noeff.bridge(ty, d, EMPTY_DIRT, from_impure=True)
    before = noeff.elab_vty(ty)
    inst = exeff.substitute(exeff.Subst.one_dirt(d, EMPTY_DIRT), ty)
    after = noeff.elab_vty(inst)
    got = noeff.typecheck_noeff_coercion(_nenv(), co)
    assert alpha_eq(got.lhs, before)
    assert alpha_eq(got.rhs, after)


def test_to_impure_is_the_dual():
    sup = Supply()
    d = sup.dirt()
    got = noeff.bridge(CompType(T_UNIT, dirt_var(d)), d, EMPTY_DIRT, from_impure=False)
    assert got == noeff.NCoReturn(exeff.CoBaseRefl(Base.UNIT))
    h = THandler(CompType(T_UNIT, dirt_var(d)), CompType(T_UNIT, EMPTY_DIRT))
    got2 = noeff.bridge(h, d, EMPTY_DIRT, from_impure=False)
    assert got2 == noeff.NCoFunToHand(
        exeff.CoBaseRefl(Base.UNIT), noeff.NCoReturn(exeff.CoBaseRefl(Base.UNIT))
    )
    got3 = noeff.bridge(h, d, EMPTY_DIRT, from_impure=True)
    assert got3 == noeff.NCoHandToFun(
        exeff.CoBaseRefl(Base.UNIT), noeff.NCoUnsafe(exeff.CoBaseRefl(Base.UNIT))
    )


def test_restriction_on_qualifiers_mentioning_delta():
    sup = Supply()
    d = sup.dirt()
    bad = TQual(
        TySub(
            TArrow(T_UNIT, CompType(T_UNIT, dirt_var(d))),
            TArrow(T_UNIT, CompType(T_UNIT, dirt_var(d))),
        ),
        T_UNIT,
    )
    from effc.core import ElaborationError

    with pytest.raises(ElaborationError):
        noeff.bridge(bad, d, EMPTY_DIRT, from_impure=True)


# -- value/computation elaboration -------------------------------------------------------


def test_elab_return_drops_to_value():
    c = exeff.CReturn(exeff.EUnit())
    derived = exeff.derive(_env(), c)
    assert noeff.elab_comp(derived, c) == exeff.EUnit()
    assert derived.of(c) == CompType(T_UNIT, EMPTY_DIRT)


def test_elab_running_monomorphic_function():
    sup = Supply()
    g, x = sup.term("g"), sup.term("x")
    fn = exeff.EAbs(
        g, TArrow(T_UNIT, CompType(T_UNIT, EMPTY_DIRT)), exeff.CApp(exeff.EVar(g), exeff.EUnit())
    )
    t = _elab_value(_env(), fn)
    assert t == exeff.EAbs(
        g, TArrow(N_UNIT, N_UNIT), exeff.CApp(exeff.EVar(g), exeff.EUnit())
    )


def test_elab_running_polymorphic_function(golden_dir):
    ex = RunningExample()
    t = _elab_value(Context(ex.sig), ex.poly_value)
    text = display.show(display.canonicalize(t))
    assert text == (
        "tyfun a0. tyfun a1. cofun (w0 : a0 <= a1). "
        "fun (g : Unit -> Comp a0) -> g unit |> comp(w0)"
    )


def test_elab_app_id_produces_paper_coercions():
    ex = RunningExample()
    app = ex.app_id()
    t = noeff.elab_comp(exeff.derive(ex.env(), app), app)
    text = display.show(display.canonicalize(t))
    assert "(<Unit> -> return(<Unit>)) -> comp(<Unit>)" in text
    assert "(<Unit> -> <Unit>) -> unsafe(<Unit>)" in text
    # The pure identity loses its return.
    assert text.endswith("(fun (x : Unit) -> x)")


def test_elab_handler_with_pure_output_wraps_returns():
    sig = tick_tock_signature()
    sup = Supply()
    x, p, k = sup.term("x"), sup.term("p"), sup.term("k")
    h = exeff.EHandler(
        x, T_UNIT, exeff.CReturn(exeff.EVar(x)),
        (exeff.OpClause("Tick", p, k, exeff.CApp(exeff.EVar(k), exeff.EVar(p))),),
    )
    t = _elab_value(Context(sig), h)
    assert isinstance(t, exeff.EHandler)
    assert isinstance(t.ret_body, noeff.MReturn)
    clause = t.clauses[0]
    assert isinstance(clause.body, noeff.MReturn)
    # The continuation is re-coerced with an arrow of refl and unsafe(refl).
    body = clause.body.term
    assert isinstance(body, exeff.CApp)
    cast = body.fn
    assert isinstance(cast, exeff.ECast)
    assert isinstance(cast.co, exeff.CoArrow)
    assert isinstance(cast.co.cod, noeff.NCoUnsafe)
    got = noeff.typecheck_noeff(_nenv(sig), t)
    assert got == noeff.NHandler(N_UNIT, N_UNIT)


def test_elaboration_makes_no_exeff_checker_call(corpus_paths, monkeypatch):
    # Elaboration reads the derivation the checker recorded; it never runs
    # the checker again.
    from effc import infer, source

    checked = []
    for path in corpus_paths:
        sig, comp = source.parse_program(path.read_text())
        _, term, _ = infer.infer_and_default(sig, comp)
        checked.append((term, exeff.derive(Context(sig), term)))

    def refuse(*args):
        raise AssertionError("the ExEff checker ran during elaboration")

    for name in ("typecheck_value", "typecheck_comp", "typecheck_coercion"):
        monkeypatch.setattr(exeff, name, refuse)
    for term, derived in checked:
        noeff.elab_comp(derived, term)


def test_shared_node_at_two_types_is_reported_not_mis_elaborated():
    # `f unit` is one node at two positions: under the first `f` it has type
    # Unit ! {Tick}, under the second Unit ! {}.  The term is well-typed, but
    # the derivation has one entry for the node, so elaborating the inner
    # `do` (a let if its head is pure, a do if not) must not read either type.
    sig = tick_tock_signature()
    sup = Supply()
    f, u, r, y, z = (sup.term(n) for n in "furyz")
    tick = dirt(["Tick"])
    to_tick = exeff.CoComp(exeff.CoBaseRefl(Base.UNIT), exeff.CoEmpty(tick))
    ticks = exeff.EAbs(u, T_UNIT, exeff.COp(
        "Tick", exeff.EUnit(), r, T_UNIT, exeff.CCast(exeff.CReturn(exeff.EVar(r)), to_tick)
    ))
    pure = exeff.EAbs(u, T_UNIT, exeff.CReturn(exeff.EUnit()))
    shared = exeff.CApp(exeff.EVar(f), exeff.EUnit())
    inner = exeff.CCast(exeff.CDo(z, shared, exeff.CReturn(exeff.EVar(z))), to_tick)
    term = exeff.CLet(f, ticks, exeff.CDo(y, shared, exeff.CLet(f, pure, inner)))
    derived = exeff.derive(Context(sig), term)
    assert derived.of(term) == CompType(T_UNIT, tick)
    with pytest.raises(AssertionError, match="CApp node is checked at two different types"):
        noeff.elab_comp(derived, term)
    # Unshared, the same term elaborates and re-checks.
    copy = exeff.CApp(exeff.EVar(f), exeff.EUnit())
    inner = exeff.CCast(exeff.CDo(z, copy, exeff.CReturn(exeff.EVar(z))), to_tick)
    term = exeff.CLet(f, ticks, exeff.CDo(y, shared, exeff.CLet(f, pure, inner)))
    nterm = noeff.elab_comp(exeff.derive(Context(sig), term), term)
    assert noeff.typecheck_noeff(_nenv(sig), nterm) == noeff.NComp(N_UNIT)


# -- typing of the new coercion forms ----------------------------------------------------


def test_typing_hand_to_fun():
    env = _nenv()
    co = noeff.NCoHandToFun(
        exeff.CoBaseRefl(Base.UNIT), noeff.NCoUnsafe(exeff.CoBaseRefl(Base.UNIT))
    )
    got = noeff.typecheck_noeff_coercion(env, co)
    assert got == TySub(noeff.NHandler(N_UNIT, N_UNIT), TArrow(N_UNIT, N_UNIT))


def test_typing_return_coercion():
    got = noeff.typecheck_noeff_coercion(_nenv(), noeff.NCoReturn(exeff.CoBaseRefl(Base.UNIT)))
    assert got == TySub(N_UNIT, noeff.NComp(N_UNIT))


def test_typing_unsafe_coercion():
    got = noeff.typecheck_noeff_coercion(_nenv(), noeff.NCoUnsafe(exeff.CoBaseRefl(Base.UNIT)))
    assert got == TySub(noeff.NComp(N_UNIT), N_UNIT)


def test_refl_nty_derives_each_form_at_itself():
    sup = Supply()
    a = sup.ty()
    env = _nenv().bind(a)
    comp = noeff.NComp(a)
    forms = (
        a,
        N_UNIT,
        TArrow(a, comp),
        noeff.NHandler(a, N_UNIT),
        TQual(TySub(a, N_UNIT), TArrow(N_UNIT, a)),
        comp,
    )
    for t in forms:
        assert noeff.typecheck_noeff_coercion(env, exeff.refl_of(t)) == TySub(t, t), t
        assert exeff.is_refl(exeff.refl_of(t)), t


# -- operational semantics ------------------------------------------------------------------


def test_step_unsafe_over_return():
    t = exeff.ECast(noeff.MReturn(exeff.EUnit()), noeff.NCoUnsafe(exeff.CoBaseRefl(Base.UNIT)))
    # The unsafe coercion's body is reflexive: unit comes out without a cast.
    assert noeff.step_noeff(t) == exeff.EUnit()
    # No step builds a base-reflexive cast, but its rule stays.
    assert noeff.step_noeff(exeff.ECast(exeff.EUnit(), exeff.CoBaseRefl(Base.UNIT))) == exeff.EUnit()


def test_step_return_coercion_wraps():
    t = exeff.ECast(exeff.EUnit(), noeff.NCoReturn(exeff.CoBaseRefl(Base.UNIT)))
    assert noeff.step_noeff(t) == noeff.MReturn(exeff.EUnit())


def pure_fn_to_comp():
    """`fun x -> x` at Unit -> Unit, and a coercion to Unit -> Comp Unit."""
    x = Supply().term("x")
    lam = exeff.EAbs(x, N_UNIT, exeff.EVar(x))
    unit = exeff.CoBaseRefl(Base.UNIT)
    return lam, exeff.CoArrow(unit, noeff.NCoReturn(unit))


def test_step_unsafe_over_return_keeps_a_widening_body():
    lam, co = pure_fn_to_comp()
    t = exeff.ECast(noeff.MReturn(lam), noeff.NCoUnsafe(co))
    stepped = noeff.step_noeff(t)
    assert stepped == exeff.ECast(lam, co)
    env = _nenv()
    assert noeff.typecheck_noeff(env, stepped) == noeff.typecheck_noeff(env, t)


def test_step_return_coercion_wraps_a_widening_body():
    lam, co = pure_fn_to_comp()
    t = exeff.ECast(lam, noeff.NCoReturn(co))
    stepped = noeff.step_noeff(t)
    assert stepped == noeff.MReturn(exeff.ECast(lam, co))
    env = _nenv()
    assert noeff.typecheck_noeff(env, stepped) == noeff.typecheck_noeff(env, t)


def test_step_comp_coercion_pushes_into_return_and_continuation():
    lam, co = pure_fn_to_comp()
    env = _nenv()
    y = Supply().term("y")
    returned = exeff.ECast(noeff.MReturn(lam), noeff.NCoComp(co))
    op = exeff.COp("Tick", exeff.EUnit(), y, N_UNIT, noeff.MReturn(lam))
    called = exeff.ECast(op, noeff.NCoComp(co))
    want = {
        returned: noeff.MReturn(exeff.ECast(lam, co)),
        called: exeff.COp("Tick", exeff.EUnit(), y, N_UNIT, exeff.ECast(op.body, noeff.NCoComp(co))),
    }
    for t, stepped in want.items():
        assert noeff.step_noeff(t) == stepped
        assert noeff.typecheck_noeff(env, stepped) == noeff.typecheck_noeff(env, t)
    # A reflexive body becomes no cast.
    refl = exeff.ECast(noeff.MReturn(exeff.EUnit()), noeff.NCoComp(exeff.CoBaseRefl(Base.UNIT)))
    assert noeff.step_noeff(refl) == noeff.MReturn(exeff.EUnit())


def test_step_hand_to_fun_application():
    sup = Supply()
    x = sup.term("x")
    h = exeff.EHandler(x, N_UNIT, noeff.MReturn(exeff.EVar(x)))
    co = noeff.NCoHandToFun(
        exeff.CoBaseRefl(Base.UNIT), noeff.NCoUnsafe(exeff.CoBaseRefl(Base.UNIT))
    )
    t = exeff.CApp(exeff.ECast(h, co), exeff.EUnit())
    stepped = noeff.step_noeff(t)
    assert isinstance(stepped, exeff.ECast)
    assert isinstance(stepped.val, exeff.CHandle)
    out, _ = noeff.eval_noeff(t)
    assert out == exeff.EUnit()


def test_stuck_head_and_contexts():
    sup = Supply()
    y = sup.term("y")
    op = exeff.COp("Tick", exeff.EUnit(), y, N_UNIT, noeff.MReturn(exeff.EVar(y)))
    stuck = exeff.ECast(op, noeff.NCoUnsafe(exeff.CoBaseRefl(Base.UNIT)))
    assert noeff.classify_stuck(stuck) == noeff.StuckClass.HEAD
    assert noeff.classify_stuck(noeff.MReturn(exeff.EUnit())) == noeff.StuckClass.NOT_STUCK
    ctx = exeff.CLet(sup.term("x"), stuck, exeff.EUnit())
    assert noeff.classify_stuck(ctx) == noeff.StuckClass.CONTEXT
    assert noeff.step_noeff(stuck) is None
    # Under thousands of casts the context is found without recursion.
    refl = exeff.CoBaseRefl(Base.UNIT)
    deep = stuck
    for _ in range(3000):
        deep = exeff.ECast(deep, refl)
    assert noeff.classify_stuck(deep) == noeff.StuckClass.CONTEXT
    assert noeff.step_noeff(deep) is None


def test_value_under_a_long_cast_chain():
    sup = Supply()
    x = sup.term("x")
    v = exeff.EAbs(x, N_UNIT, noeff.MReturn(exeff.EVar(x)))
    arrow = exeff.CoArrow(exeff.CoBaseRefl(Base.UNIT), noeff.NCoReturn(exeff.CoBaseRefl(Base.UNIT)))
    for _ in range(3000):
        v = exeff.ECast(v, arrow)
    assert noeff.is_value_noeff(noeff.MReturn(v))
    assert not noeff.is_value_noeff(exeff.ECast(v, exeff.CoBaseRefl(Base.UNIT)))


def test_partial_progress_trichotomy():
    sup = Supply()
    y = sup.term("y")
    terms = [
        exeff.EUnit(),
        noeff.MReturn(exeff.EUnit()),
        exeff.CApp(exeff.EAbs(sup.term("x"), N_UNIT, exeff.EUnit()), exeff.EUnit()),
        exeff.ECast(
            exeff.COp("Tick", exeff.EUnit(), y, N_UNIT, noeff.MReturn(exeff.EVar(y))),
            noeff.NCoUnsafe(exeff.CoBaseRefl(Base.UNIT)),
        ),
    ]
    for t in terms:
        is_value = noeff.is_value_noeff(t)
        steps = noeff.step_noeff(t) is not None
        stuck = noeff.classify_stuck(t) != noeff.StuckClass.NOT_STUCK
        assert is_value or steps or stuck


def noeff_trace_preserves(text: str, name: str = "<text>") -> int:
    """Step the compiled NoEff term of `text` to a value, checking that every
    step keeps the term's type and that no term is stuck, which elaborated
    programs never are; returns the number of steps.  The harness checks
    types along the ExEff trace only."""
    art = pipeline.compile_text(text, "noeff")
    nenv = Context(art.source_sig.map(noeff.elab_vty))
    t = art.noeff_term
    ty = noeff.typecheck_noeff(nenv, t)
    steps = 0
    while not noeff.is_value_noeff(t):
        nxt = noeff.step_noeff(t)
        assert nxt is not None, (name, noeff.classify_stuck(t))
        assert alpha_eq(noeff.typecheck_noeff(nenv, nxt), ty), (name, steps)
        t = nxt
        steps += 1
        assert steps < 10000, name
    return steps


def test_preservation_along_noeff_traces(corpus_paths):
    programs = steps = 0
    for name, text in program_texts(corpus_paths, 300):
        steps += noeff_trace_preserves(text, name)
        programs += 1
    assert programs == len(corpus_paths) + 300 and steps > 800


def _comp_co(vco, dco):
    return exeff.CoComp(vco, dco)


def _unit_refl():
    return exeff.CoBaseRefl(Base.UNIT)


def test_elab_handler_coercion_all_dirt_combinations():
    env = _env()
    nenv = _nenv()
    pure = EMPTY_DIRT
    tick = dirt(["Tick"])

    def check(co):
        ct, out = _elab_co(env, co)
        want_lhs = noeff.elab_vty(ct.lhs)
        want_rhs = noeff.elab_vty(ct.rhs)
        got = noeff.typecheck_noeff_coercion(nenv, out)
        assert alpha_eq(got.lhs, want_lhs)
        assert alpha_eq(got.rhs, want_rhs)
        return out

    # Both inputs pure: a function coercion.
    both_pure = exeff.CoHandler(
        _comp_co(_unit_refl(), exeff.CoEmpty(pure)), _comp_co(_unit_refl(), exeff.CoEmpty(pure))
    )
    assert isinstance(check(both_pure), exeff.CoArrow)

    # Both inputs impure: a handler coercion with a Comp codomain.
    both_impure = exeff.CoHandler(
        _comp_co(_unit_refl(), exeff.refl_of(tick)),
        _comp_co(_unit_refl(), exeff.refl_of(tick)),
    )
    out = check(both_impure)
    assert isinstance(out, exeff.CoHandler)
    assert isinstance(out.cod, noeff.NCoComp)

    # Impure source input, pure target input, pure target output: unsafe bridge.
    to_fun_unsafe = exeff.CoHandler(
        _comp_co(_unit_refl(), exeff.CoEmpty(tick)),
        _comp_co(_unit_refl(), exeff.CoEmpty(pure)),
    )
    out = check(to_fun_unsafe)
    assert isinstance(out, noeff.NCoHandToFun)
    assert isinstance(out.cod, noeff.NCoUnsafe)

    # Impure source input, pure target input, impure target output: Comp bridge.
    to_fun_comp = exeff.CoHandler(
        _comp_co(_unit_refl(), exeff.CoEmpty(tick)),
        _comp_co(_unit_refl(), exeff.CoEmpty(tick)),
    )
    out = check(to_fun_comp)
    assert isinstance(out, noeff.NCoHandToFun)
    assert isinstance(out.cod, noeff.NCoComp)


def test_from_impure_handler_input_stays_impure():
    sup = Supply()
    d = sup.dirt()
    h = THandler(CompType(T_UNIT, dirt(["Tick"], d)), CompType(T_UNIT, dirt_var(d)))
    co = noeff.bridge(h, d, EMPTY_DIRT, from_impure=True)
    assert isinstance(co, exeff.CoHandler)
    got = noeff.typecheck_noeff_coercion(_nenv(), co)
    before = noeff.elab_vty(h)
    inst = exeff.substitute(exeff.Subst.one_dirt(d, EMPTY_DIRT), h)
    after = noeff.elab_vty(inst)
    assert alpha_eq(got.lhs, before)
    assert alpha_eq(got.rhs, after)


def test_fun_to_hand_semantics():
    sup = Supply()
    x = sup.term("x")
    fn = exeff.EAbs(x, N_UNIT, exeff.EVar(x))
    co = noeff.NCoFunToHand(
        exeff.CoBaseRefl(Base.UNIT), noeff.NCoReturn(exeff.CoBaseRefl(Base.UNIT))
    )
    cast = exeff.ECast(fn, co)
    # Handling a returned value applies the function.
    t = exeff.CHandle(cast, noeff.MReturn(exeff.EUnit()))
    out, _ = noeff.eval_noeff(t)
    assert out == noeff.MReturn(exeff.EUnit())
    # Handling an operation forwards it, keeping the cast handler inside.
    y = sup.term("y")
    op = exeff.COp("Tick", exeff.EUnit(), y, N_UNIT, noeff.MReturn(exeff.EVar(y)))
    stepped = noeff.step_noeff(exeff.CHandle(cast, op))
    assert isinstance(stepped, exeff.COp)
    assert isinstance(stepped.body, exeff.CHandle)


def test_handler_coercion_push_semantics():
    sup = Supply()
    x = sup.term("x")
    h = exeff.EHandler(x, N_UNIT, noeff.MReturn(exeff.EVar(x)))
    co = exeff.CoHandler(
        noeff.NCoComp(exeff.CoBaseRefl(Base.UNIT)), noeff.NCoComp(exeff.CoBaseRefl(Base.UNIT))
    )
    t = exeff.CHandle(exeff.ECast(h, co), noeff.MReturn(exeff.EUnit()))
    out, _ = noeff.eval_noeff(t)
    assert out == noeff.MReturn(exeff.EUnit())
