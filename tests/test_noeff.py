"""Pure backend: elaboration, typing, semantics, stuck classification."""

import pytest

from effc import display, exeff, noeff
from effc.core import (
    Base,
    CompType,
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
from paper_examples import RunningExample, tick_tock_signature

T_UNIT = TBase(Base.UNIT)
N_UNIT = noeff.NBase(Base.UNIT)


def _env(sig=None):
    return exeff.TypeEnv(sig or tick_tock_signature())


def _nenv(sig=None):
    sig = sig or tick_tock_signature()
    return noeff.NEnv(noeff.elab_signature(sig))


# -- dirt emptiness and type elaboration ------------------------------------------


def test_nonempty_dirt():
    sup = Supply()
    assert not noeff.nonempty_dirt(EMPTY_DIRT)
    assert noeff.nonempty_dirt(dirt_var(sup.dirt()))
    assert noeff.nonempty_dirt(dirt(["Tick"], sup.dirt()))
    assert noeff.nonempty_dirt(dirt(["Tick"]))


def test_elab_cty_pure_and_impure():
    env = _env()
    assert noeff.elab_cty(env, CompType(T_UNIT, EMPTY_DIRT))[1] == N_UNIT
    assert noeff.elab_cty(env, CompType(T_UNIT, dirt(["Tick"])))[1] == noeff.NComp(N_UNIT)


def test_elab_handler_type_with_pure_input_is_function():
    env = _env()
    h = THandler(CompType(T_UNIT, EMPTY_DIRT), CompType(T_UNIT, dirt(["Tick"])))
    _, a = noeff.elab_vty(env, h)
    assert a == noeff.NArrow(N_UNIT, noeff.NComp(N_UNIT))
    h2 = THandler(CompType(T_UNIT, dirt(["Tick"])), CompType(T_UNIT, dirt(["Tick"])))
    _, a2 = noeff.elab_vty(env, h2)
    assert a2 == noeff.NHandler(N_UNIT, N_UNIT)


# -- coercion elaboration ------------------------------------------------------------


def test_elab_comp_coercion_both_pure():
    env = _env()
    co = exeff.CoComp(exeff.CoBaseRefl(Base.UNIT), exeff.CoEmpty(EMPTY_DIRT))
    ct, out = noeff.elab_coercion(env, co)
    assert out == noeff.NCoBaseRefl(Base.UNIT)


def test_elab_comp_coercion_pure_to_impure_is_return():
    env = _env()
    co = exeff.CoComp(exeff.CoBaseRefl(Base.UNIT), exeff.CoEmpty(dirt(["Tick"])))
    _, out = noeff.elab_coercion(env, co)
    assert out == noeff.NCoReturn(noeff.NCoBaseRefl(Base.UNIT))


def test_elab_comp_coercion_impure_to_impure_is_comp():
    env = _env()
    co = exeff.CoComp(
        exeff.CoBaseRefl(Base.UNIT),
        exeff.CoOpUnion("Tick", exeff.CoEmpty(dirt(["Tock"]))),
    )
    ct, out = noeff.elab_coercion(env, co)
    assert ct.lhs == CompType(T_UNIT, dirt(["Tick"]))
    assert ct.rhs == CompType(T_UNIT, dirt(["Tick", "Tock"]))
    assert out == noeff.NCoComp(noeff.NCoBaseRefl(Base.UNIT))


# -- from/to-impure coercions ----------------------------------------------------------


def test_from_impure_base():
    sup = Supply()
    d = sup.dirt()
    env = _env().with_dirt(d)
    got = noeff.from_impure_vty(env, T_UNIT, d, dirt(["Tick"]))
    assert got == noeff.NCoBaseRefl(Base.UNIT)


def test_from_impure_computation_at_empty_is_unsafe():
    sup = Supply()
    d = sup.dirt()
    env = _env().with_dirt(d)
    got = noeff.from_impure_cty(env, CompType(T_UNIT, dirt_var(d)), d, EMPTY_DIRT)
    assert got == noeff.NCoUnsafe(noeff.NCoBaseRefl(Base.UNIT))


def test_from_impure_arrow_example():
    sup = Supply()
    d = sup.dirt()
    env = _env().with_dirt(d)
    ty = TArrow(T_UNIT, CompType(T_UNIT, dirt_var(d)))
    got = noeff.from_impure_vty(env, ty, d, EMPTY_DIRT)
    assert got == noeff.NCoArrow(
        noeff.NCoBaseRefl(Base.UNIT), noeff.NCoUnsafe(noeff.NCoBaseRefl(Base.UNIT))
    )


def test_from_impure_coercion_typing_lemma_instance():
    # The produced coercion bridges the impure-view elaboration to the
    # instantiated elaboration.
    sup = Supply()
    d = sup.dirt()
    sig = tick_tock_signature()
    env = exeff.TypeEnv(sig).with_dirt(d)
    ty = TArrow(T_UNIT, CompType(T_UNIT, dirt_var(d)))
    co = noeff.from_impure_vty(env, ty, d, EMPTY_DIRT)
    _, before = noeff.elab_vty(env, ty)
    inst = exeff.substitute(exeff.Subst.one_dirt(d, EMPTY_DIRT), ty)
    _, after = noeff.elab_vty(exeff.TypeEnv(sig), inst)
    got = noeff.typecheck_noeff_coercion(_nenv(), co)
    assert alpha_eq(got.lhs, before)
    assert alpha_eq(got.rhs, after)


def test_to_impure_is_the_dual():
    sup = Supply()
    d = sup.dirt()
    env = _env().with_dirt(d)
    got = noeff.to_impure_cty(env, CompType(T_UNIT, dirt_var(d)), d, EMPTY_DIRT)
    assert got == noeff.NCoReturn(noeff.NCoBaseRefl(Base.UNIT))
    h = THandler(CompType(T_UNIT, dirt_var(d)), CompType(T_UNIT, EMPTY_DIRT))
    got2 = noeff.to_impure_vty(env, h, d, EMPTY_DIRT)
    assert got2 == noeff.NCoFunToHand(
        noeff.NCoBaseRefl(Base.UNIT), noeff.NCoReturn(noeff.NCoBaseRefl(Base.UNIT))
    )
    got3 = noeff.from_impure_vty(env, h, d, EMPTY_DIRT)
    assert got3 == noeff.NCoHandToFun(
        noeff.NCoBaseRefl(Base.UNIT), noeff.NCoUnsafe(noeff.NCoBaseRefl(Base.UNIT))
    )


def test_restriction_on_qualifiers_mentioning_delta():
    sup = Supply()
    d = sup.dirt()
    env = _env().with_dirt(d)
    bad = TQual(
        TySub(
            TArrow(T_UNIT, CompType(T_UNIT, dirt_var(d))),
            TArrow(T_UNIT, CompType(T_UNIT, dirt_var(d))),
        ),
        T_UNIT,
    )
    from effc.core import ElaborationError

    with pytest.raises(ElaborationError):
        noeff.from_impure_vty(env, bad, d, EMPTY_DIRT)


# -- value/computation elaboration -------------------------------------------------------


def test_elab_return_drops_to_value():
    env = _env()
    cty, t = noeff.elab_comp(env, exeff.CReturn(exeff.EUnit()))
    assert t == noeff.MUnit()
    assert cty == CompType(T_UNIT, EMPTY_DIRT)


def test_elab_running_monomorphic_function():
    sup = Supply()
    g, x = sup.term("g"), sup.term("x")
    fn = exeff.EAbs(
        g, TArrow(T_UNIT, CompType(T_UNIT, EMPTY_DIRT)), exeff.CApp(exeff.EVar(g), exeff.EUnit())
    )
    _, t = noeff.elab_value(_env(), fn)
    assert t == noeff.MAbs(
        g, noeff.NArrow(N_UNIT, N_UNIT), noeff.MApp(noeff.MVar(g), noeff.MUnit())
    )


def test_elab_running_polymorphic_function(golden_dir):
    ex = RunningExample()
    _, t = noeff.elab_value(exeff.TypeEnv(ex.sig), ex.poly_value)
    text = display.show_nterm(display.canonicalize(t))
    assert text == (
        "tyfun a0. tyfun a1. cofun (w0 : a0 <= a1). "
        "fun (g : Unit -> Comp a0) -> g unit |> comp(w0)"
    )


def test_elab_app_id_produces_paper_coercions():
    ex = RunningExample()
    _, t = noeff.elab_comp(ex.env(), ex.app_id())
    text = display.show_nterm(display.canonicalize(t))
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
    h_ty, t = noeff.elab_value(exeff.TypeEnv(sig), h)
    assert isinstance(t, noeff.MHandler)
    assert isinstance(t.ret_body, noeff.MReturn)
    clause = t.clauses[0]
    assert isinstance(clause.body, noeff.MReturn)
    # The continuation is re-coerced with an arrow of refl and unsafe(refl).
    body = clause.body.term
    assert isinstance(body, noeff.MApp)
    cast = body.fn
    assert isinstance(cast, noeff.MCast)
    assert isinstance(cast.co, noeff.NCoArrow)
    assert isinstance(cast.co.cod, noeff.NCoUnsafe)
    got = noeff.typecheck_noeff(_nenv(sig), t)
    assert got == noeff.NHandler(N_UNIT, N_UNIT)


# -- typing of the new coercion forms ----------------------------------------------------


def test_typing_hand_to_fun():
    env = _nenv()
    co = noeff.NCoHandToFun(
        noeff.NCoBaseRefl(Base.UNIT), noeff.NCoUnsafe(noeff.NCoBaseRefl(Base.UNIT))
    )
    got = noeff.typecheck_noeff_coercion(env, co)
    assert got == noeff.NSub(noeff.NHandler(N_UNIT, N_UNIT), noeff.NArrow(N_UNIT, N_UNIT))


def test_typing_return_coercion():
    got = noeff.typecheck_noeff_coercion(_nenv(), noeff.NCoReturn(noeff.NCoBaseRefl(Base.UNIT)))
    assert got == noeff.NSub(N_UNIT, noeff.NComp(N_UNIT))


def test_typing_unsafe_coercion():
    got = noeff.typecheck_noeff_coercion(_nenv(), noeff.NCoUnsafe(noeff.NCoBaseRefl(Base.UNIT)))
    assert got == noeff.NSub(noeff.NComp(N_UNIT), N_UNIT)


# -- operational semantics ------------------------------------------------------------------


def test_step_unsafe_over_return():
    t = noeff.MCast(noeff.MReturn(noeff.MUnit()), noeff.NCoUnsafe(noeff.NCoBaseRefl(Base.UNIT)))
    s1 = noeff.step_noeff(t)
    assert s1 == noeff.MCast(noeff.MUnit(), noeff.NCoBaseRefl(Base.UNIT))
    assert noeff.step_noeff(s1) == noeff.MUnit()


def test_step_return_coercion_wraps():
    t = noeff.MCast(noeff.MUnit(), noeff.NCoReturn(noeff.NCoBaseRefl(Base.UNIT)))
    assert noeff.step_noeff(t) == noeff.MReturn(
        noeff.MCast(noeff.MUnit(), noeff.NCoBaseRefl(Base.UNIT))
    )


def test_step_hand_to_fun_application():
    sup = Supply()
    x = sup.term("x")
    h = noeff.MHandler(x, N_UNIT, noeff.MReturn(noeff.MVar(x)))
    co = noeff.NCoHandToFun(
        noeff.NCoBaseRefl(Base.UNIT), noeff.NCoUnsafe(noeff.NCoBaseRefl(Base.UNIT))
    )
    t = noeff.MApp(noeff.MCast(h, co), noeff.MUnit())
    stepped = noeff.step_noeff(t)
    assert isinstance(stepped, noeff.MCast)
    assert isinstance(stepped.term, noeff.MHandle)
    out, _ = noeff.eval_noeff(t)
    assert out == noeff.MUnit()


def test_stuck_head_and_contexts():
    sup = Supply()
    y = sup.term("y")
    op = noeff.MOp("Tick", noeff.MUnit(), y, N_UNIT, noeff.MReturn(noeff.MVar(y)))
    stuck = noeff.MCast(op, noeff.NCoUnsafe(noeff.NCoBaseRefl(Base.UNIT)))
    assert noeff.classify_stuck(stuck) == noeff.StuckClass.HEAD
    assert noeff.classify_stuck(noeff.MReturn(noeff.MUnit())) == noeff.StuckClass.NOT_STUCK
    ctx = noeff.MLet(sup.term("x"), stuck, noeff.MUnit())
    assert noeff.classify_stuck(ctx) == noeff.StuckClass.CONTEXT
    assert noeff.step_noeff(stuck) is None
    # Under thousands of casts the context is found without recursion.
    refl = noeff.NCoBaseRefl(Base.UNIT)
    deep = stuck
    for _ in range(3000):
        deep = noeff.MCast(deep, refl)
    assert noeff.classify_stuck(deep) == noeff.StuckClass.CONTEXT
    assert noeff.step_noeff(deep) is None


def test_value_under_a_long_cast_chain():
    sup = Supply()
    x = sup.term("x")
    v = noeff.MAbs(x, N_UNIT, noeff.MReturn(noeff.MVar(x)))
    arrow = noeff.NCoArrow(noeff.NCoBaseRefl(Base.UNIT), noeff.NCoReturn(noeff.NCoBaseRefl(Base.UNIT)))
    for _ in range(3000):
        v = noeff.MCast(v, arrow)
    assert noeff.is_value_noeff(noeff.MReturn(v))
    assert not noeff.is_value_noeff(noeff.MCast(v, noeff.NCoBaseRefl(Base.UNIT)))


def test_partial_progress_trichotomy():
    sup = Supply()
    y = sup.term("y")
    terms = [
        noeff.MUnit(),
        noeff.MReturn(noeff.MUnit()),
        noeff.MApp(noeff.MAbs(sup.term("x"), N_UNIT, noeff.MUnit()), noeff.MUnit()),
        noeff.MCast(
            noeff.MOp("Tick", noeff.MUnit(), y, N_UNIT, noeff.MReturn(noeff.MVar(y))),
            noeff.NCoUnsafe(noeff.NCoBaseRefl(Base.UNIT)),
        ),
    ]
    for t in terms:
        is_value = noeff.is_value_noeff(t)
        steps = noeff.step_noeff(t) is not None
        stuck = noeff.classify_stuck(t) != noeff.StuckClass.NOT_STUCK
        assert is_value or steps or stuck


def test_preservation_along_noeff_traces():
    # Every pure-backend step preserves the checked type, and every
    # intermediate state is a value, steps, or is classified stuck.
    from conftest import CORPUS
    from effc import infer, source

    for name in ("p11_handle_tick_resume.eff", "p17_tick_tock_stop.eff", "p29_handler_result_fun.eff"):
        sig, comp = source.parse_program((CORPUS / name).read_text())
        _, term, _ = infer.infer_and_default(sig, comp)
        _, nterm = noeff.elab_comp(exeff.TypeEnv(sig), term)
        nenv = noeff.NEnv(noeff.elab_signature(sig))
        ty = noeff.typecheck_noeff(nenv, nterm)
        t = nterm
        steps = 0
        while not noeff.is_value_noeff(t):
            nxt = noeff.step_noeff(t)
            trichotomy = (
                noeff.is_value_noeff(t)
                or nxt is not None
                or noeff.classify_stuck(t) != noeff.StuckClass.NOT_STUCK
            )
            assert trichotomy
            assert nxt is not None, name  # elaborated programs never stick
            got = noeff.typecheck_noeff(nenv, nxt)
            assert alpha_eq(got, ty), name
            t = nxt
            steps += 1
            assert steps < 10000


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
        ct, out = noeff.elab_coercion(env, co)
        want_lhs = noeff.elab_vty(env, ct.lhs)[1]
        want_rhs = noeff.elab_vty(env, ct.rhs)[1]
        got = noeff.typecheck_noeff_coercion(nenv, out)
        assert alpha_eq(got.lhs, want_lhs)
        assert alpha_eq(got.rhs, want_rhs)
        return out

    # Both inputs pure: a function coercion.
    both_pure = exeff.CoHandler(
        _comp_co(_unit_refl(), exeff.CoEmpty(pure)), _comp_co(_unit_refl(), exeff.CoEmpty(pure))
    )
    assert isinstance(check(both_pure), noeff.NCoArrow)

    # Both inputs impure: a handler coercion with a Comp codomain.
    both_impure = exeff.CoHandler(
        _comp_co(_unit_refl(), exeff.refl_of(tick)),
        _comp_co(_unit_refl(), exeff.refl_of(tick)),
    )
    out = check(both_impure)
    assert isinstance(out, noeff.NCoHandler)
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
    sig = tick_tock_signature()
    env = exeff.TypeEnv(sig).with_dirt(d)
    h = THandler(CompType(T_UNIT, dirt(["Tick"], d)), CompType(T_UNIT, dirt_var(d)))
    co = noeff.from_impure_vty(env, h, d, EMPTY_DIRT)
    assert isinstance(co, noeff.NCoHandler)
    got = noeff.typecheck_noeff_coercion(_nenv(sig), co)
    _, before = noeff.elab_vty(env, h)
    inst = exeff.substitute(exeff.Subst.one_dirt(d, EMPTY_DIRT), h)
    _, after = noeff.elab_vty(exeff.TypeEnv(sig), inst)
    assert alpha_eq(got.lhs, before)
    assert alpha_eq(got.rhs, after)


def test_fun_to_hand_semantics():
    sup = Supply()
    x = sup.term("x")
    fn = noeff.MAbs(x, N_UNIT, noeff.MVar(x))
    co = noeff.NCoFunToHand(
        noeff.NCoBaseRefl(Base.UNIT), noeff.NCoReturn(noeff.NCoBaseRefl(Base.UNIT))
    )
    cast = noeff.MCast(fn, co)
    # Handling a returned value applies the function.
    t = noeff.MHandle(cast, noeff.MReturn(noeff.MUnit()))
    out, _ = noeff.eval_noeff(t)
    assert out == noeff.MReturn(noeff.MUnit())
    # Handling an operation forwards it, keeping the cast handler inside.
    y = sup.term("y")
    op = noeff.MOp("Tick", noeff.MUnit(), y, N_UNIT, noeff.MReturn(noeff.MVar(y)))
    stepped = noeff.step_noeff(noeff.MHandle(cast, op))
    assert isinstance(stepped, noeff.MOp)
    assert isinstance(stepped.body, noeff.MHandle)


def test_handler_coercion_push_semantics():
    sup = Supply()
    x = sup.term("x")
    h = noeff.MHandler(x, N_UNIT, noeff.MReturn(noeff.MVar(x)))
    co = noeff.NCoHandler(
        noeff.NCoComp(noeff.NCoBaseRefl(Base.UNIT)), noeff.NCoComp(noeff.NCoBaseRefl(Base.UNIT))
    )
    t = noeff.MHandle(noeff.MCast(h, co), noeff.MReturn(noeff.MUnit()))
    out, _ = noeff.eval_noeff(t)
    assert out == noeff.MReturn(noeff.MUnit())
