"""Core calculus: typing, coercions, reflexivity, substitution, semantics."""

import random

import pytest

from effc import display, exeff
from effc.core import (
    Base,
    CompSub,
    CompType,
    Context,
    Dirt,
    DirtSub,
    EMPTY_DIRT,
    Signature,
    SkelBase,
    Supply,
    TArrow,
    TBase,
    TForallDirt,
    TForallTy,
    THandler,
    TQual,
    TypecheckError,
    TySub,
    WfError,
    dirt,
    dirt_var,
)
from effc.traverse import alpha_eq
from gen_helpers import make_signature, random_cty, random_dirt, random_ty_pair, random_vty
from paper_examples import RunningExample, erasure_discussion_pair, tick_tock_signature

T_UNIT = TBase(Base.UNIT)
SK_UNIT = SkelBase(Base.UNIT)


def _env(sig=None):
    return Context(sig or Signature())


# -- value and computation typing ---------------------------------------------


def test_typecheck_unit():
    assert exeff.typecheck_value(_env(), exeff.EUnit()) == T_UNIT


def test_typecheck_identity_abstraction():
    sup = Supply()
    x = sup.term("x")
    v = exeff.EAbs(x, T_UNIT, exeff.CReturn(exeff.EVar(x)))
    got = exeff.typecheck_value(_env(), v)
    assert got == TArrow(T_UNIT, CompType(T_UNIT, EMPTY_DIRT))


def test_typecheck_running_target_polymorphic_value():
    ex = RunningExample()
    got = exeff.typecheck_value(Context(ex.sig), ex.poly_value)
    assert alpha_eq(got, ex.poly_type)


def test_typecheck_cast_source_mismatch():
    v = exeff.ECast(exeff.EUnit(), exeff.CoBaseRefl(Base.INT))
    with pytest.raises(TypecheckError):
        exeff.typecheck_value(_env(), v)


def test_typecheck_op_requires_dirt_membership():
    sig = tick_tock_signature()
    sup = Supply()
    y = sup.term("y")
    c = exeff.COp("Tick", exeff.EUnit(), y, T_UNIT, exeff.CReturn(exeff.EVar(y)))
    # Continuation has empty dirt: Tick is not in it.
    with pytest.raises(TypecheckError):
        exeff.typecheck_comp(_env(sig), c)
    fixed = exeff.COp(
        "Tick",
        exeff.EUnit(),
        y,
        T_UNIT,
        exeff.CCast(
            exeff.CReturn(exeff.EVar(y)),
            exeff.CoComp(exeff.CoBaseRefl(Base.UNIT), exeff.CoEmpty(dirt(["Tick"]))),
        ),
    )
    got = exeff.typecheck_comp(_env(sig), fixed)
    assert got == CompType(T_UNIT, dirt(["Tick"]))


# -- coercion typing ------------------------------------------------------------


def test_coercion_unit_refl():
    got = exeff.typecheck_coercion(_env(), exeff.CoBaseRefl(Base.UNIT))
    assert got == TySub(T_UNIT, T_UNIT)


def test_coercion_empty_dirt():
    sig = tick_tock_signature()
    got = exeff.typecheck_coercion(_env(sig), exeff.CoEmpty(dirt(["Tick"])))
    assert got == DirtSub(EMPTY_DIRT, dirt(["Tick"]))


def test_coercion_op_union():
    sig = tick_tock_signature()
    co = exeff.CoOpUnion("Tick", exeff.CoEmpty(dirt(["Tock"])))
    got = exeff.typecheck_coercion(_env(sig), co)
    assert got == DirtSub(dirt(["Tick"]), dirt(["Tick", "Tock"]))


def test_coercion_sides_share_skeleton():
    sup = Supply()
    sig = make_signature()
    env = _env(sig)
    rng = random.Random(5)
    for _ in range(100):
        s, b, co = random_ty_pair(rng, sup, 3)
        ct = exeff.typecheck_coercion(env, co)
        assert exeff.wf_vty(env, ct.lhs) == exeff.wf_vty(env, ct.rhs)


# -- reflexivity ------------------------------------------------------------------


def test_refl_table():
    assert exeff.refl_of(T_UNIT) == exeff.CoBaseRefl(Base.UNIT)
    arrow = TArrow(T_UNIT, CompType(T_UNIT, EMPTY_DIRT))
    assert exeff.refl_of(arrow) == exeff.CoArrow(
        exeff.CoBaseRefl(Base.UNIT),
        exeff.CoComp(exeff.CoBaseRefl(Base.UNIT), exeff.CoDirtRefl(EMPTY_DIRT)),
    )
    sup = Supply()
    d = sup.dirt()
    got = exeff.refl_of(dirt(["Tick"], d))
    assert got == exeff.CoDirtRefl(dirt(["Tick"], d))


def test_refl_typechecks_at_identity():
    sup = Supply()
    sig = make_signature()
    env = _env(sig)
    rng = random.Random(6)
    for _ in range(100):
        s, b, _ = random_ty_pair(rng, sup, 3)
        for t in (s, b):
            ct = exeff.typecheck_coercion(env, exeff.refl_of(t))
            assert ct == TySub(t, t)


def test_refl_derives_each_form_at_itself():
    sup = Supply()
    a, d = sup.ty(), sup.dirt()
    env = _env(tick_tock_signature()).bind(a, SK_UNIT).bind(d)
    ticks = CompType(T_UNIT, dirt(["Tick"], d))
    pure = CompType(a, EMPTY_DIRT)
    for t in (a, T_UNIT, TArrow(a, ticks), THandler(ticks, pure)):
        assert exeff.typecheck_coercion(env, exeff.refl_of(t)) == TySub(t, t), t
    for c in (ticks, pure):
        assert exeff.typecheck_coercion(env, exeff.refl_of(c)) == CompSub(c, c), c
    for delta in (EMPTY_DIRT, dirt_var(d), ticks.dirt):
        assert exeff.typecheck_coercion(env, exeff.refl_of(delta)) == DirtSub(delta, delta), delta
    # `is_refl` recognizes every reflexivity coercion (completeness).
    for t in (a, T_UNIT, TArrow(a, ticks), THandler(ticks, pure), ticks, pure, dirt_var(d)):
        assert exeff.is_refl(exeff.refl_of(t)), t


# -- well-formedness ----------------------------------------------------------------


def test_wf_binders_scope_over_their_bodies():
    sup = Supply()
    a, d = sup.ty(), sup.dirt()
    env = _env(tick_tock_signature())
    # Each binder's variable is in scope in its body: the type variable where
    # a constraint takes its skeleton, the dirt variable as a dirt's tail.
    ty_bound = TForallTy(a, SK_UNIT, TQual(TySub(a, T_UNIT), a))
    dirt_bound = TForallDirt(d, TArrow(T_UNIT, CompType(T_UNIT, dirt(["Tick"], d))))
    exeff.wf(env, ty_bound)
    exeff.wf(env, dirt_bound)
    # Under both binders, a constraint between types of different skeletons.
    arrow = TArrow(T_UNIT, CompType(T_UNIT, dirt_var(d)))
    bad = TForallTy(a, SK_UNIT, TForallDirt(d, TQual(TySub(a, arrow), a)))
    with pytest.raises(WfError, match="^subtyping constraint relates types with different skeletons$"):
        exeff.wf(env, bad)


# -- substitution -----------------------------------------------------------------


def test_subst_tyvar_refl_becomes_refl_of():
    sup = Supply()
    a = sup.ty()
    got = exeff.substitute(exeff.Subst.one_ty(a, T_UNIT), exeff.CoTyRefl(a))
    assert got == exeff.CoBaseRefl(Base.UNIT)


def test_subst_dirt_refl_normalizes():
    sup = Supply()
    d = sup.dirt()
    got = exeff.substitute(exeff.Subst.one_dirt(d, EMPTY_DIRT), exeff.CoDirtRefl(dirt_var(d)))
    assert got == exeff.CoDirtRefl(EMPTY_DIRT)


def _open_dirts(rng, t, tails):
    """`t` with a tail drawn from `tails` put on each of its dirts."""
    if isinstance(t, TArrow):
        return TArrow(_open_dirts(rng, t.dom, tails), _open_dirts(rng, t.cod, tails))
    if isinstance(t, CompType):
        return CompType(_open_dirts(rng, t.val, tails), Dirt(t.dirt.ops, rng.choice(tails)))
    return t


def test_refl_commutes_with_substitution():
    sup = Supply()
    d0, d1 = sup.dirt(), sup.dirt()
    s = exeff.Subst.one_dirt(d0, dirt(["Get"], d1))
    got = exeff.substitute(s, exeff.refl_of(dirt(["Tick"], d0)))
    assert got == exeff.refl_of(dirt(["Get", "Tick"], d1))

    rng = random.Random(11)
    tails = [None] + [sup.dirt() for _ in range(3)]
    for _ in range(300):
        t = random_vty(rng, 4) if rng.random() < 0.5 else random_cty(rng, 4)
        t = _open_dirts(rng, t, tails)
        picked = [v for v in tails[1:] if rng.random() < 0.6]
        s = exeff.Subst(dirt={v.id: Dirt(random_dirt(rng).ops, rng.choice(tails)) for v in picked})
        assert exeff.substitute(s, exeff.refl_of(t)) == exeff.refl_of(exeff.substitute(s, t)), t


def test_subst_skeleton_under_type_binder():
    sup = Supply()
    sk = sup.skel()
    a = sup.ty()
    t = TForallTy(a, sk, a)
    got = exeff.substitute(exeff.Subst.one_skel(sk, SK_UNIT), t)
    assert got == TForallTy(a, SK_UNIT, a)


# -- results ------------------------------------------------------------------------


def test_classify_terminal_value():
    assert exeff.is_terminal_value(exeff.EUnit()) and exeff.is_value_result(exeff.EUnit())


def test_classify_ill_sorted_cast_is_non_result():
    sup = Supply()
    co = exeff.CoArrow(
        exeff.CoBaseRefl(Base.UNIT),
        exeff.CoComp(exeff.CoBaseRefl(Base.UNIT), exeff.CoEmpty(EMPTY_DIRT)),
    )
    assert not exeff.is_value_result(exeff.ECast(exeff.EUnit(), co))
    x = sup.term("x")
    lam = exeff.EAbs(x, T_UNIT, exeff.CReturn(exeff.EVar(x)))
    cast = exeff.ECast(lam, co)
    assert exeff.is_value_result(cast) and not exeff.is_terminal_value(cast)


def test_classify_operation_call_is_result():
    sup = Supply()
    y = sup.term("y")
    c = exeff.COp("Tick", exeff.EUnit(), y, T_UNIT, exeff.CReturn(exeff.EVar(y)))
    assert exeff.is_comp_result(c) and not exeff.is_terminal_comp(c)


def test_classify_terminal_computation():
    c = exeff.CCast(
        exeff.CReturn(exeff.EUnit()),
        exeff.CoComp(exeff.CoBaseRefl(Base.UNIT), exeff.CoEmpty(dirt(["Tick"]))),
    )
    assert exeff.is_terminal_comp(c) and exeff.is_comp_result(c)


def test_classify_long_cast_chains():
    # Thousands of casts deep: classified in one pass, without recursion.
    sup = Supply()
    x = sup.term("x")
    unit_co = exeff.CoBaseRefl(Base.UNIT)
    pure_co = exeff.CoComp(unit_co, exeff.CoEmpty(EMPTY_DIRT))
    arrow = exeff.CoArrow(unit_co, pure_co)
    lam = exeff.EAbs(x, T_UNIT, exeff.CReturn(exeff.EVar(x)))

    def chain(v, cos):
        for co in cos:
            v = exeff.ECast(v, co)
        return v

    depth = 3000
    assert exeff.is_value_result(chain(lam, [arrow] * depth))
    # One cast of another sort anywhere in the chain breaks it.
    handler_co = exeff.CoHandler(pure_co, pure_co)
    mixed = chain(lam, [arrow] * 5 + [handler_co] + [arrow] * depth)
    assert not exeff.is_value_result(mixed)
    assert not exeff.is_value_result(chain(exeff.EUnit(), [arrow] * depth))
    c = exeff.CReturn(chain(lam, [arrow] * depth))
    for _ in range(depth):
        c = exeff.CCast(c, exeff.CoComp(arrow, exeff.CoEmpty(EMPTY_DIRT)))
    assert exeff.is_terminal_comp(c)
    assert not exeff.is_comp_result(exeff.CCast(c, arrow))


# -- stepping ----------------------------------------------------------------------


def test_do_return_beta():
    sup = Supply()
    x = sup.term("x")
    c = exeff.CDo(x, exeff.CReturn(exeff.EUnit()), exeff.CReturn(exeff.EVar(x)))
    stepped = exeff.step_comp(c)
    assert stepped == exeff.CReturn(exeff.EUnit())


def test_do_return_beta_peels_cast_chain():
    sup = Supply()
    x = sup.term("x")
    unitco = exeff.CoBaseRefl(Base.UNIT)
    chain = exeff.CCast(
        exeff.CCast(
            exeff.CReturn(exeff.EUnit()),
            exeff.CoComp(unitco, exeff.CoEmpty(dirt(["Tick"]))),
        ),
        exeff.CoComp(unitco, exeff.CoOpUnion("Tick", exeff.CoEmpty(dirt(["Tock"])))),
    )
    c = exeff.CDo(x, chain, exeff.CReturn(exeff.EVar(x)))
    stepped = exeff.step_comp(c)
    # x is replaced by unit; the two pure parts of the chain are reflexive,
    # so they become no casts.
    assert stepped == exeff.CReturn(exeff.EUnit())


def widen_fn():
    """`fun y -> return y`, a coercion widening its type Unit -> Unit ! ∅,
    and the wider type Unit -> Unit ! {Tick}."""
    y = Supply().term("y")
    lam = exeff.EAbs(y, T_UNIT, exeff.CReturn(exeff.EVar(y)))
    unit = exeff.CoBaseRefl(Base.UNIT)
    widen = exeff.CoArrow(unit, exeff.CoComp(unit, exeff.CoEmpty(dirt(["Tick"]))))
    return lam, widen, TArrow(T_UNIT, CompType(T_UNIT, dirt(["Tick"])))


def test_do_return_beta_keeps_a_widening_value_part():
    lam, widen, wide_ty = widen_fn()
    x = Supply().term("x")
    chain = exeff.CCast(
        exeff.CCast(exeff.CReturn(lam), exeff.CoComp(widen, exeff.CoEmpty(dirt(["Tock"])))),
        exeff.CoComp(exeff.refl_of(wide_ty), exeff.CoOpUnion("Tock", exeff.CoEmpty(dirt(["Tick"])))),
    )
    stepped = exeff.step_comp(exeff.CDo(x, chain, exeff.CReturn(exeff.EVar(x))))
    # Of the two value parts, only the reflexive one goes.
    assert stepped == exeff.CReturn(exeff.ECast(lam, widen))


def test_push_application_rule():
    sup = Supply()
    x = sup.term("x")
    lam = exeff.EAbs(x, T_UNIT, exeff.CReturn(exeff.EVar(x)))
    widen = exeff.CoComp(exeff.CoBaseRefl(Base.UNIT), exeff.CoEmpty(dirt(["Tick"])))
    c = exeff.CApp(exeff.ECast(lam, exeff.CoArrow(exeff.CoBaseRefl(Base.UNIT), widen)), exeff.EUnit())
    stepped = exeff.step_comp(c)
    # The argument's part of the coercion is reflexive: no cast for it.
    assert stepped == exeff.CCast(exeff.CApp(lam, exeff.EUnit()), widen)


def test_push_application_rule_casts_a_widened_argument():
    # h = fun (g : Unit -> Unit ! {Tick}) -> g unit, cast to accept a pure g
    # and to widen its result to {Tick, Tock}: both parts of the coercion
    # widen, so the push rule builds both casts.
    env = _env(tick_tock_signature())
    arg, widen, wide_ty = widen_fn()
    g = Supply().term("g")
    h = exeff.EAbs(g, wide_ty, exeff.CApp(exeff.EVar(g), exeff.EUnit()))
    out = exeff.CoComp(exeff.CoBaseRefl(Base.UNIT), exeff.CoOpUnion("Tick", exeff.CoEmpty(dirt(["Tock"]))))
    c = exeff.CApp(exeff.ECast(h, exeff.CoArrow(widen, out)), arg)
    stepped = exeff.step_comp(c)
    assert stepped == exeff.CCast(exeff.CApp(h, exeff.ECast(arg, widen)), out)
    assert exeff.typecheck_comp(env, stepped) == exeff.typecheck_comp(env, c)


def test_section_6_2_beta_step():
    c1, c2 = erasure_discussion_pair()
    stepped = exeff.step_comp(c1)
    assert display.show(display.canonicalize(stepped)) == display.show(
        display.canonicalize(c2)
    )


def test_eval_return_zero_steps():
    out = exeff.eval_comp(exeff.CReturn(exeff.EUnit()))
    assert out.steps == 0
    assert out.result == exeff.CReturn(exeff.EUnit())


def test_eval_identity_handler():
    sup = Supply()
    x = sup.term("x")
    h = exeff.EHandler(x, T_UNIT, exeff.CReturn(exeff.EVar(x)))
    c = exeff.CHandle(h, exeff.CReturn(exeff.EUnit()))
    out = exeff.eval_comp(c)
    assert out.result == exeff.CReturn(exeff.EUnit())


def test_eval_unhandled_op_forwards():
    sig = tick_tock_signature()
    sup = Supply()
    x, y = sup.term("x"), sup.term("y")
    h = exeff.EHandler(x, T_UNIT, exeff.CReturn(exeff.EVar(x)))
    body = exeff.COp("Tick", exeff.EUnit(), y, T_UNIT, exeff.CReturn(exeff.EVar(y)))
    out = exeff.eval_comp(exeff.CHandle(h, body))
    got = out.result
    assert isinstance(got, exeff.COp) and got.op == "Tick"
    assert isinstance(got.body, exeff.CHandle)


def test_step_determinism_and_subject_reduction():
    ex = RunningExample()
    env = ex.env()
    sup = ex.supply
    f_def = exeff.CLet(ex.f_var, ex.poly_value, ex.app_tick())
    env0 = Context(ex.sig)
    ty = exeff.typecheck_comp(env0, f_def)
    t = f_def
    seen = 0
    while not exeff.is_comp_result(t):
        nxt = exeff.step_comp(t)
        assert nxt is not None
        assert alpha_eq(exeff.typecheck_comp(env0, nxt), ty)
        t = nxt
        seen += 1
        assert seen < 500
    assert isinstance(t, exeff.COp) and t.op == "Tick"


def test_evaluation_traces_reproducible():
    from conftest import CORPUS
    from effc import infer, source

    sig, comp = source.parse_program((CORPUS / "p17_tick_tock_stop.eff").read_text())
    _, term, _ = infer.infer_and_default(sig, comp)
    t1 = exeff.eval_comp(term, keep_trace=True).trace
    t2 = exeff.eval_comp(term, keep_trace=True).trace
    assert t1 == t2


def test_cast_pushes_into_operation_continuation():
    sup = Supply()
    y = sup.term("y")
    co = exeff.CoComp(exeff.CoBaseRefl(Base.UNIT), exeff.CoOpUnion("Tick", exeff.CoEmpty(dirt(["Tock"]))))
    inner = exeff.COp(
        "Tick", exeff.EUnit(), y, T_UNIT,
        exeff.CCast(
            exeff.CReturn(exeff.EVar(y)),
            exeff.CoComp(exeff.CoBaseRefl(Base.UNIT), exeff.CoEmpty(dirt(["Tick"]))),
        ),
    )
    stepped = exeff.step_comp(exeff.CCast(inner, co))
    assert isinstance(stepped, exeff.COp)
    assert isinstance(stepped.body, exeff.CCast)
    assert stepped.body.co == co


def test_cast_handler_pushes_outward():
    # A handler of Unit ! {Tick} into Unit ! ∅, cast to one of Unit ! ∅
    # into Unit ! {Tock}: both parts of the coercion widen.
    sup = Supply()
    x, p, k = sup.term("x"), sup.term("p"), sup.term("k")
    tick = exeff.OpClause("Tick", p, k, exeff.CApp(exeff.EVar(k), exeff.EUnit()))
    h = exeff.EHandler(x, T_UNIT, exeff.CReturn(exeff.EVar(x)), (tick,))
    unit = exeff.CoBaseRefl(Base.UNIT)
    narrow_in = exeff.CoComp(unit, exeff.CoEmpty(dirt(["Tick"])))
    widen_out = exeff.CoComp(unit, exeff.CoEmpty(dirt(["Tock"])))
    c = exeff.CHandle(exeff.ECast(h, exeff.CoHandler(narrow_in, widen_out)), exeff.CReturn(exeff.EUnit()))
    assert exeff.typecheck_comp(_env(tick_tock_signature()), c) == CompType(T_UNIT, dirt(["Tock"]))
    stepped = exeff.step_comp(c)
    assert stepped == exeff.CCast(
        exeff.CHandle(h, exeff.CCast(exeff.CReturn(exeff.EUnit()), narrow_in)), widen_out
    )
    out = exeff.eval_comp(c)
    assert exeff.is_terminal_comp(out.result)


def test_handle_return_peels_cast_chain():
    sup = Supply()
    x = sup.term("x")
    h = exeff.EHandler(x, T_UNIT, exeff.CReturn(exeff.EVar(x)))
    chain = exeff.CCast(
        exeff.CReturn(exeff.EUnit()),
        exeff.CoComp(exeff.CoBaseRefl(Base.UNIT), exeff.CoEmpty(dirt(["Tick"]))),
    )
    stepped = exeff.step_comp(exeff.CHandle(h, chain))
    # The chain's value part is reflexive: unit is returned without a cast.
    assert stepped == exeff.CReturn(exeff.EUnit())


def test_handle_return_keeps_a_widening_value_part():
    lam, widen, wide_ty = widen_fn()
    x = Supply().term("x")
    h = exeff.EHandler(x, wide_ty, exeff.CReturn(exeff.EVar(x)))
    chain = exeff.CCast(exeff.CReturn(lam), exeff.CoComp(widen, exeff.CoEmpty(dirt(["Tick"]))))
    stepped = exeff.step_comp(exeff.CHandle(h, chain))
    assert stepped == exeff.CReturn(exeff.ECast(lam, widen))


def test_a_base_reflexive_cast_steps_away():
    # No code path builds this cast, but the paper's rule for it stays.
    v = exeff.ECast(exeff.EUnit(), exeff.CoBaseRefl(Base.UNIT))
    assert exeff.step_comp(exeff.CReturn(v)) == exeff.CReturn(exeff.EUnit())
