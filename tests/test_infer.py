"""Inference: constraint generation, the solver, split, and the driver."""

import pytest

from effc import exeff, infer, pipeline, source
from effc.core import (
    SKEL_INT,
    SKEL_UNIT,
    Base,
    CompType,
    Context,
    CoVar,
    DirtClash,
    DirtSub,
    DirtVar,
    EMPTY_DIRT,
    OccursCheck,
    SkelArrow,
    SkelBase,
    SkelForall,
    SkelHandler,
    SkelVar,
    SkeletonClash,
    SolveError,
    Supply,
    TArrow,
    TBase,
    TermVar,
    TyVar,
    TySub,
    UnboundVariable,
    WfError,
    dirt,
    dirt_var,
    skeleton,
)
from effc.traverse import alpha_eq, free_vars, substitute
from conftest import CORPUS, qualifiers
from gen_helpers import make_signature, program_texts, signature_header
from paper_examples import RunningExample, tick_tock_signature

T_UNIT = TBase(Base.UNIT)


def _infer_text(text):
    sig, comp = source.parse_program(text)
    return sig, comp, infer.infer_top(sig, comp)


# -- generation -----------------------------------------------------------------


def test_gen_return_unit_is_pure_and_identity():
    sig = tick_tock_signature()
    session = infer.Session(sig)
    _, comp = source.parse_program("return unit")
    cty, q, term = infer.gen_comp(session, [], {}, comp)
    assert cty == CompType(T_UNIT, EMPTY_DIRT)
    assert q == []
    assert session.solved.is_empty()
    assert term == exeff.CReturn(exeff.EUnit())


def test_gen_do_introduces_fresh_dirt_and_casts():
    sig = tick_tock_signature()
    session = infer.Session(sig)
    _, comp = source.parse_program("do x <- return unit in return unit")
    cty, q, term = infer.gen_comp(session, [], {}, comp)
    subs = [it for it in q if isinstance(it, infer.SubCt)]
    assert len(subs) == 2
    assert all(isinstance(it.constraint, DirtSub) for it in subs)
    d = cty.dirt
    assert d.tail is not None and not d.ops
    assert subs[0].constraint.rhs == d and subs[1].constraint.rhs == d
    assert isinstance(term, exeff.CDo)
    assert isinstance(term.first, exeff.CCast) and isinstance(term.second, exeff.CCast)
    assert isinstance(term.first.co, exeff.CoComp)


def test_gen_variable_instantiates_scheme():
    ex = RunningExample()
    session = infer.Session(ex.sig)
    env = {ex.f_var.id: (ex.f_var, ex.poly_type)}
    v = source.SrcVar(ex.f_var)
    a, q, term = infer.gen_value(session, [], env, v)
    # One skeleton application, two type, two dirt, two coercion applications.
    count = {"sk": 0, "ty": 0, "di": 0, "co": 0}
    t = term
    while not isinstance(t, exeff.EVar):
        if isinstance(t, exeff.ESkelApp):
            count["sk"] += 1
        elif isinstance(t, exeff.ETyApp):
            count["ty"] += 1
        elif isinstance(t, exeff.EDirtApp):
            count["di"] += 1
        elif isinstance(t, exeff.ECoApp):
            count["co"] += 1
        t = t.val
    assert count == {"sk": 1, "ty": 2, "di": 2, "co": 2}
    subs = [it for it in q if isinstance(it, infer.SubCt)]
    anns = [it for it in q if isinstance(it, infer.SkelAnn)]
    assert len(subs) == 2 and len(anns) == 2


# -- split -----------------------------------------------------------------------


def _let_value_session(sig):
    """A session whose next variables are made in the value of a let at
    level 0; `split` runs at that level once `session.level` is back to 0."""
    session = infer.Session(sig)
    session.level = 1
    return session


def test_split_empty():
    *out, merged = infer.split(infer.Session(tick_tock_signature()), [], T_UNIT)
    assert out == [[], [], [], [], []]
    assert merged.is_empty()


def test_split_running_example_instance():
    session = _let_value_session(tick_tock_signature())
    sup = session.supply
    sk = sup.skel()
    a = session.fresh_ty(sk)
    a2 = session.fresh_ty(sk)
    d, d2 = sup.dirt(), sup.dirt()
    session.level = 0
    w, w2 = sup.co(), sup.co()
    q = [
        infer.SkelAnn(a, sk),
        infer.SkelAnn(a2, sk),
        infer.SubCt(w, TySub(a, a2)),
        infer.SubCt(w2, DirtSub(dirt_var(d), dirt_var(d2))),
    ]
    ty = TArrow(TArrow(T_UNIT, CompType(a, dirt_var(d))), CompType(a2, dirt_var(d2)))
    gen_skel, ty_binders, gen_dirt, generalized, floated, _ = infer.split(session, q, ty)
    assert gen_skel == [sk]
    assert [v for v, _ in ty_binders] == [a, a2]
    assert gen_dirt == [d, d2]
    assert [wv for wv, _ in generalized] == [w, w2]
    assert floated == []


def test_split_merges_a_repeated_qualifier():
    session = _let_value_session(tick_tock_signature())
    sup = session.supply
    d, d2 = sup.dirt(), sup.dirt()
    w, w2, w3 = sup.co(), sup.co(), sup.co()
    session.level = 0
    q = [
        infer.SubCt(w, DirtSub(dirt_var(d), dirt_var(d2))),
        infer.SubCt(w2, DirtSub(dirt_var(d2), dirt_var(d))),
        infer.SubCt(w3, DirtSub(dirt_var(d), dirt_var(d2))),
    ]
    ty = TArrow(TArrow(T_UNIT, CompType(T_UNIT, dirt_var(d))), CompType(T_UNIT, dirt_var(d2)))
    _, _, _, generalized, _, merged = infer.split(session, q, ty)
    assert [wv for wv, _ in generalized] == [w, w2]
    assert merged.co == {w3.id: exeff.CoVarRef(w)}


def test_split_keeps_the_first_of_equal_qualifiers():
    # Equal, not identical: each constraint is built afresh.
    session = _let_value_session(tick_tock_signature())
    sup = session.supply
    d, d2 = sup.dirt(), sup.dirt()
    w, w2, w3, w4 = (sup.co() for _ in range(4))
    session.level = 0
    q = [
        infer.SubCt(w, DirtSub(dirt_var(d), dirt_var(d2))),
        infer.SubCt(w2, DirtSub(dirt_var(d), dirt_var(d2))),
        infer.SubCt(w3, DirtSub(dirt_var(d2), dirt_var(d))),
        infer.SubCt(w4, DirtSub(dirt_var(d), dirt_var(d2))),
    ]
    ty = TArrow(TArrow(T_UNIT, CompType(T_UNIT, dirt_var(d))), CompType(T_UNIT, dirt_var(d2)))
    _, _, _, generalized, _, merged = infer.split(session, q, ty)
    assert generalized == [(w, q[0].constraint), (w3, q[2].constraint)]
    assert merged.co == {w2.id: exeff.CoVarRef(w), w4.id: exeff.CoVarRef(w)}


def test_let_schemes_repeat_no_qualifier(corpus_paths):
    # `twice` in p28 used to carry [d0 <= d1] twice.  Every program still
    # re-typechecks with the repeats merged.
    for name, text in program_texts(corpus_paths):
        for _, scheme in pipeline.infer_text(text).session.let_schemes:
            cts = qualifiers(scheme)
            assert len(cts) == len(set(cts)), name


def test_split_env_keeps_variable_free():
    session = infer.Session(tick_tock_signature())
    sup = session.supply
    sk = sup.skel()
    a = session.fresh_ty(sk)  # made outside the let, as its environment's variables are
    session.level = 1
    a2 = session.fresh_ty(sk)
    w = sup.co()
    q = [infer.SkelAnn(a, sk), infer.SkelAnn(a2, sk), infer.SubCt(w, TySub(a, a2))]
    session.level = 0
    gen_skel, ty_binders, gen_dirt, generalized, floated, _ = infer.split(session, q, a2)
    assert [v for v, _ in ty_binders] == [a2]
    # The constraint still generalizes: its free variables are not all in the env.
    assert [wv for wv, _ in generalized] == [w]
    # a's annotation floats, and its skeleton must not generalize.
    assert gen_skel == []
    assert any(isinstance(it, infer.SkelAnn) and it.var == a for it in floated)


# -- solver ----------------------------------------------------------------------


def _solve_items(items, sig=None):
    session = infer.Session(sig or make_signature())
    return session, *infer.solve(session, items)


def test_solve_open_open_dirt_instantiates_tail():
    session = infer.Session(make_signature())
    sup = session.supply
    d1, d2 = sup.dirt(), sup.dirt()
    w = sup.co()
    items = [infer.SubCt(w, DirtSub(dirt(["Tick"], d1), dirt(["Tock"], d2)))]
    s, residual = infer.solve(session, items)
    repl = s.dirt[d2.id]
    assert repl.ops == frozenset(["Tick"]) and repl.tail is not None
    co = s.co[w.id]
    assert isinstance(co, exeff.CoOpUnion) and co.op == "Tick"
    assert len(residual) == 1
    ct = residual[0].constraint
    assert ct.lhs == dirt_var(d1)
    assert ct.rhs == dirt(["Tick", "Tock"], repl.tail)


def test_solve_empty_below_anything():
    session = infer.Session(make_signature())
    sup = session.supply
    d = sup.dirt()
    w = sup.co()
    items = [infer.SubCt(w, DirtSub(EMPTY_DIRT, dirt(["Tick"], d)))]
    s, residual = infer.solve(session, items)
    assert residual == []
    assert s.co[w.id] == exeff.CoEmpty(dirt(["Tick"], d))


def test_solve_var_below_empty():
    session = infer.Session(make_signature())
    sup = session.supply
    d = sup.dirt()
    w = sup.co()
    items = [infer.SubCt(w, DirtSub(dirt_var(d), EMPTY_DIRT))]
    s, residual = infer.solve(session, items)
    assert residual == []
    assert s.dirt[d.id] == EMPTY_DIRT
    assert s.co[w.id] == exeff.CoEmpty(EMPTY_DIRT)


def residual_env(sig, outcome_or_residual, extra_dirts=()):
    """A core environment binding all variables left free by solving."""
    residual = getattr(outcome_or_residual, "residual", outcome_or_residual)
    env = Context(sig)
    skels = set()
    for it in residual:
        if isinstance(it, infer.SkelAnn):
            skels.add(it.skel)
    for sk in skels:
        env = env.bind(sk)
    for it in residual:
        if isinstance(it, infer.SkelAnn):
            env = env.bind(it.var, it.skel)
    dirts = set(extra_dirts)
    for it in residual:
        if isinstance(it, infer.SubCt):
            for side in (it.constraint.lhs, it.constraint.rhs):
                if hasattr(side, "tail") and side.tail is not None:
                    dirts.add(side.tail)
    for d in dirts:
        env = env.bind(d)
    for it in residual:
        if isinstance(it, infer.SubCt):
            env = env.bind(it.co, it.constraint)
    return env


def _check_solved_coercions(text) -> int:
    """Typecheck every solved coercion of the final solve; returns how many."""
    sig, comp = source.parse_program(text)
    outcome = infer.infer_top(sig, comp)
    originals = {it.co.id: it.constraint for it in outcome.generated if isinstance(it, infer.SubCt)}
    s2 = outcome.subst
    env = residual_env(sig, outcome.residual)
    # Dirt variables can occur in coercion ranges without a residual constraint.
    for wid, co in s2.co.items():
        for d in free_dirt_vars_of_coercion(co):
            env = env.bind(d)
    checked = 0
    for wid, ct in originals.items():
        want = exeff.substitute(s2, ct)
        if wid in s2.co:
            got = exeff.typecheck_coercion(env, s2.co[wid])
            assert got == want, (wid, got, want)
            checked += 1
    return checked


def test_solved_coercions_typecheck_at_their_constraints():
    # The coercion variables of the final queue are free in the elaborated
    # term, never scheme-bound (a let's own constraints are solved before it
    # is generalized): every solved one must check against its fully
    # substituted original constraint.
    assert _check_solved_coercions(signature_header() + "(fun g -> g unit) (fun x -> Tick x)") >= 3
    for path in sorted(CORPUS.glob("*.eff")):
        _check_solved_coercions(path.read_text(encoding="utf-8"))


def free_dirt_vars_of_coercion(co):
    out = []
    if isinstance(co, (exeff.CoEmpty, exeff.CoDirtRefl)):
        if co.dirt.tail is not None:
            out.append(co.dirt.tail)
    elif isinstance(co, (exeff.CoArrow, exeff.CoHandler, exeff.CoComp)):
        first = co.dom if hasattr(co, "dom") else co.val
        second = co.cod if hasattr(co, "cod") else co.dirt
        out += free_dirt_vars_of_coercion(first)
        out += free_dirt_vars_of_coercion(second)
    elif isinstance(co, exeff.CoOpUnion):
        out += free_dirt_vars_of_coercion(co.rest)
    return out


def test_solve_skeleton_occurs_check():
    text = "(fun f -> f f) (fun x -> return x)"
    sig, comp = source.parse_program(text)
    with pytest.raises(OccursCheck):
        infer.infer_top(sig, comp)


def test_solve_skeleton_clash_handler_as_function():
    text = "(handler { return x -> return x }) unit"
    sig, comp = source.parse_program(text)
    with pytest.raises(SkeletonClash):
        infer.infer_top(sig, comp)


def test_solve_equates_two_handler_skeletons(monkeypatch):
    # `c` returns its first handler, so the type of the second argument's
    # handler and that of `h` meet in a skeleton equation between two
    # handler skeletons, which the solver decomposes into its domains and
    # codomains.  The program is kept out of the corpus, so no golden moves.
    text = (
        "effect Tick : Unit -> Unit\n"
        "do c <- (fun a -> return (fun b -> return a)) (handler { return x -> return x }) in "
        "do h <- c (handler { return y -> return y }) in with h handle return unit\n"
    )
    solve_skel_eq = infer._solve_skel_eq
    handler_pairs = []

    def watched(st, item):
        if type(item.lhs) is SkelHandler and type(item.rhs) is SkelHandler:
            handler_pairs.append(item)
        return solve_skel_eq(st, item)

    monkeypatch.setattr(infer, "_solve_skel_eq", watched)
    report = pipeline.differential_check_text(text)
    assert handler_pairs
    assert report.agreement, report.failure
    assert {str(obs) for obs in report.observations.values()} == {"return unit"}
    assert set(report.observations) == {"exeff", "skeleff", "noeff"}


SK0, SK1 = SkelVar(0), SkelVar(1)
SOLVER_ERRORS = {
    "occurs-on-the-left": (
        infer.SkelEq(SK0, SkelArrow(SK0, SK0)),
        OccursCheck,
        "occurs check: s0 in its own instantiation",
    ),
    "occurs-on-the-right": (
        infer.SkelEq(SkelArrow(SK0, SK0), SK0),
        OccursCheck,
        "occurs check: s0 in its own instantiation",
    ),
    "closed-dirt-below-closed-dirt": (
        infer.SubCt(CoVar(0), DirtSub(dirt(["Tick"]), dirt(["Tock"]))),
        DirtClash,
        "operations ['Tick'] cannot flow into {Tock}",
    ),
    "open-dirt-below-closed-dirt": (
        infer.SubCt(CoVar(0), DirtSub(dirt(["Tick"], DirtVar(0)), dirt(["Tock"]))),
        DirtClash,
        "operations ['Tick'] cannot flow into {Tock}",
    ),
    "skeleton-clash": (infer.SkelEq(SKEL_UNIT, SKEL_INT), SkeletonClash, "skeletons do not unify: Unit vs Int"),
    "quantified-skeleton": (
        infer.SkelAnn(TyVar(0), SkelForall(SK1, SK1)),
        SolveError,
        "cannot instantiate a type variable at skeleton all s1. s1",
    ),
}


@pytest.mark.parametrize("name", list(SOLVER_ERRORS))
def test_solver_errors_name_the_clash(name):
    item, error, message = SOLVER_ERRORS[name]
    with pytest.raises(error) as e:
        _solve_items([item])
    assert e.value.msg == message


def test_a_pending_coercion_variable_is_never_substituted():
    w = CoVar(0)
    item = infer.SubCt(w, TySub(T_UNIT, T_UNIT))
    with pytest.raises(AssertionError, match="^pending coercion variable must never be substituted$"):
        infer.subst_item(exeff.Subst(co={w.id: exeff.CoBaseRefl(Base.UNIT)}), item)


def _stale_rhs(s, item, subst_item=infer.subst_item):
    """A deliberately wrong `subst_item`: a dirt constraint's right side is
    left as it was."""
    if type(item) is infer.SubCt and type(item.constraint) is DirtSub:
        ct = item.constraint
        return infer.SubCt(item.co, DirtSub(exeff.subst_dirt(s, ct.lhs), ct.rhs), item.span)
    return subst_item(s, item)


def _shortcut_disagreements(monkeypatch, corpus_paths, shortcut) -> tuple:
    """Compile the corpus and the generated programs with `shortcut` in place
    of `subst_item`, and compare each of its results with the generic
    `substitute`: equal, and the item itself exactly when the generic walk
    returns the item itself.  Returns (the disagreements, the item classes
    that changed).  A compile that fails counts only for what it compared."""
    bad, changed = [], set()

    def checked(s, item):
        got, want = shortcut(s, item), substitute(s, item)
        if got != want or (got is item) != (want is item):
            bad.append((item, got, want))
        if want is not item:
            changed.add(type(item.constraint) if type(item) is infer.SubCt else type(item))
        return got

    monkeypatch.setattr(infer, "subst_item", checked)
    for _, text in program_texts(corpus_paths):
        try:
            pipeline.compile_text(text)
        except Exception:
            if not bad:
                raise
    return bad, changed


def test_subst_item_agrees_with_the_generic_substitution(monkeypatch, corpus_paths):
    bad, changed = _shortcut_disagreements(monkeypatch, corpus_paths, infer.subst_item)
    assert bad == []
    assert changed == {TySub, DirtSub, infer.SkelAnn, infer.SkelEq}


def test_a_stale_constraint_side_disagrees_with_the_generic_substitution(monkeypatch, corpus_paths):
    bad, _ = _shortcut_disagreements(monkeypatch, corpus_paths, _stale_rhs)
    assert any(got != want for _, got, want in bad)
    assert {type(item.constraint) for item, _, _ in bad} == {DirtSub}


def test_split_needs_an_annotation_for_each_generalized_type_variable():
    with pytest.raises(SolveError, match="^generalized type variable a0 lacks a skeleton annotation$"):
        session = _let_value_session(tick_tock_signature())
        a = session.supply.ty()
        session.level = 0
        infer.split(session, [], a)


def test_collapse_rejects_a_re_solve_that_binds_another_variable(monkeypatch):
    # Collapsing instantiates one variable at its bound and re-solves; a
    # solver that bound a second variable there would break the invariant.
    solve = infer.solve

    def wrong(session, items):
        out, residual = solve(session, items)
        session.bind(exeff.Subst(skel={session.supply.skel().id: SKEL_UNIT}))
        return out, residual

    monkeypatch.setattr(infer, "solve", wrong)
    with pytest.raises(AssertionError, match="^re-solving a collapsed residual bound a variable$"):
        pipeline.compile_text((CORPUS / "p28_apply_twice.eff").read_text())


def test_defaulting_rejects_a_residual_left_unsolved(monkeypatch):
    # The defaulted residual is ground, so solving it must leave nothing; the
    # check raises explicitly, which `python -O` does not strip.
    _, _, outcome = _infer_text((CORPUS / "p28_apply_twice.eff").read_text())
    solve = infer.solve
    left = infer.SubCt(CoVar(10**6), TySub(T_UNIT, T_UNIT))

    def leaves_one(session, items):
        out, residual = solve(session, items)
        return out, residual + [left]

    monkeypatch.setattr(infer, "solve", leaves_one)
    with pytest.raises(AssertionError, match="^defaulted residual constraints must solve completely$"):
        infer.default_residual(outcome)


def test_inference_rejects_an_unbound_variable():
    session = infer.Session(tick_tock_signature())
    with pytest.raises(UnboundVariable, match="^unbound variable z$"):
        infer.gen_value(session, [], {}, source.SrcVar(TermVar(9, "z")))


def test_skeleton_of_an_unbound_type_variable():
    with pytest.raises(WfError, match="^unbound type variable a5$"):
        skeleton({}, TyVar(5))


# -- skeletons of annotated types ---------------------------------------------------


def test_skeleton_of_clauses():
    session = infer.Session(tick_tock_signature())
    sk = session.supply.skel()
    a = session.fresh_ty(sk)
    assert skeleton(session.ann, a) == sk
    assert skeleton(session.ann, T_UNIT) == SkelBase(Base.UNIT)
    from effc.core import THandler

    h = THandler(CompType(a, EMPTY_DIRT), CompType(T_UNIT, dirt(["Tick"])))
    assert skeleton(session.ann, h) == SkelHandler(sk, SkelBase(Base.UNIT))


def test_elaborate_type_identity():
    # A let scheme is the bound value's ExEff type: a monomorphic one is the
    # type itself, a polymorphic one its quantified type.
    for text, want in (
        ("let x = unit in return x", T_UNIT),
        ("let f = fun g -> g unit in return unit", RunningExample().poly_type),
    ):
        _, _, outcome = _infer_text("effect Tick : Unit -> Unit\n" + text)
        [(_, scheme)] = outcome.session.let_schemes
        assert alpha_eq(scheme, want), text


# -- whole-program inference ----------------------------------------------------------


def test_infer_running_example_scheme():
    text = "let f = fun g -> g unit in f (fun x -> return x)"
    sig, comp, outcome = _infer_text("effect Tick : Unit -> Unit\n" + text)
    assert len(outcome.session.let_schemes) == 1
    _, scheme = outcome.session.let_schemes[0]
    ex = RunningExample()
    assert alpha_eq(scheme, ex.poly_type)


def test_infer_f_id_defaults_to_pure_unit():
    text = "effect Tick : Unit -> Unit\nlet f = fun g -> g unit in f (fun x -> return x)"
    sig, comp = source.parse_program(text)
    cty, term, _ = infer.infer_and_default(sig, comp)
    assert cty == CompType(T_UNIT, EMPTY_DIRT)


def test_infer_return_unit():
    sig, comp, outcome = _infer_text("return unit")
    assert outcome.cty == CompType(T_UNIT, EMPTY_DIRT)


def test_infer_tick_then_tock_dirt():
    text = (
        "effect Tick : Unit -> Unit\neffect Tock : Unit -> Unit\n"
        "let f = fun x -> Tock x in do y <- Tick unit in f y"
    )
    sig, comp = source.parse_program(text)
    cty, term, _ = infer.infer_and_default(sig, comp)
    assert cty == CompType(T_UNIT, dirt(["Tick", "Tock"]))


def test_elaboration_preserves_types_on_corpus(corpus_paths):
    for path in corpus_paths:
        sig, comp = source.parse_program(path.read_text())
        cty, term, _ = infer.infer_and_default(sig, comp)
        got = exeff.typecheck_comp(Context(sig), term)

        assert alpha_eq(got, cty), path.name


def test_dump_constraints_is_deterministic():
    text = signature_header() + "let f = fun g -> g unit in f (fun x -> Tick x)"
    from effc import pipeline

    sig1, comp1 = source.parse_program(text)
    out1 = pipeline.dump_constraints(infer.infer_top(sig1, comp1))
    sig2, comp2 = source.parse_program(text)
    out2 = pipeline.dump_constraints(infer.infer_top(sig2, comp2))
    assert out1 == out2
    assert "--- substitution ---" in out1


def test_split_postconditions_extensionally_random():
    import random as _random

    rng = _random.Random(31)
    sig = make_signature()
    for _ in range(60):
        session = _let_value_session(sig)
        sup = session.supply
        sks = [sup.skel() for _ in range(3)]
        tys = [session.fresh_ty(rng.choice(sks)) for _ in range(4)]
        dirts = [sup.dirt() for _ in range(3)]
        q = [infer.SkelAnn(a, session.ann[a.id]) for a in tys]
        for _ in range(rng.randint(0, 4)):
            w = sup.co()
            if rng.random() < 0.5:
                a, b = rng.sample(tys, 2)
                if session.ann[a.id] == session.ann[b.id]:
                    q.append(infer.SubCt(w, TySub(a, b)))
            else:
                d1, d2 = rng.sample(dirts, 2)
                q.append(infer.SubCt(w, DirtSub(dirt_var(d1), dirt_var(d2))))
        a_res = rng.choice(tys)
        env_ty = set()
        env_dirt = set()
        if rng.random() < 0.5:
            # The let's environment mentions one of the variables.
            in_env = rng.choice(tys)
            env_ty = {in_env.id}
            session.levels["ty", in_env.id] = 0
        session.level = 0
        gen_skel, ty_binders, gen_dirt, generalized, floated, merged = infer.split(session, q, a_res)
        # Direct evaluation of the set formulas.
        q_ty = {it.var.id for it in q if isinstance(it, infer.SkelAnn)}
        for it in q:
            if isinstance(it, infer.SubCt):
                q_ty |= {v.id for v in free_vars(it.constraint, TyVar)}
        want_gen_ty = (q_ty | {v.id for v in free_vars(a_res, TyVar)}) - env_ty
        assert {v.id for v, _ in ty_binders} == want_gen_ty
        ann = {it.var.id: it.skel for it in q if isinstance(it, infer.SkelAnn)}
        for sv in gen_skel:
            annotated = [aid for aid, sk in ann.items() if sk == sv]
            assert annotated and all(aid in want_gen_ty for aid in annotated)
        for w, ct in generalized:
            fv = {("t", v.id) for v in free_vars(ct, TyVar)} | {("d", v.id) for v in free_vars(ct, DirtVar)}
            envv = {("t", i) for i in env_ty} | {("d", i) for i in env_dirt}
            assert not fv <= envv
        # No two qualifiers repeat a constraint; a repeat is merged into the
        # first qualifier with its constraint.
        cts = [ct for _, ct in generalized]
        assert len(cts) == len(set(cts))
        first = {ct: w for w, ct in reversed(generalized)}
        for it in q:
            if isinstance(it, infer.SubCt) and it.co.id in merged.co:
                assert merged.co[it.co.id] == exeff.CoVarRef(first[it.constraint])
        for it in floated:
            if isinstance(it, infer.SubCt):
                fv = {("t", v.id) for v in free_vars(it.constraint, TyVar)} | {
                    ("d", v.id) for v in free_vars(it.constraint, DirtVar)
                }
                envv = {("t", i) for i in env_ty} | {("d", i) for i in env_dirt}
                assert fv <= envv


def test_solver_skeleton_discipline():
    # Processing a variable-sided subtyping constraint first equates both
    # sides' skeletons: solving [a : s, w : a <= Unit] must instantiate s.
    session = infer.Session(make_signature())
    sk = session.supply.skel()
    a = session.fresh_ty(sk)
    w = session.supply.co()
    items = [infer.SkelAnn(a, sk), infer.SubCt(w, TySub(a, T_UNIT))]
    s, residual = infer.solve(session, items)
    assert s.skel[sk.id] == SkelBase(Base.UNIT)
    assert s.ty[a.id] == T_UNIT
    assert residual == []
    assert s.co[w.id] == exeff.CoBaseRefl(Base.UNIT)


def test_elaborate_env_embeds_schemes():
    # The elaborated let binds a value whose ExEff type is its scheme.
    text = "effect Tick : Unit -> Unit\nlet f = fun g -> g unit in f (fun x -> return x)"
    sig, comp = source.parse_program(text)
    _, term, outcome = infer.infer_and_default(sig, comp)
    [(_, scheme)] = outcome.session.let_schemes
    assert alpha_eq(exeff.derive(Context(sig), term).of(term.val), scheme)
