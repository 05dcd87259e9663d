"""Effect erasure: type preservation, semantics, congruence checking."""

import dataclasses
import random
from functools import partial

import pytest

from effc import exeff, infer, pipeline, skeleff, source
from effc.core import (
    Base,
    Context,
    SkelArrow,
    SkelBase,
    SkelForall,
    SkelHandler,
    Skeleton,
    Supply,
    TBase,
    TermVar,
    WfError,
    dirt,
    skeleton,
)
from effc.traverse import alpha_eq
from gen_helpers import program_texts, random_program
from paper_examples import RunningExample, erasure_discussion_pair, tick_tock_signature

T_UNIT = TBase(Base.UNIT)
SK_UNIT = SkelBase(Base.UNIT)


def _context(sig):
    """The SkelEff context over `sig`'s erased signature."""
    return Context(sig.map(partial(skeleton, {})))


def test_erase_running_example_value():
    ex = RunningExample()
    erased = skeleff.erase_value({}, ex.poly_value)
    # skfun s. fun (g : Unit -> s) -> g unit
    assert isinstance(erased, exeff.ESkelAbs)
    fn = erased.body
    assert isinstance(fn, exeff.EAbs)
    assert fn.ty == SkelArrow(SK_UNIT, erased.var)
    assert isinstance(fn.body, exeff.CApp)
    erased_ty = skeleton({}, ex.poly_type)
    assert alpha_eq(erased_ty, SkelForall(erased.var, SkelArrow(SkelArrow(SK_UNIT, erased.var), erased.var)))


def test_erase_applications_keep_only_skeletons():
    ex = RunningExample()
    env = ex.env()
    for app in (ex.app_id(), ex.app_tick()):
        erased = skeleff.erase_comp(dict(env.ty), app)
        assert isinstance(erased, exeff.CApp)
        fn = erased.fn
        assert isinstance(fn, exeff.ESkelApp)
        assert fn.skel == SK_UNIT
        assert isinstance(fn.val, exeff.EVar)


def test_erase_drops_casts():
    v = exeff.ECast(exeff.EUnit(), exeff.CoBaseRefl(Base.UNIT))
    assert skeleff.erase_value({}, v) == exeff.EUnit()


# What a SkelEff term may hold: its forms, skeletons and term variables.
FRAGMENT = skeleff.FORMS + Skeleton + (TermVar,)


def _outside_fragment(t) -> list:
    """The classes of the nodes in or under `t` that are not in FRAGMENT."""
    out, todo = [], [t]
    while todo:
        u = todo.pop()
        if type(u) is tuple:
            todo.extend(u)
        elif dataclasses.is_dataclass(u):
            if not isinstance(u, FRAGMENT):
                out.append(type(u).__name__)
            todo.extend(getattr(u, f.name) for f in dataclasses.fields(u))
    return out


def test_erased_terms_and_their_traces_stay_in_the_fragment(corpus_paths):
    # SkelEff terms are built from ExEff's classes, so only erasure and the
    # step rules keep casts and type, dirt and coercion binders out of them.
    checked = 0
    for name, text in program_texts(corpus_paths, 300):
        art = pipeline.compile_text(text, "skeleff")
        for t in skeleff.REDUCTION.run(art.skeleff_term, keep_trace=True)[2]:
            assert _outside_fragment(t) == [], name
            checked += 1
    assert checked > 900


def test_the_fragment_excludes_casts():
    cast = exeff.ECast(exeff.EUnit(), exeff.CoBaseRefl(Base.UNIT))
    assert _outside_fragment(exeff.CReturn(cast)) == ["ECast", "CoBaseRefl"]
    with pytest.raises(TypeError, match="ECast is not a SkelEff form"):
        skeleff.typecheck_sk(_context(tick_tock_signature()), exeff.CReturn(cast))
    with pytest.raises(TypeError, match="no reduction rules for ECast"):
        skeleff.step_sk(exeff.CReturn(cast))


def test_typecheck_erased_running_example():
    ex = RunningExample()
    erased = skeleff.erase_value({}, ex.poly_value)
    got = skeleff.typecheck_sk(_context(ex.sig), erased)
    assert alpha_eq(got, skeleton({}, ex.poly_type))


def test_typecheck_sk_unit():
    assert skeleff.typecheck_sk(_context(tick_tock_signature()), exeff.EUnit()) == SK_UNIT


def test_unbound_skeleton_variables_are_rejected():
    sup = Supply()
    x, s, free = sup.term("x"), sup.skel(), sup.skel()
    ret_x = exeff.CReturn(exeff.EVar(x))
    env = _context(tick_tock_signature())
    # Each position that names a skeleton: an abstraction's binder, a
    # handler's return binder, a skeleton application's argument.
    for bad in (
        exeff.EAbs(x, free, ret_x),
        exeff.EHandler(x, free, ret_x),
        exeff.ESkelApp(exeff.ESkelAbs(s, exeff.EUnit()), free),
    ):
        with pytest.raises(WfError, match=f"unbound skeleton variable s{free.id}"):
            skeleff.typecheck_sk(env, exeff.CReturn(bad))
    # The same positions with the variable in scope are accepted.
    assert skeleff.typecheck_sk(env, exeff.ESkelAbs(s, exeff.EAbs(x, s, ret_x))) == SkelForall(
        s, SkelArrow(s, s)
    )


def test_typecheck_sk_handler_matches_erased_core_handler():
    sig = tick_tock_signature()
    sup = Supply()
    x = sup.term("x")
    core = exeff.EHandler(x, T_UNIT, exeff.CReturn(exeff.EVar(x)))
    core_ty = exeff.typecheck_value(Context(sig), core)
    erased = skeleff.erase_value({}, core)
    got = skeleff.typecheck_sk(_context(sig), erased)
    assert got == SkelHandler(SK_UNIT, SK_UNIT)
    assert got == skeleton({}, core_ty)


def test_step_skeleton_beta():
    sup = Supply()
    sk = sup.skel()
    v = exeff.ESkelApp(exeff.ESkelAbs(sk, exeff.EUnit()), SK_UNIT)
    assert skeleff.step_sk(v) == exeff.EUnit()


def test_step_do_return():
    sup = Supply()
    x = sup.term("x")
    c = exeff.CDo(x, exeff.CReturn(exeff.EUnit()), exeff.CReturn(exeff.EVar(x)))
    assert skeleff.step_sk(c) == exeff.CReturn(exeff.EUnit())


def test_step_handle_op():
    sig = tick_tock_signature()
    sup = Supply()
    x, p, k, y = sup.term("x"), sup.term("p"), sup.term("k"), sup.term("y")
    h = exeff.EHandler(
        x, SK_UNIT, exeff.CReturn(exeff.EVar(x)),
        (exeff.OpClause("Tick", p, k, exeff.CApp(exeff.EVar(k), exeff.EVar(p))),),
    )
    body = exeff.COp("Tick", exeff.EUnit(), y, SK_UNIT, exeff.CReturn(exeff.EVar(y)))
    stepped = skeleff.step_sk(exeff.CHandle(h, body))
    assert isinstance(stepped, exeff.CApp)
    out, _ = skeleff.eval_sk(exeff.CHandle(h, body))
    assert out == exeff.CReturn(exeff.EUnit())


# -- normalization and congruence ------------------------------------------------


def test_normalize_section_6_2_pair():
    c1, c2 = erasure_discussion_pair()
    e1 = skeleff.erase_comp({}, c1)
    e2 = skeleff.erase_comp({}, c2)
    n1 = skeleff.normalize_full(e1)
    n2 = skeleff.normalize_full(e2)
    assert skeleff.alpha_eq_sk(n1, n2)
    # return (fun (y : Unit) -> return unit)
    assert isinstance(n1, exeff.CReturn)
    lam = n1.val
    assert isinstance(lam, exeff.EAbs)
    assert lam.body == exeff.CReturn(exeff.EUnit())


def test_normalize_trivial():
    c = exeff.CReturn(exeff.EUnit())
    assert skeleff.normalize_full(c) == c


def test_normalize_idempotent_and_order_insensitive():
    c1, _ = erasure_discussion_pair()
    e1 = skeleff.erase_comp({}, c1)
    n = skeleff.normalize_full(e1)
    assert skeleff.alpha_eq_sk(skeleff.normalize_full(n), n)
    for seed in range(5):
        rng = random.Random(seed)
        assert skeleff.alpha_eq_sk(skeleff.normalize_full(e1, rng=rng), n)


def test_congruent_reflexive():
    c1, _ = erasure_discussion_pair()
    e1 = skeleff.erase_comp({}, c1)
    assert skeleff.congruent(e1, e1)


def test_congruent_section_6_2():
    c1, c2 = erasure_discussion_pair()
    assert skeleff.congruent(skeleff.erase_comp({}, c1), skeleff.erase_comp({}, c2))


def test_coercion_irrelevance_single_pair():
    # Evaluating v and v |> co gives erasure-congruent results.
    sup = Supply()
    sig = tick_tock_signature()
    x = sup.term("x")
    v = exeff.EAbs(x, T_UNIT, exeff.CReturn(exeff.EVar(x)))
    co = exeff.CoArrow(
        exeff.CoBaseRefl(Base.UNIT),
        exeff.CoComp(exeff.CoBaseRefl(Base.UNIT), exeff.CoEmpty(dirt(["Tick"]))),
    )
    r1 = exeff.VALUE_REDUCTION.run(v)[0]
    r2 = exeff.VALUE_REDUCTION.run(exeff.ECast(v, co))[0]
    assert skeleff.congruent(skeleff.erase_value({}, r1), skeleff.erase_value({}, r2))


def test_erasure_semantic_preservation_along_trace(corpus_paths):
    # Checked exhaustively in the acceptance suite; spot-check two programs here.
    for path in corpus_paths[:2]:
        sig, comp = source.parse_program(path.read_text())
        _, term, _ = infer.infer_and_default(sig, comp)
        t = term
        while not exeff.is_comp_result(t):
            nxt = exeff.step_comp(t)
            assert skeleff.congruent(skeleff.erase_comp({}, t), skeleff.erase_comp({}, nxt))
            t = nxt


def test_erasure_type_preservation_random():
    rng = random.Random(11)
    for _ in range(40):
        sig, comp = random_program(rng, depth=3)
        try:
            cty, term, _ = infer.infer_and_default(sig, comp)
        except Exception:
            continue
        erased = skeleff.erase_comp({}, term)
        got = skeleff.typecheck_sk(_context(sig), erased)
        assert alpha_eq(got, skeleton({}, cty))
