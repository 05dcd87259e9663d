"""Acceptance suite: one check per criterion, each printing a PASS line.

Everything runs at desk scale; tolerances are exact (structural equality up
to canonical renaming) since the checked claims are all type-theoretic.
"""

import random
from functools import partial

import pytest

from effc import display, exeff, infer, noeff, pipeline, skeleff, source
from effc.core import (
    Base,
    CompType,
    Context,
    DirtSub,
    Dirt,
    Supply,
    TBase,
    TySub,
    dirt,
    skeleton,
)
from effc.traverse import alpha_eq
from conftest import CORPUS, GOLDEN
from gen_helpers import (
    make_signature,
    random_program,
    random_ty_pair,
    random_value_of,
)
from paper_examples import RunningExample, erasure_discussion_pair
import oracle
from source_printer import show_program
import test_solver_oracle as tso


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {text}")


@pytest.fixture(scope="module")
def corpus_programs():
    out = []
    for path in sorted(CORPUS.glob("*.eff")):
        sig, comp = source.parse_program(path.read_text())
        out.append((path.name, sig, comp))
    assert len(out) >= 30
    return out


@pytest.fixture(scope="module")
def random_programs():
    rng = random.Random(20260810)
    out = []
    while len(out) < 1000:
        depth = rng.randint(2, 6)
        sig, comp = random_program(rng, depth)
        out.append((f"random-{len(out)}", sig, comp))
    return out


@pytest.fixture(scope="module")
def elaborated(corpus_programs, random_programs):
    """Every program elaborated once, shared by several criteria."""
    out = []
    for name, sig, comp in corpus_programs + random_programs:
        cty, term, outcome = infer.infer_and_default(sig, comp)
        out.append((name, sig, cty, term))
    return out


def test_criterion_1_golden_scheme():
    sig, comp = source.parse_program(
        "effect Tick : Unit -> Unit\nlet f = fun g -> g unit in return unit"
    )
    outcome = infer.infer_top(sig, comp)
    (_, scheme), = outcome.session.let_schemes
    want = RunningExample().poly_type
    assert alpha_eq(scheme, want)
    canon = display.show(display.canonicalize(scheme))
    assert canon == display.show(display.canonicalize(want))
    report(1, f"inference yields the golden polymorphic scheme {canon}")


def test_criterion_2_elaboration_soundness(elaborated):
    checked = 0
    for name, sig, cty, term in elaborated:
        got = exeff.typecheck_comp(Context(sig), term)
        assert alpha_eq(got, cty), name
        checked += 1
    assert checked >= 1030
    report(2, f"core checker accepts all {checked} elaborated programs at their types")


def test_criterion_3_type_safety_along_traces(elaborated):
    fuel = 100_000
    programs = elaborated[:34] + elaborated[34 : 34 + 300]
    steps_total = 0
    for name, sig, cty, term in programs:
        env = Context(sig)
        ty = exeff.typecheck_comp(env, term)
        t = term
        steps = 0
        while not exeff.is_comp_result(t):
            nxt = exeff.step_comp(t)
            assert nxt is not None, f"{name}: well-typed non-result failed to step"
            got = exeff.typecheck_comp(env, nxt)
            assert alpha_eq(got, ty), f"{name}: a step changed the type"
            t = nxt
            steps += 1
            assert steps <= fuel
        steps_total += steps
    report(3, f"subject reduction and progress hold along {len(programs)} traces ({steps_total} steps)")


def test_criterion_4_erasure(elaborated):
    # Typing is preserved by erasure on every program; semantic preservation
    # via the congruence closure is checked along traces for a subset.
    for name, sig, cty, term in elaborated:
        erased = skeleff.erase_comp({}, term)
        got = skeleff.typecheck_sk(Context(sig.map(partial(skeleton, {}))), erased)
        assert alpha_eq(got, skeleton({}, cty)), name
    traced = 0
    for name, sig, cty, term in elaborated[:34] + elaborated[34 : 34 + 120]:
        t = term
        while not exeff.is_comp_result(t):
            nxt = exeff.step_comp(t)
            assert skeleff.congruent(
                skeleff.erase_comp({}, t), skeleff.erase_comp({}, nxt)
            ), name
            t = nxt
            traced += 1
    c1, c2 = erasure_discussion_pair()
    n1 = skeleff.normalize_full(skeleff.erase_comp({}, c1))
    n2 = skeleff.normalize_full(skeleff.erase_comp({}, c2))
    assert skeleff.alpha_eq_sk(n1, n2)
    report(
        4,
        f"erasure preserves types on {len(elaborated)} programs and semantics on "
        f"{traced} steps; the discussion pair normalizes alpha-equal",
    )


def test_criterion_5_coercion_irrelevance():
    rng = random.Random(5150)
    sup = Supply()
    sig = make_signature()
    env = Context(sig)
    pairs = 0
    while pairs < 200:
        small, big, co = random_ty_pair(rng, sup, 3)
        if small == big and rng.random() < 0.5:
            continue  # keep a healthy share of non-trivial casts
        v = random_value_of(rng, sup, small, 2)
        assert exeff.typecheck_value(env, v) == small
        ct = exeff.typecheck_coercion(env, co)
        assert ct == TySub(small, big)
        r1 = exeff.VALUE_REDUCTION.run(v)[0]
        r2 = exeff.VALUE_REDUCTION.run(exeff.ECast(v, co))[0]
        assert skeleff.congruent(
            skeleff.erase_value({}, r1), skeleff.erase_value({}, r2)
        )
        pairs += 1
    report(5, f"erased results of v and v|>co are congruent for {pairs} generated pairs")


def test_criterion_6_noeff_elaboration_typing(elaborated):
    for name, sig, cty, term in elaborated:
        nterm = noeff.elab_comp(exeff.derive(Context(sig), term), term)
        nenv = Context(sig.map(noeff.elab_vty))
        got = noeff.typecheck_noeff(nenv, nterm)
        want = noeff.elab_cty(cty)
        assert alpha_eq(got, want), name
    # The bridging coercions of dirt instantiation obey their typing lemma,
    # in both directions.
    rng = random.Random(66)
    sup = Supply()
    sig = make_signature()
    nenv = Context(sig.map(noeff.elab_vty))
    lemma_checked = 0
    for _ in range(200):
        d = sup.dirt()
        ty = _random_delta_type(rng, sup, d, depth=3)
        inst = Dirt(frozenset(op for op in ("Tick", "Tock") if rng.random() < 0.4))
        co = noeff.bridge(ty, d, inst, from_impure=True)
        before = noeff.elab_vty(ty)
        inst_ty = exeff.substitute(exeff.Subst.one_dirt(d, inst), ty)
        after = noeff.elab_vty(inst_ty)
        got = noeff.typecheck_noeff_coercion(nenv, co)
        assert alpha_eq(got.lhs, before)
        assert alpha_eq(got.rhs, after)
        back = noeff.typecheck_noeff_coercion(nenv, noeff.bridge(ty, d, inst, from_impure=False))
        assert alpha_eq(back.lhs, after)
        assert alpha_eq(back.rhs, before)
        lemma_checked += 1
    report(
        6,
        f"pure-backend checker accepts all {len(elaborated)} elaborations; "
        f"{lemma_checked} bridging coercions satisfy the typing lemma",
    )


def _random_delta_type(rng, sup, d, depth):
    from effc.core import TArrow, THandler

    if depth <= 0 or rng.random() < 0.4:
        return TBase(rng.choice((Base.UNIT, Base.INT)))

    def some_dirt():
        ops = frozenset(op for op in ("Tick", "Tock") if rng.random() < 0.3)
        tail = d if rng.random() < 0.5 else None
        return Dirt(ops, tail)

    if rng.random() < 0.7:
        return TArrow(
            _random_delta_type(rng, sup, d, depth - 1),
            CompType(_random_delta_type(rng, sup, d, depth - 1), some_dirt()),
        )
    return THandler(
        CompType(_random_delta_type(rng, sup, d, depth - 1), some_dirt()),
        CompType(_random_delta_type(rng, sup, d, depth - 1), some_dirt()),
    )


def test_criterion_7_noeff_no_stuck_and_differential(corpus_programs):
    checked = 0
    for name, sig, comp in corpus_programs:
        text = show_program(sig, comp)
        rep = pipeline.differential_check_text(text, name, check_each_step=False)
        assert rep.agreement, (name, rep.failure)
        checked += 1
    # The worked example applications evaluate without sticking and agree.
    ex = RunningExample()
    env = ex.env()
    for app, want in ((ex.app_id(), "return unit"), (ex.app_tick(), "operation Tick")):
        whole = exeff.CLet(ex.f_var, ex.poly_value, app)
        out = exeff.eval_comp(whole)
        assert str(pipeline.observe_exeff(out.result)) == want
        nterm = noeff.elab_comp(exeff.derive(Context(ex.sig), whole), whole)
        nres, _ = noeff.eval_noeff(nterm)
        assert str(pipeline.observe_noeff(nres)) == want
    report(7, f"no stuck terms and full observation agreement on {checked} programs + worked examples")


def test_criterion_8_solver_correctness():
    sets_checked = 0
    # Exhaustive single dirt constraints over the bounded shapes (144 sets).
    for i in range(tso.shape_count()):
        for j in range(tso.shape_count()):
            sess = tso.fresh_session()
            tails = [sess.supply.dirt(), sess.supply.dirt()]
            w = sess.supply.co()
            items = [
                infer.SubCt(
                    w, DirtSub(tso.build_shape(sess, tails, i), tso.build_shape(sess, tails, j))
                )
            ]
            tso.check_against_oracle(sess, items)
            sets_checked += 1
    # Deterministic family of paired dirt constraints (12 x 12 x 3 = 432 sets).
    combos = [(i, j) for i in range(tso.shape_count()) for j in range(tso.shape_count())]
    rng = random.Random(88)
    for i, j in combos:
        for k in (0, 5, 10):
            sess = tso.fresh_session()
            tails = [sess.supply.dirt(), sess.supply.dirt()]
            w1, w2 = sess.supply.co(), sess.supply.co()
            items = [
                infer.SubCt(
                    w1, DirtSub(tso.build_shape(sess, tails, i), tso.build_shape(sess, tails, j))
                ),
                infer.SubCt(
                    w2, DirtSub(tso.build_shape(sess, tails, k), tso.build_shape(sess, tails, i))
                ),
            ]
            tso.check_against_oracle(sess, items)
            sets_checked += 1
    # Type constraints with annotated variables.
    from effc.core import TArrow

    arrows = [TArrow(TBase(Base.UNIT), CompType(TBase(Base.UNIT), dd)) for dd in oracle.ground_dirts()]
    for arrow in arrows:
        for flip in (False, True):
            sess = tso.fresh_session()
            sk = sess.supply.skel()
            a = sess.fresh_ty(sk)
            w = sess.supply.co()
            ct = TySub(a, arrow) if not flip else TySub(arrow, a)
            items = [infer.SkelAnn(a, sk), infer.SubCt(w, ct)]
            tso.check_against_oracle(sess, items)
            sets_checked += 1
    assert sets_checked >= 500
    report(8, f"solver agrees with the ground oracle on {sets_checked} constraint sets")


def golden_displays() -> dict:
    """{golden file name: its text} for the running example and the erasure
    discussion of the paper."""
    ex = RunningExample()
    env = ex.env()
    sub = dict(env.ty)

    def C(x):
        return display.canonicalize(x)

    got = {
        "running_target.txt": "\n".join(
            [display.show(C(ex.poly_value)), display.show(C(ex.poly_type))]
        )
        + "\n",
        "running_erasure.txt": "\n".join(
            [
                display.show(C(skeleff.erase_value(sub, ex.poly_value))),
                display.show(C(skeleton({}, ex.poly_type))),
                display.show(C(skeleff.erase_comp(dict(sub), ex.app_id()))),
                display.show(C(skeleff.erase_comp(dict(sub), ex.app_tick()))),
            ]
        )
        + "\n",
    }
    poly_derived = exeff.Derivation(ex.sig)
    exeff.typecheck_value(Context(ex.sig), ex.poly_value, poly_derived)
    npoly = noeff.elab_value(poly_derived, ex.poly_value)
    na = noeff.elab_vty(ex.poly_type)
    app_id, app_tick = ex.app_id(), ex.app_tick()
    napp_id = noeff.elab_comp(exeff.derive(env, app_id), app_id)
    napp_tick = noeff.elab_comp(exeff.derive(env, app_tick), app_tick)
    got["running_noeff.txt"] = (
        "\n".join(
            [
                display.show(C(npoly)),
                display.show(C(na)),
                display.show(C(napp_id)),
                display.show(C(napp_tick)),
            ]
        )
        + "\n"
    )
    c1, c2 = erasure_discussion_pair()
    got["erasure_discussion.txt"] = (
        "\n".join(
            [
                display.show(C(c1)),
                display.show(C(c2)),
                display.show(C(skeleff.normalize_full(skeleff.erase_comp({}, c1)))),
            ]
        )
        + "\n"
    )
    return got


def test_criterion_9_golden_displays():
    got = golden_displays()
    for name, text in got.items():
        want = (GOLDEN / name).read_text()
        assert text == want, f"golden mismatch in {name}"
    report(9, f"{len(got)} golden example displays reproduce byte-for-byte")


def write_golden_displays() -> None:
    for name, text in golden_displays().items():
        (GOLDEN / name).write_text(text)
