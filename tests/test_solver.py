"""The solver's state: pinned dumps of long queues, the checks that guard its
invariants, a deterministic bound on its work, and the collapsing of
variables that occur only in constraints at generalization."""

import cProfile

import pytest

from effc import exeff, infer, pipeline, source, traverse
from effc.core import (
    Base,
    CompType,
    CoVar,
    DirtSub,
    EMPTY_DIRT,
    SkelBase,
    TArrow,
    TyVar,
    TySub,
    dirt,
    dirt_var,
)
from gen_helpers import make_signature

from conftest import CORPUS, TESTS, qualifiers

HEADER = (
    "effect Tick : Unit -> Unit\n"
    "effect Tock : Unit -> Unit\n"
    "effect Get : Unit -> Int\n"
    "effect Emit : Int -> Unit\n"
)


def nested_handlers(n: int) -> str:
    """n handlers nested inside each other; each performs and handles a Tick."""
    c = "Tick unit"
    for i in range(n):
        h = f"(handler {{ return x{i} -> return x{i}, Tick p{i} k{i} -> k{i} p{i} }})"
        c = f"with {h} handle (do u{i} <- (Tick unit) in {c})"
    return HEADER + c + "\n"


def handler_chain(n: int) -> str:
    """n alternating Get/Emit binds under one handler that resumes."""
    body = f"return a{(n - 1) // 2 * 2}"
    for i in reversed(range(n)):
        if i % 2 == 0:
            body = f"do a{i} <- (Get unit) in {body}"
        else:
            body = f"do u{i} <- (Emit a{i - 1}) in {body}"
    h = "(handler { return x -> return x, Get p k -> k 7, Emit q j -> j unit })"
    return HEADER + f"with {h} handle ({body})\n"


def let_poly(n: int) -> str:
    """n let-bound polymorphic functions, f_i = fun g -> f_{i-1} g."""
    c = f"f{n - 1} (fun x -> return x)"
    for i in reversed(range(1, n)):
        c = f"let f{i} = (fun g -> f{i - 1} g) in {c}"
    return HEADER + f"let f0 = (fun g -> g unit) in {c}\n"


PINNED = [("nested-handlers", nested_handlers, 6), ("handler-chain", handler_chain, 8), ("let-poly", let_poly, 4)]


def _pinned_dumps() -> str:
    out = []
    for name, family, n in PINNED:
        text = family(n)
        dumps = {
            "constraints": pipeline.dump_constraints(pipeline.infer_text(text)),
            "exeff": pipeline.dump_stage(pipeline.compile_text(text, "exeff"), "exeff"),
        }
        for stage, dump in dumps.items():
            out.append(f"=== {name} n={n} --stage {stage} ===\n")
            out.append(dump)
    return "".join(out)


SOLVER_GOLDEN = TESTS / "solver_golden.txt"


def test_long_queues_dump_as_pinned():
    # The corpus programs bind too few variables to exercise long queues;
    # these dumps were recorded before the solver kept its work incremental.
    assert _pinned_dumps() == SOLVER_GOLDEN.read_text(encoding="utf-8")


def write_pinned_dumps() -> None:
    SOLVER_GOLDEN.write_text(_pinned_dumps(), encoding="utf-8")


# -- checks that must still fire -----------------------------------------------


def test_double_solve_trips_the_guard():
    # Deliberately wrong step: two constraints share one coercion variable,
    # so the second solution would silently replace the first.
    session = infer.Session(make_signature())
    sup = session.supply
    d1, d2 = sup.dirt(), sup.dirt()
    w = sup.co()
    items = [infer.SubCt(w, DirtSub(EMPTY_DIRT, dirt_var(d1))), infer.SubCt(w, DirtSub(EMPTY_DIRT, dirt_var(d2)))]
    with pytest.raises(AssertionError, match="solved twice"):
        infer.solve(session, exeff.Subst(), items)


def test_substituted_annotation_subject_still_fires():
    # Binding a through its first annotation leaves a second annotation of a
    # queued; its subject is substituted when it is popped.
    session = infer.Session(make_signature())
    sk = session.supply.skel()
    a = session.fresh_ty(sk)
    items = [infer.SkelAnn(a, SkelBase(Base.INT)), infer.SkelAnn(a, sk)]
    with pytest.raises(AssertionError, match="annotation subject"):
        infer.solve(session, exeff.Subst(), items)


# -- the coercion map comes back resolved --------------------------------------


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.eff")), ids=lambda p: p.stem)
def test_coercion_solutions_are_resolved(path):
    sig, comp = source.parse_program(path.read_text(encoding="utf-8"))
    solved = infer.infer_top(sig, comp).subst.co
    for wid, co in solved.items():
        named = {v.id for v in traverse.free_vars(co, CoVar)}
        assert not named & solved.keys(), (wid, sorted(named & solved.keys()))


# -- deterministic scaling guard -----------------------------------------------


def _substitutions_inside_solve(text: str) -> int:
    prof = cProfile.Profile()
    solve = infer.solve

    def profiled(*args):
        prof.enable()
        try:
            return solve(*args)
        finally:
            prof.disable()

    sig, comp = source.parse_program(text)
    infer.solve = profiled
    try:
        infer.infer_and_default(sig, comp)
    finally:
        infer.solve = solve
    return sum(e.callcount for e in prof.getstats() if e.code is traverse.substitute.__code__)


def test_solver_substitution_count_stays_bounded():
    # Re-substituting the queue and every solution on each binding made
    # 178,309 calls here; an incremental solver makes far fewer.
    assert _substitutions_inside_solve(nested_handlers(12)) <= 45_000


# -- collapsing variables that occur only in constraints ------------------------


def _let_schemes(text: str) -> list:
    sig, comp = source.parse_program(text)
    return infer.infer_top(sig, comp).session.let_schemes


def test_let_poly_schemes_stay_small():
    # f_i carried 4i+2 qualifiers before: chains through variables that
    # occur in no type and no environment.
    for n in range(3, 21):
        assert [len(qualifiers(scheme)) for _, scheme in _let_schemes(let_poly(n))] == [2] * n, n


def test_let_poly_20_runs_on_every_backend():
    text = let_poly(20)
    for backend in pipeline.BACKENDS:
        assert str(pipeline.run_text(text, backend).observation) == "return unit", backend


def test_a_variable_in_the_environment_keeps_its_qualifier():
    # y's type variable has one upper bound in f's residual, but it is
    # free in the environment, so f's scheme still constrains it.
    text = HEADER + "do k <- return (fun y -> let f = fun g -> g y in f (fun z -> return z)) in k unit\n"
    [(_, scheme)] = _let_schemes(text)
    free = traverse.free_vars(scheme, TyVar)
    assert len(qualifiers(scheme)) == 3
    assert any(v in free for ct in qualifiers(scheme) for v in traverse.free_vars(ct, TyVar))


def _session_vars(n: int):
    """A session and n variables made in the value of a let at level 0."""
    session = infer.Session(make_signature())
    session.level = 1
    sk = session.supply.skel()
    tys = [session.fresh_ty(sk) for _ in range(n)]
    return session, [infer.SkelAnn(a, sk) for a in tys], tys


def _sub(session, lhs, rhs):
    ct = TySub(lhs, rhs) if isinstance(lhs, TyVar) else DirtSub(lhs, rhs)
    return infer.SubCt(session.supply.co(), ct)


def _collapse(session, a, Q):
    """`infer.collapse` at the let whose value made the session's variables."""
    session.level -= 1
    try:
        return infer.collapse(session, exeff.Subst(), a, Q)
    finally:
        session.level += 1


def _arrow(*tys):
    out = tys[-1]
    for t in reversed(tys[:-1]):
        out = TArrow(t, CompType(out, EMPTY_DIRT))
    return out


def test_a_variable_with_two_lower_bounds_keeps_its_qualifiers():
    session, anns, (lo1, lo2, v, hi) = _session_vars(4)
    lower = [_sub(session, lo1, v), _sub(session, lo2, v)]
    s, rest = _collapse(session, _arrow(lo1, lo2, hi), anns + lower)
    assert s.is_empty() and rest == anns + lower
    # One upper bound as well: v becomes it, and the two lower bounds move.
    upper = _sub(session, v, hi)
    s, rest = _collapse(session, _arrow(lo1, lo2, hi), anns + lower + [upper])
    assert s.ty == {v.id: hi} and s.co == {upper.co.id: exeff.CoTyRefl(hi)}
    assert [it.constraint for it in rest if isinstance(it, infer.SubCt)] == [TySub(lo1, hi), TySub(lo2, hi)]
    assert v not in [it.var for it in rest if isinstance(it, infer.SkelAnn)]


def test_a_variable_nested_in_a_constraint_keeps_its_qualifiers():
    session, anns, (lo, v, f) = _session_vars(3)
    nested = [_sub(session, lo, v), _sub(session, f, _arrow(v, lo))]
    s, rest = _collapse(session, _arrow(lo, f, lo), anns + nested)
    assert s.is_empty() and rest == anns + nested
    # A dirt variable as the tail of a dirt with operations.
    d_lo, d, d_hi = (session.supply.dirt() for _ in range(3))
    nested = [_sub(session, dirt_var(d_lo), dirt_var(d)), _sub(session, dirt_var(d_hi), dirt(["Tick"], d))]
    ty = TArrow(lo, CompType(lo, dirt_var(d_lo)))
    s, rest = _collapse(session, TArrow(ty, CompType(lo, dirt_var(d_hi))), nested)
    assert s.is_empty() and rest == nested
