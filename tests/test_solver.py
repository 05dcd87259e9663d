"""The solver's state: pinned dumps of long queues, the checks that guard its
invariants, and a deterministic bound on its work."""

import cProfile

import pytest

from effc import exeff, infer, pipeline, source, traverse
from effc.core import Base, CoVar, DirtSub, EMPTY_DIRT, SkelBase, dirt_var
from gen_helpers import make_signature

from conftest import CORPUS, TESTS

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
        art = pipeline.compile_text(family(n), "exeff")
        for stage in ("constraints", "exeff"):
            out.append(f"=== {name} n={n} --stage {stage} ===\n")
            out.append(pipeline.dump_stage(art, stage))
    return "".join(out)


def test_long_queues_dump_as_pinned():
    # The corpus programs bind too few variables to exercise long queues;
    # these dumps were recorded before the solver kept its work incremental.
    want = (TESTS / "solver_golden.txt").read_text(encoding="utf-8")
    assert _pinned_dumps() == want


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
        infer.solve(session, exeff.Subst(), [], items)


def test_substituted_annotation_subject_still_fires():
    # Binding a through its first annotation leaves a second annotation of a
    # queued; its subject is substituted when it is popped.
    session = infer.Session(make_signature())
    sk = session.supply.skel()
    a = session.fresh_ty(sk)
    items = [infer.SkelAnn(a, SkelBase(Base.INT)), infer.SkelAnn(a, sk)]
    with pytest.raises(AssertionError, match="annotation subject"):
        infer.solve(session, exeff.Subst(), [], items)


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
