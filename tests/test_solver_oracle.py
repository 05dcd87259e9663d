"""Solver correctness against the brute-force ground oracle."""

import itertools

import pytest

from effc import exeff, infer
from effc.core import (
    Base,
    CompType,
    DirtSub,
    Dirt,
    EMPTY_DIRT,
    SolveError,
    TArrow,
    TBase,
    TySub,
    dirt,
)
import oracle

T_UNIT = TBase(Base.UNIT)
OPS = oracle.DEFAULT_OPS


def oracle_signature():
    from effc.core import Signature

    sig = Signature()
    for op in OPS:
        sig.declare(op, T_UNIT, T_UNIT)
    return sig


def fresh_session():
    return infer.Session(oracle_signature())


def dirt_shapes(session, tails):
    """All bounded dirts over the two operations and the given tail variables."""
    out = []
    for r in range(len(OPS) + 1):
        for combo in itertools.combinations(OPS, r):
            out.append(Dirt(frozenset(combo), None))
            for t in tails:
                out.append(Dirt(frozenset(combo), t))
    return out


def check_against_oracle(session, items):
    """Solve and compare with enumeration; returns (solved?, solutions)."""
    sols = oracle.ground_solver_oracle(items, OPS)
    try:
        s, residual = infer.solve(session, items)
    except SolveError:
        assert sols == [], "solver failed although ground solutions exist"
        return False, sols
    assert sols != [] or residual == [] or _residual_unsatisfiable_ok(residual), (
        "solver succeeded although no ground solution exists"
    )
    if sols:
        _check_factorization(items, s, residual, sols)
    else:
        # No ground solutions: the residual must also have none.
        assert oracle.ground_solver_oracle(residual, OPS) == []
    return True, sols


def _residual_unsatisfiable_ok(residual):
    return oracle.ground_solver_oracle(residual, OPS) == []


def _vars_of_items(items):
    return oracle._collect_vars(items)


def _check_factorization(items, s, residual, sols):
    """Every ground solution factors through the solver's substitution."""
    skels, tys, dirts = _vars_of_items(items)

    def image(g2, g, x, sort):
        # A variable untouched by the substitution and absent from the
        # residual is unconstrained: extend the candidate with g's own value.
        if sort == "s":
            repl = s.skel.get(x, None)
            return g2.skeleton(repl) if repl is not None else g2.skel.get(x, g.skel[x])
        if sort == "t":
            repl = s.ty.get(x, None)
            return g2.vty(repl) if repl is not None else g2.ty.get(x, g.ty[x])
        repl = s.dirt.get(x, None)
        return g2.dirt_of(repl) if repl is not None else g2.dirt.get(x, g.dirt[x])

    range_items = list(residual)
    # Enumerate candidate ground assignments over the residual's variables
    # plus everything occurring in the substitution's ranges.
    extra = []
    for repl in s.skel.values():
        extra.append(infer.SkelEq(repl, repl))
    for repl in s.ty.values():
        w = infer.SubCt(exeff.CoVar(10_000), TySub(repl, repl))
        extra.append(w)
    for repl in s.dirt.values():
        extra.append(infer.SubCt(exeff.CoVar(10_001), DirtSub(repl, repl)))
    domain_items = range_items + extra
    for g in sols:
        found = False
        for g2 in oracle.enumerate_assignments(domain_items, OPS):
            if not all(g2.satisfies(it) for it in residual):
                continue
            if all(image(g2, g, x, "s") == g.skel[x] for x in skels):
                if all(image(g2, g, x, "t") == g.ty[x] for x in tys):
                    if all(image(g2, g, x, "d") == g.dirt[x] for x in dirts):
                        found = True
                        break
        assert found, "a ground solution does not factor through the solver output"


def test_oracle_examples_from_solver_contract():
    session = fresh_session()
    w = session.supply.co()
    # Always satisfiable: every ground assignment solves the empty-lhs constraint.
    items = [infer.SubCt(w, DirtSub(EMPTY_DIRT, dirt(["Op1"])))]
    sols = oracle.ground_solver_oracle(items, OPS)
    assert len(sols) == 1  # no variables at all
    ok, _ = check_against_oracle(fresh_session(), items)
    assert ok


def test_oracle_closed_clash():
    session = fresh_session()
    w = session.supply.co()
    items = [infer.SubCt(w, DirtSub(dirt(["Op1"]), dirt(["Op2"])))]
    assert oracle.ground_solver_oracle(items, OPS) == []
    ok, _ = check_against_oracle(fresh_session(), items)
    assert not ok


def test_oracle_open_open_factorization():
    session = fresh_session()
    d1, d2 = session.supply.dirt(), session.supply.dirt()
    w = session.supply.co()
    items = [infer.SubCt(w, DirtSub(dirt(["Op1"], d1), dirt(["Op2"], d2)))]
    sols = oracle.ground_solver_oracle(items, OPS)
    # d2 must contain Op1 and everything in d1.
    assert all("Op1" in (g.dirt[d2.id].ops | frozenset()) for g in sols)
    check_against_oracle(session, items)


def shape_count():
    # 4 op subsets x 3 tail choices (none, d0, d1)
    return 12


def build_shape(session, tails, index) -> Dirt:
    ops_subsets = [frozenset(c) for r in range(3) for c in itertools.combinations(OPS, r)]
    ops_subsets.append(frozenset(OPS))
    ops_subsets = sorted(set(ops_subsets), key=lambda s: (len(s), sorted(s)))
    tail_choices = [None, 0, 1]
    ops = ops_subsets[index // 3]
    tail = tail_choices[index % 3]
    return Dirt(ops, tails[tail] if tail is not None else None)


def test_exhaustive_single_dirt_constraints():
    # Variables must come from the session that solves them, so the shapes
    # are rebuilt per constraint set.
    n = 0
    for i in range(shape_count()):
        for j in range(shape_count()):
            sess = fresh_session()
            tails = [sess.supply.dirt(), sess.supply.dirt()]
            lhs = build_shape(sess, tails, i)
            rhs = build_shape(sess, tails, j)
            w = sess.supply.co()
            items = [infer.SubCt(w, DirtSub(lhs, rhs))]
            check_against_oracle(sess, items)
            n += 1
    assert n == shape_count() ** 2


def test_type_constraints_with_variables():
    # a <= Unit -> Unit ! {Op1}, annotated with a fresh skeleton.
    sess = fresh_session()
    sk = sess.supply.skel()
    a = sess.fresh_ty(sk)
    w = sess.supply.co()
    arrow = TArrow(T_UNIT, CompType(T_UNIT, dirt(["Op1"])))
    items = [infer.SkelAnn(a, sk), infer.SubCt(w, TySub(a, arrow))]
    check_against_oracle(sess, items)

    sess = fresh_session()
    sk = sess.supply.skel()
    a = sess.fresh_ty(sk)
    b = sess.fresh_ty(sk)
    w = sess.supply.co()
    items = [infer.SkelAnn(a, sk), infer.SkelAnn(b, sk), infer.SubCt(w, TySub(a, b))]
    check_against_oracle(sess, items)


def test_unsatisfiable_mixed_set():
    sess = fresh_session()
    d = sess.supply.dirt()
    w1, w2 = sess.supply.co(), sess.supply.co()
    # d must contain Op1 yet be below the empty dirt.
    items = [
        infer.SubCt(w1, DirtSub(dirt(["Op1"]), Dirt(frozenset(), d))),
        infer.SubCt(w2, DirtSub(Dirt(frozenset(), d), EMPTY_DIRT)),
    ]
    assert oracle.ground_solver_oracle(items, OPS) == []
    check_against_oracle(sess, items)


def test_domain_guard():
    sess = fresh_session()
    items = []
    for _ in range(8):
        sk = sess.supply.skel()
        a = sess.fresh_ty(sk)
        items.append(infer.SkelAnn(a, sk))
    with pytest.raises(oracle.DomainTooLarge):
        oracle.ground_solver_oracle(items, OPS)
