"""The shape-driven traversal engine: binder scoping and shape coverage."""

import dataclasses

import pytest

from effc import core, exeff, noeff, skeleff, source, traverse
from effc.core import (
    Base,
    CoVar,
    DirtSub,
    DirtVar,
    SkelArrow,
    SkelForall,
    SkelVar,
    TArrow,
    TBase,
    TForallDirt,
    TForallSkel,
    TForallTy,
    TermVar,
    TyVar,
    TySub,
    dirt_var,
)
from effc.exeff import Subst
from effc.traverse import alpha_eq, free_vars, rename, shape, subst_term, substitute

X = TermVar(5, "x")
P = TermVar(6, "p")
K = TermVar(7, "k")
T_UNIT = core.T_UNIT
SK_UNIT = core.SKEL_UNIT
N_UNIT = TBase(Base.UNIT)

# Per calculus: the variable, unit, lambda, return, let, do, operation call,
# handler and clause constructors, plus abstractions over each non-term sort
# (as functions of the binder id and a body value).
CALCULI = {
    "exeff": dict(
        var=exeff.EVar,
        unit=exeff.EUnit(),
        lam=lambda v, body: exeff.EAbs(v, T_UNIT, body),
        ret=exeff.CReturn,
        let=exeff.CLet,
        do=exeff.CDo,
        op=lambda arg, v, body: exeff.COp("Tick", arg, v, T_UNIT, body),
        handler=lambda r, rb, cls: exeff.EHandler(r, T_UNIT, rb, cls),
        clause=lambda p, k, body: exeff.OpClause("Tick", p, k, body),
        other_binders=[
            lambda i, b: exeff.ESkelAbs(SkelVar(i), b),
            lambda i, b: exeff.ETyAbs(TyVar(i), SK_UNIT, b),
            lambda i, b: exeff.EDirtAbs(DirtVar(i), b),
            lambda i, b: exeff.ECoAbs(CoVar(i), DirtSub(dirt_var(DirtVar(0)), core.EMPTY_DIRT), b),
        ],
    ),
    "skeleff": dict(
        var=exeff.EVar,
        unit=exeff.EUnit(),
        lam=lambda v, body: exeff.EAbs(v, SK_UNIT, body),
        ret=exeff.CReturn,
        let=exeff.CLet,
        do=exeff.CDo,
        op=lambda arg, v, body: exeff.COp("Tick", arg, v, SK_UNIT, body),
        handler=lambda r, rb, cls: exeff.EHandler(r, SK_UNIT, rb, cls),
        clause=lambda p, k, body: exeff.OpClause("Tick", p, k, body),
        other_binders=[lambda i, b: exeff.ESkelAbs(SkelVar(i), b)],
    ),
    "noeff": dict(
        var=exeff.EVar,
        unit=exeff.EUnit(),
        lam=lambda v, body: exeff.EAbs(v, N_UNIT, body),
        ret=noeff.MReturn,
        let=exeff.CLet,
        do=exeff.CDo,
        op=lambda arg, v, body: exeff.COp("Tick", arg, v, N_UNIT, body),
        handler=lambda r, rb, cls: exeff.EHandler(r, N_UNIT, rb, cls),
        clause=lambda p, k, body: exeff.OpClause("Tick", p, k, body),
        other_binders=[
            lambda i, b: noeff.MTyAbs(TyVar(i), b),
            lambda i, b: exeff.ECoAbs(CoVar(i), TySub(N_UNIT, N_UNIT), b),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(CALCULI))
def test_term_substitution_stops_at_every_term_binder(name):
    c = CALCULI[name]
    x, u = c["var"](X), c["unit"]

    # lambda
    lam = c["lam"](X, c["ret"](x))
    assert subst_term(u, X, lam) is lam
    # let and do: the bound expression is outside the binder, the body inside
    assert subst_term(u, X, c["let"](X, x, c["ret"](x))) == c["let"](X, u, c["ret"](x))
    assert subst_term(u, X, c["do"](X, c["ret"](x), c["ret"](x))) == c["do"](
        X, c["ret"](u), c["ret"](x)
    )
    # operation call: the argument is outside, the continuation inside
    assert subst_term(u, X, c["op"](x, X, c["ret"](x))) == c["op"](u, X, c["ret"](x))
    # handler: the return binder covers the return clause only
    h = c["handler"](X, c["ret"](x), (c["clause"](P, K, c["ret"](x)),))
    assert subst_term(u, X, h) == c["handler"](X, c["ret"](x), (c["clause"](P, K, c["ret"](u)),))
    # handler clause parameter and continuation
    for p, k in ((X, K), (P, X)):
        h = c["handler"](P, c["ret"](x), (c["clause"](p, k, c["ret"](x)),))
        want = c["handler"](P, c["ret"](u), (c["clause"](p, k, c["ret"](x)),))
        assert subst_term(u, X, h) == want


@pytest.mark.parametrize("name", sorted(CALCULI))
def test_term_substitution_passes_binders_of_other_sorts_with_the_same_id(name):
    c = CALCULI[name]
    x, u = c["var"](X), c["unit"]
    for make in c["other_binders"]:
        # Ids are per-sort counters: a binder of another sort with the term
        # variable's id does not shadow it.
        term = make(X.id, c["lam"](P, c["ret"](x)))
        assert subst_term(u, X, term) == make(X.id, c["lam"](P, c["ret"](u)))


def test_type_substitution_leaves_binder_fields_untouched():
    s = Subst(
        skel={1: SK_UNIT, 3: core.SKEL_INT},
        ty={3: core.T_INT, 4: T_UNIT},
        dirt={3: core.EMPTY_DIRT, 8: core.dirt(["Tick"])},
    )
    cases = [
        SkelForall(SkelVar(3), SkelArrow(SkelVar(1), SkelVar(1))),
        TForallSkel(SkelVar(3), TyVar(4)),
        TForallTy(TyVar(3), SkelVar(1), TyVar(4)),
        TForallDirt(DirtVar(3), TArrow(TyVar(4), core.CompType(T_UNIT, dirt_var(DirtVar(8))))),
        noeff.NForall(TyVar(3), TyVar(4)),
    ]
    for t in cases:
        got = substitute(s, t)
        assert got.var is t.var
        assert got.body != t.body, "free variables under the binder are substituted"
    assert substitute(s, cases[2]).skel == SK_UNIT


def test_free_variables_respect_binder_sort_and_scope():
    d, a = DirtVar(2), TyVar(2)
    t = TForallDirt(d, TArrow(a, core.CompType(a, dirt_var(d))))
    assert free_vars(t, DirtVar) == []
    assert free_vars(t, TyVar) == [a]
    assert free_vars([t, core.CompType(a, dirt_var(d))], DirtVar) == [d]
    # A dirt binder binds its own variable only.
    body = exeff.EDirtApp(exeff.EVar(X), dirt_var(d))
    assert free_vars(exeff.EDirtAbs(DirtVar(3), body), DirtVar) == [d]


def test_free_variables_of_several_sorts_in_one_walk():
    # Each binder binds its own sort only: ids are per-sort counters, so the
    # type binder a3 leaves d3 free and the dirt binder d2 leaves a2 free.
    s, a, d = SkelVar(2), TyVar(2), DirtVar(3)
    inner = TForallDirt(DirtVar(2), TArrow(a, core.CompType(TyVar(3), dirt_var(DirtVar(2)))))
    t = TForallTy(TyVar(3), s, TArrow(inner, core.CompType(a, dirt_var(d))))
    sorts = (SkelVar, TyVar, DirtVar)
    assert free_vars(t, sorts) == [s, a, d]
    assert free_vars([dirt_var(d), t, SkelVar(3)], sorts) == [d, s, a, SkelVar(3)]
    assert free_vars(t, (DirtVar, TyVar)) == [a, d]
    # Each sort keeps the order of its own walk.
    for sort in sorts:
        assert [v for v in free_vars([dirt_var(d), t], sorts) if type(v) is sort] == free_vars([dirt_var(d), t], sort)


def test_alpha_equality_pairs_binders_one_to_one_and_by_sort():
    def lam(v, w):
        return exeff.EAbs(v, SK_UNIT, exeff.CReturn(exeff.EVar(w)))

    assert alpha_eq(lam(X, X), lam(P, P))
    assert not alpha_eq(lam(X, K), lam(P, P))
    # The free `p` on the left must not match the bound `p` on the right.
    assert not alpha_eq(lam(X, P), lam(P, P))
    # A skeleton binder does not pair term variables with its id.
    sk_x = exeff.ESkelAbs(SkelVar(X.id), lam(P, X))
    assert not alpha_eq(sk_x, exeff.ESkelAbs(SkelVar(K.id), lam(P, K)))


def test_alpha_equality_compares_the_number_of_handler_clauses():
    ret = exeff.CReturn(exeff.EVar(X))
    clause = exeff.OpClause("Tick", P, K, ret)
    assert not alpha_eq(exeff.EHandler(X, T_UNIT, ret, (clause,)), exeff.EHandler(X, T_UNIT, ret, ()))


# ---------------------------------------------------------------------------
# Shape coverage


def _node_classes():
    for mod in (core, source, exeff, skeleff, noeff):
        for cls in vars(mod).values():
            if isinstance(cls, type) and cls.__module__ == mod.__name__ and cls in core.NODES:
                yield cls


def test_every_field_of_every_node_class_has_a_role():
    classes = list(_node_classes())
    assert len(classes) == 77
    t = traverse
    roles = {t.BIND, t.USE, t.TERM, t.TYPE, t.MANY, t.ATOM}
    for cls in classes:
        sh = shape(cls)
        assert sh.names == tuple(f.name for f in dataclasses.fields(cls))
        for f in sh.fields:
            assert f.role in roles, (cls.__name__, f.name)
            if f.role in (traverse.BIND, traverse.USE):
                assert f.sort in traverse.VAR_CLASSES, (cls.__name__, f.name)
        binders = [f.name for f in sh.fields if f.role == traverse.BIND]
        scoped = [b for f in sh.fields for b, _ in f.binders]
        assert sorted(binders) == sorted(scoped), cls.__name__


def test_binder_scopes_of_the_irregular_classes():
    def scope(cls, binder):
        return [f.name for f in shape(cls).fields if binder in (b for b, _ in f.binders)]

    for cls in (exeff.EHandler, source.SrcHandler):
        assert scope(cls, "ret_var") == ["ret_body"]
    for cls in (exeff.CDo, source.SrcDo):
        assert scope(cls, "var") == ["second"]
    for cls in (exeff.CLet, exeff.COp, source.SrcOpCall):
        assert scope(cls, "var") == ["body"]
    assert [f.role for f in shape(core.Dirt).fields] == [traverse.ATOM, traverse.USE]


def test_unregistered_classes_are_rejected():
    class Opaque:
        pass

    @dataclasses.dataclass(frozen=True)
    class Unknown:
        weight: float

    s = Subst.one_ty(TyVar(0), T_UNIT)
    for node, other in ((Opaque(), Opaque()), (Unknown(1.0), Unknown(2.0))):
        with pytest.raises(TypeError):
            substitute(s, node)
        with pytest.raises(TypeError):
            subst_term(exeff.EUnit(), X, node)
        with pytest.raises(TypeError):
            free_vars(node, TyVar)
        with pytest.raises(TypeError):
            alpha_eq(node, other)
        with pytest.raises(TypeError):
            rename(node, lambda v: v)
    # A wrapped node is rejected as well, not passed through.
    with pytest.raises(TypeError):
        substitute(s, TArrow(Unknown(1.0), core.CompType(TyVar(0), core.EMPTY_DIRT)))
