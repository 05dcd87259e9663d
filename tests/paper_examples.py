"""Hand-constructed core terms for the worked examples used across suites.

These are built directly in the core AST (not produced by inference) so the
checkers, erasure and the pure-backend elaboration can be exercised against
independently known shapes.
"""

from __future__ import annotations

from effc import exeff
from effc.core import (
    Base,
    CompType,
    Context,
    DirtSub,
    EMPTY_DIRT,
    Signature,
    Supply,
    TArrow,
    TBase,
    TForallDirt,
    TForallSkel,
    TForallTy,
    TQual,
    TySub,
    dirt,
    dirt_var,
)

T_UNIT = TBase(Base.UNIT)


def tick_tock_signature() -> Signature:
    sig = Signature()
    sig.declare("Tick", T_UNIT, T_UNIT)
    sig.declare("Tock", T_UNIT, T_UNIT)
    return sig


class RunningExample:
    """The polymorphic unit-applier and its two instantiations."""

    def __init__(self, supply: Supply | None = None):
        sup = supply or Supply()
        self.supply = sup
        self.sig = tick_tock_signature()
        sk = sup.skel()
        a = sup.ty()
        a2 = sup.ty()
        d = sup.dirt()
        d2 = sup.dirt()
        w = sup.co()
        w2 = sup.co()
        g = sup.term("g")
        x = sup.term("x")

        # The value; binders: skeleton, two types, two dirts, two coercions.
        body = exeff.CCast(
            exeff.CApp(exeff.EVar(g), exeff.EUnit()),
            exeff.CoComp(exeff.CoVarRef(w), exeff.CoVarRef(w2)),
        )
        fn = exeff.EAbs(g, TArrow(T_UNIT, CompType(a, dirt_var(d))), body)
        self.poly_value = exeff.ESkelAbs(
            sk,
            exeff.ETyAbs(
                a,
                sk,
                exeff.ETyAbs(
                    a2,
                    sk,
                    exeff.EDirtAbs(
                        d,
                        exeff.EDirtAbs(
                            d2,
                            exeff.ECoAbs(
                                w,
                                TySub(a, a2),
                                exeff.ECoAbs(w2, DirtSub(dirt_var(d), dirt_var(d2)), fn),
                            ),
                        ),
                    ),
                ),
            ),
        )
        self.poly_type = TForallSkel(
            sk,
            TForallTy(
                a,
                sk,
                TForallTy(
                    a2,
                    sk,
                    TForallDirt(
                        d,
                        TForallDirt(
                            d2,
                            TQual(
                                TySub(a, a2),
                                TQual(
                                    DirtSub(dirt_var(d), dirt_var(d2)),
                                    TArrow(
                                        TArrow(T_UNIT, CompType(a, dirt_var(d))),
                                        CompType(a2, dirt_var(d2)),
                                    ),
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        )
        self.f_var = sup.term("f")
        self.x = x

    def pure_id(self) -> exeff.Value:
        x = self.supply.term("x")
        return exeff.EAbs(x, T_UNIT, exeff.CReturn(exeff.EVar(x)))

    def tick_fun(self) -> exeff.Value:
        x = self.supply.term("x")
        y = self.supply.term("y")
        body = exeff.COp(
            "Tick",
            exeff.EVar(x),
            y,
            T_UNIT,
            exeff.CCast(
                exeff.CReturn(exeff.EVar(y)),
                exeff.CoComp(exeff.CoBaseRefl(Base.UNIT), exeff.CoEmpty(dirt(["Tick"]))),
            ),
        )
        return exeff.EAbs(x, T_UNIT, body)

    def _instantiated(self, d1, d2, dirt_co) -> exeff.Value:
        f = exeff.EVar(self.f_var)
        v = exeff.ESkelApp(f, SK_UNIT())
        v = exeff.ETyApp(v, T_UNIT)
        v = exeff.ETyApp(v, T_UNIT)
        v = exeff.EDirtApp(v, d1)
        v = exeff.EDirtApp(v, d2)
        v = exeff.ECoApp(v, exeff.CoBaseRefl(Base.UNIT))
        v = exeff.ECoApp(v, dirt_co)
        return v

    def app_id(self) -> exeff.Comp:
        inst = self._instantiated(EMPTY_DIRT, EMPTY_DIRT, exeff.CoEmpty(EMPTY_DIRT))
        return exeff.CApp(inst, self.pure_id())

    def app_tick(self) -> exeff.Comp:
        inst = self._instantiated(
            dirt(["Tick"]),
            dirt(["Tick", "Tock"]),
            exeff.CoOpUnion("Tick", exeff.CoEmpty(dirt(["Tock"]))),
        )
        return exeff.CApp(inst, self.tick_fun())

    def env(self) -> Context:
        return Context(self.sig).bind(self.f_var, self.poly_type)


def SK_UNIT():
    from effc.core import SkelBase

    return SkelBase(Base.UNIT)


def erasure_discussion_pair(supply: Supply | None = None):
    """The application whose erasure exposes a new redex under a binder.

    c1 beta-reduces to c2; their erasures reach equal normal forms only by
    reducing under a binder.
    """
    sup = supply or Supply()
    x = sup.term("x")
    y = sup.term("y")
    d = sup.dirt()
    sk = sup.skel()
    poly_unit = exeff.EDirtAbs(d, exeff.ESkelApp(exeff.ESkelAbs(sk, exeff.EUnit()), SK_UNIT()))
    x_ty = TForallDirt(sup.dirt(), T_UNIT)
    lam = exeff.EAbs(
        x,
        x_ty,
        exeff.CReturn(
            exeff.EAbs(
                y,
                T_UNIT,
                exeff.CReturn(exeff.EDirtApp(exeff.EVar(x), EMPTY_DIRT)),
            )
        ),
    )
    c1 = exeff.CApp(lam, poly_unit)
    y2 = sup.term("y")
    c2 = exeff.CReturn(
        exeff.EAbs(
            y2,
            T_UNIT,
            exeff.CReturn(exeff.EDirtApp(poly_unit, EMPTY_DIRT)),
        )
    )
    return c1, c2
