"""Pure-language backend: types track whether effects happen, not which.

Terms form a single syntactic sort.  Handlers always take computations to
computations; four coercion forms (handler/function bridges, return and
unsafe) let the elaboration from the explicitly-typed core bridge between
pure and conservatively-impure views of polymorphic code.  The unsafe
coercion is the single source of stuckness.  The forms NoEff shares with
the core are the core's own node classes.
"""

from __future__ import annotations

from typing import Union

from . import exeff
from .core import (
    CompType,
    Context,
    Dirt,
    DirtSub,
    DirtVar,
    ElaborationError,
    T_BASE,
    T_INT,
    T_UNIT,
    TArrow,
    TBase,
    THandler,
    TForallDirt,
    TForallSkel,
    TForallTy,
    TQual,
    TyVar,
    TySub,
    TypecheckError,
    UnboundVariable,
    ValueType,
    clause_ops,
    node,
)
from .exeff import (
    CApp,
    CDo,
    CHandle,
    CLet,
    COp,
    CoArrow,
    CoBaseRefl,
    CoComp,
    CoHandler,
    CoTyRefl,
    CoVarRef,
    EAbs,
    ECast,
    ECoAbs,
    ECoApp,
    EHandler,
    EInt,
    ETyApp,
    EUnit,
    EVar,
    OpClause,
    Single,
    Subst,
    cast,
    refl_of,
    wf_bound,
)
from .traverse import (
    Reduction,
    alpha_eq,
    free_vars,
    handle_op,
    instantiate,
    subst_term,
    substitute,
)


# ---------------------------------------------------------------------------
# Types, coercions and terms

# NoEff builds the core's node classes for the forms the two calculi share,
# with NoEff types, coercions and terms in their fields: the types `TyVar`,
# `TBase`, `TArrow` and `TQual`, the constraint `TySub`, the coercions
# `CoVarRef`, `CoBaseRefl`, `CoTyRefl`, `CoArrow` and `CoHandler`, and
# every term form but `MTyAbs` and `MReturn`.  A form is NoEff's own where
# sharing would change its dump or its rule: `NHandler` prints its domain at
# precedence 2 (`THandler` at 1), `NForall` and `MTyAbs` carry no skeleton,
# and `MReturn` is of level 1 with its operand at 3; the other forms have no
# core counterpart.


@node
class NHandler:
    dom: "NType"
    cod: "NType"


@node
class NComp:
    body: "NType"


@node
class NForall:
    var: TyVar
    body: "NType"


NType = (TyVar, TBase, TArrow, NHandler, TQual, NComp, NForall)


@node
class NCoHandToFun:
    dom: "NCoercion"
    cod: "NCoercion"


@node
class NCoFunToHand:
    dom: "NCoercion"
    cod: "NCoercion"


@node
class NCoQual:
    constraint: TySub
    body: "NCoercion"

    refl_kids = ("body",)


@node
class NCoComp:
    body: "NCoercion"

    refl_kids = ("body",)


@node
class NCoReturn:
    body: "NCoercion"


@node
class NCoUnsafe:
    body: "NCoercion"


NCoercion = (
    CoVarRef, CoBaseRefl, CoTyRefl, CoArrow, CoHandler, NCoHandToFun,
    NCoFunToHand, NCoQual, NCoComp, NCoReturn, NCoUnsafe,
)


@node
class MTyAbs:
    var: TyVar
    body: "NTerm"


@node
class MReturn:
    term: "NTerm"


NTerm = (
    EVar, EUnit, EInt, EAbs, CApp, MTyAbs, ETyApp, ECoAbs, ECoApp, ECast,
    MReturn, EHandler, CLet, COp, CDo, CHandle,
)


# ---------------------------------------------------------------------------
# Reflexivity: `exeff.refl_of` of NoEff's own types, and of `TQual`, which
# it meets only in NoEff.

exeff.REFL_OF[NHandler] = lambda a: CoHandler(NCoComp(refl_of(a.dom)), NCoComp(refl_of(a.cod)))
exeff.REFL_OF[NComp] = lambda a: NCoComp(refl_of(a.body))
exeff.REFL_OF[TQual] = lambda a: NCoQual(a.constraint, refl_of(a.body))


# ---------------------------------------------------------------------------
# Typing


def typecheck_noeff(env: Context, t: NTerm) -> NType:
    if isinstance(t, EVar):
        try:
            return env.term[t.var.id]
        except KeyError:
            raise UnboundVariable(f"unbound variable {t.var.name}") from None
    if isinstance(t, EUnit):
        return T_UNIT
    if isinstance(t, EInt):
        return T_INT
    if isinstance(t, EAbs):
        wf_bound(env, t.ty)
        return TArrow(t.ty, typecheck_noeff(env.bind(t.var, t.ty), t.body))
    if isinstance(t, CApp):
        fn = typecheck_noeff(env, t.fn)
        if not isinstance(fn, TArrow):
            raise TypecheckError("application of a non-function term")
        arg = typecheck_noeff(env, t.arg)
        if not alpha_eq(arg, fn.dom):
            raise TypecheckError("argument type mismatch")
        return fn.cod
    if isinstance(t, MTyAbs):
        return NForall(t.var, typecheck_noeff(env.bind(t.var), t.body))
    if isinstance(t, ETyApp):
        fn = typecheck_noeff(env, t.val)
        if not isinstance(fn, NForall):
            raise TypecheckError("type application of a non-polymorphic term")
        wf_bound(env, t.ty)
        return substitute(Subst.one_ty(fn.var, t.ty), fn.body)
    if isinstance(t, ECoAbs):
        wf_bound(env, t.constraint)
        body = typecheck_noeff(env.bind(t.var, t.constraint), t.body)
        return TQual(t.constraint, body)
    if isinstance(t, ECoApp):
        fn = typecheck_noeff(env, t.val)
        if not isinstance(fn, TQual):
            raise TypecheckError("coercion application of a non-qualified term")
        got = typecheck_noeff_coercion(env, t.co)
        if not alpha_eq(got, fn.constraint):
            raise TypecheckError("coercion application witnesses the wrong constraint")
        return fn.body
    if isinstance(t, ECast):
        subj = typecheck_noeff(env, t.val)
        ct = typecheck_noeff_coercion(env, t.co)
        if not alpha_eq(ct.lhs, subj):
            raise TypecheckError("cast coercion's source type differs from the subject's type")
        return ct.rhs
    if isinstance(t, MReturn):
        return NComp(typecheck_noeff(env, t.term))
    if isinstance(t, EHandler):
        wf_bound(env, t.ret_ty)
        out = typecheck_noeff(env.bind(t.ret_var, t.ret_ty), t.ret_body)
        if not isinstance(out, NComp):
            raise TypecheckError("handler return clause must produce a computation")
        clause_ops(t.clauses)
        for cl in t.clauses:
            op = env.sig.lookup(cl.op)
            cl_env = env.bind(cl.param, op.param).bind(cl.kont, TArrow(op.result, out))
            got = typecheck_noeff(cl_env, cl.body)
            if not alpha_eq(got, out):
                raise TypecheckError(f"handler clause for {cl.op} disagrees with the return clause")
        return NHandler(t.ret_ty, out.body)
    if isinstance(t, CLet):
        a = typecheck_noeff(env, t.val)
        return typecheck_noeff(env.bind(t.var, a), t.body)
    if isinstance(t, COp):
        op = env.sig.lookup(t.op)
        arg = typecheck_noeff(env, t.arg)
        if not alpha_eq(arg, op.param):
            raise TypecheckError(f"operation {t.op} argument type mismatch")
        if not alpha_eq(t.var_ty, op.result):
            raise TypecheckError(f"operation {t.op} continuation annotation mismatch")
        body = typecheck_noeff(env.bind(t.var, op.result), t.body)
        if not isinstance(body, NComp):
            raise TypecheckError("operation continuation must produce a computation")
        return body
    if isinstance(t, CDo):
        first = typecheck_noeff(env, t.first)
        if not isinstance(first, NComp):
            raise TypecheckError("do-sequence head must be a computation")
        second = typecheck_noeff(env.bind(t.var, first.body), t.second)
        if not isinstance(second, NComp):
            raise TypecheckError("do-sequence body must be a computation")
        return second
    if isinstance(t, CHandle):
        h = typecheck_noeff(env, t.handler)
        if not isinstance(h, NHandler):
            raise TypecheckError("with-handle applied to a non-handler term")
        body = typecheck_noeff(env, t.body)
        if not alpha_eq(body, NComp(h.dom)):
            raise TypecheckError("handled term does not match the handler input type")
        return NComp(h.cod)
    raise TypeError(t)


def typecheck_noeff_coercion(env: Context, co: NCoercion) -> TySub:
    if isinstance(co, CoVarRef):
        try:
            return env.co[co.var.id]
        except KeyError:
            raise UnboundVariable(f"unbound coercion variable w{co.var.id}") from None
    if isinstance(co, CoBaseRefl):
        t = T_BASE[co.base]
        return TySub(t, t)
    if isinstance(co, CoTyRefl):
        wf_bound(env, co.var)
        return TySub(co.var, co.var)
    if isinstance(co, CoArrow):
        dom = typecheck_noeff_coercion(env, co.dom)
        cod = typecheck_noeff_coercion(env, co.cod)
        return TySub(TArrow(dom.rhs, cod.lhs), TArrow(dom.lhs, cod.rhs))
    if isinstance(co, CoHandler):
        dom = typecheck_noeff_coercion(env, co.dom)
        cod = typecheck_noeff_coercion(env, co.cod)
        if not (isinstance(dom.lhs, NComp) and isinstance(dom.rhs, NComp)):
            raise TypecheckError("handler coercion domain must relate computation types")
        if not (isinstance(cod.lhs, NComp) and isinstance(cod.rhs, NComp)):
            raise TypecheckError("handler coercion codomain must relate computation types")
        return TySub(
            NHandler(dom.rhs.body, cod.lhs.body), NHandler(dom.lhs.body, cod.rhs.body)
        )
    if isinstance(co, NCoHandToFun):
        dom = typecheck_noeff_coercion(env, co.dom)
        cod = typecheck_noeff_coercion(env, co.cod)
        if not isinstance(cod.lhs, NComp):
            raise TypecheckError("handler-to-function coercion codomain must consume a computation")
        return TySub(NHandler(dom.rhs, cod.lhs.body), TArrow(dom.lhs, cod.rhs))
    if isinstance(co, NCoFunToHand):
        dom = typecheck_noeff_coercion(env, co.dom)
        cod = typecheck_noeff_coercion(env, co.cod)
        if not isinstance(cod.rhs, NComp):
            raise TypecheckError("function-to-handler coercion codomain must produce a computation")
        return TySub(TArrow(dom.rhs, cod.lhs), NHandler(dom.lhs, cod.rhs.body))
    if isinstance(co, NCoQual):
        wf_bound(env, co.constraint)
        body = typecheck_noeff_coercion(env, co.body)
        return TySub(TQual(co.constraint, body.lhs), TQual(co.constraint, body.rhs))
    if isinstance(co, NCoComp):
        body = typecheck_noeff_coercion(env, co.body)
        return TySub(NComp(body.lhs), NComp(body.rhs))
    if isinstance(co, NCoReturn):
        body = typecheck_noeff_coercion(env, co.body)
        return TySub(body.lhs, NComp(body.rhs))
    if isinstance(co, NCoUnsafe):
        body = typecheck_noeff_coercion(env, co.body)
        return TySub(NComp(body.lhs), body.rhs)
    raise TypeError(co)


# ---------------------------------------------------------------------------
# Type elaboration from the explicitly-typed core


def elab_vty(t: ValueType) -> NType:
    """The NoEff type of a core value type: skeleton and dirt binders and
    dirt qualifiers vanish, and a dirt only says whether a computation type
    is impure."""
    if isinstance(t, (TyVar, TBase)):
        return t
    if isinstance(t, TArrow):
        return TArrow(elab_vty(t.dom), elab_cty(t.cod))
    if isinstance(t, THandler):
        if t.dom.dirt.is_empty():
            # Handlers whose input is pure elaborate to functions.
            return TArrow(elab_vty(t.dom.val), elab_cty(t.cod))
        return NHandler(elab_vty(t.dom.val), elab_vty(t.cod.val))
    if isinstance(t, (TForallSkel, TForallDirt)):
        return elab_vty(t.body)
    if isinstance(t, TForallTy):
        return NForall(t.var, elab_vty(t.body))
    if isinstance(t, TQual):
        if isinstance(t.constraint, DirtSub):
            return elab_vty(t.body)
        return TQual(elab_constraint(t.constraint), elab_vty(t.body))
    raise TypeError(t)


def elab_cty(c: CompType) -> NType:
    a = elab_vty(c.val)
    return a if c.dirt.is_empty() else NComp(a)


def elab_constraint(ct: TySub) -> TySub:
    return TySub(elab_vty(ct.lhs), elab_vty(ct.rhs))


def bridge(t: Union[ValueType, CompType], delta: DirtVar, inst: Dirt, from_impure: bool) -> NCoercion:
    """The coercion between the elaboration of `t`, where the dirt variable
    `delta` counts as impure, and that of `t` with `delta` instantiated to
    `inst`: from the first to the second when `from_impure`, else back.  The
    direction flips at arrow and handler domains, and picks the bridge out of
    an instantiated-pure computation: unsafe going in, return coming back."""

    def comp(d: Dirt, val: NCoercion) -> NCoercion:
        # The value part's bridge inside a computation of impure dirt `d`.
        if not exeff.subst_dirt(Subst.one_dirt(delta, inst), d).is_empty():
            return NCoComp(val)
        return NCoUnsafe(val) if from_impure else NCoReturn(val)

    if isinstance(t, CompType):
        val = bridge(t.val, delta, inst, from_impure)
        return val if t.dirt.is_empty() else comp(t.dirt, val)
    if isinstance(t, TBase):
        return CoBaseRefl(t.base)
    if isinstance(t, TyVar):
        return CoTyRefl(t)
    if isinstance(t, TArrow):
        return CoArrow(
            bridge(t.dom, delta, inst, not from_impure),
            bridge(t.cod, delta, inst, from_impure),
        )
    if isinstance(t, THandler):
        if t.dom.dirt.is_empty():
            return CoArrow(
                bridge(t.dom.val, delta, inst, not from_impure),
                bridge(t.cod, delta, inst, from_impure),
            )
        if not exeff.subst_dirt(Subst.one_dirt(delta, inst), t.dom.dirt).is_empty():
            return CoHandler(
                bridge(t.dom, delta, inst, not from_impure),
                NCoComp(bridge(t.cod.val, delta, inst, from_impure)),
            )
        # The input dirt was exactly the instantiated variable and the
        # instantiation is empty: bridge between handler and function.
        arg = bridge(t.dom.val, delta, inst, not from_impure)
        res = comp(t.cod.dirt, bridge(t.cod.val, delta, inst, from_impure))
        return NCoHandToFun(arg, res) if from_impure else NCoFunToHand(arg, res)
    if isinstance(t, (TForallSkel, TForallDirt)):
        return bridge(t.body, delta, inst, from_impure)
    if isinstance(t, TQual):
        ct = t.constraint
        if isinstance(ct, DirtSub):
            return bridge(t.body, delta, inst, from_impure)
        if delta in free_vars(ct, DirtVar):
            raise ElaborationError(
                "constraint qualifier mentions the instantiated dirt variable"
            )
        return NCoQual(elab_constraint(ct), bridge(t.body, delta, inst, from_impure))
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Elaboration on the ExEff typing derivation

# The elaboration is type-directed, and several rules branch on dirt
# emptiness that is invisible in the term itself.  It reads the types it
# branches on from the derivation the ExEff checker recorded for the term
# (`exeff.derive`), keyed by node identity.


def elab_co(derived: exeff.Derivation, co: exeff.Coercion) -> NCoercion:
    if isinstance(co, CoVarRef):
        if not isinstance(derived.of(co), TySub):
            raise ElaborationError("dirt coercion variable has no pure-language counterpart")
        return co
    if isinstance(co, (CoBaseRefl, CoTyRefl)):
        return co
    if isinstance(co, CoArrow):
        return CoArrow(elab_co(derived, co.dom), elab_co(derived, co.cod))
    if isinstance(co, CoHandler):
        return _elab_handler_co(derived, co)
    if isinstance(co, CoComp):
        ct = derived.of(co)
        d1, d2 = ct.lhs.dirt, ct.rhs.dirt
        val = elab_co(derived, co.val)
        if d1.is_empty() and d2.is_empty():
            return val
        if d1.is_empty():
            return NCoReturn(val)
        if not d2.is_empty():
            return NCoComp(val)
        raise ElaborationError("computation coercion from impure to pure dirt")
    raise TypeError(co)


def _elab_handler_co(derived: exeff.Derivation, co: CoHandler) -> NCoercion:
    ct = derived.of(co)
    d_src_in, d_tgt_in = ct.lhs.dom.dirt, ct.rhs.dom.dirt
    if d_src_in.is_empty() and d_tgt_in.is_empty():
        return CoArrow(elab_co(derived, co.dom), elab_co(derived, co.cod))
    if not d_src_in.is_empty() and not d_tgt_in.is_empty():
        if not isinstance(co.cod, CoComp):
            raise ElaborationError("handler coercion codomain must be a computation coercion")
        return CoHandler(elab_co(derived, co.dom), NCoComp(elab_co(derived, co.cod.val)))
    if not d_src_in.is_empty() and d_tgt_in.is_empty():
        # Handler-typed source, function-typed target.
        if not (isinstance(co.dom, CoComp) and isinstance(co.cod, CoComp)):
            raise ElaborationError("handler coercion components must be computation coercions")
        arg = elab_co(derived, co.dom.val)
        res = elab_co(derived, co.cod.val)
        if not ct.rhs.cod.dirt.is_empty():
            return NCoHandToFun(arg, NCoComp(res))
        return NCoHandToFun(arg, NCoUnsafe(res))
    raise ElaborationError(
        "handler coercion from pure input to impure input contradicts contravariance"
    )


def elab_value(derived: exeff.Derivation, v: exeff.Value) -> NTerm:
    if isinstance(v, (EVar, EUnit, EInt)):
        return v
    if isinstance(v, EAbs):
        return EAbs(v.var, elab_vty(v.ty), elab_comp(derived, v.body))
    if isinstance(v, EHandler):
        return _elab_handler(derived, v)
    if isinstance(v, (exeff.ESkelAbs, exeff.EDirtAbs)):
        return elab_value(derived, v.body)
    if isinstance(v, exeff.ESkelApp):
        return elab_value(derived, v.val)
    if isinstance(v, exeff.ETyAbs):
        return MTyAbs(v.var, elab_value(derived, v.body))
    if isinstance(v, ETyApp):
        return ETyApp(elab_value(derived, v.val), elab_vty(v.ty))
    if isinstance(v, exeff.EDirtApp):
        t = derived.of(v.val)
        return cast(elab_value(derived, v.val), bridge(t.body, t.var, v.dirt, True))
    if isinstance(v, ECoAbs):
        body = elab_value(derived, v.body)
        if isinstance(v.constraint, DirtSub):
            return body
        return ECoAbs(v.var, elab_constraint(v.constraint), body)
    if isinstance(v, ECoApp):
        body = elab_value(derived, v.val)
        if isinstance(derived.of(v.co), DirtSub):
            return body
        return ECoApp(body, elab_co(derived, v.co))
    if isinstance(v, ECast):
        return cast(elab_value(derived, v.val), elab_co(derived, v.co))
    raise TypeError(v)


def _elab_handler(derived: exeff.Derivation, v: EHandler) -> NTerm:
    h_ty = derived.of(v)
    a_in = elab_vty(v.ret_ty)
    t_r = elab_comp(derived, v.ret_body)
    if h_ty.dom.dirt.is_empty():
        # Pure input: the handler becomes a plain function on the return value.
        return EAbs(v.ret_var, a_in, t_r)

    if h_ty.cod.dirt.is_empty():
        # Impure input but pure output: clause bodies elaborate pure, so wrap
        # them in return and strip the spurious return from continuations.
        b_out = elab_vty(h_ty.cod.val)
        clauses = []
        for cl in v.clauses:
            a2 = elab_vty(derived.sig.lookup(cl.op).result)
            t_op = elab_comp(derived, cl.body)
            bridge_k = ECast(EVar(cl.kont), CoArrow(refl_of(a2), NCoUnsafe(refl_of(b_out))))
            t_op = subst_term(bridge_k, cl.kont, t_op)
            clauses.append(OpClause(cl.op, cl.param, cl.kont, MReturn(t_op)))
        return EHandler(v.ret_var, a_in, MReturn(t_r), tuple(clauses))

    # Impure input and output: structural elaboration.
    clauses = []
    for cl in v.clauses:
        clauses.append(OpClause(cl.op, cl.param, cl.kont, elab_comp(derived, cl.body)))
    return EHandler(v.ret_var, a_in, t_r, tuple(clauses))


def elab_comp(derived: exeff.Derivation, c: exeff.Comp) -> NTerm:
    if isinstance(c, CApp):
        return CApp(elab_value(derived, c.fn), elab_value(derived, c.arg))
    if isinstance(c, CLet):
        return CLet(c.var, elab_value(derived, c.val), elab_comp(derived, c.body))
    if isinstance(c, exeff.CReturn):
        return elab_value(derived, c.val)
    if isinstance(c, COp):
        t_v = elab_value(derived, c.arg)
        return COp(c.op, t_v, c.var, elab_vty(c.var_ty), elab_comp(derived, c.body))
    if isinstance(c, CDo):
        t1 = elab_comp(derived, c.first)
        t2 = elab_comp(derived, c.second)
        if not derived.of(c.first).dirt.is_empty():
            return CDo(c.var, t1, t2)
        return CLet(c.var, t1, t2)
    if isinstance(c, CHandle):
        h_ty = derived.of(c.handler)
        t_v = elab_value(derived, c.handler)
        t_c = elab_comp(derived, c.body)
        if h_ty.dom.dirt.is_empty():
            return CApp(t_v, t_c)
        if not h_ty.cod.dirt.is_empty():
            return CHandle(t_v, t_c)
        return ECast(CHandle(t_v, t_c), NCoUnsafe(refl_of(elab_vty(h_ty.cod.val))))
    if isinstance(c, exeff.CCast):
        return cast(elab_comp(derived, c.comp), elab_co(derived, c.co))
    raise TypeError(c)


# ---------------------------------------------------------------------------
# Operational semantics

_VALUE_CAST_HEADS = (CoArrow, CoHandler, NCoHandToFun, NCoFunToHand, NCoQual)


_VALUES = (EUnit, EInt, EAbs, MTyAbs, ECoAbs, EHandler)


def is_value_noeff(t: NTerm) -> bool:
    while True:
        cls = type(t)
        if cls in _VALUES:
            return True
        if cls is ECast:
            if not isinstance(t.co, _VALUE_CAST_HEADS):
                return False
            t = t.val
        elif cls is MReturn:
            t = t.term
        elif cls is COp:
            t = t.arg
        else:
            return False


# Per class, the evaluation positions and head rules in the order
# `traverse.Reduction` tries them.


def _app(t: CApp):
    fn, arg = t.fn, t.arg
    if not (is_value_noeff(fn) and is_value_noeff(arg)):
        return None
    if type(fn) is EAbs:
        return subst_term(arg, fn.var, fn.body)
    if type(fn) is ECast and type(fn.co) is CoArrow:
        return cast(CApp(fn.val, cast(arg, fn.co.dom)), fn.co.cod)
    if type(fn) is ECast and type(fn.co) is NCoHandToFun:
        return cast(CHandle(fn.val, MReturn(cast(arg, fn.co.dom))), fn.co.cod)
    return None


def _ty_app(t: ETyApp):
    f = t.val
    if type(f) is MTyAbs:
        return instantiate(Single(f.var, t.ty), f.body)
    return None


def _co_app(t: ECoApp):
    f = t.val
    if type(f) is ECoAbs:
        return instantiate(Single(f.var, t.co), f.body)
    if type(f) is ECast and type(f.co) is NCoQual and is_value_noeff(f):
        return cast(ECoApp(f.val, t.co), f.co.body)
    return None


def _let(t: CLet):
    if is_value_noeff(t.val):
        return subst_term(t.val, t.var, t.body)


def _do(t: CDo):
    first = t.first
    if type(first) is MReturn and is_value_noeff(first):
        return subst_term(first.term, t.var, t.second)
    if type(first) is COp and is_value_noeff(first):
        return COp(first.op, first.arg, first.var, first.var_ty, CDo(t.var, first.body, t.second))
    return None


def _handle(t: CHandle):
    h, body = t.handler, t.body
    if not (is_value_noeff(h) and is_value_noeff(body)):
        return None
    if type(h) is EHandler:
        if type(body) is MReturn:
            return subst_term(body.term, h.ret_var, h.ret_body)
        if type(body) is COp:
            return handle_op(h, body, CHandle, EAbs)
        return None
    if type(h) is ECast and type(h.co) is CoHandler:
        return cast(CHandle(h.val, cast(body, h.co.dom)), h.co.cod)
    if type(h) is ECast and type(h.co) is NCoFunToHand:
        if type(body) is MReturn:
            return cast(CApp(h.val, cast(body.term, h.co.dom)), h.co.cod)
        if type(body) is COp:
            return COp(body.op, body.arg, body.var, body.var_ty, CHandle(h, body.body))
    return None


def _cast(t: ECast):
    term, co = t.val, t.co
    if not is_value_noeff(term):
        return None
    if type(co) is CoBaseRefl:
        return term
    if type(co) is NCoComp:
        if type(term) is MReturn:
            return MReturn(cast(term.term, co.body))
        if type(term) is COp:
            return COp(term.op, term.arg, term.var, term.var_ty, cast(term.body, co))
        return None
    if type(co) is NCoReturn:
        return MReturn(cast(term, co.body))
    if type(co) is NCoUnsafe and type(term) is MReturn:
        return cast(term.term, co.body)
    return None  # unsafe over an operation call: stuck


RULES = {
    **{cls: () for cls in (EVar, OpClause, *_VALUES)},
    CApp: ("fn", ("arg", "fn", is_value_noeff), _app),
    ETyApp: ("val", _ty_app),
    ECoApp: ("val", _co_app),
    CLet: ("val", _let),
    MReturn: ("term",),
    COp: ("arg",),
    CDo: ("first", _do),
    CHandle: ("handler", ("body", "handler", is_value_noeff), _handle),
    ECast: ("val", _cast),
}

# ---------------------------------------------------------------------------
# Stuck-term classification


class StuckClass:
    NOT_STUCK = "not stuck"
    HEAD = "unsafe coercion applied to an operation"
    CONTEXT = "stuck term in evaluation context"


def classify_stuck(t: NTerm) -> str:
    """Match the stuck-term grammar: an unsafe coercion over an operation
    call, at the top or in an evaluation position."""
    todo = [(t, StuckClass.HEAD)]
    while todo:
        u, found = todo.pop()
        if type(u) is ECast and type(u.co) is NCoUnsafe and type(u.val) is COp and is_value_noeff(u.val):
            return found
        todo.extend((kid, StuckClass.CONTEXT) for kid in REDUCTION.positions(u))
    return StuckClass.NOT_STUCK


REDUCTION = Reduction(RULES, is_value_noeff, lambda t: f"stuck term: {classify_stuck(t)}")

# One deterministic step; None when `t` is a value or stuck.
step_noeff = REDUCTION.step


def eval_noeff(t: NTerm, fuel: int = 100_000):
    """Evaluate to a value; raises StuckTerm with a classification if stuck."""
    result, steps, _ = REDUCTION.run(t, fuel)
    return result, steps
