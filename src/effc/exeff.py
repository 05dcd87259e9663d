"""The explicitly-typed core calculus.

Terms carry their whole typing derivation: System-F-style binders for
skeletons, types and dirts, plus binders and casts for subtyping coercions.
This module provides the ASTs, well-formedness and type checking, coercion
checking, reflexivity-coercion construction and its syntactic test, the
cast constructors that build no reflexive cast, substitution (which drops
each cast whose coercion it makes reflexive), the result grammar, and the
small-step operational semantics with its push rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .core import (
    Base,
    CompSub,
    CompType,
    Context,
    CoVar,
    Dirt,
    DirtSub,
    DirtVar,
    EMPTY_DIRT,
    Signature,
    SimpleConstraint,
    SkelVar,
    Skeleton,
    T_BASE,
    T_INT,
    T_UNIT,
    TArrow,
    TBase,
    TForallDirt,
    TForallSkel,
    TForallTy,
    THandler,
    TQual,
    TermVar,
    TyVar,
    TySub,
    TypecheckError,
    UnboundVariable,
    ValueType,
    WfError,
    clause_ops,
    dirt_add,
    node,
    skeleton,
)
from .traverse import (
    CLOSED,
    FREE,
    Closed,
    Reduction,
    alpha_eq,
    cast_hook,
    free_vars,
    handle_op,
    instantiate,
    shape,
    subst_hook,
    subst_term,
    substitute,
    type_bits,
    var_bit,
)

# ---------------------------------------------------------------------------
# Coercions

# A coercion class's `refl_kids` names the coercion fields that make a node
# of it reflexive (`is_refl`) when each of them is: none for a reflexivity
# leaf, every coercion field for a congruence.  A class without the
# attribute is reflexive only as a dirt coercion that relates equal dirts.
# A congruence names first the field likelier to widen (most casts widen a
# dirt), so that `is_refl` rejects early.

@node
class CoVarRef:
    var: CoVar


@node
class CoBaseRefl:
    base: Base

    refl_kids = ()


@node
class CoTyRefl:
    var: TyVar

    refl_kids = ()


@node
class CoDirtRefl:
    dirt: Dirt

    refl_kids = ()


@node
class CoArrow:
    dom: "Coercion"
    cod: "Coercion"

    refl_kids = ("cod", "dom")


@node
class CoHandler:
    dom: "Coercion"
    cod: "Coercion"

    refl_kids = ("cod", "dom")


@node
class CoEmpty:
    dirt: Dirt


@node
class CoOpUnion:
    op: str
    rest: "Coercion"


@node
class CoComp:
    val: "Coercion"
    dirt: "Coercion"

    refl_kids = ("dirt", "val")


Coercion = (
    CoVarRef, CoBaseRefl, CoTyRefl, CoDirtRefl, CoArrow, CoHandler,
    CoEmpty, CoOpUnion, CoComp,
)


def is_refl(co) -> bool:
    """Whether `co` witnesses A ≤ A by its form alone: built from
    reflexivity leaves (`CoBaseRefl`, `CoTyRefl`, `CoDirtRefl`, NoEff's
    `NCoTyRefl`) and dirt coercions that relate equal dirts, under
    congruences (`CoArrow`, `CoHandler`, `CoComp`, NoEff's `NCoComp` and
    `NCoQual`).  `refl_of` and `noeff.refl_nty` build such coercions, and
    the solver's dirt coercions (`CoEmpty` under op-unions) are such once
    solving makes their two dirts equal.  One test serves both calculi,
    since their casts are one class."""
    kids = getattr(type(co), "refl_kids", None)
    if kids is None:
        return _relates_equal_dirts(co)
    for name in kids:
        if not is_refl(getattr(co, name)):
            return False
    return True


def _relates_equal_dirts(co) -> bool:
    """Whether the two dirts of a dirt coercion, computed from the coercion
    alone, are equal.  `CoOpUnion(op, γ)` witnesses op·Δ1 ≤ op·Δ2 when γ
    witnesses Δ1 ≤ Δ2, and `CoEmpty(Δ)` witnesses ∅ ≤ Δ, so a chain of
    op-unions over `CoEmpty(Δ)` relates the chain's operations to those
    plus Δ: equal when Δ is closed and adds no operation.  Over `CoDirtRefl`
    a chain relates one dirt to itself; a coercion variable's dirts are
    unknown here, so a chain over one is never reflexive."""
    ops = ()
    while type(co) is CoOpUnion:
        ops += (co.op,)
        co = co.rest
    cls = type(co)
    if cls is CoEmpty:
        return co.dirt.tail is None and co.dirt.ops.issubset(ops)
    return cls is CoDirtRefl


# ---------------------------------------------------------------------------
# Terms


@node
class EVar:
    var: TermVar


@node
class EUnit:
    pass


@node
class EInt:
    value: int


@node
class EAbs:
    var: TermVar
    ty: ValueType
    body: "Comp"


@node
class OpClause:
    op: str
    param: TermVar
    kont: TermVar
    body: "Comp"


@node
class EHandler:
    ret_var: TermVar
    ret_ty: ValueType
    ret_body: "Comp"
    clauses: tuple[OpClause, ...] = ()

    scope = "ret_body"  # the return binder does not reach the operation clauses


@node
class ESkelAbs:
    var: SkelVar
    body: "Value"


@node
class ESkelApp:
    val: "Value"
    skel: Skeleton


@node
class ETyAbs:
    var: TyVar
    skel: Skeleton
    body: "Value"


@node
class ETyApp:
    val: "Value"
    ty: ValueType


@node
class EDirtAbs:
    var: DirtVar
    body: "Value"


@node
class EDirtApp:
    val: "Value"
    dirt: Dirt


@node
class ECoAbs:
    var: CoVar
    constraint: SimpleConstraint
    body: "Value"


@node
class ECoApp:
    val: "Value"
    co: Coercion


@node
class ECast:
    val: "Value"
    co: Coercion


Value = (
    EVar, EUnit, EInt, EAbs, EHandler, ESkelAbs, ESkelApp, ETyAbs, ETyApp,
    EDirtAbs, EDirtApp, ECoAbs, ECoApp, ECast,
)


@node
class CReturn:
    val: Value


@node
class COp:
    op: str
    arg: Value
    var: TermVar
    var_ty: ValueType
    body: "Comp"


@node
class CDo:
    var: TermVar
    first: "Comp"
    second: "Comp"


@node
class CHandle:
    handler: Value
    body: "Comp"


@node
class CApp:
    fn: Value
    arg: Value


@node
class CLet:
    var: TermVar
    val: Value
    body: "Comp"


@node
class CCast:
    comp: "Comp"
    co: Coercion


Comp = (CReturn, COp, CDo, CHandle, CApp, CLet, CCast)


# A cast whose coercion is reflexive has the type and the erasure of its
# subject, so no code path builds one: these constructors return the subject
# instead, and a substitution that makes a cast's coercion reflexive returns
# the substituted subject.


def cast(v: Value, co: Coercion) -> Value:
    """`v ▷ co`, or `v` itself when `co` is reflexive; NoEff's casts too."""
    return v if is_refl(co) else ECast(v, co)


def cast_comp(c: Comp, co: Coercion) -> Comp:
    """`c ▷ co`, or `c` itself when `co` is reflexive."""
    return c if is_refl(co) else CCast(c, co)


cast_hook(ECast, is_refl)
cast_hook(CCast, is_refl)


# ---------------------------------------------------------------------------
# Well-formedness

_UNBOUND = {SkelVar: "skeleton variable s", TyVar: "type variable a"}


def wf_bound(env: Context, t) -> None:
    """Raise WfError unless `env` binds every skeleton and type variable free
    in `t`, a type-level object of any calculus.  `wf_dirt` checks dirt
    variables, together with the operations of their dirt."""
    for sort, what in _UNBOUND.items():
        scope = getattr(env, Context.SORTS[sort])
        for v in free_vars(t, sort):
            if v.id not in scope:
                raise WfError(f"unbound {what}{v.id}")


def wf_dirt(env: Context, d: Dirt) -> None:
    for op in d.sorted_ops():
        env.sig.lookup(op)
    if d.tail is not None and d.tail.id not in env.dirt:
        raise WfError(f"unbound dirt variable d{d.tail.id}")


def wf(env: Context, t) -> None:
    """Check that a type or constraint is well-formed: its variables are
    bound, its dirts well-formed, and each constraint in it relates types of
    one skeleton."""
    wf_bound(env, t)
    _wf_parts(env, t)


def _wf_parts(env: Context, t) -> None:
    cls = type(t)
    if cls is Dirt:
        wf_dirt(env, t)
        return
    if cls is TForallTy:
        env = env.bind(t.var, t.skel)
    elif cls is TForallDirt:
        env = env.bind(t.var)
    elif cls in (TySub, CompSub) and not alpha_eq(skeleton(env.ty, t.lhs), skeleton(env.ty, t.rhs)):
        raise WfError("subtyping constraint relates types with different skeletons")
    for f in shape(cls).kids:
        _wf_parts(env, getattr(t, f.name))


def wf_vty(env: Context, t: Union[ValueType, CompType]) -> Skeleton:
    """Check well-formedness and return the type's skeleton."""
    wf(env, t)
    return skeleton(env.ty, t)


# ---------------------------------------------------------------------------
# Reflexivity coercions


def refl_of(t) -> Coercion:
    """A coercion witnessing t <= t, built by traversing the structure of t.
    A dirt's is one `CoDirtRefl`, so substitution commutes with it."""
    if isinstance(t, Dirt):
        return CoDirtRefl(t)
    if isinstance(t, CompType):
        return CoComp(refl_of(t.val), CoDirtRefl(t.dirt))
    if isinstance(t, TyVar):
        return CoTyRefl(t)
    if isinstance(t, TBase):
        return CoBaseRefl(t.base)
    if isinstance(t, TArrow):
        return CoArrow(refl_of(t.dom), refl_of(t.cod))
    if isinstance(t, THandler):
        return CoHandler(refl_of(t.dom), refl_of(t.cod))
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Substitution

# A four-sorted substitution instantiating skeleton, type, dirt and coercion
# variables, applied by `traverse.substitute`.  Replacing a type variable
# under a `CoTyRefl` rewrites the coercion via refl_of, so coercions stay
# well-formed; a `CoDirtRefl` holds a whole dirt and substitutes it in place.


class Subst:
    def __init__(self, skel=None, ty=None, dirt=None, co=None):
        self.skel: dict = dict(skel or {})
        self.ty: dict = dict(ty or {})
        self.dirt: dict = dict(dirt or {})
        self.co: dict = dict(co or {})

    def is_empty(self) -> bool:
        return not (self.skel or self.ty or self.dirt or self.co)

    def then(self, later: "Subst") -> "Subst":
        """Compose: apply self first, then `later`."""
        out = Subst(
            {k: substitute(later, v) for k, v in self.skel.items()},
            {k: substitute(later, v) for k, v in self.ty.items()},
            {k: substitute(later, v) for k, v in self.dirt.items()},
            {k: substitute(later, v) for k, v in self.co.items()},
        )
        for attr in ("skel", "ty", "dirt", "co"):
            mine = getattr(out, attr)
            for k, v in getattr(later, attr).items():
                if k not in mine:
                    mine[k] = v
        return out

    @staticmethod
    def one_skel(v: SkelVar, s: Skeleton) -> "Subst":
        return Subst(skel={v.id: s})

    @staticmethod
    def one_ty(v: TyVar, t: ValueType) -> "Subst":
        return Subst(ty={v.id: t})

    @staticmethod
    def one_dirt(v: DirtVar, d: Dirt) -> "Subst":
        return Subst(dirt={v.id: d})


class Single(Subst):
    """The substitution of `repl` for the one variable `v`, as a type
    application's beta step builds it for `traverse.instantiate`.  The
    solver writes into its substitutions, so only these, built afresh for
    each application and never changed, cache their domain."""

    def __init__(self, v, repl):
        super().__init__()
        getattr(self, Context.SORTS[type(v)])[v.id] = repl
        self.mask = var_bit(v)
        self.keep = ~self.mask
        self.rvars = type_bits(repl)
        self.drops = 0


@subst_hook(Dirt)
def subst_dirt(s: Subst, d: Dirt) -> Dirt:
    if d.tail is not None and d.tail.id in s.dirt:
        repl = s.dirt[d.tail.id]
        return Dirt(d.ops | repl.ops, repl.tail)
    return d


@subst_hook(CoTyRefl)
def _subst_co_ty_refl(s: Subst, co: CoTyRefl) -> Coercion:
    return refl_of(s.ty[co.var.id]) if co.var.id in s.ty else co


# ---------------------------------------------------------------------------
# Type checking

# Given a `Derivation`, the checker records in it what it derives for every
# node of the term it checks: the type of each value and computation and the
# constraint of each coercion.  `derive` returns such a record, so that later
# passes read the derivation instead of re-deriving it.
#
# A check without one keeps instead the type of each closed value and
# computation (summary 0, see `traverse.Closed`) on the node, tagged with the
# signature, and returns it when the node is checked again under that
# signature: no variable is free in the node, so no context binding can
# change its type, and a signature only grows (`Signature.declare` refuses a
# second declaration).  Nodes that a step rebuilds are new objects, so a
# harness step re-checks only what it rebuilt and the open nodes.


class Derivation(dict):
    """id(node) -> what the checker derived for the node, for every value,
    computation and coercion node of one term, valid while the term is alive
    (`derive` keeps it alive in `root`); `sig` is the signature the term was
    checked under.

    A node object shared between positions has one entry, and `again` keeps
    what the other positions derived for it.  Evaluation shares nodes whose
    free variables are bound differently at each position (a type
    application rebuilds only the nodes that mention the type variable), so
    the checker accepts such a node, and `of` refuses to read one whose
    positions disagree."""

    def __init__(self, sig: Signature, root=None):
        super().__init__()
        self.sig = sig
        self.root = root
        self.again: dict = {}

    def of(self, node):
        t = self[id(node)]
        for other in self.again.get(id(node), ()):
            if not alpha_eq(t, other):
                raise AssertionError(
                    f"one {type(node).__name__} node is checked at two different types"
                )
        return t


def derive(env: Context, c: Comp) -> Derivation:
    """Check `c` and return its derivation; `typecheck_comp` is its root type."""
    derived = Derivation(env.sig, c)
    typecheck_comp(env, c, derived)
    return derived


def typecheck_value(env: Context, v: Value, derived: Optional[Derivation] = None) -> ValueType:
    if derived is None:
        memo = getattr(v, CLOSED, None)
        if memo is not None and memo.sig is env.sig:
            return memo.ty
    if isinstance(v, EVar):
        try:
            t = env.term[v.var.id]
        except KeyError:
            raise UnboundVariable(f"unbound variable {v.var.name}") from None
    elif isinstance(v, EUnit):
        t = T_UNIT
    elif isinstance(v, EInt):
        t = T_INT
    elif isinstance(v, EAbs):
        wf(env, v.ty)
        body_ty = typecheck_comp(env.bind(v.var, v.ty), v.body, derived)
        t = TArrow(v.ty, body_ty)
    elif isinstance(v, EHandler):
        wf(env, v.ret_ty)
        out_cty = typecheck_comp(env.bind(v.ret_var, v.ret_ty), v.ret_body, derived)
        ops = clause_ops(v.clauses)
        for cl in v.clauses:
            sig = env.sig.lookup(cl.op)
            cl_env = env.bind(cl.param, sig.param).bind(cl.kont, TArrow(sig.result, out_cty))
            got = typecheck_comp(cl_env, cl.body, derived)
            if not alpha_eq(got, out_cty):
                raise TypecheckError(
                    f"handler clause for {cl.op} has a different type than the return clause"
                )
        in_dirt = dirt_add(ops, out_cty.dirt)
        t = THandler(CompType(v.ret_ty, in_dirt), out_cty)
    elif isinstance(v, ESkelAbs):
        t = TForallSkel(v.var, typecheck_value(env.bind(v.var), v.body, derived))
    elif isinstance(v, ESkelApp):
        fn_ty = typecheck_value(env, v.val, derived)
        if not isinstance(fn_ty, TForallSkel):
            raise TypecheckError("skeleton application of a non-skeleton-polymorphic value")
        wf_bound(env, v.skel)
        t = substitute(Subst.one_skel(fn_ty.var, v.skel), fn_ty.body)
    elif isinstance(v, ETyAbs):
        wf_bound(env, v.skel)
        t = TForallTy(v.var, v.skel, typecheck_value(env.bind(v.var, v.skel), v.body, derived))
    elif isinstance(v, ETyApp):
        fn_ty = typecheck_value(env, v.val, derived)
        if not isinstance(fn_ty, TForallTy):
            raise TypecheckError("type application of a non-type-polymorphic value")
        arg_skel = wf_vty(env, v.ty)
        if not alpha_eq(arg_skel, fn_ty.skel):
            raise TypecheckError("type application instantiates at the wrong skeleton")
        t = substitute(Subst.one_ty(fn_ty.var, v.ty), fn_ty.body)
    elif isinstance(v, EDirtAbs):
        t = TForallDirt(v.var, typecheck_value(env.bind(v.var), v.body, derived))
    elif isinstance(v, EDirtApp):
        fn_ty = typecheck_value(env, v.val, derived)
        if not isinstance(fn_ty, TForallDirt):
            raise TypecheckError("dirt application of a non-dirt-polymorphic value")
        wf_dirt(env, v.dirt)
        t = substitute(Subst.one_dirt(fn_ty.var, v.dirt), fn_ty.body)
    elif isinstance(v, ECoAbs):
        wf(env, v.constraint)
        body_ty = typecheck_value(env.bind(v.var, v.constraint), v.body, derived)
        t = TQual(v.constraint, body_ty)
    elif isinstance(v, ECoApp):
        fn_ty = typecheck_value(env, v.val, derived)
        if not isinstance(fn_ty, TQual):
            raise TypecheckError("coercion application of a non-qualified value")
        got = typecheck_coercion(env, v.co, derived)
        if not alpha_eq(got, fn_ty.constraint):
            raise TypecheckError("coercion application witnesses the wrong constraint")
        t = fn_ty.body
    elif isinstance(v, ECast):
        subj_ty = typecheck_value(env, v.val, derived)
        ct = typecheck_coercion(env, v.co, derived)
        if not isinstance(ct, TySub):
            raise TypecheckError("value cast by a non-value coercion")
        if not alpha_eq(ct.lhs, subj_ty):
            raise TypecheckError("cast coercion's source type differs from the subject's type")
        t = ct.rhs
    else:
        raise TypeError(v)
    if derived is not None:
        if derived.setdefault(id(v), t) is not t:
            derived.again.setdefault(id(v), []).append(t)
    elif memo is not None:
        memo.sig, memo.ty = env.sig, t
    elif getattr(v, FREE, None) == 0:
        object.__setattr__(v, CLOSED, Closed(env.sig, t, None))
    return t


def typecheck_comp(env: Context, c: Comp, derived: Optional[Derivation] = None) -> CompType:
    if derived is None:
        memo = getattr(c, CLOSED, None)
        if memo is not None and memo.sig is env.sig:
            return memo.ty
    if isinstance(c, CApp):
        fn_ty = typecheck_value(env, c.fn, derived)
        if not isinstance(fn_ty, TArrow):
            raise TypecheckError("application of a non-function value")
        arg_ty = typecheck_value(env, c.arg, derived)
        if not alpha_eq(arg_ty, fn_ty.dom):
            raise TypecheckError("function applied to an argument of the wrong type")
        t = fn_ty.cod
    elif isinstance(c, CLet):
        val_ty = typecheck_value(env, c.val, derived)
        t = typecheck_comp(env.bind(c.var, val_ty), c.body, derived)
    elif isinstance(c, CReturn):
        t = CompType(typecheck_value(env, c.val, derived), EMPTY_DIRT)
    elif isinstance(c, CDo):
        first = typecheck_comp(env, c.first, derived)
        second = typecheck_comp(env.bind(c.var, first.val), c.second, derived)
        if not alpha_eq(first.dirt, second.dirt):
            raise TypecheckError("do-sequence branches draw from different dirts")
        t = second
    elif isinstance(c, COp):
        sig = env.sig.lookup(c.op)
        arg_ty = typecheck_value(env, c.arg, derived)
        if not alpha_eq(arg_ty, sig.param):
            raise TypecheckError(f"operation {c.op} applied to an argument of the wrong type")
        if not alpha_eq(c.var_ty, sig.result):
            raise TypecheckError(f"operation {c.op} continuation binder annotation mismatch")
        t = typecheck_comp(env.bind(c.var, c.var_ty), c.body, derived)
        if c.op not in t.dirt.ops:
            raise TypecheckError(f"operation {c.op} missing from the computation's dirt")
    elif isinstance(c, CHandle):
        h_ty = typecheck_value(env, c.handler, derived)
        if not isinstance(h_ty, THandler):
            raise TypecheckError("with-handle applied to a non-handler value")
        body_ty = typecheck_comp(env, c.body, derived)
        if not alpha_eq(body_ty, h_ty.dom):
            raise TypecheckError("handled computation does not match the handler's input type")
        t = h_ty.cod
    elif isinstance(c, CCast):
        subj = typecheck_comp(env, c.comp, derived)
        ct = typecheck_coercion(env, c.co, derived)
        if not isinstance(ct, CompSub):
            raise TypecheckError("computation cast by a non-computation coercion")
        if not alpha_eq(ct.lhs, subj):
            raise TypecheckError("cast coercion's source type differs from the subject's type")
        t = ct.rhs
    else:
        raise TypeError(c)
    if derived is not None:
        if derived.setdefault(id(c), t) is not t:
            derived.again.setdefault(id(c), []).append(t)
    elif memo is not None:
        memo.sig, memo.ty = env.sig, t
    elif getattr(c, FREE, None) == 0:
        object.__setattr__(c, CLOSED, Closed(env.sig, t, None))
    return t


def typecheck_coercion(env: Context, co: Coercion, derived: Optional[Derivation] = None):
    """Return the coercion's constraint type: TySub, DirtSub or CompSub."""
    if isinstance(co, CoVarRef):
        try:
            ct = env.co[co.var.id]
        except KeyError:
            raise UnboundVariable(f"unbound coercion variable w{co.var.id}") from None
    elif isinstance(co, CoBaseRefl):
        t = T_BASE[co.base]
        ct = TySub(t, t)
    elif isinstance(co, CoTyRefl):
        wf_bound(env, co.var)
        ct = TySub(co.var, co.var)
    elif isinstance(co, CoDirtRefl):
        wf_dirt(env, co.dirt)
        ct = DirtSub(co.dirt, co.dirt)
    elif isinstance(co, CoArrow):
        dom = typecheck_coercion(env, co.dom, derived)
        cod = typecheck_coercion(env, co.cod, derived)
        if not (isinstance(dom, TySub) and isinstance(cod, CompSub)):
            raise TypecheckError("ill-kinded arrow coercion")
        ct = TySub(TArrow(dom.rhs, cod.lhs), TArrow(dom.lhs, cod.rhs))
    elif isinstance(co, CoHandler):
        dom = typecheck_coercion(env, co.dom, derived)
        cod = typecheck_coercion(env, co.cod, derived)
        if not (isinstance(dom, CompSub) and isinstance(cod, CompSub)):
            raise TypecheckError("ill-kinded handler coercion")
        ct = TySub(THandler(dom.rhs, cod.lhs), THandler(dom.lhs, cod.rhs))
    elif isinstance(co, CoEmpty):
        wf_dirt(env, co.dirt)
        ct = DirtSub(EMPTY_DIRT, co.dirt)
    elif isinstance(co, CoOpUnion):
        env.sig.lookup(co.op)
        rest = typecheck_coercion(env, co.rest, derived)
        if not isinstance(rest, DirtSub):
            raise TypecheckError("ill-kinded dirt-extension coercion")
        ct = DirtSub(dirt_add([co.op], rest.lhs), dirt_add([co.op], rest.rhs))
    elif isinstance(co, CoComp):
        val = typecheck_coercion(env, co.val, derived)
        d = typecheck_coercion(env, co.dirt, derived)
        if not (isinstance(val, TySub) and isinstance(d, DirtSub)):
            raise TypecheckError("ill-kinded computation coercion")
        ct = CompSub(CompType(val.lhs, d.lhs), CompType(val.rhs, d.rhs))
    else:
        raise TypeError(co)
    if derived is not None and derived.setdefault(id(co), ct) is not ct:
        derived.again.setdefault(id(co), []).append(ct)
    return ct


# ---------------------------------------------------------------------------
# Result classification

# Evaluation results are stratified: terminal values, cast value results,
# terminal computations (return under computation casts) and computation
# results (terminal computations or operation calls).


_TERMINAL_HEADS = (EUnit, EInt, EAbs, EHandler, ESkelAbs, ETyAbs, EDirtAbs, ECoAbs)

# Cast heads a value result of each terminal shape may carry.  Base-type
# values admit no casts at all (their only coercions are reflexivity forms,
# which reduce away), so an ill-sorted cast like `unit |> (g1 -> g2)` is not
# a result.
_COMPATIBLE_CAST = {
    EAbs: CoArrow,
    EHandler: CoHandler,
}


def is_terminal_value(v: Value) -> bool:
    return isinstance(v, _TERMINAL_HEADS)


def is_value_result(v: Value) -> bool:
    """A terminal value under casts of the one sort its shape admits."""
    cos = []
    while type(v) is ECast:
        cos.append(v.co)
        v = v.val
    if not is_terminal_value(v):
        return False
    expect = _COMPATIBLE_CAST.get(type(v))
    return not cos or (expect is not None and all(type(co) is expect for co in cos))


def is_terminal_comp(c: Comp) -> bool:
    while type(c) is CCast:
        if type(c.co) is not CoComp:
            return False
        c = c.comp
    return type(c) is CReturn and is_value_result(c.val)


def is_comp_result(c: Comp) -> bool:
    if is_terminal_comp(c):
        return True
    return isinstance(c, COp) and is_value_result(c.arg)


# ---------------------------------------------------------------------------
# Small-step operational semantics: per class, the evaluation positions and
# head rules in the order `traverse.Reduction` tries them.


def _returned(c: Comp) -> Value:
    """The value a terminal computation returns, under the value parts of its
    casts."""
    cos = []
    while type(c) is CCast:
        cos.append(c.co.val)
        c = c.comp
    v = c.val
    for co in reversed(cos):
        v = cast(v, co)
    return v


def _cast_refl(v: ECast):
    if type(v.co) is CoBaseRefl and is_value_result(v.val):
        return v.val


def _type_app(app, abs_) -> tuple:
    """The rule of an application to a skeleton, type, dirt or coercion:
    beta-reduce."""
    arg = shape(app).names[1]

    def head(t):
        f = t.val
        if type(f) is abs_:
            return instantiate(Single(f.var, getattr(t, arg)), f.body)
        return None

    return "val", head


def _cast_op(c: CCast):
    op = c.comp
    if type(op) is COp and is_value_result(op.arg):
        return COp(op.op, op.arg, op.var, op.var_ty, cast_comp(op.body, c.co))


def _app(c: CApp):
    f = c.fn
    if type(f) is ECast and type(f.co) is CoArrow and is_value_result(f):
        return cast_comp(CApp(f.val, cast(c.arg, f.co.dom)), f.co.cod)
    if type(f) is EAbs and is_value_result(c.arg):
        return subst_term(c.arg, f.var, f.body)
    return None


def _let_beta(c: CLet):
    if is_value_result(c.val):
        return subst_term(c.val, c.var, c.body)


def _do(c: CDo):
    if is_terminal_comp(c.first):
        return subst_term(_returned(c.first), c.var, c.second)
    op = c.first
    if type(op) is COp and is_value_result(op.arg):
        return COp(op.op, op.arg, op.var, op.var_ty, CDo(c.var, op.body, c.second))


def _handle(c: CHandle):
    h = c.handler
    if type(h) is ECast and type(h.co) is CoHandler and is_value_result(h):
        return cast_comp(CHandle(h.val, cast_comp(c.body, h.co.dom)), h.co.cod)
    if type(h) is not EHandler:
        return None
    if is_terminal_comp(c.body):
        return subst_term(_returned(c.body), h.ret_var, h.ret_body)
    op = c.body
    if type(op) is COp and is_value_result(op.arg):
        return handle_op(h, op, CHandle, EAbs)


RULES = {
    **{cls: () for cls in (EVar, OpClause, *_TERMINAL_HEADS)},
    ECast: ("val", _cast_refl),
    ESkelApp: _type_app(ESkelApp, ESkelAbs),
    ETyApp: _type_app(ETyApp, ETyAbs),
    EDirtApp: _type_app(EDirtApp, EDirtAbs),
    ECoApp: _type_app(ECoApp, ECoAbs),
    CReturn: ("val",),
    COp: ("arg",),
    CCast: ("comp", _cast_op),
    CApp: ("fn", ("arg", "fn", is_terminal_value), _app),
    CLet: ("val", _let_beta),
    CDo: ("first", _do),
    CHandle: ("handler", ("body", "handler", is_terminal_value), _handle),
}

REDUCTION = Reduction(RULES, is_comp_result, lambda c: "stuck computation (metatheory violation)")
VALUE_REDUCTION = Reduction(RULES, is_value_result, lambda v: "stuck value (metatheory violation)")

# One relation steps values and computations; None when the term is a result.
step_comp = REDUCTION.step


@dataclass
class EvalOutcome:
    result: object
    steps: int
    trace: Optional[list] = None


def eval_comp(c: Comp, fuel: int = 100_000, keep_trace: bool = False) -> EvalOutcome:
    """Step until a computation result is reached."""
    return EvalOutcome(*REDUCTION.run(c, fuel, keep_trace))
