"""Shared syntax: variables, skeletons, dirts, types, constraints.

The core-language type grammar is shared by the whole pipeline: the source
language uses its monotype fragment, inference decorates its type variables
with skeletons, and the backends consume it wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Union


# ---------------------------------------------------------------------------
# Errors


@dataclass(frozen=True)
class Span:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class EffError(Exception):
    """Base class for every diagnostic the pipeline can report."""

    def __init__(self, msg: str, span: Optional[Span] = None):
        self.msg = msg
        self.span = span
        super().__init__(msg if span is None else f"{span}: {msg}")


class LexError(EffError):
    pass


class ParseError(EffError):
    pass


class WfError(EffError):
    """Ill-formed type, dirt, skeleton or constraint."""


class UnknownOperation(WfError):
    pass


class UnboundVariable(EffError):
    pass


class TypecheckError(EffError):
    pass


class SolveError(EffError):
    """Constraint solving failed; carries the offending constraint."""

    def __init__(self, msg: str, constraint=None, span: Optional[Span] = None):
        self.constraint = constraint
        super().__init__(msg, span)


class OccursCheck(SolveError):
    pass


class SkeletonClash(SolveError):
    pass


class DirtClash(SolveError):
    pass


class FuelExhausted(EffError):
    pass


class StuckTerm(EffError):
    def __init__(self, msg: str, term=None):
        self.term = term
        super().__init__(msg)


class ElaborationError(EffError):
    """ExEff-to-pure-backend elaboration hit a term outside its domain."""


# ---------------------------------------------------------------------------
# Variables and fresh-name supply


@dataclass(frozen=True)
class SkelVar:
    id: int


@dataclass(frozen=True)
class TyVar:
    id: int


@dataclass(frozen=True)
class DirtVar:
    id: int


@dataclass(frozen=True)
class CoVar:
    id: int


@dataclass(frozen=True)
class TermVar:
    id: int
    name: str = field(compare=False, default="x")


class Supply:
    """Monotone per-sort counters; never reissues an id within a session."""

    def __init__(self) -> None:
        self._next = {"skel": 0, "ty": 0, "dirt": 0, "co": 0, "term": 0}

    def _take(self, sort: str) -> int:
        n = self._next[sort]
        self._next[sort] = n + 1
        return n

    def skel(self) -> SkelVar:
        return SkelVar(self._take("skel"))

    def ty(self) -> TyVar:
        return TyVar(self._take("ty"))

    def dirt(self) -> DirtVar:
        return DirtVar(self._take("dirt"))

    def co(self) -> CoVar:
        return CoVar(self._take("co"))

    def term(self, name: str = "x") -> TermVar:
        return TermVar(self._take("term"), name)


# ---------------------------------------------------------------------------
# Base types and skeletons


class Base(Enum):
    UNIT = "Unit"
    INT = "Int"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SkelBase:
    base: Base


@dataclass(frozen=True)
class SkelArrow:
    dom: "Skeleton"
    cod: "Skeleton"


@dataclass(frozen=True)
class SkelHandler:
    dom: "Skeleton"
    cod: "Skeleton"


@dataclass(frozen=True)
class SkelForall:
    var: SkelVar
    body: "Skeleton"


Skeleton = Union[SkelVar, SkelBase, SkelArrow, SkelHandler, SkelForall]

SKEL_UNIT = SkelBase(Base.UNIT)
SKEL_INT = SkelBase(Base.INT)


# ---------------------------------------------------------------------------
# Dirts

# A dirt is a finite set of operation names plus an optional variable tail.
# The representation is canonical (a set, not a cons list), so the intended
# set semantics hold by construction.


@dataclass(frozen=True)
class Dirt:
    ops: frozenset = frozenset()
    tail: Optional[DirtVar] = None

    def is_empty(self) -> bool:
        return not self.ops and self.tail is None

    def sorted_ops(self) -> list:
        return sorted(self.ops)


EMPTY_DIRT = Dirt()


def dirt(ops: Iterable[str] = (), tail: Optional[DirtVar] = None) -> Dirt:
    return Dirt(frozenset(ops), tail)


def dirt_var(v: DirtVar) -> Dirt:
    return Dirt(frozenset(), v)


def dirt_add(ops: Iterable[str], d: Dirt) -> Dirt:
    return Dirt(d.ops | frozenset(ops), d.tail)


# ---------------------------------------------------------------------------
# Value and computation types (shared by ImpEff and ExEff)


@dataclass(frozen=True)
class TBase:
    base: Base


@dataclass(frozen=True)
class TArrow:
    dom: "ValueType"
    cod: "CompType"


@dataclass(frozen=True)
class THandler:
    dom: "CompType"
    cod: "CompType"


@dataclass(frozen=True)
class TForallSkel:
    var: SkelVar
    body: "ValueType"


@dataclass(frozen=True)
class TForallTy:
    var: TyVar
    skel: Skeleton
    body: "ValueType"


@dataclass(frozen=True)
class TForallDirt:
    var: DirtVar
    body: "ValueType"


@dataclass(frozen=True)
class TQual:
    constraint: "SimpleConstraint"
    body: "ValueType"


@dataclass(frozen=True)
class CompType:
    val: "ValueType"
    dirt: Dirt


ValueType = Union[TyVar, TBase, TArrow, THandler, TForallSkel, TForallTy, TForallDirt, TQual]

T_UNIT = TBase(Base.UNIT)
T_INT = TBase(Base.INT)


# ---------------------------------------------------------------------------
# Subtyping constraints


@dataclass(frozen=True)
class TySub:
    lhs: ValueType
    rhs: ValueType


@dataclass(frozen=True)
class DirtSub:
    lhs: Dirt
    rhs: Dirt


@dataclass(frozen=True)
class CompSub:
    lhs: CompType
    rhs: CompType


SimpleConstraint = Union[TySub, DirtSub]


# ---------------------------------------------------------------------------
# Skeletons of types


def skeleton(tys: dict, t: Union[ValueType, CompType]) -> Skeleton:
    """The skeleton of a value type, or of a computation type's value part:
    its effect-erased shape.  `tys` maps the id of each type variable in scope
    to its skeleton."""
    if isinstance(t, CompType):
        return skeleton(tys, t.val)
    if isinstance(t, TyVar):
        try:
            return tys[t.id]
        except KeyError:
            raise WfError(f"unbound type variable a{t.id}") from None
    if isinstance(t, TBase):
        return SkelBase(t.base)
    if isinstance(t, TArrow):
        return SkelArrow(skeleton(tys, t.dom), skeleton(tys, t.cod))
    if isinstance(t, THandler):
        return SkelHandler(skeleton(tys, t.dom), skeleton(tys, t.cod))
    if isinstance(t, TForallSkel):
        return SkelForall(t.var, skeleton(tys, t.body))
    if isinstance(t, TForallTy):
        return skeleton({**tys, t.var.id: t.skel}, t.body)
    if isinstance(t, (TForallDirt, TQual)):
        return skeleton(tys, t.body)
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Operation signature


@dataclass(frozen=True)
class OpSig:
    param: ValueType
    result: ValueType


class Signature:
    """Global operation signature: operation name -> parameter/result types."""

    def __init__(self, ops: Optional[dict] = None):
        self.ops: dict = dict(ops or {})

    def declare(self, name: str, param: ValueType, result: ValueType, span: Optional[Span] = None) -> None:
        if name in self.ops:
            raise ParseError(f"duplicate operation declaration: {name}", span)
        self.ops[name] = OpSig(param, result)

    def lookup(self, name: str, span: Optional[Span] = None) -> OpSig:
        try:
            return self.ops[name]
        except KeyError:
            raise UnknownOperation(f"unknown operation: {name}", span) from None

    def names(self) -> list:
        return sorted(self.ops)

    def map(self, f) -> "Signature":
        """The signature with `f` applied to every parameter and result type:
        the signature of another calculus, by its translation of types."""
        return Signature({name: OpSig(f(op.param), f(op.result)) for name, op in self.ops.items()})


# ---------------------------------------------------------------------------
# Typing contexts


class Context:
    """The typing context of ExEff, SkelEff and NoEff: per sort, the ids of
    the variables in scope and what each binds (a type variable its skeleton,
    a coercion variable its constraint, a term variable its type, a skeleton
    or dirt variable nothing), under one calculus's operation signature.  A
    calculus leaves the sorts it lacks empty."""

    SORTS = {SkelVar: "skel", TyVar: "ty", DirtVar: "dirt", CoVar: "co", TermVar: "term"}

    def __init__(self, sig: Signature):
        self.sig = sig
        self.skel, self.ty, self.dirt, self.co, self.term = {}, {}, {}, {}, {}

    def bind(self, v, what=None) -> "Context":
        """The context with `v` in scope, bound to `what`."""
        sort = self.SORTS[type(v)]
        out = object.__new__(Context)
        out.__dict__ = {**self.__dict__, sort: {**self.__dict__[sort], v.id: what}}
        return out


def clause_ops(clauses) -> set:
    """The operations that a handler's clauses handle, in any calculus.  A
    handler lists each operation once."""
    ops = set()
    for cl in clauses:
        if cl.op in ops:
            raise TypecheckError(f"handler lists operation {cl.op} twice")
        ops.add(cl.op)
    return ops
