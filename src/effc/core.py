"""Shared syntax: variables, skeletons, dirts, types, constraints.

The core-language type grammar is shared by the whole pipeline: the source
language uses its monotype fragment, inference decorates its type variables
with skeletons, and the backends consume it wholesale.
"""

from __future__ import annotations

from dataclasses import MISSING, Field, dataclass, field, fields
from enum import Enum
from operator import attrgetter
from typing import Iterable, Optional, Union


# ---------------------------------------------------------------------------
# Node classes

NODES: list = []  # every class declared with `node`, in declaration order


def _node_eq(self, other):
    if other is self:
        return True
    cls = type(self)
    if type(other) is cls:
        key = cls._compared
        return key(self) == key(other)
    return NotImplemented


def _node_hash(self):
    cls = type(self)
    key = cls._compared(self)
    return hash((key,) if cls._one_compared else key)


def _node_repr(self):
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
    return f"{self.__class__.__qualname__}({shown})"


def _no_fields(self) -> tuple:
    return ()


def _signature_doc(cls: type) -> str:
    """`Name(field: 'annotation' = default, ...)`, the docstring `dataclass`
    would give the class, built from its annotations alone."""
    params = []
    for name, ann in cls.__dict__.get("__annotations__", {}).items():
        default = cls.__dict__.get(name, MISSING)
        if isinstance(default, Field):
            default = default.default
        params.append(f"{name}: {ann!r}" + ("" if default is MISSING else f" = {default!r}"))
    return f"{cls.__name__}({', '.join(params)})"


def node(cls: type) -> type:
    """Declare a node class: a dataclass whose instances are compared and
    hashed by their fields, and never changed once built.

    `dataclass` generates the class's `__init__` and its field metadata
    (`dataclasses.fields`, read by `traverse.Shape`, the dump reader and the
    test suite).  Equality, hash and repr are the three functions above,
    shared by every node class and driven by the class's `_compared`, a
    getter of its `compare=True` fields (a tuple of their values, or the one
    value of a class with one).  They behave as the ones `dataclass(eq=True,
    unsafe_hash=True)` generates: `==` is `NotImplemented` across classes,
    the hash is that of the tuple of compared fields, and the repr is
    `Qualname(field=value, ...)`.  Generating them per class, and a
    docstring through `inspect.signature`, took most of effc's import time,
    which every `effc` command pays once.  A node is equal to itself at
    once: the checkers often compare a node with itself, and the shared
    `__eq__` reads fields more slowly than a generated one did.

    The class is not `frozen`, since a frozen dataclass's `__init__` stores
    each field through `object.__setattr__` and takes more than twice as
    long; the test suite enforces immutability instead, with a guard on
    every class in `NODES` that raises `dataclasses.FrozenInstanceError` on a
    field store or delete after construction (`tests/conftest.py`).
    Attributes that are not fields, like the summaries of `traverse`, are
    set with `object.__setattr__`."""
    if cls.__doc__ is None:
        cls.__doc__ = _signature_doc(cls)
    cls = dataclass(eq=False, repr=False)(cls)
    compared = tuple(f.name for f in fields(cls) if f.compare)
    cls._compared = attrgetter(*compared) if compared else _no_fields
    cls._one_compared = len(compared) == 1
    cls.__eq__, cls.__hash__, cls.__repr__ = _node_eq, _node_hash, _node_repr
    NODES.append(cls)
    return cls


# ---------------------------------------------------------------------------
# Errors


@node
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


@node
class SkelVar:
    id: int


@node
class TyVar:
    id: int


@node
class DirtVar:
    id: int


@node
class CoVar:
    id: int


@node
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


@node
class SkelBase:
    base: Base


@node
class SkelArrow:
    dom: "Skeleton"
    cod: "Skeleton"


@node
class SkelHandler:
    dom: "Skeleton"
    cod: "Skeleton"


@node
class SkelForall:
    var: SkelVar
    body: "Skeleton"


# A syntactic category is the plain tuple of its node classes, as `isinstance`
# takes it and the dump reader reads it.  It is no `typing.Union`: typing's
# process-wide caches would keep every class of one import of effc alive
# after the next import.
Skeleton = (SkelVar, SkelBase, SkelArrow, SkelHandler, SkelForall)

SKEL_UNIT = SkelBase(Base.UNIT)
SKEL_INT = SkelBase(Base.INT)
SKEL_BASE = {Base.UNIT: SKEL_UNIT, Base.INT: SKEL_INT}  # each base's one skeleton node


# ---------------------------------------------------------------------------
# Dirts

# A dirt is a finite set of operation names plus an optional variable tail.
# The representation is canonical (a set, not a cons list), so the intended
# set semantics hold by construction.


@node
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


@node
class TBase:
    base: Base


@node
class TArrow:
    dom: "ValueType"
    cod: "CompType"


@node
class THandler:
    dom: "CompType"
    cod: "CompType"


@node
class TForallSkel:
    var: SkelVar
    body: "ValueType"


@node
class TForallTy:
    var: TyVar
    skel: Skeleton
    body: "ValueType"


@node
class TForallDirt:
    var: DirtVar
    body: "ValueType"


@node
class TQual:
    constraint: "SimpleConstraint"
    body: "ValueType"


@node
class CompType:
    val: "ValueType"
    dirt: Dirt


ValueType = (TyVar, TBase, TArrow, THandler, TForallSkel, TForallTy, TForallDirt, TQual)

T_UNIT = TBase(Base.UNIT)
T_INT = TBase(Base.INT)
T_BASE = {Base.UNIT: T_UNIT, Base.INT: T_INT}  # each base's one type node


# ---------------------------------------------------------------------------
# Subtyping constraints


@node
class TySub:
    lhs: ValueType
    rhs: ValueType


@node
class DirtSub:
    lhs: Dirt
    rhs: Dirt


@node
class CompSub:
    lhs: CompType
    rhs: CompType


SimpleConstraint = (TySub, DirtSub)


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
        return SKEL_BASE[t.base]
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


@node
class OpSig:
    param: ValueType
    result: ValueType


class Signature:
    """Global operation signature: operation name -> parameter/result types."""

    def __init__(self, ops: Optional[dict] = None):
        self.ops: dict = dict(ops or {})
        self.spans: dict = {}  # operation name -> span of its declaration

    def declare(self, name: str, param: ValueType, result: ValueType, span: Optional[Span] = None) -> None:
        if name in self.ops:
            raise ParseError(f"duplicate operation declaration: {name}", span)
        self.ops[name] = OpSig(param, result)
        self.spans[name] = span

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
