"""Canonical renaming and the one notation of every intermediate language.

Canonicalization renames all variables (free first, then binders, in
traversal order) to per-sort sequential names, so printed artifacts are
deterministic and stable under alpha-equivalence.

`NOTATION` states the concrete syntax of the dumps once.  Every node class
of the skeletons, core types and constraints, ExEff coercions, values and
computations, and NoEff's own types, coercions and terms has one entry: the
precedence level of its form and a template of literal text and fields.  A
field `{name:p}` prints its child at precedence `p` (0 when omitted), and a
form prints in parentheses when it is asked for a precedence above its
level.  `show` prints any node from the table, and the `readers` module
reads the same table back.  SkelEff terms are ExEff terms with skeleton
annotations, and NoEff builds the core's classes for the forms it shares
with it, so both print and read with the core's entries; their readers read
those forms' fields in their own categories.  Dirts keep a hand-written
form: a sorted set of operations with an optional variable tail.
"""

from __future__ import annotations

import functools
import re
from string import Formatter

from . import exeff, noeff
from .core import (
    Base,
    CompSub,
    CompType,
    CoVar,
    Dirt,
    DirtSub,
    DirtVar,
    SkelArrow,
    SkelBase,
    SkelForall,
    SkelHandler,
    SkelVar,
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
)
from .lex import tokenize
from .traverse import VAR_CLASSES, _Table, rename

# ---------------------------------------------------------------------------
# The notation

ATOM = 3  # the tightest level: the form prints bare at every precedence
ALL = "all"  # a binder, merged with the binders under it into one group:
# `all b1 .. bn. body`, of level 0, where the body is the innermost `body`

# The statement forms the three calculi share.
_FUN = "fun ({var} : {ty}) -> {body}"
_HANDLER = "handler {{ return ({ret_var} : {ret_ty}) -> {ret_body}{clauses} }}"
_CLAUSE = "{op}({param}; {kont}) -> {body}"
# The binder annotation prints at atom level so its dot cannot be mistaken
# for the continuation separator.
_OP = "{op}({arg}; {var} : {var_ty:2}. {body})"
_DO = "do {var} <- {first} in {second}"
_LET = "let {var} = {val} in {body}"
_WITH = "with {handler:2} handle {body}"
_APP = "{fn:2} {arg:3}"

NOTATION = {
    # Variables: the first letter of a name tells its sort.
    SkelVar: (ATOM, "s{id}"),
    TyVar: (ATOM, "a{id}"),
    DirtVar: (ATOM, "d{id}"),
    CoVar: (ATOM, "w{id}"),
    TermVar: (ATOM, "{name}"),
    # Skeletons
    SkelBase: (ATOM, "{base}"),
    SkelArrow: (1, "{dom:2} -> {cod:1}"),
    SkelHandler: (1, "{dom:2} => {cod:1}"),
    SkelForall: (ALL, "{var}"),
    # Core types and constraints
    TBase: (ATOM, "{base}"),
    TArrow: (1, "{dom:2} -> {cod:1}"),
    THandler: (1, "{dom:1} => {cod:1}"),
    TForallSkel: (ALL, "{var}"),
    TForallTy: (ALL, "({var} : {skel})"),
    TForallDirt: (ALL, "{var}"),
    TQual: (ALL, "[{constraint}]"),
    CompType: (1, "{val:2} ! {dirt}"),
    TySub: (0, "{lhs:1} <= {rhs:1}"),
    DirtSub: (0, "{lhs} <= {rhs}"),
    CompSub: (0, "{lhs} <= {rhs}"),
    # ExEff coercions
    exeff.CoVarRef: (ATOM, "{var}"),
    exeff.CoBaseRefl: (ATOM, "<{base}>"),
    exeff.CoTyRefl: (ATOM, "<{var}>"),
    exeff.CoDirtRefl: (ATOM, "<{dirt}>"),
    exeff.CoEmpty: (ATOM, "empty({dirt})"),
    exeff.CoOpUnion: (2, "{{{op}}} + {rest:2}"),
    exeff.CoArrow: (1, "{dom:2} -> {cod:1}"),
    exeff.CoHandler: (1, "{dom:2} => {cod:1}"),
    exeff.CoComp: (2, "{val:3} ! {dirt:3}"),
    # ExEff values
    exeff.EVar: (ATOM, "{var}"),
    exeff.EUnit: (ATOM, "unit"),
    exeff.EInt: (ATOM, "{value}"),
    exeff.EAbs: (0, _FUN),
    exeff.EHandler: (ATOM, _HANDLER),
    exeff.OpClause: (ATOM, _CLAUSE),
    exeff.ESkelAbs: (0, "skfun {var}. {body}"),
    exeff.ETyAbs: (0, "tyfun ({var} : {skel}). {body}"),
    exeff.EDirtAbs: (0, "difun {var}. {body}"),
    exeff.ECoAbs: (0, "cofun ({var} : {constraint}). {body}"),
    exeff.ESkelApp: (2, "{val:2} @sk[{skel}]"),
    exeff.ETyApp: (2, "{val:2} @ty[{ty}]"),
    exeff.EDirtApp: (2, "{val:2} @di[{dirt}]"),
    exeff.ECoApp: (2, "{val:2} @co[{co}]"),
    exeff.ECast: (1, "{val:1} |> {co}"),
    # ExEff computations
    exeff.CReturn: (2, "return {val:2}"),
    exeff.COp: (2, _OP),
    exeff.CDo: (0, _DO),
    exeff.CLet: (0, _LET),
    exeff.CHandle: (0, _WITH),
    exeff.CApp: (2, _APP),
    exeff.CCast: (1, "{comp:1} |> {co}"),
    # NoEff's own forms; the rest of its types, coercions and terms are the
    # core's above.  Terms are one syntactic sort, so `return` parenthesizes
    # as an application operand to keep the grammar unambiguous.
    noeff.NHandler: (1, "{dom:2} => {cod:1}"),
    noeff.NComp: (2, "Comp {body:3}"),
    noeff.NForall: (ALL, "{var}"),
    noeff.NCoHandToFun: (ATOM, "hand2fun({dom}, {cod})"),
    noeff.NCoFunToHand: (ATOM, "fun2hand({dom}, {cod})"),
    noeff.NCoComp: (ATOM, "comp({body})"),
    noeff.NCoReturn: (ATOM, "return({body})"),
    noeff.NCoUnsafe: (ATOM, "unsafe({body})"),
    noeff.NCoQual: (ALL, "[{constraint}]"),
    noeff.MTyAbs: (0, "tyfun {var}. {body}"),
    noeff.MReturn: (1, "return {term:3}"),
}

_BINDERS = {cls for cls, (level, _) in NOTATION.items() if level is ALL}

# The letter a variable's name starts with in a dump, per sort.
_LETTERS = {cls: NOTATION[cls][1][0] for cls in (SkelVar, TyVar, DirtVar, CoVar)}
_SORTED_NAME = re.compile(f"([{''.join(_LETTERS.values())}])\\d+")


def _template(template: str) -> list:
    """(literal text, field name or None, precedence) for each piece of a
    template."""
    return [(lit, name, int(spec or 0)) for lit, name, spec, _ in Formatter().parse(template)]


@functools.lru_cache(maxsize=None)
def _keywords() -> frozenset:
    """Every word the notation spells out; no variable may be printed as one."""
    words = {ALL}
    for cls, (_, template) in NOTATION.items():
        if cls not in VAR_CLASSES:
            for lit, _, _ in _template(template):
                words.update(t.text for t in tokenize(lit) if t.kind == "ident")
    return frozenset(words)


# ---------------------------------------------------------------------------
# Canonical renaming


class _Canon:
    def __init__(self) -> None:
        self.maps = {SkelVar: {}, TyVar: {}, DirtVar: {}, CoVar: {}}
        self.term_map: dict = {}
        self.used_names: set = set()

    def var(self, v):
        cls = type(v)
        if cls is TermVar:
            if v.id not in self.term_map:
                base = v.name or "x"
                if _SORTED_NAME.fullmatch(base) or base in _keywords():
                    # Such names denote type-level variables or keywords in dumps.
                    base += "_v"
                name = base
                n = 1
                while name in self.used_names:
                    n += 1
                    name = f"{base}_{n}"
                self.used_names.add(name)
                self.term_map[v.id] = TermVar(len(self.term_map), name)
            return self.term_map[v.id]
        table = self.maps[cls]
        if v.id not in table:
            table[v.id] = cls(len(table))
        return table[v.id]


def canonicalize(x):
    """Rename every variable in `x` to sequential per-sort names."""
    return rename(x, _Canon().var)


# ---------------------------------------------------------------------------
# Printing


def show(node, prec: int = 0) -> str:
    """The text of any node of any IR at precedence `prec`."""
    return _PRINT[type(node)](node, prec)


def _fill(pieces: list, t) -> str:
    parts = []
    for lit, name, prec in pieces:
        parts.append(lit)
        if name is not None:
            x = getattr(t, name)
            parts.append(_PRINT[type(x)](x, prec))
    return "".join(parts)


def _build_printer(cls):
    if cls not in NOTATION:
        raise TypeError(f"no notation for {cls.__name__}")
    if cls in _BINDERS:
        return _show_binders
    level, pieces = NOTATION[cls][0], _PIECES[cls]

    def go(t, prec):
        out = _fill(pieces, t)
        return f"({out})" if prec > level else out

    return go


_PIECES = _Table(lambda cls: _template(NOTATION[cls][1]))


def _show_binders(t, prec):
    binders = []
    while type(t) in _BINDERS:
        binders.append(_fill(_PIECES[type(t)], t))
        t = t.body
    out = f"all {' '.join(binders)}. {show(t)}"
    return f"({out})" if prec > 0 else out


def _show_dirt(d: Dirt, prec: int = 0) -> str:
    ops = ", ".join(d.sorted_ops())
    if d.tail is None:
        return f"{{{ops}}}"
    if not d.ops:
        return show(d.tail)
    return f"{{{ops} | {show(d.tail)}}}"


_PRINT = _Table(_build_printer)
_PRINT.update(
    {
        str: lambda t, prec: t,
        int: lambda t, prec: str(t),
        Base: lambda t, prec: str(t),
        tuple: lambda t, prec: "".join(", " + show(e) for e in t),  # handler clauses
        Dirt: _show_dirt,
    }
)
