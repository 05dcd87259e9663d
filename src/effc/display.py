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
level.  `show` prints any node from the table, and `read_exeff_comp`,
`read_skeleff_comp` and `read_noeff_term` read the same table back.
SkelEff terms are ExEff terms with skeleton annotations, and NoEff builds
the core's classes for the forms it shares with it, so both print and read
with the core's entries; their readers read those forms' fields in their
own categories.  Dirts keep a hand-written form: a sorted set of operations
with an optional variable tail.
"""

from __future__ import annotations

import builtins
import dataclasses
import functools
import re
import sys
from string import Formatter
from typing import Optional

from . import exeff, noeff
from .core import (
    Base,
    CompSub,
    CompType,
    Context,
    CoVar,
    Dirt,
    DirtSub,
    DirtVar,
    ParseError,
    SimpleConstraint,
    SkelArrow,
    SkelBase,
    SkelForall,
    SkelHandler,
    SkelVar,
    Skeleton,
    Supply,
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
    ValueType,
)
from .lex import TokenStream, int_literal, tokenize
from .traverse import BIND, MANY, VAR_CLASSES, _annotation, _Table, rename, shape

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
    noeff.NCoTyRefl: (ATOM, "<{var}>"),
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


# ---------------------------------------------------------------------------
# Reading
#
# The reader reads each field in the syntactic category of its dataclass
# annotation, or in the one a reader's `read_as` map puts in its place: a
# variable, an atom (operation name, integer or base type), a tuple of
# handler clauses, or a category of nodes (a class, such as `Dirt`, or a
# tuple of classes, such as `Comp`).  A category's forms are keyed by the
# token they start with: a literal, or the lexical class of a variable or
# atom.  A class key is written in angle brackets, so that no token's text
# is one and a variable named `int` or `op` is not read as a literal or an
# atom.
# Forms that start with a child are read by precedence climbing, over the
# category and every category that leads one of its forms (a computation
# can start with the value that heads an application).  A binder scopes over
# its scope field in the class's traversal shape only.


_VAR_KEY = {cls: f"<{letter}>" for cls, letter in _LETTERS.items()}
_VAR_KEY[TermVar] = "<x>"  # any other name


def _kind(tok) -> Optional[str]:
    """The lexical class a token is looked up by when no form is keyed by
    its text: "<op>", "<int>", or the sort of a variable's name."""
    if tok.kind == "uident":
        return "<op>"
    if tok.kind == "int":
        return "<int>"
    if tok.kind != "ident" or tok.text in _keywords():
        return None
    m = _SORTED_NAME.fullmatch(tok.text)
    return f"<{m.group(1)}>" if m else _VAR_KEY[TermVar]


def _keys(item) -> set:
    """The keys of the tokens a template item starts with."""
    return {item} if type(item) is str else item.first


def _starts(item, tok) -> bool:
    keys = _keys(item)
    return tok.text in keys or _kind(tok) in keys


_ATOM_FIRST = {str: {"<op>"}, int: {"<int>"}, Base: {b.value for b in Base}}


def _named(cls, name: str):
    """What `name`, written in a field annotation of `cls`, names: a global
    of the module of `cls` (a class or a category) or a builtin type."""
    return vars(sys.modules[cls.__module__]).get(name) or getattr(builtins, name)


class _Field:
    """One field of a template: its category and the tokens it starts with."""

    def __init__(self, f, hint, ann: str, prec: int, read_as: bool):
        self.name, self.prec, self.ann, self.read_as = f.name, prec, ann, read_as
        self.bind = f.role == BIND
        self.binders = [b for b, _ in f.binders]  # the binder fields it is the scope of
        self.cat = hint
        if hint in VAR_CLASSES:
            self.kind, self.first = "var", {_VAR_KEY[hint]}
        elif hint in _ATOM_FIRST:
            self.kind, self.first = "atom", _ATOM_FIRST[hint]
        elif f.role == MANY:
            self.kind, self.first = "many", {","}
        else:
            self.kind, self.first = "node", None  # set by `_grammar`


class _Form:
    """A node class's template as the reader reads it: literal tokens and
    fields, in order."""

    def __init__(self, cls, read_as: dict):
        self.cls = cls
        self.level, template = NOTATION[cls]
        anns = {f.name: _annotation(f) for f in dataclasses.fields(cls)}
        fields = {f.name: f for f in shape(cls).fields}
        self.items = []
        for lit, name, prec in _template(template):
            self.items += [t.text for t in tokenize(lit)[:-1]]
            if name is not None:
                ann = anns[name]
                # A tuple field's category is that of its elements.
                named = _named(cls, ann[len("tuple[") : -len(", ...]")] if fields[name].role == MANY else ann)
                hint = read_as.get(named, named)
                self.items.append(_Field(fields[name], hint, ann, prec, hint is not named))
        lead = self.items[0]
        self.lead = lead if type(lead) is _Field and lead.kind == "node" else None
        self.rest = self.items[1:]
        # An `all` group binder's own binders scope over the group's body.
        self.body_binders = [b for b, _ in fields["body"].binders] if cls in _BINDERS else []

    def read(self, r, left=None):
        vals, names = {}, {}
        if left is None:
            r.items(self.items, vals, names)
        else:
            vals[self.lead.name] = left
            r.items(self.rest, vals, names)
        return self.cls(**vals)


class _Leaf:
    """A form read by hand: a variable or a dirt."""

    level = ATOM

    def __init__(self, read):
        self.read = read


class _Group:
    """The `all b1 .. bn. body` group of a category's binder classes."""

    level = 0

    def __init__(self, cat, binders: dict):
        self.cat = cat
        self.binders = binders  # first token -> binder form

    def read(self, r):
        r.expect(ALL)
        return self.rest(r)

    def rest(self, r):
        tok = r.ts.peek()
        if tok.text == ".":
            r.ts.next()
            return r.read(self.cat)
        form = self.binders.get(tok.text) or self.binders.get(_kind(tok))
        if form is None:
            raise r.ts.error("expected a binder")
        vals, names = {}, {}
        r.items(form.items, vals, names)
        body = r.scoped([(names[b], vals[b]) for b in form.body_binders], self.rest, r)
        return form.cls(**vals, body=body)


class _Category:
    """The forms of one category: those its own members start, and those
    that start with a child (precedence climbing)."""

    def __init__(self, cat, name: str, forms: dict):
        self.cat, self.name = cat, name
        self.members = cat if type(cat) is tuple else (cat,)
        self.own_prefix: dict = {}
        self.own_led: list = []
        binders = {}
        for m in self.members:
            if m in VAR_CLASSES:
                self._add(_Leaf(lambda r, sort=m: r.use(sort)), {_VAR_KEY[m]})
            elif m is Dirt:
                self._add(_Leaf(lambda r: r.dirt()), {"{", _VAR_KEY[DirtVar]})
            elif m in _BINDERS:
                binders.update(dict.fromkeys(_keys(forms[m].items[0]), forms[m]))
            elif forms[m].lead is not None:
                self.own_led.append(forms[m])
            else:
                self._add(forms[m], _keys(forms[m].items[0]))
        if binders:
            self._add(_Group(cat, binders), {ALL})
        self.nests = False

    def _add(self, form, keys):
        for key in keys:
            self.own_prefix.setdefault(key, []).append(form)

    def first(self, prec: int) -> set:
        """The keys of the tokens a node of the category starts with when it
        is read at precedence `prec` (once `_grammar` has linked it)."""
        keys = {k for k, forms in self.prefix.items() if any(f.level >= prec for f in forms)}
        return keys | {"("} if self.parens else keys


@functools.lru_cache(maxsize=None)
def _grammar(read_as: tuple) -> dict:
    """Every category's reading tables, with each field whose category is
    the first of a `read_as` pair read in the second; built on first use so
    that importing this module stays cheap."""
    read_as = dict(read_as)
    forms = {cls: _Form(cls, read_as) for cls in NOTATION if cls not in VAR_CLASSES}
    fields = [i for f in forms.values() for i in f.items if type(i) is _Field]
    cats = {}
    # A category is named by a field declared in it before one read in it.
    for i in sorted(fields, key=lambda i: i.read_as):
        if i.kind in ("node", "many") and i.cat not in cats:
            name = i.ann if i.kind == "node" else i.cat.__name__
            cats[i.cat] = _Category(i.cat, name, forms)
    # Parentheses group the nodes of a category whose forms nest, one in
    # another: the printer adds them where a field asks for a precedence
    # above the level of the form in it.
    for f in forms.values():
        for i in f.items:
            if type(i) is _Field and i.kind == "node" and f.cls in cats[i.cat].members:
                cats[i.cat].nests = True
    for g in cats.values():
        g.family = [g]
        for h in g.family:
            for f in h.own_led:
                if cats[f.lead.cat] not in g.family:
                    g.family.append(cats[f.lead.cat])
        g.prefix = {}
        for h in g.family:
            for key, fs in h.own_prefix.items():
                g.prefix.setdefault(key, []).extend(fs)
        # A parenthesized leading child is tried before the category itself:
        # an application headed by a parenthesized value, then a
        # parenthesized computation.
        g.parens = [h.cat for h in reversed(g.family) if h.nests]
    for i in fields:
        if i.kind == "node":
            i.first = cats[i.cat].first(i.prec)
            i.members = set(cats[i.cat].members)
    for g in cats.values():
        g.led = {}
        for h in g.family:
            for f in h.own_led:
                for key in _keys(f.items[1]):
                    g.led.setdefault(key, []).append(f)
    return cats


class _Reader:
    def __init__(self, text: str, read_as: tuple):
        self.ts = TokenStream(tokenize(text))
        self.supply = Supply()
        self.grammar = _grammar(read_as)
        self.env: dict = {}  # name -> the innermost binder of that name in scope

    def read(self, cat, prec: int = 0):
        g = self.grammar[cat]
        ts = self.ts
        tok = ts.peek()
        forms = [f for f in g.prefix.get(tok.text) or g.prefix.get(_kind(tok), ()) if f.level >= prec]
        if len(forms) > 1:
            forms = [f for f in forms if _starts(f.items[1], ts.peek(1))]
        if forms:
            node, level = forms[0].read(self), forms[0].level
        elif tok.text == "(" and g.parens:
            node, level = self.parenthesized(g.parens), ATOM
        else:
            raise ts.error(f"expected {g.name}")
        while True:
            tok = ts.peek()
            forms = [
                f
                for f in g.led.get(tok.text) or g.led.get(_kind(tok), ())
                if f.level >= prec and level >= f.lead.prec and type(node) in f.lead.members
            ]
            if len(forms) > 1:
                forms = [f for f in forms if _starts(f.items[2], ts.peek(1))]
            if not forms:
                break
            node, level = forms[0].read(self, node), forms[0].level
        if type(node) not in g.members:
            raise ts.error(f"expected {g.name}")
        return node

    def parenthesized(self, cats: list):
        """A parenthesized node of the first of `cats` it reads as."""
        mark = self.ts.pos
        for cat in cats[:-1]:
            try:
                return self.enclosed(cat)
            except ParseError:
                self.ts.pos = mark
        return self.enclosed(cats[-1])

    def enclosed(self, cat):
        self.ts.eat_sym("(")
        node = self.read(cat)
        self.ts.eat_sym(")")
        return node

    def items(self, items: list, vals: dict, names: dict) -> None:
        """Read a template's items into `vals`; `names` records the name
        each binder field was read as."""
        for item in items:
            if type(item) is str:
                self.expect(item)
            elif item.binders:
                binds = [(names[b], vals[b]) for b in item.binders]
                vals[item.name] = self.scoped(binds, self.field, item, names)
            else:
                vals[item.name] = self.field(item, names)

    def field(self, item: _Field, names: dict):
        ts = self.ts
        if item.kind == "node":
            return self.read(item.cat, item.prec)
        if item.kind == "many":
            out = []
            while ts.at_sym(","):
                ts.next()
                out.append(self.read(item.cat))
            return tuple(out)
        if item.kind == "atom":
            if not _starts(item, ts.peek()):
                raise ts.error(f"expected {item.ann}")
            tok = ts.next()
            return int_literal(tok) if item.cat is int else item.cat(tok.text)
        if not item.bind:
            return self.use(item.cat)
        tok = self.var_token(item.cat)
        names[item.name] = tok.text
        if item.cat is TermVar:
            return self.supply.term(tok.text)
        return getattr(self.supply, Context.SORTS[item.cat])()

    def var_token(self, sort):
        if _kind(self.ts.peek()) != _VAR_KEY[sort]:
            raise self.ts.error(f"expected a {sort.__name__} name")
        return self.ts.next()

    def use(self, sort):
        tok = self.var_token(sort)
        try:
            return self.env[tok.text]
        except KeyError:
            raise ParseError(f"unbound {tok.text!r} in dump", tok.span) from None

    def scoped(self, binds: list, read, *args):
        """`read(*args)` with each (name, binder) of `binds` in scope."""
        env = self.env
        saved = [(name, env.get(name)) for name, _ in binds]
        env.update(binds)
        try:
            return read(*args)
        finally:
            for name, old in reversed(saved):
                if old is None:
                    env.pop(name, None)
                else:
                    env[name] = old

    def expect(self, text: str) -> None:
        if self.ts.peek().text != text:
            raise self.ts.error(f"expected {text!r}")
        self.ts.next()

    def dirt(self) -> Dirt:
        ts = self.ts
        if not ts.at_sym("{"):
            return Dirt(frozenset(), self.use(DirtVar))
        ts.next()
        ops, tail = [], None
        while not ts.at_sym("}"):
            if ts.at_sym("|"):
                ts.next()
                tail = self.use(DirtVar)
                break
            ops.append(ts.eat_kind("uident").text)
            if ts.at_sym(","):
                ts.next()
        ts.eat_sym("}")
        return Dirt(frozenset(ops), tail)


def _read(text: str, cat, read_as: tuple = ()):
    r = _Reader(text, read_as)
    out = r.read(cat)
    r.ts.expect_eof()
    return out


def read_exeff_comp(text: str):
    return _read(text, exeff.Comp)


def read_skeleff_comp(text: str):
    """A SkelEff computation: ExEff's forms, with skeletons where types were."""
    return _read(text, exeff.Comp, ((ValueType, Skeleton),))


def read_noeff_term(text: str):
    """A NoEff term: NoEff's own forms and the core's forms it shares, whose
    fields read as NoEff terms, types, coercions and constraints."""
    return _read(
        text,
        noeff.NTerm,
        (
            (exeff.Value, noeff.NTerm),
            (exeff.Comp, noeff.NTerm),
            (ValueType, noeff.NType),
            (CompType, noeff.NType),
            (exeff.Coercion, noeff.NCoercion),
            (SimpleConstraint, TySub),
        ),
    )
