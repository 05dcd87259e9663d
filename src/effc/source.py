"""Surface language: concrete syntax, implicitly-typed AST, well-formedness.

Programs are a series of `effect` declarations followed by one top-level
computation.  Binders are renamed to globally unique identities at parse
time, so substitution and alpha-equality never have to rename.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from . import exeff
from .core import (
    Base,
    CompType,
    Context,
    Dirt,
    EMPTY_DIRT,
    ParseError,
    Signature,
    Span,
    Supply,
    TArrow,
    TBase,
    THandler,
    TermVar,
    UnboundVariable,
    ValueType,
    dirt,
)
from .lex import TokenStream, int_literal, tokenize
from .traverse import rename


# ---------------------------------------------------------------------------
# Abstract syntax


@dataclass(frozen=True)
class SrcVar:
    var: TermVar
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class SrcUnit:
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class SrcInt:
    value: int
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class SrcFun:
    var: TermVar
    body: "SrcComp"
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class SrcOpClause:
    op: str
    param: TermVar
    kont: TermVar
    body: "SrcComp"


@dataclass(frozen=True)
class SrcHandler:
    ret_var: TermVar
    ret_body: "SrcComp"
    clauses: tuple = ()
    span: Optional[Span] = field(default=None, compare=False)

    scope = "ret_body"  # the return binder does not reach the operation clauses


SrcValue = Union[SrcVar, SrcUnit, SrcInt, SrcFun, SrcHandler]


@dataclass(frozen=True)
class SrcReturn:
    val: SrcValue
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class SrcOpCall:
    op: str
    arg: SrcValue
    var: TermVar
    body: "SrcComp"
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class SrcDo:
    var: TermVar
    first: "SrcComp"
    second: "SrcComp"
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class SrcHandle:
    handler: SrcValue
    body: "SrcComp"
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class SrcApp:
    fn: SrcValue
    arg: SrcValue
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class SrcLet:
    var: TermVar
    val: SrcValue
    body: "SrcComp"
    span: Optional[Span] = field(default=None, compare=False)


SrcComp = Union[SrcReturn, SrcOpCall, SrcDo, SrcHandle, SrcApp, SrcLet]


# ---------------------------------------------------------------------------
# Parsing

_COMP_KEYWORDS = ("return", "do", "let", "with")


class _Parser:
    def __init__(self, text: str):
        self.ts = TokenStream(tokenize(text))
        self.supply = Supply()
        self.sig = Signature()

    # -- programs ----------------------------------------------------------

    def parse_program(self) -> tuple:
        while self.ts.at_word("effect"):
            self.parse_effect_decl()
        comp = self.parse_comp({})
        self.ts.expect_eof()
        return self.sig, comp

    def parse_effect_decl(self) -> None:
        self.ts.eat_word("effect")
        name_tok = self.ts.eat_kind("uident")
        self.ts.eat_sym(":")
        param = self.parse_vty_operand()
        self.ts.eat_sym("->")
        result = self.parse_vty_operand()
        self.sig.declare(name_tok.text, param, result, name_tok.span)

    # -- types (closed, for signatures) -------------------------------------

    def parse_vty_operand(self) -> ValueType:
        t = self.ts.peek()
        if t.kind == "uident" and t.text == "Unit":
            self.ts.next()
            return TBase(Base.UNIT)
        if t.kind == "uident" and t.text == "Int":
            self.ts.next()
            return TBase(Base.INT)
        if self.ts.at_sym("("):
            self.ts.next()
            ty = self.parse_type_full()
            self.ts.eat_sym(")")
            if isinstance(ty, CompType):
                raise ParseError("expected a value type", t.span)
            return ty
        raise self.ts.error("expected a type")

    def parse_type_full(self):
        """A value or computation type; bare codomains default to empty dirt."""
        span = self.ts.peek().span
        head = self.parse_vty_operand()
        d: Optional[Dirt] = None
        if self.ts.at_sym("!"):
            self.ts.next()
            d = self.parse_closed_dirt()
        if self.ts.at_sym("->"):
            if d is not None:
                raise ParseError("function domain must be a value type", span)
            self.ts.next()
            cod = self.parse_type_full()
            if not isinstance(cod, CompType):
                cod = CompType(cod, EMPTY_DIRT)
            return TArrow(head, cod)
        if self.ts.at_sym("=>"):
            self.ts.next()
            rhs = self.parse_type_full()
            if not isinstance(rhs, CompType):
                rhs = CompType(rhs, EMPTY_DIRT)
            lhs = CompType(head, d if d is not None else EMPTY_DIRT)
            return THandler(lhs, rhs)
        if d is not None:
            return CompType(head, d)
        return head

    def parse_closed_dirt(self) -> Dirt:
        self.ts.eat_sym("{")
        ops = []
        if not self.ts.at_sym("}"):
            ops.append(self.ts.eat_kind("uident").text)
            while self.ts.at_sym(","):
                self.ts.next()
                ops.append(self.ts.eat_kind("uident").text)
        self.ts.eat_sym("}")
        return dirt(ops)

    # -- terms ---------------------------------------------------------------

    def _bind(self, scope: dict, name_tok) -> tuple:
        v = self.supply.term(name_tok.text)
        return v, {**scope, name_tok.text: v}

    def _at_value_start(self) -> bool:
        t = self.ts.peek()
        if t.kind == "ident" and t.text not in _COMP_KEYWORDS + ("in", "handle", "effect"):
            return True
        if t.kind == "int":
            return True
        return self.ts.at_sym("(")

    def parse_comp(self, scope: dict) -> SrcComp:
        t = self.ts.peek()
        if self.ts.at_word("return"):
            self.ts.next()
            return SrcReturn(self.parse_value(scope), span=t.span)
        if self.ts.at_word("do"):
            self.ts.next()
            name = self.ts.eat_kind("ident")
            self.ts.eat_sym("<-")
            first = self.parse_comp(scope)
            self.ts.eat_word("in")
            var, scope2 = self._bind(scope, name)
            second = self.parse_comp(scope2)
            return SrcDo(var, first, second, span=t.span)
        if self.ts.at_word("let"):
            self.ts.next()
            name = self.ts.eat_kind("ident")
            self.ts.eat_sym("=")
            val = self.parse_value(scope)
            self.ts.eat_word("in")
            var, scope2 = self._bind(scope, name)
            body = self.parse_comp(scope2)
            return SrcLet(var, val, body, span=t.span)
        if self.ts.at_word("with"):
            self.ts.next()
            handler = self.parse_value(scope)
            self.ts.eat_word("handle")
            body = self.parse_comp(scope)
            return SrcHandle(handler, body, span=t.span)
        if t.kind == "uident":
            # Operation call with the trivial continuation.
            self.ts.next()
            arg = self.parse_value(scope)
            y = self.supply.term("y")
            return SrcOpCall(t.text, arg, y, SrcReturn(SrcVar(y)), span=t.span)
        if self.ts.at_sym("("):
            # Either `(v1) v2 ...` application or a parenthesized computation.
            mark = self.ts.pos
            try:
                return self._parse_app(scope)
            except ParseError:
                self.ts.pos = mark
            self.ts.eat_sym("(")
            c = self.parse_comp(scope)
            self.ts.eat_sym(")")
            return c
        return self._parse_app(scope)

    def _parse_app(self, scope: dict) -> SrcComp:
        span = self.ts.peek().span
        fn = self.parse_value(scope)
        if not self._at_value_start():
            raise self.ts.error("expected a computation, not a bare value")
        arg = self.parse_value(scope)
        return SrcApp(fn, arg, span=span)

    def parse_value(self, scope: dict) -> SrcValue:
        t = self.ts.peek()
        if t.kind == "int":
            self.ts.next()
            return SrcInt(int_literal(t), span=t.span)
        if self.ts.at_word("unit"):
            self.ts.next()
            return SrcUnit(span=t.span)
        if self.ts.at_word("fun"):
            self.ts.next()
            name = self.ts.eat_kind("ident")
            self.ts.eat_sym("->")
            var, scope2 = self._bind(scope, name)
            return SrcFun(var, self.parse_comp(scope2), span=t.span)
        if self.ts.at_word("handler"):
            self.ts.next()
            return self.parse_handler(scope, t.span)
        if t.kind == "ident" and t.text not in _COMP_KEYWORDS + ("in", "handle"):
            self.ts.next()
            if t.text not in scope:
                raise UnboundVariable(f"unbound variable {t.text}", t.span)
            return SrcVar(scope[t.text], span=t.span)
        if self.ts.at_sym("("):
            self.ts.next()
            v = self.parse_value(scope)
            self.ts.eat_sym(")")
            return v
        raise self.ts.error("expected a value")

    def parse_handler(self, scope: dict, span: Span) -> SrcHandler:
        self.ts.eat_sym("{")
        self.ts.eat_word("return")
        name = self.ts.eat_kind("ident")
        self.ts.eat_sym("->")
        ret_var, scope2 = self._bind(scope, name)
        ret_body = self.parse_comp(scope2)
        clauses = []
        seen = set()
        while self.ts.at_sym(","):
            self.ts.next()
            op_tok = self.ts.eat_kind("uident")
            if op_tok.text in seen:
                raise ParseError(f"handler lists operation {op_tok.text} twice", op_tok.span)
            seen.add(op_tok.text)
            p_name = self.ts.eat_kind("ident")
            k_name = self.ts.eat_kind("ident")
            self.ts.eat_sym("->")
            param, scope_p = self._bind(scope, p_name)
            kont, scope_pk = self._bind(scope_p, k_name)
            body = self.parse_comp(scope_pk)
            clauses.append(SrcOpClause(op_tok.text, param, kont, body))
        self.ts.eat_sym("}")
        return SrcHandler(ret_var, ret_body, tuple(clauses), span=span)


def parse_program(text: str) -> tuple:
    """Parse a whole program: effect declarations, then one computation."""
    return _Parser(text).parse_program()


# ---------------------------------------------------------------------------
# Pretty-printing (emits the surface grammar)


def _show_dirt(d: Dirt) -> str:
    return "{" + ", ".join(d.sorted_ops()) + "}"


def show_src_type(t) -> str:
    if isinstance(t, TBase):
        return str(t.base)
    if isinstance(t, TArrow):
        return f"({show_src_type(t.dom)} -> {show_src_type(t.cod)})"
    if isinstance(t, THandler):
        return f"({show_src_type(t.dom)} => {show_src_type(t.cod)})"
    if isinstance(t, CompType):
        if t.dirt.is_empty():
            return show_src_type(t.val)
        return f"{show_src_type(t.val)}!{_show_dirt(t.dirt)}"
    raise TypeError(t)


def show_value(v: SrcValue) -> str:
    if isinstance(v, SrcVar):
        return v.var.name
    if isinstance(v, SrcUnit):
        return "unit"
    if isinstance(v, SrcInt):
        return str(v.value)
    if isinstance(v, SrcFun):
        return f"(fun {v.var.name} -> {show_comp(v.body)})"
    if isinstance(v, SrcHandler):
        parts = [f"return {v.ret_var.name} -> {show_comp(v.ret_body)}"]
        for cl in v.clauses:
            parts.append(f"{cl.op} {cl.param.name} {cl.kont.name} -> {show_comp(cl.body)}")
        return "handler { " + ", ".join(parts) + " }"
    raise TypeError(v)


def show_comp(c: SrcComp) -> str:
    if isinstance(c, SrcReturn):
        return f"return {show_value(c.val)}"
    if isinstance(c, SrcOpCall):
        # Only trivial continuations exist in the surface syntax.
        return f"{c.op} {show_value(c.arg)}"
    if isinstance(c, SrcDo):
        return f"do {c.var.name} <- {show_comp(c.first)} in {show_comp(c.second)}"
    if isinstance(c, SrcLet):
        return f"let {c.var.name} = {show_value(c.val)} in {show_comp(c.body)}"
    if isinstance(c, SrcHandle):
        return f"with {show_value(c.handler)} handle ({show_comp(c.body)})"
    if isinstance(c, SrcApp):
        return f"{show_value(c.fn)} {show_value(c.arg)}"
    raise TypeError(c)


def uniquify_names(c: SrcComp) -> SrcComp:
    """Rename binders so distinct variables print with distinct names."""
    used: set = set()
    renamed: dict = {}

    def var(v: TermVar) -> TermVar:
        if v.id not in renamed:
            base = v.name or "x"
            name = base
            n = 1
            while name in used:
                n += 1
                name = f"{base}{n}"
            used.add(name)
            renamed[v.id] = TermVar(v.id, name)
        return renamed[v.id]

    return rename(c, var)


def show_program(sig: Signature, c: SrcComp) -> str:
    lines = []
    for name in sig.names():
        op = sig.ops[name]
        lines.append(f"effect {name} : {show_src_type(op.param)} -> {show_src_type(op.result)}")
    lines.append(show_comp(uniquify_names(c)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Well-formedness of the signature


def check_signature(sig: Signature) -> None:
    """Every operation's parameter and result type must be closed and well-formed."""
    env = Context(sig)
    for name in sig.names():
        op = sig.ops[name]
        exeff.wf_vty(env, op.param)
        exeff.wf_vty(env, op.result)
