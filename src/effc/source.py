"""Surface language: concrete syntax, implicitly-typed AST, well-formedness.

Programs are a series of `effect` declarations followed by one top-level
computation.  Binders are renamed to globally unique identities at parse
time, so substitution and alpha-equality never have to rename.
"""

from __future__ import annotations

from dataclasses import field
from typing import Optional

from . import exeff
from .core import (
    CompType,
    Context,
    Dirt,
    EMPTY_DIRT,
    ParseError,
    Signature,
    Span,
    Supply,
    T_INT,
    T_UNIT,
    TArrow,
    THandler,
    TermVar,
    UnboundVariable,
    ValueType,
    WfError,
    dirt,
    node,
)
from .lex import TokenStream, int_literal, tokenize


# ---------------------------------------------------------------------------
# Abstract syntax


@node
class SrcVar:
    var: TermVar
    span: Optional[Span] = field(default=None, compare=False)


@node
class SrcUnit:
    span: Optional[Span] = field(default=None, compare=False)


@node
class SrcInt:
    value: int
    span: Optional[Span] = field(default=None, compare=False)


@node
class SrcFun:
    var: TermVar
    body: "SrcComp"
    span: Optional[Span] = field(default=None, compare=False)


@node
class SrcOpClause:
    op: str
    param: TermVar
    kont: TermVar
    body: "SrcComp"


@node
class SrcHandler:
    ret_var: TermVar
    ret_body: "SrcComp"
    clauses: tuple = ()
    span: Optional[Span] = field(default=None, compare=False)

    scope = "ret_body"  # the return binder does not reach the operation clauses


SrcValue = (SrcVar, SrcUnit, SrcInt, SrcFun, SrcHandler)


@node
class SrcReturn:
    val: SrcValue
    span: Optional[Span] = field(default=None, compare=False)


@node
class SrcOpCall:
    op: str
    arg: SrcValue
    var: TermVar
    body: "SrcComp"
    span: Optional[Span] = field(default=None, compare=False)


@node
class SrcDo:
    var: TermVar
    first: "SrcComp"
    second: "SrcComp"
    span: Optional[Span] = field(default=None, compare=False)


@node
class SrcHandle:
    handler: SrcValue
    body: "SrcComp"
    span: Optional[Span] = field(default=None, compare=False)


@node
class SrcApp:
    fn: SrcValue
    arg: SrcValue
    span: Optional[Span] = field(default=None, compare=False)


@node
class SrcLet:
    var: TermVar
    val: SrcValue
    body: "SrcComp"
    span: Optional[Span] = field(default=None, compare=False)


SrcComp = (SrcReturn, SrcOpCall, SrcDo, SrcHandle, SrcApp, SrcLet)


# ---------------------------------------------------------------------------
# Parsing

_COMP_KEYWORDS = ("return", "do", "let", "with")
# The words of the grammar, none of which can name a variable.
_RESERVED = frozenset(_COMP_KEYWORDS + ("in", "handle", "effect", "fun", "handler", "unit"))
_BARE_VALUE = "expected a computation, not a bare value"


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
            return T_UNIT
        if t.kind == "uident" and t.text == "Int":
            self.ts.next()
            return T_INT
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

    def _binder(self):
        """The name token of a binder, which must not be a reserved word."""
        t = self.ts.eat_kind("ident")
        if t.text in _RESERVED:
            raise ParseError(f"expected a variable name, found reserved word {t.text!r}", t.span)
        return t

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
            name = self._binder()
            self.ts.eat_sym("<-")
            first = self.parse_comp(scope)
            self.ts.eat_word("in")
            var, scope2 = self._bind(scope, name)
            second = self.parse_comp(scope2)
            return SrcDo(var, first, second, span=t.span)
        if self.ts.at_word("let"):
            self.ts.next()
            name = self._binder()
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
            # Either `(v1) v2` application or a parenthesized computation.
            item, close = self._parse_group(scope)
            return item if close is None else self._apply(item, close, scope, t.span)
        return self._parse_app(scope)

    def _parse_app(self, scope: dict) -> SrcComp:
        span = self.ts.peek().span
        fn = self.parse_value(scope)
        if not self._at_value_start():
            raise self.ts.error(_BARE_VALUE)
        arg = self.parse_value(scope)
        return SrcApp(fn, arg, span=span)

    def _parse_group(self, scope: dict) -> tuple:
        """A parenthesized item in computation position, read once: (the
        value, the `)` right after its innermost parenthesized form) when
        the item is a value, else (the computation, None).  The item is a
        value when `parse_value` reads it up to its `)`; a group of a value
        followed by another value is an application."""
        self.ts.eat_sym("(")
        t = self.ts.peek()
        if self.ts.at_sym("("):
            c, close = self._parse_group(scope)
            if close is not None:
                if self.ts.at_sym(")"):
                    self.ts.next()
                    return c, close
                c = self._apply(c, close, scope, t.span)
        elif self._at_value_start():
            fn = self.parse_value(scope)
            if self.ts.at_sym(")"):
                return fn, self.ts.next()
            if not self._at_value_start():
                raise self.ts.error(_BARE_VALUE)
            c = SrcApp(fn, self.parse_value(scope), span=t.span)
        else:
            c = self.parse_comp(scope)
        self.ts.eat_sym(")")
        return c, None

    def _apply(self, fn: SrcValue, close, scope: dict, span: Span) -> SrcComp:
        """The application of the parenthesized value `fn`, whose innermost
        group ends at the token `close`, to the value that follows.  A
        parenthesized value is not a computation, so that error is reported
        at `close` when no value follows."""
        if not self._at_value_start():
            raise ParseError(f"{_BARE_VALUE}, found {close.text!r}", close.span)
        return SrcApp(fn, self.parse_value(scope), span=span)

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
            name = self._binder()
            self.ts.eat_sym("->")
            var, scope2 = self._bind(scope, name)
            return SrcFun(var, self.parse_comp(scope2), span=t.span)
        if self.ts.at_word("handler"):
            self.ts.next()
            return self.parse_handler(scope, t.span)
        if t.kind == "ident" and t.text not in _RESERVED:
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
        name = self._binder()
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
            p_name = self._binder()
            k_name = self._binder()
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
# Well-formedness of the signature


def check_signature(sig: Signature) -> None:
    """Every operation's parameter and result type must be closed and
    well-formed; an error is reported at the operation's declaration."""
    env = Context(sig)
    for name in sig.names():
        op = sig.ops[name]
        try:
            exeff.wf_vty(env, op.param)
            exeff.wf_vty(env, op.result)
        except WfError as e:
            raise type(e)(e.msg, sig.spans.get(name)) from None
