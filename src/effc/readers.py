"""Readers for the debug-IR text emitted by the pretty-printers.

Dumps are canonically renamed before printing, so variable sorts can be
recovered from their names: s0.. skeletons, a0.. types, d0.. dirts, w0..
coercions; everything else is a term variable.
"""

from __future__ import annotations

import re
from typing import Optional

from . import exeff, noeff, skeleff
from .core import (
    Base,
    CompType,
    Dirt,
    DirtSub,
    ParseError,
    SkelArrow,
    SkelBase,
    SkelForall,
    SkelHandler,
    SkelVar,
    Supply,
    TArrow,
    TBase,
    TForallDirt,
    TForallSkel,
    TForallTy,
    THandler,
    TQual,
    TySub,
)
from .lex import TokenStream, tokenize

_SORT_RE = re.compile(r"([sadw])(\d+)")
_VALUE_KEYWORDS = ("fun", "skfun", "tyfun", "difun", "cofun", "handler", "unit")


class _Reader:
    def __init__(self, text: str, supply: Optional[Supply] = None):
        self.ts = TokenStream(tokenize(text))
        self.supply = supply or Supply()
        self.vars = {"s": {}, "a": {}, "d": {}, "w": {}, "x": {}}

    # -- variables -----------------------------------------------------------

    def classify(self, name: str) -> str:
        m = _SORT_RE.fullmatch(name)
        return m.group(1) if m else "x"

    def bind(self, name: str):
        sort = self.classify(name)
        if sort == "s":
            v = self.supply.skel()
        elif sort == "a":
            v = self.supply.ty()
        elif sort == "d":
            v = self.supply.dirt()
        elif sort == "w":
            v = self.supply.co()
        else:
            v = self.supply.term(name)
        self.vars[sort][name] = v
        return v

    def lookup(self, name: str, span):
        sort = self.classify(name)
        try:
            return self.vars[sort][name]
        except KeyError:
            raise ParseError(f"unbound {name!r} in dump", span) from None

    # -- skeletons -----------------------------------------------------------

    def skeleton(self, prec: int = 0):
        if self.ts.at_word("all") and prec == 0:
            self.ts.next()
            binders = []
            while not self.ts.at_sym("."):
                binders.append(self.bind(self.ts.eat_kind("ident").text))
            self.ts.eat_sym(".")
            body = self.skeleton(0)
            for v in reversed(binders):
                body = SkelForall(v, body)
            return body
        left = self.skeleton_atom()
        if prec <= 1 and self.ts.at_sym("->"):
            self.ts.next()
            return SkelArrow(left, self.skeleton(1))
        if prec <= 1 and self.ts.at_sym("=>"):
            self.ts.next()
            return SkelHandler(left, self.skeleton(1))
        return left

    def skeleton_atom(self):
        t = self.ts.peek()
        if t.kind == "uident" and t.text in ("Unit", "Int"):
            self.ts.next()
            return SkelBase(Base[t.text.upper()])
        if t.kind == "ident" and self.classify(t.text) == "s":
            self.ts.next()
            return self.lookup(t.text, t.span)
        if self.ts.at_sym("("):
            self.ts.next()
            out = self.skeleton(0)
            self.ts.eat_sym(")")
            return out
        raise self.ts.error("expected a skeleton")

    # -- dirts ----------------------------------------------------------------

    def dirt(self) -> Dirt:
        t = self.ts.peek()
        if t.kind == "ident" and self.classify(t.text) == "d":
            self.ts.next()
            return Dirt(frozenset(), self.lookup(t.text, t.span))
        self.ts.eat_sym("{")
        ops = []
        tail = None
        while not self.ts.at_sym("}"):
            if self.ts.at_sym("|"):
                self.ts.next()
                tok = self.ts.eat_kind("ident")
                tail = self.lookup(tok.text, tok.span)
                break
            ops.append(self.ts.eat_kind("uident").text)
            if self.ts.at_sym(","):
                self.ts.next()
        self.ts.eat_sym("}")
        return Dirt(frozenset(ops), tail)

    def at_dirt_start(self) -> bool:
        t = self.ts.peek()
        if self.ts.at_sym("{"):
            return True
        return t.kind == "ident" and self.classify(t.text) == "d"

    # -- core types ------------------------------------------------------------

    def core_constraint(self):
        if self.at_dirt_start():
            lhs = self.dirt()
            self.ts.eat_sym("<=")
            return DirtSub(lhs, self.dirt())
        lhs = self.vty_only()
        self.ts.eat_sym("<=")
        return TySub(lhs, self.vty_only())

    def type_any(self):
        """Returns ('v', ValueType) or ('c', CompType)."""
        if self.ts.at_word("all"):
            self.ts.next()
            binders = []
            while not self.ts.at_sym("."):
                if self.ts.at_sym("("):
                    self.ts.next()
                    name = self.ts.eat_kind("ident")
                    v = self.bind(name.text)
                    self.ts.eat_sym(":")
                    sk = self.skeleton(0)
                    self.ts.eat_sym(")")
                    binders.append(("ty", v, sk))
                elif self.ts.at_sym("["):
                    self.ts.next()
                    ct = self.core_constraint()
                    self.ts.eat_sym("]")
                    binders.append(("qual", ct, None))
                else:
                    name = self.ts.eat_kind("ident")
                    v = self.bind(name.text)
                    binders.append(("s" if isinstance(v, SkelVar) else "d", v, None))
            self.ts.eat_sym(".")
            kind, body = self.type_any()
            if kind != "v":
                raise self.ts.error("quantified type must have a value-type body")
            for tag, v, extra in reversed(binders):
                if tag == "s":
                    body = TForallSkel(v, body)
                elif tag == "ty":
                    body = TForallTy(v, extra, body)
                elif tag == "d":
                    body = TForallDirt(v, body)
                else:
                    body = TQual(v, body)
            return "v", body
        head = self.vty_atom()
        if self.ts.at_sym("!"):
            self.ts.next()
            cty = CompType(head, self.dirt())
            if self.ts.at_sym("=>"):
                self.ts.next()
                kind, rhs = self.type_any()
                if kind != "c":
                    raise self.ts.error("handler codomain must be a computation type")
                return "v", THandler(cty, rhs)
            return "c", cty
        if self.ts.at_sym("->"):
            self.ts.next()
            kind, rhs = self.type_any()
            if kind != "c":
                raise self.ts.error("function codomain must be a computation type")
            return "v", TArrow(head, rhs)
        return "v", head

    def vty_only(self):
        kind, t = self.type_any()
        if kind != "v":
            raise self.ts.error("expected a value type")
        return t

    def vty_atom(self):
        t = self.ts.peek()
        if t.kind == "uident" and t.text in ("Unit", "Int"):
            self.ts.next()
            return TBase(Base[t.text.upper()])
        if t.kind == "ident" and self.classify(t.text) == "a":
            self.ts.next()
            return self.lookup(t.text, t.span)
        if self.ts.at_sym("("):
            self.ts.next()
            out = self.vty_only()
            self.ts.eat_sym(")")
            return out
        raise self.ts.error("expected a value type")

    # -- core coercions ----------------------------------------------------------

    def coercion(self, prec: int = 0):
        if self.ts.at_word("all") and prec == 0:
            self.ts.next()
            binders = []
            while not self.ts.at_sym("."):
                if self.ts.at_sym("("):
                    self.ts.next()
                    name = self.ts.eat_kind("ident")
                    v = self.bind(name.text)
                    self.ts.eat_sym(":")
                    sk = self.skeleton(0)
                    self.ts.eat_sym(")")
                    binders.append(("ty", v, sk))
                elif self.ts.at_sym("["):
                    self.ts.next()
                    ct = self.core_constraint()
                    self.ts.eat_sym("]")
                    binders.append(("qual", ct, None))
                else:
                    name = self.ts.eat_kind("ident")
                    v = self.bind(name.text)
                    binders.append(("s" if isinstance(v, SkelVar) else "d", v, None))
            self.ts.eat_sym(".")
            body = self.coercion(0)
            for tag, v, extra in reversed(binders):
                if tag == "s":
                    body = exeff.CoForallSkel(v, body)
                elif tag == "ty":
                    body = exeff.CoForallTy(v, extra, body)
                elif tag == "d":
                    body = exeff.CoForallDirt(v, body)
                else:
                    body = exeff.CoQual(v, body)
            return body
        left = self.coercion_atom()
        while True:
            if prec <= 2 and self.ts.at_sym("!"):
                self.ts.next()
                left = exeff.CoComp(left, self.coercion(3))
                continue
            if prec <= 1 and self.ts.at_sym("->"):
                self.ts.next()
                return exeff.CoArrow(left, self.coercion(1))
            if prec <= 1 and self.ts.at_sym("=>"):
                self.ts.next()
                return exeff.CoHandler(left, self.coercion(1))
            return left

    def coercion_atom(self):
        t = self.ts.peek()
        if self.ts.at_sym("<"):
            self.ts.next()
            inner = self.ts.peek()
            if inner.kind == "uident" and inner.text in ("Unit", "Int"):
                self.ts.next()
                out = exeff.CoBaseRefl(Base[inner.text.upper()])
            elif inner.kind == "ident" and self.classify(inner.text) == "a":
                self.ts.next()
                out = exeff.CoTyRefl(self.lookup(inner.text, inner.span))
            else:
                out = exeff.CoDirtRefl(self.dirt())
            self.ts.eat_sym(">")
            return out
        if self.ts.at_word("empty"):
            self.ts.next()
            self.ts.eat_sym("(")
            d = self.dirt()
            self.ts.eat_sym(")")
            return exeff.CoEmpty(d)
        if self.ts.at_sym("{"):
            self.ts.next()
            op = self.ts.eat_kind("uident").text
            self.ts.eat_sym("}")
            self.ts.eat_sym("+")
            return exeff.CoOpUnion(op, self.coercion(2))
        if t.kind == "ident" and self.classify(t.text) == "w":
            self.ts.next()
            return exeff.CoVarRef(self.lookup(t.text, t.span))
        if self.ts.at_sym("("):
            self.ts.next()
            out = self.coercion(0)
            self.ts.eat_sym(")")
            return out
        raise self.ts.error("expected a coercion")

    # -- core terms --------------------------------------------------------------

    def evalue(self, prec: int = 0):
        t = self.ts.peek()
        if self.ts.at_word("fun"):
            self.ts.next()
            self.ts.eat_sym("(")
            x = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym(":")
            ty = self.vty_only()
            self.ts.eat_sym(")")
            self.ts.eat_sym("->")
            return exeff.EAbs(x, ty, self.ecomp(0))
        if self.ts.at_word("skfun"):
            self.ts.next()
            v = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym(".")
            return exeff.ESkelAbs(v, self.evalue(0))
        if self.ts.at_word("tyfun"):
            self.ts.next()
            self.ts.eat_sym("(")
            v = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym(":")
            sk = self.skeleton(0)
            self.ts.eat_sym(")")
            self.ts.eat_sym(".")
            return exeff.ETyAbs(v, sk, self.evalue(0))
        if self.ts.at_word("difun"):
            self.ts.next()
            v = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym(".")
            return exeff.EDirtAbs(v, self.evalue(0))
        if self.ts.at_word("cofun"):
            self.ts.next()
            self.ts.eat_sym("(")
            v = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym(":")
            ct = self.core_constraint()
            self.ts.eat_sym(")")
            self.ts.eat_sym(".")
            return exeff.ECoAbs(v, ct, self.evalue(0))
        out = self.evalue_postfix()
        while prec <= 1 and self.ts.at_sym("|>"):
            self.ts.next()
            out = exeff.ECast(out, self.coercion(0))
        return out

    def evalue_postfix(self):
        out = self.evalue_atom()
        while self.ts.at_sym("@"):
            self.ts.next()
            tag = self.ts.eat_kind("ident").text
            self.ts.eat_sym("[")
            if tag == "sk":
                out = exeff.ESkelApp(out, self.skeleton(0))
            elif tag == "ty":
                out = exeff.ETyApp(out, self.vty_only())
            elif tag == "di":
                out = exeff.EDirtApp(out, self.dirt())
            elif tag == "co":
                out = exeff.ECoApp(out, self.coercion(0))
            else:
                raise self.ts.error(f"unknown application tag @{tag}")
            self.ts.eat_sym("]")
        return out

    def evalue_atom(self):
        t = self.ts.peek()
        if self.ts.at_word("unit"):
            self.ts.next()
            return exeff.EUnit()
        if t.kind == "int":
            self.ts.next()
            return exeff.EInt(int(t.text))
        if self.ts.at_word("handler"):
            self.ts.next()
            return self.ehandler()
        if t.kind == "ident" and self.classify(t.text) == "x" and not self.ts.at_word(
            "return", "do", "let", "with", "in", "handle", "empty"
        ):
            self.ts.next()
            return exeff.EVar(self.lookup(t.text, t.span))
        if self.ts.at_sym("("):
            self.ts.next()
            out = self.evalue(0)
            self.ts.eat_sym(")")
            return out
        raise self.ts.error("expected a value")

    def ehandler(self):
        self.ts.eat_sym("{")
        self.ts.eat_word("return")
        self.ts.eat_sym("(")
        x = self.bind(self.ts.eat_kind("ident").text)
        self.ts.eat_sym(":")
        ty = self.vty_only()
        self.ts.eat_sym(")")
        self.ts.eat_sym("->")
        ret_body = self.ecomp(0)
        clauses = []
        while self.ts.at_sym(","):
            self.ts.next()
            op = self.ts.eat_kind("uident").text
            self.ts.eat_sym("(")
            p = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym(";")
            k = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym(")")
            self.ts.eat_sym("->")
            clauses.append(exeff.OpClause(op, p, k, self.ecomp(0)))
        self.ts.eat_sym("}")
        return exeff.EHandler(x, ty, ret_body, tuple(clauses))

    def _at_value_start(self) -> bool:
        t = self.ts.peek()
        if t.kind == "int" or self.ts.at_sym("("):
            return True
        if t.kind == "ident":
            if t.text in ("in", "handle", "empty", "return", "do", "let", "with"):
                return False
            return t.text in _VALUE_KEYWORDS or self.classify(t.text) == "x"
        return False

    def ecomp(self, prec: int = 0):
        t = self.ts.peek()
        if self.ts.at_word("return"):
            self.ts.next()
            out = exeff.CReturn(self.evalue(2))
        elif self.ts.at_word("do"):
            self.ts.next()
            x = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym("<-")
            first = self.ecomp(0)
            self.ts.eat_word("in")
            return exeff.CDo(x, first, self.ecomp(0))
        elif self.ts.at_word("let"):
            self.ts.next()
            x = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym("=")
            val = self.evalue(0)
            self.ts.eat_word("in")
            return exeff.CLet(x, val, self.ecomp(0))
        elif self.ts.at_word("with"):
            self.ts.next()
            h = self.evalue(2)
            self.ts.eat_word("handle")
            return exeff.CHandle(h, self.ecomp(0))
        elif t.kind == "uident":
            self.ts.next()
            self.ts.eat_sym("(")
            arg = self.evalue(0)
            self.ts.eat_sym(";")
            y = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym(":")
            ty = self.vty_only()
            self.ts.eat_sym(".")
            body = self.ecomp(0)
            self.ts.eat_sym(")")
            out = exeff.COp(t.text, arg, y, ty, body)
        else:
            out = None
            if self.ts.at_sym("("):
                # Either an application headed by a parenthesized value, or a
                # parenthesized computation (as printed under casts).
                mark = self.ts.pos
                try:
                    fn = self.evalue(2)
                    arg = self.evalue(3)
                    out = exeff.CApp(fn, arg)
                except ParseError:
                    self.ts.pos = mark
                    self.ts.eat_sym("(")
                    out = self.ecomp(0)
                    self.ts.eat_sym(")")
            if out is None:
                fn = self.evalue(2)
                arg = self.evalue(3)
                out = exeff.CApp(fn, arg)
        while prec <= 1 and self.ts.at_sym("|>"):
            self.ts.next()
            out = exeff.CCast(out, self.coercion(0))
        return out


def read_exeff_comp(text: str, supply: Optional[Supply] = None):
    r = _Reader(text, supply)
    out = r.ecomp(0)
    r.ts.expect_eof()
    return out


# ---------------------------------------------------------------------------
# Effect-erased reader


class _SkReader(_Reader):
    def skvalue(self, prec: int = 0):
        if self.ts.at_word("fun"):
            self.ts.next()
            self.ts.eat_sym("(")
            x = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym(":")
            ty = self.skeleton(0)
            self.ts.eat_sym(")")
            self.ts.eat_sym("->")
            return skeleff.SAbs(x, ty, self.skcomp(0))
        if self.ts.at_word("skfun"):
            self.ts.next()
            v = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym(".")
            return skeleff.SSkelAbs(v, self.skvalue(0))
        if self.ts.at_word("handler"):
            self.ts.next()
            return self.skhandler()
        out = self.skvalue_atom()
        while self.ts.at_sym("@"):
            self.ts.next()
            tag = self.ts.eat_kind("ident").text
            if tag != "sk":
                raise self.ts.error("only skeleton applications survive erasure")
            self.ts.eat_sym("[")
            out = skeleff.SSkelApp(out, self.skeleton(0))
            self.ts.eat_sym("]")
        return out

    def skvalue_atom(self):
        t = self.ts.peek()
        if self.ts.at_word("unit"):
            self.ts.next()
            return skeleff.SUnit()
        if t.kind == "int":
            self.ts.next()
            return skeleff.SInt(int(t.text))
        if t.kind == "ident" and self.classify(t.text) == "x" and not self.ts.at_word(
            "return", "do", "let", "with", "in", "handle"
        ):
            self.ts.next()
            return skeleff.SVar(self.lookup(t.text, t.span))
        if self.ts.at_sym("("):
            self.ts.next()
            out = self.skvalue(0)
            self.ts.eat_sym(")")
            return out
        raise self.ts.error("expected a value")

    def skhandler(self):
        self.ts.eat_sym("{")
        self.ts.eat_word("return")
        self.ts.eat_sym("(")
        x = self.bind(self.ts.eat_kind("ident").text)
        self.ts.eat_sym(":")
        ty = self.skeleton(0)
        self.ts.eat_sym(")")
        self.ts.eat_sym("->")
        ret_body = self.skcomp(0)
        clauses = []
        while self.ts.at_sym(","):
            self.ts.next()
            op = self.ts.eat_kind("uident").text
            self.ts.eat_sym("(")
            p = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym(";")
            k = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym(")")
            self.ts.eat_sym("->")
            clauses.append(skeleff.SOpClause(op, p, k, self.skcomp(0)))
        self.ts.eat_sym("}")
        return skeleff.SHandler(x, ty, ret_body, tuple(clauses))

    def skcomp(self, prec: int = 0):
        t = self.ts.peek()
        if self.ts.at_word("return"):
            self.ts.next()
            return skeleff.SReturn(self.skvalue(2))
        if self.ts.at_word("do"):
            self.ts.next()
            x = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym("<-")
            first = self.skcomp(0)
            self.ts.eat_word("in")
            return skeleff.SDo(x, first, self.skcomp(0))
        if self.ts.at_word("let"):
            self.ts.next()
            x = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym("=")
            val = self.skvalue(0)
            self.ts.eat_word("in")
            return skeleff.SLet(x, val, self.skcomp(0))
        if self.ts.at_word("with"):
            self.ts.next()
            h = self.skvalue(2)
            self.ts.eat_word("handle")
            return skeleff.SHandle(h, self.skcomp(0))
        if t.kind == "uident":
            self.ts.next()
            self.ts.eat_sym("(")
            arg = self.skvalue(0)
            self.ts.eat_sym(";")
            y = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym(":")
            ty = self.skeleton(0)
            self.ts.eat_sym(".")
            body = self.skcomp(0)
            self.ts.eat_sym(")")
            return skeleff.SOp(t.text, arg, y, ty, body)
        if self.ts.at_sym("("):
            mark = self.ts.pos
            try:
                fn = self.skvalue(2)
                arg = self.skvalue(3)
                return skeleff.SApp(fn, arg)
            except ParseError:
                self.ts.pos = mark
            self.ts.eat_sym("(")
            out = self.skcomp(0)
            self.ts.eat_sym(")")
            return out
        fn = self.skvalue(2)
        arg = self.skvalue(3)
        return skeleff.SApp(fn, arg)


def read_skeleff_comp(text: str, supply: Optional[Supply] = None):
    r = _SkReader(text, supply)
    out = r.skcomp(0)
    r.ts.expect_eof()
    return out


# ---------------------------------------------------------------------------
# Pure-backend reader


class _NReader(_Reader):
    def nty(self, prec: int = 0):
        if self.ts.at_word("all") and prec == 0:
            self.ts.next()
            binders = []
            while not self.ts.at_sym("."):
                if self.ts.at_sym("["):
                    self.ts.next()
                    ct = self.nsub()
                    self.ts.eat_sym("]")
                    binders.append(("qual", ct))
                else:
                    name = self.ts.eat_kind("ident")
                    binders.append(("ty", self.bind(name.text)))
            self.ts.eat_sym(".")
            body = self.nty(0)
            for tag, v in reversed(binders):
                body = noeff.NForall(v, body) if tag == "ty" else noeff.NQual(v, body)
            return body
        left = self.nty_atom()
        if prec <= 1 and self.ts.at_sym("->"):
            self.ts.next()
            return noeff.NArrow(left, self.nty(1))
        if prec <= 1 and self.ts.at_sym("=>"):
            self.ts.next()
            return noeff.NHandler(left, self.nty(1))
        return left

    def nty_atom(self):
        t = self.ts.peek()
        if t.kind == "uident" and t.text in ("Unit", "Int"):
            self.ts.next()
            return noeff.NBase(Base[t.text.upper()])
        if t.kind == "uident" and t.text == "Comp":
            self.ts.next()
            return noeff.NComp(self.nty_atom())
        if t.kind == "ident" and self.classify(t.text) == "a":
            self.ts.next()
            return self.lookup(t.text, t.span)
        if self.ts.at_sym("("):
            self.ts.next()
            out = self.nty(0)
            self.ts.eat_sym(")")
            return out
        raise self.ts.error("expected a type")

    def nsub(self) -> noeff.NSub:
        lhs = self.nty(1)
        self.ts.eat_sym("<=")
        return noeff.NSub(lhs, self.nty(1))

    def nco(self, prec: int = 0):
        if self.ts.at_word("all") and prec == 0:
            self.ts.next()
            binders = []
            while not self.ts.at_sym("."):
                if self.ts.at_sym("["):
                    self.ts.next()
                    ct = self.nsub()
                    self.ts.eat_sym("]")
                    binders.append(("qual", ct))
                else:
                    name = self.ts.eat_kind("ident")
                    binders.append(("ty", self.bind(name.text)))
            self.ts.eat_sym(".")
            body = self.nco(0)
            for tag, v in reversed(binders):
                body = noeff.NCoForall(v, body) if tag == "ty" else noeff.NCoQual(v, body)
            return body
        left = self.nco_atom()
        if prec <= 1 and self.ts.at_sym("->"):
            self.ts.next()
            return noeff.NCoArrow(left, self.nco(1))
        if prec <= 1 and self.ts.at_sym("=>"):
            self.ts.next()
            return noeff.NCoHandler(left, self.nco(1))
        return left

    def nco_atom(self):
        t = self.ts.peek()
        if self.ts.at_sym("<"):
            self.ts.next()
            inner = self.ts.peek()
            if inner.kind == "uident" and inner.text in ("Unit", "Int"):
                self.ts.next()
                out = noeff.NCoBaseRefl(Base[inner.text.upper()])
            else:
                tok = self.ts.eat_kind("ident")
                out = noeff.NCoTyRefl(self.lookup(tok.text, tok.span))
            self.ts.eat_sym(">")
            return out
        for word, cls in (
            ("hand2fun", noeff.NCoHandToFun),
            ("fun2hand", noeff.NCoFunToHand),
        ):
            if self.ts.at_word(word):
                self.ts.next()
                self.ts.eat_sym("(")
                g1 = self.nco(0)
                self.ts.eat_sym(",")
                g2 = self.nco(0)
                self.ts.eat_sym(")")
                return cls(g1, g2)
        for word, cls in (
            ("comp", noeff.NCoComp),
            ("return", noeff.NCoReturn),
            ("unsafe", noeff.NCoUnsafe),
        ):
            if self.ts.at_word(word):
                self.ts.next()
                self.ts.eat_sym("(")
                g = self.nco(0)
                self.ts.eat_sym(")")
                return cls(g)
        if t.kind == "ident" and self.classify(t.text) == "w":
            self.ts.next()
            return noeff.NCoVar(self.lookup(t.text, t.span))
        if self.ts.at_sym("("):
            self.ts.next()
            out = self.nco(0)
            self.ts.eat_sym(")")
            return out
        raise self.ts.error("expected a coercion")

    def _at_nterm_start(self) -> bool:
        t = self.ts.peek()
        if t.kind == "int" or self.ts.at_sym("("):
            return True
        if t.kind == "uident":
            return False
        if t.kind == "ident":
            if t.text in ("in", "handle", "do", "let", "with", "return"):
                return False
            return t.text in _VALUE_KEYWORDS or self.classify(t.text) == "x"
        return False

    def nterm(self, prec: int = 0):
        t = self.ts.peek()
        if self.ts.at_word("fun"):
            self.ts.next()
            self.ts.eat_sym("(")
            x = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym(":")
            ty = self.nty(0)
            self.ts.eat_sym(")")
            self.ts.eat_sym("->")
            return noeff.MAbs(x, ty, self.nterm(0))
        if self.ts.at_word("tyfun"):
            self.ts.next()
            v = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym(".")
            return noeff.MTyAbs(v, self.nterm(0))
        if self.ts.at_word("cofun"):
            self.ts.next()
            self.ts.eat_sym("(")
            v = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym(":")
            ct = self.nsub()
            self.ts.eat_sym(")")
            self.ts.eat_sym(".")
            return noeff.MCoAbs(v, ct, self.nterm(0))
        if self.ts.at_word("do"):
            self.ts.next()
            x = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym("<-")
            first = self.nterm(0)
            self.ts.eat_word("in")
            return noeff.MDo(x, first, self.nterm(0))
        if self.ts.at_word("let"):
            self.ts.next()
            x = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym("=")
            val = self.nterm(0)
            self.ts.eat_word("in")
            return noeff.MLet(x, val, self.nterm(0))
        if self.ts.at_word("with"):
            self.ts.next()
            h = self.nterm(2)
            self.ts.eat_word("handle")
            return noeff.MHandle(h, self.nterm(0))
        out = self._nterm_app(prec)
        while prec <= 1 and self.ts.at_sym("|>"):
            self.ts.next()
            out = noeff.MCast(out, self.nco(0))
        return out

    def _nterm_app(self, prec: int):
        t = self.ts.peek()
        if self.ts.at_word("return"):
            self.ts.next()
            return noeff.MReturn(self.nterm_atom())
        if t.kind == "uident":
            self.ts.next()
            self.ts.eat_sym("(")
            arg = self.nterm(0)
            self.ts.eat_sym(";")
            y = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym(":")
            ty = self.nty(2)
            self.ts.eat_sym(".")
            body = self.nterm(0)
            self.ts.eat_sym(")")
            return noeff.MOp(t.text, arg, y, ty, body)
        out = self.nterm_atom()
        while True:
            if self.ts.at_sym("@"):
                self.ts.next()
                tag = self.ts.eat_kind("ident").text
                self.ts.eat_sym("[")
                if tag == "ty":
                    out = noeff.MTyApp(out, self.nty(0))
                elif tag == "co":
                    out = noeff.MCoApp(out, self.nco(0))
                else:
                    raise self.ts.error(f"unknown application tag @{tag}")
                self.ts.eat_sym("]")
                continue
            if self._at_nterm_start():
                out = noeff.MApp(out, self.nterm_atom())
                continue
            return out

    def nterm_atom(self):
        t = self.ts.peek()
        if self.ts.at_word("unit"):
            self.ts.next()
            return noeff.MUnit()
        if t.kind == "int":
            self.ts.next()
            return noeff.MInt(int(t.text))
        if self.ts.at_word("handler"):
            self.ts.next()
            return self.nhandler()
        if t.kind == "ident" and self.classify(t.text) == "x":
            self.ts.next()
            return noeff.MVar(self.lookup(t.text, t.span))
        if self.ts.at_sym("("):
            self.ts.next()
            out = self.nterm(0)
            self.ts.eat_sym(")")
            return out
        raise self.ts.error("expected a term")

    def nhandler(self):
        self.ts.eat_sym("{")
        self.ts.eat_word("return")
        self.ts.eat_sym("(")
        x = self.bind(self.ts.eat_kind("ident").text)
        self.ts.eat_sym(":")
        ty = self.nty(0)
        self.ts.eat_sym(")")
        self.ts.eat_sym("->")
        ret_body = self.nterm(0)
        clauses = []
        while self.ts.at_sym(","):
            self.ts.next()
            op = self.ts.eat_kind("uident").text
            self.ts.eat_sym("(")
            p = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym(";")
            k = self.bind(self.ts.eat_kind("ident").text)
            self.ts.eat_sym(")")
            self.ts.eat_sym("->")
            clauses.append(noeff.MOpClause(op, p, k, self.nterm(0)))
        self.ts.eat_sym("}")
        return noeff.MHandler(x, ty, ret_body, tuple(clauses))


def read_noeff_term(text: str, supply: Optional[Supply] = None):
    r = _NReader(text, supply)
    out = r.nterm(0)
    r.ts.expect_eof()
    return out
