"""Canonical renaming and pretty-printing for every intermediate language.

Canonicalization renames all variables (free first, then binders, in
traversal order) to per-sort sequential names, so printed artifacts are
deterministic and stable under alpha-equivalence.
"""

from __future__ import annotations

from . import exeff, noeff, skeleff
from .core import (
    CompSub,
    CompType,
    CoVar,
    Dirt,
    DirtSub,
    DirtVar,
    Scheme,
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
from .traverse import rename

# ---------------------------------------------------------------------------
# Canonical renaming


_RESERVED_TERM_NAME = __import__("re").compile(r"[sadw]\d+")


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
                if _RESERVED_TERM_NAME.fullmatch(base):
                    # Names of this shape denote type-level variables in dumps.
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
# Names


def _s(v: SkelVar) -> str:
    return f"s{v.id}"


def _a(v: TyVar) -> str:
    return f"a{v.id}"


def _d(v: DirtVar) -> str:
    return f"d{v.id}"


def _w(v: CoVar) -> str:
    return f"w{v.id}"


def _x(v: TermVar) -> str:
    return v.name


def _paren(s: str, need: bool) -> str:
    return f"({s})" if need else s


# ---------------------------------------------------------------------------
# Skeletons, dirts, core types


def show_skeleton(s, prec: int = 0) -> str:
    if isinstance(s, SkelVar):
        return _s(s)
    if isinstance(s, SkelBase):
        return str(s.base)
    if isinstance(s, SkelArrow):
        return _paren(f"{show_skeleton(s.dom, 2)} -> {show_skeleton(s.cod, 1)}", prec > 1)
    if isinstance(s, SkelHandler):
        return _paren(f"{show_skeleton(s.dom, 2)} => {show_skeleton(s.cod, 1)}", prec > 1)
    if isinstance(s, SkelForall):
        binders = []
        while isinstance(s, SkelForall):
            binders.append(_s(s.var))
            s = s.body
        return _paren(f"all {' '.join(binders)}. {show_skeleton(s, 0)}", prec > 0)
    raise TypeError(s)


def show_dirt(d: Dirt) -> str:
    if d.tail is None:
        return "{" + ", ".join(d.sorted_ops()) + "}"
    if not d.ops:
        return _d(d.tail)
    return "{" + ", ".join(d.sorted_ops()) + " | " + _d(d.tail) + "}"


def show_constraint(ct) -> str:
    if isinstance(ct, TySub):
        return f"{show_vty(ct.lhs, 1)} <= {show_vty(ct.rhs, 1)}"
    if isinstance(ct, DirtSub):
        return f"{show_dirt(ct.lhs)} <= {show_dirt(ct.rhs)}"
    if isinstance(ct, CompSub):
        return f"{show_cty(ct.lhs)} <= {show_cty(ct.rhs)}"
    raise TypeError(ct)


def show_cty(c: CompType) -> str:
    return f"{show_vty(c.val, 2)} ! {show_dirt(c.dirt)}"


def show_vty(t, prec: int = 0) -> str:
    if isinstance(t, TyVar):
        return _a(t)
    if isinstance(t, TBase):
        return str(t.base)
    if isinstance(t, TArrow):
        return _paren(f"{show_vty(t.dom, 2)} -> {show_cty(t.cod)}", prec > 1)
    if isinstance(t, THandler):
        return _paren(f"{show_cty(t.dom)} => {show_cty(t.cod)}", prec > 1)
    if isinstance(t, (TForallSkel, TForallTy, TForallDirt, TQual)):
        binders = []
        while True:
            if isinstance(t, TForallSkel):
                binders.append(_s(t.var))
            elif isinstance(t, TForallTy):
                binders.append(f"({_a(t.var)} : {show_skeleton(t.skel)})")
            elif isinstance(t, TForallDirt):
                binders.append(_d(t.var))
            elif isinstance(t, TQual):
                binders.append(f"[{show_constraint(t.constraint)}]")
            else:
                break
            t = t.body
        return _paren(f"all {' '.join(binders)}. {show_vty(t, 0)}", prec > 0)
    raise TypeError(t)


def show_scheme(s: Scheme) -> str:
    from .core import scheme_type

    return show_vty(scheme_type(s))


# ---------------------------------------------------------------------------
# Core coercions


def show_coercion(co, prec: int = 0) -> str:
    if isinstance(co, exeff.CoVarRef):
        return _w(co.var)
    if isinstance(co, exeff.CoBaseRefl):
        return f"<{co.base}>"
    if isinstance(co, exeff.CoTyRefl):
        return f"<{_a(co.var)}>"
    if isinstance(co, exeff.CoDirtRefl):
        return f"<{show_dirt(co.dirt)}>"
    if isinstance(co, exeff.CoEmpty):
        return f"empty({show_dirt(co.dirt)})"
    if isinstance(co, exeff.CoOpUnion):
        return _paren(f"{{{co.op}}} + {show_coercion(co.rest, 2)}", prec > 2)
    if isinstance(co, exeff.CoArrow):
        return _paren(f"{show_coercion(co.dom, 2)} -> {show_coercion(co.cod, 1)}", prec > 1)
    if isinstance(co, exeff.CoHandler):
        return _paren(f"{show_coercion(co.dom, 2)} => {show_coercion(co.cod, 1)}", prec > 1)
    if isinstance(co, exeff.CoComp):
        return _paren(f"{show_coercion(co.val, 3)} ! {show_coercion(co.dirt, 3)}", prec > 2)
    if isinstance(co, (exeff.CoForallSkel, exeff.CoForallTy, exeff.CoForallDirt, exeff.CoQual)):
        binders = []
        while True:
            if isinstance(co, exeff.CoForallSkel):
                binders.append(_s(co.var))
            elif isinstance(co, exeff.CoForallTy):
                binders.append(f"({_a(co.var)} : {show_skeleton(co.skel)})")
            elif isinstance(co, exeff.CoForallDirt):
                binders.append(_d(co.var))
            elif isinstance(co, exeff.CoQual):
                binders.append(f"[{show_constraint(co.constraint)}]")
            else:
                break
            co = co.body
        return _paren(f"all {' '.join(binders)}. {show_coercion(co, 0)}", prec > 0)
    raise TypeError(co)


# ---------------------------------------------------------------------------
# Core terms


def show_value(v, prec: int = 0) -> str:
    if isinstance(v, exeff.EVar):
        return _x(v.var)
    if isinstance(v, exeff.EUnit):
        return "unit"
    if isinstance(v, exeff.EInt):
        return str(v.value)
    if isinstance(v, exeff.EAbs):
        return _paren(
            f"fun ({_x(v.var)} : {show_vty(v.ty)}) -> {show_comp(v.body)}", prec > 0
        )
    if isinstance(v, exeff.EHandler):
        parts = [f"return ({_x(v.ret_var)} : {show_vty(v.ret_ty)}) -> {show_comp(v.ret_body)}"]
        for cl in v.clauses:
            parts.append(f"{cl.op}({_x(cl.param)}; {_x(cl.kont)}) -> {show_comp(cl.body)}")
        return "handler { " + ", ".join(parts) + " }"
    if isinstance(v, exeff.ESkelAbs):
        return _paren(f"skfun {_s(v.var)}. {show_value(v.body)}", prec > 0)
    if isinstance(v, exeff.ETyAbs):
        return _paren(
            f"tyfun ({_a(v.var)} : {show_skeleton(v.skel)}). {show_value(v.body)}", prec > 0
        )
    if isinstance(v, exeff.EDirtAbs):
        return _paren(f"difun {_d(v.var)}. {show_value(v.body)}", prec > 0)
    if isinstance(v, exeff.ECoAbs):
        return _paren(
            f"cofun ({_w(v.var)} : {show_constraint(v.constraint)}). {show_value(v.body)}",
            prec > 0,
        )
    if isinstance(v, exeff.ESkelApp):
        return _paren(f"{show_value(v.val, 2)} @sk[{show_skeleton(v.skel)}]", prec > 2)
    if isinstance(v, exeff.ETyApp):
        return _paren(f"{show_value(v.val, 2)} @ty[{show_vty(v.ty)}]", prec > 2)
    if isinstance(v, exeff.EDirtApp):
        return _paren(f"{show_value(v.val, 2)} @di[{show_dirt(v.dirt)}]", prec > 2)
    if isinstance(v, exeff.ECoApp):
        return _paren(f"{show_value(v.val, 2)} @co[{show_coercion(v.co)}]", prec > 2)
    if isinstance(v, exeff.ECast):
        return _paren(f"{show_value(v.val, 1)} |> {show_coercion(v.co)}", prec > 1)
    raise TypeError(v)


def show_comp(c, prec: int = 0) -> str:
    if isinstance(c, exeff.CReturn):
        return _paren(f"return {show_value(c.val, 2)}", prec > 2)
    if isinstance(c, exeff.COp):
        # The binder annotation prints at atom level so its dot cannot be
        # mistaken for the continuation separator.
        return _paren(
            f"{c.op}({show_value(c.arg)}; {_x(c.var)} : {show_vty(c.var_ty, 2)}. {show_comp(c.body)})",
            prec > 2,
        )
    if isinstance(c, exeff.CDo):
        return _paren(
            f"do {_x(c.var)} <- {show_comp(c.first)} in {show_comp(c.second)}", prec > 0
        )
    if isinstance(c, exeff.CLet):
        return _paren(
            f"let {_x(c.var)} = {show_value(c.val)} in {show_comp(c.body)}", prec > 0
        )
    if isinstance(c, exeff.CHandle):
        return _paren(
            f"with {show_value(c.handler, 2)} handle {show_comp(c.body)}", prec > 0
        )
    if isinstance(c, exeff.CApp):
        return _paren(f"{show_value(c.fn, 2)} {show_value(c.arg, 3)}", prec > 2)
    if isinstance(c, exeff.CCast):
        return _paren(f"{show_comp(c.comp, 1)} |> {show_coercion(c.co)}", prec > 1)
    raise TypeError(c)


# ---------------------------------------------------------------------------
# Effect-erased terms


def show_sk_value(v, prec: int = 0) -> str:
    if isinstance(v, skeleff.SVar):
        return _x(v.var)
    if isinstance(v, skeleff.SUnit):
        return "unit"
    if isinstance(v, skeleff.SInt):
        return str(v.value)
    if isinstance(v, skeleff.SAbs):
        return _paren(
            f"fun ({_x(v.var)} : {show_skeleton(v.ty)}) -> {show_sk_comp(v.body)}", prec > 0
        )
    if isinstance(v, skeleff.SHandler):
        parts = [
            f"return ({_x(v.ret_var)} : {show_skeleton(v.ret_ty)}) -> {show_sk_comp(v.ret_body)}"
        ]
        for cl in v.clauses:
            parts.append(f"{cl.op}({_x(cl.param)}; {_x(cl.kont)}) -> {show_sk_comp(cl.body)}")
        return "handler { " + ", ".join(parts) + " }"
    if isinstance(v, skeleff.SSkelAbs):
        return _paren(f"skfun {_s(v.var)}. {show_sk_value(v.body)}", prec > 0)
    if isinstance(v, skeleff.SSkelApp):
        return _paren(f"{show_sk_value(v.val, 2)} @sk[{show_skeleton(v.skel)}]", prec > 2)
    raise TypeError(v)


def show_sk_comp(c, prec: int = 0) -> str:
    if isinstance(c, skeleff.SReturn):
        return _paren(f"return {show_sk_value(c.val, 2)}", prec > 2)
    if isinstance(c, skeleff.SOp):
        return _paren(
            f"{c.op}({show_sk_value(c.arg)}; {_x(c.var)} : {show_skeleton(c.var_ty, 2)}. "
            f"{show_sk_comp(c.body)})",
            prec > 2,
        )
    if isinstance(c, skeleff.SDo):
        return _paren(
            f"do {_x(c.var)} <- {show_sk_comp(c.first)} in {show_sk_comp(c.second)}", prec > 0
        )
    if isinstance(c, skeleff.SLet):
        return _paren(
            f"let {_x(c.var)} = {show_sk_value(c.val)} in {show_sk_comp(c.body)}", prec > 0
        )
    if isinstance(c, skeleff.SHandle):
        return _paren(
            f"with {show_sk_value(c.handler, 2)} handle {show_sk_comp(c.body)}", prec > 0
        )
    if isinstance(c, skeleff.SApp):
        return _paren(f"{show_sk_value(c.fn, 2)} {show_sk_value(c.arg, 3)}", prec > 2)
    raise TypeError(c)


# ---------------------------------------------------------------------------
# Pure-backend types, coercions and terms


def show_nty(t, prec: int = 0) -> str:
    if isinstance(t, TyVar):
        return _a(t)
    if isinstance(t, noeff.NBase):
        return str(t.base)
    if isinstance(t, noeff.NArrow):
        return _paren(f"{show_nty(t.dom, 2)} -> {show_nty(t.cod, 1)}", prec > 1)
    if isinstance(t, noeff.NHandler):
        return _paren(f"{show_nty(t.dom, 2)} => {show_nty(t.cod, 1)}", prec > 1)
    if isinstance(t, noeff.NComp):
        return _paren(f"Comp {show_nty(t.body, 3)}", prec > 2)
    if isinstance(t, (noeff.NForall, noeff.NQual)):
        binders = []
        while True:
            if isinstance(t, noeff.NForall):
                binders.append(_a(t.var))
            elif isinstance(t, noeff.NQual):
                binders.append(f"[{show_nsub(t.constraint)}]")
            else:
                break
            t = t.body
        return _paren(f"all {' '.join(binders)}. {show_nty(t, 0)}", prec > 0)
    raise TypeError(t)


def show_nsub(ct: noeff.NSub) -> str:
    return f"{show_nty(ct.lhs, 1)} <= {show_nty(ct.rhs, 1)}"


def show_ncoercion(co, prec: int = 0) -> str:
    if isinstance(co, noeff.NCoVar):
        return _w(co.var)
    if isinstance(co, noeff.NCoBaseRefl):
        return f"<{co.base}>"
    if isinstance(co, noeff.NCoTyRefl):
        return f"<{_a(co.var)}>"
    if isinstance(co, noeff.NCoArrow):
        return _paren(f"{show_ncoercion(co.dom, 2)} -> {show_ncoercion(co.cod, 1)}", prec > 1)
    if isinstance(co, noeff.NCoHandler):
        return _paren(f"{show_ncoercion(co.dom, 2)} => {show_ncoercion(co.cod, 1)}", prec > 1)
    if isinstance(co, noeff.NCoHandToFun):
        return f"hand2fun({show_ncoercion(co.dom)}, {show_ncoercion(co.cod)})"
    if isinstance(co, noeff.NCoFunToHand):
        return f"fun2hand({show_ncoercion(co.dom)}, {show_ncoercion(co.cod)})"
    if isinstance(co, noeff.NCoComp):
        return f"comp({show_ncoercion(co.body)})"
    if isinstance(co, noeff.NCoReturn):
        return f"return({show_ncoercion(co.body)})"
    if isinstance(co, noeff.NCoUnsafe):
        return f"unsafe({show_ncoercion(co.body)})"
    if isinstance(co, (noeff.NCoForall, noeff.NCoQual)):
        binders = []
        while True:
            if isinstance(co, noeff.NCoForall):
                binders.append(_a(co.var))
            elif isinstance(co, noeff.NCoQual):
                binders.append(f"[{show_nsub(co.constraint)}]")
            else:
                break
            co = co.body
        return _paren(f"all {' '.join(binders)}. {show_ncoercion(co, 0)}", prec > 0)
    raise TypeError(co)


def show_nterm(t, prec: int = 0) -> str:
    if isinstance(t, noeff.MVar):
        return _x(t.var)
    if isinstance(t, noeff.MUnit):
        return "unit"
    if isinstance(t, noeff.MInt):
        return str(t.value)
    if isinstance(t, noeff.MAbs):
        return _paren(f"fun ({_x(t.var)} : {show_nty(t.ty)}) -> {show_nterm(t.body)}", prec > 0)
    if isinstance(t, noeff.MTyAbs):
        return _paren(f"tyfun {_a(t.var)}. {show_nterm(t.body)}", prec > 0)
    if isinstance(t, noeff.MCoAbs):
        return _paren(
            f"cofun ({_w(t.var)} : {show_nsub(t.constraint)}). {show_nterm(t.body)}", prec > 0
        )
    if isinstance(t, noeff.MHandler):
        parts = [f"return ({_x(t.ret_var)} : {show_nty(t.ret_ty)}) -> {show_nterm(t.ret_body)}"]
        for cl in t.clauses:
            parts.append(f"{cl.op}({_x(cl.param)}; {_x(cl.kont)}) -> {show_nterm(cl.body)}")
        return "handler { " + ", ".join(parts) + " }"
    if isinstance(t, noeff.MApp):
        return _paren(f"{show_nterm(t.fn, 2)} {show_nterm(t.arg, 3)}", prec > 2)
    if isinstance(t, noeff.MTyApp):
        return _paren(f"{show_nterm(t.fn, 2)} @ty[{show_nty(t.ty)}]", prec > 2)
    if isinstance(t, noeff.MCoApp):
        return _paren(f"{show_nterm(t.fn, 2)} @co[{show_ncoercion(t.co)}]", prec > 2)
    if isinstance(t, noeff.MCast):
        return _paren(f"{show_nterm(t.term, 1)} |> {show_ncoercion(t.co)}", prec > 1)
    if isinstance(t, noeff.MReturn):
        # Terms are one syntactic sort, so `return` must parenthesize in
        # application-operand position to keep the grammar unambiguous.
        return _paren(f"return {show_nterm(t.term, 3)}", prec > 1)
    if isinstance(t, noeff.MLet):
        return _paren(f"let {_x(t.var)} = {show_nterm(t.val)} in {show_nterm(t.body)}", prec > 0)
    if isinstance(t, noeff.MOp):
        return _paren(
            f"{t.op}({show_nterm(t.arg)}; {_x(t.var)} : {show_nty(t.var_ty, 2)}. {show_nterm(t.body)})",
            prec > 2,
        )
    if isinstance(t, noeff.MDo):
        return _paren(
            f"do {_x(t.var)} <- {show_nterm(t.first)} in {show_nterm(t.second)}", prec > 0
        )
    if isinstance(t, noeff.MHandle):
        return _paren(
            f"with {show_nterm(t.handler, 2)} handle {show_nterm(t.body)}", prec > 0
        )
    raise TypeError(t)
