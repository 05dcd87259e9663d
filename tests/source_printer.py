"""The surface-language printer: emits the concrete syntax that
`source.parse_program` reads.  The compiler never prints source, so the
printer lives with the tests, which print generated programs as text and
check that printing and parsing round-trip."""

from __future__ import annotations

from effc.core import CompType, Dirt, Signature, TArrow, TBase, THandler, TermVar
from effc.source import (
    SrcApp,
    SrcComp,
    SrcDo,
    SrcFun,
    SrcHandle,
    SrcHandler,
    SrcInt,
    SrcLet,
    SrcOpCall,
    SrcReturn,
    SrcUnit,
    SrcValue,
    SrcVar,
)
from effc.traverse import rename


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
