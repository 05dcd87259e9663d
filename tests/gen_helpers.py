"""Random generators for the property suites.

Source programs are generated type-directed against a small monomorphic type
universe, so they are well-typed by construction; inference must accept all
of them.  Coercion pairs are generated bottom-up together with their source
and target types.
"""

from __future__ import annotations

import random

from effc import exeff, source
from effc.core import (
    Base,
    CompType,
    Dirt,
    Signature,
    Supply,
    TArrow,
    TBase,
    THandler,
    dirt,
)
from source_printer import show_program, show_src_type

OPS = {
    "Tick": (TBase(Base.UNIT), TBase(Base.UNIT)),
    "Tock": (TBase(Base.UNIT), TBase(Base.UNIT)),
    "Get": (TBase(Base.UNIT), TBase(Base.INT)),
    "Emit": (TBase(Base.INT), TBase(Base.UNIT)),
}


def make_signature() -> Signature:
    sig = Signature()
    for name, (p, r) in OPS.items():
        sig.declare(name, p, r)
    return sig


def signature_header() -> str:
    lines = []
    for name, (p, r) in OPS.items():
        lines.append(f"effect {name} : {show_src_type(p)} -> {show_src_type(r)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Type-directed source-program generation


def random_vty(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.55:
        return TBase(rng.choice((Base.UNIT, Base.INT)))
    return TArrow(random_vty(rng, depth - 1), random_cty(rng, depth - 1))


def random_dirt(rng: random.Random) -> Dirt:
    names = [op for op in OPS if rng.random() < 0.35]
    return dirt(names)


def random_cty(rng: random.Random, depth: int) -> CompType:
    return CompType(random_vty(rng, depth - 1), random_dirt(rng))


class SourceGen:
    def __init__(self, rng: random.Random, supply=None):
        self.rng = rng
        self.supply = supply or Supply()

    def _vars_of(self, env, ty):
        return [v for v, t in env if t == ty]

    def value(self, env, ty, depth):
        rng = self.rng
        candidates = self._vars_of(env, ty)
        if candidates and rng.random() < 0.5:
            return source.SrcVar(rng.choice(candidates))
        if isinstance(ty, TBase):
            if candidates and depth <= 0:
                return source.SrcVar(rng.choice(candidates))
            if ty.base is Base.UNIT:
                return source.SrcUnit()
            return source.SrcInt(rng.randrange(10))
        if isinstance(ty, TArrow):
            x = self.supply.term("x")
            body = self.comp(env + [(x, ty.dom)], ty.cod, depth - 1)
            return source.SrcFun(x, body)
        if isinstance(ty, THandler):
            return self.handler(env, ty, depth)
        raise TypeError(ty)

    def handler(self, env, ty: THandler, depth):
        rng = self.rng
        in_cty, out_cty = ty.dom, ty.cod
        handled = sorted(in_cty.dirt.ops - out_cty.dirt.ops)
        x = self.supply.term("x")
        ret_body = self.comp(env + [(x, in_cty.val)], out_cty, depth - 1)
        clauses = []
        for op in handled:
            p_ty, r_ty = OPS[op]
            p = self.supply.term("p")
            k = self.supply.term("k")
            k_ty = TArrow(r_ty, out_cty)
            body = self.comp(env + [(p, p_ty), (k, k_ty)], out_cty, depth - 1)
            clauses.append(source.SrcOpClause(op, p, k, body))
        return source.SrcHandler(x, ret_body, tuple(clauses))

    def comp(self, env, cty: CompType, depth):
        rng = self.rng
        ty, d = cty.val, cty.dirt
        ops_avail = [op for op in sorted(d.ops)]
        choices = ["return", "let"]
        if depth > 0:
            choices += ["do", "app", "app"]
            if ops_avail:
                choices += ["op", "op"]
            if depth > 1:
                choices += ["handle"]
        kind = rng.choice(choices)
        if kind == "return" or depth <= 0:
            return source.SrcReturn(self.value(env, ty, depth))
        if kind == "let":
            v_ty = random_vty(rng, min(depth - 1, 1))
            x = self.supply.term("v")
            val = self.value(env, v_ty, depth - 1)
            body = self.comp(env + [(x, v_ty)], cty, depth - 1)
            return source.SrcLet(x, val, body)
        if kind == "do":
            mid_ty = random_vty(rng, 1)
            x = self.supply.term("a")
            sub_dirt = dirt([op for op in sorted(d.ops) if rng.random() < 0.7])
            first = self.comp(env, CompType(mid_ty, sub_dirt), depth - 1)
            second = self.comp(env + [(x, mid_ty)], cty, depth - 1)
            return source.SrcDo(x, first, second)
        if kind == "op":
            op = rng.choice(ops_avail)
            p_ty, r_ty = OPS[op]
            if r_ty == ty:
                y = self.supply.term("y")
                return source.SrcOpCall(
                    op, self.value(env, p_ty, depth - 1), y,
                    source.SrcReturn(source.SrcVar(y)),
                )
            # Sequence the call before producing the required type.
            x = self.supply.term("b")
            y = self.supply.term("y")
            call = source.SrcOpCall(
                op, self.value(env, p_ty, depth - 1), y, source.SrcReturn(source.SrcVar(y))
            )
            rest = self.comp(env + [(x, r_ty)], cty, depth - 1)
            return source.SrcDo(x, call, rest)
        if kind == "app":
            arg_ty = random_vty(rng, 1)
            fn = self.value(env, TArrow(arg_ty, cty), depth - 1)
            arg = self.value(env, arg_ty, depth - 1)
            return source.SrcApp(fn, arg)
        if kind == "handle":
            inner_ops = dirt(
                sorted(set(ops_avail) | {op for op in OPS if rng.random() < 0.3}), None
            )
            h_ty = THandler(CompType(random_vty(rng, 1), inner_ops), cty)
            h = self.handler(env, h_ty, depth - 1)
            body = self.comp(env, h_ty.dom, depth - 1)
            return source.SrcHandle(h, body)
        raise AssertionError(kind)


def random_program(rng: random.Random, depth: int = 4):
    """A closed, ground-typed source computation plus its signature."""
    gen = SourceGen(rng)
    result_ty = TBase(rng.choice((Base.UNIT, Base.INT)))
    d = random_dirt(rng)
    comp = gen.comp([], CompType(result_ty, d), depth)
    return make_signature(), comp


def program_texts(corpus_paths, count: int = 200):
    """(name, source text) of each corpus program, then of `count` generated
    programs."""
    for path in corpus_paths:
        yield path.name, path.read_text()
    rng = random.Random(20261018)
    for i in range(count):
        sig, comp = random_program(rng, rng.randint(2, 5))
        yield f"random-{i}", show_program(sig, comp)


# ---------------------------------------------------------------------------
# Generated subtyping pairs: (narrow type, wide type, witnessing coercion)


def random_ty_pair(rng: random.Random, supply: Supply, depth: int):
    """Returns (small, big, co) with co witnessing small <= big."""
    if depth <= 0 or rng.random() < 0.5:
        base = rng.choice((Base.UNIT, Base.INT))
        t = TBase(base)
        return t, t, exeff.CoBaseRefl(base)
    if rng.random() < 0.6:
        dom_s, dom_b, dom_co = random_ty_pair(rng, supply, depth - 1)
        cod_s, cod_b, cod_co = random_cty_pair(rng, supply, depth - 1)
        return (
            TArrow(dom_b, cod_s),
            TArrow(dom_s, cod_b),
            exeff.CoArrow(dom_co, cod_co),
        )
    # Handler pair; output dirts must stay below the input dirts so generated
    # handler values typecheck at both sides.
    cod_s, cod_b, cod_co = random_cty_pair(rng, supply, depth - 1)
    dom_s, dom_b, dom_co = random_cty_pair(rng, supply, depth - 1, min_ops=cod_b.dirt.ops)
    return (
        THandler(dom_b, cod_s),
        THandler(dom_s, cod_b),
        exeff.CoHandler(dom_co, cod_co),
    )


def random_dirt_pair(rng: random.Random, min_ops=frozenset()):
    small = frozenset(op for op in OPS if rng.random() < 0.3) | frozenset(min_ops)
    extra = frozenset(op for op in OPS if rng.random() < 0.3) - small
    d_small = Dirt(small)
    d_big = Dirt(small | extra)
    co = exeff.CoEmpty(Dirt(extra))
    for op in sorted(small, reverse=True):
        co = exeff.CoOpUnion(op, co)
    return d_small, d_big, co


def random_cty_pair(rng: random.Random, supply: Supply, depth: int, min_ops=frozenset()):
    v_s, v_b, v_co = random_ty_pair(rng, supply, depth - 1)
    d_s, d_b, d_co = random_dirt_pair(rng, min_ops)
    return CompType(v_s, d_s), CompType(v_b, d_b), exeff.CoComp(v_co, d_co)


def random_value_of(rng: random.Random, supply: Supply, ty, depth: int = 2):
    """A closed core value of the given (variable-free) type."""
    if isinstance(ty, TBase):
        return exeff.EUnit() if ty.base is Base.UNIT else exeff.EInt(rng.randrange(10))
    if isinstance(ty, TArrow):
        x = supply.term("x")
        return exeff.EAbs(x, ty.dom, random_comp_of(rng, supply, ty.cod, depth - 1))
    if isinstance(ty, THandler):
        x = supply.term("x")
        handled = sorted(ty.dom.dirt.ops - ty.cod.dirt.ops)
        ret = random_comp_of(rng, supply, ty.cod, depth - 1)
        # Discard the bound value; types of binder and result may differ.
        clauses = []
        for op in handled:
            p_ty, r_ty = OPS[op]
            p = supply.term("p")
            k = supply.term("k")
            clauses.append(
                exeff.OpClause(op, p, k, random_comp_of(rng, supply, ty.cod, depth - 1))
            )
        return exeff.EHandler(x, ty.dom.val, ret, tuple(clauses))
    raise TypeError(ty)


def random_comp_of(rng: random.Random, supply: Supply, cty: CompType, depth: int = 2):
    ops_in = sorted(cty.dirt.ops)
    if depth > 0 and ops_in and rng.random() < 0.4:
        op = rng.choice(ops_in)
        p_ty, r_ty = OPS[op]
        y = supply.term("y")
        body = random_comp_of(rng, supply, cty, depth - 1)
        inner = exeff.COp(op, random_value_of(rng, supply, p_ty, depth - 1), y, r_ty, body)
        return inner
    v = random_value_of(rng, supply, cty.val, depth - 1)
    out = exeff.CReturn(v)
    if not cty.dirt.is_empty():
        co = exeff.CoComp(exeff.refl_of(cty.val), exeff.CoEmpty(cty.dirt))
        out = exeff.CCast(out, co)
    return out
