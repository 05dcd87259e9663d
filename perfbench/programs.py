"""Benchmark inputs: the four program families, as ASTs and as source text.

Programs are built as a small tuple AST of the surface language and printed
to text; effc only ever receives the text.  The same AST is what the reference
interpreter (`reference.py`) evaluates, so observations are checked against
something that shares no code with the compiler.

Values        ("var", x) | ("unit",) | ("int", k) | ("fun", x, comp)
              | ("handler", x, ret_comp, ((Op, p, k, comp), ...))
Computations  ("return", v) | ("op", Op, v) | ("do", x, comp, comp)
              | ("let", x, v, comp) | ("handle", v, comp) | ("app", v, v)

Types used by the random generator: "Unit", "Int", ("arrow", vty, cty),
("handler", cty, cty); a cty is (vty, frozenset of operation names).
"""

from __future__ import annotations

import random

# name -> (parameter type, result type)
OPS = {
    "Tick": ("Unit", "Unit"),
    "Tock": ("Unit", "Unit"),
    "Get": ("Unit", "Int"),
    "Emit": ("Int", "Unit"),
}

HEADER = "".join(f"effect {op} : {p} -> {r}\n" for op, (p, r) in OPS.items())


# ---------------------------------------------------------------------------
# Printing


def show_value(v) -> str:
    tag = v[0]
    if tag == "var":
        return v[1]
    if tag == "unit":
        return "unit"
    if tag == "int":
        return str(v[1])
    if tag == "fun":
        return f"(fun {v[1]} -> {show_comp(v[2])})"
    if tag == "handler":
        parts = [f"return {v[1]} -> {show_comp(v[2])}"]
        parts += [f"{op} {p} {k} -> {show_comp(body)}" for op, p, k, body in v[3]]
        return "(handler { " + ", ".join(parts) + " })"
    raise ValueError(v)


def show_comp(c) -> str:
    tag = c[0]
    if tag == "return":
        return f"return {show_value(c[1])}"
    if tag == "op":
        return f"{c[1]} {show_value(c[2])}"
    if tag == "do":
        return f"do {c[1]} <- ({show_comp(c[2])}) in {show_comp(c[3])}"
    if tag == "let":
        return f"let {c[1]} = {show_value(c[2])} in {show_comp(c[3])}"
    if tag == "handle":
        return f"with {show_value(c[1])} handle ({show_comp(c[2])})"
    if tag == "app":
        return f"{show_value(c[1])} {show_value(c[2])}"
    raise ValueError(c)


def program_text(comp) -> str:
    return HEADER + show_comp(comp) + "\n"


def size(node) -> int:
    """Number of AST nodes: the n of a random program's growth fit."""
    if not isinstance(node, tuple):
        return 0
    if node and isinstance(node[0], str):  # a node, or an operation clause
        return 1 + sum(size(x) for x in node[1:])
    return sum(size(x) for x in node)  # the tuple of clauses


# ---------------------------------------------------------------------------
# Ladder families: one program per rung n


def handler_chain(n: int):
    """n alternating Get/Emit binds under one handler that resumes."""
    body = ("return", ("var", f"a{(n - 1) // 2 * 2}"))
    for i in reversed(range(n)):
        if i % 2 == 0:
            body = ("do", f"a{i}", ("op", "Get", ("unit",)), body)
        else:
            body = ("do", f"u{i}", ("op", "Emit", ("var", f"a{i - 1}")), body)
    h = ("handler", "x", ("return", ("var", "x")), (
        ("Get", "p", "k", ("app", ("var", "k"), ("int", 7))),
        ("Emit", "q", "j", ("app", ("var", "j"), ("unit",))),
    ))
    return ("handle", h, body)


def nested_handlers(n: int):
    """n handlers nested inside each other; each performs and handles a Tick."""
    c = ("op", "Tick", ("unit",))
    for i in range(n):
        h = ("handler", f"x{i}", ("return", ("var", f"x{i}")), (
            ("Tick", f"p{i}", f"k{i}", ("app", ("var", f"k{i}"), ("var", f"p{i}"))),
        ))
        c = ("handle", h, ("do", f"u{i}", ("op", "Tick", ("unit",)), c))
    return c


def let_poly(n: int):
    """n let-bound polymorphic functions, f_i = fun g -> f_{i-1} g."""
    c = ("app", ("var", f"f{n - 1}"), ("fun", "x", ("return", ("var", "x"))))
    for i in reversed(range(1, n)):
        c = ("let", f"f{i}", ("fun", "g", ("app", ("var", f"f{i - 1}"), ("var", "g"))), c)
    return ("let", "f0", ("fun", "g", ("app", ("var", "g"), ("unit",))), c)


# ---------------------------------------------------------------------------
# Random well-typed programs


def _rand_dirt(rng: random.Random) -> frozenset:
    return frozenset(op for op in OPS if rng.random() < 0.35)


def _rand_vty(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.55:
        return rng.choice(("Unit", "Int"))
    return ("arrow", _rand_vty(rng, depth - 1), (_rand_vty(rng, depth - 2), _rand_dirt(rng)))


class RandomGen:
    """Type-directed generation against a monomorphic type universe.

    Every subterm is built at a known type and dirt, so the whole program is
    well-typed with a ground result type by construction.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.fresh = 0

    def name(self, base: str) -> str:
        self.fresh += 1
        return f"{base}{self.fresh}"

    def value(self, env, ty, depth):
        rng = self.rng
        same = [x for x, t in env if t == ty]
        if same and (rng.random() < 0.5 or (depth <= 0 and isinstance(ty, str))):
            return ("var", rng.choice(same))
        if ty == "Unit":
            return ("unit",)
        if ty == "Int":
            return ("int", rng.randrange(10))
        if ty[0] == "arrow":
            x = self.name("x")
            return ("fun", x, self.comp(env + [(x, ty[1])], ty[2], depth - 1))
        return self.handler(env, ty, depth)

    def handler(self, env, ty, depth):
        (in_val, in_dirt), out = ty[1], ty[2]
        x = self.name("x")
        ret = self.comp(env + [(x, in_val)], out, depth - 1)
        clauses = []
        for op in sorted(in_dirt - out[1]):
            p_ty, r_ty = OPS[op]
            p, k = self.name("p"), self.name("k")
            body = self.comp(env + [(p, p_ty), (k, ("arrow", r_ty, out))], out, depth - 1)
            clauses.append((op, p, k, body))
        return ("handler", x, ret, tuple(clauses))

    def comp(self, env, cty, depth):
        rng = self.rng
        ty, d = cty
        ops = sorted(d)
        kinds = ["return", "let"]
        if depth > 0:
            kinds += ["do", "app", "app"] + (["op", "op"] if ops else []) + (["handle"] if depth > 1 else [])
        kind = rng.choice(kinds)
        if kind == "return" or depth <= 0:
            return ("return", self.value(env, ty, depth))
        if kind == "let":
            v_ty = _rand_vty(rng, min(depth - 1, 1))
            x = self.name("v")
            val = self.value(env, v_ty, depth - 1)
            return ("let", x, val, self.comp(env + [(x, v_ty)], cty, depth - 1))
        if kind == "do":
            mid = _rand_vty(rng, 1)
            x = self.name("a")
            first = self.comp(env, (mid, frozenset(op for op in ops if rng.random() < 0.7)), depth - 1)
            return ("do", x, first, self.comp(env + [(x, mid)], cty, depth - 1))
        if kind == "op":
            op = rng.choice(ops)
            p_ty, r_ty = OPS[op]
            call = ("op", op, self.value(env, p_ty, depth - 1))
            if r_ty == ty:
                return call
            x = self.name("b")
            return ("do", x, call, self.comp(env + [(x, r_ty)], cty, depth - 1))
        if kind == "app":
            arg_ty = _rand_vty(rng, 1)
            fn = self.value(env, ("arrow", arg_ty, cty), depth - 1)
            return ("app", fn, self.value(env, arg_ty, depth - 1))
        inner = frozenset(ops) | frozenset(op for op in OPS if rng.random() < 0.3)
        h_ty = ("handler", (_rand_vty(rng, 1), inner), cty)
        return ("handle", self.handler(env, h_ty, depth - 1), self.comp(env, h_ty[1], depth - 1))


# The random part of corpus-diff: PER_SIZE programs of each AST size in
# SIZES.  Compile time varies with size far more than with anything else, so
# a fixed count per size keeps the load nearly the same for every seed: the
# seed changes the programs, not how much work they are.  Small sizes make
# fixed per-program cost count, as in `effc corpus`.
SIZES = range(5, 21)
PER_SIZE = 20


def random_programs(seed: int) -> list:
    """Seeded random programs of depth 2-6, PER_SIZE of each size in SIZES."""
    rng = random.Random(seed)
    left = {s: PER_SIZE for s in SIZES}
    out = []
    while any(left.values()):
        gen = RandomGen(rng)
        comp = gen.comp([], (rng.choice(("Unit", "Int")), _rand_dirt(rng)), rng.randint(2, 6))
        s = size(comp)
        if left.get(s):
            left[s] -= 1
            out.append(comp)
    return out
