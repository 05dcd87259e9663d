"""Reference interpreter: source-level evaluation with deep handlers.

It evaluates the tuple AST of `programs.py` directly and shares no code with
the compiler, so it can judge every backend's observation.  Corpus files are
read with `effc.source.parse_program` (nothing downstream of parsing) and
converted to the same AST.

A computation evaluates to ("ret", value) or ("op", name, arg, resume), where
resume maps the operation's result to the rest of the computation's result.
"""

from __future__ import annotations


class Stuck(Exception):
    """The program went wrong at source level (a generator or corpus bug)."""


def _value(v, env):
    tag = v[0]
    if tag == "var":
        return env[v[1]]
    if tag == "unit":
        return "unit"
    if tag == "int":
        return v[1]
    if tag in ("fun", "handler"):
        return (tag, v, env)
    raise Stuck(f"unknown value {tag}")


def _apply(fn, arg):
    if callable(fn):  # a captured continuation
        return fn(arg)
    if isinstance(fn, tuple) and fn[0] == "fun":
        _, (_, x, body), env = fn
        return evaluate(body, {**env, x: arg})
    raise Stuck("application of a non-function")


def _bind(res, k):
    """Sequence `k` after the result `res`, threading operations outward."""
    if res[0] == "ret":
        return k(res[1])
    _, op, arg, resume = res
    return ("op", op, arg, lambda y: _bind(resume(y), k))


def _handle(h, res):
    _, (_, x, ret_body, clauses), env = h
    if res[0] == "ret":
        return evaluate(ret_body, {**env, x: res[1]})
    _, op, arg, resume = res

    def deep(y):  # the handler stays around the resumed continuation
        return _handle(h, resume(y))

    for name, p, k, body in clauses:
        if name == op:
            return evaluate(body, {**env, p: arg, k: deep})
    return ("op", op, arg, deep)


def evaluate(c, env=None):
    env = env or {}
    tag = c[0]
    if tag == "return":
        return ("ret", _value(c[1], env))
    if tag == "op":
        return ("op", c[1], _value(c[2], env), lambda y: ("ret", y))
    if tag == "do":
        _, x, first, second = c
        return _bind(evaluate(first, env), lambda v: evaluate(second, {**env, x: v}))
    if tag == "let":
        return evaluate(c[3], {**env, c[1]: _value(c[2], env)})
    if tag == "handle":
        h = _value(c[1], env)
        if not (isinstance(h, tuple) and h[0] == "handler"):
            raise Stuck("handling with a non-handler")
        return _handle(h, evaluate(c[2], env))
    if tag == "app":
        return _apply(_value(c[1], env), _value(c[2], env))
    raise Stuck(f"unknown computation {tag}")


def observe(comp) -> str:
    """The observation the CLI prints: `return <ground value>` or `operation <Op>`."""
    res = evaluate(comp)
    if res[0] == "op":
        return f"operation {res[1]}"
    v = res[1]
    if v == "unit" or isinstance(v, int):
        return f"return {v}"
    raise Stuck("program returned a non-ground value")


# ---------------------------------------------------------------------------
# Corpus files: effc's surface AST -> the tuple AST


def from_source(node):
    from effc import source as S

    def name(var):  # parse-time ids keep shadowed names apart
        return f"{var.name}_{var.id}"

    if isinstance(node, S.SrcVar):
        return ("var", name(node.var))
    if isinstance(node, S.SrcUnit):
        return ("unit",)
    if isinstance(node, S.SrcInt):
        return ("int", node.value)
    if isinstance(node, S.SrcFun):
        return ("fun", name(node.var), from_source(node.body))
    if isinstance(node, S.SrcHandler):
        clauses = tuple((cl.op, name(cl.param), name(cl.kont), from_source(cl.body)) for cl in node.clauses)
        return ("handler", name(node.ret_var), from_source(node.ret_body), clauses)
    if isinstance(node, S.SrcReturn):
        return ("return", from_source(node.val))
    if isinstance(node, S.SrcOpCall):
        return ("do", name(node.var), ("op", node.op, from_source(node.arg)), from_source(node.body))
    if isinstance(node, S.SrcDo):
        return ("do", name(node.var), from_source(node.first), from_source(node.second))
    if isinstance(node, S.SrcLet):
        return ("let", name(node.var), from_source(node.val), from_source(node.body))
    if isinstance(node, S.SrcHandle):
        return ("handle", from_source(node.handler), from_source(node.body))
    if isinstance(node, S.SrcApp):
        return ("app", from_source(node.fn), from_source(node.arg))
    raise Stuck(f"unknown source node {type(node).__name__}")


def parse_corpus(text: str):
    from effc import source

    _, comp = source.parse_program(text)
    return from_source(comp)
