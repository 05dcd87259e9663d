"""One traversal engine for every calculus, driven by per-class shapes.

All calculi (source, ExEff, SkelEff, NoEff) share one binding structure, so
substitution, term substitution, free variables, alpha-equality and renaming
are each written once here.  A node class's *shape* is read once from its
dataclass fields and gives every field a role:

- BIND: a variable that binds over one sibling field (its scope);
- USE:  a variable occurrence (the variable field of a node with no children);
- TERM: a term child;  TYPE: a type-level child (skeleton, type, dirt,
  constraint or coercion);  MANY: a tuple of children;
- ATOM: an operation name, literal, base type, op set or source span.

A binder scopes over the class's last child field, unless the class names
another field in its `scope` attribute (handlers: the return binder scopes
over the return clause only).  Binders carry globally unique identities, so
type-level substitution never renames and never stops at a binder; binder
checks compare sort and identity, since ids are per-sort counters.

Each operation keeps a table of per-class functions, built on first use and
dispatched on `type(t)`.  Children are visited from inside the parent's
function, so every level of a tree (and every tuple of children) costs one
stack frame, and a rebuild returns the input node itself when no child
changed.  Substitution returns a cast's subject in place of the cast when it
turns the cast's coercion into an identity (`cast_hook`).

`summarize` records on every node of a compiled term its free term
variables, and term substitution returns a node whose summary lacks the
variable without walking it.  A summary depends on the node alone, so it
stays exact wherever the node is shared or moved; `replace_field` drops it
from the node it copies, and nodes built any other way never have one, so
nothing evaluation builds carries a summary.

The small-step semantics of ExEff, SkelEff and NoEff are `Reduction`s: one
ordered rule list per node class, interpreted by one decomposition loop that
keeps its evaluation context on an explicit stack.  Evaluation is refocused:
after each step the loop resumes at the contractum inside the context it
kept, and rebuilds a parent only when it pops back up to it, so a step costs
the work near its redex, not the depth of its context.  This is exact
because head rules come after all evaluation positions (checked per rule
list) and results never step.  The same shapes let `contractions` enumerate
the redexes of a term anywhere in it.
"""

from __future__ import annotations

import dataclasses
from operator import is_

from .core import (
    CoVar,
    DirtVar,
    FuelExhausted,
    SkelVar,
    StuckTerm,
    TermVar,
    TyVar,
)

BIND, USE, TERM, TYPE, MANY, ATOM = "bind", "use", "term", "type", "many", "atom"

VAR_CLASSES = (SkelVar, TyVar, DirtVar, CoVar, TermVar)
_VARS = {cls.__name__: cls for cls in VAR_CLASSES}
_VARS["Optional[DirtVar]"] = DirtVar
_TERMS = {"Value", "Comp", "NTerm", "SrcValue", "SrcComp"}
_TYPES = {
    "Skeleton", "ValueType", "CompType", "Dirt", "SimpleConstraint", "Union[TySub, DirtSub]",
    "Coercion", "NType", "TySub", "NCoercion", "object",
}
_ATOMS = {"str", "int", "Base", "frozenset", "Optional[Span]"}

@dataclasses.dataclass(frozen=True)
class Field:
    name: str
    role: str
    sort: type = None  # the variable class of a BIND or USE field
    compare: bool = True  # whether alpha-equality compares the field
    binders: tuple = ()  # (name, sort) of each BIND field whose scope is this field


class Shape:
    """The roles of one node class's fields, in declaration order."""

    def __init__(self, cls: type):
        if not dataclasses.is_dataclass(cls):
            raise TypeError(f"no traversal shape for {cls.__name__}")
        fields = dataclasses.fields(cls)
        roles = [_role(cls, f) for f in fields]
        kids = [f.name for f, r in zip(fields, roles) if r in (TERM, TYPE, MANY)]
        scope = getattr(cls, "scope", kids[-1] if kids else None)
        sorts = {f.name: _VARS.get(_annotation(f)) for f in fields}
        binders = tuple((f.name, sorts[f.name]) for f, r in zip(fields, roles) if r == BIND)
        self.names = tuple(f.name for f in fields)
        self.fields = tuple(
            Field(
                f.name,
                USE if r == BIND and not kids else r,
                sorts[f.name],
                f.compare,
                binders if f.name == scope else (),
            )
            for f, r in zip(fields, roles)
        )
        self.uses = tuple(f for f in self.fields if f.role == USE)
        self.kids = tuple(f for f in self.fields if f.role in (TERM, TYPE, MANY))
        self.terms = tuple(f for f in self.kids if f.role != TYPE)


def _annotation(f: dataclasses.Field) -> str:
    ann = f.type if isinstance(f.type, str) else getattr(f.type, "__name__", str(f.type))
    return ann.strip("'\"")


def _role(cls: type, f: dataclasses.Field) -> str:
    ann = _annotation(f)
    if ann in _VARS:
        return BIND  # a USE when the class has nothing to scope over
    if ann in _TERMS:
        return TERM
    if ann in _TYPES:
        return TYPE
    if ann == "tuple" or ann.startswith("tuple["):
        return MANY
    if ann in _ATOMS:
        return ATOM
    raise TypeError(f"{cls.__name__}.{f.name}: no traversal role for annotation {ann!r}")


class _Table(dict):
    """Per-class functions of one operation, built on first use."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, cls):
        fn = self[cls] = self.build(cls)
        return fn


_SHAPES = _Table(Shape)


def shape(cls: type) -> Shape:
    return _SHAPES[cls]


def _unchanged(*args):
    return args[-1]


def _rebuild(t, names, i, new, vals):
    if vals is None:
        vals = [getattr(t, n) for n in names]
    vals[i] = new
    return vals


def _tuple_map(table):
    """The tuple entry of a rebuilding table: map every element, share the
    tuple when no element changed."""

    def many(*args):
        t = args[-1]
        items = []
        for e in t:
            items.append(table[type(e)](*args[:-1], e))
        return t if all(map(is_, items, t)) else tuple(items)

    return many


# ---------------------------------------------------------------------------
# Substitution of skeleton, type, dirt and coercion variables


def substitute(s, t):
    """Apply a substitution to any entity of any calculus.

    `s` maps variable ids per sort (`s.skel`, `s.ty`, `s.dirt`, `s.co`).
    Binders carry globally unique identities, so no renaming is needed.
    """
    if s.is_empty():
        return t
    return _SUBST[type(t)](s, t)


def subst_hook(cls: type):
    """Register `fn(s, t)` as the substitution of `cls` nodes."""

    def register(fn):
        _SUBST[cls] = fn
        return fn

    return register


def cast_hook(cls: type, is_identity):
    """Declare `cls` a cast class, whose first field is its subject and whose
    second is its coercion: a substitution that rewrites a cast's coercion
    into one that `is_identity` accepts returns the substituted subject in
    place of the cast.  The walker tests this in its own frame, and only
    when the coercion changed."""
    _CASTS[cls] = is_identity
    _SUBST.pop(cls, None)


def _build_subst(cls):
    if cls is SkelVar:
        return lambda s, t: s.skel.get(t.id, t)
    if cls is TyVar:
        return lambda s, t: s.ty.get(t.id, t)
    sh = shape(cls)
    if sh.uses:
        (use,) = sh.uses
        if use.sort is TermVar:
            return _unchanged
        if use.sort is not CoVar:
            raise TypeError(f"{cls.__name__}: {use.sort.__name__} uses need a substitution hook")
        return lambda s, t: s.co.get(getattr(t, use.name).id, t)
    table = _SUBST
    kids = [(sh.names.index(f.name), f.name) for f in sh.kids]
    names = sh.names
    is_identity = _CASTS.get(cls)

    def go(s, t):
        vals = None
        for i, name in kids:
            old = getattr(t, name)
            new = table[type(old)](s, old)
            if new is not old:
                vals = _rebuild(t, names, i, new, vals)
        if vals is None:
            return t
        if is_identity is not None and vals[1] is not getattr(t, names[1]) and is_identity(vals[1]):
            return vals[0]
        return cls(*vals)

    return go


_SUBST = _Table(_build_subst)
_SUBST[tuple] = _tuple_map(_SUBST)
_CASTS: dict = {}  # cast class -> the test of `cast_hook`


# ---------------------------------------------------------------------------
# Summaries of free term variables

FREE = "free_terms"  # the attribute that holds a node's summary
_set = object.__setattr__  # nodes are frozen; the summary is not a field


def summarize(t) -> int:
    """Record on `t` and on every term node under it the node's free term
    variables, as an int bit set of their ids (bit i for the variable of id
    i; ids are dense per program), in the attribute `FREE`; returns `t`'s.
    A node that has a summary keeps it, so a shared node is summarized once.
    An int is not tracked by the cyclic collector, and every empty summary
    is the one cached 0."""
    return _SUMMARY[type(t)](t)


def _build_summary(cls):
    sh = shape(cls)
    if sh.uses:
        use = sh.uses[0]
        if use.sort is TermVar:

            def occurrence(t):
                free = 1 << getattr(t, use.name).id
                _set(t, FREE, free)
                return free

            return occurrence
    table = _SUMMARY
    kids = [
        (f.name, tuple(b for b, sort in f.binders if sort is TermVar))
        for f in sh.kids
        if f.role in (TERM, MANY)
    ]

    def go(t):
        free = getattr(t, FREE, None)
        if free is not None:
            return free
        free = 0
        for name, binders in kids:
            x = getattr(t, name)
            inner = table[type(x)](x)
            for b in binders:
                bid = getattr(t, b).id
                if inner >> bid & 1:
                    inner ^= 1 << bid
            if inner:
                free = free | inner if free else inner
        _set(t, FREE, free)
        return free

    return go


def _summarize_many(t):
    free = 0
    for e in t:
        inner = _SUMMARY[type(e)](e)
        if inner:
            free = free | inner if free else inner
    return free


_SUMMARY = _Table(_build_summary)
_SUMMARY[tuple] = _summarize_many


# ---------------------------------------------------------------------------
# Substitution of a value for a term variable


def subst_term(value, var: TermVar, subject):
    """Substitute `value` for the free occurrences of the term variable `var`.
    A node whose summary (see `summarize`) lacks `var` is returned as it is,
    without a walk."""
    free = getattr(subject, FREE, None)
    if free is not None and not free >> var.id & 1:
        return subject
    return _TSUBST[type(subject)](value, var.id, subject)


def _build_subst_term(cls):
    sh = shape(cls)
    if sh.uses:
        use = sh.uses[0]
        if use.sort is TermVar:
            return lambda v, vid, t: v if getattr(t, use.name).id == vid else t
        return _unchanged
    table = _TSUBST
    # Only term binders shadow: skeleton, type, dirt and coercion ids come
    # from counters of their own and may equal a term variable's id.
    kids = [
        (sh.names.index(f.name), f.name, tuple(b for b, sort in f.binders if sort is TermVar))
        for f in sh.kids
        if f.role in (TERM, MANY)
    ]
    if not kids:
        return _unchanged
    names = sh.names

    def go(v, vid, t):
        vals = None
        for i, name, binders in kids:
            if binders and any(getattr(t, b).id == vid for b in binders):
                continue
            old = getattr(t, name)
            free = getattr(old, FREE, None)
            if free is not None and not free >> vid & 1:
                continue
            new = table[type(old)](v, vid, old)
            if new is not old:
                vals = _rebuild(t, names, i, new, vals)
        return t if vals is None else cls(*vals)

    return go


_TSUBST = _Table(_build_subst_term)
_TSUBST[tuple] = _tuple_map(_TSUBST)


# ---------------------------------------------------------------------------
# Free variables


def free_vars(t, sort: type) -> list:
    """Free variables of class `sort` in `t` (or in a list of entities),
    without repeats, in order of first occurrence."""
    out: list = []
    _FV[type(t)](t, sort, frozenset(), set(), out)
    return out


def _build_fv(cls):
    if cls in (SkelVar, TyVar):

        def var(t, sort, bound, seen, out):
            if cls is sort and t.id not in bound and t.id not in seen:
                seen.add(t.id)
                out.append(t)

        return var
    if cls in (tuple, list):

        def many(t, sort, bound, seen, out):
            for e in t:
                _FV[type(e)](e, sort, bound, seen, out)

        return many
    sh = shape(cls)
    if sh.uses:
        use = sh.uses[0]

        def occurrence(t, sort, bound, seen, out):
            v = getattr(t, use.name)
            if use.sort is sort and v is not None and v.id not in bound and v.id not in seen:
                seen.add(v.id)
                out.append(v)

        return occurrence
    table = _FV
    kids = [(f.name, f.binders) for f in sh.kids]

    def go(t, sort, bound, seen, out):
        for name, binders in kids:
            inner = bound
            for b, b_sort in binders:
                if b_sort is sort:
                    inner = inner | {getattr(t, b).id}
            x = getattr(t, name)
            table[type(x)](x, sort, inner, seen, out)

    return go


_FV = _Table(_build_fv)


# ---------------------------------------------------------------------------
# Alpha-equality


def alpha_eq(a, b) -> bool:
    """Structural equality up to a renaming of bound variables."""
    return a == b or (type(a) is type(b) and _ALPHA[type(a)](a, b, {}))


# The alpha environment maps (variable class, id, side) to a marker shared by
# the two binders of one pair; side 0 is the left entity, side 1 the right.


def _same_var(x, y, env) -> bool:
    mx = env.get((type(x), x.id, 0))
    my = env.get((type(y), y.id, 1))
    if mx is None and my is None:
        return x.id == y.id
    return mx is my


def _build_alpha(cls):
    if cls in (SkelVar, TyVar):
        return _same_var
    if cls is tuple:
        return _alpha_many
    sh = shape(cls)
    table = _ALPHA
    steps = [
        (f.name, f.role, tuple(b for b, _ in f.binders))
        for f in sh.fields
        if f.role in (USE, TERM, TYPE, MANY) or (f.role == ATOM and f.compare)
    ]

    def go(a, b, env):
        for name, role, binders in steps:
            x = getattr(a, name)
            y = getattr(b, name)
            if role == ATOM:
                if x != y:
                    return False
            elif role == USE:
                if x is None or y is None:
                    if x is not y:
                        return False
                elif type(x) is not type(y) or not _same_var(x, y, env):
                    return False
            else:
                inner = env
                if binders:
                    inner = dict(env)
                    for bn in binders:
                        bx, by = getattr(a, bn), getattr(b, bn)
                        inner[(type(bx), bx.id, 0)] = inner[(type(by), by.id, 1)] = object()
                if type(x) is not type(y) or not table[type(x)](x, y, inner):
                    return False
        return True

    return go


def _alpha_many(xs, ys, env) -> bool:
    if len(xs) != len(ys):
        return False
    for x, y in zip(xs, ys):
        if type(x) is not type(y) or not _ALPHA[type(x)](x, y, env):
            return False
    return True


_ALPHA = _Table(_build_alpha)


# ---------------------------------------------------------------------------
# Renaming


def rename(t, f):
    """Replace every variable in `t`, bound or free, by `f(v)`.

    `f` sees the variables in traversal order: fields in declaration order,
    parents before children.
    """
    return _RENAME[type(t)](f, t)


def _build_rename(cls):
    if cls in VAR_CLASSES:
        return lambda f, t: f(t)
    sh = shape(cls)
    table = _RENAME
    steps = [(i, f.name, f.role in (BIND, USE)) for i, f in enumerate(sh.fields) if f.role != ATOM]
    names = sh.names

    def go(f, t):
        vals = None
        for i, name, is_var in steps:
            old = getattr(t, name)
            if is_var:
                new = old if old is None else f(old)
            else:
                new = table[type(old)](f, old)
            if new is not old:
                vals = _rebuild(t, names, i, new, vals)
        return t if vals is None else cls(*vals)

    return go


_RENAME = _Table(_build_rename)
_RENAME[tuple] = _tuple_map(_RENAME)


# ---------------------------------------------------------------------------
# Small-step reduction: decompose, contract, plug


class Reduction:
    """A small-step relation, given as an ordered rule list per node class.

    An entry is an evaluation position, named by a field or by a
    `(field, other, pred)` triple that takes the position only when
    `pred(node.other)` holds, or a head rule: a function from the node to its
    contractum, or None.  Decomposition tries the entries of the term's class
    in order.  A head rule that fires is a step; a position descends into its
    child, and a child that cannot step resumes its parent at the next entry.
    A class that never steps lists no entries; an unlisted class raises
    TypeError.  `result(t)` tells results from the rest, and `stuck(t)` words
    the error for a non-result that cannot step.

    Evaluation is refocused (Danvy & Nielsen, *Refocusing in Reduction
    Semantics*, BRICS RS-04-26, 2004): after a step, decomposition resumes at
    the contractum, inside the evaluation context it kept, instead of
    plugging the contractum back and starting again at the root.  A parent is
    rebuilt when decomposition pops back up to it, and the whole term only
    for a trace, the result or the stuck term.  This finds the redex a fresh
    descent from the root would find because of two conditions:

    1. in every rule list the head rules come after all evaluation
       positions, and no guard reads the field of a position at or after its
       own entry, so the entries an ancestor tried before descending read
       nothing the step changed (`_compile` raises TypeError otherwise);
    2. results never step: `result(t)` implies `step(t) is None`, so
       stopping when no redex is left at the root stops where stepping until
       a result would.
    """

    def __init__(self, rules: dict, result, stuck):
        self.rules = rules
        self.result = result
        self.stuck = stuck
        self._entries = _Table(self._compile)

    def _compile(self, cls) -> tuple:
        if cls not in self.rules:
            raise TypeError(f"no reduction rules for {cls.__name__}")
        entries = tuple(
            (e, None, None, None) if callable(e)
            else (None, e, None, None) if isinstance(e, str)
            else (None, *e)
            for e in self.rules[cls]
        )
        for j, (head, name, other, guard) in enumerate(entries):
            later = [e[1] for e in entries[j:] if e[0] is None]
            if head is not None and later:
                raise TypeError(f"{cls.__name__}: head rule before the evaluation position {later[0]!r}")
            if guard is not None and other in later:
                raise TypeError(f"{cls.__name__}: the guard of {name!r} reads the evaluation position {other!r}")
        return entries

    def _walk(self, t):
        """The decomposition loop: yields (evaluation context, contractum) at
        each step and resumes at the contractum; returns the whole term once
        no redex is left."""
        entries = self._entries
        path = None  # the evaluation context: (outer path, parent, field, next entry)
        node, rules, i = t, entries[type(t)], 0
        n = len(rules)
        while True:
            if i == n:
                if path is None:
                    return node
                path, parent, name, i = path
                if getattr(parent, name) is not node:
                    parent = replace_field(parent, name, node)
                node, rules = parent, entries[type(parent)]
                n = len(rules)
                continue
            head, name, other, guard = rules[i]
            i += 1
            if head is not None:
                out = head(node)
                if out is not None:
                    yield path, out
                    node, rules, i = out, entries[type(out)], 0
                    n = len(rules)
            elif guard is None or guard(getattr(node, other)):
                child = getattr(node, name)
                inner = entries[type(child)]
                if inner:  # a class without rules never steps: skip it
                    path = (path, node, name, i)
                    node, rules, i, n = child, inner, 0, len(inner)

    def step(self, t):
        """One step of `t`, or None when no entry fires along its evaluation
        positions."""
        found = next(self._walk(t), None)
        return None if found is None else _plug(*found)

    def positions(self, t) -> list:
        """The children of `t` in evaluation positions whose guards hold."""
        return [
            getattr(t, name)
            for head, name, other, guard in self._entries[type(t)]
            if head is None and (guard is None or guard(getattr(t, other)))
        ]

    def run(self, t, fuel: int = 100_000, keep_trace: bool = False) -> tuple:
        """Step `t` until no redex is left: (the result, the number of steps,
        every term from `t` on if `keep_trace`, else None).  Raises
        StuckTerm, carrying the whole term, when that term is not a result,
        and FuelExhausted on the step after the `fuel`-th."""
        trace = [t] if keep_trace else None
        steps = 0
        walk = self._walk(t)
        try:
            while True:
                path, out = next(walk)
                steps += 1
                if keep_trace:
                    trace.append(_plug(path, out))
                if steps > fuel:
                    raise FuelExhausted(f"evaluation exceeded {fuel} steps")
        except StopIteration as done:
            t = done.value
        if not self.result(t):
            raise StuckTerm(self.stuck(t), t)
        return t, steps, trace


def handle_op(h, op, handle, abs_):
    """The operation call `op` handled by `h`, a handler value of any
    calculus: its clause for the operation, given the argument and the
    handled rest of the computation as the continuation, or else the call
    forwarded outward.  `handle` and `abs_` build handling and abstraction
    nodes of the calculus."""
    rest = handle(h, op.body)
    clause = next((cl for cl in h.clauses if cl.op == op.op), None)
    if clause is None:
        return type(op)(op.op, op.arg, op.var, op.var_ty, rest)
    out = subst_term(op.arg, clause.param, clause.body)
    return subst_term(abs_(op.var, op.var_ty, rest), clause.kont, out)


def contractions(t, contract):
    """Every term made from `t` by contracting one redex, anywhere in it and
    under binders too, enumerated lazily: a node before its children, and
    children in field order.  `contract(node)` is the contractum of a redex
    node, or None."""
    stack = [(t, None)]
    while stack:
        node, path = stack.pop()
        out = contract(node)
        if out is not None:
            yield _plug(path, out)
        if type(node) is tuple:
            kids = [(e, (path, node, j, None)) for j, e in enumerate(node)]
        else:
            kids = [(getattr(node, f.name), (path, node, f.name, None)) for f in shape(type(node)).terms]
        stack.extend(reversed(kids))


def _plug(path, t):
    """Rebuild the nodes along `path` around `t`, innermost first."""
    while path is not None:
        path, node, slot, _ = path
        if type(node) is tuple:
            t = node[:slot] + (t,) + node[slot + 1 :]
        else:
            t = replace_field(node, slot, t)
    return t


def replace_field(node, name, t):
    """`node` with `t` in its field `name`.  No node class has a
    `__post_init__`, so copying the field dict rebuilds a frozen node
    exactly, and faster than its constructor.  The copy drops `node`'s
    summary of free term variables, which its new field may not match."""
    out = object.__new__(type(node))
    fields = out.__dict__
    fields.update(node.__dict__)
    fields[name] = t
    fields.pop(FREE, None)
    return out
