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

`summarize` records on every term node of a compiled term its free
variables of every sort, type-level children folded in, as one int; type
nodes carry none.  Term substitution, and the single-variable substitution
of a type application, return a node whose summary lacks their variable
without walking it.  A summary depends on the node alone, so it stays exact
wherever the node is shared or moved.  Evaluation's substitutions rebuild
the nodes above each occurrence, and each such node built from a
summarized one gets its summary in O(1): the old one minus the variable,
plus the replacement's.  That is exact because the variable occurs in a
node that is rebuilt, and binder ids are unique, so nothing captures the
replacement; a dropped cast can take variables out of the term, so a
substitution that drops one gives no summary to the nodes it rebuilds
around it.  `replace_field` drops the summary from the node it copies, and
nodes built any other way (head rules, plugging) have none.

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
from operator import attrgetter, is_

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
        # All field values as a tuple, in one C call.
        self.values = attrgetter(*self.names) if len(fields) > 1 else lambda t: (getattr(t, self.names[0]),)
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


def _rebuild(t, values, i, new, vals):
    """`vals`, or the field values of `t` (read by `values`, a shape's
    getter) when None, with `new` in field `i`."""
    if vals is None:
        vals = list(values(t))
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


def instantiate(s, t):
    """`substitute(s, t)` for a substitution `s` of one variable, as a type
    application's beta step builds it, which skips every term child whose
    summary (see `summarize`) lacks the variable and gives each term node
    it rebuilds from a summarized one the summary `(S(t) - variable) |
    S(replacement)`.  Besides its one map entry, `s` carries the variable's
    bit (`mask`), that bit's complement (`keep`), the summary bits of the
    replacement (`rvars`) and a count of the casts it has dropped (`drops`).
    """
    free = getattr(t, FREE, None)
    if free is not None and not free & s.mask:
        return t
    return _SUBST_ONE[type(t)](s, free, t)


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
    _SUBST_ONE.pop(cls, None)


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
    names, values = sh.names, sh.values
    is_identity = _CASTS.get(cls)

    def go(s, t):
        vals = None
        for i, name in kids:
            old = getattr(t, name)
            new = table[type(old)](s, old)
            if new is not old:
                vals = _rebuild(t, values, i, new, vals)
        if vals is None:
            return t
        if is_identity is not None and vals[1] is not getattr(t, names[1]) and is_identity(vals[1]):
            return vals[0]
        return cls(*vals)

    return go


def _build_subst_one(cls):
    """The walker of `instantiate`, given the summary the caller read from
    the node: a term class's skips and carries summaries; any other class's
    is `_SUBST`'s, so type-level walks pay for no summary check."""
    sh = shape(cls)
    if not sh.terms:
        fn = _SUBST[cls]
        return lambda s, free, t: fn(s, t)
    table, types = _SUBST_ONE, _SUBST
    kids = [(sh.names.index(f.name), f.name, f.role != TYPE) for f in sh.kids]
    names, values = sh.names, sh.values
    is_identity = _CASTS.get(cls)

    def go(s, free, t):
        mask = s.mask
        drops = s.drops
        vals = None
        for i, name, term in kids:
            old = getattr(t, name)
            if term:
                inner = getattr(old, FREE, None)
                if inner is not None and not inner & mask:
                    continue
                new = table[type(old)](s, inner, old)
            else:
                new = types[type(old)](s, old)
            if new is not old:
                vals = _rebuild(t, values, i, new, vals)
        if vals is None:
            return t
        if is_identity is not None and vals[1] is not getattr(t, names[1]) and is_identity(vals[1]):
            # The dropped coercion's variables may leave the term, so no
            # node rebuilt around it can tell its summary in O(1).
            s.drops = drops + 1
            return vals[0]
        out = cls(*vals)
        if free is not None and s.drops == drops:
            _set(out, FREE, free & s.keep | s.rvars)
        return out

    return go


def _subst_one_many(s, free, t):
    items = []
    for e in t:
        inner = getattr(e, FREE, None)
        if inner is None or inner & s.mask:
            e = _SUBST_ONE[type(e)](s, inner, e)
        items.append(e)
    return t if all(map(is_, items, t)) else tuple(items)


_SUBST = _Table(_build_subst)
_SUBST[tuple] = _tuple_map(_SUBST)
_SUBST_ONE = _Table(_build_subst_one)
_SUBST_ONE[tuple] = _subst_one_many
_CASTS: dict = {}  # cast class -> the test of `cast_hook`


# ---------------------------------------------------------------------------
# Summaries of free variables

FREE = "free"  # the attribute that holds a term node's summary
_set = object.__setattr__  # nodes are frozen; the summary is not a field

# A variable's bit in a summary is bit `id << 3 | sort`: ids are dense per
# sort, so the sorts interleave in one int.
SORTS = {TermVar: 0, SkelVar: 1, TyVar: 2, DirtVar: 3, CoVar: 4}


def var_bit(v) -> int:
    """The bit of the variable `v` in a summary."""
    return 1 << (v.id << 3 | SORTS[type(v)])


def summarize(t) -> int:
    """Record on `t` and on every term node under it the node's free
    variables of every sort, as an int bit set (see `var_bit`), in the
    attribute `FREE`; returns `t`'s.  Type-level children (skeletons, types,
    dirts, constraints, coercions) are folded into their term node's summary
    and carry none themselves.  A node that has a summary keeps it, so a
    shared node is summarized once.  An int is not tracked by the cyclic
    collector, and every empty summary is the one cached 0."""
    return _SUMMARY[type(t)](t)


def type_bits(t) -> int:
    """The free variables of the type-level entity `t`, as a summary's bits,
    found by a walk (type-level nodes carry no summary)."""
    return _BITS[type(t)](t)


def _kids(sh: Shape) -> list:
    """(name, table, binders) of each child of a term class: the summary
    table for a term child, the bits table for a type-level one, and the
    (field, sort) of each binder whose scope the child is."""
    return [
        (f.name, _BITS if f.role == TYPE else _SUMMARY, tuple((b, SORTS[sort]) for b, sort in f.binders))
        for f in sh.kids
    ]


def _build_summary(cls):
    sh = shape(cls)
    if sh.uses:
        name, sort = sh.uses[0].name, SORTS[sh.uses[0].sort]

        def occurrence(t):
            free = getattr(t, FREE, None)
            if free is None:
                free = 1 << (getattr(t, name).id << 3 | sort)
                _set(t, FREE, free)
            return free

        return occurrence
    kids = _kids(sh)

    def go(t):
        free = getattr(t, FREE, None)
        if free is not None:
            return free
        free = 0
        for name, table, binders in kids:
            x = getattr(t, name)
            inner = table[type(x)](x)
            for b, sort in binders:
                bit = 1 << (getattr(t, b).id << 3 | sort)
                if inner & bit:
                    inner ^= bit
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


def _build_bits(cls):
    if cls in (SkelVar, TyVar):
        sort = SORTS[cls]
        return lambda t: 1 << (t.id << 3 | sort)
    sh = shape(cls)
    if sh.uses:
        name, sort = sh.uses[0].name, SORTS[sh.uses[0].sort]

        def occurrence(t):
            v = getattr(t, name)
            return 0 if v is None else 1 << (v.id << 3 | sort)

        return occurrence
    kids = _kids(sh)

    def go(t):
        free = 0
        for name, table, binders in kids:
            x = getattr(t, name)
            inner = table[type(x)](x)
            for b, sort in binders:
                bit = 1 << (getattr(t, b).id << 3 | sort)
                if inner & bit:
                    inner ^= bit
            if inner:
                free = free | inner if free else inner
        return free

    return go


_SUMMARY = _Table(_build_summary)
_SUMMARY[tuple] = _summarize_many
_BITS = _Table(_build_bits)


# ---------------------------------------------------------------------------
# Substitution of a value for a term variable


def subst_term(value, var: TermVar, subject):
    """Substitute `value` for the free occurrences of the term variable `var`.
    A node whose summary (see `summarize`) lacks `var` is returned as it is,
    without a walk.  When `value` has a summary, each node rebuilt from a
    summarized one gets the summary `(S(node) - var) | S(value)`."""
    bit = 1 << (var.id << 3)  # `var_bit(var)`: term variables are sort 0
    free = getattr(subject, FREE, None)
    if free is not None and not free & bit:
        return subject
    return _TSUBST[type(subject)](value, var.id, bit, getattr(value, FREE, None), free, subject)


def _build_subst_term(cls):
    # Each function takes the summary its caller read from the node.
    sh = shape(cls)
    if sh.uses and sh.uses[0].sort is TermVar:
        name = sh.uses[0].name
        return lambda v, vid, bit, sv, free, t: v if getattr(t, name).id == vid else t
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
    values = sh.values

    def go(v, vid, bit, sv, free, t):
        vals = None
        for i, name, binders in kids:
            old = getattr(t, name)
            inner = getattr(old, FREE, None)
            if inner is not None and not inner & bit:
                continue
            if binders and any(getattr(t, b).id == vid for b in binders):
                continue
            new = table[type(old)](v, vid, bit, sv, inner, old)
            if new is not old:
                vals = _rebuild(t, values, i, new, vals)
        if vals is None:
            return t
        out = cls(*vals)
        if sv is not None and free is not None:
            # `t` was rebuilt, so `var` is free in it.
            _set(out, FREE, free ^ bit | sv if sv else free ^ bit)
        return out

    return go


def _subst_term_many(v, vid, bit, sv, free, t):
    items = []
    for e in t:
        inner = getattr(e, FREE, None)
        if inner is None or inner & bit:
            e = _TSUBST[type(e)](v, vid, bit, sv, inner, e)
        items.append(e)
    return t if all(map(is_, items, t)) else tuple(items)


_TSUBST = _Table(_build_subst_term)
_TSUBST[tuple] = _subst_term_many


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
    names, values = sh.names, sh.values

    def go(f, t):
        vals = None
        for i, name, is_var in steps:
            old = getattr(t, name)
            if is_var:
                new = old if old is None else f(old)
            else:
                new = table[type(old)](f, old)
            if new is not old:
                vals = _rebuild(t, values, i, new, vals)
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
    summary of free variables, which its new field may not match."""
    out = object.__new__(type(node))
    fields = out.__dict__
    fields.update(node.__dict__)
    fields[name] = t
    fields.pop(FREE, None)
    return out
