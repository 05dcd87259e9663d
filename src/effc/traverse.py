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
changed.  The walkers of substitution, term substitution and renaming are
straight-line code generated from the class's shape (`_walker`): they read
each child by attribute, and call the constructor with every field.
Substitution returns a cast's subject in place of the cast when it turns
the cast's coercion into an identity (`cast_hook`).

`summarize` records on every term node of a compiled term its free
variables of every sort, type-level children folded in, as one int; type
nodes carry none.  One walk per class finds a node's summary from its
children's: a term child's is read back, or found and recorded on the child;
a type-level child's is found and kept nowhere; a tuple's elements are term
children.  `summarize` records the root's, and `type_bits` is the same walk
on a type-level entity.  Term substitution, and the single-variable
substitution of a type application, return a node whose summary lacks their
variable without walking it.  A summary depends on the node alone, so it stays exact
wherever the node is shared or moved.  Evaluation's substitutions rebuild
the nodes above each occurrence, and each such node built from a
summarized one gets its summary in O(1): the old one minus the variable,
plus the replacement's.  That is exact because the variable occurs in a
node that is rebuilt, and binder ids are unique, so nothing captures the
replacement; a dropped cast can take variables out of the term, so a
substitution that drops one gives no summary to the nodes it rebuilds
around it.  `replace_field` drops the summary from the node it copies, and
nodes built any other way (head rules, plugging) have none.

A term node whose summary is 0 is closed: no variable of any sort is free
in it, so its type depends only on the operation signature and its erasure
on nothing outside it.  The ExEff checkers and the SkelEff erasure keep both
on such a node (`Closed`, attribute `CLOSED`), and `replace_field` drops
them with the summary.  Nodes are never changed once built (`core.node`;
the test suite guards every node class against field stores) and every
rebuilt node is a new object, so what a node keeps never goes stale.  An
open node keeps nothing, since one node object can sit under binders that
give its free variables different types.

The small-step semantics of ExEff, SkelEff and NoEff are `Reduction`s: one
ordered rule list per node class, interpreted by one decomposition loop that
keeps its evaluation context on an explicit stack and contracts up to a step
limit: `run`'s fuel, or 0 for `step` and `rule`.  Evaluation is refocused:
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
    "Skeleton", "ValueType", "CompType", "Dirt", "SimpleConstraint",
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


def _walker(cls, op: str, params: str, body: list, **env):
    """The walker of the operation `op` for `cls` nodes: a function of
    `params` whose body is the straight-line code `body`, generated once per
    class, with `cls` and `env` in its global scope.  Walkers bind each
    field's old value to `o<i>` and its new one to `n<i>`, where `i` is the
    field's index in the class."""
    src = f"def {op}({params}):\n" + "".join(f"    {line}\n" for line in body)
    scope = {"cls": cls, **env}
    exec(compile(src, f"<{op} of {cls.__name__}>", "exec"), scope)
    return scope[op]


def _unless_changed(sh: Shape, walked: list) -> list:
    """The lines that return the walked node `t` when none of the fields
    `walked` (indices) changed, and otherwise build the rebuilt node `out`
    from every field: the new value of a walked one, `t`'s own of the rest."""
    args = ", ".join(f"n{i}" if i in walked else f"t.{name}" for i, name in enumerate(sh.names))
    same = " and ".join(f"n{i} is o{i}" for i in walked)
    return [f"if {same}: return t", f"out = cls({args})"]


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
    if not sh.kids:
        return _unchanged
    body, walked = [], []
    for f in sh.kids:
        i = sh.names.index(f.name)
        walked.append(i)
        body += [f"o{i} = t.{f.name}", f"n{i} = table[type(o{i})](s, o{i})"]
    body += _unless_changed(sh, walked)
    is_identity = _CASTS.get(cls)
    if is_identity is not None:
        body.insert(-1, "if n1 is not o1 and is_identity(n1): return n0")
    body.append("return out")
    return _walker(cls, "subst", "s, t", body, table=_SUBST, is_identity=is_identity)


def _build_subst_one(cls):
    """The walker of `instantiate`, given the summary the caller read from
    the node: a term class's skips and carries summaries; any other class's
    is `_SUBST`'s, so type-level walks pay for no summary check."""
    sh = shape(cls)
    if not sh.terms:
        fn = _SUBST[cls]
        return lambda s, free, t: fn(s, t)
    body, walked = ["mask = s.mask", "drops = s.drops"], []
    for f in sh.kids:
        i = sh.names.index(f.name)
        walked.append(i)
        body.append(f"o{i} = t.{f.name}")
        if f.role == TYPE:
            body.append(f"n{i} = types[type(o{i})](s, o{i})")
        elif f.role == MANY:  # a tuple has no summary
            body.append(f"n{i} = table[type(o{i})](s, None, o{i})")
        else:
            body += [
                f"inner = getattr(o{i}, FREE, None)",
                f"n{i} = o{i} if inner is not None and not inner & mask else table[type(o{i})](s, inner, o{i})",
            ]
    body += _unless_changed(sh, walked)
    is_identity = _CASTS.get(cls)
    if is_identity is not None:
        # The dropped coercion's variables may leave the term, so no node
        # rebuilt around it can tell its summary in O(1).
        body.insert(-1, "if n1 is not o1 and is_identity(n1): s.drops = drops + 1; return n0")
    body += ["if free is not None and s.drops == drops: _set(out, FREE, free & s.keep | s.rvars)", "return out"]
    return _walker(
        cls, "subst_one", "s, free, t", body,
        table=_SUBST_ONE, types=_SUBST, is_identity=is_identity, FREE=FREE, _set=_set,
    )


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
_set = object.__setattr__  # the summary is not a field; this passes the tests' guard
CLOSED = "closed"  # the attribute that holds a closed term node's `Closed`


class Closed:
    """What the checker and the erasure found for a closed term node, one
    whose summary is 0: no variable of any sort is free in it, so every
    context gives it one type per signature and every type substitution one
    erasure.  `ty` is its type under the signature `sig`, `erased` its
    erasure; each is None until first found.  Only a node that has its
    summary gets one, after it, so the attributes of a node class are set
    in one order."""

    __slots__ = ("sig", "ty", "erased")

    def __init__(self, sig, ty, erased):
        self.sig, self.ty, self.erased = sig, ty, erased

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
    free = getattr(t, FREE, None)
    if free is None:
        free = _FREE_OF[type(t)](t)
        _set(t, FREE, free)
    return free


def type_bits(t) -> int:
    """The free variables of the type-level entity `t`, as a summary's bits,
    found by `summarize`'s walk (type-level nodes carry no summary)."""
    return _FREE_OF[type(t)](t)


def _build_free_of(cls):
    """The walk that finds a `cls` node's summary from its children and
    records none on the node itself: a term child's summary is read back, or
    found and recorded on it; a type-level child's is found and kept nowhere;
    a tuple's elements are term children."""
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
    kids = [(f.name, f.role == TERM, tuple((b, SORTS[sort]) for b, sort in f.binders)) for f in sh.kids]

    def go(t):
        free = 0
        for name, term, binders in kids:
            x = getattr(t, name)
            if not term:
                inner = _FREE_OF[type(x)](x)
            elif (inner := getattr(x, FREE, None)) is None:
                inner = _FREE_OF[type(x)](x)
                _set(x, FREE, inner)
            for b, sort in binders:
                bit = 1 << (getattr(t, b).id << 3 | sort)
                if inner & bit:
                    inner ^= bit
            if inner:
                free = free | inner if free else inner
        return free

    return go


def _free_of_many(t):
    free = 0
    for e in t:
        inner = getattr(e, FREE, None)
        if inner is None:
            inner = _FREE_OF[type(e)](e)
            _set(e, FREE, inner)
        if inner:
            free = free | inner if free else inner
    return free


_FREE_OF = _Table(_build_free_of)
_FREE_OF[tuple] = _free_of_many


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
    kids = [f for f in sh.kids if f.role in (TERM, MANY)]
    if not kids:
        return _unchanged
    body, walked = [], []
    for f in kids:
        i = sh.names.index(f.name)
        walked.append(i)
        body.append(f"o{i} = t.{f.name}")
        # A child is walked when its summary has the variable, or it has
        # none (a tuple never has one), and no term binder over it shadows
        # the variable: skeleton, type, dirt and coercion ids come from
        # counters of their own and may equal a term variable's id.
        if f.role == MANY:
            inner, tests = "None", []
        else:
            body.append(f"inner = getattr(o{i}, FREE, None)")
            inner, tests = "inner", ["(inner is None or inner & bit)"]
        tests += [f"t.{b}.id != vid" for b, sort in f.binders if sort is TermVar]
        call = f"table[type(o{i})](v, vid, bit, sv, {inner}, o{i})"
        body.append(f"n{i} = {call} if {' and '.join(tests)} else o{i}" if tests else f"n{i} = {call}")
    body += _unless_changed(sh, walked)
    # `t` was rebuilt, so `var` is free in it.
    body += ["if sv is not None and free is not None: _set(out, FREE, free ^ bit | sv if sv else free ^ bit)"]
    body.append("return out")
    return _walker(cls, "subst_term", "v, vid, bit, sv, free, t", body, table=_TSUBST, FREE=FREE, _set=_set)


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


def free_vars(t, sort) -> list:
    """Free variables of class `sort` in `t` (or in a list of entities),
    without repeats, in order of first occurrence.  Given a tuple of classes,
    one walk finds the variables of all of them, in order of first occurrence
    across the sorts.  Bound and seen variables are keyed by their summary
    bit index (see `var_bit`), as ids are per-sort counters."""
    out: list = []
    _FV[type(t)](t, sort if type(sort) is tuple else (sort,), frozenset(), set(), out)
    return out


def _build_fv(cls):
    if cls in (tuple, list):

        def many(t, sorts, bound, seen, out):
            for e in t:
                _FV[type(e)](e, sorts, bound, seen, out)

        return many
    sh = None if cls in (SkelVar, TyVar) else shape(cls)
    if sh is None or sh.uses:
        name, vcls = ("", cls) if sh is None else (sh.uses[0].name, sh.uses[0].sort)
        sort = SORTS[vcls]

        def occurrence(t, sorts, bound, seen, out):
            v = getattr(t, name) if name else t
            if vcls in sorts and v is not None and (key := v.id << 3 | sort) not in bound and key not in seen:
                seen.add(key)
                out.append(v)

        return occurrence
    kids = [(f.name, tuple((b, b_cls, SORTS[b_cls]) for b, b_cls in f.binders)) for f in sh.kids]

    def go(t, sorts, bound, seen, out):
        for name, binders in kids:
            inner = bound
            for b, b_cls, sort in binders:
                if b_cls in sorts:
                    inner = inner | {getattr(t, b).id << 3 | sort}
            x = getattr(t, name)
            _FV[type(x)](x, sorts, inner, seen, out)

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
    body, walked = [], []
    for i, fd in enumerate(sh.fields):
        if fd.role == ATOM:
            continue
        walked.append(i)
        body.append(f"o{i} = t.{fd.name}")
        if fd.role in (BIND, USE):
            body.append(f"n{i} = o{i} if o{i} is None else f(o{i})")
        else:
            body.append(f"n{i} = table[type(o{i})](f, o{i})")
    if not walked:
        return _unchanged
    return _walker(cls, "rename", "f, t", body + _unless_changed(sh, walked) + ["return out"], table=_RENAME)


_RENAME = _Table(_build_rename)
_RENAME[tuple] = _tuple_map(_RENAME)


# ---------------------------------------------------------------------------
# Small-step reduction: decompose, contract, plug

_NO_REDEX = object()  # `Reduction._reduce`'s context once no redex is left; None is a redex at the root


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
    the error for a non-result that cannot step.  One loop, `_reduce`,
    serves `run`, `step` and `rule`, and returns the redex it stops at.

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

    def _reduce(self, t, limit: int, trace):
        """The decomposition loop: contracts at most `limit` redexes, resumes
        at each contractum, and appends each whole term to `trace` if given.
        Returns (steps, evaluation context, contractum) of the next redex, or
        (steps, `_NO_REDEX`, the whole term) once no redex is left."""
        entries = self._entries
        path = None  # the evaluation context: (outer path, parent, field, next entry)
        node, rules, i = t, entries[type(t)], 0
        n = len(rules)
        steps = 0
        while True:
            if i == n:
                if path is None:
                    return steps, _NO_REDEX, node
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
                    if steps >= limit:
                        return steps, path, out
                    steps += 1
                    if trace is not None:
                        trace.append(_plug(path, out))
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
        _, path, out = self._reduce(t, 0, None)
        return None if path is _NO_REDEX else _plug(path, out)

    def rule(self, t):
        """"Class: rule" of the redex that `step(t)` contracts and the head
        rule that fires on it (the first that does), or None: for reports,
        so that `step` and `run` pay nothing for it."""
        _, path, _ = self._reduce(t, 0, None)
        if path is _NO_REDEX:
            return None
        redex = t if path is None else getattr(path[1], path[2])
        head = next(e[0] for e in self._entries[type(redex)] if e[0] is not None and e[0](redex) is not None)
        return f"{type(redex).__name__}: {head.__name__}"

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
        and FuelExhausted when a redex is left after `fuel` steps."""
        trace = [t] if keep_trace else None
        steps, path, t = self._reduce(t, fuel, trace)
        if path is not _NO_REDEX:
            raise FuelExhausted(f"evaluation exceeded {fuel} steps")
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
    """`node` with `t` in its field `name`, a new node: `node` itself is
    never changed.  No node class has a `__post_init__`, so copying the
    field dict rebuilds a node exactly.  The copy drops `node`'s summary of
    free variables and its `Closed`, which its new field may not match."""
    out = object.__new__(type(node))
    fields = out.__dict__
    fields.update(node.__dict__)
    fields[name] = t
    if fields.pop(FREE, None) is not None:
        fields.pop(CLOSED, None)
    return out
