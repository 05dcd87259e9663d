"""Constraint-based type inference with simultaneous elaboration.

Constraint generation walks the implicitly-typed source term, threading a
queue of skeleton equalities, skeleton annotations and subtyping constraints,
and producing the explicitly-typed core term as it goes.  An inference run
keeps one solution, in its `Session`, into which every solve binds and
records.  Each let solves its bound value's constraints, collapses them, and
splits the residual constraints into a generalized and a floated part; its
scheme is the value's quantified ExEff type, and its bound value takes what
the let bound and recorded.  The variables that generalize are those deeper
than the let (see `Session`), so no let scans its environment.  Generation
threads no substitution: what it built before a let, environment entries
included, may mention variables the let solved, and the session's solution is
applied where that is read: the elaborated term reads it once, after the
final solve and the defaulting, which binds into the session too.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from . import display, exeff, source
from .core import (
    CompType,
    Context,
    CoVar,
    Dirt,
    DirtSub,
    DirtVar,
    EMPTY_DIRT,
    DirtClash,
    OccursCheck,
    Signature,
    SKEL_UNIT,
    SkeletonClash,
    SkelArrow,
    SkelBase,
    SkelHandler,
    SkelVar,
    Skeleton,
    SolveError,
    Span,
    Supply,
    T_BASE,
    T_INT,
    T_UNIT,
    TArrow,
    TForallDirt,
    TForallSkel,
    TForallTy,
    THandler,
    TQual,
    TermVar,
    TyVar,
    TySub,
    UnboundVariable,
    ValueType,
    dirt_add,
    dirt_var,
    node,
    skeleton,
)
from .exeff import (
    CoComp,
    CoEmpty,
    CoOpUnion,
    CoVarRef,
    Subst,
    refl_of,
)
from .traverse import free_vars, subst_term, substitute

# ---------------------------------------------------------------------------
# Constraint items


@node
class SkelEq:
    lhs: Skeleton
    rhs: Skeleton


@node
class SkelAnn:
    var: TyVar
    skel: Skeleton


@node
class SubCt:
    co: CoVar
    constraint: object  # TySub | DirtSub
    span: Optional[Span] = field(default=None, compare=False)


def subst_item(s: Subst, item):
    # Raised, not asserted: the solver runs this on every item it pops, and
    # the checks must hold under `python -O` too.
    if isinstance(item, SkelAnn) and item.var.id in s.ty:
        raise AssertionError("annotation subject must never be substituted")
    if isinstance(item, SubCt) and item.co.id in s.co:
        raise AssertionError("pending coercion variable must never be substituted")
    return substitute(s, item)


# ---------------------------------------------------------------------------
# Inference session


# The classes of the variables that a solution of each sort can mention.
_MENTIONS = {"skel": (SkelVar,), "ty": (TyVar, DirtVar), "dirt": (DirtVar,)}


class Session:
    """One inference run: owns the supply of fresh skeleton, type, dirt and
    coercion variables (term variables are the parser's: elaboration reuses
    the source binders), the skeleton annotations, and `solved`, the one
    solution of the run, into which every solve binds and records.  Two
    invariants keep the cost of a binding independent of the work already
    done:

    1. The skeleton, type and dirt solutions are each already applied to the
       others, so no solution mentions a solved variable.  `_uses` indexes,
       per variable, the solutions that mention it: binding the variable
       rewrites those and no other.
    2. Each coercion solution is kept as recorded.  It names only coercion
       variables made in the same step, which are solved later or stay
       pending, so `settle` substitutes those recorded since a mark in one
       backward walk.  `order` lists the variables bound and recorded, in
       order; a mark is a position in it.

    `levels` gives each type and dirt variable, keyed ("ty" | "dirt", id),
    its let level: `level` when it was made, which is the number of lets
    whose bound value was then being generated.  Binding a variable lowers
    each variable of its solution to the bound variable's level.  So the
    environment of a let at level L mentions only variables at level L or
    less, and a variable of the let's residual or type is free in that
    environment exactly when its level is at most L: Kuan and MacQueen,
    *Efficient Type Inference Using Ranked Type Variables* (ML 2007).
    `generalized` holds the ids of the dirt variables a let generalized
    (`split`); its `EDirtAbs` binds each, so defaulting must not.
    """

    def __init__(self, sig: Signature):
        self.sig = sig
        self.supply = _LevelSupply()
        self.levels = self.supply.levels
        self.ann: dict = {}  # type-variable id -> current skeleton annotation
        self._ann_uses: dict = {}  # skeleton-variable id -> {type-variable id: None}
        self.solved = Subst()
        self._uses: dict = {}  # (sort, id) -> {(sort, id): None} of the solutions mentioning it
        self.order: list = []  # (sort, id) of each variable bound or recorded in `solved`
        self.let_schemes: list = []  # (name, quantified value type) in elaboration order
        self.generalized: set = set()  # ids of the dirt variables a let generalized

    @property
    def level(self) -> int:
        return self.supply.level

    @level.setter
    def level(self, level: int) -> None:
        self.supply.level = level

    def fresh_ty(self, skel: Skeleton) -> TyVar:
        v = self.supply.ty()
        self.ann[v.id] = skel
        self._index_ann(skel, v.id)
        return v

    def _index_ann(self, skel: Skeleton, vid: int) -> None:
        for sv in free_vars(skel, SkelVar):
            self._ann_uses.setdefault(sv.id, {})[vid] = None

    def bind(self, s: Subst) -> None:
        """Bind the skeleton, type and dirt variables of `s` in `solved`,
        rewrite the solutions and annotations that mention them, and lower
        the levels of the variables their solutions mention.  No variable
        the solver sees is deeper than the current level: it makes fresh
        ones there, and a let's value keeps none deeper that its own lets
        did not generalize.  So only a variable bound at a shallower level
        lowers any."""
        solved, levels = self.solved, self.levels
        for sort, mentionable in _MENTIONS.items():
            solutions = getattr(solved, sort)
            for vid, val in getattr(s, sort).items():
                if vid in solutions:
                    raise AssertionError(f"{sort} variable {vid} bound twice")
                mentioned = [(Context.SORTS[m], v.id) for m in mentionable for v in free_vars(val, m)]
                for owner, key in self._uses.pop((sort, vid), ()):
                    owned = getattr(solved, owner)
                    owned[key] = substitute(s, owned[key])
                    self._index(mentioned, owner, key)
                solutions[vid] = val
                self.order.append((sort, vid))
                self._index(mentioned, sort, vid)
                if sort != "skel" and (level := levels[sort, vid]) < self.level:
                    for m in mentioned:
                        if levels[m] > level:
                            levels[m] = level
        for sid, skel in s.skel.items():
            for vid in self._ann_uses.pop(sid, ()):
                self.ann[vid] = substitute(s, self.ann[vid])
                self._index_ann(skel, vid)

    def _index(self, mentioned, owner, key) -> None:
        for var in mentioned:
            self._uses.setdefault(var, {})[owner, key] = None

    def record(self, w: CoVar, co) -> None:
        """Keep `co` as the solution of the coercion variable `w`, as given;
        `settle` substitutes it."""
        if w.id in self.solved.co:
            raise AssertionError(f"coercion variable w{w.id} solved twice")
        self.solved.co[w.id] = co
        self.order.append(("co", w.id))

    def settle(self, mark: int) -> Subst:
        """Substitute `solved` into each coercion solution recorded since
        `mark`, latest first; returns what was bound and recorded since,
        which from mark 0 is `solved` itself."""
        since, solved = self.order[mark:], self.solved
        for sort, wid in reversed(since):
            if sort == "co":
                solved.co[wid] = substitute(solved, solved.co[wid])
        if not mark:
            return solved
        out = Subst()
        for sort, vid in since:
            getattr(out, sort)[vid] = getattr(solved, sort)[vid]
        return out

    def defaultable_dirts(self) -> list:
        """The ids of the dirt variables made and neither solved nor generalized."""
        solved, gen = self.solved.dirt, self.generalized
        return [vid for sort, vid in self.levels if sort == "dirt" and vid not in solved and vid not in gen]


class _LevelSupply(Supply):
    """The session's supply, which records in `levels` the let level of each
    type and dirt variable it makes: `level` at the time.  It holds the
    session's level, so that the two make no reference cycle and a session
    is freed as soon as it is dropped."""

    def __init__(self):
        super().__init__()
        self.level = 0
        self.levels: dict = {}

    def ty(self) -> TyVar:
        v = TyVar(self._take("ty"))
        self.levels["ty", v.id] = self.level
        return v

    def dirt(self) -> DirtVar:
        v = DirtVar(self._take("dirt"))
        self.levels["dirt", v.id] = self.level
        return v


# ---------------------------------------------------------------------------
# Generalization: split


def _keys(obj) -> list:
    """The type and dirt variables free in `obj`, as `Session.levels` keys."""
    return [("ty", v.id) for v in free_vars(obj, TyVar)] + [("dirt", v.id) for v in free_vars(obj, DirtVar)]


def split(session: Session, Q: list, a: ValueType) -> tuple:
    """Partition residual constraints for let-generalization.

    Q holds the solver's residual, skeleton annotations and subtyping
    constraints, and `a` the bound value's type, of a let at level
    `session.level`: the variables deeper than that are those not free in
    the let's environment, and they generalize.  Returns
    (skel_vars, [(ty_var, skeleton)], dirt_vars, generalized [(co, ct)],
    floated queue items, merged).  A generalized constraint equal to an
    earlier one is not a second qualifier: `merged` maps its coercion
    variable to the earlier one's, for the bound value.
    """
    level, levels = session.level, session.levels

    # An annotation's subject counts as an occurrence of its type variable.
    q_objs = [it.var if isinstance(it, SkelAnn) else it.constraint for it in Q]
    gen_ty = [v for v in free_vars(q_objs + [a], TyVar) if levels["ty", v.id] > level]
    gen_dirt = [v for v in free_vars(q_objs + [a], DirtVar) if levels["dirt", v.id] > level]
    session.generalized.update(v.id for v in gen_dirt)
    gen_ty_ids = {v.id for v in gen_ty}

    ann: dict = {}
    skel_of_ann: dict = {}
    for it in Q:
        if isinstance(it, SkelAnn):
            ann[it.var.id] = it.skel
            if isinstance(it.skel, SkelVar):
                skel_of_ann.setdefault(it.skel.id, []).append(it.var.id)

    # Skeleton variables all of whose annotated type variables generalize.
    gen_skel = []
    seen_skel: set = set()
    for it in Q:
        if isinstance(it, SkelAnn) and isinstance(it.skel, SkelVar):
            sv = it.skel
            if sv.id in seen_skel:
                continue
            seen_skel.add(sv.id)
            if all(aid in gen_ty_ids for aid in skel_of_ann[sv.id]):
                gen_skel.append(sv)

    ty_binders = []
    for v in gen_ty:
        if v.id not in ann:
            raise SolveError(f"generalized type variable a{v.id} lacks a skeleton annotation")
        ty_binders.append((v, ann[v.id]))

    generalized = []
    floated = []
    merged = Subst()
    for it in Q:
        if isinstance(it, SubCt):
            if any(levels[key] > level for key in _keys(it.constraint)):
                same = [w for w, ct in generalized if ct == it.constraint]
                if same:
                    merged.co[it.co.id] = CoVarRef(same[0])
                else:
                    generalized.append((it.co, it.constraint))
            else:
                floated.append(it)
        elif it.var.id not in gen_ty_ids:
            floated.append(it)
    return gen_skel, ty_binders, gen_dirt, generalized, floated, merged


# ---------------------------------------------------------------------------
# Generalization: collapsing variables that occur only in constraints


def _whole_var(side) -> Optional[tuple]:
    """The key of a constraint side that is a bare type or dirt variable."""
    if isinstance(side, TyVar):
        return ("ty", side.id)
    if isinstance(side, Dirt) and not side.ops and side.tail is not None:
        return ("dirt", side.tail.id)
    return None


def _collapsible(pinned, Q: list) -> Optional[tuple]:
    """The first variable that the predicate `pinned` rejects, that occurs in
    `Q` only as a whole side of subtyping constraints and has exactly one
    lower bound, or else exactly one upper bound; returns (its key, that
    bound) or None."""
    inside: set = set()
    bounds: dict = {}  # key -> ([lower bounds], [upper bounds])
    for it in Q:
        if isinstance(it, SubCt):
            ct = it.constraint
            for side, other, pos in ((ct.rhs, ct.lhs, 0), (ct.lhs, ct.rhs, 1)):
                key = _whole_var(side)
                if key is None:
                    inside.update(_keys(side))
                else:
                    bounds.setdefault(key, ([], []))[pos].append(other)
    for key, sides in bounds.items():
        if key not in inside and not pinned(key):
            for found in sides:
                if len(found) == 1 and _whole_var(found[0]) != key:
                    return key, found[0]
    return None


def collapse(session: Session, a: ValueType, Q: list) -> list:
    """Instantiate each variable that occurs only in constraints at its one bound.

    A variable deeper than the let at `session.level`, so not free in its
    environment, that does not occur in `a` and occurs in `Q` only as a
    whole side of subtyping constraints, with exactly one lower bound (or
    else exactly one upper bound) is bound to that bound in the session.
    The constraint the bound came from closes by reflexivity, recorded in
    the session, the variable's annotation goes, and each constraint that
    mentions the variable is re-solved in its place; the others are solved
    already.  The scheme generalized from the result is equivalent to the
    one generalized from `Q`, by reflexivity and transitivity of subtyping:
    the chain collapsing of Pottier,
    *Simplifying subtyping constraints: a theory* (I&C 2001).  Re-solving
    residual constraints binds no further variable, so the environment and
    `a` stay as they are.  Returns the residual items.
    """
    level, levels, in_a = session.level, session.levels, set(_keys(a))
    while (pick := _collapsible(lambda key: key in in_a or levels[key] <= level, Q)) is not None:
        (sort, vid), bound = pick
        step = Subst(**{sort: {vid: bound}})
        session.bind(step)
        rest = []
        for it in Q:
            if sort == "ty" and isinstance(it, SkelAnn) and it.var.id == vid:
                continue
            new = subst_item(step, it)
            if new is it:
                rest.append(it)  # solved already
            elif isinstance(new, SubCt) and new.constraint.lhs == new.constraint.rhs:
                session.record(new.co, refl_of(new.constraint.lhs))
            else:
                mark = len(session.order)
                rest += solve(session, [new])[1]
                if any(k != "co" for k, _ in session.order[mark:]):
                    raise AssertionError("re-solving a collapsed residual bound a variable")
        Q = rest
    return Q


# ---------------------------------------------------------------------------
# The solver


class _SolveState:
    """Mutable solver state: the processed items `P` and the queue `Q`.
    Items are brought up to date when popped, not when a variable is bound:
    a queued or processed item may mention variables solved since it was
    queued, and `pop` applies the session's solution to it.  `P` holds the
    items processed since the last binding, so they are up to date."""

    def __init__(self, session: Session, queue: list):
        self.session = session
        self.P: list = []
        self.Q = deque(queue)

    def pop(self):
        return subst_item(self.session.solved, self.Q.popleft())

    def bind(self, s: Subst) -> None:
        """Bind `s` in the session and re-enqueue the processed items."""
        self.session.bind(s)
        self.Q.extend(self.P)
        self.P = []

    def prepend(self, items) -> None:
        self.Q.extendleft(reversed(items))


def solve(session: Session, queue: list) -> tuple:
    """Process the constraint queue, binding and recording in the session's
    solution; returns (that solution, residual items).

    Queue discipline is FIFO; whenever a binding can affect already
    processed constraints, they are re-enqueued.  Items are substituted when
    popped (see `_SolveState`), and coercion solutions are kept as recorded,
    for `Session.settle`.
    """
    st = _SolveState(session, queue)
    while st.Q:
        item = st.pop()
        if isinstance(item, SkelEq):
            _solve_skel_eq(st, item)
        elif isinstance(item, SkelAnn):
            _solve_skel_ann(st, item)
        elif isinstance(item, SubCt) and isinstance(item.constraint, TySub):
            _solve_ty_sub(st, item)
        elif isinstance(item, SubCt) and isinstance(item.constraint, DirtSub):
            _solve_dirt_sub(st, item)
        else:
            raise TypeError(item)
    return session.solved, [subst_item(session.solved, it) for it in st.P]


def _occurs(v: SkelVar, s: Skeleton) -> bool:
    return v in free_vars(s, SkelVar)


def _solve_skel_eq(st: _SolveState, item: SkelEq) -> None:
    t1, t2 = item.lhs, item.rhs
    if isinstance(t1, SkelVar) and isinstance(t2, SkelVar) and t1.id == t2.id:
        return
    if isinstance(t1, SkelVar):
        if _occurs(t1, t2):
            raise OccursCheck(f"occurs check: s{t1.id} in its own instantiation", item)
        st.bind(Subst.one_skel(t1, t2))
        return
    if isinstance(t2, SkelVar):
        if _occurs(t2, t1):
            raise OccursCheck(f"occurs check: s{t2.id} in its own instantiation", item)
        st.bind(Subst.one_skel(t2, t1))
        return
    if isinstance(t1, SkelBase) and isinstance(t2, SkelBase) and t1.base == t2.base:
        return
    if isinstance(t1, SkelArrow) and isinstance(t2, SkelArrow):
        st.prepend([SkelEq(t1.dom, t2.dom), SkelEq(t1.cod, t2.cod)])
        return
    if isinstance(t1, SkelHandler) and isinstance(t2, SkelHandler):
        st.prepend([SkelEq(t1.dom, t2.dom), SkelEq(t1.cod, t2.cod)])
        return
    raise SkeletonClash(f"skeletons do not unify: {display.show(t1)} vs {display.show(t2)}", item)


def _solve_skel_ann(st: _SolveState, item: SkelAnn) -> None:
    session = st.session
    a, sk = item.var, item.skel
    if isinstance(sk, SkelVar):
        st.P.append(item)
        return
    if isinstance(sk, SkelBase):
        st.bind(Subst.one_ty(a, T_BASE[sk.base]))
        return
    if isinstance(sk, SkelArrow):
        a1 = session.fresh_ty(sk.dom)
        a2 = session.fresh_ty(sk.cod)
        d = session.supply.dirt()
        repl = TArrow(a1, CompType(a2, dirt_var(d)))
        st.bind(Subst.one_ty(a, repl))
        st.prepend([SkelAnn(a1, sk.dom), SkelAnn(a2, sk.cod)])
        return
    if isinstance(sk, SkelHandler):
        a1 = session.fresh_ty(sk.dom)
        a2 = session.fresh_ty(sk.cod)
        d1 = session.supply.dirt()
        d2 = session.supply.dirt()
        repl = THandler(CompType(a1, dirt_var(d1)), CompType(a2, dirt_var(d2)))
        st.bind(Subst.one_ty(a, repl))
        st.prepend([SkelAnn(a1, sk.dom), SkelAnn(a2, sk.cod)])
        return
    raise SolveError(f"cannot instantiate a type variable at skeleton {display.show(sk)}", item)


def _solve_ty_sub(st: _SolveState, item: SubCt) -> None:
    session = st.session
    ct: TySub = item.constraint
    a1, a2 = ct.lhs, ct.rhs
    if a1 == a2:
        session.record(item.co, refl_of(a1))
        return
    if isinstance(a1, TyVar):
        st.P.append(item)
        st.prepend([SkelEq(session.ann[a1.id], skeleton(session.ann, a2))])
        return
    if isinstance(a2, TyVar):
        st.P.append(item)
        st.prepend([SkelEq(skeleton(session.ann, a1), session.ann[a2.id])])
        return
    if isinstance(a1, TArrow) and isinstance(a2, TArrow):
        w1 = session.supply.co()
        w2 = session.supply.co()
        w3 = session.supply.co()
        session.record(item.co, exeff.CoArrow(CoVarRef(w1), CoComp(CoVarRef(w2), CoVarRef(w3))))
        st.prepend(
            [
                SubCt(w1, TySub(a2.dom, a1.dom), item.span),
                SubCt(w2, TySub(a1.cod.val, a2.cod.val), item.span),
                SubCt(w3, DirtSub(a1.cod.dirt, a2.cod.dirt), item.span),
            ]
        )
        return
    if isinstance(a1, THandler) and isinstance(a2, THandler):
        w1 = session.supply.co()
        w2 = session.supply.co()
        w3 = session.supply.co()
        w4 = session.supply.co()
        cod = CoComp(CoVarRef(w3), CoVarRef(w4))
        session.record(item.co, exeff.CoHandler(CoComp(CoVarRef(w1), CoVarRef(w2)), cod))
        st.prepend(
            [
                SubCt(w1, TySub(a2.dom.val, a1.dom.val), item.span),
                SubCt(w2, DirtSub(a2.dom.dirt, a1.dom.dirt), item.span),
                SubCt(w3, TySub(a1.cod.val, a2.cod.val), item.span),
                SubCt(w4, DirtSub(a1.cod.dirt, a2.cod.dirt), item.span),
            ]
        )
        return
    raise SkeletonClash(
        f"value types have incompatible shapes: {display.show(a1)} vs {display.show(a2)}", item, item.span
    )


def _fold_ops(ops, co):
    for op in sorted(ops, reverse=True):
        co = CoOpUnion(op, co)
    return co


def _solve_dirt_sub(st: _SolveState, item: SubCt) -> None:
    session = st.session
    ct: DirtSub = item.constraint
    d1, d2 = ct.lhs, ct.rhs
    ops1, t1 = d1.ops, d1.tail
    ops2, t2 = d2.ops, d2.tail

    if not ops1 and t1 is None:
        # The empty dirt is below everything.
        session.record(item.co, CoEmpty(d2))
        return
    if t1 is not None and t2 is not None:
        if ops1:
            fresh = session.supply.dirt()
            w2 = session.supply.co()
            s = Subst.one_dirt(t2, Dirt(ops1 - ops2, fresh))
            session.record(item.co, _fold_ops(ops1, CoVarRef(w2)))
            new = SubCt(
                w2,
                DirtSub(exeff.subst_dirt(s, dirt_var(t1)), exeff.subst_dirt(s, d2)),
                item.span,
            )
            st.bind(s)
            st.prepend([new])
            return
        st.P.append(item)
        return
    if t1 is not None and t2 is None:
        if not ops1 and not ops2:
            # A dirt variable below the empty dirt has exactly one solution.
            session.record(item.co, CoEmpty(EMPTY_DIRT))
            st.bind(Subst.one_dirt(t1, EMPTY_DIRT))
            return
        if not ops1 <= ops2:
            raise DirtClash(
                f"operations {sorted(ops1 - ops2)} cannot flow into "
                f"{{{', '.join(sorted(ops2))}}}",
                item,
                item.span,
            )
        if ops1:
            w2 = session.supply.co()
            session.record(item.co, _fold_ops(ops1, CoVarRef(w2)))
            st.P.append(SubCt(w2, DirtSub(dirt_var(t1), d2), item.span))
        else:
            st.P.append(item)
        return
    if t1 is None and t2 is None:
        if ops1 <= ops2:
            session.record(item.co, _fold_ops(ops1, CoEmpty(Dirt(ops2 - ops1))))
            return
        raise DirtClash(
            f"operations {sorted(ops1 - ops2)} cannot flow into {{{', '.join(sorted(ops2))}}}",
            item,
            item.span,
        )
    # Closed, non-empty dirt below an open dirt: partially instantiate the tail.
    fresh = session.supply.dirt()
    s = Subst.one_dirt(t2, Dirt(ops1 - ops2, fresh))
    session.record(item.co, _fold_ops(ops1, CoEmpty(Dirt(ops2 - ops1, fresh))))
    st.bind(s)


# ---------------------------------------------------------------------------
# Constraint generation with elaboration


def _env_bind(env: dict, var: TermVar, t: ValueType) -> dict:
    return {**env, var.id: (var, t)}


_QUANTIFIED = (TForallSkel, TForallTy, TForallDirt, TQual)


def gen_value(session: Session, Q: list, env: dict, v) -> tuple:
    """Returns (value type, new queue, elaborated core value)."""
    if isinstance(v, source.SrcVar):
        try:
            var, t = env[v.var.id]
        except KeyError:
            raise UnboundVariable(f"unbound variable {v.var.name}", v.span) from None
        term: exeff.Value = exeff.EVar(var)
        if not isinstance(t, _QUANTIFIED):
            return t, Q, term
        # Apply a let-bound variable to a fresh variable per quantifier and a
        # fresh coercion variable per qualifier, peeled into one substitution.
        inst = Subst()
        anns, subs = [], []
        while isinstance(t, _QUANTIFIED):
            if isinstance(t, TForallSkel):
                sv = inst.skel[t.var.id] = session.supply.skel()
                term = exeff.ESkelApp(term, sv)
            elif isinstance(t, TForallTy):
                # The fresh variable's annotation must not name a solved skeleton.
                sk = substitute(inst, substitute(session.solved, t.skel))
                tv = inst.ty[t.var.id] = session.fresh_ty(sk)
                anns.append(SkelAnn(tv, sk))
                term = exeff.ETyApp(term, tv)
            elif isinstance(t, TForallDirt):
                d = inst.dirt[t.var.id] = dirt_var(session.supply.dirt())
                term = exeff.EDirtApp(term, d)
            else:
                w = session.supply.co()
                subs.append(SubCt(w, substitute(inst, t.constraint), v.span))
                term = exeff.ECoApp(term, CoVarRef(w))
            t = t.body
        return substitute(inst, t), subs + anns + Q, term
    if isinstance(v, source.SrcUnit):
        return T_UNIT, Q, exeff.EUnit()
    if isinstance(v, source.SrcInt):
        return T_INT, Q, exeff.EInt(v.value)
    if isinstance(v, source.SrcFun):
        sv = session.supply.skel()
        a = session.fresh_ty(sv)
        cty, Q1, body = gen_comp(session, [SkelAnn(a, sv)] + Q, _env_bind(env, v.var, a), v.body)
        return TArrow(a, cty), Q1, exeff.EAbs(v.var, a, body)
    if isinstance(v, source.SrcHandler):
        return _gen_handler(session, Q, env, v)
    raise TypeError(v)


def _gen_handler(session: Session, Q: list, env: dict, v: source.SrcHandler) -> tuple:
    sup = session.supply
    sv_r = sup.skel()
    a_r = session.fresh_ty(sv_r)
    ret_cty, Qi, ret_body = gen_comp(
        session, [SkelAnn(a_r, sv_r)] + Q, _env_bind(env, v.ret_var, a_r), v.ret_body
    )

    clause_infos = []
    for cl in v.clauses:
        sig_op = session.sig.lookup(cl.op)
        sv_i = sup.skel()
        a_i = session.fresh_ty(sv_i)
        d_i = sup.dirt()
        k_ty = TArrow(sig_op.result, CompType(a_i, dirt_var(d_i)))
        env_i = _env_bind(_env_bind(env, cl.param, sig_op.param), cl.kont, k_ty)
        cl_cty, Qi, cl_body = gen_comp(session, [SkelAnn(a_i, sv_i)] + Qi, env_i, cl.body)
        clause_infos.append((cl, sig_op, a_i, d_i, cl_cty, cl_body))

    a_in = session.fresh_ty(sup.skel())
    a_out = session.fresh_ty(sup.skel())
    d_in = sup.dirt()
    d_out = sup.dirt()
    w1, w2 = sup.co(), sup.co()
    w6, w7 = sup.co(), sup.co()
    ops = frozenset(cl.op for cl in v.clauses)

    new_items = [
        SkelAnn(a_in, session.ann[a_in.id]),
        SkelAnn(a_out, session.ann[a_out.id]),
        SubCt(w1, TySub(ret_cty.val, a_out), v.span),
        SubCt(w2, DirtSub(ret_cty.dirt, dirt_var(d_out)), v.span),
    ]
    clause_terms = []
    for cl, sig_op, a_i, d_i, cl_cty, cl_body in clause_infos:
        w3 = sup.co()
        w4 = sup.co()
        w5 = sup.co()
        new_items.append(SubCt(w3, TySub(cl_cty.val, a_out), v.span))
        new_items.append(SubCt(w4, DirtSub(cl_cty.dirt, dirt_var(d_out)), v.span))
        new_items.append(
            SubCt(
                w5,
                TySub(
                    TArrow(sig_op.result, CompType(a_out, dirt_var(d_out))),
                    TArrow(sig_op.result, CompType(a_i, dirt_var(d_i))),
                ),
                v.span,
            )
        )
        # The clause's own binder names the uncast continuation: `subst_term`
        # leaves the value it inserts as it is.
        body = subst_term(exeff.ECast(exeff.EVar(cl.kont), CoVarRef(w5)), cl.kont, cl_body)
        body = exeff.CCast(body, CoComp(CoVarRef(w3), CoVarRef(w4)))
        clause_terms.append(exeff.OpClause(cl.op, cl.param, cl.kont, body))
    new_items.append(SubCt(w6, TySub(a_in, a_r), v.span))
    new_items.append(
        SubCt(w7, DirtSub(dirt_var(d_in), dirt_add(ops, dirt_var(d_out))), v.span)
    )

    ret = subst_term(exeff.ECast(exeff.EVar(v.ret_var), CoVarRef(w6)), v.ret_var, ret_body)
    ret = exeff.CCast(ret, CoComp(CoVarRef(w1), CoVarRef(w2)))

    handler = exeff.EHandler(v.ret_var, a_in, ret, tuple(clause_terms))
    cast = exeff.CoHandler(
        CoComp(refl_of(a_in), CoVarRef(w7)),
        refl_of(CompType(a_out, dirt_var(d_out))),
    )
    result = exeff.ECast(handler, cast)
    h_ty = THandler(CompType(a_in, dirt_var(d_in)), CompType(a_out, dirt_var(d_out)))
    return h_ty, new_items + Qi, result


def gen_comp(session: Session, Q: list, env: dict, c) -> tuple:
    """Returns (computation type, new queue, elaborated core term)."""
    sup = session.supply
    if isinstance(c, source.SrcApp):
        a1, Q1, v1 = gen_value(session, Q, env, c.fn)
        a2, Q2, v2 = gen_value(session, Q1, env, c.arg)
        sv = sup.skel()
        a = session.fresh_ty(sv)
        d = sup.dirt()
        w = sup.co()
        cty = CompType(a, dirt_var(d))
        items = [SkelAnn(a, sv), SubCt(w, TySub(a1, TArrow(a2, cty)), c.span)]
        return cty, items + Q2, exeff.CApp(exeff.ECast(v1, CoVarRef(w)), v2)
    if isinstance(c, source.SrcReturn):
        a, Q1, v = gen_value(session, Q, env, c.val)
        return CompType(a, EMPTY_DIRT), Q1, exeff.CReturn(v)
    if isinstance(c, source.SrcLet):
        # Solve and generalize over the bound value's own constraints only;
        # constraints inherited from the enclosing context are held aside so
        # that in-flight variables of enclosing terms can never be captured
        # by this scheme.  The value is generated and solved one level deeper.
        session.level += 1
        a, Qv, v1 = gen_value(session, [], env, c.val)
        mark = len(session.order)
        Qv = solve(session, Qv)[1]
        session.level -= 1
        a1 = substitute(session.solved, a)
        Qv = collapse(session, a1, Qv)
        gen_skel, ty_binders, gen_dirt, generalized, floated, merged = split(session, Qv, a1)
        # The scheme is the value's quantified type, and the bound value
        # abstracts over the same variables and qualifiers.  What the let
        # bound and recorded goes into the value before `merged`, whose
        # qualifier a coercion solution may name.
        scheme, bound = a1, substitute(merged, substitute(session.settle(mark), v1))
        for w, ct in reversed(generalized):
            scheme, bound = TQual(ct, scheme), exeff.ECoAbs(w, ct, bound)
        for dv in reversed(gen_dirt):
            scheme, bound = TForallDirt(dv, scheme), exeff.EDirtAbs(dv, bound)
        for tv, sk in reversed(ty_binders):
            scheme, bound = TForallTy(tv, sk, scheme), exeff.ETyAbs(tv, sk, bound)
        for sv in reversed(gen_skel):
            scheme, bound = TForallSkel(sv, scheme), exeff.ESkelAbs(sv, bound)
        session.let_schemes.append((c.var.name, scheme))
        cty, Q2, body = gen_comp(session, floated + Q, _env_bind(env, c.var, scheme), c.body)
        return cty, Q2, exeff.CLet(c.var, bound, body)
    if isinstance(c, source.SrcOpCall):
        sig_op = session.sig.lookup(c.op, c.span)
        a1, Q1, v1 = gen_value(session, Q, env, c.arg)
        cty2, Q2, body = gen_comp(session, Q1, _env_bind(env, c.var, sig_op.result), c.body)
        w = sup.co()
        # The continuation is cast so the called operation shows up in its
        # dirt, as the syntax-directed core typing rule demands.
        w_k = sup.co()
        out_dirt = dirt_add([c.op], cty2.dirt)
        items = [
            SubCt(w, TySub(a1, sig_op.param), c.span),
            SubCt(w_k, DirtSub(cty2.dirt, out_dirt), c.span),
        ]
        body = exeff.CCast(body, CoComp(refl_of(cty2.val), CoVarRef(w_k)))
        term = exeff.COp(c.op, exeff.ECast(v1, CoVarRef(w)), c.var, sig_op.result, body)
        return CompType(cty2.val, out_dirt), items + Q2, term
    if isinstance(c, source.SrcDo):
        cty1, Q1, c1 = gen_comp(session, Q, env, c.first)
        cty2, Q2, c2 = gen_comp(session, Q1, _env_bind(env, c.var, cty1.val), c.second)
        d = sup.dirt()
        w1 = sup.co()
        w2 = sup.co()
        items = [
            SubCt(w1, DirtSub(cty1.dirt, dirt_var(d)), c.span),
            SubCt(w2, DirtSub(cty2.dirt, dirt_var(d)), c.span),
        ]
        first = exeff.CCast(c1, CoComp(refl_of(cty1.val), CoVarRef(w1)))
        second = exeff.CCast(c2, CoComp(refl_of(cty2.val), CoVarRef(w2)))
        return CompType(cty2.val, dirt_var(d)), items + Q2, exeff.CDo(c.var, first, second)
    if isinstance(c, source.SrcHandle):
        a1, Q1, v1 = gen_value(session, Q, env, c.handler)
        cty2, Q2, body = gen_comp(session, Q1, env, c.body)
        al1 = session.fresh_ty(sup.skel())
        al2 = session.fresh_ty(sup.skel())
        d1 = sup.dirt()
        d2 = sup.dirt()
        w1, w2, w3 = sup.co(), sup.co(), sup.co()
        want = THandler(CompType(al1, dirt_var(d1)), CompType(al2, dirt_var(d2)))
        items = [
            SkelAnn(al1, session.ann[al1.id]),
            SkelAnn(al2, session.ann[al2.id]),
            SubCt(w1, TySub(a1, want), c.span),
            SubCt(w2, TySub(cty2.val, al1), c.span),
            SubCt(w3, DirtSub(cty2.dirt, dirt_var(d1)), c.span),
        ]
        term = exeff.CHandle(
            exeff.ECast(v1, CoVarRef(w1)),
            exeff.CCast(body, CoComp(CoVarRef(w2), CoVarRef(w3))),
        )
        return CompType(al2, dirt_var(d2)), items + Q2, term
    raise TypeError(c)


# ---------------------------------------------------------------------------
# Top-level driver: inference, then defaulting of residual constraints


@dataclass
class InferOutcome:
    """One inference as the final solve leaves it: `cty` has the session's
    solution applied, `term` is as generated."""

    cty: CompType
    residual: list
    term: exeff.Comp
    session: Session
    generated: list  # constraint queue as handed to the final solve

    @property
    def subst(self) -> Subst:
        """The session's solution, settled: before defaulting, the final solve's."""
        return self.session.settle(0)


def infer_top(sig: Signature, comp) -> InferOutcome:
    """Infer a type for the main computation and elaborate it."""
    session = Session(sig)
    cty, Q, term = gen_comp(session, [], {}, comp)
    generated = [subst_item(session.solved, it) for it in Q]
    residual = solve(session, generated)[1]
    return InferOutcome(substitute(session.solved, cty), residual, term, session, generated)


def default_residual(outcome: InferOutcome) -> Subst:
    """Bind, in the outcome's session, free skeleton variables to Unit, free
    type variables to the base type of their skeletons and the session's
    defaultable dirt variables to the empty dirt; then solve the residual
    subtyping constraints, ground now: call it once per outcome.  Returns the
    defaults.  The solver instantiates an annotation at an arrow or handler
    skeleton at once, so a residual one names a variable, set to Unit here."""
    session = outcome.session
    residual = outcome.residual
    skels = Subst(skel={it.skel.id: SKEL_UNIT for it in residual if isinstance(it, SkelAnn) and isinstance(it.skel, SkelVar)})
    ty = {it.var.id: T_BASE[substitute(skels, it.skel).base] for it in residual if isinstance(it, SkelAnn)}
    d = Subst(skels.skel, ty, dict.fromkeys(session.defaultable_dirts(), EMPTY_DIRT))
    session.bind(d)
    leftover = solve(session, [it for it in residual if isinstance(it, SubCt)])[1]
    if leftover:
        raise AssertionError("defaulted residual constraints must solve completely")
    return d


def infer_and_default(sig: Signature, comp) -> tuple:
    """Infer, ground all residual variables, settle the coercion solutions
    and substitute the solution into the type and the term; returns
    (CompType, core term, outcome)."""
    outcome = infer_top(sig, comp)
    default_residual(outcome)
    s = outcome.session.settle(0)
    return substitute(s, outcome.cty), substitute(s, outcome.term), outcome
