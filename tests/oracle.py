"""Brute-force ground oracle for solver correctness at desk scale.

Enumerates every ground substitution over a bounded domain (operations from a
two-element set, types of depth at most two) and decides constraint-set
satisfiability by direct evaluation of the subtyping rules.  Deliberately
independent of the solver it is used to validate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from effc.core import (
    Base,
    CompType,
    Dirt,
    DirtSub,
    EffError,
    SkelArrow,
    SkelBase,
    SkelHandler,
    SkelVar,
    TArrow,
    TBase,
    THandler,
    TyVar,
    TySub,
    dirt,
)
from effc.infer import SkelAnn, SkelEq, SubCt

DEFAULT_OPS = ("Op1", "Op2")
_MAX_ASSIGNMENTS = 4_000_000


class DomainTooLarge(EffError):
    """The ground domain of a constraint set exceeds the oracle's budget."""


def ground_dirts(ops=DEFAULT_OPS) -> list:
    out = []
    for r in range(len(ops) + 1):
        for combo in itertools.combinations(ops, r):
            out.append(dirt(combo))
    return out


def ground_skeletons() -> list:
    unit = SkelBase(Base.UNIT)
    return [unit, SkelArrow(unit, unit), SkelHandler(unit, unit)]


def ground_types(ops=DEFAULT_OPS) -> list:
    """All ground value types of depth at most two over the given operations."""
    ds = ground_dirts(ops)
    out = [TBase(Base.UNIT)]
    for d in ds:
        out.append(TArrow(TBase(Base.UNIT), CompType(TBase(Base.UNIT), d)))
    for d1 in ds:
        for d2 in ds:
            out.append(
                THandler(CompType(TBase(Base.UNIT), d1), CompType(TBase(Base.UNIT), d2))
            )
    return out


def ground_skeleton_of(t) -> object:
    if isinstance(t, TBase):
        return SkelBase(t.base)
    if isinstance(t, TArrow):
        return SkelArrow(ground_skeleton_of(t.dom), ground_skeleton_of(t.cod.val))
    if isinstance(t, THandler):
        return SkelHandler(ground_skeleton_of(t.dom.val), ground_skeleton_of(t.cod.val))
    raise TypeError(t)


def ground_subtype(t1, t2) -> bool:
    """Declarative ground subtyping, by direct rule evaluation."""
    if isinstance(t1, TBase) and isinstance(t2, TBase):
        return t1.base == t2.base
    if isinstance(t1, TArrow) and isinstance(t2, TArrow):
        return ground_subtype(t2.dom, t1.dom) and ground_subcomp(t1.cod, t2.cod)
    if isinstance(t1, THandler) and isinstance(t2, THandler):
        return ground_subcomp(t2.dom, t1.dom) and ground_subcomp(t1.cod, t2.cod)
    return False


def ground_subdirt(d1: Dirt, d2: Dirt) -> bool:
    assert d1.tail is None and d2.tail is None
    return d1.ops <= d2.ops


def ground_subcomp(c1: CompType, c2: CompType) -> bool:
    return ground_subtype(c1.val, c2.val) and ground_subdirt(c1.dirt, c2.dirt)


@dataclass
class GroundAssignment:
    skel: dict
    ty: dict
    dirt: dict

    def skeleton(self, s):
        if isinstance(s, SkelVar):
            return self.skel[s.id]
        if isinstance(s, SkelBase):
            return s
        if isinstance(s, SkelArrow):
            return SkelArrow(self.skeleton(s.dom), self.skeleton(s.cod))
        if isinstance(s, SkelHandler):
            return SkelHandler(self.skeleton(s.dom), self.skeleton(s.cod))
        raise TypeError(s)

    def vty(self, t):
        if isinstance(t, TyVar):
            return self.ty[t.id]
        if isinstance(t, TBase):
            return t
        if isinstance(t, TArrow):
            return TArrow(self.vty(t.dom), self.cty(t.cod))
        if isinstance(t, THandler):
            return THandler(self.cty(t.dom), self.cty(t.cod))
        raise TypeError(t)

    def cty(self, c: CompType) -> CompType:
        return CompType(self.vty(c.val), self.dirt_of(c.dirt))

    def dirt_of(self, d: Dirt) -> Dirt:
        if d.tail is None:
            return d
        tail = self.dirt[d.tail.id]
        return Dirt(d.ops | tail.ops, None)

    def satisfies(self, item) -> bool:
        if isinstance(item, SkelEq):
            return self.skeleton(item.lhs) == self.skeleton(item.rhs)
        if isinstance(item, SkelAnn):
            return ground_skeleton_of(self.ty[item.var.id]) == self.skeleton(item.skel)
        if isinstance(item, SubCt):
            ct = item.constraint
            if isinstance(ct, TySub):
                return ground_subtype(self.vty(ct.lhs), self.vty(ct.rhs))
            if isinstance(ct, DirtSub):
                return ground_subdirt(self.dirt_of(ct.lhs), self.dirt_of(ct.rhs))
        raise TypeError(item)


def _collect_vars(items) -> tuple:
    skels: dict = {}
    tys: dict = {}
    dirts: dict = {}

    def walk_skel(s):
        if isinstance(s, SkelVar):
            skels[s.id] = s
        elif isinstance(s, (SkelArrow, SkelHandler)):
            walk_skel(s.dom)
            walk_skel(s.cod)

    def walk_dirt(d: Dirt):
        if d.tail is not None:
            dirts[d.tail.id] = d.tail

    def walk_vty(t):
        if isinstance(t, TyVar):
            tys[t.id] = t
        elif isinstance(t, TArrow):
            walk_vty(t.dom)
            walk_vty(t.cod.val)
            walk_dirt(t.cod.dirt)
        elif isinstance(t, THandler):
            for c in (t.dom, t.cod):
                walk_vty(c.val)
                walk_dirt(c.dirt)

    for item in items:
        if isinstance(item, SkelEq):
            walk_skel(item.lhs)
            walk_skel(item.rhs)
        elif isinstance(item, SkelAnn):
            tys[item.var.id] = item.var
            walk_skel(item.skel)
        elif isinstance(item, SubCt):
            ct = item.constraint
            if isinstance(ct, TySub):
                walk_vty(ct.lhs)
                walk_vty(ct.rhs)
            else:
                walk_dirt(ct.lhs)
                walk_dirt(ct.rhs)
    return skels, tys, dirts


def enumerate_assignments(items, ops=DEFAULT_OPS):
    """Yield every ground assignment for the variables of the items."""
    skels, tys, dirts = _collect_vars(items)
    sk_u = ground_skeletons()
    ty_u = ground_types(ops)
    d_u = ground_dirts(ops)
    total = (
        len(sk_u) ** len(skels) * len(ty_u) ** len(tys) * len(d_u) ** len(dirts)
    )
    if total > _MAX_ASSIGNMENTS:
        raise DomainTooLarge(f"{total} ground assignments exceed the oracle budget")
    sk_ids = sorted(skels)
    ty_ids = sorted(tys)
    d_ids = sorted(dirts)
    for sk_choice in itertools.product(sk_u, repeat=len(sk_ids)):
        for ty_choice in itertools.product(ty_u, repeat=len(ty_ids)):
            for d_choice in itertools.product(d_u, repeat=len(d_ids)):
                yield GroundAssignment(
                    dict(zip(sk_ids, sk_choice)),
                    dict(zip(ty_ids, ty_choice)),
                    dict(zip(d_ids, d_choice)),
                )


def ground_solver_oracle(items, ops=DEFAULT_OPS) -> list:
    """All ground solutions of a small constraint set, by enumeration."""
    return [g for g in enumerate_assignments(items, ops) if all(g.satisfies(it) for it in items)]
