"""The environment scan that let-generalization made before it went by level.

At each let, the scan computes the type and dirt variables free in every
entry of the let's environment, with the solutions so far applied, and
generalizes the variables of the residual and of the let's type that are not
among them; `collapse` keeps those variables, and the let's type's, pinned.
Its cost grows with the environment, so `infer` tests levels instead; the
scan is kept here as the oracle that those tests agree with.
"""

from __future__ import annotations

from effc.core import DirtVar, SkelVar, SolveError, TyVar
from effc.exeff import CoVarRef, Subst
from effc.infer import SkelAnn, SubCt
from effc.traverse import free_vars


def var_keys(obj) -> set:
    """The type and dirt variables free in `obj`, as ("ty" | "dirt", id) keys."""
    return {("ty", v.id) for v in free_vars(obj, TyVar)} | {("dirt", v.id) for v in free_vars(obj, DirtVar)}


def env_keys(env: dict) -> set:
    """The variables free in an environment of (TermVar, type) entries."""
    return var_keys([t for _, t in env.values()])


def pinned(env: dict, a) -> set:
    """The variables `collapse` must keep at a let with environment `env`
    and type `a`: those free in either."""
    return env_keys(env) | var_keys(a)


def split(env: dict, Q: list, a) -> tuple:
    """`infer.split` by environment scan: the same partition, with the
    variables free in `env` in place of those at the let's level or less."""
    env_fv = env_keys(env)

    q_objs = [it.var if isinstance(it, SkelAnn) else it.constraint for it in Q]
    gen_ty = [v for v in free_vars(q_objs + [a], TyVar) if ("ty", v.id) not in env_fv]
    gen_dirt = [v for v in free_vars(q_objs + [a], DirtVar) if ("dirt", v.id) not in env_fv]
    gen_ty_ids = {v.id for v in gen_ty}

    ann: dict = {}
    skel_of_ann: dict = {}
    for it in Q:
        if isinstance(it, SkelAnn):
            ann[it.var.id] = it.skel
            if isinstance(it.skel, SkelVar):
                skel_of_ann.setdefault(it.skel.id, []).append(it.var.id)

    gen_skel = []
    seen: set = set()
    for it in Q:
        if isinstance(it, SkelAnn) and isinstance(it.skel, SkelVar) and it.skel.id not in seen:
            seen.add(it.skel.id)
            if all(aid in gen_ty_ids for aid in skel_of_ann[it.skel.id]):
                gen_skel.append(it.skel)

    ty_binders = []
    for v in gen_ty:
        if v.id not in ann:
            raise SolveError(f"generalized type variable a{v.id} lacks a skeleton annotation")
        ty_binders.append((v, ann[v.id]))

    generalized, floated, merged = [], [], Subst()
    for it in Q:
        if isinstance(it, SubCt):
            if not var_keys(it.constraint) <= env_fv:
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
