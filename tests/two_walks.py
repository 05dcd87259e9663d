"""The final substitution that compilation made before it substituted once.

After the final solve, it settled the coercion solutions and substituted
the solution into the type and the term; it found the dirt variables to
default by walking the result, solved the ground residual, settled what that
recorded, and substituted the composed defaulting into the type and the term
again.  `infer.infer_and_default` takes its dirt domain from the session and
substitutes once instead; this composition is kept here as the oracle that
it agrees with.
"""

from __future__ import annotations

from effc import infer
from effc.core import EMPTY_DIRT, SKEL_UNIT, T_BASE, DirtVar, SkelVar
from effc.exeff import Subst
from effc.infer import SkelAnn, SubCt
from effc.traverse import free_vars, substitute


def default_residual(outcome, cty, term) -> Subst:
    """The defaulting of `outcome`, whose solution `cty` and `term` have
    applied: its dirt domain is the dirt variables free in the residual, the
    type and the term."""
    session = outcome.session
    skels = {it.skel.id: SKEL_UNIT for it in outcome.residual if isinstance(it, SkelAnn) and isinstance(it.skel, SkelVar)}
    s = Subst(skel=skels)
    ty = {it.var.id: T_BASE[substitute(s, it.skel).base] for it in outcome.residual if isinstance(it, SkelAnn)}
    objs = [it.constraint for it in outcome.residual if isinstance(it, SubCt)]
    dirt_ids = {v.id for v in free_vars(objs + [cty], DirtVar)} | {v.id for v in free_vars(term, DirtVar)}
    s = Subst(skel=skels, ty=ty, dirt=dict.fromkeys(dirt_ids, EMPTY_DIRT))
    ground = [SubCt(it.co, substitute(s, it.constraint), it.span) for it in outcome.residual if isinstance(it, SubCt)]
    mark = len(session.order)
    leftover = infer.solve(session, ground)[1]
    assert not leftover, "defaulted residual constraints must solve completely"
    return s.then(session.settle(mark))


def infer_and_default(sig, comp) -> tuple:
    """(CompType, core term) by the two substitutions."""
    outcome = infer.infer_top(sig, comp)
    s = outcome.session.settle(0)
    cty, term = substitute(s, outcome.cty), substitute(s, outcome.term)
    d = default_residual(outcome, cty, term)
    return substitute(d, cty), substitute(d, term)
