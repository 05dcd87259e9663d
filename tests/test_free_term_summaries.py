"""Summaries of free variables: `pipeline.compile_text` records on every term
node of its three terms the node's free variables of every sort (term,
skeleton, type, dirt and coercion), one bit per variable, and both
substitutions skip each node whose summary lacks their variable.  Term
substitution and single-variable type-level substitution also carry a
summary onto each node they rebuild from a summarized one."""

import subprocess
import sys

import pytest

from effc import exeff, noeff, pipeline, skeleff, traverse
from effc.core import (
    Base,
    CompType,
    CoVar,
    DirtVar,
    EMPTY_DIRT,
    SKEL_UNIT,
    SkelVar,
    StuckTerm,
    T_UNIT,
    TArrow,
    TermVar,
    TForallTy,
    TyVar,
    TySub,
    dirt_var,
)
from conftest import CORPUS, subprocess_env
from gen_helpers import program_texts
from test_solver import handler_chain, let_poly

# Per backend: the artefact field holding its term, its reduction, and its
# `do` class, which binds `var` over `second`.
BACKENDS = {
    "exeff": ("exeff_term", exeff.REDUCTION, exeff.CDo),
    "skeleff": ("skeleff_term", skeleff.REDUCTION, exeff.CDo),
    "noeff": ("noeff_term", noeff.REDUCTION, exeff.CDo),
}
SORTS = (TermVar, SkelVar, TyVar, DirtVar, CoVar)
TERM_BITS = sum(1 << (i << 3) for i in range(4096))  # the term-sort bits of ids below 4096
LET_POLY = [(f"let-poly({n})", let_poly(n)) for n in range(2, 13)]
# A let-bound handler, generalized, so that type application substitutes
# into its clauses.
POLY_HANDLER = (
    "effect Tick : Unit -> Unit\n"
    "let h = handler { return x -> return x, Tick p k -> k p } in\n"
    "do a <- with h handle (do u <- Tick unit in return u) in with h handle return 5\n"
)


def nodes(*roots):
    """Every node of term syntax in or under `roots`, each distinct one once."""
    seen, todo = set(), list(roots)
    while todo:
        u = todo.pop()
        if id(u) in seen:
            continue
        seen.add(id(u))
        if type(u) is tuple:
            todo.extend(u)
        else:
            yield u
            todo.extend(kids(u))


def kids(u) -> list:
    return [getattr(u, f.name) for f in traverse.shape(type(u)).terms]


def summary(u):
    return getattr(u, traverse.FREE, None)


def free_bits(u) -> int:
    """The free variables of every sort of `u`, found by a walk, as a
    summary's bit set."""
    return sum(traverse.var_bit(v) for sort in SORTS for v in traverse.free_vars(u, sort))


def strip(t) -> None:
    for u in nodes(t):
        u.__dict__.pop(traverse.FREE, None)


def outcome(reduction, t):
    """The whole reduction sequence of `t`, or the stuck term it ends in."""
    try:
        return reduction.run(t, keep_trace=True)[2]
    except StuckTerm as e:
        return "stuck", e.term


def binders(u):
    """(variable, scope) of each binder of the node `u`."""
    for f in traverse.shape(type(u)).fields:
        for name, _ in f.binders:
            yield getattr(u, name), getattr(u, f.name)


def children(u):
    """The term children of `u`, with tuples of children spread out."""
    for k in kids(u):
        yield from k if type(k) is tuple else (k,)


def innermost(scope, bit):
    """A node under `scope` whose summary has `bit` while none of its term
    children's does: the variable occurs in the node itself or in one of
    its type-level children."""
    return next(w for w in nodes(scope) if summary(w) & bit and not any(summary(k) & bit for k in children(w)))


@pytest.fixture(scope="module")
def compiled(corpus_paths):
    """(name, artefacts) of the corpus, 360 generated programs,
    let-poly(2..12) and a polymorphic handler."""
    texts = [*program_texts(corpus_paths, 360), *LET_POLY, ("poly-handler", POLY_HANDLER)]
    return [(name, pipeline.compile_text(text, "noeff")) for name, text in texts]


def test_every_term_node_records_its_free_term_variables(compiled):
    checked = free = typed = 0
    for name, art in compiled:
        for backend, (field, _, _) in BACKENDS.items():
            for u in nodes(getattr(art, field)):
                got = summary(u)
                assert got is not None and got == free_bits(u), (name, backend, u)
                checked += 1
                free += got != 0
                typed += (got & ~TERM_BITS) != 0
    assert checked > 12_000 and free > checked // 3 and typed > checked // 10


TYPE_LEVEL = (traverse.TYPE, traverse.BIND, traverse.USE)  # the fields of a term node that are not terms


def type_level_nodes(art):
    """Every skeleton, type, dirt, constraint, coercion and variable
    reachable from the artefacts `art`, each distinct one once."""
    seen, todo = set(), [art.cty]
    for field, _, _ in BACKENDS.values():
        for u in nodes(getattr(art, field)):
            todo += [getattr(u, f.name) for f in traverse.shape(type(u)).fields if f.role in TYPE_LEVEL]
    while todo:
        u = todo.pop()
        if u is None or id(u) in seen:
            continue
        seen.add(id(u))
        yield u
        todo += [getattr(u, f.name) for f in traverse.shape(type(u)).fields if f.role != traverse.ATOM]


def test_the_summary_walk_records_nothing_on_type_level_nodes(compiled):
    # The walk finds a type-level child's summary and keeps it nowhere:
    # the parent term node keeps the fold.
    checked = 0
    for name, art in compiled:
        for u in type_level_nodes(art):
            assert summary(u) is None, (name, u)
            checked += 1
    assert checked > 10_000


def test_each_single_substitution_has_the_free_variables_of_its_replacement(compiled, monkeypatch):
    built = []
    right = exeff.Single.__init__

    def init(self, v, repl):
        right(self, v, repl)
        built.append((self, repl))

    monkeypatch.setattr(exeff.Single, "__init__", init)
    for name, art in compiled:
        if name.endswith(".eff") or name.startswith("let-poly"):
            for field, reduction, _ in BACKENDS.values():
                outcome(reduction, getattr(art, field))
    # A closed program's replacements are closed: instantiate at a variable too.
    for backend in ("exeff", "noeff"):
        list(_open_type_instances(backend))
    for s, repl in built:
        assert s.rvars == free_bits(repl), repl
    assert len(built) > 900 and sum(s.rvars != 0 for s, _ in built) >= 6


def test_type_level_children_fold_in_without_their_bound_variables():
    a, b, d = TyVar(0), TyVar(1), DirtVar(0)
    scheme = TForallTy(a, SKEL_UNIT, TArrow(a, CompType(b, dirt_var(d))))
    assert traverse.type_bits(scheme) == traverse.var_bit(b) | traverse.var_bit(d)
    lam = exeff.EAbs(TermVar(0, "x"), scheme, exeff.CReturn(exeff.EVar(TermVar(0, "x"))))
    assert traverse.summarize(lam) == free_bits(lam) == traverse.type_bits(scheme)


def test_the_exeff_stage_records_summaries():
    # `run --backend exeff` compiles only up to ExEff.
    art = pipeline.compile_text((CORPUS / "p11_handle_tick_resume.eff").read_text(), "exeff")
    assert art.skeleff_term is None
    assert all(summary(u) == free_bits(u) for u in nodes(art.exeff_term))


def test_summaries_are_never_stale_during_evaluation(compiled):
    # Every node of every term of every trace either carries exactly its
    # free variables, as compiled or as a substitution carried them onto a
    # node it rebuilt, or carries no summary (head rules and plugging build
    # nodes without one).  So do the normal forms the congruence check
    # computes, whose substitutions run under binders and so carry the
    # variables of open replacements.
    rebuilt = carried = 0
    for name, art in compiled:
        terms = []
        for backend, (field, reduction, _) in BACKENDS.items():
            term = getattr(art, field)
            compiled_nodes = {id(u) for u in nodes(term)}
            trace = reduction.run(term, keep_trace=True)[2]
            terms.append((backend, compiled_nodes, trace))
        sk = art.skeleff_term
        terms.append(("normal form", {id(u) for u in nodes(sk)}, [skeleff.normalize_full(sk)]))
        for backend, compiled_nodes, trace in terms:
            for u in nodes(*trace):
                got = summary(u)
                assert got is None or got == free_bits(u), (name, backend, u)
                if id(u) not in compiled_nodes:
                    rebuilt += 1
                    carried += got is not None
    assert rebuilt > 5_000 and carried > 6_000


def test_a_rebuilt_node_carries_no_summary():
    art = pipeline.compile_text(handler_chain(4), "noeff")
    for field, _, _ in BACKENDS.values():
        t = getattr(art, field)
        assert summary(t) == 0
        name = traverse.shape(type(t)).terms[-1].name
        kid = getattr(t, name)
        copy = traverse.replace_field(t, name, kid)
        assert copy == t and summary(copy) is None
        assert summary(t) == 0 and summary(kid) is not None
        plugged = traverse._plug((None, t, name, None), kid)
        assert plugged == t and summary(plugged) is None


def test_evaluation_takes_the_same_steps_without_summaries(compiled):
    for name, art in compiled:
        for backend, (field, reduction, _) in BACKENDS.items():
            term = getattr(art, field)
            with_summaries = outcome(reduction, term)
            strip(term)
            try:
                assert summary(term) is None
                assert outcome(reduction, term) == with_summaries, (name, backend)
            finally:
                traverse.summarize(term)


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_a_summary_that_misses_a_variable_changes_evaluation(backend):
    # Remove a bound variable from the summary of its binder's scope (a skip
    # of the whole scope) or of the innermost node under it that has it (a
    # skip of one child): evaluation must then visibly differ, so the tests
    # above watch the skips.  Term variables are the `do`-bound ones of a
    # handler chain; type-level ones are those of the type abstractions
    # (skeleton ones only, in SkelEff) that let-poly instantiates.
    field, reduction, do = BACKENDS[backend]
    broken = {"term": 0, "type-level": 0}
    for text, sorts in ((handler_chain(4), "term"), (let_poly(4), "type-level")):
        term = getattr(pipeline.compile_text(text, "noeff"), field)
        want = outcome(reduction, term)
        for u in list(nodes(term)):
            for var, scope in binders(u):
                if (type(var) is TermVar) != (sorts == "term") or sorts == "term" and type(u) is not do:
                    continue
                bit = traverse.var_bit(var)
                if not summary(scope) & bit:
                    continue
                for w in (scope, innermost(scope, bit)):
                    kept = summary(w)
                    object.__setattr__(w, traverse.FREE, kept ^ bit)
                    try:
                        assert outcome(reduction, term) != want, (backend, u, w)
                    finally:
                        object.__setattr__(w, traverse.FREE, kept)
                    broken[sorts] += 1
        assert outcome(reduction, term) == want
    assert broken["term"] >= 4 and broken["type-level"] >= 8, broken


# A deliberately wrong step per summary rule, injected by wrapping the
# single-variable substitution that type application builds or the term
# substitution of the evaluators' beta rules.


def _wrong_single(monkeypatch, wrong):
    right = exeff.Single.__init__

    def init(self, v, repl):
        right(self, v, repl)
        wrong(self, v)

    monkeypatch.setattr(exeff.Single, "__init__", init)


def _skip_by_the_term_sort_bit(s, v):
    s.mask = 1 << (v.id << 3)  # the term-sort bit of the variable's id


def _drop_replacement(s, v):
    s.rvars = 0


def _subst_term_dropping_the_value(value, var, subject):
    """`traverse.subst_term` with a carry that leaves out the value's
    variables: a rebuilt node gets `S(node) - var`."""
    bit = traverse.var_bit(var)
    free = summary(subject)
    if free is not None and not free & bit:
        return subject
    sv = summary(value)
    return traverse._TSUBST[type(subject)](value, var.id, bit, None if sv is None else 0, free, subject)


def test_a_skip_that_ignores_the_sort_changes_evaluation(monkeypatch):
    # Ids are counted per sort, so a type-level variable's id is also some
    # term variable's: testing that bit skips subterms that mention the
    # type-level variable.
    runs = []
    for _, text in LET_POLY[:5]:
        art = pipeline.compile_text(text, "noeff")
        for backend in ("exeff", "noeff"):
            field, reduction, _ = BACKENDS[backend]
            term = getattr(art, field)
            runs.append((reduction, term, outcome(reduction, term)))
    _wrong_single(monkeypatch, _skip_by_the_term_sort_bit)
    assert all(outcome(reduction, term) != want for reduction, term, want in runs)


# In a closed program every replacement is closed, so a carry that leaves
# out the replacement's variables would go unseen: these tests instantiate
# an abstraction of a compiled term at a variable (one step), then
# instantiate that variable (one more step).  The result must be the
# abstraction instantiated at once, which it is only if the first step
# carried the variable into the summaries it built.


def _open_type_instances(backend):
    """(two steps through a fresh type variable, one step) for each type
    abstraction of let-poly(4)'s term on `backend`."""
    field, reduction, _ = BACKENDS[backend]
    abs_ = exeff.ETyAbs if backend == "exeff" else noeff.MTyAbs
    step = (exeff.VALUE_REDUCTION if backend == "exeff" else reduction).step
    b = TyVar(10_000)
    for f in nodes(getattr(pipeline.compile_text(let_poly(4), "noeff"), field)):
        if type(f) is not abs_ or not summary(f.body) & traverse.var_bit(f.var):
            continue
        opened = step(exeff.ETyApp(f, b))
        rebound = exeff.ETyAbs(b, f.skel, opened) if backend == "exeff" else noeff.MTyAbs(b, opened)
        yield step(exeff.ETyApp(rebound, T_UNIT)), step(exeff.ETyApp(f, T_UNIT))


def _open_term_instances():
    """(two steps through a value with a free variable, one step) for each
    function of let-poly(4)'s ExEff term whose parameter occurs in it."""
    y = TermVar(10_000, "y")
    opened_arg = exeff.EAbs(TermVar(10_001, "z"), T_UNIT, exeff.CReturn(exeff.EVar(y)))
    closed_arg = exeff.EAbs(TermVar(10_001, "z"), T_UNIT, exeff.CReturn(exeff.EUnit()))
    traverse.summarize(opened_arg)
    traverse.summarize(closed_arg)
    step = exeff.REDUCTION.step
    for f in nodes(pipeline.compile_text(let_poly(4), "noeff").exeff_term):
        if type(f) is not exeff.EAbs or not summary(f.body) & traverse.var_bit(f.var):
            continue
        opened = step(exeff.CApp(f, opened_arg))
        rebound = exeff.EAbs(y, T_UNIT, opened)
        yield step(exeff.CApp(rebound, exeff.EUnit())), step(exeff.CApp(f, closed_arg))


@pytest.mark.parametrize("backend", ["exeff", "noeff"])
def test_a_carry_that_drops_the_replacement_changes_evaluation(monkeypatch, backend):
    pairs = list(_open_type_instances(backend))
    assert len(pairs) >= 3 and all(twice == once for twice, once in pairs)
    _wrong_single(monkeypatch, _drop_replacement)
    assert all(twice != once for twice, once in _open_type_instances(backend))


def test_a_term_carry_that_drops_the_value_changes_evaluation(monkeypatch):
    pairs = list(_open_term_instances())
    assert len(pairs) >= 3 and all(twice == once for twice, once in pairs)
    monkeypatch.setattr(exeff, "subst_term", _subst_term_dropping_the_value)
    assert all(twice != once for twice, once in _open_term_instances())


def test_a_dropped_cast_leaves_no_stale_summary():
    # Coercion application makes `<b> -> w` reflexive, so the substitution
    # drops the cast, and `b` leaves the term with it: `(S(t) - w) | S(R)`
    # would still list `b` on the type abstraction rebuilt around it.
    b, w = TyVar(0), CoVar(0)
    fn = exeff.EAbs(TermVar(0, "x"), T_UNIT, exeff.CReturn(exeff.EVar(TermVar(0, "x"))))
    cast = exeff.ECast(fn, exeff.CoArrow(exeff.CoTyRefl(b), exeff.CoVarRef(w)))
    poly = exeff.ECoAbs(w, TySub(T_UNIT, T_UNIT), exeff.ETyAbs(TyVar(1), SKEL_UNIT, cast))
    traverse.summarize(poly)
    refl = exeff.CoComp(exeff.CoBaseRefl(Base.UNIT), exeff.CoDirtRefl(EMPTY_DIRT))
    out = exeff.VALUE_REDUCTION.step(exeff.ECoApp(poly, refl))
    assert out == exeff.ETyAbs(TyVar(1), SKEL_UNIT, fn)
    assert summary(out) is None or summary(out) == free_bits(out) == 0


def test_the_summary_pass_is_no_recursion_cliff(tmp_path):
    # `effc check` accepted `do` chains up to 490 before summaries; from 491
    # on, the reflexive-cast pass, which takes more frames per tree level,
    # runs out of stack.  The summary pass takes one frame per level.
    path = tmp_path / "chain.eff"
    path.write_text(handler_chain(490))
    cmd = [sys.executable, "-m", "effc.cli", "check", str(path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0 and proc.stdout.strip().endswith("ok"), proc.stderr
