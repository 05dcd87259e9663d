"""Compilation substitutes the final solution into the elaborated term once.

Defaulting takes its dirt variables from the session, not from a walk of
the term, and binds its defaults there; the settled solution then goes into
the term in one walk.  `two_walks` keeps the composition of two
substitutions, with its dirt domain found by a walk, as the oracle."""

import traceback

from effc import exeff, infer, pipeline, source, traverse
from effc.core import DirtVar, EffError, TypecheckError, WfError
from effc.traverse import free_vars, substitute
from gen_helpers import program_texts
from test_solver import handler_chain, let_poly, nested_handlers

import two_walks

LADDERS = (
    [handler_chain(n) for n in range(4, 49)]
    + [nested_handlers(n) for n in range(3, 25)]
    + [let_poly(n) for n in range(2, 10)]
)


def all_programs(corpus_paths):
    yield from program_texts(corpus_paths, 200)
    for i, text in enumerate(LADDERS):
        yield f"ladder-{i}", text


def test_the_term_is_that_of_two_substitutions(corpus_paths):
    checked = 0
    for name, text in all_programs(corpus_paths):
        cty, term = two_walks.infer_and_default(*source.parse_program(text))
        art = pipeline.compile_text(text)
        assert art.exeff_term == term, name
        assert art.cty == cty, name
        checked += 1
    assert checked == 40 + 200 + 45 + 22 + 8


def test_one_compile_substitutes_into_the_term_once(monkeypatch):
    # Spies on every module's binding of `substitute` and `free_vars`.
    calls = []

    def spy(fn):
        def spied(*args):
            calls.append((fn.__name__, args))
            return fn(*args)

        return spied

    for fn in (traverse.substitute, traverse.free_vars):
        for mod in (traverse, exeff, infer, pipeline):
            if getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, spy(fn))
    pipeline.compile_text(handler_chain(8))

    def on_comp(name):
        return [args for fn, args in calls if fn == name and any(isinstance(a, exeff.Comp) for a in args)]

    assert len(on_comp("substitute")) == 1
    assert on_comp("free_vars") == []


def recheck_frames(e: Exception) -> list:
    return [f.name for f in traceback.extract_tb(e.__traceback__) if f.name == "derive"]


def careless(monkeypatch, widen):
    """Make each defaulting take the domain `widen(outcome, domain)` in
    place of the session's; returns the list of the outcomes it changed."""
    default_residual, changed = infer.default_residual, []

    def wrong(outcome):
        session = outcome.session
        domain = session.defaultable_dirts()
        other = widen(outcome, domain)
        if other != domain:
            session.defaultable_dirts = lambda: other
            changed.append(outcome)
        return default_residual(outcome)

    monkeypatch.setattr(infer, "default_residual", wrong)
    return changed


def test_a_defaulting_that_leaves_a_term_free_dirt_out_is_rejected(monkeypatch, corpus_paths):
    # Deliberately wrong domain: one dirt variable free in the substituted
    # term, and in no residual constraint (which would fail to solve), is
    # left out.  The ExEff re-check must find it unbound.
    def leave_one_out(outcome, domain):
        term = substitute(outcome.session.settle(0), outcome.term)
        cts = [it.constraint for it in outcome.residual if isinstance(it, infer.SubCt)]
        keep = {v.id for v in free_vars(cts + [outcome.cty], DirtVar)}
        free = [v.id for v in free_vars(term, DirtVar) if v.id not in keep]
        return [vid for vid in domain if not free or vid != free[0]]

    changed = careless(monkeypatch, leave_one_out)
    for name, text in program_texts(corpus_paths, 200):
        before, rejected = len(changed), False
        try:
            pipeline.compile_text(text)
        except WfError as e:
            assert "unbound dirt variable" in str(e) and recheck_frames(e), name
            rejected = True
        assert rejected == (len(changed) > before), name
    assert len(changed) >= 60


def test_a_defaulting_that_binds_a_generalized_dirt_is_rejected(monkeypatch, corpus_paths):
    # Deliberately wrong domain: one generalized dirt variable, bound by its
    # let's `EDirtAbs`, is defaulted too.  The re-checks reject the term or
    # it differs from the oracle's; it never equals it.
    wanted, rechecked = {}, 0
    for name, text in program_texts(corpus_paths, 200):
        outcome = infer.infer_top(*source.parse_program(text))
        if outcome.session.generalized:
            wanted[name] = (text, two_walks.infer_and_default(*source.parse_program(text))[1])
    changed = careless(monkeypatch, lambda outcome, domain: domain + [min(outcome.session.generalized)])
    for name, (text, term) in wanted.items():
        try:
            art = pipeline.compile_text(text)
        except EffError as e:
            rechecked += isinstance(e, TypecheckError) and bool(recheck_frames(e))
            continue
        assert art.exeff_term != term, name
    assert len(changed) == len(wanted) >= 15
    assert rechecked >= 1
