"""Generalization by level: at every let, the level test agrees with the
environment scan it replaced (`env_scan`), and inference grows linearly in
let depth."""

import random
import sys

import pytest

from effc import display, exeff, infer, source
from effc.core import EMPTY_DIRT, CoVar, DirtVar, EffError, SkelVar, TyVar
from effc.traverse import free_vars, substitute
from gen_helpers import make_signature, program_texts, random_program
from test_solver import let_poly

import env_scan
from conftest import CORPUS


class ScanSpy:
    """Wraps `infer`'s let steps: records the environment of each let as
    generation enters it, and checks that `collapse`'s pinned variables and
    `split`'s partition are those of the environment scan.  `lets` counts
    the lets checked."""

    def __init__(self, monkeypatch):
        self.envs: list = []
        self.lets = 0
        self._pinned = self._a = None
        self._gen_comp, self._split = infer.gen_comp, infer.split
        self._collapse, self._collapsible = infer.collapse, infer._collapsible
        for name in ("gen_comp", "split", "collapse", "_collapsible"):
            monkeypatch.setattr(infer, name, getattr(self, name))

    def gen_comp(self, session, Q, env, c):
        if not isinstance(c, source.SrcLet):
            return self._gen_comp(session, Q, env, c)
        self.envs.append(env)
        try:
            return self._gen_comp(session, Q, env, c)
        finally:
            self.envs.pop()

    def _env(self, s):
        """The let's environment with `s` applied."""
        return {vid: (var, substitute(s, t)) for vid, (var, t) in self.envs[-1].items()}

    def collapse(self, session, a, Q):
        self._pinned, self._a = env_scan.pinned(self._env(session.solved), a), a
        return self._collapse(session, a, Q)

    def _collapsible(self, pinned, Q):
        objs = [it.var if isinstance(it, infer.SkelAnn) else it.constraint for it in Q]
        for key in sorted(env_scan.var_keys(objs + [self._a])):
            assert pinned(key) == (key in self._pinned), key
        return self._collapsible(pinned, Q)

    def split(self, session, Q, a):
        got = self._split(session, Q, a)
        want = env_scan.split(self._env(session.solved), Q, a)
        assert got[:5] == want[:5]
        assert got[5].co == want[5].co and not (got[5].skel or got[5].ty or got[5].dirt)
        self.lets += 1
        return got


def test_levels_agree_with_the_scan_on_the_corpus(monkeypatch):
    spy = ScanSpy(monkeypatch)
    for path in sorted(CORPUS.glob("*.eff")):
        infer.infer_top(*source.parse_program(path.read_text()))
    assert spy.lets >= 15


def test_levels_agree_with_the_scan_on_generated_programs(monkeypatch):
    spy = ScanSpy(monkeypatch)
    rng = random.Random(20261020)
    for _ in range(1000):
        infer.infer_top(*random_program(rng, rng.randint(2, 5)))
    assert spy.lets >= 500


def test_levels_agree_with_the_scan_on_let_poly(monkeypatch):
    spy = ScanSpy(monkeypatch)
    for n in range(2, 41):
        infer.infer_top(*source.parse_program(let_poly(n)))
    assert spy.lets == sum(range(2, 41))


# g's solve binds d2, the parameter dirt of h's type, to Tick and a fresh
# tail; k's solve has bound a dirt variable of its value to d2 before that.
OUTER_DIRT = (
    "effect Tick : Unit -> Unit\n"
    "let app = fun f -> f unit in\n"
    "do h <- return app in\n"
    "let k = fun t -> (do r <- h (fun q -> (fun w -> return w) q) in return t) in\n"
    "let g = fun z -> (do r <- h (fun u -> Tick u) in h z) in\n"
    "g (fun v -> k v)\n"
)


def test_a_binding_lowers_the_variables_of_its_solution(monkeypatch):
    # The fresh tail sinks to d2's level, as it is free in h's type: g's
    # scheme keeps it free.
    spy = ScanSpy(monkeypatch)
    schemes = infer.infer_top(*source.parse_program(OUTER_DIRT)).session.let_schemes
    assert spy.lets == 3
    g = "all d9 d11 [d3 <= d9] [d11 <= {Tick | d10}]. (Unit -> Unit ! d11) -> Unit ! d9"
    assert [(name, display.show(scheme)) for name, scheme in schemes][2] == ("g", g)


def _mentions_of_bound(s: exeff.Subst, sorts) -> list:
    """The solutions of `s` of `sorts` that mention a variable of `sorts`
    that `s` binds."""
    classes = {"skel": SkelVar, "ty": TyVar, "dirt": DirtVar, "co": CoVar}
    return [
        display.show(val)
        for owner in sorts
        for val in getattr(s, owner).values()
        for sort in sorts
        if {v.id for v in free_vars(val, classes[sort])} & getattr(s, sort).keys()
    ]


def _stale_solutions(outcome) -> list:
    """The solutions of an inference run that mention a variable it solved:
    none of its skeleton, type and dirt solutions may, and once settled none
    of its coercion solutions may either."""
    return _mentions_of_bound(outcome.session.solved, ("skel", "ty", "dirt")) + _mentions_of_bound(
        outcome.subst, ("skel", "ty", "dirt", "co")
    )


def test_a_let_rewrites_the_earlier_solutions_that_mention_what_it_binds():
    outcome = infer.infer_top(*source.parse_program(OUTER_DIRT))
    # d4 is bound at k's let, and its tail at g's, then at the top level.
    assert display.show(outcome.session.solved.dirt[4]) == "{Tick | d25}"
    assert _stale_solutions(outcome) == []


def test_no_solution_mentions_a_solved_variable(corpus_paths):
    for name, text in program_texts(corpus_paths):
        assert _stale_solutions(infer.infer_top(*source.parse_program(text))) == [], name


def test_a_bind_that_skips_an_owner_leaves_a_stale_solution(corpus_paths, monkeypatch):
    # Deliberately wrong binding: once per run, the first solution that
    # mentions the bound variable is left as it was.  A run that still
    # finishes must show it.
    bind = infer.Session.bind

    def skipping(session, s):
        for sort in ("skel", "ty", "dirt"):
            for vid in getattr(s, sort):
                owners = session._uses.get((sort, vid))
                if owners and not hasattr(session, "skipped"):
                    del owners[next(iter(owners))]
                    session.skipped = True
        bind(session, s)

    monkeypatch.setattr(infer.Session, "bind", skipping)
    caught = 0
    for name, text in program_texts(corpus_paths):
        try:
            outcome = infer.infer_top(*source.parse_program(text))
        except (EffError, AssertionError):
            continue  # another check fired first
        if hasattr(outcome.session, "skipped"):
            assert _stale_solutions(outcome), name
            caught += 1
    assert caught >= 10, caught


def test_a_variable_is_solved_by_one_let_only():
    # Binding a variable twice would silently replace its first solution.
    session = infer.Session(make_signature())
    d = session.supply.dirt()
    session.bind(exeff.Subst(dirt={d.id: EMPTY_DIRT}))
    with pytest.raises(AssertionError, match=f"^dirt variable {d.id} bound twice$"):
        session.bind(exeff.Subst(dirt={d.id: EMPTY_DIRT}))


def test_a_coercion_variable_is_recorded_once_only():
    session = infer.Session(make_signature())
    w = session.supply.co()
    session.record(w, exeff.refl_of(EMPTY_DIRT))
    with pytest.raises(AssertionError, match=f"^coercion variable w{w.id} solved twice$"):
        session.record(w, exeff.refl_of(EMPTY_DIRT))


def test_the_final_solution_settles_chains_of_coercion_solutions():
    # A let's coercion solution may name one that a later let solves, in
    # terms of one solved later still.
    session = infer.Session(make_signature())
    w0, w1, w2 = (session.supply.co() for _ in range(3))
    session.record(w0, exeff.CoVarRef(w1))
    assert session.settle(0).co == {w0.id: exeff.CoVarRef(w1)}
    mark = len(session.order)
    session.record(w1, exeff.CoVarRef(w2))
    assert session.settle(mark).co == {w1.id: exeff.CoVarRef(w2)}
    refl = exeff.refl_of(EMPTY_DIRT)
    session.record(w2, refl)
    assert session.settle(0).co == {w0.id: refl, w1.id: refl, w2.id: refl}


# -- growth ----------------------------------------------------------------------


def _calls_inside_inference(n: int) -> int:
    """Python function calls made by `infer_and_default` on let_poly(n)."""
    sig, comp = source.parse_program(let_poly(n))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        infer.infer_and_default(sig, comp)
    finally:
        sys.setprofile(None)
    return calls


def test_inference_calls_grow_linearly_in_let_depth():
    # Scanning the environment at every let made this ratio 3.45.
    ratio = _calls_inside_inference(100) / _calls_inside_inference(50)
    assert ratio <= 2.3, ratio

