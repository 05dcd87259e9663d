"""Closed nodes keep their type and erasure: `exeff.typecheck_value` and
`typecheck_comp`, called without a derivation, keep on each term node whose
summary is 0 the type they found, tagged with the signature, and
`skeleff.erase_value`/`erase_comp` keep its erasure (`traverse.Closed`).  A
later check or erasure of the node returns what it keeps."""

import pytest

from effc import display, exeff, pipeline, readers, skeleff, traverse
from effc.core import T_INT, T_UNIT, Base, Context, Signature, TermVar, TypecheckError, dirt
from effc.traverse import CLOSED, alpha_eq
from conftest import CORPUS
from gen_helpers import program_texts
from test_free_term_summaries import nodes
from test_solver import handler_chain, let_poly


def memo(u):
    return getattr(u, CLOSED, None)


def kept(term, found) -> int:
    """The nodes of `term` where a walk from the root stops because `found`
    reads a kept result: the hits a check or an erasure of `term` takes."""
    hits, todo = 0, [term]
    while todo:
        u = todo.pop()
        if type(u) is tuple:
            todo.extend(u)
        elif memo(u) is not None and found(memo(u)):
            hits += 1
        else:
            todo.extend(getattr(u, f.name) for f in traverse.shape(type(u)).terms)
    return hits


def harness_trace(text):
    """(signature, every term of the ExEff trace): compiled, then stepped
    with `exeff.step_comp` from the root, as the harness steps."""
    art = pipeline.compile_text(text, "noeff")
    term = art.exeff_term
    yield art.source_sig, term
    while not exeff.is_comp_result(term):
        term = exeff.step_comp(term)
        yield art.source_sig, term


def test_kept_types_and_erasures_match_a_full_check(corpus_paths):
    # Each term is checked and erased as the harness does, reusing what the
    # terms before it kept, and its dump is read back into fresh nodes with
    # no summary, which the checkers and erasure take in full.
    texts = [
        *program_texts(corpus_paths, 1000),
        *((f"let-poly({n})", let_poly(n)) for n in range(2, 13)),
        *((f"handler-chain({n})", handler_chain(n)) for n in range(4, 17)),
    ]
    terms = type_hits = erasure_hits = 0
    for name, text in texts:
        for sig, term in harness_trace(text):
            env = Context(sig)
            type_hits += kept(term, lambda m: m.sig is sig)
            erasure_hits += kept(term, lambda m: m.erased is not None)
            ty, erased = exeff.typecheck_comp(env, term), skeleff.erase_comp({}, term)
            fresh = readers.read_exeff_comp(display.show(display.canonicalize(term)))
            assert alpha_eq(ty, exeff.typecheck_comp(env, fresh)), name
            assert alpha_eq(erased, skeleff.erase_comp({}, fresh)), name
            assert not any(memo(u) for u in nodes(fresh)), name
            terms += 1
    assert terms > 4_500 and type_hits > 7_000 and erasure_hits > 6_000, (terms, type_hits, erasure_hits)


def ticks(param):
    sig = Signature()
    sig.declare("Tick", param, T_UNIT)
    return sig


def closed_tick():
    """`Tick unit; y. (return y ▷ <Unit> ! empty({Tick}))` with its
    summaries: closed."""
    y = TermVar(0, "y")
    widen = exeff.CoComp(exeff.CoBaseRefl(Base.UNIT), exeff.CoEmpty(dirt(["Tick"])))
    c = exeff.COp("Tick", exeff.EUnit(), y, T_UNIT, exeff.CCast(exeff.CReturn(exeff.EVar(y)), widen))
    assert traverse.summarize(c) == 0
    return c


def test_a_kept_type_answers_only_its_own_signature():
    c, unit_sig, int_sig = closed_tick(), ticks(T_UNIT), ticks(T_INT)
    ty = exeff.typecheck_comp(Context(unit_sig), c)
    assert memo(c).sig is unit_sig and memo(c).ty is ty
    assert exeff.typecheck_comp(Context(unit_sig), c) is ty
    with pytest.raises(TypecheckError, match="operation Tick applied to an argument of the wrong type"):
        exeff.typecheck_comp(Context(int_sig), c)
    assert memo(c).sig is unit_sig and memo(c).ty is ty


def test_only_closed_summarized_nodes_keep_results():
    # A derivation records every node instead; a node without a summary,
    # or with variables free in it, keeps nothing.
    c, sig = closed_tick(), ticks(T_UNIT)
    exeff.derive(Context(sig), c)
    assert memo(c) is None
    open_ = c.body
    assert getattr(open_, traverse.FREE) != 0
    exeff.typecheck_comp(Context(sig).bind(c.var, T_UNIT), open_)
    skeleff.erase_comp({}, open_)
    assert memo(open_) is None
    bare = readers.read_exeff_comp(display.show(c))
    exeff.typecheck_comp(Context(sig), bare)
    skeleff.erase_comp({}, bare)
    assert memo(bare) is None


def test_an_erasure_is_kept_apart_from_the_type():
    c, sig = closed_tick(), ticks(T_UNIT)
    erased = skeleff.erase_comp({}, c)
    assert memo(c).erased is erased and memo(c).sig is None and memo(c).ty is None
    assert skeleff.erase_comp({}, c) is erased
    ty = exeff.typecheck_comp(Context(sig), c)
    assert memo(c).ty is ty and memo(c).erased is erased


def test_replace_field_drops_what_a_node_keeps():
    c, sig = closed_tick(), ticks(T_UNIT)
    exeff.typecheck_comp(Context(sig), c)
    copy = traverse.replace_field(c, "var_ty", T_INT)
    assert memo(copy) is None and getattr(copy, traverse.FREE, None) is None
    with pytest.raises(TypecheckError, match="continuation binder annotation mismatch"):
        exeff.typecheck_comp(Context(sig), copy)


def test_the_retyped_shared_node_keeps_nothing(monkeypatch):
    # After one step of p05, `return x` is the body of `fun (x : Unit)` and
    # of `fun (x : a0)`: one node typed under two bindings of `x`.
    seen, step = [], exeff.step_comp

    def recorded(term):
        seen.append(term)
        return step(term)

    monkeypatch.setattr(exeff, "step_comp", recorded)
    report = pipeline.differential_check_text((CORPUS / "p05_let_poly_two_insts.eff").read_text())
    assert report.agreement
    annotations: dict = {}
    for u in nodes(*seen):
        if type(u) is exeff.EAbs:
            annotations.setdefault(id(u.body), (u.body, set()))[1].add(display.show(u.ty))
    shared = [body for body, tys in annotations.values() if len(tys) > 1]
    assert [display.show(body) for body in shared] == ["return x"]
    assert memo(shared[0]) is None and getattr(shared[0], traverse.FREE) != 0
