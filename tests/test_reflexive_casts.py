"""Dropping the casts that witness A ≤ A after elaboration: the simplified
term keeps the type, the erasure and the behaviour of the elaborated one,
and its derivation is carried over without another check."""

import pytest

from effc import exeff, infer, pipeline, skeleff, source
from effc.core import Base, CompSub, CompType, Context, EMPTY_DIRT, TBase, TypecheckError, dirt
from effc.traverse import alpha_eq, shape
from conftest import CORPUS
from gen_helpers import make_signature, program_texts

CASTS = (exeff.ECast, exeff.CCast)


def elaborate(text: str, drop=None):
    """(signature, elaborated term, its derivation, the term the pass
    returns), compiled the way `pipeline.compile_text` does."""
    sig, comp = source.parse_program(text)
    source.check_signature(sig)
    cty, term, _ = infer.infer_and_default(sig, comp)
    derived = exeff.derive(Context(sig), term)
    assert alpha_eq(derived.of(term), cty)
    return sig, term, derived, (drop or exeff.drop_reflexive_casts)(derived, term)


def casts(t):
    """Every cast node in or under the term `t`, in pre-order."""
    todo = [t]
    while todo:
        u = todo.pop()
        if type(u) is tuple:
            todo.extend(reversed(u))
            continue
        if type(u) in CASTS:
            yield u
        todo.extend(reversed([getattr(u, f.name) for f in shape(type(u)).terms]))


def is_reflexive(derived, cast) -> bool:
    ct = derived.of(cast.co)
    return alpha_eq(ct.lhs, ct.rhs)


def structurally_reflexive(co) -> bool:
    """Whether `co` is built from reflexivity alone: reflexivity leaves, the
    empty dirt's `CoEmpty`, and op-union chains that end in a reflexive
    coercion or in the `CoEmpty` of a closed dirt holding only the chain's
    operations.  A cross-check of the pass, which reads the constraint from
    the derivation instead."""
    cls = type(co)
    if cls in (exeff.CoBaseRefl, exeff.CoTyRefl, exeff.CoDirtRefl):
        return True
    if cls is exeff.CoOpUnion:
        ops = set()
        while type(co) is exeff.CoOpUnion:
            ops.add(co.op)
            co = co.rest
        if type(co) is exeff.CoEmpty:
            return co.dirt.tail is None and co.dirt.ops <= ops
        return structurally_reflexive(co)
    if cls is exeff.CoEmpty:
        return co.dirt.is_empty()
    if cls is exeff.CoVarRef:
        return False
    kids = [f.name for f in shape(cls).kids if f.name not in ("constraint", "skel")]
    return all(structurally_reflexive(getattr(co, name)) for name in kids)


def assert_derivation_carried(sig, derived, out) -> int:
    """Check `out` afresh and compare with what the pass carried over, at
    every node; returns the number of nodes compared."""
    fresh = exeff.derive(Context(sig), out)
    for key, t in fresh.items():
        assert alpha_eq(derived[key], t)
    return len(fresh)


@pytest.fixture(scope="module")
def simplified(corpus_paths):
    """(name, signature, elaborated term, derivation, simplified term) of the
    corpus and 960 generated programs."""
    return [(name, *elaborate(text)) for name, text in program_texts(corpus_paths, 960)]


def test_the_pass_drops_exactly_the_reflexive_casts(simplified):
    before = after = 0
    for name, sig, term, derived, out in simplified:
        old, new = list(casts(term)), list(casts(out))
        before += len(old)
        after += len(new)
        # A surviving cast is one of the elaborated term's, with its coercion.
        kept = [c.co for c in old if not is_reflexive(derived, c)]
        assert [c.co for c in new] == kept, name
        for c in old:
            assert structurally_reflexive(c.co) == is_reflexive(derived, c), name
    assert after < before / 2


def test_the_erasure_is_unchanged(simplified):
    # Coercions have no computational content: erasure forgets casts.
    for name, _, term, _, out in simplified:
        assert skeleff.erase_comp({}, out) == skeleff.erase_comp({}, term), name


def test_the_carried_types_are_what_a_fresh_check_derives(simplified):
    compared = 0
    for name, sig, _, derived, out in simplified:
        compared += assert_derivation_carried(sig, derived, out)
    assert compared > 20_000


def test_the_observations_are_unchanged(simplified):
    for name, _, term, _, out in simplified:
        want, got = exeff.eval_comp(term), exeff.eval_comp(out)
        assert pipeline.observe_exeff(got.result) == pipeline.observe_exeff(want.result), name
        assert got.steps <= want.steps, name


def test_compile_reads_the_simplified_term():
    # `dump --stage exeff`, the backends and the harness read `exeff_term`.
    art = pipeline.compile_path(str(CORPUS / "p11_handle_tick_resume.eff"), "exeff")
    derived = exeff.derive(Context(art.source_sig), art.exeff_term)
    assert not any(is_reflexive(derived, c) for c in casts(art.exeff_term))


def test_a_widening_cast_survives():
    # return unit ▷ (Unit ! ∅ ≤ Unit ! {Tick}), under reflexive casts.
    sig = make_signature()
    unit = exeff.CoBaseRefl(Base.UNIT)
    widen = exeff.CoComp(unit, exeff.CoEmpty(dirt(["Tick"])))
    ticks = CompType(TBase(Base.UNIT), dirt(["Tick"]))
    term = exeff.CCast(exeff.CCast(exeff.CReturn(exeff.ECast(exeff.EUnit(), unit)), widen), exeff.refl_of(ticks))
    derived = exeff.derive(Context(sig), term)
    assert derived.of(widen) == CompSub(CompType(TBase(Base.UNIT), EMPTY_DIRT), ticks)
    out = exeff.drop_reflexive_casts(derived, term)
    assert out == exeff.CCast(exeff.CReturn(exeff.EUnit()), widen)
    assert derived.of(out) == derived.of(term)
    assert_derivation_carried(sig, derived, out)


def test_a_pass_that_drops_a_widening_cast_is_rejected(monkeypatch, corpus_paths):
    # The pass made careless: every cast looks reflexive to it.
    drop = exeff.drop_reflexive_casts

    def careless(derived, c):
        with monkeypatch.context() as m:
            m.setattr(exeff, "alpha_eq", lambda a, b: True)
            return drop(derived, c)

    widening = in_compile = 0
    for path in corpus_paths:
        text = path.read_text()
        sig, _, derived, out = elaborate(text)
        if not list(casts(out)):
            continue
        widening += 1
        with monkeypatch.context() as m:
            m.setattr(exeff, "drop_reflexive_casts", careless)
            try:
                pipeline.compile_text(text)
            except TypecheckError:
                in_compile += 1
                continue
        sig, _, derived, out = elaborate(text, careless)
        with pytest.raises((TypecheckError, AssertionError)):
            assert_derivation_carried(sig, derived, out)
    # 29 corpus programs keep a cast; compilation rejects 27 of them.
    assert widening >= 25 and in_compile >= 20
