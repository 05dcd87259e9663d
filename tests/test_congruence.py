"""`skeleff.congruent` decides a pair at once when it is alpha-equal or one
`step_sk` apart, and normalizes both sides only otherwise.  These tests pin
the shortcut against the normalization it skips, and drive the fallback."""

import pytest

from effc import exeff, pipeline, skeleff
from effc.core import SKEL_UNIT, FuelExhausted, TermVar
from effc.traverse import alpha_eq, contractions
from conftest import CORPUS
from gen_helpers import program_texts


def erasures(text: str) -> list:
    """The erasure of every term along the ExEff trace of a program."""
    term = pipeline.compile_text(text, stage="exeff").exeff_term
    out = [skeleff.erase_comp({}, term)]
    while not exeff.is_comp_result(term):
        term = exeff.step_comp(term)
        out.append(skeleff.erase_comp({}, term))
    return out


def one_step_apart(a, b) -> bool:
    nxt = skeleff.step_sk(a)
    return nxt is not None and alpha_eq(nxt, b)


def test_every_harness_pair_is_equal_or_one_step_apart_and_normalizes_equal(corpus_paths):
    # Every pair the harness checks is decided by a shortcut, so this is
    # where the normalizer stays covered: both sides of each pair must
    # also have alpha-equal normal forms.
    programs = pairs = stepped = 0
    for name, text in program_texts(corpus_paths, 360):
        trace = erasures(text)
        normal = skeleff.normalize_full(trace[0])
        for a, b in zip(trace, trace[1:]):
            equal = alpha_eq(a, b)
            assert equal or one_step_apart(a, b), name
            normal_b = skeleff.normalize_full(b)
            assert alpha_eq(normal, normal_b), name
            normal = normal_b
            pairs += 1
            stepped += not equal
        programs += 1
    assert programs == len(corpus_paths) + 360
    assert pairs > 800 and 0 < stepped < pairs


def count_normalizations(monkeypatch) -> list:
    calls = []

    def counted(term, *args, _normalize=skeleff.normalize_full):
        calls.append(term)
        return _normalize(term, *args)

    monkeypatch.setattr(skeleff, "normalize_full", counted)
    return calls


def handled_get_trace() -> list:
    # Two `Get`s answered 7 by a resuming handler; the result is `return 7`.
    text = (CORPUS / "p15_get_constant.eff").read_text()
    trace = [pipeline.compile_text(text, "skeleff").skeleff_term]
    while (nxt := skeleff.step_sk(trace[-1])) is not None:
        trace.append(nxt)
    return trace


def test_shortcut_pairs_skip_normalization(monkeypatch):
    a, b = handled_get_trace()[:2]
    calls = count_normalizations(monkeypatch)
    assert skeleff.congruent(a, a) and skeleff.congruent(a, b)
    assert calls == []


def test_a_pair_two_steps_apart_falls_back_to_normalization(monkeypatch):
    a, _, c = handled_get_trace()[:3]
    assert not alpha_eq(a, c) and not one_step_apart(a, c)
    calls = count_normalizations(monkeypatch)
    assert skeleff.congruent(a, c)
    assert calls == [a, c]


def test_a_bumped_literal_is_not_congruent(monkeypatch):
    a, b = handled_get_trace()[:2]

    def bump(node):
        return exeff.EInt(node.value + 1) if type(node) is exeff.EInt else None

    wrong = next(contractions(b, bump))
    assert not alpha_eq(a, wrong) and not one_step_apart(a, wrong)
    calls = count_normalizations(monkeypatch)
    assert not skeleff.congruent(a, wrong)
    assert len(calls) == 2


def test_normalization_is_bounded_by_its_fuel():
    x = TermVar(0, "x")
    redex = exeff.CApp(exeff.EAbs(x, SKEL_UNIT, exeff.CReturn(exeff.EVar(x))), exeff.EUnit())
    with pytest.raises(FuelExhausted):
        skeleff.normalize_full(redex, fuel=0)
    assert skeleff.normalize_full(redex, fuel=1) == exeff.CReturn(exeff.EUnit())
