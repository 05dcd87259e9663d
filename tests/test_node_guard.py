"""Nodes are never changed once built: the guard that `conftest.py` puts on
every node class turns a field store into an error, as `frozen` did."""

import dataclasses

import pytest

from conftest import CORPUS
from effc import exeff, lex, pipeline, traverse
from effc.core import NODES, T_UNIT, CompType, EMPTY_DIRT, TArrow

STEP = exeff.step_comp


def test_every_node_class_is_guarded():
    assert len(NODES) == 81
    for cls in NODES:
        assert cls.__setattr__ is not object.__setattr__, cls.__name__
        assert cls.__delattr__ is not object.__delattr__, cls.__name__


def test_fields_are_set_once_and_summaries_pass():
    t = TArrow(T_UNIT, CompType(T_UNIT, EMPTY_DIRT))
    assert t.dom is T_UNIT
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.dom = T_UNIT
    with pytest.raises(dataclasses.FrozenInstanceError):
        del t.cod
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.other = 1  # not a field either
    tok = lex.tokenize("x")[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        tok.text = "y"
    v = exeff.EUnit()
    object.__setattr__(v, traverse.FREE, 0)
    assert traverse.summarize(v) == 0


def test_a_step_that_writes_a_field_in_place_is_caught(monkeypatch):
    written = []

    def step(term):
        nxt = STEP(term)
        if nxt is not None and not written:
            name = dataclasses.fields(nxt)[0].name
            written.append(name)
            setattr(nxt, name, getattr(nxt, name))  # even storing the same value
        return nxt

    monkeypatch.setattr(exeff, "step_comp", step)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pipeline.differential_check_text((CORPUS / "p03_id_app.eff").read_text())
    assert written
