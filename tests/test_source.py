"""Surface syntax: parsing, well-formedness, printing."""

import random

import pytest
from hypothesis import given, strategies as st

from effc import cli, exeff, lex, pipeline, source
from effc.core import (
    Base,
    CompType,
    Context,
    EMPTY_DIRT,
    ParseError,
    Signature,
    SkelArrow,
    SkelBase,
    Supply,
    TArrow,
    TBase,
    THandler,
    UnboundVariable,
    UnknownOperation,
    WfError,
    dirt,
    dirt_add,
    dirt_var,
)
from effc.traverse import alpha_eq
from gen_helpers import random_program
from source_printer import show_program, show_src_type

T_UNIT = TBase(Base.UNIT)
SK_UNIT = SkelBase(Base.UNIT)


def test_parse_tick_program():
    sig, comp = source.parse_program(
        "effect Tick : Unit -> Unit\ndo x <- Tick unit in return x"
    )
    assert sig.ops["Tick"].param == T_UNIT
    assert sig.ops["Tick"].result == T_UNIT
    sup = Supply()
    x, y = sup.term("x"), sup.term("y")
    expected = source.SrcDo(
        x,
        source.SrcOpCall("Tick", source.SrcUnit(), y, source.SrcReturn(source.SrcVar(y))),
        source.SrcReturn(source.SrcVar(x)),
    )
    assert alpha_eq(comp, expected)


def test_parse_fun_in_let():
    _, comp = source.parse_program("let f = fun g -> g unit in return unit")
    assert isinstance(comp, source.SrcLet)
    fn = comp.val
    assert isinstance(fn, source.SrcFun)
    assert isinstance(fn.body, source.SrcApp)
    assert isinstance(fn.body.fn, source.SrcVar)
    assert fn.body.fn.var.id == fn.var.id
    assert isinstance(fn.body.arg, source.SrcUnit)


def test_parse_return_only_handler():
    _, comp = source.parse_program("return (handler { return x -> return x })")
    h = comp.val
    assert isinstance(h, source.SrcHandler)
    assert h.clauses == ()


def test_duplicate_effect_declaration():
    with pytest.raises(ParseError):
        source.parse_program("effect Tick : Unit -> Unit\neffect Tick : Unit -> Unit\nreturn unit")


def test_duplicate_handler_clause():
    with pytest.raises(ParseError):
        source.parse_program(
            "effect Tick : Unit -> Unit\n"
            "return (handler { return x -> return x, Tick p k -> k p, Tick p k -> k p })"
        )


def test_unbound_variable_has_span():
    with pytest.raises(UnboundVariable) as e:
        source.parse_program("return z")
    assert e.value.span is not None


def test_lex_error_position():
    with pytest.raises(Exception) as e:
        source.parse_program("return $")
    assert "1:8" in str(e.value)


PARSE_ERRORS = {
    "computation-type-operand": (
        "effect E : Unit -> (Unit ! {E})\nreturn unit",
        "1:20: expected a value type",
    ),
    "no-type": ("effect E : -> Unit\nreturn unit", "1:12: expected a type, found '->'"),
    "computation-domain": (
        "effect E : (Unit ! {E} -> Unit) -> Unit\nreturn unit",
        "1:13: function domain must be a value type",
    ),
    "bare-value": ("unit", "1:5: expected a computation, not a bare value, found 'end of input'"),
    "missing-word": ("let x = unit return x", "1:14: expected 'in', found 'return'"),
    "wrong-token-kind": ("let 5 = unit in return unit", "1:5: expected ident, found '5'"),
    "trailing-input": ("return unit unit", "1:13: trailing input, found 'unit'"),
}


@pytest.mark.parametrize("name", list(PARSE_ERRORS))
def test_parse_errors_name_the_position_and_what_was_expected(name):
    text, message = PARSE_ERRORS[name]
    with pytest.raises(ParseError) as e:
        source.parse_program(text)
    assert str(e.value) == message


# Each position where a program binds a variable, with `{w}` for its name.
BINDERS = {
    "let": "let {w} = unit in return unit",
    "fun": "return (fun {w} -> return unit)",
    "do": "do {w} <- return unit in return unit",
    "return-clause": "with handler {{ return {w} -> return unit }} handle (return unit)",
    "op-parameter": "effect E : Unit -> Unit\nwith handler {{ return x -> return x, E {w} k -> k unit }} handle (E unit)",
    "op-continuation": "effect E : Unit -> Unit\nwith handler {{ return x -> return x, E p {w} -> return p }} handle (E unit)",
}


@pytest.mark.parametrize("word", ["effect", "in"])
@pytest.mark.parametrize("position", list(BINDERS))
def test_a_reserved_word_names_no_variable(position, word):
    template = BINDERS[position]
    at = template.format(w="\0").index("\0")
    line = template.count("\n", 0, at) + 1
    col = at - template.rfind("\n", 0, at)
    with pytest.raises(ParseError) as e:
        source.parse_program(template.format(w=word))
    assert str(e.value) == f"{line}:{col}: expected a variable name, found reserved word {word!r}"
    source.parse_program(template.format(w="v"))


# Each position where a program reads a value, with `{w}` for it.
VALUES = {
    "return": "return {w}",
    "parenthesized": "return ({w})",
    "handler": "with {w} handle return unit",
}


@pytest.mark.parametrize("word", ["effect", "in", "handle"])
@pytest.mark.parametrize("position", list(VALUES))
def test_a_reserved_word_is_no_value(position, word):
    # `effect` used to read as an unbound variable here.
    template = VALUES[position]
    col = template.index("{w}") + 1
    with pytest.raises(ParseError) as e:
        source.parse_program(template.format(w=word))
    assert str(e.value) == f"1:{col}: expected a value, found {word!r}"
    source.parse_program(template.format(w="unit"))


def test_a_keyword_binder_is_rejected_input(tmp_path, capsys):
    # `effect` used to bind, but then could not be passed as an argument.
    path = tmp_path / "effect.eff"
    path.write_text("let f = fun x -> return x in let effect = unit in f effect\n")
    assert cli.main(["check", str(path)]) == 1
    assert capsys.readouterr().err == "error: 1:34: expected a variable name, found reserved word 'effect'\n"


# -- well-formedness ----------------------------------------------------------


def _env(sig=None):
    return Context(sig or Signature())


def test_wf_type_variable():
    sup = Supply()
    sk = sup.skel()
    a = sup.ty()
    env = _env().bind(sk).bind(a, sk)
    assert exeff.wf_vty(env, a) == sk


def test_wf_unit():
    assert exeff.wf_vty(_env(), T_UNIT) == SK_UNIT


def test_wf_arrow_against_skeleton_oracle():
    sig = Signature()
    sig.declare("Tick", T_UNIT, T_UNIT)
    ty = TArrow(T_UNIT, CompType(T_UNIT, dirt(["Tick"])))
    skel = exeff.wf_vty(_env(sig), ty)

    def skeleton_oracle(t):
        # Independent structural recursion over closed types.
        if isinstance(t, TBase):
            return SkelBase(t.base)
        if isinstance(t, TArrow):
            return SkelArrow(skeleton_oracle(t.dom), skeleton_oracle(t.cod.val))
        raise TypeError(t)

    assert skel == skeleton_oracle(ty) == SkelArrow(SK_UNIT, SK_UNIT)


def test_wf_dirt_cases():
    sig = Signature()
    sig.declare("Tick", T_UNIT, T_UNIT)
    sup = Supply()
    d = sup.dirt()
    env = _env(sig).bind(d)
    exeff.wf_dirt(env, EMPTY_DIRT)
    exeff.wf_dirt(env, dirt_add(["Tick"], dirt_var(d)))
    with pytest.raises(UnknownOperation):
        exeff.wf_dirt(env, dirt(["Bogus"]))
    with pytest.raises(WfError):
        exeff.wf_dirt(_env(sig), dirt_var(sup.dirt()))


def test_wf_constraint_rejects_skeleton_mismatch():
    sig = Signature()
    from effc.core import TySub

    with pytest.raises(WfError):
        exeff.wf(_env(sig), TySub(T_UNIT, TArrow(T_UNIT, CompType(T_UNIT, EMPTY_DIRT))))


def test_signature_types_must_be_closed():
    sig = Signature()
    sup = Supply()
    sig.declare("Bad", sup.ty(), T_UNIT)
    with pytest.raises(WfError):
        source.check_signature(sig)


# -- canonical dirts -----------------------------------------------------------


@given(st.lists(st.sampled_from(["Tick", "Tock", "Get"]), max_size=6))
def test_dirt_canonicalization_order_insensitive(ops):
    d1 = EMPTY_DIRT
    for op in ops:
        d1 = dirt_add([op], d1)
    d2 = EMPTY_DIRT
    for op in reversed(ops):
        d2 = dirt_add([op], d2)
    assert d1 == d2
    assert dirt_add(ops, d1) == d1  # idempotent


@given(st.permutations(["Op1", "Op2", "Op3"]))
def test_dirt_add_permutation(perm):
    assert dirt_add(perm, EMPTY_DIRT) == dirt(["Op1", "Op2", "Op3"])


# -- round trips ----------------------------------------------------------------


def test_parse_print_parse_roundtrip_random():
    rng = random.Random(7)
    for _ in range(60):
        sig, comp = random_program(rng, depth=3)
        text = show_program(sig, comp)
        sig2, comp2 = source.parse_program(text)
        assert alpha_eq(comp, comp2)
        text2 = show_program(sig2, comp2)
        sig3, comp3 = source.parse_program(text2)
        assert alpha_eq(comp2, comp3)


def test_parenthesized_computations():
    _, c = source.parse_program("do x <- (fun y -> return y) unit in return x")
    assert isinstance(c, source.SrcDo)
    _, c = source.parse_program("(do x <- return unit in return x)")
    assert isinstance(c, source.SrcDo)


def nested_application(d: int) -> str:
    """`W(d)` with `W(0) = return x` and `W(k) = ((fun x -> W(k-1)) x)`."""
    return "return x" if d == 0 else f"((fun x -> {nested_application(d - 1)}) x)"


def nested_bare_function(d: int) -> str:
    """A parenthesized function, `d` groups deep, that is never applied."""
    return "return (fun x -> " + "((fun x -> " * d + "return x" + "))" * d + ")"


@pytest.mark.parametrize(
    "body, error",
    [(nested_application, None), (nested_bare_function, "expected a computation, not a bare value")],
    ids=["W", "bare"],
)
def test_parenthesized_items_are_read_once(monkeypatch, body, error):
    # Each parenthesized item is parsed once, as a value or a computation,
    # so the parser reads each token once; reading a nested group again as
    # a computation after it failed as an application took time exponential
    # in the depth.
    reads = []
    real_next = lex.TokenStream.next

    def counted(ts):
        reads.append(None)
        return real_next(ts)

    monkeypatch.setattr(lex.TokenStream, "next", counted)
    for d in (10, 20, 40):
        text = f"let x = 1 in {body(d)}"
        reads.clear()
        if error is None:
            _, c = source.parse_program(text)
            assert isinstance(c, source.SrcLet)
        else:
            with pytest.raises(ParseError, match=error):
                source.parse_program(text)
        assert len(reads) < len(lex.tokenize(text)), d


# `f` applied in and around parentheses, with the application's span or the
# diagnostic.  A parenthesized value that is not applied to a well-formed
# value is reported at the `)` right after the value.
PARENTHESIZED = {
    "(f unit)": "1:31",
    "(f) unit": "1:30",
    "((f)) unit": "1:30",
    "((f) unit)": "1:31",
    "(((f) unit))": "1:32",
    "(f) (1": "1:32: expected a computation, not a bare value, found ')'",
    "(f) ": "1:32: expected a computation, not a bare value, found ')'",
    "((f))": "1:33: expected a computation, not a bare value, found ')'",
    "(((f)) (fun y -> return))": "1:34: expected a computation, not a bare value, found ')'",
    "(f return x)": "1:33: expected a computation, not a bare value, found 'return'",
    "((f) unit unit)": "1:40: expected ')', found 'unit'",
}


@pytest.mark.parametrize("body", list(PARENTHESIZED))
def test_parenthesized_applications_and_their_diagnostics(body):
    text = f"let f = fun x -> return x in {body}"
    expected = PARENTHESIZED[body]
    if ": " in expected:
        with pytest.raises(ParseError) as e:
            source.parse_program(text)
        assert str(e.value) == expected
    else:
        _, c = source.parse_program(text)
        assert isinstance(c.body, source.SrcApp) and str(c.body.span) == expected


def test_int_literal_switch():
    source.parse_program("return 5")


def test_wf_comp_type_companion():
    sig = Signature()
    sig.declare("Tick", T_UNIT, T_UNIT)
    cty = CompType(T_UNIT, dirt(["Tick"]))
    assert exeff.wf_vty(Context(sig), cty) == SK_UNIT


# A comment line, and an operation whose result is a handler: the clause
# resumes with a handler, which the body then uses to handle a computation.
HANDLER_RESULT_PROGRAM = """\
# GetH hands its caller a handler.
effect GetH : Unit -> (Unit => Unit)  # a handler type in a declaration
with handler { return x -> return x, GetH p k -> k (handler { return y -> return y }) }
handle (do h <- GetH unit in with h handle return unit)
"""


def test_comments_and_handler_types_in_effect_declarations():
    sig, _ = source.parse_program(HANDLER_RESULT_PROGRAM)
    pure_unit = CompType(T_UNIT, EMPTY_DIRT)
    assert sig.lookup("GetH").param == T_UNIT
    assert sig.lookup("GetH").result == THandler(pure_unit, pure_unit)
    assert show_src_type(sig.lookup("GetH").result) == "(Unit => Unit)"
    report = pipeline.differential_check_text(HANDLER_RESULT_PROGRAM)
    assert report.agreement, report.failure
    assert {b: str(o) for b, o in report.observations.items()} == dict.fromkeys(
        ("exeff", "skeleff", "noeff"), "return unit"
    )
