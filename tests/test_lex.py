"""The tokenizer: the master regex that lexes ASCII text agrees with the
character loop that defines the token classes."""

import random

import pytest

from conftest import TESTS
from effc import lex, source
from effc.core import LexError, ParseError


def outcome(tokenize, text):
    """The tokens of `text`, or the error message and span."""
    try:
        return tokenize(text)
    except LexError as e:
        return str(e), e.span


def test_every_test_program_lexes_alike_both_ways():
    paths = sorted(TESTS.rglob("*.eff"))
    assert len(paths) >= 46
    for path in paths:
        text = path.read_text()
        assert text.isascii(), path.name
        assert outcome(lex._tokenize_ascii, text) == outcome(lex._tokenize_chars, text), path.name


# Every token class, blanks, comments, and characters outside the alphabet:
# `-` alone, `$`, a vertical tab and the form feed.
ALPHABET = [
    *lex._SYMBOLS, "-", "-1", "0", "42", "x", "x1", "_", "_y", "Tick", "T_2", "let", "in",
    " ", "  ", "\t", "\r", "\n", "# note", "#", "$", "\x0b", "\x0c",
]


def test_random_strings_lex_alike_both_ways():
    rng = random.Random(2)
    errors = 0
    for _ in range(10_000):
        text = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 12)))
        ascii_way = outcome(lex._tokenize_ascii, text)
        assert ascii_way == outcome(lex._tokenize_chars, text), repr(text)
        errors += isinstance(ascii_way, tuple)
    assert 1_000 < errors < 9_000  # both outcomes are well represented


def test_the_end_of_input_column_skips_a_trailing_comment():
    for text in ("x  # c", "x\t\n  ", "", "\n\n# c"):
        assert lex.tokenize(text)[-1] == lex._tokenize_chars(text)[-1]
    assert str(lex.tokenize("x  # c")[-1].span) == "1:4"


def test_non_ascii_digits_and_letters_follow_the_character_classes():
    (num, _) = lex.tokenize("²")
    assert (num.kind, num.text) == ("int", "²")
    with pytest.raises(ParseError, match="not a valid integer literal"):
        source.parse_program("return ²")
    (word, _) = lex.tokenize("x²")
    assert (word.kind, word.text) == ("ident", "x²")
    for text in ("½", "Ⅻ"):
        with pytest.raises(LexError, match="unexpected character"):
            lex.tokenize(f"return {text}")


def test_peeking_past_the_end_reads_the_end_of_input():
    ts = lex.TokenStream(lex.tokenize("x"))
    assert ts.next().text == "x"
    assert ts.peek().kind == ts.peek(1).kind == "eof"
