"""Tokenizer shared by the source parser, the dump notation in `display`,
which tokenizes its templates, and the dump reader in `readers`.

ASCII text, which is every program and dump in practice, is tokenized by
one compiled master regex.  Other text goes through a character loop, which
defines the token classes by Python's `str.isdigit` and `str.isalpha`, so
that it takes digits and letters outside ASCII (`²` is an `int` token that
`int_literal` rejects; `x²` is one identifier).  On ASCII text the two give
the same tokens, spans and errors.  Tokens are nodes (`core.node`), never
changed once built."""

from __future__ import annotations

import re
from typing import Optional

from .core import LexError, ParseError, Span, node

# Multi-character symbols must precede their prefixes.
_SYMBOLS = [
    "|>", "->", "=>", "<=", "<-", "(", ")", "{", "}", "[", "]",
    "<", ">", ",", ";", ".", ":", "|", "!", "=", "@", "+",
]


@node
class Token:
    kind: str  # "ident" | "uident" | "int" | "sym" | "eof"
    text: str
    span: Span


# One alternative per token class, after any blanks: a newline, a comment,
# an int, an upper- or lower-case word, a symbol, or any other character;
# trailing blanks match nothing.
_MASTER = re.compile(
    r"[ \t\r]*(?:(\n)|(#[^\n]*)|(-?[0-9]+)|([A-Z][A-Za-z0-9_]*)|([a-z_][A-Za-z0-9_]*)|("
    + "|".join(map(re.escape, _SYMBOLS))
    + r")|([^ \t\r\n]))"
)
_KINDS = (None, None, None, "int", "uident", "ident", "sym")


def tokenize(text: str) -> list:
    """The tokens of `text`, ending with one `eof` token."""
    return _tokenize_ascii(text) if text.isascii() else _tokenize_chars(text)


def _tokenize_ascii(text: str) -> list:
    toks = []
    line, start = 1, 0  # `start`: the offset of the line's first character
    end = len(text)  # where the end of input is, for its column
    for m in _MASTER.finditer(text):
        k = m.lastindex
        if k == 1:
            line, start, end = line + 1, m.end(), len(text)
        elif k == 2:
            end = m.start(2)  # a comment runs to the line's end and takes no column
        elif k == 7:
            raise LexError(f"unexpected character {m[7]!r}", Span(line, m.start(7) - start + 1))
        else:
            toks.append(Token(_KINDS[k], m[k], Span(line, m.start(k) - start + 1)))
    toks.append(Token("eof", "", Span(line, end - start + 1)))
    return toks


def _tokenize_chars(text: str) -> list:
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        span = Span(line, col)
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], span))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "uident" if word[0].isupper() else "ident"
            toks.append(Token(kind, word, span))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Token("sym", sym, span))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", span)
    toks.append(Token("eof", "", Span(line, col)))
    return toks


def int_literal(tok: Token) -> int:
    """The value of an `int` token.  The tokenizer takes any Unicode digit,
    and Python reads neither every digit nor a literal of more than 4,300
    digits, so either raises ParseError."""
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError("not a valid integer literal", tok.span) from None


class TokenStream:
    def __init__(self, toks: list):
        self.toks = toks
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        try:
            return self.toks[self.pos + ahead]
        except IndexError:  # past the end: the `eof` token
            return self.toks[-1]

    def next(self) -> Token:
        t = self.peek()
        if t.kind != "eof":
            self.pos += 1
        return t

    def at_sym(self, *texts: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text in texts

    def at_word(self, *words: str) -> bool:
        t = self.peek()
        return t.kind in ("ident", "uident") and t.text in words

    def eat_sym(self, text: str) -> Token:
        t = self.peek()
        if t.kind != "sym" or t.text != text:
            raise self.error(f"expected {text!r}")
        return self.next()

    def eat_word(self, word: str) -> Token:
        t = self.peek()
        if t.kind not in ("ident", "uident") or t.text != word:
            raise self.error(f"expected {word!r}")
        return self.next()

    def eat_kind(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise self.error(f"expected {kind}")
        return self.next()

    def expect_eof(self) -> None:
        if self.peek().kind != "eof":
            raise self.error("trailing input")

    def error(self, msg: str, span: Optional[Span] = None):
        t = self.peek()
        got = t.text or "end of input"
        return ParseError(f"{msg}, found {got!r}", span or t.span)
