"""Tokenizer shared by the source parser and the dump notation in `display`,
which tokenizes both its templates and the dumps it reads back."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import LexError, ParseError, Span

# Multi-character symbols must precede their prefixes.
_SYMBOLS = [
    "|>", "->", "=>", "<=", "<-", "(", ")", "{", "}", "[", "]",
    "<", ">", ",", ";", ".", ":", "|", "!", "=", "@", "+",
]


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "uident" | "int" | "sym" | "eof"
    text: str
    span: Span


def tokenize(text: str) -> list:
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
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

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
