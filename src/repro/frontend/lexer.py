"""Lexer for the C subset: a regex scanner over hand-written token producers."""

from __future__ import annotations

import re
from typing import List, Optional

from repro.frontend.errors import LexError, SourceLocation
from repro.frontend.preprocessor import PRAGMA_MARKER
from repro.frontend.tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    SINGLE_CHAR_OPERATORS,
    Token,
    TokenKind,
)

_DIGITS = "0123456789"
_WHITESPACE = " \t\r\n\f\v"

#: One :meth:`Lexer.tokenize` step: leading whitespace, then an identifier or
#: keyword, a plain decimal integer, or an operator (maximal munch: the
#: alternation keeps ``MULTI_CHAR_OPERATORS``' longest-first order).  What it
#: declines goes to :meth:`Lexer.next_token` — the pragma marker, ``.`` (it
#: may start a float), and any digit run a ``.``, exponent, ``x`` or suffix
#: could extend.
_SCAN = re.compile(
    "[%s]*(?:(?P<word>(?!%s(?![A-Za-z0-9_]))[A-Za-z_][A-Za-z0-9_]*)"
    "|(?P<integer>[0-9]+)(?![0-9.eExXuUlL])|(?P<operator>%s))"
    % (
        _WHITESPACE,
        PRAGMA_MARKER,
        "|".join(
            re.escape(text)
            for text in [text for text, _ in MULTI_CHAR_OPERATORS]
            + [text for text in SINGLE_CHAR_OPERATORS if text != "."]
        ),
    )
)
_OPERATOR_KINDS = {**dict(MULTI_CHAR_OPERATORS), **SINGLE_CHAR_OPERATORS}


class Lexer:
    """Converts preprocessed source text into a list of :class:`Token`.

    The lexer expects comments to already be stripped and pragmas to be
    rewritten as ``__REPRO_PRAGMA__("...");`` by the preprocessor; it turns
    those markers back into first-class ``PRAGMA`` tokens so the parser can
    attach them to the following loop.

    :meth:`next_token` lexes one token a character at a time and defines the
    token stream.  :meth:`tokenize` produces the same stream — kinds, texts,
    values, locations, errors — taking identifiers, plain integers and
    operators with one regex match each and everything else (floats, hex,
    suffixes, ``.``, quotes, pragma markers, EOF, errors, and every token of
    a source with non-ASCII characters, where ``str.isalpha`` and
    ``[A-Za-z]`` disagree) from :meth:`next_token`.
    """

    def __init__(self, source: str, filename: str = "<source>"):
        self.source = source
        self.filename = filename
        self.position = 0
        self.line = 1
        self.column = 1

    # -- public API ---------------------------------------------------------

    def tokenize(self) -> List[Token]:
        source, filename = self.source, self.filename
        scan = _SCAN.match if source.isascii() else _decline
        tokens: List[Token] = []
        position, line, column = self.position, self.line, self.column
        while True:
            match = scan(source, position)
            if match is None:
                self.position, self.line, self.column = position, line, column
                token = self.next_token()
                tokens.append(token)
                if token.kind == TokenKind.EOF:
                    return tokens
                position, line, column = self.position, self.line, self.column
                continue
            kind = match.lastgroup
            blank_start = position
            start, position = match.span(kind)
            if start != blank_start:
                blank = source[blank_start:start]
                newlines = blank.count("\n")
                if newlines:
                    line += newlines
                    column = len(blank) - blank.rfind("\n")
                else:
                    column += len(blank)
            text = source[start:position]
            location = SourceLocation(line, column, filename)
            column += len(text)
            if kind == "word":
                word = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
                tokens.append(Token(word, text, location, text))
            elif kind == "integer":
                tokens.append(Token(TokenKind.INT_LITERAL, text, location, int(text, 10)))
            else:
                tokens.append(Token(_OPERATOR_KINDS[text], text, location))

    def next_token(self) -> Token:
        self._skip_whitespace()
        if self.position >= len(self.source):
            return Token(TokenKind.EOF, "", self._location())
        location = self._location()
        ch = self._peek()

        if ch.isalpha() or ch == "_":
            return self._lex_identifier(location)
        # Not str.isdigit(): it accepts non-ASCII digits ("²", "٣") that
        # int() rejects or silently decodes.
        if ch in _DIGITS or (ch == "." and self._peek_in(_DIGITS, 1)):
            return self._lex_number(location)
        if ch == "'":
            return self._lex_char(location)
        if ch == '"':
            return self._lex_string(location)
        return self._lex_operator(location)

    # -- character helpers --------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        index = self.position + offset
        return self.source[index] if index < len(self.source) else ""

    def _advance(self, count: int = 1) -> str:
        text = self.source[self.position : self.position + count]
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.position += count
        return text

    def _location(self) -> SourceLocation:
        return SourceLocation(self.line, self.column, self.filename)

    def _peek_in(self, chars: str, offset: int = 0) -> bool:
        # Guard against EOF: ``"" in chars`` is always True, so a bare
        # membership test on ``_peek()`` spins forever at end of input.
        ch = self._peek(offset)
        return bool(ch) and ch in chars

    def _skip_whitespace(self) -> None:
        while self.position < len(self.source) and self._peek() in _WHITESPACE:
            self._advance()

    # -- token producers ----------------------------------------------------

    def _lex_identifier(self, location: SourceLocation) -> Token:
        start = self.position
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.source[start : self.position]
        if text == PRAGMA_MARKER:
            return self._lex_pragma_marker(location)
        if text in KEYWORDS:
            return Token(TokenKind.KEYWORD, text, location, text)
        return Token(TokenKind.IDENTIFIER, text, location, text)

    def _lex_pragma_marker(self, location: SourceLocation) -> Token:
        # Expect: ("pragma body");  — produced by the preprocessor.
        self._skip_whitespace()
        if self._peek() != "(":
            raise LexError("malformed pragma marker", location)
        self._advance()
        self._skip_whitespace()
        if self._peek() != '"':
            raise LexError("malformed pragma marker", location)
        self._advance()
        start = self.position
        while self._peek() not in ('"', ""):
            self._advance()
        body = self.source[start : self.position]
        if self._peek() != '"':
            raise LexError("unterminated pragma marker", location)
        self._advance()
        self._skip_whitespace()
        if self._peek() == ")":
            self._advance()
        self._skip_whitespace()
        if self._peek() == ";":
            self._advance()
        return Token(TokenKind.PRAGMA, body, location, body)

    def _lex_number(self, location: SourceLocation) -> Token:
        start = self.position
        is_float = False
        if self._peek() == "0" and self._peek_in("xX", 1):
            self._advance(2)
            digits_start = self.position
            while self._peek_in("0123456789abcdefABCDEF"):
                self._advance()
            if self.position == digits_start:
                raise LexError("hexadecimal literal requires digits", location)
            text = self.source[start : self.position]
            self._skip_integer_suffix()
            return Token(TokenKind.INT_LITERAL, text, location, int(text, 16))
        while self._peek_in(_DIGITS):
            self._advance()
        if self._peek() == "." and self._peek(1) != ".":
            is_float = True
            self._advance()
            while self._peek_in(_DIGITS):
                self._advance()
        if self._peek_in("eE") and (
            self._peek_in(_DIGITS, 1)
            or (self._peek_in("+-", 1) and self._peek_in(_DIGITS, 2))
        ):
            is_float = True
            self._advance()
            if self._peek_in("+-"):
                self._advance()
            while self._peek_in(_DIGITS):
                self._advance()
        text = self.source[start : self.position]
        if is_float:
            if self._peek_in("fFlL"):
                self._advance()
            return Token(TokenKind.FLOAT_LITERAL, text, location, float(text))
        self._skip_integer_suffix()
        return Token(TokenKind.INT_LITERAL, text, location, int(text, 10))

    def _skip_integer_suffix(self) -> None:
        while self._peek_in("uUlL"):
            self._advance()

    def _lex_char(self, location: SourceLocation) -> Token:
        self._advance()  # opening quote
        escaped = self._peek() == "\\"
        if escaped:
            self._advance()
        ch = self._advance()
        if not ch:  # end of input: ord("") is a TypeError, not a diagnostic
            raise LexError("unterminated character literal", location)
        value = ord(ch)
        if escaped:
            escapes = {"n": 10, "t": 9, "0": 0, "r": 13, "\\": 92, "'": 39, '"': 34}
            value = escapes.get(ch, value)
        if self._peek() != "'":
            raise LexError("unterminated character literal", location)
        self._advance()
        return Token(TokenKind.CHAR_LITERAL, f"'{chr(value)}'", location, value)

    def _lex_string(self, location: SourceLocation) -> Token:
        self._advance()  # opening quote
        chars: List[str] = []
        while self._peek() not in ('"', ""):
            if self._peek() == "\\":
                self._advance()
                escape = self._advance()
                escapes = {"n": "\n", "t": "\t", "0": "\0", "\\": "\\", '"': '"'}
                chars.append(escapes.get(escape, escape))
            else:
                chars.append(self._advance())
        if self._peek() != '"':
            raise LexError("unterminated string literal", location)
        self._advance()
        text = "".join(chars)
        return Token(TokenKind.STRING_LITERAL, text, location, text)

    def _lex_operator(self, location: SourceLocation) -> Token:
        for text, kind in MULTI_CHAR_OPERATORS:
            if self.source.startswith(text, self.position):
                self._advance(len(text))
                return Token(kind, text, location)
        ch = self._peek()
        kind: Optional[TokenKind] = SINGLE_CHAR_OPERATORS.get(ch)
        if kind is None:
            raise LexError(f"unexpected character {ch!r}", location)
        self._advance()
        return Token(kind, ch, location)


def _decline(source: str, position: int) -> None:
    """Stands in for ``_SCAN.match`` on a source it must not scan."""
    return None


def tokenize(source: str, filename: str = "<source>") -> List[Token]:
    """Tokenize preprocessed source text."""
    return Lexer(source, filename).tokenize()
