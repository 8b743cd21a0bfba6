"""Tokeniser for the Mosaic SQL dialect.

Supports:

- identifiers / keywords (case-insensitive keywords; identifiers keep case),
- integer and float literals (``42``, ``3.14``, ``1e-7``, ``.5``),
- single-quoted string literals with ``''`` escaping,
- operators ``= != <> < <= > >= + - * / %``,
- punctuation ``( ) , ;`` and ``*``,
- ``--`` line comments.

One compiled pattern scans a lexeme at a time.  Right after ``VALUES`` a
second one matches every well-formed row at once, emitted as one ``ROWS``
token carrying the decoded rows; whatever it does not match lexes token by
token, so malformed INSERTs fail as before (ARCHITECTURE.md §1).
"""

from __future__ import annotations

import re
from typing import Any

from repro.errors import SqlSyntaxError
from repro.sql.tokens import KEYWORDS, Token, TokenType

# ``\d`` is a Unicode *decimal* digit, exactly what int() and float() accept.
_NUMBER = r"(?>\d+(?:\.\d*)?|\.\d+)(?>[eE][+-]?\d+)?"
_STRING = r"'(?:[^']|'')*+'"
_SKIP = r"(?:[ \t\r\n]|--[^\n]*)*+"

_TOKEN = re.compile(
    r"(?P<skip>[ \t\r\n]+|--[^\n]*)"
    rf"|(?P<number>{_NUMBER})"
    r"|(?P<word>[^\W\d]\w*)"
    rf"|(?P<string>{_STRING})"
    r"|(?P<operator>!=|<>|<=|>=|[=<>+\-/%])"
    r"|(?P<punct>[(),;*])"
)

_LITERAL = rf"(?:-{_SKIP}{_NUMBER}|{_NUMBER}|{_STRING}|(?i:true|false)(?!\w))"
_ROW = rf"\({_SKIP}{_LITERAL}(?:{_SKIP},{_SKIP}{_LITERAL})*+{_SKIP}\)"
_ROWS = re.compile(rf"{_ROW}(?:{_SKIP},{_SKIP}{_ROW})*+")

# The items of a span _ROWS matched, each with the separators before it: a
# signed number, a string, a TRUE/FALSE word, or the ``)`` closing a row.
_ROW_ITEM = re.compile(
    rf"(?:[ \t\r\n,(]|--[^\n]*)*+(?:(-?){_SKIP}({_NUMBER})|({_STRING})|(\w+)|(\)))"
)

_PUNCTUATION = {
    "(": TokenType.LPAREN, ")": TokenType.RPAREN, ",": TokenType.COMMA,
    ";": TokenType.SEMICOLON, "*": TokenType.STAR,
}
_VALUES = (TokenType.KEYWORD, "VALUES")


def tokenize(text: str) -> list[Token]:
    """Lex ``text`` into tokens, ending with a single EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    line, line_start = 1, 0  # line_start: offset of the current line's first char
    pos, n = 0, len(text)

    while pos < n:
        m = match(text, pos)
        column = pos - line_start + 1
        if m is None:
            char = text[pos]
            if char == "'":
                raise SqlSyntaxError("unterminated string literal", line, column)
            raise SqlSyntaxError(f"unexpected character {char!r}", line, column)
        kind = m.lastgroup
        end = m.end()

        if kind == "word":
            word = m.group()
            if not (word[0].isalpha() or word[0] == "_"):
                # A non-decimal digit such as '²': int() would reject it.
                raise SqlSyntaxError(f"unexpected character {word[0]!r}", line, column)
            upper = word.upper()
            if upper in KEYWORDS:
                append(Token(TokenType.KEYWORD, upper, line, column))
            else:
                append(Token(TokenType.IDENT, word, line, column))
        elif kind == "number":
            append(Token(TokenType.NUMBER, m.group(), line, column))
        elif kind == "operator":
            append(Token(TokenType.OPERATOR, m.group(), line, column))
        elif kind == "punct":
            char = m.group()
            rows = _scan_rows(text, pos) if tokens and tokens[-1][:2] == _VALUES else None
            if rows is None:
                append(Token(_PUNCTUATION[char], char, line, column))
            else:
                end, values = rows
                append(Token(TokenType.ROWS, values, line, column))
        elif kind == "string":
            append(Token(TokenType.STRING, _unquote(m.group()), line, column))

        if kind == "skip" or kind == "string" or kind == "punct":  # may span lines
            newline = text.rfind("\n", pos, end)
            if newline >= 0:
                line += text.count("\n", pos, end)
                line_start = newline + 1
        pos = end

    tokens.append(Token(TokenType.EOF, "", line, pos - line_start + 1))
    return tokens


def _scan_rows(text: str, pos: int) -> tuple[int, tuple[tuple[Any, ...], ...]] | None:
    """``(end, rows)`` for the well-formed rows starting at ``text[pos]``."""
    matched = _ROWS.match(text, pos)
    if matched is None:
        return None
    rows: list[tuple[Any, ...]] = []
    row: list[Any] = []
    for sign, number, string, word, close in _ROW_ITEM.findall(text, pos, matched.end()):
        if number:
            value = parse_number(number)
            row.append(-value if sign else value)
        elif string:
            row.append(_unquote(string))
        elif close:
            rows.append(tuple(row))
            row = []
        elif word:
            # Every character (?i:true|false) accepts (ſ included) upper-cases
            # to its ASCII letter, so this agrees with the keyword table.
            row.append(word.upper() == "TRUE")
    return matched.end(), tuple(rows)


def _unquote(lexeme: str) -> str:
    return lexeme[1:-1].replace("''", "'")


def parse_number(text: str) -> int | float:
    """The value of a NUMBER lexeme: a float if it has a point or exponent."""
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)
