"""Reference implementations for the SQL scanner tests.

The per-character lexer and the token-by-token ``VALUES`` parser that the
compiled scanner (:mod:`repro.sql.lexer`) replaced, kept verbatim as the
oracle for ``tests/sql/test_scanner_oracle.py``: the scanner must produce
the same tokens (its row-list token standing for the tokens it replaces),
the same AST and the same errors at the same positions.
"""

from __future__ import annotations

from typing import Any

from repro.errors import SqlSyntaxError
from repro.sql.ast_nodes import Insert, Statement
from repro.sql.parser import _Parser
from repro.sql.tokens import KEYWORDS, Token, TokenType

_OPERATOR_CHARS = frozenset("=!<>+-/%")


def tokenize(text: str) -> list[Token]:
    """Lex ``text`` into tokens, ending with a single EOF token."""
    tokens: list[Token] = []
    line, column = 1, 1
    i, n = 0, len(text)

    def advance(count: int) -> None:
        nonlocal i, line, column
        for _ in range(count):
            if i < n and text[i] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            i += 1

    while i < n:
        char = text[i]

        if char in " \t\r\n":
            advance(1)
            continue

        if char == "-" and i + 1 < n and text[i + 1] == "-":
            while i < n and text[i] != "\n":
                advance(1)
            continue

        start_line, start_column = line, column

        if char == "'":
            value, length = _read_string(text, i, start_line, start_column)
            tokens.append(Token(TokenType.STRING, value, start_line, start_column))
            advance(length)
            continue

        if char.isdigit() or (char == "." and i + 1 < n and text[i + 1].isdigit()):
            value, length = _read_number(text, i)
            tokens.append(Token(TokenType.NUMBER, value, start_line, start_column))
            advance(length)
            continue

        if char.isalpha() or char == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, start_line, start_column))
            else:
                tokens.append(Token(TokenType.IDENT, word, start_line, start_column))
            advance(j - i)
            continue

        if char == "(":
            tokens.append(Token(TokenType.LPAREN, "(", start_line, start_column))
            advance(1)
            continue
        if char == ")":
            tokens.append(Token(TokenType.RPAREN, ")", start_line, start_column))
            advance(1)
            continue
        if char == ",":
            tokens.append(Token(TokenType.COMMA, ",", start_line, start_column))
            advance(1)
            continue
        if char == ";":
            tokens.append(Token(TokenType.SEMICOLON, ";", start_line, start_column))
            advance(1)
            continue
        if char == "*":
            tokens.append(Token(TokenType.STAR, "*", start_line, start_column))
            advance(1)
            continue

        if char in _OPERATOR_CHARS:
            two = text[i : i + 2]
            if two in ("!=", "<>", "<=", ">="):
                tokens.append(Token(TokenType.OPERATOR, two, start_line, start_column))
                advance(2)
                continue
            if char == "!":
                raise SqlSyntaxError("unexpected character '!'", start_line, start_column)
            tokens.append(Token(TokenType.OPERATOR, char, start_line, start_column))
            advance(1)
            continue

        raise SqlSyntaxError(f"unexpected character {char!r}", start_line, start_column)

    tokens.append(Token(TokenType.EOF, "", line, column))
    return tokens


def _read_string(text: str, start: int, line: int, column: int) -> tuple[str, int]:
    """Read a single-quoted string starting at ``text[start]``.

    Returns ``(value, consumed_length)``; ``''`` inside the string is an
    escaped quote.
    """
    i = start + 1
    n = len(text)
    out: list[str] = []
    while i < n:
        char = text[i]
        if char == "'":
            if i + 1 < n and text[i + 1] == "'":
                out.append("'")
                i += 2
                continue
            return "".join(out), i - start + 1
        out.append(char)
        i += 1
    raise SqlSyntaxError("unterminated string literal", line, column)


def _read_number(text: str, start: int) -> tuple[str, int]:
    """Read a numeric literal. Supports ``123``, ``1.5``, ``.5``, ``1e-7``."""
    i = start
    n = len(text)
    while i < n and text[i].isdigit():
        i += 1
    if i < n and text[i] == ".":
        i += 1
        while i < n and text[i].isdigit():
            i += 1
    if i < n and text[i] in "eE":
        j = i + 1
        if j < n and text[j] in "+-":
            j += 1
        if j < n and text[j].isdigit():
            i = j
            while i < n and text[i].isdigit():
                i += 1
    return text[start:i], i - start


class _OracleParser(_Parser):
    """The production parser with the token-by-token ``VALUES`` parser."""

    def _parse_insert(self) -> Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_name()
        self.expect_keyword("VALUES")
        rows = [self._parse_value_row()]
        while self.accept(TokenType.COMMA):
            rows.append(self._parse_value_row())
        return Insert(table=table, rows=tuple(rows))

    def _parse_value_row(self) -> tuple[Any, ...]:
        self.expect(TokenType.LPAREN)
        values = [self._parse_literal_value()]
        while self.accept(TokenType.COMMA):
            values.append(self._parse_literal_value())
        self.expect(TokenType.RPAREN)
        return tuple(values)

    def _parse_literal_value(self) -> Any:
        negative = self.accept(TokenType.OPERATOR, "-") is not None
        token = self.current
        if token.type is TokenType.NUMBER:
            self.advance()
            value = _parse_number(token.value)
            return -value if negative else value
        if negative:
            raise SqlSyntaxError("expected a number after '-'", token.line, token.column)
        if token.type is TokenType.STRING:
            self.advance()
            return token.value
        if token.matches_keyword("TRUE"):
            self.advance()
            return True
        if token.matches_keyword("FALSE"):
            self.advance()
            return False
        raise SqlSyntaxError(
            f"expected a literal value, found {token.value!r}", token.line, token.column
        )


def _parse_number(text: str) -> int | float:
    if any(c in text for c in ".eE"):
        return float(text)
    return int(text)


def parse_statement(text: str) -> Statement:
    """Parse a single SQL statement."""
    parser = _OracleParser(tokenize(text), text=text)
    statement = parser.parse_statement()
    parser.accept(TokenType.SEMICOLON)
    parser.expect(TokenType.EOF)
    return statement


def parse_script(text: str) -> list[Statement]:
    """Parse a ``;``-separated script into a list of statements."""
    parser = _OracleParser(tokenize(text), text=text)
    statements: list[Statement] = []
    while not parser.at(TokenType.EOF):
        statements.append(parser.parse_statement())
        if not parser.accept(TokenType.SEMICOLON):
            break
    parser.expect(TokenType.EOF)
    return statements
