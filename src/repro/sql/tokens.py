"""Token definitions for the Mosaic SQL lexer."""

from __future__ import annotations

import enum
from typing import Any, NamedTuple


class TokenType(enum.Enum):
    KEYWORD = "KEYWORD"
    IDENT = "IDENT"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"  # = != <> < <= > >= + - * / %
    LPAREN = "LPAREN"
    RPAREN = "RPAREN"
    COMMA = "COMMA"
    SEMICOLON = "SEMICOLON"
    STAR = "STAR"  # '*' (doubles as multiplication; parser disambiguates)
    ROWS = "ROWS"  # a whole INSERT ... VALUES row list; value = tuple of row tuples
    EOF = "EOF"


# Keywords are uppercased by the lexer; identifiers keep their original case.
KEYWORDS = frozenset(
    [
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT", "AS",
        "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE", "ASC", "DESC",
        "CREATE", "TABLE", "TEMPORARY", "INSERT", "INTO", "VALUES",
        "POPULATION", "GLOBAL", "SAMPLE", "METADATA", "FOR",
        "USING", "MECHANISM", "PERCENT", "UNIFORM", "STRATIFIED", "ON",
        "CLOSED", "OPEN", "SEMI",
        "UPDATE", "SET", "WEIGHT", "DROP",
        "COUNT", "SUM", "AVG", "MIN", "MAX",
        "TRUE", "FALSE",
        "DISTINCT",
        "EXPLAIN", "ANALYZE",
    ]
)


class Token(NamedTuple):
    """A lexed token with its 1-based source position."""

    type: TokenType
    value: Any  # the lexeme as a str; a ROWS token carries the decoded rows
    line: int
    column: int

    def matches_keyword(self, *keywords: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in keywords

    def __repr__(self) -> str:
        return f"{self.type.value}({self.value!r})@{self.line}:{self.column}"
