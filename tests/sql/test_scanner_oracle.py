"""Differential tests: the compiled scanner against the per-character lexer.

``tests/sql/oracles.py`` keeps the lexer and ``VALUES`` parser the scanner
replaced.  For generated INSERT texts, their mutants, scripts mixing
INSERTs with SELECTs, and arbitrary text, both sides must agree on

- the token stream as ``(type, value, line, column)``, with the scanner's
  single ROWS token standing for the row-list tokens it replaces,
- the AST (and its pickle, which is what a WAL record stores),
- or the exception: type, message, line and column.

The one documented difference is a non-decimal digit such as ``²``: the
old lexer read it as part of a NUMBER and ``int()`` then raised a bare
``ValueError``; the scanner raises :class:`SqlSyntaxError` at it.
"""

from __future__ import annotations

import importlib.util
import os
import pickle
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import MosaicDB
from repro.errors import SqlSyntaxError
from repro.sql.lexer import tokenize
from repro.sql.parser import parse_script, parse_statement
from repro.sql.tokens import TokenType
from repro.storage.store import WAL_NAME
from repro.storage.wal import WriteAheadLog

# Loaded by path: other test directories have an ``oracles`` module too.
_spec = importlib.util.spec_from_file_location(
    "sql_oracles", Path(__file__).with_name("oracles.py")
)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)


def _outcome(fn, text):
    """``("ok", value)`` or ``("error", type, message, line, column)``."""
    try:
        return ("ok", fn(text))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return (
            "error",
            type(exc),
            str(exc),
            getattr(exc, "line", None),
            getattr(exc, "column", None),
        )


def _has_non_decimal_digit(text: str) -> bool:
    return any(char.isdigit() and not char.isdecimal() for char in text)


def _expanded(tokens, reference):
    """``tokens`` as ``(type, value, line, column)``, each ROWS token
    replaced by the ``reference`` tokens it covers — after checking that
    those tokens are complete rows that parse to exactly its rows."""
    out = []
    for index, token in enumerate(tokens):
        if token.type is not TokenType.ROWS:
            out.append(tuple(token))
            continue
        start = (token.line, token.column)
        stop = (tokens[index + 1].line, tokens[index + 1].column)
        covered = [t for t in reference if start <= (t.line, t.column) < stop]
        assert covered[0].type is TokenType.LPAREN and covered[-1].type is TokenType.RPAREN
        parser = oracles._OracleParser(covered + [reference[-1]])
        rows = [parser._parse_value_row()]
        while parser.accept(TokenType.COMMA):
            rows.append(parser._parse_value_row())
        assert parser.at(TokenType.EOF), "a ROWS token ends inside a row"
        assert tuple(rows) == token.value
        assert [type(v) for row in rows for v in row] == [
            type(v) for row in token.value for v in row
        ]
        out.extend(tuple(t) for t in covered)
    return out


def assert_same_tokens(text: str) -> None:
    new = _outcome(tokenize, text)
    old = _outcome(oracles.tokenize, text)
    if new[0] == "ok" and old[0] == "ok":
        assert _expanded(new[1], old[1]) == [tuple(t) for t in old[1]]
    else:
        assert new == old


def assert_same_parse(text: str, script: bool = False) -> None:
    new = _outcome(parse_script if script else parse_statement, text)
    old = _outcome(oracles.parse_script if script else oracles.parse_statement, text)
    if new[0] == "ok" and old[0] == "ok":
        # Expression nodes compare by identity; their pickles (what a WAL
        # record stores) compare the whole tree, types and sharing included.
        assert pickle.dumps(new[1], pickle.HIGHEST_PROTOCOL) == pickle.dumps(
            old[1], pickle.HIGHEST_PROTOCOL
        )
    else:
        assert new == old


def assert_agrees(text: str, script: bool = False) -> None:
    if _has_non_decimal_digit(text):
        assert_documented_difference(text, script)
        return
    assert_same_tokens(text)
    assert_same_parse(text, script)


def assert_documented_difference(text: str, script: bool) -> None:
    """With a non-decimal digit in the text the scanner may differ from the
    oracle, but only by raising a typed syntax error."""
    outcome = _outcome(parse_script if script else parse_statement, text)
    assert outcome[0] == "ok" or outcome[1] is SqlSyntaxError


# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #

_SEPARATORS = ["", " ", "  ", "\t", "\r", "\n", "\r\n", "-- note\n", " -- it's (1, 'x')\n", "--\n"]
separator = st.lists(st.sampled_from(_SEPARATORS), max_size=3).map("".join)
digits = st.text(alphabet="0123456789", min_size=1, max_size=6)


@st.composite
def number_text(draw):
    """Every NUMBER shape, including edges that split into two tokens."""
    whole = draw(digits)
    fraction = draw(st.text(alphabet="0123456789", max_size=4))
    shape = draw(
        st.sampled_from(
            ["int", "point", "trailing_point", "leading_point", "exponent", "bare_e",
             "big", "other_script"]
        )
    )
    if shape == "int":
        return whole
    if shape == "point":
        return f"{whole}.{fraction or '0'}"
    if shape == "trailing_point":
        return f"{whole}."
    if shape == "leading_point":
        return f".{fraction or '5'}"
    if shape == "exponent":
        mark = draw(st.sampled_from(["e", "E"]))
        sign = draw(st.sampled_from(["", "+", "-"]))
        mantissa = whole + draw(st.sampled_from(["", ".", "." + (fraction or "0")]))
        return f"{mantissa}{mark}{sign}{draw(digits)}"
    if shape == "bare_e":
        return draw(st.sampled_from([f"{whole}e", f"{whole}E+", f"{whole}.e-"]))
    if shape == "big":
        return str(draw(st.integers(min_value=2**53, max_value=2**70)))
    return draw(st.sampled_from(["٣", "٤٢", "१०", "٣.٥"]))


@st.composite
def string_text(draw):
    body = draw(st.text(alphabet=st.sampled_from(list("ab '\n\t-(),;é\\")), max_size=8))
    return "'" + body.replace("'", "''") + "'"


@st.composite
def bool_text(draw):
    word = draw(st.sampled_from(["TRUE", "FALSE"]))
    return "".join(c.lower() if draw(st.booleans()) else c for c in word)


@st.composite
def literal_text(draw):
    kind = draw(st.sampled_from(["number", "negative", "string", "bool", "negated_other"]))
    if kind == "number":
        return draw(number_text())
    gap = draw(st.sampled_from(["", " ", "\t", "\n", " -- minus\n"]))
    if kind == "negative":
        return "-" + gap + draw(number_text())
    if kind == "negated_other":  # '-' before a string or a bool is an error
        return "-" + gap + draw(st.one_of(string_text(), bool_text()))
    if kind == "string":
        return draw(string_text())
    return draw(bool_text())


def _keyword(draw, word):
    return "".join(c.lower() if draw(st.booleans()) else c for c in word)


@st.composite
def insert_text(draw):
    arity = draw(st.integers(min_value=1, max_value=4))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        items = [draw(separator) + draw(literal_text()) + draw(separator) for _ in range(arity)]
        rows.append("(" + ",".join(items) + ")")
    row_list = ",".join(draw(separator) + row + draw(separator) for row in rows)
    head = " ".join(_keyword(draw, word) for word in ("INSERT", "INTO")) + " t "
    tail = draw(st.sampled_from(["", ";", " ;", ";\n", " -- done"]))
    return f"{head}{_keyword(draw, 'VALUES')}{draw(separator)}{row_list}{tail}"


_SELECTS = [
    "SELECT CLOSED a, COUNT(*) AS n FROM t WHERE b = 'x' GROUP BY a",
    "SELECT * FROM t WHERE a BETWEEN -1.5 AND 2e3 LIMIT 5",
    "SELECT SEMI-OPEN AVG(a) FROM t WHERE c IN ('v', 1, TRUE) -- values (1)",
    "select values from t",
]


@st.composite
def mutant(draw):
    text = draw(insert_text())
    kind = draw(st.sampled_from(["doubled_comma", "stray", "unterminated", "cut"]))
    position = draw(st.integers(min_value=0, max_value=len(text)))
    if kind == "doubled_comma" and "," in text:
        at = draw(st.sampled_from([i for i, c in enumerate(text) if c == ","]))
        return text[:at] + "," + text[at:]
    if kind == "stray":
        char = draw(st.sampled_from(list("@x'()-.1;,!_ e") + ["TRUE", "--"]))
        return text[:position] + char + text[position:]
    if kind == "unterminated":
        return text[:position] + "'abc"
    return text[:position]


# --------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------- #


@given(insert_text())
@settings(max_examples=300, deadline=None)
@example("INSERT INTO t VALUES (1, -2.5, 'it''s', TRUE), (3, - 4, '', false)")
@example("INSERT INTO t VALUES (1.), (.5), (1e-7), (2E+3), (-0), (-0.0)")
@example("INSERT INTO t VALUES (1e)")
@example("INSERT INTO t VALUES (- 'x')")
@example("INSERT INTO t VALUES (--1)\n(2)")
@example("INSERT INTO t VALUES\n  (1, 'a\nb'),\n  (2, 'c') , (3")
@example("INSERT INTO t VALUES (TRUEx)")
@example("INSERT INTO t VALUES (falſe)")
@example("INSERT INTO t VALUES (1) (2)")
@example("INSERT INTO t VALUES VALUES (1)")
@example("INSERT INTO t VALUES ('a''')")
def test_inserts_match_the_oracle(text):
    assert_agrees(text)


@given(insert_text())
@settings(max_examples=40, deadline=None)
def test_every_truncation_matches_the_oracle(text):
    for position in range(len(text) + 1):
        assert_agrees(text[:position])


@given(mutant())
@settings(max_examples=400, deadline=None)
@example("INSERT INTO t VALUES (1,, 2)")
@example("INSERT INTO t VALUES (1), , (2)")
@example("INSERT INTO t VALUES (1), (2),")
@example("INSERT INTO t VALUES ('abc")
@example("INSERT INTO t VALUES (1), ('a''")
def test_mutants_match_the_oracle(text):
    assert_agrees(text)


@given(st.lists(st.one_of(insert_text(), st.sampled_from(_SELECTS)), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_scripts_mixing_inserts_and_selects_match_the_oracle(statements):
    text = ";\n".join(s.rstrip(";") if s.endswith(";") else s for s in statements)
    assert_agrees(text, script=True)


_SQLISH = list("abeEtTrRuUfFlLsS_019.,;()*'=!<>+-/% \t\r\n") + [
    "VALUES", "--", "''", "é", "٣", "\x0b", "@",
]


@given(st.lists(st.sampled_from(_SQLISH), max_size=40).map("".join))
@settings(max_examples=500, deadline=None)
def test_sql_shaped_text_tokenizes_like_the_oracle(text):
    assert_same_tokens(text)


@given(st.text(max_size=30))
@settings(max_examples=500, deadline=None)
@example("x² ½ Ⅻ")
def test_arbitrary_text_tokenizes_like_the_oracle(text):
    if _has_non_decimal_digit(text):
        outcome = _outcome(tokenize, text)
        assert outcome[0] == "ok" or outcome[1] is SqlSyntaxError
    else:
        assert_same_tokens(text)


# --------------------------------------------------------------------- #
# Fixed cases
# --------------------------------------------------------------------- #


def test_row_list_is_one_token_and_a_malformed_tail_lexes_per_token():
    tokens = tokenize("INSERT INTO t VALUES (1, 'a'),\n (2, 'b'), (3")
    assert [t.type for t in tokens] == [
        TokenType.KEYWORD, TokenType.KEYWORD, TokenType.IDENT, TokenType.KEYWORD,
        TokenType.ROWS, TokenType.COMMA, TokenType.LPAREN, TokenType.NUMBER, TokenType.EOF,
    ]
    assert tokens[4].value == ((1, "a"), (2, "b"))
    assert (tokens[4].line, tokens[4].column) == (1, 22)
    assert (tokens[5].line, tokens[5].column) == (2, 10)


@pytest.mark.parametrize(
    "text, column",
    [
        ("SELECT a FROM t WHERE a = ²", 27),
        ("INSERT INTO t VALUES (²)", 23),
        ("INSERT INTO t VALUES (1²)", 24),
        ("SELECT a FROM t LIMIT ½", 23),
    ],
)
def test_non_decimal_digits_are_syntax_errors(text, column):
    """The documented difference: the oracle raised a bare ValueError."""
    with pytest.raises(SqlSyntaxError, match="unexpected character") as excinfo:
        parse_statement(text)
    assert (excinfo.value.line, excinfo.value.column) == (1, column)


def test_wal_record_of_an_insert_is_byte_identical(tmp_path):
    sql = "INSERT INTO T VALUES ('a', 1, -2.5, TRUE), ('it''s', 9007199254740993, .5, false)"
    expected = pickle.dumps(
        {"op": "statement", "statement": oracles.parse_statement(sql)},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    data_dir = os.fspath(tmp_path / "data")
    db = MosaicDB(data_dir=data_dir)
    try:
        db.execute("CREATE TABLE T (s TEXT, n INT, x FLOAT, b BOOL)")
        db.execute(sql)
        wal = WriteAheadLog(os.path.join(data_dir, WAL_NAME))
        records = wal.open()
        wal.close()
    finally:
        db.close()
    assert records[-1][1] == expected
