"""Recursive-descent parser for the Mosaic SQL dialect.

Entry points:

- :func:`parse_statement` — exactly one statement (trailing ``;`` allowed).
- :func:`parse_script` — a ``;``-separated list of statements.

The grammar follows the paper's Sec. 3 declarations plus standard
SELECT/CREATE TABLE/INSERT.  See :mod:`repro.sql.ast_nodes` for the AST.
"""

from __future__ import annotations

from typing import Any

from repro.core.visibility import Visibility
from repro.errors import SqlSyntaxError
from repro.relational.dtypes import DType
from repro.relational.expressions import Arithmetic, Expr, Literal, Negate
from repro.relational.predicates import And, Between, Comparison, InList, Like, Not, Or
from repro.sql.ast_nodes import (
    ColumnDef,
    CreateMetadata,
    CreatePopulation,
    CreateSample,
    CreateTable,
    Drop,
    ExplainAnalyze,
    Identifier,
    Insert,
    MechanismSpec,
    OrderKey,
    SelectItem,
    SelectQuery,
    Statement,
    UpdateWeights,
)
from repro.sql.lexer import parse_number, tokenize
from repro.sql.tokens import Token, TokenType

_AGGREGATE_KEYWORDS = frozenset(["COUNT", "SUM", "AVG", "MIN", "MAX"])
_DROP_KINDS = frozenset(["TABLE", "POPULATION", "SAMPLE", "METADATA"])


def parse_statement(text: str) -> Statement:
    """Parse a single SQL statement."""
    parser = _Parser(tokenize(text), text=text)
    statement = parser.parse_statement()
    parser.accept(TokenType.SEMICOLON)
    parser.expect(TokenType.EOF)
    return statement


def parse_script(text: str) -> list[Statement]:
    """Parse a ``;``-separated script into a list of statements."""
    parser = _Parser(tokenize(text), text=text)
    statements: list[Statement] = []
    while not parser.at(TokenType.EOF):
        statements.append(parser.parse_statement())
        if not parser.accept(TokenType.SEMICOLON):
            break
    parser.expect(TokenType.EOF)
    return statements


class _Parser:
    def __init__(self, tokens: list[Token], text: str = ""):
        self._tokens = tokens
        self._text = text
        self._pos = 0

    # ------------------------------------------------------------------ #
    # Token plumbing
    # ------------------------------------------------------------------ #

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def at(self, token_type: TokenType, value: str | None = None) -> bool:
        token = self.current
        if token.type is not token_type:
            return False
        return value is None or token.value == value

    def at_keyword(self, *keywords: str) -> bool:
        return self.current.matches_keyword(*keywords)

    def advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def accept(self, token_type: TokenType, value: str | None = None) -> Token | None:
        if self.at(token_type, value):
            return self.advance()
        return None

    def accept_keyword(self, *keywords: str) -> Token | None:
        if self.at_keyword(*keywords):
            return self.advance()
        return None

    def expect(self, token_type: TokenType, value: str | None = None) -> Token:
        if not self.at(token_type, value):
            token = self.current
            wanted = value or token_type.value
            raise SqlSyntaxError(
                f"expected {wanted}, found {token.value or 'end of input'!r}",
                token.line,
                token.column,
            )
        return self.advance()

    def expect_keyword(self, *keywords: str) -> Token:
        if not self.at_keyword(*keywords):
            token = self.current
            raise SqlSyntaxError(
                f"expected {' or '.join(keywords)}, found {token.value or 'end of input'!r}",
                token.line,
                token.column,
            )
        return self.advance()

    def expect_name(self) -> str:
        """An identifier; also tolerates non-reserved-looking keywords as names."""
        if self.at(TokenType.IDENT):
            return self.advance().value
        token = self.current
        raise SqlSyntaxError(
            f"expected identifier, found {token.value or 'end of input'!r}",
            token.line,
            token.column,
        )

    # ------------------------------------------------------------------ #
    # Statements
    # ------------------------------------------------------------------ #

    def parse_statement(self) -> Statement:
        if self.at_keyword("SELECT"):
            return self.parse_select()
        if self.at_keyword("EXPLAIN"):
            return self._parse_explain()
        if self.at_keyword("CREATE"):
            return self._parse_create()
        if self.at_keyword("INSERT"):
            return self._parse_insert()
        if self.at_keyword("UPDATE"):
            return self._parse_update_weights()
        if self.at_keyword("DROP"):
            return self._parse_drop()
        token = self.current
        raise SqlSyntaxError(
            f"expected a statement, found {token.value or 'end of input'!r}",
            token.line,
            token.column,
        )

    def _parse_explain(self) -> ExplainAnalyze:
        """``EXPLAIN ANALYZE <select>`` (plain EXPLAIN is not supported:
        this engine always executes, so the annotated plan is the cheap
        byproduct, not a separate estimation mode)."""
        self.expect_keyword("EXPLAIN")
        self.expect_keyword("ANALYZE")
        start = self._offset_of(self.current)
        query = self.parse_select()
        stop = self._offset_of(self.current)
        sql = None
        if self._text and start is not None and stop is not None:
            sql = self._text[start:stop].strip()
        return ExplainAnalyze(query=query, sql=sql or None)

    def _offset_of(self, token: Token) -> int | None:
        """Character offset of ``token`` in the source text (tokens carry
        1-based line/column)."""
        if not self._text:
            return None
        offset = 0
        line = 1
        while line < token.line:
            newline = self._text.find("\n", offset)
            if newline < 0:
                return None
            offset = newline + 1
            line += 1
        return offset + token.column - 1

    def parse_select(self, allow_mechanism: bool = False) -> SelectQuery | tuple:
        """Parse a SELECT.

        With ``allow_mechanism=True`` (inside ``CREATE SAMPLE``), also
        parses a trailing ``USING MECHANISM ...`` clause and returns
        ``(query, mechanism_or_none)``.
        """
        self.expect_keyword("SELECT")
        visibility = self._parse_visibility()
        distinct = self.accept_keyword("DISTINCT") is not None
        items = self._parse_select_list()
        self.expect_keyword("FROM")
        table = self.expect_name()

        where: Expr | None = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()

        mechanism: MechanismSpec | None = None
        if allow_mechanism and self.at_keyword("USING"):
            mechanism = self._parse_mechanism()

        group_by: tuple[str, ...] = ()
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by = tuple(self._parse_name_list())

        order_by: list[OrderKey] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            while True:
                column = self.expect_name()
                ascending = True
                if self.accept_keyword("DESC"):
                    ascending = False
                else:
                    self.accept_keyword("ASC")
                order_by.append(OrderKey(column, ascending))
                if not self.accept(TokenType.COMMA):
                    break

        limit: int | None = None
        if self.accept_keyword("LIMIT"):
            token = self.expect(TokenType.NUMBER)
            try:
                limit = int(token.value)
            except ValueError:
                raise SqlSyntaxError(
                    f"LIMIT needs a non-negative integer, found {token.value!r}",
                    token.line,
                    token.column,
                ) from None

        query = SelectQuery(
            items=tuple(items),
            table=table,
            visibility=visibility,
            where=where,
            group_by=group_by,
            order_by=tuple(order_by),
            limit=limit,
            distinct=distinct,
        )
        if allow_mechanism:
            return query, mechanism
        return query

    def _parse_visibility(self) -> Visibility | None:
        if self.accept_keyword("CLOSED"):
            return Visibility.CLOSED
        if self.accept_keyword("OPEN"):
            return Visibility.OPEN
        if self.accept_keyword("SEMI"):
            self.expect(TokenType.OPERATOR, "-")
            self.expect_keyword("OPEN")
            return Visibility.SEMI_OPEN
        # Tolerate the underscore spelling SEMI_OPEN (lexes as one IDENT).
        if self.at(TokenType.IDENT) and self.current.value.upper() == "SEMI_OPEN":
            self.advance()
            return Visibility.SEMI_OPEN
        return None

    def _parse_select_list(self) -> list[SelectItem]:
        items = [self._parse_select_item()]
        while self.accept(TokenType.COMMA):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> SelectItem:
        if self.accept(TokenType.STAR):
            return SelectItem(is_star=True)

        if self.at_keyword(*_AGGREGATE_KEYWORDS):
            func = self.advance().value
            self.expect(TokenType.LPAREN)
            if self.accept(TokenType.STAR):
                expr: Expr | None = None
            else:
                expr = self.parse_expression()
            self.expect(TokenType.RPAREN)
            alias = self._parse_optional_alias()
            return SelectItem(expr=expr, func=func, alias=alias)

        expr = self.parse_expression()
        alias = self._parse_optional_alias()
        return SelectItem(expr=expr, alias=alias)

    def _parse_optional_alias(self) -> str | None:
        if self.accept_keyword("AS"):
            return self.expect_name()
        if self.at(TokenType.IDENT):
            return self.advance().value
        return None

    def _parse_name_list(self) -> list[str]:
        names = [self.expect_name()]
        while self.accept(TokenType.COMMA):
            names.append(self.expect_name())
        return names

    def _parse_create(self) -> Statement:
        self.expect_keyword("CREATE")
        if self.at_keyword("TEMPORARY") or self.at_keyword("TABLE"):
            temporary = self.accept_keyword("TEMPORARY") is not None
            self.expect_keyword("TABLE")
            name = self.expect_name()
            columns = self._parse_column_defs() if self.at(TokenType.LPAREN) else ()
            return CreateTable(name=name, columns=columns, temporary=temporary)

        if self.at_keyword("GLOBAL") or self.at_keyword("POPULATION"):
            is_global = self.accept_keyword("GLOBAL") is not None
            self.expect_keyword("POPULATION")
            name = self.expect_name()
            columns: tuple[ColumnDef, ...] = ()
            if self.at(TokenType.LPAREN) and not self._lparen_starts_select():
                columns = self._parse_column_defs()
            source: SelectQuery | None = None
            if self.accept_keyword("AS"):
                self.expect(TokenType.LPAREN)
                source = self.parse_select()
                self.expect(TokenType.RPAREN)
            return CreatePopulation(
                name=name, columns=columns, is_global=is_global, source=source
            )

        if self.accept_keyword("SAMPLE"):
            name = self.expect_name()
            columns = ()
            if self.at(TokenType.LPAREN) and not self._lparen_starts_select():
                columns = self._parse_column_defs()
            self.expect_keyword("AS")
            self.expect(TokenType.LPAREN)
            query, mechanism = self.parse_select(allow_mechanism=True)
            self.expect(TokenType.RPAREN)
            return CreateSample(name=name, source=query, columns=columns, mechanism=mechanism)

        if self.accept_keyword("METADATA"):
            name = self.expect_name()
            for_population: str | None = None
            if self.accept_keyword("FOR"):
                for_population = self.expect_name()
            self.expect_keyword("AS")
            self.expect(TokenType.LPAREN)
            query = self.parse_select()
            self.expect(TokenType.RPAREN)
            return CreateMetadata(name=name, query=query, for_population=for_population)

        token = self.current
        raise SqlSyntaxError(
            f"expected TABLE, POPULATION, SAMPLE, or METADATA after CREATE, "
            f"found {token.value!r}",
            token.line,
            token.column,
        )

    def _lparen_starts_select(self) -> bool:
        """Distinguish ``(col type, ...)`` from ``(SELECT ...)`` after a name."""
        next_token = self._tokens[self._pos + 1] if self._pos + 1 < len(self._tokens) else None
        return next_token is not None and next_token.matches_keyword("SELECT")

    def _parse_column_defs(self) -> tuple[ColumnDef, ...]:
        self.expect(TokenType.LPAREN)
        defs = []
        while True:
            name = self.expect_name()
            type_token = self.current
            if type_token.type not in (TokenType.IDENT, TokenType.KEYWORD):
                raise SqlSyntaxError(
                    f"expected a type name, found {type_token.value!r}",
                    type_token.line,
                    type_token.column,
                )
            self.advance()
            defs.append(ColumnDef(name, DType.parse(type_token.value)))
            if not self.accept(TokenType.COMMA):
                break
        self.expect(TokenType.RPAREN)
        return tuple(defs)

    def _parse_mechanism(self) -> MechanismSpec:
        self.expect_keyword("USING")
        self.expect_keyword("MECHANISM")
        kind_token = self.expect_keyword("UNIFORM", "STRATIFIED")
        stratify_on: str | None = None
        if kind_token.value == "STRATIFIED":
            self.expect_keyword("ON")
            stratify_on = self.expect_name()
        self.expect_keyword("PERCENT")
        percent_token = self.expect(TokenType.NUMBER)
        return MechanismSpec(
            kind=kind_token.value,
            percent=float(percent_token.value),
            stratify_on=stratify_on,
        )

    def _parse_insert(self) -> Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_name()
        self.expect_keyword("VALUES")
        # The lexer hands every well-formed row over as one ROWS token; rows
        # after it (a malformed tail) parse token by token for the error.
        if self.at(TokenType.ROWS):
            rows = list(self.advance().value)
        else:
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
            value = parse_number(token.value)
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

    def _parse_update_weights(self) -> UpdateWeights:
        self.expect_keyword("UPDATE")
        self.expect_keyword("SAMPLE")
        sample = self.expect_name()
        self.expect_keyword("SET")
        self.expect_keyword("WEIGHT")
        self.expect(TokenType.OPERATOR, "=")
        expr = self.parse_expression()
        where: Expr | None = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        return UpdateWeights(sample=sample, expr=expr, where=where)

    def _parse_drop(self) -> Drop:
        self.expect_keyword("DROP")
        kind_token = self.expect_keyword(*_DROP_KINDS)
        name = self.expect_name()
        return Drop(kind=kind_token.value, name=name)

    # ------------------------------------------------------------------ #
    # Expressions (precedence: OR < AND < NOT < comparison < + - < * / %)
    # ------------------------------------------------------------------ #

    def parse_expression(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self.accept_keyword("OR"):
            left = Or(left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self.accept_keyword("AND"):
            left = And(left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self.accept_keyword("NOT"):
            return Not(self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()

        negated = False
        if self.at_keyword("NOT"):
            # Only consume NOT when it introduces IN/BETWEEN/LIKE.
            next_token = self._tokens[self._pos + 1]
            if next_token.matches_keyword("IN", "BETWEEN", "LIKE"):
                self.advance()
                negated = True

        if self.accept_keyword("IN"):
            self.expect(TokenType.LPAREN)
            values = [self._parse_in_value()]
            while self.accept(TokenType.COMMA):
                values.append(self._parse_in_value())
            self.expect(TokenType.RPAREN)
            return InList(left, values, negated=negated)

        if self.accept_keyword("BETWEEN"):
            low = self._parse_additive()
            self.expect_keyword("AND")
            high = self._parse_additive()
            return Between(left, low, high, negated=negated)

        if self.accept_keyword("LIKE"):
            token = self.current
            if token.type is not TokenType.STRING:
                raise SqlSyntaxError(
                    f"LIKE expects a string pattern, found {token.value or 'end of input'!r}"
                )
            self.advance()
            return Like(left, token.value, negated=negated)

        if self.at(TokenType.OPERATOR) and self.current.value in (
            "=", "!=", "<>", "<", "<=", ">", ">=",
        ):
            op = self.advance().value
            right = self._parse_additive()
            return Comparison(op, left, right)

        return left

    def _parse_in_value(self) -> Any:
        """IN-list members are literals (strings, numbers, booleans, barewords)."""
        token = self.current
        if token.type is TokenType.IDENT:
            self.advance()
            return token.value
        return self._parse_literal_value()

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while self.at(TokenType.OPERATOR) and self.current.value in ("+", "-"):
            op = self.advance().value
            left = Arithmetic(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            if self.at(TokenType.STAR):
                self.advance()
                left = Arithmetic("*", left, self._parse_unary())
            elif self.at(TokenType.OPERATOR) and self.current.value in ("/", "%"):
                op = self.advance().value
                left = Arithmetic(op, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expr:
        if self.accept(TokenType.OPERATOR, "-"):
            return Negate(self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self.current
        if token.type is TokenType.NUMBER:
            self.advance()
            return Literal(parse_number(token.value))
        if token.type is TokenType.STRING:
            self.advance()
            return Literal(token.value)
        if token.matches_keyword("TRUE"):
            self.advance()
            return Literal(True)
        if token.matches_keyword("FALSE"):
            self.advance()
            return Literal(False)
        if token.type is TokenType.IDENT:
            self.advance()
            return Identifier(token.value)
        if token.matches_keyword("WEIGHT"):
            # WEIGHT is a keyword for UPDATE SAMPLE but a plain column elsewhere.
            self.advance()
            return Identifier("weight")
        if self.accept(TokenType.LPAREN):
            inner = self.parse_expression()
            self.expect(TokenType.RPAREN)
            return inner
        raise SqlSyntaxError(
            f"expected an expression, found {token.value or 'end of input'!r}",
            token.line,
            token.column,
        )

