"""Unit tests for the SQL lexer and parser."""

import pytest

from repro.vertica.errors import SqlError
from repro.vertica.sql import ast, parse_statement, tokenize
from repro.vertica.sql.parser import parse_expression


class TestLexer:
    def test_basic_tokens(self):
        kinds = [t.kind for t in tokenize("SELECT a, 1.5 FROM t")]
        assert kinds == ["IDENT", "IDENT", "OP", "NUMBER", "IDENT", "IDENT", "EOF"]

    def test_identifiers_uppercased_raw_preserved(self):
        token = tokenize("MyTable")[0]
        assert token.text == "MYTABLE"
        assert token.raw == "MyTable"

    def test_string_with_escape(self):
        token = tokenize("'it''s'")[0]
        assert token.kind == "STRING"
        assert token.text == "it's"

    def test_comments_skipped(self):
        tokens = tokenize("SELECT 1 -- trailing\n + /* inline */ 2")
        assert [t.text for t in tokens if t.kind != "EOF"] == ["SELECT", "1", "+", "2"]

    def test_unterminated_string(self):
        with pytest.raises(SqlError):
            tokenize("'oops")

    def test_unterminated_comment(self):
        with pytest.raises(SqlError):
            tokenize("/* oops")

    def test_unexpected_character(self):
        with pytest.raises(SqlError):
            tokenize("SELECT @")

    def test_two_char_operators(self):
        texts = [t.text for t in tokenize("a <> b <= c >= d != e || f")]
        assert "<>" in texts and "<=" in texts and ">=" in texts
        assert "!=" in texts and "||" in texts

    def test_scientific_number(self):
        token = tokenize("1.5e-3")[0]
        assert token.kind == "NUMBER"
        assert token.text == "1.5e-3"


class TestCreateTable:
    def test_columns_and_segmentation(self):
        stmt = parse_statement(
            "CREATE TABLE t (a INTEGER, b FLOAT, c VARCHAR(20)) "
            "SEGMENTED BY HASH(a, b) ALL NODES"
        )
        assert isinstance(stmt, ast.CreateTable)
        assert [c.name for c in stmt.columns] == ["A", "B", "C"]
        assert stmt.segmented_by == ["A", "B"]
        assert not stmt.unsegmented

    def test_unsegmented(self):
        stmt = parse_statement("CREATE TABLE t (a INT) UNSEGMENTED ALL NODES")
        assert stmt.unsegmented

    def test_if_not_exists(self):
        stmt = parse_statement("CREATE TABLE IF NOT EXISTS t (a INT)")
        assert stmt.if_not_exists

    def test_double_precision(self):
        stmt = parse_statement("CREATE TABLE t (a DOUBLE PRECISION)")
        assert repr(stmt.columns[0].sql_type) == "FLOAT"

    def test_create_view(self):
        stmt = parse_statement("CREATE VIEW v AS SELECT a FROM t WHERE a > 1")
        assert isinstance(stmt, ast.CreateView)
        assert stmt.view == "V"
        assert stmt.query.where is not None

    def test_create_or_replace_view(self):
        stmt = parse_statement("CREATE OR REPLACE VIEW v AS SELECT 1")
        assert stmt.or_replace


class TestDdlMisc:
    def test_drop_table(self):
        stmt = parse_statement("DROP TABLE IF EXISTS t")
        assert isinstance(stmt, ast.DropTable)
        assert stmt.if_exists

    def test_drop_view(self):
        assert isinstance(parse_statement("DROP VIEW v"), ast.DropView)

    def test_rename(self):
        stmt = parse_statement("ALTER TABLE a RENAME TO b")
        assert (stmt.table, stmt.new_name) == ("A", "B")

    def test_truncate(self):
        assert parse_statement("TRUNCATE TABLE t").table == "T"


class TestDml:
    def test_insert_values(self):
        stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)")
        assert isinstance(stmt, ast.InsertValues)
        assert stmt.columns == ["A", "B"]
        assert len(stmt.rows) == 2

    def test_insert_select(self):
        stmt = parse_statement("INSERT INTO t SELECT * FROM s WHERE a > 0")
        assert isinstance(stmt, ast.InsertSelect)

    def test_update(self):
        stmt = parse_statement("UPDATE t SET done = TRUE WHERE id = 3 AND done = FALSE")
        assert isinstance(stmt, ast.Update)
        assert stmt.assignments[0][0] == "DONE"
        assert stmt.where is not None

    def test_delete(self):
        stmt = parse_statement("DELETE FROM t WHERE a IS NULL")
        assert isinstance(stmt, ast.Delete)

    def test_insert_requires_values_or_select(self):
        with pytest.raises(SqlError):
            parse_statement("INSERT INTO t")


class TestSelect:
    def test_star(self):
        stmt = parse_statement("SELECT * FROM t")
        assert stmt.items[0].star
        assert stmt.source.name == "T"

    def test_where_order_limit(self):
        stmt = parse_statement(
            "SELECT a, b AS bee FROM t WHERE a > 1 ORDER BY a DESC, b LIMIT 10"
        )
        assert stmt.items[1].alias == "BEE"
        assert stmt.order_by[0].descending
        assert not stmt.order_by[1].descending
        assert stmt.limit == 10

    def test_aggregates(self):
        stmt = parse_statement("SELECT COUNT(*), SUM(a), AVG(b), MIN(a), MAX(a) FROM t")
        assert stmt.items[0].aggregate == "COUNT"
        assert stmt.items[0].aggregate_arg is None
        assert stmt.items[1].aggregate == "SUM"

    def test_count_distinct(self):
        stmt = parse_statement("SELECT COUNT(DISTINCT a) FROM t")
        assert stmt.items[0].distinct

    def test_group_by(self):
        stmt = parse_statement("SELECT a, COUNT(*) FROM t GROUP BY a")
        assert len(stmt.group_by) == 1

    def test_join(self):
        stmt = parse_statement(
            "SELECT * FROM a JOIN b ON a.id = b.id WHERE a.x > 0"
        )
        assert len(stmt.joins) == 1
        assert stmt.joins[0].table.name == "B"

    def test_table_alias(self):
        stmt = parse_statement("SELECT t.a FROM mytable t")
        assert stmt.source.alias == "T"

    def test_at_epoch_prefix(self):
        stmt = parse_statement("AT EPOCH 7 SELECT * FROM t")
        assert stmt.at_epoch == 7

    def test_at_epoch_latest(self):
        stmt = parse_statement("AT EPOCH LATEST SELECT * FROM t")
        assert stmt.at_epoch is None

    def test_system_table_name(self):
        stmt = parse_statement("SELECT node_name FROM v_catalog.nodes")
        assert stmt.source.name == "V_CATALOG.NODES"

    def test_select_without_from(self):
        stmt = parse_statement("SELECT 1 + 1")
        assert stmt.source is None

    def test_udf_with_parameters(self):
        stmt = parse_statement(
            "SELECT PMMLPredict(a, b USING PARAMETERS model_name='m') FROM t"
        )
        item = stmt.items[0]
        assert item.udf == "PMMLPREDICT"
        assert len(item.udf_args) == 2
        assert item.parameters == {"model_name": "m"}

    def test_builtin_function_is_expression(self):
        stmt = parse_statement("SELECT HASH(a) FROM t")
        assert stmt.items[0].udf == ""
        assert stmt.items[0].expression is not None

    def test_hash_range_query_shape(self):
        # The exact query V2S formulates per task.
        stmt = parse_statement(
            "SELECT * FROM t WHERE HASH(a, b) >= 10 AND HASH(a, b) < 20"
        )
        assert stmt.where is not None

    def test_count_star_with_alias(self):
        stmt = parse_statement("SELECT COUNT(*) AS n FROM t")
        assert stmt.items[0].alias == "N"


class TestCopy:
    def test_defaults(self):
        stmt = parse_statement("COPY t FROM STDIN")
        assert stmt.file_format == "CSV"
        assert stmt.reject_max is None

    def test_options(self):
        stmt = parse_statement(
            "COPY t FROM STDIN FORMAT AVRO REJECTMAX 50 DIRECT"
        )
        assert stmt.file_format == "AVRO"
        assert stmt.reject_max == 50
        assert stmt.direct

    def test_delimiter(self):
        stmt = parse_statement("COPY t FROM STDIN DELIMITER '|'")
        assert stmt.delimiter == "|"

    def test_file_source(self):
        stmt = parse_statement("COPY t FROM '/data/part1.csv'")
        assert stmt.source == "/data/part1.csv"

    def test_bad_format(self):
        with pytest.raises(SqlError):
            parse_statement("COPY t FROM STDIN FORMAT PARQUET")


class TestTransactions:
    def test_begin_commit_rollback(self):
        assert isinstance(parse_statement("BEGIN"), ast.BeginTransaction)
        assert isinstance(parse_statement("START TRANSACTION"), ast.BeginTransaction)
        assert isinstance(parse_statement("COMMIT"), ast.CommitTransaction)
        assert isinstance(parse_statement("ROLLBACK"), ast.RollbackTransaction)
        assert isinstance(parse_statement("ABORT"), ast.RollbackTransaction)


class TestErrors:
    @pytest.mark.parametrize("sql", [
        "SELEC 1",
        "SELECT FROM t",
        "CREATE TABLE t",
        "UPDATE t",
        "1 + 1",
        "SELECT * FROM t WHERE",
        "SELECT * FROM t LIMIT x",
        "SELECT * FROM t garbage garbage",
    ])
    def test_rejected(self, sql):
        with pytest.raises(SqlError):
            parse_statement(sql)

    def test_trailing_semicolon_ok(self):
        parse_statement("SELECT 1;")

    def test_expression_parser_rejects_trailing(self):
        with pytest.raises(SqlError):
            parse_expression("1 + 1 extra extra")


class TestDepthLimits:
    """Deep input is a typed SqlError, never a RecursionError."""

    @pytest.mark.parametrize("sql", [
        "SELECT " + "(" * 3000 + "1" + ")" * 3000,
        "SELECT " + "NOT " * 3000 + "TRUE",
        "SELECT " + "- " * 3000 + "1",
        "SELECT " + "-(" * 1500 + "1" + ")" * 1500,
        "SELECT " + "ABS(" * 500 + "1" + ")" * 500,
        "SELECT " + " + ".join(["1"] * 3000),
        "SELECT * FROM t WHERE " + " AND ".join(["a = 1"] * 3000),
        "SELECT * FROM t WHERE a IN (" + "(" * 3000 + "1" + ")" * 3000 + ")",
    ])
    def test_too_deep_is_a_sql_error(self, sql):
        with pytest.raises(SqlError, match="too deep"):
            parse_statement(sql)

    @pytest.mark.parametrize("sql", [
        "SELECT " + "(" * 60 + "1" + ")" * 60,
        "SELECT " + "NOT " * 60 + "TRUE",
        "SELECT " + "- " * 60 + "1",
        "SELECT " + " + ".join(["1"] * 200),
        "SELECT * FROM t WHERE a IN (" + ", ".join(["1"] * 5000) + ")",
    ])
    def test_deep_but_within_limits_parses(self, sql):
        parse_statement(sql)

    @pytest.mark.parametrize("sql", [
        "SELECT " + "(" * 60 + "a" + ")" * 60 + " FROM t",
        "SELECT " + "NOT " * 60 + "TRUE",
        "SELECT " + "- " * 60 + "a FROM t",
        "SELECT " + " + ".join(["a"] * 250) + " FROM t",
        "SELECT a FROM t WHERE " + " AND ".join(["a = 1"] * 120),
    ])
    def test_limits_leave_room_to_execute(self, sql):
        from repro.vertica import VerticaDatabase

        db = VerticaDatabase(num_nodes=2)
        session = db.connect()
        session.execute("CREATE TABLE t (a INTEGER) SEGMENTED BY HASH(a) "
                        "ALL NODES")
        session.execute("INSERT INTO t VALUES (1), (2)")
        session.execute(sql)
        session.execute("EXPLAIN " + sql)
