import hashlib
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from rectangular import census, isotopy, properties, transform
from rectangular.cli import main
from rectangular.construct import evans_central, rectangular_band
from rectangular.core import BoolMatrix, GraphPair, PartialArray, make_groupoid
from rectangular.formats import (
    FormatError,
    census_json,
    parse_graph_pair,
    parse_matrix,
    parse_matrix_pair,
    parse_partial,
    parse_table,
    render_graph_pair,
    render_matrix,
    render_matrix_pair,
    render_partial,
    render_table,
)
from rectangular.transform import groupoid_to_graph_pair

import fixtures as fx
import oracles

from test_transform import graph_pairs, tables

X4_TEXT = "4\n0 0 1 1\n2 2 3 3\n2 2 3 3\n0 0 1 1\n"
B3_TEXT = "3\n. 0 2\n0 . 1\n2 1 .\n"


class TestTableFormat:
    def test_trivial(self):
        assert parse_table("1\n0\n") == make_groupoid(1, [0])

    def test_x4_round_trip(self):
        assert parse_table(X4_TEXT) == fx.X4
        assert render_table(fx.X4) == X4_TEXT

    def test_parse_render_identity_random(self):
        rng = random.Random(40)
        for _ in range(200):
            g = oracles.random_groupoid(rng, rng.randrange(1, 7))
            assert parse_table(render_table(g)) == g

    def test_render_normalizes_whitespace(self):
        assert parse_table("2\n 0   0\n1\t1\n") == make_groupoid(2, [0, 0, 1, 1])

    def test_range_error_at_line_three(self):
        with pytest.raises(FormatError, match="line 3") as info:
            parse_table("2\n0 0\n0 2\n")
        assert info.value.line == 3

    def test_bad_token_and_length_errors(self):
        with pytest.raises(FormatError, match="bad entry"):
            parse_table("2\n0 x\n0 0\n")
        with pytest.raises(FormatError, match="expected 2 entries"):
            parse_table("2\n0\n0 0\n")
        with pytest.raises(FormatError, match="expected the order"):
            parse_table("zebra\n")
        with pytest.raises(FormatError, match="entry -1 out of range"):
            parse_table("2\n0 -1\n1 0\n")

    @pytest.mark.parametrize("text", ["2\n0 +1\n1 0\n", "2\n0 1\n1 0_0\n", "2\n0 ١\n1 0\n",
                                      "+2\n0 1\n1 0\n", " ٢\n0 1\n1 0\n"],
                             ids=["plus", "underscore", "arabic-indic", "order-plus",
                                  "order-arabic-indic"])
    def test_integers_are_ascii_digits_after_an_optional_minus(self, text):
        for parse in (parse_table, parse_partial):
            with pytest.raises(FormatError, match="bad entry|expected the order"):
                parse(text)

    def test_one_based_rendering(self):
        assert render_table(make_groupoid(2, [0, 0, 1, 1]), one_based=True) \
            == "2\n1 1\n2 2\n"


class TestPartialFormat:
    def test_b3(self):
        assert parse_partial(B3_TEXT) == fx.B3
        assert render_partial(fx.B3) == B3_TEXT

    def test_all_dots(self):
        p = parse_partial("2\n. .\n. .\n")
        assert p == PartialArray(2, ((None, None), (None, None)))

    def test_total_body_agrees_with_table_parser(self):
        p = parse_partial(X4_TEXT)
        assert p.to_groupoid() == parse_table(X4_TEXT)

    def test_round_trip_random(self):
        rng = random.Random(41)
        for _ in range(200):
            p = oracles.random_partial(rng, rng.randrange(1, 6), 0.5)
            assert parse_partial(render_partial(p)) == p


class TestGraphAndMatrixFormats:
    def test_graph_pair_round_trip(self):
        gp = groupoid_to_graph_pair(fx.X4)
        assert parse_graph_pair(render_graph_pair(gp)) == gp

    def test_matrix_single_round_trip(self):
        m = BoolMatrix.from_grid([[1, 0], [1, 1]])
        assert parse_matrix(render_matrix(m)) == m

    def test_matrix_pair_round_trip(self):
        a = BoolMatrix.from_grid([[1, 0], [1, 1]])
        b = BoolMatrix.from_grid([[0, 1], [1, 0]])
        assert parse_matrix_pair(render_matrix_pair(a, b)) == (a, b)

    def test_missing_blank_line(self):
        with pytest.raises(FormatError, match="blank line"):
            parse_graph_pair("2\n10\n01\n10\n01\n")

    def test_bad_characters(self):
        with pytest.raises(FormatError, match="0/1"):
            parse_graph_pair("2\n12\n01\n\n10\n01\n")

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 256])
    def test_bit_rows_match_the_per_bit_codec(self, n):
        rng = random.Random(n)
        full = (1 << n) - 1
        red = (0, full, *(rng.randrange(1 << n) for _ in range(n - 2)))[:n]
        green = tuple(rng.randrange(1 << n) for _ in range(n))
        lines = lambda rows: "".join(oracles.render_bit_row(r, n) + "\n" for r in rows)
        text = f"{n}\n{lines(red)}\n{lines(green)}"
        assert render_graph_pair(GraphPair(n, red, green)) == text
        assert render_matrix(BoolMatrix(n, green)) == f"{n}\n{lines(green)}"
        parsed = tuple(oracles.parse_bit_row(line, n) for line in text.splitlines()[1:]
                       if line)
        gp = parse_graph_pair(text)
        assert gp.red + gp.green == parsed == red + green
        assert parse_matrix(f"{n}\n{lines(green)}").rows == green

    @pytest.mark.parametrize("raw", [
        "0a1", "a01", "01a", "0 1", "0b1", "1_0", "012", "-01", "0\u00a01",
        "0\uff111", "01", "0101", "",
    ])
    def test_malformed_bit_rows_keep_their_error_text(self, raw):
        assert oracles.parse_bit_row(raw, 3) is None
        message = f"expected 3 characters of 0/1, got {raw!r}"
        with pytest.raises(FormatError) as info:
            parse_matrix(f"3\n000\n{raw}\n111\n")
        assert str(info.value) == f"line 3: {message}"
        with pytest.raises(FormatError) as info:
            parse_graph_pair(f"3\n000\n000\n000\n\n111\n{raw}\n111\n")
        assert str(info.value) == f"line 7: {message}"


@st.composite
def partial_arrays(draw, max_order=6):
    n = draw(st.integers(1, max_order))
    cell = st.none() | st.integers(0, n - 1)
    rows = st.lists(cell, min_size=n, max_size=n).map(tuple)
    return PartialArray(n, tuple(draw(st.lists(rows, min_size=n, max_size=n))))


ROUND_TRIP = settings(max_examples=200, deadline=None, database=None)


@ROUND_TRIP
@given(tables())
def test_table_text_round_trips(g):
    assert parse_table(render_table(g)) == g


@ROUND_TRIP
@given(partial_arrays())
def test_partial_array_text_round_trips(p):
    assert parse_partial(render_partial(p)) == p


@ROUND_TRIP
@given(graph_pairs())
def test_graph_pair_text_round_trips(gp):
    assert parse_graph_pair(render_graph_pair(gp)) == gp


@ROUND_TRIP
@given(graph_pairs())
def test_matrix_pair_text_round_trips(gp):
    pair = (BoolMatrix(gp.order, gp.red), BoolMatrix(gp.order, gp.green))
    assert parse_matrix_pair(render_matrix_pair(*pair)) == pair


PAIR_TEXT = "2\n10\n01\n\n10\n01\n"


@pytest.mark.parametrize("parse, text, line", [
    (parse_table, "2\n0 1\n1 0\ngarbage here\n", 4),
    (parse_table, "1\n0\n\n \n0\n", 5),
    (parse_partial, "2\n. 1\n1 .\n. .\n", 4),
    (parse_graph_pair, PAIR_TEXT + "XYZ\n", 7),
    (parse_matrix_pair, PAIR_TEXT + "\n10\n", 8),
    (parse_matrix, "2\n10\n01\n01\n", 4),
])
def test_text_after_the_structure_is_rejected(parse, text, line):
    with pytest.raises(FormatError, match="after the structure") as info:
        parse(text)
    assert info.value.line == line
    # the same structure followed by blank lines only is accepted
    parse("\n".join(text.splitlines()[:line - 1]) + "\n\n  \n")


@pytest.mark.parametrize("parse, text, line, message", [
    (parse_table, "", 1, "line 1: empty input; expected an order line"),
    (parse_table, "0\n", 1, "line 1: order must be positive, got 0"),
    (parse_graph_pair, "2\n01\n", 3, "line 3: missing red row 1"),
], ids=["empty", "order-zero", "missing-row"])
def test_truncated_input_names_its_line(parse, text, line, message):
    with pytest.raises(FormatError) as info:
        parse(text)
    assert (str(info.value), info.value.line) == (message, line)


# Spellings outside the table of canonical ones go through strict_int: the
# table is the same as for the canonical text, with "." an empty cell in a
# partial array.
SPELLED_TEXT = "8\n00 007 -0 3\t4 5 6 7\n" + "7 6 5 4 3 2 1 0\n" * 7
SPELLED_ROWS = ((0, 7, 0, 3, 4, 5, 6, 7),) + ((7, 6, 5, 4, 3, 2, 1, 0),) * 7


def test_non_canonical_spellings_parse_as_their_integers():
    assert parse_table(SPELLED_TEXT) == make_groupoid(8, sum(SPELLED_ROWS, ()))
    assert parse_partial(SPELLED_TEXT) == PartialArray(8, SPELLED_ROWS)
    text = "3\n. 01 \t2\n-0 . 002\n1 2 .\n"
    assert parse_partial(text) == PartialArray(3, ((None, 1, 2), (0, None, 2), (1, 2, None)))


@pytest.mark.parametrize("text, message", [
    ("2\n0 +1\n1 0\n", "line 2: bad entry '+1' in column 1"),
    ("2\n0 1\n1 1_0\n", "line 3: bad entry '1_0' in column 1"),
    ("2\n0 ١\n1 0\n", "line 2: bad entry '١' in column 1"),
    ("2\n٠ 1\n1 0\n", "line 2: bad entry '٠' in column 0"),
    ("2\n0 -1\n1 0\n", "line 2: entry -1 out of range 0..1 in column 1"),
    ("2\n0 1\n2 0\n", "line 3: entry 2 out of range 0..1 in column 0"),
    ("2\n0 1\n1 002\n", "line 3: entry 2 out of range 0..1 in column 1"),
    ("2\n0 1\n1 x\n", "line 3: bad entry 'x' in column 1"),
], ids=["plus", "underscore", "arabic-indic", "arabic-indic-zero", "minus-one",
        "order", "order-padded", "letter"])
def test_entry_errors_keep_their_text(text, message):
    for parse in (parse_table, parse_partial):
        with pytest.raises(FormatError) as info:
            parse(text)
        assert str(info.value) == message


def test_a_dot_is_a_bad_entry_in_a_table():
    with pytest.raises(FormatError) as info:
        parse_table("2\n0 .\n1 0\n")
    assert str(info.value) == "line 2: bad entry '.' in column 1"


@pytest.mark.parametrize("order", [255, 256, 257])
def test_parsed_values_equal_checked_ones_in_value_hash_and_repr(order):
    rng = random.Random(order)
    flat = [rng.randrange(order) for _ in range(order * order)]
    g = make_groupoid(order, flat)
    parsed = parse_table(render_table(g))
    assert (parsed, hash(parsed), repr(parsed)) == (g, hash(g), repr(g))
    cells = tuple(tuple(None if rng.random() < 0.3 else e for e in row) for row in g.table)
    p = PartialArray(order, cells)
    parsed = parse_partial(render_partial(p))
    assert (parsed, hash(parsed), repr(parsed)) == (p, hash(p), repr(p))


@pytest.fixture
def table_file(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestCliCheck:
    def test_true_exit_zero(self, capsys, table_file):
        path = table_file("x4.tbl", X4_TEXT)
        assert main(["check", "--property", "rectangular", path]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_false_exit_one_with_witness(self, capsys, table_file):
        path = table_file("i3.tbl", render_table(fx.I3))
        assert main(["check", "--property", "rectangular", path]) == 1
        out = capsys.readouterr().out
        assert out.startswith("false\n")
        assert "witness" in out

    def test_partial_properties(self, capsys, table_file):
        path = table_file("b3.par", B3_TEXT)
        assert main(["check", "--property", "blackburn", path]) == 0
        assert main(["check", "--property", "partial-latin", path]) == 0
        assert main(["check", "--property", "partial-p1", path]) == 1

    def test_p2_and_p4(self, capsys, table_file):
        gp = groupoid_to_graph_pair(fx.X4)
        path = table_file("x4.gp", render_graph_pair(gp))
        assert main(["check", "--property", "p2", path]) == 0
        assert main(["check", "--property", "p4", path]) == 0

    def test_format_error_exit_two(self, capsys, table_file):
        path = table_file("bad.tbl", "2\n0 0\n0 2\n")
        assert main(["check", "--property", "rectangular", path]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_trailing_text_exit_two(self, capsys, table_file):
        path = table_file("tail.tbl", "2\n0 1\n1 0\ngarbage here\n")
        assert main(["check", "--property", "associative", path]) == 2
        assert capsys.readouterr() == ("", "error: line 4: unexpected text after the "
                                       "structure: 'garbage here'\n")
        gp = render_graph_pair(groupoid_to_graph_pair(fx.X4))
        path = table_file("tail.gp", gp + "XYZ\n")
        assert main(["check", "--property", "p2", path]) == 2
        assert "line 11" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        assert main(["check", "--property", "rectangular", "/nonexistent"]) == 2

    def test_usage_error_exit_two(self, capsys):
        assert main(["check", "--property", "sparkly", "x"]) == 2

    def test_one_based_witness(self, capsys, table_file):
        path = table_file("i3.tbl", render_table(fx.I3))
        assert main(["check", "--property", "rectangular", path]) == 1
        assert "(2, 1, 1)" in capsys.readouterr().out
        assert main(["check", "--property", "rectangular", "--one-based", path]) == 1
        assert "(3, 2, 2)" in capsys.readouterr().out


    # the last entry of a p2, p4 or matrix-symmetric witness is a path
    # count, which --one-based must leave as it is
    def test_one_based_p2_witness_keeps_its_path_count(self, capsys, table_file):
        path = table_file("id2.gp", PAIR_TEXT)
        assert main(["check", "--property", "p2", path]) == 1
        assert capsys.readouterr().out == "false\nwitness: (0, 1, 0)\n"
        assert main(["check", "--property", "p2", "--one-based", path]) == 1
        assert capsys.readouterr().out == "false\nwitness: (1, 2, 0)\n"

    def test_one_based_p4_witness_keeps_its_path_count(self, capsys, table_file):
        path = table_file("id2.mat", PAIR_TEXT)
        assert main(["check", "--property", "p4", path]) == 1
        assert capsys.readouterr().out == "false\nwitness: (0, 1, 0)\n"
        assert main(["check", "--property", "p4", "--one-based", path]) == 1
        assert capsys.readouterr().out == "false\nwitness: (1, 2, 0)\n"

    def test_one_based_matrix_symmetric_witness_keeps_its_path_count(self, capsys,
                                                                     table_file):
        path = table_file("c3.tbl", "3\n0 0 0\n0 0 0\n0 0 0\n")
        assert main(["check", "--property", "matrix-symmetric", path]) == 1
        assert capsys.readouterr().out == "false\nwitness: ('green-red', 0, 0, 3)\n"
        assert main(["check", "--property", "matrix-symmetric", "--one-based", path]) == 1
        assert capsys.readouterr().out == "false\nwitness: ('green-red', 1, 1, 3)\n"

    @pytest.mark.parametrize("prop", sorted(properties.NAMED_IDENTITIES))
    def test_equational_property_prints_the_literal_witness(self, capsys, table_file,
                                                            prop):
        name = properties.NAMED_IDENTITIES[prop][0]
        rng = random.Random(prop)
        failing = next(g for g in iter(lambda: oracles.random_groupoid(rng, 4), None)
                       if oracles.literal_identity_violation(name, g) is not None)
        witness = oracles.literal_identity_violation(name, failing)
        path = table_file("fails.tbl", render_table(failing))
        assert main(["check", "--property", prop, path]) == 1
        assert capsys.readouterr().out == f"false\nwitness: {witness}\n"
        assert main(["check", "--property", prop, "--one-based", path]) == 1
        shifted = tuple(v + 1 for v in witness)
        assert capsys.readouterr().out == f"false\nwitness: {shifted}\n"

        holding = next(g for g in (rectangular_band(2, 3), evans_central(2))
                       if oracles.literal_identity_violation(name, g) is None)
        path = table_file("holds.tbl", render_table(holding))
        assert main(["check", "--property", prop, path]) == 0
        assert capsys.readouterr().out == "true\n"


class TestCliConvert:
    def test_groupoid_to_graphpair_and_back(self, capsys, table_file):
        path = table_file("x4.tbl", X4_TEXT)
        assert main(["convert", "--from", "groupoid", "--to", "graphpair", path]) == 0
        pair_text = capsys.readouterr().out
        path2 = table_file("x4.gp", pair_text)
        assert main(["convert", "--from", "graphpair", "--to", "groupoid", path2]) == 0
        assert capsys.readouterr().out == X4_TEXT

    def test_graphpair_to_matrices(self, capsys, table_file):
        gp = groupoid_to_graph_pair(fx.C4)
        path = table_file("c4.gp", render_graph_pair(gp))
        assert main(["convert", "--from", "graphpair", "--to", "matrices", path]) == 0
        a, b = parse_matrix_pair(capsys.readouterr().out)
        assert a == BoolMatrix.from_grid([[1, 0, 0, 0]] * 4)

    def test_matrices_to_groupoid_and_graphpair(self, capsys, table_file):
        gp = groupoid_to_graph_pair(fx.X4)
        path = table_file("x4.mat", render_matrix_pair(BoolMatrix(4, gp.red),
                                                       BoolMatrix(4, gp.green)))
        assert main(["convert", "--from", "matrices", "--to", "groupoid", path]) == 0
        assert capsys.readouterr().out == X4_TEXT
        assert main(["convert", "--from", "matrices", "--to", "graphpair", path]) == 0
        assert capsys.readouterr().out == render_graph_pair(gp)

    def test_non_unique_path_pair_rejected(self, capsys, table_file):
        gp = GraphPair(2, (3, 3), (3, 3))
        path = table_file("full.gp", render_graph_pair(gp))
        assert main(["convert", "--from", "graphpair", "--to", "groupoid", path]) == 2

    def test_normalization_pass(self, capsys, monkeypatch, table_file):
        # a groupoid-to-groupoid run renders the parsed table and builds no
        # graph pair
        def unused(g):
            raise AssertionError("the normalization pass built a graph pair")
        monkeypatch.setattr(transform, "groupoid_to_graph_pair", unused)
        path = table_file("x4.tbl", "4\n0 0 1 1\n2 2 3 3\n2 2 3 3\n0 0  1   1\n")
        assert main(["convert", "--from", "groupoid", "--to", "groupoid", path]) == 0
        assert capsys.readouterr().out == X4_TEXT


class TestCliConstruct:
    def test_constant(self, capsys):
        assert main(["construct", "constant", "4", "0"]) == 0
        assert parse_table(capsys.readouterr().out) == fx.C4

    def test_evans(self, capsys):
        assert main(["construct", "evans", "2"]) == 0
        out = parse_table(capsys.readouterr().out)
        assert out.order == 4

    def test_one_based_goes_after_the_kind(self, capsys):
        assert main(["construct", "evans", "--one-based", "1"]) == 0
        assert capsys.readouterr() == ("1\n1\n", "")
        assert main(["construct", "--one-based", "evans", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --one-based" in err

    def test_band(self, capsys):
        assert main(["construct", "band", "2", "3"]) == 0
        assert parse_table(capsys.readouterr().out).order == 6

    def test_blowup_and_extensions(self, capsys, table_file):
        path = table_file("band.tbl", render_table(make_groupoid(2, [0, 0, 1, 1])))
        for kind in ("blowup", "left-ext", "right-ext"):
            assert main(["construct", kind, path, "0"]) == 0
            assert parse_table(capsys.readouterr().out).order == 3

    def test_split(self, capsys, table_file):
        a = table_file("a.tbl", "1\n0\n")
        b = table_file("b.tbl", "1\n0\n")
        assert main(["construct", "left-split", a, b, "--f", "0", "--g", "0"]) == 0
        assert parse_table(capsys.readouterr().out).order == 2

    def test_partition(self, capsys):
        assert main(["construct", "partition",
                     "--base", "0,1|2,3",
                     "--companions", "0,2|1,3;0,2|1,3"]) == 0
        gp = parse_graph_pair(capsys.readouterr().out)
        assert gp.order == 4

    def test_partition_with_a_negative_element_exit_two(self, capsys):
        assert main(["construct", "partition", "--base", "0,-1",
                     "--companions", "0,-1"]) == 2
        assert capsys.readouterr() == (
            "", "error: block (0, -1): -1 is outside 0..1\n")

    def test_partition_with_a_repeated_element_exit_two(self, capsys):
        assert main(["construct", "partition", "--base", "0,1|2,3",
                     "--companions", "0,0,2|1,3;0,2|1,3"]) == 2
        assert capsys.readouterr() == (
            "", "error: block (0, 0, 2) repeats an element\n")

    def test_factorization(self, capsys):
        assert main(["construct", "factorization", "--cyclic", "6",
                     "--h", "0,3", "--k", "0,1,2"]) == 0
        gp = parse_graph_pair(capsys.readouterr().out)
        assert gp.order == 6

    @pytest.mark.parametrize("argv, option, token", [
        (["left-split", "A", "B", "--f", "0,x", "--g", "0"], "--f", "x"),
        (["right-split", "A", "B", "--f", "0", "--g", "0 1.5"], "--g", "1.5"),
        (["partition", "--base", "0,1|x", "--companions", "0;0"], "--base", "x"),
        (["partition", "--base", "0|1", "--companions", "0,1;y"], "--companions", "y"),
        (["factorization", "--abelian", "2,x", "--h", "0", "--k", "0"], "--abelian", "x"),
        (["factorization", "--cyclic", "4", "--h", "0,-", "--k", "0"], "--h", "-"),
        (["factorization", "--cyclic", "4", "--h", "0", "--k", "0,1e1"], "--k", "1e1"),
    ], ids=["left-split", "right-split", "partition-base", "partition-companions",
            "factorization-abelian", "factorization-h", "factorization-k"])
    def test_non_integer_list_names_its_option(self, capsys, table_file, argv, option,
                                              token):
        one = table_file("one.tbl", "1\n0\n")
        argv = [one if arg in ("A", "B") else arg for arg in argv]
        assert main(["construct", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {option}: {token!r} is not an integer\n")

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_constant_of_non_positive_order_exit_two(self, capsys, n):
        assert main(["construct", "constant", n, "0"]) == 2
        assert capsys.readouterr() == ("", f"error: order must be positive, got {n}\n")

    def test_bad_factorization_exit_two(self, capsys):
        assert main(["construct", "factorization", "--cyclic", "4",
                     "--h", "0,1", "--k", "0,1"]) == 2


def _capacity(order):
    return f"capacity: constructions are bounded at order 2048, got {order}\n"


# two copies of an order-1025 table would build order 2050
CONSTANT_1025 = "1025\n" + ("0 " * 1024 + "0\n") * 1025
ZEROS_1025 = ",".join(["0"] * 1025)


# Each argv, with FILE standing for a table file of the given text, and the
# exit code and stderr (a whole line, or a part of argparse's usage text)
# that it must give with nothing on stdout.
HOSTILE_INPUTS = {
    "evans-10^10": (["construct", "evans", "100000"], None, 3, _capacity(10 ** 10)),
    "band-9*10^6": (["construct", "band", "3000", "3000"], None, 3, _capacity(9 * 10 ** 6)),
    "constant-10^8": (["construct", "constant", "100000000", "0"], None, 3, _capacity(10 ** 8)),
    "cyclic-10^5": (["construct", "factorization", "--cyclic", "100000", "--h", "0",
                     "--k", "0"], None, 3, _capacity(10 ** 5)),
    "abelian-10^6": (["construct", "factorization", "--abelian", "1000,1000", "--h", "0",
                      "--k", "0"], None, 3, _capacity(10 ** 6)),
    "file-order-2049": (["check", "--property", "full", "FILE"], "2049\n", 3,
                        "capacity: files are bounded at order 2048, got 2049\n"),
    "file-order-2048": (["check", "--property", "full", "FILE"], "2048\n", 2,
                        "error: line 2: expected 2048 table lines\n"),
    "left-split-2050": (["construct", "left-split", "FILE", "FILE", "--f", ZEROS_1025,
                         "--g", ZEROS_1025], CONSTANT_1025, 3, _capacity(2050)),
    "entry-plus": (["check", "--property", "full", "FILE"], "2\n0 +1\n1 0\n", 2,
                   "error: line 2: bad entry '+1' in column 1\n"),
    "entry-underscore": (["check", "--property", "full", "FILE"], "2\n0 1\n1 0_0\n", 2,
                         "error: line 3: bad entry '0_0' in column 1\n"),
    "entry-arabic-indic": (["check", "--property", "full", "FILE"], "2\n0 ١\n1 0\n", 2,
                           "error: line 2: bad entry '١' in column 1\n"),
    "rows-split-by-u2028": (["check", "--property", "full", "FILE"], "2\n0 1\u20281 0\n", 2,
                            "error: line 3: expected 2 table lines\n"),
    "red-row-split-by-ff": (["check", "--property", "p2", "FILE"], "2\n01\f10\n\n01\n10\n", 2,
                            "error: line 2: expected 2 characters of 0/1, got '01\\x0c10'\n"),
    "order-plus": (["check", "--property", "full", "FILE"], "+1\n0\n", 2,
                   "error: line 1: expected the order, got '+1'\n"),
    "order-arabic-indic": (["check", "--property", "full", "FILE"], "١\n0\n", 2,
                           "error: line 1: expected the order, got '١'\n"),
    "list-arabic-indic": (["construct", "factorization", "--cyclic", "4", "--h", "0,٢",
                           "--k", "0"], None, 2, "error: --h: '٢' is not an integer\n"),
    "list-plus": (["construct", "factorization", "--abelian", "2,+2", "--h", "0", "--k", "0"],
                  None, 2, "error: --abelian: '+2' is not an integer\n"),
    "order-spec-blank": (["enumerate", "--class", "rectangular", "--order", " 4"], None, 2,
                         "error: --order must be N or NxM, got ' 4'\n"),
    "order-spec-plus": (["enumerate", "--class", "band-blowups", "--order", "2x+2"], None, 2,
                        "error: --order must be N or NxM, got '2x+2'\n"),
    "order-spec-pair": (["enumerate", "--class", "rectangular", "--order", "3x4"], None, 2,
                        "error: class rectangular takes a single order, got '3x4'\n"),
    "argument-plus": (["construct", "constant", "+1", "0"], None, 2,
                      "argument n: invalid int value: '+1'"),
    "argument-underscore": (["construct", "band", "2", "0_2"], None, 2,
                            "argument m: invalid int value: '0_2'"),
    "argument-arabic-indic": (["construct", "evans", "٢"], None, 2,
                              "argument m: invalid int value: '٢'"),
    "argument-option": (["construct", "factorization", "--cyclic", "+4", "--h", "0",
                         "--k", "0"], None, 2, "argument --cyclic: invalid int value: '+4'"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_INPUTS))
def test_hostile_input_exits_with_its_code_and_no_output(capsys, table_file, case):
    argv, text, code, err = HOSTILE_INPUTS[case]
    if text is not None:
        argv = [table_file("t.tbl", text) if arg == "FILE" else arg for arg in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == err if err.endswith("\n") else err in captured.err


class TestCliEnumerate:
    def test_help_names_the_census_bounds(self, capsys):
        # the parser is built without importing census, so its help text
        # states the bounds as numbers; raising a bound must update it
        assert main(["enumerate", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert census.RECT_ISO_BOUND == census.RECT_ISOTOPY_BOUND
        for phrase in (f"labeled tables are listed to order {census.RECT_LIST_BOUND} and "
                       f"counted to order {census.RECT_COUNT_BOUND}",
                       f"iso and isotopy classes go to order {census.RECT_ISO_BOUND}",
                       f"N*M <= {census.BLOW_UP_BOUND}",
                       f"central classes go to order {census.CENTRAL_BOUND}"):
            assert phrase in text

    def test_count(self, capsys):
        assert main(["enumerate", "--class", "rectangular", "--order", "2",
                     "--up-to", "labeled"]) == 0
        assert capsys.readouterr().out == "6\n"

    def test_tables(self, capsys):
        assert main(["enumerate", "--class", "rectangular", "--order", "2",
                     "--up-to", "iso", "--emit", "tables"]) == 0
        out = capsys.readouterr().out
        chunks = out.strip().split("\n\n")
        assert len(chunks) == 5
        assert all(parse_table(c + "\n").order == 2 for c in chunks)

    def test_json(self, capsys):
        assert main(["enumerate", "--class", "central", "--order", "4",
                     "--emit", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["order"] == 4
        assert payload["class"] == "central"
        assert payload["mode"] == "isomorphism"
        assert payload["count"] == 1
        assert len(payload["tables"]) == 1

    def test_band_blowups(self, capsys):
        assert main(["enumerate", "--class", "band-blowups", "--order", "2x2"]) == 0
        assert capsys.readouterr().out == "12\n"

    def test_band_blowups_at_band_order_sixteen(self, capsys):
        assert main(["enumerate", "--class", "band-blowups", "--order", "4x4"]) == 0
        assert capsys.readouterr().out == f"{oracles.blow_up_count_exact(4, 4)}\n"

    def test_band_blowups_beyond_band_order_ten_thousand_exit_three(self, capsys):
        assert main(["enumerate", "--class", "band-blowups", "--order", "101x100"]) == 3
        assert capsys.readouterr() == (
            "", "capacity: band blow-up census is bounded at order 10000, got 10100\n")

    def test_band_blowups_take_labeled_only(self, capsys):
        argv = ["enumerate", "--class", "band-blowups", "--order", "2x2", "--emit", "json"]
        assert main(argv) == 0
        unset = capsys.readouterr().out
        assert main(argv + ["--up-to", "labeled"]) == 0
        assert capsys.readouterr().out == unset
        for up_to in ("iso", "isotopy"):
            assert main(argv + ["--up-to", up_to]) == 2
            assert capsys.readouterr() == (
                "", "error: band-blowups is a labeled count; --up-to must be labeled\n")

    def test_up_to_defaults_to_iso_for_the_other_classes(self, capsys):
        for klass, order in (("rectangular", "3"), ("central", "4")):
            argv = ["enumerate", "--class", klass, "--order", order, "--emit", "json"]
            assert main(argv) == 0
            unset = capsys.readouterr().out
            assert json.loads(unset)["mode"] == "isomorphism"
            assert main(argv + ["--up-to", "iso"]) == 0
            assert capsys.readouterr().out == unset
        for up_to in ("labeled", "isotopy"):
            assert main(["enumerate", "--class", "central", "--order", "4",
                         "--up-to", up_to]) == 2
            assert capsys.readouterr() == (
                "", "error: central census is always up to isomorphism\n")

    def test_band_blowups_need_two_sides(self, capsys):
        assert main(["enumerate", "--class", "band-blowups", "--order", "4"]) == 2

    @pytest.mark.parametrize("order", ["3x", "abc", "3X4"])
    def test_malformed_order_names_the_option(self, capsys, order):
        assert main(["enumerate", "--class", "rectangular", "--order", order]) == 2
        assert capsys.readouterr() == (
            "", f"error: --order must be N or NxM, got {order!r}\n")

    def test_labeled_listing_beyond_its_bound_exit_three(self, capsys):
        assert main(["enumerate", "--class", "rectangular", "--order", "4",
                     "--up-to", "labeled", "--emit", "tables"]) == 3
        assert capsys.readouterr() == ("", "capacity: listing is bounded at order 3\n")

    def test_labeled_count_at_order_five(self, capsys):
        assert main(["enumerate", "--class", "rectangular", "--order", "5",
                     "--up-to", "labeled"]) == 0
        assert capsys.readouterr() == ("23901245\n", "listing is bounded at order 3\n")

    def test_labeled_count_beyond_order_five_exit_three(self, capsys):
        assert main(["enumerate", "--class", "rectangular", "--order", "6",
                     "--up-to", "labeled"]) == 3
        assert capsys.readouterr() == (
            "", "capacity: mode labeled is bounded at order 5, got 6\n")

    def test_band_blowup_tables_rejected_before_the_census(self, capsys, monkeypatch):
        def census_run(*args):
            raise AssertionError("the census ran")

        monkeypatch.setattr(census, "enumerate_band_blow_ups", census_run)
        assert main(["enumerate", "--class", "band-blowups", "--order", "3x4",
                     "--emit", "tables"]) == 2
        assert capsys.readouterr() == ("", "error: band-blowups emits counts only\n")

    def test_capacity_exit_three(self, capsys):
        assert main(["enumerate", "--class", "rectangular", "--order", "9",
                     "--up-to", "labeled"]) == 3
        assert main(["enumerate", "--class", "central", "--order", "16"]) == 3

    def test_order_16_exits_three_at_once_and_long_run_is_unrecognized(self, capsys):
        # no central census runs past its bound: order 16 is refused before
        # any search, and the CLI has no flag that lifts the bound
        start = time.perf_counter()
        assert main(["enumerate", "--class", "central", "--order", "16"]) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == (
            "", "capacity: central census is bounded at order 9, got 16\n")
        assert main(["enumerate", "--class", "central", "--order", "16", "--long-run"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --long-run" in captured.err

    def test_jobs_do_not_change_output(self, capsys):
        # the CLI has no --jobs; its census JSON is the library's at any jobs
        argv = ["enumerate", "--class", "rectangular", "--order", "3",
                "--up-to", "iso", "--emit", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        for jobs in (1, 3):
            result = census.enumerate_rectangular(3, "isomorphism", jobs=jobs)
            assert census_json(result, "rectangular") == first
        assert main(argv + ["--jobs", "3"]) == 2
        assert capsys.readouterr().out == ""

    def test_jobs_below_one_exit_two(self, capsys):
        # --jobs is gone, so any value is an unrecognized argument
        for klass, order in (("rectangular", "2"), ("central", "4")):
            for jobs in ("-5", "0", "2"):
                assert main(["enumerate", "--class", klass, "--order", order,
                             "--jobs", jobs]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert f"unrecognized arguments: --jobs {jobs}" in captured.err

    def test_jobs_below_one_exit_two_where_jobs_is_unused(self, capsys, table_file):
        path = table_file("x4.tbl", X4_TEXT)
        for argv in (["check", "--property", "central", path],
                     ["enumerate", "--class", "band-blowups", "--order", "2x2"]):
            for jobs in ("-3", "0", "two", "2"):
                assert main(argv + ["--jobs", jobs]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert f"unrecognized arguments: --jobs {jobs}" in captured.err
            assert main(argv) in (0, 1)
            assert capsys.readouterr().out

    def test_non_square_central_reports_note(self, capsys):
        assert main(["enumerate", "--class", "central", "--order", "6"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "0\n"
        assert "square" in captured.err


# sha256 of the census JSON on stdout: a change to the censuses' search or
# deduplication must leave these bytes as they are
CENSUS_JSON_SHA256 = {
    ("rectangular", "labeled", 1): "f15894c5d42b056b2e0b0f83cfe2cf5f6c85be9b0f7cc9aef10a85378a115b44",
    ("rectangular", "labeled", 2): "965b1a169e8f9d863f768e9c582448720b8027c7af5cdcce2e3a171f71e13c71",
    ("rectangular", "labeled", 3): "8ff45573aa8a46a5f744a51ef85b9f0f1ec9d8524edb22f7d89e1304d63f038f",
    ("rectangular", "labeled", 4): "2e03ea68e95751be0b9beab54955476d5963c915c27e639f4e73d0ae7c91b2b5",
    ("rectangular", "labeled", 5): "1ce7c7d1e0aab1e5bec8919c4a4704383e0446ccf7e001471511cefe6dc5d2b5",
    ("rectangular", "iso", 1): "4a7aa705069b107614fae28c04e2e3b5136c1fad890c74ce4d657c9cba96294c",
    ("rectangular", "iso", 2): "cac6958a7a724ff83e1ed4085c82fd20d3247be9ecf45664cbe3a9475e485f89",
    ("rectangular", "iso", 3): "b3ef962eac3873e076812dc42a5e41ee7fbf87e662f867f8bcf7aad75b2e839d",
    ("rectangular", "iso", 4): "03cd253ccd323540b36987fe975c70b065700cb50120317940f28acc35169165",
    ("rectangular", "isotopy", 1): "87664878614e68b16ed5b76a49f81e29a920b70d343e4e41801b89b160507164",
    ("rectangular", "isotopy", 2): "7ded2dfe39409fa769e08e3639f10993170b8c12332de723764d4eaa90203fdd",
    ("rectangular", "isotopy", 3): "47d438b334696cbde9da62455bfc53931195670ae7e3190dbafcda26b8ae08b0",
    ("rectangular", "isotopy", 4): "a73a2d3e41c6b97e7e27d305e55df25297310008f070f8e30bd2e94dd36a857a",
    ("central", "iso", 1): "cc80fe4f6435e92fb9497cf044a58cf121ba565769f3690cb6b8a600c899819d",
    ("central", "iso", 4): "72638b06a6d7bfafa7b552d053bccef299d8e647cd345cd450a502073daa5220",
    ("central", "iso", 9): "b2dcd93c98f53892cbd1982f7d394f69859ea9415e365631d56b903335f586e9",
    ("band-blowups", "labeled", "2x2"): "0496f7acc5b27e38ca09bb898a04efac715aea43a951dbb14e9b108b0fb7b120",
    ("band-blowups", "labeled", "3x4"): "076c8cc412bfc3aedf23f047db503d5da8f05f993eac211ea28e71ce7fc9fecf",
}


@pytest.mark.parametrize("klass, up_to, order", sorted(CENSUS_JSON_SHA256))
def test_census_json_bytes_are_pinned(capsys, klass, up_to, order):
    assert main(["enumerate", "--class", klass, "--order", str(order),
                 "--up-to", up_to, "--emit", "json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == CENSUS_JSON_SHA256[klass, up_to, order]


@pytest.mark.parametrize("kind, result", [
    ("rectangular", lambda: census.enumerate_rectangular(4, "labeled")),
    *[("rectangular", lambda n=n, mode=mode: census.enumerate_rectangular(n, mode))
      for mode in ("isomorphism", "isotopy") for n in (1, 2, 3)],
    ("central", lambda: census.enumerate_central(10)),
    ("band-blowups", lambda: census.CensusResult(
        (3, 4), "labeled", census.enumerate_band_blow_ups(3, 4), None))],
    ids=["labeled-o4", *[f"{mode}-o{n}" for mode in ("iso", "isotopy") for n in (1, 2, 3)],
         "central-o10", "band-blowups-3x4"])
def test_census_json_is_the_json_encoders_text(kind, result):
    # every shape the CLI emits: tables null, empty and listed, and an
    # order that is an int or a band's pair
    r = result()
    payload = {"order": r.order, "class": kind, "mode": r.mode, "count": r.count,
               "tables": None if r.tables is None else [list(g.flat()) for g in r.tables]}
    assert census_json(r, kind) == json.dumps(payload, indent=2) + "\n"


def test_census_json_takes_only_the_census_class_and_mode_names():
    r = census.enumerate_rectangular(2, "isomorphism")
    for kind in ("groupoid", 'rect"angular', ""):
        with pytest.raises(ValueError):
            census_json(r, kind)
    with pytest.raises(ValueError):
        census_json(census.CensusResult(2, "iso", r.count, r.tables), "rectangular")


class TestCliIsotopyAndTransversal:
    def test_isotopy_witness(self, capsys, table_file):
        a = table_file("a.tbl", render_table(fx.T5A))
        b = table_file("b.tbl", render_table(fx.T5B))
        assert main(["isotopy", a, b]) == 0
        out = capsys.readouterr().out
        assert out.startswith("alpha:")
        assert "gamma:" in out

    def test_isotopy_none(self, capsys, table_file):
        a = table_file("a.tbl", render_table(make_groupoid(2, [0, 0, 0, 0])))
        b = table_file("b.tbl", render_table(make_groupoid(2, [0, 0, 1, 1])))
        assert main(["isotopy", a, b]) == 1
        assert capsys.readouterr().out == "none\n"

    def test_isotopy_capacity(self, capsys, table_file):
        big = render_table(make_groupoid(7, [0] * 49))
        a = table_file("a.tbl", big)
        b = table_file("b.tbl", big)
        assert main(["isotopy", a, b]) == 3

    def test_transversal(self, capsys, table_file):
        path = table_file("t5a.tbl", render_table(fx.T5A))
        assert main(["transversal", path]) == 0
        assert capsys.readouterr().out == "0 0\n1 1\n2 2\n3 3\n4 4\n"

    def test_transversal_none(self, capsys, table_file):
        path = table_file("c4.tbl", render_table(fx.C4))
        assert main(["transversal", path]) == 1
        assert capsys.readouterr().out == "none\n"

    def test_transversal_of_order_1024(self, capsys, table_file):
        # one row per search level: deeper than the interpreter's stack
        g = rectangular_band(32, 32)
        path = table_file("b1024.tbl", render_table(g))
        assert main(["transversal", path]) == 0
        cells = [tuple(map(int, line.split()))
                 for line in capsys.readouterr().out.splitlines()]
        assert [r for r, _ in cells] == list(range(1024))
        assert sorted(c for _, c in cells) == list(range(1024))
        assert len({g.table[r][c] for r, c in cells}) == 1024

    def test_transversal_past_its_step_bound_exit_three(self, capsys, table_file,
                                                        monkeypatch):
        # Z_8 has no transversal, and its search takes 33 345 column steps
        monkeypatch.setattr(isotopy, "TRANSVERSAL_STEP_BOUND", 1000)
        z8 = make_groupoid(8, [(a + b) % 8 for a in range(8) for b in range(8)])
        path = table_file("z8.tbl", render_table(z8))
        start = time.perf_counter()
        assert main(["transversal", path]) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == (
            "", "capacity: transversal search is bounded at 1000 column steps\n")

    def test_transversal_one_based(self, capsys, table_file):
        path = table_file("t5a.tbl", render_table(fx.T5A))
        assert main(["transversal", "--one-based", path]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "1 1"
