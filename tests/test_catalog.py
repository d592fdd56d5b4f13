"""Group constructors, the expression parser, and the order-16 catalog."""

import math
import os
import random
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from latgraph import catalog
from latgraph.catalog import (
    ArityError,
    CayleyParseError,
    DirectProduct,
    ExprSyntaxError,
    FromCayleyFile,
    InvalidParameter,
    Term,
    UnknownConstructor,
    build_group,
    format_group_expr,
    order16_catalog,
    parse_group_expr,
)
from latgraph.group_core import (
    DEFAULT_ORDER_CAP,
    EmptyTable,
    GroupTableError,
    NotClosed,
    TooLarge,
    is_abelian,
    order_statistics,
    validate_group,
)
from latgraph.lattice import totient

from conftest import (
    element_order,
    group_of,
    reference_cayley_csv_data,
    reference_closure_table,
    reference_dihedral_data,
    reference_heisenberg_data,
    reference_modular_data,
    reference_quaternion_data,
    reference_semidihedral_data,
)


class TestParser:
    def test_direct_product(self):
        assert parse_group_expr("Z(2)xZ(6)") == DirectProduct(Term("Z", (2,)), Term("Z", (6,)))

    def test_semidihedral(self):
        assert parse_group_expr("SD(16)") == Term("SD", (16,))

    def test_trailing_product_reports_position(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_group_expr("Z(4)x")
        assert info.value.position == 5
        assert "term" in info.value.expected

    def test_left_associativity(self):
        expr = parse_group_expr("Z(2)xZ(3)xZ(5)")
        assert expr == DirectProduct(
            DirectProduct(Term("Z", (2,)), Term("Z", (3,))), Term("Z", (5,))
        )

    def test_whitespace_insignificant(self):
        assert parse_group_expr(" Z( 2 ) x  Z(6) ") == parse_group_expr("Z(2)xZ(6)")

    def test_two_argument_constructor(self):
        assert parse_group_expr("M(2,4)") == Term("M", (2, 4))

    def test_all_constructors(self):
        cases = {
            "Z(5)": Term("Z", (5,)),
            "D(8)": Term("D", (8,)),
            "Q(16)": Term("Q", (16,)),
            "S(4)": Term("S", (4,)),
            "A(5)": Term("A", (5,)),
            "Heis(3)": Term("Heis", (3,)),
            "G16(7)": Term("G16", (7,)),
            "cayley:fixtures/z4.csv": FromCayleyFile("fixtures/z4.csv"),
        }
        for text, expected in cases.items():
            assert parse_group_expr(text) == expected

    def test_unknown_constructor(self):
        with pytest.raises(UnknownConstructor) as info:
            parse_group_expr("W(3)")
        assert info.value.name == "W"

    def test_arity_errors(self):
        with pytest.raises(ArityError):
            parse_group_expr("Z(1,2)")
        with pytest.raises(ArityError):
            parse_group_expr("M(5)")

    def test_missing_argument(self):
        with pytest.raises(ExprSyntaxError):
            parse_group_expr("Z()")

    @pytest.mark.parametrize(
        "text,position",
        [("Z(" + "9" * 5000 + ")", 2), ("Z(²)", 2), ("M(2,²)", 4), ("Z(1²)", 2)],
        ids=["5000 digits", "superscript", "second argument", "digit then superscript"],
    )
    def test_integer_python_cannot_convert_is_a_syntax_error_at_its_position(self, text, position):
        with pytest.raises(ExprSyntaxError) as info:
            parse_group_expr(text)
        assert info.value.position == position
        assert info.value.expected == "an integer"

    def test_doubled_product_operator(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_group_expr("Z(2)xxZ(3)")
        assert info.value.position == 5

    def test_trailing_junk(self):
        with pytest.raises(ExprSyntaxError):
            parse_group_expr("Z(2))")

    @pytest.mark.parametrize(
        "text",
        ["Z(2)xZ(6)", "SD(16)", "M(2,4)", "Z(2)xZ(3)xZ(5)", "G16(14)", "cayley:a/b.csv"],
    )
    def test_round_trip_through_canonical_form(self, text):
        expr = parse_group_expr(text)
        assert parse_group_expr(format_group_expr(expr)) == expr
        assert format_group_expr(expr) == text


class TestCyclic:
    def test_trivial(self):
        assert group_of("Z(1)").order == 1

    def test_z6(self):
        G = group_of("Z(6)")
        assert order_statistics(G) == {1: 1, 2: 1, 3: 2, 6: 2}

    def test_invalid(self):
        with pytest.raises(InvalidParameter):
            group_of("Z(0)")


class TestDihedral:
    def test_d6_looks_like_s3(self):
        assert order_statistics(group_of("D(6)")) == {1: 1, 2: 3, 3: 2}
        assert order_statistics(group_of("D(6)")) == order_statistics(group_of("S(3)"))

    def test_d8_has_two_elements_of_order_four(self):
        assert order_statistics(group_of("D(8)"))[4] == 2

    def test_d4_is_klein_four(self):
        assert order_statistics(group_of("D(4)")) == {1: 1, 2: 3}
        assert is_abelian(group_of("D(4)"))

    @pytest.mark.parametrize("bad", [2, 7, 0])
    def test_invalid(self, bad):
        with pytest.raises(InvalidParameter):
            group_of(f"D({bad})")


class TestQuaternion:
    def test_q8_unique_involution(self):
        assert order_statistics(group_of("Q(8)"))[2] == 1

    def test_q8_three_cyclic_subgroups_of_order_four(self):
        from latgraph.group_core import cyclic_subgroups

        subs = cyclic_subgroups(group_of("Q(8)"))
        assert sum(1 for s in subs if s.order == 4) == 3

    def test_q16_statistics(self):
        assert order_statistics(group_of("Q(16)")) == {1: 1, 2: 1, 4: 10, 8: 4}

    @pytest.mark.parametrize("bad", [4, 12, 9])
    def test_invalid(self, bad):
        with pytest.raises(InvalidParameter):
            group_of(f"Q({bad})")


class TestSemidihedral:
    def test_sd16_exists_and_is_nonabelian(self):
        G = group_of("SD(16)")
        assert G.order == 16
        assert not is_abelian(G)

    def test_sd16_statistics(self):
        # frozen from exhaustive enumeration: five involutions
        assert order_statistics(group_of("SD(16)")) == {1: 1, 2: 5, 4: 6, 8: 4}

    @pytest.mark.parametrize("bad", [8, 24])
    def test_invalid(self, bad):
        with pytest.raises(InvalidParameter):
            group_of(f"SD({bad})")


class TestModular:
    def test_m24_order_16_nonabelian(self):
        G = group_of("M(2,4)")
        assert G.order == 16
        assert not is_abelian(G)

    def test_m24_contains_cyclic_subgroup_of_order_8(self):
        from latgraph.group_core import cyclic_subgroups

        assert any(s.order == 8 for s in cyclic_subgroups(group_of("M(2,4)")))

    def test_invalid(self):
        with pytest.raises(InvalidParameter):
            group_of("M(4,3)")
        with pytest.raises(InvalidParameter):
            group_of("M(2,2)")

    def test_an_order_too_long_to_print_is_named_as_a_power(self):
        # past Python's 4300-digit limit on printing: 2^15000 has 4516
        # digits, 3^9100 has 4342; the second is formed under this cap
        for p, n in ((2, 15000), (3, 9100)):
            for cap in (512, 10**4000):
                with pytest.raises(TooLarge) as info:
                    build_group(parse_group_expr(f"M({p},{n})"), order_cap=cap).group
                assert (info.value.size, info.value.cap) == (f"{p}^{n}", cap)
        with pytest.raises(TooLarge) as info:
            group_of("M(2,14000)")
        assert info.value.size == 2**14000


class TestHeisenberg:
    def test_order_27_exponent_3(self):
        G = group_of("Heis(3)")
        assert G.order == 27
        assert order_statistics(G) == {1: 1, 3: 26}
        assert not is_abelian(G)

    def test_p5(self):
        assert group_of("Heis(5)").order == 125

    @pytest.mark.parametrize("bad", [2, 4, 9])
    def test_invalid(self, bad):
        with pytest.raises(InvalidParameter):
            group_of(f"Heis({bad})")


class TestPresentationTables:
    """The broadcast tables equal the element loops, names included."""

    @pytest.mark.parametrize("build, reference, args", [
        *[(catalog._dihedral_data, reference_dihedral_data, (n,)) for n in (4, 6, 8, 10, 64, 128)],
        *[(catalog._quaternion_data, reference_quaternion_data, (n,)) for n in (8, 16, 64)],
        *[(catalog._semidihedral_data, reference_semidihedral_data, (n,)) for n in (16, 32, 64)],
        *[(catalog._modular_data, reference_modular_data, pn)
          for pn in ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (5, 3))],
        *[(catalog._heisenberg_data, reference_heisenberg_data, (p,)) for p in (3, 5)],
    ])
    def test_table_and_names_equal_the_loops(self, build, reference, args):
        table, names = build(*args)
        want_table, want_names = reference(*args)
        assert np.array_equal(table, want_table)
        assert names == want_names


class TestPermutationGroups:
    @pytest.mark.parametrize("n,order", [(1, 1), (2, 2), (3, 6), (4, 24), (5, 120)])
    def test_symmetric_orders(self, n, order):
        assert group_of(f"S({n})").order == order

    @pytest.mark.parametrize("n,order", [(2, 1), (3, 3), (4, 12), (5, 60)])
    def test_alternating_orders(self, n, order):
        assert group_of(f"A({n})").order == order

    def test_out_of_range(self):
        with pytest.raises(InvalidParameter):
            group_of("S(7)")
        with pytest.raises(InvalidParameter):
            group_of("A(7)")

    @pytest.mark.parametrize("degree, generators", [
        *[(n, catalog._SYM_GENERATORS[n]) for n in range(1, 6)],
        *[(n, catalog._ALT_GENERATORS[n]) for n in range(2, 6)],
        *[(r["degree"], r["generators"]) for r in catalog.ORDER16_PERM_RECORDS],
    ])
    def test_closure_table_equals_the_pairwise_loop(self, degree, generators):
        generators = tuple(map(tuple, generators))
        table, _ = catalog._closure_data(degree, generators)
        want = reference_closure_table(degree, generators)
        assert table.dtype == want.dtype and np.array_equal(table, want)


def product(text: str, order_cap: int = DEFAULT_ORDER_CAP):
    return build_group(parse_group_expr(text), order_cap=order_cap).group


class TestDirectProduct:
    def test_c2xc6(self):
        G = product("Z(2)xZ(6)")
        assert G.order == 12
        assert order_statistics(G) == {1: 1, 2: 3, 3: 2, 6: 6}

    def test_product_with_trivial_is_same_table(self):
        G = group_of("D(8)")
        P = product("D(8)xZ(1)")
        assert np.array_equal(P.table, G.table)

    def test_q8xz3(self):
        assert product("Q(8)xZ(3)").order == 24

    def test_order_cap(self):
        with pytest.raises(TooLarge):
            product("Z(30)xZ(30)")

    def test_order_4096_matches_int64_reference(self):
        G, H = group_of("Z(64)"), group_of("D(64)")
        P = product("Z(64)xD(64)", order_cap=4096)
        assert P.order == 4096
        assert P.table.dtype == np.int32
        tg, th = G.table.astype(np.int64), H.table.astype(np.int64)
        # one block of |H| rows per element g of G, so no n x n int64 copy
        for g in range(G.order):
            block = (tg[g][None, :, None] * H.order + th[:, None, :]).reshape(H.order, -1)
            assert np.array_equal(P.table[g * H.order : (g + 1) * H.order], block)

    def test_coprime_factor_orders_follow_lcm(self):
        from math import lcm

        G, H = group_of("Z(8)"), group_of("Z(15)")
        P = product("Z(8)xZ(15)")
        rng = random.Random(7)
        for _ in range(25):
            g = rng.randrange(G.order)
            h = rng.randrange(H.order)
            expected = lcm(element_order(G, g), element_order(H, h))
            assert element_order(P, g * H.order + h) == expected


class TestCayleyCsv:
    def test_z4_round_trip(self, tmp_path):
        path = tmp_path / "z4.csv"
        path.write_text("0,1,2,3\n1,2,3,0\n2,3,0,1\n3,0,1,2\n")
        G = group_of(f"cayley:{path}")
        assert order_statistics(G) == order_statistics(group_of("Z(4)"))

    def test_whitespace_separated(self, tmp_path):
        path = tmp_path / "z2.csv"
        path.write_text("0 1\n1 0\n")
        assert group_of(f"cayley:{path}").order == 2

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n1\n")
        with pytest.raises(CayleyParseError) as info:
            group_of(f"cayley:{path}")
        assert info.value.row == 1

    def test_overlong_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,1\n1,0\n")
        with pytest.raises(CayleyParseError) as info:
            group_of(f"cayley:{path}")
        assert (info.value.row, info.value.col) == (0, 2)
        assert "expected 2 entries, found more than 2" in str(info.value)

    def test_overlong_row_is_not_split_whole(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(",".join(map(str, range(300_000))) + "\n1,0\n")
        size = path.stat().st_size
        tracemalloc.start()
        try:
            with pytest.raises(CayleyParseError) as info:
                group_of(f"cayley:{path}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.row == 0
        # a whole split holds 300 000 cell strings, about 12 times the file size
        assert peak < 5 * size

    def test_non_integer_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,x\n1,0\n")
        with pytest.raises(CayleyParseError):
            group_of(f"cayley:{path}")
        path.write_text("0 1 2\n1 2 0\n2 0 1.0\n")
        with pytest.raises(CayleyParseError) as info:
            group_of(f"cayley:{path}")
        assert (info.value.row, info.value.col) == (2, 2)
        assert "not an integer: '1.0'" in str(info.value)

    def test_cell_beyond_int64(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n1,99999999999999999999\n")
        with pytest.raises(CayleyParseError) as info:
            group_of(f"cayley:{path}")
        assert (info.value.row, info.value.col) == (1, 1)

    def test_order_cap_before_parsing(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("x\n" * 3)
        with pytest.raises(TooLarge) as info:
            build_group(parse_group_expr(f"cayley:{path}"), order_cap=2).group
        assert (info.value.size, info.value.cap) == (3, 2)
        with pytest.raises(TooLarge):
            build_group(FromCayleyFile(str(path)), order_cap=2)

    def test_non_associative_table(self, tmp_path):
        from latgraph.group_core import GroupTableError

        path = tmp_path / "bad.csv"
        rows = [[(i + j) % 6 for j in range(6)] for i in range(6)]
        rows[1][1] = 3
        path.write_text("\n".join(",".join(map(str, r)) for r in rows))
        with pytest.raises(GroupTableError):
            group_of(f"cayley:{path}")

    def test_missing_file(self):
        with pytest.raises(OSError):
            group_of("cayley:/nonexistent/nowhere.csv")


def _relabelled_cells(expr: str, rng: random.Random) -> list[list[str]]:
    table = np.asarray(group_of(expr).table)
    n = len(table)
    perm = np.array(rng.sample(range(n), n))
    out = np.empty_like(table)
    out[perm[:, None], perm[None, :]] = perm[table]
    return [[str(v) for v in row] for row in out.tolist()]


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def _respell(rows, rng, spell):
    """Respell about a third of the cells that are ASCII digit strings."""
    return [
        [spell(c) if c.isascii() and c.isdigit() and rng.random() < 0.35 else c for c in row]
        for row in rows
    ]


def _lines(rows, sep=","):
    return [sep.join(row) for row in rows]


def _with_blank_lines(rows, rng):
    lines = []
    for line in _lines(rows):
        lines += [rng.choice(["", "  ", "\t"]) for _ in range(rng.randrange(3))]
        lines.append(line)
    return "\n".join(lines + ["", "\t"]) + "\n"


# each spelling is (rows of cell strings, rng) -> file text
SPELLINGS = {
    "comma": lambda rows, rng: "\n".join(_lines(rows)) + "\n",
    "comma-space": lambda rows, rng: "\n".join(_lines(rows, ", ")) + "\n",
    "tabs": lambda rows, rng: "\n".join(_lines(rows, "\t")) + "\n",
    "mixed-whitespace": lambda rows, rng: "\n".join(
        " " * rng.randrange(3)
        + "".join(c + rng.choice([" ", "  ", " \t", "\t", ",\t"]) for c in row)
        for row in rows
    ),
    "crlf": lambda rows, rng: "\r\n".join(_lines(rows)) + "\r\n",
    "blank-lines": _with_blank_lines,
    "trailing-comma": lambda rows, rng: "\n".join(line + "," for line in _lines(rows)),
    "doubled-comma": lambda rows, rng: "\n".join(_lines(rows, ",,")) + "\n",
    "leading-zeros": lambda rows, rng: "\n".join(
        _lines(_respell(rows, rng, lambda c: "0" * rng.randrange(1, 4) + c))
    ),
    "plus-signs": lambda rows, rng: "\n".join(_lines(_respell(rows, rng, lambda c: "+" + c))),
    "underscores": lambda rows, rng: "\n".join(_lines(_respell(rows, rng, lambda c: "0_" + c))),
    "arabic-indic-digits": lambda rows, rng: "\n".join(
        _lines(_respell(rows, rng, lambda c: c.translate(_ARABIC_INDIC)))
    ),
    "fullwidth-digits": lambda rows, rng: "\n".join(
        _lines(_respell(rows, rng, lambda c: c.translate(_FULLWIDTH)))
    ),
}


def _set_cell(value):
    def corrupt(rows, r, c, rng):
        rows[r][c] = value if isinstance(value, str) else value(len(rows), rng)

    return corrupt


def _extra_cell(rows, r, c, rng):
    rows[r].insert(c, str(rng.randrange(len(rows))))


def _missing_cell(rows, r, c, rng):
    del rows[r][c]


# each corruption changes the cell (r, c) of the rows in place
CORRUPTIONS = {
    "none": lambda rows, r, c, rng: None,
    "letter": _set_cell(lambda n, rng: rng.choice(["x", "a", "E", "1e3", "0x1"])),
    "decimal": _set_cell("1.0"),
    "negative": _set_cell("-1"),
    "twenty-digits": _set_cell(lambda n, rng: str(rng.randrange(10**19, 10**20))),
    "empty-cell": _set_cell(""),
    "extra-cell": _extra_cell,
    "missing-cell": _missing_cell,
    "value-at-least-n": _set_cell(lambda n, rng: str(n + rng.randrange(3))),
}

READER_GROUPS = ("Z(1)", "Z(2)", "S(3)", "Q(8)", "D(10)", "A(4)", "Z(2)xZ(6)")


def _outcome(read, path):
    """The table a reader returns, or its exception's type, row, column and
    message."""
    try:
        result = read(path)
    except (CayleyParseError, GroupTableError) as exc:
        return type(exc), getattr(exc, "row", None), getattr(exc, "col", None), str(exc)
    table = result[0] if isinstance(result, tuple) else result.table
    return table.dtype.name, table.tolist()


def assert_reads_like_reference(path: Path):
    path = str(path)
    expected = _outcome(lambda p: reference_cayley_csv_data(p, 512), path)
    assert _outcome(lambda p: catalog._cayley_csv_data(p, 512), path) == expected
    assert _outcome(lambda p: group_of(f"cayley:{p}"), path) == _outcome(
        lambda p: validate_group(reference_cayley_csv_data(p, 512)[0]), path
    )


class TestCayleyReaderAgainstReference:
    """The reader converts plain rows natively and every other row cell by
    cell; either way it must read every file as the plain cell loop does."""

    @pytest.mark.parametrize("spelling", sorted(SPELLINGS))
    def test_spellings_and_corruptions(self, spelling, tmp_path):
        for g, expr in enumerate(READER_GROUPS):
            for k, corruption in enumerate(sorted(CORRUPTIONS)):
                rng = random.Random(1000 * g + k)
                rows = _relabelled_cells(expr, rng)
                r = rng.randrange(len(rows))
                CORRUPTIONS[corruption](rows, r, rng.randrange(len(rows[r])), rng)
                path = tmp_path / f"{g}-{corruption}.csv"
                path.write_text(SPELLINGS[spelling](rows, rng), encoding="utf-8")
                assert_reads_like_reference(path)

    @pytest.mark.parametrize("text, row, n", [
        (",", 0, 1), (",\n", 0, 1), (" , ,\t", 0, 1), (",,,\n", 0, 1), ("0,1\n, ,\n", 1, 2),
    ])
    def test_separators_only_row_is_not_a_row_of_zeros(self, text, row, n, tmp_path):
        # np.fromstring reads a string of separators alone as [0]
        path = tmp_path / "seps.csv"
        path.write_text(text)
        with pytest.raises(CayleyParseError) as info:
            group_of(f"cayley:{path}")
        assert (info.value.row, info.value.col) == (row, 0)
        assert str(info.value) == f"row {row}, column 0: expected {n} entries, found 0"
        assert_reads_like_reference(path)

    @pytest.mark.parametrize("cell", [
        "99999999999999999999", str(2**63), str(2**64 + 1), "0" * 5 + str(2**63),
    ])
    def test_cell_beyond_int64_is_named_not_clamped(self, cell, tmp_path):
        # np.fromstring clamps it to 2**63 - 1 without a warning
        path = tmp_path / "big.csv"
        path.write_text(f"0,1\n1,{cell}\n")
        with pytest.raises(CayleyParseError) as info:
            group_of(f"cayley:{path}")
        assert str(info.value) == f"row 1, column 1: integer out of range: {cell!r}"

    def test_int64_maximum_is_read_exactly(self, tmp_path):
        path = tmp_path / "max.csv"
        path.write_text(f"0,1\n1,{2**63 - 1}\n")
        with pytest.raises(NotClosed) as info:
            group_of(f"cayley:{path}")
        assert (info.value.x, info.value.y, info.value.value) == (1, 1, 2**63 - 1)

    @pytest.mark.parametrize("row, found", [("1 2", "2"), ("1", "1"), ("1 2 0 1", "more than 3")])
    def test_short_or_long_plain_row_is_counted(self, row, found, tmp_path):
        # a count= past the row's cells would read uninitialised memory
        path = tmp_path / "ragged.csv"
        path.write_text(f"0 1 2\n{row}\n2 0 1\n")
        with pytest.raises(CayleyParseError) as info:
            group_of(f"cayley:{path}")
        col = 3 if found.startswith("more") else int(found)
        assert str(info.value) == f"row 1, column {col}: expected 3 entries, found {found}"


def _never_the_cell_loop(rows):
    raise AssertionError("a plain file reached the cell loop")


class TestReaderEdges:
    """A plain file is converted by one native call, and any other file, or
    a plain one that is not n rows of n entries in range, by the cell loop.
    The suite runs under ``-W error``, so none of these may warn."""

    @pytest.mark.parametrize("text", [b"", b"\n", b"\n\n", b" \t\n\r\n  \n", b"\r\r"])
    def test_empty_or_blank_file_is_an_empty_table(self, text, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(text)
        table, names = catalog._cayley_csv_data(str(path), 512)
        assert (table.shape, table.dtype, names) == ((0, 0), np.int64, [])
        with pytest.raises(EmptyTable):
            group_of(f"cayley:{path}")
        assert_reads_like_reference(path)

    @pytest.mark.parametrize("sep, end", [
        (",", "\n"), (",", "\r\n"), (",", "\r"), ("\t", "\n"), (" ", "\n"), (" ,\t", "\r\n"),
    ])
    def test_plain_file_never_reaches_the_cell_loop(self, sep, end, tmp_path, monkeypatch):
        rows = _relabelled_cells("D(10)", random.Random(3))
        path = tmp_path / "plain.csv"
        path.write_bytes(("\n" + end.join(sep.join(row) for row in rows) + end).encode())
        monkeypatch.setattr(catalog, "_cell_table", _never_the_cell_loop)
        table, _ = catalog._cayley_csv_data(str(path), 512)
        monkeypatch.undo()
        assert table.dtype == np.int64
        assert table.tolist() == [[int(c) for c in row] for row in rows]
        assert_reads_like_reference(path)

    @pytest.mark.parametrize("bad, message", [
        ("1 2", "row 2, column 2: expected 4 entries, found 2"),
        ("2 3 0 1 0", "row 2, column 4: expected 4 entries, found more than 4"),
        ("2 x 0 1", "row 2, column 1: not an integer: 'x'"),
        (", ,", "row 2, column 0: expected 4 entries, found 0"),
        ("2 3 0 4", "entry (2,3) = 4 is not an element id"),
        ("2 3 0 99999999999999999999", "row 2, column 3: integer out of range: '99999999999999999999'"),
    ])
    def test_one_bad_row_among_good_ones_is_named(self, bad, message, tmp_path):
        rows = ["0 1 2 3", "1 2 3 0", bad, "3 0 1 2"]
        for end in ("\n", "\r\n"):
            path = tmp_path / "bad.csv"
            path.write_bytes(end.join(rows).encode())
            with pytest.raises((CayleyParseError, GroupTableError)) as info:
                group_of(f"cayley:{path}")
            assert str(info.value) == message
            assert_reads_like_reference(path)


    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("text, outcome", [
        ("0 1\n1 +0\n", None),
        ("0,1\n1,x\n", "row 1, column 1: not an integer: 'x'"),
        ("0,1\n1,2\n", "entry (1,1) = 2 is not an element id"),
    ])
    def test_a_pipe_is_read_once(self, text, outcome, tmp_path):
        # a file that is not plain, or a plain one the cell loop must name,
        # is parsed from the bytes already read: a pipe has no second read
        fifo = tmp_path / "table.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            if outcome is None:
                assert group_of(f"cayley:{fifo}").order == 2
            else:
                with pytest.raises((CayleyParseError, GroupTableError)) as info:
                    group_of(f"cayley:{fifo}")
                assert str(info.value) == outcome
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()


class TestInt32Tables:
    @pytest.mark.parametrize("make", [
        lambda: group_of("Z(6)"),
        lambda: group_of("D(10)"),
        lambda: group_of("Q(16)"),
        lambda: group_of("SD(16)"),
        lambda: group_of("M(2,4)"),
        lambda: group_of("Heis(3)"),
        lambda: group_of("S(4)"),
        lambda: group_of("A(4)"),
        lambda: product("D(8)xZ(3)"),
        lambda: build_group(parse_group_expr("G16(13)xZ(2)")).group,
        lambda: validate_group(np.arange(4)[:, None] ^ np.arange(4)),
    ])
    def test_constructors_return_read_only_int32(self, make):
        G = make()
        assert G.table.dtype == np.int32
        assert not G.table.flags.writeable

    @pytest.mark.parametrize("text", ["Z(2048)", "D(2048)", "Q(2048)", "Heis(11)", "Z(2)xD(1024)"])
    def test_build_and_validation_hold_one_table(self, text):
        tracemalloc.start()
        try:
            G = build_group(parse_group_expr(text), order_cap=2048).group
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the int32 table and Light's test's blocks of 2^20 cells, with no
        # int64 table and no copy of the table
        assert peak < G.table.nbytes + 12 * 2**20

    def test_order16_catalog_is_int32(self):
        for entry in order16_catalog():
            assert entry.group.table.dtype == np.int32
            assert not entry.group.table.flags.writeable

    def test_cayley_csv_is_int32(self, tmp_path):
        path = tmp_path / "z3.csv"
        path.write_text("0,1,2\n1,2,0\n2,0,1\n")
        G = group_of(f"cayley:{path}")
        assert G.table.dtype == np.int32
        assert not G.table.flags.writeable


class TestBuildGroup:
    def test_build_matches_expression(self):
        named = build_group(parse_group_expr("Z(2)xZ(6)"))
        assert named.name == "Z(2)xZ(6)"
        assert named.group.order == 12
        assert len(named.element_names) == 12

    def test_element_names_compose_in_products(self):
        named = build_group(parse_group_expr("Z(2)xZ(3)"))
        assert named.element_names[0] == "(0,0)"
        assert named.element_names[-1] == "(1,2)"

    def test_g16_index_range(self):
        with pytest.raises(InvalidParameter):
            build_group(Term("G16", (15,)))

    def test_every_expression_revalidates(self):
        for text in ("D(10)", "SD(32)", "Heis(3)", "A(5)", "G16(13)"):
            named = build_group(parse_group_expr(text))
            revalidated = validate_group(np.asarray(named.group.table))
            assert revalidated.order == named.group.order


# each constructor name in the table: an expression and the order its
# parameters state
TERM_EXAMPLES = {
    "Z": ("Z(12)", lambda n: n),
    "D": ("D(10)", lambda order: order),
    "Q": ("Q(16)", lambda order: order),
    "SD": ("SD(32)", lambda order: order),
    "M": ("M(3,3)", lambda p, n: p**n),
    "S": ("S(4)", math.factorial),
    "A": ("A(5)", lambda n: math.factorial(n) // 2),
    "Heis": ("Heis(5)", lambda p: p**3),
    "G16": ("G16(12)", lambda index: 16),
}


@pytest.mark.parametrize("name", sorted(catalog._TERMS))
def test_every_constructor_round_trips_and_builds_its_order(name):
    text, stated_order = TERM_EXAMPLES[name]
    expr = parse_group_expr(text)
    assert expr == Term(name, expr.args)
    assert len(expr.args) == catalog._TERMS[name][0]
    assert format_group_expr(expr) == text
    assert build_group(expr).group.order == stated_order(*expr.args)


@pytest.mark.parametrize("name, args, error, message", [
    ("W", (3,), UnknownConstructor, "unknown constructor 'W' at position 0"),
    ("cayley", (1,), UnknownConstructor, "unknown constructor 'cayley' at position 0"),
    ("Z", (), ArityError, "Z takes 1 argument(s), got 0"),
    ("Z", (4, 2), ArityError, "Z takes 1 argument(s), got 2"),
    ("M", (2,), ArityError, "M takes 2 argument(s), got 1"),
    ("G16", (1, 2, 3), ArityError, "G16 takes 1 argument(s), got 3"),
])
def test_hand_built_term_is_refused_before_any_builder_runs(name, args, error, message,
                                                            monkeypatch):
    def builder(*args, order_cap):
        raise AssertionError("a builder ran")

    terms = {k: (arity, builder) for k, (arity, _) in catalog._TERMS.items()}
    monkeypatch.setattr(catalog, "_TERMS", terms)
    with pytest.raises(error) as info:
        build_group(Term(name, args))
    assert str(info.value) == message
    # the stub is what build_group calls: a well-formed term reaches it
    with pytest.raises(AssertionError, match="a builder ran"):
        build_group(Term("Z", (4,)))


@pytest.mark.parametrize("args, shown", [((True,), "True"), (("4",), "'4'"), ((4.0,), "4.0")])
def test_hand_built_term_refuses_an_argument_that_is_not_an_int(args, shown):
    with pytest.raises(InvalidParameter) as info:
        Term("Z", args)
    assert str(info.value) == f"Z takes integers, got {shown}"


def test_hand_built_term_names_its_bad_argument_after_a_good_one():
    with pytest.raises(InvalidParameter, match="M takes integers, got False"):
        Term("M", (2, False))


def _traced_peak_of_refusal(build) -> int:
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOrderCapBeforeAllocation:
    """A term over the cap is refused before its table is allocated: with
    the check after the build, each of these peaked at 14 to 67 MB."""

    @pytest.mark.parametrize("text", ["Z(2000)", "D(2000)", "Heis(11)", "M(2,11)", "Z(2)xZ(2000)"])
    def test_expression_refused_under_one_megabyte(self, text):
        assert _traced_peak_of_refusal(lambda: build_group(parse_group_expr(text))) < 2**20

    def test_constructor_refused_under_one_megabyte(self):
        assert _traced_peak_of_refusal(lambda: build_group(Term("Z", (2000,)))) < 2**20

    def test_a_factor_over_the_cap_names_its_own_order(self):
        with pytest.raises(TooLarge) as info:
            build_group(parse_group_expr("Z(600)xZ(2)"))
        assert (info.value.size, info.value.cap) == (600, 512)

    def test_parameter_errors_come_first(self):
        with pytest.raises(InvalidParameter):
            build_group(parse_group_expr("Heis(4)"), order_cap=8)
        with pytest.raises(InvalidParameter):
            build_group(Term("G16", (15,)), order_cap=8)

    @pytest.mark.parametrize("text, order", [("S(6)", 720), ("A(6)", 360)])
    def test_permutation_group_order_is_checked_before_the_closure(self, text, order, monkeypatch):
        def closure(*args):
            raise AssertionError("the closure ran")

        monkeypatch.setattr(catalog, "_closure_data", closure)
        with pytest.raises(TooLarge) as info:
            build_group(parse_group_expr(text), order_cap=100)
        assert (info.value.size, info.value.cap) == (order, 100)

    def test_product_keeps_its_own_check(self):
        with pytest.raises(TooLarge) as info:
            build_group(parse_group_expr("Z(20)xZ(30)"))
        assert (info.value.size, info.value.cap) == (600, 512)


class TestOrder16Catalog:
    def test_fourteen_groups_of_order_16(self):
        entries = order16_catalog()
        assert len(entries) == 14
        assert all(e.group.order == 16 for e in entries)

    def test_five_abelian_nine_nonabelian(self):
        flags = [is_abelian(e.group) for e in order16_catalog()]
        assert sum(flags) == 5

    def test_entries_in_order(self):
        assert [e.name for e in order16_catalog()] == [
            "Z16", "Z8xZ2", "Z4xZ4", "Z4xZ2xZ2", "Z2xZ2xZ2xZ2", "D16", "Q16", "SD16",
            "M(2,4)", "D8xZ2", "Q8xZ2", "Z4:Z4", "(Z4xZ2):Z2", "D8oZ4",
        ]

    def test_g16_builds_its_entry_alone(self, monkeypatch):
        entries = order16_catalog()

        def whole_catalog():
            raise AssertionError("G16(i) built the whole catalog")

        monkeypatch.setattr(catalog, "order16_catalog", whole_catalog)
        for i, entry in enumerate(entries, start=1):
            named = build_group(Term("G16", (i,)))
            assert np.array_equal(named.group.table, entry.group.table)
            assert named.element_names == entry.element_names

    def test_names_are_distinct(self):
        names = [e.name for e in order16_catalog()]
        assert len(set(names)) == 14

    def test_statistics_multisets_have_duplicates(self):
        # order statistics alone cannot separate the catalog
        stats = [tuple(sorted(order_statistics(e.group).items())) for e in order16_catalog()]
        assert len(set(stats)) < 14

    def test_totient_sums(self):
        from latgraph.group_core import cyclic_subgroups

        for e in order16_catalog():
            assert sum(totient(s.order) for s in cyclic_subgroups(e.group)) == 16
