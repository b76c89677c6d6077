"""SMX text format: exact parsing, formatting, round trips."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from centrostoch import Matrix, SmxError, format_matrix, parse_matrix

rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 17))


@st.composite
def matrices(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    rows = draw(
        st.lists(
            st.lists(rationals, min_size=n, max_size=n), min_size=m, max_size=m
        )
    )
    return Matrix(rows)


class TestParse:
    def test_basic(self):
        text = "3 4\n1/2 0 1/2 0\n3/10 0 0 7/10\n2/5 1/5 2/5 0\n"
        a = parse_matrix(text)
        assert a.shape == (3, 4)
        assert a.at(2, 4) == Fraction(7, 10)

    def test_integers_and_decimals(self):
        a = parse_matrix("1 3\n1 0.25 3/4\n")
        assert a.row(1) == (1, Fraction(1, 4), Fraction(3, 4))

    def test_comments_and_blank_lines(self):
        text = "# a matrix\n\n2 2\n# rows follow\n1 0\n\n  # indented comment\n0 1\n"
        assert parse_matrix(text) == Matrix.identity(2)

    def test_no_trailing_newline(self):
        assert parse_matrix("1 1\n7") == Matrix([[7]])

    def test_empty_input(self):
        with pytest.raises(SmxError):
            parse_matrix("")
        with pytest.raises(SmxError):
            parse_matrix("# only a comment\n")

    def test_bad_header(self):
        with pytest.raises(SmxError):
            parse_matrix("2\n1 0\n0 1\n")
        with pytest.raises(SmxError):
            parse_matrix("two 2\n1 0\n0 1\n")
        with pytest.raises(SmxError):
            parse_matrix("0 2\n")

    def test_wrong_entry_count(self):
        with pytest.raises(SmxError):
            parse_matrix("1 3\n1 0\n")

    def test_missing_rows(self):
        with pytest.raises(SmxError):
            parse_matrix("2 2\n1 0\n")

    def test_extra_rows(self):
        with pytest.raises(SmxError):
            parse_matrix("1 2\n1 0\n0 1\n")

    def test_bad_rational(self):
        with pytest.raises(SmxError):
            parse_matrix("1 2\n1 x\n")
        with pytest.raises(SmxError):
            parse_matrix("1 1\n1/0\n")

    @pytest.mark.parametrize(
        "text",
        ["1 1\n" + "7" * 400_000 + "x\n", "1 2 " + "7" * 399_997 + "\n1\n"],
        ids=["token", "header"],
    )
    def test_error_quotes_a_bounded_prefix(self, text):
        # both the bad token and the bad header line are 400001 characters
        with pytest.raises(SmxError) as info:
            parse_matrix(text)
        message = str(info.value)
        assert len(message) < 200
        assert "7" * 30 in message
        assert "(400001 characters)" in message

    def test_float_syntax_is_exact(self):
        assert parse_matrix("1 1\n0.1\n").at(1, 1) == Fraction(1, 10)

    @pytest.mark.parametrize("token", ["1e-5000", "1E+5000", "1e" + "9" * 5000])
    def test_exponent_out_of_range(self, token):
        with pytest.raises(SmxError, match="line 2"):
            parse_matrix(f"1 1\n{token}\n")

    def test_exponent_at_the_limit(self):
        assert parse_matrix("1 1\n1e-4300\n").at(1, 1) == Fraction(1, 10**4300)

    @pytest.mark.parametrize("form", ["{}", "1/{}", "{}/7"], ids=["int", "denominator", "numerator"])
    def test_digits_beyond_the_int_limit_are_a_bad_rational(self, form):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter sets no int/str digit limit")
        assert parse_matrix(f"1 1\n{form.format('3' * limit)}\n").nrows == 1
        with pytest.raises(SmxError, match="bad rational"):
            parse_matrix(f"1 1\n{form.format('3' * (limit + 1))}\n")

    def test_huge_row_count_on_a_short_input(self):
        with pytest.raises(SmxError, match=f"expected {10**30} rows, found only 1"):
            parse_matrix(f"{10**30} 2\n1 0\n")


class TestFormat:
    def test_layout(self):
        s = Matrix([[1, 0, 0, 0], [0, "1/2", "1/2", 0], [0, 0, 0, 1]])
        assert format_matrix(s) == "3 4\n1 0 0 0\n0 1/2 1/2 0\n0 0 0 1\n"

    @given(matrices())
    def test_roundtrip(self, a):
        assert parse_matrix(format_matrix(a)) == a

    def test_roundtrip_is_byte_stable(self):
        text = "2 2\n1/3 2/3\n2/3 1/3\n"
        assert format_matrix(parse_matrix(text)) == text
