"""SMX text format: exact parsing, formatting, round trips."""

import copy
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from centrostoch import (
    FacePattern,
    Matrix,
    SmxError,
    core,
    format_matrix,
    is_centrosymmetric,
    is_stochastic,
    parse_matrix,
    smx,
)
from test_fuzz import _noise, _valid

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


class TestDistinctTokens:
    """parse_matrix parses each distinct token once; errors are unchanged."""

    @pytest.mark.parametrize(
        "token, message",
        [("1/0", "line 3: bad rational '1/0'"), ("x7", "line 3: bad rational 'x7'"),
         ("1e9999", "line 3: exponent outside -4300..4300")],
        ids=["zero-denominator", "bad-text", "exponent"],
    )
    def test_a_repeated_bad_token_is_reported_at_its_first_line(self, token, message):
        text = f"3 2\n# rows follow\n{token} 1\n\n{token} 1\n0 1\n"
        with pytest.raises(SmxError) as info:
            parse_matrix(text)
        assert str(info.value) == message

    def test_each_distinct_token_is_parsed_once(self, monkeypatch):
        parsed = []
        real_rational = smx._rational

        def counting(token, number):
            parsed.append(token)
            return real_rational(token, number)

        monkeypatch.setattr(smx, "_rational", counting)
        a = parse_matrix("60 4\n" + "1 0 1/2 5e-1\n" * 60)
        assert sorted(parsed) == ["0", "1", "1/2", "5e-1"]
        assert a.entries == ((1, 0, Fraction(1, 2), Fraction(1, 2)),) * 60

    def test_values_equal_the_token_by_token_parse(self):
        # many repeats, and distinct tokens of equal value (1/2, 2/4, 0.5)
        rng = random.Random(2718)
        pool = ["0", "1", "-3", "+2", "1/2", "2/4", "0.5", "-7/3", "0.125", "1e-3", "25E-2",
                "1_000", "3/1_0", "-0", "12.5e1"]
        for _ in range(200):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            lines = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
            text = f"{m} {n}\n" + "".join(" ".join(line) + "\n" for line in lines)
            a = parse_matrix(text)
            expected = tuple(tuple(Fraction(token) for token in line) for line in lines)
            assert a.entries == expected
            assert all(type(x) is Fraction for row in a.entries for x in row)


def fraction_outcome(token, number):
    # the value or SMX error text of the Fraction(token) route
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        return f"line {number}: bad rational {smx._quote(token)}"


def parsed_outcome(text):
    try:
        return parse_matrix(text).entries[1][0]
    except SmxError as exc:
        return str(exc)


class TestDigitTokens:
    """A token `a` or `a/b` of ASCII digits is read as ints, skipping the
    string parser; every token keeps the value, type and error of
    Fraction(token)."""

    LONG = "7" * 4301  # one digit beyond the int-from-str limit

    @pytest.mark.parametrize(
        "token",
        ["007/010", "0", "0/5", "0/0", "5/0", LONG, f"1/{LONG}",
         "١/٢", "²", "+1/2", "1/-2", "1//2", "/2", "2/", "1_0/3"],
        ids=["leading-zeros", "zero", "zero-over-five", "zero-over-zero", "five-over-zero",
             "long-numerator", "long-denominator", "arabic-indic", "superscript", "plus",
             "minus-denominator", "double-slash", "no-numerator", "no-denominator",
             "underscore"],
    )
    def test_equals_fraction_of_the_token(self, token):
        expected = fraction_outcome(token, 4)
        got = parsed_outcome(f"2 1\n# the token is on line 4\n1\n{token}\n")
        assert got == expected
        assert type(got) is type(expected)

    def test_random_digit_and_slash_strings(self):
        rng = random.Random(4301)
        for _ in range(3000):
            token = "".join(rng.choice("0123456789/") for _ in range(rng.randint(1, 7)))
            expected = fraction_outcome(token, 5)
            got = parsed_outcome(f"2 1\n1\n\n\n{token}\n")
            assert got == expected and type(got) is type(expected), token


class TestTrustedParse:
    """The parsed rows are already checked, so they become the Matrix as
    they are: no entry is converted a second time."""

    def test_no_entry_is_converted_again(self, monkeypatch):
        converted = []
        real = core._to_rational
        monkeypatch.setattr(core, "_to_rational", lambda x: converted.append(x) or real(x))
        a = parse_matrix("3 4\n1/2 0 1/2 0\n3/10 0 0 7/10\n2/5 1/5 2/5 0\n")
        assert converted == []
        assert a.shape == (3, 4) and a.at(2, 4) == Fraction(7, 10)

    def test_the_result_is_the_plain_matrix(self):
        rng = random.Random(4099)
        pool = ["0", "1", "-3", "1/2", "2/4", "0.5", "-7/3", "1e-3", "99999999999/7"]
        for _ in range(100):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            lines = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
            a = parse_matrix(f"{m} {n}\n" + "".join(" ".join(line) + "\n" for line in lines))
            b = Matrix(lines)
            assert a == b and hash(a) == hash(b)
            assert a.shape == b.shape and type(a) is Matrix
            assert a._key is None
            assert all(type(row) is tuple for row in a.entries)
            with pytest.raises(AttributeError):
                a.entries = b.entries


def reference_parse(text):
    """SMX read token by token through Fraction(token), with the decimal
    exponent limit: the token rows, or the SmxError message."""
    data = [(number, line.strip()) for number, line in enumerate(text.splitlines(), 1)
            if line.strip() and not line.strip().startswith("#")]
    if not data:
        return "empty input: expected a dimension line 'm n'"
    (number, header), data = data[0], data[1:]
    parts = header.split()
    if len(parts) != 2:
        return f"line {number}: expected 'm n', got {smx._quote(header)}"
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError:
        return f"line {number}: dimensions must be integers"
    if m < 1 or n < 1:
        return f"line {number}: dimensions must be positive"
    rows = []
    for number, line in data[:m]:
        tokens = line.split()
        if len(tokens) != n:
            return f"line {number}: expected {n} entries, found {len(tokens)}"
        for token in tokens:
            exponent = smx._EXPONENT.search(token)
            if exponent and abs(int(exponent[1])) > smx._MAX_EXPONENT:
                return f"line {number}: exponent outside -4300..4300"
            outcome = fraction_outcome(token, number)
            if type(outcome) is str:
                return outcome
        rows.append(tokens)
    if len(rows) < m:
        return f"expected {m} rows, found only {len(rows)}"
    if len(data) > m:
        return f"line {data[m][0]}: data after the final row"
    return rows


# spellings of one value, so a mirrored row may spell its entries otherwise
SPELLINGS = {"0": ["0", "-0", "0/7", "0.0"], "1": ["1", "1/1", "1.0", "+1"],
             "1/2": ["1/2", "2/4", "0.5", "5e-1"], "1/4": ["1/4", "0.25", "25E-2"],
             "3/4": ["3/4", "6/8", "0.75"], "1/3": ["1/3", "2/6"], "2/3": ["2/3", "4/6"]}


def differential_texts():
    # the token pools above, fuzz-shaped text good and bad, and
    # centrosymmetric token rows whose mirrors are spelt otherwise
    rng = random.Random(271828)
    pool = ["0", "1", "-3", "+2", "1/2", "2/4", "0.5", "-7/3", "0.125", "1e-3", "25E-2",
            "1_000", "3/1_0", "-0", "12.5e1", "99999999999/7", "007/010"]
    texts = []
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        lines = [" ".join(rng.choice(pool) for _ in range(n)) for _ in range(m)]
        texts.append(f"{m} {n}\n" + "".join(line + "\n" for line in lines))
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        top = [[rng.choice(list(SPELLINGS)) for _ in range(n)] for _ in range((m + 1) // 2)]
        if m % 2:
            top[-1][n // 2 :] = top[-1][: (n + 1) // 2][::-1]
        rows = top + [row[::-1] for row in top[: m // 2][::-1]]
        if rng.random() < 0.3:
            rows[rng.randrange(m)][rng.randrange(n)] = rng.choice(pool)
        lines = [" ".join(rng.choice(SPELLINGS.get(t, [t])) for t in row) for row in rows]
        texts.append(f"{m} {n}\n" + "".join(line + "\n" for line in lines))
    texts += [_valid(rng) for _ in range(400)] + [_noise(rng) for _ in range(400)]
    return texts


class TestParseDifferential:
    """parse_matrix against Matrix(token rows): the same matrix, read as
    the same ints before any entry is, and the same errors."""

    def test_equals_the_matrix_of_the_tokens(self):
        outcomes = {"parsed": 0, "refused": 0, "centrosymmetric": 0}
        for text in differential_texts():
            expected = reference_parse(text)
            try:
                a = parse_matrix(text)
            except SmxError as exc:
                assert type(exc) is SmxError and str(exc) == expected, text
                outcomes["refused"] += 1
                continue
            assert type(expected) is list, (text, expected)
            b = Matrix(expected)
            # read off the held ints first: no entry is built for these
            assert type(a) is core._IntMatrix
            assert list(core._int_rows(a)) == [core._row_ints(row) for row in b.entries]
            assert is_stochastic(a) == is_stochastic(b)
            assert is_centrosymmetric(a) == is_centrosymmetric(b)
            assert a.support() == b.support() and a.is_zero_one() == b.is_zero_one()
            assert type(a) is core._IntMatrix
            assert repr(a) == repr(b) and a == b and hash(a) == hash(b)
            assert a.entries == b.entries and type(a) is Matrix and a._key is None
            for c in (pickle.loads(pickle.dumps(parse_matrix(text))),
                      copy.deepcopy(parse_matrix(text))):
                assert type(c) is Matrix and c == b
            if b.is_zero_one():
                p = FacePattern(parse_matrix(text))
                assert p == b and p._key is None and p.entries == b.entries
            outcomes["parsed"] += 1
            outcomes["centrosymmetric"] += is_centrosymmetric(b) and b.nrows > 1
        assert min(outcomes.values()) > 150, outcomes


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
