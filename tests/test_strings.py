from hypothesis import given
from hypothesis import strategies as st
import pytest

from gapsim.errors import DecodeError
from gapsim.strings import (
    index_string,
    num_to_string,
    pair,
    pair_codes,
    string_to_num,
    strings_of_length,
    strings_up_to,
    unpair,
)

binary = st.text(alphabet="01", max_size=24)


def test_numbering_round_trip_small():
    for n in range(1, 200):
        assert string_to_num(num_to_string(n)) == n


def test_numbering_order():
    assert [index_string(k) for k in range(7)] == ["", "0", "1", "00", "01", "10", "11"]


def test_empty_pair_is_a_string():
    code = pair("", "")
    assert set(code) <= {"0", "1"}
    assert unpair(code) == ("", "")


def test_round_trip_up_to_length_six():
    for x in strings_up_to(6):
        for y in ("", "0", "10", "111"):
            assert unpair(pair(x, y)) == (x, y)


def test_injective_on_small_universe():
    codes = {}
    for x in strings_up_to(4):
        for y in strings_up_to(4):
            code = pair(x, y)
            assert code not in codes, f"collision with {codes[code]}"
            codes[code] = (x, y)


@given(binary, binary)
def test_round_trip_random(x, y):
    assert unpair(pair(x, y)) == (x, y)


def test_unpair_rejects_non_codes():
    with pytest.raises(DecodeError):
        unpair("")  # number 1 decodes to (0, 1), outside the string range
    with pytest.raises(DecodeError):
        unpair("abc")


def test_no_string_is_numbered_zero():
    with pytest.raises(DecodeError, match="^no string is numbered 0$"):
        num_to_string(0)


def test_strings_of_length_zero():
    assert list(strings_of_length(0)) == [""]
    assert list(strings_of_length(2)) == ["00", "01", "10", "11"]


@pytest.mark.parametrize("n", range(13))
def test_enumeration_matches_format(n):
    def of_length(m):
        return [format(k, f"0{m}b") if m else "" for k in range(1 << m)]

    assert list(strings_of_length(n)) == of_length(n)
    assert list(strings_up_to(n)) == [y for m in range(n + 1) for y in of_length(m)]


def test_universe_size():
    assert sum(1 for _ in strings_up_to(6)) == 127


@pytest.mark.parametrize("bad", ["0a", "0_1", " 01", "01\n", "１"])
def test_non_binary_strings_are_refused(bad):
    with pytest.raises(DecodeError, match="not a binary string"):
        string_to_num(bad)
    with pytest.raises(DecodeError, match="not a binary string"):
        pair("0", bad)
    with pytest.raises(DecodeError, match="not a binary string"):
        pair_codes(bad, 3)  # at the call, before any code is drawn


@given(st.text(alphabet="01_ \t\n2a１", max_size=8))
def test_only_strings_over_01_have_numbers(x):
    if set(x) <= {"0", "1"}:
        assert num_to_string(string_to_num(x)) == x
    else:
        with pytest.raises(DecodeError):
            string_to_num(x)


@given(st.text(alphabet="01", max_size=8), st.integers(min_value=1, max_value=1 << 10))
def test_pair_codes_number_the_pairs_in_order(x, count):
    want = [pair(x, num_to_string(b)) for b in range(1, count + 1)]
    assert list(pair_codes(x, count)) == want
