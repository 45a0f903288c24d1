"""Plain-text matrix files: the writer's format, accepted forms, rejections."""

import cmath

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from acbott.errors import InvalidMatrix
from acbott.matrixio import format_matrix, parse_matrix


def _bits(A):
    return np.ascontiguousarray(A).view(np.uint64)


def test_format_parse_round_trips_bitwise(rng):
    d = 7
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    A[0, :] = [
        complex(-0.0, 0.0),
        complex(0.0, -0.0),
        complex(5e-324, -5e-324),  # smallest subnormal
        complex(2.2250738585072009e-308, 1e-310),  # largest subnormal, another
        complex(1.7976931348623157e308, -1e300),
        complex(1e-5, 1e21),  # both print in exponent notation
        complex(-1 / 3, 2 / 3),
    ]
    text = format_matrix(A)
    assert "e-05" in text and "e+21" in text and "-0+0i" in text
    assert np.array_equal(_bits(parse_matrix(text)), _bits(A))


def test_accepted_token_forms_parse():
    M = parse_matrix("2\n0.5 5i\n1e-3-2e-3i -1.5E+2+0.25i\n")
    expected = np.array([[0.5, 5j], [1e-3 - 2e-3j, -150 + 0.25j]])
    assert np.array_equal(_bits(M), _bits(expected))
    # parentheses and a j suffix are complex() syntax the reader also takes
    assert parse_matrix("1\n(1+2j)\n")[0, 0] == 1 + 2j


@pytest.mark.parametrize(
    "text",
    [
        "1\n1+2+3i\n",
        "2\n1 2\n3\n",  # short row
        "2\n1 2\n3 4\n5 6\n",  # extra row
        "2\n1 2 3\n4 5\n",
        "1\n(1+2i)\n",
        "1\n1i+2\n",
        "x\n1\n",
        "",
    ],
)
def test_malformed_text_raises(text):
    with pytest.raises(InvalidMatrix):
        parse_matrix(text)


@pytest.mark.parametrize("text", ["0\n", "-2\n1 2\n3 4\n"])
def test_nonpositive_dimension_raises(text):
    # the row count or the shape would refuse these too, with another message
    with pytest.raises(InvalidMatrix, match="dimension must be positive"):
        parse_matrix(text)


@pytest.mark.parametrize("text", ["2\n1 2\n3 4x\n", "2\n1 2\n3\t4 5\n"])
def test_malformed_row_is_named(text):
    with pytest.raises(InvalidMatrix, match="^row 2: "):
        parse_matrix(text)


@pytest.mark.parametrize("entry", ["inf+0i", "nan+0i", "0-infi", "1e999+0i"])
def test_nonfinite_entries_raise(entry):
    with pytest.raises(InvalidMatrix, match="NaN or Inf"):
        parse_matrix(f"1\n{entry}\n")


def _by_the_format_rule(token):
    """The entry as complex() reads it once a final i is written as j, or
    None where complex() refuses it or the value is not finite."""
    try:
        z = complex(token[:-1] + "j" if token.endswith("i") else token)
    except ValueError:
        return None
    return np.array([[z]]) if cmath.isfinite(z) else None


@given(st.text(alphabet="0123456789.+-eEijJ()nfaINF_", min_size=1, max_size=12))
@example("(1+2i)")
@example("1+infi")
@example("infj")
@example("1+i")
def test_single_entry_parses_by_the_format_rule(token):
    # parse_matrix accepts exactly what the rule accepts, with the same bits
    expected = _by_the_format_rule(token)
    if expected is None:
        with pytest.raises(InvalidMatrix):
            parse_matrix(f"1\n{token}\n")
    else:
        assert np.array_equal(_bits(parse_matrix(f"1\n{token}\n")), _bits(expected))
