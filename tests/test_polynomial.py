"""Exact integer polynomials: construction, evaluation, and formatting."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowpoly.errors import InputError
from flowpoly.polynomial import IntPolynomial

K_MINUS_1 = IntPolynomial((-1, 1))
K4_POLY = IntPolynomial((-6, 11, -6, 1))


def test_eval_linear():
    assert K_MINUS_1.eval(3) == 2


def test_eval_zero_polynomial():
    for k in (0, 1, 5):
        assert IntPolynomial.zero().eval(k) == 0


def test_eval_k4_vanishes_at_two():
    # K4 admits no nowhere-zero flow over groups of order 2 or 3.
    assert K4_POLY.eval(2) == 0
    assert K4_POLY.eval(3) == 0
    assert K4_POLY.eval(4) == 6


def test_eval_rejects_negative():
    with pytest.raises(InputError):
        K_MINUS_1.eval(-1)


def test_trailing_zeros_normalized():
    assert IntPolynomial((1, 2, 0, 0)).coefficients == (1, 2)
    assert IntPolynomial((0, 0)).is_zero


def test_signless_coefficients():
    assert K_MINUS_1.signless_coefficients(1) == (1, 1)
    assert IntPolynomial.zero().signless_coefficients(1) == (0, 0)
    assert K4_POLY.signless_coefficients(3) == (1, 6, 11, 6)


def test_signless_rejects_low_top_degree():
    with pytest.raises(InputError):
        K4_POLY.signless_coefficients(2)


def test_format():
    assert K_MINUS_1.format() == "k - 1"
    assert str(IntPolynomial.zero()) == "0"
    assert str(IntPolynomial.constant(1)) == "1"
    assert str(IntPolynomial.constant(-1)) == "-1"
    assert str(K4_POLY) == "k^3 - 6k^2 + 11k - 6"
    assert str(IntPolynomial((0, 0, 1))) == "k^2"


small_polys = st.builds(
    IntPolynomial,
    st.lists(st.integers(min_value=-50, max_value=50), max_size=8).map(tuple),
)


@given(small_polys, st.integers(0, 4))
def test_signless_round_trip(p, slack):
    top = max(p.degree, 0) + slack
    rebuilt = IntPolynomial.from_signless(p.signless_coefficients(top), top)
    assert rebuilt == p
