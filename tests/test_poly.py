"""Polynomial layer: exact arithmetic, string/JSON forms, special values."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathlab.poly import (
    QTPoly,
    TPoly,
    _euler_t_by_sweep,
    euler_t,
    q_analog,
    t_analog,
    t_factorial,
)

tpolys = st.lists(st.integers(-9, 9), max_size=6).map(TPoly)
qtpolys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(-9, 9), max_size=6
).map(QTPoly)


class TestTPoly:
    def test_trim_and_equality(self):
        assert TPoly([1, 2, 0, 0]) == TPoly([1, 2])
        assert TPoly([]) == TPoly.zero()
        assert TPoly([1]) == TPoly.one()

    def test_str_descending(self):
        assert str(TPoly([1, 0, 2, 1])) == "t^3 + 2*t^2 + 1"
        assert str(TPoly([])) == "0"
        assert str(TPoly([0, 1])) == "t"

    def test_call(self):
        p = TPoly([1, 1, 1])
        assert p(1) == 3 and p(2) == 7 and p(-1) == 1

    def test_json(self):
        assert TPoly([0, 1, 1]).to_json() == {"var": "t", "coeffs": [0, 1, 1]}

    @given(tpolys, tpolys, tpolys)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == TPoly.zero()
        assert a * TPoly.one() == a

    @given(tpolys, tpolys, st.integers(-4, 4))
    def test_evaluation_is_ring_homomorphism(self, a, b, x):
        assert (a * b)(x) == a(x) * b(x)
        assert (a + b)(x) == a(x) + b(x)

    def test_monomial(self):
        assert TPoly.monomial(3) == TPoly([0, 0, 0, 1])

    def test_from_counts(self):
        assert TPoly.from_counts({}) == TPoly.zero()
        assert TPoly.from_counts({2: 1, 0: 3}) == TPoly([3, 0, 1])
        # zero counts at the top degree are trimmed
        assert TPoly.from_counts({0: 1, 3: 0}).coeffs == (1,)
        assert TPoly.from_counts({1: -2, 2: 1}) == TPoly([0, -2, 1])

    def test_value_semantics(self):
        assert not TPoly() and TPoly([1])
        assert hash(TPoly([1, 2, 0])) == hash(TPoly([1, 2]))
        with pytest.raises(AttributeError):
            TPoly([1]).coeffs = (2,)
        with pytest.raises(AttributeError):
            del TPoly([1]).terms
        assert TPoly([1]) != QTPoly({(0, 0): 1})
        p = TPoly([3, 0, -1])
        assert pickle.loads(pickle.dumps(p)) == copy.copy(p) == p
        assert repr(p) == "TPoly(terms={0: 3, 2: -1})"


class TestQTPoly:
    def test_zero_terms_dropped(self):
        assert QTPoly({(1, 1): 0}) == QTPoly()
        assert not list(QTPoly().sorted_terms())

    @given(qtpolys, qtpolys, qtpolys)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == QTPoly()

    @given(qtpolys, qtpolys, st.integers(-3, 3))
    def test_eval_q_is_homomorphism(self, a, b, q):
        assert (a * b).eval_q(q) == a.eval_q(q) * b.eval_q(q)
        assert (a + b).eval_q(q) == a.eval_q(q) + b.eval_q(q)

    def test_json_sorted(self):
        p = QTPoly({(1, 0): 2, (0, 1): 3})
        assert p.to_json() == {"vars": ["q", "t"], "terms": [[0, 1, 3], [1, 0, 2]]}

    def test_value_semantics(self):
        assert not QTPoly() and QTPoly({(0, 0): 1})
        assert hash(QTPoly({(1, 1): 0, (1, 0): 2})) == hash(QTPoly({(1, 0): 2}))
        with pytest.raises(AttributeError):
            QTPoly().terms = {(0, 0): 1}

    def test_str(self):
        p = QTPoly({(0, 0): 1, (1, 2): -2, (0, 1): 3, (2, 0): -1})
        assert str(p) == "1 + 3*t - 2*q*t^2 - q^2"


class TestValidation:
    """Both kinds hold int coefficients at nonnegative exponents only."""

    def test_negative_degree_does_not_overwrite_the_top(self):
        with pytest.raises(ValueError):
            TPoly.from_counts({2: 5, -1: 1})

    def test_negative_degree_alone_raises_value_error(self):
        with pytest.raises(ValueError):
            TPoly.from_counts({-1: 1})

    def test_non_integral_coefficient_of_tpoly_raises(self):
        with pytest.raises(TypeError):
            TPoly([1.5])

    def test_non_integral_coefficient_of_qtpoly_raises(self):
        with pytest.raises(TypeError):
            QTPoly({(0, 0): 1.5})


def _in_qt(p: TPoly) -> QTPoly:
    """p as a QTPoly whose terms all have q-degree 0."""
    return QTPoly({(0, d): c for d, c in enumerate(p.coeffs)})


class TestKindsAgree:
    @given(tpolys, tpolys, st.integers(-3, 3))
    def test_embedding_commutes_with_arithmetic(self, a, b, q):
        assert _in_qt(a) + _in_qt(b) == _in_qt(a + b)
        assert _in_qt(a) - _in_qt(b) == _in_qt(a - b)
        assert _in_qt(a) * _in_qt(b) == _in_qt(a * b)
        assert _in_qt(a).eval_q(q) == a


class TestSpecialPolynomials:
    def test_t_analog(self):
        assert t_analog(1) == TPoly([1])
        assert t_analog(4) == TPoly([1, 1, 1, 1])

    def test_t_factorial(self):
        assert t_factorial(1) == TPoly.one()
        assert t_factorial(3) == t_analog(1) * t_analog(2) * t_analog(3)
        assert t_factorial(4)(1) == 24

    def test_q_analog(self):
        assert q_analog(3).eval_q(1) == TPoly([3])
        assert q_analog(3).eval_q(-1) == TPoly([1])
        assert q_analog(4).eval_q(-1) == TPoly.zero()

    def test_euler_t_counts_alternating_permutations(self):
        # at t = 1 these are the zigzag numbers 1, 1, 2, 5, 16, 61, 272
        assert [euler_t(n)(1) for n in range(1, 8)] == [1, 1, 2, 5, 16, 61, 272]

    def test_euler_t_small_polynomials(self):
        assert euler_t(2) == TPoly.one()
        # the two down-up permutations of size 3 are 213 (no pattern) and
        # 312 (one occurrence of the counted pattern)
        assert euler_t(3) == TPoly([1, 1])

    def test_euler_t_matches_sweep(self):
        # the insertion DP against the n! sweep, checked for n <= 9
        for n in range(1, 10):
            assert euler_t(n) == _euler_t_by_sweep(n)

    def test_euler_t_at_twenty(self):
        # the zigzag number E_20, out of the sweep's reach
        assert euler_t(20)(1) == 370371188237525
