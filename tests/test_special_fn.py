import math
from fractions import Fraction

import numpy as np
import pytest

from bellcat.special_fn import laguerre_envelope_table, log_factorial_table


def laguerre_series_exact(n: int, m: int, x: Fraction) -> Fraction:
    """Finite power-series definition, evaluated in exact rational arithmetic.

    L^m_n(x) = sum_{i=0}^{n} (-1)^i C(n+m, n-i) x^i / i!
    """
    acc = Fraction(0)
    for i in range(n + 1):
        acc += Fraction((-1) ** i * math.comb(n + m, n - i), math.factorial(i)) * x**i
    return acc


def laguerre(max_degree: int, max_order: int, x) -> np.ndarray:
    """L^m_N(x), shape (orders, degrees, points): the envelope-scaled table times e^{x/2}."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return laguerre_envelope_table(max_degree, max_order, x) * np.exp(0.5 * x)


class TestLogFactorial:
    def test_zero_and_one(self):
        table = log_factorial_table(1)
        assert table[0] == 0.0
        assert table[1] == 0.0

    def test_twenty(self):
        # 20! computed exactly by integer multiplication
        exact = 1
        for k in range(2, 21):
            exact *= k
        assert exact == 2432902008176640000
        assert log_factorial_table(20)[20] == pytest.approx(math.log(exact), rel=1e-13)

    @pytest.mark.parametrize("n", [2, 5, 37, 100, 999, 4096, 10000])
    def test_against_exact_integer_factorial(self, n):
        assert log_factorial_table(n)[n] == pytest.approx(math.log(math.factorial(n)), rel=1e-13)

    def test_ladder_identity(self):
        # lf(n+1) - lf(n) = ln(n+1), abs tolerance 1e-12 up to n = 1000
        table = log_factorial_table(1001)
        steps = table[1:] - table[:-1]
        expected = np.log(np.arange(1, 1002))
        assert np.max(np.abs(steps - expected)) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            log_factorial_table(-1)


class TestLaguerre:
    def test_degree_zero_is_one(self):
        x = np.array([0.0, 0.5, 42.0])
        table = laguerre(0, 17, x)
        for m in (0, 3, 17):
            for j in range(x.size):
                assert table[m, 0, j] == pytest.approx(1.0, rel=1e-15)

    def test_degree_one_closed_form(self):
        x = np.array([0.0, 1.25, 80.0])
        table = laguerre(1, 9, x)
        for m in (0, 2, 9):
            for j, xx in enumerate(x):
                assert table[m, 1, j] == pytest.approx(1.0 + m - xx, rel=1e-15)

    def test_l12_at_two(self):
        # L^1_2(x) = 3 - 3x + x^2/2, so L^1_2(2) = -1; series oracle agrees
        assert laguerre_series_exact(2, 1, Fraction(2)) == -1
        assert laguerre(2, 1, 2.0)[1, 2, 0] == pytest.approx(-1.0, abs=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 10, 20, 35, 50])
    @pytest.mark.parametrize("m", [0, 1, 2, 5, 10, 20])
    def test_recurrence_matches_exact_series(self, n, m):
        # sample grid over [0, 100]; oracle in exact rationals so the
        # alternating series cannot contaminate the reference values
        xs = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5, 2),
              Fraction(10), Fraction(25), Fraction(50), Fraction(75), Fraction(100))
        table = laguerre(n, m, [float(x) for x in xs])
        for j, x in enumerate(xs):
            exact = float(laguerre_series_exact(n, m, x))
            got = table[m, n, j]
            if abs(exact) < 1.0:
                assert got == pytest.approx(exact, abs=1e-9)
            else:
                assert got == pytest.approx(exact, rel=1e-9)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            laguerre_envelope_table(3, 0, np.array([math.inf]))
        with pytest.raises(ValueError):
            laguerre_envelope_table(3, 0, np.array([1.0, math.nan]))
