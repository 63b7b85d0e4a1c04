import math
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bellcat import special_fn
from bellcat.density import HARD_THERMAL_CAP
from bellcat.errors import TruncationError
from bellcat.special_fn import HARD_LOG_FACTORIAL, laguerre_envelope_table, log_factorial_table
from bellcat.states import HARD_FOCK_CUTOFF


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


def laguerre_one_line(max_degree: int, max_order: int, x: np.ndarray) -> np.ndarray:
    """The envelope-scaled table with each recurrence step written as one expression."""
    env = np.exp(-0.5 * x)
    orders = np.arange(max_order + 1, dtype=float)[:, None]
    out = np.empty((max_order + 1, max_degree + 1, x.size))
    out[:, 0, :] = env[None, :]
    if max_degree == 0:
        return out
    out[:, 1, :] = (1.0 + orders - x[None, :]) * env[None, :]
    for n in range(1, max_degree):
        out[:, n + 1, :] = ((2 * n + 1 + orders - x[None, :]) * out[:, n, :]
                            - (n + orders) * out[:, n - 1, :]) / (n + 1)
    return out


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

    def test_hard_cap_covers_every_caller(self):
        # the series asks for cat cap + thermal cap, at most the two hard caps summed
        assert HARD_LOG_FACTORIAL >= HARD_FOCK_CUTOFF + HARD_THERMAL_CAP
        assert log_factorial_table(HARD_LOG_FACTORIAL).size == HARD_LOG_FACTORIAL + 1

    @pytest.mark.parametrize("nmax", [HARD_LOG_FACTORIAL + 1, 10**7, 10**400], ids=["cap+1", "1e7", "1e400"])
    def test_past_the_hard_cap_raises_before_any_table(self, nmax):
        special_fn._log_factorials.cache_clear()
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(TruncationError, match="beyond the hard cap"):
                log_factorial_table(nmax)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.25
        assert peak < 1e6
        assert special_fn._log_factorials.cache_info().currsize == 0

    def test_concurrent_growth_from_fresh_table(self):
        # 8 threads build fresh tables at once; a 1 us switch interval makes
        # them interleave inside the build loop
        special_fn._log_factorials.cache_clear()
        sizes = np.random.default_rng(20261018).integers(0, 601, size=(8, 25)).tolist()
        barrier = threading.Barrier(len(sizes))
        views: list[list] = [[] for _ in sizes]

        def request(index: int) -> None:
            barrier.wait()
            views[index] = [log_factorial_table(n) for n in sizes[index]]

        threads = [threading.Thread(target=request, args=(index,)) for index in range(len(sizes))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        exact = np.array([math.lgamma(n + 1) for n in range(601)])
        for requested, got in zip(sizes, views):
            assert [view.size for view in got] == [n + 1 for n in requested]
            for n, view in zip(requested, got):
                np.testing.assert_allclose(view, exact[: n + 1], rtol=1e-12, atol=0)


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

    @pytest.mark.parametrize("max_degree, max_order, top", [(0, 0, 1.0), (1, 3, 5.0), (2, 0, 9.0),
                                                            (60, 20, 100.0), (250, 40, 300.0),
                                                            (136, 43, 60.0), (20, 19, 30.0)])
    def test_buffered_recurrence_is_bit_identical(self, max_degree, max_order, top):
        x = np.random.default_rng(max_degree).uniform(0.0, top, 37)
        assert np.array_equal(laguerre_envelope_table(max_degree, max_order, x),
                              laguerre_one_line(max_degree, max_order, x))

    def test_table_is_a_view_of_a_degree_major_buffer(self):
        table = laguerre_envelope_table(7, 3, np.linspace(0.0, 5.0, 11))
        assert table.shape == (4, 8, 11)
        assert not table.flags.c_contiguous
        assert table.transpose(1, 0, 2).flags.c_contiguous

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            laguerre_envelope_table(3, 0, np.array([math.inf]))
        with pytest.raises(ValueError):
            laguerre_envelope_table(3, 0, np.array([1.0, math.nan]))
