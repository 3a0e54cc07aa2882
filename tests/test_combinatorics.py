import pytest

from hyperscores import CapacityError, Shape, binom


class TestBinom:
    def test_empty_subset(self):
        assert binom(5, 0) == 1

    def test_oversized_cardinality_is_zero(self):
        assert binom(3, 5) == 0

    def test_small_value(self):
        assert binom(4, 2) == 6

    def test_negative_k_is_zero(self):
        assert binom(7, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binom(-1, 0)

    def test_pascal_recurrence_exhaustive(self):
        for n in range(1, 31):
            for k in range(1, n + 1):
                assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)

    def test_capacity_guard_exact_path(self):
        # C(200, 100) ~ 2**196 sits above the 2**127 limit but is
        # small enough that the exact comparison branch fires.
        with pytest.raises(CapacityError):
            binom(200, 100)

    def test_capacity_guard_fast_reject(self):
        with pytest.raises(CapacityError):
            binom(10**6, 500)

    def test_capacity_guard_on_the_product(self):
        # C(100, 20) ~ 2**69 passes alone; the selection count ~ 2**138 does not.
        assert binom(100, 20) < 2**127
        with pytest.raises(CapacityError):
            Shape((100, 100), (20, 20))


def test_fractional_factor_identity():
    # alpha/n * C(n, alpha) is the integer C(n-1, alpha-1), exhaustively.
    for n in range(1, 31):
        for a in range(1, n + 1):
            assert a * binom(n, a) % n == 0
            assert a * binom(n, a) // n == binom(n - 1, a - 1)
