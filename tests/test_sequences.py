import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import telescoping_identity_lhs
from stochastic_gronwall.errors import ContractViolationError
from stochastic_gronwall.bounds import (
    _require_nonnegative,
    gronwall_closed_form,
    gronwall_recursive_envelope,
    log_product_one_plus,
    power_product_one_plus,
    real_sequence,
)


def telescoping_max_rel_error(g) -> float:
    """Largest relative identity gap over every valid (k, n) pair of g.

    For each k the sum side and the product side are accumulated exactly
    as ``telescoping_identity_lhs`` does, for all n at once.
    """
    gv = np.asarray(real_sequence(g))
    _require_nonnegative(gv, len(gv) - 1, "g")
    m = gv.size
    worst = 0.0
    for k in range(m):
        cum = np.cumprod(1.0 + gv[k:])          # prod_{j=k}^{i}(1+g_j)
        shifted = np.concatenate(([1.0], cum[:-1]))
        lhs = 1.0 + np.cumsum(gv[k:] * shifted)  # lhs for n = k+1 .. m
        rel = np.abs(lhs - cum) / cum
        worst = max(worst, float(rel.max()))
    return worst


def recursion_oracle(f, g, n):
    """Equality solution of y_k = f_k + sum_{i<k} g_i y_i, brute force."""
    y = []
    for k in range(n + 1):
        y.append(f[k] + sum(g[i] * y[i] for i in range(k)))
    return y


class TestSequenceCheck:
    def test_validates_finiteness(self):
        with pytest.raises(ContractViolationError, match="sequence entries must be finite"):
            real_sequence([1.0, math.nan])
        with pytest.raises(ContractViolationError, match="sequence entries must be finite"):
            real_sequence([math.inf])

    def test_rejects_empty_and_nd(self):
        with pytest.raises(ContractViolationError, match="a sequence must have at least one"):
            real_sequence([])
        for values in ([[1.0, 2.0]], 1.0, "12", b"12"):
            with pytest.raises(ContractViolationError, match="a sequence must be one-dimensional"):
                real_sequence(values)

    def test_immutable(self):
        seq = real_sequence([1.0, 2.0])
        with pytest.raises(TypeError):
            seq[0] = 3.0

    def test_copies_its_input(self):
        values = np.array([1.0, 2.0])
        seq = real_sequence(values)
        values[0] = 3.0
        assert seq[0] == 1.0 and values.flags.writeable

    def test_signed_entries_allowed(self):
        seq = real_sequence([-1.0, 2.0])
        assert all(type(v) is float for v in seq)
        assert seq[0] == -1.0
        assert len(seq) == 2


class TestClosedForm:
    def test_matches_recursion_oracle(self):
        f, g = [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]
        assert recursion_oracle(f, g, 2)[2] == 4.0
        assert gronwall_closed_form(f, g, 2)[2] == pytest.approx(4.0, rel=1e-14)

    def test_every_index_up_to_n(self):
        f, g = [1.0, 1.0, 1.0, 7.0], [1.0, 1.0, 1.0, 1.0]
        assert gronwall_closed_form(f, g) == [1.0, 2.0, 4.0, 14.0]
        assert gronwall_closed_form(f, g, 1) == [1.0, 2.0]

    def test_zero_weights_collapse(self, rng):
        f = rng.uniform(-5, 5, 8)
        g = np.zeros(8)
        for n in range(8):
            assert gronwall_closed_form(f, g, n)[n] == f[n]

    def test_constant_case_geometric(self):
        c, gamma = 2.5, 0.7
        f = [c] * 11
        g = [gamma] * 11
        for n in range(11):
            assert gronwall_closed_form(f, g, n)[n] == pytest.approx(
                c * (1 + gamma) ** n, rel=1e-12
            )

    def test_n_zero(self):
        assert gronwall_closed_form([5.0], [3.0], 0)[0] == 5.0

    def test_rejects_negative_weight(self):
        with pytest.raises(ContractViolationError, match="entry 1"):
            gronwall_closed_form([1.0, 1.0], [0.0, -0.5], 1)

    def test_rejects_short_sequences(self):
        with pytest.raises(ContractViolationError, match="length"):
            gronwall_closed_form([1.0], [1.0, 1.0], 1)
        with pytest.raises(ContractViolationError, match="length"):
            gronwall_closed_form([1.0, 1.0], [1.0], 1)

    def test_monotone_in_f_and_g(self, rng):
        for _ in range(40):
            length = rng.integers(2, 12)
            f = rng.uniform(0, 5, length)
            g = rng.uniform(0, 2, length)
            n = int(length - 1)
            base = gronwall_closed_form(f, g, n)[n]
            i = int(rng.integers(0, length))
            f_up = f.copy()
            f_up[i] += rng.uniform(0.1, 1.0)
            assert gronwall_closed_form(f_up, g, n)[n] >= base - 1e-12
            g_up = g.copy()
            g_up[i] += rng.uniform(0.1, 1.0)
            assert gronwall_closed_form(f, g_up, n)[n] >= base - 1e-12

    def test_signed_f_supported(self, rng):
        # the inequality machinery allows f of arbitrary sign
        f = rng.uniform(-5, 5, 10)
        g = rng.uniform(0, 1, 10)
        y = recursion_oracle(list(f), list(g), 9)
        for n in range(10):
            bound = gronwall_closed_form(f, g, n)[n]
            assert y[n] <= bound + 1e-9 * max(1.0, abs(bound))


class TestEnvelope:
    def test_hand_recursion(self):
        env = gronwall_recursive_envelope([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        assert list(env) == [1.0, 2.0, 4.0]

    def test_single_entry(self):
        env = gronwall_recursive_envelope([5.0], [3.0], 0)
        assert list(env) == [5.0]

    def test_homogeneous_zero(self, rng):
        g = rng.uniform(0, 3, 6)
        env = gronwall_recursive_envelope(np.zeros(6), g)
        assert all(v == 0.0 for v in env) and len(env) == 6

    def test_agrees_with_closed_form(self, rng):
        for _ in range(50):
            length = int(rng.integers(1, 16))
            f = rng.uniform(-2, 5, length)
            g = rng.uniform(0, 2, length)
            env = gronwall_recursive_envelope(f, g, length - 1)
            for n in range(length):
                cf = gronwall_closed_form(f, g, n)[n]
                assert env[n] == pytest.approx(cf, rel=1e-12, abs=1e-12)


class TestTelescoping:
    def test_single_term(self):
        assert telescoping_identity_lhs([0.7], 0, 1) == pytest.approx(1.7, rel=1e-15)

    def test_three_ones(self):
        # 1 + 1 + 2 + 4 = 8 = 2^3
        assert telescoping_identity_lhs([1.0, 1.0, 1.0], 0, 3) == 8.0

    def test_zero_weights(self):
        assert telescoping_identity_lhs([0.0, 0.0], 0, 2) == 1.0

    def test_index_contract(self):
        with pytest.raises(ContractViolationError):
            telescoping_identity_lhs([1.0, 1.0], 2, 2)
        with pytest.raises(ContractViolationError):
            telescoping_identity_lhs([1.0, 1.0], -1, 2)
        with pytest.raises(ContractViolationError):
            telescoping_identity_lhs([1.0, 1.0], 0, 3)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=20),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_identity_property(self, g, data):
        n = data.draw(st.integers(min_value=1, max_value=len(g)))
        k = data.draw(st.integers(min_value=0, max_value=n - 1))
        lhs = telescoping_identity_lhs(g, k, n)
        rhs = power_product_one_plus(g, k, n, 1.0)
        assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_batch_matches_scalar(self, rng):
        g = rng.uniform(0, 10, 12)
        worst = telescoping_max_rel_error(g)
        seq = real_sequence(g)
        direct = max(
            abs(telescoping_identity_lhs(g, k, n) - power_product_one_plus(seq, k, n, 1.0))
            / power_product_one_plus(seq, k, n, 1.0)
            for n in range(1, 13)
            for k in range(n)
        )
        assert worst == pytest.approx(direct, abs=1e-15)


class TestOverflowHandling:
    def test_product_log_space_switch(self):
        # (1+9)^305 = 1e305 exceeds the 1e300 guard partway through
        g = [9.0] * 305
        val = power_product_one_plus(g, 0, 305, 1.0)
        assert val == pytest.approx(1e305, rel=1e-10)

    def test_power_product_finite_when_plain_overflows(self):
        # (1+99)^200 = 1e400 overflows, but its square root 1e200 does not
        g = [99.0] * 200
        assert power_product_one_plus(g, 0, 200, 1.0) == math.inf
        val = power_product_one_plus(g, 0, 200, 0.5)
        assert val == pytest.approx(1e200, rel=1e-10)

    def test_log_product(self):
        g = [1.0, 3.0]
        assert log_product_one_plus(g, 0, 2) == pytest.approx(
            math.log(2.0) + math.log(4.0), rel=1e-15
        )

    def test_closed_form_log_space_terms(self):
        # weights large enough that the running product passes the guard;
        # compare against the prefix-ratio evaluation in log space
        f = [1e-250] * 60
        g = [1e6] * 60
        val = gronwall_closed_form(f, g, 59)[59]
        log_c = np.concatenate(([0.0], np.cumsum(np.log1p(g))))
        terms = [
            math.exp(math.log(f[k] * g[k]) + (log_c[59] - log_c[k + 1]))
            for k in range(59)
        ]
        expected = f[59] + sum(terms)
        assert val == pytest.approx(expected, rel=1e-9)

    def test_closed_form_overflow_propagates_inf(self):
        f = [1.0] * 400
        g = [9.0] * 400
        assert gronwall_closed_form(f, g, 399)[399] == math.inf

    @pytest.mark.filterwarnings("error")
    def test_closed_form_finite_when_a_running_product_overflows(self):
        # (1 + 1e200)(1 + 1e150) overflows, but the only nonzero term is
        # 1e-200 * 1e350 = 1e150, which the envelope reaches too
        f = [1e-100, 0.0, 0.0, 1.0]
        g = [1e-100, 1e150, 1e200, 0.0]
        val = gronwall_closed_form(f, g, 3)[3]
        assert val == pytest.approx(gronwall_recursive_envelope(f, g, 3)[3], rel=1e-12)
        assert val == pytest.approx(1e150, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_multiply_raises_no_warning(self):
        g = [1e200, 1e200, 2.0]
        assert power_product_one_plus(g, 0, 3, 0.5) == pytest.approx(
            math.sqrt(3.0) * 1e200, rel=1e-12
        )
        # 1 + 1e200 + 1e200 * (1 + 1e200) + 2 * (1 + 1e200)^2 is 3e400, beyond float64
        assert telescoping_identity_lhs(g, 0, 3) == math.inf

    def test_envelope_overflow_raises(self):
        f = [1.0] * 400
        g = [9.0] * 400
        with pytest.raises(ContractViolationError, match="overflow"):
            gronwall_recursive_envelope(f, g, 399)


class TestLemmaSoundness:
    def test_slack_never_violates(self, rng):
        for _ in range(200):
            length = int(rng.integers(1, 21))
            f = rng.uniform(0, 10, length)
            g = rng.uniform(0, 0.3, length)
            slack = rng.uniform(0, 2, length)
            y = []
            for k in range(length):
                y.append(f[k] + sum(g[i] * y[i] for i in range(k)) - slack[k])
            for n in range(length):
                assert y[n] <= gronwall_closed_form(f, g, n)[n] + 1e-10
