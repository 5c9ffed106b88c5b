import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_bundle
from oracles import GronwallPathBundle, product_form_residuals, transformed_martingale
from stochastic_gronwall.bounds import (
    AprioriInputs,
    HolderParams,
    apriori_bound,
    apriori_bound_parts,
    holder_prefactor,
    theorem_bound_deterministic_G,
    theorem_bound_random_G,
)
from stochastic_gronwall.errors import ContractViolationError
from stochastic_gronwall.sequences import RealSequence, power_product_one_plus


class TestHolderParams:
    def test_conjugates(self):
        assert HolderParams(0.5, 1.0).mu == math.inf
        assert HolderParams(0.25, 2.0).mu == 2.0
        hp = HolderParams(0.2, 4.0)
        assert 1.0 / hp.mu + 1.0 / hp.nu == pytest.approx(1.0, rel=1e-15)

    def test_rejects_nu_infinity(self):
        with pytest.raises(ContractViolationError, match="inf"):
            HolderParams(0.5, math.inf)

    def test_rejects_p_nu_product(self):
        with pytest.raises(ContractViolationError, match="p\\*nu"):
            HolderParams(0.5, 2.0)

    @given(st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=-3, max_value=0.999))
    @settings(max_examples=60, deadline=None)
    def test_rejects_bad_p(self, p, nu):
        with pytest.raises(ContractViolationError):
            HolderParams(p, nu)
        with pytest.raises(ContractViolationError):
            HolderParams(p + 1.0, 1.0)


class TestHolderPrefactor:
    def test_examples(self):
        assert holder_prefactor(HolderParams(0.5, 1.0)) == 3.0
        assert holder_prefactor(HolderParams(0.25, 2.0)) == pytest.approx(
            math.sqrt(3.0), rel=1e-15
        )

    def test_small_p_limit(self):
        assert holder_prefactor(HolderParams(1e-12, 1.0)) == pytest.approx(2.0, rel=1e-9)

    def test_decreasing_in_nu_on_inner_domain(self):
        # decreasing holds while nu*p stays below ~0.63; the prefactor
        # has an interior minimum there and blows up as nu*p approaches 1
        for p in (0.1, 0.25, 0.4, 0.55):
            nus = np.linspace(1.0, 0.6 / p, 40)
            vals = [holder_prefactor(HolderParams(p, nu)) for nu in nus]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_not_monotone_near_domain_edge(self):
        # counterexample documenting the turnaround: nu*p = 0.7 vs 0.8
        lo = holder_prefactor(HolderParams(0.25, 2.8))
        hi = holder_prefactor(HolderParams(0.25, 3.2))
        assert hi > lo


class TestDeterministicBound:
    def test_zero_weights(self):
        assert theorem_bound_deterministic_G(0.5, [0.0, 0.0, 0.0], 3, 1.0) == 3.0

    def test_unit_weights(self):
        # (1+1)^(2*0.5) = 2
        assert theorem_bound_deterministic_G(0.5, [1.0, 1.0], 2, 1.0) == pytest.approx(
            6.0, rel=1e-12
        )

    def test_mixed(self):
        # 3 * (1+3)^0.5 * 4^0.5 = 12
        assert theorem_bound_deterministic_G(0.5, [3.0], 1, 4.0) == pytest.approx(
            12.0, rel=1e-12
        )

    def test_zero_e_sup(self):
        assert theorem_bound_deterministic_G(0.5, [1.0], 1, 0.0) == 0.0

    def test_infinite_e_sup_propagates(self):
        assert theorem_bound_deterministic_G(0.5, [1.0], 1, math.inf) == math.inf

    def test_contract_p(self):
        with pytest.raises(ContractViolationError):
            theorem_bound_deterministic_G(1.2, [1.0], 1, 1.0)
        with pytest.raises(ContractViolationError):
            theorem_bound_deterministic_G(0.5, [-1.0], 1, 1.0)

    def test_negative_horizon_rejected(self):
        # G.values[:-1] would silently drop the last weight
        with pytest.raises(ContractViolationError, match="horizon n must be >= 0"):
            theorem_bound_deterministic_G(0.5, [0.1, 0.2], -1, 1.0)

    def test_overflowing_product_finite_power(self):
        g = [99.0] * 200
        val = theorem_bound_deterministic_G(0.5, g, 200, 1.0)
        assert val == pytest.approx(3.0 * 1e200, rel=1e-9)


class TestRandomGBound:
    def test_reduces_to_deterministic(self, rng):
        for _ in range(25):
            p = rng.uniform(0.05, 0.95)
            n = int(rng.integers(1, 10))
            g = rng.uniform(0, 2, n)
            e_sup = rng.uniform(0.1, 5)
            norm = power_product_one_plus(RealSequence(g), 0, n, p)
            via_random = theorem_bound_random_G(HolderParams(p, 1.0), norm, n, e_sup)
            direct = theorem_bound_deterministic_G(p, g, n, e_sup)
            assert via_random == pytest.approx(direct, rel=1e-12)

    def test_norm_one(self):
        hp = HolderParams(0.25, 2.0)
        assert theorem_bound_random_G(hp, 1.0, 5, 1.0) == pytest.approx(
            math.sqrt(3.0), rel=1e-15
        )

    def test_norm_and_power(self):
        hp = HolderParams(0.25, 2.0)
        # 16^(1/4) = 2
        assert theorem_bound_random_G(hp, 2.0, 5, 16.0) == pytest.approx(
            4.0 * math.sqrt(3.0), rel=1e-13
        )


class TestAprioriBound:
    def test_zero_coercivity_constant(self):
        inp = AprioriInputs(p=0.3, L=0.0, T=2.0, h0=0.5, x0_norm_sq=4.0, g_x0_norm_sq=0.0)
        assert apriori_bound(inp) == pytest.approx(
            (1 + 1 / 0.7) * 4.0**0.3, rel=1e-14
        )

    def test_reference_point(self):
        # direct formula oracle: prefactor 3, exponent 0.5*2*2 = 2, base 5
        inp = AprioriInputs(p=0.5, L=1.0, T=1.0, h0=0.25, x0_norm_sq=1.0, g_x0_norm_sq=0.0)
        expected = 3.0 * math.exp(2.0) * math.sqrt(5.0)
        assert apriori_bound(inp) == pytest.approx(expected, rel=1e-14)
        parts = apriori_bound_parts(inp)
        assert parts["prefactor"] == 3.0
        assert parts["growth_factor"] == pytest.approx(math.exp(2.0), rel=1e-15)
        assert parts["power_term"] == pytest.approx(math.sqrt(5.0), rel=1e-15)

    def test_growth_factor_beyond_float_range_is_inf(self):
        # exp(0.5 * 2 * 1 * 1000 / (1 - 0.5)) = exp(2000) overflows
        inp = AprioriInputs(p=0.5, L=1.0, T=1000.0, h0=0.25, x0_norm_sq=1.0, g_x0_norm_sq=0.0)
        parts = apriori_bound_parts(inp)
        assert parts["growth_factor"] == math.inf
        assert parts["bound"] == math.inf
        assert parts["power_term"] == pytest.approx(math.sqrt(4001.0), rel=1e-15)

    def test_small_p_limit(self):
        inp = AprioriInputs(p=1e-12, L=1.0, T=1.0, h0=0.25, x0_norm_sq=1.0, g_x0_norm_sq=2.0)
        assert apriori_bound(inp) == pytest.approx(2.0, rel=1e-9)

    def test_degenerate_denominator_rejected(self):
        with pytest.raises(ContractViolationError, match="2\\*h0\\*L"):
            AprioriInputs(p=0.5, L=2.0, T=1.0, h0=0.25, x0_norm_sq=1.0, g_x0_norm_sq=0.0)

    def test_monotone_in_each_input(self, rng):
        for _ in range(50):
            p = rng.uniform(0.05, 0.95)
            L = rng.uniform(0.0, 2.0)
            T = rng.uniform(0.1, 3.0)
            h0 = rng.uniform(0.01, 0.9) * (0.5 / L if L > 0 else 1.0)
            x0sq = rng.uniform(0, 4)
            gx0sq = rng.uniform(0, 4)
            base = apriori_bound(AprioriInputs(p, L, T, h0, x0sq, gx0sq))

            def bump(**kw):
                vals = dict(p=p, L=L, T=T, h0=h0, x0_norm_sq=x0sq, g_x0_norm_sq=gx0sq)
                vals.update(kw)
                return apriori_bound(AprioriInputs(**vals))

            eps = 1e-3
            assert bump(T=T + eps) >= base - 1e-12
            assert bump(x0_norm_sq=x0sq + eps) >= base - 1e-12
            assert bump(g_x0_norm_sq=gx0sq + eps) >= base - 1e-12
            if 2 * (h0 + eps * h0) * L < 1:
                assert bump(h0=h0 * (1 + eps)) >= base - 1e-12
            if 2 * h0 * (L + eps) < 1:
                assert bump(L=L + eps) >= base - 1e-12


class TestBundle:
    def test_validates_hypothesis(self):
        # X_1 exceeds F_1 + M_1 + G_0 X_0 = 1 + 0 + 0
        with pytest.raises(ContractViolationError, match="index 1"):
            GronwallPathBundle([1.0, 2.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0])

    def test_validates_signs_and_start(self):
        with pytest.raises(ContractViolationError, match="nonnegative"):
            GronwallPathBundle([1.0, -0.5], [2.0, 2.0], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ContractViolationError, match="start at 0"):
            GronwallPathBundle([1.0, 1.0], [2.0, 2.0], [0.0, 0.0], [0.5, 0.0])

    def test_accepts_equality(self):
        b = GronwallPathBundle([1.0, 3.0], [1.0, 2.0], [1.0, 0.0], [0.0, 0.0])
        assert b.horizon == 1


class TestTransformedMartingale:
    def test_zero_increments(self):
        b = GronwallPathBundle([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.5, 0.5, 0.5], [0.0, 0.0, 0.0])
        assert np.all(transformed_martingale(b).values == 0.0)

    def test_unit_weights_reproduce_m(self):
        m = [0.0, 1.0, -0.5]
        b = GronwallPathBundle([2.0, 3.0, 1.5], [2.0, 2.0, 2.0], [0.0, 0.0, 0.0], m)
        assert np.allclose(transformed_martingale(b).values, m, rtol=0, atol=0)

    def test_hand_example(self):
        # M = [0, 1, 0], G = [1, 1]: L = [0, 1/2, 1/2 - 1/4]
        b = GronwallPathBundle([1.0, 2.0, 2.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0])
        out = transformed_martingale(b).values
        assert list(out) == [0.0, 0.5, 0.25]

    def test_product_inequality_on_random_bundles(self, rng):
        for i in range(300):
            horizon = int(rng.integers(1, 21))
            bundle = make_random_bundle(rng, horizon, with_slack=bool(i % 2))
            residuals = product_form_residuals(bundle)
            assert residuals.min() >= -1e-9
