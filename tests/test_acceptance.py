"""Acceptance suite.

One test per criterion, each printing a single pass line (visible with
``pytest -v`` through the test name, or with ``-s`` through the print).
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import make_random_bundle
from oracles import (
    cubic_root_reference,
    enumerate_sign_walks,
    product_form_residuals,
    sign_walk_expectations,
    telescoping_identity_lhs,
    ulps_from,
)
from stochastic_gronwall import kernels
from stochastic_gronwall.martingales import remark_constants, walk_functional_expectations
from stochastic_gronwall.mc import (
    SupStoppedBmPowerSampler,
    estimate_expectation,
    sample_columns,
    standard_synthetic_systems,
    verify_apriori,
    verify_theorem_on_synthetic,
)
from stochastic_gronwall.sde import make_problem
from stochastic_gronwall.streams import StreamPlan

ACCEPT_SEED = 42


def _report(number, label, elapsed, detail=""):
    print(f"[criterion {number:02d}] PASS: {label} ({elapsed:.2f}s) {detail}")


def test_criterion_01_telescoping_identity():
    """10^4 random weight sequences, every (k, n) pair, rel err <= 1e-10."""
    start = time.time()
    rng = np.random.default_rng(ACCEPT_SEED)
    n_seq, length = 10_000, 20
    g = rng.uniform(0.0, 10.0, (n_seq, length))
    worst = 0.0
    # For each k: cumulative products mirror the scalar accumulation; the
    # sum side and the product side are then compared for every n > k.
    for k in range(length):
        cum = np.cumprod(1.0 + g[:, k:], axis=1)
        shifted = np.concatenate([np.ones((n_seq, 1)), cum[:, :-1]], axis=1)
        lhs = 1.0 + np.cumsum(g[:, k:] * shifted, axis=1)
        worst = max(worst, float((np.abs(lhs - cum) / cum).max()))
    # spot-check that the batched arithmetic equals the public operation
    for _ in range(20):
        i = int(rng.integers(0, n_seq))
        n = int(rng.integers(1, length + 1))
        k = int(rng.integers(0, n))
        batch_lhs = 1.0
        prod = 1.0
        row = g[i]
        for j in range(k, n):
            batch_lhs += row[j] * prod
            prod *= 1.0 + row[j]
        assert telescoping_identity_lhs(row, k, n) == batch_lhs
    elapsed = time.time() - start
    assert worst <= 1e-10, f"worst relative identity error {worst}"
    assert elapsed < 5.0
    _report(1, "telescoping identity", elapsed, f"max rel err {worst:.2e}")


def test_criterion_02_lemma_soundness_with_slack():
    """10^4 randomized recursions with slack never exceed the closed form."""
    start = time.time()
    rng = np.random.default_rng(ACCEPT_SEED + 1)
    n_inst, length = 10_000, 21  # horizon 20
    f = rng.uniform(0.0, 10.0, (n_inst, length))
    g = rng.uniform(0.0, 0.3, (n_inst, length))
    slack = rng.uniform(0.0, 2.0, (n_inst, length))

    # closed form for every n, mirroring the scalar backward accumulation
    cf = np.empty((n_inst, length))
    for n in range(length):
        total = f[:, n].copy()
        prod = np.ones(n_inst)
        for k in range(n - 1, -1, -1):
            total += f[:, k] * g[:, k] * prod
            prod *= 1.0 + g[:, k]
        cf[:, n] = total

    # recursion with slack (independent of the closed-form route)
    y = np.empty((n_inst, length))
    acc = np.zeros(n_inst)
    for k in range(length):
        y[:, k] = f[:, k] + acc - slack[:, k]
        acc += g[:, k] * y[:, k]

    violation = float((y - cf).max())
    elapsed = time.time() - start
    assert violation <= 1e-10, f"soundness violated by {violation}"
    assert elapsed < 5.0
    _report(2, "deterministic recursion soundness", elapsed, f"max excess {violation:.2e}")


def test_criterion_03_martingale_inequality_enumeration():
    """All sign walks (plain and stopped) with n <= 12, exact expectations
    equal to the enumeration's; the inequality also at n = 1000."""
    start = time.time()
    p_values = [0.1, 0.25, 0.5, 0.75, 0.9]
    worst = -math.inf
    for stop in (None, -1.0, -2.0, -3.0):
        for n in range(0, 13):
            e_sup_p, e_neg_inf = sign_walk_expectations(n, p_values, stop_level=stop)
            for p in p_values:
                got = walk_functional_expectations(n, p, stop_level=stop)
                assert got == pytest.approx((e_sup_p[p], e_neg_inf), rel=1e-13, abs=0.0)
                slack = got[0] - got[1] ** p / (1.0 - p)
                worst = max(worst, slack)
                assert slack <= 1e-12, f"n={n} stop={stop} p={p} slack={slack}"
    # hand values for the two-step walk at p = 1/2
    assert walk_functional_expectations(2, 0.5) == ((math.sqrt(2.0) + 1.0) / 4.0, 0.75)
    e_sup_p, e_neg_inf = walk_functional_expectations(1000, 0.5, stop_level=-1.0)
    long_ratio = e_sup_p / math.sqrt(e_neg_inf)
    assert long_ratio <= 2.0
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(3, "martingale sup/inf inequality by enumeration", elapsed,
            f"max slack {worst:.2e}, ratio {long_ratio:.4f} at n = 1000")


def test_criterion_04_remark_constants_grid():
    """Constant window on a 99-point grid; ratio peaks at 4/pi at p = 1/2."""
    start = time.time()
    grid = np.linspace(0.01, 0.99, 99)
    ratios = []
    for p in grid:
        rc = remark_constants(float(p))
        assert rc.lower <= rc.upper + 1e-15
        ratios.append(rc.ratio)
    ratios = np.array(ratios)
    peak = int(np.argmax(ratios))
    assert grid[peak] == pytest.approx(0.5, abs=1e-12)
    assert abs(ratios[peak] - 4.0 / math.pi) <= 1e-12
    assert abs(ratios[0] - 1.0) <= 0.02
    assert abs(ratios[-1] - 1.0) <= 0.02
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(4, "sharp-constant window", elapsed, f"peak ratio {ratios[peak]:.12f}")


def test_criterion_05_stopped_bm_sharp_constant():
    """Exact sup sampler reproduces pi/2 for E[(sup)^(1/2)]."""
    start = time.time()
    plan = StreamPlan(ACCEPT_SEED)

    def estimate(n):
        (chunks,) = sample_columns(SupStoppedBmPowerSampler(0.5), n, plan)
        return estimate_expectation(chunks, n)

    est = estimate(1_000_000)
    if est.ci_halfwidth > 0.02:
        est = estimate(10_000_000)
    target = math.pi / 2.0
    deviation = abs(est.mean - target)
    elapsed = time.time() - start
    assert deviation <= 4.0 * est.std_error, (
        f"mean {est.mean} is {deviation / est.std_error:.2f} SE from pi/2"
    )
    assert elapsed < 30.0
    _report(5, "stopped-BM sharp constant", elapsed,
            f"mean {est.mean:.6f} vs {target:.6f} (halfwidth {est.ci_halfwidth:.4f})")


def test_criterion_06_theorem_bound_on_synthetic_systems():
    """Three synthetic recursion systems stay below the moment bound."""
    start = time.time()
    report = verify_theorem_on_synthetic(
        standard_synthetic_systems(10), 0.5, 100_000, StreamPlan(ACCEPT_SEED)
    )
    elapsed = time.time() - start
    for row in report["rows"]:
        assert row["passed"], (
            f"{row['system']}: upper CI {row['mean'] + row['ci_halfwidth']} > {row['bound']}"
        )
    assert report["all_passed"]
    assert elapsed < 60.0
    detail = ", ".join(
        f"{r['system']}: {r['mean']:.3f} <= {r['bound']:.3f}" for r in report["rows"]
    )
    _report(6, "moment bound on synthetic systems", elapsed, detail)


def test_criterion_07_product_form_pathwise_check():
    """Transformed-martingale product inequality on 10^4 random bundles."""
    start = time.time()
    rng = np.random.default_rng(ACCEPT_SEED + 2)
    worst = math.inf
    for i in range(10_000):
        horizon = int(rng.integers(1, 21))
        bundle = make_random_bundle(rng, horizon, with_slack=bool(i % 2))
        worst = min(worst, float(product_form_residuals(bundle).min()))
    elapsed = time.time() - start
    assert worst >= -1e-9, f"product-form inequality violated by {worst}"
    assert elapsed < 10.0
    _report(7, "product-form pathwise inequality", elapsed, f"min residual {worst:.2e}")


def test_criterion_08_exact_steps_vs_references():
    """Kernel steps equal the linear closed form bit for bit; the
    Ginzburg-Landau roots are within 4 ulps of an 80-digit reference."""
    start = time.time()
    rng = np.random.default_rng(ACCEPT_SEED + 3)
    lam, sigma = 1.0, 0.5
    prob = make_problem("linear", lam=lam, sigma=sigma)
    for h in (0.2, 0.1, 0.05, 0.01):
        ys = rng.uniform(-5.0, 5.0, 1000)
        d_ws = rng.normal(0.0, math.sqrt(h), (1, 1000))
        states, iters, failed = kernels.bem_scalar_batch(prob.solve, prob.diffusion, ys, h, d_ws)
        assert not failed.any() and iters.tolist() == [1000]
        assert np.array_equal(states[1], (ys + sigma * ys * d_ws[0]) / (1.0 + h * lam))
    cubic = make_problem("ginzburg-landau").solve
    hs = np.concatenate([rng.random(500), 10.0 ** rng.uniform(-320.0, 0.0, 500),
                         [1e-301, 1.0 - 2.0**-53, 0.5]])
    bs = np.concatenate([10.0 ** rng.uniform(-307.0, 300.0, 1000), [1.0, 1e300, 1.7e308]])
    worst = max(ulps_from(float(cubic(h, np.array([b]))[0]), cubic_root_reference(h, b))
                for h, b in zip(hs.tolist(), bs.tolist()) if 0.0 < h < 1.0)
    elapsed = time.time() - start
    assert worst <= 4.0, f"worst root {worst:.2f} ulps"
    assert elapsed < 5.0
    _report(8, "exact implicit steps vs closed form and reference", elapsed,
            f"max {worst:.2f} ulps")


@pytest.fixture(scope="module")
def apriori_reports():
    """Criterion-9 experiment at worker counts 1, 4, and 8."""
    problem = make_problem("ginzburg-landau", sigma=0.5)
    hs = [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0]
    reports = {}
    timings = {}
    for workers in (1, 4, 8):
        start = time.time()
        reports[workers] = verify_apriori(
            problem, hs, 0.25, 1.0, 0.5, 100_000, StreamPlan(ACCEPT_SEED, workers=workers)
        )
        timings[workers] = time.time() - start
    return reports, timings


def test_criterion_09_step_size_independent_bound(apriori_reports):
    """Per-h estimates stay below the single h-independent bound."""
    reports, timings = apriori_reports
    report = reports[1]
    for row in report["rows"]:
        assert row["passed"], (
            f"h={row['h']}: upper CI {row['mean'] + row['ci_halfwidth']} > bound {report['bound']}"
        )
        assert row["n_failures"] == 0
    assert report["all_passed"]
    assert report["h_robust"], (
        f"estimate spread {report['spread']} not below margin {report['margin']}"
    )
    assert timings[1] < 600.0
    detail = (
        f"bound {report['bound']:.3f}, estimates "
        + ", ".join(f"{r['mean']:.4f}" for r in report["rows"])
        + f", spread {report['spread']:.4f} < margin {report['margin']:.3f}"
    )
    _report(9, "step-size independent a priori bound", timings[1], detail)


def test_criterion_10_bit_identical_across_workers(apriori_reports):
    """Worker counts 1, 4, 8 produce byte-identical reports."""
    reports, timings = apriori_reports
    serialized = {
        w: json.dumps(r, sort_keys=True) for w, r in reports.items()
    }
    assert serialized[1] == serialized[4] == serialized[8]
    _report(10, "bit-identical reports across worker counts",
            sum(timings.values()), f"{len(serialized[1])} report bytes")


def test_criterion_11_theorem_rows_match_exact_expectations():
    """Each synthetic system's row mean lies within 4 standard errors of its
    exact E[sup_k X_k^p] over all 1,024 sign walks of horizon 10."""
    start = time.time()
    p, horizon = 0.5, 10
    systems = standard_synthetic_systems(horizon)
    report = verify_theorem_on_synthetic(systems, p, 100_000, StreamPlan(ACCEPT_SEED))
    walks = enumerate_sign_walks(horizon)
    details = []
    for system, row in zip(systems, report["rows"]):
        # X_n = F_n + M_n + sum_{k<n} G_k X_k, with equality on every walk
        m = walks if system.martingale == "pm1-walk" else np.zeros_like(walks)
        x = np.empty_like(m)
        acc = np.zeros(len(m))
        for n in range(horizon + 1):
            x[:, n] = system.f_values[n] + m[:, n] + acc
            acc += system.g_values[n] * x[:, n]
        exact = float(np.mean(x.max(axis=1) ** p))
        deviation = abs(row["mean"] - exact)
        assert deviation <= 4.0 * row["std_error"], (
            f"{system.label}: mean {row['mean']} is {deviation} from exact {exact}, "
            f"standard error {row['std_error']}"
        )
        details.append(f"{system.label}: {row['mean']:.4f} vs {exact:.4f}")
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(11, "theorem rows against exact walk expectations", elapsed, ", ".join(details))
