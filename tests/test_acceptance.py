"""Acceptance suite: eleven end-to-end criteria, one test per criterion.

Each test prints one ``[criterion NN] PASS|FAIL`` line carrying the
measured quantities, then asserts the stated tolerances.  Criteria 3 and
6 assert agreement tolerances that the dominant-interferer approximation
genuinely exceeds in low-probability tail regimes; they are expected to
fail, and the printed lines carry the honestly measured values.
Criterion 6 fails on its z-score clause alone (9.81 at K=3, -3 dB); its
ordering clause, restricted to where K bands can hear L BSs at all,
holds.
"""

import time

import numpy as np
import pytest
from one_point import pl, value_or_raise
from scipy import stats

from hearability.analytic import Method, evaluate_grid, min_processing_gain
from hearability.cli import main
from hearability.e911 import (
    MIN_TRIALS,
    E911Config,
    collect_trials,
    fcc_compliance,
)
from hearability.model import Scenario
from hearability.reuse import pl_with_reuse_grid
from hearability.simulate import (
    Deployment,
    SimConfig,
    collect_margins,
    collect_reuse_margins,
    collect_upsilon,
    exceedance_curve,
)
from sampling_oracle import conditional_law_samples

ACC_SEED = 1
GRID_DB = np.arange(-20.0, 0.5, 1.0)
FIG3_SCEN = Scenario(lam=1.0, alpha=4.0, p=1.0, q=1.0, beta=1.0, gamma=1.0, L=4)

# Independently derived oracle values, frozen (see test_analytic for the
# quadrature and hand-arithmetic derivations).
UPPER_BOUND_CANON = 0.726535713629692
NEARFIELD_CANON = 0.703784469674449
PERFECT_COORD_AT_10 = 0.989663949324074
MIN_GAIN_08_L4_A4 = 196.615284371535


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def _at(scen: Scenario, bg_db: float) -> Scenario:
    return scen.replace(beta=scen.gamma * 10.0 ** (bg_db / 10.0))


def _levels(grid_db) -> list[float]:
    return [10.0 ** (g / 10.0) for g in grid_db]


def _curve(method: Method, scen: Scenario, grid_db) -> np.ndarray:
    """P_L by ``method`` at each beta/gamma of ``grid_db``, one grid call."""
    values = evaluate_grid(method, scen, _levels(grid_db))
    return np.array([value_or_raise(v) for v in values])


def _reuse_curve(scen: Scenario, grid_db) -> np.ndarray:
    """Reuse P_L at each beta/gamma of ``grid_db``, one family call."""
    # Per-band P_n by SingleIntegralAlpha4.
    [values] = pl_with_reuse_grid([scen], _levels(grid_db))
    return np.array([value_or_raise(v) for v in values])


def _upsilon_curve(upsilon: np.ndarray, l_values) -> np.ndarray:
    return np.array([e.value for e in exceedance_curve(upsilon, l_values)])


def _mc_curve(margins: np.ndarray, grid_db: np.ndarray) -> np.ndarray:
    return np.array(
        [np.mean(margins[:, 0] >= 10.0 ** (g / 10.0)) for g in grid_db]
    )


def _crossing_db(values: np.ndarray, grid_db: np.ndarray, target: float) -> float:
    # Curves fall with the threshold, so reverse for ascending interpolation.
    return float(np.interp(target, values[::-1], grid_db[::-1]))


@pytest.fixture(scope="module")
def fig3_margins():
    start = time.perf_counter()
    [margins] = collect_margins(
        [FIG3_SCEN], SimConfig(realizations=20000, seed=ACC_SEED)
    )
    return margins, time.perf_counter() - start


def test_criterion_01_joint_mc_anchor_matches_alpha4(fig3_margins):
    margins, elapsed = fig3_margins
    mc = float(np.mean(margins[:, 0] >= 10.0 ** -1.6))
    analytic = pl(Method.SINGLE_INTEGRAL_ALPHA4, _at(FIG3_SCEN, -16.0))
    ok = abs(mc - 0.5) <= 0.03 and abs(mc - analytic) <= 0.02 and elapsed < 60.0
    _report(
        1, ok,
        f"P4(-16 dB): mc={mc:.4f} (target 0.50 +- 0.03), alpha4={analytic:.4f} "
        f"(|diff|={abs(mc - analytic):.4f} <= 0.02), collection {elapsed:.1f} s < 60 s",
    )
    assert abs(mc - 0.5) <= 0.03
    assert abs(mc - analytic) <= 0.02
    assert elapsed < 60.0


def test_criterion_02_upper_bound_dominates(fig3_margins):
    margins, _ = fig3_margins
    mc = _mc_curve(margins, GRID_DB)
    stderr = np.sqrt(mc * (1.0 - mc) / margins.shape[0])
    bound = _curve(Method.UPPER_BOUND, FIG3_SCEN, GRID_DB)
    dominance = bool(np.all(bound >= mc - 3.0 * stderr))
    gap_db = abs(
        _crossing_db(bound, GRID_DB, 0.2) - _crossing_db(mc, GRID_DB, 0.2)
    )
    ok = dominance and gap_db <= 4.0
    _report(
        2, ok,
        f"bound >= mc - 3se at all {GRID_DB.size} points: {dominance}; "
        f"horizontal gap at P=0.2: {gap_db:.2f} dB <= 4 dB",
    )
    assert dominance
    assert gap_db <= 4.0


def test_criterion_03_double_integral_fidelity_across_alpha():
    scen = Scenario(
        lam=1.0, alpha=3.0, p=2.0 / 3.0, q=1.0, beta=1.0, gamma=1.0, L=4
    )
    worst_gap = 0.0
    worst_at = (0.0, 0.0)
    for alpha in (3.0, 3.5, 4.0, 4.5):
        sa = scen.replace(alpha=alpha)
        # Low path-loss exponents need a wider window before the omitted
        # far-field tail is negligible against a 0.02 tolerance.
        ebs = 4000 if alpha < 3.75 else 1000
        [margins] = collect_margins(
            [sa], SimConfig(realizations=20000, seed=ACC_SEED, expected_bs=ebs)
        )
        mc = _mc_curve(margins, GRID_DB)
        double = _curve(Method.DOUBLE_INTEGRAL, sa, GRID_DB)
        for g, d, m in zip(GRID_DB, double, mc):
            gap = abs(d - m)
            if gap > worst_gap:
                worst_gap, worst_at = gap, (alpha, g)

    dense = np.arange(-20.0, 0.01, 0.25)
    dcurve = _curve(Method.DOUBLE_INTEGRAL, scen, dense)
    scurve = _curve(Method.SINGLE_INTEGRAL_GENERAL, scen, dense)
    targets = np.arange(0.60, 0.9501, 0.0125)
    dev = np.abs(
        np.interp(targets, scurve[::-1], dense[::-1])
        - np.interp(targets, dcurve[::-1], dense[::-1])
    )
    dev_max = float(dev.max())
    dev_p = float(targets[int(np.argmax(dev))])

    ok = worst_gap <= 0.02 and dev_max < 1.0
    _report(
        3, ok,
        f"|double - mc| worst {worst_gap:.4f} at alpha={worst_at[0]} "
        f"{worst_at[1]:+.0f} dB (tol 0.02); single-integral horizontal "
        f"deviation at alpha=3 max {dev_max:.3f} dB at P={dev_p:.3f} (tol < 1 dB)",
    )
    assert worst_gap <= 0.02
    assert dev_max < 1.0


def test_criterion_04_closed_form_unit_values():
    canon = _at(FIG3_SCEN, -20.0)  # gamma/beta = 100
    ub = pl(Method.UPPER_BOUND, canon)
    nf = pl(Method.NEAR_FIELD_ALPHA4, canon)
    pc = pl(Method.PERFECT_COORD, _at(FIG3_SCEN, -10.0))
    gain = min_processing_gain(0.8, 4, 4.0, 1.0)
    ok = (
        abs(ub - UPPER_BOUND_CANON) <= 1e-6
        and abs(nf - NEARFIELD_CANON) <= 1e-6
        and abs(pc - PERFECT_COORD_AT_10) <= 1e-6
        and abs(gain - MIN_GAIN_08_L4_A4) <= 1e-3
    )
    _report(
        4, ok,
        f"bound {ub:.9f}, near-field {nf:.9f}, coordination {pc:.9f} "
        f"(each +-1e-6), min gain {gain:.6f} (+-1e-3)",
    )
    assert abs(ub - UPPER_BOUND_CANON) <= 1e-6
    assert abs(nf - NEARFIELD_CANON) <= 1e-6
    assert abs(pc - PERFECT_COORD_AT_10) <= 1e-6
    assert abs(gain - MIN_GAIN_08_L4_A4) <= 1e-3


def test_criterion_05_internal_consistency():
    grid = np.linspace(-20.0, 0.0, 20)
    gap_integrals = np.max(np.abs(
        _curve(Method.SINGLE_INTEGRAL_ALPHA4, FIG3_SCEN, grid)
        - _curve(Method.DOUBLE_INTEGRAL, FIG3_SCEN, grid)
    ))
    quiet, near = FIG3_SCEN.replace(q=1e-9), (-30.0, -20.0, -10.0)
    gap_nearfield = np.max(np.abs(
        _curve(Method.SINGLE_INTEGRAL_ALPHA4, quiet, near)
        - _curve(Method.NEAR_FIELD_ALPHA4, quiet, near)
    ))
    reuse = (-16.0, -10.0, -4.0)
    gap_reuse = np.max(np.abs(
        _reuse_curve(FIG3_SCEN, reuse)
        - _curve(Method.SINGLE_INTEGRAL_ALPHA4, FIG3_SCEN, reuse)
    ))
    ok = gap_integrals <= 1e-6 and gap_nearfield <= 1e-4 and gap_reuse <= 1e-12
    _report(
        5, ok,
        f"alpha4 vs double {gap_integrals:.2e} (tol 1e-6); q->0 vs near-field "
        f"{gap_nearfield:.2e} (tol 1e-4); K=1 reuse vs base {gap_reuse:.2e} "
        f"(tol 1e-12)",
    )
    assert gap_integrals <= 1e-6
    assert gap_nearfield <= 1e-4
    assert gap_reuse <= 1e-12


def test_criterion_06_reuse_recursion_vs_mc():
    recursion = {K: _reuse_curve(FIG3_SCEN.replace(K=K), GRID_DB) for K in (1, 3, 6)}
    # With p = q = 1 a heard BS carries at least beta/(beta+gamma) of its
    # band's total power, and the rest of the band is strictly positive, so
    # fewer than 1 + gamma/beta, i.e. at most ceil(gamma/beta), BSs per band
    # are heard.  P_L is therefore exactly 0 wherever K*ceil(gamma/beta) < L,
    # and strict ordering in K is asserted only where the larger K can
    # reach L.
    per_band = np.array(
        [np.ceil(s.gamma / s.beta) for s in (_at(FIG3_SCEN, g) for g in GRID_DB)]
    )
    capped = {K: K * per_band < FIG3_SCEN.L for K in recursion}
    zero_where_capped = bool(
        all(np.all(recursion[K][capped[K]] == 0.0) for K in recursion)
    )
    ordered = bool(
        all(
            np.all(recursion[hi][~capped[hi]] > recursion[lo][~capped[hi]])
            for lo, hi in ((1, 3), (3, 6))
        )
    )
    worst_z = 0.0
    worst_at = (0, 0.0)
    margins = collect_reuse_margins(
        [FIG3_SCEN.replace(K=K) for K in (3, 6)],
        SimConfig(realizations=10000, seed=ACC_SEED),
    )
    for K, statistic in zip((3, 6), margins):
        estimates = exceedance_curve(statistic, 10.0 ** (GRID_DB / 10.0))
        for g, rec, est in zip(GRID_DB, recursion[K], estimates):
            # Floor the scale with the binomial deviation of the analytic
            # value so exact-zero MC tails cannot divide by zero.
            scale = max(
                est.stderr, np.sqrt(rec * (1.0 - rec) / est.n), 1e-12
            )
            z = abs(rec - est.value) / scale
            if z > worst_z:
                worst_z, worst_at = z, (K, g)
    ok = zero_where_capped and ordered and worst_z <= 3.0
    _report(
        6, ok,
        f"exactly 0 where K*ceil(gamma/beta) < L: {zero_where_capped}; "
        f"K ordering strict where the larger K can reach L: {ordered}; "
        f"worst |recursion - mc| z-score {worst_z:.2f} at K={worst_at[0]} "
        f"{worst_at[1]:+.0f} dB (tol 3)",
    )
    assert zero_where_capped
    assert ordered
    assert worst_z <= 3.0


def test_criterion_07_conditional_law_suite():
    # The collectors' own block rows, each the 48 BSs nearest the device.
    scen = Scenario(
        lam=1.0, alpha=4.0, p=2.0 / 3.0, q=1.0, beta=1.0, gamma=1.0, L=4
    )
    cfg = SimConfig(realizations=104000, seed=ACC_SEED, expected_bs=48)
    laws = conditional_law_samples(scen, cfg, outer_rows=2500)
    inner_u, z_vals, outer_u = laws["inner"], laws["z"], laws["outer"].ravel()
    i1_res, i2_res = laws["i1"], laws["i2"]

    p1 = stats.kstest(inner_u, "uniform").pvalue
    p2 = stats.kstest(z_vals, "uniform").pvalue
    p3 = stats.kstest(outer_u, "uniform").pvalue
    z4 = abs(i1_res.mean()) / (i1_res.std(ddof=1) / np.sqrt(i1_res.size))
    z5 = abs(i2_res.mean()) / (i2_res.std(ddof=1) / np.sqrt(i2_res.size))
    ok = min(p1, p2, p3) >= 0.01 and z4 <= 3.0 and z5 <= 3.0
    _report(
        7, ok,
        f"KS p-values: disk {p1:.3f} (n={inner_u.size}), dominant-distance "
        f"{p2:.3f} (n={z_vals.size}), annulus {p3:.3f} (n={outer_u.size}) "
        f"(all >= 0.01); interference-mean z-scores {z4:.2f}, {z5:.2f} (<= 3)",
    )
    assert p1 >= 0.01 and z_vals.size >= 100000 and inner_u.size >= 100000
    assert p2 >= 0.01 and outer_u.size >= 100000
    assert p3 >= 0.01
    assert z4 <= 3.0
    assert z5 <= 3.0


def test_criterion_08_scale_invariance():
    dense = FIG3_SCEN.replace(lam=10.0)
    closed = (-16.0, -10.0)
    bit_equal = all(
        np.array_equal(_curve(m, FIG3_SCEN, closed), _curve(m, dense, closed))
        for m in (Method.UPPER_BOUND, Method.PERFECT_COORD, Method.NEAR_FIELD_ALPHA4)
    )
    general = FIG3_SCEN.replace(alpha=3.5, p=2.0 / 3.0)
    integral_gap = max(
        abs(pl(m, _at(s, -10.0)) - pl(m, _at(s.replace(lam=10.0), -10.0)))
        for m, s in (
            (Method.SINGLE_INTEGRAL_ALPHA4, FIG3_SCEN),
            (Method.DOUBLE_INTEGRAL, general),
            (Method.SINGLE_INTEGRAL_GENERAL, general),
        )
    )
    a, b = (
        exceedance_curve(
            collect_margins([s], SimConfig(realizations=10000, seed=seed))[0][:, 0],
            [s.beta / s.gamma],
        )[0]
        for s, seed in (
            (_at(FIG3_SCEN, -16.0), ACC_SEED), (_at(dense, -16.0), ACC_SEED + 1)
        )
    )
    z = abs(a.value - b.value) / np.hypot(a.stderr, b.stderr)
    ok = bit_equal and integral_gap <= 1e-8 and z <= 3.0
    _report(
        8, ok,
        f"closed forms bit-identical under 10x density: {bit_equal}; integral "
        f"gap {integral_gap:.2e} (tol 1e-8); MC z-score {z:.2f} (<= 3)",
    )
    assert bit_equal
    assert integral_gap <= 1e-8
    assert z <= 3.0


def test_criterion_09_hex_grid_convergence():
    l_values = np.arange(1, 17)
    base = Scenario(
        lam=1.0, alpha=4.0, p=1.0, q=1.0, beta=0.1, gamma=1.0, L=1
    )
    reuse6 = base.replace(K=6)
    sim = SimConfig(realizations=10000, seed=ACC_SEED)
    ppp, ppp6 = (_upsilon_curve(u, l_values) for u in collect_upsilon([base, reuse6], sim))
    # One hex family draws each block's geometry and normals once for all members.
    sigmas = (4.0, 8.0, 12.0)
    *hexes, hex6 = (_upsilon_curve(u, l_values) for u in collect_upsilon(
        [base.replace(sigma_db=s) for s in sigmas] + [reuse6.replace(sigma_db=8.0)],
        sim.replace(deployment=Deployment.HEX),
    ))
    ks = {sigma: float(np.max(np.abs(hx - ppp))) for sigma, hx in zip(sigmas, hexes)}
    decreasing = ks[4.0] > ks[8.0] > ks[12.0]
    diff10 = float(np.max(np.abs(hex6[:10] - ppp6[:10])))
    ok = decreasing and diff10 <= 0.05
    _report(
        9, ok,
        f"KS distances over sigma 4/8/12 dB: {ks[4.0]:.4f} > {ks[8.0]:.4f} > "
        f"{ks[12.0]:.4f}: {decreasing}; K=6 sigma=8 max diff for L<=10: "
        f"{diff10:.4f} <= 0.05",
    )
    assert decreasing
    assert diff10 <= 0.05


def test_criterion_10_e911_pipeline():
    noiseless = E911Config(bandwidth=np.inf, clock_std=0.0, nlos_mean=0.0)
    # The first 80 trials; a trial without a fix has a NaN error.
    trials = collect_trials(noiseless.replace(trials=MIN_TRIALS), seed=ACC_SEED)
    errors = trials[:80, 1][np.isfinite(trials[:80, 1])]
    worst_noiseless = max(errors)

    cfg = E911Config(trials=4000)
    rows = fcc_compliance(cfg, seed=ACC_SEED)
    p67 = [r.p67_m for r in rows]
    p90 = [r.p90_m for r in rows]
    monotone = all(a >= b for a, b in zip(p67, p67[1:])) and all(
        a >= b for a, b in zip(p90, p90[1:])
    )
    passing = [r.min_hearability for r in rows if r.passes]
    smallest = min(passing) if passing else None
    ok = (
        worst_noiseless <= 1e-6
        and len(errors) >= 10
        and monotone
        and smallest in (5, 6, 7)
    )
    _report(
        10, ok,
        f"noiseless worst error {worst_noiseless:.2e} m over {len(errors)} fixes "
        f"(tol 1e-6); percentiles monotone: {monotone}; smallest passing "
        f"hearability {smallest} (target 6 +- 1)",
    )
    assert worst_noiseless <= 1e-6
    assert len(errors) >= 10
    assert monotone
    assert smallest in (5, 6, 7)


def test_criterion_11_determinism(tmp_path):
    args = [
        "simulate", "--seed", "9", "--realizations", "500",
        "--expected-bs", "100", "--bg-start-db", "-16", "--bg-stop-db", "-14",
        "--bg-step-db", "1", "--no-timestamp",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    mc_identical = first.read_bytes() == second.read_bytes()

    ana = ["analytic", "--bg-start-db", "-16", "--bg-stop-db", "-14",
           "--bg-step-db", "1", "--no-timestamp"]
    third = tmp_path / "c.csv"
    fourth = tmp_path / "d.csv"
    assert main(ana + ["--out", str(third)]) == 0
    assert main(ana + ["--out", str(fourth)]) == 0
    analytic_identical = third.read_bytes() == fourth.read_bytes()

    cfg = SimConfig(realizations=2000, seed=ACC_SEED)
    workers_equal = np.array_equal(
        collect_margins([FIG3_SCEN], cfg, workers=1)[0],
        collect_margins([FIG3_SCEN], cfg, workers=3)[0],
    )
    ok = mc_identical and analytic_identical and workers_equal
    _report(
        11, ok,
        f"simulate re-run byte-identical: {mc_identical}; analytic re-run "
        f"byte-identical: {analytic_identical}; margins equal across worker "
        f"counts: {workers_equal}",
    )
    assert mc_identical
    assert analytic_identical
    assert workers_equal
