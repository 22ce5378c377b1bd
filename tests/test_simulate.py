"""Unit tests for the Monte Carlo truth machinery.

The distribution-law tests condition exactly as the sampling theory
prescribes and turn each conditional law into a pooled uniform sample
via its probability integral transform, checked with Kolmogorov-Smirnov
at fixed seeds.

The block kernels of the collectors are checked row by row against the
scalar per-realization statistics below, which are the reference
implementation, and bit for bit against the band-by-band kernels of
``band_reference``.  The reuse margin is checked against the count-based
reuse success it replaces.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from hearability import simulate
from hearability.model import Scenario, effective_density
from hearability.simulate import (
    Deployment,
    SimConfig,
    collect_margins,
    collect_reuse_margins,
    collect_upsilon,
    exceedance_curve,
    stream,
)
import band_reference
from sampling_oracle import (
    Realization,
    block_rows,
    conditional_law_samples,
    marks,
    tail_mean,
)

SCEN = Scenario(lam=1.0, alpha=4.0, p=1.0, q=1.0, beta=0.1, gamma=1.0, L=4)
PARTIAL = SCEN.replace(p=2.0 / 3.0)


def _sample_block(scen, config, block, rows):
    """Distances, activity uniforms and band labels of one block, each (rows, n)."""
    draws = simulate._BlockDraws(config, block, rows)
    return draws.distances(scen), draws.activity(), draws.labels(scen.K)


def _block_stats(kind, scen, config, block, rows):
    """One scenario's statistics of one block: a family of one."""
    return simulate._block_stats(kind, (scen,), config, block, rows)[:, 0]


# --- scalar oracle: one realization at a time --------------------------------


def _joint_last_margins(
    pw: np.ndarray, u: np.ndarray, L: int, p: float, q: float, tail: float,
) -> tuple[float, float]:
    """(min SINR over the L nearest, SINR of the L-th) for one realization.

    ``tail`` is the mean interference beyond the realization's BSs.
    """
    if len(pw) < L:
        return (-math.inf, -math.inf)
    act_p = u[:L] < p
    act_q = u[L:] < q
    t_part = float(np.sum(pw[:L], where=act_p))
    t_bg = float(np.sum(pw[L:], where=act_q)) + tail
    denom = t_part - np.where(act_p, pw[:L], 0.0) + t_bg
    with np.errstate(divide="ignore"):
        sinr = np.where(denom > 0.0, pw[:L] / denom, math.inf)
    return (float(np.min(sinr)), float(sinr[L - 1]))


def _leading_pass_count(
    pw: np.ndarray, u: np.ndarray, q: float, thr: float, cap: int, tail: float,
) -> int:
    """Detectable count when muting equals load (p == q, single band).

    The per-BS SINR then does not depend on how many BSs participate,
    and it decreases with distance among active BSs, so the detectable
    set is the longest prefix of passing BSs.  ``tail`` is the band's
    mean interference beyond its BSs.
    """
    act = u < q
    total = float(np.sum(pw, where=act)) + tail
    denom = total - np.where(act, pw, 0.0)
    ok = pw >= thr * denom
    m = min(cap, len(pw))
    if m == 0:
        return 0
    head = ~ok[:m]
    return int(np.argmax(head)) if head.any() else m


def _band_sinr_cummin(
    pw: np.ndarray, u: np.ndarray, q: float, cap: int, tail: float
) -> np.ndarray:
    """Prefix-min SINR of the nearest band members (p == q), padded -inf.

    ``tail`` is the band's mean interference beyond its BSs.
    """
    act = u < q
    total = float(np.sum(pw, where=act)) + tail
    denom = total - np.where(act, pw, 0.0)
    m = min(cap, len(pw))
    out = np.full(cap, -math.inf)
    if m == 0:
        return out
    with np.errstate(divide="ignore"):
        sinr = np.where(denom[:m] > 0.0, pw[:m] / denom[:m], math.inf)
    out[:m] = np.minimum.accumulate(sinr)
    return out


def _upsilon_oracle(realization, scenario, tail, cap=32) -> int:
    """Upsilon by an explicit scan over candidate participant counts.

    ``tail`` is the mean interference beyond the realization's BSs;
    each band hears 1/K of it.
    """
    thr = scenario.beta / scenario.gamma
    band_tail = tail / scenario.K
    pw_all = realization.distances ** (-scenario.alpha)
    total_count = 0
    for band in range(1, scenario.K + 1):
        if scenario.K > 1:
            sel = realization.bands == band
            pw = pw_all[sel]
            u = realization.activity_u[sel]
        else:
            pw = pw_all
            u = realization.activity_u
        if scenario.p == scenario.q:
            total_count += _leading_pass_count(pw, u, scenario.q, thr, cap, band_tail)
            continue
        m = min(cap, len(pw))
        pw_m = pw * (u < scenario.p)
        pref_p = np.concatenate(([0.0], np.cumsum(pw_m)))
        pw_q = pw * (u < scenario.q)
        pref_q = np.concatenate(([0.0], np.cumsum(pw_q)))
        t_q = pref_q[-1]
        best = 0
        for ell in range(1, m + 1):
            act = u[:ell] < scenario.p
            near = pref_p[ell] - act * pw[:ell]
            far = t_q - pref_q[ell] + band_tail
            denom = near + far
            if np.all(pw[:ell] >= thr * denom):
                best = ell
        total_count += best
    return total_count


# --- one-row views of the block code -----------------------------------------


def sample_hex(scenario: Scenario, config: SimConfig, index: int) -> Realization:
    """Sample one hex-grid deployment with per-link shadowing.

    The row of a one-row block keyed by ``index``: the ``expected_bs``
    lattice sites nearest a device placed uniformly in a cell, with
    per-link shadowing ``S`` folded into equivalent distances
    ``S**(-1/alpha) * d``, so the ascending order is the order of
    received power.
    """
    simulate._check_window(scenario, config)
    hex_config = config.replace(deployment=Deployment.HEX)
    d, u, labels = _sample_block(scenario, hex_config, index, 1)
    activity = marks(u[0], scenario.L, scenario.p, scenario.q)
    bands = np.ones(d.shape[1], dtype=np.int64) if labels is None else labels[0]
    return Realization(d[0], activity, bands, u[0])


def participation_metric(
    realization: Realization, scenario: Scenario, cap: int = 32, tail: float = 0.0
) -> int:
    """Number of detectable BSs Upsilon for one realization.

    Upsilon is the largest candidate participant count ``ell`` (up to
    ``cap``, per band, summed over bands) for which the device detects
    all ``ell`` nearest band members while exactly those participate.
    For ``p == q`` this is the longest prefix of band members whose SINR
    clears ``beta/gamma``, and ``P(Upsilon >= L)`` equals the
    joint-detection ``P_L``.  The candidate counts share one activity
    uniform per BS.  ``tail`` is the mean interference beyond the
    realization's BSs.
    """
    if len(realization.distances) == 0:
        return 0
    labels = realization.bands[None] if scenario.K > 1 else None
    pw = simulate._powers(realization.distances, scenario)[None]
    u = realization.activity_u[None]
    bands = simulate._Bands(labels, scenario.K, cap, pw.shape)
    return int(simulate._upsilon(pw, u < scenario.p, u < scenario.q, bands,
                                 np.full((1, 1), tail), scenario)[0])


def cfg(n: int, seed: int = 0, **kw) -> SimConfig:
    return SimConfig(realizations=n, seed=seed, **kw)


def _block_cummins(scen, config, block, rows):
    """Per-band prefix-min SINRs of one block, (rows, K, UPSILON_CAP)."""
    draws = simulate._BlockDraws(config, block, rows)
    return simulate._prefix_min_sinr(
        draws.powers(scen), draws.active(scen.q), draws.bands(scen.K), draws.tail(scen),
    )


def _band_cummins(scen, config):
    """Per-band prefix-min SINRs of every realization, (n, K, UPSILON_CAP)."""
    config = simulate._with_window([scen], config)
    n, size = config.realizations, simulate._BLOCK
    return np.concatenate([
        _block_cummins(scen, config, first // size, min(size, n - first))
        for first in range(0, n, size)
    ])


def _count_successes(cummins: np.ndarray, L: int, thr: float) -> int:
    """Reuse success by counting: at least L band prefix-minima clear thr."""
    return int(np.sum(np.sum(cummins >= thr, axis=(1, 2)) >= L))


def make_realization(distances, u, K: int = 1, p: float = 1.0, q: float = 1.0,
                     L: int = 1) -> Realization:
    d = np.asarray(distances, dtype=float)
    u = np.asarray(u, dtype=float)
    return Realization(d, marks(u, L, p, q), np.ones(len(d), dtype=np.int64), u)


class TestRealization:
    def test_accepts_sorted_positive_distances(self):
        real = Realization(
            distances=np.array([1.0, 2.0, 3.0]),
            activity=np.ones(3, dtype=bool),
            bands=np.ones(3, dtype=np.int64),
            activity_u=np.zeros(3),
        )
        np.testing.assert_array_equal(real.distances, [1.0, 2.0, 3.0])

    def test_rejects_unsorted_distances(self):
        with pytest.raises(ValueError):
            Realization(
                distances=np.array([2.0, 1.0]),
                activity=np.ones(2, dtype=bool),
                bands=np.ones(2, dtype=np.int64),
            )

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Realization(
                distances=np.array([1.0, 2.0]),
                activity=np.ones(3, dtype=bool),
                bands=np.ones(2, dtype=np.int64),
            )

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            Realization(
                distances=np.array([0.0, 1.0]),
                activity=np.ones(2, dtype=bool),
                bands=np.ones(2, dtype=np.int64),
            )


class TestStream:
    def test_keyed_and_reproducible(self):
        a = stream(7, 3, 1).random(4)
        b = stream(7, 3, 1).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, stream(7, 4, 1).random(4))
        assert not np.array_equal(a, stream(7, 3, 2).random(4))
        assert not np.array_equal(a, stream(8, 3, 1).random(4))


class TestSampleHex:
    def test_structure_without_shadowing(self):
        config = cfg(1, seed=4, deployment=Deployment.HEX, expected_bs=200)
        real = sample_hex(SCEN, config, 0)
        d = real.distances
        assert len(d) == 200
        assert np.all(np.diff(d) >= 0.0) and np.all(d > 0.0)
        # The device sits inside some cell: its nearest site is at most
        # the cell circumradius away.
        assert d[0] <= 500.0 / math.sqrt(3.0) + 1e-9

    def test_cell_offset_varies_with_index(self):
        config = cfg(1, seed=4, deployment=Deployment.HEX, expected_bs=100)
        a = sample_hex(SCEN, config, 0)
        b = sample_hex(SCEN, config, 1)
        assert not np.array_equal(a.distances, b.distances)

    def test_shadowing_reorders_by_received_power(self):
        config = cfg(1, seed=4, deployment=Deployment.HEX, expected_bs=100)
        real = sample_hex(SCEN.replace(sigma_db=8.0), config, 0)
        assert np.all(np.diff(real.distances) >= 0.0)
        # Equivalent distances differ from the geometric ones.
        plain = sample_hex(SCEN, config, 0)
        assert not np.allclose(real.distances, plain.distances)


@pytest.fixture(scope="module")
def partial_laws():
    """Conditional-law samples of 4000 small-window collector rows."""
    return conditional_law_samples(PARTIAL, cfg(4000, seed=21, expected_bs=48), 4000)


class TestConditionalLaws:
    """Probability integral transforms of the conditioned PPP structure."""

    def test_inner_points_uniform_on_disk(self, partial_laws):
        # Given R_L, the L-1 nearer BSs are i.i.d. uniform on the disk
        # of radius R_L: pooled (r_i / R_L)^2 must be U(0,1).
        assert stats.kstest(partial_laws["inner"], "uniform").pvalue > 0.01

    def test_dominant_interferer_law_per_omega(self, partial_laws):
        # Given Omega = omega actives among the L-1 nearest, the nearest
        # active sits at R1_hat with survival ((R_L^2-r^2)/R_L^2)^omega.
        for omega in (1, 2, 3):
            values = partial_laws["z"][partial_laws["omega"] == omega]
            assert len(values) > 300
            assert stats.kstest(values, "uniform").pvalue > 0.01

    def test_outer_points_uniform_on_annulus(self, partial_laws):
        # Between R_L and the last kept distance R_n the points are
        # i.i.d. uniform on the annulus: pooled
        # (r^2-R_L^2)/(R_n^2-R_L^2) must be U(0,1).
        pooled = partial_laws["outer"][:1500].ravel()
        assert stats.kstest(pooled, "uniform").pvalue > 0.01

    def test_near_interference_mean(self, partial_laws):
        # The remaining omega-1 actives are uniform on the annulus
        # (R1_hat, R_L); their summed power must match mean_i1 on
        # average.
        residuals = partial_laws["i1"]
        assert len(residuals) > 1000
        se = residuals.std(ddof=1) / math.sqrt(len(residuals))
        assert abs(residuals.mean()) <= 3.0 * se

    def test_far_interference_mean(self, partial_laws):
        # The kept far field plus the Campbell mean of the process beyond
        # the last kept distance must match mean_i2 on average.
        residuals = partial_laws["i2"]
        se = residuals.std(ddof=1) / math.sqrt(len(residuals))
        assert abs(residuals.mean()) <= 3.0 * se


class TestMargins:
    def test_deterministic_and_worker_invariant(self):
        config = cfg(600, seed=31, expected_bs=100)
        [serial] = collect_margins([SCEN], config, workers=1)
        [again] = collect_margins([SCEN], config, workers=1)
        [parallel] = collect_margins([SCEN], config, workers=3)
        np.testing.assert_array_equal(serial, again)
        np.testing.assert_array_equal(serial, parallel)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_joint_equals_last_at_deterministic_marks(self, p):
        scen = SCEN.replace(p=p)
        [m] = collect_margins([scen], cfg(800, seed=5, expected_bs=100))
        np.testing.assert_array_equal(m[:, 0], m[:, 1])

    def test_joint_close_to_last_in_between(self):
        [m] = collect_margins([PARTIAL], cfg(20000, seed=5))
        thr = 10.0 ** -1.2
        pj = float((m[:, 0] >= thr).mean())
        pl = float((m[:, 1] >= thr).mean())
        assert pj <= pl + 1e-12  # joint detection is the stricter event
        assert pl - pj < 0.01

    def test_estimate_matches_curve(self):
        config = cfg(2000, seed=8, expected_bs=100)
        joint = collect_margins([SCEN], config)[0][:, 0]
        curve = exceedance_curve(joint, np.array([0.02, 0.05]))
        for thr, point in zip((0.02, 0.05), curve):
            single = exceedance_curve(joint, [thr])[0]
            assert point == single
            assert point.n == 2000

    def test_stderr_formula(self):
        [margins] = collect_margins([SCEN], cfg(500, seed=8, expected_bs=100))
        est = exceedance_curve(margins[:, 0], [0.02])[0]
        mean = int(np.sum(margins[:, 0] >= 0.02)) / 500
        np.testing.assert_allclose(est.value, mean)
        np.testing.assert_allclose(est.stderr, math.sqrt(mean * (1 - mean) / 500))


class TestParticipationMetric:
    def test_prefix_hand_case(self):
        real = make_realization([1.0, 2.0, 4.0], [0.5, 0.5, 0.5])
        base = SCEN.replace(gamma=1.0)
        # SINRs: 15.06, 0.0623, 0.00368 (alpha=4, all active).
        assert participation_metric(real, base.replace(beta=0.05)) == 2
        assert participation_metric(real, base.replace(beta=0.1)) == 1
        assert participation_metric(real, base.replace(beta=20.0)) == 0
        assert participation_metric(real, base.replace(beta=0.003)) == 3

    def test_lone_bs_with_no_noise_is_always_detected(self):
        real = make_realization([5.0], [0.5])
        assert participation_metric(real, SCEN.replace(beta=100.0)) == 1

    def test_inactive_bs_breaks_prefix(self):
        # Second BS silent (u above q): its SINR check fails only
        # because detection requires participation.
        scen = SCEN.replace(p=0.6, q=0.6, beta=0.001)
        real = make_realization([1.0, 2.0, 4.0], [0.1, 0.9, 0.1],
                                p=0.6, q=0.6, L=scen.L)
        # Prefix stops at the first BS whose SINR fails; an inactive
        # member contributes no interference but cannot be counted.
        assert participation_metric(real, scen) >= 1

    def test_generic_path_agrees_with_fast_path(self):
        # With q one ulp above p the same BSs are active, so the generic
        # p != q scan must reproduce the p == q prefix shortcut.
        rng = np.random.default_rng(17)
        scen = SCEN.replace(p=0.7, q=0.7, beta=0.02)
        generic = scen.replace(q=np.nextafter(0.7, 1.0))
        for _ in range(50):
            d = np.sort(rng.uniform(0.3, 6.0, size=12))
            u = rng.random(12)
            assert np.array_equal(u < generic.p, u < generic.q)
            real = make_realization(d, u, p=0.7, q=0.7, L=scen.L)
            fast = participation_metric(real, scen)
            forced = participation_metric(real, generic)
            assert fast == forced

    def test_respects_cap(self):
        d = np.linspace(1.0, 2.0, 10)
        real = make_realization(d, np.full(10, 0.5))
        scen = SCEN.replace(beta=1e-9)
        assert participation_metric(real, scen, cap=4) == 4

    def test_counts_accumulate_across_bands(self):
        # Two far-apart singleton bands, each trivially detectable.
        d = np.array([1.0, 1.5])
        real = Realization(
            d, np.array([True, True]), np.array([1, 2]), np.array([0.5, 0.5])
        )
        scen = SCEN.replace(K=2, beta=1e-6)
        assert participation_metric(real, scen) == 2


class TestUpsilonCollection:
    def test_deterministic_and_worker_invariant(self):
        config = cfg(400, seed=13, expected_bs=100)
        [serial] = collect_upsilon([SCEN.replace(beta=0.02)], config)
        [parallel] = collect_upsilon([SCEN.replace(beta=0.02)], config, workers=3)
        np.testing.assert_array_equal(serial, parallel)

    def test_matches_joint_margins_at_full_activity(self):
        # With p == q == 1 and one band, Upsilon >= L iff the joint
        # margin clears beta/gamma: identical success counts.
        scen = SCEN.replace(beta=10.0 ** -1.6)
        config = cfg(3000, seed=19, expected_bs=100)
        [upsilon] = collect_upsilon([scen], config)
        from_upsilon = exceedance_curve(upsilon, [scen.L])[0]
        [margins] = collect_margins([scen], config)
        from_margins = exceedance_curve(margins[:, 0], [scen.beta / scen.gamma])[0]
        assert from_upsilon == from_margins

    def test_curve_is_monotone_in_l(self):
        scen = SCEN.replace(beta=0.02)
        [upsilon] = collect_upsilon([scen], cfg(2000, seed=23, expected_bs=100))
        values = [c.value for c in exceedance_curve(upsilon, np.arange(1, 8))]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_counts_stop_at_the_cap(self):
        # At a vanishing threshold every BS is detectable, yet the counts
        # stop at the cap: P(Upsilon >= cap + 1) would read 0, so callers
        # reject levels above it.
        scen = SCEN.replace(beta=1e-12)
        [upsilon] = collect_upsilon([scen], cfg(16, seed=23, expected_bs=100))
        cap = simulate.UPSILON_CAP
        above, at_cap = exceedance_curve(upsilon, [cap + 1, cap])
        assert upsilon.max() == cap
        assert above.value == 0 and at_cap.value > 0


class TestReuseCollection:
    def test_requires_matched_marks(self):
        with pytest.raises(ValueError, match="p = q"):
            collect_reuse_margins([SCEN.replace(p=0.5, q=0.75, K=3)], cfg(10))

    def test_l_above_the_cap_is_rejected(self):
        with pytest.raises(ValueError, match="L=33 exceeds UPSILON_CAP=32"):
            collect_reuse_margins([SCEN.replace(K=3, L=33)], cfg(10))

    def test_single_band_equals_plain_estimate(self):
        scen = SCEN.replace(beta=10.0 ** -1.6)
        config = cfg(2000, seed=37, expected_bs=100)
        thr = scen.beta / scen.gamma
        [margins] = collect_margins([scen], config)
        [reuse] = collect_reuse_margins([scen], config)
        plain = exceedance_curve(margins[:, 0], [thr])[0]
        accumulated = exceedance_curve(reuse, [thr])[0]
        assert plain == accumulated

    def test_reuse_curve_matches_pointwise_estimates(self):
        scen = SCEN.replace(K=3)
        config = cfg(1500, seed=41, expected_bs=120)
        thresholds = np.array([0.02, 0.08])
        [margins] = collect_reuse_margins([scen], config)
        curve = exceedance_curve(margins, thresholds)
        for thr, point in zip(thresholds, curve):
            [again] = collect_reuse_margins([scen], config)
            single = exceedance_curve(again, [thr])[0]
            assert point == single
            assert 0 < point.value < 1

    @pytest.mark.parametrize("L", [2, 4, 8])
    @pytest.mark.parametrize("K", [1, 3, 6])
    def test_lth_largest_matches_count_oracle(self, K, L):
        # Every distinct prefix-min value and the next float above it is
        # a level where a success count can change.
        scen = SCEN.replace(K=K, L=L)
        config = cfg(3 * simulate._BLOCK + 5, seed=45, expected_bs=80)
        [margins] = collect_reuse_margins([scen], config, workers=1)
        cummins = _band_cummins(scen, config)
        finite = cummins[np.isfinite(cummins)]
        levels = np.unique(np.concatenate(
            (finite, np.nextafter(finite, math.inf), [-math.inf, math.inf])
        ))
        for level, est in zip(levels, exceedance_curve(margins, levels)):
            assert est.value == _count_successes(cummins, L, level) / est.n
        if K == 6:  # some band holds fewer than UPSILON_CAP members
            assert np.isneginf(cummins).any()

    def test_worker_invariance(self):
        scen = SCEN.replace(K=3)
        config = cfg(600, seed=43, expected_bs=120)
        [a] = collect_reuse_margins([scen], config, workers=1)
        [b] = collect_reuse_margins([scen], config, workers=3)
        np.testing.assert_array_equal(a, b)

    def test_cummin_shape_and_padding(self):
        scen = SCEN.replace(K=6)
        out = _band_cummins(scen, cfg(50, seed=47))
        assert out.shape == (50, 6, 32)
        # Prefix minima never increase along the cap axis.
        finite = np.where(np.isfinite(out), out, np.inf)
        assert np.all(np.diff(np.minimum.accumulate(finite, axis=2), axis=2) <= 0.0)


class TestDensityAndShadowInvariance:
    def test_density_scaling_within_noise(self):
        scen = SCEN.replace(beta=10.0 ** -1.6)
        thr = [scen.beta / scen.gamma]
        a, b = (
            exceedance_curve(
                collect_margins([s], cfg(4000, seed=seed, expected_bs=100))[0][:, 0],
                thr,
            )[0]
            for s, seed in ((scen, 51), (scen.replace(lam=10.0), 52))
        )
        assert abs(a.value - b.value) <= 3.0 * math.hypot(a.stderr, b.stderr)

    def test_shadowed_ppp_is_a_density_change(self):
        scen = SCEN.replace(beta=10.0 ** -1.6)
        thr = [scen.beta / scen.gamma]
        plain = exceedance_curve(
            collect_margins([scen], cfg(4000, seed=53, expected_bs=100))[0][:, 0], thr
        )[0]
        [shadowed_margins] = collect_margins(
            [scen.replace(sigma_db=8.0)], cfg(4000, seed=54, expected_bs=100)
        )
        shadowed = exceedance_curve(shadowed_margins[:, 0], thr)[0]
        assert abs(plain.value - shadowed.value) <= 3.0 * math.hypot(
            plain.stderr, shadowed.stderr
        )


class TestBlockSampler:
    """Ordered-arrival Poisson rows of the collectors."""

    SHADOWED = PARTIAL.replace(sigma_db=6.0)

    @pytest.fixture(scope="class")
    def radii(self):
        return block_rows(self.SHADOWED, cfg(2000, seed=61, expected_bs=100))[0]

    @pytest.mark.parametrize("k", [1, PARTIAL.L, 100])
    def test_scaled_squared_radius_is_gamma(self, radii, k):
        lam_eff = effective_density(PARTIAL.lam, PARTIAL.alpha, self.SHADOWED.sigma_db)
        arrival = math.pi * lam_eff * radii[:, k - 1] ** 2
        assert stats.kstest(arrival, stats.gamma(k).cdf).pvalue > 0.01

    def test_inner_points_uniform_given_rl(self, radii):
        L = PARTIAL.L
        pooled = ((radii[:, : L - 1] / radii[:, L - 1 : L]) ** 2).ravel()
        assert stats.kstest(pooled, "uniform").pvalue > 0.01

    @pytest.mark.parametrize("L", [1, 2, 5, 40])
    @pytest.mark.parametrize("lam", [0.3, 1.0 / math.pi, 7.0])
    def test_rl_matches_gamma_transform(self, L, lam):
        # Unshadowed rows at density lam: R_L**2 is Gamma(L, 1/(lam pi)),
        # the law the integral forms of P_L weight R_L by.
        config = cfg(2000, seed=62, expected_bs=40)
        d = _sample_block(SCEN.replace(lam=lam), config, 0, 2000)[0]
        law = stats.gamma(L, scale=1.0 / (lam * math.pi))
        assert stats.kstest(d[:, L - 1] ** 2, law.cdf).pvalue > 0.01

    def test_hex_rows_hold_the_nearest_sites(self):
        # Unshadowed block rows are the nearest lattice sites under each
        # row's own cell offset.
        config = cfg(64, seed=67, deployment=Deployment.HEX, expected_bs=300)
        for block in range(4):
            got, _, _ = _sample_block(SCEN, config, block, simulate._BLOCK)
            offsets = stream(config.seed, block, simulate._ROLE_OFFSET).random(
                (simulate._BLOCK, 2)
            )
            _, dist, _ = _brute_nearest(offsets, config.hex_isd, config.expected_bs)
            np.testing.assert_allclose(
                got, np.sort(dist, axis=1)[:, : config.expected_bs], rtol=1e-12
            )


    @pytest.mark.parametrize("deployment", list(Deployment))
    def test_short_block_holds_the_first_rows_of_a_full_one(self, deployment):
        # A final partial block must not change its realizations with
        # the total count.
        scen = SCEN.replace(K=3, sigma_db=8.0)
        config = cfg(1, seed=68, deployment=deployment, expected_bs=100)
        full = _sample_block(scen, config, 2, simulate._BLOCK)
        for rows in (1, 5):
            part = _sample_block(scen, config, 2, rows)
            for got, want in zip(part, full):
                assert got.tobytes() == want[:rows].tobytes()

    def test_sample_hex_is_a_one_row_block(self):
        scen = SCEN.replace(K=3, sigma_db=8.0)
        config = cfg(1, seed=69, deployment=Deployment.HEX, expected_bs=100)
        real = sample_hex(scen, config, 4)
        d, u, labels = _sample_block(scen, config, 4, 1)
        assert real.distances.tobytes() == d[0].tobytes()
        assert real.activity_u.tobytes() == u[0].tobytes()
        np.testing.assert_array_equal(real.bands, labels[0])

def _lattice_coords(x: np.ndarray, y: np.ndarray, isd: float) -> np.ndarray:
    """Integer coordinates (m, n) of sites ``isd * (m + n/2, n sqrt(3)/2)``."""
    n = np.rint(y / (isd * math.sqrt(3.0) / 2.0))
    return np.column_stack((np.rint(x / isd - 0.5 * n), n)).astype(np.int64)


def _brute_nearest(u: np.ndarray, isd: float, n: int):
    """Each row's distances to a square patch of the lattice under the unreduced offset.

    Returns the patch's integer coordinates (S, 2), the distances
    (rows, S) and each row's n-th distance.  The patch reaches far past
    the n nearest sites.
    """
    reach = int(math.sqrt(n * math.sqrt(3.0) / (2.0 * math.pi)) / (math.sqrt(3.0) / 2.0)) + 6
    m, k = np.meshgrid(np.arange(-reach, reach + 1), np.arange(-reach, reach + 1))
    coords = np.column_stack((m.ravel(), k.ravel()))
    x = isd * (coords[:, 0] + 0.5 * coords[:, 1])
    y = isd * (math.sqrt(3.0) / 2.0) * coords[:, 1]
    offset_x = isd * (u[:, :1] + 0.5 * u[:, 1:])
    offset_y = isd * (math.sqrt(3.0) / 2.0) * u[:, 1:]
    dist = np.hypot(x + offset_x, y + offset_y)
    return coords, dist, np.partition(dist, n - 1, axis=1)[:, n - 1]


def _nearest_corner(u: np.ndarray, isd: float) -> np.ndarray:
    """The corner of the offsets' cell nearest each offset, in lattice coordinates."""
    corners = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
    rel = u[:, None, :] - corners
    dist = np.hypot(isd * (rel[..., 0] + 0.5 * rel[..., 1]),
                    isd * math.sqrt(3.0) / 2.0 * rel[..., 1])
    return corners[np.argmin(dist, axis=1)]


def _kept_coords(u: np.ndarray, isd: float, n: int) -> tuple[np.ndarray, tuple]:
    """The kept sites of ``_hex_nearest`` in unreduced lattice coordinates, (rows, n, 2).

    Also returns what ``_hex_nearest`` returned.
    """
    x, y, sure = simulate._hex_lattice(isd, n)
    out = simulate._hex_nearest(u, isd, n)
    kept = np.concatenate((np.broadcast_to(np.arange(sure), (len(u), sure)), out[2]), axis=1)
    coords = _lattice_coords(x, y, isd)[kept]
    # Site p of the reduced lattice is site p - c of the offset one.
    return coords - _nearest_corner(u, isd)[:, None, :], out


# Offsets at the corners of the cell, where the reduction moves most.
_CRAFTED_U = np.array([[a, b] for a in (0.0, 1.0 - 2.0**-53) for b in (0.0, 1.0 - 2.0**-53)])


class TestHexLattice:
    """The pruned, norm-ordered hex rows against a brute force over the lattice."""

    def test_bounds_at_the_default_window(self):
        # R_(1000) + 2 isd/sqrt(3) and R_(1000) - 2 isd/sqrt(3) hold 1135
        # and 847 sites; the sites come sorted by norm, ties by (n, m).
        x, y, sure = simulate._hex_lattice(500.0, 1000)
        assert (len(x), sure) == (1135, 847)
        m, n = _lattice_coords(x, y, 500.0).T
        order = np.lexsort((m, n, m * m + m * n + n * n))
        assert np.array_equal(order, np.arange(len(order)))

    @pytest.mark.parametrize("isd, n, blocks", [(500.0, 1000, 200), (1.0, 120, 200),
                                                (500.0, 10, 200)])
    def test_kept_sites_are_the_nearest(self, isd, n, blocks):
        # Every row of the blocks, and rows at the cell's corners: the
        # kept lattice sites are the n nearest of the unreduced lattice
        # (up to ties at the n-th distance), at the same distances.
        offsets = [stream(3, block, simulate._ROLE_OFFSET).random((simulate._BLOCK, 2))
                   for block in range(blocks)]
        for u in [_CRAFTED_U, *offsets]:
            kept, (d, reach, _) = _kept_coords(u, isd, n)
            coords, dist, nth = _brute_nearest(u, isd, n)
            np.testing.assert_allclose(reach, nth, rtol=1e-12)
            span = coords.min(axis=0)
            width = coords.max(axis=0) - span + 1
            flat = (kept[..., 0] - span[0]) * width[1] + (kept[..., 1] - span[1])
            index = np.full(width[0] * width[1], -1)
            index[(coords[:, 0] - span[0]) * width[1] + (coords[:, 1] - span[1])] = np.arange(
                len(coords)
            )
            cols = index[flat]
            assert np.all(cols >= 0)
            mask = np.zeros(dist.shape, dtype=bool)
            np.put_along_axis(mask, cols, True, axis=1)
            assert np.all(mask.sum(axis=1) == n)
            inside = dist < nth[:, None] * (1.0 - 1e-12)
            within = dist <= nth[:, None] * (1.0 + 1e-12)
            assert np.all(mask[inside]) and not np.any(mask & ~within)
            untied = within.sum(axis=1) == n
            assert np.array_equal(mask[untied], within[untied])
            # A device within rounding of a site (the crafted rows) sits
            # at a distance the unreduced offset cannot resolve.
            np.testing.assert_allclose(d, np.take_along_axis(dist, cols, axis=1),
                                       rtol=1e-12, atol=1e-12 * isd)

    def test_crafted_corners_include_a_tie(self):
        # Guards the case table: at u = 0 the 1000-th distance is tied.
        _, dist, nth = _brute_nearest(_CRAFTED_U, 500.0, 1000)
        assert np.sum(dist[0] <= nth[0] * (1.0 + 1e-12)) > 1000

    def test_ties_at_the_nth_distance_keep_the_earliest_sites(self):
        # At u = 0 mirror-image sites have bit-equal squared distances
        # and the 1000-th distance is tied: the earliest tied sites in
        # lattice order stay, whatever the selection algorithm.
        isd, n = 500.0, 1000
        x, y, sure = simulate._hex_lattice(isd, n)
        _, reach, picks = simulate._hex_nearest(np.zeros((1, 2)), isd, n)
        d2 = x**2 + y**2
        nth = np.sort(d2)[n - 1]
        nearer, tied = np.flatnonzero(d2 < nth), np.flatnonzero(d2 == nth)
        assert len(nearer) < n < len(nearer) + len(tied)  # guards the case
        want = np.sort(np.concatenate((nearer, tied[: n - len(nearer)])))
        assert np.array_equal(np.concatenate((np.arange(sure), picks[0])), want)
        assert reach[0] == math.sqrt(nth)

    def test_shadow_draw_j_scales_the_jth_kept_site(self):
        # Oracle: the n nearest sites of the brute force, in the
        # lattice's norm order (squared norm, then the lattice
        # coordinates n and m), each times exp(sigma z_j), then sorted.
        config = cfg(1, seed=97, deployment=Deployment.HEX, expected_bs=300)
        isd, n = config.hex_isd, config.expected_bs
        for alpha in (4.0, 3.0):
            scen = SCEN.replace(alpha=alpha, sigma_db=8.0)
            sigma = 8.0 * math.log(10.0) / (10.0 * alpha)
            for block in range(3):
                u = stream(config.seed, block, simulate._ROLE_OFFSET).random((simulate._BLOCK, 2))
                z = stream(config.seed, block, simulate._ROLE_SHADOW).standard_normal(
                    (simulate._BLOCK, n)
                )
                coords, dist, _ = _brute_nearest(u, isd, n)
                got = simulate._BlockDraws(config, block, simulate._BLOCK).distances(scen)
                corner = _nearest_corner(u, isd)
                for row in range(simulate._BLOCK):
                    near = np.argpartition(dist[row], n - 1)[:n]
                    p = coords[near] + corner[row]
                    order = np.lexsort((p[:, 0], p[:, 1], p[:, 0] ** 2 + p[:, 0] * p[:, 1]
                                        + p[:, 1] ** 2))
                    want = np.sort(dist[row, near[order]] * np.exp(sigma * z[row]))
                    np.testing.assert_allclose(got[row], want, rtol=1e-12)

    def test_overflow_raises_with_warnings_as_errors(self):
        config = cfg(16, seed=1, deployment=Deployment.HEX, expected_bs=100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sigma_db=5000.0 shadows a BS distance"):
                collect_upsilon([SCEN.replace(sigma_db=5000.0)], config)

    @pytest.mark.parametrize(
        "sigmas, message",
        [
            ((200.0, 5000.0), "^sigma_db=200.0 overflows the mean shadowing gain$"),
            ((5000.0, 200.0), "^sigma_db=5000.0 shadows a BS distance"),
        ],
        ids=["200-first", "5000-first"],
    )
    def test_mixed_family_raises_its_first_members_error(self, sigmas, message):
        # Each member raises what it raises alone, in family order, even
        # though one block shadows every member before the first reads.
        config = cfg(16, seed=1, deployment=Deployment.HEX, expected_bs=100)
        with pytest.raises(ValueError, match=message):
            collect_upsilon([SCEN.replace(sigma_db=s) for s in sigmas], config)


def _oracle_rows(scen, config, block):
    """The block's rows wrapped as realizations, and each row's tail mean."""
    d, u, labels = _sample_block(scen, config, block, simulate._BLOCK)
    reach = simulate._BlockDraws(config, block, simulate._BLOCK).reach(scen)
    reals = []
    for row in range(len(d)):
        bands = labels[row] if labels is not None else np.ones(d.shape[1], dtype=np.int64)
        activity = marks(u[row], scen.L, scen.p, scen.q)
        reals.append(Realization(d[row], activity, bands, u[row]))
    return reals, tail_mean(scen, config, reach)[:, 0]


_HEX = dict(deployment=Deployment.HEX, hex_isd=1.0)
_KERNEL_CASES = {
    "ppp-K1-p!=q": (SCEN.replace(p=0.5, q=0.75, beta=0.05), {}),
    "ppp-K1-p=q": (SCEN.replace(p=0.8, q=0.8, beta=0.02), {}),
    "ppp-K3-p=q": (SCEN.replace(K=3, beta=0.02), {}),
    "ppp-K3-p!=q": (SCEN.replace(K=3, p=0.5, q=0.75, beta=0.02), {}),
    "ppp-K6-p=q": (SCEN.replace(K=6, p=0.7, q=0.7, beta=0.02), {}),
    "hex-shadow-K6-p!=q": (SCEN.replace(K=6, p=0.5, q=0.75, beta=0.02, sigma_db=8.0),
                           _HEX),
    "hex-shadow-K1-p=q": (SCEN.replace(beta=0.05, sigma_db=8.0), _HEX),
    # Every transmit mark is set, so no activity uniform is drawn.
    "ppp-K6-p=q=1": (SCEN.replace(K=6, beta=0.02), {}),
    "hex-shadow-K6-p=q=1": (SCEN.replace(K=6, beta=0.02, sigma_db=8.0), _HEX),
}


class TestBlockKernelsMatchOracle:
    """Every row of a few blocks against the scalar per-realization code."""

    @pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
    def test_rows_match(self, case):
        scen, extra = _KERNEL_CASES[case]
        config = cfg(3 * simulate._BLOCK, seed=71, expected_bs=120, **extra)
        for block in range(3):
            reals, tails = _oracle_rows(scen, config, block)
            rows = len(reals)
            margins = _block_stats("margins", scen, config, block, rows)
            counts = _block_stats("upsilon", scen, config, block, rows)
            for row, real in enumerate(reals):
                pw = real.distances ** -scen.alpha
                np.testing.assert_allclose(
                    margins[row],
                    _joint_last_margins(pw, real.activity_u, scen.L, scen.p,
                                        scen.q, tails[row]),
                    rtol=1e-12,
                )
                assert counts[row] == _upsilon_oracle(real, scen, tails[row])
                assert counts[row] == participation_metric(real, scen, tail=tails[row])
            if scen.p != scen.q:
                continue
            cummins = _block_cummins(scen, config, block, rows)
            for row, real in enumerate(reals):
                pw = real.distances ** -scen.alpha
                for band in range(1, scen.K + 1):
                    sel = real.bands == band
                    np.testing.assert_allclose(
                        cummins[row, band - 1],
                        _band_sinr_cummin(pw[sel], real.activity_u[sel], scen.q,
                                          simulate.UPSILON_CAP, tails[row] / scen.K),
                        rtol=1e-12,
                    )

    @pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
    def test_bits_match_the_sorted_reference(self, case):
        # The all-band kernels against the band-by-band kernels on
        # label-sorted rows: same terms in the same order, same bits.
        scen, extra = _KERNEL_CASES[case]
        config = cfg(3 * simulate._BLOCK, seed=71, expected_bs=120, **extra)
        cap = simulate.UPSILON_CAP
        for block in range(3):
            draws = simulate._BlockDraws(config, block, simulate._BLOCK)
            pw, u, labels = draws.powers(scen), draws.activity(), draws.labels(scen.K)
            act_p, act_q = draws.active(scen.p), draws.active(scen.q)
            bands, tail = draws.bands(scen.K), draws.tail(scen)
            oracle_tail = tail_mean(scen, config, draws.reach(scen))
            got = simulate._upsilon(pw, act_p, act_q, bands, tail, scen)
            want = band_reference.upsilon(pw, u, labels, oracle_tail, scen, cap)
            assert got.tobytes() == want.tobytes()
            if scen.p == scen.q:
                got = simulate._prefix_min_sinr(pw, act_q, bands, tail)
                want = band_reference.prefix_min_sinr(pw, u, labels, oracle_tail, scen, cap)
                assert got.tobytes() == want.tobytes()

    def test_some_rows_detect_and_some_fail(self):
        # Guards the case table: counts must neither all vanish nor all cap.
        scen, extra = _KERNEL_CASES["ppp-K1-p!=q"]
        config = cfg(simulate._BLOCK, seed=71, expected_bs=120)
        counts = _block_stats("upsilon", scen, config, 0, simulate._BLOCK)
        assert 0 < counts.max() and counts.min() < simulate.UPSILON_CAP


class TestBlockAlignedChunks:
    @pytest.mark.parametrize(
        "collect, scen",
        [
            (collect_margins, PARTIAL),
            (collect_upsilon, SCEN.replace(K=3, p=0.5, q=0.75, beta=0.02)),
            (collect_reuse_margins, SCEN.replace(K=3, beta=0.02)),
        ],
    )
    def test_byte_identical_across_worker_counts(self, collect, scen):
        config = cfg(5 * simulate._BLOCK + 7, seed=73, expected_bs=100)
        [serial] = collect([scen], config, workers=1)
        assert len(serial) == config.realizations
        for workers in (2, 3):
            [parallel] = collect([scen], config, workers=workers)
            assert parallel.tobytes() == serial.tobytes()


# Each deployment case: its config fields and its scenarios' sigma_db.
_FAMILY_CONFIGS = {
    "ppp": ({}, 0.0),
    "ppp-shadow": ({}, 8.0),
    "hex-shadow": (_HEX, 8.0),
}


def _family(base, partial):
    """Siblings of ``base`` that differ in L, p (``partial``), K, alpha, lam or sigma_db.

    At zero noise the statistics see the scale of the distances only
    through rounding: the Poisson lam sibling's SINR margins differ from
    ``base``'s in the last bits, its counts Upsilon do not.
    """
    return [
        base,
        base.replace(alpha=3.5),
        base.replace(lam=2.0),
        base.replace(L=2),
        partial,
        base.replace(K=3),
        partial.replace(alpha=3.5, K=6, L=3),
        base.replace(sigma_db=4.0),
    ]


class TestFamilies:
    """A family of siblings gets the bits of one collection per sibling."""

    @pytest.mark.parametrize("deployment", sorted(_FAMILY_CONFIGS))
    @pytest.mark.parametrize(
        "collect, base, partial",
        [
            (collect_margins, SCEN.replace(beta=0.05), PARTIAL),
            (collect_upsilon, SCEN.replace(beta=0.02),
             SCEN.replace(p=0.5, q=0.75, beta=0.02)),
            (collect_reuse_margins, SCEN.replace(beta=0.02),
             SCEN.replace(p=0.6, q=0.6, beta=0.02)),
        ],
        ids=["margins", "upsilon", "reuse"],
    )
    def test_family_matches_one_collection_per_sibling(self, deployment, collect, base,
                                                       partial):
        extra, sigma_db = _FAMILY_CONFIGS[deployment]
        config = cfg(2 * simulate._BLOCK + 5, seed=79, expected_bs=100, **extra)
        family = _family(*(scen.replace(sigma_db=sigma_db) for scen in (base, partial)))
        alone = [collect([scen], config)[0].tobytes() for scen in family]
        assert alone[1] != alone[0]  # guards the case table
        for workers in (1, 3):
            together = collect(family, config, workers=workers)
            assert [stat.tobytes() for stat in together] == alone

    @pytest.mark.parametrize("deployment", ["hex-shadow", "ppp-shadow"])
    def test_shadowed_distances_depend_on_alpha(self, deployment):
        # Guards the family case table: a distance cache keyed too
        # coarsely would hand the alpha = 3.5 siblings the alpha = 4 rows.
        extra, sigma_db = _FAMILY_CONFIGS[deployment]
        draws = simulate._BlockDraws(cfg(1, seed=79, expected_bs=100, **extra), 0, 4)
        scen = SCEN.replace(sigma_db=sigma_db)
        a, b = draws.distances(scen), draws.distances(scen.replace(alpha=3.5))
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        "collect", [collect_margins, collect_upsilon, collect_reuse_margins],
        ids=["margins", "upsilon", "reuse"],
    )
    def test_hex_alpha_family_shares_one_draw_per_block(self, monkeypatch, collect):
        # Siblings that differ in alpha and sigma_db read one lattice
        # offset and one shadowing draw per block, and get the bits they
        # get alone; the unshadowed sibling comes first, so its in-place
        # sort runs while the shadowed ones still need the geometry.
        family = [SCEN.replace(beta=0.02, alpha=alpha, sigma_db=sigma_db)
                  for alpha, sigma_db in ((4.0, 0.0), (4.0, 8.0), (3.5, 8.0), (3.0, 8.0),
                                          (4.0, 4.0), (3.0, 12.0))]
        config = cfg(2 * simulate._BLOCK + 5, seed=101, **_HEX)
        alone = [collect([scen], config)[0].tobytes() for scen in family]
        assert len(set(alone)) == len(alone)  # guards the case table
        roles = []

        def recording(seed, index, role):
            roles.append((index, role))
            return stream(seed, index, role)

        monkeypatch.setattr(simulate, "stream", recording)
        for workers in (1, 3):
            together = collect(family, config, workers=workers)
            assert [stat.tobytes() for stat in together] == alone
        for role in (simulate._ROLE_OFFSET, simulate._ROLE_SHADOW):
            assert sorted(index for index, r in roles if r == role) == [0, 1, 2]

    def test_empty_family(self):
        assert collect_margins([], cfg(10)) == []

    @pytest.mark.parametrize(
        "collect, bad, config",
        [
            (collect_margins, PARTIAL.replace(L=11), cfg(10, expected_bs=100)),
            (collect_upsilon, SCEN.replace(L=11), cfg(10, expected_bs=100)),
            (collect_reuse_margins, SCEN.replace(L=11), cfg(10, expected_bs=100)),
            (collect_reuse_margins, SCEN.replace(L=33), cfg(10, expected_bs=100)),
            (collect_reuse_margins, SCEN.replace(p=0.5, q=0.75), cfg(10)),
        ],
        ids=["window-margins", "window-upsilon", "window-reuse", "level", "p!=q"],
    )
    def test_bad_sibling_raises_its_own_error(self, collect, bad, config):
        with pytest.raises(ValueError) as alone:
            collect([bad], config)
        with pytest.raises(ValueError) as together:
            collect([SCEN, bad, SCEN.replace(K=3)], config)
        assert str(together.value) == str(alone.value)


class TestActivityDraws:
    """The activity uniforms are drawn only when some mark reads them."""

    @staticmethod
    def _roles(monkeypatch):
        roles = []

        def recording(seed, index, role):
            roles.append((index, role))
            return stream(seed, index, role)

        monkeypatch.setattr(simulate, "stream", recording)
        return roles

    @pytest.mark.parametrize("deployment", sorted(_FAMILY_CONFIGS))
    @pytest.mark.parametrize(
        "collect", [collect_margins, collect_upsilon, collect_reuse_margins],
        ids=["margins", "upsilon", "reuse"],
    )
    def test_full_activity_draws_no_uniforms(self, monkeypatch, deployment, collect):
        extra, sigma_db = _FAMILY_CONFIGS[deployment]
        family = [SCEN.replace(beta=0.02, sigma_db=sigma_db),
                  SCEN.replace(K=6, beta=0.02, L=2, sigma_db=sigma_db)]
        config = cfg(2 * simulate._BLOCK + 5, seed=83, expected_bs=100, **extra)
        roles = self._roles(monkeypatch)
        collect(family, config)
        assert roles and all(role != simulate._ROLE_ACTIVITY for _, role in roles)

    @pytest.mark.parametrize(
        "collect, partial",
        [
            (collect_margins, SCEN.replace(p=0.5, q=0.75)),
            (collect_upsilon, SCEN.replace(p=0.5, q=0.75)),
            (collect_reuse_margins, SCEN.replace(p=0.5, q=0.5)),
        ],
        ids=["margins", "upsilon", "reuse"],
    )
    def test_mixed_family_draws_once_per_block(self, monkeypatch, collect, partial):
        family = [SCEN.replace(beta=0.02, K=3), partial.replace(beta=0.02), SCEN]
        config = cfg(2 * simulate._BLOCK + 5, seed=89, expected_bs=100)
        alone = [collect([scen], config)[0].tobytes() for scen in family]
        roles = self._roles(monkeypatch)
        together = collect(family, config)
        activity = sorted(index for index, role in roles if role == simulate._ROLE_ACTIVITY)
        assert activity == [0, 1, 2]
        assert [stat.tobytes() for stat in together] == alone


class TestWindow:
    """The default window per deployment, and the tail that completes it."""

    @pytest.mark.parametrize(
        "Ls, extra, want",
        [
            ((4,), {}, 250),
            ((4, 40, 8), {}, 400),
            ((4, 40), dict(deployment=Deployment.HEX), 1000),
            ((4, 40), dict(expected_bs=120), 120),
            ((4,), dict(deployment=Deployment.HEX, expected_bs=3000), 3000),
        ],
        ids=["ppp", "ppp-largest-L", "hex", "explicit", "hex-explicit"],
    )
    def test_window_rule(self, Ls, extra, want):
        family = [SCEN.replace(L=L) for L in Ls]
        assert simulate._with_window(family, cfg(10, **extra)).expected_bs == want

    def test_e911_trials_use_the_collectors_window(self, monkeypatch):
        from hearability import e911

        windows = []
        draws = e911._BlockDraws

        def spy(config, block, rows):
            windows.append(config.expected_bs)
            return draws(config, block, rows)

        monkeypatch.setattr(e911, "_BlockDraws", spy)
        trials = e911.E911Config()
        e911._trial_span(trials, 3, 0, 2 * simulate._BLOCK)
        assert simulate._with_window([e911.default_scenario(trials)], cfg(1)).expected_bs == 250
        assert windows and all(window == 250 for window in windows)

    @pytest.mark.parametrize(
        "deployment, window", [(Deployment.PPP, 250), (Deployment.HEX, 1000)]
    )
    def test_default_window_is_the_explicit_one(self, deployment, window):
        scen = SCEN.replace(K=3, p=0.5, q=0.75, beta=0.02)
        config = cfg(2 * simulate._BLOCK + 5, seed=91, deployment=deployment)
        for collect in (collect_margins, collect_upsilon):
            [default] = collect([scen], config)
            [explicit] = collect([scen], config.replace(expected_bs=window))
            assert default.tobytes() == explicit.tobytes()

    def test_hex_reach_is_the_nth_geometric_distance(self):
        # The hex tail starts at the n-th nearest site, read before
        # shadowing reorders the kept sites.
        config = cfg(16, seed=67, deployment=Deployment.HEX, expected_bs=300)
        reach = simulate._BlockDraws(config, 0, simulate._BLOCK).reach(
            SCEN.replace(sigma_db=8.0)
        )
        offsets = stream(config.seed, 0, simulate._ROLE_OFFSET).random((simulate._BLOCK, 2))
        _, _, nth = _brute_nearest(offsets, config.hex_isd, config.expected_bs)
        np.testing.assert_allclose(reach, nth, rtol=1e-12)


# Exact P_L at zero noise by Laplace inversion of the scaled interference
# (de Hoog and Talbot agree to 8 digits): level in dB -> (last-BS, joint).
_EXACT_ALPHA3 = {
    -15.0: (0.73630985, 0.73627162),
    -11.0: (0.30792052, 0.30705835),
    -6.0: (0.01202948, 0.01116935),
}
_EXACT_ALPHA4_P1_M10DB = 0.07684682


class TestExactValues:
    """Tail-completed margins at the default window against exact P_L."""

    @staticmethod
    def _z(margins, column, level_db, exact):
        [est] = exceedance_curve(margins[:, column], [10.0 ** (level_db / 10.0)])
        return (est.value - exact) / math.sqrt(exact * (1.0 - exact) / est.n)

    def test_alpha3_partial_muting(self):
        scen = Scenario(lam=1.0, alpha=3.0, p=2.0 / 3.0, q=1.0, beta=1.0, gamma=1.0, L=4)
        [margins] = collect_margins([scen], cfg(100_000, seed=0))
        for level_db, (last, joint) in _EXACT_ALPHA3.items():
            assert abs(self._z(margins, 1, level_db, last)) <= 3.0
            assert abs(self._z(margins, 0, level_db, joint)) <= 3.0

    def test_alpha4_full_activity(self):
        scen = Scenario(lam=1.0, alpha=4.0, p=1.0, q=1.0, beta=1.0, gamma=1.0, L=4)
        [margins] = collect_margins([scen], cfg(100_000, seed=0))
        for column in (0, 1):
            assert abs(self._z(margins, column, -10.0, _EXACT_ALPHA4_P1_M10DB)) <= 3.0
