"""Monte Carlo ground truth for hearability probabilities.

Samples deployments (Poisson or hex grid), applies the exact SINR
recipe with no analytic approximation, and estimates ``P_L`` and the
detectable-BS count ``Upsilon``.

Every Monte Carlo estimate is the share of realizations whose
per-realization statistic clears a level.  Three collectors draw the
statistics: ``collect_margins`` the joint and last-BS SINR margins
(levels are ``beta/gamma`` values), ``collect_upsilon`` the Upsilon
counts (levels are L values) and ``collect_reuse_margins`` the L-th
largest band prefix-min SINR under frequency reuse (levels are
``beta/gamma`` values).  ``exceedance_curve`` turns a statistic and a
level grid into ``Estimate`` records; it is the one estimator of every
Monte Carlo curve.  The statistics do not depend on the level, so one
collection answers a whole grid.

Each collector takes a *family* of sibling scenarios that share one
``SimConfig`` (a sweep over L, p, alpha, K or sigma_db) and returns a
list with each sibling's statistic; one scenario is a family of one.  A
family draws each block once: distances, activity uniforms, band labels
and powers are drawn on first use and cached per chunk under the
scenario inputs they depend on, and only the statistic runs per
sibling.  The activity uniforms are drawn only when some sibling's p or
q lies strictly inside (0, 1); at 0 and 1 the transmit marks do not
depend on them.  The siblings read exactly the draws they would have
made alone at the family's window (below), so a family answers each
member with the bits of its own collection at that window.  The band
statistics run on all K bands at once.

Reproducibility contract: the collectors draw realizations in fixed
blocks of ``_BLOCK`` rows from counter-based Philox streams keyed by
``(seed, block, role)``, one role per kind of draw (geometry, activity,
bands, shadowing, ...).  Worker spans start on block boundaries, so
results are bit-identical across worker counts and unchanged if new
draw roles are added later; E911 trial geometries are blocks too.
The block rows are the only deployment sampler.  A row's statistics
are a function of the seed, the block, the scenario and the window: a
different ``expected_bs`` draws different rows and a different tail.
The block is the keyed unit; the samplers and statistics run on chunks
of whole consecutive blocks (``_chunk_rows``, sized by bytes), a
compute unit that never reaches the bits: each block of a chunk fills
its rows from its own streams, and every statistic treats each row on
its own.

Each collector row keeps the ``n = expected_bs`` BSs nearest the device
(the window); on a shadowed hex grid these nearest sites are then
ordered by received power.  Poisson rows need no point count and no
sort: ``pi * lam_eff * R_k**2`` are the arrival times of a unit-rate
Poisson process, i.e. cumulative sums of Exp(1) draws.  A hex row's
uniform lattice offset is reduced into the Voronoi cell of the origin
(within ``isd / sqrt(3)``), so only the sites of a lattice sorted once
by norm that can be among the n nearest are measured.  The kept sites
stay in that norm order, and shadowing draw j of the row (one standard
normal per kept site) scales the j-th of them before the sort: the bits
depend on no selection algorithm.  The offsets and the shadowing draws
depend on no scenario input, so siblings that differ in alpha or in the
shadowing ``sigma_db`` share them.  Every row adds the Campbell mean of
the loaded interference beyond its window,
``2 pi lam_eff q R_n**(2 - alpha) / (alpha - 2)``, to the interference
of each SINR, 1/K of it per band.  Hex rows use the lattice density
times ``E[S] = exp(s**2 / 2)`` (``s = sigma_db ln(10) / 10``) and the
n-th geometric distance.  Unless ``expected_bs`` is set, the window is
resolved once per family: ``max(250, 10 * L)`` Poisson BSs for the
largest L of the family, 1000 hex sites.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Scenario, effective_density, hex_grid_density
from .numerics import Estimate
from .parallel import map_spans

__all__ = [
    "Deployment",
    "SimConfig",
    "UPSILON_CAP",
    "exceedance_curve",
    "collect_margins",
    "collect_upsilon",
    "collect_reuse_margins",
]

# Stream roles; their values are part of the reproducibility contract.
_ROLE_GEOMETRY = 0
_ROLE_ACTIVITY = 1
_ROLE_BANDS = 2
_ROLE_SHADOW = 3
_ROLE_OFFSET = 4
ROLE_E911 = 6

# Realizations per keyed block of the collectors; part of the contract.
# The samplers and statistics run on chunks of whole blocks
# (:func:`_chunk_rows`), which never reach the bits.
_BLOCK = 16

# Default windows, in BSs per row.  A tail-completed Poisson row keeps at
# least _PPP_WINDOW (and 10 * L); a hex row keeps _HEX_WINDOW sites,
# because a geometric window drops far sites that per-link shadowing
# makes detectable.
_PPP_WINDOW = 250
_HEX_WINDOW = 1000

# Bound on the bytes of one temporary of a chunk's kernels, and of one
# (rows, sites) temporary of the hex distances, which take a chunk a few
# rows at a time.  glibc serves requests of 128 KiB and more by mmap by
# default, and a fresh mapping per chunk pays its page faults chunk after
# chunk.
_SCRATCH_BYTES = 120 * 1024

# How many of each band's nearest BSs the Upsilon and reuse statistics
# examine; levels L above it are rejected (the Upsilon levels by the
# caller that sets them).  At p == q a band's count is
# exact up to the cap, so every accepted level is answered exactly.  At
# p != q the cap is part of Upsilon's definition: it bounds the candidate
# participant counts that are checked.
UPSILON_CAP = 32


def check_upsilon_cap(name: str, level: int) -> None:
    """Reject a level L above ``UPSILON_CAP``, naming it ``name``."""
    if level > UPSILON_CAP:
        raise ValueError(
            f"{name}={level} exceeds UPSILON_CAP={UPSILON_CAP}, the most "
            "detections per band that the Monte Carlo counts track"
        )


def check_matched_marks(what: str, scenario: Scenario) -> None:
    """Reject a scenario whose muting p differs from its load q, naming ``what``."""
    if scenario.p != scenario.q:
        raise ValueError(f"{what} requires p = q; got p={scenario.p}, q={scenario.q}")


class Deployment(str, enum.Enum):
    PPP = "ppp"
    HEX = "hex"


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls, orthogonal to the network scenario.

    Shadowing is a scenario input (``Scenario.sigma_db``), so one family
    may mix shadowing strengths.

    Attributes:
        realizations: number of independent deployments.
        seed: master seed for the keyed streams.
        expected_bs: BSs kept per deployment, the ``expected_bs``
            nearest the device (requires >= 10 * L); the interference
            beyond them enters as its Campbell mean.  None resolves per
            family: ``max(250, 10 * L)`` Poisson BSs for the family's
            largest L, 1000 hex sites.
        deployment: Poisson or hex-grid placement.
        hex_isd: intersite distance of the hex lattice.
    """

    realizations: int
    seed: int
    expected_bs: int | None = None
    deployment: Deployment = Deployment.PPP
    hex_isd: float = 500.0

    def __post_init__(self) -> None:
        if not isinstance(self.realizations, (int, np.integer)) or self.realizations < 1:
            raise ValueError(f"realizations must be >= 1, got {self.realizations!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.expected_bs is not None and (
            not isinstance(self.expected_bs, (int, np.integer)) or self.expected_bs < 10
        ):
            raise ValueError(f"expected_bs must be >= 10, got {self.expected_bs!r}")
        if not (self.hex_isd > 0.0 and math.isfinite(self.hex_isd)):
            raise ValueError(f"hex_isd must be positive, got {self.hex_isd}")

    def replace(self, **changes) -> "SimConfig":
        return dataclasses.replace(self, **changes)


def stream(seed: int, index: int, role: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, index, role).

    ``index`` is a block of ``_BLOCK`` rows for every role: realizations
    of the block sampler, or E911 trials for their nuisance draws
    (bearings, NLOS biases, ranging noise and clock errors).
    """
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(index, role)))
    )


def _check_window(scenario: Scenario, config: SimConfig) -> None:
    if config.expected_bs < 10 * scenario.L:
        raise ValueError(
            f"expected_bs={config.expected_bs} is too small for L={scenario.L}; "
            "need at least 10 * L so window-edge truncation stays negligible"
        )


def _with_window(family: Sequence[Scenario], config: SimConfig) -> SimConfig:
    """``config`` with the family's default window where ``expected_bs`` is None."""
    if config.expected_bs is not None:
        return config
    if config.deployment == Deployment.HEX:
        return config.replace(expected_bs=_HEX_WINDOW)
    return config.replace(expected_bs=max(_PPP_WINDOW, 10 * max(s.L for s in family)))


@functools.lru_cache(maxsize=8)
def _hex_lattice(isd: float, count: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The lattice sites a window of ``count`` can keep: ``(x, y, sure)``.

    The triangular lattice is sorted by exact squared norm ``m*m + m*n +
    n*n`` (in units of isd**2), sites of equal norm in the order of their
    lattice coordinates ``(n, m)``.  With R the count-th site norm and
    rho = isd/sqrt(3) the circumradius of the origin's Voronoi cell, the
    count sites nearest a device in that cell have norms at most R + 2
    rho: ``x`` and ``y`` hold those sites.  The first ``sure`` of them,
    of norm at most R - 2 rho, are among the count nearest wherever the
    device lies in the cell (triangle inequality).
    """
    density = hex_grid_density(isd)
    radius = math.sqrt(count / (density * math.pi)) * 1.25 + 2.0 * isd
    reach = int(math.ceil(radius / (isd * math.sqrt(3.0) / 2.0))) + 2
    m, n = np.meshgrid(np.arange(-reach, reach + 1), np.arange(-reach, reach + 1))
    m = m.ravel()
    n = n.ravel()
    x = isd * (m + 0.5 * n)
    y = isd * (math.sqrt(3.0) / 2.0) * n
    keep = x * x + y * y <= radius * radius
    norm2 = (m * m + m * n + n * n)[keep]
    order = np.argsort(norm2, kind="stable")
    x, y, norm2 = x[keep][order], y[keep][order], norm2[order]
    # The bounds in units of isd, widened by 1e-9 against rounding.
    rn, span = math.sqrt(norm2[count - 1]), 2.0 / math.sqrt(3.0)
    near = int(np.searchsorted(norm2, (rn + span) ** 2 * (1.0 + 1e-9), side="right"))
    sure = int(np.searchsorted(norm2, max(rn - span, 0.0) ** 2 * (1.0 - 1e-9), side="right"))
    x, y = x[:near], y[:near]
    x.setflags(write=False)  # every caller shares the cached arrays
    y.setflags(write=False)
    return x, y, sure


# Lattice coordinates of the corners of the cell the row offsets are drawn in.
_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def _hex_nearest(
    u: np.ndarray, isd: float, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``n`` sites nearest the device on lattices offset by ``u``, before shadowing.

    Row r shifts the lattice by ``u[r, 0] a1 + u[r, 1] a2`` (a1 = (isd,
    0), a2 = isd (1/2, sqrt(3)/2)), with ``u`` in [0, 1)**2.  The nearest
    of the cell's four corners is a lattice site, so the shift reduces to
    an offset within ``isd / sqrt(3)`` of the origin (Conway & Sloane,
    *Sphere Packings, Lattices and Groups*, ch. 20), and only the sites
    that :func:`_hex_lattice` says can be kept are measured.  Its
    ``sure`` sites are kept as they are; the rest are picked from the annulus by
    squared distance, in lattice order.  Of sites tied at the n-th
    distance the earliest in lattice order are kept, so no selection
    algorithm decides which.

    Returns the kept distances in the lattice's norm order, (rows, n);
    each row's reach, the n-th distance, (rows,); and the lattice
    indices of the kept annulus sites, ascending, (rows, n - sure).
    """
    (x, y, sure), rows = _hex_lattice(isd, n), len(u)
    # Offsets from each corner in lattice coordinates; the squared length
    # of v1 a1 + v2 a2 is isd**2 (v1**2 + v1 v2 + v2**2).
    v = u[:, None, :] - _CORNERS
    corner = np.argmin(v[..., 0] * (v[..., 0] + v[..., 1]) + v[..., 1] ** 2, axis=1)
    v = v[np.arange(rows), corner]
    dx = isd * (v[:, 0] + 0.5 * v[:, 1])
    dy = isd * (math.sqrt(3.0) / 2.0) * v[:, 1]
    take = n - sure
    d, reach = np.empty((rows, n)), np.empty(rows)
    picks = np.empty((rows, take), dtype=np.intp)
    # Rows are independent, so a few at a time keep every temporary
    # below _SCRATCH_BYTES.
    step = max(1, _SCRATCH_BYTES // (8 * max(sure, len(x) - sure)))
    for first in range(0, rows, step):
        part = slice(first, first + step)
        d[part, :sure] = _squared(dx[part], dy[part], x[:sure], y[:sure])
        ring = _squared(dx[part], dy[part], x[sure:], y[sure:])
        # The (n - sure)-th smallest is the n-th distance: every sure site
        # lies nearer.
        kth = np.partition(ring, take - 1, axis=1)[:, take - 1 : take]
        keep = ring <= kth
        if np.count_nonzero(keep) > len(ring) * take:
            # Ties at the n-th distance: the earliest in lattice order stay.
            tie = ring == kth
            keep = ring < kth
            keep |= tie & (np.cumsum(tie, axis=1)
                           <= take - np.count_nonzero(keep, axis=1, keepdims=True))
        flat = np.flatnonzero(keep).reshape(len(ring), take)
        d[part, sure:] = ring.ravel()[flat]
        reach[part] = kth[:, 0]
        flat -= ring.shape[1] * np.arange(len(ring))[:, None] - sure
        picks[part] = flat
    np.sqrt(d, out=d)
    np.sqrt(reach, out=reach)
    return d, reach, picks


def _squared(dx, dy, x, y) -> np.ndarray:
    """Squared distances ``(x + dx)**2 + (y + dy)**2``, (rows, sites)."""
    out = np.add.outer(dx, x)
    out *= out
    sq = np.add.outer(dy, y)
    sq *= sq
    out += sq
    return out


def _shadowed(d: np.ndarray, z: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Equivalent distances ``S**(-1/alpha) * d`` of hex rows, sorted, (rows, n).

    ``d`` holds the kept sites in the lattice's norm order and ``z`` one
    standard normal per site: ``ln S**(-1/alpha)`` is ``z`` times
    ``sigma_db * ln(10) / (10 * alpha)``, so draw j scales the j-th kept
    site.  Raises if a distance leaves the positive floats.
    """
    sigma = scenario.sigma_db * math.log(10.0) / (10.0 * scenario.alpha)
    with np.errstate(over="ignore"):  # checked below
        out = np.multiply(z, sigma)
        np.exp(out, out=out)
        out *= d
    out.sort(axis=1)
    if not (np.all(out[:, 0] > 0.0) and np.all(out[:, -1] < math.inf)):
        raise ValueError(
            f"sigma_db={scenario.sigma_db} shadows a BS distance to 0 or "
            "infinity in floating point"
        )
    return out


# --- block sampler --------------------------------------------------------


def _tail_mean(reach: np.ndarray, scenario: Scenario, config: SimConfig) -> np.ndarray:
    """Campbell mean of the loaded interference beyond each row's reach, (rows, 1).

    ``2 pi lam q reach**(2 - alpha) / (alpha - 2)``: ``lam`` is the
    effective density on Poisson rows and, on hex rows, the lattice
    density times the mean shadowing gain ``exp(s**2 / 2)``.
    """
    if config.deployment == Deployment.HEX:
        s = scenario.sigma_db * math.log(10.0) / 10.0
        try:
            gain = math.exp(s * s / 2.0)
        except OverflowError:
            raise ValueError(
                f"sigma_db={scenario.sigma_db} overflows the mean shadowing gain"
            ) from None
        lam = hex_grid_density(config.hex_isd) * gain
    else:
        lam = effective_density(scenario.lam, scenario.alpha, scenario.sigma_db)
    alpha = scenario.alpha
    scale = 2.0 * math.pi * lam * scenario.q / (alpha - 2.0)
    return (scale * reach ** (2.0 - alpha))[:, None]


def _distance_key(scenario: Scenario, config: SimConfig):
    """The scenario inputs that a block's distances depend on.

    Poisson rows depend on the effective density alone.  Shadowed hex
    rows depend on ``(sigma_db, alpha)``; unshadowed hex rows (None),
    like the hex geometry and the shadowing draws, on no scenario input.
    """
    if config.deployment == Deployment.HEX:
        return (scenario.sigma_db, scenario.alpha) if scenario.sigma_db > 0.0 else None
    return effective_density(scenario.lam, scenario.alpha, scenario.sigma_db)


class _BlockDraws:
    """The parts of a chunk of whole blocks, each drawn once for every sibling scenario.

    The chunk holds ``rows`` rows from the first row of ``block`` on, and
    block i of it fills its rows of every part from ``stream(seed, block
    + i, role)``, so a row reads the same bits whichever chunk holds it;
    a short final block holds the first rows of a full one.

    Every part is drawn on first use and cached under the scenario
    inputs it depends on: distances under :func:`_distance_key`, hex
    reaches under none, band labels and their :class:`_Bands` under K,
    powers under the distance key and alpha, and transmit marks under the
    activity probability.  The activity uniforms depend on no scenario input and
    are drawn only when some sibling's p or q lies strictly inside
    (0, 1): every uniform lies in [0, 1), so the marks at 0 and at 1 do
    not read them.  Each role has its own keyed stream, so a skipped
    draw moves no other bits.  Siblings that agree on a part's inputs
    read one array, which no statistic writes to, so each sibling sees
    the bits it would have drawn alone.  A hex chunk draws its lattice
    offsets and shadowing once for every alpha and ``sigma_db`` of
    ``family``; the siblings then only scale, exponentiate, multiply and
    sort.
    """

    def __init__(
        self, config: SimConfig, block: int, rows: int, family: Sequence[Scenario] = ()
    ) -> None:
        self.config, self.block, self.rows, self.family = config, block, rows, family
        self.shape = (rows, config.expected_bs)
        self._parts: dict = {}

    def _draw(self, role: int, fill, width: int | None = None, dtype=float) -> np.ndarray:
        """A (rows, width) part, each block's rows filled by ``fill(rng, out)``.

        ``rng`` is the block's stream for ``role`` and ``out`` its rows of
        the part; ``width`` defaults to the window.
        """
        out = np.empty((self.rows, width or self.shape[1]), dtype)
        for first in range(0, self.rows, _BLOCK):
            rng = stream(self.config.seed, self.block + first // _BLOCK, role)
            fill(rng, out[first : first + _BLOCK])
        return out

    def _part(self, key, make):
        if key not in self._parts:
            self._parts[key] = make()
        return self._parts[key]

    def distances(self, scenario: Scenario) -> np.ndarray:
        """BS distances, (rows, n), each row ascending in equivalent distance.

        Each row keeps the ``n = expected_bs`` BSs nearest the device.  A
        hex sibling whose shadowing fails raises its ``ValueError`` here,
        when it reads its own distances.
        """
        key = ("distances", _distance_key(scenario, self.config))
        if key not in self._parts:
            if self.config.deployment == Deployment.HEX:
                self._hex_rows((scenario, *self.family))
            else:
                self._parts[key] = self._poisson(scenario)
        if isinstance(self._parts[key], ValueError):
            raise self._parts[key]
        return self._parts[key]

    def _poisson(self, scenario: Scenario) -> np.ndarray:
        # pi * lam_eff * R_k**2 is the k-th arrival of a unit-rate Poisson
        # process; shadowing enters through the effective density.
        config = self.config
        lam_eff = effective_density(scenario.lam, scenario.alpha, scenario.sigma_db)
        d = self._draw(_ROLE_GEOMETRY, lambda rng, out: rng.standard_exponential(out=out))
        np.cumsum(d, axis=1, out=d)
        d *= 1.0 / (math.pi * lam_eff)
        np.sqrt(d, out=d)
        return d

    def _hex_rows(self, scenarios: Sequence[Scenario]) -> None:
        """Hex distances for every distance key of ``scenarios``, and the reaches.

        One lattice draw (:func:`_hex_nearest`, each row's lattice offset
        uniform in one fundamental cell) and, if some key is shadowed,
        one standard normal shadowing draw serve every alpha and
        ``sigma_db``.  The shadowed keys read the geometry before the
        unshadowed one sorts it in place.  A key whose shadowing fails
        holds its ``ValueError``, so each sibling raises what it raises
        alone.  Both draws are dropped once the distances exist, so the
        chunk holds no more than its distances while the statistics run.
        """
        config = self.config
        u = self._draw(_ROLE_OFFSET, lambda rng, out: rng.random(out=out), 2)
        d, reach, _ = _hex_nearest(u, config.hex_isd, config.expected_bs)
        self._parts.setdefault(("reach",), reach)
        keys = {("distances", _distance_key(s, config)): s for s in scenarios}
        todo = {key: s for key, s in keys.items() if key not in self._parts}
        plain = todo.pop(("distances", None), None)
        if todo:
            z = self._draw(_ROLE_SHADOW, lambda rng, out: rng.standard_normal(out=out))
            for key, scenario in todo.items():
                try:
                    self._parts[key] = _shadowed(d, z, scenario)
                except ValueError as error:
                    self._parts[key] = error
        if plain is not None:
            d.sort(axis=1)
            self._parts[("distances", None)] = d

    def reach(self, scenario: Scenario) -> np.ndarray:
        """Each row's window reach, (rows,): its n-th distance.

        Equivalent on Poisson rows, geometric (before shadowing) on hex
        rows.
        """
        if self.config.deployment != Deployment.HEX:
            return self.distances(scenario)[:, -1]
        if ("reach",) not in self._parts:
            self._hex_rows((scenario, *self.family))
        return self._parts[("reach",)]

    def tail(self, scenario: Scenario) -> np.ndarray:
        """:func:`_tail_mean` of the chunk's rows, (rows, 1)."""
        return _tail_mean(self.reach(scenario), scenario, self.config)

    def activity(self) -> np.ndarray:
        """Activity uniforms in [0, 1), (rows, n)."""
        return self._part(("activity",), lambda: self._draw(
            _ROLE_ACTIVITY, lambda rng, out: rng.random(out=out)
        ))

    def active(self, share: float) -> np.ndarray:
        """Transmit marks at activity probability ``share``, (rows, n)."""
        return self._part(("active", share), lambda: (
            self.activity() < share if 0.0 < share < 1.0
            else np.full(self.shape, share == 1.0)
        ))

    def labels(self, K: int) -> np.ndarray | None:
        """Band labels in 1..K, (rows, n); None for a single band."""
        if K == 1:
            return None

        def fill(rng, out):  # ``integers`` has no ``out=``
            out[...] = rng.integers(1, K + 1, size=out.shape, dtype=np.int16)

        return self._part(("labels", K), lambda: self._draw(_ROLE_BANDS, fill, dtype=np.int16))

    def bands(self, K: int) -> "_Bands":
        """The runs and nearest members of the chunk's K bands."""
        return self._part(("bands", K), lambda: _Bands(
            self.labels(K), K, UPSILON_CAP, self.shape
        ))

    def powers(self, scenario: Scenario) -> np.ndarray:
        """Received powers of the chunk's BSs per unit transmit power, (rows, n)."""
        key = (_distance_key(scenario, self.config), scenario.alpha)
        return self._part(("powers", key), lambda: self._checked_powers(scenario))

    def _checked_powers(self, scenario: Scenario) -> np.ndarray:
        """The powers, unless a row's powers or total leave the normal floats.

        Out there every SINR test would pass.  Rows descend, so their first
        and last columns bound them, and n times the first a row's total.
        """
        pw = _powers(self.distances(scenario), scenario)
        low, high = sys.float_info.min, sys.float_info.max / pw.shape[1]
        if pw[:, -1].min() >= low and pw[:, 0].max() <= high:
            return pw
        hex_rows = self.config.deployment == Deployment.HEX
        lam = hex_grid_density(self.config.hex_isd) if hex_rows else scenario.lam
        raise ValueError(
            f"density {lam:g} puts received powers at alpha={scenario.alpha:g} outside "
            "the normal float range; a density nearer 1 gives the same probabilities"
        )


class _Bands:
    """The K bands of a chunk, each as a run and as its nearest members.

    A stable sort of each row by label makes every band one contiguous
    run and keeps the order of its members: ``order`` (rows, n) holds
    the flat (row-major) columns of the sorted rows and ``runs``
    (rows, K, n) flags each band's run in them.  ``cols`` (rows, K, cap)
    holds the flat column of each band's (j+1)-th nearest member in
    slot j, and ``valid`` flags the slots that hold a member; the others
    hold some other column of the chunk.  A single band needs no sort:
    ``order`` is None and slot j holds column j.
    """

    def __init__(self, labels: np.ndarray | None, K: int, cap: int, shape) -> None:
        rows, n = shape
        self.labels, self.K, self.cap = labels, K, cap
        slots = np.arange(cap)
        if labels is None:
            row = n * np.arange(rows)[:, None, None]
            self.order, self.runs = None, np.ones((1, 1, n), dtype=bool)
            self.cols = np.minimum(slots, n - 1) + row
            self.valid = np.broadcast_to(slots < n, (rows, 1, cap))
            return
        # Band b of row r has key K*r + b - 1: one stable sort of the keys
        # sorts every row.
        band_keys = np.arange(rows * K, dtype=np.min_scalar_type(rows * K - 1))
        keys = ((labels - 1).astype(band_keys.dtype) + band_keys[::K, None]).ravel()
        order = np.argsort(keys, kind="stable")
        sorted_keys = np.take(keys, order)
        first = np.searchsorted(sorted_keys, band_keys)
        counts = np.diff(first, append=rows * n)
        self.order = order.reshape(shape)
        self.runs = sorted_keys.reshape(rows, 1, n) == band_keys.reshape(rows, K, 1)
        cols = np.take(order, first[:, None] + slots, mode="clip")
        self.cols = cols.reshape(rows, K, cap)
        self.valid = (slots < counts[:, None]).reshape(rows, K, cap)

    def members(self, a: np.ndarray) -> np.ndarray:
        """``a`` (rows, n) at each band's ``cap`` nearest members, (rows, K, cap)."""
        return np.take(a, self.cols)

    def totals(self, pw: np.ndarray, act: np.ndarray) -> np.ndarray:
        """Each band's sum of ``pw`` over its active members, (rows, K, 1).

        The sum runs over the band's contiguous run in the sorted row:
        a sum over the scattered members would add the same terms in
        another order and round differently.
        """
        if self.order is not None:
            pw = np.take(pw, self.order)
        where = (act if self.order is None else np.take(act, self.order))[:, None, :]
        where = where & self.runs
        return np.sum(np.broadcast_to(pw[:, None, :], where.shape), axis=2, where=where,
                      keepdims=True)

    def running_sums(self, pw: np.ndarray, act: np.ndarray) -> np.ndarray:
        """Each band's running sum of ``pw`` over its active members.

        Slot j of band b holds the sum over the band's j+1 nearest
        members, and slot ``cap`` the band's total, (rows, K, cap + 1).
        One band at a time: a running sum over a whole row adds exact
        zeros at the other bands' columns, so it keeps the bits of a
        running sum over the band alone.
        """
        out = np.empty((len(pw), self.K, self.cap + 1))
        for b in range(self.K):
            member = act if self.labels is None else act & (self.labels == b + 1)
            running = np.cumsum(pw * member, axis=1)
            out[:, b, :-1] = np.take(running, self.cols[:, b])
            out[:, b, -1] = running[:, -1]
        return out


# --- block statistics -----------------------------------------------------


def _powers(distances: np.ndarray, scenario: Scenario) -> np.ndarray:
    with np.errstate(over="ignore"):  # :meth:`_BlockDraws.powers` checks the range
        return distances ** (-scenario.alpha)


def _margins(pw: np.ndarray, act_p: np.ndarray, act_q: np.ndarray, tail: np.ndarray,
             scenario: Scenario) -> np.ndarray:
    """(min SINR over the L nearest, SINR of the L-th) per row, shape (rows, 2).

    ``act_p`` and ``act_q`` are the transmit marks at p and at q; the L
    nearest BSs read the first, the others the second.  ``tail`` (rows,
    1) is the mean interference beyond the window.
    """
    L = scenario.L
    near = pw[:, :L]
    act_p = act_p[:, :L]
    t_part = np.sum(near, axis=1, where=act_p, keepdims=True)
    t_bg = np.sum(pw[:, L:] * act_q[:, L:], axis=1, keepdims=True) + tail
    denom = t_part - np.where(act_p, near, 0.0) + t_bg
    with np.errstate(divide="ignore"):
        sinr = np.where(denom > 0.0, near / denom, math.inf)
    return np.column_stack((sinr.min(axis=1), sinr[:, L - 1]))


def _prefix_min_sinr(pw: np.ndarray, act: np.ndarray, bands: _Bands,
                     tail: np.ndarray) -> np.ndarray:
    """Prefix-min SINR of each band's ``cap`` nearest members when p == q.

    ``act`` holds the transmit marks at q and ``tail`` (rows, 1) the
    mean interference beyond the window, 1/K of it in each band.  Shape
    (rows, K, cap), padded with -inf past a band's last member.
    """
    pw_c, act_c = bands.members(pw), bands.members(act)
    total = bands.totals(pw, act) + (tail / bands.K)[:, :, None]
    denom = total - np.where(act_c, pw_c, 0.0)
    with np.errstate(divide="ignore"):
        sinr = np.where(denom > 0.0, pw_c / denom, math.inf)
    return np.where(bands.valid, np.minimum.accumulate(sinr, axis=2), -math.inf)


def _upsilon(pw: np.ndarray, act_p: np.ndarray, act_q: np.ndarray, bands: _Bands,
             tail: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Detectable-BS counts Upsilon per row.

    Upsilon is the largest candidate participant count ``ell`` (up to
    ``cap``, per band, summed over bands) for which the device detects
    all ``ell`` nearest band members while exactly those participate;
    every candidate count shares one transmit mark per BS (``act_p`` at
    p, ``act_q`` at q).  At p == q, P(Upsilon >= L) is the
    joint-detection P_L, and the count is the number of prefix-min
    SINRs clearing the threshold.  Otherwise member k < ell is detected at
    count ell when ``pw_k >= thr * (near_ell - own_k + far_ell)``:
    ``near_ell`` is the active power among the ``ell`` participants,
    ``own_k`` member k's part of it and ``far_ell`` the loaded power beyond
    them, with the band's 1/K of ``tail`` (rows, 1), the mean
    interference beyond the window.  As
    ``pw_k + thr * own_k >= thr * (near_ell + far_ell)``, one
    running minimum over k decides every ell at once.
    """
    thr = scenario.beta / scenario.gamma
    if scenario.p == scenario.q:
        return np.sum(_prefix_min_sinr(pw, act_q, bands, tail) >= thr, axis=(1, 2))
    cap = bands.cap
    near = bands.running_sums(pw, act_p)[:, :, :cap]
    running_q = bands.running_sums(pw, act_q)
    far = running_q[:, :, -1:] - running_q[:, :, :cap] + (tail / bands.K)[:, :, None]
    pw_c = bands.members(pw)
    weakest = np.minimum.accumulate(pw_c + thr * (bands.members(act_p) * pw_c), axis=2)
    passes = (weakest >= thr * (near + far)) & bands.valid
    best = np.max(np.where(passes, np.arange(1, cap + 1), 0), axis=2)
    return best.sum(axis=1)


# --- chunked collection across realizations -------------------------------


def _chunk_rows(n: int, K: int = 1) -> int:
    """Rows per chunk: the most whole blocks whose widest part fits ``_SCRATCH_BYTES``.

    A row's widest part is a float per BS of its ``n``-BS window.  With
    K > 1 bands the chunk's band index (:class:`_Bands`) holds a flag per
    band and BS beside its sort order, and the rule counts both: counting
    the float alone, 48-row chunks of 250 BSs and 6 bands page-fault
    chunk after chunk.  At least one block, so the default hex window
    runs one block per chunk.
    """
    row = 8 * n if K == 1 else (8 + K) * n
    return _BLOCK * max(1, _SCRATCH_BYTES // (_BLOCK * row))


def _block_stats(
    kind: str, family: tuple[Scenario, ...], config: SimConfig, block: int, rows: int
) -> np.ndarray:
    """One collector's statistics of ``rows`` rows from ``block`` on, (rows, S, ...)."""
    draws = _BlockDraws(config, block, rows, family)
    stats = []
    for scenario in family:
        pw, act_q = draws.powers(scenario), draws.active(scenario.q)
        tail = draws.tail(scenario)
        if kind == "margins":
            stats.append(_margins(pw, draws.active(scenario.p), act_q, tail, scenario))
        elif kind == "upsilon":
            bands = draws.bands(scenario.K)
            stats.append(
                _upsilon(pw, draws.active(scenario.p), act_q, bands, tail, scenario)
            )
        else:
            # At least L band prefix-minima clear a level exactly when the
            # L-th largest of them does.
            bands = draws.bands(scenario.K)
            cummins = _prefix_min_sinr(pw, act_q, bands, tail).reshape(rows, -1)
            stats.append(np.partition(cummins, -scenario.L, axis=1)[:, -scenario.L])
    return np.stack(stats, axis=1)


def _collect_span(
    kind: str, family: tuple[Scenario, ...], config: SimConfig, start: int, stop: int
) -> np.ndarray:
    """Rows ``start:stop`` of one collector by chunks; ``start`` is block-aligned."""
    bands = 1 if kind == "margins" else max(s.K for s in family)
    chunk = _chunk_rows(config.expected_bs, bands)
    out = None
    for first in range(start, stop, chunk):
        part = _block_stats(kind, family, config, first // _BLOCK, min(chunk, stop - first))
        if out is None:  # filled in place: a list of parts would double the peak
            out = np.empty((stop - start, *part.shape[1:]), dtype=part.dtype)
        out[first - start : first - start + len(part)] = part
    return out


def _collect(
    scenarios: Sequence[Scenario], config: SimConfig, kind: str, workers: int
) -> list[np.ndarray]:
    """Each sibling's statistic from one collection over a family sharing ``config``.

    An ``expected_bs`` of None resolves here, once for the family
    (:func:`_with_window`): ``max(250, 10 * L)`` Poisson BSs for the
    largest L of the family, 1000 hex sites.  Every sibling reads that
    one window.  Every sibling is checked before any draw, in order, so
    a bad member raises what it raises alone.
    """
    family = tuple(scenarios)
    if not family:
        return []
    config = _with_window(family, config)
    for scenario in family:
        if kind == "reuse":
            check_matched_marks("the reuse Monte Carlo (band prefix margins)", scenario)
            check_upsilon_cap("L", scenario.L)
        _check_window(scenario, config)
    args = (kind, family, config)
    stacked = map_spans(_collect_span, args, config.realizations, workers, _BLOCK)
    return [stacked[:, i] for i in range(len(family))]


def collect_margins(
    scenarios: Sequence[Scenario], config: SimConfig, workers: int = 1
) -> list[np.ndarray]:
    """Per sibling, per-realization (joint, last-BS) SINR margins, shape (n, 2).

    The joint margin is the least SINR of the L nearest BSs, the
    last-BS margin that of the L-th.  Levels are beta/gamma values.
    """
    return _collect(scenarios, config, "margins", workers)


def collect_upsilon(
    scenarios: Sequence[Scenario], config: SimConfig, workers: int = 1
) -> list[np.ndarray]:
    """Per sibling, per-realization detectable-BS counts Upsilon, shape (n,).

    Levels are L values; the counts answer levels up to ``UPSILON_CAP``.
    """
    return _collect(scenarios, config, "upsilon", workers)


def collect_reuse_margins(
    scenarios: Sequence[Scenario], config: SimConfig, workers: int = 1
) -> list[np.ndarray]:
    """Per sibling, per-realization reuse margins, shape (n,); requires p == q.

    The margin is the L-th largest prefix-min SINR over the
    ``UPSILON_CAP`` nearest members of every band: at least L BSs are
    detected across the K bands exactly when it clears beta/gamma.
    Levels are beta/gamma values.
    """
    return _collect(scenarios, config, "reuse", workers)


def exceedance_curve(statistic: np.ndarray, levels) -> list[Estimate]:
    """P(statistic >= level) for each level: a share of n realizations, binomial stderr."""
    n = len(statistic)
    shares = (int(np.sum(statistic >= level)) / n for level in levels)
    return [Estimate(s, math.sqrt(s * (1.0 - s) / n), n) for s in shares]

