"""Sort-based reference for the band kernels of ``hearability.simulate``.

Each band is made contiguous by a stable argsort of the labels, and the
statistics run band by band.  The library computes the same statistics
for all bands at once on each band's member columns; the suite checks
that both give the same bits.

The functions take the activity uniforms ``u`` of the block, the band
labels in ``1..K`` (None for a single band) and each row's mean
interference beyond the window, ``tail`` (rows, 1), of which each band
hears 1/K.
"""

import math

import numpy as np

from hearability.model import Scenario


def group_bands(pw, u, labels, K: int, cap: int):
    """Reorder columns so that each band's members are contiguous, nearest first.

    Returns the reordered ``pw`` and ``u`` and, per band, its column
    mask (None for a single band), the index of its ``cap`` nearest
    members into a (rows, n) array and which of those exist.  With each
    band contiguous, a masked row sum or a running sum adds the same
    terms in the same order as a sum over the band alone.
    """
    rows, n = pw.shape
    slots = np.arange(cap)
    row = np.arange(rows)[:, None]
    if labels is None:
        cols = np.broadcast_to(np.minimum(slots, n - 1), (rows, cap))
        return pw, u, [(None, (row, cols), slots < n)]
    order = np.argsort(labels, axis=1, kind="stable")
    pw, u, labels = pw[row, order], u[row, order], labels[row, order]
    bands = []
    start = np.zeros((rows, 1), dtype=np.int64)
    for band in range(1, K + 1):
        mask = labels == band
        count = np.count_nonzero(mask, axis=1)[:, None]
        bands.append((mask, (row, np.minimum(start + slots, n - 1)), slots < count))
        start = start + count
    return pw, u, bands


def prefix_min_sinr(pw: np.ndarray, u: np.ndarray, labels, tail: np.ndarray,
                    scenario: Scenario, cap: int) -> np.ndarray:
    """Prefix-min SINR of each band's ``cap`` nearest members when p == q.

    Shape (rows, K, cap), padded with -inf past a band's last member.
    """
    pw, u, bands = group_bands(pw, u, labels, scenario.K, cap)
    act = u < scenario.q
    out = np.empty((len(pw), scenario.K, cap))
    for b, (mask, idx, valid) in enumerate(bands):
        total = np.sum(pw, axis=1, where=act if mask is None else act & mask, keepdims=True)
        total = total + tail / scenario.K
        denom = total - np.where(act[idx], pw[idx], 0.0)
        with np.errstate(divide="ignore"):
            sinr = np.where(denom > 0.0, pw[idx] / denom, math.inf)
        out[:, b] = np.where(valid, np.minimum.accumulate(sinr, axis=1), -math.inf)
    return out


def upsilon(pw: np.ndarray, u: np.ndarray, labels, tail: np.ndarray,
            scenario: Scenario, cap: int) -> np.ndarray:
    """Detectable-BS counts Upsilon per row, band by band."""
    p, q, thr = scenario.p, scenario.q, scenario.beta / scenario.gamma
    if p == q:
        return np.sum(prefix_min_sinr(pw, u, labels, tail, scenario, cap) >= thr,
                      axis=(1, 2))
    pw, u, bands = group_bands(pw, u, labels, scenario.K, cap)
    slots = np.arange(cap)
    earlier = slots[None, :] <= slots[:, None]  # [ell - 1, k]: k < ell
    counts = np.zeros(len(pw), dtype=np.int64)
    for mask, idx, valid in bands:
        member = np.ones(pw.shape, dtype=bool) if mask is None else mask
        pw_c = pw[idx]
        act = u[idx] < p
        near = np.cumsum(pw * ((u < p) & member), axis=1)[idx]
        near = near[:, :, None] - (act * pw_c)[:, None, :]
        running_q = np.cumsum(pw * ((u < q) & member), axis=1)
        far = running_q[:, -1:] - running_q[idx] + tail / scenario.K
        denom = near + far[:, :, None]
        passes = np.all((pw_c[:, None, :] >= thr * denom) | ~earlier, axis=2) & valid
        counts += np.max(np.where(passes, slots + 1, 0), axis=1)
    return counts
