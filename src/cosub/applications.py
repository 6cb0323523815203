"""Compression by non-linear approximation, hard-threshold denoising, metrics."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .filterbank import Pyramid, analyze_cascade, synthesize_cascade
from .graphs import WeightedGraph, as_signal, global_eigenbasis


@dataclass(frozen=True)
class NlaResult:
    """Outcome of a non-linear approximation at one cascade depth."""

    level: int
    kept_hp: int
    kept_lp: int
    ratio: float
    psnr: float


def psnr(reference, estimate) -> float:
    """Peak signal-to-noise ratio in dB; peak is max |reference|."""
    ref = np.asarray(reference, dtype=np.float64)
    est = np.asarray(estimate, dtype=np.float64)
    if ref.shape != est.shape:
        raise ValueError("signals must have equal length")
    mse = float(np.mean(np.square(ref - est)))
    if mse == 0.0:
        return math.inf
    peak = float(np.abs(ref).max())
    return 10.0 * math.log10(peak * peak / mse)


def snr(reference, estimate) -> float:
    """Signal-to-noise ratio in dB relative to the reference energy."""
    ref = np.asarray(reference, dtype=np.float64)
    est = np.asarray(estimate, dtype=np.float64)
    if ref.shape != est.shape:
        raise ValueError("signals must have equal length")
    err = float(np.sum(np.square(ref - est)))
    if err == 0.0:
        return math.inf
    num = float(np.sum(np.square(ref)))
    if num == 0.0:
        raise ValueError("SNR needs a nonzero reference signal")
    return 10.0 * math.log10(num / err)


def compression_ratio(total: int, kept_lp: int, kept_hp: int) -> float:
    """Original coefficient count over retained coefficient count."""
    if kept_lp < 0 or kept_hp < 0:
        raise ValueError("kept coefficient counts must be non-negative")
    kept = kept_lp + kept_hp
    if kept <= 0:
        raise ValueError("at least one coefficient must be kept")
    if kept > total:
        raise ValueError("kept coefficients exceed the total")
    return total / kept


def _map_details(pyramid: Pyramid, transform) -> Pyramid:
    """Copy of `pyramid` whose detail coefficients are replaced by
    `transform(d)`, where `d` holds every detail coefficient in ascending
    (level, channel, index) order."""
    details = [chan for level in pyramid.levels for chan in level.channels[1:]]
    mapped = transform(np.concatenate(details or [np.empty(0)]))
    cuts = np.cumsum([0] + [len(chan) for chan in details]).tolist()
    pieces = iter(mapped[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:]))
    levels = [replace(level, channels=[level.channels[0].copy()]
                      + [next(pieces) for _ in level.channels[1:]])
              for level in pyramid.levels]
    return Pyramid(levels=levels, final_approximation=pyramid.final_approximation.copy(),
                   p=pyramid.p, n=pyramid.n)


def nla_compress(pyramid: Pyramid, keep_hp: int) -> Pyramid:
    """Keep the `keep_hp` largest-magnitude detail coefficients, zero the rest.

    The final approximation channel is always retained in full.  Magnitude
    ties are resolved in ascending (level, channel, index) order.
    """
    if keep_hp < 0 or keep_hp > pyramid.detail_counts():
        raise ValueError("keep_hp must lie in [0, total detail count]")

    def keep_largest(details: np.ndarray) -> np.ndarray:
        # Every magnitude above the keep_hp-th largest, then the first ties.
        mags = np.abs(details)
        cut = np.partition(mags, -keep_hp)[-keep_hp] if keep_hp else np.inf
        above = np.flatnonzero(mags > cut)
        top = np.concatenate([above, np.flatnonzero(mags == cut)[:keep_hp - len(above)]])
        kept = np.zeros_like(details)
        kept[top] = details[top]
        return kept

    return _map_details(pyramid, keep_largest)


def _resolve_keep(keep_hp, available: int) -> int:
    if isinstance(keep_hp, float):
        if not 0.0 <= keep_hp <= 1.0:
            raise ValueError("a fractional keep_hp must lie in [0, 1]")
        return round(keep_hp * available)
    count = int(keep_hp)
    if count < 0:
        raise ValueError("keep_hp must be non-negative")
    return min(count, available)


def best_level_nla(graph: WeightedGraph, signal, partitions, keep_hp,
                   p: int = 1, max_levels: int | None = None) -> NlaResult:
    """Evaluate the non-linear approximation at every cascade depth and return
    the depth with the best reconstruction.

    `keep_hp` is an absolute detail-coefficient count (an int), or a float
    fraction in [0, 1] of the details available at each depth.
    """
    x = as_signal(signal, graph.n)
    pyramid = analyze_cascade(graph, x, partitions, p=p, max_levels=max_levels)
    return best_depth_nla(pyramid, x, keep_hp)[0]


def best_depth_nla(pyramid: Pyramid, signal, keep_hp) -> tuple[NlaResult, np.ndarray]:
    """`best_level_nla` on an existing pyramid of `signal`: the best depth's
    result and its reconstruction."""
    x = as_signal(signal, pyramid.n)
    if pyramid.num_levels == 0:
        raise ValueError("the cascade produced no level to compress")
    best: tuple[NlaResult, np.ndarray] | None = None
    for depth in range(1, pyramid.num_levels + 1):
        sub = pyramid.truncated(depth)
        available = sub.detail_counts()
        kept = _resolve_keep(keep_hp, available)
        if kept == available:
            # Nothing is discarded: the transform is the identity and the
            # reconstruction is the input itself.
            reconstruction = x
        else:
            reconstruction = synthesize_cascade(nla_compress(sub, kept))
        lp = len(sub.final_approximation)
        result = NlaResult(level=depth, kept_hp=kept, kept_lp=lp,
                           ratio=compression_ratio(pyramid.n, lp, kept),
                           psnr=psnr(x, reconstruction))
        if best is None or result.psnr > best[0].psnr:
            best = result, reconstruction
    return best


def denoise(graph: WeightedGraph, noisy, sigma: float, levels: int,
            partitions, p: int = 2) -> np.ndarray:
    """Hard-threshold denoising: analyze, discard detail coefficients with
    magnitude at most 3*sigma, reconstruct.

    The scheme assumes unit-energy local modes, so p=2 is enforced; passing
    p=1 is honoured but warned about.
    """
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError("noise level must be finite and non-negative")
    if p != 2:
        warnings.warn("hard-threshold denoising expects L2-normalized modes (p=2)",
                      stacklevel=2)
    x = as_signal(noisy, graph.n)
    pyramid = analyze_cascade(graph, x, partitions, p=p, max_levels=levels)
    threshold = 3.0 * sigma
    return synthesize_cascade(_map_details(
        pyramid, lambda details: np.where(np.abs(details) > threshold, details, 0.0)))


def smooth_test_signal(graph: WeightedGraph, k: int) -> np.ndarray:
    """Sum of the first k global Fourier modes, scaled to unit peak value."""
    if not 1 <= k <= graph.n:
        raise ValueError("mode count must lie in 1..n")
    _, q = global_eigenbasis(graph, p=2)
    x = q[:, :k].sum(axis=1)
    return x / np.abs(x).max()
