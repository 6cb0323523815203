"""Compression, denoising and the quality metrics."""

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosub import (PartitionConfig, SubgraphPartition, WeightedGraph,
                   analyze_cascade, best_level_nla, compression_ratio, denoise,
                   nla_compress, psnr, sbm_graph, smooth_test_signal, snr,
                   synthesize_cascade)

TOY_SECOND_LEVEL = SubgraphPartition.from_labels([1, 1])


class TestMetrics:
    def test_psnr_identical_is_infinite(self):
        x = np.array([1.0, 2.0, 3.0])
        assert psnr(x, x.copy()) == math.inf

    def test_psnr_formula(self):
        ref = np.array([1.0, 0.0, 0.0, 0.0])
        est = ref + 0.1  # MSE = 0.01, peak = 1
        assert psnr(ref, est) == pytest.approx(20.0, abs=1e-12)

    def test_snr_zero_db(self):
        assert snr([1.0, 0, 0, 0], [0.0, 0, 0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_snr_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="reference"):
            snr(np.zeros(3), np.ones(3))

    def test_psnr_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="PSNR needs a nonzero reference signal"):
            psnr(np.zeros(3), np.ones(3))
        assert psnr(np.zeros(3), np.zeros(3)) == math.inf

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            psnr(np.zeros(3), np.zeros(4))

    def test_compression_ratio(self):
        assert compression_ratio(65536, 282, 2239) == pytest.approx(26.0, abs=0.1)
        assert compression_ratio(100, 10, 10) == 5.0
        assert compression_ratio(50, 30, 20) == 1.0
        with pytest.raises(ValueError, match="kept"):
            compression_ratio(10, 0, 0)

    @pytest.mark.parametrize("kept_lp, kept_hp", [(-1, 3), (3, -1)])
    def test_compression_ratio_negative_count_rejected(self, kept_lp, kept_hp):
        with pytest.raises(ValueError, match="non-negative"):
            compression_ratio(10, kept_lp, kept_hp)


@lru_cache(maxsize=1)
def two_level_pyramid():
    g = sbm_graph([8, 8, 8], 0.7, 0.1, 3)
    pyramid = analyze_cascade(g, np.arange(g.n, dtype=float), PartitionConfig("sc", seed=0),
                              p=1, max_levels=2)
    assert pyramid.num_levels == 2
    return pyramid


class TestNlaCompress:
    def toy_pyramid(self, toy_graph, toy_partition, x, p=1, two_levels=False):
        parts = [toy_partition, TOY_SECOND_LEVEL] if two_levels else [toy_partition]
        return analyze_cascade(toy_graph, x, parts, p=p)

    def test_keep_all_reconstructs(self, toy_graph, toy_partition):
        rng = np.random.default_rng(7)
        x = rng.normal(size=5)
        pyramid = self.toy_pyramid(toy_graph, toy_partition, x, two_levels=True)
        full = pyramid.detail_counts()
        rec = synthesize_cascade(nla_compress(pyramid, full))
        assert np.abs(rec - x).max() < 1e-10

    def test_keep_zero_blockwise_constant_exact(self, toy_graph, toy_partition):
        x = np.array([3.0, 3.0, 3.0, -2.0, -2.0])
        pyramid = self.toy_pyramid(toy_graph, toy_partition, x)
        rec = synthesize_cascade(nla_compress(pyramid, 0))
        assert np.abs(rec - x).max() < 1e-10

    def test_keep_zero_detail_only_signal(self, toy_graph, toy_partition):
        x = np.array([1.0, -1.0, 0.0, 0.0, 0.0])
        pyramid = self.toy_pyramid(toy_graph, toy_partition, x)
        rec = synthesize_cascade(nla_compress(pyramid, 0))
        assert np.abs(rec).max() < 1e-12  # approximation channel is zero
        value = psnr(x, rec)
        assert math.isfinite(value)
        assert value == pytest.approx(10 * math.log10(1 / 0.4), abs=1e-9)

    def test_keeps_largest_magnitudes(self, toy_graph, toy_partition):
        x = np.array([1.0, -1.0, 0.2, 0.1, 0.0])
        pyramid = self.toy_pyramid(toy_graph, toy_partition, x)
        compressed = nla_compress(pyramid, 1)
        details = [c for level in compressed.levels for c in level.channels[1:]]
        kept = np.concatenate(details)
        assert np.count_nonzero(kept) == 1
        original = np.concatenate([c for level in pyramid.levels
                                   for c in level.channels[1:]])
        assert kept[np.argmax(np.abs(original))] == original[np.argmax(np.abs(original))]

    def test_keep_count_validation(self, toy_graph, toy_partition):
        pyramid = self.toy_pyramid(toy_graph, toy_partition, np.zeros(5))
        with pytest.raises(ValueError, match="keep_hp"):
            nla_compress(pyramid, 100)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_stable_argsort(self, data):
        # Details drawn from a few integers and both zeros give heavy
        # magnitude ties; they must be resolved as a stable argsort of -|d|
        # in (level, channel, index) order resolves them.
        pyramid = two_level_pyramid()
        values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0])
        levels = [replace(level, channels=[level.channels[0]] + [
            np.array(data.draw(st.lists(values, min_size=len(c), max_size=len(c))))
            for c in level.channels[1:]]) for level in pyramid.levels]
        pyramid = replace(pyramid, levels=levels)
        details = np.concatenate([c for level in levels for c in level.channels[1:]])
        keep = data.draw(st.sampled_from([0, len(details)]) | st.integers(0, len(details)))
        want = np.zeros_like(details)
        top = np.argsort(-np.abs(details), kind="stable")[:keep]
        want[top] = details[top]
        kept = nla_compress(pyramid, keep)
        got = np.concatenate([c for level in kept.levels for c in level.channels[1:]])
        assert got.tobytes() == want.tobytes()

    def test_psnr_monotone_in_keep(self):
        g = sbm_graph([20, 20, 20], 0.5, 0.03, 11)
        x = smooth_test_signal(g, 4)
        pyramid = analyze_cascade(g, x, PartitionConfig("sc", seed=0), p=2,
                                  max_levels=2)
        total = pyramid.detail_counts()
        scores = []
        for keep in (0, total // 8, total // 4, total // 2, total):
            rec = synthesize_cascade(nla_compress(pyramid, keep))
            scores.append(psnr(x, rec))
        assert all(b >= a - 1e-9 for a, b in zip(scores, scores[1:]))

    def test_parseval_for_l2(self):
        g = sbm_graph([15, 15], 0.6, 0.05, 21)
        rng = np.random.default_rng(0)
        x = rng.normal(size=g.n)
        pyramid = analyze_cascade(g, x, PartitionConfig("sc", seed=1), p=2,
                                  max_levels=2)
        coeff_sq = sum(float(np.sum(np.square(c))) for level in pyramid.levels
                       for c in level.channels[1:])
        coeff_sq += float(np.sum(np.square(pyramid.final_approximation)))
        assert coeff_sq == pytest.approx(float(np.sum(np.square(x))), rel=1e-9)
        # discarded energy equals squared reconstruction error
        keep = pyramid.detail_counts() // 3
        compressed = nla_compress(pyramid, keep)
        rec = synthesize_cascade(compressed)
        dropped = sum(float(np.sum(np.square(a - b)))
                      for la, lb in zip(pyramid.levels, compressed.levels)
                      for a, b in zip(la.channels[1:], lb.channels[1:]))
        assert dropped == pytest.approx(float(np.sum(np.square(x - rec))), rel=1e-9)


class TestBestLevelNla:
    def test_single_level_cascade_returns_level_one(self, toy_graph, toy_partition):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        result = best_level_nla(toy_graph, x, [toy_partition], keep_hp=1, p=1)
        assert result.level == 1
        assert result.kept_lp == 2
        assert result.ratio == pytest.approx(5 / 3)

    def test_keep_all_gives_infinite_psnr(self, toy_graph, toy_partition):
        x = np.array([1.0, -1.0, 0.5, 0.25, 0.0])
        result = best_level_nla(toy_graph, x, [toy_partition], keep_hp=3, p=1)
        assert result.psnr == math.inf

    def test_fraction_one_keeps_every_detail(self, toy_graph, toy_partition):
        x = np.array([1.0, -1.0, 0.5, 0.25, 0.0])
        result = best_level_nla(toy_graph, x, [toy_partition], keep_hp=1.0, p=1)
        assert result.kept_hp == 3
        assert result.psnr == math.inf

    @pytest.mark.parametrize("fraction", [1.5, -0.25, 2.0, math.nan])
    def test_fraction_outside_unit_interval_rejected(self, toy_graph, toy_partition,
                                                     fraction):
        x = np.array([1.0, -1.0, 0.5, 0.25, 0.0])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            best_level_nla(toy_graph, x, [toy_partition], keep_hp=fraction, p=1)

    def test_fraction_keep(self):
        g = sbm_graph([30, 30], 0.4, 0.02, 4)
        x = smooth_test_signal(g, 3)
        result = best_level_nla(g, x, PartitionConfig("sc", seed=2), keep_hp=0.1,
                                p=2, max_levels=3)
        assert 0 < result.kept_hp
        assert result.ratio > 1.0


class TestDenoise:
    def test_zero_sigma_is_identity(self, toy_graph, toy_partition):
        rng = np.random.default_rng(5)
        x = rng.normal(size=5)
        out = denoise(toy_graph, x, sigma=0.0, levels=1, partitions=[toy_partition])
        assert np.abs(out - x).max() < 1e-10

    def test_blockwise_constant_clean_signal_is_kept(self, toy_graph, toy_partition):
        x = np.array([1.0, 1.0, 1.0, -1.0, -1.0])
        out = denoise(toy_graph, x, sigma=0.3, levels=1, partitions=[toy_partition])
        assert np.abs(out - x).max() < 1e-10

    def test_warns_for_l1(self, toy_graph, toy_partition):
        with pytest.warns(UserWarning, match="L2"):
            denoise(toy_graph, np.zeros(5), sigma=0.1, levels=1,
                    partitions=[toy_partition], p=1)

    def test_improves_snr_on_noisy_blocks(self):
        g = sbm_graph([50, 50], 0.3, 0.01, 19)
        clean = np.where(np.arange(g.n) < 50, 1.0, -1.0)
        rng = np.random.default_rng(100)
        gains = []
        for _ in range(10):
            noisy = clean + rng.normal(scale=0.25, size=g.n)
            out = denoise(g, noisy, sigma=0.25, levels=1,
                          partitions=PartitionConfig("lc", tau=1000, seed=1), p=2)
            gains.append(snr(clean, out) - snr(clean, noisy))
        assert np.median(gains) > 0.0

    def test_negative_sigma_rejected(self, toy_graph, toy_partition):
        with pytest.raises(ValueError, match="non-negative"):
            denoise(toy_graph, np.zeros(5), sigma=-1.0, levels=1,
                    partitions=[toy_partition])

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, toy_graph, toy_partition, sigma):
        with pytest.raises(ValueError, match="finite"):
            denoise(toy_graph, np.zeros(5), sigma=sigma, levels=1,
                    partitions=[toy_partition])


class TestSmoothTestSignal:
    def test_single_mode_is_unit_constant(self):
        g = sbm_graph([12], 0.7, 0.0, 2)
        x = smooth_test_signal(g, 1)
        assert np.allclose(x, np.ones(g.n), atol=1e-12)

    def test_unit_peak(self):
        g = sbm_graph([10, 10], 0.6, 0.1, 6)
        for k in (1, 3, 5):
            assert np.abs(smooth_test_signal(g, k)).max() == pytest.approx(1.0, abs=1e-15)

    def test_disconnected_rejected(self):
        g = WeightedGraph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            smooth_test_signal(g, 2)

    def test_mode_count_validated(self):
        g = sbm_graph([8], 0.9, 0.0, 1)
        with pytest.raises(ValueError, match="mode count"):
            smooth_test_signal(g, 9)
