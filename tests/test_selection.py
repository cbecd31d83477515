"""Frame sampling, attention scoring, and top-K selection against oracles."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framescope.errors import ArgumentError
from framescope.features import EncoderSpec, FrameFeatures, synth_image_features
from framescope.selection import (
    FrameScore,
    KeyFrameSet,
    _block_plan,
    frame_scores,
    spatial_attention,
    top_k_frames,
    uniform_sample_indices,
)


def features_from_tokens(values, frames, grid, depth):
    """Wrap a flat token value list as (T, H, W, D) FrameFeatures."""
    arr = np.array(values, dtype=np.float32).reshape(frames, grid[0], grid[1], depth)
    return FrameFeatures(arr)


def attention_oracle(flat):
    """Hand-rolled softmax(Q K^T / sqrt(d)) in pure python."""
    s, d = flat.shape
    logits = [[sum(float(flat[i, l]) * float(flat[j, l]) for l in range(d)) / math.sqrt(d)
               for j in range(s)] for i in range(s)]
    out = []
    for row in logits:
        m = max(row)
        e = [math.exp(v - m) for v in row]
        z = sum(e)
        out.append([v / z for v in e])
    return np.array(out)


def score_oracle(tensor):
    """Naive float64 dense scorer: logits, row softmax, column sums, per-frame sums."""
    t, h, w, d = tensor.shape
    flat = tensor.reshape(t * h * w, d).astype(np.float64)
    attention = flat @ flat.T / math.sqrt(d)
    attention -= attention.max(axis=1, keepdims=True)
    np.exp(attention, out=attention)
    attention /= attention.sum(axis=1, keepdims=True)
    return attention.sum(axis=0).reshape(t, h * w).sum(axis=1)


REALISTIC_S = 16 * 196  # 16 frames of 14 x 14 tokens


def scorer_peak_bytes():
    """tracemalloc peak of one ``frame_scores`` call at S = 3136, D = 768."""
    feats = synth_image_features(6, 16, EncoderSpec("synthetic-image", (14, 14), 768))
    tracemalloc.start()
    try:
        frame_scores(feats)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def top_k_oracle(scores, k):
    """Brute-force stable sort: highest score first, ties to lower index."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(order[:k])


class TestUniformSampling:
    def test_identity(self):
        assert uniform_sample_indices(16, 16) == list(range(16))

    def test_stride_two(self):
        assert uniform_sample_indices(32, 16) == list(range(0, 32, 2))

    def test_repetition_when_short(self):
        assert uniform_sample_indices(4, 8) == [0, 0, 1, 1, 2, 2, 3, 3]

    @pytest.mark.parametrize("total,frames", [(0, 4), (4, 0), (-1, 2)])
    def test_non_positive_rejected(self, total, frames):
        with pytest.raises(ArgumentError):
            uniform_sample_indices(total, frames)


class TestSpatialAttention:
    def test_single_token(self):
        f = features_from_tokens([3.0], 1, (1, 1), 1)
        assert np.array_equal(spatial_attention(f), [[1.0]])

    def test_two_identical_tokens(self):
        f = features_from_tokens([2.0, 2.0], 1, (1, 2), 1)
        assert np.allclose(spatial_attention(f), 0.5)

    def test_matches_hand_oracle(self):
        f = features_from_tokens([0.0, 1.0, 2.0, 3.0], 2, (1, 2), 1)
        sa = spatial_attention(f)
        assert np.allclose(sa, attention_oracle(f.tensor.reshape(4, 1)), atol=1e-6)

    def test_rows_sum_to_one(self):
        feats = synth_image_features(1, 3, EncoderSpec("synthetic-image", (3, 3), 8))
        sa = spatial_attention(feats)
        assert np.allclose(sa.sum(axis=1), 1.0, atol=1e-12)


class TestFrameScores:
    def test_identical_frames_share_mass_equally(self):
        one = synth_image_features(4, 1, EncoderSpec("synthetic-image", (2, 2), 3))
        stacked = FrameFeatures(np.repeat(one.tensor, 4, axis=0))
        fs = frame_scores(stacked)
        s = 4 * 4  # total tokens
        assert np.allclose(fs.scores, s / 4, atol=1e-6)

    def test_high_norm_token_attracts_attention(self):
        # logits [[0,0],[0,100]]: frame 1 receives 1.5 units, frame 0 only 0.5
        f = features_from_tokens([0.0, 10.0], 2, (1, 1), 1)
        fs = frame_scores(f)
        assert fs.scores[1] > fs.scores[0]
        assert fs.scores[0] == pytest.approx(0.5, abs=1e-6)
        assert fs.scores[1] == pytest.approx(1.5, abs=1e-6)

    def test_streaming_equals_dense(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            t = int(rng.integers(1, 9))
            g = int(rng.integers(1, 9))
            d = int(rng.integers(1, 33))
            feats = synth_image_features(trial, t, EncoderSpec("synthetic-image", (g, g), d))
            dense = score_oracle(feats.tensor)
            stream = frame_scores(feats).scores
            assert np.max(np.abs(dense - stream)) < 1e-5

    @pytest.mark.parametrize(
        "t, grid, plan",
        [
            (5, (14, 14), [(0, 4), (4, 5)]),
            (17, (8, 8), [(0, 12), (12, 17)]),
            (33, (6, 6), [(0, 21), (21, 33)]),
        ],
    )
    def test_frame_counts_off_the_block_size_match_oracle(self, t, grid, plan):
        assert _block_plan(t, grid[0] * grid[1]) == plan
        feats = synth_image_features(t, t, EncoderSpec("synthetic-image", grid, 32))
        assert np.max(np.abs(frame_scores(feats).scores - score_oracle(feats.tensor))) < 1e-5

    def test_one_token_frames_across_a_ragged_last_block(self):
        # 784 one-token frames per block: two full blocks and a ragged one of 37 frames
        s = 2 * 784 + 37
        assert _block_plan(s, 1)[-1] == (2 * 784, s)
        feats = synth_image_features(2, s, EncoderSpec("synthetic-image", (1, 1), 16))
        assert np.max(np.abs(frame_scores(feats).scores - score_oracle(feats.tensor))) < 1e-5

    def test_late_high_norm_frame_raises_running_maxes(self):
        # the last block's logits dominate, so every earlier row's max rises after its first block
        tensor = synth_image_features(4, 8, EncoderSpec("synthetic-image", (14, 14), 16)).tensor
        tensor[7] *= np.float32(4.0)
        assert len(_block_plan(8, 196)) == 2
        got = frame_scores(tensor).scores
        assert got[7] > got[:7].max()
        assert np.max(np.abs(got - score_oracle(tensor))) < 1e-5

    def test_frame_larger_than_the_block_budget(self):
        # 900 tokens per frame exceed the 784-row budget: one frame per block
        assert _block_plan(3, 900) == [(0, 1), (1, 2), (2, 3)]
        feats = synth_image_features(9, 3, EncoderSpec("synthetic-image", (30, 30), 16))
        assert np.max(np.abs(frame_scores(feats).scores - score_oracle(feats.tensor))) < 1e-5

    @pytest.mark.parametrize("shape", [(0, 2, 2, 3), (2, 0, 2, 3), (2, 2, 2, 0)])
    def test_empty_feature_dims_rejected(self, shape):
        with pytest.raises(ArgumentError, match="positive"):
            frame_scores(np.zeros(shape, dtype=np.float32))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        t=st.integers(1, 24),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        d=st.integers(1, 64),
        scale=st.floats(0.25, 4.0),
    )
    def test_both_methods_match_float64_oracle(self, seed, t, h, w, d, scale):
        # S = t*h*w reaches 1944; past 784 rows the frames split into several blocks
        tensor = synth_image_features(seed, t, EncoderSpec("synthetic-image", (h, w), d)).tensor
        tensor = tensor * np.float32(scale)
        expected = score_oracle(tensor)
        got = frame_scores(tensor).scores
        columns = spatial_attention(tensor).sum(axis=0).reshape(t, h * w).sum(axis=1)
        assert np.max(np.abs(got - expected)) < 1e-5
        assert np.max(np.abs(got - columns)) < 1e-5

    def test_realistic_geometry_matches_oracle_and_conserves_mass(self):
        # 16 frames of 14 x 14 tokens at D = 768: S = 3136, four 784-row blocks
        feats = synth_image_features(5, 16, EncoderSpec("synthetic-image", (14, 14), 768))
        fs = frame_scores(feats)
        assert abs(fs.total_mass - 16 * 196) < 1e-9
        # float32 logits put the error at float32 epsilon relative to each score
        assert np.allclose(fs.scores, score_oracle(feats.tensor), rtol=1e-7, atol=0)

    def test_streaming_peak_allocation_is_bounded(self):
        # a few 784-row blocks of float64 (14.8 MB), far below one S x S matrix (78.7 MB)
        assert scorer_peak_bytes() < 3 * 784 * 784 * 8

    def test_scorer_makes_no_float64_block_copy(self):
        # a float64 copy of one 784 x 784 block alone is 4.9 MB
        assert scorer_peak_bytes() < 784 * 784 * 8

    def test_scorer_holds_only_the_block_buffer(self):
        # the float32 block and slice buffers, the (S, T) float64 partials and a few S-long vectors
        s = REALISTIC_S
        assert scorer_peak_bytes() < 784 * 784 * 4 + 196 * 784 * 4 + s * 16 * 8 + 8 * s * 8

    def test_float64_features_match_oracle(self):
        feats = synth_image_features(7, 6, EncoderSpec("synthetic-image", (7, 7), 64))
        tensor = feats.tensor.astype(np.float64)
        fs = frame_scores(tensor)
        assert np.allclose(fs.scores, score_oracle(tensor), rtol=1e-12, atol=0)

    def test_conservation(self):
        for seed in range(5):
            feats = synth_image_features(seed, 4, EncoderSpec("synthetic-image", (4, 4), 8))
            fs = frame_scores(feats)
            s = 4 * 16
            assert abs(fs.total_mass - s) < 1e-4

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            feats = synth_image_features(trial, 6, EncoderSpec("synthetic-image", (3, 3), 8))
            perm = rng.permutation(6)
            permuted = FrameFeatures(feats.tensor[perm])
            base = frame_scores(feats).scores
            moved = frame_scores(permuted).scores
            assert np.max(np.abs(moved - base[perm])) < 1e-6
            kf_base = set(top_k_frames(frame_scores(feats), 3).indices)
            kf_moved = top_k_frames(frame_scores(permuted), 3).indices
            assert {int(perm[i]) for i in kf_moved} == kf_base


class TestTopK:
    def test_example(self):
        assert top_k_frames(np.array([0.1, 0.9, 0.5, 0.7]), 2).indices == (1, 3)

    def test_k_equals_t(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(0, 1, size=6)
        assert top_k_frames(scores, 6).indices == tuple(range(6))

    def test_ties_break_to_lowest_index(self):
        assert top_k_frames(np.ones(8), 3).indices == (0, 1, 2)

    def test_exhaustive_small_permutations(self):
        values = [0.5, 1.25, 2.0, 3.5, 7.0, 9.0]
        for perm in itertools.permutations(values):
            scores = np.array(perm)
            for k in range(1, 7):
                assert list(top_k_frames(scores, k).indices) == top_k_oracle(perm, k)

    def test_random_vectors_match_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            scores = rng.uniform(0, 10, size=16)
            k = int(rng.integers(1, 17))
            assert list(top_k_frames(scores, k).indices) == top_k_oracle(list(scores), k)

    @settings(max_examples=200, deadline=None)
    @given(
        scores=st.lists(
            st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 1e6)),
            min_size=1,
            max_size=24,
        ),
        data=st.data(),
    )
    def test_matches_sort_oracle_with_ties(self, scores, data):
        # values drawn from a three-element pool force ties between frames
        k = data.draw(st.integers(1, len(scores)))
        assert list(top_k_frames(np.array(scores), k).indices) == top_k_oracle(scores, k)

    @pytest.mark.parametrize("k", [0, 5, -1])
    def test_k_out_of_range(self, k):
        with pytest.raises(ArgumentError):
            top_k_frames(np.ones(4), k)


class TestScoreAndKeyFrameTypes:
    def test_negative_scores_rejected(self):
        with pytest.raises(ArgumentError):
            FrameScore(np.array([1.0, -0.5]))

    def test_keyframes_must_increase(self):
        with pytest.raises(ArgumentError):
            KeyFrameSet((3, 1))
        with pytest.raises(ArgumentError):
            KeyFrameSet((-1, 2))
