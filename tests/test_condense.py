"""Slice trimming, threshold selection, box pooling and patch painting."""

import math

import numpy as np
import pytest
from conftest import LookupScorer, constant_slice_volume, make_volume, normalized_stack
from hypothesis import given
from hypothesis import strategies as st
from test_boxes import reference_nms

from tomoscreen.boxes import ScoredBox
from tomoscreen.condense import (
    OptimizedImage,
    aggregate_boxes,
    build_optimized_image,
    choose_score_threshold,
    detect_slices,
    study_max_box_score,
    trimmed_slices,
)
from tomoscreen.imaging import PGM_MAXVAL, ImageGrid, normalize_volume
from tomoscreen.phantom import LesionSpec, PhantomConfig, generate_case, generate_volume
from tomoscreen.scorer import (
    default_condense_scorer,
    default_ensemble,
    ensemble_image_score,
    mil_image_score,
)


def box(x0, y0, x1, y1, score, s=None):
    return ScoredBox(x0, y0, x1, y1, score, slice_index=s)


def condensed_boxes(vol, scorer, score_threshold, iou_threshold):
    """The boxes condensation keeps: detection on the trimmed slices of
    the normalized volume, thresholded and suppressed."""
    boxes = detect_slices(vol, scorer, trimmed_slices(vol.n_slices))
    return aggregate_boxes(boxes, score_threshold, iou_threshold)


def phantom_volumes():
    cfg = PhantomConfig(
        width=64,
        height=80,
        n_slices=10,
        background_texture_scale=24.0,
        clutter_density=1.0,
        noise_sigma=18.0,
        seed=4,
    )
    cases = (generate_case(cfg, f"case-{k}", k == 0, (60.0, 220.0)) for k in range(2))
    return [normalize_volume(samples) for samples, _, _ in cases]


class TestSliceRange:
    def test_examples(self):
        assert trimmed_slices(100) == range(10, 90)
        assert trimmed_slices(10) == range(1, 9)
        assert trimmed_slices(9) == range(0, 9)
        assert trimmed_slices(1) == range(0, 1)

    @given(st.integers(min_value=1, max_value=5000))
    def test_trims_ten_percent_each_side(self, n):
        kept = trimmed_slices(n)
        skip = n // 10
        assert (kept.start, kept.stop, kept.step) == (skip, n - skip, 1)
        assert 0 <= kept[0] <= kept[-1] < n


class TestDetectSlices:
    def test_matches_per_slice_detect_on_phantoms(self):
        scorer = default_condense_scorer()
        for vol in phantom_volumes():
            norm = normalized_stack(vol)
            for slices in (range(vol.n_slices), trimmed_slices(vol.n_slices), [7, 2]):
                expected = [
                    b.with_slice(i) for i in slices for b in scorer.detect(ImageGrid(norm[i]))
                ]
                assert expected
                assert detect_slices(vol, scorer, slices) == expected


class TestChooseScoreThreshold:
    def test_kth_largest_positive(self):
        assert choose_score_threshold([0.8, 0.9, 0.7], 0.99) == 0.7
        assert choose_score_threshold([0.8, 0.9, 0.7, 0.6], 0.5) == 0.8

    def test_target_zero_keeps_top_positive(self):
        assert choose_score_threshold([0.8, 0.9], 0.0) == 0.9

    def test_saturated_scores(self):
        assert choose_score_threshold([1.0] * 5, 0.99) == 1.0

    def test_needs_a_positive(self):
        with pytest.raises(ValueError, match="at least one positive"):
            choose_score_threshold([], 0.9)

    def test_target_out_of_range(self):
        for target in (1.5, -0.1):
            with pytest.raises(ValueError, match="outside"):
                choose_score_threshold([0.5], target)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_largest_threshold_meeting_target(self, pos, target):
        t = choose_score_threshold(pos, target)

        def sens(th):
            return sum(1 for s in pos if s >= th) / len(pos)

        assert t in pos and sens(t) >= target
        # the order of the scores never matters
        assert t == choose_score_threshold(reversed(pos), target)
        # strictly higher candidate thresholds miss the target
        above = [s for s in pos if s > t]
        if above and target > 0:
            assert sens(min(above)) < target


class TestAggregateBoxes:
    def test_no_detections(self):
        vol = constant_slice_volume(10)
        assert condensed_boxes(vol, LookupScorer(10, {}), 0.0, 0.2) == []

    def test_overlapping_cluster_keeps_best_slice(self):
        vol = constant_slice_volume(10)
        b = {
            4: [box(10, 10, 20, 20, 0.6)],
            5: [box(11, 11, 21, 21, 0.9)],
            6: [box(10, 11, 20, 21, 0.7)],
        }
        kept = condensed_boxes(vol, LookupScorer(10, b), 0.0, 0.2)
        assert len(kept) == 1
        assert kept[0].score == 0.9
        assert kept[0].slice_index == 5

    def test_disjoint_clusters_each_survive(self):
        vol = constant_slice_volume(10)
        b = {
            4: [box(10, 10, 20, 20, 0.6)],
            5: [box(10, 10, 20, 20, 0.9)],
            6: [box(30, 30, 38, 38, 0.5)],
            7: [box(30, 30, 38, 38, 0.8)],
        }
        kept = condensed_boxes(vol, LookupScorer(10, b), 0.0, 0.2)
        assert {(k.slice_index, k.score) for k in kept} == {(5, 0.9), (7, 0.8)}

    def test_score_threshold_drops_boxes(self):
        vol = constant_slice_volume(10)
        b = {4: [box(10, 10, 20, 20, 0.6)], 6: [box(30, 30, 38, 38, 0.8)]}
        kept = condensed_boxes(vol, LookupScorer(10, b), 0.7, 0.2)
        assert [k.score for k in kept] == [0.8]
        # boundary: the threshold itself is kept (>=)
        kept = condensed_boxes(vol, LookupScorer(10, b), 0.6, 0.2)
        assert {k.score for k in kept} == {0.6, 0.8}

    def test_edge_slices_never_contribute(self):
        vol = constant_slice_volume(10)
        b = {
            0: [box(10, 10, 20, 20, 0.99)],
            9: [box(30, 30, 38, 38, 0.98)],
            1: [box(50, 5, 58, 13, 0.4)],
        }
        kept = condensed_boxes(vol, LookupScorer(10, b), 0.0, 0.2)
        assert [(k.slice_index, k.score) for k in kept] == [(1, 0.4)]

    def test_matches_pool_then_reference_nms(self, rng):
        n_slices = 12
        vol = constant_slice_volume(n_slices)
        by_slice = {}
        for s in range(n_slices):
            boxes = []
            for _ in range(rng.integers(0, 5)):
                x0, y0 = rng.uniform(0, 60, size=2)
                w, h = rng.uniform(4, 25, size=2)
                boxes.append(box(x0, y0, x0 + w, y0 + h, round(float(rng.random()), 2)))
            by_slice[s] = boxes
        for iou_t in (0.1, 0.2, 0.5):
            got = condensed_boxes(vol, LookupScorer(n_slices, by_slice), 0.0, iou_t)
            pooled = [b.with_slice(s) for s in range(1, n_slices - 1) for b in by_slice[s]]
            assert got == reference_nms(pooled, iou_t)


class TestBuildOptimizedImage:
    def test_no_boxes_keeps_center_slice(self):
        vol = constant_slice_volume(10)
        opt = build_optimized_image(vol, [])
        assert np.array_equal(opt.image.data, vol.slice(5).data)
        assert np.all(opt.provenance == 5)
        assert opt.kept_boxes == [] and opt.clip_warnings == ()

    def test_single_box_paints_its_slice(self):
        vol = constant_slice_volume(10)
        opt = build_optimized_image(vol, [box(10, 8, 20, 16, 0.5, s=2)])
        norm = normalized_stack(vol)
        assert np.all(opt.image.data[8:16, 10:20] == norm[2, 0, 0])
        assert np.all(opt.provenance[8:16, 10:20] == 2)
        assert opt.image.data[0, 0] == norm[5, 0, 0] and opt.provenance[0, 0] == 5

    def test_fractional_box_covers_touched_pixels(self):
        vol = constant_slice_volume(10)
        opt = build_optimized_image(vol, [box(10.3, 8.9, 19.2, 15.1, 0.5, s=3)])
        assert np.all(opt.provenance[8:16, 10:20] == 3)
        assert opt.provenance[7, 10] == 5 and opt.provenance[8, 9] == 5

    def test_higher_score_paints_last_on_residual_overlap(self):
        vol = constant_slice_volume(10)
        weak = box(18, 10, 28, 20, 0.4, s=7)
        strong = box(10, 10, 20, 20, 0.9, s=2)
        # iou = 20 / 180, below a 0.2 NMS threshold, so both can coexist
        opt = build_optimized_image(vol, [strong, weak])
        assert np.all(opt.provenance[10:20, 18:20] == 2)
        assert np.all(opt.provenance[10:20, 20:28] == 7)
        assert np.all(opt.provenance[10:20, 10:18] == 2)

    def test_tied_scores_fall_back_to_input_order(self):
        vol = constant_slice_volume(10)
        a = box(10, 10, 20, 20, 0.5, s=2)
        b = box(18, 10, 28, 20, 0.5, s=7)
        opt = build_optimized_image(vol, [a, b])
        # b painted second, so the shared strip belongs to slice 7
        assert np.all(opt.provenance[10:20, 18:20] == 7)

    def test_out_of_grid_box_is_clipped_and_recorded(self):
        vol = constant_slice_volume(10)
        opt = build_optimized_image(vol, [box(30, 10, 55, 20, 0.5, s=3)])
        assert len(opt.clip_warnings) == 1
        assert np.all(opt.provenance[10:20, 30:40] == 3)
        assert opt.image.data.shape == (40, 40)

    def test_box_without_slice_rejected(self):
        vol = constant_slice_volume(10)
        with pytest.raises(ValueError):
            build_optimized_image(vol, [box(10, 10, 20, 20, 0.5)])

    def test_box_with_bad_slice_rejected(self):
        vol = constant_slice_volume(10)
        with pytest.raises(ValueError):
            build_optimized_image(vol, [box(10, 10, 20, 20, 0.5, s=12)])

    def test_every_pixel_comes_from_its_provenance_slice(self, rng):
        vol = make_volume(rng.integers(0, PGM_MAXVAL + 1, size=(8, 32, 48)))
        boxes = []
        for _ in range(25):
            x0 = float(rng.uniform(-5, 45))
            y0 = float(rng.uniform(-5, 30))
            w, h = rng.uniform(3, 18, size=2)
            s = int(rng.integers(0, 8))
            boxes.append(box(x0, y0, x0 + float(w), y0 + float(h), float(rng.random()), s=s))
        opt = build_optimized_image(vol, boxes)
        expected = np.take_along_axis(normalized_stack(vol), opt.provenance[None, :, :], axis=0)[0]
        assert opt.image.data.tobytes() == expected.tobytes()

    def test_raw_pick_by_provenance_equals_raw_painting(self):
        vol = constant_slice_volume(10)
        b = {
            3: [box(10, 10, 20, 20, 0.6), box(22, 5, 30, 14, 0.5)],
            5: [box(18, 12, 28, 22, 0.9)],
            6: [box(8, 18, 16, 30, 0.7)],
        }
        kept = condensed_boxes(vol, LookupScorer(10, b), 0.0, 0.5)
        assert len(kept) == 4  # overlapping boxes survive a loose NMS
        painted = build_optimized_image(vol, kept)
        raw = vol.samples[5].copy()  # the same painting, of the samples
        for k in sorted(kept, key=lambda k: k.score):
            x0, y0, x1, y1 = (int(v) for v in (k.x_min, k.y_min, k.x_max, k.y_max))
            raw[y0:y1, x0:x1] = vol.samples[k.slice_index, y0:y1, x0:x1]
        picked = np.take_along_axis(vol.samples, painted.provenance[None], axis=0)[0]
        assert picked.tobytes() == raw.tobytes()

    def test_provenance_shape_guard(self):
        img = ImageGrid(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            OptimizedImage(image=img, provenance=np.zeros((3, 4), dtype=np.int32), kept_boxes=[])


class TestCondenseVolume:
    def test_composition(self):
        """The painted composite is, byte for byte, the samples picked by its
        provenance put through the volume's affine; a constant volume
        paints zeros."""
        cases = [
            (vol, condensed_boxes(vol, default_condense_scorer(), 0.0, 0.2))
            for vol in phantom_volumes()
        ]
        assert all(kept for _, kept in cases)
        cases.append((make_volume(np.full((10, 40, 40), 7.0)), [box(10, 10, 20, 20, 0.5, s=3)]))
        for vol, kept in cases:
            painted = build_optimized_image(vol, kept)
            picked = np.take_along_axis(vol.samples, painted.provenance[None], axis=0)[0]
            raw = picked.astype(np.float64)
            lo, hi = float(vol.samples.min()), float(vol.samples.max())
            expected = (raw - lo) / (hi - lo) * 255 - 127.5 if hi > lo else np.zeros_like(raw)
            assert painted.image.data.tobytes() == expected.tobytes()

    def test_condensed_beats_center_slice_on_off_center_lesion(self):
        cfg = PhantomConfig(
            width=96,
            height=128,
            n_slices=20,
            background_texture_scale=24.0,
            clutter_density=0.0,
            noise_sigma=0.0,
            seed=0,
        )
        les = LesionSpec(
            center_x=40.5,
            center_y=60.5,
            radius=9.0,
            center_slice=5,
            slice_extent=3,
            contrast=150.0,
            malignant=True,
        )
        norm = normalize_volume(generate_volume(cfg, [les])[0])
        kept = condensed_boxes(norm, default_condense_scorer(), 0.0, 0.2)
        ensemble = default_ensemble()
        opt = build_optimized_image(norm, kept).image
        opt_score = ensemble_image_score([s.detect(opt) for s in ensemble])
        ctr_score = ensemble_image_score([s.detect(norm.slice(10)) for s in ensemble])
        assert opt_score > ctr_score


class TestStudyMaxBoxScore:
    def test_empty_volume_scores_zero(self):
        vol = constant_slice_volume(10)
        assert study_max_box_score(vol, LookupScorer(10, {})) == 0.0

    def test_max_over_trimmed_slices_only(self):
        vol = constant_slice_volume(10)
        b = {
            0: [box(10, 10, 20, 20, 0.99)],
            3: [box(10, 10, 20, 20, 0.7)],
            9: [box(10, 10, 20, 20, 0.95)],
        }
        scorer = LookupScorer(10, b)
        assert study_max_box_score(vol, scorer) == 0.7

    def test_agrees_with_direct_scan(self, rng):
        n = 12
        vol = constant_slice_volume(n)
        by_slice = {
            s: [box(5 + s, 5, 15 + s, 15, round(float(rng.random()), 3))]
            for s in range(n)
        }
        scorer = LookupScorer(n, by_slice)
        direct = max(mil_image_score(scorer.detect(vol.slice(i))) for i in range(1, n - 1))
        assert study_max_box_score(vol, scorer) == direct


class TestSliceMaxScore:
    """The no-condensation baseline: the max box score over all slices of
    one detection pass, with no edge trim and no cross-slice suppression."""

    def test_sees_edge_slices_the_trimmed_scan_misses(self):
        vol = constant_slice_volume(10)
        b = {0: [box(10, 10, 20, 20, 0.99)], 5: [box(10, 10, 20, 20, 0.3)]}
        scorer = LookupScorer(10, b)
        assert mil_image_score(detect_slices(vol, scorer, range(10))) == 0.99
        assert study_max_box_score(vol, scorer) == 0.3

    def test_empty_detections_score_zero(self):
        vol = constant_slice_volume(4)
        assert mil_image_score(detect_slices(vol, LookupScorer(4, {}), range(4))) == 0.0
