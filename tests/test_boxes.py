"""Scored boxes, IOU as NMS applies it, NMS against a quadratic reference,
CSV round-trips."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tomoscreen.boxes import ScoredBox, nms, write_boxes_csv


def reference_iou(a: ScoredBox, b: ScoredBox) -> float:
    """Textbook IOU from first principles."""
    ix = max(0.0, min(a.x_max, b.x_max) - max(a.x_min, b.x_min))
    iy = max(0.0, min(a.y_max, b.y_max) - max(a.y_min, b.y_min))
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union if union > 0 else 0.0


def reference_nms(boxes: list[ScoredBox], threshold: float) -> list[ScoredBox]:
    """Quadratic greedy suppression, written independently of the library:
    walk boxes in (score desc, input order) and keep each one unless it
    overlaps an already-kept box with IOU strictly above the threshold."""
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, i))
    kept: list[ScoredBox] = []
    for i in order:
        if all(reference_iou(boxes[i], k) <= threshold for k in kept):
            kept.append(boxes[i])
    return kept


def random_boxes(rng: np.random.Generator, n: int) -> list[ScoredBox]:
    out = []
    for _ in range(n):
        x0, y0 = rng.uniform(0, 80, size=2)
        w, h = rng.uniform(1, 30, size=2)
        # quantized scores force ties through the ordering tie-break
        score = round(float(rng.random()), 2)
        out.append(ScoredBox(x0, y0, x0 + w, y0 + h, score))
    return out


class TestScoredBox:
    def test_rejects_empty_extent(self):
        with pytest.raises(ValueError):
            ScoredBox(1.0, 0.0, 1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            ScoredBox(0.0, 3.0, 1.0, 2.0, 0.5)

    def test_rejects_score_outside_unit_interval(self):
        with pytest.raises(ValueError):
            ScoredBox(0, 0, 1, 1, 1.5)
        with pytest.raises(ValueError):
            ScoredBox(0, 0, 1, 1, -0.1)

    def test_rejects_negative_slice_index(self):
        with pytest.raises(ValueError):
            ScoredBox(0, 0, 1, 1, 0.5, slice_index=-1)

    def test_area_and_with_slice(self):
        box = ScoredBox(1.0, 2.0, 4.0, 6.0, 0.5)
        assert box.area == 12.0
        tagged = box.with_slice(7)
        assert tagged.slice_index == 7
        assert (tagged.x_min, tagged.y_min, tagged.x_max, tagged.y_max) == (1, 2, 4, 6)
        assert box.slice_index is None


class TestIou:
    """IOU as nms applies it: a kept box suppresses a lower-scored one only
    when their IOU is strictly above the threshold."""

    @staticmethod
    def survives(a: ScoredBox, b: ScoredBox, threshold: float) -> bool:
        """Whether b, scored below a, is kept beside a."""
        return len(nms([a, b], threshold)) == 2

    def test_identical_boxes(self):
        a, b = ScoredBox(0, 0, 4, 4, 0.9), ScoredBox(0, 0, 4, 4, 0.5)
        assert self.survives(a, b, 1.0)  # IOU exactly 1
        assert not self.survives(a, b, math.nextafter(1.0, 0.0))

    def test_disjoint_boxes(self):
        assert self.survives(ScoredBox(0, 0, 1, 1, 0.9), ScoredBox(5, 5, 6, 6, 0.5), 0.0)

    def test_touching_edges_count_as_disjoint(self):
        assert self.survives(ScoredBox(0, 0, 1, 1, 0.9), ScoredBox(1, 0, 2, 1, 0.5), 0.0)

    def test_hand_computed_overlap(self):
        # 4x4 boxes overlapping in a 2x2 corner: inter 4, union 28
        a = ScoredBox(0, 0, 4, 4, 0.9)
        b = ScoredBox(2, 2, 6, 6, 0.5)
        assert self.survives(a, b, 1 / 7)
        assert not self.survives(a, b, math.nextafter(1 / 7, 0.0))

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_matches_reference_and_symmetric(self, seed, threshold):
        rng = np.random.default_rng(seed)
        a, b = random_boxes(rng, 2)
        overlap = reference_iou(a, b)
        assume(abs(overlap - threshold) > 1e-12)
        hi, lo = replace(a, score=0.9), replace(b, score=0.5)
        assert self.survives(hi, lo, threshold) == (overlap <= threshold)
        swapped = replace(b, score=0.9), replace(a, score=0.5)
        assert self.survives(*swapped, threshold) == self.survives(hi, lo, threshold)


class TestNms:
    def test_empty_input(self):
        assert nms([], 0.2) == []

    def test_single_box_kept(self):
        box = ScoredBox(0, 0, 2, 2, 0.3)
        assert nms([box], 0.2) == [box]

    def test_suppression_is_strict_above_threshold(self):
        a = ScoredBox(0, 0, 2, 2, 0.9)
        b = ScoredBox(1, 0, 3, 2, 0.5)  # iou exactly 1/3 with a
        kept = nms([a, b], 1 / 3)
        assert kept == [a, b]  # equality does not suppress
        assert nms([a, b], 0.33) == [a]

    def test_keeps_highest_scorer_among_overlaps(self):
        stack = [
            ScoredBox(0, 0, 10, 10, 0.6),
            ScoredBox(1, 1, 11, 11, 0.9),
            ScoredBox(0.5, 0.5, 10.5, 10.5, 0.7),
        ]
        kept = nms(stack, 0.2)
        assert len(kept) == 1 and kept[0].score == 0.9

    def test_result_sorted_by_descending_score(self):
        rng = np.random.default_rng(5)
        kept = nms(random_boxes(rng, 30), 0.3)
        scores = [b.score for b in kept]
        assert scores == sorted(scores, reverse=True)

    def test_kept_boxes_form_an_antichain(self):
        rng = np.random.default_rng(6)
        kept = nms(random_boxes(rng, 40), 0.25)
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert reference_iou(kept[i], kept[j]) <= 0.25 + 1e-12

    @pytest.mark.parametrize("threshold", [0.1, 0.2, 0.5])
    def test_matches_quadratic_reference(self, threshold):
        rng = np.random.default_rng(int(threshold * 1000))
        for _ in range(200):
            boxes = random_boxes(rng, int(rng.integers(0, 50)))
            assert nms(boxes, threshold) == reference_nms(boxes, threshold)

    @pytest.mark.parametrize("threshold", [0.0, 0.2, 1.0])
    def test_matches_reference_across_blocks(self, threshold):
        # more boxes than one block of IOU rows, so later blocks must see
        # the suppressions made by earlier ones
        boxes = random_boxes(np.random.default_rng(7), 700)
        assert nms(boxes, threshold) == reference_nms(boxes, threshold)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.1, 0.2, 0.5]))
    def test_matches_reference_property(self, seed, threshold):
        rng = np.random.default_rng(seed)
        boxes = random_boxes(rng, int(rng.integers(0, 25)))
        assert nms(boxes, threshold) == reference_nms(boxes, threshold)


def parse_boxes_csv(text: str) -> list[ScoredBox]:
    """Oracle reader of the box CSV: a fixed header, then comma-separated
    floats and an optional integer slice per line."""
    header, *rows = text.splitlines()
    assert header == "x_min,y_min,x_max,y_max,score,slice_index"
    boxes = []
    for row in rows:
        *coords, s = row.split(",")
        boxes.append(ScoredBox(*map(float, coords), slice_index=int(s) if s else None))
    return boxes


class TestCsv:
    @staticmethod
    def round_trip(boxes: list[ScoredBox], path) -> list[ScoredBox]:
        write_boxes_csv(boxes, path)
        return parse_boxes_csv(path.read_text())

    def test_round_trip_exact(self, tmp_path):
        boxes = [
            ScoredBox(0.1, 0.2, 10.3, 20.7, 1 / 3, slice_index=4),
            ScoredBox(5.0, 6.0, 7.0, 8.0, 0.125),
        ]
        assert self.round_trip(boxes, tmp_path / "b.csv") == boxes

    def test_file_round_trip(self, tmp_path):
        boxes = [ScoredBox(1.25, 2.5, 3.75, 5.0, 0.9, slice_index=0)]
        write_boxes_csv(boxes, tmp_path / "b.csv")
        assert (tmp_path / "b.csv").read_bytes() == (
            b"x_min,y_min,x_max,y_max,score,slice_index\n1.25,2.5,3.75,5.0,0.9,0\n"
        )

    def test_empty_list_round_trip(self, tmp_path):
        assert self.round_trip([], tmp_path / "b.csv") == []

    def test_float_precision_survives(self, tmp_path):
        box = ScoredBox(math.pi, math.e, 10.0, 11.0, 1 / 7)
        (back,) = self.round_trip([box], tmp_path / "b.csv")
        assert back.x_min == box.x_min and back.score == box.score
