"""Patch features, the max-over-candidates forward pass, its subgradient,
balanced sampling and the SGD loop."""

import math

import numpy as np
import pytest

from tomoscreen.boxes import ScoredBox
from tomoscreen.errors import NumericError
from tomoscreen.imaging import ImageGrid, read_json
from tomoscreen.miltrain import (
    FEATURE_SCALES,
    N_FEATURES,
    DatasetPool,
    ToyScorer,
    TrainConfig,
    TrainingCase,
    balanced_sample,
    candidate_features,
    extract_patch_features,
    mil_forward,
    mil_loss_grad,
    save_scorer,
    train,
)
from tomoscreen.stats import CaseRecord, roc_and_auc


def grid(rng, h=24, w=24, scale=40.0):
    return ImageGrid(rng.normal(0.0, scale, size=(h, w)))


def centered_box(side=8.0, h=24, w=24):
    x0 = (w - side) / 2
    y0 = (h - side) / 2
    return ScoredBox(x0, y0, x0 + side, y0 + side, 0.5)


def make_case(case_id, label, patch_value, contrast=0.0, h=24, w=24):
    """A flat image with one candidate; optional bright center quarter."""
    data = np.full((h, w), patch_value, dtype=np.float64)
    if contrast:
        data[h // 2 - 2 : h // 2 + 2, w // 2 - 2 : w // 2 + 2] += contrast
    return TrainingCase(
        case_id=case_id,
        features=candidate_features(ImageGrid(data), [centered_box(h=h, w=w)]),
        label=label,
    )


def tiny_pool(name="d"):
    return DatasetPool(
        name=name,
        cancer=(make_case("pos", True, 30.0, contrast=80.0),),
        non_cancer=(make_case("neg", False, 0.0),),
    )


class TestExtractPatchFeatures:
    def test_constant_patch_zeroes_spread_and_contrast(self):
        img = ImageGrid(np.full((24, 24), 42.0))
        f = extract_patch_features(img, centered_box())
        assert f.shape == (N_FEATURES,)
        assert f[0] == pytest.approx(42.0 / FEATURE_SCALES[0])
        assert f[1] == 0.0
        assert f[2] == 0.0
        assert f[3] == pytest.approx(math.log(64.0) / FEATURE_SCALES[3])

    def test_matches_numpy_oracle(self, rng):
        img = grid(rng)
        box = ScoredBox(4.0, 6.0, 12.0, 14.0, 0.5)
        f = extract_patch_features(img, box)
        patch = img.data[6:14, 4:12]
        assert f[0] == pytest.approx(patch.mean() / FEATURE_SCALES[0], abs=1e-12)
        assert f[1] == pytest.approx(patch.std() / FEATURE_SCALES[1], abs=1e-12)
        center = patch[2:6, 2:6]
        mask = np.ones((8, 8), dtype=bool)
        mask[2:6, 2:6] = False
        expected_contrast = center.mean() - patch[mask].mean()
        assert f[2] == pytest.approx(expected_contrast / FEATURE_SCALES[2], abs=1e-12)
        assert f[3] == pytest.approx(math.log(64.0) / FEATURE_SCALES[3], abs=1e-12)

    def test_fractional_box_snaps_to_touched_pixels(self, rng):
        img = grid(rng)
        exact = extract_patch_features(img, ScoredBox(4.0, 6.0, 12.0, 14.0, 0.5))
        frac = extract_patch_features(img, ScoredBox(4.2, 6.7, 11.3, 13.1, 0.5))
        # same pixel patch, so every pixel statistic agrees; only the
        # geometric log-area differs
        assert np.allclose(frac[:3], exact[:3])
        assert frac[3] != exact[3]

    def test_deterministic(self, rng):
        img = grid(rng)
        box = centered_box()
        assert np.array_equal(
            extract_patch_features(img, box), extract_patch_features(img, box)
        )

    def test_box_outside_image_rejected(self, rng):
        img = grid(rng)
        with pytest.raises(ValueError):
            extract_patch_features(img, ScoredBox(-1.0, 0.0, 5.0, 5.0, 0.5))
        with pytest.raises(ValueError):
            extract_patch_features(img, ScoredBox(0.0, 0.0, 25.0, 5.0, 0.5))

    def test_candidate_features_stack_one_read_only_row_per_box(self, rng):
        img = grid(rng)
        boxes = [centered_box(), ScoredBox(4.0, 6.0, 12.0, 14.0, 0.5)]
        rows = candidate_features(img, boxes)
        assert rows.shape == (2, N_FEATURES)
        assert not rows.flags.writeable
        for row, box in zip(rows, boxes):
            assert np.array_equal(row, extract_patch_features(img, box))


class TestToyScorer:
    def test_weight_arity(self):
        with pytest.raises(ValueError):
            ToyScorer(weights=(1.0, 2.0), bias=0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ToyScorer(weights=(0.0, 0.0, math.inf, 0.0), bias=0.0)
        with pytest.raises(ValueError):
            ToyScorer(weights=(0.0,) * 4, bias=math.nan)


class TestMilForward:
    def test_zero_parameters_give_half(self, rng):
        theta = ToyScorer(weights=(0.0,) * 4, bias=0.0)
        score, arg = mil_forward(theta, candidate_features(grid(rng), [centered_box()]))
        assert score == 0.5 and arg == 0

    def test_picks_max_logit_candidate(self):
        # only the log-area feature is active, so the logit of a box of
        # area A is log(A) and the score is A / (1 + A)
        theta = ToyScorer(weights=(0.0, 0.0, 0.0, 1.0), bias=0.0)
        img = ImageGrid(np.zeros((24, 24)))
        small = ScoredBox(2.0, 2.0, 4.0, 3.0, 0.5)  # area 2
        big = ScoredBox(10.0, 10.0, 14.0, 12.0, 0.5)  # area 8
        score, arg = mil_forward(theta, candidate_features(img, [small, big]))
        assert arg == 1
        assert score == pytest.approx(8.0 / 9.0, abs=1e-12)

    def test_matches_linear_scan(self, rng):
        img = grid(rng)
        theta = ToyScorer(weights=tuple(rng.normal(size=4).tolist()), bias=float(rng.normal()))
        candidates = []
        for _ in range(20):
            x0 = float(rng.uniform(0, 14))
            y0 = float(rng.uniform(0, 14))
            side = float(rng.uniform(3, 9))
            candidates.append(ScoredBox(x0, y0, x0 + side, y0 + side, 0.5))
        logits = [
            float(theta.weight_vector @ extract_patch_features(img, b)) + theta.bias
            for b in candidates
        ]
        best = max(range(20), key=lambda i: logits[i])
        score, arg = mil_forward(theta, candidate_features(img, candidates))
        assert arg == best
        assert score == pytest.approx(1 / (1 + math.exp(-logits[best])), abs=1e-12)

    def test_ties_resolve_to_lowest_index(self, rng):
        img = grid(rng)
        theta = ToyScorer(weights=tuple(rng.normal(size=4).tolist()), bias=0.0)
        box = centered_box()
        _, arg = mil_forward(theta, candidate_features(img, [box, box, box]))
        assert arg == 0

    def test_empty_candidates_rejected(self, rng):
        theta = ToyScorer(weights=(0.0,) * 4, bias=0.0)
        with pytest.raises(ValueError):
            mil_forward(theta, candidate_features(grid(rng), []))


class TestMilLossGrad:
    def test_single_candidate_is_logistic_regression(self, rng):
        img = grid(rng)
        theta = ToyScorer(weights=(0.5, -0.2, 1.0, 0.1), bias=-0.3)
        box = centered_box()
        f = extract_patch_features(img, box)
        z = float(theta.weight_vector @ f) + theta.bias
        p = 1 / (1 + math.exp(-z))
        for label in (True, False):
            loss, gw, gb = mil_loss_grad(theta, candidate_features(img, [box]), label)
            y = float(label)
            expected_loss = -(y * math.log(p) + (1 - y) * math.log(1 - p))
            assert loss == pytest.approx(expected_loss, abs=1e-10)
            assert gb == pytest.approx(p - y, abs=1e-12)
            assert np.allclose(gw, (p - y) * f, atol=1e-12)

    def test_gradient_is_rank_one_in_argmax_features(self, rng):
        img = grid(rng)
        theta = ToyScorer(weights=tuple(rng.normal(size=4).tolist()), bias=0.1)
        candidates = [
            ScoredBox(2.0, 2.0, 10.0, 10.0, 0.5),
            ScoredBox(12.0, 12.0, 22.0, 22.0, 0.5),
        ]
        features = candidate_features(img, candidates)
        score, arg = mil_forward(theta, features)
        loss, gw, gb = mil_loss_grad(theta, features, True)
        f = extract_patch_features(img, candidates[arg])
        assert np.allclose(gw, gb * f, atol=1e-12)

    def test_matches_central_finite_differences(self, rng):
        eps = 1e-5
        checked = 0
        for trial in range(40):
            img = grid(rng)
            theta = ToyScorer(
                weights=tuple(rng.normal(0, 1.5, size=4).tolist()),
                bias=float(rng.normal()),
            )
            candidates = []
            for _ in range(3):
                x0 = float(rng.uniform(0, 12))
                y0 = float(rng.uniform(0, 12))
                side = float(rng.uniform(4, 10))
                candidates.append(ScoredBox(x0, y0, x0 + side, y0 + side, 0.5))
            label = bool(rng.integers(0, 2))
            features = candidate_features(img, candidates)
            _, base_arg = mil_forward(theta, features)

            def perturbed(i, delta):
                params = list(theta.weights) + [theta.bias]
                params[i] += delta
                return ToyScorer(weights=tuple(params[:4]), bias=params[4])

            loss, gw, gb = mil_loss_grad(theta, features, label)
            analytic = list(gw) + [gb]
            stable = True
            fd = []
            for i in range(5):
                tp, tm = perturbed(i, eps), perturbed(i, -eps)
                if (
                    mil_forward(tp, features)[1] != base_arg
                    or mil_forward(tm, features)[1] != base_arg
                ):
                    stable = False
                    break
                lp = mil_loss_grad(tp, features, label)[0]
                lm = mil_loss_grad(tm, features, label)[0]
                fd.append((lp - lm) / (2 * eps))
            if not stable:
                continue
            checked += 1
            assert np.allclose(fd, analytic, rtol=1e-5, atol=1e-8), (
                f"trial {trial}: fd={fd} analytic={analytic}"
            )
        assert checked >= 20


class TestPoolsAndSampling:
    @pytest.mark.parametrize(
        "features",
        [
            np.zeros((0, N_FEATURES)),
            np.zeros((2, 3)),
            np.zeros(N_FEATURES),
            np.array([[0.0, math.nan, 0.0, 0.0]]),
        ],
        ids=["no-rows", "three-columns", "one-dimensional", "nan"],
    )
    def test_training_case_rejects_malformed_features(self, features):
        with pytest.raises(ValueError):
            TrainingCase(case_id="x", features=features, label=True)

    def test_training_case_stores_features_read_only(self):
        case = TrainingCase(case_id="x", features=[[1.0, 2.0, 3.0, 4.0]], label=True)
        assert case.features.dtype == np.float64
        assert not case.features.flags.writeable

    def test_pool_class_purity_enforced(self):
        pos = make_case("p", True, 30.0, contrast=50.0)
        neg = make_case("n", False, 0.0)
        with pytest.raises(ValueError):
            DatasetPool(name="d", cancer=(neg,), non_cancer=(neg,))
        with pytest.raises(ValueError):
            DatasetPool(name="d", cancer=(pos,), non_cancer=(pos,))
        with pytest.raises(ValueError):
            DatasetPool(name="d", cancer=(), non_cancer=(neg,))

    def test_classes_drawn_evenly_despite_imbalance(self, rng):
        cancer = (make_case("p", True, 30.0, contrast=50.0),)
        non_cancer = tuple(make_case(f"n{i}", False, 0.0) for i in range(199))
        pool = DatasetPool(name="d", cancer=cancer, non_cancer=non_cancer)
        draws = 20000
        got = sum(balanced_sample([pool], rng).label for _ in range(draws))
        assert got / draws == pytest.approx(0.5, abs=0.02)

    def test_datasets_weighted_by_malignant_count(self, rng):
        mk = lambda name, n_pos: DatasetPool(
            name=name,
            cancer=tuple(make_case(f"{name}p{i}", True, 30.0, contrast=50.0) for i in range(n_pos)),
            non_cancer=(make_case(f"{name}n", False, 0.0),),
        )
        pools = [mk("a", 30), mk("b", 10)]
        draws = 20000
        from_a = sum(
            balanced_sample(pools, rng).case_id.startswith("a") for _ in range(draws)
        )
        assert from_a / draws == pytest.approx(0.75, abs=0.02)

    def test_singleton_pools_have_two_case_support(self, rng):
        pool = tiny_pool()
        seen = {balanced_sample([pool], rng).case_id for _ in range(200)}
        assert seen == {"pos", "neg"}

    def test_empty_pool_list_rejected(self, rng):
        with pytest.raises(ValueError):
            balanced_sample([], rng)


class TestTrainConfig:
    def test_validation(self):
        pool = tiny_pool()
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1, iterations=10, seed=0, datasets=(pool,))
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.1, iterations=-1, seed=0, datasets=(pool,))
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.1, iterations=10, seed=0, datasets=())

    def test_zero_learning_rate_allowed(self):
        cfg = TrainConfig(learning_rate=0.0, iterations=5, seed=0, datasets=(tiny_pool(),))
        assert cfg.learning_rate == 0.0


class TestTrain:
    def test_zero_learning_rate_never_moves(self):
        cfg = TrainConfig(learning_rate=0.0, iterations=20, seed=3, datasets=(tiny_pool(),))
        result = train(cfg)
        assert result.scorer.weights == (0.0,) * 4
        assert result.scorer.bias == 0.0
        assert all(loss == pytest.approx(math.log(2.0)) for loss in result.loss_trajectory)

    def test_same_seed_reproduces_trajectory(self):
        cfg = TrainConfig(learning_rate=0.2, iterations=50, seed=11, datasets=(tiny_pool(),))
        a, b = train(cfg), train(cfg)
        assert a.scorer == b.scorer
        assert a.loss_trajectory == b.loss_trajectory

    def test_seeds_change_the_path(self):
        pool = tiny_pool()
        a = train(TrainConfig(learning_rate=0.2, iterations=50, seed=1, datasets=(pool,)))
        b = train(TrainConfig(learning_rate=0.2, iterations=50, seed=2, datasets=(pool,)))
        assert a.loss_trajectory != b.loss_trajectory

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_absurd_learning_rate_raises_numeric_error(self):
        # large enough that the very first update overflows a weight
        cfg = TrainConfig(
            learning_rate=1e308, iterations=50, seed=0, datasets=(tiny_pool(),)
        )
        with pytest.raises(NumericError):
            train(cfg)

    def test_learning_reduces_pool_loss(self):
        pos = tuple(
            make_case(f"p{i}", True, 25.0 + 3 * i, contrast=70.0 + 5 * i) for i in range(4)
        )
        neg = tuple(make_case(f"n{i}", False, -10.0 + 2 * i) for i in range(4))
        pool = DatasetPool(name="d", cancer=pos, non_cancer=neg)
        cfg = TrainConfig(learning_rate=0.5, iterations=300, seed=5, datasets=(pool,))
        result = train(cfg)

        def pool_loss(theta):
            cases = list(pos) + list(neg)
            return sum(
                mil_loss_grad(theta, c.features, c.label)[0]
                for c in cases
            ) / len(cases)

        theta0 = ToyScorer(weights=(0.0,) * 4, bias=0.0)
        assert pool_loss(result.scorer) < pool_loss(theta0)

    def test_separable_pool_reaches_perfect_ranking(self):
        pos = tuple(
            make_case(f"p{i}", True, 25.0 + 3 * i, contrast=70.0 + 5 * i) for i in range(4)
        )
        neg = tuple(make_case(f"n{i}", False, -10.0 + 2 * i) for i in range(4))
        pool = DatasetPool(name="d", cancer=pos, non_cancer=neg)
        result = train(TrainConfig(learning_rate=0.5, iterations=300, seed=5, datasets=(pool,)))
        records = []
        for c in list(pos) + list(neg):
            score, _ = mil_forward(result.scorer, c.features)
            records.append(CaseRecord(case_id=c.case_id, label=c.label, score=score))
        assert roc_and_auc(records).auc == 1.0


class TestPersistence:
    def test_round_trip(self, tmp_path):
        result = train(
            TrainConfig(learning_rate=0.3, iterations=10, seed=7, datasets=(tiny_pool(),))
        )
        path = tmp_path / "scorer.json"
        save_scorer(result, path)
        back = read_json(path)
        assert ToyScorer(weights=tuple(back["weights"]), bias=back["bias"]) == result.scorer
        assert tuple(back["loss_trajectory"]) == result.loss_trajectory

