"""Release gate: one class per acceptance criterion.

Every test here carries a ``criterion`` marker and the terminal
summary prints one PASS/FAIL line per criterion (see conftest).
Tolerances and runtime budgets sit inline next to the assertions they
guard. Expected numbers come from the published challenge leaderboard
(tests/challenge_data.py) and from the independent oracle
implementations (tests/oracles.py), never from the code under test.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from challenge_data import (AVD_FINAL_RANK, AVD_ORDER, AVD_SWAPS,
                            CLUSTER_BOUNDARIES, FINAL_RANK, PUBLISHED_ORDER,
                            UNRESOLVABLE_ADJACENT, WINNER_RECALL_LARGE,
                            WINNER_RECALL_SMALL, mean_table)
from helpers import phantom_pair, table_from_columns
from oracles import bootstrap_oracle, dice_oracle, evaluate_pair_oracle
from seg_eval import ranking
from seg_eval.cli import main
from seg_eval.fusion import StapleParams, majority_vote, staple_fuse
from seg_eval.metrics import MetricVector, evaluate_pair, relative_difference
from seg_eval.nifti import read_nifti, write_nifti
from seg_eval.ranking import (HIGHER_BETTER, BootstrapConfig, ResultTable,
                              SubjectResult, final_rank, rank_with_ci,
                              selected_metrics, significance_clusters)
from seg_eval.synth import PerturbOps, PhantomSpec, generate_phantom, \
    perturb_mask
from seg_eval.volume import BinaryMask, LabelVolume, binarize_challenge


@contextmanager
def runtime_budget(seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f} s, budget {seconds} s"


def order_of(rank) -> list[str]:
    return list(rank.methods)


# --------------------------------------------------------------- criterion 1

class TestPublishedRanking:
    pytestmark = pytest.mark.criterion("C1")

    def test_final_rank_values_within_tolerance(self):
        with runtime_budget(1.0):
            rank = final_rank(mean_table(), "lavd")
        for i, method in enumerate(rank.methods):
            published = FINAL_RANK[method][0]
            assert abs(rank.final[i] - published) <= 0.012, method

    @pytest.mark.xfail(
        strict=True,
        reason="tignet and tig differ by 0.0007 in the published final "
               "ranks, below what the printed two-to-three decimal means "
               "can resolve; recomputation lands the pair swapped")
    def test_published_ordering_exactly(self):
        rank = final_rank(mean_table(), "lavd")
        assert order_of(rank) == PUBLISHED_ORDER

    def test_published_ordering_up_to_the_resolution_limit(self):
        # every position matches once the one unresolvable adjacent
        # pair is treated as interchangeable
        rank = final_rank(mean_table(), "lavd")

        def canon(seq):
            return ["<pair>" if m in UNRESOLVABLE_ADJACENT else m
                    for m in seq]

        assert canon(order_of(rank)) == canon(PUBLISHED_ORDER)
        got = order_of(rank)
        assert {got[12], got[13]} == set(UNRESOLVABLE_ADJACENT)

    def test_cluster_boundaries_from_published_cis(self):
        ci = np.array([[FINAL_RANK[m][1], FINAL_RANK[m][2]]
                       for m in PUBLISHED_ORDER])
        assert significance_clusters(ci) == CLUSTER_BOUNDARIES


# --------------------------------------------------------------- criterion 2

class TestVolumeMetricVariant:
    pytestmark = pytest.mark.criterion("C2")

    def test_avd_rank_values_within_tolerance(self):
        with runtime_budget(1.0):
            rank = final_rank(mean_table(), "avd")
        for i, method in enumerate(rank.methods):
            assert abs(rank.final[i] - AVD_FINAL_RANK[method]) <= 0.012, \
                method

    def test_avd_ordering_exactly(self):
        rank = final_rank(mean_table(), "avd")
        assert order_of(rank) == AVD_ORDER

    def test_documented_swaps_between_the_two_volume_metrics(self):
        avd_order = order_of(final_rank(mean_table(), "avd"))
        lavd_order = order_of(final_rank(mean_table(), "lavd"))
        for first_under_avd, second_under_avd in AVD_SWAPS:
            ia, ib = (avd_order.index(first_under_avd),
                      avd_order.index(second_under_avd))
            assert ib == ia + 1
            assert (lavd_order.index(first_under_avd)
                    > lavd_order.index(second_under_avd))


# --------------------------------------------------------------- criterion 3

class TestWinnerSizeSplit:
    pytestmark = pytest.mark.criterion("C3")

    def test_relative_recall_difference(self):
        rd = relative_difference(WINNER_RECALL_SMALL, WINNER_RECALL_LARGE)
        assert round(100 * rd, 1) == -19.1
        assert abs(rd - (-0.20)) < 0.01


# --------------------------------------------------------------- criterion 4

_C4_DIMS = [(32, 32, 32), (24, 28, 16), (16, 16, 32), (32, 16, 8)]
_C4_SPACINGS = [(1.0, 1.0, 1.0), (0.96, 0.95, 3.0), (0.5, 2.0, 1.25)]


def _c4_ops(i: int, seed: int) -> PerturbOps:
    k = i % 6
    if k == 0:
        return PerturbOps(seed=seed)
    if k == 1:
        return PerturbOps(translate=(1, 0, 0), add_blobs=1, blob_size=5,
                          seed=seed)
    if k == 2:
        return PerturbOps(dilate=1, seed=seed)
    if k == 3:
        return PerturbOps(erode=1, seed=seed)  # can empty the prediction
    if k == 4:
        return PerturbOps(drop_components=(1,), add_blobs=2, blob_size=4,
                          seed=seed)
    return PerturbOps(translate=(0, 1, 1), dilate=1, seed=seed)


class TestMetricOracleParity:
    pytestmark = pytest.mark.criterion("C4")

    def test_200_phantom_pairs_match_the_oracle_suite(self):
        counts = ("n_ref_lesions", "n_pred_lesions")
        with runtime_budget(60.0):
            for i in range(200):
                spacing = _C4_SPACINGS[i % len(_C4_SPACINGS)]
                ref, pred = phantom_pair(
                    seed=1000 + i, dims=_C4_DIMS[i % len(_C4_DIMS)],
                    spacing=spacing, n_lesions=1 + i % 6, size_range=(3, 30),
                    ignore_fraction=0.15 if i % 2 else 0.0,
                    ops=_c4_ops(i, seed=2000 + i))
                got = evaluate_pair(ref, pred).as_dict()
                want = evaluate_pair_oracle(ref.data, pred.data, spacing)
                assert got.keys() == want.keys()
                for key, expected in want.items():
                    value = got[key]
                    context = (i, key, value, expected)
                    if expected is None or value is None:
                        assert value is None and expected is None, context
                    elif key in counts:
                        assert value == expected, context
                    else:
                        assert abs(value - expected) <= 1e-9, context


# --------------------------------------------------------------- criterion 5

_RANKED = ("dsc", "h95_mm", "avd_pct", "lavd", "recall", "f1")


def _random_columns(rng, n_methods: int, n_subjects: int) -> dict:
    return {f"m{mi:02d}": {name: list(rng.random(n_subjects))
                           for name in _RANKED}
            for mi in range(n_methods)}


class TestRankingInvariances:
    pytestmark = pytest.mark.criterion("C5")

    def test_lavd_scale_change_is_invisible(self):
        # a log-base change multiplies every lAVD by a constant
        rng = np.random.default_rng(41)
        columns = _random_columns(rng, 6, 8)
        config = BootstrapConfig(replicates=200, seed=11)
        base = rank_with_ci(table_from_columns(columns), "lavd", config)
        for c in (math.log(10.0), 1000.0, 1e-3, 7.3):
            scaled = {m: {**obs, "lavd": [v * c for v in obs["lavd"]]}
                      for m, obs in columns.items()}
            got = rank_with_ci(table_from_columns(scaled), "lavd", config)
            assert order_of(got) == order_of(base)
            assert got.positions == base.positions
            assert np.array_equal(got.final, base.final)
            assert np.array_equal(got.final_ci, base.final_ci)
            assert np.array_equal(got.metric_ranks["lavd"],
                                  base.metric_ranks["lavd"])
            assert got.cluster_boundaries == base.cluster_boundaries

    def test_monotonicity_and_endpoints_on_100_random_tables(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n_methods = int(rng.integers(3, 9))
            n_subjects = int(rng.integers(2, 7))
            columns = _random_columns(rng, n_methods, n_subjects)
            rank = final_rank(table_from_columns(columns), "lavd")
            for ranks in rank.metric_ranks.values():
                assert ranks.min() == 0.0
                assert ranks.max() == 1.0
            # improving one method's volume agreement never worsens it
            target = list(columns)[int(rng.integers(n_methods))]
            improved = {m: ({**obs, "lavd": [v * 0.25 for v in obs["lavd"]]}
                            if m == target else obs)
                        for m, obs in columns.items()}
            better = final_rank(table_from_columns(improved), "lavd")
            assert (better.final[order_of(better).index(target)]
                    <= rank.final[order_of(rank).index(target)])


# --------------------------------------------------------------- criterion 6

def _redraw_prone_columns(rng) -> dict:
    """One method is missing H95 on 5 of 6 subjects, so many bootstrap
    replicates hit an all-missing cell and have to be redrawn."""
    columns = _random_columns(rng, 3, 6)
    columns["m00"]["h95_mm"] = [4.0, None, None, None, None, None]
    return columns


def _oracle_table(name: str):
    rng = np.random.default_rng(61)
    if name == "redraw-prone":
        columns = _redraw_prone_columns(rng)
    elif name == "flat-column":
        columns = _random_columns(rng, 4, 12)
        for obs in columns.values():
            obs["recall"] = [0.75] * 12
    else:
        columns = _random_columns(rng, 20, 110)
        if name == "paper-shape-missing":
            # about 8 % of the H95 and log-AVD cells empty, as when a
            # method misses every lesion of a scan
            for obs in columns.values():
                for metric in ("h95_mm", "lavd"):
                    gone = rng.random(110) < 0.08
                    obs[metric] = [None if g else v
                                   for g, v in zip(gone, obs[metric])]
    return table_from_columns(columns)


def _assert_matches_bootstrap_oracle(table, config):
    got = rank_with_ci(table, "lavd", config)
    metrics = selected_metrics("lavd")
    rep_means, rep_final, redraws = bootstrap_oracle(
        table.values(metrics), [HIGHER_BETTER[m] for m in metrics],
        config.replicates, config.seed)
    order = [table.methods.index(m) for m in got.methods]
    q = [100.0 * (1.0 - config.confidence) / 2.0,
         100.0 * (1.0 + config.confidence) / 2.0]
    final_ci = np.percentile(rep_final, q, axis=0)[:, order].T
    mean_ci = np.percentile(rep_means, q, axis=0)[:, order]
    assert got.redraws == redraws
    assert np.array_equal(got.final_ci, final_ci)
    for k, name in enumerate(metrics):
        assert np.array_equal(got.mean_ci[name], mean_ci[:, :, k].T), name
    return got


class TestBootstrap:
    pytestmark = pytest.mark.criterion("C6")

    def test_fixed_seed_is_bit_identical_across_runs(self):
        rng = np.random.default_rng(60)
        table = table_from_columns(_redraw_prone_columns(rng))
        config = BootstrapConfig(replicates=200, seed=6)
        first = rank_with_ci(table, "lavd", config)
        second = rank_with_ci(table, "lavd", config)
        assert first.redraws == second.redraws
        assert first.redraws > 0
        assert np.array_equal(first.final, second.final)
        assert np.array_equal(first.final_ci, second.final_ci)
        for name in first.mean_ci:
            assert np.array_equal(first.mean_ci[name],
                                  second.mean_ci[name])

    @pytest.mark.parametrize("name, replicates", [
        ("redraw-prone", 300), ("flat-column", 300), ("paper-shape", 200),
        ("paper-shape-missing", 200)])
    def test_matches_the_per_replicate_oracle(self, name, replicates):
        table = _oracle_table(name)
        config = BootstrapConfig(replicates=replicates, seed=8)
        got = _assert_matches_bootstrap_oracle(table, config)
        assert (got.redraws > 0) == (name == "redraw-prone")

    @pytest.mark.parametrize("budget", [1, 2**30])
    def test_block_size_does_not_change_the_intervals(self, monkeypatch,
                                                      budget):
        for name in ("redraw-prone", "flat-column", "paper-shape-missing"):
            table = _oracle_table(name)
            config = BootstrapConfig(replicates=150, seed=9)
            want = rank_with_ci(table, "lavd", config)
            monkeypatch.setattr(ranking, "_GATHER_BUDGET", budget)
            got = _assert_matches_bootstrap_oracle(table, config)
            monkeypatch.undo()
            assert got.redraws == want.redraws
            assert np.array_equal(got.final_ci, want.final_ci)
            for metric in want.mean_ci:
                assert np.array_equal(got.mean_ci[metric],
                                      want.mean_ci[metric])

    def test_jobs_do_not_change_batch_output(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert main(["synth", "--out-dir", str(corpus), "--subjects", "2",
                     "--methods", "2", "--seed", "17", "--dims", "16", "16",
                     "8", "--lesions", "2", "--size-range", "3", "6"]) == 0
        outs, rcs = [], []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.csv"
            rcs.append(main(["evaluate-batch", str(corpus / "manifest.csv"),
                             "-o", str(out), "--jobs", jobs]))
            outs.append(out.read_bytes())
        assert rcs[0] == rcs[1]
        assert outs[0] == outs[1]

    def test_degenerate_table_collapses_to_point_intervals(self):
        columns = {
            "alpha": {name: [0.8, 0.8, 0.8] for name in _RANKED},
            "beta": {name: [0.4, 0.4, 0.4] for name in _RANKED},
            "gamma": {name: [0.6, 0.6, 0.6] for name in _RANKED},
        }
        rank = rank_with_ci(table_from_columns(columns), "lavd",
                            BootstrapConfig(replicates=100, seed=2))
        assert np.array_equal(rank.final_ci[:, 0], rank.final)
        assert np.array_equal(rank.final_ci[:, 1], rank.final)

    def test_coverage_of_the_95_percent_interval(self):
        # three methods whose dsc means are 0.9 / 0.7 / 0.5 with iid
        # N(0, 0.1) subject noise; the middle method's true final rank
        # is ((0.9 - 0.7) / (0.9 - 0.5)) / 5 = 0.1, every other metric
        # being constant. Coverage of that true value must be nominal.
        true_mid_final = 0.1
        n_subjects = 40
        hits = 0
        trials = 500
        with runtime_budget(300.0):
            for trial in range(trials):
                rng = np.random.default_rng(900_000 + trial)
                columns = {
                    m: {"dsc": list(mu + rng.normal(0.0, 0.1, n_subjects))}
                    for m, mu in (("m_hi", 0.9), ("m_mid", 0.7),
                                  ("m_lo", 0.5))}
                rank = rank_with_ci(table_from_columns(columns), "lavd",
                                    BootstrapConfig(replicates=300,
                                                    seed=trial))
                low, high = rank.final_ci[order_of(rank).index("m_mid")]
                hits += low <= true_mid_final <= high
        assert 0.92 <= hits / trials <= 0.98


# --------------------------------------------------------------- criterion 7

def _raters_from_truth(truth: np.ndarray, p_list, q_list, seed: int):
    out = []
    for j, (p, q) in enumerate(zip(p_list, q_list)):
        rng = np.random.default_rng(seed + j)
        u = rng.random(truth.shape)
        out.append(BinaryMask(np.where(truth, u < p, u > q),
                              (1.0, 1.0, 1.0)))
    return out


class TestStapleFusion:
    pytestmark = pytest.mark.criterion("C7")

    def test_unanimous_input_is_a_fixed_point(self):
        data = np.zeros((10, 10, 6), dtype=bool)
        data[2:7, 3:8, 1:4] = True
        mask = BinaryMask(data, (1.0, 1.0, 1.0))
        result = staple_fuse([mask, mask, mask, mask])
        assert np.array_equal(result.consensus.data, data)
        assert result.converged
        assert result.sensitivity.min() >= 0.999
        assert result.specificity.min() >= 0.999

    def test_symmetric_two_of_three_equals_majority_vote(self):
        a_data = np.zeros((4, 4, 1), dtype=bool)
        raters = []
        for miss in ((2, 2, 0), (1, 1, 0), (0, 0, 0)):
            data = a_data.copy()
            for voxel in ((0, 0, 0), (1, 1, 0), (2, 2, 0)):
                data[voxel] = voxel != miss
            raters.append(BinaryMask(data, (1.0, 1.0, 1.0)))
        result = staple_fuse(raters)
        vote = majority_vote(raters)
        assert np.array_equal(result.consensus.data, vote.data)
        assert np.ptp(result.sensitivity) < 1e-12
        assert np.ptp(result.specificity) < 1e-12

    def test_planted_parameter_recovery(self):
        truth = np.zeros((32, 32, 32), dtype=bool)
        truth[8:24, 8:24, 8:24] = True      # 12.5 % foreground
        master = np.random.default_rng(90)
        p_true = master.uniform(0.75, 0.95, size=5)
        q_true = master.uniform(0.75, 0.95, size=5)
        masks = _raters_from_truth(truth, p_true, q_true, seed=91)
        with runtime_budget(60.0):
            # the generative model is fully known, so the prior is the
            # true prevalence; the AUTO vote-rate proxy overshoots it
            # when raters carry strong false-positive rates
            result = staple_fuse(masks, StapleParams(max_iter=200,
                                                     prior=0.125))
        assert result.converged
        assert np.abs(result.sensitivity - p_true).max() <= 0.05
        assert np.abs(result.specificity - q_true).max() <= 0.05
        fused = dice_oracle(result.consensus.data, truth)
        assert all(fused >= dice_oracle(m.data, truth) for m in masks)

    def test_log_likelihood_never_decreases(self):
        truth = np.zeros((16, 16, 16), dtype=bool)
        truth[4:12, 4:12, 4:12] = True
        masks = _raters_from_truth(truth, [0.85, 0.8, 0.9, 0.75],
                                   [0.9, 0.85, 0.8, 0.95], seed=93)
        result = staple_fuse(masks, StapleParams(max_iter=50))
        history = np.asarray(result.log_likelihood)
        assert history.size == result.iterations
        assert (np.diff(history) >= -1e-9).all()


# --------------------------------------------------------------- criterion 8

def _empty_prediction_vector() -> MetricVector:
    # what evaluate_pair reports when a method produces nothing for a
    # subject with reference lesions
    return MetricVector(dsc=0.0, h95_mm=None, avd_pct=100.0, lavd=None,
                        recall=0.0, f1=0.0, recall_small=0.0,
                        recall_large=0.0)


class TestMissingPolicy:
    pytestmark = pytest.mark.criterion("C8")

    def test_ten_empty_subjects_of_110_still_rank(self):
        rng = np.random.default_rng(88)
        records = []
        patchy_h95, patchy_lavd = [], []
        for s in range(110):
            sid = f"s{s:03d}"
            scanner = f"sc{s % 3}"
            for method, mu in (("steady", 0.80), ("decent", 0.70)):
                records.append(SubjectResult(method, sid, scanner,
                    MetricVector(
                        dsc=float(np.clip(rng.normal(mu, 0.05), 0, 1)),
                        h95_mm=float(rng.uniform(2, 20)),
                        avd_pct=float(rng.uniform(5, 60)),
                        lavd=float(rng.uniform(0.05, 0.6)),
                        recall=float(rng.uniform(0.3, 0.9)),
                        f1=float(rng.uniform(0.3, 0.9)))))
            if s < 10:
                vec = _empty_prediction_vector()
            else:
                vec = MetricVector(
                    dsc=float(np.clip(rng.normal(0.75, 0.05), 0, 1)),
                    h95_mm=float(rng.uniform(2, 20)),
                    avd_pct=float(rng.uniform(5, 60)),
                    lavd=float(rng.uniform(0.05, 0.6)),
                    recall=float(rng.uniform(0.3, 0.9)),
                    f1=float(rng.uniform(0.3, 0.9)))
                patchy_h95.append(vec.h95_mm)
                patchy_lavd.append(vec.lavd)
            records.append(SubjectResult("patchy", sid, scanner, vec))
        table = ResultTable(records)

        rank = final_rank(table, "lavd")
        i = order_of(rank).index("patchy")
        assert rank.counts["h95_mm"][i] == 100
        assert rank.counts["lavd"][i] == 100
        assert rank.counts["dsc"][i] == 110
        assert rank.means["h95_mm"][i] == pytest.approx(
            float(np.mean(patchy_h95)), rel=1e-12)
        assert rank.means["lavd"][i] == pytest.approx(
            float(np.mean(patchy_lavd)), rel=1e-12)
        assert np.isfinite(rank.final).all()
        assert sorted(rank.positions) == [1, 2, 3]

        with_ci = rank_with_ci(table, "lavd",
                               BootstrapConfig(replicates=50, seed=8))
        assert np.isfinite(with_ci.final_ci).all()


# --------------------------------------------------------------- criterion 9

class TestFilesAndRuntime:
    pytestmark = pytest.mark.criterion("C9")

    def test_round_trips_are_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        cases = (((9, 7, 5), (1.0, 1.0, 1.0)),
                 ((16, 16, 8), (0.96, 0.95, 3.0)))
        for n, (dims, spacing) in enumerate(cases):
            vol = LabelVolume(rng.integers(0, 3, dims).astype(np.int32),
                              spacing)
            for suffix in (".nii", ".nii.gz"):
                path = tmp_path / f"case{n}{suffix}"
                write_nifti(vol, path)
                back = read_nifti(path)
                assert np.array_equal(back.data, vol.data)
                assert back.spacing == pytest.approx(spacing, abs=1e-6)
                again = tmp_path / f"case{n}_again{suffix}"
                write_nifti(vol, again)
                assert path.read_bytes() == again.read_bytes()
            plain = read_nifti(tmp_path / f"case{n}.nii")
            packed = read_nifti(tmp_path / f"case{n}.nii.gz")
            assert np.array_equal(plain.data, packed.data)
            assert plain.spacing == packed.spacing

    def test_full_size_pair_evaluates_inside_two_seconds(self):
        spec = PhantomSpec(dims=(256, 256, 48), spacing=(0.96, 0.95, 3.0),
                           n_lesions=25, size_range=(5, 400), seed=77)
        ref = generate_phantom(spec)
        wmh = binarize_challenge(ref)
        noisy = perturb_mask(wmh, PerturbOps(translate=(1, 1, 0),
                                             add_blobs=3, blob_size=30,
                                             seed=78))
        pred = LabelVolume(noisy.data.astype(np.int32), ref.spacing)
        with runtime_budget(2.0):
            vec = evaluate_pair(ref, pred)
        assert 0.0 < vec.dsc < 1.0
        assert vec.n_ref_lesions == 25
        assert not vec.has_missing
