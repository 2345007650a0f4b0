import statistics
import warnings

import numpy as np
import pytest

from seg_eval import ranking
from seg_eval.errors import AllMissingError, ArityError, EvaluationWarning
from seg_eval.metrics import MetricVector
from seg_eval.ranking import (HIGHER_BETTER, BootstrapConfig, ResultTable,
                              SubjectResult, _minmax_ranks, final_rank,
                              interscanner_rank, metric_means, rank_with_ci,
                              selected_metrics, significance_clusters)

from helpers import table_from_columns
from oracles import interscanner_oracle


def vec(**overrides) -> MetricVector:
    fields = {"dsc": 0.5, "h95_mm": 0.5, "avd_pct": 0.5, "lavd": 0.5,
              "recall": 0.5, "f1": 0.5}
    fields.update(overrides)
    return MetricVector(**fields)


class TestResultTable:
    def test_duplicate_pair_rejected(self):
        rec = SubjectResult("m", "s0", "sc", vec())
        with pytest.raises(ValueError, match="duplicate"):
            ResultTable([rec, rec])

    def test_inconsistent_scanner_rejected(self):
        with pytest.raises(ValueError, match="scanners"):
            ResultTable([SubjectResult("a", "s0", "x", vec()),
                         SubjectResult("b", "s0", "y", vec())])

    def test_unequal_subject_sets_rejected(self):
        with pytest.raises(ValueError, match="subject set"):
            ResultTable([SubjectResult("a", "s0", "x", vec()),
                         SubjectResult("b", "s1", "x", vec())])

    def test_empty_rejected(self):
        with pytest.raises(ArityError):
            ResultTable([])

    def test_values_shape_and_nan_for_missing(self):
        t = table_from_columns(
            {"a": {"h95_mm": [1.0, None]}, "b": {"h95_mm": [2.0, 3.0]}})
        vals = t.values(("dsc", "h95_mm"))
        assert vals.shape == (2, 2, 2)
        assert np.isnan(vals[0, 1, 1])
        assert vals[1, 1, 1] == 3.0

    def test_values_are_fresh_arrays_in_any_metric_order(self):
        t = table_from_columns(
            {"a": {"h95_mm": [1.0, None], "dsc": [0.25, 0.75]},
             "b": {"h95_mm": [2.0, 3.0], "dsc": [0.5, 1.0]}})
        first = t.values(("dsc", "h95_mm"))
        first[:] = -1.0
        again = t.values(("h95_mm", "dsc", "h95_mm"))
        want_h95 = [[1.0, np.nan], [2.0, 3.0]]
        np.testing.assert_array_equal(again[:, 0], want_h95)
        np.testing.assert_array_equal(again[:, 1], [[0.25, 0.75], [0.5, 1.0]])
        np.testing.assert_array_equal(again[:, 2], want_h95)
        assert t.values(()).shape == (2, 0, 2)


def rank_column(values, higher_better: bool) -> np.ndarray:
    """One metric column ranked alone by the block ranker."""
    column = np.asarray(values, dtype=np.float64)[:, None]
    return _minmax_ranks(column, [higher_better])[:, 0]


class TestRelativeRank:
    def test_lower_better_spread(self):
        got = rank_column([0.0, 5.0, 10.0], higher_better=False)
        assert list(got) == [0.0, 0.5, 1.0]

    def test_published_dsc_normalisation(self):
        # best 0.80, worst 0.23; a mean of 0.77 lands at 0.0526...
        got = rank_column([0.80, 0.77, 0.23], higher_better=True)
        assert got[0] == 0.0
        assert got[1] == pytest.approx(0.052631579, abs=1e-9)
        assert got[2] == 1.0

    def test_all_equal_degenerates_to_zero(self):
        assert list(rank_column([3.0, 3.0, 3.0], False)) == [0.0, 0.0, 0.0]

    def test_endpoints_present(self):
        rng = np.random.default_rng(91)
        for _ in range(20):
            v = rng.uniform(0, 10, size=rng.integers(2, 12))
            if np.unique(v).size < 2:
                continue
            r = rank_column(v, bool(rng.integers(0, 2)))
            assert r.min() == 0.0
            assert r.max() == 1.0

    def test_shift_and_positive_scale_invariance(self):
        rng = np.random.default_rng(92)
        for _ in range(25):
            v = rng.uniform(0.1, 5, size=8)
            base = rank_column(v, False)
            assert np.array_equal(base, rank_column(v + 7.3, False))
            assert np.array_equal(base, rank_column(v * 12.5, False))
            assert np.array_equal(base, rank_column(v * 1e-4, False))

    def test_orientation_flip(self):
        v = [1.0, 2.0, 4.0]
        lo = rank_column(v, higher_better=False)
        hi = rank_column(v, higher_better=True)
        assert lo[0] == 0.0 and hi[2] == 0.0
        assert lo[2] == 1.0 and hi[0] == 1.0

    def test_order_preserving(self):
        rng = np.random.default_rng(93)
        v = rng.uniform(0, 1, 10)
        r = rank_column(v, higher_better=False)
        assert np.array_equal(np.argsort(v, kind="stable"),
                              np.argsort(r, kind="stable"))

    def test_matches_every_column_of_the_block_ranker(self):
        # each column of a block ranks as that column ranked alone
        rng = np.random.default_rng(94)
        block = rng.integers(0, 4, (6, 5, 4)).astype(np.float64) * 0.3
        block[2, :, 1] = 0.7                    # flat columns
        block[4, :, 3] = np.inf
        higher_better = np.array([True, False, True, False])
        ranks = _minmax_ranks(block, higher_better)
        assert ranks.shape == block.shape
        for b in range(block.shape[0]):
            for k in range(block.shape[2]):
                alone = _minmax_ranks(block[b, :, k:k + 1],
                                      higher_better[k:k + 1])
                assert np.array_equal(alone[:, 0], ranks[b, :, k])


class TestMetricMeans:
    def test_plain_mean(self):
        t = table_from_columns({"a": {"dsc": [0.6, 0.8]},
                                "b": {"dsc": [0.5, 0.5]}})
        means, counts = metric_means(t, ("dsc",))
        assert means[0, 0] == pytest.approx(0.7)
        assert counts[0, 0] == 2

    def test_missing_subjects_skipped_and_counted(self):
        # 11 subjects, one method missing h95 on the last 2
        h95 = [float(i) for i in range(9)] + [None, None]
        t = table_from_columns({"a": {"h95_mm": h95},
                                "b": {"h95_mm": [1.0] * 11}})
        means, counts = metric_means(t, ("h95_mm",))
        assert means[0, 0] == pytest.approx(np.mean(range(9)))
        assert counts[0, 0] == 9
        assert counts[1, 0] == 11

    def test_all_missing_cell_raises_with_names(self):
        t = table_from_columns({"a": {"lavd": [None, None]},
                                "b": {"lavd": [0.5, 0.6]}})
        with pytest.raises(AllMissingError, match="'a'.*lavd"):
            metric_means(t, ("lavd",))


class TestFinalRank:
    def test_hand_computed_three_methods(self):
        # one varying metric (dsc), everything else tied: the final
        # rank is dsc's relative rank divided by five
        t = table_from_columns({"a": {"dsc": [0.8, 0.8]},
                                "b": {"dsc": [0.6, 0.6]},
                                "c": {"dsc": [0.3, 0.3]}})
        rt = final_rank(t)
        assert rt.methods == ("a", "b", "c")
        assert rt.final[0] == pytest.approx(0.0)
        assert rt.final[1] == pytest.approx(0.4 / 5)
        assert rt.final[2] == pytest.approx(1.0 / 5)
        assert rt.positions == (1, 2, 3)

    def test_fully_dominated_pair(self):
        cols = {}
        for name, good in (("winner", True), ("loser", False)):
            cols[name] = {}
            for m in HIGHER_BETTER:
                strong = 0.9 if HIGHER_BETTER[m] else 0.1
                weak = 0.2 if HIGHER_BETTER[m] else 0.8
                cols[name][m] = [strong if good else weak] * 2
        rt = final_rank(table_from_columns(cols))
        assert rt.methods == ("winner", "loser")
        assert list(rt.final) == [0.0, 1.0]

    def test_tied_methods_share_a_position(self):
        t = table_from_columns({"a": {"dsc": [0.8]}, "b": {"dsc": [0.8]},
                                "c": {"dsc": [0.2]}})
        rt = final_rank(t)
        assert rt.positions == (1, 1, 3)
        assert rt.methods == ("a", "b", "c")

    def test_volume_metric_selection(self):
        t = table_from_columns({"a": {"lavd": [0.1], "avd_pct": [90.0]},
                                "b": {"lavd": [0.9], "avd_pct": [10.0]}})
        by_lavd = final_rank(t, "lavd")
        by_avd = final_rank(t, "avd")
        assert by_lavd.methods == ("a", "b")
        assert by_avd.methods == ("b", "a")
        assert by_lavd.volume_metric == "lavd"
        assert by_avd.volume_metric == "avd_pct"

    def test_identical_volume_columns_give_identical_ranks(self):
        rng = np.random.default_rng(94)
        vols = rng.uniform(0.1, 2, size=(3, 4))
        cols = {f"m{i}": {"lavd": list(vols[i]), "avd_pct": list(vols[i])}
                for i in range(3)}
        t = table_from_columns(cols)
        a = final_rank(t, "lavd")
        b = final_rank(t, "avd")
        assert a.methods == b.methods
        assert np.array_equal(a.final, b.final)
        assert a.positions == b.positions

    def test_improving_a_metric_never_worsens_final(self):
        rng = np.random.default_rng(95)
        for _ in range(10):
            base_vals = rng.uniform(0.2, 0.8, size=4)
            t1 = table_from_columns(
                {f"m{i}": {"dsc": [base_vals[i]]} for i in range(4)})
            improved = base_vals.copy()
            improved[2] = min(1.0, improved[2] + rng.uniform(0, 0.2))
            t2 = table_from_columns(
                {f"m{i}": {"dsc": [improved[i]]} for i in range(4)})
            f1 = final_rank(t1)
            f2 = final_rank(t2)
            r1 = f1.final[f1.methods.index("m2")]
            r2 = f2.final[f2.methods.index("m2")]
            assert r2 <= r1 + 1e-12

    def test_alternate_volume_column_reported(self):
        t = table_from_columns({"a": {"lavd": [0.1], "avd_pct": [20.0]},
                                "b": {"lavd": [0.3], "avd_pct": [40.0]}})
        rt = final_rank(t, "lavd")
        assert "avd_pct" in rt.means
        assert rt.means["avd_pct"][0] == pytest.approx(20.0)

    def test_single_method_rejected(self):
        t = table_from_columns({"only": {"dsc": [0.5]}})
        with pytest.raises(ArityError):
            final_rank(t)


class TestBootstrap:
    def test_bit_identical_across_runs(self):
        rng = np.random.default_rng(96)
        cols = {f"m{i}": {"dsc": list(rng.uniform(0.3, 0.9, 12))}
                for i in range(3)}
        t = table_from_columns(cols)
        cfg = BootstrapConfig(replicates=300, seed=7)
        a = rank_with_ci(t, config=cfg)
        b = rank_with_ci(t, config=cfg)
        assert np.array_equal(a.final_ci, b.final_ci)
        assert all(np.array_equal(a.mean_ci[k], b.mean_ci[k])
                   for k in a.mean_ci)
        assert a.cluster_boundaries == b.cluster_boundaries
        assert a.redraws == b.redraws

    def test_seed_changes_the_intervals(self):
        rng = np.random.default_rng(97)
        cols = {f"m{i}": {"dsc": list(rng.uniform(0.3, 0.9, 12))}
                for i in range(3)}
        t = table_from_columns(cols)
        a = rank_with_ci(t, config=BootstrapConfig(replicates=300, seed=1))
        b = rank_with_ci(t, config=BootstrapConfig(replicates=300, seed=2))
        assert not np.array_equal(a.final_ci, b.final_ci)

    def test_identical_subjects_collapse_to_point(self):
        cols = {"a": {"dsc": [0.7] * 6}, "b": {"dsc": [0.4] * 6}}
        t = table_from_columns(cols)
        rt = rank_with_ci(t, config=BootstrapConfig(replicates=100, seed=3))
        assert np.array_equal(rt.final_ci[:, 0], rt.final_ci[:, 1])
        assert np.array_equal(rt.final_ci[:, 0], rt.final)

    def test_point_estimate_inside_ci(self):
        rng = np.random.default_rng(98)
        cols = {f"m{i}": {"dsc": list(rng.uniform(0.3, 0.9, 30))}
                for i in range(4)}
        t = table_from_columns(cols)
        rt = rank_with_ci(t, config=BootstrapConfig(replicates=500, seed=4))
        for k, method in enumerate(rt.methods):
            lo, hi = rt.final_ci[k]
            assert lo <= hi
            mean_lo, mean_hi = rt.mean_ci["dsc"][k]
            assert mean_lo <= rt.means["dsc"][k] <= mean_hi

    def test_missing_cells_trigger_counted_redraws(self):
        # method a has h95 only on the second subject: any draw of
        # (s000, s000) must be redrawn
        t = table_from_columns({"a": {"h95_mm": [None, 1.0]},
                                "b": {"h95_mm": [2.0, 3.0]}})
        rt = rank_with_ci(t, config=BootstrapConfig(replicates=400, seed=5))
        assert rt.redraws > 0
        assert np.isfinite(rt.final_ci).all()

    def test_endless_redraws_name_the_replicate(self, monkeypatch):
        # a's h95 is defined on s000 alone, so about a third of the
        # draws of 8 subjects miss it; with two draws allowed, the
        # first replicate whose two numpy draws both miss s000 fails
        monkeypatch.setattr(ranking, "_MAX_REDRAW", 2)
        t = table_from_columns({"a": {"h95_mm": [1.0] + [None] * 7},
                                "b": {"h95_mm": [float(i) for i in range(8)]}})

        def misses_twice(replicate):
            rng = np.random.Generator(np.random.Philox(
                key=3 + ((replicate + 1) << 64)))
            return all(0 not in rng.integers(0, 8, 8) for _ in range(2))

        first = next(r for r in range(300) if misses_twice(r))
        with pytest.raises(AllMissingError,
                           match=f"bootstrap replicate {first} kept drawing"):
            rank_with_ci(t, config=BootstrapConfig(replicates=300, seed=3))

    def test_zero_replicates_returns_plain_ranking(self):
        t = table_from_columns({"a": {"dsc": [0.7, 0.8]},
                                "b": {"dsc": [0.4, 0.5]}})
        rt = rank_with_ci(t, config=BootstrapConfig(replicates=0))
        assert rt.final_ci is None
        assert rt.cluster_boundaries is None

    def test_single_subject_rejected(self):
        t = table_from_columns({"a": {"dsc": [0.7]}, "b": {"dsc": [0.4]}})
        with pytest.raises(ArityError):
            rank_with_ci(t, config=BootstrapConfig(replicates=10))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BootstrapConfig(replicates=-1)
        with pytest.raises(ValueError):
            BootstrapConfig(confidence=1.0)

    @pytest.mark.parametrize("field", ["replicates", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, float("nan"), float("inf"),
                                       True])
    def test_integer_fields_refuse_other_numbers(self, field, value):
        # --bootstrap and --seed refuse these too; a float replicate
        # count used to end in an incidental TypeError inside the loop
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            BootstrapConfig(**{field: value})

    def test_numpy_integers_are_integers(self):
        t = table_from_columns({"a": {"dsc": [0.7, 0.8, 0.6]},
                                "b": {"dsc": [0.4, 0.5, 0.45]}})
        got = rank_with_ci(t, config=BootstrapConfig(
            replicates=np.int64(300), seed=np.int64(4)))
        want = rank_with_ci(t, config=BootstrapConfig(replicates=300, seed=4))
        assert np.array_equal(got.final_ci, want.final_ci)


class TestSignificanceClusters:
    def test_all_overlapping(self):
        ci = [[0.0, 0.5], [0.1, 0.6], [0.2, 0.7]]
        assert significance_clusters(ci) == ()

    def test_two_disjoint(self):
        assert significance_clusters([[0.0, 0.1], [0.2, 0.3]]) == (1,)

    def test_touching_intervals_do_not_separate(self):
        assert significance_clusters([[0.0, 0.2], [0.2, 0.3]]) == ()

    def test_mixed(self):
        ci = [[0.0, 0.05], [0.10, 0.20], [0.15, 0.30], [0.40, 0.50]]
        assert significance_clusters(ci) == (1, 3)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            significance_clusters(np.zeros((3, 3)))


def _scanner_table(rng, n_scanners: int, blank_cells: int):
    """Three methods on 1-3 subjects per scanner, values spread over six
    decades with ties. With ``blank_cells`` > 0, scattered gaps and that
    many random (method, metric, scanner) cells with no defined value;
    a cell left with fewer than two defined scanners gets the first
    subject of its last empty scanners back."""
    scanner_of, members = {}, []
    for g in range(n_scanners):
        members.append([])
        for _ in range(int(rng.integers(1, 4))):
            members[g].append(len(scanner_of))
            scanner_of[f"s{len(scanner_of):03d}"] = f"scan{g}"
    n_subj = len(scanner_of)
    cols = {}
    for m in ("m0", "m1", "m2"):
        cols[m] = {}
        for k in ("dsc", "h95_mm", "avd_pct", "lavd", "recall", "f1"):
            v = (rng.integers(1, 4, n_subj) / 3.0
                 * 10.0 ** rng.integers(-3, 3, n_subj))
            cols[m][k] = [None if blank_cells and rng.random() < 0.15
                          else float(x) for x in v]
    for _ in range(blank_cells):
        m = f"m{rng.integers(0, 3)}"
        k = ("dsc", "h95_mm", "lavd", "avd_pct")[rng.integers(0, 4)]
        for i in members[rng.integers(0, n_scanners)]:
            cols[m][k][i] = None
    for col in (c for by_metric in cols.values() for c in by_metric.values()):
        empty = [g for g in range(n_scanners)
                 if all(col[i] is None for i in members[g])]
        for g in empty[max(0, n_scanners - 2):]:
            col[members[g][0]] = 0.5
    return table_from_columns(cols, scanner_of=scanner_of)


def _evaluation_warnings(call):
    """Call ``call()``; return its result (or the AllMissingError it
    raised) and the text of each EvaluationWarning, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call()
        except AllMissingError as exc:
            out = exc
    return out, [str(w.message) for w in caught
                 if issubclass(w.category, EvaluationWarning)]


class TestInterscanner:
    def _five_scanner_table(self, medians_by_method):
        """One subject per scanner; h95 planted, everything else 0.5."""
        scanner_of = {f"s{i:03d}": f"scan{i}" for i in range(5)}
        cols = {m: {"h95_mm": list(vals)}
                for m, vals in medians_by_method.items()}
        return table_from_columns(cols, scanner_of=scanner_of)

    def test_dispersion_difference_is_one_fifth(self):
        t = self._five_scanner_table({"steady": [1.0] * 5,
                                      "jumpy": [0.0, 1.0, 2.0, 3.0, 4.0]})
        res = interscanner_rank(t)
        assert res.methods == ("steady", "jumpy")
        assert res.robustness[0] == pytest.approx(0.0)
        assert res.robustness[1] == pytest.approx(0.2)
        assert res.dispersions["h95_mm"][1] == pytest.approx(
            statistics.pstdev([0, 1, 2, 3, 4]))

    def test_ordinal_normalization(self):
        t = self._five_scanner_table({"steady": [1.0] * 5,
                                      "mid": [0.0, 1.0, 1.0, 1.0, 2.0],
                                      "jumpy": [0.0, 1.0, 2.0, 3.0, 4.0]})
        res = interscanner_rank(t, normalization="ordinal")
        assert res.normalization == "ordinal"
        assert res.methods == ("steady", "mid", "jumpy")
        # h95 ordinal positions 0, 0.5, 1; the four tied metrics add the
        # same average-position constant to every method, so only the
        # differences are pinned down
        assert res.robustness[1] - res.robustness[0] == pytest.approx(0.1)
        assert res.robustness[2] - res.robustness[0] == pytest.approx(0.2)

    def test_matches_spreadsheet_style_recomputation(self):
        rng = np.random.default_rng(99)
        n_scanners, per_scanner = 5, 3
        scanner_of = {}
        sid = 0
        for g in range(n_scanners):
            for _ in range(per_scanner):
                scanner_of[f"s{sid:03d}"] = f"scan{g}"
                sid += 1
        methods = ["m0", "m1", "m2"]
        metrics = selected_metrics("lavd")
        data = {m: {k: list(rng.uniform(0.1, 3.0, sid)) for k in metrics}
                for m in methods}
        t = table_from_columns(data, scanner_of=scanner_of)
        res = interscanner_rank(t)

        # plain-python recomputation
        disp = {}
        for m in methods:
            disp[m] = {}
            for k in metrics:
                meds = []
                for g in range(n_scanners):
                    subj = [f"s{i:03d}" for i in range(sid)
                            if scanner_of[f"s{i:03d}"] == f"scan{g}"]
                    vals = [data[m][k][int(s[1:])] for s in subj]
                    meds.append(statistics.median(vals))
                disp[m][k] = statistics.pstdev(meds)
        robust = {}
        for m in methods:
            total = 0.0
            for k in metrics:
                col = [disp[mm][k] for mm in methods]
                lo, hi = min(col), max(col)
                total += 0.0 if hi == lo else (disp[m][k] - lo) / (hi - lo)
            robust[m] = total / len(metrics)
        want_order = tuple(sorted(methods, key=lambda m: (robust[m], m)))
        assert res.methods == want_order
        for i, m in enumerate(res.methods):
            assert res.robustness[i] == pytest.approx(robust[m], abs=1e-9)

    def test_all_missing_scanner_warns_and_excludes(self):
        scanner_of = {"s000": "a", "s001": "a", "s002": "b", "s003": "c"}
        t = table_from_columns(
            {"x": {"h95_mm": [None, None, 1.0, 2.0]},
             "y": {"h95_mm": [1.0, 1.0, 1.0, 2.0]}},
            scanner_of=scanner_of)
        with pytest.warns(EvaluationWarning, match="scanner 'a'"):
            res = interscanner_rank(t)
        assert set(res.methods) == {"x", "y"}

    def test_too_few_scanners_after_exclusion(self):
        scanner_of = {"s000": "a", "s001": "b"}
        t = table_from_columns(
            {"x": {"h95_mm": [None, 1.0]},
             "y": {"h95_mm": [1.0, 1.0]}},
            scanner_of=scanner_of)
        with pytest.warns(EvaluationWarning):
            with pytest.raises(AllMissingError):
                interscanner_rank(t)

    @pytest.mark.parametrize("volume_metric", ["lavd", "avd"])
    @pytest.mark.parametrize("normalization", ["minmax", "ordinal"])
    def test_matches_the_cell_by_cell_oracle(self, volume_metric,
                                             normalization):
        # 9 and 12 scanners put eight or more medians in one np.std,
        # where numpy's sum switches to blocks of eight
        rng = np.random.default_rng(100)
        metrics = selected_metrics(volume_metric)
        warned = []
        for n_scanners, blank_cells in ((2, 0), (3, 2), (5, 0), (5, 4),
                                        (5, 9), (9, 6), (12, 12)):
            t = _scanner_table(rng, n_scanners, blank_cells)
            want, want_warned = _evaluation_warnings(
                lambda: interscanner_oracle(t, metrics, normalization))
            got, got_warned = _evaluation_warnings(
                lambda: interscanner_rank(t, volume_metric, normalization))
            assert got_warned == want_warned
            if not blank_cells:
                assert not got_warned
            warned += got_warned
            methods, robustness, dispersions = want
            assert got.methods == methods
            assert np.array_equal(got.robustness, robustness)
            assert got.dispersions.keys() == dispersions.keys()
            for name, disp in dispersions.items():
                assert np.array_equal(got.dispersions[name], disp)
        # empty cells on the first scanner too, where a NaN-as-zero sum
        # would group the terms differently
        assert any(w.startswith("scanner 'scan0'") for w in warned)

    def test_warns_every_empty_cell_then_raises_on_the_oracles_cell(self):
        # x's h95 has one scanner, y's dsc misses scanner b: the oracle
        # stops at x's h95, the array code warns for y's dsc first
        scanner_of = {"s000": "a", "s001": "b", "s002": "c"}
        t = table_from_columns(
            {"x": {"h95_mm": [None, None, 1.0], "dsc": [0.5, 0.6, 0.7]},
             "y": {"h95_mm": [1.0, 1.5, 2.0], "dsc": [0.5, None, 0.7]}},
            scanner_of=scanner_of)
        want, want_warned = _evaluation_warnings(
            lambda: interscanner_oracle(t, selected_metrics("lavd")))
        got, got_warned = _evaluation_warnings(lambda: interscanner_rank(t))
        assert isinstance(want, AllMissingError)
        assert isinstance(got, AllMissingError)
        assert str(got) == str(want)
        assert got_warned[:len(want_warned)] == want_warned
        assert got_warned == [
            "scanner 'a' has no defined h95_mm for method 'x'; excluded "
            "from its dispersion",
            "scanner 'b' has no defined h95_mm for method 'x'; excluded "
            "from its dispersion",
            "scanner 'b' has no defined dsc for method 'y'; excluded "
            "from its dispersion"]

    def test_needs_two_scanners(self):
        t = table_from_columns({"x": {"dsc": [0.5, 0.6]},
                                "y": {"dsc": [0.4, 0.7]}})
        with pytest.raises(ArityError, match="scanners"):
            interscanner_rank(t)

    def test_bad_normalization_name(self):
        t = self._five_scanner_table({"a": [1.0] * 5, "b": [2.0] * 5})
        with pytest.raises(ValueError):
            interscanner_rank(t, normalization="zscore")
