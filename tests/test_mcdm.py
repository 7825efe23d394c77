import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scbench.errors import (DimensionMismatch, NotReciprocal, ScbenchError)
from scbench.mcdm import (WeightVector, ahp_weights, ewm_weights,
                          load_pairwise, overall_scores, parse_pairwise,
                          standardize)
from scbench.metrics import IndicatorMatrix

from .oracles import consistent_ahp_oracle, ewm_oracle


def matrix_of(rows):
    return np.array(rows, dtype=float)


class TestStandardize:
    def test_simple_column(self):
        out, degenerate = standardize(matrix_of([[1], [3], [5]]))
        assert [r[0] for r in out] == pytest.approx([0, 0.5, 1])
        assert degenerate == []

    def test_constant_column_flagged(self):
        out, degenerate = standardize(matrix_of([[2, 1], [2, 3]]))
        assert [r[0] for r in out] == pytest.approx([0, 0])
        assert degenerate == [0]

    def test_idempotent_on_scaled_column(self):
        col = matrix_of([[0.0], [0.25], [1.0]])
        once, _ = standardize(col)
        twice, _ = standardize(once)
        assert np.allclose(once, twice)

    def test_non_finite_rejected(self):
        with pytest.raises(ScbenchError):
            standardize(matrix_of([[1, np.nan], [2, 3]]))


class TestEwmWeights:
    def test_identical_columns_share_weight(self):
        m = matrix_of([[1, 1], [2, 2], [5, 5]])
        w = ewm_weights(m)
        assert w.values[0] == pytest.approx(w.values[1])

    def test_toy_matrix_against_oracle(self):
        m = matrix_of([[1, 10], [2, 30], [3, 20]])
        w = ewm_weights(m)
        assert np.allclose(w.values, ewm_oracle(m), atol=1e-9)

    def test_all_degenerate_falls_back_uniform(self, caplog):
        m = matrix_of([[1, 2], [1, 2], [1, 2]])
        with caplog.at_level("WARNING"):
            w = ewm_weights(m)
        assert w.values == (0.5, 0.5)
        assert any("degenerate" in r.message for r in caplog.records)

    def test_single_alternative_rejected(self):
        with pytest.raises(ScbenchError):
            ewm_weights(matrix_of([[1, 2]]))

    @settings(max_examples=40, deadline=None)
    @given(arrays(np.float64, (5, 3), elements=st.floats(0, 100)))
    def test_weights_sum_to_one_and_non_negative(self, m):
        w = ewm_weights(m)
        assert abs(sum(w.values) - 1) < 1e-9
        assert all(v >= 0 for v in w.values)

    @settings(max_examples=40, deadline=None)
    @given(
        # 3-decimal values keep column spreads representable after the shift
        arrays(np.float64, (6, 3),
               elements=st.floats(0.0, 50.0).map(lambda x: round(x, 3))),
        st.floats(0.1, 8.0).map(lambda x: round(x, 2)),
        st.floats(-5.0, 5.0).map(lambda x: round(x, 2)),
    )
    def test_affine_rescaling_of_column_is_absorbed(self, m, scale, shift):
        rescaled = m.copy()
        rescaled[:, 1] = rescaled[:, 1] * scale + shift
        assert np.allclose(
            ewm_weights(m).values, ewm_weights(rescaled).values, atol=1e-9
        )


class TestPairwiseParsing:
    def test_rational_entries(self):
        a = parse_pairwise("2\n1 1/4\n4 1\n")
        assert a[0][1] == pytest.approx(0.25)

    def test_comments_and_blanks_ignored(self):
        a = parse_pairwise("# judgment matrix\n\n2\n1 2\n1/2 1\n")
        assert [len(row) for row in a] == [2, 2]

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ScbenchError, match="matrix rows"):
            parse_pairwise("3\n1 1 1\n1 1 1\n")

    def test_bundled_matrices_load(self):
        from scbench.reference import pairwise_path

        a1 = load_pairwise(pairwise_path("a1"))
        a2 = load_pairwise(pairwise_path("a2"))
        assert [len(row) for row in a1] == [len(row) for row in a2] == [4] * 4
        assert a1[0][1] == 4 and a2[0][1] == 2


class TestAhpWeights:
    def test_uniform_for_all_ones(self):
        w, report = ahp_weights(np.ones((4, 4)))
        assert np.allclose(w.values, [0.25] * 4, atol=1e-12)
        assert report.cr == pytest.approx(0.0, abs=1e-9)
        assert report.consistent

    def test_consistent_matrix_recovers_ratios(self):
        v = [5.0, 1.0, 2.5, 0.5]
        a = np.array([[vi / vj for vj in v] for vi in v])
        w, report = ahp_weights(a)
        assert np.allclose(w.values, consistent_ahp_oracle(v), atol=1e-9)
        assert report.lambda_max == pytest.approx(4.0, abs=1e-9)
        assert report.cr < 1e-9

    def test_reciprocity_enforced(self):
        bad = np.array([[1.0, 2.0], [0.4, 1.0]])
        with pytest.raises(NotReciprocal):
            ahp_weights(bad)
        with pytest.raises(NotReciprocal):
            ahp_weights(np.array([[1.0, -2.0], [-0.5, 1.0]]))

    def test_two_by_two_has_zero_cr(self):
        w, report = ahp_weights(np.array([[1.0, 3.0], [1 / 3, 1.0]]))
        assert report.cr == 0.0
        assert w.values[0] == pytest.approx(0.75)

    def test_matches_numpy_eigensolver_on_random_reciprocal(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(3, 8))
            a = np.ones((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    a[i, j] = rng.choice(
                        [1 / 9, 1 / 7, 1 / 5, 1 / 3, 1, 3, 5, 7, 9]
                    )
                    a[j, i] = 1 / a[i, j]
            w, report = ahp_weights(a)
            vals, vecs = np.linalg.eig(a)
            k = np.argmax(vals.real)
            ref = np.abs(vecs[:, k].real)
            ref = ref / ref.sum()
            assert np.allclose(w.values, ref, atol=1e-9)
            assert report.lambda_max == pytest.approx(vals[k].real, abs=1e-9)


class TestOverallScores:
    def _indicators(self, rows, names=None):
        names = names or tuple(f"T{i}" for i in range(len(rows)))
        return IndicatorMatrix(tuple(names), np.array(rows, dtype=float))

    def test_perfect_tool_scores_hundred(self):
        table = overall_scores(
            self._indicators([[1, 1, 1, 1], [0, 0, 0, 0]]),
            WeightVector((0.25, 0.25, 0.25, 0.25)),
        )
        assert table.score_of("T0") == 100.0
        assert table.score_of("T1") == 0.0

    def test_hand_computed_dot_products(self):
        ind = self._indicators(
            [[0.8, 0.5, 1.0, 0.3], [0.6, 1.0, 0.0, 0.9], [0.2, 0.1, 0.5, 0.4]],
            names=("a", "b", "c"),
        )
        w = WeightVector((0.4, 0.3, 0.2, 0.1))
        table = overall_scores(ind, w)
        assert table.score_of("a") == pytest.approx(70.0)   # .32+.15+.2+.03
        assert table.score_of("b") == pytest.approx(63.0)   # .24+.30+0+.09
        assert table.score_of("c") == pytest.approx(25.0)   # .08+.03+.1+.04
        assert table.ranked_names() == ["a", "b", "c"]
        assert [r.rank for r in table.rows] == [1, 2, 3]

    def test_ties_break_by_name(self):
        ind = self._indicators([[0.5, 0.5, 0.5, 0.5]] * 2, names=("zeta", "alpha"))
        table = overall_scores(ind, WeightVector((0.25,) * 4))
        assert table.ranked_names() == ["alpha", "zeta"]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            overall_scores(
                self._indicators([[1, 1, 1, 1], [0, 0, 0, 0]]),
                WeightVector((0.5, 0.25, 0.25)),
            )

    def test_row_permutation_invariance(self):
        rows = [[0.9, 0.1, 0.4, 0.8], [0.2, 0.7, 0.9, 0.1], [0.5, 0.5, 0.5, 0.5]]
        names = ("x", "y", "z")
        w = WeightVector((0.1, 0.2, 0.3, 0.4))
        straight = overall_scores(self._indicators(rows, names), w)
        shuffled = overall_scores(
            self._indicators([rows[2], rows[0], rows[1]], ("z", "x", "y")), w
        )
        assert straight.ranked_names() == shuffled.ranked_names()
        assert [r.score for r in straight.rows] == [r.score for r in shuffled.rows]

    def test_standardized_scoring_reproduces_published_rows(self):
        # with range-normalized columns the AHP score rows match the
        # published reference values almost exactly
        from scbench import reference
        from scbench.mcdm import ahp_weights, load_pairwise

        indicators = reference.indicator_matrix()
        published = reference.published_overall()
        for key, name in (("ahp1", "a1"), ("ahp2", "a2")):
            w, _ = ahp_weights(load_pairwise(reference.pairwise_path(name)))
            table = overall_scores(indicators, w, standardize_indicators=True)
            for tool in ("Slither", "Solhint", "Mythril", "Conkas", "Oyente"):
                assert table.score_of(tool) == pytest.approx(
                    published[tool][key], abs=0.3
                ), (key, tool)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 3), st.floats(0.01, 0.3))
    def test_raising_an_indicator_never_hurts(self, column, bump):
        rows = [[0.5, 0.4, 0.6, 0.2], [0.45, 0.6, 0.3, 0.5], [0.7, 0.2, 0.4, 0.6]]
        w = WeightVector((0.3, 0.3, 0.2, 0.2))
        before = overall_scores(self._indicators(rows), w)
        bumped = [row[:] for row in rows]
        bumped[1][column] = min(1.0, bumped[1][column] + bump)
        after = overall_scores(self._indicators(bumped), w)
        assert after.score_of("T1") >= before.score_of("T1")
        rank_before = [r.rank for r in before.rows if r.tool == "T1"][0]
        rank_after = [r.rank for r in after.rows if r.tool == "T1"][0]
        assert rank_after <= rank_before


class TestWeightVector:
    def test_must_sum_to_one(self):
        with pytest.raises(ScbenchError):
            WeightVector((0.5, 0.4))

    def test_negative_rejected(self):
        with pytest.raises(ScbenchError):
            WeightVector((1.5, -0.5))
