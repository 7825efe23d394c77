import pytest
from hypothesis import given
from hypothesis import strategies as st

from scbench.adapters import AdapterConfig
from scbench.corpus import ContractCase
from scbench.errors import (EmptyMatrix, NoSupportedClasses, NotApplicable,
                            NoValidRuns)
from scbench.metrics import (ConfusionMatrix, MetricSet, confusion,
                             efficiency_scores, functional_score,
                             indicator_matrix, per_class_metrics, prf,
                             score_campaign, timing, usability_score)
from scbench.runner import RecordSet, ScanRecord
from scbench.taxonomy import Registry, ToolDescriptor, VersionId


def make_tool(name="T", capabilities=("V1",)):
    return ToolDescriptor(
        name=name, methods=frozenset({"SA"}),
        capabilities=frozenset(capabilities),
        max_solidity=VersionId(8),
        adapter=AdapterConfig(kind="stub"),
    )


def vulnerable_case(idx, class_id="V1"):
    return ContractCase(
        id=f"vuln_{class_id}_{idx}",
        source="pragma solidity ^0.5.0;\ncontract C {}\n",
        expected={class_id: frozenset({2})},
    )


def safe_case(idx):
    return ContractCase(
        id=f"safe_{idx}",
        source="pragma solidity ^0.5.0;\ncontract S {}\n",
    )


def flag(tool, case, *classes):
    return ScanRecord(tool, case.id, "ok", 10,
                      {c: frozenset({2}) for c in classes})


def clean(tool, case, status="ok"):
    return ScanRecord(tool, case.id, status, 10 if status == "ok" else 300)


class TestConfusion:
    def test_all_flagged_all_safe_clean(self):
        tool = make_tool()
        vuln = [vulnerable_case(i) for i in range(10)]
        safe = [safe_case(i) for i in range(5)]
        records = RecordSet(
            [flag("T", c, "V1") for c in vuln] + [clean("T", c) for c in safe]
        )
        cm = confusion(records, tool, "V1", vuln + safe)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (10, 5, 0, 0)

    def test_unsupported_class_not_applicable(self):
        tool = make_tool(capabilities=("V2",))
        with pytest.raises(NotApplicable):
            confusion(RecordSet([]), tool, "V1", [])

    def test_partial_detection(self):
        tool = make_tool()
        vuln = [vulnerable_case(i) for i in range(3)]
        records = RecordSet(
            [flag("T", vuln[0], "V1"), clean("T", vuln[1]), clean("T", vuln[2])]
        )
        cm = confusion(records, tool, "V1", vuln)
        assert (cm.tp, cm.fn) == (1, 2)

    def test_denominator_is_class_cases_plus_safe(self):
        # cases vulnerable only to other classes stay out of V1's matrix
        tool = make_tool(capabilities=("V1", "V2"))
        v1 = vulnerable_case(0, "V1")
        v2 = vulnerable_case(0, "V2")
        s = safe_case(0)
        records = RecordSet([
            flag("T", v1, "V1"), flag("T", v2, "V2"), clean("T", s),
        ])
        cm = confusion(records, tool, "V1", [v1, v2, s])
        assert cm.total == 2  # v1 + safe, not v2

    def test_non_ok_scans_excluded_by_default(self):
        tool = make_tool()
        vuln = [vulnerable_case(i) for i in range(2)]
        records = RecordSet([
            flag("T", vuln[0], "V1"), clean("T", vuln[1], status="timeout"),
        ])
        cm = confusion(records, tool, "V1", vuln)
        assert (cm.tp, cm.fn, cm.total) == (1, 0, 1)


class TestPrf:
    def test_published_row_identity(self):
        ms = prf(ConfusionMatrix(tp=27, fp=0, fn=54, tn=17))
        assert ms.precision == 1
        assert ms.recall == pytest.approx(1 / 3, abs=5e-4)
        assert ms.f1 == pytest.approx(0.5, abs=5e-4)
        assert ms.accuracy == pytest.approx(0.449, abs=5e-4)

    def test_symmetric_matrix(self):
        ms = prf(ConfusionMatrix(5, 5, 5, 5))
        assert (ms.accuracy, ms.precision, ms.recall, ms.f1) == (0.5, 0.5, 0.5, 0.5)

    def test_degenerate_precision_flagged(self):
        ms = prf(ConfusionMatrix(tp=0, fp=0, fn=3, tn=7))
        assert ms.accuracy == pytest.approx(0.7)
        assert not ms.precision_defined and ms.precision == 0.0
        assert ms.recall_defined and ms.recall == 0.0
        assert ms.f1 == 0.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyMatrix):
            prf(ConfusionMatrix(0, 0, 0, 0))

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50),
           st.integers(0, 50))
    def test_f1_identity_and_bounds(self, tp, fp, fn, tn):
        cm = ConfusionMatrix(tp, fp, fn, tn)
        if cm.total == 0:
            return
        ms = prf(cm)
        if 2 * tp + fp + fn > 0:
            assert ms.f1 == pytest.approx(2 * tp / (2 * tp + fp + fn))
        if ms.precision_defined and ms.recall_defined:
            assert min(ms.precision, ms.recall) - 1e-12 <= ms.f1
            assert ms.f1 <= max(ms.precision, ms.recall) + 1e-12

    @given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30),
           st.integers(0, 30))
    def test_extra_true_positive_never_hurts(self, tp, fp, fn, tn):
        cm = ConfusionMatrix(tp, fp, fn, tn)
        if cm.total == 0:
            return
        before = prf(cm)
        after = prf(ConfusionMatrix(tp + 1, fp, fn, tn))
        assert after.accuracy >= before.accuracy - 1e-12
        assert after.precision >= before.precision - 1e-12
        assert after.recall >= before.recall - 1e-12
        assert after.f1 >= before.f1 - 1e-12


class TestFunctionalScore:
    def test_single_class_tool_equals_f1(self):
        ms = MetricSet(0.951, 0.984, 0.954, 0.969)
        assert functional_score([ms]) == pytest.approx(0.969, abs=5e-4)

    def test_average_pair_combination(self):
        # average precision 1 and recall 0.404 combine to 0.576
        ms = MetricSet(0.0, 1.0, 0.404, 0.0)
        assert functional_score([ms]) == pytest.approx(0.576, abs=2e-3)

    def test_no_classes_rejected(self):
        with pytest.raises(NoSupportedClasses):
            functional_score([])

    def test_zero_scores(self):
        ms = MetricSet(0.0, 0.0, 0.0, 0.0, False, False)
        assert functional_score([ms]) == 0.0


class TestTiming:
    def test_average_from_totals(self):
        records = RecordSet(
            [ScanRecord("T", f"c{i}", "ok", 887100) for i in range(349)]
            + [ScanRecord("T", f"t{i}", "timeout", 1000) for i in range(40)]
        )
        summary = timing(records, "T")
        assert summary.valid_count == 349
        assert summary.avg_seconds == pytest.approx(887.1)

    def test_single_run(self):
        summary = timing(RecordSet([ScanRecord("T", "c", "ok", 10_000)]), "T")
        assert (summary.total_seconds, summary.valid_count) == (10.0, 1)
        assert summary.avg_seconds == 10.0

    def test_no_valid_runs_rejected(self):
        records = RecordSet([ScanRecord("T", "c", "timeout", 300)])
        with pytest.raises(NoValidRuns):
            timing(records, "T")


class TestEfficiency:
    def test_endpoints(self):
        scores = efficiency_scores({"fast": 1.2, "mid": 100.0, "slow": 892.0})
        assert scores["fast"] == 1.0
        assert scores["slow"] == 0.0
        assert 0 < scores["mid"] < 1

    def test_all_equal_convention(self):
        assert efficiency_scores({"a": 5.0, "b": 5.0}) == {"a": 1.0, "b": 1.0}

    def test_single_tool_convention(self):
        assert efficiency_scores({"only": 42.0}) == {"only": 1.0}


class TestUsability:
    def test_mythril_breadth(self, registry):
        assert usability_score(registry.get("Mythril")) == pytest.approx(0.8)

    def test_maian_narrowness(self, registry):
        assert usability_score(registry.get("Maian")) == pytest.approx(0.1)


class TestIndicatorMatrix:
    def _tiny_setup(self):
        registry = Registry((
            make_tool("Alpha", capabilities=("V1",)),
            make_tool("Beta", capabilities=("V1", "V2")),
        ))
        vuln = [vulnerable_case(i) for i in range(4)]
        safe = [safe_case(0)]
        records = []
        # Alpha: catches 3 of 4 vulnerable, flags the safe case too; 2s scans
        for i, c in enumerate(vuln):
            found = {"V1": frozenset({2})} if i < 3 else {}
            records.append(ScanRecord("Alpha", c.id, "ok", 2000, found))
        records.append(ScanRecord("Alpha", safe[0].id, "ok", 2000,
                                  {"V1": frozenset()}))
        # Beta: catches all 4, clean on safe; 6s scans
        for c in vuln:
            records.append(ScanRecord("Beta", c.id, "ok", 6000,
                                      {"V1": frozenset({2})}))
        records.append(ScanRecord("Beta", safe[0].id, "ok", 6000))
        return registry, vuln + safe, RecordSet(records)

    def test_matches_hand_computation(self):
        registry, corpus, records = self._tiny_setup()
        scores = score_campaign(records, registry, corpus)
        matrix = indicator_matrix(
            registry, {t: s.functional for t, s in scores.items()},
            {t: s.timing for t, s in scores.items()})
        assert matrix.tools == ("Alpha", "Beta")
        alpha = matrix.row("Alpha")
        beta = matrix.row("Beta")
        # Alpha on V1: TP=3 FN=1 FP=1 TN=0 -> P=3/4, R=3/4 -> S_f=0.75;
        # fastest tool so S_e=1; 0.8 compiler -> S_c=1; 1 class -> S_u=0.1
        assert alpha[0] == pytest.approx(0.75)
        assert alpha[1] == 1.0
        assert alpha[2] == 1.0
        assert alpha[3] == pytest.approx(0.1)
        # Beta: perfect on V1; V2 evaluates only the safe case (TN=1) so its
        # precision/recall degenerate to 0 -> P_avg=R_avg=0.5 -> S_f=0.5
        assert beta[0] == pytest.approx(0.5)
        assert beta[1] == 0.0
        assert beta[3] == pytest.approx(0.2)

    def test_per_class_metrics_skips_unsupported(self):
        registry, corpus, records = self._tiny_setup()
        alpha = registry.get("Alpha")
        metrics = per_class_metrics(records, alpha, corpus)
        assert set(metrics) == {"V1"}
