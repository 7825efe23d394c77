import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbench.adapters import AdapterConfig
from scbench.corpus import ContractCase
from scbench.errors import (EmptyMatrix, MissingRecord, NoSupportedClasses, NoValidRuns,
                            ScbenchError)
from scbench.metrics import (ConfusionMatrix, MetricSet, TimingSummary,
                             efficiency_scores, functional_score,
                             indicator_matrix, prf,
                             usability_score)
from scbench.metrics import score_campaign
from scbench.records import STATUSES, ScanRecord, load_outcomes, read_records, write_records
from scbench.taxonomy import Registry, ToolDescriptor, VersionId

from .conftest import scored
from .oracles import score_campaign_oracle


def make_tool(name="T", capabilities=("V1",)):
    return ToolDescriptor(
        name=name, methods=frozenset({"SA"}),
        capabilities=frozenset(capabilities),
        max_solidity=VersionId(8),
        adapter=AdapterConfig(),
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


def score_one(tool, corpus, records):
    return scored(records, Registry((tool,)), corpus)[tool.name]


def cell(tp, fp, fn, tn):
    """The MetricSet of one (tp, fp, fn, tn) cell."""
    return prf(ConfusionMatrix(tp, fp, fn, tn))


class TestConfusion:
    def test_all_flagged_all_safe_clean(self):
        tool = make_tool()
        vuln = [vulnerable_case(i) for i in range(10)]
        safe = [safe_case(i) for i in range(5)]
        scores = score_one(tool, vuln + safe,
                           [flag("T", c, "V1") for c in vuln] + [clean("T", c) for c in safe])
        assert scores.classes == {"V1": cell(10, 0, 0, 5)}
        assert scores.flagged == {"V1": [c.id for c in vuln]}
        assert scores.timing == TimingSummary(0.15, 15)

    def test_unsupported_class_not_applicable(self):
        # a tool has no cell and no flagged contracts for a class it does
        # not support, though the corpus holds that class
        tool = make_tool(capabilities=("V2",))
        corpus = [vulnerable_case(0, "V1"), vulnerable_case(0, "V2"), safe_case(0)]
        scores = score_one(tool, corpus, [flag("T", c, "V2") for c in corpus])
        assert set(scores.classes) == set(scores.flagged) == {"V2"}

    def test_partial_detection(self):
        tool = make_tool()
        vuln = [vulnerable_case(i) for i in range(3)]
        scores = score_one(tool, vuln, [flag("T", vuln[0], "V1"), clean("T", vuln[1]),
                                        clean("T", vuln[2])])
        assert scores.classes["V1"] == cell(1, 0, 2, 0)

    def test_denominator_is_class_cases_plus_safe(self):
        # a case vulnerable only to V2 stays out of V1's cell, though the
        # tool flags V1 there: in the cell it would be a false positive
        tool = make_tool(capabilities=("V1", "V2"))
        v1 = vulnerable_case(0, "V1")
        v2 = vulnerable_case(0, "V2")
        s = safe_case(0)
        scores = score_one(tool, [v1, v2, s], [
            flag("T", v1, "V1"), flag("T", v2, "V1", "V2"), clean("T", s),
        ])
        assert scores.classes == {"V1": cell(1, 0, 0, 1), "V2": cell(1, 0, 0, 1)}
        assert scores.flagged == {"V1": [v1.id, v2.id], "V2": [v2.id]}

    def test_non_ok_scans_excluded_by_default(self):
        # a scan that did not end ok is in no cell
        tool = make_tool()
        vuln = [vulnerable_case(i) for i in range(2)]
        s = safe_case(0)
        scores = score_one(tool, vuln + [s], [
            flag("T", vuln[0], "V1"), clean("T", vuln[1], status="timeout"), clean("T", s),
        ])
        assert scores.classes["V1"] == cell(1, 0, 0, 1)
        assert scores.timing.valid_count == 2

    def test_every_tool_is_walked_before_any_is_scored(self):
        # A comes first and has no ok run; B has no record for the second
        # case: the missing record is reported
        registry = Registry((make_tool("A"), make_tool("B")))
        vuln = [vulnerable_case(i) for i in range(2)]
        records = [clean("A", c, status="timeout") for c in vuln] + [flag("B", vuln[0], "V1")]
        with pytest.raises(MissingRecord) as err:
            scored(records, registry, vuln)
        assert str(err.value) == f"no record for (B, {vuln[1].id})"

    def test_finding_outside_capabilities_is_an_error(self):
        # in registry x corpus order, with the missing records: A flags V2,
        # which it does not detect, on the second case; B has no record for
        # the first
        registry = Registry((make_tool("A"), make_tool("B")))
        vuln = [vulnerable_case(i) for i in range(2)]
        records = [flag("A", vuln[0], "V1"), flag("A", vuln[1], "V1", "V2"),
                   flag("B", vuln[1], "V1")]
        with pytest.raises(ScbenchError) as err:
            scored(records, registry, vuln)
        assert str(err.value) == (f"record for (A, {vuln[1].id}) flags 'V2', "
                                  "which A does not detect")

    @pytest.mark.parametrize("missing", [0, 1])
    def test_first_fault_in_corpus_order_is_named(self, missing):
        # one tool: no record for one case, a class it does not detect on
        # the other; whichever comes first in the corpus is reported
        vuln = [vulnerable_case(i) for i in range(2)]
        flagging = vuln[1 - missing]
        with pytest.raises(ScbenchError) as err:
            scored([flag("A", flagging, "V2")], Registry((make_tool("A"),)), vuln)
        assert str(err.value) == (
            f"no record for (A, {vuln[0].id})" if missing == 0 else
            f"record for (A, {flagging.id}) flags 'V2', which A does not detect")

    def test_first_undetected_class_in_the_line_is_named(self, tmp_path):
        # the line lists V3 before V2, neither of which A detects: V3 is
        # named, by the fold as by the record walk
        case = vulnerable_case(0)
        path = tmp_path / "records.jsonl"
        path.write_text(f'{{"tool": "A", "contract": "{case.id}", "status": "ok", '
                        '"duration_ms": 1, "findings": [{"class": "V3", "lines": []}, '
                        '{"class": "V2", "lines": []}, {"class": "V1", "lines": []}]}\n')
        registry = Registry((make_tool("A"),))
        expected = f"record for (A, {case.id}) flags 'V3', which A does not detect"
        for score in (lambda: score_campaign(load_outcomes(path, [case]), registry),
                      lambda: score_campaign_oracle(read_records(path), registry, [case])):
            assert outcome(score) == (ScbenchError, expected)


CLASSES = ("V1", "V2", "V3", "V4")


@st.composite
def campaigns(draw):
    """A registry of one to three tools, a corpus of safe, vulnerable and
    multi-label cases, and their records: every status, any duration,
    findings within each tool's capabilities, and now and then a record
    left out or a finding of a class the tool does not detect. Findings
    are listed in class order, as the writer lists them."""
    classes = st.sampled_from(CLASSES)
    registry = Registry(tuple(make_tool(f"T{i}", draw(st.frozensets(classes, min_size=1)))
                              for i in range(draw(st.integers(1, 3)))))
    corpus = [ContractCase(f"c{i}", "contract C {}\n",
                           {c: frozenset({1}) for c in draw(st.frozensets(classes, max_size=2))})
              for i in range(draw(st.integers(1, 8)))]
    records = []
    for tool in registry:
        for case in corpus:
            if draw(st.integers(0, 29)) == 0:
                continue
            status = draw(st.sampled_from(("ok",) * len(STATUSES) + STATUSES))
            found = draw(st.frozensets(st.sampled_from(sorted(tool.capabilities))))
            found |= draw(st.sampled_from([frozenset()] * 38 + [{"V4"}, {"X1", "V3"}]))
            records.append(ScanRecord(
                tool.name, case.id, status, draw(st.integers(0, 10**15)),
                {c: draw(st.frozensets(st.integers(0, 99), max_size=3)) for c in sorted(found)}
                if status == "ok" else {}))
    return registry, corpus, records


def outcome(score):
    """What ``score()`` gives: its scores, or the type and text of its error."""
    try:
        return score()
    except ScbenchError as exc:
        return type(exc), str(exc)


class TestFoldOracle:
    @given(campaigns(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_fold_scores_as_the_record_walk(self, tmp_path_factory, campaign, rnd):
        # the file in any line order, with blank lines and CRLF ends mixed in
        registry, corpus, records = campaign
        path = tmp_path_factory.mktemp("fold") / "records.jsonl"
        write_records(records, path)
        lines = path.read_bytes().splitlines()
        rnd.shuffle(lines)
        path.write_bytes(b"".join(rnd.choice([b"", b"", b" \n", b"\t\r\n"]) + line
                                  + rnd.choice([b"\n", b"\r\n"]) for line in lines))
        assert outcome(lambda: score_campaign(load_outcomes(path, corpus), registry)) == \
            outcome(lambda: score_campaign_oracle(records, registry, corpus))


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
        corpus = [vulnerable_case(i) for i in range(389)]
        scores = score_one(make_tool(), corpus,
                           [ScanRecord("T", c.id, "ok", 887100) for c in corpus[:349]]
                           + [clean("T", c, status="timeout") for c in corpus[349:]])
        assert scores.timing.valid_count == 349
        assert scores.timing.avg_seconds == pytest.approx(887.1)

    def test_single_run(self):
        case = vulnerable_case(0)
        summary = score_one(make_tool(), [case],
                            [ScanRecord("T", case.id, "ok", 10_000)]).timing
        assert (summary.total_seconds, summary.valid_count) == (10.0, 1)
        assert summary.avg_seconds == 10.0

    def test_no_valid_runs_rejected(self):
        case = vulnerable_case(0)
        with pytest.raises(NoValidRuns) as err:
            score_one(make_tool(), [case], [clean("T", case, status="timeout")])
        assert str(err.value) == "T has no ok-status runs"


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
        return registry, vuln + safe, records

    def test_matches_hand_computation(self):
        registry, corpus, records = self._tiny_setup()
        scores = scored(records, registry, corpus)
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
