"""Acceptance suite: one test per shipped guarantee, run at the stated
tolerances. The terminal summary (see conftest) prints one PASS/FAIL line
per criterion.

Criterion 4 checks the entropy weighting against the published EWM row on
the indicator matrix that row was computed from. That matrix differs from
the bundled reference matrix in one cell: the published weights and
overall scores were computed with GNNSCVD usability 0.1 (one of ten
classes), while the registry and the published per-class table give it two
classes (0.2). With that one cell the published row is reproduced to
within 0.001; on the registry's matrix the usability weight is 0.292
against the published 0.331. The frozen-oracle companion test pins the
computation on the registry's matrix, and the README's "known
irreproducibilities" section has the full analysis.
"""

import random

import numpy as np
import pytest

from scbench import reference
from scbench.adapters import AdapterConfig
from scbench.corpus import dedup, load_labelled, normalize_source, scan_case, stats
from scbench.mcdm import (INDICATOR_COLUMNS, ahp_weights, ewm_weights, load_pairwise,
                          overall_scores)
from scbench.metrics import (ConfusionMatrix, efficiency_scores, functional_score, prf,
                             score_campaign, usability_score)
from scbench.records import load_outcomes, write_records
from scbench.runner import execute_campaign
from scbench.taxonomy import Registry, compat_score

from .conftest import LABELLED_DIR, LISTING_FIXTURE, REPLAY_DIR
from .oracles import consistent_ahp_oracle, ewm_oracle, normalize_oracle

F1_TOL = 0.002
EFFICIENCY_TOL = 0.02
EWM_TOL = 0.02
AHP_TOL = 0.005
SCORE_TOL = 4.0
ORACLE_TOL = 1e-6

# The published weights and overall scores were computed from an indicator
# matrix with GNNSCVD usability 0.1, although the registry, c03 and the
# published per-class table (GNNSCVD listed for V1 and V7) give it 0.2.
# With this cell alone changed, the entropy weights are (0.15721, 0.19484,
# 0.31685, 0.33111) against the published (0.157, 0.194, 0.317, 0.331),
# largest gap 0.0008 (0.0386 at 0.2); no other single-cell change of
# +-0.1..0.3 in any indicator column comes within 0.004. The same cell
# brings 11 of 13 standardized EWM overall scores to the printed decimal
# (0 of 13 at 0.2), GNNSCVD's to the published 50.6, and its AHP1/AHP2
# scores to 41.5/45.7 against the published 41.6/45.6.
PUBLISHED_WEIGHTING_USABILITY = {"GNNSCVD": 0.1}


def test_c01_f1_identity_on_published_averages():
    averages = reference.classification_averages()
    inconsistent = []
    for tool, avg in averages.items():
        recomputed = functional_score([avg])
        if abs(recomputed - avg.f1) > F1_TOL:
            inconsistent.append(tool)
    assert inconsistent == ["Mythril"], (
        f"expected exactly Mythril outside +-{F1_TOL}, got {inconsistent}"
    )
    for tool, expected in [("Securify", 0.576), ("Slither", 0.941),
                           ("Conkas", 0.968), ("VeriSmart", 0.969)]:
        got = functional_score([averages[tool]])
        assert abs(got - expected) <= F1_TOL, (tool, got, expected)
    notes = reference.validation_notes()
    assert any("Mythril" in n for n in notes), "missing the discrepancy note"


def test_c02_efficiency_scores_from_timing_inputs():
    table = reference.timing_table()
    avg = {t: row["total_seconds"] / row["valid_count"] for t, row in table.items()}
    assert avg["sFuzz"] == pytest.approx(892, abs=1)  # derived, not the printed 289
    scores = efficiency_scores(avg)
    assert scores["Slither"] == 1.0
    assert scores["sFuzz"] == 0.0
    assert abs(scores["ConFuzzius"] - 0.007) <= 0.005
    for tool, row in table.items():
        assert abs(scores[tool] - row["published_efficiency"]) <= EFFICIENCY_TOL, (
            tool, scores[tool], row["published_efficiency"]
        )


def test_c03_compatibility_and_usability_exact():
    registry = Registry.load()
    expected_sc = {
        "Securify": 0.25, "VeriSmart": 0.25, "Mythril": 1, "Oyente": 0,
        "ConFuzzius": 1, "sFuzz": 0, "Slither": 1, "Conkas": 0.25,
        "GNNSCVD": 1, "Eth2Vec": 1, "Solhint": 1, "SmartCheck": 0.25,
        "Maian": 1,
    }
    expected_su = {
        "Securify": 0.3, "VeriSmart": 0.1, "Mythril": 0.8, "Oyente": 0.4,
        "ConFuzzius": 0.8, "sFuzz": 0.7, "Slither": 0.6, "Conkas": 0.5,
        "GNNSCVD": 0.2, "Eth2Vec": 0.4, "Solhint": 0.6, "SmartCheck": 0.7,
        "Maian": 0.1,
    }
    for tool in registry:
        assert compat_score(tool.max_solidity) == expected_sc[tool.name], tool.name
        assert usability_score(tool) == expected_su[tool.name], tool.name


def test_c04_ewm_weights_match_published_row():
    matrix = reference.indicator_matrix()
    values = [list(row) for row in matrix.values]
    usability = INDICATOR_COLUMNS.index("usability")
    for tool, score in PUBLISHED_WEIGHTING_USABILITY.items():
        values[matrix.tools.index(tool)][usability] = score
    weights = ewm_weights(values)
    published = reference.published_weights()["EWM"]
    diffs = [abs(w - p) for w, p in zip(weights.values, published)]
    assert all(d <= EWM_TOL for d in diffs), (
        "entropy weights deviate from the published row beyond "
        f"+-{EWM_TOL}: computed={tuple(round(v, 4) for v in weights.values)} "
        f"published={published} diffs={tuple(round(d, 4) for d in diffs)}; "
        "the input is the reference matrix with the usability cells the "
        f"published weighting used ({PUBLISHED_WEIGHTING_USABILITY})"
    )
    notes = reference.validation_notes()
    assert any(n.startswith("EWM:") and "usability" in n for n in notes), (
        "missing the EWM discrepancy note"
    )


def test_c04_companion_ewm_weights_match_frozen_oracle():
    """Pins the faithful entropy computation on the same matrix."""
    matrix = reference.indicator_matrix()
    weights = ewm_weights(matrix.values)
    oracle = ewm_oracle(matrix.values)
    assert np.allclose(weights.values, oracle, atol=1e-9)
    frozen = (0.1663, 0.2061, 0.3352, 0.2924)  # from the 50-digit oracle
    assert np.allclose(weights.values, frozen, atol=5e-4)


def test_c05_ahp_weights_and_consistency():
    expected = {
        "a1": reference.published_weights()["AHP1"],
        "a2": reference.published_weights()["AHP2"],
    }
    for name, target in expected.items():
        matrix = load_pairwise(reference.pairwise_path(name))
        weights, report = ahp_weights(matrix)
        for got, want in zip(weights.values, target):
            assert abs(got - want) <= AHP_TOL, (name, weights.values, target)
        assert report.cr <= 0.1, (name, report)


def test_c06_overall_scores_top_ranks():
    indicators = reference.indicator_matrix()
    published = reference.published_overall()
    vectors = {"ewm": ewm_weights(indicators.values)}
    for key, name in (("ahp1", "a1"), ("ahp2", "a2")):
        w, _ = ahp_weights(load_pairwise(reference.pairwise_path(name)),
                           method=key.upper())
        vectors[key] = w
    for key, weights in vectors.items():
        table = overall_scores(indicators, weights)
        ranked = [r.tool for r in table.rows]
        assert ranked[0] == "Slither", (key, ranked[:3])
        assert set(ranked[:3]) == {"Slither", "Solhint", "Mythril"}, (key, ranked[:3])
        got = next(r.score for r in table.rows if r.tool == "Slither")
        want = published["Slither"][key]
        assert abs(got - want) <= SCORE_TOL, (key, got, want)


def test_c07_mcdm_oracle_equivalence():
    rng = np.random.default_rng(20240401)
    for _ in range(100):
        m = int(rng.integers(3, 11))
        n = int(rng.integers(3, 7))
        matrix = rng.uniform(0.0, 10.0, size=(m, n))
        weights = ewm_weights(matrix)
        oracle = ewm_oracle(matrix)
        assert np.allclose(weights.values, oracle, atol=ORACLE_TOL), (
            matrix, weights.values, oracle
        )
    for _ in range(100):
        n = int(rng.integers(3, 8))
        v = rng.uniform(0.5, 5.0, size=n)
        judgment = np.array([[vi / vj for vj in v] for vi in v])
        weights, report = ahp_weights(judgment)
        assert np.allclose(weights.values, consistent_ahp_oracle(v),
                           atol=ORACLE_TOL)
        assert report.cr < 1e-6
        assert report.lambda_max == pytest.approx(n, abs=1e-9)


def test_c08_property_spot_checks():
    rng = np.random.default_rng(77)

    # weight vectors: non-negative, sum to one
    for _ in range(20):
        matrix = rng.uniform(0, 5, size=(6, 4))
        for values in (ewm_weights(matrix).values,):
            assert abs(sum(values) - 1) < 1e-9 and min(values) >= 0
    v = rng.uniform(0.5, 4.0, size=5)
    ahp_w, _ = ahp_weights(np.array([[a / b for b in v] for a in v]))
    assert abs(sum(ahp_w.values) - 1) < 1e-9 and min(ahp_w.values) >= 0

    # F1 bounded by min/max of precision and recall; extra TP never hurts
    for tp in range(0, 12, 3):
        for fp in range(0, 8, 2):
            for fn in range(0, 8, 2):
                cm = ConfusionMatrix(tp, fp, fn, tn=2)
                ms = prf(cm)
                if ms.precision_defined and ms.recall_defined:
                    assert min(ms.precision, ms.recall) - 1e-12 <= ms.f1
                    assert ms.f1 <= max(ms.precision, ms.recall) + 1e-12
                bumped = prf(ConfusionMatrix(tp + 1, fp, fn, 2))
                assert bumped.f1 >= ms.f1 - 1e-12
                assert bumped.accuracy >= ms.accuracy - 1e-12

    # dedup idempotence on the shipped corpus
    cases = load_labelled(LABELLED_DIR)
    once, _ = dedup(cases)
    assert dedup(once) == (once, 0)

    # normalization: idempotent, agrees with the character-level oracle,
    # and keeps comment delimiters inside string literals
    src_rng = random.Random(20240401)
    atoms = [
        'a = "// in string";', "b = '/* also */';", "// real comment\n",
        "/* real\nblock */", "uint c = 1;\n", "  ", "\t", 'd = "a\\"b//";',
    ]
    for _ in range(50):
        src = "".join(src_rng.choice(atoms)
                      for _ in range(src_rng.randint(1, 24)))
        normalized = normalize_source(src, strict=False)
        assert normalized == normalize_oracle(src)
        assert normalize_source(normalized, strict=False) == normalized
    assert normalize_source('s = "//x";') == 's="//x";'


def test_c09_campaign_shape_and_statistics(tmp_path):
    registry = Registry.load()
    cases = load_labelled(LABELLED_DIR)
    st_ = stats(cases)
    assert (len(cases), st_.safe_count) == (389, 17)

    outputs = {}
    for jobs in (1, 8):
        records = execute_campaign(registry, cases, parallelism=jobs,
                                   replay_dir=REPLAY_DIR)
        assert len(records) == 13 * 389 == 5057
        path = tmp_path / f"records_p{jobs}.jsonl"
        write_records(records, path)
        outputs[jobs] = path.read_bytes()
    assert outputs[1] == outputs[8]


def test_c10_annotation_round_trip(tmp_path):
    source = LISTING_FIXTURE.read_text("utf-8")
    expected = scan_case("c", source).expected
    assert expected == {"V1": frozenset({17})}

    case_id = "reentrancy/reentrancy_insecure"
    fixture = tmp_path / "ReplayTool.json"
    fixture.write_text(
        '{"%s": {"status": "ok", "duration_ms": 7, '
        '"findings": [{"class": "V1", "lines": [17]}]}}' % case_id
    )
    registry = Registry.load()
    slither = registry.get("Slither")
    tool = type(slither)(
        name="ReplayTool", methods=frozenset({"SA"}),
        capabilities=frozenset({"V1"}), max_solidity=slither.max_solidity,
        adapter=AdapterConfig(kind="replay", fixture=str(fixture)),
    )
    cases = [c for c in load_labelled(LABELLED_DIR) if c.id == case_id]
    (record,) = execute_campaign([tool], cases)
    assert record.findings == {"V1": frozenset({17})}
    records = tmp_path / "records.jsonl"
    write_records([record], records)
    scores = score_campaign(load_outcomes(records, cases), Registry((tool,)))["ReplayTool"]
    assert scores.classes == {"V1": prf(ConfusionMatrix(1, 0, 0, 0))}
    assert scores.flagged == {"V1": [case_id]}
