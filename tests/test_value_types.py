"""The contract of the immutable value types: each constructor's keyword
and positional form and defaults, its checks, read-only fields, and
equality within the class."""

import copy
from datetime import datetime, timezone

import pytest

from scbench.adapters import DEFAULT_TIMEOUT, AdapterConfig
from scbench.corpus import ClassStat, ContractCase, CorpusStats
from scbench.errors import ScbenchError
from scbench.mcdm import ConsistencyReport, ScoreRow, ScoreTable, WeightVector
from scbench.metrics import (ConfusionMatrix, IndicatorMatrix, MetricSet,
                             TimingSummary, ToolScores)
from scbench.taxonomy import Registry, ToolDescriptor, VersionId, VulnClass

STUB = AdapterConfig(kind="stub")
TOOL = ToolDescriptor("T", frozenset({"SA"}), frozenset({"V1"}), VersionId(8), STUB)
METRICS = MetricSet(0.5, 0.25, 1.0, 0.4)
SOURCE = "pragma solidity ^0.5.0;\ncontract C {}\n"

# class -> (the keywords it needs, the defaults of the others, in
# signature order, and one field with a value that makes it unequal)
VALUE_TYPES = {
    VulnClass: ({"id": "V1", "name": "Reentrancy", "dir_name": "reentrancy",
                 "aliases": frozenset({"REENTRANCY"})}, {}, ("id", "V2")),
    VersionId: ({"minor": 8}, {"patch": None}, ("patch", 1)),
    ToolDescriptor: ({"name": "T", "methods": frozenset({"SA"}),
                      "capabilities": frozenset({"V1"}), "max_solidity": VersionId(8),
                      "adapter": STUB}, {}, ("name", "U")),
    Registry: ({}, {"tools": ()}, ("tools", (TOOL,))),
    AdapterConfig: ({}, {"kind": "replay", "command": None, "timeout": DEFAULT_TIMEOUT,
                         "rule_map": {}, "fixture": None, "findings": (),
                         "line_pattern": None}, ("timeout", 5.0)),
    ContractCase: ({"id": "c", "source": SOURCE},
                   {"expected": {}, "created_at": None, "tx_value": None},
                   ("created_at", datetime(2020, 1, 1, tzinfo=timezone.utc))),
    ClassStat: ({"class_id": "V1", "name": "Reentrancy", "count": 3, "loc": 40}, {},
                ("count", 4)),
    CorpusStats: ({"per_class": (), "safe_count": 1, "safe_loc": 2}, {},
                  ("safe_count", 2)),
    ConfusionMatrix: ({"tp": 1, "fp": 2, "fn": 3, "tn": 4}, {}, ("tn", 5)),
    MetricSet: ({"accuracy": 0.5, "precision": 0.25, "recall": 1.0, "f1": 0.4},
                {"precision_defined": True, "recall_defined": True},
                ("recall_defined", False)),
    TimingSummary: ({"total_seconds": 2.0, "valid_count": 4}, {}, ("valid_count", 5)),
    IndicatorMatrix: ({"tools": ("A",), "values": ((1.0, 0.5, 0.25, 0.0),)}, {},
                      ("values", ((0.0, 0.5, 0.25, 0.0),))),
    ToolScores: ({"classes": {"V1": METRICS}, "timing": TimingSummary(2.0, 4),
                  "flagged": {"V1": ["c"]}}, {}, ("classes", {})),
    WeightVector: ({"values": (0.25, 0.25, 0.25, 0.25)}, {"method": ""},
                   ("method", "EWM")),
    ConsistencyReport: ({"lambda_max": 4.1, "ci": 0.03, "ri": 0.9, "cr": 0.04}, {},
                        ("cr", 0.2)),
    ScoreRow: ({"tool": "A", "score": 90.5, "rank": 1}, {}, ("rank", 2)),
    ScoreTable: ({"method": "EWM", "rows": (ScoreRow("A", 90.5, 1),)}, {}, ("rows", ())),
}
TYPES = sorted(VALUE_TYPES, key=lambda cls: cls.__name__)


def ids(cls) -> str:
    return cls.__name__


@pytest.mark.parametrize("cls", TYPES, ids=ids)
def test_keywords_positions_and_defaults(cls):
    required, defaults, _ = VALUE_TYPES[cls]
    value = cls(**required)
    for name, expected in {**required, **defaults}.items():
        assert getattr(value, name) == expected, name
    assert cls(*{**required, **defaults}.values()) == value


@pytest.mark.parametrize("cls", TYPES, ids=ids)
def test_fields_are_read_only(cls):
    required, defaults, _ = VALUE_TYPES[cls]
    value = cls(**required)
    for name in {**required, **defaults}:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("cls", TYPES, ids=ids)
def test_equality_within_the_class(cls):
    required, _, (name, other) = VALUE_TYPES[cls]
    value = cls(**required)
    assert value == cls(**required) and not value != cls(**required)
    assert value != cls(**{**required, name: other})
    assert copy.deepcopy(value) == value  # through the constructor


def test_left_out_dicts_are_new_per_instance():
    assert ContractCase("a", "").expected is not ContractCase("b", "").expected
    assert AdapterConfig().rule_map is not AdapterConfig().rule_map


@pytest.mark.parametrize("build, message", [
    (lambda: ToolDescriptor("T", frozenset(), frozenset(), VersionId(8), STUB),
     "tool T: empty capability set"),
    (lambda: ToolDescriptor("T", frozenset(), frozenset({"V11"}), VersionId(8), STUB),
     r"tool T: unknown classes \['V11'\]"),
    (lambda: ToolDescriptor("T", frozenset({"XX"}), frozenset({"V1"}), VersionId(8), STUB),
     r"tool T: unknown methods \['XX'\]"),
    (lambda: TOOL._replace(capabilities=frozenset()), "tool T: empty capability set"),
    (lambda: Registry((TOOL, TOOL)), "duplicate tool names in registry"),
    (lambda: AdapterConfig(kind="exe"), "unknown adapter kind 'exe'"),
    (lambda: AdapterConfig(kind="json"), "json adapter requires a command"),
    (lambda: AdapterConfig(command="slither {input}"),
     "replay adapter takes a fixture, not a command"),
    (lambda: AdapterConfig(kind="stub", rule_map={"r": "V11"}),
     r"rule_map targets outside V1..V10: \['V11'\]"),
    (lambda: AdapterConfig(kind="text", command="run 'x"),
     "command template \"run 'x\" cannot be split: No closing quotation"),
    (lambda: STUB._replace(kind="json"), "json adapter requires a command"),
    (lambda: ConfusionMatrix(1, -1, 0, 0), "confusion matrix counts must be non-negative"),
    (lambda: ConfusionMatrix(1, 0, 0, 0)._replace(tn=-1),
     "confusion matrix counts must be non-negative"),
    (lambda: IndicatorMatrix(("A", "B"), ((1, 1, 1, 1),)), "indicator matrix shape mismatch"),
    (lambda: IndicatorMatrix(("A",), ((1, 1, 1),)), "indicator matrix shape mismatch"),
    (lambda: IndicatorMatrix(("A", "B"), ((1, 1, 1, 1), (0.5, 92.9, 1, 1))),
     r"efficiency 92.9 of B is outside \[0, 1\]"),
    (lambda: IndicatorMatrix(("A",), ((1, 1, 1, 1),))._replace(values=((1, 1, -0.5, 1),)),
     r"compatibility -0.5 of A is outside \[0, 1\]"),
    (lambda: IndicatorMatrix(("A",), ((float("nan"), 1, 1, 1),)),
     r"functional nan of A is outside \[0, 1\]"),
    (lambda: WeightVector((1.5, -0.5)), r"negative weight in \(1.5, -0.5\)"),
    (lambda: WeightVector((0.5, 0.4)), "weights sum to 0.9, not 1"),
])
def test_checks(build, message):
    with pytest.raises(ScbenchError, match=f"^{message}$"):
        build()


def test_derived_fields():
    case = ContractCase("c", SOURCE)
    assert (case.loc, case.pragma) == (2, True) and len(case.checksum) == 32
    kept = ContractCase("c", SOURCE, loc=9, pragma=False, checksum="k")
    assert (kept.loc, kept.pragma, kept.checksum) == (9, False, "k")
    adapter = AdapterConfig(kind="text", command="tool --in {input}")
    assert adapter.argv == ("tool", "--in", "{input}")
    assert adapter._replace(command="other {input}").argv == ("other", "{input}")
    matrix = IndicatorMatrix(("A",), [[1, 0, 0.5, 0]])
    assert matrix.values == ((1.0, 0.0, 0.5, 0.0),) and matrix.row("A") == matrix.values[0]


def test_types_with_their_own_len_are_not_tuples():
    registry, weights = Registry((TOOL,)), WeightVector((0.5, 0.5), "EWM")
    assert not isinstance(registry, tuple) and not isinstance(weights, tuple)
    assert list(registry) == [TOOL] and len(registry) == 1 and len(weights) == 2
    assert repr(weights) == "WeightVector((0.5, 0.5), 'EWM')"
    assert weights != (weights.values, weights.method)
    assert hash(weights) == hash(WeightVector((0.5, 0.5), "EWM"))


def test_contract_cases_equal_only_contract_cases():
    case = ContractCase("c", SOURCE)
    assert case != tuple(case) and tuple(case) != case
    with pytest.raises(TypeError):
        hash(case)
