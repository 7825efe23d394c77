import pytest
from hypothesis import given
from hypothesis import strategies as st

from scbench.errors import ScbenchError, UnknownMarker, UnsupportedVersion
from scbench.taxonomy import (Registry, Taxonomy, VersionId, VulnClass,
                              compat_score)


class TestMarkers:
    def test_listing_marker_resolves_to_reentrancy(self, taxonomy):
        assert taxonomy.class_for_marker("REENTRANCY").id == "V1"

    def test_case_insensitive(self, taxonomy):
        assert taxonomy.class_for_marker("reentrancy").id == "V1"
        assert taxonomy.class_for_marker("Tx_Origin").id == "V8"

    def test_unmapped_marker_rejected(self, taxonomy):
        with pytest.raises(UnknownMarker):
            taxonomy.class_for_marker("FRONTRUN")

    def test_empty_marker_rejected(self, taxonomy):
        with pytest.raises(UnknownMarker):
            taxonomy.class_for_marker("")

    def test_every_alias_maps_to_exactly_one_class(self, taxonomy):
        seen = {}
        for cls in taxonomy:
            for alias in cls.aliases:
                assert alias not in seen, f"{alias} in {cls.id} and {seen[alias]}"
                seen[alias] = cls.id

    def test_exactly_ten_classes(self, taxonomy):
        assert len(taxonomy) == 10
        assert [c.id for c in taxonomy] == [f"V{i}" for i in range(1, 11)]

    def test_duplicate_alias_across_classes_rejected(self):
        classes = [
            VulnClass(f"V{i}", f"c{i}", f"d{i}", frozenset({f"A{i}"}))
            for i in range(1, 11)
        ]
        classes[1] = VulnClass("V2", "c2", "d2", frozenset({"A1"}))
        with pytest.raises(ScbenchError, match="two classes"):
            Taxonomy(classes)


class TestCapabilities:
    def test_verismart_only_arithmetic(self, registry):
        verismart = registry.get("VeriSmart")
        assert verismart.can_detect("V2") is True
        assert verismart.can_detect("V1") is False

    def test_maian_detects_suicide(self, registry):
        assert registry.get("Maian").can_detect("V9") is True

    def test_row_sums_match_coverage(self, registry):
        expected = {
            "Securify": 3, "VeriSmart": 1, "Mythril": 8, "Oyente": 4,
            "ConFuzzius": 8, "sFuzz": 7, "Slither": 6, "Conkas": 5,
            "GNNSCVD": 2, "Eth2Vec": 4, "Solhint": 6, "SmartCheck": 7,
            "Maian": 1,
        }
        for tool in registry:
            assert len(tool.capabilities) == expected[tool.name], tool.name

    def test_thirteen_tools(self, registry):
        assert len(registry) == 13

    def test_subset_and_lookup(self, registry):
        sub = registry.subset(["Slither", "Maian"])
        assert sub.names() == ["Slither", "Maian"]
        with pytest.raises(ScbenchError):
            registry.get("NoSuchTool")


class TestVersionScale:
    @pytest.mark.parametrize(
        "text,score",
        [("0.8", 1.0), ("0.8.x", 1.0), ("0.4.19", 0.0), ("0.4.24", 0.0),
         ("0.5", 0.25), ("0.5.x", 0.25), ("0.6.12", 0.5), ("0.9", 1.0)],
    )
    def test_scale_positions(self, text, score):
        assert compat_score(VersionId.parse(text)) == pytest.approx(score)

    def test_patch_ignored(self):
        assert compat_score(VersionId.parse("0.4.19")) == compat_score(
            VersionId.parse("0.4.24")
        )

    def test_below_scale_rejected(self):
        with pytest.raises(UnsupportedVersion):
            VersionId.parse("0.3.5")
        with pytest.raises(UnsupportedVersion):
            compat_score(VersionId(minor=3))

    def test_garbage_rejected(self):
        with pytest.raises(ScbenchError):
            VersionId.parse("latest")

    @given(st.integers(min_value=4, max_value=30), st.integers(min_value=4, max_value=30))
    def test_monotone_in_minor(self, a, b):
        lo, hi = sorted((a, b))
        assert compat_score(VersionId(lo)) <= compat_score(VersionId(hi))


class TestRegistryValidation:
    def test_empty_capabilities_rejected(self, registry):
        slither = registry.get("Slither")
        with pytest.raises(ScbenchError, match="empty capability"):
            type(slither)(
                name="x", methods=frozenset({"SA"}), capabilities=frozenset(),
                max_solidity=VersionId(8), adapter=slither.adapter,
            )

    def test_unknown_class_rejected(self, registry):
        slither = registry.get("Slither")
        with pytest.raises(ScbenchError, match="unknown classes"):
            type(slither)(
                name="x", methods=frozenset({"SA"}),
                capabilities=frozenset({"V11"}),
                max_solidity=VersionId(8), adapter=slither.adapter,
            )

    def test_registry_loads_from_explicit_path(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text(
            '{"tools": [{"name": "T", "methods": ["SA"], '
            '"capabilities": ["V1"], "max_solidity": "0.8", '
            '"adapter": {"kind": "stub"}}]}'
        )
        reg = Registry.load(path)
        assert reg.names() == ["T"]

    @pytest.mark.parametrize("content, detail", [
        (b'{"tools": [\xff]}', "cannot read registry {}: 'utf-8' codec can't decode"),
        (b'[]', "registry {}: missing 'tools'"),
        (b'{"tools": {}}', "registry {}: 'tools' is not a list"),
        (b'{"tools": ["T"]}', "registry {}: tool #1: string indices must be integers"),
        (b'{"tools": [{"name": "T", "capabilities": ["V1"], "max_solidity": "0.8", '
         b'"adapter": {"kind": "stub", "timeout": "soon"}}]}',
         "registry {}: tool #1: could not convert string to float: 'soon'"),
        *((b'{"tools": [{"name": "T", "capabilities": ["V1"], "max_solidity": "0.8", '
           b'"adapter": {"kind": "stub", "timeout": %s}}]}' % value,
           f"registry {{}}: tool #1: adapter timeout {float(value)!r} is not a positive "
           f"number of seconds") for value in (b"-1", b"NaN", b"Infinity")),
        (b'{"tools": [{"name": "T", "capabilities": ["V1"], "max_solidity": "0.8", '
         b'"adapter": {"kind": "json"}}]}', "tool T: json adapter requires a command"),
    ], ids=["not-utf8", "no-tools", "tools-not-a-list", "entry-not-an-object",
            "bad-timeout", "negative-timeout", "nan-timeout", "infinite-timeout",
            "adapter-fault"])
    def test_malformed_registry_is_an_error(self, tmp_path, content, detail):
        path = tmp_path / "reg.json"
        path.write_bytes(content)
        with pytest.raises(ScbenchError) as info:
            Registry.load(path)
        assert str(info.value).startswith(detail.format(path))
