"""The fixture generator ``tools/gen_corpus.py`` reproduces ``datasets/``."""

import importlib.util

from .conftest import REPO_ROOT


def tree(root):
    """Every file under ``root``, by its path relative to ``root``."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_generator_writes_the_shipped_datasets_byte_for_byte(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "gen_corpus", REPO_ROOT / "tools" / "gen_corpus.py")
    gen_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_corpus)
    monkeypatch.setattr(gen_corpus, "OUT", tmp_path)
    gen_corpus.main()
    want, got = tree(REPO_ROOT / "datasets"), tree(tmp_path)
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []
