"""The docs gate's paper-map check: no stale code path in the cross-reference."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))
try:
    import check_docs
finally:
    sys.path.pop(0)


def test_committed_paper_map_has_no_stale_path():
    assert check_docs.check_paper_map() == []


def test_missing_paths_are_flagged(tmp_path, monkeypatch):
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro" / "wfasic").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "wfasic" / "aligner.py").touch()
    (tmp_path / "src" / "repro" / "cli.py").touch()
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "docs" / "paper-map.md").write_text(
        "| §4.3 | `wfasic/aligner.py`, `cli.py`, `benchmarks/`, `price` |\n"
        "| §4.3.2 | `wfasic/extend.py` (`Soc.run_accelerated`) |\n"
        "| §5.2 | `benchmarks/test_asic_model.py`, `seqio.py` |\n"
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    assert check_docs.check_paper_map() == [
        "docs/paper-map.md: no such code path -> wfasic/extend.py",
        "docs/paper-map.md: no such code path -> benchmarks/test_asic_model.py",
        "docs/paper-map.md: no such code path -> seqio.py",
    ]


def test_aligner_api_is_covered():
    assert "repro.wfasic.aligner" in check_docs.COVERED_MODULES
