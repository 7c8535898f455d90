from pathlib import Path

from gapsim.corpus import write_corpus

SHIPPED = Path(__file__).resolve().parents[1] / "corpus"


def _files(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_written_corpus_matches_shipped_files(tmp_path):
    write_corpus(str(tmp_path))
    written, shipped = _files(tmp_path), _files(SHIPPED)
    assert sorted(written) == sorted(shipped)
    for name, data in written.items():
        assert data == shipped[name], name
