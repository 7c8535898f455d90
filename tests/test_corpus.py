from pathlib import Path

from gapsim import corpus
from gapsim.corpus import write_corpus
from gapsim.gapp import exp_sum, poly_product, tree_to_json

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


def test_equal_signed_trees_are_one_object():
    for value in range(-5, 6):
        for noise in range(3):
            assert corpus._signed_tree(value, noise) is corpus._signed_tree(value, noise)


def test_lowness_finishes_and_gap_machines_share_signed_trees():
    # The cache key is exactly (value, noise), however the call is written.
    named = {name: instance for name, instance, _ in corpus.lowness_corpus()}
    from_finish = named["no_query"].machine.finish("00", ())  # even parity: gap 2
    from_machine = corpus._machine(lambda _x: 2).evaluator("")  # length 0: noise 0
    assert from_finish is from_machine is corpus._signed_tree(2, 0)


def _closures() -> dict:
    """Gap-tree JSON and counts of both combinators over every corpus machine, q <= 3."""
    built = {}
    for name, machine in corpus.gap_machine_corpus():
        for combinator in (exp_sum, poly_product):
            for q in range(4):
                for x in ("", "1"):
                    tree = combinator(machine, (q,)).evaluator(x)
                    built[name, combinator.__name__, q, x] = (tree_to_json(tree), tree.counts)
    return built


def test_shared_signed_trees_build_the_same_closures(monkeypatch):
    shared = _closures()
    fresh = corpus._signed_tree.__wrapped__  # builds a new tree on every call
    monkeypatch.setattr(corpus, "_signed_tree", fresh)
    assert fresh(3, 1) is not fresh(3, 1)
    assert _closures() == shared
