import math

import numpy as np
import pytest

from wmdlab.corpus import (
    Corpus,
    Document,
    Fold,
    deduplicate,
    filter_vocabulary,
    find_duplicates,
    fold_paths_for,
    load_corpus,
    make_folds,
    read_stopwords,
    write_corpus,
)
from wmdlab.errors import InvalidInput, ParseError, TooSmall


def corpus_of(token_lists, labels=None, folds=()):
    docs = tuple(
        Document(i, (labels[i] if labels else "x"), tuple(toks))
        for i, toks in enumerate(token_lists)
    )
    return Corpus(documents=docs, folds=folds)


# -- loading ---------------------------------------------------------------------


def test_load_two_documents(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("sport\tgame ball\nmusic\tsong\n")
    corp = load_corpus(p)
    assert len(corp.documents) == 2
    assert corp.documents[0] == Document(0, "sport", ("game", "ball"))
    assert corp.name == "c"
    assert len(corp.folds) == 0


def test_load_rejects_missing_tab(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("sport\tgame\nmusic song\n")
    with pytest.raises(ParseError) as err:
        load_corpus(p)
    assert err.value.line == 2


def test_load_rejects_empty_label(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("\tgame\n")
    with pytest.raises(ParseError):
        load_corpus(p)


def test_load_rejects_blank_line(tmp_path):
    # ids are line numbers, so blank lines are malformed rather than skipped
    p = tmp_path / "c.txt"
    p.write_text("sport\tgame\n\nmusic\tsong\n")
    with pytest.raises(ParseError) as err:
        load_corpus(p)
    assert err.value.line == 2


def test_load_attaches_fold_files(tmp_path):
    (tmp_path / "c.txt").write_text("a\tx\nb\ty\nc\tz\na\tw\n")
    (tmp_path / "c.fold0.txt").write_text("train: 0 1 2\ntest: 3\n")
    corp = load_corpus(tmp_path / "c.txt")
    assert len(corp.folds) == 1
    assert corp.folds[0] == Fold((0, 1, 2), (3,))


def test_fold_discovery_orders_numerically(tmp_path):
    (tmp_path / "c.txt").write_text("a\tx\n" * 4)
    for k in (0, 1, 2, 10):
        (tmp_path / f"c.fold{k}.txt").write_text("train: 0 1\ntest: 2 3\n")
    found = fold_paths_for(tmp_path / "c.txt")
    assert [p.name for p in found] == [
        "c.fold0.txt", "c.fold1.txt", "c.fold2.txt", "c.fold10.txt",
    ]


def test_fold_file_validation(tmp_path):
    (tmp_path / "c.txt").write_text("a\tx\nb\ty\n")
    (tmp_path / "c.fold0.txt").write_text("train: 0 9\ntest: 1\n")
    with pytest.raises(ParseError):
        load_corpus(tmp_path / "c.txt")
    (tmp_path / "c.fold0.txt").write_text("train: 0\n")
    with pytest.raises(ParseError):
        load_corpus(tmp_path / "c.txt")


@pytest.mark.parametrize("text, line, message", [
    ("train:\ntest: 1\n", 1, "line 1: no ids on the train line"),
    ("train: 0\n\ntest:  \n", 3, "line 3: no ids on the test line"),
    ("", None, "need one train line and one test line"),
    ("\n\n", 2, "line 2: need one train line and one test line")])
def test_fold_file_needs_ids_on_both_sides(tmp_path, text, line, message):
    (tmp_path / "c.txt").write_text("a\tx\nb\ty\n")
    fold = tmp_path / "c.fold0.txt"
    fold.write_text(text)
    with pytest.raises(ParseError) as err:
        load_corpus(tmp_path / "c.txt")
    assert (err.value.path, err.value.line) == (fold, line)
    assert str(err.value) == f"{fold}: {message}"


def test_fold_lines_break_only_at_newlines(tmp_path):
    # a form feed is whitespace inside a line, as in the corpus file
    (tmp_path / "c.txt").write_text("a\tx\nb\ty\nc\tz\n")
    (tmp_path / "c.fold0.txt").write_text("train: 0\x0c1\ntest: 2\n")
    assert load_corpus(tmp_path / "c.txt").folds == (Fold((0, 1), (2,)),)


def test_corpus_round_trip(tmp_path):
    corp = corpus_of([["a", "b"], []], labels=["one", "two"])
    path = tmp_path / "out.txt"
    write_corpus(corp, path)
    back = load_corpus(path)
    assert [d.label for d in back.documents] == ["one", "two"]
    assert [d.tokens for d in back.documents] == [("a", "b"), ()]


def test_stopword_file(tmp_path):
    p = tmp_path / "stop.txt"
    p.write_text("the\n\nof\n")
    assert read_stopwords(p) == {"the", "of"}


@pytest.mark.parametrize("name, read", [
    ("c.txt", load_corpus), ("c.fold0.txt", load_corpus),
    ("stop.txt", read_stopwords)])
def test_bytes_that_are_not_utf8_name_the_file_and_line(tmp_path, name,
                                                        read):
    (tmp_path / "c.txt").write_text("a\tx\nb\tyé\n")
    (tmp_path / "c.fold0.txt").write_text("train: 0\ntest: 1\n")
    (tmp_path / "stop.txt").write_text("the\né\n")
    bad = tmp_path / name
    bad.write_bytes(bad.read_bytes() + b"\xff\n")
    with pytest.raises(ParseError) as err:
        read(tmp_path / ("stop.txt" if read is read_stopwords else "c.txt"))
    assert str(err.value) == (f"{bad}: line 3: 'utf-8' codec can't decode "
                              "byte 0xff in position 0: invalid start byte")
    assert err.value.line == 3


# -- filtering -------------------------------------------------------------------


class FakeStore:
    def __init__(self, words):
        self.words = set(words)

    def __contains__(self, token):
        return token in self.words


def test_filter_drops_oov():
    corp = corpus_of([["a", "zzz"]])
    out = filter_vocabulary(corp, FakeStore(["a"]))
    assert out.documents[0].tokens == ("a",)


def test_filter_keep_oov_only_removes_stopwords():
    corp = corpus_of([["the", "zzz", "game"]])
    out = filter_vocabulary(corp, FakeStore(["game"]), stopwords={"the"},
                            keep_oov=True)
    assert out.documents[0].tokens == ("zzz", "game")


def test_filter_stopwords():
    corp = corpus_of([["the", "game"]])
    out = filter_vocabulary(corp, FakeStore(["the", "game"]),
                            stopwords={"the"})
    assert out.documents[0].tokens == ("game",)


def test_filter_is_identity_with_keep_oov_and_no_stopwords():
    corp = corpus_of([["a", "b"], ["c"]])
    out = filter_vocabulary(corp, FakeStore([]), keep_oov=True)
    assert out.documents == corp.documents


def test_filter_never_lengthens_and_flags_empty():
    corp = corpus_of([["a", "zzz"], ["qqq"]])
    out = filter_vocabulary(corp, FakeStore(["a"]))
    assert all(len(o.tokens) <= len(c.tokens)
               for o, c in zip(out.documents, corp.documents))
    assert tuple(d.doc_id for d in out.documents if not d.tokens) == (1,)


# -- duplicates ------------------------------------------------------------------


def test_duplicates_basic_pair():
    corp = corpus_of([["a", "b"], ["b", "a"], ["c"]])
    report = find_duplicates(corp)
    assert report.pairs == ((0, 1),)
    assert report.samples == (0, 1)
    assert report.n_pairs == 1 and report.n_samples == 2


def test_duplicates_none():
    report = find_duplicates(corpus_of([["a"], ["b"]]))
    assert report.pairs == () and report.samples == ()


def test_duplicates_multiset_not_set():
    # same word set but different counts: not duplicates
    report = find_duplicates(corpus_of([["a", "a", "b"], ["a", "b", "b"]]))
    assert report.pairs == ()


def test_duplicate_pair_count_matches_class_sizes():
    corp = corpus_of([["a"], ["a"], ["a"], ["b"], ["b"], ["c"]])
    report = find_duplicates(corp)
    expected = math.comb(3, 2) + math.comb(2, 2)
    assert report.n_pairs == expected
    assert report.classes == ((0, 1, 2), (3, 4))


def test_duplicates_cross_split_and_conflicting():
    corp = corpus_of(
        [["a"], ["a"], ["b"], ["b"]],
        labels=["x", "y", "z", "z"],
        folds=(Fold((0, 2), (1, 3)),),
    )
    report = find_duplicates(corp)
    assert set(report.pairs) == {(0, 1), (2, 3)}
    assert report.cross_split == ((0, 1), (2, 3))
    assert report.conflicting == ((0, 1),)


def test_dedup_keeps_smallest_id():
    corp = corpus_of([["x"], ["y"], ["y"], ["x"], ["y"], ["z"]],
                     labels=["l"] * 6)
    # classes {0,3} and {1,2,4}
    out = deduplicate(corp, find_duplicates(corp))
    assert [d.doc_id for d in out.documents] == [0, 1, 5]


def test_dedup_no_duplicates_is_identity():
    corp = corpus_of([["a"], ["b"]])
    out = deduplicate(corp, find_duplicates(corp))
    assert out.documents == corp.documents


def test_dedup_prefers_train_copy_on_one_fold():
    # class {0, 2}: 0 is in test, 2 in train -> keep the train copy 2
    corp = corpus_of(
        [["a"], ["b"], ["a"], ["c"]],
        labels=["l"] * 4,
        folds=(Fold((1, 2), (0, 3)),),
    )
    out = deduplicate(corp, find_duplicates(corp))
    kept = [d.doc_id for d in out.documents]
    assert kept == [1, 2, 3]
    assert out.folds[0] == Fold((1, 2), (3,))


def test_dedup_removes_conflicting_classes_entirely():
    corp = corpus_of([["a"], ["a"], ["b"]], labels=["x", "y", "z"])
    out = deduplicate(corp, find_duplicates(corp))
    assert [d.doc_id for d in out.documents] == [2]


def test_dedup_idempotent():
    rng = np.random.default_rng(17)
    token_lists = [
        sorted(rng.choice(["a", "b", "c"], size=rng.integers(1, 4)).tolist())
        for _ in range(30)
    ]
    corp = corpus_of(token_lists, labels=["l"] * 30)
    once = deduplicate(corp, find_duplicates(corp))
    assert find_duplicates(once).pairs == ()
    twice = deduplicate(once, find_duplicates(once))
    assert twice.documents == once.documents


# -- folds -----------------------------------------------------------------------


def test_make_folds_sizes():
    corp = corpus_of([[f"w{i}"] for i in range(10)])
    out = make_folds(corp, n_folds=1, train_fraction=0.7, seed=0)
    assert len(out.folds[0].train_ids) == 7
    assert len(out.folds[0].test_ids) == 3


def test_make_folds_deterministic():
    corp = corpus_of([[f"w{i}"] for i in range(20)])
    a = make_folds(corp, 5, 0.7, seed=9)
    b = make_folds(corp, 5, 0.7, seed=9)
    c = make_folds(corp, 5, 0.7, seed=10)
    assert a.folds == b.folds
    assert a.folds != c.folds
    assert len(a.folds) == 5
    assert len({f.train_ids for f in a.folds}) > 1  # folds differ


def test_make_folds_partitions():
    corp = corpus_of([[f"w{i}"] for i in range(15)])
    out = make_folds(corp, 3, 0.6, seed=1)
    for fold in out.folds:
        assert sorted(fold.train_ids + fold.test_ids) == list(range(15))


def test_make_folds_too_small():
    corp = corpus_of([["a"]])
    with pytest.raises(TooSmall):
        make_folds(corp, 1, 0.5, seed=0)


def test_corpus_validates_ids_and_folds():
    with pytest.raises(InvalidInput):
        Corpus(documents=(Document(0, "a", ()), Document(0, "b", ())))
    with pytest.raises(InvalidInput):
        Corpus(documents=(Document(0, "a", ()),),
               folds=(Fold((0,), (0,)),))
    with pytest.raises(InvalidInput):
        Corpus(documents=(Document(0, "", ()),))
