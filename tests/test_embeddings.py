import logging
import math
import mmap
import pickle
import re
import struct
import threading
import time
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from wmdlab import embeddings, errors
from wmdlab.embeddings import (
    EmbeddingStore,
    TEXT,
    WORD2VEC_BINARY,
    cost_submatrix,
    l2_normalize,
    load_embeddings,
    project_pca,
)
from wmdlab.errors import (
    InvalidInput,
    MissingWord,
    ParseError,
    RankDeficient,
    ZeroVector,
)

import reference_embeddings
from helpers import opened_files, opened_paths, word_vector


def write_binary(path, records, dim):
    with open(path, "wb") as fh:
        fh.write(f"{len(records)} {dim}\n".encode())
        for token, values in records:
            fh.write(token.encode() + b" ")
            fh.write(struct.pack(f"<{dim}f", *values))
            fh.write(b"\n")


# -- loading ---------------------------------------------------------------------


def test_load_text(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("a 1.0 0.0\nb 0.0 1.0\n")
    store = load_embeddings(str(p), TEXT)
    assert store.dim == 2 and len(store) == 2
    assert word_vector(store, "a").tolist() == [1.0, 0.0]


def test_load_text_with_header(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("2 3\na 1 2 3\nb 4 5 6\n")
    store = load_embeddings(str(p), TEXT)
    assert store.dim == 3 and store.tokens == ("a", "b")


def test_load_text_ragged_rows(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("a 1.0 2.0\nb 3.0\n")
    with pytest.raises(ParseError) as err:
        load_embeddings(str(p), TEXT)
    assert str(err.value) == f"{p}: line 2: expected 2 components, got 1"


def test_load_text_bad_float(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("a 1.0 oops\n")
    with pytest.raises(ParseError) as err:
        load_embeddings(str(p), TEXT)
    assert err.value.line == 1


@pytest.mark.parametrize("component", ["1_0", "nan", "-nan", "-inf",
                                       "1e400", "1e-400", "5e-324", "\uff11",
                                       "0x1p3", "abc"])
def test_text_components_read_as_float_reads_them(tmp_path, component):
    # the same value, bit for bit, or the same message as float()
    p = tmp_path / "emb.txt"
    p.write_text(f"a 0.5 {component}\n", encoding="utf-8")
    try:
        want = np.array([0.5, float(component)])
    except ValueError as exc:
        with pytest.raises(ParseError) as err:
            load_embeddings(str(p), TEXT)
        assert str(err.value) == f"{p}: line 1: {exc}"
    else:
        got = word_vector(load_embeddings(str(p), TEXT), "a")
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_load_text_duplicates_keep_first(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("a 1.0\na 2.0\n")
    store = load_embeddings(str(p), TEXT)
    assert len(store) == 1
    assert word_vector(store, "a").tolist() == [1.0]


def test_load_binary(tmp_path):
    p = tmp_path / "emb.bin"
    write_binary(p, [("a", [1, 2, 3]), ("b", [4, 5, 6])], dim=3)
    store = load_embeddings(str(p), WORD2VEC_BINARY)
    assert store.dim == 3 and store.tokens == ("a", "b")
    assert word_vector(store, "b").tolist() == [4.0, 5.0, 6.0]


def test_load_binary_without_trailing_newline(tmp_path):
    p = tmp_path / "emb.bin"
    with open(p, "wb") as fh:
        fh.write(b"2 2\n")
        fh.write(b"a " + struct.pack("<2f", 1, 2))
        fh.write(b"b " + struct.pack("<2f", 3, 4))
    store = load_embeddings(str(p), WORD2VEC_BINARY)
    assert word_vector(store, "b").tolist() == [3.0, 4.0]


def test_load_binary_truncated_record(tmp_path):
    p = tmp_path / "emb.bin"
    with open(p, "wb") as fh:
        fh.write(b"2 3\n")
        fh.write(b"a " + struct.pack("<3f", 1, 2, 3))
        fh.write(b"b " + struct.pack("<2f", 4, 5))  # one float short
    with pytest.raises(ParseError) as err:
        load_embeddings(str(p), WORD2VEC_BINARY)
    assert err.value.offset is not None


def test_header_dim_too_large_for_the_file_is_a_short_vector(tmp_path):
    p = tmp_path / "emb.bin"
    p.write_bytes(b"1 2000000000\n" + b"a " + struct.pack("<2f", 1, 2))
    with pytest.raises(ParseError, match="short vector") as err:
        load_embeddings(str(p), WORD2VEC_BINARY)
    assert err.value.offset == 15


@pytest.mark.parametrize("lines, line, message", [
    # the first fault in line order wins, whichever it is
    ([b"a 1.0 oops", b"b\xff 3.0 4.0"], 1,
     "could not convert string to float: 'oops'"),
    ([b"a 1.0 2.0", b"b\xff 3.0 4.0", b"c 1.0 oops"], 2,
     "'utf-8' codec can't decode byte 0xff in position 1: invalid start byte"),
    ([b"a 1.0 2.0", "bé 3.0 4.0".encode(), b"c 5.0 \xc3"], 3,
     "'utf-8' codec can't decode byte 0xc3 in position 6: invalid "
     "continuation byte")])
def test_text_bytes_that_are_not_utf8_are_a_parse_error(tmp_path, lines,
                                                        line, message):
    p = tmp_path / "emb.txt"
    p.write_bytes(b"\n".join(lines) + b"\n")
    for vocabulary in (None, {"a"}):
        with pytest.raises(ParseError) as err:
            load_embeddings(str(p), TEXT, vocabulary)
        assert str(err.value) == f"{p}: line {line}: {message}"
        assert err.value.line == line


def test_load_unknown_format(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("a 1.0\n")
    with pytest.raises(InvalidInput):
        load_embeddings(str(p), "protobuf")


# -- loading only a vocabulary's rows ----------------------------------------------


def write_text(path, records):
    with open(path, "w") as fh:
        for token, values in records:
            fh.write(token + " " + " ".join(repr(float(v)) for v in values)
                     + "\n")


def write_records(path, fmt, records, dim):
    if fmt == TEXT:
        write_text(path, records)
    else:
        write_binary(path, records, dim)


def load_normalized(path, fmt, vocabulary=None):
    return l2_normalize(load_embeddings(str(path), fmt, vocabulary))


def raises_zero_row(path, fmt, token, line=None, offset=None):
    """``pytest.raises`` for the loader's error for ``token``'s all-zero
    row: at ``line`` of a text file, at byte ``offset`` of a
    word2vec-binary one."""
    where = f"line {line}" if fmt == TEXT else f"byte {offset}"
    return pytest.raises(ParseError, match="^" + re.escape(
        f"{path}: {where}: all-zero vector for {token!r}") + "$")


@pytest.mark.parametrize("fmt", [TEXT, WORD2VEC_BINARY])
def test_filtered_rows_bit_identical_to_whole_file(tmp_path, fmt):
    rng = np.random.default_rng(3)
    tokens = [f"w{i}" for i in range(60)]
    values = rng.normal(size=(60, 300)).astype(np.float32)
    p = tmp_path / "emb"
    write_records(p, fmt, list(zip(tokens, values.tolist())), dim=300)
    vocabulary = {"w3", "w17", "w18", "w59", "absent"}
    whole = load_embeddings(str(p), fmt)
    part = load_embeddings(str(p), fmt, vocabulary)
    assert part.tokens == ("w3", "w17", "w18", "w59")
    assert part.dim == 300
    assert part.matrix.tobytes() == whole.rows(part.tokens).tobytes()
    whole_n, part_n = l2_normalize(whole), l2_normalize(part)
    assert part_n.matrix.tobytes() == whole_n.rows(part.tokens).tobytes()


@pytest.mark.parametrize("fmt", [TEXT, WORD2VEC_BINARY])
def test_filtered_load_can_keep_no_rows(tmp_path, fmt):
    p = tmp_path / "emb"
    write_records(p, fmt, [("a", [1, 2]), ("b", [3, 4])], dim=2)
    store = load_normalized(p, fmt, {"c"})
    assert len(store) == 0 and store.dim == 2


@pytest.mark.parametrize("fmt", [TEXT, WORD2VEC_BINARY])
@pytest.mark.parametrize("vocabulary", [{"a", "b"}, {"b"}])
def test_filtered_duplicates_keep_first(tmp_path, fmt, vocabulary):
    p = tmp_path / "emb"
    # a later zero copy of a token is a duplicate, not a zero row
    write_records(p, fmt, [("a", [1, 2]), ("b", [3, 4]), ("a", [0, 0]),
                           ("a", [5, 6])], dim=2)
    store = load_embeddings(str(p), fmt, vocabulary)
    assert store.tokens == tuple(t for t in ("a", "b") if t in vocabulary)
    if "a" in vocabulary:
        assert word_vector(store, "a").tolist() == [1.0, 2.0]
    load_normalized(p, fmt, vocabulary)
    # a zero first copy is the file's zero row, kept or dropped
    write_records(p, fmt, [("a", [0, 0]), ("b", [3, 4]), ("a", [5, 6])],
                  dim=2)
    with raises_zero_row(p, fmt, "a", line=1, offset=4):
        load_normalized(p, fmt, vocabulary)


def test_filtered_load_checks_dropped_binary_records(tmp_path):
    p = tmp_path / "emb.bin"
    with open(p, "wb") as fh:
        fh.write(b"3 2\n")
        fh.write(b"a " + struct.pack("<2f", 1, 2))
        fh.write(b"\xff\xfe " + struct.pack("<2f", 3, 4))  # bad UTF-8
        fh.write(b"b " + struct.pack("<2f", 5, 6))
    with pytest.raises(ParseError, match="bad token bytes") as err:
        load_embeddings(str(p), WORD2VEC_BINARY, {"a"})
    assert err.value.offset == 14
    with open(p, "wb") as fh:
        fh.write(b"2 2\n")
        fh.write(b"a " + struct.pack("<2f", 1, 2))
        fh.write(b"b " + struct.pack("<1f", 3))  # one float short
    with pytest.raises(ParseError, match="short vector") as err:
        load_embeddings(str(p), WORD2VEC_BINARY, {"a"})
    assert err.value.offset == 16


def test_filtered_load_checks_dropped_text_records(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("a 1.0 2.0\nb 3.0\n")
    with pytest.raises(ParseError, match="^" + re.escape(
            f"{p}: line 2: expected 2")):
        load_embeddings(str(p), TEXT, {"a"})
    p.write_text("a 1.0 2.0\nb 3.0 oops\n")
    with pytest.raises(ParseError) as err:
        load_embeddings(str(p), TEXT, {"a"})
    assert err.value.line == 2


@pytest.mark.parametrize("fmt", [TEXT, WORD2VEC_BINARY])
@pytest.mark.parametrize("vocabulary", [None, {"a", "c"}, {"c"}, {"b"}, set()])
def test_dropped_zero_row_raises_first_zero_token(tmp_path, fmt, vocabulary):
    p = tmp_path / "emb"
    # "b" and then "c" are zero: "b" is the first zero row, dropped or not
    # (11-byte binary records from byte 4)
    write_records(p, fmt, [("a", [0, 2]), ("b", [0, 0]), ("c", [0, -0.0])],
                  dim=2)
    with raises_zero_row(p, fmt, "b", line=2, offset=15):
        load_normalized(p, fmt, vocabulary)
    write_records(p, fmt, [("a", [0, 2]), ("c", [0, -0.0]), ("b", [0, 0])],
                  dim=2)
    with raises_zero_row(p, fmt, "c", line=2, offset=15):
        load_normalized(p, fmt, vocabulary)


def test_dropped_zero_row_loses_to_a_later_parse_error(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("a 1.0 2.0\nb 0.0 0.0\nc 1.0 oops\n")
    with pytest.raises(ParseError) as err:
        load_normalized(p, TEXT, {"a"})
    assert err.value.line == 3


@pytest.mark.parametrize("fmt", [TEXT, WORD2VEC_BINARY])
@pytest.mark.parametrize("vocabulary, passes", [
    (None, 1), ({"b", "c"}, 1),  # "b" is kept
    ({"a", "c"}, 2), (set(), 2)])  # dropped: a second pass places it
def test_zero_row_is_placed_in_one_pass_if_kept_two_if_dropped(
        tmp_path, monkeypatch, fmt, vocabulary, passes):
    p = tmp_path / "emb"
    write_records(p, fmt, [("a", [1, 2]), ("b", [0, 0]), ("c", [3, 4])],
                  dim=2)
    opened = opened_paths(monkeypatch, embeddings, errors)
    with raises_zero_row(p, fmt, "b", line=2, offset=15):
        load_embeddings(str(p), fmt, vocabulary)
    assert opened == [str(p)] * passes


def _refuse_second_record(p, fmt):
    """Make the reader refuse record "b" of ``p``: a short vector in a text
    file, a token that is not UTF-8 in a word2vec-binary one."""
    data = p.read_bytes()
    p.write_bytes(data.replace(b"b 3.0 4.0", b"b 3.0") if fmt == TEXT
                  else data.replace(b"b ", b"\xff ", 1))


@pytest.mark.parametrize("fmt", [TEXT, WORD2VEC_BINARY])
@pytest.mark.parametrize("records, vocabulary, broken, fault, passes", [
    ([("a", [1, 2]), ("b", [3, 4])], None, False, None, 1),
    # "b"'s zero row is dropped: the second pass stops at the later "b"
    ([("a", [1, 2]), ("b", [0, 0]), ("b", [3, 4])], {"a"}, False,
     "all-zero vector", 2),
    ([("a", [1, 2]), ("b", [3, 4]), ("c", [5, 6])], None, True,
     "components|bad token bytes", 1)],
    ids=["full load", "early break", "parse error"])
def test_every_load_closes_each_file_it_opens(
        tmp_path, monkeypatch, fmt, records, vocabulary, broken, fault,
        passes):
    p = tmp_path / "emb"
    write_records(p, fmt, records, dim=2)
    if broken:
        _refuse_second_record(p, fmt)
    opened = opened_files(monkeypatch, embeddings, errors)
    with pytest.raises(ParseError, match=fault) if fault else nullcontext():
        load_embeddings(str(p), fmt, vocabulary)
    assert len(opened) == passes
    assert all(fh.closed for fh in opened)


def test_text_zero_row_is_one_whose_squares_underflow(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("a 1.0 2.0\nb 1e-200 -1e-200\n")
    with raises_zero_row(p, TEXT, "b", line=2):
        load_normalized(p, TEXT)
    with raises_zero_row(p, TEXT, "b", line=2):
        load_normalized(p, TEXT, {"a"})


@pytest.mark.parametrize("block", [1, 3, 7, 11, 64])
def test_binary_records_split_across_blocks(tmp_path, monkeypatch, block):
    rng = np.random.default_rng(block)
    records = [(f"tok{i}" * (1 + i % 3), rng.normal(size=3).tolist())
               for i in range(12)]
    p = tmp_path / "emb.bin"
    write_binary(p, records, dim=3)
    whole = load_embeddings(str(p), WORD2VEC_BINARY)
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", block)
    assert load_embeddings(str(p), WORD2VEC_BINARY).matrix.tobytes() \
        == whole.matrix.tobytes()
    part = load_embeddings(str(p), WORD2VEC_BINARY, {records[4][0], "tok9"})
    assert part.tokens == (records[4][0], "tok9")
    assert part.matrix.tobytes() == whole.rows(part.tokens).tobytes()
    with open(p, "ab") as fh:
        fh.write(b"x")
    with open(p, "r+b") as fh:
        fh.write(b"13")  # the header now counts "x" as a 13th record
    with pytest.raises(ParseError, match="no token terminator") as err:
        load_embeddings(str(p), WORD2VEC_BINARY, {"tok9"})
    assert err.value.offset == p.stat().st_size - 1


@pytest.mark.parametrize("block", [12, 30, embeddings._BLOCK_BYTES])
@pytest.mark.parametrize("vocabulary", [{"absent"}, {"w0"}])
def test_block_without_a_corpus_word_yields_its_zero_rows(
        tmp_path, monkeypatch, block, vocabulary):
    # 12-byte records: at 12 and 30 bytes the blocks after the first hold
    # one or two records and no corpus word, and with {"absent"} none does
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", block)
    p = tmp_path / "emb.bin"
    write_binary(p, [("w0", [1, 2]), ("z1", [0, 0]), ("w2", [3, 4]),
                     ("z3", [0, -0.0]), ("w4", [5, 6])], dim=2)
    got = [(n, t, z) for n, t, _, z in
           embeddings._Word2VecRecords().select(str(p), vocabulary)]
    assert got == [(4, "w0", False)] * ("w0" in vocabulary) \
        + [(16, "z1", True), (40, "z3", True)]
    with raises_zero_row(p, WORD2VEC_BINARY, "z1", offset=16):
        load_normalized(p, WORD2VEC_BINARY, vocabulary)


def test_load_logs_kept_rows(tmp_path, caplog):
    p = tmp_path / "emb.txt"
    p.write_text("a 1.0 2.0\nb 3.0 4.0\na 5.0 6.0\n")
    with caplog.at_level(logging.INFO, logger="wmdlab"):
        load_embeddings(str(p), TEXT, {"a", "z"})
    assert "embeddings: kept 1 of 3 rows (dim 2)" in caplog.messages


# -- line ends, blank lines and trailing bytes -------------------------------------


# the shipped block size, and 16 MiB, a block far larger than any file here
@pytest.mark.parametrize("block", [5, 64, embeddings._BLOCK_BYTES, 16 << 20])
def test_load_skips_line_ends_blank_lines_and_trailing_bytes(
        tmp_path, monkeypatch, block):
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", block)
    records = [(f"w{i}", [i + 1.0, -i, 0.5]) for i in range(20)]
    plain = tmp_path / "plain.bin"
    write_binary(plain, records, dim=3)
    p = tmp_path / "emb.bin"
    p.write_bytes(plain.read_bytes() + b"bytes after the last record \xff\x00")
    store = load_embeddings(str(p), WORD2VEC_BINARY, {"w3", "w19"})
    assert store.tokens == ("w3", "w19")
    assert store.matrix.tobytes() == load_embeddings(
        str(plain), WORD2VEC_BINARY, {"w3", "w19"}).matrix.tobytes()
    p = tmp_path / "emb.txt"
    p.write_bytes(b"20 3\r\n\r\n" + b"".join(
        f"{t} {' '.join(map(repr, v))}\r\n\r\n".encode()
        for t, v in records))
    store = load_embeddings(str(p), TEXT, {"w3", "w19"})
    assert store.tokens == ("w3", "w19")
    assert word_vector(store, "w19").tolist() == [20.0, -19.0, 0.5]


def test_text_records_split_across_blocks(tmp_path, monkeypatch):
    # multi-byte tokens and line ends cut at every block boundary
    p = tmp_path / "emb.txt"
    p.write_bytes("".join(f"é{i}ü {i}.5 -1\r\n" for i in range(300))
                  .encode())
    whole = load_embeddings(str(p), TEXT)
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 7)
    store = load_embeddings(str(p), TEXT)
    assert store.tokens == whole.tokens and len(store) == 300
    assert store.matrix.tobytes() == whole.matrix.tobytes()


def test_unterminated_last_token_fails_in_linear_time(tmp_path, monkeypatch):
    # a record finder that retries every position after its last match, or
    # a reader that joins each block onto what it has, is quadratic here
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 64)
    p = tmp_path / "emb.bin"
    with open(p, "wb") as fh:
        fh.write(b"2 3\n")
        fh.write(b"a " + struct.pack("<3f", 1, 2, 3) + b"\n")
        fh.write(b"x" * (1 << 20))  # no space: the token never ends
    start = time.perf_counter()
    with pytest.raises(ParseError, match="no token terminator") as err:
        load_embeddings(str(p), WORD2VEC_BINARY, {"a"})
    assert time.perf_counter() - start < 0.5
    assert err.value.offset == 19  # the first byte after the newline


def write_broken(path, kind):
    last = {"bad token bytes": b"\xff " + struct.pack("<2f", 3, 4),
            "short vector": b"b " + struct.pack("<1f", 3),
            "no token terminator": b"b" * 40,
            "zero": b"z " + struct.pack("<2f", 0, 0)}[kind]
    with open(path, "wb") as fh:
        fh.write(b"2 2\n" + b"a " + struct.pack("<2f", 1, 2) + last)


def raises_broken(path, kind):
    """``pytest.raises`` for the loader's error for ``write_broken``'s
    file: its dropped zero row, which starts at byte 14, or ``kind``."""
    if kind == "zero":
        return raises_zero_row(path, WORD2VEC_BINARY, "z", offset=14)
    return pytest.raises(ParseError, match=kind)


@pytest.mark.parametrize("kind", ["bad token bytes", "short vector",
                                  "no token terminator", "zero"])
@pytest.mark.parametrize("block", [3, embeddings._BLOCK_BYTES, 16 << 20])
def test_load_leaves_no_thread_running(tmp_path, monkeypatch, kind, block):
    # a load starts no thread at all, so none can outlive it
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", block)
    started, start = [], threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    before = threading.active_count()
    p = tmp_path / "emb.bin"
    write_records(p, WORD2VEC_BINARY, [("a", [1, 2]), ("b", [3, 4])], dim=2)
    load_embeddings(str(p), WORD2VEC_BINARY, {"a"})
    assert threading.active_count() == before
    write_broken(p, kind)
    with raises_broken(p, kind):
        load_embeddings(str(p), WORD2VEC_BINARY, {"a"})
    assert threading.active_count() == before and not started


# tokens that repeat, are multi-byte, are not UTF-8, are empty or hold a
# newline; a drawn token may also start with newlines
TOKENS = [b"a", b"bb", "é".encode(), "日本".encode(), b"\xff", b"\xe6\x97",
          b"", b"x\ny", b"w" * 70]


@st.composite
def binary_files(draw):
    dim = draw(st.integers(1, 4))
    component = st.one_of(st.sampled_from([0.0, -0.0]),
                          st.floats(width=32, allow_nan=False))
    vector = st.one_of(st.just([0.0] * dim), st.just([-0.0] * dim),
                       st.lists(component, min_size=dim, max_size=dim))
    token = st.one_of(st.sampled_from(TOKENS),
                      st.binary(max_size=5).map(
                          lambda b: b.replace(b" ", b"_")))
    records = draw(st.lists(st.tuples(st.integers(0, 2), token, vector),
                            min_size=1, max_size=12))
    count = len(records) + draw(st.sampled_from([0, 1, -1]))
    data = f"{count} {dim}\n".encode() + b"".join(
        b"\n" * newlines + tok + b" " + struct.pack(f"<{dim}f", *vec)
        for newlines, tok, vec in records)
    data += draw(st.binary(max_size=8))
    cut = draw(st.one_of(st.just(0), st.integers(1, 4 * dim + 2)))
    return data[:len(data) - cut]


def outcome(load):
    try:
        return load()
    except ParseError as exc:
        return type(exc), str(exc), exc.offset


@settings(max_examples=400, deadline=None)
@given(data=binary_files(), block=st.integers(1, 64),
       vocabulary=st.one_of(st.none(), st.sets(st.sampled_from(
           ["a", "bb", "é", "日本", "", "x\ny", "absent"]))))
def test_binary_reader_agrees_with_a_whole_file_reader(
        tmp_path_factory, data, block, vocabulary):
    p = tmp_path_factory.getbasetemp() / "drawn.bin"
    p.write_bytes(data)
    expected = outcome(lambda: reference_embeddings.load(data, vocabulary,
                                                         str(p)))

    def load():
        store = load_embeddings(str(p), WORD2VEC_BINARY, vocabulary)
        return store.tokens, store.matrix

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embeddings, "_BLOCK_BYTES", block)
        got = outcome(load)
    if isinstance(expected[1], np.ndarray):
        assert got[0] == expected[0]
        assert got[1].tobytes() == expected[1].tobytes()
    else:
        assert got == expected


GRANULARITY = mmap.ALLOCATIONGRANULARITY


def boundary_file(kind, n=500, dim=3):
    """A word2vec-binary file of ``n`` records over a few map granularity
    pages, its tokens and the offset where each record ends: ``kind`` adds
    blank lines and trailing bytes, a record longer than a few pages, a
    dropped record with a non-UTF-8 token or a zero row, or cuts the last
    record short."""
    rng = np.random.default_rng(11)
    data = bytearray(f"{n} {dim}\n".encode())
    tokens, ends = [], []
    for i in range(n):
        lead = b"\n" * (i % 4 if kind == "blank lines" else i > 0)
        token = f"w{i}".encode()
        if kind == "long record" and i == 100:
            token = b"L" * (3 * GRANULARITY + 5)
        # pad the token so that the record ends on a page start when the
        # next one is near
        page = (len(data) // GRANULARITY + 1) * GRANULARITY
        pad = page - (len(data) + len(lead) + len(token) + 1 + 4 * dim)
        if 0 <= pad < 30:
            token += b"_" * pad
        if kind == "bad token" and i == 301:
            token = b"\xff" + token
        vector = [0.0] * dim if kind == "zero row" and i == 301 \
            else rng.normal(size=dim)
        data += lead + token + b" " + np.asarray(vector, "<f4").tobytes()
        tokens.append(token.decode("utf-8", "surrogateescape"))
        ends.append(len(data))
    if kind == "blank lines":
        data += b"\n\n\ntrailing bytes \xff\x00"
    if kind == "truncated":
        del data[-5:]
    return bytes(data), tokens, ends


@pytest.mark.parametrize("vocabulary", [None, "every fifth"])
@pytest.mark.parametrize("block", [1, 61, GRANULARITY - 3, GRANULARITY,
                                   GRANULARITY + 5, embeddings._BLOCK_BYTES])
@pytest.mark.parametrize("kind", ["plain", "blank lines", "long record",
                                  "bad token", "zero row", "truncated",
                                  "empty", "header only"])
def test_binary_reader_agrees_with_a_whole_file_reader_at_window_edges(
        tmp_path, monkeypatch, kind, block, vocabulary):
    data, tokens, ends = boundary_file(kind)
    # the next record starts, or its leading newlines do, where one ends
    assert {end % GRANULARITY == 0 for end in ends} == {True, False}
    if kind == "empty":
        data = b""
    elif kind == "header only":
        data = data[:data.index(b"\n") + 1]
    if vocabulary:
        vocabulary = set(tokens[::5]) | {"absent"}
    p = tmp_path / "emb.bin"
    p.write_bytes(data)
    expected = outcome(lambda: reference_embeddings.load(data, vocabulary,
                                                         str(p)))
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", block)

    def load():
        store = load_embeddings(str(p), WORD2VEC_BINARY, vocabulary)
        return store.tokens, store.matrix

    got = outcome(load)
    loads = isinstance(expected[1], np.ndarray)
    assert loads == (kind in ("plain", "blank lines", "long record"))
    if loads:
        assert got[0] == expected[0]
        assert got[1].tobytes() == expected[1].tobytes()
    else:
        assert got == expected


class WindowSpy:
    """Stands in for the ``mmap`` module in ``wmdlab.embeddings``: maps
    each window as ``mmap.mmap`` does, keeps it, and counts the windows
    still mapped when each is mapped; ``on_map(offset)`` runs first."""

    ACCESS_READ = mmap.ACCESS_READ
    ALLOCATIONGRANULARITY = mmap.ALLOCATIONGRANULARITY

    def __init__(self, on_map=lambda offset: None):
        self.on_map = on_map
        self.windows = []
        self.most_mapped_before = 0

    def mmap(self, fd, length, *, access, offset):
        self.on_map(offset)
        self.most_mapped_before = max(self.most_mapped_before, sum(
            not w.closed for w in self.windows))
        self.windows.append(mmap.mmap(fd, length, access=access,
                                      offset=offset))
        return self.windows[-1]

    def check(self):
        assert self.windows
        assert self.most_mapped_before == 0
        assert all(w.closed for w in self.windows)


def test_load_holds_at_most_a_few_blocks(tmp_path, monkeypatch):
    block = 64 << 10
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", block)
    rng = np.random.default_rng(5)
    # a token longer than a window, so that its record is mapped again at
    # twice the size, then 50 windows of about 800-byte records
    records = [(f"w{i}", rng.normal(size=200).tolist()) for i in range(4500)]
    records.insert(3, ("x" * (block + block // 2), [1.0] * 200))
    p = tmp_path / "emb.bin"
    write_binary(p, records, dim=200)
    # the long record, copied as its token, is not what is bounded: the
    # peak is taken from the last window mapped from less than four blocks
    # after it
    past_long = block + block // 2 + 4 * block
    assert p.stat().st_size > past_long + 50 * block

    def reset_peak(offset):
        if offset <= past_long:
            tracemalloc.reset_peak()

    spy = WindowSpy(reset_peak)
    monkeypatch.setattr(embeddings, "mmap", spy)
    vocabulary = {f"w{i}" for i in range(0, 4500, 500)}
    tracemalloc.start()
    try:
        store = load_embeddings(str(p), WORD2VEC_BINARY, vocabulary)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(store) == 9
    # the mapped file pages are not Python allocations, so tracemalloc
    # cannot see them: one window at a time bounds those
    spy.check()
    # the kept rows are held as float32 bytes and then as float64
    kept = len(store) * 200 * (4 + 8)
    # Measured at 0.76 blocks: the kept rows and the lists of a window's
    # records. A reader that copied each block out of the file measured
    # 2.0-2.2 blocks (the block parsed, the one before it and their lists),
    # one that kept reading twice the block size 4.6 to 6.9, one that kept
    # every block 61. The bound is 4.33 blocks here.
    assert peak < 4 * block + kept, peak / block


@pytest.mark.parametrize("kind", ["none", "bad token bytes", "short vector",
                                  "no token terminator", "zero"])
@pytest.mark.parametrize("block", [3, 64, embeddings._BLOCK_BYTES])
def test_load_unmaps_every_window_it_maps(tmp_path, monkeypatch, kind, block):
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", block)
    p = tmp_path / "emb.bin"
    if kind == "none":
        write_binary(p, [("a", [1, 2]), ("b", [3, 4])], dim=2)
    else:
        write_broken(p, kind)
    spy = WindowSpy()
    monkeypatch.setattr(embeddings, "mmap", spy)
    if kind == "none":
        assert load_embeddings(str(p), WORD2VEC_BINARY, {"a"}).tokens \
            == ("a",)
    else:
        # a dropped zero row is placed by a second pass, which stops at it
        with raises_broken(p, kind):
            load_embeddings(str(p), WORD2VEC_BINARY, {"a"})
    spy.check()


# -- normalization ----------------------------------------------------------------


def test_l2_normalize_three_four_five():
    store = EmbeddingStore(["w"], np.array([[3.0, 4.0]]))
    out = l2_normalize(store)
    assert word_vector(out, "w").tolist() == [0.6, 0.8]
    assert out.normalized


def test_l2_normalize_unit_vector_unchanged():
    store = EmbeddingStore(["w"], np.array([[0.0, 1.0]]))
    assert word_vector(l2_normalize(store), "w").tolist() == [0.0, 1.0]


def test_l2_normalize_zero_vector(tmp_path):
    store = EmbeddingStore(["bad"], np.array([[0.0, 0.0]]))
    with pytest.raises(ZeroVector, match="bad"):
        l2_normalize(store)


def test_l2_norms_are_unit():
    rng = np.random.default_rng(0)
    store = l2_normalize(
        EmbeddingStore([f"w{i}" for i in range(40)],
                       rng.normal(size=(40, 7)))
    )
    norms = np.linalg.norm(store.matrix, axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-9)


# -- cost matrices ----------------------------------------------------------------


def test_cost_same_word_is_zero(unit_store):
    assert cost_submatrix(unit_store, ["east"], ["east"]).tolist() == [[0.0]]


def test_cost_orthogonal_unit_vectors(unit_store):
    got = cost_submatrix(unit_store, ["east"], ["north"])[0, 0]
    assert got == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_cost_antipodal_unit_vectors(unit_store):
    # diametrically opposed points realize the uniform-cost off-diagonal value
    assert cost_submatrix(unit_store, ["east"], ["west"])[0, 0] == 2.0


def test_cost_missing_word(unit_store):
    with pytest.raises(MissingWord, match="sideways"):
        cost_submatrix(unit_store, ["east"], ["sideways"])
    with pytest.raises(MissingWord, match="sideways"):
        cost_submatrix(unit_store, ["sideways", "up"], ["east"])


def test_cost_bounds_symmetry_and_transpose():
    rng = np.random.default_rng(5)
    tokens = [f"w{i}" for i in range(12)]
    store = l2_normalize(EmbeddingStore(tokens, rng.normal(size=(12, 9))))
    square = cost_submatrix(store, tokens, tokens)
    assert np.all(square >= 0.0) and np.all(square <= 2.0)
    assert np.allclose(square, square.T, atol=0)
    assert np.all(np.diag(square) == 0.0)
    a, b = tokens[:5], tokens[5:]
    ab = cost_submatrix(store, a, b)
    ba = cost_submatrix(store, b, a)
    assert np.all(np.abs(ab - ba.T) <= 1e-12)


def _same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _cdist(store, src, dst):
    want = cdist(store.rows(src), store.rows(dst))
    return np.minimum(want, 2.0) if store.normalized else want


def _unit_store(n, dim, seed):
    rng = np.random.default_rng(seed)
    return l2_normalize(EmbeddingStore([f"w{i}" for i in range(n)],
                                       rng.normal(size=(n, dim))))


def _word_lists(store, seed):
    rng = np.random.default_rng(seed)
    for n_src, n_dst in ((1, 1), (7, 30), (30, 7), (60, 60)):
        yield (rng.choice(store.tokens, n_src, replace=False).tolist(),
               rng.choice(store.tokens, n_dst, replace=False).tolist())


def _table(store):
    """The symmetric block of every word of ``store``: the table
    ``wmd.pair_distances`` builds over the words of a batch."""
    return store.distances(store.tokens, store.tokens)


def test_table_has_cdist_bits():
    # more rows than one kernel pass, to cover the mirrored blocks
    store = _unit_store(300, 300, seed=20)
    table = _table(store)
    assert table.values.shape == (300, 300)
    _same_bits(table.values, _cdist(store, store.tokens, store.tokens))
    _same_bits(table.values, table.values.T)
    for src, dst in _word_lists(store, seed=21):
        _same_bits(table.cost(src, dst), _cdist(store, src, dst))


def test_blocks_have_cdist_bits():
    store = _unit_store(300, 300, seed=22)
    for src, dst in _word_lists(store, seed=23):
        _same_bits(cost_submatrix(store, src, dst), _cdist(store, src, dst))
        block = store.distances(src, dst)
        assert block.values.shape == (len(src), len(dst))
    with pytest.raises(MissingWord, match="sideways"):
        cost_submatrix(store, ["w0"], ["w1", "sideways"])
    # a block may cover repeated words; each row and column is kept once
    block = store.distances(["w1", "w2", "w1"], ["w3", "w3"])
    assert block.values.shape == (2, 1)
    _same_bits(block.cost(["w1", "w2", "w1"], ["w3", "w3"]),
               _cdist(store, ["w1", "w2", "w1"], ["w3", "w3"]))


def test_projected_store_costs_are_not_clipped():
    rng = np.random.default_rng(24)
    tokens = [f"w{i}" for i in range(80)]
    store = project_pca(EmbeddingStore(tokens, rng.normal(size=(80, 12)) * 3),
                        5, tokens)
    assert not store.normalized
    raw = cdist(store.matrix, store.matrix)
    _same_bits(_table(store).values, raw)
    assert _table(store).values.max() > 2.0
    _same_bits(cost_submatrix(store, tokens[:30], tokens[30:]),
               raw[:30, 30:])


def test_near_antipodal_costs_are_clipped_at_two():
    # unit vectors and their slightly perturbed opposites: cdist overshoots
    # 2.0 on some of these pairs, and both sides clip to exactly 2.0
    rng = np.random.default_rng(25)
    x = rng.normal(size=(100, 50))
    near = -x + rng.normal(size=x.shape) * 1e-9
    store = l2_normalize(EmbeddingStore(
        [f"p{i}" for i in range(100)] + [f"n{i}" for i in range(100)],
        np.vstack([x, near])))
    raw = cdist(store.matrix, store.matrix)
    assert (raw > 2.0).any()
    _same_bits(_table(store).values, np.minimum(raw, 2.0))
    assert _table(store).values.max() == 2.0
    _same_bits(cost_submatrix(store, store.tokens[:100], store.tokens[100:]),
               np.minimum(raw[:100, 100:], 2.0))


def test_table_is_read_only_and_costs_are_fresh(unit_store):
    for table in (_table(unit_store),
                  unit_store.distances(["east", "mix"], ["north"])):
        assert not table.values.flags.writeable
        with pytest.raises(ValueError):
            table.values[0, 0] = 5.0
        cost = cost_submatrix(table, ["east", "mix"], ["north"])
        assert cost.flags.writeable
        assert not np.shares_memory(cost, table.values)
        cost[:] = 7.0
        assert cost_submatrix(table, ["east"], ["north"])[0, 0] == \
            table.values[table.rows["east"], table.cols["north"]] == \
            math.sqrt(2.0)


def test_store_pickles():
    store = _unit_store(20, 6, seed=26)
    copy = pickle.loads(pickle.dumps(store))
    assert (copy.tokens, copy.normalized) == (store.tokens, True)
    _same_bits(copy.matrix, store.matrix)
    assert not copy.matrix.flags.writeable
    _same_bits(_table(copy).values, _table(store).values)
    with pytest.raises(AttributeError, match="immutable"):
        copy.dim = 3


# -- pca -------------------------------------------------------------------------


def _pairwise(matrix):
    diff = matrix[:, None, :] - matrix[None, :, :]
    return np.sqrt((diff ** 2).sum(-1))


def test_pca_isometric_on_planar_points():
    # points in a 2-D affine subspace of R^5 keep their distances at d'=2
    rng = np.random.default_rng(8)
    basis = np.linalg.qr(rng.normal(size=(5, 2)))[0].T
    coords = rng.normal(size=(20, 2))
    points = coords @ basis + rng.normal(size=5)
    tokens = [f"w{i}" for i in range(20)]
    store = EmbeddingStore(tokens, points)
    out = project_pca(store, 2, tokens)
    assert out.dim == 2 and not out.normalized
    assert np.all(np.abs(_pairwise(points) - _pairwise(out.matrix)) <= 1e-9)


def test_pca_full_dimension_is_a_rotation():
    rng = np.random.default_rng(9)
    tokens = [f"w{i}" for i in range(30)]
    store = EmbeddingStore(tokens, rng.normal(size=(30, 4)))
    out = project_pca(store, 4, tokens)
    assert np.all(
        np.abs(_pairwise(store.matrix) - _pairwise(out.matrix)) <= 1e-9
    )


def test_pca_three_points_variance_oracle():
    # brute-force oracle: explicit covariance of the 3x3 case, eigenvalues
    # computed independently of the production eigendecomposition path
    points = np.array([[1.0, 0.0, 2.0],
                       [0.0, 3.0, 1.0],
                       [4.0, 1.0, 0.0]])
    mu = points.mean(axis=0)
    centered = points - mu
    cov = sum(np.outer(r, r) for r in centered) / 2.0
    eigvals = sorted(np.linalg.eigvals(cov).real, reverse=True)
    expected_top2 = eigvals[0] + eigvals[1]

    tokens = ["a", "b", "c"]
    out = project_pca(EmbeddingStore(tokens, points), 2, tokens)
    projected_variance = out.matrix.var(axis=0, ddof=1).sum()
    assert projected_variance == pytest.approx(expected_top2, abs=1e-9)


def test_pca_projected_covariance_diagonal_nonincreasing():
    rng = np.random.default_rng(10)
    tokens = [f"w{i}" for i in range(50)]
    store = EmbeddingStore(tokens, rng.normal(size=(50, 6)) * [5, 4, 3, 2, 1, 0.5])
    out = project_pca(store, 4, tokens)
    cov = np.cov(out.matrix, rowvar=False, ddof=1)
    off_diag = cov - np.diag(np.diag(cov))
    assert np.all(np.abs(off_diag) <= 1e-9)
    d = np.diag(cov)
    assert np.all(np.diff(d) <= 1e-9)


def test_pca_reconstruction_beats_random_projections():
    rng = np.random.default_rng(11)
    tokens = [f"w{i}" for i in range(25)]
    x = rng.normal(size=(25, 5)) * [4, 3, 2, 1, 0.5]
    store = EmbeddingStore(tokens, x)
    out = project_pca(store, 2, tokens)
    centered = x - x.mean(axis=0)
    pca_error = (centered ** 2).sum() - (out.matrix ** 2).sum()
    for _ in range(10):
        q = np.linalg.qr(rng.normal(size=(5, 2)))[0]
        rand_error = (centered ** 2).sum() - ((centered @ q) ** 2).sum()
        assert pca_error <= rand_error + 1e-9


def test_pca_rank_deficient():
    tokens = ["a", "b", "c"]
    # three collinear points: covariance rank 1
    points = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(RankDeficient):
        project_pca(EmbeddingStore(tokens, points), 2, tokens)


def test_pca_deterministic_sign():
    rng = np.random.default_rng(12)
    tokens = [f"w{i}" for i in range(15)]
    store = EmbeddingStore(tokens, rng.normal(size=(15, 3)))
    a = project_pca(store, 2, tokens)
    b = project_pca(store, 2, tokens)
    assert np.array_equal(a.matrix, b.matrix)


def test_pca_validates_target_dim():
    store = EmbeddingStore(["a", "b"], np.eye(2))
    with pytest.raises(InvalidInput):
        project_pca(store, 3, ["a", "b"])
    with pytest.raises(InvalidInput):
        project_pca(store, 2, ["a"])
