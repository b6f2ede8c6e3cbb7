"""A plain sequential word2vec-binary reader over a file held in memory.

It parses one record after another, as the format describes them, and keeps
the whole file and every row; ``wmdlab.embeddings.load_embeddings`` is
checked against it.
"""

import numpy as np

from wmdlab.errors import ParseError


def read_records(data: bytes, path=None
                 ) -> tuple[int, list[tuple[int, str, bytes]]]:
    """The dimension and every ``(offset, token, vector bytes)`` record of
    a word2vec-binary file's bytes, duplicates included, the offset being
    the token's; raises the loader's ``ParseError`` for the first fault,
    naming ``path``."""
    newline = data.find(b"\n")
    if newline < 0:
        raise ParseError("missing header line", path, offset=0)
    header = data[:newline].split()
    if len(header) != 2:
        raise ParseError("header must be 'count dim'", path, offset=0)
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError("header must be 'count dim'", path,
                         offset=0) from None
    if count < 1 or dim < 1:
        raise ParseError(f"bad header counts {count} {dim}", path, offset=0)
    records = []
    pos = newline + 1
    for _ in range(count):
        while data[pos:pos + 1] == b"\n":
            pos += 1
        space = data.find(b" ", pos)
        if space < 0:
            raise ParseError("truncated record: no token terminator", path,
                             offset=pos)
        try:
            token = data[pos:space].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"bad token bytes: {exc}", path,
                             offset=pos) from None
        end = space + 1 + 4 * dim
        if end > len(data):
            raise ParseError("truncated record: short vector", path,
                             offset=space + 1)
        records.append((pos, token, data[space + 1:end]))
        pos = end
    return dim, records


def load(data: bytes, vocabulary=None, path=None
         ) -> tuple[tuple[str, ...], np.ndarray]:
    """The tokens and float64 matrix that ``load_embeddings`` gives for a
    word2vec-binary file's bytes, read from ``path``: the first occurrence
    of each token, in file order, only the ``vocabulary``'s when given.
    The first all-zero first occurrence of a token, kept or dropped, is a
    ``ParseError`` at its offset."""
    dim, records = read_records(data, path)
    first: dict[str, tuple[int, bytes]] = {}
    for offset, token, raw in records:
        first.setdefault(token, (offset, raw))
    for token, (offset, raw) in first.items():
        if not np.frombuffer(raw, "<f4").any():
            raise ParseError(f"all-zero vector for {token!r}", path,
                             offset=offset)
    kept = [t for t in first if vocabulary is None or t in vocabulary]
    flat = np.frombuffer(b"".join(first[t][1] for t in kept), "<f4")
    return tuple(kept), flat.reshape(len(kept), dim).astype(np.float64)
