"""The record files: the store, test-set, model and ratings formats, and their rules;
and the one table writer of every file the package writes.

Only this module parses the record files' text: the header rule, the token rule,
the line reader and the byte route.  Its table writer (``write_table`` to a stream,
``save_table`` to a path) writes every file: the record files here, and the dataset
CSV, the predictions CSV, the bound surface and an experiment's ``results.csv``,
whose modules pass in only their head lines, one line format and their columns.
Callers pass in their own constructors and row checks, so it imports no other
module of the package.
"""

import numpy as np

_PARSE_BLOCK = 1 << 20  # bytes of whole lines parsed at once from a writer's body
_WRITE_BLOCK = 1 << 16  # rows formatted and written at once
_WRITER_SEPS = np.frombuffer(b"  \n", dtype=np.uint8)  # the byte after each id of a line

# a store file's header keys: its anchor universe, its reference universe and, in a
# training store (whose anchors are its references), its row count
_STORE_KEYS = {"tripletset": ("n", "n", "m"), "testtriplets": ("n_test", "n_train")}
_MODEL, _MODEL_KEYS = "tripletboost-model", ("L", "n", "C")


def _plain(text: str) -> bool:
    """ASCII without ``_``, the one token rule: ``int`` then reads only decimal digits
    and a sign, never a digit of another script or a ``_`` between digits."""
    return text.isascii() and "_" not in text


def _int64(token: str) -> int:
    """A plain token's id: a ValueError unless decimal, an OverflowError outside int64."""
    if not -(1 << 63) <= (value := int(token)) < 1 << 63:
        raise OverflowError(token)
    return value


def _mask(token: str) -> int:
    """A label set: bare lowercase hex, as written; a negative one (``-``, hex) is -1."""
    digits = token.removeprefix("-")
    if not digits or digits.strip("0123456789abcdef"):
        raise ValueError(token)
    return int(digits, 16) if digits == token else -1


def _header(kind: str, keys: tuple[str, ...], values) -> str:
    """The ``kind v1 key=value ...`` header line; a repeated key is written once."""
    return " ".join([kind, "v1", *(f"{key}={value}" for key, value
                                   in dict(zip(keys, values)).items())])


def _parse_header(line: str, kind: str, keys: tuple[str, ...], path) -> tuple[int, ...]:
    """The integer values of ``keys`` in a ``kind v1 key=value ...`` header line,
    in which no key repeats."""
    parts = line.split()
    if parts[:2] != [kind, "v1"]:
        raise ValueError(f"version mismatch: expected '{kind} v1' header in {path}")
    values = dict(token.partition("=")[::2] for token in parts[2:])
    try:
        tokens = [values[key] for key in keys]
        # a repeated key, or a value outside the token rule of the record lines
        if len(values) < len(parts) - 2 or not all(map(_plain, tokens)):
            raise ValueError
        return tuple(map(int, tokens))
    except (KeyError, ValueError):
        raise ValueError(f"malformed header in {path}") from None


def _records(text: str, first_lineno: int, parse):
    """(rows, name, bad): row i is ``parse(*tokens)`` of a nonblank line of ``text``
    (lines end at LF, from number ``first_lineno``), named ``name(i)``.  ``bad`` is
    (N, error) for the first line N that is not plain or that ``parse`` refuses;
    the rows stop above it, so that a caller checks them before reporting it."""
    rows, linenos, bad = [], [], None
    for lineno, line in enumerate(text.split("\n"), start=first_lineno):
        tokens = line.split()
        try:
            if not _plain(line):
                raise ValueError(line)
            if tokens:
                rows.append(parse(*tokens))
                linenos.append(lineno)
        except (ValueError, OverflowError, TypeError) as error:  # TypeError: token count
            bad = lineno, error
            break
    return rows, lambda i: f"line {linenos[i]}", bad


def _read(records, check, malformed):
    """``check(rows, name)`` of the (rows, name, bad) ``records`` of ``_records``; then
    the bad line, if any, raises ``malformed(line number, error)``.  So the first
    bad line wins, whether a check or the line reader refuses it."""
    rows, name, bad = records
    checked = check(rows, name)
    if bad is not None:
        raise ValueError(malformed(*bad))
    return checked


def _writer_ids(body: str) -> np.ndarray | None:
    """The (m, 3) int64 ids of a body in the writer's grammar, else None.  Its lines
    hold three ids of 1-18 ASCII digits, followed by SP, SP and LF (the last LF may
    be missing); they are read from the bytes a block of whole lines at a time."""
    if not body.isascii():
        return None
    data = (body if body.endswith("\n") else body + "\n").encode("ascii")
    ids = np.zeros(3 * data.count(b"\n"), dtype=np.int64)
    start = done = 0
    while start < len(data):
        stop = data.find(b"\n", start + _PARSE_BLOCK) + 1 or len(data)
        block = np.frombuffer(data, np.uint8, stop - start, start)
        ends = np.flatnonzero(block - 48 > 9)  # a byte below b"0" wraps past 9 in uint8
        starts = np.concatenate(([0], ends[:-1] + 1))
        width = ends - starts
        if (ends.size % 3 or width.min() < 1 or width.max() > 18
                or not (block[ends].reshape(-1, 3) == _WRITER_SEPS).all()):
            return None
        value = ids[done:done + ends.size]
        for shift in range(int(width.max()), 0, -1):  # Horner, from the widest id's lead
            at = ends - shift
            # the digits widen to int64 before they scale: uint8 would wrap
            digit = block.take(at, mode="clip").astype(np.int64) - 48
            value *= 10
            value += np.where(at >= starts, digit, 0)
        done += ends.size
        start = stop
    return ids.reshape(-1, 3)


def write_table(fh, head, line: str, columns) -> None:
    """To the text stream ``fh``: the ``head`` lines, then ``line.format`` of each row
    of the equal-length array ``columns``, one argument a column; ``line`` ends in LF.
    The rows are formatted and written ``_WRITE_BLOCK`` at a time."""
    fh.write("".join(text + "\n" for text in head))
    for start in range(0, len(columns[0]), _WRITE_BLOCK):
        block = (col[start:start + _WRITE_BLOCK].tolist() for col in columns)
        fh.write("".join(map(line.format, *block)))


def save_table(path, head, line: str, columns) -> None:
    """``write_table`` to the file at ``path``, as UTF-8 with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_table(fh, head, line, columns)


def save_store(path, kind: str, sizes, columns) -> None:
    """A ``kind`` store file of the (n_anchors, n, m) ``sizes`` and the id ``columns``."""
    save_table(path, [_header(kind, _STORE_KEYS[kind], sizes)], "{} {} {}\n", columns)


def load_store(path, kind: str, make):
    """``make(n_anchors, n, i, j, k, where)`` of a ``kind`` store file: a body in the
    writer's grammar is read from its bytes, any other body line by line."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        body = fh.read()
    keys = _STORE_KEYS[kind]
    values = _parse_header(header, kind, keys, path)
    ids = _writer_ids(body)  # a body in the writer's grammar has no blank line
    records = ((ids, lambda row: f"line {row + 2}", None) if ids is not None
               else _records(body, 2, lambda i, j, k: (_int64(i), _int64(j), _int64(k))))
    del body  # the rows are checked without the text
    store = _read(records, lambda rows, where: make(
        *values[:2], *np.asarray(rows, dtype=np.int64).reshape(-1, 3).T, where),
        lambda line, _: f"malformed triplet at line {line}: expected three int64 ids")
    if len(keys) > 2 and store.m != values[2]:
        raise ValueError(f"header claims m={values[2]} but file has {store.m} triplets")
    return store


def save_model(path, names, n_train: int, rounds_run: int, columns) -> None:
    """A model file of the label ``names`` and the (j, k, alpha, o_j, o_k) ``columns``."""
    for name in names:  # the reader splits the names line at tabs, and reads \r as \n
        if "\t" in name or "\n" in name or "\r" in name:
            raise ValueError(f"label name {name!r} cannot be serialized: "
                             "it holds a tab or line break")
    save_table(path, [_header(_MODEL, _MODEL_KEYS, (len(names), n_train, rounds_run)),
                      "\t".join(names)], "{} {} {!r} {:x} {:x}\n", columns)


def load_model(path, check_universe, columns):
    """(names, n_train, rounds_run, checked) of a model file, where ``check_universe``
    vets n_train, and ``checked`` is ``columns(rows, n_train, L, where)``."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        names = tuple(fh.readline().rstrip("\n").split("\t"))
        body = fh.read()
    n_labels, n_train, rounds_run = _parse_header(header, _MODEL, _MODEL_KEYS, path)
    if rounds_run < 0:
        raise ValueError(f"malformed header in {path}")
    check_universe(n_train)  # the pairs index the examples of a training store
    if len(names) != n_labels:
        raise ValueError(f"label count disagrees with header in {path}")
    return names, n_train, rounds_run, _read(
        _records(body, 3, lambda j, k, alpha, o_j, o_k: (
            _int64(j), _int64(k), _mask(o_j), _mask(o_k), float(alpha))),
        lambda rows, where: columns(rows, n_train, n_labels, where),
        lambda line, _: f"malformed classifier at line {line}")


def load_ratings(path, make):
    """``make(user, item, rating, where)`` of a ratings file's int64, int64 and
    float64 columns."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()

    def build(rows, where):
        ids = np.array([row[:2] for row in rows], dtype=np.int64).reshape(-1, 2)
        return make(*ids.T, np.array([row[2] for row in rows], dtype=np.float64), where)

    return _read(_records(text, 1, lambda user, item, rating: (
        _int64(user), _int64(item), float(rating))), build,
        lambda line, error: ("id not an int64 integer" if isinstance(error, OverflowError)
                             else "malformed rating") + f" at line {line}")
