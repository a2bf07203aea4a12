"""Text and JSON round trips for instances and solutions."""

import json
import random
import tracemalloc

import numpy as np
import pytest

from p3ap import CostArray, LatinRectangle
from p3ap import io as p3ap_io
from p3ap.io import (
    FormatError,
    format_instance,
    format_solution,
    instance_from_json,
    instance_to_json,
    load_instance,
    load_solution_rows,
    parse_instance,
    parse_solution_rows,
    solution_to_json,
)


def sample_instance():
    rng = np.random.default_rng(5)
    return CostArray(rng.integers(-99, 99, size=(4, 4, 2)))


def test_instance_text_roundtrip():
    C = sample_instance()
    assert parse_instance(format_instance(C)) == C


def test_instance_text_layout():
    C = CostArray(np.arange(8).reshape(2, 2, 2))
    text = format_instance(C)
    lines = text.strip("\n").splitlines()
    assert lines[0] == "2 2"
    # blank separator, layer 1 rows, blank separator, layer 2 rows
    assert lines[1] == ""
    assert lines[2].split() == ["0", "2"]
    assert lines[3].split() == ["4", "6"]
    assert lines[4] == ""
    assert lines[5].split() == ["1", "3"]


def test_comments_and_blank_lines_ignored():
    C = sample_instance()
    text = "# provenance line\n\n" + format_instance(C)
    assert parse_instance(text) == C


def test_instance_json_roundtrip():
    C = sample_instance()
    doc = json.loads(instance_to_json(C))
    assert doc["n"] == 4 and doc["p"] == 2
    assert instance_from_json(instance_to_json(C)) == C


def test_solution_text_roundtrip():
    rows = ((2, 1, 3), (1, 3, 2))
    sol = LatinRectangle(rows)
    assert parse_solution_rows(format_solution(sol)) == rows


def test_solution_json_roundtrip():
    rows = ((2, 1, 3), (1, 3, 2))
    doc = json.loads(solution_to_json(LatinRectangle(rows)))
    assert doc == {"n": 3, "p": 2, "rows": [[2, 1, 3], [1, 3, 2]]}


def test_files_roundtrip(tmp_path):
    C = sample_instance()
    path = tmp_path / "inst.txt"
    path.write_text(format_instance(C))
    assert load_instance(path) == C
    spath = tmp_path / "sol.txt"
    spath.write_text("2 1\n1 2\n")
    assert load_solution_rows(spath) == ((2, 1), (1, 2))


def test_malformed_inputs_raise():
    with pytest.raises(FormatError):
        parse_instance("")
    with pytest.raises(FormatError):
        parse_instance("2\n0 0\n0 0\n")  # header missing p
    with pytest.raises(FormatError):
        parse_instance("2 1\n0 0\n0\n")  # ragged row
    with pytest.raises(FormatError):
        parse_instance("2 1\n0 0\n")  # not enough rows
    with pytest.raises(FormatError, match="missing row 2 of layer 1"):
        parse_instance("200000 1\n0\n")  # refused before allocating 320 GB
    with pytest.raises(FormatError, match="^layer 1, row 1: expected 100000 values, got 1$"):
        parse_instance("100000 1\n" + "0\n" * 100000)  # once 74.5 GiB
    with pytest.raises(FormatError):
        parse_instance("2 1\n0 0\n0 0\n0 0\n")  # too many rows
    with pytest.raises(FormatError):
        parse_instance("2 1\n0 x\n0 0\n")  # non-integer
    with pytest.raises(FormatError):
        parse_solution_rows("")
    with pytest.raises(FormatError):
        parse_solution_rows("1 two\n")


def test_out_of_range_entries_raise_format_error():
    with pytest.raises(FormatError):
        parse_instance("2 1\n99999999999999999999 0\n0 0\n")  # beyond int64
    with pytest.raises(FormatError):
        instance_from_json('{"n": 1, "p": 1, "layers": [[[99999999999999999999]]]}')


def test_malformed_json_instances_raise_format_error():
    bad = [
        {"n": 2, "p": 1, "layers": [[[0, 0, 0], [0, 0, 0]]]},  # 2 x 3 layer
        {"n": 2, "p": 1, "layers": [[[0, 0]]]},  # too few rows
        {"n": 2, "p": 1, "layers": [[[0, "x"], [0, 0]]]},  # not an integer
        {"n": 2, "p": 1, "layers": [[[0, 1.5], [0, 0]]]},  # not an integer
        {"n": 2, "p": 1, "layers": [[0, 0]]},  # rows are not lists
        {"n": 0, "p": 1, "layers": [[]]},
        {"n": 1, "p": 0, "layers": []},
        {"n": 1, "p": -1, "layers": []},
        {"n": "2", "p": 1, "layers": [[[0, 0], [0, 0]]]},
        {"n": 1, "p": 1, "layers": 5},
    ]
    for doc in bad:
        with pytest.raises(FormatError):
            instance_from_json(json.dumps(doc))


def test_bad_json_solution_entries_raise_format_error(tmp_path):
    path = tmp_path / "sol.json"
    path.write_text('{"rows": [[1, "two"]]}')
    with pytest.raises(FormatError):
        load_solution_rows(path)
    # Floats, booleans and numeric strings are not integers, though int()
    # would turn each into one.
    for rows in ('[[1.9, 2.2, 3.7], [true, 3, 2]]', '[[1, "2"], [2, 1]]'):
        path.write_text('{"rows": %s}' % rows)
        with pytest.raises(FormatError):
            load_solution_rows(path)


def test_json_solution_reads_the_solve_report_key(tmp_path):
    path = tmp_path / "sol.json"
    path.write_text('{"optimum": 0, "solution_rows": [[2, 1], [1, 2]]}')
    assert load_solution_rows(path) == ((2, 1), (1, 2))
    path.write_text('{"rows": [[1, 2], [2, 1]], "solution_rows": [[2, 1], [1, 2]]}')
    assert load_solution_rows(path) == ((1, 2), (2, 1))
    path.write_text('{"optimum": 0}')
    with pytest.raises(FormatError, match="^bad JSON solution: 'rows'$"):
        load_solution_rows(path)


def loop_parse_tensor(rows: list, n: int, p: int) -> np.ndarray:
    """The per-row parser that the bulk path replaced, kept verbatim."""
    if len(rows) < n * p:
        # Before allocating what the header announces: "200000 1" is 320 GB.
        k, i = divmod(len(rows), n)
        raise FormatError(f"truncated file: missing row {i + 1} of layer {k + 1}")
    entries = np.empty((n, n, p), dtype=np.int64)
    for k in range(p):
        for i in range(n):
            values = rows[k * n + i].split()
            if len(values) != n:
                raise FormatError(
                    f"layer {k + 1}, row {i + 1}: expected {n} values, got {len(values)}"
                )
            try:
                entries[i, :, k] = [int(v) for v in values]
            except (ValueError, OverflowError) as e:
                raise FormatError(f"layer {k + 1}, row {i + 1}: {e}")
    return entries


# Tokens that int() and numpy's reader may treat differently: int64 bounds
# and one past them, floats, digit separators, non-ASCII digits, a comment
# sign, and a character that numpy 2.4 misreads as a digit, or crashes on,
# if it is handed a non-ASCII row.
ODD_TOKENS = [
    "9223372036854775807", "-9223372036854775808", "+9223372036854775807",
    "9223372036854775808", "-9223372036854775809", "99999999999999999999",
    "1.0", "-2.5", "1e3", "nan", "inf", "1_0", "1__0", "_1", "1_", "١٢", "-١",
    "１２", "#", "# 1", "+-1", "--1", "-", "+", "0x10", "007", "-0", "+0",
    "x", "1\U0009c6ca2", "\U0009c6ca", "\x00",
]
SEPARATORS = [" ", " ", " ", "  ", "\t", " \t", "\x0b", "\xa0", "\u3000", "\x1f"]


def fuzzed_body(rng):
    n = rng.choice([1, 1, 2, 3, 4, 5])
    p = rng.randint(1, min(n, 3) + (rng.random() < 0.1))
    odd = rng.random() < 0.5
    lines = [f"{n} {p}"]
    if rng.random() < 0.15:
        lines.append("density")  # a bad row, not a format marker
    rows = n * p + (rng.choice([-1, 1, 2]) if odd and rng.random() < 0.2 else 0)
    for r in range(max(rows, 0)):
        if r % n == 0:
            lines.append("")
        if rng.random() < 0.05:
            lines.append("# a comment line")
        width = n + (rng.choice([-1, 1]) if odd and rng.random() < 0.1 else 0)
        tokens = []
        for _ in range(width):
            if odd and rng.random() < 0.08:
                tokens.append(rng.choice(ODD_TOKENS))
            else:
                sign = rng.choice(["", "", "", "-", "+"])
                tokens.append(sign + str(rng.randint(0, 10 ** rng.randint(0, 6))))
        sep = rng.choice(SEPARATORS) if odd else " "
        lines.append(rng.choice(["", " ", "\t"]) + sep.join(tokens))
    return "\n".join(lines) + "\n"


def parse_outcome(text):
    try:
        entries = parse_instance(text).entries
    except ValueError as e:  # FormatError, DimensionError or CostRangeError
        return "error", type(e).__name__, str(e)
    return "ok", entries.dtype.str, entries.flags.c_contiguous, entries.tolist()


def test_bulk_parse_matches_the_row_loop(monkeypatch):
    rng = random.Random(20140501)
    kinds = set()
    for case in range(2400):
        text = fuzzed_body(rng)
        got = parse_outcome(text)
        with monkeypatch.context() as m:
            m.setattr(p3ap_io, "_parse_tensor", loop_parse_tensor)
            want = parse_outcome(text)
        assert got == want, (case, text)
        kinds.add(got[0])
    assert kinds == {"ok", "error"}


def load_outcome(path):
    try:
        entries = load_instance(path).entries
    except ValueError as e:  # FormatError, DimensionError or CostRangeError
        return "error", type(e).__name__, str(e)
    return "ok", entries.dtype.str, entries.flags.c_contiguous, entries.tolist()


# None keeps the module's chunk of text; 1 and 7 characters cut every line,
# "\r\n" and multi-line token between chunks.
@pytest.mark.parametrize("chars", [None, 1, 7])
def test_streamed_load_matches_parse_instance(tmp_path, monkeypatch, chars):
    if chars is not None:
        monkeypatch.setattr(p3ap_io, "_READ_CHARS", chars)
    rng = random.Random(20140501)
    path = tmp_path / "inst.txt"
    kinds = set()
    for case in range(2400):
        text = fuzzed_body(rng)
        path.write_text(text, encoding="utf-8")
        got = load_outcome(path)
        assert got == parse_outcome(text), (case, text)
        kinds.add(got[0])
    assert kinds == {"ok", "error"}


def big_text(n=400, p=2, seed=3):
    """Instance text of more than one chunk, and its entries."""
    entries = np.random.default_rng(seed).integers(-10**6, 10**6, size=(n, n, p))
    text = format_instance(CostArray(entries))
    assert len(text) > 2 * p3ap_io._READ_CHARS
    return text, entries


def boundary_rows(text):
    """Indices of the lines of text that end the first chunk and begin the
    second: the line that holds the chunk's last character is both."""
    cut = p3ap_io._READ_CHARS
    line = text.count("\n", 0, cut)  # the line that holds character cut
    return [line - 1, line, line + 1]


def rows_replaced(text, edits):
    lines = text.split("\n")
    for index, edit in edits.items():
        lines[index] = edit(lines[index])
    return "\n".join(lines)


@pytest.mark.parametrize("offset", [0, 1, 2])
@pytest.mark.parametrize("where", ["first", "last"])
def test_bad_token_at_a_chunk_boundary(tmp_path, offset, where):
    text, _ = big_text()
    line = boundary_rows(text)[offset]
    bad = (lambda s: "x" + s[1:]) if where == "first" else (lambda s: s + "x")
    text = rows_replaced(text, {line: bad})
    path = tmp_path / "inst.txt"
    path.write_text(text)
    got = load_outcome(path)
    assert got == parse_outcome(text)
    # Line 0 is the header and line 1 the blank line before layer 1.
    assert got[2].startswith(f"layer 1, row {line - 1}: invalid literal for int()")


def test_non_ascii_row_mid_file_and_exact_chunk_ends(tmp_path):
    text, entries = big_text()
    lines = boundary_rows(text)
    # Ideographic spaces and full-width digits send their chunk through the row loop.
    text = rows_replaced(text, {
        lines[2]: lambda s: s.replace(" ", "　"),
        lines[2] + 7: lambda s: s.replace("1", "１"),
        lines[2] + 20: lambda s: s + "\u2028",  # a line break of str.splitlines
    })
    path = tmp_path / "inst.txt"
    path.write_text(text, encoding="utf-8")
    assert load_outcome(path) == parse_outcome(text)
    assert np.array_equal(load_instance(path).entries, entries)
    # A chunk that ends exactly where a line ends.
    start = text.index("\n", p3ap_io._READ_CHARS - 9000)
    path.write_text(" " * (p3ap_io._READ_CHARS - start - 1) + text, encoding="utf-8")
    assert np.array_equal(load_instance(path).entries, entries)


def test_truncated_and_overlong_files_past_one_chunk(tmp_path):
    text, _ = big_text()
    lines = text.split("\n")
    path = tmp_path / "inst.txt"
    # Line 402 is the blank line before layer 2; cut after its 137th row.
    path.write_text("\n".join(lines[:403 + 137]) + "\n")
    with pytest.raises(FormatError, match="^truncated file: missing row 138 of layer 2$"):
        load_instance(path)
    # Cut inside the next row: the short row counts, and the file is too short.
    path.write_text("\n".join(lines[:403 + 138]) + "\n" + lines[403 + 138][:20])
    with pytest.raises(FormatError, match="^truncated file: missing row 140 of layer 2$"):
        load_instance(path)
    path.write_text(text + lines[5] + "\n")
    with pytest.raises(FormatError, match="^header '400 2' announces 800 rows, got 801$"):
        load_instance(path)


def test_byte_past_the_first_chunks_that_is_not_utf8(tmp_path):
    text, _ = big_text()
    bad_row = text.encode()[:60000].rfind(b"\n") + 1
    path = tmp_path / "inst.txt"
    far = 2 * p3ap_io._READ_CHARS + 5
    for at, bad in ((70000, bad_row), (far, bad_row), (far, 0)):
        data = bytearray(text.encode())
        data[at] = 0xFF
        data[bad] = ord("x")  # a bad row or header before the byte does not hide it
        path.write_bytes(bytes(data))
        with pytest.raises(UnicodeDecodeError) as caught:
            load_instance(path)
        with pytest.raises(UnicodeDecodeError) as whole:
            bytes(data).decode("utf-8")
        assert str(caught.value) == str(whole.value)
        assert f"in position {at}: invalid start byte" in str(caught.value)


@pytest.mark.parametrize("text, message", [
    ("200000 1\n0\n", "^truncated file: missing row 2 of layer 1$"),
    ("200000 1\n" + "0 " * 200000 + "\n", "^truncated file: missing row 2 of layer 1$"),
    ("100000 1\n" + "0\n" * 100000, "^layer 1, row 1: expected 100000 values, got 1$"),
])
def test_streamed_load_allocates_no_more_than_the_text_holds(tmp_path, text, message):
    path = tmp_path / "inst.txt"
    path.write_text(text)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=message):
            load_instance(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20  # the announced arrays are 320 GB and 74.5 GiB
