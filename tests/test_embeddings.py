"""Embedding table IO and OOV policy."""

import hashlib
import os
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from multisent import embeddings, errors
from multisent.align import TranslationMatrix
from multisent.corpus import Polarity
from multisent.embeddings import (
    _LOAD_CHUNK_ROWS,
    EmbeddingTable,
    TrainedFile,
    _parse_each_line,
    _parse_rows,
    check_dim_uniformity,
    count_tokens,
    default_oov_scale,
    load_embedding_table,
    load_frequency_counts,
    oov_vector,
    ranks_from_counts,
    save_embedding_table,
)
from multisent.errors import (
    ArgumentError,
    ConfigurationError,
    LinePieces,
    ParseError,
    split_lines,
)
from multisent.pipeline import EmbeddingContext
from multisent.preprocess import TokenizedTweet

from conftest import no_worker_left, seeded_table


def _tw(tokens, lang="en"):
    return TokenizedTweet(id="t", lang=lang, label=Polarity.NEUTRAL, tokens=tokens)


def _embed(tweet, table, oov_seed):
    """tweet's rows through a context holding only table."""
    return EmbeddingContext(tables={table.lang: table}, oov_seed=oov_seed).embed(tweet)


# -- file format -----------------------------------------------------------

def test_two_by_three_header(tmp_path):
    p = tmp_path / "e.vec"
    p.write_text("2 3\nalpha 1 2 3\nbeta 4 5 6\n")
    table = load_embedding_table(p, "en")
    assert len(table.entries) == 2 and table.dim == 3
    assert np.array_equal(table.entries["beta"], [4.0, 5.0, 6.0])


def test_row_arity_error_names_line(tmp_path):
    p = tmp_path / "e.vec"
    p.write_text("2 3\nalpha 1 2\nbeta 4 5 6\n")
    with pytest.raises(ParseError) as exc:
        load_embedding_table(p, "en")
    assert exc.value.line == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_component_names_line(tmp_path, bad):
    p = tmp_path / "e.vec"
    p.write_text(f"2 2\ngood 0.5 1.0\nbad {bad} 1.0\n")
    with pytest.raises(ParseError) as exc:
        load_embedding_table(p, "en")
    assert exc.value.line == 3
    assert "non-finite" in str(exc.value)


def test_invalid_utf8_names_line(tmp_path):
    p = tmp_path / "e.vec"
    for end in (b"\n", b"\r\n", b"\r"):
        p.write_bytes(b"2 2\ngood 0.5 1.0\nb\xffd 0.5 1.0\n".replace(b"\n", end))
        with pytest.raises(ParseError) as exc:
            load_embedding_table(p, "en")
        assert exc.value.line == 3, end
        assert "invalid UTF-8 byte 0xff" in str(exc.value)


def test_row_count_mismatch(tmp_path):
    p = tmp_path / "e.vec"
    p.write_text("3 2\na 1 2\nb 3 4\n")
    with pytest.raises(ParseError):
        load_embedding_table(p, "en")


def test_bad_header(tmp_path):
    p = tmp_path / "e.vec"
    p.write_text("not a header\n")
    with pytest.raises(ParseError) as exc:
        load_embedding_table(p, "en")
    assert exc.value.line == 1


@pytest.mark.parametrize("text, message", [
    ("", "line 1: empty embedding file"),
    ("-1 5\n", "line 1: invalid header values -1 5"),
], ids=["empty-file", "negative-count"])
def test_bad_header_message(tmp_path, text, message):
    p = tmp_path / "e.vec"
    p.write_text(text)
    with pytest.raises(ParseError) as exc:
        load_embedding_table(p, "en")
    assert str(exc.value) == message


def test_duplicates_last_win_and_are_counted(tmp_path):
    p = tmp_path / "e.vec"
    p.write_text("3 2\na 1 2\nb 3 4\na 9 9\n")
    table = load_embedding_table(p, "en")
    assert np.array_equal(table.entries["a"], [9.0, 9.0])
    assert table.duplicate_count == 1


def test_five_word_round_trip(tmp_path):
    table = seeded_table("en", ["v", "w", "x", "y", "z"], dim=4, seed=3)
    p = tmp_path / "rt.vec"
    save_embedding_table(table, p)
    loaded = load_embedding_table(p, "en")
    for word in table.entries:
        assert np.array_equal(loaded.entries[word], table.entries[word])


# Each character str.splitlines would break a line at, beyond \n, \r\n and \r.
# fastText splits words at ASCII whitespace only, so a word may hold any of them.
_NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", _NOT_LINE_ENDS, ids=lambda c: f"U+{ord(c):04X}")
@pytest.mark.parametrize("spelling", ["0.5", "0.5_0"], ids=["loadtxt", "per-line"])
def test_word_holding_a_unicode_line_break_round_trips(tmp_path, char, spelling):
    word = f"a{char}b"
    table = EmbeddingTable(lang="en", dim=2, entries={
        word: np.array([1.0, 0.5]), char: np.array([2.0, 3.0]), "z": np.array([4.0, 5.0])})
    p = tmp_path / "e.vec"
    save_embedding_table(table, p)
    text = p.read_text(encoding="utf-8").replace(" 0.5\n", f" {spelling}\n")
    p.write_text(text, encoding="utf-8")
    # the path each spelling takes
    assert _parse_rows(split_lines(text)[1:], 2, np.empty((3, 2))) is (spelling == "0.5")
    whole = load_embedding_table(p, "en")
    assert {w: v.tolist() for w, v in whole.entries.items()} == {
        w: v.tolist() for w, v in table.entries.items()}
    part = load_embedding_table(p, "en", _trained=TrainedFile(whole.sha256, "pinned", {word}))
    assert {w: v.tolist() for w, v in part.entries.items()} == {word: [1.0, 0.5]}


# -- values read as float() reads them ---------------------------------------

_SPELLINGS = [repr, "{:.6f}".format, "{:.17g}".format, "{:e}".format]


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(
    st.lists(st.tuples(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                 st.sampled_from([-0.0, 5e-324, 1e308])),
                       st.sampled_from(_SPELLINGS)),
             min_size=3, max_size=3),
    min_size=1, max_size=6))
def test_written_doubles_load_as_float_reads_them(tmp_path, rows):
    texts = [[spell(x) for x, spell in row] for row in rows]
    p = tmp_path / "e.vec"
    p.unlink(missing_ok=True)   # a fresh file per example: rewriting the last one is slow
    p.write_text(f"{len(rows)} 3\n" + "".join(
        f"w{i} {' '.join(fields)}\n" for i, fields in enumerate(texts)))
    table = load_embedding_table(p, "en")
    for i, fields in enumerate(texts):
        want = np.array([float(f) for f in fields], dtype=np.float64)
        assert table.entries[f"w{i}"].tobytes() == want.tobytes()


_AFFIX = st.sampled_from(["", "", "", "\x1f", "\t", "\xa0", "　", "\x00", "_", "１", "+", "-",
                          "e", ".", "#", '"'])
_FIELD_TEXT = st.tuples(_AFFIX, st.one_of(
    st.floats().map(repr), st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["", "1_0", "Infinity", "1e309", "5e-324", "0x1", "1,5"])), _AFFIX).map("".join)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(fields=st.lists(st.lists(_FIELD_TEXT, min_size=2, max_size=2), min_size=1, max_size=4))
def test_vectorised_parse_agrees_with_the_per_line_parser(fields):
    """Where the one-pass parse accepts a body, float() per field reads the same bits."""
    body = [(i + 2, f"w{i} {' '.join(row)}") for i, row in enumerate(fields)]
    fast = np.empty((len(body), 2))
    if not _parse_rows([ln.rstrip() for _, ln in body], 2, fast):
        return
    slow = np.empty_like(fast)
    _parse_each_line(body, 2, slow)
    assert fast.tobytes() == slow.tobytes()


@pytest.mark.parametrize("spelling,value", [("1_0", 10.0), ("１", 1.0), ("\t1", 1.0)])
def test_spellings_float_accepts_still_load(tmp_path, spelling, value):
    p = tmp_path / "e.vec"
    p.write_text(f"2 2\na 0.5 {spelling}\nb 1 2\n", encoding="utf-8")
    table = load_embedding_table(p, "en")
    assert table.entries["a"].tolist() == [0.5, value]


@pytest.mark.parametrize("bad,kind", [
    ("nan", "non-finite"), ("Infinity", "non-finite"), ("1e309", "non-finite"),
    ("x1", "non-numeric"), ("\x1f1", "non-numeric"), ("1,5", "non-numeric"),
])
def test_bad_value_message_names_line_and_text(tmp_path, bad, kind):
    p = tmp_path / "e.vec"
    p.write_text(f"3 2\ngood 0.5 1.0\nbad {bad} 1.0 \nworse 1 2\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_embedding_table(p, "en")
    assert exc.value.line == 3
    assert str(exc.value) == f"line 3: {kind} vector component in {f'bad {bad} 1.0 '!r}"


@pytest.mark.parametrize("line3,line5,message", [
    ("c 1 x", "e 1 2 3", "line 3: non-numeric vector component in 'c 1 x'"),
    ("c 1 2 3", "e 1 nan", "line 3: expected a word and 2 values, got 4 fields"),
])
def test_first_bad_line_in_file_order_wins(tmp_path, line3, line5, message):
    p = tmp_path / "e.vec"
    p.write_text(f"5 2\na 1 2\n{line3}\nd 1 2\n{line5}\nf 1 2\n")
    with pytest.raises(ParseError) as exc:
        load_embedding_table(p, "en")
    assert str(exc.value) == message


def test_bad_line_past_the_first_chunk_names_its_line(tmp_path):
    n = 2 * _LOAD_CHUNK_ROWS + 5
    rows = [f"w{i % 1500} {i} {-i}" for i in range(n)]
    p = tmp_path / "e.vec"
    p.write_text(f"{n} 2\n" + "\n".join(rows) + "\n")
    table = load_embedding_table(p, "en")
    assert table.duplicate_count == n - 1500
    assert table.entries["w0"].tolist() == [1500.0, -1500.0]  # rows 0 and 1500; the last wins
    rows[_LOAD_CHUNK_ROWS + 7] = "w 1 oops"
    p.write_text(f"{n} 2\n" + "\n".join(rows) + "\n")
    with pytest.raises(ParseError) as exc:
        load_embedding_table(p, "en")
    assert exc.value.line == _LOAD_CHUNK_ROWS + 9


def test_extra_fields_rejected(tmp_path):
    p = tmp_path / "e.vec"
    p.write_text("2 2\na 1 2\nb 1 2 3\n")
    with pytest.raises(ParseError) as exc:
        load_embedding_table(p, "en")
    assert str(exc.value) == "line 3: expected a word and 2 values, got 4 fields"


def test_empty_table_loads_without_warnings(tmp_path):
    p = tmp_path / "e.vec"
    p.write_text("0 4\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = load_embedding_table(p, "en")
    assert table.entries == {} and table.dim == 4 and table.duplicate_count == 0


def test_fingerprint_bytes_are_pinned(tmp_path):
    """Checkpoints record this digest; a change here orphans every one of them."""
    p = tmp_path / "e.vec"
    p.write_text("3 2\nbeta 3 4e-3\nalpha 0.5 -1.25\ngamma -0.0 1e10\n")
    digest = "491574ac16108a7248f7ddd16b86ec94923ee4647b44360992b8b5d464728ea7"
    assert load_embedding_table(p, "en").fingerprint() == digest
    built = EmbeddingTable(lang="en", dim=2, entries={
        "alpha": np.array([0.5, -1.25]), "beta": np.array([3, 4e-3]),
        "gamma": np.array([-0.0, 1e10])})
    assert built.fingerprint() == digest


# A file a checkpoint recorded: CRLF line ends, a blank line, a word
# holding U+001F, duplicate words (the last wins) and a `1_0` that float()
# reads and loadtxt does not.
_RECORDED = ("7 2\r\nbeta 3 4e-3\r\nalpha 0.5 -1.25\r\n\r\nodd\x1fword 1 2\r\n"
             "beta 1_0 2\r\ngamma -0.0 1e10\r\nalpha 7 8\r\ndelta 0.1 0.2\r\n")


@pytest.mark.parametrize("words", [set(), {"alpha"}, {"alpha", "beta"}, {"delta", "gamma"},
                                   {"odd\x1fword", "gamma", "zeta"}])
def test_recorded_file_parses_only_the_rows_of_the_given_words(tmp_path, words):
    p = tmp_path / "e.vec"
    p.write_bytes(_RECORDED.encode())
    whole = load_embedding_table(p, "en")
    assert whole.sha256 == hashlib.sha256(_RECORDED.encode()).hexdigest()
    assert whole.entries["alpha"].tolist() == [7.0, 8.0] and whole.duplicate_count == 2
    part = load_embedding_table(p, "en", _trained=TrainedFile(whole.sha256, "pinned", words))
    assert part.fingerprint() == "pinned" and part.dim == 2 and part.sha256 == whole.sha256
    assert sorted(part.entries) == sorted(words & set(whole.entries))
    for word, vec in part.entries.items():
        assert vec.tobytes() == whole.entries[word].tobytes(), word


def test_recorded_file_with_other_bytes_loads_whole(tmp_path):
    p = tmp_path / "e.vec"
    p.write_bytes(_RECORDED.encode())
    whole = load_embedding_table(p, "en")
    p.write_bytes(_RECORDED.replace("0.5", "0.50").encode())
    respelled = load_embedding_table(p, "en", _trained=TrainedFile(whole.sha256, "pinned",
                                                                   {"alpha"}))
    assert respelled.sha256 != whole.sha256
    assert sorted(respelled.entries) == sorted(whole.entries)
    assert respelled.fingerprint() == whole.fingerprint()


@pytest.mark.parametrize("other", ["lf", "bad row"])
def test_other_bytes_fall_back_to_the_full_table(tmp_path, monkeypatch, other):
    p = tmp_path / "e.vec"
    p.write_bytes(_RECORDED.encode())
    recorded = load_embedding_table(p, "en")
    if other == "lf":
        p.write_bytes(_RECORDED.replace("\r\n", "\n").encode())
    else:   # a row no given word names, which a partial parse would skip
        p.write_bytes(_RECORDED.replace("gamma -0.0", "gamma x").encode())
    reads = []
    monkeypatch.setattr(embeddings, "LinePieces",
                        lambda path: reads.append(path) or LinePieces(path))
    trained = TrainedFile(recorded.sha256, "pinned", {"alpha"})
    if other == "bad row":
        with pytest.raises(ParseError, match="^line 7: non-numeric vector component"):
            load_embedding_table(p, "en", _trained=trained)
        assert reads == [p, p]
        return
    fallback = load_embedding_table(p, "en", _trained=trained)
    assert reads == [p, p]
    whole = load_embedding_table(p, "en")
    assert fallback.sha256 == whole.sha256 == hashlib.sha256(p.read_bytes()).hexdigest()
    assert fallback.duplicate_count == whole.duplicate_count == 2
    assert fallback.fingerprint() == whole.fingerprint() == recorded.fingerprint() != "pinned"
    assert list(fallback.entries) == list(whole.entries)
    for word, vec in fallback.entries.items():
        assert vec.tobytes() == whole.entries[word].tobytes()


class _WholeFile:
    """The oracle for errors.LinePieces: the file's bytes read, hashed,
    decoded and split by split_lines at once, in one piece. A decode error
    names the line split_lines gives the text before the bad byte."""

    def __init__(self, path):
        self.path = path
        self.sha256 = None

    def __iter__(self):
        data = Path(self.path).read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as err:
            line = len(split_lines(data[:err.start].decode("utf-8") + "x"))
            raise ParseError(f"invalid UTF-8 byte 0x{data[err.start]:02x}", line=line) from None
        self.sha256 = hashlib.sha256(data).hexdigest()
        lines = split_lines(text)
        if lines:
            yield 1, lines


def _load_outcome(path, trained):
    """What load_embedding_table gives: the table's parts, or the ParseError's."""
    try:
        table = load_embedding_table(path, "en", _trained=trained)
    except ParseError as err:
        return "error", str(err), err.line
    return ("table", {w: v.tobytes() for w, v in table.entries.items()}, list(table.entries),
            table.duplicate_count, table.sha256, table.fingerprint())


@st.composite
def _vec_bytes(draw):
    """A .vec file's bytes: CRLF, CR or LF line ends (or a mix), blank lines,
    non-ASCII words, rows with a wrong field count or a bad value, a header
    that may not match, and maybe no final line end or one invalid byte."""
    dim = draw(st.integers(1, 3))
    word = st.text(st.sampled_from("ab\u00e9\u65e5\u2028\U0001D518"), min_size=1, max_size=3)
    value = st.sampled_from(["0.5", "-1", "2e3", "1_0", "7"] * 4 + ["x", "nan"])
    rows = [f"{draw(word)} {' '.join(draw(st.lists(value, min_size=dim, max_size=dim)))}"
            for _ in range(draw(st.integers(0, 6)))]
    if rows and draw(st.integers(0, 4)) == 0:
        rows[draw(st.integers(0, len(rows) - 1))] += " 1"
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(["", " "])))
    count = len([r for r in rows if r.strip()]) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    lines = [f"{count} {dim}"] + rows
    style = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) if style == "mixed" else style
            for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    data = "".join(line + end for line, end in zip(lines, ends)).encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe6\x97", b"\x80"])) + data[at:]
    return data


@pytest.mark.parametrize("piece", [1, 7, 64])
@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_vec_bytes(), chosen=st.sets(st.sampled_from(["a", "b", "\u65e5", "ab", "\u00e9a"])),
       recorded=st.booleans())
# lone \r line ends before a bad byte, and a file with no \n at all
@example(data=b"2 1\ra 1\r\nb\xff 2\n", chosen=set(), recorded=False)
@example(data=b"2 1\ra 1\rb 2\r", chosen={"b"}, recorded=True)
def test_pieces_load_as_the_whole_file_does(tmp_path, piece, data, chosen, recorded):
    p = tmp_path / "e.vec"
    p.write_bytes(data)
    sha256 = hashlib.sha256(data).hexdigest() if recorded else "0" * 64
    for trained in (None, TrainedFile(sha256, "pinned", chosen)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embeddings, "LinePieces", _WholeFile)
            want = _load_outcome(p, trained)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(errors, "_PIECE_BYTES", piece)
            assert _load_outcome(p, trained) == want
            if want[0] == "table":  # the pieces number their lines as one split does
                pieces = list(LinePieces(p))
                assert [(n, ln) for first, lines in pieces for n, ln in enumerate(lines, first)] \
                    == list(enumerate(split_lines(data.decode()), 1))


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_partial_load_of_a_large_table_stays_small(tmp_path, end):
    rows = [f"w{i} " + " ".join(f"{(i * 7 + j) % 997 / 991:.15f}" for j in range(16))
            for i in range(10_000)]
    p = tmp_path / "big.vec"
    p.write_bytes(f"{len(rows)} 16{end}{end.join(rows)}{end}".encode())
    assert p.stat().st_size > 2_000_000
    trained = TrainedFile(hashlib.sha256(p.read_bytes()).hexdigest(), "pinned", {"w7", "w9999"})
    tracemalloc.start()
    try:
        table = load_embedding_table(p, "en", _trained=trained)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(table.entries) == ["w7", "w9999"]
    whole = load_embedding_table(p, "en")
    assert table.entries["w9999"].tobytes() == whole.entries["w9999"].tobytes()
    assert peak < 1_000_000


def test_loaded_rows_are_read_only(tmp_path):
    p = tmp_path / "e.vec"
    p.write_text("2 2\na 1 2\nb 3 4\n")
    table = load_embedding_table(p, "en")
    with pytest.raises(ValueError):
        table.entries["a"][0] = 9.0
    assert table.entries["b"].tolist() == [3.0, 4.0]


# Four languages, more than there are CPUs in any case below; ja holds a
# duplicate word.
_LANGS = ("en", "es", "ja", "zh")


def _vec_files(tmp_path) -> dict[str, str]:
    paths = {}
    for k, lang in enumerate(_LANGS):
        rows = [f"w{i} {i + k}.5 -{i}e-3" for i in range(5)] + (["w1 7 8"] if lang == "ja" else [])
        paths[lang] = str(tmp_path / f"{lang}.vec")
        (tmp_path / f"{lang}.vec").write_text(f"{len(rows)} 2\n" + "\n".join(rows) + "\n")
    return paths


def _no_fork():
    raise AssertionError("the tables load in this process")


def _context(monkeypatch, cpus: int, paths: dict[str, str], trained=None) -> EmbeddingContext:
    """from_paths while the OS reports cpus usable CPUs; a fork fails the test."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "fork", _no_fork)
    return EmbeddingContext.from_paths(paths, {}, oov_seed=0, oov_scale=None, max_len=1,
                                       rules_version="-", trained=trained)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_tables_load_alike_whatever_the_cpu_count(monkeypatch, tmp_path, cpus):
    paths = _vec_files(tmp_path)
    # zh is a recorded file: two of its rows parsed, the recorded fingerprint kept
    recorded = load_embedding_table(paths["zh"], "zh")
    trained = {"zh": TrainedFile(recorded.sha256, "pinned", {"w0", "w3"})}
    expected = _context(monkeypatch, 1, paths, trained).tables
    with no_worker_left():
        tables = _context(monkeypatch, cpus, paths, trained).tables
    assert list(tables) == list(_LANGS)
    assert tables["ja"].duplicate_count == 1 and sorted(tables["zh"].entries) == ["w0", "w3"]
    for lang, table in tables.items():
        want = expected[lang]
        assert (table.lang, table.dim, table.duplicate_count, table.sha256, table.fingerprint()) \
            == (want.lang, want.dim, want.duplicate_count, want.sha256, want.fingerprint())
        assert list(table.entries) == list(want.entries)
        first = next(iter(table.entries.values()))
        for word, row in table.entries.items():
            assert row.tobytes() == want.entries[word].tobytes()
            assert not row.flags.writeable
            assert row.base is first.base is not None
    assert tables["zh"].fingerprint() == "pinned"


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("bad", [1, 2])
@pytest.mark.parametrize("fault", ["malformed", "missing"])
def test_first_failing_table_raises_as_on_one_cpu(monkeypatch, tmp_path, cpus, bad, fault):
    # every language loads in this process at every CPU count; zh, which
    # fails too, comes after the failing one
    paths = _vec_files(tmp_path)
    lang = _LANGS[bad]
    if fault == "missing":
        paths[lang] = str(tmp_path / "absent.vec")
    else:
        (tmp_path / f"{lang}.vec").write_text("2 2\nw0 1 2\nw1 1 x\n")
    (tmp_path / "zh.vec").write_text("1 2\nw0 1\n")
    kind = OSError if fault == "missing" else ParseError
    with pytest.raises(kind) as one:
        _context(monkeypatch, 1, paths)
    with no_worker_left(), pytest.raises(kind) as many:
        _context(monkeypatch, cpus, paths)
    assert type(many.value) is type(one.value)
    assert str(many.value) == str(one.value)
    assert vars(many.value) == vars(one.value)
    if fault == "missing":
        assert (many.value.errno, many.value.filename) == (one.value.errno, paths[lang])
    else:
        assert many.value.line == 3


def test_frequency_counts_sidecar(tmp_path):
    p = tmp_path / "freq.tsv"
    p.write_text("# header comment\nthe\t100\ncat\t7\n")
    assert load_frequency_counts(p) == {"the": 100, "cat": 7}


# -- OOV policy ------------------------------------------------------------

def test_default_scale():
    assert default_oov_scale(100) == pytest.approx(0.005)


def test_in_vocabulary_rows_exact():
    table = seeded_table("en", ["a", "b"], dim=3)
    X = _embed(_tw(["b", "a"]), table, oov_seed=0)
    assert np.array_equal(X[0], table.entries["b"])
    assert np.array_equal(X[1], table.entries["a"])


def test_same_oov_token_identical_rows():
    table = seeded_table("en", ["a"], dim=3)
    X = _embed(_tw(["mystery", "a", "mystery"]), table, oov_seed=5)
    assert np.array_equal(X[0], X[2])
    assert not np.array_equal(X[0], X[1])


def test_oov_reproducible_across_runs():
    t1 = seeded_table("en", ["a"], dim=4)
    t2 = seeded_table("en", ["a"], dim=4)
    x1 = _embed(_tw(["ghost"]), t1, oov_seed=9)
    x2 = _embed(_tw(["ghost"]), t2, oov_seed=9)
    assert np.array_equal(x1, x2)


def test_oov_depends_on_seed_lang_token():
    base = oov_vector(0, "en", "word", 4, 0.01)
    assert not np.array_equal(base, oov_vector(1, "en", "word", 4, 0.01))
    assert not np.array_equal(base, oov_vector(0, "ja", "word", 4, 0.01))
    assert not np.array_equal(base, oov_vector(0, "en", "down", 4, 0.01))


def test_oov_respects_scale_bounds():
    v = oov_vector(3, "en", "tok", 200, 0.01)
    assert np.all(np.abs(v) <= 0.01)
    # the scale reaches the vector under the same seed
    table = seeded_table("en", [], dim=4)
    a = table.lookup("tok", oov_seed=0, oov_scale=0.5)
    b = table.lookup("tok", oov_seed=0, oov_scale=0.005)
    assert np.max(np.abs(b)) <= 0.005 < np.max(np.abs(a))


def test_lang_mismatch_rejected():
    table = seeded_table("ja", ["a"], dim=3)
    with pytest.raises(ArgumentError):
        EmbeddingContext(tables={"en": table}).embed(_tw(["a"], lang="en"))


# -- counts and ranks ------------------------------------------------------

def test_count_tokens_respects_lang_filter():
    tweets = [_tw(["x", "y", "x"]), _tw(["x"], lang="ja")]
    assert count_tokens(tweets) == {"x": 3, "y": 1}
    assert count_tokens(tweets, lang="ja") == {"x": 1}


def test_ranks_most_frequent_first_ties_lexicographic():
    ranks = ranks_from_counts({"b": 5, "a": 5, "c": 9})
    assert ranks == {"c": 1, "a": 2, "b": 3}


# -- dim uniformity --------------------------------------------------------

def test_dim_uniformity():
    tables = {
        "en": seeded_table("en", ["a"], dim=4),
        "ja": seeded_table("ja", ["b"], dim=4),
    }
    assert check_dim_uniformity(tables.values()) == 4
    tables["zh"] = seeded_table("zh", ["c"], dim=5)
    with pytest.raises(ConfigurationError):
        check_dim_uniformity(tables.values())


def test_table_fingerprint_tracks_content():
    a = seeded_table("en", ["a", "b"], dim=3, seed=0)
    b = seeded_table("en", ["a", "b"], dim=3, seed=0)
    c = seeded_table("en", ["a", "b"], dim=3, seed=1)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()


# -- mapping rows into the shared space ------------------------------------

@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_map_rows_keeps_each_rows_bytes(data):
    # One stacked product per mapped language, against one vector-matrix
    # product per row, byte for byte; unmapped languages' rows stay as given.
    dim = data.draw(st.integers(1, 64), label="dim")
    mapped = data.draw(st.sets(st.sampled_from(["en", "ja", "zh"]), max_size=3), label="mapped")
    langs = data.draw(st.lists(st.sampled_from(["en", "ja", "zh"]), max_size=200), label="langs")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    ctx = EmbeddingContext(
        tables={lang: seeded_table(lang, ["w"], dim) for lang in ("en", "ja", "zh")},
        translations={lang: TranslationMatrix(lang, "en", rng.normal(size=(dim, dim)))
                      for lang in sorted(mapped)},
    )
    keys = [(lang, f"w{k}") for k, lang in enumerate(langs)]
    given_rows = rng.normal(size=(len(keys), dim))
    rows = given_rows.copy()
    ctx.map_rows(keys, rows)
    for k, (lang, _token) in enumerate(keys):
        tm = ctx.translations.get(lang)
        want = given_rows[k] if tm is None else given_rows[k] @ tm.W
        assert rows[k].tobytes() == want.tobytes(), (k, lang)
