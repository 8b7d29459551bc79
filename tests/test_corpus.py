"""Corpus loading, label schema, and fold construction."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisent.corpus import (
    Polarity,
    TweetRecord,
    load_corpus,
    make_folds,
    parse_label,
    save_corpus,
    split_dev,
)
from multisent.errors import ArgumentError, ParseError, SchemaError


def test_label_codes_are_stable():
    assert int(Polarity.POSITIVE) == 0
    assert int(Polarity.NEUTRAL) == 1
    assert int(Polarity.NEGATIVE) == 2


@pytest.mark.parametrize("raw,expected", [
    ("positive", Polarity.POSITIVE),
    ("POS", Polarity.POSITIVE),
    ("Neutral", Polarity.NEUTRAL),
    ("neu", Polarity.NEUTRAL),
    ("negative", Polarity.NEGATIVE),
    ("NEG", Polarity.NEGATIVE),
    ("0", Polarity.POSITIVE),
    (2, Polarity.NEGATIVE),
])
def test_label_aliases(raw, expected):
    assert parse_label(raw) == expected


def test_unknown_label_names_line():
    with pytest.raises(SchemaError) as exc:
        parse_label("meh", line=17)
    assert exc.value.line == 17


def test_three_line_fixture_round_trip(tmp_path):
    lines = [
        {"id": "t1", "lang": "en", "text": "x", "label": "pos"},
        {"id": "t2", "lang": "ja", "text": "y", "label": "neu"},
        {"id": "t3", "lang": "zh", "text": "z", "label": "neg"},
    ]
    p = tmp_path / "c.jsonl"
    p.write_text("\n".join(json.dumps(o) for o in lines) + "\n", encoding="utf-8")
    records = load_corpus(p)
    assert [int(r.label) for r in records] == [0, 1, 2]
    out = tmp_path / "copy.jsonl"
    save_corpus(records, out)
    assert [r.id for r in load_corpus(out)] == ["t1", "t2", "t3"]


def test_invalid_json_names_line(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id": "a", "lang": "en", "text": "x", "label": 0}\nnot json\n')
    with pytest.raises(ParseError) as exc:
        load_corpus(p)
    assert exc.value.line == 2


def test_invalid_utf8_names_line(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_bytes(b'{"id": "a", "lang": "en", "text": "x", "label": 0}\r\n{"id":"\xff"}\n')
    with pytest.raises(ParseError) as exc:
        load_corpus(p)
    assert exc.value.line == 2
    assert "invalid UTF-8" in str(exc.value)


def test_raw_line_separators_inside_a_string_stay_in_the_record(tmp_path):
    p = tmp_path / "c.jsonl"
    text = "a\u2028b\x85c\x0cd"
    row = json.dumps({"id": "t1", "lang": "en", "text": text, "label": 0}, ensure_ascii=False)
    p.write_text(row + "\r\n" + row.replace("t1", "t2") + "\r", encoding="utf-8")
    records = load_corpus(p)
    assert [r.id for r in records] == ["t1", "t2"]
    assert all(r.text == text for r in records)


def test_line_numbers_count_every_line_end(tmp_path):
    p = tmp_path / "c.jsonl"
    row = '{"id": "a", "lang": "en", "text": "x", "label": 0}'
    p.write_text(row + "\r\n\r" + row + "\n" + "not json\r" + row, encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_corpus(p)
    assert exc.value.line == 4


def test_load_peak_memory_is_pinned(tmp_path):
    """One emoji makes the decoded text 4 bytes a character. The peak while
    loading measured 6.3x the file size (bytes, the text as it widens, then
    the text and the records); a second copy of the text took it to 8.0x."""
    p = tmp_path / "c.jsonl"
    save_corpus([TweetRecord(f"t{i}", "en", f"tweet {i} good {'' if i else chr(0x1F600)}"
                             + "word " * 20, Polarity(i % 3)) for i in range(2000)], p)
    tracemalloc.start()
    try:
        records = load_corpus(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 2000
    assert peak <= 7.0 * p.stat().st_size


def test_missing_field_names_line(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id": "a", "text": "x", "label": 0}\n')
    with pytest.raises(SchemaError) as exc:
        load_corpus(p)
    assert exc.value.line == 1 and "lang" in str(exc.value)


def test_empty_record_rejected():
    with pytest.raises(SchemaError):
        TweetRecord(id="x", lang="en", text="", label=Polarity.NEUTRAL)


def _records(n):
    return [
        TweetRecord(id=f"r{i}", lang="en", text="x", label=Polarity(i % 3))
        for i in range(n)
    ]


def test_fold_sizes_differ_by_at_most_one():
    plan = make_folds(_records(23), 5, seed=0)
    sizes = [len(plan.fold_ids(f)) for f in range(5)]
    assert sum(sizes) == 23
    assert max(sizes) - min(sizes) <= 1


def test_folds_partition_ids():
    records = _records(30)
    plan = make_folds(records, 10, seed=1)
    seen = [rid for f in range(10) for rid in plan.fold_ids(f)]
    assert sorted(seen) == sorted(r.id for r in records)


def test_stratified_label_balance():
    records = _records(30)  # 10 per class
    plan = make_folds(records, 5, seed=2)
    by_id = {r.id: r for r in records}
    for f in range(5):
        labels = [by_id[rid].label for rid in plan.fold_ids(f)]
        for lab in Polarity:
            assert labels.count(lab) == 2


def test_fold_determinism_and_seed_sensitivity():
    records = _records(24)
    a = make_folds(records, 4, seed=5)
    b = make_folds(records, 4, seed=5)
    c = make_folds(records, 4, seed=6)
    assert a.assignments == b.assignments
    assert a.assignments != c.assignments


def test_fold_argument_errors():
    records = _records(5)
    with pytest.raises(ArgumentError):
        make_folds(records, 0, seed=0)
    with pytest.raises(ArgumentError):
        make_folds(records, 6, seed=0)
    dup = records + [TweetRecord(id="r0", lang="en", text="x", label=Polarity.POSITIVE)]
    with pytest.raises(ArgumentError):
        make_folds(dup, 2, seed=0)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(6, 60), k=st.integers(2, 6), seed=st.integers(0, 99))
def test_fold_invariants_hold_generically(n, k, seed):
    records = _records(n)
    if k > n:
        return
    plan = make_folds(records, k, seed)
    sizes = [len(plan.fold_ids(f)) for f in range(k)]
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
    assert set(plan.assignments) == {r.id for r in records}


def test_split_dev_rounding_and_order():
    ids = [f"r{i}" for i in range(20)]
    train, dev = split_dev(ids, 0.1, seed=0)
    assert len(dev) == 2 and len(train) == 18
    assert train == [i for i in ids if i in set(train)]  # input order kept
    assert dev == [i for i in ids if i in set(dev)]
    assert sorted(train + dev) == sorted(ids)


def test_split_dev_half_up():
    ids = [f"r{i}" for i in range(15)]
    _, dev = split_dev(ids, 0.1, seed=0)  # 1.5 rounds half-up to 2
    assert len(dev) == 2


def test_split_dev_errors():
    ids = [f"r{i}" for i in range(5)]
    with pytest.raises(ArgumentError):
        split_dev([], 0.1, 0)
    with pytest.raises(ArgumentError):
        split_dev(ids, 0.1, 0)  # 0.5 of an example rounds below one
    with pytest.raises(ArgumentError):
        split_dev(ids, 0.95, 0)  # would leave no training data


def test_split_dev_deterministic():
    ids = [f"r{i}" for i in range(30)]
    assert split_dev(ids, 0.2, 4) == split_dev(ids, 0.2, 4)
    assert split_dev(ids, 0.2, 4) != split_dev(ids, 0.2, 5)
