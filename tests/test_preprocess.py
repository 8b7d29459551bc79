"""Text normalization, tokenization, and record preprocessing."""

import re
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisent import preprocess
from multisent.corpus import Polarity, TweetRecord
from multisent.errors import ArgumentError, ConfigurationError, ParseError, RecordDropError
from multisent.preprocess import (
    EMOJI_RANGES,
    TOKENIZE_MODES,
    CasingPolicy,
    NormalizationRuleSet,
    default_rules,
    load_literal_file,
    load_mapping_table,
    load_pattern_file,
    mode_from_fingerprint,
    normalize,
    preprocess_corpus,
    preprocess_record,
    rules_version,
)

from conftest import no_worker_left

RULES = default_rules()


# -- normalize -------------------------------------------------------------

def test_emoji_replacement():
    assert normalize("I ❤ it", "en", RULES) == "i EMOJI_2764 it"


def test_empty_input_identity():
    assert normalize("", "en", RULES) == ""


def test_url_and_emoticon():
    assert normalize("see https://x.co :-)", "en", RULES) == "see URL EMOTICON"


def test_url_patterns():
    assert normalize("good http://a.b/c?d=1 stuff", "en", RULES) == "good URL stuff"
    # bare domains without a scheme are left alone
    assert normalize("visit example.com", "en", RULES) == "visit example.com"


@pytest.mark.parametrize("face", [":-)", ":)", ":(", ";-)", ":D", ":-D", ":'(",
                                  ":P", "=)", ":/", "<3", "^_^", "^^", "(=^o^=)"])
def test_emoticon_faces_collapse(face):
    out = normalize(f"wow {face} end", "en", RULES)
    assert out == "wow EMOTICON end"


def test_kaomoji_fullwidth():
    out = normalize("（＾ｏ＾）", "ja", RULES)
    assert out == "EMOTICON"


def test_times_and_ordinary_parens_survive():
    assert normalize("at 12:30 (noon)", "en", RULES) == "at 12:30 (noon)"
    assert normalize("x3000 items", "en", RULES) == "x3000 items"


def test_english_lowercased():
    assert normalize("GOOD Day", "en", RULES) == "good day"


def test_japanese_nfkc_width_folding():
    # fullwidth latin and halfwidth katakana fold to canonical forms
    assert normalize("ＡＢＣ", "ja", RULES) == "abc"
    assert normalize("ｶﾞ", "ja", RULES) == "ガ"


def test_chinese_traditional_to_simplified():
    assert normalize("說話", "zh", RULES) == "说话"
    assert normalize("這裡", "zh", RULES) == "这里"


def test_whitespace_collapses():
    assert normalize("a\t b\n\nc", "en", RULES) == "a b c"


def test_replacement_tokens_protected_from_later_stages():
    # the hex token EMOJI_1F98D contains "8D"; a second pass must not
    # rewrite it into an emoticon
    once = normalize("\U0001F98D", "en", RULES)
    assert once == "EMOJI_1F98D"
    assert normalize(once, "en", RULES) == once


@pytest.mark.parametrize("text,lang", [
    ("I ❤ it", "en"),
    ("see https://x.co :-)", "en"),
    ("WOW :-D \U0001F600 http://t.co/x", "en"),
    ("（＾ｏ＾）です", "ja"),
    ("說 :) 話", "zh"),
    ("plain words only", "en"),
])
def test_idempotence_on_fixtures(text, lang):
    once = normalize(text, lang, RULES)
    assert normalize(once, lang, RULES) == once


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=0x1F9FF), max_size=40),
       st.sampled_from(["en", "ja", "zh"]))
def test_idempotence_generically(text, lang):
    once = normalize(text, lang, RULES)
    assert normalize(once, lang, RULES) == once


# Pinned outputs: a change to any of these changes every model's input.
@pytest.mark.parametrize("text,lang,expected", [
    ("\U0001F468\u200d\U0001F469\u200d\U0001F467", "en",  # ZWJ family
     "EMOJI_1F468 EMOJI_1F469 EMOJI_1F467"),
    ("\U0001F1EF\U0001F1F5", "en", "EMOJI_1F1EF EMOJI_1F1F5"),  # flag pair
    ("\U0001F44D\U0001F3FD", "en", "EMOJI_1F44D EMOJI_1F3FD"),  # skin tone
    ("\u2764\ufe0f", "en", "EMOJI_2764"),  # VS16 dropped
    ("http://x.co/a\U0001F600", "en", "URL"),  # the URL stage runs first
    ("\U0001F600https://x.co", "en", "EMOJI_1F600 URL"),
    (":-)\U0001F600", "en", "EMOTICON EMOJI_1F600"),
    ("\U0001F600:-)", "en", "EMOJI_1F600 EMOTICON"),
    ("Good\U0001F600Day", "en", "good EMOJI_1F600 day"),
    ("keep EMOJI_1F600 as is", "en", "keep EMOJI_1F600 as is"),
    ("\u25ff\u2600\u27bf\u27c0", "en", "\u25ff EMOJI_2600 EMOJI_27BF \u27c0"),
    ("\U0001D400", "en", "\U0001D400"),
    ("\U0001D400", "ja", "a"),
])
def test_normalize_pinned_bytes(text, lang, expected):
    assert normalize(text, lang, RULES) == expected


def test_emoji_stage_over_every_codepoint():
    rx, repl = NormalizationRuleSet().stages[1]
    cps = [cp for cp in range(0x110000) if not 0xD800 <= cp <= 0xDFFF]
    out = rx.sub(repl, "".join(map(chr, cps)))
    emoji = {cp for lo, hi in EMOJI_RANGES for cp in range(lo, hi + 1)}
    expected = []
    for cp in cps:
        if cp in (0xFE0E, 0xFE0F, 0x200D):
            continue
        if cp in emoji:
            expected.append(f" EMOJI_{cp:X} ")
        else:
            expected.append(chr(cp))
    expected = "".join(expected)
    if out != expected:  # not an assert: a million-character diff is unreadable
        pairs = enumerate(zip(out, expected))
        first = next((i for i, (a, b) in pairs if a != b), min(len(out), len(expected)))
        pytest.fail(f"emoji stage differs from the range check at output index {first}")


# -- normalize against the split-every-stage loop --------------------------

def _oracle(text, lang, rules):
    """normalize as one guard split, substitution and join per stage, screens unused."""
    def outside(text, fn):
        pieces = rules.guard.split(text)
        for i in range(0, len(pieces), 2):
            pieces[i] = fn(pieces[i])
        return "".join(pieces)

    policy = rules.policy_for(lang)

    def apply_policy(seg):
        if policy is CasingPolicy.NFKC:
            seg = unicodedata.normalize("NFKC", seg)
        elif policy is CasingPolicy.TRAD2SIMP:
            seg = seg.translate(rules.trad2simp)
        return seg.lower()

    text = outside(text, apply_policy)
    for rx, repl in rules.stages:
        text = outside(text, lambda s: rx.sub(repl, s))
    return " ".join(text.split())


def _fullwidth(s):
    return "".join(chr(ord(ch) + 0xFEE0) if "!" <= ch <= "~" else ch for ch in s)


_FACES = [":-)", ":)", ":(", ";-)", ":D", ":-D", ":'(", ":P", "=)", ":/", "<3", "<333",
          "^_^", "^^", "(=^o^=)", "XD", "8-)", "(:", "D:", ":3", "12:30", "x3000"]
_HEX = "0123456789ABCDEFabcdef０１２３４５６７８９ＡＢＣＤＥＦ"
_fragment_parts = [
    st.sampled_from(["EMOJI_1F600", "EMOTICON", "URL", "EMOJI_", "emoji_1f600", "ＵＲＬ", "Emoticon"]),
    st.text(_HEX, max_size=6).map(lambda h: "EMOJI_" + h),
    st.sampled_from(["http", "https", "ftp", "HTTP", "ｈｔｔｐｓ", "ftp:/"]).flatmap(
        lambda scheme: st.text("ab/.?=:%&ＡＢ\U0001F600", max_size=8).map(lambda rest: scheme + "://" + rest)),
    st.sampled_from(["\U0001F468\u200d\U0001F469", "\u2764\ufe0f", "\U0001F44D\U0001F3FD",
                     "\U0001F1EF\U0001F1F5", "\u200d", "\ufe0e", "\ufe0f\u200d", "\u2600\ufe0e"]),
    # a dropped joiner between a token and a hex digit: removing it merges the two
    st.tuples(st.sampled_from(["EMOJI_1F600", "EMOTICON", "URL"]), st.sampled_from(["\u200d", "\ufe0f"]),
              st.sampled_from(["8-)", "8)", "1", "F:)", "x3"])).map("".join),
    st.sampled_from(["ſ", "K", "İ", "ı", "ß", "ⓚ", "Ⓚ", "說", "這", "ｶﾞ", "１２", " ", "\t", "\n"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
]


def _texts(faces):
    forms = st.sampled_from(faces).flatmap(
        lambda f: st.sampled_from([f, f.upper(), f.lower(), _fullwidth(f)]))
    return st.lists(st.one_of(forms, *_fragment_parts), max_size=12).map("".join)


def _assert_matches_oracle_and_screens(text, lang, rules):
    assert normalize(text, lang, rules) == _oracle(text, lang, rules)
    for s in (text, text.lower(), unicodedata.normalize("NFKC", text)):
        for (rx, repl), screen in zip(rules.stages, rules.screens):
            if screen is not None and screen.search(s) is None:
                assert rx.sub(repl, s) == s, (rx.pattern, screen.pattern, s)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_texts(_FACES + RULES.emoticon_literals), st.sampled_from(["en", "ja", "zh"]))
def test_normalize_equals_split_every_stage_loop(text, lang):
    assert len(RULES.screens) == len(RULES.stages)
    _assert_matches_oracle_and_screens(text, lang, RULES)


_literal = st.one_of(
    st.text("abcxyzOTLK_19ſİｏ", min_size=1, max_size=4),                  # bare words
    st.text("()^_-;:.\\/*oOxXﾟ▽（）ｏ＾ _ⓚⓀ", min_size=1, max_size=6),      # punctuation faces
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(_literal, max_size=5), st.data())
def test_normalize_equals_loop_under_random_literals(literals, data):
    rules = NormalizationRuleSet(emoticon_patterns=list(RULES.emoticon_patterns),
                                 emoticon_literals=literals, trad2simp=dict(RULES.trad2simp))
    text = data.draw(_texts(_FACES + (literals or ["orz"])))
    _assert_matches_oracle_and_screens(text, data.draw(st.sampled_from(["en", "ja", "zh"])), rules)


# Mapped and unmapped characters: ASCII (the class's own metacharacters
# too), CJK and astral ones.
_MAPPABLE = st.sampled_from("a]^-\\[.說這国\u00e9\U00020000\U0001F600\U0010FFFF")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.dictionaries(_MAPPABLE.map(ord), _MAPPABLE.map(ord)), st.data())
def test_simplify_maps_as_str_translate(mapping, data):
    text = data.draw(st.text(st.one_of(_MAPPABLE, st.characters(blacklist_categories=("Cs",)))))
    rules = NormalizationRuleSet(trad2simp=mapping)
    if mapping:
        mapped, simple = rules.simplify
        assert mapped.sub(simple, text) == text.translate(mapping)
    else:
        assert rules.simplify is None
    assert normalize(text, "zh", rules) == _oracle(text, "zh", rules)


@pytest.mark.parametrize("text,lang,expected", [
    # NFKC turns the full-width digits into hex digits of the token before them
    ("EMOJI_1F600１２", "ja", "EMOJI_1F60012"),
    # dropping the joiner merges "8" into the token, so "8-)" is no face
    ("EMOJI_1F600\u200d8-)", "en", "EMOJI_1F6008-)"),
])
def test_a_change_that_merges_into_a_token_is_split_again(text, lang, expected):
    assert normalize(text, lang, RULES) == _oracle(text, lang, RULES) == expected


def test_literal_screen_is_one_class_plus_bare_words():
    rules = NormalizationRuleSet(emoticon_literals=["m(_ _)m", "\\o/", "orz", "xD"])
    rx, _ = rules.stages[2]
    assert rules.screens[:2] == (re.compile("://"), None)
    assert rules.screens[2].pattern == r"[\(\\]|orz|xD"
    assert rules.screens[2].flags & re.IGNORECASE and rx.flags & re.IGNORECASE
    assert NormalizationRuleSet(emoticon_patterns=[":\\)"]).screens == (re.compile("://"), None, None)


_ALL_CHARS = "".join(chr(cp) for cp in range(0x110000) if not 0xD800 <= cp <= 0xDFFF)


# every non-word character of the packaged literals, and non-word characters with case variants
@pytest.mark.parametrize("ch", sorted({c for c in "".join(RULES.emoticon_literals)
                                       if not (c.isalnum() or c == "_")} | set("ⓚⓀⓢⓈⓘⒾ")))
def test_ignorecase_class_accepts_what_the_literal_accepts(ch):
    literal = re.compile(re.escape(ch), re.IGNORECASE)
    klass = re.compile(f"[{re.escape(ch)}]", re.IGNORECASE)
    assert literal.findall(_ALL_CHARS) == klass.findall(_ALL_CHARS)


def test_uncompilable_emoticon_pattern_names_its_position():
    with pytest.raises(ConfigurationError, match=r"emoticon pattern 2 '\(ab' does not compile"):
        NormalizationRuleSet(emoticon_patterns=[":\\)", "(ab"])
    with pytest.raises(ConfigurationError, match=re.escape("emoticon pattern 1 'a{4294967296}'")):
        NormalizationRuleSet(emoticon_patterns=["a{4294967296}"])


# -- preprocess_record / corpus -------------------------------------------

def _rec(text, rid="r1", lang="en", tokens=None):
    return TweetRecord(id=rid, lang=lang, text=text, label=Polarity.NEUTRAL, tokens=tokens)


def test_single_emoji_record():
    tw = preprocess_record(_rec("❤"), RULES, "whitespace")
    assert tw.tokens == ["EMOJI_2764"]
    assert tw.length == 1


def test_whitespace_only_record_dropped():
    with pytest.raises(RecordDropError) as exc:
        preprocess_record(_rec("   \t  ", rid="empty1"), RULES, "whitespace")
    assert exc.value.record_id == "empty1"


def test_three_record_fixture_lengths():
    records = [
        _rec("I ❤ it", rid="a"),
        _rec("see https://x.co :-)", rid="b"),
        _rec("GOOD day", rid="c"),
    ]
    tweets, dropped = preprocess_corpus(records, RULES, "whitespace")
    assert [tw.length for tw in tweets] == [3, 3, 2]
    assert dropped == []


def test_corpus_collects_drops():
    records = [_rec("fine here", rid="ok"), _rec("  ", rid="gone")]
    tweets, dropped = preprocess_corpus(records, RULES, "whitespace")
    assert [tw.id for tw in tweets] == ["ok"]
    assert dropped == ["gone"]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_corpus_result_ignores_the_cpu_count(monkeypatch, cpus):
    # 3 records to a share at 3 CPUs, 5 and 4 at 2: a drop in every share
    records = [_rec("  " if k in (1, 4, 7) else f"word{k} :-)", rid=f"r{k}") for k in range(9)]
    monkeypatch.setattr(preprocess, "usable_cpus", lambda: cpus)
    with no_worker_left():
        tweets, dropped = preprocess_corpus(records, RULES, "whitespace")
    assert dropped == ["r1", "r4", "r7"]
    assert tweets == [preprocess_record(records[k], RULES, "whitespace")
                      for k in (0, 2, 3, 5, 6, 8)]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_first_record_without_tokens_raises_whatever_the_cpu_count(monkeypatch, cpus):
    # r4 is in the second share at 2 and at 3 CPUs; r5 fails too, later
    records = [_rec("text", rid=f"r{k}", tokens=None if k in (4, 5) else ["tok"]) for k in range(6)]
    monkeypatch.setattr(preprocess, "usable_cpus", lambda: cpus)
    with no_worker_left(), pytest.raises(
            ConfigurationError, match="^record 'r4' has no tokens for pretokenized mode$"):
        preprocess_corpus(records, RULES, "pretokenized")


def test_pretokenized_requires_tokens():
    with pytest.raises(ConfigurationError):
        preprocess_record(_rec("text", tokens=None), RULES, "pretokenized")


def test_unknown_mode_rejected():
    with pytest.raises(ArgumentError, match="unknown tokenize mode 'characters'"):
        preprocess_record(_rec("text"), RULES, "characters")


def test_pretokenized_tokens_normalized_per_token():
    tw = preprocess_record(
        _rec("", rid="p1", lang="ja", tokens=["ＡＢ", "❤"]),
        RULES, "pretokenized",
    )
    assert tw.tokens == ["ab", "EMOJI_2764"]


def test_replacement_tokens_never_split():
    tweets, _ = preprocess_corpus(
        [_rec("a❤b :-) https://x.co", rid="m")], RULES, "whitespace"
    )
    toks = tweets[0].tokens
    assert "EMOJI_2764" in toks and "EMOTICON" in toks and "URL" in toks


# -- rule set plumbing -----------------------------------------------------

def test_pattern_file_format(tmp_path):
    p = tmp_path / "pat.txt"
    p.write_text("# comment\n:-?\\)\n\n;\\)\n", encoding="utf-8")
    assert load_pattern_file(p) == [":-?\\)", ";\\)"]


def test_literal_file_format(tmp_path):
    p = tmp_path / "lit.txt"
    p.write_text("# faces\nxD\no.O\n", encoding="utf-8")
    assert load_literal_file(p) == ["xD", "o.O"]


def test_mapping_table_format(tmp_path):
    p = tmp_path / "map.tsv"
    p.write_text("8AAA\t8BF4\t# comment\n", encoding="utf-8")
    assert load_mapping_table(p) == {0x8AAA: 0x8BF4}


@pytest.mark.parametrize("bad", ["zz\t4E00", "8AAA\t110000"])
def test_mapping_table_non_hex_names_line(tmp_path, bad):
    p = tmp_path / "map.tsv"
    p.write_text(f"# header\n8AAA\t8BF4\n{bad}\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_mapping_table(p)
    assert exc.value.line == 3


def test_mapping_table_single_field_names_line(tmp_path):
    p = tmp_path / "map.tsv"
    p.write_text("8AAA\t8BF4\n8AAA\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_mapping_table(p)
    assert exc.value.line == 2


def test_no_literals_means_no_literal_stage():
    rules = NormalizationRuleSet(emoticon_patterns=[":-?\\)", ";\\)"])
    assert [rx.pattern for rx, _ in rules.stages[2:]] == [":-?\\)", ";\\)"]
    assert len(NormalizationRuleSet(emoticon_literals=["xD"]).stages) == 3
    assert normalize("x :) ;)", "en", rules) == "x EMOTICON EMOTICON"


def test_rules_fingerprint_tracks_content():
    a = default_rules()
    b = default_rules()
    assert a.fingerprint() == b.fingerprint()
    c = NormalizationRuleSet(
        emoticon_patterns=list(a.emoticon_patterns),
        emoticon_literals=list(a.emoticon_literals) + ["=^.^="],
        trad2simp=dict(a.trad2simp),
    )
    assert c.fingerprint() != a.fingerprint()


def test_default_rules_fingerprint_is_pinned():
    # Every checkpoint records this value; predict refuses one whose rules differ.
    assert default_rules().fingerprint() == (
        "68d8927b67bc819f9bf8de1c856bf6b49cadfaea522360c7a40e5bf5f12c9a08"
    )


def test_rules_version_records_the_tokenize_mode():
    # A whitespace model records the plain hash, as before modes were recorded.
    plain = RULES.fingerprint()
    assert rules_version(RULES, "whitespace") == plain
    assert rules_version(RULES, "pretokenized") == f"{plain}:pretokenized"
    for mode in TOKENIZE_MODES:
        assert mode_from_fingerprint({"rules": rules_version(RULES, mode)}) == mode
    with pytest.raises(ParseError, match="lacks fingerprint 'rules'"):
        mode_from_fingerprint({"oov": "0:None"})


@pytest.mark.parametrize("suffix", [":", ":whitespace", ":bogus", ":pretokenized:x"])
def test_rules_fingerprint_with_an_unknown_mode_is_rejected(suffix):
    with pytest.raises(ParseError, match="fingerprint 'rules' must read HASH or HASH:MODE"):
        mode_from_fingerprint({"rules": RULES.fingerprint() + suffix})
