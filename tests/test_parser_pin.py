"""The front end pinned: token streams, parses, positions and error messages
over a fixed input set, held to digests taken before the lexer was rewritten.

A failure names the group and stage whose digest moved. To see which input
moved, compare `_records(group, stage)` against a checkout that passes.
"""

import hashlib
import random

import pytest

from helpers import CORPUS, corpus_mutants
from leakward.errors import SyntaxError
from leakward.fuzz import generate_source
from leakward.parser import parse, tokenize

VOCABULARY = (
    "class", "implements", "new", "null", "if", "else", "while", "try", "catch", "finally", "return", "void",
    "private", "public", "static", "final", "A", "B", "x", "y_1", "_z", "close", "FileInputStream", "0", "42",
    "007", '"s"', '"a\\"b"', '"\\n\\t\\\\"', '"', "==", "!=", "{", "}", "(", ")", ";", ",", ".", "=", "@",
    "@MustCall", "@Owning", "@NotOwning", "@EnsuresCalledMethods", "value", "methods", "// c\n", "/* c */",
    "/* a\nb */", "/*", "*/", "\n", "\t", "\r\n", " ", "  ",
)  # fmt: skip


def _junk() -> list[tuple[str, str]]:
    """Seeded ASCII junk: random characters, random token soups, and one-character
    edits of generated programs, so that errors land in every production."""
    rng = random.Random(20241)
    chars = [chr(c) for c in range(32, 127)] + ["\n", "\t", "\r"]
    out = []
    for i in range(300):
        out.append((f"chars{i}.mj", "".join(rng.choice(chars) for _ in range(rng.randrange(60)))))
    for i in range(300):
        out.append((f"soup{i}.mj", " ".join(rng.choice(VOCABULARY) for _ in range(rng.randrange(40)))))
    for i in range(300):
        text = generate_source(rng.randrange(10_000))
        k = rng.randrange(len(text))
        edit = rng.choice(chars)
        text = text[:k] + edit + text[k + 1 :] if rng.random() < 0.5 else text[:k] + edit + text[k:]
        out.append((f"edit{i}.mj", text))
    return out


def _sources(group: str) -> list[tuple[str, str]]:
    if group == "corpus":
        return [(p.name, p.read_text()) for p in sorted(CORPUS.glob("*.mj"))]
    if group == "fuzz":
        return [(f"fuzz{seed}.mj", generate_source(seed)) for seed in range(600)]
    if group == "mutants":
        return corpus_mutants()
    return _junk()


def _token_record(text: str):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    except SyntaxError as e:
        return f"SyntaxError: {e}"


def _parse_record(name: str, text: str):
    """The parse's classes, and its positions keyed by nid relative to the
    program's own, in the order they were recorded; or the error."""
    try:
        program = parse(text, name)
    except Exception as e:
        return f"{type(e).__name__}: {e}"
    base = program.nid
    return repr(program.classes), [(nid - base, pos) for nid, pos in program.line_index.items()]


def _records(group: str, stage: str) -> list:
    if stage == "tokens":
        return [_token_record(text) for _name, text in _sources(group)]
    return [_parse_record(name, text) for name, text in _sources(group)]


PINNED = {
    ("corpus", "tokens"): "8b72dd97205e912429616e9086a9f72a",
    ("corpus", "parse"): "00bedeee42f74c9ad8e60fa12b1e49ee",
    ("fuzz", "tokens"): "0c42ea15d490931c493ff04cb485b76a",
    ("fuzz", "parse"): "86b03b144cc5cdbb8bb10edcb52e7cef",
    ("mutants", "tokens"): "eaaa766fb1bc0ae681601f90f74f1428",
    ("mutants", "parse"): "b8f255fea024684be2d8fb8d9a97b7ac",
    ("junk", "tokens"): "218751960cdbcc2d8e21a4a7f04911f9",
    ("junk", "parse"): "185ec2082565ddd642004c2ffd59b1cd",
}


@pytest.mark.parametrize("group, stage", list(PINNED), ids=[f"{g}-{s}" for g, s in PINNED])
def test_front_end_output_is_pinned(group, stage):
    digest = hashlib.blake2b(repr(_records(group, stage)).encode(), digest_size=16).hexdigest()
    assert digest == PINNED[group, stage]


def _tokens(text: str) -> list[tuple[str, str, int, int]]:
    return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]


def _error(text: str) -> str:
    with pytest.raises(SyntaxError) as info:
        tokenize(text)
    return str(info.value)


def test_a_multi_line_block_comment_sets_the_column_after_it():
    assert _tokens("a /* x\n  yy */ b\nc") == [
        ("ID", "a", 1, 1),
        ("ID", "b", 2, 9),
        ("ID", "c", 3, 1),
        ("EOF", "", 3, 2),
    ]
    assert _tokens("a/**/b") == [("ID", "a", 1, 1), ("ID", "b", 1, 6), ("EOF", "", 1, 7)]


def test_a_tab_and_a_carriage_return_count_one_column_each():
    assert _tokens("\ta\t\tb\r\nc \r d") == [
        ("ID", "a", 1, 2),
        ("ID", "b", 1, 5),
        ("ID", "c", 2, 1),
        ("ID", "d", 2, 5),
        ("EOF", "", 2, 6),
    ]


def test_string_escapes_and_the_column_after_them():
    assert _tokens('"a\\n\\t\\"\\\\\\q" x') == [("STRING", 'a\n\t"\\q', 1, 1), ("ID", "x", 1, 15), ("EOF", "", 1, 16)]


def test_a_newline_escaped_in_a_string_starts_a_line():
    assert _tokens('"a\\\nb" c\nd') == [
        ("STRING", "a\nb", 1, 1),
        ("ID", "c", 2, 4),
        ("ID", "d", 3, 1),
        ("EOF", "", 3, 2),
    ]


def test_a_line_comment_runs_to_the_end_of_its_line_or_the_file():
    # an EOF right after one takes the column after it, at the end of the line
    assert _tokens("a // b /* c\nd // e") == [("ID", "a", 1, 1), ("ID", "d", 2, 1), ("EOF", "", 2, 7)]
    with pytest.raises(SyntaxError, match="^1:28: expected 'ID', found 'EOF'$"):
        parse("class A { void m() { } // x", "a.mj")


def test_words_numbers_and_punctuation():
    assert _tokens("if x1 == 007 != _y;") == [
        ("KW", "if", 1, 1),
        ("ID", "x1", 1, 4),
        ("==", "==", 1, 7),
        ("INT", "007", 1, 10),
        ("!=", "!=", 1, 14),
        ("ID", "_y", 1, 17),
        (";", ";", 1, 19),
        ("EOF", "", 1, 20),
    ]
    assert _tokens("12ab") == [("INT", "12", 1, 1), ("ID", "ab", 1, 3), ("EOF", "", 1, 5)]


@pytest.mark.parametrize(
    "text, message",
    [
        ('x\n  "abc', "2:3: unterminated string"),
        ('x "ab\\', "1:3: unterminated string"),
        ('x\n "ab\ncd"', "2:2: newline in string literal"),
        ("x /* y\n z", "1:3: unterminated block comment"),
        ("a\n /* y */ #", "2:10: unexpected character '#'"),
        ("a ! b", "1:3: unexpected character '!'"),
    ],
)
def test_error_positions(text, message):
    assert _error(text) == message
