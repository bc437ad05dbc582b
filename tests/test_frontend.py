"""Parsing, pretty-printing, and library-spec loading."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakward import syntax as sx
from leakward.cli import main
from leakward.errors import FILE_ERRORS, DuplicateName, SpecFormatError, SyntaxError, UnknownMethodInMustCall
from leakward.fuzz import generate_source
from leakward.libspec import load_library_spec
from leakward.parser import MAX_NESTING, Parser, nesting, parse, tokenize
from leakward.pipeline import run_pipeline
from leakward.printer import pretty_print

WRITER_SRC = """class MyWriter {
  private PrintWriter pw;

  MyWriter(String path) {
    pw = new PrintWriter(path);
  }
  void close() {
    pw.close();
  }
}
class Client {
  static void use() {
    MyWriter writer = new MyWriter("f.txt");
  }
  static void main() {
    Client.use();
  }
}
"""


def test_parse_writer_shape():
    p = parse(WRITER_SRC, "writer_wrapper.mj")
    assert [c.name for c in p.classes] == ["MyWriter", "Client"]
    writer = p.classes[0]
    assert writer.fields[0].name == "pw"
    assert writer.fields[0].declared_type == "PrintWriter"
    assert len(writer.constructors) == 1
    assert writer.method_named("close") is not None


def test_parse_empty_input():
    assert parse("").classes == []


def test_round_trip_writer():
    p = parse(WRITER_SRC)
    assert parse(pretty_print(p)) == p


def test_positions_total_and_alloc_sites_in_parse_order():
    p = parse(WRITER_SRC, "writer_wrapper.mj")
    news = [e for c in p.classes for m in c.all_methods() for e in sx.walk_exprs(m.body) if isinstance(e, sx.New)]
    assert [n.site for n in news] == [1, 2]
    for c in p.classes:
        for m in c.all_methods():
            for node in list(sx.walk_stmts(m.body)) + list(sx.walk_exprs(m.body)):
                assert p.pos_of(node.nid) != (0, 0)
    line, col = p.pos_of(news[0].nid)
    assert line == 5


def test_annotations_round_trip():
    src = (
        '@MustCall("close")\n'
        "class W {\n"
        "  @Owning private PrintWriter pw;\n"
        "  W(@Owning PrintWriter given) {\n"
        "    pw = given;\n"
        "  }\n"
        '  @EnsuresCalledMethods(value="pw", methods="close")\n'
        "  void close() {\n"
        "    pw.close();\n"
        "  }\n"
        "}\n"
    )
    p = parse(src)
    assert pretty_print(p) == src
    ann = sx.annotation_named(p.classes[0].annotations, sx.MUST_CALL)
    assert ann.methods == ("close",)


def test_comments_and_blank_lines_ignored():
    src = "// leading\nclass A {\n\n  /* block\n     comment */\n  void m() {\n  }\n}\n"
    p = parse(src)
    assert p.classes[0].method_named("m") is not None


@pytest.mark.parametrize(
    "bad, exc",
    [
        ("class A { class", SyntaxError),
        ("class A { void m() { x = ; } }", SyntaxError),
        ("class A {} class A {}", DuplicateName),
        ("class A { int x; int x; }", DuplicateName),
        ("class A { void m() {} void m() {} }", DuplicateName),
        ("class A { A() {} A() {} }", DuplicateName),
        ("class A { void m(int a, int a) {} }", DuplicateName),
        ("class A { void m() { return 1; } }", SyntaxError),
        ('class A { @Owning class B {} }', SyntaxError),
        ("class A { void m() { try { } } }", SyntaxError),
    ],
)
def test_parse_errors(bad, exc):
    with pytest.raises(exc):
        parse(bad)


def test_syntax_error_carries_position():
    try:
        parse("class A {\n  void m() { x = ; }\n}")
    except SyntaxError as e:
        assert e.line == 2 and e.col > 0
    else:  # pragma: no cover
        raise AssertionError("expected a syntax error")


def test_equality_only_in_conditions():
    with pytest.raises(SyntaxError):
        parse("class A { void m() { PrintWriter x = a == b; } }")
    p = parse("class A { void m(String c) { if (c == null) { return; } } }")
    cond = p.classes[0].methods[0].body.stmts[0].cond
    assert isinstance(cond, sx.Eq) and not cond.negated


def test_pretty_print_empty_program():
    assert pretty_print(parse("")) == "\n"


def test_pretty_print_deterministic():
    p = parse(WRITER_SRC)
    assert pretty_print(p) == pretty_print(p)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_fuzzer_round_trip_fixed_point(seed):
    src = generate_source(seed)
    p1 = parse(src, "fuzz.mj")
    printed = pretty_print(p1)
    p2 = parse(printed, "fuzz.mj")
    assert p2 == p1
    assert pretty_print(p2) == printed


def test_site_ids_stable_across_round_trip():
    src = generate_source(7)
    p1 = parse(src, "a.mj")
    p2 = parse(pretty_print(p1), "a.mj")
    sites1 = [e.site for c in p1.classes for m in c.all_methods() for e in sx.walk_exprs(m.body) if isinstance(e, sx.New)]
    sites2 = [e.site for c in p2.classes for m in c.all_methods() for e in sx.walk_exprs(m.body) if isinstance(e, sx.New)]
    assert sites1 == sites2


# --- library specs ---


def test_load_library_spec_basic():
    spec = load_library_spec("resource PrintStream { must_call: [close]; method PrintStream(notowning) -> void; method close() -> void; }")
    assert spec.must_call("PrintStream") == frozenset({"close"})
    assert spec.must_call("Unknown") == frozenset()


def test_load_library_spec_empty():
    spec = load_library_spec("")
    assert spec.must_call("Anything") == frozenset()


def test_libspec_rejects_unknown_mustcall_method():
    with pytest.raises(UnknownMethodInMustCall):
        load_library_spec("resource S { must_call: [close]; }")


@pytest.mark.parametrize(
    "bad",
    [
        "resource { }",
        "resource S { must_call [close]; }",
        "resource S { method m(sideways) -> void; method m() -> void; }",
        "resource S { must_call: [a]; method a() -> maybe; }",
        "resource S { } resource S { }",
    ],
)
def test_libspec_format_errors(bad):
    with pytest.raises(SpecFormatError):
        load_library_spec(bad)


def test_corpus_round_trip(corpus_sources):
    for name, text in corpus_sources:
        p = parse(text, name)
        assert parse(pretty_print(p), name) == p, name


# --- nesting bound ---


def _nested_ifs(levels: int) -> str:
    """`levels` ifs inside main's body; the innermost statement's expression
    is one level more, so the program nests levels + 2 deep."""
    opens = "if (x == null) {\n" * levels
    return f"class A {{\n static void main() {{\n FileInputStream x = null;\n{opens}x = null;\n{'}' * levels}\n}}\n}}\n"


def _nested_boxes(levels: int) -> str:
    """A `new Box(...)` chain `levels` deep as a local's initializer: levels + 2 deep."""
    chain = "new Box(" * levels + "null" + ")" * levels
    return f"class Box {{\n Box(Box b) {{\n }}\n static void main() {{\n Box b = {chain};\n }}\n}}\n"


def test_nesting_past_the_limit_fails_that_file_alone(tmp_path, corpus_dir):
    sources = [("ifs.mj", _nested_ifs(150)), ("boxes.mj", _nested_boxes(200)), ("ok.mj", _nested_ifs(2))]
    report = run_pipeline(sources, load_library_spec((corpus_dir / "minij.libspec").read_text()))
    assert [e.split(":")[:2] for e in report.errors] == [["boxes.mj", " SyntaxError"], ["ifs.mj", " SyntaxError"]]
    assert list(report.files) == ["ok.mj"] and report.exit_code == 4
    for name, text in sources[:2]:
        (tmp_path / name).write_text(text)
        assert main(["check", str(tmp_path / name), "--libspec", str(corpus_dir / "minij.libspec")]) == 4


@pytest.mark.parametrize("program", [_nested_ifs, _nested_boxes])
def test_a_program_at_the_nesting_limit_goes_through_the_pipeline(program, corpus_dir):
    at_limit = program(MAX_NESTING - 2)
    with pytest.raises(SyntaxError):
        parse(program(MAX_NESTING - 1))
    report = run_pipeline([("deep.mj", at_limit)], load_library_spec((corpus_dir / "minij.libspec").read_text()))
    assert report.errors == [] and list(report.files) == ["deep.mj"]


def test_no_corpus_or_fuzz_program_reaches_the_nesting_limit(corpus_sources):
    for name, text in corpus_sources + [(f"fuzz{seed}.mj", generate_source(seed)) for seed in range(600)]:
        parse(text, name)  # raises SyntaxError at the limit



CHAINS = """class A {
  A a;
  A b(A x, A y) {
    return x;
  }
  A f = new A().b(a.a.b(null, new A().a), a).a;
  void m(A p) {
    p.b(p.a.b(p, p.b(p, new A().a.a)), p).a.a.b(p, p);
    while (p.a.a != null) {
      try {
        p.a = p.b(p.a.a, null).b(p, p);
      } catch (Exception e) {
        A q = new A().b(new A(), p.a);
      } finally {
        if (p != null) {
        }
      }
    }
  }
}
"""


class _DepthRecordingParser(Parser):
    deepest = 0

    def nest(self, tok):
        super().nest(tok)
        self.deepest = max(self.deepest, self.depth)


def test_nesting_counts_the_levels_the_parser_opens(corpus_sources):
    sources = corpus_sources + [(f"fuzz{seed}.mj", generate_source(seed)) for seed in range(200)]
    sources += [("chains.mj", CHAINS), ("ifs.mj", _nested_ifs(MAX_NESTING - 2)), ("boxes.mj", _nested_boxes(30))]
    for name, text in sources:
        parser = _DepthRecordingParser(text, name)
        program = parser.parse_program()
        counted = [nesting(m.body) for c in program.classes for m in c.all_methods()]
        counted += [nesting(f.initializer) for c in program.classes for f in c.fields if f.initializer is not None]
        assert max(counted, default=0) == parser.deepest, name


# --- lexical rules ---


def _main_with(line: str) -> str:
    return f"class A {{\n  static void main() {{\n    {line}\n  }}\n}}\n"


@pytest.fixture
def int_digit_limit():
    """Python's default limit on the digits `int()` converts, for this test."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize(
    "literal, message",
    [
        ("\u00b2", "3:13: unexpected character '\u00b2'"),  # superscript two: a digit, not a decimal
        ("1\u0663", "3:14: unexpected character '\u0663'"),  # Arabic-Indic three: a decimal, not ASCII
        ("\u00bd", "3:13: unexpected character '\u00bd'"),  # one half: a numeral
    ],
)
def test_only_ascii_digits_make_an_int(literal, message):
    with pytest.raises(SyntaxError) as info:
        parse(_main_with(f"int x = {literal};"))
    assert str(info.value) == message


def test_identifiers_keep_their_unicode_letters_and_digits():
    assert [(t.kind, t.text) for t in tokenize("\u00e9t\u00e9 x\u00b2 _\u0663 \u03bb1")] == [
        ("ID", "\u00e9t\u00e9"),
        ("ID", "x\u00b2"),
        ("ID", "_\u0663"),
        ("ID", "\u03bb1"),
        ("EOF", ""),
    ]


def test_an_int_too_long_to_convert_is_a_syntax_error_at_the_literal(int_digit_limit):
    parse(_main_with(f"int x = {'9' * int_digit_limit};"))
    with pytest.raises(SyntaxError) as info:
        parse(_main_with(f"int x = {'9' * (int_digit_limit + 1)};"))
    assert str(info.value) == "3:13: integer literal of 4301 digits is too long"


@pytest.mark.parametrize("literal", ["\u00b2", "1\u0663", "9" * 4301], ids=["superscript", "arabic-indic", "long"])
def test_a_bad_integer_literal_fails_its_file_alone(literal, libspec, int_digit_limit, tmp_path, corpus_dir):
    good, bad = ("ok.mj", WRITER_SRC), ("bad.mj", _main_with(f"int x = {literal};"))
    report = run_pipeline([good, bad], libspec)
    assert [e.split(":")[:2] for e in report.errors] == [["bad.mj", " SyntaxError"]]
    assert report.to_json()["files"] == run_pipeline([good], libspec).to_json()["files"]
    for name, text in (good, bad):
        (tmp_path / name).write_text(text)
    paths = [str(tmp_path / name) for name in ("ok.mj", "bad.mj")]
    assert main(["check", *paths, "--libspec", str(corpus_dir / "minij.libspec")]) == 4


# one-character edits: ASCII, and non-ASCII letters, digits, numerals and blanks
EDIT_CHARS = [chr(c) for c in range(32, 127)] + list(
    "\n\t\r\u00e9\u03bb\u00b2\u2460\u00bd\u0663\u096d\u216b\u00a0\u2028\u20ac"
)


def test_a_corrupted_program_fails_with_a_file_error_or_not_at_all():
    rng = random.Random(3)
    programs = [generate_source(seed) for seed in range(200)]
    failures = 0
    for _ in range(4000):
        text = rng.choice(programs)
        k = rng.randrange(len(text))
        c = rng.choice(EDIT_CHARS)
        text = rng.choice((text[:k] + c + text[k:], text[:k] + c + text[k + 1 :], text[:k] + text[k + 1 :]))
        try:
            parse(text, "corrupt.mj")
        except FILE_ERRORS:
            failures += 1
    assert failures > 1000


def test_each_parse_tokenizes_once_through_the_module_global(monkeypatch, corpus_sources, libspec):
    """What perfbench's `parser.tokens` counter counts: one `parser.tokenize`
    call per parse, with one token per lexeme and one EOF. A pipeline run
    parses its file, and validation, which runs only when the file has a
    patch (13 of the 22), parses the patched file again."""
    lengths, parses = [], []
    parse_program = Parser.parse_program

    def counted(source):
        toks = tokenize(source)
        assert [t.kind for t in toks].count("EOF") == 1 and toks[-1].kind == "EOF"
        lengths.append(len(toks))
        return toks

    def counted_parse(self):
        parses.append(self)
        return parse_program(self)

    monkeypatch.setattr("leakward.parser.tokenize", counted)
    monkeypatch.setattr(Parser, "parse_program", counted_parse)
    for name, text in corpus_sources:
        parse(text, name)
    assert len(lengths) == len(parses) == 22 and sum(lengths) == 1460
    for name, text in corpus_sources:
        run_pipeline([(name, text)], libspec)
    assert len(lengths) == len(parses) == 22 + 22 + 13 and sum(lengths) == 1460 + 2925
