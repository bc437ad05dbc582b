"""Metamorphic guards: rewrites that change no class a method reads change
no result. Reversing the class order and prepending an unrelated clean class
move every class in the file, and so exercise the reads of other classes'
shapes (field types and modifiers, member signatures and their ownership
annotations) that lowering and the checker make, and the memo keys on."""

import pytest

from leakward import syntax as sx
from leakward.fuzz import fuzz_libspec, generate_source
from leakward.parser import parse
from leakward.pipeline import run_pipeline
from leakward.printer import pretty_print

UNRELATED = "class Unrelated {\n  void touch() {\n  }\n}\n"


def _reversed(program: sx.Program) -> str:
    program.classes.reverse()
    return pretty_print(program)


def _prepended(program: sx.Program) -> str:
    return UNRELATED + pretty_print(program)


def _outcome(name: str, text: str, libspec) -> dict:
    """A file's warning ids and kinds and their dispositions, in id order
    (warnings are listed by line)."""
    report = run_pipeline([(name, text)], libspec)
    assert report.errors == [], name
    fr = report.files[name]
    return {
        "original": sorted((w.id, w.kind) for w in fr.w_orig),
        "transformed": sorted((w.id, w.kind, fr.fix_status.get(w.id)) for w in fr.w_xform),
        "dispositions": report.dispositions_orig,
    }


@pytest.mark.parametrize("rewrite", [_reversed, _prepended], ids=["reversed-classes", "prepended-class"])
def test_a_rewrite_that_moves_classes_changes_no_warning_or_disposition(corpus_sources, libspec, rewrite):
    sources = [(name, text, libspec) for name, text in corpus_sources]
    sources += [(f"fuzz{seed}.mj", generate_source(seed), fuzz_libspec()) for seed in range(150)]
    for name, text, lib in sources:
        expected = _outcome(name, text, lib)
        assert _outcome(name, rewrite(parse(text, name)), lib) == expected, name
