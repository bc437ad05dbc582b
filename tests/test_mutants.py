"""The pipeline and the interpreter on 600 seeded one-line mutants of the
corpus (a line deleted, duplicated, or swapped with the next): a run never
raises, each mutant ends as a file result or as an error entry, and the
interpreter gives every mutant that parses a status. Each mutant's report is
held to a pinned digest. Of the validation verdicts only one is asserted: a
mutant with no patch (an empty diff) validates, since there is nothing to
blame."""

import re

import pytest

from helpers import corpus_mutants, moved_reports, report_digest
from leakward.errors import FILE_ERRORS, NoSingleMain
from leakward.interp import COMPLETED, STEP_LIMIT_EXCEEDED, has_main, run
from leakward.parser import parse
from leakward.pipeline import run_pipeline

MUTANTS = corpus_mutants()


def test_the_pipeline_ends_every_mutant_as_a_result_or_an_error(libspec):
    digests = {}
    for name, text in MUTANTS:
        report = run_pipeline([(name, text)], libspec)
        errors = [e for e in report.errors if e.startswith(f"{name}: ")]
        assert (name in report.files) != bool(errors), name
        assert report.exit_code in (0, 2, 3, 4), name
        assert all(fr.verdict.ok for fr in report.files.values() if not fr.diff), name
        digests[name] = report_digest(report)  # a name drawn twice is the same text
    assert moved_reports("mutants", digests) == []


def test_the_interpreter_gives_every_parsing_mutant_a_status(libspec):
    parsed = 0
    for name, text in MUTANTS:
        try:
            program = parse(text, name)
        except FILE_ERRORS:
            continue
        parsed += 1
        if not has_main(program):
            with pytest.raises(NoSingleMain):
                run(program, libspec)
            continue
        status = run(program, libspec).status
        assert status in (COMPLETED, STEP_LIMIT_EXCEEDED) or re.fullmatch(r"RuntimeError\(\w+\)", status), name
    assert parsed >= 100
