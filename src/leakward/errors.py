"""Exception types shared across the toolchain."""

from __future__ import annotations


class SyntaxError(Exception):
    """Raised on the first malformed token or production. Carries a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class DuplicateName(Exception):
    """Repeated class or member name within one scope."""


class SpecFormatError(Exception):
    """Malformed .libspec text."""


class UnknownMethodInMustCall(Exception):
    """A must_call entry names a method absent from the class's method map."""


class AnnotationConflict(Exception):
    """A declared annotation contradicts an inferred one, or (`leakward infer`)
    a file's inferred specs for a class contradict an earlier file's."""


class StaleWarning(Exception):
    """A warning names no node of the program: no node has its id, or (a
    warning read back from JSON) no anchor matches its descriptor."""


class AmbiguousMapping(Exception):
    """A wrapper warning's owning-field chain reaches multiple distinct root warnings."""


class NoSingleMain(ValueError):
    """A program to interpret has no `static void main()`, or more than one."""


# A file that raises one of these is left out of a run, which goes on with the
# other files: it does not parse, lower or annotate, its specs conflict, or
# (`leakward run`) it has no single main to interpret.
FILE_ERRORS = (SyntaxError, DuplicateName, AnnotationConflict, NoSingleMain)
