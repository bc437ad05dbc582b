"""A memo of CFGs and checker runs for one program family.

Every module gets a method's CFG, and runs the checker on a method, through
a `ProgramVersion(program, libspec)`: `ProgramVersion.cfg` is the one caller
of `cfg.lower`, and `checker.method_run` the one checker entry point below
`check_program`. A version is valid only while its program is unedited.

Who takes a version, and when: each entry point (`check_program`,
`infer_specs`, `reject_final_writes`, `EscapeAnalyzer`, the transforms,
`validate_patch`, the pipeline's stages) accepts a program or a version and
reads it through `version_of`. A bare program gets a fresh version per call,
so an edit between two calls is seen. The pipeline takes one version per
program state and hands it from stage to stage, so each state is hashed
once: a stage that edits (a transform, `write_specs`, a fix round that
applied a plan) hands back a new version, or the one it was given when it
edited nothing, and a deep copy of a program gets its original's key
(`ProgramVersion.copied`).

The memo holds one program family's entries under one library spec. A
family is the copies of one parse: they share `Program.nid`, which
`Program.__deepcopy__` keeps and a reparse renews. A lookup on another
family, or under another libspec object, replaces the table.

A version's key is a blake2b digest of the pickled program, taken at the
version's first lookup, which covers every AST field: nids, annotations with
their provenance, `line_index` and `source_name`. Equal digests therefore
mean equal inputs, so an in-place edit is seen and no result depends on
when the table is replaced. The table holds two kinds of entries:

  (digest, class, member key) -> Cfg. A hit is a shallow copy of the stored
      Cfg, rebound to the caller's program, class and method. It shares the
      graph facts kept with the stored Cfg: its adjacency index and reverse
      postorder, built at lowering, and its liveness, solved at the first
      `Cfg.live_in` on the stored Cfg or any hit.
  (digest, class, member key, spec key) -> a checker run's result. The spec
      key is `SpecSet.to_json()`: must-call sets, field ownership and
      ensures, without provenance, which the checker does not read.

A miss calls the module-level `cfg.lower`, and the first `Cfg.live_in` of a
lowering calls the module-level `cfg.liveness`, so counts of those calls
count real work: liveness runs at most once per lowering.
"""

from __future__ import annotations

import copy
import hashlib
import json
import pickle
from functools import cached_property
from typing import Callable, TypeVar, Union

from . import cfg as C
from . import syntax as sx
from .libspec import LibrarySpec
from .specs import SpecSet

T = TypeVar("T")

# (family nid, libspec, entries) of the family analysed last
_family: tuple[int, LibrarySpec, dict[tuple, object]] = (0, LibrarySpec(), {})


def digest(program: sx.Program) -> bytes:
    return hashlib.blake2b(pickle.dumps(program, pickle.HIGHEST_PROTOCOL)).digest()


class ProgramVersion:
    """A program as it is now, analysed under one library spec: the key of
    its entries in its family's table."""

    def __init__(self, program: sx.Program, libspec: LibrarySpec):
        self.program = program
        self.libspec = libspec

    @cached_property
    def _key(self) -> bytes:
        """Taken at the first lookup; the program is unedited since the version was taken."""
        return digest(self.program)

    def edited(self) -> "ProgramVersion":
        """A new version of this version's program, after an edit to it."""
        return ProgramVersion(self.program, self.libspec)

    def copied(self, program: sx.Program) -> "ProgramVersion":
        """A version of `program`, a deep copy of this version's program.
        `Program.__deepcopy__` is a pickle round trip of exactly the state
        the key hashes, so the copy has this version's key (taken now if it
        was not yet)."""
        twin = ProgramVersion(program, self.libspec)
        twin._key = self._key
        return twin

    def _entries(self) -> dict[tuple, object]:
        """Its family's table, which replaces another family's."""
        global _family
        nid, libspec, entries = _family
        if nid != self.program.nid or libspec is not self.libspec:
            _family = (self.program.nid, self.libspec, entries := {})
        return entries

    def cfg(self, cls: sx.ClassDecl, meth: sx.MethodDecl) -> C.Cfg:
        """`cfg.lower(program, cls, meth, libspec)`, lowered once per version."""
        entries = self._entries()
        key = ("cfg", self._key, cls.name, sx.member_key(meth))
        stored = entries.get(key)
        if stored is None:
            entries[key] = stored = C.lower(self.program, cls, meth, self.libspec)
            return stored
        hit = copy.copy(stored)
        hit.program, hit.class_ast, hit.method_ast = self.program, cls, meth
        return hit

    def remember(self, cls: sx.ClassDecl, meth: sx.MethodDecl, specs: SpecSet, compute: Callable[[], T]) -> T:
        """compute(), a pure function of this version's `meth` and `specs`, run once per version."""
        key = ("run", self._key, cls.name, sx.member_key(meth), json.dumps(specs.to_json(), sort_keys=True))
        entries = self._entries()
        if key not in entries:
            entries[key] = compute()
        return entries[key]


ProgramOrVersion = Union[sx.Program, ProgramVersion]


def version_of(program: ProgramOrVersion, libspec: LibrarySpec) -> ProgramVersion:
    """The version a reader analyses: the one it is handed, or a fresh
    version of a bare program (or of a version under another libspec)."""
    if isinstance(program, ProgramVersion):
        if program.libspec is libspec:
            return program
        program = program.program
    return ProgramVersion(program, libspec)


def handed_back(given: ProgramOrVersion, version: ProgramVersion) -> ProgramOrVersion:
    """What an editing stage returns: `version`, the program's version as it
    now is, when it was given a version; its program when given a program."""
    return version if isinstance(given, ProgramVersion) else version.program
