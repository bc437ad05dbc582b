"""A memo of CFGs and checker runs that lasts for one file.

Every module gets a method's CFG, and runs the checker on a method, through
a `ProgramVersion(program, libspec)`: `ProgramVersion.cfg` is the one caller
of `cfg.lower`, and `checker.method_run` the one checker entry point below
`check_program`. A version is valid only while its program is unedited; a
caller that edits a program takes a new version of it.

`run_pipeline` and the CLI open a `file_scope()` around each file. Inside
it, a version's key is a blake2b digest of the pickled program, taken at the
version's first lookup, which covers every AST field: nids, annotations with
their provenance, `line_index` and `source_name`. Equal digests therefore
mean equal inputs.
It holds two kinds of entries, both also keyed on the library spec:

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
count real work: liveness runs at most once per lowering. Outside a scope
nothing is cached, no digest is taken and every lookup lowers afresh.
"""

from __future__ import annotations

import copy
import hashlib
import json
import pickle
from contextlib import contextmanager
from contextvars import ContextVar
from functools import cached_property
from typing import Callable, Iterator, Optional, TypeVar

from . import cfg as C
from . import syntax as sx
from .libspec import LibrarySpec
from .specs import SpecSet

T = TypeVar("T")

# the open scope's entries; None outside a scope
_tables: ContextVar[Optional[dict[tuple, object]]] = ContextVar("leakward_memo_tables", default=None)


@contextmanager
def file_scope() -> Iterator[None]:
    """Cache CFGs and checker runs until the block ends; a nested scope has its own entries."""
    token = _tables.set({})
    try:
        yield
    finally:
        _tables.reset(token)


def digest(program: sx.Program) -> bytes:
    return hashlib.blake2b(pickle.dumps(program, pickle.HIGHEST_PROTOCOL)).digest()


class ProgramVersion:
    """A program as it is now, analysed under one library spec: the key of
    its entries in the scope that was open when it was taken."""

    def __init__(self, program: sx.Program, libspec: LibrarySpec):
        self.program = program
        self.libspec = libspec
        self._tables = _tables.get()

    @cached_property
    def _key(self) -> tuple[bytes, int]:
        """Taken at the first lookup in a scope; the program is unedited since the version was taken."""
        return digest(self.program), id(self.libspec)

    def cfg(self, cls: sx.ClassDecl, meth: sx.MethodDecl) -> C.Cfg:
        """`cfg.lower(program, cls, meth, libspec)`, lowered once per version."""
        if self._tables is None:
            return C.lower(self.program, cls, meth, self.libspec)
        key = ("cfg", self._key, cls.name, sx.member_key(meth))
        stored = self._tables.get(key)
        if stored is None:
            self._tables[key] = stored = C.lower(self.program, cls, meth, self.libspec)
            return stored
        hit = copy.copy(stored)
        hit.program, hit.class_ast, hit.method_ast = self.program, cls, meth
        return hit

    def remember(self, cls: sx.ClassDecl, meth: sx.MethodDecl, specs: SpecSet, compute: Callable[[], T]) -> T:
        """compute(), a pure function of this version's `meth` and `specs`, run once per version."""
        if self._tables is None:
            return compute()
        key = ("run", self._key, cls.name, sx.member_key(meth), json.dumps(specs.to_json(), sort_keys=True))
        if key not in self._tables:
            self._tables[key] = compute()
        return self._tables[key]
