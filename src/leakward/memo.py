"""A memo of CFGs and checker runs for one program family, keyed on what
each entry reads.

Every module gets a method's CFG, and runs the checker on a method, through
a `ProgramVersion(program, libspec)`: `ProgramVersion.cfg` is the one caller
of `cfg.lower`, and `checker.method_run` the one checker entry point below
`check_program`. A version is valid only while nothing its keys read is
edited.

Who takes a version, and when: each entry point (`check_program`,
`infer_specs`, `reject_final_writes`, `EscapeAnalyzer`, the transforms,
`validate_patch`, the pipeline's stages) accepts a program or a version and
reads it through `version_of`. A bare program gets a fresh version per call,
so an edit between two calls is seen. The pipeline takes one version per
program state and hands it from stage to stage, and so does each CLI
subcommand, so each state's keys are taken once: a stage that edits what a
key reads (a transform that rewrote a body or added a member, a fix round
that applied a plan) hands back a new version, and one that edited nothing a
key reads hands back the one it was given: `finalize_fields` when it only
added `final`, and `write_specs`, whose annotations no key reads. A deep
copy of a program gets its original's keys (`ProgramVersion.copied`).
Validation judges the fix loop's re-check of a patch and does not redo it.

The memo holds one program family's entries under one library spec. A
family is the copies of one parse: they share `Program.nid`, which
`Program.__deepcopy__` keeps and a reparse renews. A lookup on another
family, or under another libspec object, replaces the table.

What an entry reads. The checker is intraprocedural and modular, so a
member's lowering and checker run read its own body and signature, the
shapes of the classes it names, the library spec, and, for a run, some spec
entries:

  - the lowering reads its own body, `static` and parameters, the class of
    each bare name, the declared type and `static` of fields, and callees'
    return types, where a `void` method and a missing one lower alike;
  - a run reads the CFG, the declared type and `final` of fields, the
    return types of callees, callees' parameters with their `@Owning`,
    callees' and its own `@NotOwning`, and the must-call sets and field
    ownership of its specs.

So a version's keys (`member_keys`), taken in one pass at its first
lookup, are plain tuples that the table compares exactly, with no digest to
stand for them: each member's is its `static`, its parameter count, types
and names, and its body as `syntax.flatten` spells it out in one walk
(every node's class and fields, nids and allocation sites included, every
list's length, None for an empty slot); and one lowering key holds what
lowering reads of the shapes: the file name, class names, fields with
their names, types and `static`, and the name and return type of each
method not `void` (method names are unique in a class). Left out:

  - a `void` method, a constructor, `implements`, every other modifier,
    and every annotation: lowering reads none of them. A run reads whether
    a callee is there, a field's `final`, a callee's parameter ownerships
    and the `@NotOwning` of a callee or of itself through its
    `SpecReader`, as it reads its specs, and `@MustCall`, field `@Owning`
    and `@EnsuresCalledMethods` only as specs;
  - positions: lowering reads them only to raise an error, which is never
    stored, and a run only for `Warning.line`, which `method_run` reads from
    the caller's program.

So `final` from `finalize_fields`, the `close()` and `implements` from
`inject_finalizers`, an annotation from `write_specs`, a fix in another
method, or a moved line leaves a CFG valid, and an entry outlives the
version that made it.

The table holds two kinds of entries, under (kind, lowering key, class,
member key, body key):

  ("cfg", ...) -> Cfg. A hit is the stored lowering itself, which holds no
      AST: the caller holds its program, class and member, and reads the
      CFG with them. So every hit has the graph facts built at lowering (the
      adjacency index, reverse postorder, solver ranks and whether a node
      starts a value; no in-edge keys, as a solve reads a node's in-facts
      off its predecessors' out-facts), the liveness solved at the first
      `Cfg.live_in` of any lookup, `copies`
      and `sinks` built at the first read of either, and the taint solved
      at the first `Cfg.taint_of`. Its anchors' node ids and warning
      ordinals are the caller's, as the keys cover what they read.
  ("run", ...) -> [(SpecReads, result)]. A run reads its specs and the
      ownership facts the key leaves out only through a `SpecReader` of the
      specs and the caller's program, which records each must-call set,
      field ownership, field `final`, parameter ownerships and return
      ownership it asks for. A lookup hits the first stored run whose every
      read gives the same value under the caller's specs and program: a run
      is deterministic, so there it would make the same reads and compute
      the same result.

A miss calls the module-level `cfg.lower`, the first `Cfg.live_in` of a
lowering the module-level `cfg.liveness`, and its first `Cfg.taint_of` the
module-level `cfg.taint` over `cfg.taint_starts`, so counts of those calls
count real work: taint runs at most once per lowering, and liveness at
most once per lowering and never for one that starts no value (no `Alloc`,
no `Invoke` with a `dst`), as a checker run of it reads none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, TypeVar, Union

from . import cfg as C
from . import syntax as sx
from .libspec import LibrarySpec
from .specs import SpecReader, SpecReads, SpecSet

T = TypeVar("T")

# (family nid, libspec, entries) of the family analysed last
_family: tuple[int, LibrarySpec, dict[tuple, object]] = (0, LibrarySpec(), {})


@dataclass(frozen=True)
class MemberKeys:
    """What a program state's entries are keyed on."""

    lowering: tuple  # the file name and the class shapes lowering reads
    bodies: dict[tuple[str, str], tuple]  # (class, member key) -> its `static`, params and flattened body


def member_keys(program: sx.Program) -> MemberKeys:
    """The keys of `program` as it is now: one walk of each member's body,
    and the class shapes lowering reads."""
    bodies: dict[tuple[str, str], tuple] = {}
    shapes = []
    for cls in program.classes:
        for meth in cls.all_methods():
            params = [part for p in meth.params for part in (p.type_name, p.name)]
            bodies[(cls.name, sx.member_key(meth))] = sx.flatten(meth.body, (meth.is_static, len(meth.params), *params))
        fields = tuple((f.name, f.declared_type, f.has("static")) for f in cls.fields)
        returns = tuple((m.name, m.return_type) for m in cls.methods if m.return_type != "void")
        shapes.append((cls.name, fields, returns))
    return MemberKeys((program.source_name, tuple(shapes)), bodies)


class ProgramVersion:
    """A program as it is now, analysed under one library spec: the keys of
    its entries in its family's table."""

    def __init__(self, program: sx.Program, libspec: LibrarySpec):
        self.program = program
        self.libspec = libspec

    @cached_property
    def keys(self) -> MemberKeys:
        """Taken at the first lookup; nothing they read is edited since the version was taken."""
        return member_keys(self.program)

    def edited(self) -> "ProgramVersion":
        """A new version of this version's program, after an edit to it."""
        return ProgramVersion(self.program, self.libspec)

    def copied(self, program: sx.Program) -> "ProgramVersion":
        """A version of `program`, a deep copy of this version's program.
        `Program.__deepcopy__` is a pickle round trip, which keeps every
        state the keys read, so the copy has this version's keys (taken now
        if they were not yet)."""
        twin = ProgramVersion(program, self.libspec)
        twin.keys = self.keys
        return twin

    def _entries(self) -> dict[tuple, object]:
        """Its family's table, which replaces another family's."""
        global _family
        nid, libspec, entries = _family
        if nid != self.program.nid or libspec is not self.libspec:
            _family = (self.program.nid, self.libspec, entries := {})
        return entries

    def _key(self, kind: str, cls: sx.ClassDecl, meth: sx.MethodDecl) -> tuple:
        keys = self.keys
        member = (cls.name, sx.member_key(meth))
        return (kind, keys.lowering, *member, keys.bodies[member])

    def cfg(self, cls: sx.ClassDecl, meth: sx.MethodDecl) -> C.Cfg:
        """`cfg.lower(program, cls, meth, libspec)`, lowered once per member key
        and handed out as stored."""
        entries = self._entries()
        key = self._key("cfg", cls, meth)
        stored = entries.get(key)
        if stored is None:
            entries[key] = stored = C.lower(self.program, cls, meth, self.libspec)
        return stored

    def remember(
        self, cls: sx.ClassDecl, meth: sx.MethodDecl, specs: SpecSet, compute: Callable[[SpecReader], T]
    ) -> T:
        """compute(reader), a pure function of this version's lowering of
        `meth` and of what it reads through `reader`, a `SpecReader` of
        `specs` and this version's program; run once per member key and set
        of read values."""
        key = self._key("run", cls, meth)
        runs: list[tuple[SpecReads, T]] = self._entries().setdefault(key, [])  # type: ignore[assignment]
        for reads, result in runs:
            if reads.hold_under(specs, self.libspec, self.program):
                return result
        reader = SpecReader(specs, self.libspec, self.program)
        result = compute(reader)
        runs.append((reader.reads, result))
        return result


ProgramOrVersion = Union[sx.Program, ProgramVersion]


def version_of(program: ProgramOrVersion, libspec: LibrarySpec) -> ProgramVersion:
    """The version a reader analyses: the one it is handed, or a fresh
    version of a bare program (or of a version under another libspec)."""
    if isinstance(program, ProgramVersion):
        if program.libspec is libspec:
            return program
        program = program.program
    return ProgramVersion(program, libspec)

