"""Resource-management specification sets.

A SpecSet aggregates @MustCall, field ownership, and @EnsuresCalledMethods
facts for user classes, whether declared in source, inferred, or injected.
Library classes are covered by LibrarySpec, not by SpecSet. An entry does
not record where it came from: what the source declares is read from the
program itself (`SpecSet.from_declared`). A class is a resource type when
its must-call set (`resource_must_call`) is nonempty.

A checker run reads its SpecSet through a `SpecReader`, and so does it the
ownership facts of the AST that the memo's lowering key leaves out: a
stored field's `final`, a user callee's parameter ownerships and the
`@NotOwning` of a callee or of the method itself. The reader records each
read with the value it got (`SpecReads`), so that the memo can reuse the run
under any SpecSet and program that give every one of those reads the same
value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import syntax as sx
from .libspec import LibrarySpec

OWNING = "owning"
NOT_OWNING = "notowning"


@dataclass
class EnsuresEntry:
    field_name: str
    methods: tuple[str, ...]


@dataclass
class SpecSet:
    class_mustcall: dict[str, frozenset[str]] = field(default_factory=dict)
    field_ownership: dict[tuple[str, str], str] = field(default_factory=dict)
    method_ensures: dict[tuple[str, str], list[EnsuresEntry]] = field(default_factory=dict)

    @classmethod
    def from_declared(cls, program: sx.Program) -> "SpecSet":
        """Collect the annotations already written in source."""
        specs = cls()
        for c in program.classes:
            ann = sx.annotation_named(c.annotations, sx.MUST_CALL)
            if ann is not None:
                specs.class_mustcall[c.name] = frozenset(ann.methods)
            for f in c.fields:
                if sx.annotation_named(f.annotations, sx.OWNING):
                    specs.field_ownership[(c.name, f.name)] = OWNING
                elif sx.annotation_named(f.annotations, sx.NOT_OWNING):
                    specs.field_ownership[(c.name, f.name)] = NOT_OWNING
            for m in c.all_methods():
                for a in m.annotations:
                    if a.kind == sx.ENSURES_CALLED_METHODS:
                        specs.method_ensures.setdefault((c.name, m.name), []).append(
                            EnsuresEntry(field_name=a.target_field or "", methods=a.methods)
                        )
        return specs

    def ownership(self, class_name: str, field_name: str) -> str:
        return self.field_ownership.get((class_name, field_name), NOT_OWNING)

    def of_class(self, name: str) -> "SpecSet":
        """The entries about class `name`."""
        return SpecSet(
            class_mustcall={c: mc for c, mc in self.class_mustcall.items() if c == name},
            field_ownership={k: v for k, v in self.field_ownership.items() if k[0] == name},
            method_ensures={k: v for k, v in self.method_ensures.items() if k[0] == name},
        )

    def update(self, other: "SpecSet") -> None:
        """Take every entry of `other`, replacing those of the same class and member."""
        self.class_mustcall.update(other.class_mustcall)
        self.field_ownership.update(other.field_ownership)
        self.method_ensures.update(other.method_ensures)

    # --- JSON wire format (External Interfaces) ---

    def to_json(self) -> dict:
        classes = {
            name: {"mustCall": sorted(mc)}
            for name, mc in sorted(self.class_mustcall.items())
            if mc
        }
        fields = {
            f"{c}.{f}": own for (c, f), own in sorted(self.field_ownership.items())
        }
        ensures = {}
        for (c, m), entries in sorted(self.method_ensures.items()):
            ensures[f"{c}.{m}"] = [{"field": e.field_name, "methods": sorted(e.methods)} for e in entries]
        return {"classes": classes, "fields": fields, "ensures": ensures}

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, data: dict) -> "SpecSet":
        specs = cls()
        for name, entry in data.get("classes", {}).items():
            specs.class_mustcall[name] = frozenset(entry.get("mustCall", []))
        for key, own in data.get("fields", {}).items():
            c, f = key.split(".", 1)
            specs.field_ownership[(c, f)] = own
        for key, entries in data.get("ensures", {}).items():
            c, m = key.split(".", 1)
            specs.method_ensures[(c, m)] = [
                EnsuresEntry(field_name=e["field"], methods=tuple(e["methods"]))
                for e in entries
            ]
        return specs


def resource_must_call(class_name: str, specs: SpecSet, libspec: LibrarySpec) -> frozenset[str]:
    """The must-call methods of `class_name`; a class is a resource type
    when this is nonempty."""
    if libspec.has_class(class_name):
        return libspec.must_call(class_name)
    return specs.class_mustcall.get(class_name, frozenset())


def finalizer_order(methods: Iterable[str]) -> tuple[str, ...]:
    """Must-call methods in the order a repair or an injected close() calls
    them: `close` first, then by name."""
    return tuple(sorted(methods, key=lambda m: (m != "close", m)))


@dataclass
class SpecReads:
    """What one checker run read of its specs and of its program's ownership
    facts, with the value it got for each."""

    must_call: dict[str, frozenset[str]] = field(default_factory=dict)  # class -> resource_must_call
    ownership: dict[tuple[str, str], str] = field(default_factory=dict)  # (class, field) -> SpecSet.ownership
    final: dict[tuple[str, str], bool] = field(default_factory=dict)  # (class, field) -> field_is_final
    # (class, member key) -> member_param_ownerships, member_return_ownership
    params: dict[tuple[str, str], Optional[tuple[str, ...]]] = field(default_factory=dict)
    returns: dict[tuple[str, str], str] = field(default_factory=dict)

    def hold_under(self, specs: SpecSet, libspec: LibrarySpec, program: sx.Program) -> bool:
        """Whether `specs` and `program` give every read the value it got."""
        return (
            all(resource_must_call(c, specs, libspec) == mc for c, mc in self.must_call.items())
            and all(specs.ownership(c, f) == own for (c, f), own in self.ownership.items())
            and all(field_is_final(program, c, f) == final for (c, f), final in self.final.items())
            and all(member_param_ownerships(program, c, m) == owns for (c, m), owns in self.params.items())
            and all(member_return_ownership(program, c, m) == own for (c, m), own in self.returns.items())
        )


class SpecReader:
    """A checker run's one way into its SpecSet, and into the ownership facts
    of its program's AST: each read once and recorded in `reads`."""

    def __init__(self, specs: SpecSet, libspec: LibrarySpec, program: sx.Program):
        self.libspec = libspec
        self._specs = specs
        self._program = program
        self.reads = SpecReads()

    def must_call(self, class_name: str) -> frozenset[str]:
        methods = self.reads.must_call.get(class_name)
        if methods is None:
            methods = self.reads.must_call[class_name] = resource_must_call(class_name, self._specs, self.libspec)
        return methods

    def ownership(self, class_name: str, field_name: str) -> str:
        key = (class_name, field_name)
        own = self.reads.ownership.get(key)
        if own is None:
            own = self.reads.ownership[key] = self._specs.ownership(class_name, field_name)
        return own

    def field_is_final(self, class_name: str, field_name: str) -> bool:
        key = (class_name, field_name)
        if key not in self.reads.final:
            self.reads.final[key] = field_is_final(self._program, class_name, field_name)
        return self.reads.final[key]

    def param_ownerships(self, class_name: str, member: str) -> Optional[tuple[str, ...]]:
        key = (class_name, member)
        if key not in self.reads.params:
            self.reads.params[key] = member_param_ownerships(self._program, class_name, member)
        return self.reads.params[key]

    def return_ownership(self, class_name: str, member: str) -> str:
        key = (class_name, member)
        own = self.reads.returns.get(key)
        if own is None:
            own = self.reads.returns[key] = member_return_ownership(self._program, class_name, member)
        return own


def field_is_final(program: sx.Program, class_name: str, field_name: str) -> bool:
    cls = program.class_named(class_name)
    fld = cls.field_named(field_name) if cls else None
    return fld is not None and fld.has("final")


def member_param_ownerships(program: sx.Program, class_name: str, member: str) -> Optional[tuple[str, ...]]:
    """The ownership of each parameter of the member `sx.member_key` names
    `member`, None when there is no such member."""
    cls = program.class_named(class_name)
    meth = cls.member(member) if cls else None
    return None if meth is None else tuple(param_ownership(p) for p in meth.params)


def member_return_ownership(program: sx.Program, class_name: str, member: str) -> str:
    cls = program.class_named(class_name)
    meth = cls.member(member) if cls else None
    return OWNING if meth is None else method_return_ownership(meth)


def method_return_ownership(method: sx.MethodDecl) -> str:
    """Returns default to owning, matching RLC; @NotOwning on the method overrides."""
    if sx.annotation_named(method.annotations, sx.NOT_OWNING):
        return NOT_OWNING
    return OWNING


def param_ownership(param: sx.Param) -> str:
    """Parameters default to non-owning; @Owning transfers the obligation."""
    if sx.annotation_named(param.annotations, sx.OWNING):
        return OWNING
    return NOT_OWNING
