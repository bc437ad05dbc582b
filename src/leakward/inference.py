"""Ownership and must-call specification inference.

Three rules run to a fixed point:

  R1  a private field f of resource type is disposal-covered by method m when
      every normal path of m calls each of f's must-call methods on f's
      content (a null-guarded close counts: the guard's null arm satisfies the
      obligation vacuously);
  R2  the class gains @MustCall(m*) for the selected finalizer m* (the method
      disposing the most candidate fields; ties broken by the name `close`,
      then lexicographically), m* and every other disposing method gain
      @EnsuresCalledMethods, and the fields m* disposes become @Owning;
  R3  a class whose must-call set became nonempty is itself a resource type,
      re-enabling R1 for wrapper-of-wrapper fields.

Declared annotations always win; inference never overwrites them.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from . import cfg as C
from . import syntax as sx
from .checker import normal_exit_fact
from .errors import AnnotationConflict
from .libspec import LibrarySpec
from .specs import (
    NOT_OWNING,
    OWNING,
    EnsuresEntry,
    MustCallSet,
    SpecSet,
    is_resource_type,
    resource_must_call,
)


def disposes(method_cfg: C.Cfg, field_name: str, specs: SpecSet, libspec: LibrarySpec) -> bool:
    """True when every normal path of the method satisfies the field content's
    must-call obligations (or proves the content null)."""
    fact = normal_exit_fact(method_cfg, specs, libspec)
    return fact is not None and field_name in fact.field_sat


@dataclass
class _Disposal:
    method: sx.MethodDecl
    fields: set[str]


def infer_specs(program: sx.Program, libspec: LibrarySpec) -> SpecSet:
    """Fixed point of R1-R3 over the whole program."""
    specs = SpecSet.from_declared(program)
    changed = True
    while changed:
        changed = False
        for cls in program.classes:
            candidates = _resource_fields(cls, specs, libspec)
            if not candidates:
                continue
            disposals: list[_Disposal] = []
            for meth in cls.methods:
                # one checker run gives field_sat for every candidate field
                fact = normal_exit_fact(C.lower(program, cls, meth, libspec), specs, libspec)
                covered = {f.name for f in candidates if fact is not None and f.name in fact.field_sat}
                if covered:
                    disposals.append(_Disposal(method=meth, fields=covered))
            if not disposals:
                continue
            # record every true disposal fact
            for d in disposals:
                for fname in sorted(d.fields):
                    fld = cls.field_named(fname)
                    methods = tuple(sorted(resource_must_call(fld.declared_type, specs, libspec)))
                    entries = specs.method_ensures.setdefault((cls.name, d.method.name), [])
                    if not any(e.field_name == fname for e in entries):
                        entries.append(EnsuresEntry(field_name=fname, methods=methods, provenance="inferred"))
                        changed = True
            # the class-level finalizer set: declared wins, else the best disposer
            declared_mc = specs.class_mustcall.get(cls.name)
            if declared_mc is not None and declared_mc.source == "declared":
                finalizers = set(declared_mc.methods)
            else:
                best = _select_finalizer(disposals)
                finalizers = {best.method.name}
                if specs.class_mustcall.get(cls.name) != MustCallSet(frozenset(finalizers), "inferred"):
                    specs.class_mustcall[cls.name] = MustCallSet(frozenset(finalizers), "inferred")
                    changed = True
            owned = set()
            for d in disposals:
                if d.method.name in finalizers:
                    owned |= d.fields
            for fname in sorted(owned):
                key = (cls.name, fname)
                if specs.field_provenance.get(key) == "declared":
                    continue  # declared @Owning/@NotOwning wins
                if specs.field_ownership.get(key) != OWNING:
                    specs.field_ownership[key] = OWNING
                    specs.field_provenance[key] = "inferred"
                    changed = True
    return specs


def _resource_fields(cls: sx.ClassDecl, specs: SpecSet, libspec: LibrarySpec) -> list[sx.FieldDecl]:
    out = []
    for f in cls.fields:
        if not f.has("private"):
            continue  # only private fields are inference-eligible
        if specs.field_provenance.get((cls.name, f.name)) == "declared" and specs.ownership(
            cls.name, f.name
        ) == NOT_OWNING:
            continue
        if is_resource_type(f.declared_type, specs, libspec):
            out.append(f)
    return out


def _select_finalizer(disposals: list[_Disposal]) -> _Disposal:
    def rank(d: _Disposal) -> tuple:
        return (-len(d.fields), 0 if d.method.name == "close" else 1, d.method.name)

    return sorted(disposals, key=rank)[0]


def write_specs(program: sx.Program, specs: SpecSet) -> sx.Program:
    """Insert inferred annotations into a copy of the AST.

    Already-declared annotations are left untouched; a contradiction raises
    AnnotationConflict. Idempotent: re-writing the same specs changes nothing.
    """
    out = copy.deepcopy(program)
    for cls in out.classes:
        mc = specs.class_mustcall.get(cls.name)
        declared = sx.annotation_named(cls.annotations, sx.MUST_CALL)
        if mc is not None and mc.methods:
            if declared is not None:
                if frozenset(declared.methods) != mc.methods:
                    raise AnnotationConflict(
                        f"{cls.name}: declared @MustCall{tuple(declared.methods)} vs {sorted(mc.methods)}"
                    )
            else:
                ann = sx.Annotation(kind=sx.MUST_CALL, methods=tuple(sorted(mc.methods)), provenance=mc.source)
                out.inherit_pos(ann, cls)
                cls.annotations.append(ann)
        for fld in cls.fields:
            own = specs.field_ownership.get((cls.name, fld.name))
            if own is None:
                continue
            has_owning = sx.annotation_named(fld.annotations, sx.OWNING) is not None
            has_notowning = sx.annotation_named(fld.annotations, sx.NOT_OWNING) is not None
            if own == OWNING:
                if has_notowning:
                    raise AnnotationConflict(f"{cls.name}.{fld.name}: declared @NotOwning vs inferred @Owning")
                if not has_owning:
                    ann = sx.Annotation(
                        kind=sx.OWNING, provenance=specs.field_provenance.get((cls.name, fld.name), "inferred")
                    )
                    out.inherit_pos(ann, fld)
                    fld.annotations.insert(0, ann)
        for meth in cls.methods:
            entries = specs.method_ensures.get((cls.name, meth.name), [])
            for entry in sorted(entries, key=lambda e: e.field_name):
                existing = [
                    a
                    for a in meth.annotations
                    if a.kind == sx.ENSURES_CALLED_METHODS and a.target_field == entry.field_name
                ]
                if existing:
                    if frozenset(existing[0].methods) != frozenset(entry.methods):
                        raise AnnotationConflict(
                            f"{cls.name}.{meth.name}: @EnsuresCalledMethods({entry.field_name}) disagrees"
                        )
                    continue
                ann = sx.Annotation(
                    kind=sx.ENSURES_CALLED_METHODS,
                    methods=tuple(sorted(entry.methods)),
                    target_field=entry.field_name,
                    provenance=entry.provenance,
                )
                out.inherit_pos(ann, meth)
                meth.annotations.append(ann)
    return out
