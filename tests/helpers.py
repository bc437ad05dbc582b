"""Shared test machinery: the leak-coverage oracle, a unified-diff applier,
structural AST comparison modulo local-variable names, the corpus-plus-fuzz
program list, seeded one-line corpus mutants, simple-path enumeration over a
CFG, a memo bypass, a record of the memo's key passes, the pinned digests
of pipeline reports, and a generator of nested try/loop/branch shapes."""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from leakward import cfg as C
from leakward import memo
from leakward.memo import ProgramVersion
from leakward import syntax as sx
from leakward.escape import taint_fixpoint
from leakward.fuzz import fuzz_libspec, generate_source
from leakward.libspec import LibrarySpec, load_library_spec
from leakward.parser import parse
from leakward.specs import OWNING, SpecReader, SpecReads, SpecSet, method_return_ownership, param_ownership


CORPUS = Path(__file__).resolve().parent.parent / "corpus"
REPORT_PINS = Path(__file__).resolve().parent / "report_pins.json"


def report_digest(report) -> str:
    """A pipeline report's pin: a blake2b of its JSON with sorted keys."""
    text = json.dumps(report.to_json(), sort_keys=True)
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def moved_reports(group: str, digests: dict[str, str]) -> list[str]:
    """The names whose report digest differs from its pin in `group` of
    `report_pins.json`, or that only one side has."""
    pins = json.loads(REPORT_PINS.read_text())[group]
    return sorted(name for name in pins.keys() | digests.keys() if pins.get(name) != digests.get(name))


def corpus_and_fuzz_programs(count: int = 60):
    """(program, libspec) for every corpus file and generate_source(0..count-1);
    both have while loops, so back edges are exercised."""
    corpus_lib = load_library_spec((CORPUS / "minij.libspec").read_text())
    programs = [(parse(p.read_text(), p.name), corpus_lib) for p in sorted(CORPUS.glob("*.mj"))]
    programs += [(parse(generate_source(seed), "fuzz.mj"), fuzz_libspec()) for seed in range(count)]
    return programs


def corpus_mutants(count: int = 600, seed: int = 1) -> list[tuple[str, str]]:
    """`count` seeded one-line mutants of the corpus files, as (name, text):
    one line deleted, duplicated, or swapped with the next. A name such as
    `clean_close.swap3.mj` gives the file, the edit and the line (0-based)."""
    rng = random.Random(seed)
    files = sorted(CORPUS.glob("*.mj"))
    mutants = []
    for _ in range(count):
        path = rng.choice(files)
        lines = path.read_text().splitlines(keepends=True)
        edit = rng.choice(("delete", "duplicate", "swap"))
        k = rng.randrange(len(lines) - 1 if edit == "swap" else len(lines))
        if edit == "delete":
            del lines[k]
        elif edit == "duplicate":
            lines.insert(k, lines[k])
        else:
            lines[k], lines[k + 1] = lines[k + 1], lines[k]
        mutants.append((f"{path.stem}.{edit}{k}.mj", "".join(lines)))
    return mutants


def wide_method_source(n: int) -> str:
    """One `main` with n FileInputStream allocations; every even-numbered one
    is read and closed under a null guard, so n/2 of them leak."""
    lines = ["class Main {", "  static void main() {"]
    for k in range(n):
        lines.append(f'    FileInputStream s{k} = new FileInputStream("f{k}");')
        if k % 2 == 0:
            lines.append(f"    if (s{k} != null) {{ s{k}.read(); s{k}.close(); }}")
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


NESTING_LIBSPEC = (
    "resource PrintStream { must_call: [close]; method PrintStream(notowning) -> void; "
    "method close() -> void; method println(notowning) -> void; }"
)


def nesting_source(seed: int) -> str:
    """One method `m` of up to four statements drawn from a grammar of
    try/catch/finally, loops and branches nested three deep over the
    PrintStream locals `s`, `t` and `u`: blocks are often empty or end in a
    return or a throwing call, so a handler block can lower no node, return,
    or begin at a call inside a finally. Parse with `NESTING_LIBSPEC`."""
    rng = random.Random(seed)

    def block(depth: int) -> str:
        return "{ " + " ".join(stmt(depth + 1) for _ in range(rng.randrange(3))) + " }"

    def stmt(depth: int) -> str:
        k = rng.randrange(9 if depth < 3 else 5)
        v = rng.choice(["s", "u", "t"])
        if k == 0:
            return f'{v}.println("x");'
        if k == 1:
            return f"{v}.close();"
        if k == 2:
            return f'{v} = new PrintStream("a");'
        if k == 3:
            return rng.choice(["return;", "x = 3;", f"{v} = null;", "x = x;"])
        if k == 4:
            return ""
        if k == 5:
            cond = f'if ({v} == {rng.choice(["u", "null", "t"])}) {block(depth)}'
            return cond + (f" else {block(depth)}" if rng.random() < 0.5 else "")
        if k == 6:
            return f'while ({v} != {rng.choice(["u", "null"])}) {block(depth)}'
        if k == 7:
            return f"try {block(depth)} finally {block(depth)}"
        handler = f"try {block(depth)} catch (Exception e) {block(depth)}"
        return handler + (f" finally {block(depth)}" if rng.random() < 0.5 else "")

    body = " ".join(stmt(0) for _ in range(rng.randrange(1, 5)))
    return (
        "class A { void m(PrintStream u) { int x = 1; PrintStream t = null; "
        f'PrintStream s = new PrintStream("a"); {body} }} }}'
    )


@contextmanager
def memo_bypassed() -> Iterator[dict[tuple[str, str], SpecReads]]:
    """Every `ProgramVersion.cfg` lowers afresh and every `remember` computes
    afresh, with a fresh spec reader, until the block ends: the memo-free
    reference the memo must equal. Yields the reads of each member's last
    run, by (class, member key)."""
    reads: dict[tuple[str, str], SpecReads] = {}

    def remember(self, cls, meth, specs, compute):
        reader = SpecReader(specs, self.libspec, self.program)
        result = compute(reader)
        reads[(cls.name, sx.member_key(meth))] = reader.reads
        return result

    saved = ProgramVersion.cfg, ProgramVersion.remember
    ProgramVersion.cfg = lambda self, cls, meth: C.lower(self.program, cls, meth, self.libspec)
    ProgramVersion.remember = remember
    try:
        yield reads
    finally:
        ProgramVersion.cfg, ProgramVersion.remember = saved


def keys_taken(monkeypatch) -> list[tuple]:
    """The keys each `memo.member_keys` call returns from now on, as
    comparable values."""
    taken: list[tuple] = []
    real = memo.member_keys

    def recorded(program):
        keys = real(program)
        taken.append((keys.lowering, tuple(sorted(keys.bodies.items()))))
        return keys

    monkeypatch.setattr(memo, "member_keys", recorded)
    return taken


def acyclic_paths(cfg: C.Cfg, limit: int = 20000) -> Iterator[list[int]]:
    """All simple entry->exit paths. Intended for small, loop-free CFGs."""
    path = [cfg.entry]
    seen = {cfg.entry}
    count = 0

    def walk(n: int) -> Iterator[list[int]]:
        nonlocal count
        if n == cfg.exit:
            count += 1
            if count > limit:
                raise RuntimeError("path explosion")
            yield list(path)
            return
        for s in sorted(cfg.succs(n)):
            if s in seen:
                continue
            seen.add(s)
            path.append(s)
            yield from walk(s)
            path.pop()
            seen.remove(s)

    yield from walk(cfg.entry)


def build_coverage(program: sx.Program, libspec: LibrarySpec, warnings, specs: SpecSet | None = None):
    """Return covered(site) -> bool: a leaked allocation site is covered when a
    warning is attributable to it through the static transfer graph.

    Transfer edges: a value absorbed by an owning constructor argument is
    covered by the absorber's site; a value stored into an @Owning field of a
    wrapper class is covered by the overwrite warning on that store or by any
    warning on an allocation of the wrapper; a value returned from its method
    is covered through every call site of that method (the call-site warning
    or the call result's own onward transfers).
    """
    specs = specs or SpecSet.from_declared(program)
    warned_new = {(w.class_name, w.method_name, w.site) for w in warnings if w.anchor_kind == "new"}
    warned_call_nids = {w.ast_nid for w in warnings if w.anchor_kind == "call"}
    warned_store_fields = {
        tuple(w.anchor_token.partition(".")[::2]) for w in warnings if w.anchor_kind == "store"
    }  # (class, field)
    warned_wrapper_classes = {w.resource_class for w in warnings if w.anchor_kind in ("new", "call")}

    # nodes: ("site", site) | ("call", invoke ast nid); edges = onward transfers
    edges: dict[tuple, set[tuple]] = {}
    warned_nodes: set[tuple] = set()
    call_sites_of: dict[tuple[str, str], set[int]] = {}  # (class, method) -> invoke nids
    returned_methods: dict[tuple, tuple[str, str]] = {}  # node -> defining (class, method)

    def note_edge(a: tuple, b: tuple) -> None:
        edges.setdefault(a, set()).add(b)

    for cls in program.classes:
        for meth in cls.all_methods():
            g = C.lower(program, cls, meth, libspec)
            # record call sites for return-chain edges
            for ins in g.nodes:
                if isinstance(ins, C.Invoke):
                    call_sites_of.setdefault((ins.owner, ins.method), set()).add(ins.ast_nid)
            starts: list[tuple[tuple, int, str]] = []
            for i, ins in enumerate(g.nodes):
                if isinstance(ins, C.Alloc):
                    starts.append((("site", ins.site), i, ins.dst))
                    if (cls.name, g.method_name, ins.site) in warned_new:
                        warned_nodes.add(("site", ins.site))
                elif isinstance(ins, C.Invoke) and ins.dst:
                    starts.append((("call", ins.ast_nid), i, ins.dst))
                    if ins.ast_nid in warned_call_nids:
                        warned_nodes.add(("call", ins.ast_nid))
            for nodekey, start, dst in starts:
                taint = taint_fixpoint(g, start, dst)
                for i, ins in enumerate(g.nodes):
                    t = taint.get(i, frozenset())
                    if not t:
                        continue
                    if isinstance(ins, C.Alloc) and i != start:
                        owner_entry = libspec.method(ins.class_name, ins.class_name)
                        user_cls = program.class_named(ins.class_name)
                        for pos, a in enumerate(ins.args):
                            if a not in t:
                                continue
                            if owner_entry and pos < len(owner_entry.param_ownership):
                                if owner_entry.param_ownership[pos] == "owning":
                                    note_edge(nodekey, ("site", ins.site))
                            elif user_cls is not None:
                                ctor = next(
                                    (c for c in user_cls.constructors if len(c.params) == len(ins.args)), None
                                )
                                if ctor and param_ownership(ctor.params[pos]) == OWNING:
                                    note_edge(nodekey, ("site", ins.site))
                    elif isinstance(ins, C.StoreField) and ins.src in t:
                        # stored into an @Owning wrapper field: the overwrite
                        # warning or any warning on the wrapper covers it
                        if specs.ownership(ins.field_class, ins.field) == OWNING:
                            if (ins.field_class, ins.field) in warned_store_fields:
                                warned_nodes.add(nodekey)
                            if ins.field_class in warned_wrapper_classes:
                                warned_nodes.add(nodekey)
                    elif isinstance(ins, C.ReturnVal) and ins.src in t:
                        if method_return_ownership(meth) == OWNING:
                            returned_methods[nodekey] = (cls.name, meth.name)

    for nodekey, (cname, mname) in returned_methods.items():
        for nid in call_sites_of.get((cname, mname), ()):
            note_edge(nodekey, ("call", nid))

    def covered(site: int) -> bool:
        seen: set[tuple] = set()
        work = [("site", site)]
        while work:
            n = work.pop()
            if n in seen:
                continue
            seen.add(n)
            if n in warned_nodes:
                return True
            work.extend(edges.get(n, ()))
        return False

    return covered


def apply_unified_diff(original: str, diff: str) -> str:
    """Minimal unified-diff applier sufficient for difflib output."""
    if not diff:
        return original
    src = original.splitlines(keepends=True)
    out: list[str] = []
    pos = 0
    for line in diff.splitlines(keepends=True):
        if line.startswith(("---", "+++")):
            continue
        if line.startswith("@@"):
            header = line.split("@@")[1].strip()
            old_range = header.split(" ")[0]
            start = int(old_range.lstrip("-").split(",")[0])
            hunk_start = max(start - 1, 0)
            out.extend(src[pos:hunk_start])
            pos = hunk_start
            continue
        if line.startswith("-"):
            pos += 1
        elif line.startswith("+"):
            out.append(line[1:])
        elif line.startswith(" "):
            out.append(src[pos])
            pos += 1
    out.extend(src[pos:])
    return "".join(out)


def structurally_equal_modulo_locals(a: sx.Program, b: sx.Program) -> bool:
    """Structural equality where local variable / parameter names may differ
    by a consistent per-method renaming (repair templates may introduce fresh
    temporaries)."""
    if len(a.classes) != len(b.classes):
        return False
    for ca, cb in zip(a.classes, b.classes):
        if (ca.name, ca.implements) != (cb.name, cb.implements):
            return False
        if ca.annotations != cb.annotations or ca.fields != cb.fields:
            return False
        for group_a, group_b in ((ca.constructors, cb.constructors), (ca.methods, cb.methods)):
            if len(group_a) != len(group_b):
                return False
            for ma, mb in zip(group_a, group_b):
                if not _method_match(ma, mb):
                    return False
    return True


def _method_match(ma: sx.MethodDecl, mb: sx.MethodDecl) -> bool:
    if (ma.name, ma.return_type, ma.modifiers) != (mb.name, mb.return_type, mb.modifiers):
        return False
    if ma.annotations != mb.annotations or len(ma.params) != len(mb.params):
        return False
    rename: dict[str, str] = {}
    for pa, pb in zip(ma.params, mb.params):
        if pa.type_name != pb.type_name or pa.annotations != pb.annotations:
            return False
        rename[pa.name] = pb.name
    return _block_match(ma.body, mb.body, rename)


def _block_match(a: sx.Block, b: sx.Block, rename: dict[str, str]) -> bool:
    if len(a.stmts) != len(b.stmts):
        return False
    for sa, sb in zip(a.stmts, b.stmts):
        if not _stmt_match(sa, sb, rename):
            return False
    return True


def _stmt_match(a: sx.Stmt, b: sx.Stmt, rename: dict[str, str]) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, sx.LocalDecl):
        if a.type_name != b.type_name:
            return False
        rename[a.name] = b.name
        return _opt_expr_match(a.init, b.init, rename)
    if isinstance(a, sx.Assign):
        return _expr_match(a.target, b.target, rename) and _expr_match(a.value, b.value, rename)
    if isinstance(a, sx.ExprStmt):
        return _expr_match(a.expr, b.expr, rename)
    if isinstance(a, sx.Return):
        return _opt_expr_match(a.value, b.value, rename)
    if isinstance(a, sx.If):
        if not _expr_match(a.cond, b.cond, rename):
            return False
        if not _block_match(a.then_block, b.then_block, rename):
            return False
        if (a.else_block is None) != (b.else_block is None):
            return False
        return a.else_block is None or _block_match(a.else_block, b.else_block, rename)
    if isinstance(a, sx.While):
        return _expr_match(a.cond, b.cond, rename) and _block_match(a.body, b.body, rename)
    if isinstance(a, sx.Try):
        if (a.catch_type, a.finally_block is None, a.catch_block is None) != (
            b.catch_type,
            b.finally_block is None,
            b.catch_block is None,
        ):
            return False
        if not _block_match(a.body, b.body, rename):
            return False
        if a.catch_block is not None:
            rename[a.catch_name or ""] = b.catch_name or ""
            if not _block_match(a.catch_block, b.catch_block, rename):
                return False
        if a.finally_block is not None and not _block_match(a.finally_block, b.finally_block, rename):
            return False
        return True
    return a == b


def _opt_expr_match(a, b, rename) -> bool:
    if (a is None) != (b is None):
        return False
    return a is None or _expr_match(a, b, rename)


def _expr_match(a: sx.Expr, b: sx.Expr, rename: dict[str, str]) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, sx.VarRef):
        return rename.get(a.name, a.name) == b.name
    if isinstance(a, sx.New):
        return (
            a.class_name == b.class_name
            and len(a.args) == len(b.args)
            and all(_expr_match(x, y, rename) for x, y in zip(a.args, b.args))
        )
    if isinstance(a, sx.Call):
        return (
            a.method == b.method
            and _expr_match(a.receiver, b.receiver, rename)
            and len(a.args) == len(b.args)
            and all(_expr_match(x, y, rename) for x, y in zip(a.args, b.args))
        )
    if isinstance(a, sx.FieldRef):
        return a.name == b.name and _expr_match(a.receiver, b.receiver, rename)
    if isinstance(a, sx.Eq):
        return a.negated == b.negated and _expr_match(a.lhs, b.lhs, rename) and _expr_match(a.rhs, b.rhs, rename)
    return a == b
