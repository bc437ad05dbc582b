"""Tree-walking MiniJ interpreter and patch validation.

Library resources have synthetic observable behavior: constructors open,
must-call methods close (idempotently, cascading into absorbed pass-through
constructor arguments), and every other library method checks open-ness and
emits a stdout event. The run report is the ground-truth leak oracle: every
resource instance still open at termination is a leaked site.

Event grammar (one line each):
    [open] Class@s<site>
    [close] Class@s<site>
    Class@s<site>.method(arg, ...)
    [trace] Exception

Close-event lines are elided when comparing pre/post-repair output, since
repairs add close calls by design.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection
from dataclasses import dataclass
from typing import Optional

from . import syntax as sx
from .checker import reject_final_writes
from .errors import NoSingleMain
from .libspec import LibrarySpec
from .memo import ProgramOrVersion, version_of
from .parser import parse
from .printer import pretty_print

DEFAULT_STEP_LIMIT = 100_000
# nested user calls (methods and constructors) and instance-field
# initializers before a run stops with RuntimeError(StackOverflow); each
# level takes a few Python frames, so this stays well inside Python's default
# recursion limit of 1000
MAX_CALL_DEPTH = 64

COMPLETED = "Completed"
STEP_LIMIT_EXCEEDED = "StepLimitExceeded"


@dataclass(frozen=True)
class RuntimeReport:
    leaked_sites: tuple[int, ...]  # multiset, sorted
    use_after_close: tuple[tuple[int, str, int], ...]  # (site, method, step)
    stdout: tuple[str, ...]
    status: str  # Completed | StepLimitExceeded | RuntimeError(<kind>)

    def to_json(self) -> dict:
        return {
            "leaked": list(self.leaked_sites),
            "useAfterClose": [{"site": s, "method": m, "step": i} for (s, m, i) in self.use_after_close],
            "stdout": list(self.stdout),
            "status": self.status,
        }

    def stdout_without_close_events(self) -> tuple[str, ...]:
        return tuple(line for line in self.stdout if not line.startswith("[close] "))


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class MiniJRuntimeError(Exception):
    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind


class _StepLimit(Exception):
    pass


class VRes:
    """A library resource instance."""

    __slots__ = ("class_name", "site", "open", "absorbed", "oid")

    def __init__(self, class_name: str, site: int, oid: int):
        self.class_name = class_name
        self.site = site
        self.open = True
        self.absorbed: list[VRes] = []
        self.oid = oid

    def render(self) -> str:
        return f"{self.class_name}@s{self.site}"


class VObj:
    """A user-class instance."""

    __slots__ = ("class_name", "fields", "oid")

    def __init__(self, class_name: str, oid: int):
        self.class_name = class_name
        self.fields: dict[str, object] = {}
        self.oid = oid

    def render(self) -> str:
        return f"{self.class_name}#{self.oid}"


class VOpaque:
    __slots__ = ("oid",)

    def __init__(self, oid: int):
        self.oid = oid

    def render(self) -> str:
        return f"opaque#{self.oid}"


class VExc:
    __slots__ = ()

    def render(self) -> str:
        return "Exception"


def _render(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return f'"{v}"'
    return v.render()


class _Env:
    def __init__(self, parent: Optional["_Env"] = None):
        self.parent = parent
        self.vars: dict[str, object] = {}

    def lookup(self, name: str):
        env: Optional[_Env] = self
        while env is not None:
            if name in env.vars:
                return env, env.vars[name]
            env = env.parent
        return None, None

    def has(self, name: str) -> bool:
        env, _ = self.lookup(name)
        return env is not None

    def set_existing(self, name: str, value) -> bool:
        env: Optional[_Env] = self
        while env is not None:
            if name in env.vars:
                env.vars[name] = value
                return True
            env = env.parent
        return False

    def declare(self, name: str, value) -> None:
        self.vars[name] = value


class Interpreter:
    def __init__(self, program: sx.Program, libspec: LibrarySpec, step_limit: int = DEFAULT_STEP_LIMIT):
        self.program = program
        self.libspec = libspec
        self.step_limit = step_limit
        self.steps = 0
        self.stdout: list[str] = []
        self.resources: list[VRes] = []
        self.use_after_close: list[tuple[int, str, int]] = []
        self.statics: dict[tuple[str, str], object] = {}
        self.oid_counter = 0
        self.call_depth = 0

    # --- plumbing ---

    def tick(self) -> None:
        self.steps += 1
        if self.steps > self.step_limit:
            raise _StepLimit()

    def next_oid(self) -> int:
        self.oid_counter += 1
        return self.oid_counter

    def emit(self, line: str) -> None:
        self.stdout.append(line)

    # --- top level ---

    def run_main(self) -> RuntimeReport:
        mains = static_mains(self.program)
        if len(mains) != 1:
            raise NoSingleMain(f"program must have exactly one static main, found {len(mains)}")
        status = COMPLETED
        try:
            self._init_statics()
            cls, main = mains[0]
            self.exec_block(main.body, _Env(), this=None, cls=cls)
        except _Return:
            pass
        except _StepLimit:
            status = STEP_LIMIT_EXCEEDED
        except MiniJRuntimeError as e:
            status = f"RuntimeError({e.kind})"
        leaked = tuple(sorted(r.site for r in self.resources if r.open))
        return RuntimeReport(
            leaked_sites=leaked,
            use_after_close=tuple(self.use_after_close),
            stdout=tuple(self.stdout),
            status=status,
        )

    def _init_statics(self) -> None:
        for cls in self.program.classes:
            for fld in cls.fields:
                if fld.has("static"):
                    value = self.eval_expr(fld.initializer, _Env(), None, cls) if fld.initializer is not None else None
                    self.statics[(cls.name, fld.name)] = value

    # --- statements ---

    def exec_block(self, block: sx.Block, env: _Env, this, cls: sx.ClassDecl) -> None:
        inner = _Env(env)
        for stmt in block.stmts:
            self.exec_stmt(stmt, inner, this, cls)

    def exec_stmt(self, stmt: sx.Stmt, env: _Env, this, cls: sx.ClassDecl) -> None:
        self.tick()
        if isinstance(stmt, sx.LocalDecl):
            value = self.eval_expr(stmt.init, env, this, cls) if stmt.init is not None else None
            env.declare(stmt.name, value)
        elif isinstance(stmt, sx.Assign):
            value = self.eval_expr(stmt.value, env, this, cls)
            self.assign(stmt.target, value, env, this, cls)
        elif isinstance(stmt, sx.ExprStmt):
            self.eval_expr(stmt.expr, env, this, cls)
        elif isinstance(stmt, sx.If):
            if self.truthy(stmt.cond, env, this, cls):
                self.exec_block(stmt.then_block, env, this, cls)
            elif stmt.else_block is not None:
                self.exec_block(stmt.else_block, env, this, cls)
        elif isinstance(stmt, sx.While):
            while self.truthy(stmt.cond, env, this, cls):
                self.exec_block(stmt.body, env, this, cls)
        elif isinstance(stmt, sx.Try):
            # nothing in MiniJ throws a catchable exception at run time, so the
            # body runs, the catch is dead, and the finally always runs
            try:
                self.exec_block(stmt.body, env, this, cls)
            finally:
                if stmt.finally_block is not None:
                    self.exec_block(stmt.finally_block, env, this, cls)
        elif isinstance(stmt, sx.Return):
            value = self.eval_expr(stmt.value, env, this, cls) if stmt.value is not None else None
            raise _Return(value)
        else:  # pragma: no cover
            raise AssertionError(f"unexecutable statement {stmt!r}")

    def assign(self, target, value, env: _Env, this, cls: sx.ClassDecl) -> None:
        if isinstance(target, sx.VarRef):
            if env.set_existing(target.name, value):
                return
            if this is not None and this.fields is not None and target.name in this.fields:
                this.fields[target.name] = value
                return
            fld = cls.field_named(target.name)
            if fld is not None and fld.has("static"):
                self.statics[(cls.name, target.name)] = value
                return
            if fld is not None and this is not None:
                this.fields[target.name] = value
                return
            raise MiniJRuntimeError("UnboundName", target.name)
        if isinstance(target, sx.FieldRef):
            recv = target.receiver
            if isinstance(recv, sx.VarRef) and not env.has(recv.name) and self.program.class_named(recv.name):
                self.statics[(recv.name, target.name)] = value
                return
            obj = self.eval_expr(recv, env, this, cls)
            if obj is None:
                raise MiniJRuntimeError("NullDereference", target.name)
            if not isinstance(obj, VObj):
                raise MiniJRuntimeError("TypeError", f"field store on {_render(obj)}")
            obj.fields[target.name] = value
            return
        raise MiniJRuntimeError("TypeError", "bad assignment target")

    def truthy(self, cond: sx.Expr, env: _Env, this, cls: sx.ClassDecl) -> bool:
        if isinstance(cond, sx.Eq):
            lhs = self.eval_expr(cond.lhs, env, this, cls)
            rhs = self.eval_expr(cond.rhs, env, this, cls)
            eq = self.values_equal(lhs, rhs)
            return not eq if cond.negated else eq
        return self.eval_expr(cond, env, this, cls) is not None

    @staticmethod
    def values_equal(a, b) -> bool:
        if a is None or b is None:
            return a is None and b is None
        if isinstance(a, (int, str)) and isinstance(b, (int, str)):
            return a == b
        return a is b

    # --- expressions ---

    def eval_expr(self, expr: sx.Expr, env: _Env, this, cls: sx.ClassDecl):
        self.tick()
        if isinstance(expr, sx.NullLit):
            return None
        if isinstance(expr, sx.IntLit):
            return expr.value
        if isinstance(expr, sx.StrLit):
            return expr.value
        if isinstance(expr, sx.VarRef):
            if expr.name == "this":
                if this is None:
                    raise MiniJRuntimeError("UnboundName", "this in static context")
                return this
            env_hit, v = env.lookup(expr.name)
            if env_hit is not None:
                return v
            if this is not None and expr.name in this.fields:
                return this.fields[expr.name]
            fld = cls.field_named(expr.name)
            if fld is not None and fld.has("static"):
                return self.statics.get((cls.name, expr.name))
            if fld is not None and this is not None:
                return this.fields.get(expr.name)
            raise MiniJRuntimeError("UnboundName", expr.name)
        if isinstance(expr, sx.FieldRef):
            recv = expr.receiver
            if isinstance(recv, sx.VarRef) and not env.has(recv.name) and recv.name != "this":
                owner = self.program.class_named(recv.name)
                if owner is not None:
                    return self.statics.get((recv.name, expr.name))
            obj = self.eval_expr(recv, env, this, cls)
            if obj is None:
                raise MiniJRuntimeError("NullDereference", expr.name)
            if isinstance(obj, VObj):
                return obj.fields.get(expr.name)
            raise MiniJRuntimeError("TypeError", f"field read on {_render(obj)}")
        if isinstance(expr, sx.New):
            return self.eval_new(expr, env, this, cls)
        if isinstance(expr, sx.Call):
            return self.eval_call(expr, env, this, cls)
        if isinstance(expr, sx.Eq):
            raise MiniJRuntimeError("TypeError", "equality outside a condition")
        raise AssertionError(f"unevaluable expression {expr!r}")  # pragma: no cover

    def eval_new(self, expr: sx.New, env: _Env, this, cls: sx.ClassDecl):
        args = [self.eval_expr(a, env, this, cls) for a in expr.args]
        user = self.program.class_named(expr.class_name)
        if user is not None:
            obj = VObj(expr.class_name, self.next_oid())
            for fld in user.fields:
                if fld.has("static"):
                    continue
                obj.fields[fld.name] = self._init_field(user, fld, obj) if fld.initializer is not None else None
            ctor = user.constructor(len(args))
            if ctor is None:
                if args or user.constructors:
                    raise MiniJRuntimeError("NoSuchConstructor", f"{expr.class_name}/{len(args)}")
                return obj  # implicit default constructor
            self.invoke_user(user, ctor, obj, args)
            return obj
        if self.libspec.has_class(expr.class_name):
            entry = self.libspec.entries[expr.class_name]
            res = VRes(expr.class_name, expr.site, self.next_oid())
            tracked = bool(entry.must_call)
            if tracked:
                self.resources.append(res)
                self.emit(f"[open] {res.render()}")
            else:
                res.open = False  # not a leak-tracked resource (no obligations)
            ctor = entry.ctor()
            if ctor is not None:
                for own, v in zip(ctor.param_ownership, args):
                    if own == "owning" and isinstance(v, VRes):
                        res.absorbed.append(v)
            return res
        if expr.class_name == "Exception":
            return VExc()
        raise MiniJRuntimeError("UnknownClass", expr.class_name)

    def eval_call(self, expr: sx.Call, env: _Env, this, cls: sx.ClassDecl):
        recv = expr.receiver
        # static dispatch: Class.method(...)
        if isinstance(recv, sx.VarRef) and not env.has(recv.name) and recv.name != "this":
            owner = self.program.class_named(recv.name)
            if owner is not None:
                meth = owner.method_named(expr.method)
                if meth is None or not meth.is_static:
                    raise MiniJRuntimeError("NoSuchMethod", f"{recv.name}.{expr.method}")
                args = [self.eval_expr(a, env, this, cls) for a in expr.args]
                return self.invoke_user(owner, meth, None, args)
        obj = self.eval_expr(recv, env, this, cls)
        args = [self.eval_expr(a, env, this, cls) for a in expr.args]
        if obj is None:
            raise MiniJRuntimeError("NullDereference", expr.method)
        if isinstance(obj, VObj):
            owner = self.program.class_named(obj.class_name)
            meth = owner.method_named(expr.method) if owner else None
            if meth is None:
                raise MiniJRuntimeError("NoSuchMethod", f"{obj.class_name}.{expr.method}")
            return self.invoke_user(owner, meth, obj, args)
        if isinstance(obj, VRes):
            return self.invoke_library(obj, expr.method, args)
        if isinstance(obj, VExc):
            if expr.method == "printStackTrace":
                self.emit("[trace] Exception")
                return None
            raise MiniJRuntimeError("NoSuchMethod", f"Exception.{expr.method}")
        raise MiniJRuntimeError("TypeError", f"call on {_render(obj)}")

    def _init_field(self, owner: sx.ClassDecl, fld: sx.FieldDecl, obj: VObj):
        """An instance field's initializer, evaluated as one nesting level like
        a call, so that a class whose initializer allocates the class stops
        with StackOverflow."""
        if self.call_depth >= MAX_CALL_DEPTH:
            raise MiniJRuntimeError("StackOverflow", f"{owner.name}.{fld.name}")
        self.call_depth += 1
        try:
            return self.eval_expr(fld.initializer, _Env(), obj, owner)
        finally:
            self.call_depth -= 1

    def invoke_user(self, owner: sx.ClassDecl, meth: sx.MethodDecl, this, args):
        if len(args) != len(meth.params):
            raise MiniJRuntimeError("ArityMismatch", f"{owner.name}.{meth.name}")
        if self.call_depth >= MAX_CALL_DEPTH:
            raise MiniJRuntimeError("StackOverflow", f"{owner.name}.{meth.name}")
        frame = _Env()
        for p, v in zip(meth.params, args):
            frame.declare(p.name, v)
        self.call_depth += 1
        try:
            self.exec_block(meth.body, frame, this, owner)
        except _Return as r:
            return r.value
        finally:
            self.call_depth -= 1
        return None

    def invoke_library(self, res: VRes, method: str, args):
        entry = self.libspec.entries[res.class_name]
        lm = entry.methods.get(method)
        if lm is None:
            raise MiniJRuntimeError("NoSuchMethod", f"{res.class_name}.{method}")
        if method in entry.must_call:
            self.close_resource(res)
            return None
        if entry.must_call and not res.open:
            self.use_after_close.append((res.site, method, self.steps))
        rendered = ", ".join(_render(a) for a in args)
        self.emit(f"{res.render()}.{method}({rendered})")
        if lm.return_ownership == "void":
            return None
        return VOpaque(self.next_oid())

    def close_resource(self, res: VRes) -> None:
        self.emit(f"[close] {res.render()}")
        if not res.open:
            return  # idempotent
        res.open = False
        for inner in res.absorbed:
            self.close_resource(inner)


def run(program: sx.Program, libspec: LibrarySpec, step_limit: int = DEFAULT_STEP_LIMIT) -> RuntimeReport:
    """Interpret the program's static main; deterministic for a fixed input.
    Raises NoSingleMain unless `has_main(program)`."""
    return Interpreter(program, libspec, step_limit).run_main()


def static_mains(program: sx.Program) -> list[tuple[sx.ClassDecl, sx.MethodDecl]]:
    """Every `static void main()` of the program, with its class."""
    return [
        (cls, m) for cls in program.classes for m in cls.methods if m.name == "main" and m.is_static and not m.params
    ]


def has_main(program: sx.Program) -> bool:
    """Whether the program has exactly one `static void main()`, the one `run` interprets."""
    return len(static_mains(program)) == 1


# --- patch validation ---------------------------------------------------------


@dataclass(frozen=True)
class ValidationVerdict:
    ok: bool
    failures: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return "Pass" if self.ok else f"Fail({'; '.join(self.failures)})"

    def to_json(self) -> dict:
        return {"verdict": self.label, "ok": self.ok, "failures": list(self.failures)}


def validate_patch(
    original: sx.Program,
    patched: ProgramOrVersion,
    libspec: LibrarySpec,
    surviving: Collection[str] = (),
    patched_text: Optional[str] = None,
) -> ValidationVerdict:
    """Static + dynamic patch gate; it judges, and analyses only final writes.

    Pass iff (a) `patched_text`, the canonical print of `patched` (printed
    here when not given), reparses and prints back to itself, and
    reject_final_writes on `patched` is clean, (b) `surviving`, the fixed
    warning ids the fix loop's re-check of `patched` still reports, is
    empty, and (c) when the original has one static main, the reparsed
    patch's run adds no use-after-close (site, method) event and leaks no
    site beyond the original's run (each a multiset subset), and prints the
    same close-elided output, each run within `DEFAULT_STEP_LIMIT` steps.

    The reparse is the parse and printer-fixpoint gate: a patch that passes
    it is the program its text describes, so the re-check and the final-write
    gate hold for `patched` itself, the version the fix loop analysed (handed
    in as a `ProgramVersion`, or taken here of a bare program).
    """
    version = version_of(patched, libspec)
    patched = version.program
    text = pretty_print(patched) if patched_text is None else patched_text
    try:
        reparsed = parse(text, patched.source_name)
    except Exception as e:  # noqa: BLE001 - any parse failure is a verdict, not a crash
        return ValidationVerdict(ok=False, failures=(f"Reparse:{e}",))
    if pretty_print(reparsed) != text:
        return ValidationVerdict(ok=False, failures=("Reparse:the printed patch does not print back to itself",))
    failures: list[str] = []
    errs = reject_final_writes(version, libspec)
    if errs:
        failures.append(f"FinalWrites:{len(errs)}")
    if surviving:
        failures.append(f"WarningSurvives:{','.join(sorted(surviving))}")
    if has_main(original):
        before = run(original, libspec)
        after = run(reparsed, libspec)
        if before.status == STEP_LIMIT_EXCEEDED or after.status == STEP_LIMIT_EXCEEDED:
            failures.append("StepLimit")
        else:
            if not _multiset_subset(_uses(after), _uses(before)):
                failures.append("UseAfterClose")
            if not _multiset_subset(after.leaked_sites, before.leaked_sites):
                failures.append("LeaksIncreased")
            if after.stdout_without_close_events() != before.stdout_without_close_events():
                failures.append("OutputChanged")
            if after.status != before.status:
                failures.append(f"StatusChanged:{before.status}->{after.status}")
    return ValidationVerdict(ok=not failures, failures=tuple(failures))


def _uses(report: RuntimeReport) -> tuple[tuple[int, str], ...]:
    """A run's use-after-close events as (site, method), without their step."""
    return tuple((site, method) for site, method, _step in report.use_after_close)


def _multiset_subset(smaller: tuple, larger: tuple) -> bool:
    cs, cl = Counter(smaller), Counter(larger)
    return all(cs[k] <= cl[k] for k in cs)
