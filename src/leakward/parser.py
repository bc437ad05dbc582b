"""MiniJ lexer and recursive-descent parser.

Grammar (see README for the full EBNF):

    program   := classdecl*
    classdecl := ann* "class" ID ("implements" ID)? "{" member* "}"
    member    := fielddecl | ctor | method
    stmt      := localdecl | assign | exprstmt | if | while | try | return
    expr      := unary (("==" | "!=") unary)?        -- Eq only in conditions
    unary     := primary ("." ID ("(" args ")")?)*
    primary   := "new" ID "(" args ")" | ID | "null" | INT | STRING

Allocation sites are numbered from a deterministic counter in parse order, so
site ids are stable across pretty-print round trips.

Blocks and expressions nest at most MAX_NESTING levels deep; a deeper program
is a SyntaxError.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import syntax as sx
from .errors import DuplicateName, SyntaxError

KEYWORDS = {
    "class",
    "implements",
    "new",
    "null",
    "if",
    "else",
    "while",
    "try",
    "catch",
    "finally",
    "return",
    "void",
    "private",
    "public",
    "static",
    "final",
}

# Every pass over the AST recurses on its nesting: lowering, printing, the
# interpreter, deepcopy and the memo's pickle. Past this depth of blocks
# and expressions together a file fails to parse, where it would otherwise
# raise RecursionError later and take down the whole batch.
MAX_NESTING = 64

PUNCT = ("==", "!=", "{", "}", "(", ")", ";", ",", ".", "=", "@")

MODIFIER_WORDS = ("public", "private", "static", "final")


@dataclass
class Token:
    kind: str  # ID, KW, INT, STRING, punct literal, EOF
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise SyntaxError("unterminated block comment", line, col)
            skipped = source[i : end + 2]
            nl = skipped.count("\n")
            if nl:
                line += nl
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = end + 2
            continue
        if c == '"':
            j = i + 1
            buf = []
            while j < n and source[j] != '"':
                if source[j] == "\\":
                    if j + 1 >= n:
                        raise SyntaxError("unterminated string", line, col)
                    esc = source[j + 1]
                    buf.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, esc))
                    j += 2
                elif source[j] == "\n":
                    raise SyntaxError("newline in string literal", line, col)
                else:
                    buf.append(source[j])
                    j += 1
            if j >= n:
                raise SyntaxError("unterminated string", line, col)
            toks.append(Token("STRING", "".join(buf), line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            toks.append(Token("INT", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            toks.append(Token("KW" if word in KEYWORDS else "ID", word, line, col))
            col += j - i
            i = j
            continue
        matched = False
        for p in PUNCT:
            if source.startswith(p, i):
                toks.append(Token(p, p, line, col))
                i += len(p)
                col += len(p)
                matched = True
                break
        if not matched:
            raise SyntaxError(f"unexpected character {c!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


class Parser:
    def __init__(self, source: str, source_name: str = "<memory>"):
        self.toks = tokenize(source)
        self.pos = 0
        self.program = sx.Program(classes=[], source_name=source_name, source_text=source)
        self.site_counter = 0
        self.depth = 0  # blocks and expressions open around the current token

    # --- token plumbing ---

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def at(self, kind: str, text: str | None = None, ahead: int = 0) -> bool:
        t = self.peek(ahead)
        return t.kind == kind and (text is None or t.text == text)

    def take(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise SyntaxError(f"expected {want!r}, found {t.text or t.kind!r}", t.line, t.col)
        return self.take()

    def note(self, node: sx.Node, tok: Token) -> None:
        self.program.set_pos(node, tok.line, tok.col)

    def nest(self, tok: Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise SyntaxError(f"blocks and expressions nest more than {MAX_NESTING} deep", tok.line, tok.col)

    # --- productions ---

    def parse_program(self) -> sx.Program:
        seen: set[str] = set()
        while not self.at("EOF"):
            cls = self.parse_class()
            if cls.name in seen:
                raise DuplicateName(f"duplicate class {cls.name}")
            seen.add(cls.name)
            self.program.classes.append(cls)
        return self.program

    def parse_annotations(self) -> list[sx.Annotation]:
        anns: list[sx.Annotation] = []
        while self.at("@"):
            at = self.take()
            name_tok = self.expect("ID")
            kind = name_tok.text
            if kind not in sx.ANNOTATION_KINDS:
                raise SyntaxError(f"unknown annotation @{kind}", name_tok.line, name_tok.col)
            methods: tuple[str, ...] = ()
            target_field = None
            if self.at("("):
                self.take()
                if kind == sx.ENSURES_CALLED_METHODS:
                    self.expect("ID", "value")
                    self.expect("=")
                    target_field = self.expect("STRING").text
                    self.expect(",")
                    self.expect("ID", "methods")
                    self.expect("=")
                    names = [self.expect("STRING").text]
                    while self.at(","):
                        self.take()
                        names.append(self.expect("STRING").text)
                    methods = tuple(names)
                else:
                    names = []
                    if not self.at(")"):
                        names.append(self.expect("STRING").text)
                        while self.at(","):
                            self.take()
                            names.append(self.expect("STRING").text)
                    methods = tuple(names)
                self.expect(")")
            if kind == sx.MUST_CALL and not methods:
                raise SyntaxError("@MustCall needs at least one method name", at.line, at.col)
            if kind == sx.ENSURES_CALLED_METHODS and target_field is None:
                raise SyntaxError("@EnsuresCalledMethods needs value= and methods=", at.line, at.col)
            if kind in (sx.OWNING, sx.NOT_OWNING) and (methods or target_field):
                raise SyntaxError(f"@{kind} takes no arguments", at.line, at.col)
            ann = sx.Annotation(kind=kind, methods=methods, target_field=target_field)
            self.note(ann, at)
            anns.append(ann)
        return anns

    def parse_class(self) -> sx.ClassDecl:
        anns = self.parse_annotations()
        for a in anns:
            if a.kind != sx.MUST_CALL:
                t = self.peek()
                raise SyntaxError(f"only @MustCall is legal on a class, not @{a.kind}", t.line, t.col)
        kw = self.expect("KW", "class")
        name = self.expect("ID").text
        implements = None
        if self.at("KW", "implements"):
            self.take()
            implements = self.expect("ID").text
        self.expect("{")
        cls = sx.ClassDecl(name=name, implements=implements, annotations=anns, fields=[], constructors=[], methods=[])
        self.note(cls, kw)
        field_names: set[str] = set()
        method_names: set[str] = set()
        ctor_arities: set[int] = set()
        while not self.at("}"):
            member_anns = self.parse_annotations()
            start = self.peek()
            modifiers: list[str] = []
            while self.at("KW") and self.peek().text in MODIFIER_WORDS:
                modifiers.append(self.take().text)
            if self.at("ID", name) and self.at("(", ahead=1):
                self.take()  # constructor name
                ctor = self.parse_method_rest("", name, member_anns, tuple(modifiers), start)
                if len(ctor.params) in ctor_arities:
                    raise DuplicateName(f"duplicate constructor arity {len(ctor.params)} in {name}")
                ctor_arities.add(len(ctor.params))
                cls.constructors.append(ctor)
                continue
            if self.at("KW", "void") or (self.at("ID") and self.at("ID", ahead=1) and self.at("(", ahead=2)):
                ret = self.take().text
                mname = self.expect("ID").text
                if mname in method_names:
                    raise DuplicateName(f"duplicate method {name}.{mname}")
                method_names.add(mname)
                cls.methods.append(self.parse_method_rest(ret, mname, member_anns, tuple(modifiers), start))
                continue
            # fielddecl: type name ("=" expr)? ";"
            ftype = self.expect("ID").text
            fname = self.expect("ID").text
            if fname in field_names:
                raise DuplicateName(f"duplicate field {name}.{fname}")
            field_names.add(fname)
            init = None
            if self.at("="):
                self.take()
                init = self.parse_expr()
            self.expect(";")
            for a in member_anns:
                if a.kind not in (sx.OWNING, sx.NOT_OWNING):
                    raise SyntaxError(f"@{a.kind} is not legal on a field", start.line, start.col)
            if "public" in modifiers:
                raise SyntaxError("fields cannot be public", start.line, start.col)
            fld = sx.FieldDecl(
                name=fname,
                declared_type=ftype,
                modifiers=tuple(modifiers),
                initializer=init,
                annotations=member_anns,
            )
            self.note(fld, start)
            cls.fields.append(fld)
        self.expect("}")
        return cls

    def parse_method_rest(
        self,
        return_type: str,
        name: str,
        anns: list[sx.Annotation],
        modifiers: tuple[str, ...],
        start: Token,
    ) -> sx.MethodDecl:
        """Parse params and body; the name (and return type) tokens are already consumed."""
        for a in anns:
            if a.kind == sx.MUST_CALL:
                raise SyntaxError("@MustCall is not legal on a method", start.line, start.col)
        if "final" in modifiers:
            raise SyntaxError("final is not a method modifier", start.line, start.col)
        self.expect("(")
        params: list[sx.Param] = []
        seen: set[str] = set()
        while not self.at(")"):
            if params:
                self.expect(",")
            p_anns = self.parse_annotations()
            for a in p_anns:
                if a.kind not in (sx.OWNING, sx.NOT_OWNING):
                    t = self.peek()
                    raise SyntaxError(f"@{a.kind} is not legal on a parameter", t.line, t.col)
            ptok = self.peek()
            ptype = self.expect("ID").text
            pname = self.expect("ID").text
            if pname in seen:
                raise DuplicateName(f"duplicate parameter {pname} in {name}")
            seen.add(pname)
            param = sx.Param(type_name=ptype, name=pname, annotations=p_anns)
            self.note(param, ptok)
            params.append(param)
        self.expect(")")
        body = self.parse_block()
        meth = sx.MethodDecl(
            name=name, params=params, return_type=return_type, body=body, annotations=anns, modifiers=modifiers
        )
        self.note(meth, start)
        self._check_returns(meth)
        return meth

    def _check_returns(self, meth: sx.MethodDecl) -> None:
        for s in sx.walk_stmts(meth.body):
            if isinstance(s, sx.Return):
                line, col = self.program.pos_of(s.nid)
                if meth.return_type in ("void", "") and s.value is not None:
                    raise SyntaxError(f"{meth.name} cannot return a value", line, col)
                if meth.return_type not in ("void", "") and s.value is None:
                    raise SyntaxError(f"method {meth.name} must return a value", line, col)

    def parse_block(self) -> sx.Block:
        open_tok = self.expect("{")
        self.nest(open_tok)
        stmts: list[sx.Stmt] = []
        while not self.at("}"):
            stmts.append(self.parse_stmt())
        self.expect("}")
        self.depth -= 1
        blk = sx.Block(stmts=stmts)
        self.note(blk, open_tok)
        return blk

    def parse_stmt(self) -> sx.Stmt:
        t = self.peek()
        if self.at("KW", "if"):
            self.take()
            self.expect("(")
            cond = self.parse_expr(allow_eq=True)
            self.expect(")")
            then_block = self.parse_block()
            else_block = None
            if self.at("KW", "else"):
                self.take()
                else_block = self.parse_block()
            node: sx.Stmt = sx.If(cond=cond, then_block=then_block, else_block=else_block)
            self.note(node, t)
            return node
        if self.at("KW", "while"):
            self.take()
            self.expect("(")
            cond = self.parse_expr(allow_eq=True)
            self.expect(")")
            body = self.parse_block()
            node = sx.While(cond=cond, body=body)
            self.note(node, t)
            return node
        if self.at("KW", "try"):
            self.take()
            body = self.parse_block()
            catch_type = catch_name = None
            catch_block = finally_block = None
            if self.at("KW", "catch"):
                self.take()
                self.expect("(")
                catch_type = self.expect("ID").text
                catch_name = self.expect("ID").text
                self.expect(")")
                catch_block = self.parse_block()
            if self.at("KW", "finally"):
                self.take()
                finally_block = self.parse_block()
            if catch_block is None and finally_block is None:
                raise SyntaxError("try needs a catch or a finally", t.line, t.col)
            node = sx.Try(
                body=body,
                catch_type=catch_type,
                catch_name=catch_name,
                catch_block=catch_block,
                finally_block=finally_block,
            )
            self.note(node, t)
            return node
        if self.at("KW", "return"):
            self.take()
            value = None
            if not self.at(";"):
                value = self.parse_expr()
            self.expect(";")
            node = sx.Return(value=value)
            self.note(node, t)
            return node
        # localdecl: ID ID ("=" expr)? ";"
        if self.at("ID") and self.at("ID", ahead=1) and (self.at("=", ahead=2) or self.at(";", ahead=2)):
            type_name = self.take().text
            name = self.take().text
            init = None
            if self.at("="):
                self.take()
                init = self.parse_expr()
            self.expect(";")
            node = sx.LocalDecl(type_name=type_name, name=name, init=init)
            self.note(node, t)
            return node
        expr = self.parse_expr()
        if self.at("="):
            if not isinstance(expr, (sx.VarRef, sx.FieldRef)):
                raise SyntaxError("assignment target must be a variable or field", t.line, t.col)
            self.take()
            value = self.parse_expr()
            self.expect(";")
            node = sx.Assign(target=expr, value=value)
            self.note(node, t)
            return node
        self.expect(";")
        node = sx.ExprStmt(expr=expr)
        self.note(node, t)
        return node

    def parse_expr(self, allow_eq: bool = False) -> sx.Expr:
        t = self.peek()
        self.nest(t)
        expr = self.parse_unary()
        if self.at("==") or self.at("!="):
            if not allow_eq:
                op = self.peek()
                raise SyntaxError("equality tests are only legal as if/while conditions", op.line, op.col)
            negated = self.take().text == "!="
            rhs = self.parse_unary()
            expr = sx.Eq(lhs=expr, rhs=rhs, negated=negated)
            self.note(expr, t)
        self.depth -= 1
        return expr

    def parse_unary(self) -> sx.Expr:
        expr = self.parse_primary()
        links = 0  # each `.` wraps the expression so far one level deeper
        while self.at("."):
            dot = self.take()
            self.nest(dot)
            links += 1
            name = self.expect("ID").text
            if self.at("("):
                self.take()
                args: list[sx.Expr] = []
                while not self.at(")"):
                    if args:
                        self.expect(",")
                    args.append(self.parse_expr())
                self.expect(")")
                node: sx.Expr = sx.Call(receiver=expr, method=name, args=args)
            else:
                node = sx.FieldRef(receiver=expr, name=name)
            self.note(node, dot)
            expr = node
        self.depth -= links
        return expr

    def parse_primary(self) -> sx.Expr:
        t = self.peek()
        if self.at("KW", "new"):
            self.take()
            cname = self.expect("ID").text
            self.expect("(")
            args: list[sx.Expr] = []
            while not self.at(")"):
                if args:
                    self.expect(",")
                args.append(self.parse_expr())
            self.expect(")")
            self.site_counter += 1
            node: sx.Expr = sx.New(class_name=cname, args=args, site=self.site_counter)
            self.note(node, t)
            return node
        if self.at("KW", "null"):
            self.take()
            node = sx.NullLit()
            self.note(node, t)
            return node
        if self.at("INT"):
            node = sx.IntLit(value=int(self.take().text))
            self.note(node, t)
            return node
        if self.at("STRING"):
            node = sx.StrLit(value=self.take().text)
            self.note(node, t)
            return node
        if self.at("ID"):
            node = sx.VarRef(name=self.take().text)
            self.note(node, t)
            return node
        raise SyntaxError(f"expected an expression, found {t.text or t.kind!r}", t.line, t.col)


def nesting(node: sx.Node) -> int:
    """How many levels `Parser.nest` opens to read `node` back from its print,
    from the level the parser is at before it: one per block, one per
    expression, and one per `.` link of a call or field chain, around what
    follows the link."""
    if isinstance(node, sx.Block):
        return 1 + max((nesting(s) for s in node.stmts), default=0)
    if isinstance(node, sx.Expr):
        return 1 + _unary_nesting(node)[0]
    # a statement reads each of its blocks and expressions from its own level
    return max((nesting(part) for part in vars(node).values() if isinstance(part, sx.Node)), default=0)


def _unary_nesting(expr: sx.Expr) -> tuple[int, int]:
    """(levels below its expression, `.` links) of a unary or an `==` test."""
    if isinstance(expr, sx.Eq):
        return max(_unary_nesting(expr.lhs)[0], _unary_nesting(expr.rhs)[0]), 0
    if isinstance(expr, (sx.Call, sx.FieldRef)):
        inner, links = _unary_nesting(expr.receiver)
        links += 1
        args = expr.args if isinstance(expr, sx.Call) else []
        return max(inner, links + max((nesting(a) for a in args), default=0)), links
    if isinstance(expr, sx.New):
        return max((nesting(a) for a in expr.args), default=0), 0
    return 0, 0


def parse(source: str, source_name: str = "<memory>") -> sx.Program:
    """Parse MiniJ source into a Program with positions and numbered allocation sites."""
    return Parser(source, source_name).parse_program()
