"""MiniJ lexer and recursive-descent parser.

Grammar (see README for the full EBNF):

    program   := classdecl*
    classdecl := ann* "class" ID ("implements" ID)? "{" member* "}"
    member    := fielddecl | ctor | method
    stmt      := localdecl | assign | exprstmt | if | while | try | return
    expr      := unary (("==" | "!=") unary)?        -- Eq only in conditions
    unary     := primary ("." ID ("(" args ")")?)*
    primary   := "new" ID "(" args ")" | ID | "null" | INT | STRING

Lexical rules: an ID starts with a letter (`str.isalpha`) or `_` and goes on
with letters, digits (`str.isalnum`) and `_`; the words in KEYWORDS are KW
tokens. An INT is ASCII digits; any other digit is an unexpected character.
A STRING holds no raw newline. It reads `\\n`, `\\t`, `\\"` and `\\\\` as
escapes, and a backslash before any other character as that character.
`//` comments run to the end of the line, `/* */` comments to the first `*/`.
Space, tab, CR and LF separate tokens. A column counts characters from the
start of the line, so a tab is one column.

`tokenize` matches one compiled pattern once per token. Newlines are matched
too, so line and column come from where the last one ended; a word at the
start of a line shares its newline's match. `Parser` reads the tokens by
index from a list padded with EOF, and each production branches on the one
token it peeks.

Allocation sites are numbered from a deterministic counter in parse order, so
site ids are stable across pretty-print round trips.

Blocks and expressions nest at most MAX_NESTING levels deep; a deeper program
is a SyntaxError.
"""

from __future__ import annotations

import re

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
# interpreter and deepcopy, a pickle round trip. Past this depth of blocks
# and expressions together a file fails to parse, where it would otherwise
# raise RecursionError later and take down the whole batch.
MAX_NESTING = 64

PUNCT = ("==", "!=", "{", "}", "(", ")", ";", ",", ".", "=", "@")

MODIFIER_WORDS = ("public", "private", "static", "final")

# `Parser.toks` holds this many EOF tokens past the last one: the parser looks
# at most two tokens ahead, so it indexes the list without a bounds check.
LOOKAHEAD = 2


class Token:
    """One lexeme and where it starts."""

    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # ID, KW, INT, STRING, punct literal, EOF
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r}, {self.line}, {self.col})"


# A word or punctuation: the lexemes most tokens are, and the first on most lines.
_WORD_LEXEME = r"(?:[A-Za-z_]\w*|==|!=|[{}();,.=@])"
# what a string holds between its quotes: anything but a quote, a backslash or
# a newline, or a backslash and any one character
_STRING_BODY_LEXEME = r'[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*'
# One match per token. Blanks before it are skipped; then exactly one group
# matches: WORD; FIRST a word first on its line, after the NEWLINE that ends
# the line before; NL any other newline; STRING; INT; EOF the end, with any
# `//` comment on the last line, so its token takes the column after it;
# COMMENT; UWORD a word starting with a non-ASCII character, which may be a
# digit or numeral rather than a letter; OPEN a comment or string that never
# closes; BAD any other character.
_LEXEME = re.compile(
    r"[ \t\r]*"
    r"(?:(?P<WORD>" + _WORD_LEXEME + r")"
    r"|(?P<NEWLINE>\n)[ \t\r]*(?P<FIRST>" + _WORD_LEXEME + r")"
    r"|(?P<NL>\n)"
    r'|(?P<STRING>"' + _STRING_BODY_LEXEME + r'")'
    r"|(?P<INT>[0-9]+)"
    r"|(?P<EOF>(?://[^\n]*)?\Z)"
    r"|(?P<COMMENT>//[^\n]*|/\*[\s\S]*?\*/)"
    r"|(?P<UWORD>[^\W\d]\w*)"
    r'|(?P<OPEN>/\*|")'
    r"|(?P<BAD>[\s\S]))"
)
_WORD, _NEWLINE, _FIRST, _NL, _STRING, _INT, _EOF, _COMMENT, _UWORD, _OPEN = map(
    _LEXEME.groupindex.get, ("WORD", "NEWLINE", "FIRST", "NL", "STRING", "INT", "EOF", "COMMENT", "UWORD", "OPEN")
)
# the kind of each word that is not an ID
_WORD_KINDS = {**dict.fromkeys(KEYWORDS, "KW"), **{p: p for p in PUNCT}}
_STRING_BODY = re.compile(_STRING_BODY_LEXEME)
_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t"}


def tokenize(source: str) -> list[Token]:
    """One token per lexeme, then one EOF. A token's column counts characters
    from the start of its line; a newline escaped inside a string starts a
    line, as any other newline does."""
    toks: list[Token] = []
    append = toks.append
    word_kind = _WORD_KINDS.get
    line, line_start = 1, 0
    for m in _LEXEME.finditer(source):
        group = m.lastindex
        if group == _FIRST:
            line += 1
            line_start = m.end(_NEWLINE)
        if group == _WORD or group == _FIRST or group == _UWORD and m[group][0].isalpha():
            text = m[group]
            append(Token(word_kind(text, "ID"), text, line, m.start(group) - line_start + 1))
        elif group == _NL:
            line += 1
            line_start = m.end()
        elif group == _STRING:
            start, end = m.span(group)
            raw = source[start + 1 : end - 1]
            text = _ESCAPE.sub(_unescape, raw) if "\\" in raw else raw
            append(Token("STRING", text, line, start - line_start + 1))
            if "\n" in raw:  # escaped: a string holds no other newline
                line += raw.count("\n")
                line_start = start + raw.rfind("\n") + 2
        elif group == _INT:
            start, end = m.span(group)
            append(Token("INT", source[start:end], line, start - line_start + 1))
        elif group == _COMMENT:
            start, end = m.span(group)
            newlines = source.count("\n", start, end)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", start, end) + 1
        elif group == _EOF:
            break
        else:
            start = m.start(group)
            raise _lexical_error(source, group, start, line, start - line_start + 1)
    append(Token("EOF", "", line, m.end(_EOF) - line_start + 1))  # the last match is always EOF
    return toks


def _unescape(m: re.Match) -> str:
    return _ESCAPES.get(m[1], m[1])


def _lexical_error(source: str, group: int, start: int, line: int, col: int) -> SyntaxError:
    if group != _OPEN:
        return SyntaxError(f"unexpected character {source[start]!r}", line, col)
    if source[start] == "/":
        return SyntaxError("unterminated block comment", line, col)
    # the string stops at a raw newline, or at a backslash or nothing at the end
    stop = _STRING_BODY.match(source, start + 1).end()
    if source.startswith("\n", stop):
        return SyntaxError("newline in string literal", line, col)
    return SyntaxError("unterminated string", line, col)


class Parser:
    def __init__(self, source: str, source_name: str = "<memory>"):
        toks = tokenize(source)
        self.toks = toks + toks[-1:] * LOOKAHEAD
        self.pos = 0
        self.program = sx.Program(classes=[], source_name=source_name)
        self.line_index = self.program.line_index
        self.site_counter = 0
        self.depth = 0  # blocks and expressions open around the current token
        # the method being read, whether it returns a value, and its first
        # `return` that does not fit: raised once its body has closed
        self.method_name = ""
        self.returns_value = False
        self.bad_return: tuple[str, int, int] | None = None

    # --- token plumbing ---

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]

    def at(self, kind: str, text: str | None = None, ahead: int = 0) -> bool:
        t = self.toks[self.pos + ahead]
        return t.kind == kind and (text is None or t.text == text)

    def take(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.toks[self.pos]
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise SyntaxError(f"expected {want!r}, found {t.text or t.kind!r}", t.line, t.col)
        self.pos += 1
        return t

    def note(self, node: sx.Node, tok: Token) -> None:
        self.line_index[node.nid] = (tok.line, tok.col)

    def nest(self, tok: Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise SyntaxError(f"blocks and expressions nest more than {MAX_NESTING} deep", tok.line, tok.col)

    # --- productions ---

    def parse_program(self) -> sx.Program:
        seen: set[str] = set()
        while self.toks[self.pos].kind != "EOF":
            cls = self.parse_class()
            if cls.name in seen:
                raise DuplicateName(f"duplicate class {cls.name}")
            seen.add(cls.name)
            self.program.classes.append(cls)
        return self.program

    def parse_annotations(self) -> list[sx.Annotation]:
        anns: list[sx.Annotation] = []
        while self.toks[self.pos].kind == "@":
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
        toks = self.toks
        while toks[self.pos].kind != "}":
            member_anns = self.parse_annotations()
            start = t = toks[self.pos]
            modifiers: list[str] = []
            while t.kind == "KW" and t.text in MODIFIER_WORDS:
                modifiers.append(t.text)
                self.pos += 1
                t = toks[self.pos]
            after = toks[self.pos + 1].kind
            if t.kind == "ID" and t.text == name and after == "(":
                self.pos += 1  # constructor name
                ctor = self.parse_method_rest("", name, member_anns, tuple(modifiers), start)
                if len(ctor.params) in ctor_arities:
                    raise DuplicateName(f"duplicate constructor arity {len(ctor.params)} in {name}")
                ctor_arities.add(len(ctor.params))
                cls.constructors.append(ctor)
                continue
            if (t.kind == "KW" and t.text == "void") or (
                t.kind == "ID" and after == "ID" and toks[self.pos + 2].kind == "("
            ):
                self.pos += 1  # return type
                mname = self.expect("ID").text
                if mname in method_names:
                    raise DuplicateName(f"duplicate method {name}.{mname}")
                method_names.add(mname)
                cls.methods.append(self.parse_method_rest(t.text, mname, member_anns, tuple(modifiers), start))
                continue
            # fielddecl: type name ("=" expr)? ";"
            ftype = self.expect("ID").text
            fname = self.expect("ID").text
            if fname in field_names:
                raise DuplicateName(f"duplicate field {name}.{fname}")
            field_names.add(fname)
            init = None
            if toks[self.pos].kind == "=":
                self.pos += 1
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
        self.pos += 1
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
        toks = self.toks
        while toks[self.pos].kind != ")":
            if params:
                self.expect(",")
            p_anns = self.parse_annotations()
            for a in p_anns:
                if a.kind not in (sx.OWNING, sx.NOT_OWNING):
                    t = self.peek()
                    raise SyntaxError(f"@{a.kind} is not legal on a parameter", t.line, t.col)
            ptok = toks[self.pos]
            ptype = self.expect("ID").text
            pname = self.expect("ID").text
            if pname in seen:
                raise DuplicateName(f"duplicate parameter {pname} in {name}")
            seen.add(pname)
            param = sx.Param(type_name=ptype, name=pname, annotations=p_anns)
            self.note(param, ptok)
            params.append(param)
        self.pos += 1
        self.method_name = name
        self.returns_value = return_type not in ("void", "")
        self.bad_return = None
        body = self.parse_block()
        meth = sx.MethodDecl(
            name=name, params=params, return_type=return_type, body=body, annotations=anns, modifiers=modifiers
        )
        self.note(meth, start)
        if self.bad_return is not None:
            raise SyntaxError(*self.bad_return)
        return meth

    def parse_block(self) -> sx.Block:
        open_tok = self.expect("{")
        self.nest(open_tok)
        stmts: list[sx.Stmt] = []
        toks = self.toks
        while toks[self.pos].kind != "}":
            stmts.append(self.parse_stmt())
        self.pos += 1
        self.depth -= 1
        blk = sx.Block(stmts=stmts)
        self.note(blk, open_tok)
        return blk

    def parse_stmt(self) -> sx.Stmt:
        toks = self.toks
        t = toks[self.pos]
        kind = t.kind
        if kind == "ID":
            # localdecl: ID ID ("=" expr)? ";"
            name = toks[self.pos + 1]
            after = toks[self.pos + 2].kind
            if name.kind == "ID" and (after == "=" or after == ";"):
                self.pos += 3
                init = None
                if after == "=":
                    init = self.parse_expr()
                    self.expect(";")
                node: sx.Stmt = sx.LocalDecl(type_name=t.text, name=name.text, init=init)
                self.note(node, t)
                return node
        elif kind == "KW":
            word = t.text
            if word == "if" or word == "while":
                self.pos += 1
                self.expect("(")
                cond = self.parse_expr(allow_eq=True)
                self.expect(")")
                body = self.parse_block()
                if word == "while":
                    node = sx.While(cond=cond, body=body)
                else:
                    else_block = None
                    if self.at("KW", "else"):
                        self.pos += 1
                        else_block = self.parse_block()
                    node = sx.If(cond=cond, then_block=body, else_block=else_block)
                self.note(node, t)
                return node
            if word == "try":
                return self.parse_try(t)
            if word == "return":
                return self.parse_return(t)
        expr = self.parse_expr()
        if toks[self.pos].kind == "=":
            if not isinstance(expr, (sx.VarRef, sx.FieldRef)):
                raise SyntaxError("assignment target must be a variable or field", t.line, t.col)
            self.pos += 1
            value = self.parse_expr()
            self.expect(";")
            node = sx.Assign(target=expr, value=value)
        else:
            self.expect(";")
            node = sx.ExprStmt(expr=expr)
        self.note(node, t)
        return node

    def parse_try(self, t: Token) -> sx.Try:
        self.pos += 1
        body = self.parse_block()
        catch_type = catch_name = None
        catch_block = finally_block = None
        if self.at("KW", "catch"):
            self.pos += 1
            self.expect("(")
            catch_type = self.expect("ID").text
            catch_name = self.expect("ID").text
            self.expect(")")
            catch_block = self.parse_block()
        if self.at("KW", "finally"):
            self.pos += 1
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

    def parse_return(self, t: Token) -> sx.Return:
        """A return statement; one whose value does not fit the method's
        return type is noted, to be raised once the body closes."""
        self.pos += 1
        value = None
        if self.toks[self.pos].kind != ";":
            value = self.parse_expr()
        self.expect(";")
        if self.bad_return is None and (value is not None) != self.returns_value:
            if value is None:
                self.bad_return = (f"method {self.method_name} must return a value", t.line, t.col)
            else:
                self.bad_return = (f"{self.method_name} cannot return a value", t.line, t.col)
        node = sx.Return(value=value)
        self.note(node, t)
        return node

    def parse_expr(self, allow_eq: bool = False) -> sx.Expr:
        toks = self.toks
        t = toks[self.pos]
        self.nest(t)
        expr = self.parse_unary()
        op = toks[self.pos]
        if op.kind in ("==", "!="):
            if not allow_eq:
                raise SyntaxError("equality tests are only legal as if/while conditions", op.line, op.col)
            self.pos += 1
            rhs = self.parse_unary()
            expr = sx.Eq(lhs=expr, rhs=rhs, negated=op.kind == "!=")
            self.note(expr, t)
        self.depth -= 1
        return expr

    def parse_unary(self) -> sx.Expr:
        expr = self.parse_primary()
        toks = self.toks
        links = 0  # each `.` wraps the expression so far one level deeper
        while toks[self.pos].kind == ".":
            dot = toks[self.pos]
            self.pos += 1
            self.nest(dot)
            links += 1
            name = self.expect("ID")
            if toks[self.pos].kind == "(":
                self.pos += 1
                node: sx.Expr = sx.Call(receiver=expr, method=name.text, args=self.parse_args())
            else:
                node = sx.FieldRef(receiver=expr, name=name.text)
            self.note(node, dot)
            expr = node
        self.depth -= links
        return expr

    def parse_args(self) -> list[sx.Expr]:
        """Arguments up to and including the `)`; the `(` is already consumed."""
        toks = self.toks
        args: list[sx.Expr] = []
        while toks[self.pos].kind != ")":
            if args:
                self.expect(",")
            args.append(self.parse_expr())
        self.pos += 1
        return args

    def parse_primary(self) -> sx.Expr:
        t = self.toks[self.pos]
        kind = t.kind
        self.pos += 1
        if kind == "ID":
            node: sx.Expr = sx.VarRef(name=t.text)
        elif kind == "STRING":
            node = sx.StrLit(value=t.text)
        elif kind == "KW" and t.text == "new":
            cname = self.expect("ID").text
            self.expect("(")
            args = self.parse_args()
            self.site_counter += 1
            node = sx.New(class_name=cname, args=args, site=self.site_counter)
        elif kind == "KW" and t.text == "null":
            node = sx.NullLit()
        elif kind == "INT":
            try:
                value = int(t.text)
            except ValueError:  # more digits than `sys.get_int_max_str_digits()`
                raise SyntaxError(f"integer literal of {len(t.text)} digits is too long", t.line, t.col) from None
            node = sx.IntLit(value=value)
        else:
            raise SyntaxError(f"expected an expression, found {t.text or t.kind!r}", t.line, t.col)
        self.note(node, t)
        return node


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
    return max((nesting(part) for part in sx.children(node)), default=0)


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
