"""Line-oriented circuit description language.

One statement per line; ``#`` starts a comment; blank lines are ignored.
Statement forms:

    circuit <name>
    param <id>
    mode <id>
    source <mode> pol=<H|V> [amp=<expr>] [photon=<tag>]
    <element> <field>=<value> ...
    detect group=<name> modes=<id,...> [require=exactly_one] [eta=<float>]
    output <id,...>

Every keyword statement (``source``, the elements ``pbs``, ``vbs``, ``bs``,
``qnd`` and ``flip``, and ``detect``) takes exactly the fields its row of
``_STATEMENTS`` lists, and ``_field`` checks each field by the kind its name
gives: ``t`` and ``amp`` are expressions, ``modes`` (and the ``output`` list)
declared modes, ``photon`` and ``group`` identifiers, ``eta`` a float in
[0, 1], and any other field a declared mode.  ``pol``, ``select=1`` (keep the
one-photon difference class) and ``require=exactly_one`` (one click per
group) take fixed values, because the engine implements no other.  ``pbs``
has two rows: ``in outH outV`` splits by polarization and ``inH inV out``
merges.  ``photon=`` tags group source lines describing components of one
photon (a superposed input spans several spatial modes); untagged sources
each stand alone.  Expressions are whitespace-free arithmetic over declared
parameters: numbers, identifiers, ``+ - * /``, parentheses and
``sqrt(...)``; declarations keep their text as written.

Statement order is execution order.  Documents are validated on parse:
modes must be declared before use, a mode list names each mode once, each
mode is produced by at most one element output, detector modes cannot be
circuit outputs, and exactly one ``output`` statement must be present.
"""

from __future__ import annotations

import cmath
import functools
import math
import re
from typing import Callable, Mapping, Sequence, Union

from .params import ParameterError
from .record import Frozen, Record  # noqa: F401  (circuits, which imports only the parser, takes Record from here)


class CircuitError(Exception):
    """Any failure to assemble or resolve a circuit document."""


class CircuitParseError(CircuitError):
    """Parse or validation failure with a 1-based source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"line {line}, column {col}: {message}"
        super().__init__(message)


class BindingError(CircuitError):
    """An expression referenced a parameter with no bound value."""


# ---------------------------------------------------------------------------
# expressions

# the last alternative takes any other character, so a bad one is a token of its own
_TOKEN_RE = re.compile(r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?|[A-Za-z_][A-Za-z_0-9]*|[()+\-*/]|(?P<bad>.)", re.S)

Expr = tuple


class _ExprParser:
    """Recursive descent over ``+ - * / ( ) sqrt`` with unary minus."""

    def __init__(self, text: str, line: int, col0: int):
        self.text = text
        self.line = line
        self.col0 = col0
        self.tokens: list[tuple[str, int]] = []
        for m in _TOKEN_RE.finditer(text):
            if m.lastgroup == "bad":
                raise CircuitParseError(f"bad character {m.group(0)!r} in expression", line, col0 + m.start())
            self.tokens.append((m.group(0), m.start()))
        self.i = 0

    def _fail(self, message: str):
        col = self.col0 + (
            self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)
        )
        raise CircuitParseError(message, self.line, col)

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def take(self) -> str:
        if self.i >= len(self.tokens):
            self._fail("unexpected end of expression")
        tok = self.tokens[self.i][0]
        self.i += 1
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        if self.i != len(self.tokens):
            self._fail(f"unexpected token {self.peek()!r}")
        return e

    def expr(self) -> Expr:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = ("add" if op == "+" else "sub", node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            node = ("mul" if op == "*" else "div", node, self.factor())
        return node

    def group(self) -> Expr:
        """``( expr )``, the opening bracket next."""
        self.take()
        node = self.expr()
        if self.peek() != ")":
            self._fail("expected ')'")
        self.take()
        return node

    def factor(self) -> Expr:
        tok = self.peek()
        if tok is None:
            self._fail("unexpected end of expression")
        if tok == "-":
            self.take()
            return ("neg", self.factor())
        if tok == "(":
            return self.group()
        self.take()
        if tok[0].isdigit() or tok[0] == ".":
            return ("num", float(tok))
        if not tok.isidentifier():  # the other tokens are ASCII names and operators
            self._fail(f"unexpected token {tok!r}")
        if self.peek() == "(":
            if tok != "sqrt":
                self._fail(f"unknown function {tok!r}")
            return ("sqrt", self.group())
        return ("var", tok)


# the engine evaluates the same few amplitude and coupler texts every round
@functools.lru_cache(maxsize=256)
def parse_expr(text: str, line: int = 0, col: int = 1) -> Expr:
    return _ExprParser(text, line, col).parse()


def expr_variables(node: Expr) -> set[str]:
    kind = node[0]
    if kind == "var":
        return {node[1]}
    if kind == "num":
        return set()
    vars_: set[str] = set()
    for child in node[1:]:
        vars_ |= expr_variables(child)
    return vars_


def emit_expr(node: Expr, text: str, code: list, consts: dict, loaded: dict) -> str:
    """The one walk of an expression tree: appends to ``code`` the lines that evaluate it on the
    bindings ``b`` with the operations of the evaluation in its order, raising where it raises, and
    returns the name holding its complex value.  Numbers are bound by name in ``consts``, and
    ``loaded`` names the local of each parameter read so far (read again, it is the same value)."""
    kind, *args = node
    if kind == "num":
        consts[name := f"k{len(consts)}"] = complex(args[0])
        return name
    if kind == "var":
        [name] = args
        if name not in loaded:
            code.append(f"if {name!r} not in b: raise BindingError({f'parameter {name!r} has no bound value'!r})")
            code.append(f"e{len(code)} = complex(b[{name!r}])")
            loaded[name] = f"e{len(code) - 1}"
        return loaded[name]
    # a real x >= 0 takes the correctly rounded math.sqrt, and + 0.0 keeps sqrt(-0.0) at 0.0
    forms = {"neg": "-{0}", "add": "{0} + {1}", "sub": "{0} - {1}", "mul": "{0} * {1}", "div": "{0} / {1}",
             "sqrt": "complex(math.sqrt({0}.real) + 0.0) if {0}.imag == 0 and {0}.real >= 0 else cmath.sqrt({0})"}
    if kind not in forms:
        raise CircuitError(f"unknown expression node {kind!r}")
    xs = [emit_expr(a, text, code, consts, loaded) for a in args]
    if kind == "div":
        code.append(f"if {xs[1]} == 0: raise ParameterError({f'expression {text!r} divides by zero'!r})")
    code.append(f"e{len(code)} = {forms[kind].format(*xs)}")
    return f"e{len(code) - 1}"


def compiled(params: str, code: list, consts: dict, filename: str, namespace: dict | None = None):
    """``def f(params): code`` as a function, ``consts`` bound by name in a closure (never printed
    into the source) and other names read from ``namespace`` (this module's by default): the source
    is compiled under ``filename`` and run once to define ``f``, and is then dropped (no
    ``linecache`` entry, so a traceback through ``f`` names the file but prints no line)."""
    source = (f"def make({', '.join(consts)}):\n    def f({params}):\n"
              + "".join(f"        {line}\n" for line in code) + "    return f\n")
    scope: dict = {}
    exec(compile(source, filename, "exec"), globals() if namespace is None else namespace, scope)
    return scope["make"](**consts)


@functools.lru_cache(maxsize=256)
def compile_expr(text: str) -> Callable[[Mapping[str, complex]], complex]:
    """``evaluate_expr(text, ...)``: a function of the bindings ``b`` generated once per text, a float where real."""
    code, consts = [], {}
    value = emit_expr(parse_expr(text), text, code, consts, {})
    return compiled("b", [*code, f"return {value} if {value}.imag else {value}.real"], consts, "<expression>")


def evaluate_expr(text: str, bindings: Mapping[str, complex]) -> complex:
    return compile_expr(text)(bindings)


def evaluate_real(text: str, bindings: Mapping[str, complex]) -> float:
    v = evaluate_expr(text, bindings)
    if abs(v.imag) > 1e-12:
        raise BindingError(f"expression {text!r} evaluated to a complex value {v}")
    return v.real


# ---------------------------------------------------------------------------
# statements

class ModeDecl(Frozen):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self._set(name)


class SourceDecl(Frozen):
    __slots__ = ("mode", "pol", "amp", "photon")

    def __init__(self, mode: str, pol: str, amp: str = "1", photon: str | None = None):
        self._set(mode, pol, amp, photon)


class PbsSplitDecl(Frozen):
    __slots__ = ("inp", "out_h", "out_v")

    def __init__(self, inp: str, out_h: str, out_v: str):
        self._set(inp, out_h, out_v)


class PbsMergeDecl(Frozen):
    __slots__ = ("in_h", "in_v", "out")

    def __init__(self, in_h: str, in_v: str, out: str):
        self._set(in_h, in_v, out)


class VbsDecl(Frozen):
    __slots__ = ("inp", "reflect", "transmit", "t")

    def __init__(self, inp: str, reflect: str, transmit: str, t: str):
        self._set(inp, reflect, transmit, t)


class BsDecl(Frozen):
    __slots__ = ("in1", "in2", "out1", "out2")

    def __init__(self, in1: str, in2: str, out1: str, out2: str):
        self._set(in1, in2, out1, out2)


class QndDecl(Frozen):
    __slots__ = ("a", "b")

    def __init__(self, a: str, b: str):
        self._set(a, b)


class FlipDecl(Frozen):
    __slots__ = ("mode", "when")

    def __init__(self, mode: str, when: str):
        self._set(mode, when)


class DetectDecl(Frozen):
    __slots__ = ("group", "modes", "eta")

    def __init__(self, group: str, modes: tuple[str, ...], eta: float | None = None):
        self._set(group, modes, eta)


class OutputDecl(Frozen):
    __slots__ = ("modes",)

    def __init__(self, modes: tuple[str, ...]):
        self._set(modes)


Statement = Union[ModeDecl, SourceDecl, PbsSplitDecl, PbsMergeDecl, VbsDecl, BsDecl, QndDecl, FlipDecl, DetectDecl,
                  OutputDecl]


class CircuitDoc(Frozen):
    """A parsed document.  It is ``engine.analyze``'s cache key, so its hash is taken once."""

    __slots__ = ("name", "params", "statements", "_hash")

    def __init__(self, name: str = "unnamed", params: tuple[str, ...] = (), statements: tuple[Statement, ...] = ()):
        self._set(name, params, statements, hash((name, params, statements)))

    def __hash__(self) -> int:
        return self._hash

    def detector_modes(self) -> set[str]:
        out: set[str] = set()
        for st in self.statements:
            if isinstance(st, DetectDecl):
                out.update(st.modes)
        return out

    def output_modes(self) -> tuple[str, ...]:
        for st in self.statements:
            if isinstance(st, OutputDecl):
                return st.modes
        raise CircuitError("missing output statement")


# ---------------------------------------------------------------------------
# parsing

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


# Keyword statements, keyed by the label their field errors carry: the
# declaration they build, the required fields in check order, the optional
# fields, and the mode fields the statement produces.  Both pbs rows have the
# keyword ``pbs``; a line with any merge field is a merge.  A ``source`` also
# takes the mode it targets as its one positional argument, checked first.
_STATEMENTS: dict[str, tuple[type, tuple[str, ...], tuple[str, ...], tuple[str, ...]]] = {
    "source": (SourceDecl, ("pol",), ("amp", "photon"), ()),
    "pbs (split)": (PbsSplitDecl, ("in", "outH", "outV"), (), ("outH", "outV")),
    "pbs (merge)": (PbsMergeDecl, ("inH", "inV", "out"), (), ("out",)),
    "vbs": (VbsDecl, ("in", "reflect", "transmit", "t"), (), ("reflect", "transmit")),
    "bs": (BsDecl, ("in1", "in2", "out1", "out2"), (), ("out1", "out2")),
    "qnd": (QndDecl, ("a", "b", "select"), (), ()),
    "flip": (FlipDecl, ("mode", "when"), (), ()),
    "detect": (DetectDecl, ("group", "modes"), ("require", "eta"), ()),
}

# fields that take one fixed value: the values accepted and the message otherwise
_FIXED = {
    "pol": (("H", "V"), "pol must be H or V, got {!r}"),
    "select": (("1",), "select must be 1, got {!r}"),
    "require": (("exactly_one",), "unsupported requirement {!r}"),
}


def _split_fields(
    tokens: list[tuple[int, str]], line: int
) -> tuple[list[tuple[int, str]], dict[str, tuple[int, str]]]:
    positional: list[tuple[int, str]] = []
    fields: dict[str, tuple[int, str]] = {}
    for col, tok in tokens:
        if "=" in tok:
            key, _, value = tok.partition("=")
            if not key or not value:
                raise CircuitParseError(f"malformed field {tok!r}", line, col)
            if key in fields:
                raise CircuitParseError(f"duplicate field {key!r}", line, col)
            fields[key] = (col + len(key) + 1, value)
        else:
            if fields:
                raise CircuitParseError(f"positional argument {tok!r} after keyword fields", line, col)
            positional.append((col, tok))
    return positional, fields


def _ident(value: str, line: int, col: int, what: str) -> str:
    if not _IDENT_RE.fullmatch(value):
        raise CircuitParseError(f"{what} must be an identifier, got {value!r}", line, col)
    return value


def _field(key: str, value: str, line: int, col: int, params: Sequence[str], declared: set[str]):
    """Check one field by the kind its name gives; returns the value its declaration holds."""
    if key in ("t", "amp"):  # an expression over declared parameters, evaluated if it reads none
        names = expr_variables(node := parse_expr(value, line, col))
        for v in sorted(names):
            if v not in params:
                raise CircuitParseError(f"undeclared parameter {v!r} in expression", line, col)
        if names:
            return value
        try:  # a literal's value without generating a function
            v = node[1] if node[0] == "num" else (evaluate_real if key == "t" else evaluate_expr)(value, {})
        except (BindingError, ParameterError) as exc:
            raise CircuitParseError(str(exc), line, col) from None
        if key == "t" and not 0.0 <= v <= 1.0:
            raise CircuitParseError(f"transmittance t={v} outside [0, 1]", line, col)
        return value
    if key in ("modes", "output"):  # declared modes, each once
        names = value.split(",")
        for i, n in enumerate(names):
            if not _IDENT_RE.fullmatch(n):
                raise CircuitParseError(f"bad mode name {n!r} in list", line, col)
            if n in names[:i]:
                at = col + sum(len(m) + 1 for m in names[:i])
                raise CircuitParseError(f"mode {n!r} repeats in list", line, at)
        for n in names:
            _field("mode", n, line, col, params, declared)
        return tuple(names)
    if key in ("photon", "group"):
        return _ident(value, line, col, "photon tag" if key == "photon" else "group name")
    if key in _FIXED:
        allowed, message = _FIXED[key]
        if value not in allowed:
            raise CircuitParseError(message.format(value), line, col)
        return value
    if key == "eta":
        try:
            eta = float(value)
        except ValueError:
            raise CircuitParseError(f"bad eta {value!r}", line, col) from None
        if not 0.0 <= eta <= 1.0:
            raise CircuitParseError(f"eta={eta} outside [0, 1]", line, col)
        return eta
    if value not in declared:
        raise CircuitParseError(f"undeclared mode {value!r}", line, col)
    return value


def parse(text: str) -> CircuitDoc:
    """Parse a document; raises CircuitParseError with line and column."""
    name = "unnamed"
    saw_circuit = False
    params: list[str] = []
    statements: list[Statement] = []
    declared: set[str] = set()
    roles: dict[str, str] = {}  # mode -> "source target" or "element output"
    meaningful = 0

    def claim(m: str, role: str, lineno: int, col: int) -> None:
        prior = roles.get(m)
        if prior == role == "element output":
            raise CircuitParseError(f"mode {m!r} produced by more than one element", lineno, col)
        if prior not in (None, role):
            raise CircuitParseError(f"mode {m!r} is both a source target and an element output", lineno, col)
        roles[m] = role

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        meaningful += 1
        tokens = [(m.start() + 1, m.group(0)) for m in re.finditer(r"\S+", body)]
        col0, kw = tokens[0]
        rest = tokens[1:]

        if kw == "circuit":
            if saw_circuit:
                raise CircuitParseError("duplicate circuit statement", lineno, col0)
            if meaningful != 1:
                raise CircuitParseError("circuit statement must come first", lineno, col0)
            if len(rest) != 1:
                raise CircuitParseError("circuit takes exactly one name", lineno, col0)
            name = _ident(rest[0][1], lineno, rest[0][0], "circuit name")
            saw_circuit = True
            continue

        if kw == "param":
            if len(rest) != 1:
                raise CircuitParseError("param takes exactly one name", lineno, col0)
            pcol, pname = rest[0]
            _ident(pname, lineno, pcol, "parameter")
            if pname in params:
                raise CircuitParseError(f"duplicate parameter {pname!r}", lineno, pcol)
            params.append(pname)
            continue

        positional, fields = _split_fields(rest, lineno)

        if kw == "mode":
            if len(positional) != 1 or fields:
                raise CircuitParseError("mode takes exactly one name", lineno, col0)
            mcol, mname = positional[0]
            _ident(mname, lineno, mcol, "mode")
            if mname in declared:
                raise CircuitParseError(f"duplicate mode {mname!r}", lineno, mcol)
            declared.add(mname)
            statements.append(ModeDecl(mname))

        elif kw == "output":
            if len(positional) != 1 or fields:
                raise CircuitParseError("output takes one comma-separated mode list", lineno, col0)
            mcol, modes_text = positional[0]
            statements.append(OutputDecl(_field("output", modes_text, lineno, mcol, params, declared)))

        elif kw == "pbs" or kw in _STATEMENTS:
            if len(positional) != (kw == "source"):
                raise CircuitParseError(
                    "source takes one positional mode" if kw == "source" else f"{kw} takes keyword fields only",
                    lineno,
                    col0,
                )
            label = kw
            if kw == "pbs":
                merge = fields.keys() & set(_STATEMENTS["pbs (merge)"][1])
                label = "pbs (merge)" if merge else "pbs (split)"
            decl, required, optional, produces = _STATEMENTS[label]
            for n in required:
                if n not in fields:
                    raise CircuitParseError(f"{label}: missing field {n!r}", lineno, col0)
            for k, (c, _) in fields.items():
                if k not in required and k not in optional:
                    raise CircuitParseError(f"{label}: unknown field {k!r}", lineno, c)
            if positional:  # a source's target mode, claimed first: no element produces an undeclared mode
                claim(positional[0][1], "source target", lineno, positional[0][0])
                fields = {"mode": positional[0], **fields}
                required = ("mode", *required)
            values = {k: _field(k, fields[k][1], lineno, fields[k][0], params, declared)
                      for k in (*required, *optional) if k in fields}
            for k in produces:
                claim(fields[k][1], "element output", lineno, fields[k][0])
            # required fields fill the declaration in order, optional ones by name; select and
            # require, which take one value, fill none
            statements.append(decl(*(values[k] for k in required if k != "select"),
                                   **{k: values[k] for k in optional if k in values and k != "require"}))

        else:
            raise CircuitParseError(f"unknown statement kind {kw!r}", lineno, col0)

    doc = CircuitDoc(name, tuple(params), tuple(statements))
    validate(doc)
    return doc


def validate(doc: CircuitDoc) -> None:
    """Document-level consistency; raised errors carry no position."""
    outputs = [st for st in doc.statements if isinstance(st, OutputDecl)]
    if not outputs:
        raise CircuitError("missing output statement")
    if len(outputs) > 1:
        raise CircuitError("more than one output statement")
    detectors = doc.detector_modes()
    overlap = detectors & set(outputs[0].modes)
    if overlap:
        raise CircuitError(f"output modes {sorted(overlap)} are detector modes")
    groups = [st for st in doc.statements if isinstance(st, DetectDecl)]
    names = [g.group for g in groups]
    if len(set(names)) != len(names):
        raise CircuitError("detector group names must be unique")
    seen_det: set[str] = set()
    for g in groups:
        dup = seen_det & set(g.modes)
        if dup:
            raise CircuitError(f"detector modes {sorted(dup)} appear in two groups")
        seen_det |= set(g.modes)
    for st in doc.statements:
        if isinstance(st, FlipDecl) and st.when not in detectors:
            raise CircuitError(f"flip condition {st.when!r} is not a detector mode")
