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

The element statements ``pbs``, ``vbs``, ``bs``, ``qnd`` and ``flip`` take
exactly the keyword fields their row of ``_ELEMENTS`` lists.  ``pbs`` has two
rows: ``in outH outV`` splits by polarization and ``inH inV out`` merges.
The ``vbs`` field ``t`` is an expression; the ``flip`` field ``when`` names a
detector mode.  ``select=1`` (keep the one-photon difference class) and
``require=exactly_one`` (one click per group) are the only values accepted,
because the engine implements no other.  ``photon=`` tags group source lines
describing components of one photon (a superposed input spans several
spatial modes); untagged sources each stand alone.  Expressions are
whitespace-free arithmetic over declared parameters: numbers, identifiers,
``+ - * /``, parentheses and ``sqrt(...)``; declarations keep their text as
written.

Statement order is execution order.  Documents are validated on parse:
modes must be declared before use, a mode list names each mode once, each
mode is produced by at most one element output, detector modes cannot be
circuit outputs, and exactly one ``output`` statement must be present.
"""

from __future__ import annotations

import cmath
import functools
import operator
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

from .params import ParameterError


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

_TOKEN_RE = re.compile(r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?|[A-Za-z_][A-Za-z_0-9]*|[()+\-*/]")

Expr = tuple


class _ExprParser:
    """Recursive descent over ``+ - * / ( ) sqrt`` with unary minus."""

    def __init__(self, text: str, line: int, col0: int):
        self.text = text
        self.line = line
        self.col0 = col0
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        for m in _TOKEN_RE.finditer(text):
            if m.start() != pos:
                raise CircuitParseError(
                    f"bad character {text[pos]!r} in expression",
                    line,
                    col0 + pos,
                )
            self.tokens.append((m.group(0), m.start()))
            pos = m.end()
        if pos != len(text):
            raise CircuitParseError(
                f"bad character {text[pos]!r} in expression", line, col0 + pos
            )
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

    def factor(self) -> Expr:
        tok = self.peek()
        if tok is None:
            self._fail("unexpected end of expression")
        if tok == "-":
            self.take()
            return ("neg", self.factor())
        if tok == "(":
            self.take()
            node = self.expr()
            if self.peek() != ")":
                self._fail("expected ')'")
            self.take()
            return node
        self.take()
        if tok[0].isdigit() or tok[0] == ".":
            return ("num", float(tok))
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            self._fail(f"unexpected token {tok!r}")
        if self.peek() == "(":
            if tok != "sqrt":
                self._fail(f"unknown function {tok!r}")
            self.take()
            node = self.expr()
            if self.peek() != ")":
                self._fail("expected ')'")
            self.take()
            return ("sqrt", node)
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


def _quotient(a: complex, b: complex, text: str) -> complex:
    if b == 0:
        raise ParameterError(f"expression {text!r} divides by zero")
    return a / b


def _compile(node: Expr, text: str) -> Callable[[Mapping[str, complex]], complex]:
    """The one walk of an expression tree: a function of the bindings that does the
    evaluation's operations in its order and raises where it raises."""
    kind, *args = node
    if kind == "num":
        value = complex(args[0])
        return lambda bindings: value
    if kind == "var":
        [name] = args

        def var(bindings):
            if name not in bindings:
                raise BindingError(f"parameter {name!r} has no bound value")
            return complex(bindings[name])
        return var
    ops = {"neg": operator.neg, "add": operator.add, "sub": operator.sub, "mul": operator.mul,
           "sqrt": lambda v: complex(v.real**0.5) if v.imag == 0 and v.real >= 0 else cmath.sqrt(v)}
    op = functools.partial(_quotient, text=text) if kind == "div" else ops.get(kind)
    if op is None:
        raise CircuitError(f"unknown expression node {kind!r}")
    fs = [_compile(a, text) for a in args]
    if len(fs) == 1:
        [f] = fs
        return lambda bindings: op(f(bindings))
    left, right = fs
    return lambda bindings: op(left(bindings), right(bindings))


@functools.lru_cache(maxsize=256)
def compile_expr(text: str) -> Callable[[Mapping[str, complex]], complex]:
    """``evaluate_expr(text, ...)`` as a function of the bindings, compiled once per text."""
    return _compile(parse_expr(text), text)


def evaluate_expr(text: str, bindings: Mapping[str, complex]) -> complex:
    return compile_expr(text)(bindings)


def evaluate_real(text: str, bindings: Mapping[str, complex]) -> float:
    v = evaluate_expr(text, bindings)
    if abs(v.imag) > 1e-12:
        raise BindingError(f"expression {text!r} evaluated to a complex value {v}")
    return v.real


# ---------------------------------------------------------------------------
# statements

@dataclass(frozen=True)
class ModeDecl:
    name: str


@dataclass(frozen=True)
class SourceDecl:
    mode: str
    pol: str
    amp: str = "1"
    photon: str | None = None


@dataclass(frozen=True)
class PbsSplitDecl:
    inp: str
    out_h: str
    out_v: str


@dataclass(frozen=True)
class PbsMergeDecl:
    in_h: str
    in_v: str
    out: str


@dataclass(frozen=True)
class VbsDecl:
    inp: str
    reflect: str
    transmit: str
    t: str


@dataclass(frozen=True)
class BsDecl:
    in1: str
    in2: str
    out1: str
    out2: str


@dataclass(frozen=True)
class QndDecl:
    a: str
    b: str


@dataclass(frozen=True)
class FlipDecl:
    mode: str
    when: str


@dataclass(frozen=True)
class DetectDecl:
    group: str
    modes: tuple[str, ...]
    eta: float | None = None


@dataclass(frozen=True)
class OutputDecl:
    modes: tuple[str, ...]


Statement = Union[
    ModeDecl,
    SourceDecl,
    PbsSplitDecl,
    PbsMergeDecl,
    VbsDecl,
    BsDecl,
    QndDecl,
    FlipDecl,
    DetectDecl,
    OutputDecl,
]


@dataclass(frozen=True)
class CircuitDoc:
    name: str = "unnamed"
    params: tuple[str, ...] = ()
    statements: tuple[Statement, ...] = ()

    @functools.cached_property
    def _hash(self) -> int:  # ``engine.analyze`` hashes the document on every run
        return hash((self.name, self.params, self.statements))

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


# Element statements, keyed by the label their field errors carry: the
# declaration they build, the mode fields in check order, the other fields,
# and the mode fields the element produces.  Both pbs rows have the keyword
# ``pbs``; a line with any merge field is a merge.
_ELEMENTS: dict[str, tuple[type, tuple[str, ...], tuple[str, ...], tuple[str, ...]]] = {
    "pbs (split)": (PbsSplitDecl, ("in", "outH", "outV"), (), ("outH", "outV")),
    "pbs (merge)": (PbsMergeDecl, ("inH", "inV", "out"), (), ("out",)),
    "vbs": (VbsDecl, ("in", "reflect", "transmit"), ("t",), ("reflect", "transmit")),
    "bs": (BsDecl, ("in1", "in2", "out1", "out2"), (), ("out1", "out2")),
    "qnd": (QndDecl, ("a", "b"), ("select",), ()),
    "flip": (FlipDecl, ("mode", "when"), (), ()),
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
                raise CircuitParseError(
                    f"positional argument {tok!r} after keyword fields", line, col
                )
            positional.append((col, tok))
    return positional, fields


def _need(
    fields: dict[str, tuple[int, str]],
    names: Sequence[str],
    line: int,
    col: int,
    kind: str,
    optional: Sequence[str] = (),
) -> None:
    for n in names:
        if n not in fields:
            raise CircuitParseError(f"{kind}: missing field {n!r}", line, col)
    for k, (c, _) in fields.items():
        if k not in names and k not in optional:
            raise CircuitParseError(f"{kind}: unknown field {k!r}", line, c)


def _ident(value: str, line: int, col: int, what: str) -> str:
    if not _IDENT_RE.fullmatch(value):
        raise CircuitParseError(f"{what} must be an identifier, got {value!r}", line, col)
    return value


def _declared(name: str, line: int, col: int, declared: set[str]) -> str:
    if name not in declared:
        raise CircuitParseError(f"undeclared mode {name!r}", line, col)
    return name


def _mode_list(value: str, line: int, col: int) -> tuple[str, ...]:
    names = value.split(",")
    out = []
    for n in names:
        if not _IDENT_RE.fullmatch(n):
            raise CircuitParseError(f"bad mode name {n!r} in list", line, col)
        if n in out:
            at = col + sum(len(m) + 1 for m in out)
            raise CircuitParseError(f"mode {n!r} repeats in list", line, at)
        out.append(n)
    return tuple(out)


def parse(text: str) -> CircuitDoc:
    """Parse a document; raises CircuitParseError with line and column."""
    name = "unnamed"
    saw_circuit = False
    params: list[str] = []
    statements: list[Statement] = []
    declared: set[str] = set()
    produced: set[str] = set()
    source_modes: set[str] = set()
    meaningful = 0

    def claim_output(m: str, lineno: int, col: int) -> None:
        if m in produced:
            raise CircuitParseError(
                f"mode {m!r} produced by more than one element", lineno, col
            )
        if m in source_modes:
            raise CircuitParseError(
                f"mode {m!r} is both a source target and an element output", lineno, col
            )
        produced.add(m)

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
                raise CircuitParseError(
                    "circuit statement must come first", lineno, col0
                )
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

        elif kw == "source":
            if len(positional) != 1:
                raise CircuitParseError("source takes one positional mode", lineno, col0)
            _need(fields, ("pol",), lineno, col0, "source", optional=("amp", "photon"))
            mcol, mname = positional[0]
            _declared(mname, lineno, mcol, declared)
            if mname in produced:
                raise CircuitParseError(
                    f"mode {mname!r} is both a source target and an element output",
                    lineno,
                    mcol,
                )
            source_modes.add(mname)
            pcol, pol = fields["pol"]
            if pol not in ("H", "V"):
                raise CircuitParseError(f"pol must be H or V, got {pol!r}", lineno, pcol)
            amp = "1"
            if "amp" in fields:
                acol, amp = fields["amp"]
                _check_expr_params(amp, params, lineno, acol)
            photon = None
            if "photon" in fields:
                tcol, tag = fields["photon"]
                photon = _ident(tag, lineno, tcol, "photon tag")
            statements.append(SourceDecl(mname, pol, amp, photon))

        elif kw == "pbs" or kw in _ELEMENTS:
            if positional:
                raise CircuitParseError(f"{kw} takes keyword fields only", lineno, col0)
            label = kw
            if kw == "pbs":
                merge = fields.keys() & set(_ELEMENTS["pbs (merge)"][1])
                label = "pbs (merge)" if merge else "pbs (split)"
            decl, mode_keys, extra_keys, out_keys = _ELEMENTS[label]
            _need(fields, mode_keys + extra_keys, lineno, col0, label)
            args = [
                _declared(fields[k][1], lineno, fields[k][0], declared) for k in mode_keys
            ]
            for key in extra_keys:
                fcol, value = fields[key]
                if key == "t":
                    t = _check_expr_params(value, params, lineno, fcol, evaluate_real)
                    if t is not None and not 0.0 <= t <= 1.0:
                        raise CircuitParseError(
                            f"transmittance t={t} outside [0, 1]", lineno, fcol
                        )
                    args.append(value)
                elif value != "1":
                    raise CircuitParseError(f"select must be 1, got {value!r}", lineno, fcol)
            for k in out_keys:
                claim_output(fields[k][1], lineno, fields[k][0])
            statements.append(decl(*args))

        elif kw == "detect":
            if positional:
                raise CircuitParseError("detect takes keyword fields only", lineno, col0)
            _need(fields, ("group", "modes"), lineno, col0, "detect", optional=("require", "eta"))
            gcol, gname = fields["group"]
            _ident(gname, lineno, gcol, "group name")
            mcol, modes_text = fields["modes"]
            modes = _mode_list(modes_text, lineno, mcol)
            for m in modes:
                _declared(m, lineno, mcol, declared)
            if "require" in fields:
                rcol, require = fields["require"]
                if require != "exactly_one":
                    raise CircuitParseError(
                        f"unsupported requirement {require!r}", lineno, rcol
                    )
            eta = None
            if "eta" in fields:
                ecol, eta_text = fields["eta"]
                try:
                    eta = float(eta_text)
                except ValueError:
                    raise CircuitParseError(f"bad eta {eta_text!r}", lineno, ecol)
                if not 0.0 <= eta <= 1.0:
                    raise CircuitParseError(
                        f"eta={eta} outside [0, 1]", lineno, ecol
                    )
            statements.append(DetectDecl(gname, modes, eta))

        elif kw == "output":
            if len(positional) != 1 or fields:
                raise CircuitParseError(
                    "output takes one comma-separated mode list", lineno, col0
                )
            mcol, modes_text = positional[0]
            modes = _mode_list(modes_text, lineno, mcol)
            for m in modes:
                _declared(m, lineno, mcol, declared)
            statements.append(OutputDecl(modes))

        else:
            raise CircuitParseError(f"unknown statement kind {kw!r}", lineno, col0)

    doc = CircuitDoc(name, tuple(params), tuple(statements))
    validate(doc)
    return doc


def _check_expr_params(text: str, params: Sequence[str], line: int, col: int, evaluate=evaluate_expr):
    """Check what an expression reads; evaluate it if it reads no parameter."""
    names = expr_variables(parse_expr(text, line, col))
    for v in sorted(names):
        if v not in params:
            raise CircuitParseError(f"undeclared parameter {v!r} in expression", line, col)
    if names:
        return None
    try:
        return evaluate(text, {})
    except (BindingError, ParameterError) as exc:
        raise CircuitParseError(str(exc), line, col) from None


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
            raise CircuitError(
                f"flip condition {st.when!r} is not a detector mode"
            )
