"""Circuit language: expressions, parsing, validation."""

import cmath
import functools
import math
import operator

import pytest
from hypothesis import given, settings, strategies as st

from ecpsim.circuits import builtin_doc
from ecpsim.dsl import (
    BindingError,
    BsDecl,
    CircuitError,
    CircuitParseError,
    DetectDecl,
    OutputDecl,
    PbsMergeDecl,
    PbsSplitDecl,
    SourceDecl,
    VbsDecl,
    compile_expr,
    evaluate_expr,
    evaluate_real,
    expr_variables,
    parse,
    parse_expr,
    validate,
)
from ecpsim.engine import TopologyError, _prologue, analyze
from ecpsim.fock import mode
from ecpsim.params import ParameterError

SMALL = """\
circuit demo
param alpha
param beta
mode a1
mode b2
mode b4
mode b5
mode b6
mode d1
mode d2
source a1 pol=V amp=alpha photon=signal
source b2 pol=V amp=beta photon=signal
source b4 pol=V amp=1
vbs in=b4 reflect=b5 transmit=b6 t=alpha*alpha
bs in1=b2 in2=b5 out1=d1 out2=d2
detect group=arm modes=d1,d2
flip mode=b6 when=d2
output a1,b6
"""


# -- expressions ----------------------------------------------------------

def test_expr_precedence_and_sqrt():
    assert evaluate_expr("1+2*3", {}) == 7
    assert evaluate_expr("(1+2)*3", {}) == 9
    assert evaluate_expr("sqrt(2)/2", {}) == pytest.approx(0.7071067811865476)
    assert evaluate_expr("-alpha+1", {"alpha": 0.25}) == pytest.approx(0.75)
    # the correctly rounded square root; x ** 0.5 goes through the platform's pow, which can be
    # one ulp off (0.9710545923444074 under glibc 2.36 on x86-64)
    assert evaluate_expr("sqrt(x)", {"x": 0.9429470213131631}) == 0.9710545923444073
    assert repr(evaluate_expr("sqrt(x)", {"x": -0.0})) == "0.0"


def test_expr_variables_and_binding_error():
    node = parse_expr("alpha*sqrt(1-beta)")
    assert expr_variables(node) == {"alpha", "beta"}
    with pytest.raises(BindingError):
        evaluate_expr("alpha", {})


def test_evaluate_real_rejects_imaginary():
    with pytest.raises(CircuitError):
        evaluate_real("sqrt(0-1)", {})


def test_expr_syntax_errors_are_positioned():
    with pytest.raises(CircuitParseError):
        parse_expr("1+")
    with pytest.raises(CircuitParseError):
        parse_expr("sqrt 2")
    with pytest.raises(CircuitParseError):
        parse_expr("a b")


# -- parsing --------------------------------------------------------------

def test_parse_small_circuit():
    doc = parse(SMALL)
    assert doc.name == "demo"
    assert doc.params == ("alpha", "beta")
    kinds = [type(s).__name__ for s in doc.statements]
    assert kinds == [
        "ModeDecl", "ModeDecl", "ModeDecl", "ModeDecl", "ModeDecl",
        "ModeDecl", "ModeDecl",
        "SourceDecl", "SourceDecl", "SourceDecl",
        "VbsDecl", "BsDecl", "DetectDecl", "FlipDecl", "OutputDecl",
    ]
    assert doc.output_modes() == ("a1", "b6")
    assert doc.detector_modes() == {"d1", "d2"}


def test_comments_and_blank_lines():
    text = "# header\n\n" + SMALL.replace(
        "mode a1", "mode a1   # the kept rail"
    )
    doc = parse(text)
    assert doc.name == "demo"


def test_photon_tag_round_trips():
    doc = parse(SMALL)
    tagged = [s for s in doc.statements if isinstance(s, SourceDecl) and s.photon]
    assert len(tagged) == 2
    assert all(s.photon == "signal" for s in tagged)


def test_expressions_keep_their_text():
    text = SMALL.replace("amp=beta", "amp=(beta)*1.0")
    doc = parse(text.replace("t=alpha*alpha", "t=(alpha)*alpha"))
    amps = [s.amp for s in doc.statements if isinstance(s, SourceDecl)]
    assert amps == ["alpha", "(beta)*1.0", "1"]
    vbs = next(s for s in doc.statements if isinstance(s, VbsDecl))
    assert vbs.t == "(alpha)*alpha"


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("mode a1\nfrobnicate x=1\noutput a1", "unknown statement kind", 2),
        ("mode a1\nsource a2 pol=H amp=1\noutput a1", "undeclared mode", 2),
        ("mode a1\nsource a1 pol=Q amp=1\noutput a1", "pol must be H or V", 2),
        (
            "mode a1\nmode b1\nmode c1\nbs in1=a1 in2=b1 out1=c1 out2=c1\noutput a1",
            "produced by more than one element",
            4,
        ),
        ("mode a1\nsource a1 pol=H amp=1+\noutput a1", "unexpected end", 2),
        ("circuit x\ncircuit y\nmode a1\noutput a1", "duplicate circuit", 2),
        ("mode a1\nmode a1\noutput a1", "duplicate mode", 2),
        ("param a\nparam a\nmode m1\noutput m1", "duplicate parameter", 2),
        (
            "param alpha\nmode a1\nsource a1 pol=H amp=beta\noutput a1",
            "undeclared parameter",
            3,
        ),
        (
            "mode a1\nmode d1\ndetect group=g modes=d1 eta=2.0\noutput a1",
            "outside [0, 1]",
            3,
        ),
        (
            "mode a1\nmode d1\ndetect group=g modes=d1 require=at_least_one\noutput a1",
            "unsupported requirement",
            3,
        ),
        (
            "mode a1\nmode b1\nqnd a=a1 b=b1 select=0\noutput a1",
            "select must be 1",
            3,
        ),
    ],
)
def test_positioned_parse_errors(text, fragment, line):
    with pytest.raises(CircuitParseError) as err:
        parse(text)
    assert fragment in str(err.value)
    assert err.value.line == line
    assert err.value.col >= 1


# one malformed document per positioned error raised while parsing, and
# lines with several faults, where the first fault in check order wins:
# fields present, declared modes, t/select values, then claimed outputs
PRE = "param x\nmode a\nmode b\nmode c\nmode d\n"


@pytest.mark.parametrize(
    "text,message",
    [
        (PRE + 'source a pol=H amp=1$+2\noutput a',
         "line 6, column 21: bad character '$' in expression"),
        (PRE + 'source a pol=H amp=1$\noutput a',
         "line 6, column 21: bad character '$' in expression"),
        (PRE + 'source a pol=H amp=1)\noutput a',
         "line 6, column 21: unexpected token ')'"),
        (PRE + 'source a pol=H amp=(1\noutput a',
         "line 6, column 22: expected ')'"),
        (PRE + 'source a pol=H amp=sqrt(1\noutput a',
         "line 6, column 26: expected ')'"),
        (PRE + 'source a pol=H amp=*1\noutput a',
         "line 6, column 21: unexpected token '*'"),
        (PRE + 'source a pol=H amp=foo(1)\noutput a',
         "line 6, column 23: unknown function 'foo'"),
        (PRE + 'source a pol=H amp=x*\noutput a',
         'line 6, column 22: unexpected end of expression'),
        (PRE + 'source a pol=H amp=y\noutput a',
         "line 6, column 20: undeclared parameter 'y' in expression"),
        (PRE + 'vbs in=a reflect=b transmit=c t=x+\noutput a',
         'line 6, column 35: unexpected end of expression'),
        (PRE + 'vbs in=a reflect=b transmit=c t=y\noutput a',
         "line 6, column 33: undeclared parameter 'y' in expression"),
        (PRE + 'vbs in=a reflect=b transmit=c t=1.5\noutput a',
         'line 6, column 33: transmittance t=1.5 outside [0, 1]'),
        (PRE + 'bs in1= in2=b out1=c out2=d\noutput a',
         "line 6, column 4: malformed field 'in1='"),
        (PRE + 'bs =a in2=b out1=c out2=d\noutput a',
         "line 6, column 4: malformed field '=a'"),
        (PRE + 'bs in1=a in1=b out1=c out2=d\noutput a',
         "line 6, column 10: duplicate field 'in1'"),
        (PRE + 'source a pol=H amp=1 extra\noutput a',
         "line 6, column 22: positional argument 'extra' after keyword fields"),
        ('circuit x\ncircuit y\nmode a\noutput a',
         'line 2, column 1: duplicate circuit statement'),
        ('mode a\ncircuit x\noutput a',
         'line 2, column 1: circuit statement must come first'),
        ('circuit\nmode a\noutput a',
         'line 1, column 1: circuit takes exactly one name'),
        ('circuit x y\nmode a\noutput a',
         'line 1, column 1: circuit takes exactly one name'),
        ('circuit 1x\nmode a\noutput a',
         "line 1, column 9: circuit name must be an identifier, got '1x'"),
        ('param\nmode a\noutput a',
         'line 1, column 1: param takes exactly one name'),
        ('param 9\nmode a\noutput a',
         "line 1, column 7: parameter must be an identifier, got '9'"),
        ('param x\nparam x\nmode a\noutput a',
         "line 2, column 7: duplicate parameter 'x'"),
        ('mode\noutput a',
         'line 1, column 1: mode takes exactly one name'),
        ('mode a b\noutput a',
         'line 1, column 1: mode takes exactly one name'),
        ('mode a k=1\noutput a',
         'line 1, column 1: mode takes exactly one name'),
        ('mode 1a\noutput a',
         "line 1, column 6: mode must be an identifier, got '1a'"),
        ('mode a\nmode a\noutput a',
         "line 2, column 6: duplicate mode 'a'"),
        (PRE + 'source pol=H\noutput a',
         'line 6, column 1: source takes one positional mode'),
        (PRE + 'source a b pol=H\noutput a',
         'line 6, column 1: source takes one positional mode'),
        (PRE + 'source a amp=1\noutput a',
         "line 6, column 1: source: missing field 'pol'"),
        (PRE + 'source a pol=H eta=1\noutput a',
         "line 6, column 20: source: unknown field 'eta'"),
        (PRE + 'source z pol=H\noutput a',
         "line 6, column 8: undeclared mode 'z'"),
        (PRE + 'source a pol=Q\noutput a',
         "line 6, column 14: pol must be H or V, got 'Q'"),
        (PRE + 'source a pol=H photon=1t\noutput a',
         "line 6, column 23: photon tag must be an identifier, got '1t'"),
        (PRE + 'bs in1=a in2=b out1=c out2=d\nsource c pol=H\noutput a',
         "line 7, column 8: mode 'c' is both a source target and an element output"),
        (PRE + 'source c pol=H\nbs in1=a in2=b out1=c out2=d\noutput a',
         "line 7, column 21: mode 'c' is both a source target and an element output"),
        (PRE + 'pbs a in=a outH=b outV=c\noutput a',
         'line 6, column 1: pbs takes keyword fields only'),
        (PRE + 'pbs in=a outH=b\noutput a',
         "line 6, column 1: pbs (split): missing field 'outV'"),
        (PRE + 'pbs in=a outH=b outV=c t=1\noutput a',
         "line 6, column 26: pbs (split): unknown field 't'"),
        (PRE + 'pbs in=z outH=b outV=c\noutput a',
         "line 6, column 8: undeclared mode 'z'"),
        (PRE + 'pbs in=a outH=z outV=c\noutput a',
         "line 6, column 15: undeclared mode 'z'"),
        (PRE + 'pbs in=a outH=b outV=z\noutput a',
         "line 6, column 22: undeclared mode 'z'"),
        (PRE + 'pbs in=a outH=b outV=b\noutput a',
         "line 6, column 22: mode 'b' produced by more than one element"),
        (PRE + 'source b pol=H\npbs in=a outH=c outV=b\noutput a',
         "line 7, column 22: mode 'b' is both a source target and an element output"),
        (PRE + 'pbs inH=a inV=b\noutput a',
         "line 6, column 1: pbs (merge): missing field 'out'"),
        (PRE + 'pbs inV=b out=c\noutput a',
         "line 6, column 1: pbs (merge): missing field 'inH'"),
        (PRE + 'pbs in=a out=c\noutput a',
         "line 6, column 1: pbs (merge): missing field 'inH'"),
        (PRE + 'pbs inH=a inV=b out=c in=d\noutput a',
         "line 6, column 26: pbs (merge): unknown field 'in'"),
        (PRE + 'pbs inH=z inV=b out=c\noutput a',
         "line 6, column 9: undeclared mode 'z'"),
        (PRE + 'pbs inH=a inV=z out=c\noutput a',
         "line 6, column 15: undeclared mode 'z'"),
        (PRE + 'pbs inH=a inV=b out=z\noutput a',
         "line 6, column 21: undeclared mode 'z'"),
        (PRE + 'pbs in=a outH=c outV=d\npbs inH=a inV=b out=c\noutput a',
         "line 7, column 21: mode 'c' produced by more than one element"),
        (PRE + 'source c pol=H\npbs inH=a inV=b out=c\noutput a',
         "line 7, column 21: mode 'c' is both a source target and an element output"),
        (PRE + 'vbs a in=a reflect=b transmit=c t=1\noutput a',
         'line 6, column 1: vbs takes keyword fields only'),
        (PRE + 'vbs in=a reflect=b transmit=c\noutput a',
         "line 6, column 1: vbs: missing field 't'"),
        (PRE + 'vbs in=a reflect=b t=1\noutput a',
         "line 6, column 1: vbs: missing field 'transmit'"),
        (PRE + 'vbs in=a reflect=b transmit=c t=1 pol=H\noutput a',
         "line 6, column 39: vbs: unknown field 'pol'"),
        (PRE + 'vbs in=z reflect=b transmit=c t=1\noutput a',
         "line 6, column 8: undeclared mode 'z'"),
        (PRE + 'vbs in=a reflect=b transmit=z t=1\noutput a',
         "line 6, column 29: undeclared mode 'z'"),
        (PRE + 'vbs in=a reflect=b transmit=b t=1\noutput a',
         "line 6, column 29: mode 'b' produced by more than one element"),
        (PRE + 'source c pol=H\nvbs in=a reflect=b transmit=c t=1\noutput a',
         "line 7, column 29: mode 'c' is both a source target and an element output"),
        (PRE + 'bs a in1=a in2=b out1=c out2=d\noutput a',
         'line 6, column 1: bs takes keyword fields only'),
        (PRE + 'bs in1=a in2=b out1=c\noutput a',
         "line 6, column 1: bs: missing field 'out2'"),
        (PRE + 'bs in1=a in2=b out1=c out2=d t=1\noutput a',
         "line 6, column 32: bs: unknown field 't'"),
        (PRE + 'bs in1=a in2=z out1=c out2=d\noutput a',
         "line 6, column 14: undeclared mode 'z'"),
        (PRE + 'bs in1=a in2=b out1=c out2=z\noutput a',
         "line 6, column 28: undeclared mode 'z'"),
        (PRE + 'bs in1=a in2=b out1=c out2=c\noutput a',
         "line 6, column 28: mode 'c' produced by more than one element"),
        (PRE + 'qnd a a=a b=b select=1\noutput a',
         'line 6, column 1: qnd takes keyword fields only'),
        (PRE + 'qnd a=a b=b\noutput a',
         "line 6, column 1: qnd: missing field 'select'"),
        (PRE + 'qnd a=a select=1\noutput a',
         "line 6, column 1: qnd: missing field 'b'"),
        (PRE + 'qnd a=a b=b select=1 c=c\noutput a',
         "line 6, column 24: qnd: unknown field 'c'"),
        (PRE + 'qnd a=z b=b select=1\noutput a',
         "line 6, column 7: undeclared mode 'z'"),
        (PRE + 'qnd a=a b=b select=0\noutput a',
         "line 6, column 20: select must be 1, got '0'"),
        (PRE + 'flip a mode=a when=b\noutput a',
         'line 6, column 1: flip takes keyword fields only'),
        (PRE + 'flip mode=a\noutput a',
         "line 6, column 1: flip: missing field 'when'"),
        (PRE + 'flip mode=a when=b if=c\noutput a',
         "line 6, column 23: flip: unknown field 'if'"),
        (PRE + 'flip mode=z when=b\noutput a',
         "line 6, column 11: undeclared mode 'z'"),
        (PRE + 'flip mode=a when=z\noutput a',
         "line 6, column 18: undeclared mode 'z'"),
        (PRE + 'detect g group=g modes=a\noutput a',
         'line 6, column 1: detect takes keyword fields only'),
        (PRE + 'detect group=g\noutput a',
         "line 6, column 1: detect: missing field 'modes'"),
        (PRE + 'detect group=g modes=a mode=b\noutput a',
         "line 6, column 29: detect: unknown field 'mode'"),
        (PRE + 'detect group=1g modes=a\noutput a',
         "line 6, column 14: group name must be an identifier, got '1g'"),
        (PRE + 'detect group=g modes=a,,b\noutput a',
         "line 6, column 22: bad mode name '' in list"),
        (PRE + 'detect group=g modes=a,z\noutput a',
         "line 6, column 22: undeclared mode 'z'"),
        (PRE + 'detect group=g modes=a require=at_least_one\noutput b',
         "line 6, column 32: unsupported requirement 'at_least_one'"),
        (PRE + 'detect group=g modes=a eta=high\noutput b',
         "line 6, column 28: bad eta 'high'"),
        (PRE + 'detect group=g modes=a eta=1.5\noutput b',
         'line 6, column 28: eta=1.5 outside [0, 1]'),
        (PRE + 'output',
         'line 6, column 1: output takes one comma-separated mode list'),
        (PRE + 'output a b',
         'line 6, column 1: output takes one comma-separated mode list'),
        (PRE + 'output a k=1',
         'line 6, column 1: output takes one comma-separated mode list'),
        (PRE + 'output a,1b',
         "line 6, column 8: bad mode name '1b' in list"),
        (PRE + 'output a,z',
         "line 6, column 8: undeclared mode 'z'"),
        (PRE + 'frobnicate x=1\noutput a',
         "line 6, column 1: unknown statement kind 'frobnicate'"),
        (PRE + 'pbs_merge x=1\noutput a',
         "line 6, column 1: unknown statement kind 'pbs_merge'"),
        (PRE + 'pbs_split in=a outH=b outV=c\noutput a',
         "line 6, column 1: unknown statement kind 'pbs_split'"),
        (PRE + 'pbs_merge inH=a inV=b out=c\noutput a',
         "line 6, column 1: unknown statement kind 'pbs_merge'"),
        (PRE + 'pbs inH=z inV=b\noutput a',
         "line 6, column 1: pbs (merge): missing field 'out'"),
        (PRE + 'pbs inH=a inV=b out=c extra=1 outH=z\noutput a',
         "line 6, column 29: pbs (merge): unknown field 'extra'"),
        (PRE + 'vbs in=z reflect=b transmit=c t=y\noutput a',
         "line 6, column 8: undeclared mode 'z'"),
        (PRE + 'vbs in=a reflect=b transmit=b t=y\noutput a',
         "line 6, column 33: undeclared parameter 'y' in expression"),
        (PRE + 'vbs in=a reflect=b transmit=b t=2\noutput a',
         'line 6, column 33: transmittance t=2.0 outside [0, 1]'),
        (PRE + 'vbs in=a reflect=b transmit=c t=-1\noutput a',
         'line 6, column 33: transmittance t=-1.0 outside [0, 1]'),
        (PRE + 'vbs in=a reflect=b transmit=c t=0.5*3\noutput a',
         'line 6, column 33: transmittance t=1.5 outside [0, 1]'),
        (PRE + 'vbs in=a reflect=b transmit=c t=1/0\noutput a',
         "line 6, column 33: expression '1/0' divides by zero"),
        (PRE + 'vbs in=a reflect=b transmit=c t=sqrt(0-1)\noutput a',
         "line 6, column 33: expression 'sqrt(0-1)' evaluated to a complex value 1j"),
        (PRE + 'source a pol=H amp=1/(2-2)\noutput a',
         "line 6, column 20: expression '1/(2-2)' divides by zero"),
        (PRE + 'vbs in=a reflect=z transmit=c t=1+\noutput a',
         "line 6, column 18: undeclared mode 'z'"),
        (PRE + 'vbs in=a reflect=b transmit=c t=1+ q=1\noutput a',
         "line 6, column 38: vbs: unknown field 'q'"),
        (PRE + 'bs in1=z in2=b out1=c out2=c\noutput a',
         "line 6, column 8: undeclared mode 'z'"),
        (PRE + 'bs in1=a in2=b out1=c out2=c x=1\noutput a',
         "line 6, column 32: bs: unknown field 'x'"),
        (PRE + 'qnd a=z b=b select=0\noutput a',
         "line 6, column 7: undeclared mode 'z'"),
        (PRE + 'qnd a=a b=b select=0 c=1\noutput a',
         "line 6, column 24: qnd: unknown field 'c'"),
        (PRE + 'flip mode=z when=y k=1\noutput a',
         "line 6, column 22: flip: unknown field 'k'"),
        (PRE + 'source z pol=Q amp=y\noutput a',
         "line 6, column 8: undeclared mode 'z'"),
        (PRE + 'source a pol=Q amp=y photon=1\noutput a',
         "line 6, column 14: pol must be H or V, got 'Q'"),
        (PRE + 'source a pol=H amp=y photon=1\noutput a',
         "line 6, column 20: undeclared parameter 'y' in expression"),
        (PRE + 'detect group=1g modes=z eta=9 require=any\noutput b',
         "line 6, column 14: group name must be an identifier, got '1g'"),
        (PRE + 'detect group=g modes=z eta=9\noutput b',
         "line 6, column 22: undeclared mode 'z'"),
        (PRE + 'detect group=g modes=a,b,a\noutput c',
         "line 6, column 26: mode 'a' repeats in list"),
        (PRE + 'output a,b,a',
         "line 6, column 12: mode 'a' repeats in list"),

    ],
)
def test_parse_error_messages_are_pinned(text, message):
    with pytest.raises(CircuitParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_source_cannot_target_element_output():
    text = (
        "mode a1\nmode x1\nmode b1\nmode c1\n"
        "source a1 pol=H amp=1\nsource x1 pol=H amp=1\n"
        "bs in1=a1 in2=x1 out1=b1 out2=c1\n"
        "source b1 pol=V amp=1\noutput c1"
    )
    with pytest.raises(CircuitParseError) as err:
        parse(text)
    assert "both a source target and an element output" in str(err.value)
    assert err.value.line == 8


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("mode a1\nsource a1 pol=H amp=1", "missing output"),
        ("mode a1\noutput a1\noutput a1", "more than one output"),
        (
            "mode a1\nmode d1\nsource a1 pol=H amp=1\n"
            "detect group=g modes=d1\noutput a1,d1",
            "detector modes",
        ),
        (
            "mode a1\nmode d1\nmode d2\ndetect group=g modes=d1\n"
            "detect group=g modes=d2\noutput a1",
            "unique",
        ),
        (
            "mode a1\nmode b1\nsource a1 pol=H amp=1\n"
            "flip mode=a1 when=b1\noutput a1",
            "not a detector mode",
        ),
    ],
)
def test_document_level_validation(text, fragment):
    with pytest.raises(CircuitError) as err:
        parse(text)
    assert fragment in str(err.value)


def test_validate_runs_on_programmatic_documents():
    doc = parse(SMALL)
    validate(doc)
    broken = type(doc)(
        name=doc.name,
        params=doc.params,
        statements=tuple(
            s for s in doc.statements if not isinstance(s, OutputDecl)
        ),
    )
    with pytest.raises(CircuitError):
        validate(broken)


@pytest.mark.parametrize("name, kind, fields, other", (
    ("ecp1", PbsMergeDecl, ("in_h", "in_v", "out"), PbsSplitDecl),
    ("ecp1", PbsSplitDecl, ("inp", "out_h", "out_v"), PbsMergeDecl),
    ("ecp1", VbsDecl, ("inp", "reflect", "transmit", "t"), BsDecl),
    ("ecp2", BsDecl, ("in1", "in2", "out1", "out2"), VbsDecl),
))
def test_a_statement_kind_is_part_of_the_statement(name, kind, fields, other):
    # two statements of different kinds with equal field values differ (a split from a merge, a
    # variable coupler from a balanced one), as do documents differing only in such a statement:
    # engine.analyze, cached by document, refuses the swapped one after planning the shipped one
    assert PbsSplitDecl("a", "b", "c") != PbsMergeDecl("a", "b", "c")
    assert VbsDecl("a", "b", "c", "d") != BsDecl("a", "b", "c", "d")
    doc = builtin_doc(name)
    old = next(s for s in doc.statements if type(s) is kind)
    new = other(*(getattr(old, f) for f in fields))
    assert new != old and old != new and len({old, new}) == 2
    swapped = doc.replace(statements=tuple(new if s is old else s for s in doc.statements))
    assert swapped != doc and doc != swapped
    plan = analyze(doc)
    with pytest.raises(TopologyError) as fresh:
        analyze.__wrapped__(swapped)
    with pytest.raises(TopologyError) as cached:  # not the plan cached for ``doc``
        analyze(swapped)
    assert str(cached.value) == str(fresh.value)
    assert analyze(doc) is plan

def test_detect_eta_field_round_trips():
    text = SMALL.replace(
        "detect group=arm modes=d1,d2", "detect group=arm modes=d1,d2 eta=1.0"
    )
    doc = parse(text)
    d = next(s for s in doc.statements if isinstance(s, DetectDecl))
    assert d.eta == 1.0


# -- the generated evaluator against the closure walk it replaced ------------

def _quotient(a, b, text):
    if b == 0:
        raise ParameterError(f"expression {text!r} divides by zero")
    return a / b


def _closures(node, text):
    """The closure walk the generated evaluator replaced, kept as the reference: a function of
    the bindings that does the evaluation's operations in its order and raises where it raises."""
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
           "sqrt": lambda v: complex(math.sqrt(v.real) + 0.0) if v.imag == 0 and v.real >= 0 else cmath.sqrt(v)}
    op = functools.partial(_quotient, text=text) if kind == "div" else ops[kind]
    fs = [_closures(a, text) for a in args]
    if len(fs) == 1:
        [f] = fs
        return lambda bindings: op(f(bindings))
    left, right = fs
    return lambda bindings: op(left(bindings), right(bindings))


def _settled(call):
    """``call()``'s type and repr, or its error's type and message."""
    try:
        value = call()
    except (BindingError, ParameterError) as exc:
        return type(exc), str(exc)
    return type(value), repr(value)


def _real(value):
    return value if value.imag else value.real


_LEAVES = st.sampled_from(["0", "1", "2.5", ".5", "0.1", "3e2", "1e-300", "1e300", "alpha", "beta", "x", "y"])
_TREES = st.recursive(_LEAVES, lambda kids: st.one_of(
    kids.map(lambda a: f"-({a})"),
    kids.map(lambda a: f"sqrt({a})"),
    st.tuples(kids, st.sampled_from("+-*/"), kids).map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
), max_leaves=6)
_BINDINGS = st.sampled_from([
    {"alpha": 0.6, "beta": 0.8, "x": 2.0, "y": 1e-8},  # real
    {"alpha": 0.0, "beta": -0.0, "x": 0.0, "y": 0.0},  # zero
    {"alpha": -0.6, "beta": -0.8, "x": -2.0, "y": -1e-300},  # negative
    {"alpha": 0.6j, "beta": 0.8 - 0.1j, "x": complex(-0.0, 1.0), "y": complex(1e-300, -0.0)},  # complex
    {"alpha": 0.6, "beta": 0.8, "x": 3},  # y unbound
    {"alpha": 0.3 + 0.4j, "x": -1},  # beta and y unbound
])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_TREES, _TREES, _TREES, _BINDINGS)
def test_generated_evaluator_matches_the_closure_walk(first, second, aux, bindings):
    # compile_expr gives the closure walk's value, repr for repr, as a float where its imaginary
    # part is zero, or its first error with its message; so does the engine's photon prologue,
    # which sums each amplitude from 0j, drops an exact zero and raises the first error, the
    # signal's before the auxiliary photon's
    closures = {text: _closures(parse_expr(text), text) for text in (first, second, aux)}
    for text, reference in closures.items():
        assert _settled(lambda: compile_expr(text)(bindings)) == _settled(lambda: _real(reference(bindings)))
    base = parse(SMALL)
    amps = {"alpha": first, "beta": second, "1": aux}
    doc = base.replace(statements=tuple(
        s.replace(amp=amps[s.amp]) if isinstance(s, SourceDecl) else s for s in base.statements))
    plan = analyze(doc)
    tab = plan.table

    def expected():
        values = [closures[first](bindings), closures[second](bindings)]
        ids = [tab.intern(((mode(m, "V"), 1),)) for m in ("a1", "b2")]
        signal = {p: _real(0j + v) for p, v in zip(ids, values) if 0j + v}
        a = 0j + closures[aux](bindings)
        ports = [tab.intern(((mode(m, "V"), 1),)) for m in ("b5", "b6")]
        return signal, repr((tuple(ports), [_real(a)]) if a else ((), []))

    def got():
        signal, [branch], _, [photon] = _prologue(plan, None)(bindings)
        assert branch is signal  # one arm: its branch input is the whole signal
        return signal, repr(photon)

    # the signal dict and the photon, repr for repr, or the prologue's error and its message
    assert _settled(got) == _settled(expected)
