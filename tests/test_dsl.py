"""Circuit language: expressions, parsing, validation, canonical form."""

import pytest

from ecpsim.dsl import (
    BindingError,
    CircuitError,
    CircuitParseError,
    DetectDecl,
    OutputDecl,
    SourceDecl,
    canonical_expr,
    evaluate_expr,
    evaluate_real,
    expr_variables,
    parse,
    parse_expr,
    serialize,
    validate,
)

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


def test_expr_variables_and_binding_error():
    node = parse_expr("alpha*sqrt(1-beta)")
    assert expr_variables(node) == {"alpha", "beta"}
    with pytest.raises(BindingError):
        evaluate_expr("alpha", {})


def test_evaluate_real_rejects_imaginary():
    with pytest.raises(CircuitError):
        evaluate_real("sqrt(0-1)", {})


def test_canonical_expr_stable():
    c = canonical_expr("(alpha*(beta))+1/2")
    assert canonical_expr(c) == c
    assert " " not in c


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


def test_round_trip_identity():
    doc = parse(SMALL)
    text = serialize(doc)
    again = parse(text)
    assert again == doc
    assert serialize(again) == text


def test_photon_tag_round_trips():
    doc = parse(SMALL)
    tagged = [s for s in doc.statements if isinstance(s, SourceDecl) and s.photon]
    assert len(tagged) == 2
    assert all(s.photon == "signal" for s in tagged)
    assert "photon=signal" in serialize(doc)


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


def test_detect_eta_field_round_trips():
    text = SMALL.replace(
        "detect group=arm modes=d1,d2", "detect group=arm modes=d1,d2 eta=1.0"
    )
    doc = parse(text)
    d = next(s for s in doc.statements if isinstance(s, DetectDecl))
    assert d.eta == 1.0
    assert "eta=1.0" in serialize(doc)
