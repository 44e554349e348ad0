"""Shipped circuit documents: packaged files, structure, the README example, and every
rejection of the layout recognizer."""

import ast
import re
from pathlib import Path

import pytest

import ecpsim.circuits
from ecpsim.circuits import BUILTIN_NAMES, TopologyError, builtin_doc, builtin_text, layout
from ecpsim.dsl import BsDecl, DetectDecl, QndDecl, parse, validate

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_packaged_text_round_trips(name):
    text = builtin_text(name)
    doc = parse(text)
    assert doc == builtin_doc(name)
    validate(doc)


def test_unknown_builtin_rejected():
    with pytest.raises(KeyError):
        builtin_doc("ecp3")


def test_ecp1_structure():
    doc = builtin_doc("ecp1")
    assert doc.name == "ecp1"
    assert set(doc.params) == {"alpha", "beta", "gamma", "delta", "t1", "t2"}
    assert doc.output_modes() == ("a1", "b10")
    assert doc.detector_modes() == {"d1", "d2", "d3", "d4"}
    assert not any(isinstance(s, QndDecl) for s in doc.statements)


def test_ecp2_structure():
    doc = builtin_doc("ecp2")
    assert set(doc.params) == {
        "alpha", "beta", "gamma", "delta", "t_plus", "t_minus",
    }
    assert doc.output_modes() == ("a1", "b10")
    assert doc.detector_modes() == {f"d{i}" for i in range(1, 9)}
    qnds = [s for s in doc.statements if isinstance(s, QndDecl)]
    assert {(q.a, q.b) for q in qnds} == {("b2", "b5"), ("b3", "b8")}
    recycle_groups = [
        s
        for s in doc.statements
        if isinstance(s, DetectDecl) and s.group.endswith("recycle")
    ]
    assert len(recycle_groups) == 2
    assert all(g.eta == 1.0 for g in recycle_groups)


@pytest.mark.parametrize("name", ("ecp1_stripped", "ecp2_stripped"))
def test_stripped_structure(name):
    doc = builtin_doc(name)
    assert "gamma" not in doc.params
    assert doc.output_modes() == ("a1", "b6")
    sources = [s for s in doc.statements if type(s).__name__ == "SourceDecl"]
    assert all(s.pol == "V" for s in sources)


@pytest.mark.parametrize("name", ("ecp2", "ecp2_stripped"))
def test_a_recycling_group_sets_no_efficiency_but_1(name):
    # recycle detections are ideal in the engine, the oracle and the sampler, so any other
    # eta= on a recycling group is refused rather than ignored
    text = builtin_text(name)
    for eta in ("0.1", "0", "0.999999"):
        with pytest.raises(TopologyError) as err:
            layout(parse(text.replace("modes=d3,d4 eta=1.0", f"modes=d3,d4 eta={eta}")))
        assert str(err.value) == (
            f"recycling detector group 'v_recycle' sets eta={float(eta)}; recycle detectors are ideal (eta=1.0)"
        )
    for ideal in ("modes=d3,d4 eta=1", "modes=d3,d4"):
        assert layout(parse(text.replace("modes=d3,d4 eta=1.0", ideal))).has_recycling


def test_builtin_doc_is_parsed_once():
    assert builtin_doc("ecp2") is builtin_doc("ecp2")


def test_readme_circuit_example_is_the_shipped_layout():
    section = README.read_text(encoding="utf-8").split("## Circuit files", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    assert parse(block) == builtin_doc("ecp1_stripped")


# -- every rejection of the recognizer, pinned ------------------------------

def _edited(name: str, *edits: tuple[str, str]):
    """The shipped ``name`` text with each ``(old, new)`` replaced, ``old`` found exactly once."""
    text = builtin_text(name)
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return parse(text)


def _built(name: str, old, *new):
    """The shipped ``name`` document with the statement ``old`` replaced by the statements
    ``new``, for a document the parser refuses before the recognizer sees it."""
    doc = builtin_doc(name)
    assert old in doc.statements
    statements = tuple(t for s in doc.statements for t in (new if s == old else (s,)))
    return doc.replace(statements=statements)


_THIRD_ARM = (
    "mode x4\nmode x5\nmode x6\nmode x7\nmode x8\nsource x4 pol=V amp=1\n"
    "vbs in=x4 reflect=x5 transmit=x6 t=t1\nbs in1=b2 in2=x5 out1=x7 out2=x8\n"
    "detect group=x_arm modes=x7,x8\noutput a1,b10"
)

_V_ARM = DetectDecl("v_arm", ("d1", "d2"))

REJECTIONS = [  # (message, a document that reaches it), in the recognizer's check order
    ("circuit has no variable coupler arms",
     _edited("ecp1_stripped", ("vbs in=b4 reflect=b5 transmit=b6 t=t1\n", ""))),
    ("variable coupler on 'b4' needs exactly one dedicated source photon",
     _edited("ecp1_stripped", ("source b4 pol=V amp=1\n", ""))),
    ("expected exactly one signal photon, found 2",
     _edited("ecp1_stripped", ("amp=alpha photon=signal", "amp=alpha"), ("amp=beta photon=signal", "amp=beta"))),
    ("more than one polarizing split",
     _edited("ecp1", ("outV=b2\n", "outV=b2\nmode x1\nmode x2\npbs in=a1 outH=x1 outV=x2\n"))),
    ("polarizing split does not consume the signal photon",
     _edited("ecp1", ("pbs in=b1 ", "pbs in=b7 "))),
    ("more than one polarizing merge",
     _edited("ecp1", ("output a1,b10", "mode x1\nmode x2\nmode x3\npbs inH=x1 inV=x2 out=x3\noutput a1,b10"))),
    ("arm at coupler 'b4': expected one heralding coupler and at most one recycling coupler on 'b5'",
     _edited("ecp1_stripped", ("bs in1=b2 in2=b5 out1=d1 out2=d2\n", ""),
             ("detect group=v_arm modes=d1,d2\n", ""), ("flip mode=b6 when=d2\n", ""))),
    ("heralding coupler input 'a1' is not a signal-side mode",
     _edited("ecp1", ("bs in1=b2 in2=b5", "bs in1=a1 in2=b5"))),
    ("duplicate nondemolition comparison on arm 'b2'",
     _edited("ecp2_stripped", ("select=1\n", "select=1\nqnd a=b5 b=b2 select=1\n"))),
    ("recycling coupler requires a nondemolition comparison on the arm",
     _edited("ecp2_stripped", ("qnd a=b2 b=b5 select=1\n", ""))),
    ("recycling detector group 'v_recycle' sets eta=0.5; recycle detectors are ideal (eta=1.0)",
     _edited("ecp2_stripped", ("modes=d3,d4 eta=1.0", "modes=d3,d4 eta=0.5"))),
    ("coupler not attached to any arm",
     _edited("ecp1_stripped", ("output a1,b6", "mode x1\nmode x2\nmode x3\nmode x4\n"
                                               "bs in1=x1 in2=x2 out1=x3 out2=x4\noutput a1,b6"))),
    ("nondemolition comparison not attached to any arm",
     _edited("ecp2_stripped", ("select=1\n", "select=1\nqnd a=b2 b=b6 select=1\n"))),
    ("detector group not attached to any arm",
     _edited("ecp1_stripped", ("output a1,b6", "mode x1\nmode x2\ndetect group=extra modes=x1,x2\noutput a1,b6"))),
    ("detector group not attached to any arm",  # one group object listed twice: the copy is unclaimed
     _built("ecp1_stripped", _V_ARM, _V_ARM, _V_ARM)),
    ("more than two arms (3)",
     _edited("ecp1", ("output a1,b10", _THIRD_ARM))),
    ("two arms need a polarizing split",
     _edited("ecp1", ("pbs in=b1 outH=b3 outV=b2\n", ""), ("source b1 pol=H", "source b3 pol=H"),
             ("source b1 pol=V", "source b2 pol=V"))),
    ("two arms need a polarizing merge",
     _edited("ecp1", ("pbs inH=b9 inV=b6 out=b10\n", ""))),
    ("two arms need one polarizing split output each",
     _edited("ecp1", ("bs in1=b3 in2=b8", "bs in1=b2 in2=b8"))),
    ("either every arm recycles or none does",
     _edited("ecp2", ("bs in1=b8 in2=b9 out1=d7 out2=d8\n", ""),
             ("detect group=h_recycle modes=d7,d8 eta=1.0\n", ""), ("flip mode=b3 when=d8\n", ""))),
    ("detector group 'v_arm' repeats a mode",
     _built("ecp1_stripped", DetectDecl("v_arm", ("d1", "d2")), DetectDecl("v_arm", ("d1", "d2", "d1")))),
    ("detector group 'v_arm' claimed twice",
     _built("ecp2_stripped", BsDecl("b5", "b6", "d3", "d4"), BsDecl("b5", "b6", "d1", "d2"))),
    ("no detector group covers coupler outputs ['d1', 'd2']",
     _edited("ecp1_stripped", ("detect group=v_arm modes=d1,d2\n", ""), ("flip mode=b6 when=d2\n", ""))),
]


@pytest.mark.parametrize("message, doc", REJECTIONS, ids=[m for m, _ in REJECTIONS])
def test_every_rejection_of_the_recognizer_is_pinned(message, doc):
    with pytest.raises(TopologyError) as err:
        layout(doc)
    assert str(err.value) == message


def unpinned(source: str, error: str, messages) -> list[str]:
    """The ``error(...)`` messages in ``source`` that none of ``messages`` matches, each as its
    pattern: literal text, with ``.+`` for each formatted field."""
    missing = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == error:
            [arg] = node.args
            parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
            assert all(isinstance(p, (ast.Constant, ast.FormattedValue)) for p in parts), ast.unparse(arg)
            pattern = "".join(re.escape(p.value) if isinstance(p, ast.Constant) else ".+" for p in parts)
            if not any(re.fullmatch(pattern, m) for m in messages):
                missing.append(pattern)
    return missing


def test_every_rejection_in_the_recognizer_has_a_pinned_row():
    # a new rejection lands with its row in REJECTIONS
    source = Path(ecpsim.circuits.__file__).read_text(encoding="utf-8")
    messages = [m for m, _ in REJECTIONS]
    assert unpinned(source, "TopologyError", messages) == []
    planted = source + '\n\ndef _planted(n):\n    raise TopologyError(f"{n} arms are too many")\n'
    assert unpinned(planted, "TopologyError", messages) == [".+\\ arms\\ are\\ too\\ many"]
