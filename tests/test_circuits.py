"""Shipped circuit documents: packaged files, structure, the README example."""

import re
from pathlib import Path

import pytest

from ecpsim.circuits import BUILTIN_NAMES, TopologyError, builtin_doc, builtin_text, layout
from ecpsim.dsl import DetectDecl, QndDecl, parse, validate

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
