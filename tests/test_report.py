"""Report JSON: ``to_json`` writes exactly what ``json.dumps`` would, and a
report keeps the contracts its fields state."""

import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from io import StringIO

import pytest
from hypothesis import given, settings, strategies as st

from ecpsim.circuits import BUILTIN_NAMES, builtin_text
from ecpsim.cli import main
from ecpsim.report import EngineInfo, ProtocolReport, RoundResult
from test_golden_corpus import CIRCUITS, CORPUS


def _dumps(report):
    return json.dumps(report, indent=2, default=vars) + "\n"


numbers = st.floats(allow_nan=True, allow_infinity=True)
maybe = st.none() | numbers
texts = st.text()  # non-ASCII and control characters included
counts = st.integers(min_value=-(2**70), max_value=2**70)

rounds = st.builds(
    RoundResult,
    k=counts,
    t=maybe,
    p_success=numbers,
    p_fail_recyclable=numbers,
    heralded_fidelity=maybe,
)
reports = st.builds(
    ProtocolReport,
    protocol=texts,
    accounting=texts,
    alpha_sq=maybe,
    gamma_sq=maybe,
    eta_p=numbers,
    schedule=st.dictionaries(texts, st.lists(numbers, max_size=4), max_size=3),
    rounds=st.lists(rounds, max_size=4),
    p_total=numbers,
    engine=st.builds(EngineInfo, st.sampled_from(["exact", "monte_carlo"]), counts),
    seed=st.none() | counts,
    trials=st.none() | counts,
    stderr=maybe,
    paper_comparison=st.dictionaries(
        texts, st.dictionaries(texts, numbers, max_size=3), max_size=3
    ),
)


@settings(derandomize=True, max_examples=150)
@given(reports)
def test_to_json_is_json_dumps_on_generated_reports(report):
    assert report.to_json() == _dumps(report)


def test_to_json_is_json_dumps_on_every_corpus_report(monkeypatch):
    written = []
    to_json = ProtocolReport.to_json

    def record(self):
        written.append(self)
        return to_json(self)

    monkeypatch.setattr(ProtocolReport, "to_json", record)
    circuits = str(resources.files("ecpsim").joinpath("circuits"))
    runs = [e for e in json.loads(CORPUS.read_text()) if e["argv"][0] == "run"]
    for entry in runs:
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            main([a.replace(CIRCUITS, circuits) for a in entry["argv"]])
    assert len(written) == sum(e["exit"] == 0 for e in runs)
    for report in written:
        assert to_json(report) == _dumps(report)


class _Float(float):
    def __repr__(self):
        return "not the JSON number"


def test_to_json_is_json_dumps_on_escaped_keys_and_float_subclasses():
    # keys with "%" and "{" (placeholders of other templates), NUL (this one's),
    # non-ASCII and quotes are written as json.dumps writes them; a float
    # subclass by float.__repr__
    report = ProtocolReport(
        protocol="ecp2 %s {0}", accounting="100% joint", alpha_sq=_Float(0.6), gamma_sq=None,
        eta_p=0.8, schedule={"plus %d": [_Float(0.5), float("nan")], "mïnus {}": []},
        rounds=[RoundResult(1, None, float("inf"), -0.0, _Float(1.0))], p_total=float("-inf"),
        engine=EngineInfo("exact", True), seed=2**70, trials=None, stderr=1e-300,
        paper_comparison={"%%": {"\u00e9\"quoted\"": _Float(1e16)}, "{x}\x00": {}},
    )
    assert report.to_json() == _dumps(report)
    assert report.to_json() == _dumps(report)  # and from the cached template


@settings(derandomize=True, max_examples=100)
@given(st.tuples(counts, maybe, numbers, numbers, maybe))
def test_round_results_are_frozen_hashable_rows_in_field_order(fields):
    # RoundResult writes its instance dict itself; a row is a frozen record: equal and equally
    # hashed however built, vars() in field order, and no assignment
    names = ["k", "t", "p_success", "p_fail_recyclable", "heralded_fidelity"]
    row, named = RoundResult(*fields), RoundResult(**dict(zip(names, fields)))
    assert row == named and hash(row) == hash(named) == hash(tuple(fields))
    assert list(vars(row).items()) == list(zip(names, fields))
    assert repr(row) == f"RoundResult({', '.join(f'{n}={v!r}' for n, v in zip(names, fields))})"
    assert row.replace(k=0) == RoundResult(0, *fields[1:])
    for name in names:
        with pytest.raises(AttributeError, match=f"^cannot assign to field {name!r}$"):
            setattr(row, name, 0)
        with pytest.raises(AttributeError, match=f"^cannot delete field {name!r}$"):
            delattr(row, name)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        row.extra = 0


def _contract_documents() -> list:
    """``(name, shipped, text)`` of each shipped document and of its literal mutations, one
    line at a time: an arm's auxiliary photon at ``amp=0``, a detector group at ``eta=0``,
    and an arm's coupler at ``t=0`` and ``t=1``."""
    docs = []
    for name in BUILTIN_NAMES:
        text = builtin_text(name)
        docs.append(pytest.param(name, True, text, id=name))
        for line in text.splitlines():
            if line.startswith("source ") and line.endswith(" amp=1"):
                mutated = [line[: -len("1")] + "0"]
            elif line.startswith("detect "):
                mutated = [re.sub(r" eta=\S+$", "", line) + " eta=0"]
            elif line.startswith("vbs "):
                mutated = [re.sub(r" t=\S+", f" t={t}", line) for t in (0, 1)]
            else:
                continue
            docs += [pytest.param(name, False, text.replace(line + "\n", m + "\n"), id=f"{name}: {m}")
                     for m in mutated]
    return docs


def _check_contracts(report: dict, shipped_joint: bool) -> None:
    """The contracts ``RoundResult``, ``ProtocolReport`` and ``comparison_entry`` state."""
    rounds = report["rounds"]
    for r in rounds:
        # the fidelity is null exactly where the round cannot succeed
        assert (r["heralded_fidelity"] is None) == (r["p_success"] == 0.0), r
        assert r["heralded_fidelity"] is None or 0.0 <= r["heralded_fidelity"] <= 1.0, r
    entries = report["paper_comparison"].values()
    probabilities = [report["p_total"], *(r[k] for r in rounds for k in ("p_success", "p_fail_recyclable"))]
    probabilities += [e[k] for e in entries for k in ("paper_value", "simulated_value")]
    assert all(math.isfinite(p) and p >= 0.0 for p in probabilities), probabilities
    for entry in entries:
        assert entry["delta"] == entry["simulated_value"] - entry["paper_value"], entry
    if shipped_joint:  # every trial succeeds once, or is still recyclable after the last round
        assert sum(r["p_success"] for r in rounds) + rounds[-1]["p_fail_recyclable"] <= 1.0 + 1e-12


@pytest.mark.parametrize("name, shipped, text", _contract_documents())
@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    st.booleans(),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.integers(1, 4),
    st.sampled_from(["branch", "joint"]),
)
def test_reports_keep_their_stated_contracts(tmp_path_factory, name, shipped, text, by_protocol, alpha_sq,
                                             gamma_sq, eta, rounds, accounting):
    # over the shipped protocols (by --protocol or as a document) and one-line mutations of
    # their documents, at any weights, efficiency and round count: every run exits 0, 2, 3 or 4,
    # and every report keeps its contracts
    polarized, rounds = not name.endswith("_stripped"), rounds if name.startswith("ecp2") else 1
    if shipped and by_protocol:
        argv = ["run", "--protocol", name.split("_")[0]]
    else:
        path = tmp_path_factory.getbasetemp() / "contract.ecp"
        path.write_text(text, encoding="utf-8")
        argv = ["run", "--circuit", str(path)]
    argv += ["--alpha-sq", repr(alpha_sq), "--eta", repr(eta), "--rounds", str(rounds), "--accounting", accounting]
    argv += ["--gamma-sq", repr(gamma_sq)] if polarized else []
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    if code == 0:
        _check_contracts(json.loads(out.getvalue()), shipped and accounting == "joint")
