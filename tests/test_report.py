"""Report JSON: ``to_json`` writes exactly what ``json.dumps`` would."""

import json
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from io import StringIO

from hypothesis import given, settings, strategies as st

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
