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
