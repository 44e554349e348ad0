"""Path-sum oracle: self-contained anchors and engine agreement."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from ecpsim import circuits, dsl, oracle
from ecpsim.circuits import BUILTIN_NAMES, builtin_text
from ecpsim.dsl import evaluate_real, parse
from ecpsim.engine import TopologyError, analyze, execute, run_ecp1, run_ecp2
from ecpsim.measurement import DetectorModel
from ecpsim.oracle import _schedule, oracle_ecp1, oracle_ecp2
from ecpsim.params import EntanglementParams, PolarizationParams, vbs_pair_schedule
from test_dsl import _BINDINGS, _TREES

GRID_A2 = (0.1, 0.3, 0.5, 0.7, 0.9)
GRID_G2 = (None, 0.0, 0.3, 0.5, 1.0)


def test_oracle_anchors_stand_alone():
    o = oracle_ecp1(0.6, 0.5)
    assert o["per_arm"]["b2"] == pytest.approx(0.36, abs=1e-12)
    assert o["per_arm"]["b3"] == pytest.approx(0.36, abs=1e-12)
    assert o["fidelity"] == pytest.approx(1.0, abs=1e-12)
    oj = oracle_ecp1(0.6, 0.5, accounting="joint")
    assert oj["p_total"] == pytest.approx(0.192, abs=1e-12)
    os = oracle_ecp2(0.6, rounds=3)
    assert os["rounds"][0]["p_success"] == pytest.approx(0.48, abs=1e-12)
    assert os["rounds"][1]["p_success"] == pytest.approx(0.1152 / 0.52, abs=1e-12)
    assert os["rounds"][2]["p_success"] == pytest.approx(2592 / 31525, abs=1e-12)


def test_oracle_schedule_doubles_the_ratio():
    # the pairs (sqrt(1 - t), sqrt(t)) of t = 1 / (1 + r^(2^(k-1))), r = beta^2 / alpha^2
    r = 0.4 / 0.6
    for (c, s), t in zip(_schedule(0.6, 3), (0.6, 9 / 13, 1 / (1 + r**4))):
        assert (c * c, s * s) == pytest.approx((1 - t, t), abs=1e-15)
    # derived by the oracle alone, they are the engine's log-odds pairs to rounding
    for a2 in (0.3, 0.6, 0.9):
        got = [x for pair in _schedule(a2, 8) for x in pair]
        want = [x for pair in vbs_pair_schedule(EntanglementParams.from_alpha_sq(a2), 8) for x in pair]
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
    # no 1 - t is formed: at alpha^2 0.9, t rounds to 1 in round 6, but sqrt(1 - t) is not 0
    assert 0.0 < _schedule(0.9, 6)[5][0] < 1e-15


@pytest.mark.parametrize("a2", GRID_A2)
@pytest.mark.parametrize("g2", GRID_G2)
@pytest.mark.parametrize("accounting", ("branch", "joint"))
def test_single_round_agreement(a2, g2, accounting):
    ent = EntanglementParams.from_alpha_sq(a2)
    pol = PolarizationParams.from_gamma_sq(g2) if g2 is not None else None
    r = run_ecp1(ent, pol, accounting=accounting)
    o = oracle_ecp1(a2, g2, accounting=accounting)
    assert r.p_total == pytest.approx(o["p_total"], abs=1e-12)
    assert r.rounds[0].heralded_fidelity == pytest.approx(o["fidelity"], abs=1e-12)


@pytest.mark.parametrize("a2", (0.2, 0.5, 0.8))
@pytest.mark.parametrize("g2", (None, 0.5))
@pytest.mark.parametrize("accounting", ("branch", "joint"))
def test_recycling_agreement(a2, g2, accounting):
    ent = EntanglementParams.from_alpha_sq(a2)
    pol = PolarizationParams.from_gamma_sq(g2) if g2 is not None else None
    r = run_ecp2(ent, pol, rounds=3, accounting=accounting)
    o = oracle_ecp2(a2, g2, rounds=3, accounting=accounting)
    for got, want in zip(r.rounds, o["rounds"]):
        assert got.p_success == pytest.approx(want["p_success"], abs=1e-12)
        assert got.p_fail_recyclable == pytest.approx(want["p_recycle"], abs=1e-12)
        if want["fidelity"] is not None:
            assert got.heralded_fidelity == pytest.approx(
                want["fidelity"], abs=1e-12
            )


def test_detector_efficiency_agreement():
    r = run_ecp1(
        EntanglementParams.from_alpha_sq(0.6),
        PolarizationParams.from_gamma_sq(0.5),
        accounting="joint",
        model=DetectorModel(eta_p=0.7),
    )
    o = oracle_ecp1(0.6, 0.5, accounting="joint", eta=0.7)
    assert r.p_total == pytest.approx(o["p_total"], abs=1e-12)
    assert r.p_total == pytest.approx(0.192 * 0.49, abs=1e-12)


@pytest.mark.parametrize("g2", (None, 0.5))
@pytest.mark.parametrize("accounting", ("branch", "joint"))
def test_no_round_succeeds_at_zero_efficiency(g2, accounting):
    # with eta 0 a round cannot succeed: p 0 and a null fidelity, in the engine and the oracle
    ent, model = EntanglementParams.from_alpha_sq(0.6), DetectorModel(eta_p=0.0)
    pol = PolarizationParams.from_gamma_sq(g2) if g2 is not None else None
    rounds = [*run_ecp1(ent, pol, accounting=accounting, model=model).rounds,
              *run_ecp2(ent, pol, rounds=3, accounting=accounting, model=model).rounds]
    assert [(r.p_success, r.heralded_fidelity) for r in rounds] == [(0.0, None)] * 4
    one = oracle_ecp1(0.6, g2, accounting=accounting, eta=0.0)
    books = oracle_ecp2(0.6, g2, rounds=3, accounting=accounting, eta=0.0)["rounds"]
    assert [(one["p_total"], one["fidelity"])] + [(b["p_success"], b["fidelity"]) for b in books] == [(0.0, None)] * 4


def test_oracle_catches_a_corrupted_coupler():
    from ecpsim.verify import corrupted_coupler

    clean = run_ecp1(
        EntanglementParams.from_alpha_sq(0.6), PolarizationParams.from_gamma_sq(0.5)
    )
    with corrupted_coupler():
        broken = run_ecp1(
            EntanglementParams.from_alpha_sq(0.6),
            PolarizationParams.from_gamma_sq(0.5),
        )
    o = oracle_ecp1(0.6, 0.5)
    assert clean.rounds[0].heralded_fidelity == pytest.approx(
        o["fidelity"], abs=1e-12
    )
    assert abs(broken.rounds[0].heralded_fidelity - o["fidelity"]) > 0.1


def test_oracle_does_not_depend_on_the_hash_seed():
    # the arm merge once iterated over a set, so the last digit of this
    # fidelity followed PYTHONHASHSEED
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "from ecpsim.oracle import oracle_ecp1; "
        "print(repr(oracle_ecp1(0.077531, 0.072901)['fidelity']))"
    )
    seen = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        seen.add(proc.stdout)
    assert len(seen) == 1, seen


def _stdlib(module: str) -> bool:
    return module.split(".")[0] in sys.stdlib_module_names


def _foreign_imports(source: str, allowed: tuple[str, ...]) -> list[str]:
    """Imports other than the standard library and the sibling modules
    named in ``allowed``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if not _stdlib(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [] if _stdlib(node.module) else [node.module]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [a.name for a in node.names]
            siblings = allowed if node.level == 1 else ()
            found += ["." * node.level + n for n in names if n not in siblings]
    return found


def test_oracle_imports_only_the_parser_and_the_documents():
    # the oracle reads its layouts through ``circuits``, so that module is
    # held to the same rule, with the parser as its one sibling import
    for module, allowed in ((oracle, ("dsl", "circuits")), (circuits, ("dsl",))):
        source = Path(module.__file__).read_text(encoding="utf-8")
        assert _foreign_imports(source, allowed) == [], module.__name__
        # the check itself sees an import of the operator core, however spelled
        for planted, name in (
            ("from .fock import State", ".fock"),
            ("from . import engine", ".engine"),
            ("from ..ecpsim import measurement", "..ecpsim"),
            ("import ecpsim.elements", "ecpsim.elements"),
            ("from ecpsim import fock", "ecpsim"),
        ):
            assert _foreign_imports(source + "\n" + planted + "\n", allowed) == [name]
    # nor does the oracle run the parser's evaluators or generated code: it walks the tree itself
    source = Path(oracle.__file__).read_text(encoding="utf-8")
    assert _evaluators(source) == []
    for planted, name in (
        ("from .dsl import evaluate_real", "evaluate_real"),
        ("from . import dsl\nf = dsl.compile_expr", "compile_expr"),
        ("x = evaluate_expr", "evaluate_expr"),
        ("from .dsl import emit_expr as walk", "emit_expr"),
        ("from .dsl import compiled", "compiled"),
    ):
        assert _evaluators(source + "\n" + planted + "\n") == [name]


def _evaluators(source: str) -> list[str]:
    """The parser's evaluators and code generators that ``source`` names."""
    banned = {"evaluate_real", "evaluate_expr", "compile_expr", "emit_expr", "compiled"}
    found = []
    for node in ast.walk(ast.parse(source)):
        names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
        names += [node.id] if isinstance(node, ast.Name) else []
        names += [node.attr] if isinstance(node, ast.Attribute) else []
        found += [n for n in names if n in banned]
    return found


def _settled(call):
    """``call()``'s repr, or its error's type and message."""
    try:
        return repr(call())
    except (dsl.CircuitError, ValueError) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_TREES, _BINDINGS)
def test_oracle_evaluates_an_expression_as_the_parser_does(text, bindings):
    # the oracle's own walk gives evaluate_real's value, repr for repr, or its error and message
    # (unbound parameter, division by zero, complex value)
    assert _settled(lambda: oracle._real(text, bindings)) == _settled(lambda: evaluate_real(text, bindings))


def test_verify_generates_no_expression_function():
    from ecpsim.verify import run_checks

    dsl.compile_expr.cache_clear()
    run_checks(trials=2000)
    assert dsl.compile_expr.cache_info().currsize == 0


def test_oracle_rejects_a_document_the_engine_rejects():
    # no heralding coupler: both read the layout through one recognizer, so
    # the oracle raises the engine's error, not a bare StopIteration
    lines = builtin_text("ecp1_stripped").splitlines(keepends=True)
    doc = parse("".join(x for x in lines if not x.startswith(("bs ", "detect ", "flip "))))
    message = r"^arm at coupler 'b4': expected one heralding coupler"
    with pytest.raises(TopologyError, match=message):
        analyze(doc)
    _suffix, bindings, pol = oracle._point(0.6, None)
    with pytest.raises(TopologyError, match=message):
        oracle._run_chain(doc, [[oracle._pair(0.6)]], "branch", 1.0, bindings, pol)


@pytest.mark.parametrize("accounting", ("branch", "joint"))
def test_oracle_rejects_a_herald_blind_to_an_absorbed_polarization(accounting):
    # the engine raises PolarizationMixtureError here; summing both absorbed
    # polarizations coherently gave p 0.72 and fidelity 0.971
    from test_cli import MIXTURE_LAYOUT

    _suffix, bindings, pol = oracle._point(0.6, None)
    with pytest.raises(ValueError, match=r"^click signature \(\('d1', 1\),\): "):
        oracle._run_chain(parse(MIXTURE_LAYOUT), [[oracle._pair(0.6)]], accounting, 1.0, bindings, pol)
    # with its H component at amplitude 0 the b2 photon leaves a state again
    text = MIXTURE_LAYOUT.replace("pol=H amp=beta/sqrt(2)", "pol=H amp=0")
    doc = parse(text.replace("beta/sqrt(2)", "beta"))
    [(_per_chain, book)] = oracle._run_chain(doc, [[oracle._pair(0.6)]], accounting, 1.0, bindings, pol)
    assert book["p_success"] == pytest.approx(0.48, rel=1e-12)
    assert book["fidelity"] == pytest.approx(1.0, abs=1e-12)


def _renamed(text: str) -> tuple[str, dict[str, str]]:
    """Rename every mode (``b5`` -> ``y5``, which also changes their sort
    order) and put the ``detect`` and ``flip`` lines in reverse order."""
    modes = re.findall(r"^mode (\w+)$", text, re.M)
    new = {m: {"a": "z", "b": "y", "d": "x"}[m[0]] + m[1:] for m in modes}
    text = re.sub(r"\b\w+\b", lambda t: new.get(t.group(0), t.group(0)), text)
    old = text.splitlines()
    lines = list(old)
    moved = [i for i, line in enumerate(old) if line.startswith(("detect ", "flip "))]
    for i, j in zip(moved, reversed(moved)):
        lines[i] = old[j]
    return "\n".join(lines) + "\n", {v: k for k, v in new.items()}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("accounting", ("branch", "joint"))
@pytest.mark.parametrize("a2", (0.3, 0.6, 0.9))
def test_renamed_layout_gives_the_same_numbers(name, accounting, a2):
    text, back = _renamed(builtin_text(name))
    shipped, edited = parse(builtin_text(name)), parse(text)
    assert edited != shipped
    g2 = None if name.endswith("_stripped") else 0.3
    rounds = 3 if name.startswith("ecp2") else 1
    ent = EntanglementParams.from_alpha_sq(a2)
    pol = PolarizationParams.from_gamma_sq(g2) if g2 is not None else None
    model = DetectorModel(eta_p=0.8)
    reports = [
        execute(doc, ent, pol, rounds=rounds, accounting=accounting, model=model).to_json()
        for doc in (shipped, edited)
    ]
    unmapped = re.sub(r"\b\w+\b", lambda t: back.get(t.group(0), t.group(0)), reports[1])
    assert unmapped == reports[0]

    _suffix, bindings, target_pol = oracle._point(a2, g2)
    schedules = [_schedule(a2, rounds), _schedule(1.0 - a2, rounds)]
    chains = [
        oracle._run_chain(doc, schedules, accounting, 0.8, bindings, target_pol)
        for doc in (shipped, edited)
    ]
    unmapped = [({back.get(k, k): p for k, p in ps.items()}, book) for ps, book in chains[1]]
    assert repr(unmapped) == repr(chains[0])


def test_oracle_reads_a_literal_coupler_transmittance():
    # t=1/2 instead of t=t_plus: both engines apply the document's coupler,
    # not the doubling schedule that feeds t_plus
    text = builtin_text("ecp2_stripped").replace("t=t_plus", "t=1/2")
    assert "t=1/2" in text
    doc = parse(text)
    report = execute(doc, EntanglementParams.from_alpha_sq(0.6), rounds=3)
    _suffix, bindings, pol = oracle._point(0.6, None)
    ts = _schedule(0.6, 3)
    books = [book for _, book in oracle._run_chain(doc, [ts, ts], "branch", 1.0, bindings, pol)]
    for r, book, want in zip(report.rounds, books, (0.5, 0.25, 0.125)):
        assert r.p_success == pytest.approx(want, rel=1e-12)
        assert book["p_success"] == pytest.approx(want, rel=1e-12)


def test_oracle_counts_a_heralding_group_efficiency():
    # a heralding group's own eta= replaces the run-level efficiency
    text = builtin_text("ecp1_stripped").replace("modes=d1,d2", "modes=d1,d2 eta=0.5")
    assert "eta=0.5" in text
    doc = parse(text)
    report = execute(doc, EntanglementParams.from_alpha_sq(0.6), model=DetectorModel(eta_p=0.8))
    _suffix, bindings, pol = oracle._point(0.6, None)
    pairs = [oracle._pair(0.6)]
    [(per_chain, _book)] = oracle._run_chain(doc, [pairs, pairs], "branch", 0.8, bindings, pol)
    assert report.p_total == pytest.approx(0.24, rel=1e-12)
    assert sum(per_chain.values()) == pytest.approx(0.24, rel=1e-12)


def test_the_detector_factor_is_a_product_of_the_group_efficiencies():
    # eta per heralding group, multiplied as the engine multiplies it; eta ** 2 goes through the
    # platform's pow, which can be one ulp off (0.0662515874558729 under glibc 2.36 on x86-64)
    assert oracle_ecp1(0.6, 0.5, accounting="joint", eta=0.5874183784430576)["p_total"] == 0.06625158745587291
    tree = ast.parse(Path(oracle.__file__).read_text())
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Pow)]
