"""Ten numbered acceptance checks, one verdict line each.

Each test prints a single ``[PASS]`` or ``[FAIL]`` line (visible with
``pytest -s``) and then asserts, so the plain ``pytest -v`` listing also
shows exactly one line per criterion.  Tolerances are part of the checks;
so are the stated runtime budgets.
"""

import json
import time

import pytest

from ecpsim.circuits import BUILTIN_NAMES, builtin_doc, builtin_text
from ecpsim.cli import main
from ecpsim.dsl import evaluate_expr, parse
from ecpsim.elements import apply_pbs, apply_vbs, vbs_pair
from ecpsim.engine import _prologue, _run_chain, analyze, execute, run_ecp1, run_ecp2
from ecpsim.fock import fidelity, pattern_count, single_photon, tensor
from ecpsim.formulas import round_success_series
from ecpsim.measurement import DetectorModel, qnd_component
from ecpsim.montecarlo import estimate_series_total
from ecpsim.oracle import oracle_ecp1, oracle_ecp2
from ecpsim.params import EntanglementParams, PolarizationParams, vbs_schedule
from ecpsim.verify import all_passed, run_checks, summary

GRID_A2 = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
GRID_G2 = (0.0, 0.3, 0.5, 1.0)
TOL = 1e-12


def _verdict(num, label, ok, detail=""):
    word = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"[{word}] acceptance {num:02d} {label}{tail}")
    assert ok, f"acceptance {num:02d} {label}{tail}"


def _bindings(ent, pol):
    return {
        "alpha": ent.alpha,
        "beta": ent.beta,
        "gamma": pol.gamma,
        "delta": pol.delta,
    }


def _split_signal(ent, pol):
    return single_photon(
        [
            ("a1", "H", ent.alpha * pol.gamma),
            ("a1", "V", ent.alpha * pol.delta),
            ("b3", "H", ent.beta * pol.gamma),
            ("b2", "V", ent.beta * pol.delta),
        ]
    )


def test_criterion_01_branch_probabilities():
    started = time.perf_counter()
    worst = 0.0
    for a2 in GRID_A2:
        ent = EntanglementParams.from_alpha_sq(a2)
        for g2 in GRID_G2:
            pol = PolarizationParams.from_gamma_sq(g2)
            report = run_ecp1(ent, pol, accounting="branch")
            got_plus = report.paper_comparison["claimed_success_plus"][
                "simulated_value"
            ]
            got_minus = report.paper_comparison["claimed_success_minus"][
                "simulated_value"
            ]
            want_plus = a2 * (1.0 - a2) * (2.0 - g2)
            want_minus = a2 * (1.0 - a2) * (1.0 + g2)
            worst = max(
                worst, abs(got_plus - want_plus), abs(got_minus - want_minus)
            )
    elapsed = time.perf_counter() - started
    _verdict(
        1,
        "single-round branch probabilities",
        worst <= TOL and elapsed < 1.0,
        f"max delta {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_heralded_fidelity():
    started = time.perf_counter()
    worst = 1.0
    for a2 in GRID_A2:
        ent = EntanglementParams.from_alpha_sq(a2)
        for g2 in GRID_G2:
            pol = PolarizationParams.from_gamma_sq(g2)
            for accounting in ("branch", "joint"):
                report = run_ecp1(ent, pol, accounting=accounting)
                worst = min(worst, report.rounds[0].heralded_fidelity)
    elapsed = time.perf_counter() - started
    _verdict(
        2,
        "corrected success fidelity",
        worst >= 1.0 - TOL and elapsed < 5.0,
        f"min fidelity 1-{1.0 - worst:.2e}, {elapsed:.2f}s",
    )


def _photon(sources, bindings):
    return single_photon([(s.mode, s.pol, evaluate_expr(s.amp, bindings)) for s in sources])


def _class1_probability(ent, pol, t):
    plan = analyze(builtin_doc("ecp2"))
    arm = next(a for a in plan.arms if a.label == "plus")
    others = [a.signal_mode for a in plan.arms if a is not arm]
    bindings = _bindings(ent, pol)
    tab = plan.table
    signal = _photon(plan.signal_sources, bindings)
    signal = apply_pbs(signal, plan.split.inp, plan.split.out_h, plan.split.out_v)
    inp = signal.filtered(
        lambda p: all(pattern_count(p, m) == 0 for m in others)
    )
    aux = _photon(arm.aux_sources, bindings)
    aux = apply_vbs(aux, arm.vbs.inp, arm.vbs.reflect, arm.vbs.transmit, t)
    return qnd_component(tensor(inp, aux), arm.qnd.a, arm.qnd.b, 1).norm_sq()


def test_criterion_03_qnd_selection_probability():
    worst = 0.0
    for a2 in GRID_A2:
        ent = EntanglementParams.from_alpha_sq(a2)
        for g2 in GRID_G2:
            pol = PolarizationParams.from_gamma_sq(g2)
            t1 = a2
            got = _class1_probability(ent, pol, t1)
            want = a2 * (1.0 - t1) + (1.0 - a2) * (1.0 - g2) * t1
            worst = max(worst, abs(got - want))
    # off the default schedule the same closed form must still hold
    ent = EntanglementParams.from_alpha_sq(0.6)
    pol = PolarizationParams.from_gamma_sq(0.3)
    got = _class1_probability(ent, pol, 0.37)
    want = 0.6 * 0.63 + 0.4 * 0.7 * 0.37
    worst = max(worst, abs(got - want))
    _verdict(
        3,
        "single-count selection probability",
        worst <= TOL,
        f"max delta {worst:.2e}",
    )


def test_criterion_04_recycling_recursion():
    plan = analyze(builtin_doc("ecp2"))
    arm = next(a for a in plan.arms if a.label == "plus")
    worst = 1.0
    for a2 in GRID_A2:
        ent = EntanglementParams.from_alpha_sq(a2)
        for g2 in (0.3, 0.5, 0.7):
            pol = PolarizationParams.from_gamma_sq(g2)
            inp = _split_signal(ent, pol).filtered(
                lambda p: pattern_count(p, "b3") == 0
            )
            results = _run_chain(
                plan, [arm], plan.table.of(inp),
                zip(map(vbs_pair, vbs_schedule(ent, 5))), _prologue(plan, pol)(_bindings(ent, pol))[3][:1],
                DetectorModel(),
            )
            for k, res in enumerate(results, start=1):
                a_scale = ent.alpha_sq ** (2**k / 2)
                b_scale = ent.beta_sq ** (2**k / 2)
                expected = single_photon(
                    [
                        ("a1", "H", a_scale * pol.gamma),
                        ("a1", "V", a_scale * pol.delta),
                        ("b2", "V", b_scale * pol.delta),
                    ]
                )
                worst = min(worst, fidelity(plan.table.state(res.recycle_next), expected))
    _verdict(
        4,
        "failure residual after k rounds",
        worst >= 1.0 - TOL,
        f"min fidelity 1-{1.0 - worst:.2e}, k <= 5",
    )


def test_criterion_05_series_reproduction():
    worst = 0.0
    for a2 in GRID_A2:
        ent = EntanglementParams.from_alpha_sq(a2)
        report = run_ecp2(ent, rounds=5)
        series = round_success_series(a2, 1.0, 5)
        for res, want in zip(report.rounds, series):
            worst = max(worst, abs(res.p_success - want))
    anchor = run_ecp2(EntanglementParams.from_alpha_sq(0.5), rounds=2)
    anchors_ok = (
        abs(anchor.rounds[0].p_success - 0.5) <= TOL
        and abs(anchor.rounds[1].p_success - 0.25) <= TOL
    )
    _verdict(
        5,
        "per-round success series",
        worst <= TOL and anchors_ok,
        f"max delta {worst:.2e}, k <= 5",
    )


def test_criterion_06_total_success_structure():
    started = time.perf_counter()
    eta = 0.8
    rounds = (1, 3, 5)
    totals = {
        a2: {k: sum(round_success_series(a2, eta, k)) for k in rounds}
        for a2 in GRID_A2
    }
    symmetric = max(
        abs(totals[a2][k] - totals[round(1.0 - a2, 10)][k])
        for a2 in (0.1, 0.2, 0.3, 0.4)
        for k in rounds
    )
    increasing = all(
        totals[a2][1] < totals[a2][3] < totals[a2][5] for a2 in GRID_A2
    )
    midpoint = abs(totals[0.5][1] - 0.4)
    sampled_ok = True
    sigma_worst = 0.0
    for a2 in (0.3, 0.5):
        for k in rounds:
            est, err, exact = estimate_series_total(
                a2, rounds=k, eta_p=eta, trials=100_000, seed=17
            )
            sigmas = abs(est - exact) / err
            sigma_worst = max(sigma_worst, sigmas)
            sampled_ok = sampled_ok and sigmas <= 5.0
    elapsed = time.perf_counter() - started
    _verdict(
        6,
        "total success versus input asymmetry",
        symmetric <= TOL
        and increasing
        and midpoint <= TOL
        and sampled_ok
        and elapsed < 60.0,
        f"symmetry {symmetric:.2e}, midpoint {midpoint:.2e}, "
        f"worst {sigma_worst:.1f} sigma, {elapsed:.1f}s",
    )


def test_criterion_07_oracle_equivalence():
    worst = 0.0
    for a2 in GRID_A2:
        ent = EntanglementParams.from_alpha_sq(a2)
        for g2 in (None,) + GRID_G2:
            pol = PolarizationParams.from_gamma_sq(g2) if g2 is not None else None
            for accounting in ("branch", "joint"):
                r1 = run_ecp1(ent, pol, accounting=accounting)
                o1 = oracle_ecp1(a2, g2, accounting=accounting)
                worst = max(worst, abs(r1.p_total - o1["p_total"]))
                worst = max(
                    worst,
                    abs(r1.rounds[0].heralded_fidelity - o1["fidelity"]),
                )
                r2 = run_ecp2(ent, pol, rounds=3, accounting=accounting)
                o2 = oracle_ecp2(a2, g2, rounds=3, accounting=accounting)
                for got, want in zip(r2.rounds, o2["rounds"]):
                    worst = max(worst, abs(got.p_success - want["p_success"]))
                    worst = max(
                        worst,
                        abs(got.p_fail_recyclable - want["p_recycle"]),
                    )
    joint = run_ecp1(
        EntanglementParams.from_alpha_sq(0.6),
        PolarizationParams.from_gamma_sq(0.5),
        accounting="joint",
    )
    recorded = joint.paper_comparison
    has_info = (
        "claimed_total" in recorded and "predicted_joint_total" in recorded
    )
    _verdict(
        7,
        "engine agrees with the path-sum oracle",
        worst <= TOL and has_info,
        f"max delta {worst:.2e}; one-round coherent total "
        f"{joint.p_total:.6f} vs published "
        f"{recorded['claimed_total']['paper_value']:.2f} "
        f"and product-rule {recorded['predicted_joint_total']['paper_value']:.3f}"
        " (informational)",
    )


def test_criterion_08_published_total_discrepancy_is_informational():
    results = run_checks(trials=4000, seed=0)
    info = [r for r in results if r.name == "published_totals_discrepancy"]
    ok = (
        len(info) == 1
        and info[0].passed is None
        and "0.72" in info[0].detail
        and "0.48" in info[0].detail
        and all_passed(results)
        and "INFO" in summary(results)
    )
    _verdict(
        8,
        "published totals mismatch surfaces as informational",
        ok,
        info[0].detail if info else "missing check",
    )


def test_criterion_09_shipped_circuits_round_trip():
    ent = EntanglementParams.from_alpha_sq(0.6)
    pol = PolarizationParams.from_gamma_sq(0.5)
    run_args = {
        "ecp1": dict(ent=ent, pol=pol),
        "ecp1_stripped": dict(ent=ent),
        "ecp2": dict(ent=ent, pol=pol, rounds=2),
        "ecp2_stripped": dict(ent=ent, rounds=3),
    }
    ok = True
    for name in BUILTIN_NAMES:
        doc = parse(builtin_text(name))
        kwargs = dict(run_args[name])
        shipped_ent = kwargs.pop("ent")
        shipped_pol = kwargs.pop("pol", None)
        for accounting in ("branch", "joint"):
            native = execute(
                builtin_doc(name), shipped_ent, shipped_pol,
                accounting=accounting, **kwargs,
            )
            shipped = execute(
                doc, shipped_ent, shipped_pol, accounting=accounting, **kwargs
            )
            ok = ok and shipped.to_json() == native.to_json()
    _verdict(
        9,
        "shipped circuit files parse and reproduce reports",
        ok,
        f"{len(BUILTIN_NAMES)} layouts, both accountings",
    )


def test_criterion_10_byte_determinism(tmp_path, capsys):
    def artifact(args, filename):
        out = tmp_path / filename
        assert main(list(args) + ["--out", str(out)]) == 0
        capsys.readouterr()
        return out.read_bytes()

    ok = True
    exact = ("run", "--alpha-sq", "0.6", "--gamma-sq", "0.5", "--seed", "2")
    ok = ok and artifact(exact, "e1.json") == artifact(exact, "e2.json")
    sampled = (
        "run", "--protocol", "ecp2", "--alpha-sq", "0.6", "--rounds", "3",
        "--engine", "monte_carlo", "--eta", "0.8", "--trials", "20000",
        "--seed", "11",
    )
    ok = ok and artifact(sampled, "m1.json") == artifact(sampled, "m2.json")
    sweep = (
        "sweep", "--alpha-sq-list", "0.2,0.5,0.8", "--rounds", "2",
        "--eta", "0.8", "--trials", "8000", "--seed", "7",
    )
    ok = ok and artifact(sweep, "s1.csv") == artifact(sweep, "s2.csv")
    verify_args = ["verify", "--trials", "2000", "--seed", "5"]
    assert main(verify_args) == 0
    first = capsys.readouterr().out
    assert main(verify_args) == 0
    second = capsys.readouterr().out
    ok = ok and first == second
    _verdict(10, "identical seeds give identical bytes", ok)
