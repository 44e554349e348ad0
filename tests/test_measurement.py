import math

import numpy as np
import pytest

from ecpsim.dsl import DetectDecl
from ecpsim.elements import apply_bs, apply_phase_flip, apply_vbs
from ecpsim.fock import PolarizationMixtureError, State, make_pattern, single_photon, tensor
from ecpsim.measurement import (
    DetectorModel,
    herald,
    qnd_component,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def successes(outcomes):
    return [o for o in outcomes if o.success]


def corrected(outcome):
    """The normalized residual with the outcome's feed-forward flips applied."""
    s = outcome.residual
    for m in outcome.correction:
        s = apply_phase_flip(s, m)
    return s


def plus_arm_state(alpha_sq=0.6, gamma_sq=0.5, t=None):
    """Signal components kept by the V-routed arm, auxiliary photon split."""
    a = math.sqrt(alpha_sq)
    b = math.sqrt(1.0 - alpha_sq)
    g = math.sqrt(gamma_sq)
    d = math.sqrt(1.0 - gamma_sq)
    if t is None:
        t = alpha_sq
    signal = single_photon([("a1", "H", a * g), ("a1", "V", a * d), ("b2", "V", b * d)])
    aux = apply_vbs(single_photon([("b4", "V", 1.0)]), "b4", "b5", "b6", t)
    return tensor(signal, aux)


class TestQnd:
    def test_class_weights_on_branch_state(self):
        s = plus_arm_state(0.6, 0.5)
        c1 = qnd_component(s, "b2", "b5", 1)
        c0 = qnd_component(s, "b2", "b5", 0)
        # alpha^2 (1-t) + beta^2 delta^2 t at t = alpha^2
        assert c1.norm_sq() == pytest.approx(0.36, abs=1e-12)
        assert c0.norm_sq() == pytest.approx(s.norm_sq() - 0.36, abs=1e-12)

    def test_classes_partition(self):
        rng = np.random.default_rng(7)
        terms = {}
        for na in range(3):
            for nb in range(3):
                amp = complex(rng.normal(), rng.normal())
                terms[make_pattern({("x", "V"): na, ("y", "V"): nb})] = amp
        s = State(terms).normalized()
        probs = [qnd_component(s, "x", "y", c).norm_sq() for c in range(4)]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_sign_of_difference_not_resolved(self):
        s = single_photon([("x", "V", INV_SQRT2), ("y", "V", INV_SQRT2)])
        kept = qnd_component(s, "x", "y", 1)
        assert kept.norm_sq() == pytest.approx(1.0)
        # both orderings survive coherently
        assert kept.num_terms == 2

    def test_empty_class(self):
        s = single_photon([("x", "V", 1.0)])
        kept = qnd_component(s, "x", "y", 3)
        assert kept.norm_sq() == 0.0
        assert kept.is_empty


class TestHerald:
    def test_outcome_partition_and_order(self):
        s = plus_arm_state(0.6, 0.5)
        after = apply_bs(s, "b2", "b5", "d1", "d2")
        outs = herald(after, [DetectDecl("g", ("d1", "d2"))])
        assert sum(o.weight for o in outs) == pytest.approx(after.norm_sq(), abs=1e-12)
        sigs = [o.clicks for o in outs]
        assert sigs == sorted(sigs)

    def test_success_tagging(self):
        s = plus_arm_state(0.6, 0.5)
        after = apply_bs(s, "b2", "b5", "d1", "d2")
        outs = herald(after, [DetectDecl("g", ("d1", "d2"))])
        by_clicks = {o.clicks: o for o in outs}
        assert by_clicks[(("d1", 1),)].success
        assert by_clicks[(("d2", 1),)].success
        # no click at all: the auxiliary photon went to the kept output
        assert not by_clicks[()].success
        # two photons bunched at one detector
        assert not by_clicks[(("d1", 2),)].success
        assert not by_clicks[(("d2", 2),)].success

    def test_single_click_probability(self):
        s = plus_arm_state(0.6, 0.5)
        after = apply_bs(s, "b2", "b5", "d1", "d2")
        outs = successes(herald(after, [DetectDecl("g", ("d1", "d2"))]))
        assert sum(o.probability for o in outs) == pytest.approx(0.36, abs=1e-12)

    def test_correction_restores_minus_outcome(self):
        s = plus_arm_state(0.6, 0.5)
        after = apply_bs(s, "b2", "b5", "d1", "d2")
        outs = successes(
            herald(after, [DetectDecl("g", ("d1", "d2"))], corrections={"d2": "b6"})
        )
        by_clicks = {o.clicks: o for o in outs}
        d1 = by_clicks[(("d1", 1),)]
        d2 = by_clicks[(("d2", 1),)]
        assert d2.correction == ("b6",)
        r1 = corrected(d1)
        r2 = corrected(d2)
        for p in set(r1.patterns()) | set(r2.patterns()):
            assert r1.amplitude(p) == pytest.approx(r2.amplitude(p), abs=1e-12)

    def test_residual_strips_detected_photons(self):
        s = plus_arm_state(0.6, 0.5)
        after = apply_bs(s, "b2", "b5", "d1", "d2")
        outs = herald(after, [DetectDecl("g", ("d1", "d2"))])
        for o in outs:
            assert not ({"d1", "d2"} & o.residual.spatial_modes())

    def test_efficiency_factor_on_success_only(self):
        s = plus_arm_state(0.6, 0.5)
        after = apply_bs(s, "b2", "b5", "d1", "d2")
        model = DetectorModel(eta_p=0.8)
        outs = herald(after, [DetectDecl("g", ("d1", "d2"))], model=model)
        succ = [o for o in outs if o.success]
        fail = [o for o in outs if not o.success]
        assert sum(o.probability for o in succ) == pytest.approx(0.36 * 0.8, abs=1e-12)
        for o in fail:
            assert o.probability == pytest.approx(o.weight)

    def test_group_eta_override(self):
        s = plus_arm_state(0.6, 0.5)
        after = apply_bs(s, "b2", "b5", "d1", "d2")
        model = DetectorModel(eta_p=0.8)
        outs = successes(
            herald(after, [DetectDecl("g", ("d1", "d2"), eta=1.0)], model=model)
        )
        assert sum(o.probability for o in outs) == pytest.approx(0.36, abs=1e-12)

    def test_two_groups_multiply_efficiency(self):
        one = single_photon([("d1", "V", 1.0)])
        other = single_photon([("d3", "H", 1.0)])
        s = tensor(one, other)
        model = DetectorModel(eta_p=0.8)
        outs = herald(
            s,
            [DetectDecl("g1", ("d1", "d2")), DetectDecl("g2", ("d3", "d4"))],
            model=model,
        )
        assert len(outs) == 1
        assert outs[0].success
        assert outs[0].probability == pytest.approx(0.8 * 0.8)

    def test_joint_requirement_fails_if_one_group_empty(self):
        s = single_photon([("d1", "V", 1.0)])
        outs = herald(
            s, [DetectDecl("g1", ("d1", "d2")), DetectDecl("g2", ("d3", "d4"))]
        )
        assert len(outs) == 1
        assert not outs[0].success

    def test_vacuum_residual(self):
        s = single_photon([("d1", "V", 1.0)])
        outs = herald(s, [DetectDecl("g", ("d1", "d2"))])
        assert outs[0].residual == State({(): 1.0})

    def test_corrected_raw_keeps_weight(self):
        s = plus_arm_state(0.6, 0.5)
        after = apply_bs(s, "b2", "b5", "d1", "d2")
        outs = successes(
            herald(after, [DetectDecl("g", ("d1", "d2"))], corrections={"d2": "b6"})
        )
        for o in outs:
            raw = corrected(o).scaled(math.sqrt(o.weight))
            assert raw.norm_sq() == pytest.approx(o.weight, abs=1e-12)


class TestDetectorModel:
    def test_eta_range(self):
        with pytest.raises(ValueError):
            DetectorModel(eta_p=1.2)
        with pytest.raises(ValueError):
            DetectorModel(eta_p=-0.1)

    def test_group_validation(self):
        with pytest.raises(ValueError, match="detector group 'g' repeats a mode"):
            herald(single_photon([("d1", "V", 1.0)]), [DetectDecl("g", ("d1", "d1"))])


def test_outcomes_that_differ_only_in_an_absorbed_polarization_are_a_mixture():
    # d1 absorbs H from b2 or V from b5 and leaves the vacuum either way; the
    # detector cannot tell them apart, so the two outputs do not add coherently
    state = apply_bs(single_photon([("b2", "H", 0.6), ("b5", "V", 0.8)]), "b2", "b5", "d1", "d2")
    with pytest.raises(PolarizationMixtureError):
        herald(state, [DetectDecl("g", ("d1", "d2"))])
    # one polarization per path still heralds normalized residuals
    state = apply_bs(single_photon([("b2", "V", 0.6), ("b5", "V", 0.8)]), "b2", "b5", "d1", "d2")
    outcomes = herald(state, [DetectDecl("g", ("d1", "d2"))])
    assert [o.residual.norm_sq() for o in outcomes] == pytest.approx([1.0, 1.0])
