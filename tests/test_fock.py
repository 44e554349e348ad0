import math
import types

import numpy as np
import pytest

from ecpsim import fock
from ecpsim.fock import (
    DegenerateStateError,
    IsometryError,
    ModeCollisionError,
    PhotonBudgetError,
    State,
    apply_mode_transform,
    fidelity,
    inner,
    make_pattern,
    pattern_count,
    pattern_photons,
    single_photon,
    tensor,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
VACUUM = State({(): 1})


def ket(*occ):
    """State with a single pattern, occ entries (spatial, pol, count)."""
    return State({make_pattern({(sp, pol): n for sp, pol, n in occ}): 1.0})


class TestPatterns:
    def test_zero_counts_never_stored(self):
        p = make_pattern({("a1", "H"): 1, ("b2", "V"): 0})
        assert p == ((("a1", "H"), 1),)

    def test_sorted_canonical(self):
        p1 = make_pattern({("b2", "V"): 1, ("a1", "H"): 2})
        p2 = make_pattern({("a1", "H"): 2, ("b2", "V"): 1})
        assert p1 == p2
        assert pattern_photons(p1) == 3
        assert pattern_count(p1, "a1") == 2

    def test_negative_count_rejected(self):
        with pytest.raises(fock.FockError):
            make_pattern({("a1", "H"): -1})


class TestStateBasics:
    def test_prune_below_threshold(self):
        s = State({make_pattern({("a1", "H"): 1}): 1e-16})
        assert s.is_empty

    def test_accumulation_cancels(self):
        p = make_pattern({("a1", "H"): 1})
        s = State([(p, 0.5), (p, -0.5)])
        assert s.is_empty

    def test_photon_cap_enforced(self):
        with pytest.raises(PhotonBudgetError):
            State({make_pattern({("a1", "H"): 7}): 1.0})

    def test_plain_mapping_matches_dict(self):
        terms = {
            make_pattern({("a1", "H"): 1}): 0.6,
            make_pattern({("b2", "V"): 1}): 0.8j,
            make_pattern({("b3", "V"): 1}): 1e-16,
        }
        assert State(types.MappingProxyType(terms)) == State(terms)
        assert State(types.MappingProxyType(terms)).num_terms == 2

    def test_norm_and_normalize(self):
        s = single_photon([("a1", "H", 3.0), ("b2", "V", 4.0)])
        assert s.norm_sq() == pytest.approx(25.0)
        n = s.normalized()
        assert n.norm_sq() == pytest.approx(1.0)

    def test_normalize_zero_raises(self):
        with pytest.raises(DegenerateStateError):
            State().normalized()


class TestTensor:
    def test_amplitude_products_and_term_count(self):
        a = single_photon([("a1", "H", 0.6), ("a1", "V", 0.8)])
        b = single_photon([("b4", "V", 1.0)])
        t = tensor(a, b)
        assert t.num_terms == 2
        p = make_pattern({("a1", "H"): 1, ("b4", "V"): 1})
        assert t.amplitude(p) == pytest.approx(0.6)

    def test_six_term_product(self):
        signal = single_photon(
            [("a1", "H", 0.5), ("a1", "V", 0.5), ("b1", "H", 0.5), ("b1", "V", 0.5)]
        )
        aux = single_photon([("b4", "V", 0.8), ("b7", "H", 0.6)])
        t = tensor(signal, aux)
        assert t.num_terms == 8
        assert t.norm_sq() == pytest.approx(1.0)

    def test_mode_collision_rejected(self):
        a = single_photon([("a1", "H", 1.0)])
        b = single_photon([("a1", "H", 1.0)])
        with pytest.raises(ModeCollisionError):
            tensor(a, b)

    def test_vacuum_is_identity(self):
        a = single_photon([("a1", "H", 1.0)])
        assert tensor(a, VACUUM) == a

    def test_photon_cap_enforced(self):
        full = State({make_pattern({("a1", "H"): fock.PHOTON_CAP}): 1.0})
        with pytest.raises(PhotonBudgetError):
            tensor(full, single_photon([("b2", "V", 1.0)]))


def coupler_rules(in1, in2, out1, out2):
    r = INV_SQRT2
    rules = {}
    for pol in ("H", "V"):
        rules[(in1, pol)] = [((out1, pol), r), ((out2, pol), -r)]
        rules[(in2, pol)] = [((out1, pol), r), ((out2, pol), r)]
    return rules


class TestModeTransform:
    def test_single_photon_split(self):
        s = single_photon([("b2", "V", 1.0)])
        out = apply_mode_transform(s, coupler_rules("b2", "b5", "d1", "d2"))
        assert out.amplitude(make_pattern({("d1", "V"): 1})) == pytest.approx(INV_SQRT2)
        assert out.amplitude(make_pattern({("d2", "V"): 1})) == pytest.approx(-INV_SQRT2)

    def test_two_photon_bunching(self):
        # one photon in each input of a balanced coupler: coincidences cancel,
        # the pairs appear with the sqrt(2) bosonic enhancement
        s = tensor(
            single_photon([("b2", "V", 1.0)]), single_photon([("b5", "V", 1.0)])
        )
        out = apply_mode_transform(s, coupler_rules("b2", "b5", "d1", "d2"))
        both = make_pattern({("d1", "V"): 1, ("d2", "V"): 1})
        assert abs(out.amplitude(both)) < 1e-14
        assert out.amplitude(make_pattern({("d1", "V"): 2})) == pytest.approx(INV_SQRT2)
        assert out.amplitude(make_pattern({("d2", "V"): 2})) == pytest.approx(-INV_SQRT2)
        assert out.norm_sq() == pytest.approx(1.0)

    def test_untouched_modes_pass_through(self):
        s = tensor(
            single_photon([("a1", "H", 1.0)]), single_photon([("b2", "V", 1.0)])
        )
        out = apply_mode_transform(s, coupler_rules("b2", "b5", "d1", "d2"))
        p = make_pattern({("a1", "H"): 1, ("d1", "V"): 1})
        assert out.amplitude(p) == pytest.approx(INV_SQRT2)

    def test_output_collides_with_untouched_occupation(self):
        # moving a photon onto an occupied bystander mode is stimulated
        # emission, not a passive element; the transform refuses
        s = tensor(
            single_photon([("d1", "V", 1.0)]), single_photon([("b2", "V", 1.0)])
        )
        rules = {("b2", "V"): [(("d1", "V"), 1.0)]}
        with pytest.raises(ModeCollisionError):
            apply_mode_transform(s, rules)

    def test_vacuum_invariant(self):
        out = apply_mode_transform(VACUUM, coupler_rules("b2", "b5", "d1", "d2"))
        assert out == VACUUM

    def test_isometry_violation_rejected(self):
        bad = {("b2", "V"): [(("d1", "V"), 1.0), (("d2", "V"), 1.0)]}
        for _ in range(2):  # a failed check is never remembered as passed
            with pytest.raises(IsometryError):
                apply_mode_transform(single_photon([("b2", "V", 1.0)]), bad)

    def test_nonorthogonal_columns_rejected(self):
        r = INV_SQRT2
        bad = {
            ("b2", "V"): [(("d1", "V"), r), (("d2", "V"), r)],
            ("b5", "V"): [(("d1", "V"), r), (("d2", "V"), r)],
        }
        with pytest.raises(IsometryError):
            apply_mode_transform(single_photon([("b2", "V", 1.0)]), bad)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_random_unitary_preserves_norm_and_photons(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(m)
        rules = {
            ("x", "H"): [(("u", "H"), q[0, 0]), (("v", "H"), q[0, 1])],
            ("y", "H"): [(("u", "H"), q[1, 0]), (("v", "H"), q[1, 1])],
        }
        n_x = int(rng.integers(0, 3))
        n_y = int(rng.integers(0, 3))
        amp = complex(rng.normal(), rng.normal())
        s = State({make_pattern({("x", "H"): n_x, ("y", "H"): n_y}): amp})
        out = apply_mode_transform(s, rules)
        assert out.norm_sq() == pytest.approx(s.norm_sq(), abs=1e-12)
        for p, _ in out.items():
            assert pattern_photons(p) == n_x + n_y

    def test_composition_matches_matrix_product(self):
        rng = np.random.default_rng(11)
        mats = []
        for _ in range(2):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(m)
            mats.append(q)

        def rules_of(q, ins, outs):
            return {
                (ins[i], "H"): [((outs[j], "H"), q[i, j]) for j in range(2)]
                for i in range(2)
            }

        s = tensor(
            single_photon([("x", "H", 1.0)]), single_photon([("y", "H", 1.0)])
        )
        step = apply_mode_transform(s, rules_of(mats[0], ("x", "y"), ("m", "n")))
        step = apply_mode_transform(step, rules_of(mats[1], ("m", "n"), ("p", "q")))
        direct = apply_mode_transform(
            s, rules_of(mats[0] @ mats[1], ("x", "y"), ("p", "q"))
        )
        for p in set(step.patterns()) | set(direct.patterns()):
            assert step.amplitude(p) == pytest.approx(direct.amplitude(p), abs=1e-12)


class TestProjection:
    """``State.filtered`` is the unnormalized projection every measurement uses."""

    def test_collapse_and_probability(self):
        s = single_photon([("d1", "V", INV_SQRT2), ("d2", "V", -INV_SQRT2)])
        collapsed = s.filtered(lambda p: pattern_count(p, "d1") == 1)
        assert collapsed.norm_sq() == pytest.approx(0.5)
        assert collapsed.amplitude(make_pattern({("d1", "V"): 1})) == pytest.approx(INV_SQRT2)
        assert collapsed.num_terms == 1

    def test_complement_probabilities_sum_to_one(self):
        s = single_photon([("d1", "V", 0.6), ("d2", "V", 0.8j)])
        p1 = s.filtered(lambda p: pattern_count(p, "d1") == 1).norm_sq()
        p2 = s.filtered(lambda p: pattern_count(p, "d1") != 1).norm_sq()
        assert p1 + p2 == pytest.approx(1.0)

    def test_empty_outcome(self):
        s = single_photon([("d1", "V", 1.0)])
        collapsed = s.filtered(lambda p: pattern_count(p, "d9") == 1)
        assert collapsed.norm_sq() == 0.0
        assert collapsed.is_empty

    def test_collapse_preserves_relative_phase(self):
        s = single_photon([("d1", "V", 0.5), ("d1", "H", 0.5j), ("d2", "V", INV_SQRT2)])
        collapsed = s.filtered(lambda p: pattern_count(p, "d1") == 1)
        assert collapsed.norm_sq() == pytest.approx(0.5)
        a_v = collapsed.amplitude(make_pattern({("d1", "V"): 1}))
        a_h = collapsed.amplitude(make_pattern({("d1", "H"): 1}))
        assert a_h / a_v == pytest.approx(1j)


class TestInnerAndFidelity:
    def test_self_fidelity(self):
        s = single_photon([("a1", "H", 0.6), ("b2", "V", 0.8)])
        assert fidelity(s, s) == pytest.approx(1.0)

    def test_orthogonal(self):
        a = single_photon([("a1", "H", 1.0)])
        b = single_photon([("a1", "V", 1.0)])
        assert fidelity(a, b) == 0.0

    def test_scale_invariance(self):
        a = single_photon([("a1", "H", 1.0), ("b2", "V", 1.0)])
        b = a.scaled(0.01 * 1j)
        assert fidelity(a, b) == pytest.approx(1.0)

    def test_inner_conjugate_symmetry(self):
        a = single_photon([("a1", "H", 0.3 + 0.4j), ("b2", "V", 0.5)])
        b = single_photon([("a1", "H", 0.1), ("b2", "V", 0.2 - 0.9j)])
        assert inner(a, b) == pytest.approx(inner(b, a).conjugate())

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateStateError):
            fidelity(State(), single_photon([("a1", "H", 1.0)]))

