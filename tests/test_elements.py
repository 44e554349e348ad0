import math

import numpy as np
import pytest

from ecpsim import elements
from ecpsim.elements import (
    PortContractError,
    apply_bs,
    apply_pbs,
    apply_pbs_merge,
    apply_phase_flip,
    apply_vbs,
    bs_matrix,
    merge_terms,
    split_terms,
)
from ecpsim.fock import CheckedRules, ModeCollisionError, PatternTable, State, make_pattern, single_photon, tensor

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def random_two_mode_state(seed, spatials=("b2", "b5")):
    rng = np.random.default_rng(seed)
    comps = []
    for sp in spatials:
        for pol in ("H", "V"):
            comps.append((sp, pol, complex(rng.normal(), rng.normal())))
    return single_photon(comps)


class TestPbs:
    def test_routing(self):
        s = single_photon([("b1", "H", 0.6), ("b1", "V", 0.8)])
        out = apply_pbs(s, "b1", out_h="b3", out_v="b2")
        assert out.amplitude(make_pattern({("b3", "H"): 1})) == pytest.approx(0.6)
        assert out.amplitude(make_pattern({("b2", "V"): 1})) == pytest.approx(0.8)
        assert out.norm_sq() == pytest.approx(1.0)

    def test_bystander_untouched(self):
        s = single_photon([("a1", "H", 1.0)])
        assert apply_pbs(s, "b1", "b3", "b2") == s

    def test_duplicate_ports_rejected(self):
        s = single_photon([("b1", "H", 1.0)])
        with pytest.raises(PortContractError):
            apply_pbs(s, "b1", "b3", "b3")

    def test_merge(self):
        s = single_photon([("b9", "H", 0.6), ("b6", "V", 0.8)])
        out = apply_pbs_merge(s, in_h="b9", in_v="b6", out="b10")
        assert out.amplitude(make_pattern({("b10", "H"): 1})) == pytest.approx(0.6)
        assert out.amplitude(make_pattern({("b10", "V"): 1})) == pytest.approx(0.8)

    def test_merge_rejects_wrong_polarization(self):
        s = single_photon([("b9", "V", 1.0)])
        with pytest.raises(PortContractError):
            apply_pbs_merge(s, in_h="b9", in_v="b6", out="b10")
        s = single_photon([("b6", "H", 1.0)])
        with pytest.raises(PortContractError):
            apply_pbs_merge(s, in_h="b9", in_v="b6", out="b10")

    def test_split_then_merge_is_identity_on_labels(self):
        s = single_photon([("x", "H", 0.6), ("x", "V", 0.8j)])
        mid = apply_pbs(s, "x", out_h="h", out_v="v")
        back = apply_pbs_merge(mid, in_h="h", in_v="v", out="y")
        expect = single_photon([("y", "H", 0.6), ("y", "V", 0.8j)])
        assert back == expect

    def test_split_and_merge_on_one_table_keep_their_own_ports(self):
        # a split x -> (y, z) and a merge (x, y) -> z name the same ports
        tab = PatternTable()
        s = single_photon([("x", "H", 0.6), ("x", "V", 0.8)])
        m = single_photon([("x", "H", 0.6), ("y", "V", 0.8)])
        split = split_terms(tab, tab.of(s), "x", "y", "z")
        merged = merge_terms(tab, tab.of(m), "x", "y", "z")
        assert tab.state(split) == apply_pbs(s, "x", "y", "z")
        assert tab.state(merged) == apply_pbs_merge(m, "x", "y", "z")

    @pytest.mark.parametrize("ports,bystander", [
        (("x", "h", "x", "v"), ("h", "V")),  # split: H of x to h, V of x to v
        (("h", "y", "v", "y"), ("a", "V")),  # merge: H of h and V of v to y
    ])
    def test_relabels_equal_the_transform(self, ports, bystander):
        # keys, order and the collision message equal the transform's on multi-photon terms, cold
        # and warm; each amplitude comes back exactly as it went in, which is the transform's
        # value on the terms of one photon per mode; an occupied output raises the transform's error
        h_in, h_out, v_in, v_out = ports
        rules = CheckedRules({(h_in, "H"): [((h_out, "H"), 1.0)], (v_in, "V"): [((v_out, "V"), 1.0)]})

        def relabel(tab, terms):
            if h_in == v_in:
                return split_terms(tab, terms, h_in, h_out, v_out)
            return merge_terms(tab, terms, h_in, v_in, h_out)

        rng = np.random.default_rng(5)
        patterns = [
            {(h_in, "H"): 1, (v_in, "V"): 1},
            {(h_in, "H"): 2},
            {(v_in, "V"): 2, ("a", "H"): 1},
            {("a", "H"): 1},  # nothing moves
            {(h_in, "H"): 1, (v_in, "V"): 1, bystander: 1, ("b", "V"): 2},
        ]
        tab = PatternTable()
        terms = tab.of(State({make_pattern(c): complex(*rng.normal(size=2)) for c in patterns}))
        want = tab.transform(terms, rules)
        got = relabel(tab, terms)
        assert list(got) == list(want)
        assert list(relabel(tab, terms).items()) == list(got.items())
        assert list(got.values()) == list(terms.values())
        single = [q for p, q in zip(terms, got) if all(n == 1 for _, n in tab.patterns[p])]
        assert len(single) == 2 and all(got[q] == want[q] for q in single)
        occupied = tab.of(State({make_pattern({(h_in, "H"): 1, (h_out, "H"): 1}): 1.0}))
        with pytest.raises(ModeCollisionError) as by_transform:
            tab.transform(occupied, rules)
        with pytest.raises(ModeCollisionError) as by_relabel:
            relabel(tab, occupied)
        assert str(by_relabel.value) == str(by_transform.value)


class TestBalancedCoupler:
    def test_convention(self):
        s1 = apply_bs(single_photon([("x", "V", 1.0)]), "x", "y", "u", "v")
        assert s1.amplitude(make_pattern({("u", "V"): 1})) == pytest.approx(INV_SQRT2)
        assert s1.amplitude(make_pattern({("v", "V"): 1})) == pytest.approx(-INV_SQRT2)
        s2 = apply_bs(single_photon([("y", "V", 1.0)]), "x", "y", "u", "v")
        assert s2.amplitude(make_pattern({("u", "V"): 1})) == pytest.approx(INV_SQRT2)
        assert s2.amplitude(make_pattern({("v", "V"): 1})) == pytest.approx(INV_SQRT2)

    def test_same_polarization_bunching(self):
        s = tensor(
            single_photon([("x", "V", 1.0)]), single_photon([("y", "V", 1.0)])
        )
        out = apply_bs(s, "x", "y", "u", "v")
        assert abs(out.amplitude(make_pattern({("u", "V"): 1, ("v", "V"): 1}))) < 1e-14
        assert out.amplitude(make_pattern({("u", "V"): 2})) == pytest.approx(INV_SQRT2)
        assert out.amplitude(make_pattern({("v", "V"): 2})) == pytest.approx(-INV_SQRT2)

    def test_cross_polarization_no_bunching(self):
        # distinguishable photons: all four coincidence terms survive at 1/2
        s = tensor(
            single_photon([("x", "V", 1.0)]), single_photon([("y", "H", 1.0)])
        )
        out = apply_bs(s, "x", "y", "u", "v")
        mags = {
            ("u", "u"): abs(out.amplitude(make_pattern({("u", "V"): 1, ("u", "H"): 1}))),
            ("u", "v"): abs(out.amplitude(make_pattern({("u", "V"): 1, ("v", "H"): 1}))),
            ("v", "u"): abs(out.amplitude(make_pattern({("v", "V"): 1, ("u", "H"): 1}))),
            ("v", "v"): abs(out.amplitude(make_pattern({("v", "V"): 1, ("v", "H"): 1}))),
        }
        for m in mags.values():
            assert m == pytest.approx(0.5)

    def test_double_application_is_a_signed_swap(self):
        m = np.array(bs_matrix())
        np.testing.assert_allclose(m @ m, np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-15)

    def test_port_contract(self):
        s = single_photon([("x", "V", 1.0)])
        with pytest.raises(PortContractError):
            apply_bs(s, "x", "x", "u", "v")
        with pytest.raises(PortContractError):
            apply_bs(s, "x", "y", "u", "u")

    @pytest.mark.parametrize("seed", range(5))
    def test_norm_preserved(self, seed):
        s = random_two_mode_state(seed)
        out = apply_bs(s, "b2", "b5", "d1", "d2")
        assert out.norm_sq() == pytest.approx(s.norm_sq(), abs=1e-12)


class TestVariableCoupler:
    def test_split_amplitudes(self):
        s = single_photon([("b4", "V", 1.0)])
        out = apply_vbs(s, "b4", reflect="b5", transmit="b6", t=0.6)
        assert out.amplitude(make_pattern({("b5", "V"): 1})) == pytest.approx(
            math.sqrt(0.4)
        )
        assert out.amplitude(make_pattern({("b6", "V"): 1})) == pytest.approx(
            math.sqrt(0.6)
        )

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_boundary_transmittance(self, t):
        s = single_photon([("b4", "V", 1.0)])
        out = apply_vbs(s, "b4", "b5", "b6", t)
        target = "b6" if t == 1.0 else "b5"
        assert out.amplitude(make_pattern({(target, "V"): 1})) == pytest.approx(1.0)
        assert out.num_terms == 1

    def test_balanced_point(self):
        s = single_photon([("b4", "V", 1.0)])
        out = apply_vbs(s, "b4", "b5", "b6", 0.5)
        a5 = out.amplitude(make_pattern({("b5", "V"): 1}))
        a6 = out.amplitude(make_pattern({("b6", "V"): 1}))
        assert a5 == pytest.approx(a6) == pytest.approx(INV_SQRT2)

    @pytest.mark.parametrize("t", [-0.1, 1.1, math.nan])
    def test_transmittance_range(self, t):
        s = single_photon([("b4", "V", 1.0)])
        with pytest.raises(ValueError):
            apply_vbs(s, "b4", "b5", "b6", t)

    @pytest.mark.parametrize("seed,t", [(0, 0.3), (1, 0.77), (2, 0.999)])
    def test_norm_preserved(self, seed, t):
        s = random_two_mode_state(seed, spatials=("b4",))
        out = apply_vbs(s, "b4", "b5", "b6", t)
        assert out.norm_sq() == pytest.approx(s.norm_sq(), abs=1e-12)


class TestPhaseFlip:
    def test_odd_count_negated(self):
        s = single_photon([("b6", "V", 0.5), ("a1", "H", 0.5)])
        out = apply_phase_flip(s, "b6")
        assert out.amplitude(make_pattern({("b6", "V"): 1})) == pytest.approx(-0.5)
        assert out.amplitude(make_pattern({("a1", "H"): 1})) == pytest.approx(0.5)

    def test_even_count_unchanged(self):
        s = State({make_pattern({("b6", "V"): 2}): 1.0})
        assert apply_phase_flip(s, "b6") == s

    def test_counts_both_polarizations(self):
        s = State({make_pattern({("b6", "V"): 1, ("b6", "H"): 1}): 1.0})
        assert apply_phase_flip(s, "b6") == s
        odd = State({make_pattern({("b6", "V"): 2, ("b6", "H"): 1}): 1.0})
        assert apply_phase_flip(odd, "b6").amplitude(
            make_pattern({("b6", "V"): 2, ("b6", "H"): 1})
        ) == pytest.approx(-1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_involution(self, seed):
        s = random_two_mode_state(seed, spatials=("b6", "a1"))
        assert apply_phase_flip(apply_phase_flip(s, "b6"), "b6") == s


class TestFaultHook:
    def test_phase_fault_changes_interference(self):
        # a photon split evenly over both inputs recombines entirely into one
        # output; the injected relative phase breaks that interference while
        # staying unitary
        s = single_photon([("x", "V", INV_SQRT2), ("y", "V", INV_SQRT2)])
        clean = apply_bs(s, "x", "y", "u", "v")
        old = elements.BS_IN2_PHASE
        elements.BS_IN2_PHASE = 1j
        try:
            corrupted = apply_bs(s, "x", "y", "u", "v")
        finally:
            elements.BS_IN2_PHASE = old
        assert corrupted.norm_sq() == pytest.approx(1.0)
        u = make_pattern({("u", "V"): 1})
        v = make_pattern({("v", "V"): 1})
        assert abs(clean.amplitude(u)) == pytest.approx(1.0)
        assert abs(clean.amplitude(v)) < 1e-14
        assert abs(corrupted.amplitude(v)) == pytest.approx(INV_SQRT2)
