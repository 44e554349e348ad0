"""Sparse Fock-state algebra over labeled optical modes.

A mode is a pair ``(spatial, pol)`` where ``spatial`` is a free-form label
("a1", "b2", ...) and ``pol`` is one of ``"H"``, ``"V"``.  A basis ket is an
occupation pattern: a sorted tuple of ``(mode, count)`` entries with every
count >= 1 (empty modes are never stored, so the vacuum is the empty tuple).
A state is a sparse complex superposition of such patterns.

Conventions used throughout:

* amplitudes below ``PRUNE_EPS`` in magnitude are dropped whenever a state
  is built;
* the total photon number of any stored pattern must stay at or below
  ``PHOTON_CAP`` (few-photon regime: the supported layouts hold at most a
  signal photon and one auxiliary photon per arm).  The public ``State(...)``
  checks it, so ``single_photon`` and ``tensor``, the only operations that
  add photons, raise ``PhotonBudgetError`` past it.  Results that conserve
  or remove photons and hold distinct patterns (``scaled``, ``filtered``,
  transforms, phase flips, heralding) go through the private
  ``State._trusted``, which only prunes;
* states are immutable once built -- every operation returns a new state;
* linear-optics transforms act by substitution on creation operators with
  exact ``sqrt(n!)`` bookkeeping, so bosonic interference (bunching) comes
  out of the algebra rather than being special-cased.

Norms are not enforced: intermediate protocol states are deliberately kept
unnormalized so that squared norms compose into branch probabilities.

The kernels (mode transforms here, the polarizing-splitter relabels in
``elements``, heralding in ``measurement``) run on a ``PatternTable``:
patterns interned to ids, and states as ``{id: amplitude}`` dicts;
``State`` operations use a throwaway table, the engine one per plan.  Results are pruned where built: ``State(...)`` and
``PatternTable.admit`` (prune, photon cap, accumulate, prune), ``prune`` for
the transform.  The engine runs the kernels only to compile its rounds, on
unit products, where the prune drops coefficient noise; its compiled rounds
drop no value.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Mapping, Sequence

H = "H"
V = "V"
POLARIZATIONS = (H, V)

PRUNE_EPS = 1e-15  # smallest amplitude magnitude a State term or compiled coefficient keeps (absolute)
NORM_TOL = 1e-12  # a norm at or below it is (numerically) zero; also a unit norm's slack
ISOMETRY_TOL = 1e-12  # largest deviation of a transform's column overlaps from the identity
RECYCLE_AGREEMENT_TOL = 1e-9  # largest infidelity between two recycle click patterns' states
EXACT_TOL = 1e-12  # verify: relative error of an exact probability or fidelity check
ORACLE_TOL = 1e-9  # verify: largest relative engine-oracle difference of a probability or fidelity
UNDERFLOW_FLOOR = 1e-300  # verify: a probability at or below it is compared as 0 (it may have underflowed)
PHOTON_CAP = 6

Mode = tuple[str, str]
Pattern = tuple[tuple[Mode, int], ...]

COLLISION = "transform output mode already occupied by an untouched photon"


class FockError(ValueError):
    """Base class for state-algebra failures."""


class ModeCollisionError(FockError):
    """Two operands claim the same mode where disjointness is required."""


class PhotonBudgetError(FockError):
    """A pattern exceeds ``PHOTON_CAP``."""


class DegenerateStateError(FockError):
    """An operation that needs a nonzero state received (numerical) zero."""


class IsometryError(FockError):
    """A mode transform's coefficient matrix is not an isometry."""


class PolarizationMixtureError(FockError):
    """Heralded outputs differ only in an absorbed photon's polarization: a mixture."""


def mode(spatial: str, pol: str) -> Mode:
    if pol not in POLARIZATIONS:
        raise FockError(f"polarization must be one of {POLARIZATIONS}, got {pol!r}")
    return (spatial, pol)


def make_pattern(counts: Mapping[Mode, int]) -> Pattern:
    """Canonical pattern from a mode->count mapping (zeros dropped, sorted)."""
    items = []
    for m, n in counts.items():
        if n < 0:
            raise FockError(f"negative occupation {n} for mode {m}")
        if n > 0:
            items.append((m, n))
    items.sort()
    return tuple(items)


def pattern_photons(pattern: Pattern) -> int:
    return sum(n for _, n in pattern)


def pattern_count(pattern: Pattern, spatial: str) -> int:
    """Photons in a spatial mode, summed over both polarizations."""
    return sum(n for (sp, _), n in pattern if sp == spatial)


class State:
    """Immutable sparse superposition of occupation patterns."""

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[Pattern, complex] | Iterable[tuple[Pattern, complex]] = (),
    ):
        self._terms = _admit(terms.items() if isinstance(terms, Mapping) else terms, pattern_photons)

    @classmethod
    def _trusted(cls, terms: dict[Pattern, complex]) -> "State":
        """Prune only: the caller guarantees distinct, within-cap patterns and numeric (complex or
        float) amplitudes."""
        state = object.__new__(cls)
        state._terms = prune(terms)
        return state

    # -- basic queries ----------------------------------------------------

    def items(self) -> Iterator[tuple[Pattern, complex]]:
        return iter(self._terms.items())

    def patterns(self) -> Iterator[Pattern]:
        return iter(self._terms)

    def amplitude(self, pattern: Pattern) -> complex:
        return self._terms.get(pattern, 0j)

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    @property
    def is_empty(self) -> bool:
        return not self._terms

    def norm_sq(self) -> float:
        return terms_norm_sq(self._terms)

    def spatial_modes(self) -> set[str]:
        return {sp for p in self._terms for (sp, _) in p}

    def modes(self) -> set[Mode]:
        return {m for p in self._terms for (m, _) in p}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):  # pragma: no cover - states are not meant to be keys
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        parts = [
            f"{a!r}*{format_pattern(p)}" for p, a in sorted(self._terms.items())
        ]
        return "State(" + " + ".join(parts[:6]) + (" ..." if len(parts) > 6 else "") + ")"

    # -- elementwise helpers ---------------------------------------------

    def scaled(self, factor: complex) -> "State":
        return State._trusted({p: a * factor for p, a in self._terms.items()})

    def normalized(self) -> "State":
        n2 = self.norm_sq()
        if n2 <= NORM_TOL * NORM_TOL:
            raise DegenerateStateError("cannot normalize a (near-)zero state")
        return self.scaled(1.0 / math.sqrt(n2))

    def filtered(self, predicate: Callable[[Pattern], bool]) -> "State":
        """Unnormalized restriction to patterns satisfying ``predicate``."""
        return State._trusted({p: a for p, a in self._terms.items() if predicate(p)})


def single_photon(components: Iterable[tuple[str, str, complex]]) -> State:
    """One photon superposed over ``(spatial, pol, amplitude)`` components."""
    tab = PatternTable()
    return tab.state(tab.photon(components))


def prune(terms: Mapping) -> dict:
    """The terms of magnitude at least ``PRUNE_EPS``, in order."""
    return {p: a for p, a in terms.items() if abs(a) >= PRUNE_EPS}


def _admit(items: Iterable[tuple], photons: Callable) -> dict:
    """``State(...)``: prune, hold the photon cap, accumulate, prune."""
    kept: dict = {}
    for key, amp in items:
        a = complex(amp)
        if abs(a) < PRUNE_EPS:
            continue
        total = photons(key)
        if total > PHOTON_CAP:
            raise PhotonBudgetError(f"pattern holds {total} photons, cap is {PHOTON_CAP}")
        kept[key] = kept.get(key, 0j) + a
    # a cancellation during accumulation can re-create a negligible term
    return prune(kept)


# plain ``{key: amplitude}`` dicts: states over patterns or pattern ids
def terms_norm_sq(terms: Mapping) -> float:
    return sum([(m := abs(a)) * m for a in terms.values()])


def terms_inner(a: Mapping, b: Mapping) -> complex:
    if len(a) > len(b):
        return terms_inner(b, a).conjugate()
    return sum([aa.conjugate() * ab for p, aa in a.items() if (ab := b.get(p, 0j))], 0j)


def terms_fidelity(a: Mapping, b: Mapping) -> float:
    """``fidelity`` of two ``{key: amplitude}`` dicts."""
    na, nb = terms_norm_sq(a), terms_norm_sq(b)
    if na <= NORM_TOL**2 or nb <= NORM_TOL**2:
        raise DegenerateStateError("fidelity of a (near-)zero state is undefined")
    m = abs(terms_inner(a, b))
    val = m * m / (na * nb)
    return min(val, 1.0)


def inner(a: State, b: State) -> complex:
    """Hermitian inner product <a|b> over the shared pattern support."""
    return terms_inner(a._terms, b._terms)


def fidelity(a: State, b: State) -> float:
    """|<a|b>|^2 for the normalized versions of both states."""
    return terms_fidelity(a._terms, b._terms)


def _check_isometry(rules: Mapping[Mode, Sequence[tuple[Mode, complex]]]) -> None:
    ins = list(rules)
    for i, mi in enumerate(ins):
        row_i = dict(rules[mi])
        if len(row_i) != len(rules[mi]):
            raise IsometryError(f"duplicate output mode in rule for {mi}")
        for mj in ins[i:]:
            row_j = dict(rules[mj])
            ov = sum(ci.conjugate() * row_j[m] for m, ci in row_i.items() if m in row_j)
            want = 1.0 if mi == mj else 0.0
            if abs(ov - want) > ISOMETRY_TOL:
                raise IsometryError(
                    f"transform columns for {mi}/{mj} overlap {ov}, expected {want}"
                )


class CheckedRules(dict):
    """Transform rules checked once; ``apply_mode_transform`` reuses them unchecked.
    Raises IsometryError when the coefficient matrix is not an isometry."""

    __slots__ = ("out_modes",)

    def __init__(self, rules: Mapping[Mode, Sequence[tuple[Mode, complex]]]):
        _check_isometry(rules)
        super().__init__(rules)
        self.out_modes = frozenset(mo for expansion in rules.values() for mo, _ in expansion)


class PatternTable:
    """Interned patterns and the kernels on their ids."""

    def __init__(self):
        self.patterns: list[Pattern] = []
        self.photons: list[int] = []
        self.ids: dict[Pattern, int] = {}

    def intern(self, pattern: Pattern) -> int:
        pid = self.ids.get(pattern)
        if pid is None:
            pid = self.ids[pattern] = len(self.patterns)
            self.patterns.append(pattern)
            self.photons.append(pattern_photons(pattern))
        return pid

    def of(self, state: State) -> dict[int, complex]:
        return {self.intern(p): a for p, a in state.items()}

    def state(self, terms: Mapping[int, complex]) -> State:
        return State._trusted({self.patterns[p]: a for p, a in terms.items()})

    def admit(self, terms: Mapping[int, complex]) -> dict[int, complex]:
        return _admit(terms.items(), self.photons.__getitem__)

    def photon(self, components: Iterable[tuple[str, str, complex]]) -> dict[int, complex]:
        """``single_photon`` on ids."""
        terms: dict[int, complex] = {}
        for spatial, pol, amp in components:
            p = self.intern(((mode(spatial, pol), 1),))
            terms[p] = terms.get(p, 0j) + complex(amp)
        return self.admit(terms)

    def transform(self, terms: Mapping[int, complex], rules: CheckedRules):
        """``apply_mode_transform`` on ids: each term expanded photon by photon, each output
        multiset of modes summed from 0j in first-touch order, then scaled by
        ``sqrt(prod N_out!) / sqrt(prod n_in!)``."""
        out: dict[int, complex] = {}
        for p, amp in terms.items():
            base, moving, norm_in = {}, [], 1
            for m, n in self.patterns[p]:
                norm_in *= math.factorial(n)
                if m in rules:
                    moving += [m] * n
                elif m in rules.out_modes:
                    raise ModeCollisionError(COLLISION)
                else:
                    base[m] = n
            if not moving:
                out[p] = out.get(p, 0j) + amp
                continue
            level: dict[tuple[Mode, ...], complex] = {(): amp}
            for m in moving:
                grown: dict[tuple[Mode, ...], complex] = {}
                for key, v in level.items():
                    for mo, c in rules[m]:
                        k = tuple(sorted(key + (mo,)))
                        grown[k] = grown.get(k, 0j) + v * c
                level = grown
            for key, c in level.items():
                counts = dict(base)
                for mo in key:
                    counts[mo] = counts.get(mo, 0) + 1
                q = self.intern(tuple(sorted(counts.items())))
                if c:
                    norm_out = math.prod(map(math.factorial, counts.values()))
                    out[q] = out.get(q, 0j) + c * math.sqrt(norm_out) / math.sqrt(norm_in)
        return prune(out)


def tensor(a: State, b: State) -> State:
    """Tensor product of states on disjoint mode sets.

    Raises ModeCollisionError if any mode appears on both sides; the
    product of an n-term and an m-term state has at most n*m terms.
    """
    shared = a.modes() & b.modes()
    if shared:
        raise ModeCollisionError(f"tensor operands share modes {sorted(shared)}")
    return State((tuple(sorted(pa + pb)), aa * ab) for pa, aa in a.items() for pb, ab in b.items())


def apply_mode_transform(
    state: State,
    rules: Mapping[Mode, Sequence[tuple[Mode, complex]]],
) -> State:
    """Apply a linear-optics transform given as creation-operator rules.

    ``rules`` maps each input mode to its expansion ``[(out_mode, coeff), ...]``;
    modes absent from ``rules`` pass through untouched.  The coefficient matrix
    must be an isometry (orthonormal columns) within ``ISOMETRY_TOL``.

    Each term is expanded photon by photon, which accumulates the multinomial
    coefficients of the operator polynomial; amplitudes then pick up
    ``sqrt(prod N_out!) / sqrt(prod n_in!)`` so that e.g. two photons meeting
    on a balanced coupler bunch with the full sqrt(2) enhancement.  Closed
    under the photon cap: photon number is conserved exactly.

    An occupied mode outside the rules may not also appear as a rule output
    (that would stimulate rather than transform, and norm preservation would
    silently break); such terms raise ModeCollisionError.
    """
    if not isinstance(rules, CheckedRules):
        rules = CheckedRules(rules)
    tab = PatternTable()
    return tab.state(tab.transform(tab.of(state), rules))


def format_pattern(pattern: Pattern) -> str:
    if not pattern:
        return "vac"
    return " ".join(f"{sp}.{pol}:{n}" for (sp, pol), n in pattern)

