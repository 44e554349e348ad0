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
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Mapping, Sequence

H = "H"
V = "V"
POLARIZATIONS = (H, V)

PRUNE_EPS = 1e-15
NORM_TOL = 1e-12
ISOMETRY_TOL = 1e-12
PHOTON_CAP = 6

Mode = tuple[str, str]
Pattern = tuple[tuple[Mode, int], ...]

_FACTORIALS = tuple(math.factorial(n) for n in range(32))


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
        if isinstance(terms, dict) or isinstance(terms, Mapping):
            items: Iterable[tuple[Pattern, complex]] = terms.items()
        else:
            items = terms
        kept: dict[Pattern, complex] = {}
        for pattern, amp in items:
            a = complex(amp)
            if abs(a) < PRUNE_EPS:
                continue
            total = pattern_photons(pattern)
            if total > PHOTON_CAP:
                raise PhotonBudgetError(
                    f"pattern holds {total} photons, cap is {PHOTON_CAP}"
                )
            kept[pattern] = kept.get(pattern, 0j) + a
        # a cancellation during accumulation can re-create a negligible term
        self._terms = {p: a for p, a in kept.items() if abs(a) >= PRUNE_EPS}

    @classmethod
    def _trusted(cls, terms: dict[Pattern, complex]) -> "State":
        """Prune only: the caller guarantees distinct, within-cap patterns and complex amplitudes."""
        state = object.__new__(cls)
        state._terms = {p: a for p, a in terms.items() if abs(a) >= PRUNE_EPS}
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
        return sum(abs(a) ** 2 for a in self._terms.values())

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

    def normalized(self, tol: float = NORM_TOL) -> "State":
        n2 = self.norm_sq()
        if n2 <= tol * tol:
            raise DegenerateStateError("cannot normalize a (near-)zero state")
        return self.scaled(1.0 / math.sqrt(n2))

    def filtered(self, predicate: Callable[[Pattern], bool]) -> "State":
        """Unnormalized restriction to patterns satisfying ``predicate``."""
        return State._trusted({p: a for p, a in self._terms.items() if predicate(p)})


def single_photon(components: Iterable[tuple[str, str, complex]]) -> State:
    """One photon superposed over ``(spatial, pol, amplitude)`` components."""
    terms: dict[Pattern, complex] = {}
    for spatial, pol, amp in components:
        p = make_pattern({mode(spatial, pol): 1})
        terms[p] = terms.get(p, 0j) + complex(amp)
    return State(terms)


def tensor(a: State, b: State) -> State:
    """Tensor product of states on disjoint mode sets.

    Raises ModeCollisionError if any mode appears on both sides; the
    product of an n-term and an m-term state has at most n*m terms.
    """
    shared = a.modes() & b.modes()
    if shared:
        raise ModeCollisionError(f"tensor operands share modes {sorted(shared)}")
    terms: dict[Pattern, complex] = {}
    for pa, aa in a.items():
        for pb, ab in b.items():
            merged = dict(pa)
            merged.update(pb)
            terms[make_pattern(merged)] = aa * ab
    return State(terms)


def inner(a: State, b: State) -> complex:
    """Hermitian inner product <a|b> over the shared pattern support."""
    if a.num_terms > b.num_terms:
        return inner(b, a).conjugate()
    total = 0j
    for p, aa in a.items():
        ab = b.amplitude(p)
        if ab:
            total += aa.conjugate() * ab
    return total


def fidelity(a: State, b: State) -> float:
    """|<a|b>|^2 for the normalized versions of both states."""
    na = a.norm_sq()
    nb = b.norm_sq()
    if na <= NORM_TOL**2 or nb <= NORM_TOL**2:
        raise DegenerateStateError("fidelity of a (near-)zero state is undefined")
    val = abs(inner(a, b)) ** 2 / (na * nb)
    return min(val, 1.0)


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

    Raises IsometryError when the coefficient matrix is not an isometry.
    """

    __slots__ = ("out_modes",)

    def __init__(self, rules: Mapping[Mode, Sequence[tuple[Mode, complex]]]):
        _check_isometry(rules)
        super().__init__(rules)
        self.out_modes = frozenset(mo for expansion in rules.values() for mo, _ in expansion)


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
    out_modes = rules.out_modes
    out: dict[Pattern, complex] = {}
    for pattern, amp in state.items():
        moving = []
        base = {}
        norm_in = 1
        for m, n in pattern:
            norm_in *= _FACTORIALS[n]
            if m in rules:
                moving.append((m, n))
            elif m in out_modes:
                raise ModeCollisionError(
                    "transform output mode already occupied by an untouched photon"
                )
            else:
                base[m] = n
        if not moving:
            out[pattern] = out.get(pattern, 0j) + amp
            continue
        # polynomial over multisets of output modes, one photon at a time
        poly: dict[tuple[Mode, ...], complex] = {(): amp}
        for m, n in moving:
            expansion = rules[m]
            for _ in range(n):
                grown: dict[tuple[Mode, ...], complex] = {}
                for key, coeff in poly.items():
                    for mo, c in expansion:
                        k2 = tuple(sorted(key + (mo,)))
                        grown[k2] = grown.get(k2, 0j) + coeff * c
                poly = grown
        sqrt_norm_in = math.sqrt(norm_in)
        for key, coeff in poly.items():
            if not coeff:
                continue
            counts = dict(base)
            for mo in key:
                counts[mo] = counts.get(mo, 0) + 1
            norm_out = 1
            for n in counts.values():
                norm_out *= _FACTORIALS[n]
            p2 = tuple(sorted(counts.items()))
            out[p2] = out.get(p2, 0j) + coeff * math.sqrt(norm_out) / sqrt_norm_in
    return State._trusted(out)


def format_pattern(pattern: Pattern) -> str:
    if not pattern:
        return "vac"
    return " ".join(f"{sp}.{pol}:{n}" for (sp, pol), n in pattern)

