"""Builtin concentration circuits, shipped as ``.ecp`` files.

The files next to this module in ``circuits/`` are the one source of the
shipped layouts; ``builtin_doc`` parses one on first use and hands out the
same immutable document afterwards.  Mode naming follows the wiring
diagrams: ``a1`` is the kept spectator mode, ``b1`` the far-end signal
input split by polarization into ``b2``/``b3``, each arm consumes an
auxiliary photon through a variable coupler, and ``b10`` is the recombined
output.  ``d*`` are detectors.

Four documents:

* ``ecp1``: single-round linear-optics concentration, two arms.
* ``ecp2``: nondemolition-assisted concentration with recycling couplers,
  two arms.
* ``ecp1_stripped`` / ``ecp2_stripped``: one-arm variants without the
  polarization degree of freedom (the signal is V-polarized throughout);
  these realize the reference series the closed-form totals describe.
"""

from __future__ import annotations

import functools
from importlib import resources

from .dsl import CircuitDoc, parse

BUILTIN_NAMES = ("ecp1", "ecp2", "ecp1_stripped", "ecp2_stripped")


@functools.cache
def builtin_doc(name: str) -> CircuitDoc:
    """The parsed shipped layout (cached: documents are immutable)."""
    return parse(builtin_text(name))


def builtin_text(name: str) -> str:
    """Content of the shipped ``.ecp`` file for a builtin circuit."""
    if name not in BUILTIN_NAMES:
        raise KeyError(f"no builtin circuit {name!r}; have {BUILTIN_NAMES}")
    return (
        resources.files(__package__).joinpath("circuits").joinpath(f"{name}.ecp").read_text()
    )
