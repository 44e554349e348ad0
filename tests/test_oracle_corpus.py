"""Pin the path-sum oracle: replay stored calls and compare their ``repr``.

Each entry of ``tests/data/oracle_corpus.json`` holds the shared arguments
of one grid point and, for each call in ``VARIANTS`` made there, either the
``repr`` of what ``oracle_ecp1``/``oracle_ecp2`` returned or the class and
message of what it raised.  A change that claims to move no oracle number
must leave every entry as stored.  Regenerate with

    PYTHONPATH=src python tests/test_oracle_corpus.py --write

which prints each outcome that moved, with the largest relative move of its
numbers, or both texts where its shape changed.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

from ecpsim import oracle

CORPUS = Path(__file__).resolve().parent / "data" / "oracle_corpus.json"

ALPHA_SQ = (0.077531, 0.3, 0.5, 0.6, 0.83, 0.9, 0.999)
GAMMA_SQ = (None, 0.0, 0.072901, 0.5, 1.0)
VARIANTS = (
    ("oracle_ecp1", {}),
    ("oracle_ecp1", {"t1": 0.3, "t2": 0.7}),
    *(("oracle_ecp2", {"rounds": r}) for r in (1, 3, 8, 12)),
)


NUMBER = re.compile(r"(?<![\w.])-?\d+\.?\d*(?:e[-+]?\d+)?")  # a float or int literal in a repr


def grid() -> list[tuple[float, float | None, str, float]]:
    return [
        (a2, g2, accounting, eta)
        for a2 in ALPHA_SQ
        for g2 in GAMMA_SQ
        for accounting in ("branch", "joint")
        for eta in (1.0, 0.7)
    ]


def point_text(a2, g2, accounting, eta) -> str:
    return f"{a2!r}, {g2!r}, accounting={accounting!r}, eta={eta!r}"


def outcome(name: str, a2, g2, accounting, eta, extra: dict) -> str:
    try:
        fn = getattr(oracle, name)
        return repr(fn(a2, g2, accounting=accounting, eta=eta, **extra))
    except Exception as exc:  # recorded, not judged: the corpus pins behaviour
        return f"raises {type(exc).__name__}: {exc}"


def replay(point: tuple) -> dict:
    return {
        "point": point_text(*point),
        "outcomes": [outcome(name, *point, extra) for name, extra in VARIANTS],
    }


def test_corpus_covers_the_grid():
    stored = json.loads(CORPUS.read_text())
    assert [e["point"] for e in stored] == [point_text(*p) for p in grid()]
    assert all(len(e["outcomes"]) == len(VARIANTS) for e in stored)


def test_corpus_replays_repr_for_repr():
    stored = json.loads(CORPUS.read_text())
    changed = [e["point"] for e, p in zip(stored, grid()) if replay(p) != e]
    assert not changed, f"{len(changed)} of {len(stored)} points changed: {changed[:5]}"


def move(old: str, new: str) -> str:
    """How ``new`` differs from ``old``: the largest relative move of their numbers where the two
    texts differ only in numbers, else both texts."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return f"{old} -> {new}"
    pairs = zip(map(float, NUMBER.findall(old)), map(float, NUMBER.findall(new)))
    rel = max(abs(b - a) / abs(a) if a else (0.0 if b == a else math.inf) for a, b in pairs)
    return f"largest relative move {rel:.3e}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_oracle_corpus.py --write")
    CORPUS.parent.mkdir(exist_ok=True)
    stored = {e["point"]: e["outcomes"] for e in json.loads(CORPUS.read_text())} if CORPUS.exists() else {}
    entries = [replay(p) for p in grid()]
    moved = 0
    for entry in entries:
        for (name, extra), new, old in zip(VARIANTS, entry["outcomes"], stored.get(entry["point"], [])):
            if new != old:
                moved += 1
                print(f"{entry['point']} {name} {extra}: {move(old, new)}")
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} points to {CORPUS}, {moved} outcomes moved")
