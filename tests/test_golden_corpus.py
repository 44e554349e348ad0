"""Byte-identity gate: replay a stored corpus of in-process CLI calls.

Each entry of ``tests/data/cli_corpus.json`` holds an argv for
``ecpsim.cli.main``, the exit code it returned (or the class of the
exception it raised) and the sha256 of everything it wrote to stdout.  A
refactor that claims to change no number must leave every entry as stored.

The deep-round entries (``--rounds 8``, ``--rounds 1000``) pin every round
down to the underflow, where a round reports p 0 and fidelity null.  A
change that moves a number regenerates the corpus and says which entries
moved; the writer prints each entry whose outcome or bytes changed.
Regenerate with

    PYTHONPATH=src python tests/test_golden_corpus.py --write

``verify`` entries pin the check lines, which are byte-stable across
processes and hash seeds.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

from ecpsim.cli import main

CORPUS = Path(__file__).resolve().parent / "data" / "cli_corpus.json"
CIRCUITS = "{circuits}"  # stands for the shipped circuits directory in an argv


def corpus_argvs() -> list[list[str]]:
    argvs = []
    for protocol in ("ecp1", "ecp2"):
        for pol in (["--gamma-sq", "0.3"], []):
            for accounting in ("branch", "joint"):
                for a2 in ("0.3", "0.6", "0.9"):
                    for eta in ("1.0", "0.8"):
                        base = [
                            "run", "--protocol", protocol, "--alpha-sq", a2, *pol,
                            "--accounting", accounting, "--eta", eta,
                        ]
                        if protocol == "ecp1":
                            argvs.append(base)
                        else:
                            argvs.extend(base + ["--rounds", r] for r in ("1", "3", "8"))
    for accounting in ("branch", "joint"):
        argvs.append([
            "run", "--alpha-sq", "0.6", "--gamma-sq", "0.3", "--t1", "0.3",
            "--t2", "0.7", "--accounting", accounting,
        ])
        for name, extra in (
            ("ecp1", ["--gamma-sq", "0.3"]),
            ("ecp2", ["--gamma-sq", "0.3", "--rounds", "3"]),
            ("ecp1_stripped", []),
            ("ecp2_stripped", ["--rounds", "3"]),
        ):
            argvs.append([
                "run", "--circuit", f"{CIRCUITS}/{name}.ecp", "--alpha-sq", "0.6",
                *extra, "--accounting", accounting, "--eta", "0.8",
            ])
    argvs.append([
        "run", "--protocol", "ecp2", "--alpha-sq", "0.6", "--rounds", "3",
        "--eta", "0.8", "--engine", "monte_carlo", "--trials", "10000", "--seed", "7",
    ])
    argvs.append([
        "sweep", "--rounds", "3", "--eta", "0.8", "--trials", "10000", "--seed", "1",
    ])
    argvs.extend([
        ["verify"],
        ["verify", "--inject"],
        ["verify", "--rounds", "8"],
        ["verify", "--rounds", "8", "--alpha-sq", "0.9"],
        ["verify", "--eta", "0.8", "--rounds", "5"],
    ])
    # one literal point per bench exact_grid configuration, at eta 0.8
    weights = iter(("0.17", "0.42", "0.58", "0.83") * 5)
    for protocol, depths in (("ecp1", (None,)), ("ecp2", ("1", "3", "5", "8"))):
        for pol in ([], ["--gamma-sq", "0.71"]):
            for accounting in ("branch", "joint"):
                for r in depths:
                    argvs.append([
                        "run", "--protocol", protocol, "--alpha-sq", next(weights), *pol,
                        "--accounting", accounting, "--eta", "0.8",
                        *(["--rounds", r] if r else []),
                    ])
    # deep chains, past the rounds where the mass runs out
    for pol in ([], ["--gamma-sq", "0.3"]):
        argvs.append(["run", "--protocol", "ecp2", "--alpha-sq", "0.6", *pol, "--rounds", "1000"])
    # detectors of efficiency 0, where no round can succeed: p 0 and fidelity null
    argvs.append(["verify", "--eta", "0"])
    argvs.append([
        "run", "--protocol", "ecp2", "--alpha-sq", "0.6", "--gamma-sq", "0.3",
        "--accounting", "joint", "--rounds", "3", "--eta", "0",
    ])
    return argvs


def replay(argv: list[str]) -> dict:
    """Call ``main`` in-process and record what a byte-identity check needs."""
    circuits = str(resources.files("ecpsim").joinpath("circuits"))
    resolved = [a.replace(CIRCUITS, circuits) for a in argv]
    out = io.StringIO()
    code, raised = None, None
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(resolved)
        except Exception as exc:  # recorded, not judged: the corpus pins behaviour
            raised = type(exc).__name__
    return {
        "argv": argv,
        "exit": code,
        "raises": raised,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
    }


def test_corpus_covers_the_grid():
    stored = json.loads(CORPUS.read_text())
    assert [e["argv"] for e in stored] == corpus_argvs()


def test_corpus_replays_byte_for_byte():
    stored = json.loads(CORPUS.read_text())
    changed = [e["argv"] for e in stored if replay(e["argv"]) != e]
    assert not changed, f"{len(changed)} of {len(stored)} entries changed: {changed[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_corpus.py --write")
    CORPUS.parent.mkdir(exist_ok=True)
    stored = {json.dumps(e["argv"]): e for e in json.loads(CORPUS.read_text())} if CORPUS.exists() else {}
    entries = [replay(argv) for argv in corpus_argvs()]
    moved = 0
    for entry in entries:  # each entry whose outcome or bytes differ from the stored corpus
        old = stored.get(json.dumps(entry["argv"]))
        if old != entry:
            moved += 1
            was = "new" if old is None else f"exit {old['exit']} raises {old['raises']}"
            what = "bytes" if old and old["exit"] == entry["exit"] and old["raises"] == entry["raises"] else "outcome"
            print(f"{what}: {was} -> exit {entry['exit']} raises {entry['raises']}: {' '.join(entry['argv'])}")
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {CORPUS}, {moved} changed")
