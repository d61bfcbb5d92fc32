"""Report bytes are pinned: a refactor that keeps the answers keeps the bytes.

``tests/golden/report_sha256.json`` holds the SHA-256 of ``emit_report`` for
seven scenario documents in json and text, and for one 60-step json sweep.
A change that alters a report on purpose regenerates the file with

    PYTHONPATH=src python tests/test_report_bytes.py

and says in its description which reports changed and why.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys

import pytest

from coevent.scenarios import emit_report, run_scenario, theta_sweep

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "report_sha256.json")

DOCUMENTS = {
    "pbr-v1": ("pbr-v1", {}),
    "pbr-v2": ("pbr-v2", {}),
    "composite-product": ("composite-product", {}),
    "appendix-theta@0.7": ("appendix-theta", {"theta": 0.7}),
    "appendix-theta@atan(1/3)": ("appendix-theta", {"theta": math.atan(1 / 3)}),
    "appendix-hamiltonian@0.7": ("appendix-hamiltonian", {"theta": 0.7}),
    "appendix-hamiltonian@atan(1/3)": ("appendix-hamiltonian", {"theta": math.atan(1 / 3)}),
}


def report_bytes(key: str) -> bytes:
    """The emitted report a golden key names: '<document>.<format>' or the sweep."""
    if key == "sweep-0-1.5-60.json":
        return emit_report(theta_sweep(0.0, 1.5, 60), "json")
    doc, fmt = key.rsplit(".", 1)
    name, params = DOCUMENTS[doc]
    return emit_report(run_scenario(name, params), fmt)


def keys() -> list[str]:
    return [f"{doc}.{fmt}" for doc in DOCUMENTS for fmt in ("json", "text")] + [
        "sweep-0-1.5-60.json"]


def sha256(key: str) -> str:
    return hashlib.sha256(report_bytes(key)).hexdigest()


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_pinned_report():
    assert sorted(_golden()) == sorted(keys())


@pytest.mark.parametrize("key", keys())
def test_report_bytes_match_golden(key):
    assert sha256(key) == _golden()[key]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({key: sha256(key) for key in keys()}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(keys())} hashes to {GOLDEN}", file=sys.stderr)
