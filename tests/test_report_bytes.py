"""Report bytes are pinned: a refactor that keeps the answers keeps the bytes.

``tests/golden/report_sha256.json`` holds the SHA-256 of ``emit_report`` for
eight scenario documents in json and text, and for one 60-step sweep in
json and text.  ``appendix-theta@atan(1/3)+1e-4`` is the pinned report with a
non-empty borderline list.  ``RANK_TWO_REPORTS`` below pins the
``df analyze`` report of one rank-2 raw DF, in json and text.
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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coevent.scenarios import ROUNDOFF_FLOOR, emit_report, run_scenario, theta_sweep

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "report_sha256.json")

DOCUMENTS = {
    "pbr-v1": ("pbr-v1", {}),
    "pbr-v2": ("pbr-v2", {}),
    "composite-product": ("composite-product", {}),
    "appendix-theta@0.7": ("appendix-theta", {"theta": 0.7}),
    "appendix-theta@atan(1/3)": ("appendix-theta", {"theta": math.atan(1 / 3)}),
    "appendix-theta@atan(1/3)+1e-4": ("appendix-theta", {"theta": math.atan(1 / 3) + 1e-4}),
    "appendix-hamiltonian@0.7": ("appendix-hamiltonian", {"theta": 0.7}),
    "appendix-hamiltonian@atan(1/3)": ("appendix-hamiltonian", {"theta": math.atan(1 / 3)}),
}


def report_bytes(key: str) -> bytes:
    """The emitted report a golden key names: '<document>.<format>' or the sweep."""
    doc, fmt = key.rsplit(".", 1)
    if doc == "sweep-0-1.5-60":
        return emit_report(theta_sweep(0.0, 1.5, 60), fmt)
    name, params = DOCUMENTS[doc]
    return emit_report(run_scenario(name, params), fmt)


def keys() -> list[str]:
    return [f"{doc}.{fmt}" for doc in [*DOCUMENTS, "sweep-0-1.5-60"]
            for fmt in ("json", "text")]


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


# SHA-256 of `df analyze` on the rank-2 raw DF below, a file named df.json.
RANK_TWO_REPORTS = {
    "json": "d228a38ffd96c0ac041616eaf3dad2ecb21452d595b7059616b3d942d46c3f14",
    "text": "70cb7e0d377f4565239a96662be1da5dff0d79de0febb94e2445e4c31ca0fdea",
}


def rank_two_entries() -> list:
    """The Gram matrix of 10 random complex rows of length 2, of unit sum,
    as [re, im] pairs: a rank-2 raw DF of 10 histories whose eigensolver
    also returns five positive eigenvalues at the rounding level."""
    rng = np.random.default_rng(8)
    v = rng.normal(size=(10, 2)) + 1j * rng.normal(size=(10, 2))
    gram = np.conjugate(v) @ v.T
    return [[[z.real, z.imag] for z in row] for row in (gram / gram.real.sum()).tolist()]


@pytest.mark.parametrize("fmt", sorted(RANK_TWO_REPORTS))
def test_rank_two_raw_df_report_bytes(capsys, monkeypatch, tmp_path, fmt):
    from coevent.cli import EXIT_OK, main

    monkeypatch.chdir(tmp_path)
    (tmp_path / "df.json").write_text(json.dumps({"entries": rank_two_entries()}))
    assert main(["df", "analyze", "--file", "df.json", "--format", fmt]) == EXIT_OK
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == RANK_TWO_REPORTS[fmt]


def _reference_round(x: float) -> float:
    if not math.isfinite(x):
        return x
    if abs(x) <= ROUNDOFF_FLOOR:
        return 0.0
    return float(f"{x:.12g}")


def _reference_canonical(value):
    if isinstance(value, dict):
        return {str(k): _reference_canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_canonical(v) for v in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _reference_round(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        return [_reference_round(float(value.real)), _reference_round(float(value.imag))]
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"cannot serialize value of type {type(value)!r}")


def _reference_lines(doc, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(doc, dict):
        for k in sorted(doc):
            v = doc[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_reference_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(doc, list):
        for v in doc:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_reference_lines(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{doc}")
    return lines


def reference_report(doc, fmt: str) -> bytes:
    canon = _reference_canonical(doc)
    if fmt == "json":
        text = json.dumps(canon, sort_keys=True, indent=2, allow_nan=False)
    else:
        text = "\n".join(_reference_lines(canon))
    return (text + "\n").encode("utf-8")


EDGE_DOCUMENTS = {
    "empty dict": {},
    "empty list": [],
    "nested empties": {"a": {}, "b": [], "c": [[], {}, [[]]], "d": [{"e": {}}], "f": ()},
    "tuples": {"t": (1, (2.5, "x"), ()), "u": ((),)},
    "non-string keys": {10: "a", 9: "b", 2.5: "c", None: "d", (1, 2): "e", "x": {3: [1]}},
    "keys equal as strings": {1: "int key", "1": "str key"},
    "non-ASCII and control strings": {
        "h\u00e9llo": "\u65e5\u672c \u2028 \U0001f600",
        "ctl": ["tab\t", "nl\n", "cr\r", "\x00\x1f\x7f", 'quote" back\\slash', ""],
    },
    "bool next to int": [True, False, 1, 0, -5, 2 ** 70, {"b": True, "i": 1}],
    "numpy scalars": {
        "i64": np.int64(7), "i8": np.int8(-3), "u64": np.uint64(2 ** 63),
        "f64": np.float64(0.1), "f32": np.float32(0.1), "f16": np.float16(1 / 3),
        "c128": np.complex128(1 - 2j), "c64": np.complex64(0.5 + 0.25j),
        "list": [np.float64(-0.0), np.int32(0), np.str_("numpy \u00e9")],
    },
    "small and long floats": [
        -0.0, 0.0, 1e-15, -1e-15, ROUNDOFF_FLOOR, -ROUNDOFF_FLOOR, 2e-14, 5e-324,
        0.12345678901234567, 1 / 3, 2 / 3, -1 / 7, 123456789012345678.0, 1e300,
        -1.7976931348623157e308, 0.1 + 0.2, 1e16, 1e-5, 100.0, math.pi * 1e-10,
    ],
    "complex": [complex(0.0, -0.0), complex(1e-15, 3.0), 1j, complex(1 / 3, -2 / 3)],
    "none": {"n": None, "l": [None]},
}


@pytest.mark.parametrize("name", sorted(EDGE_DOCUMENTS))
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_writer_matches_reference_on_edge_cases(name, fmt):
    doc = EDGE_DOCUMENTS[name]
    assert emit_report(doc, fmt) == reference_report(doc, fmt)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan"),
                                 complex(math.inf, 0.0), complex(0.0, math.nan)])
def test_writer_refuses_non_finite_floats_in_json(bad):
    doc = {"ok": 1.0, "nested": [{"bad": bad}]}
    with pytest.raises(ValueError):
        reference_report(doc, "json")
    with pytest.raises(ValueError):
        emit_report(doc, "json")
    assert emit_report(doc, "text") == reference_report(doc, "text")


@pytest.mark.parametrize("bad", [object(), {1, 2}, b"bytes", np.bool_(True), np.zeros(2)])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_writer_refuses_other_types(bad, fmt):
    doc = {"a": [1, {"b": bad}]}
    with pytest.raises(TypeError):
        reference_report(doc, fmt)
    with pytest.raises(TypeError):
        emit_report(doc, fmt)


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-13, 1e-13, allow_nan=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers(-20, 20)), inner,
                        max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_writer_matches_reference_on_random_documents(doc):
    for fmt in ("json", "text"):
        assert emit_report(doc, fmt) == reference_report(doc, fmt)


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({key: sha256(key) for key in keys()}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(keys())} hashes to {GOLDEN}", file=sys.stderr)
