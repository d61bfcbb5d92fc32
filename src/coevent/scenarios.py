"""Named scenarios, the analysis pipeline, theta sweeps, and report emission.

Reports are plain JSON-ready dictionaries.  Serialization is canonical:
keys sorted, floats rounded to 12 significant digits with round-off
(|x| <= ROUNDOFF_FLOOR) written as 0.0, complex numbers as [re, im] pairs,
UTF-8 with a trailing newline, so identical inputs and tool version produce
byte-identical output.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cache
from itertools import islice

import numpy as np

from .composition import composition_anomalies, tensor_df
from .coevents import CoEventSet, distinguishability_report, enumerate_primitive_coevents
from .errors import MissingParameterError, UnknownScenarioError
from .histories import (
    _STEP_ENTRIES,
    DecoherenceFunctional,
    HistorySchema,
    Slice,
    _mask_bits,
    build_dfs,
    raw_df,
)
from .linalg import (
    ProjectiveDecomposition,
    as_complex_matrix,
    as_ket,
    build_theta_bases,
    build_xi_basis,
    computational_basis,
    spectral_unitary,
    tensor,
)
from .limits import PARTITION_REPORT_LIMIT, refuse_above
from .measure_analysis import (_check_zero_set_work, find_decoherent_partitions,
                               find_zero_set_catalogs, find_zero_sets)
from .tolerances import ROUNDOFF_FLOOR, tolerance_summary

TOOL_NAME = "coevent"
TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 2


def report_header() -> dict:
    """The schema version, tool and tolerances block every report starts with."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "tolerances": tolerance_summary(),
    }


@dataclass(frozen=True)
class ScenarioEntry:
    """One analyzable unit of a scenario: a labeled schema or a raw DF."""

    label: str
    schema: HistorySchema | None = None
    df: DecoherenceFunctional | None = None


@dataclass(frozen=True)
class ScenarioBuild:
    entries: tuple[ScenarioEntry, ...]
    composition_pair: tuple[DecoherenceFunctional, DecoherenceFunctional] | None = None


def _ket0() -> np.ndarray:
    return np.array([1.0, 0.0], dtype=complex)


def _ket_plus() -> np.ndarray:
    return np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def _pure_state_build(states, slices) -> ScenarioBuild:
    """One schema entry per (label, initial ket), all measured by the same slices."""
    return ScenarioBuild(entries=tuple(
        ScenarioEntry(label=lab, schema=HistorySchema.from_ket(ket, slices)) for lab, ket in states
    ))


def _pbr_states() -> list[tuple[str, np.ndarray]]:
    k0, kp = _ket0(), _ket_plus()
    return [
        ("00", tensor(k0, k0)),
        ("0+", tensor(k0, kp)),
        ("+0", tensor(kp, k0)),
        ("++", tensor(kp, kp)),
    ]


@cache
def _pbr_slices() -> tuple[tuple[Slice, ...], tuple[Slice, ...]]:
    """The slices of pbr-v1 and of pbr-v2, built and checked once per process."""
    xi = Slice(build_xi_basis())
    return (xi,), (Slice(computational_basis(4, ["00", "01", "10", "11"])), xi)


def _build_pbr_v1(params: dict) -> ScenarioBuild:
    return _pure_state_build(_pbr_states(), _pbr_slices()[0])


def _build_pbr_v2(params: dict) -> ScenarioBuild:
    return _pure_state_build(_pbr_states(), _pbr_slices()[1])


def _theta_states(theta: float) -> list[tuple[str, np.ndarray]]:
    phi2 = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
    return [("phi1", _ket0()), ("phi2", phi2)]


def _build_appendix_theta(params: dict) -> ScenarioBuild:
    theta = params["theta"]
    psi01, psipm = build_theta_bases(theta)
    pm = Slice(psipm)
    return _pure_state_build(_theta_states(theta), (pm, Slice(psi01), pm))


@cache
def _hamiltonian_spectrum() -> tuple[np.ndarray, np.ndarray]:
    """The constant Hermitian Hamiltonian's eigh, once per process."""
    return np.linalg.eigh(np.array([[1.0, 1.0j], [-1.0j, 1.0]], dtype=complex))


def _hamiltonian_evolution(t: float) -> np.ndarray:
    return spectral_unitary(_hamiltonian_spectrum(), t)


@cache
def _hamiltonian_fixed() -> tuple[ProjectiveDecomposition, Slice, Slice]:
    """appendix-hamiltonian's computational basis and its two theta-independent
    slices, at t = pi/4 and 7 pi/4: built and checked once per process."""
    comp = computational_basis(2, ["0", "1"])
    return (comp, Slice(comp, _hamiltonian_evolution(math.pi / 4.0)),
            Slice(comp, _hamiltonian_evolution(7.0 * math.pi / 4.0)))


def _build_appendix_hamiltonian(params: dict) -> ScenarioBuild:
    theta = params["theta"]
    comp, second, third = _hamiltonian_fixed()
    first = Slice(comp, _hamiltonian_evolution(theta - math.pi / 4.0))
    return _pure_state_build(_theta_states(theta), (first, second, third))


def _build_composite_product(params: dict) -> ScenarioBuild:
    sub = raw_df(0.5 * np.array([[1.0, 1.0j], [-1.0j, 1.0]], dtype=complex))
    prod = tensor_df(sub, sub)
    entries = (
        ScenarioEntry(label="D_A", df=sub),
        ScenarioEntry(label="D_AB", df=prod),
    )
    return ScenarioBuild(entries=entries, composition_pair=(sub, sub))


SCENARIOS = {
    "pbr-v1": {"builder": _build_pbr_v1, "required": ()},
    "pbr-v2": {"builder": _build_pbr_v2, "required": ()},
    "appendix-theta": {"builder": _build_appendix_theta, "required": ("theta",)},
    "appendix-hamiltonian": {"builder": _build_appendix_hamiltonian, "required": ("theta",)},
    "composite-product": {"builder": _build_composite_product, "required": ()},
}


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


def build_scenario(name: str, parameters: dict | None = None) -> ScenarioBuild:
    """Resolve a scenario name and parameters into analyzable entries."""
    if name not in SCENARIOS:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; known: {', '.join(scenario_names())}"
        )
    entry = SCENARIOS[name]
    params = dict(parameters or {})
    for req in entry["required"]:
        if req not in params:
            raise MissingParameterError(f"scenario {name!r} requires parameter {req!r}")
        value = params[req]
        if isinstance(value, np.generic):
            value = params[req] = value.item()
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not abs(value) <= sys.float_info.max):
            raise MissingParameterError(
                f"parameter {req!r} must be a finite real number, got {value!r}")
    for got in params:
        if got not in entry["required"]:
            raise MissingParameterError(f"scenario {name!r} takes no parameter {got!r}")
    return entry["builder"](params)


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix_pairs(m: np.ndarray) -> list[list[list[float]]]:
    return [[_complex_pair(z) for z in row] for row in np.asarray(m, dtype=complex)]


def _squared_norms(rows: np.ndarray) -> list[float]:
    """|row|^2 of each row: the measure of the event whose branches sum to it."""
    return np.einsum("ij,ij->i", np.conjugate(rows), rows).real.tolist()


def analyze_df(df: DecoherenceFunctional, label: str) -> tuple[dict, CoEventSet]:
    """Run the full per-state pipeline and return (report section, co-events)."""
    return _analysis(df, find_zero_sets(df), label)


def _analysis(df: DecoherenceFunctional, catalog, label: str) -> tuple[dict, CoEventSet]:
    """analyze_df given the DF's catalog.  Every listed event is decoded from
    its mask; the single-history measures are the factor rows' squared norms."""
    coevents = enumerate_primitive_coevents(df, catalog, label=label)
    space = df.space
    labels_of = space.labels_of
    sectors = catalog.sectors
    singles = _squared_norms(df.factor)
    section = {
        "label": label,
        "history_labels": list(space.labels),
        "validation": df.validation.as_dict(),
        "measures": dict(zip(space.labels, singles)),
        "measure_vector": singles,
        "zero_sets": {
            "counts": catalog.counts(),
            "sectorwise": [labels_of(m) for s in sectors for m in s.zero_masks],
            "nontrivial": [labels_of(m) for s in sectors for m in s.nontrivial_masks],
            "maximal": [labels_of(m) for m in catalog.maximal_masks()],
            "borderline": [labels_of(m) for s in sectors for m in s.borderline_masks],
        },
        "coevents": [
            {"support": labels_of(c.mask), "classical": c.classical}
            for c in coevents
        ],
    }
    if df.space.sectors is not None:
        names, masks = zip(*df.sectors())
        totals = _mask_bits(masks, space.size) @ df.factor
        section["sector_measures"] = dict(zip(names, _squared_norms(totals)))
    if df.size <= PARTITION_REPORT_LIMIT:
        section["decoherent_partitions"] = {
            mode: [rep.as_dict() for rep in find_decoherent_partitions(df, mode, df.size)]
            for mode in ("medium", "weak")
        }
    else:
        section["decoherent_partitions"] = {
            "skipped": f"partition listing limited to {PARTITION_REPORT_LIMIT} histories"
        }
    return section, coevents


def _entry_dfs(entries) -> list[DecoherenceFunctional]:
    """The DF of each entry: its own, or its schema's, all built in one build_dfs."""
    built = iter(build_dfs([e.schema for e in entries if e.df is None]))
    return [e.df if e.df is not None else next(built) for e in entries]


def run_scenario(name: str, parameters: dict | None = None) -> dict:
    """Full pipeline over every entry of a scenario, as a report document;
    the entries' DFs are built, and their zero sets searched, together."""
    parameters = dict(parameters or {})
    build = build_scenario(name, parameters)
    dfs = _entry_dfs(build.entries)
    sections, coevent_sets = [], []
    for entry, df, catalog in zip(build.entries, dfs, find_zero_set_catalogs(dfs)):
        section, ces = _analysis(df, catalog, entry.label)
        sections.append(section)
        coevent_sets.append(ces)

    doc = {
        **report_header(),
        "scenario": {"name": name, "parameters": parameters},
        "entries": sections,
    }

    shared_labels = len(dfs) >= 2 and all(d.space.labels == dfs[0].space.labels for d in dfs)
    if shared_labels:
        doc.update(distinguishability_report(coevent_sets))

    if build.composition_pair is not None:
        a, b = build.composition_pair
        comp = composition_anomalies(a, b)
        doc["composition"] = {
            "product_label": build.entries[-1].label,
            "product_matrix": _matrix_pairs(comp.product.matrix),
            **comp.as_dict(),
        }
    return doc


SPECIAL_ANGLE_REASONS = (
    ("tan_theta_one_third", math.atan(1.0 / 3.0)),
    ("tan_theta_minus_one_third", math.atan(-1.0 / 3.0)),
    ("theta_zero", 0.0),
)


def _flag_reasons(lo: float, hi: float) -> list[str]:
    """Special angles (mod pi) falling inside [lo, hi]."""
    reasons = []
    for reason, base in SPECIAL_ANGLE_REASONS:
        k = math.floor((lo - base) / math.pi)
        while base + k * math.pi <= hi:
            if base + k * math.pi >= lo:
                reasons.append(reason)
                break
            k += 1
    return reasons


# Grid points built and searched together: the 2,048 sectors of 512 points (4
# histories, 2 factor columns each) are one _STEP_ENTRIES zero-set search chunk.
_SWEEP_CHUNK = _STEP_ENTRIES // 256


def theta_sweep(start: float, end: float, steps: int) -> dict:
    """Run appendix-theta over a monotone grid and mark structural changes.

    Per point: co-event counts and sectorwise zero counts per initial state,
    and whether the two states' co-event sets are disjoint.  Markers record
    zero-count changes between adjacent points; flagged cells bracket the
    special angles tan(theta) = 1/3, tan(theta) = -1/3, and theta = 0
    (all mod pi).  Raises SpaceTooLargeError, before the grid is built, for
    more than SWEEP_STEP_LIMIT steps, and ValueError for a range whose grid
    overflows.  Each _SWEEP_CHUNK points are built and searched together.
    """
    if steps < 2:
        raise ValueError("a sweep needs at least 2 steps")
    refuse_above("SWEEP_STEP_LIMIT", steps, f"sweep of {steps} steps")
    for name, value in (("start", start), ("end", end)):
        if not abs(value) <= sys.float_info.max:
            raise ValueError(f"sweep {name} must be a finite number, got {value!r}")
    if not end > start:
        raise ValueError("sweep range must satisfy end > start")
    try:
        grid = [start + (end - start) * i / (steps - 1) for i in range(steps)]
    except OverflowError:  # an int span whose quotient is past the floats
        grid = [math.inf]
    if not all(map(math.isfinite, grid)):
        raise ValueError(f"sweep range from {start!r} to {end!r} overflows to non-finite points")
    points = []
    for first in range(0, steps, _SWEEP_CHUNK):
        builds = [build_scenario("appendix-theta", {"theta": t})
                  for t in grid[first:first + _SWEEP_CHUNK]]
        entries = [e for b in builds for e in b.entries]
        dfs = _entry_dfs(entries)
        found = iter([(e.label, c.counts(), {m for s in c.sectors for m in s.primitive_masks})
                      for e, c in zip(entries, find_zero_set_catalogs(dfs))])
        for theta, build in zip(grid[first:], builds):
            states = list(islice(found, len(build.entries)))
            points.append({
                "theta": theta,
                "disjoint": not set.intersection(*(masks for _, _, masks in states)),
                "coevent_counts": {lab: len(masks) for lab, _, masks in states},
                "zero_counts": {lab: c["zero_sectorwise"] for lab, c, _ in states},
                "borderline_counts": {lab: c["borderline"] for lab, c, _ in states},
            })

    markers = []
    for i in range(len(points) - 1):
        changed = sorted(
            lab for lab in points[i]["zero_counts"]
            if points[i]["zero_counts"][lab] != points[i + 1]["zero_counts"][lab]
        )
        if changed:
            markers.append({
                "between": [grid[i], grid[i + 1]],
                "states": changed,
            })

    flagged = []
    for i in range(len(points) - 1):
        reasons = _flag_reasons(grid[i], grid[i + 1])
        if reasons:
            flagged.append({"cell": [grid[i], grid[i + 1]], "reasons": sorted(reasons)})

    return {
        **report_header(),
        "sweep": {"scenario": "appendix-theta", "start": start, "end": end, "steps": steps},
        "points": points,
        "markers": markers,
        "flagged_cells": flagged,
    }


def _round_sig(x: float) -> float:
    if not math.isfinite(x):
        return x
    if abs(x) <= ROUNDOFF_FLOOR:
        return 0.0
    return float(f"{x:.12g}")


_encode_str = json.encoder.encode_basestring_ascii


def _float_json(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"report values must be finite, got {x!r}")
    return repr(_round_sig(x))


def _builtin(value):
    """The builtin value a numpy scalar or a subclass is written as; a
    complex number is written as its [re, im] pair."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, str):
        return str.__str__(value)
    raise TypeError(f"cannot serialize value of type {type(value)!r}")


def _sorted_items(value: dict) -> list:
    return sorted({str(k): v for k, v in value.items()}.items())


# How each format writes a scalar of exactly these types; any other scalar is
# first converted by _builtin.
_JSON_SCALARS = {
    str: _encode_str,
    float: _float_json,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}
_TEXT_SCALARS = {
    str: str,
    float: lambda x: repr(_round_sig(x)),
    int: str,
    bool: str,
    type(None): str,
}


def _write_json(value, pad: str, out: list) -> None:
    """Append the indent-2 JSON text of ``value`` to ``out``; ``pad`` is the
    indentation of the line it starts on."""
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        out.append(scalar(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for k, v in _sorted_items(value):
            out.append(sep + _encode_str(k) + ": ")
            _write_json(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for v in value:
            out.append(sep)
            _write_json(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    else:
        _write_json(_builtin(value), pad, out)


def _text_scalar(value) -> str | None:
    """The text of a scalar; None for a value written as nested lines."""
    scalar = _TEXT_SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    if isinstance(value, (dict, list, tuple, complex, np.complexfloating)):
        return None
    value = _builtin(value)
    return _TEXT_SCALARS[type(value)](value)


def _write_text(value, pad: str, out: list) -> None:
    """Append the text lines of a dict, list, tuple or complex number to
    ``out``: one line per key or item, ``pad`` before each, nested entries
    two spaces deeper."""
    if isinstance(value, dict):
        entries = [(k + ":", v) for k, v in _sorted_items(value)]
    else:
        items = value if isinstance(value, (list, tuple)) else _builtin(value)
        entries = [("-", v) for v in items]
    for head, v in entries:
        text = _text_scalar(v)
        if text is None:
            out.append(pad + head)
            _write_text(v, pad + "  ", out)
        else:
            out.append(f"{pad}{head} {text}")


def emit_report(doc: dict, fmt: str = "json") -> bytes:
    """Serialize a report document canonically as UTF-8 bytes, in one walk.

    json is indent-2 with sorted keys and ASCII escapes; text is one line per
    key or list item.  Both write floats by _round_sig, complex numbers as
    [re, im] and keys as str(key), sorted; json refuses non-finite floats.
    """
    out = []
    if fmt == "json":
        _write_json(doc, "", out)
        text = "".join(out)
    elif fmt == "text":
        line = _text_scalar(doc)
        if line is None:
            _write_text(doc, "", out)
        else:
            out.append(line)
        text = "\n".join(out)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return (text + "\n").encode("utf-8")


def schema_to_json(schema: HistorySchema) -> dict:
    """Schema file form: dim, initial ket, slices with bases and labels.

    Only pure initial states and rank-one slices are representable in the
    file format; each basis is written one ket (column) per row.
    """
    if schema.ket is None:
        raise ValueError("only pure initial states can be serialized")
    slices = []
    for s in schema.slices:
        if any(r != 1 for r in s.decomposition.ranks):
            raise ValueError("only rank-one decompositions can be serialized")
        entry = {
            "basis": _matrix_pairs(s.decomposition.basis.T),
            "labels": list(s.decomposition.labels),
        }
        if s.evolution is not None:
            entry["unitary"] = _matrix_pairs(s.evolution)
        slices.append(entry)
    return {
        "dim": schema.dim,
        "initial": [_complex_pair(z) for z in schema.ket],
        "slices": slices,
    }


def _pair_to_complex(pair) -> complex:
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)):
        raise ValueError(f"expected a [re, im] pair, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def _listed(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def _strings(value, what: str) -> list[str]:
    items = _listed(value, what)
    if not all(isinstance(x, str) for x in items):
        raise ValueError(f"{what} must be strings, got {items!r}")
    return items


def _pair_rows(rows, what: str) -> list[list[complex]]:
    return [[_pair_to_complex(p) for p in _listed(row, what)] for row in _listed(rows, what)]


def schema_from_json(doc: dict) -> HistorySchema:
    """Parse and validate the schema file form."""
    if not isinstance(doc, dict):
        raise ValueError("schema document must be a JSON object")
    for key in ("dim", "initial", "slices"):
        if key not in doc:
            raise ValueError(f"schema document missing key {key!r}")
    dim = doc["dim"]
    if type(dim) is not int or dim < 1:
        raise ValueError("dim must be a positive integer")
    ket = as_ket([_pair_to_complex(p) for p in _listed(doc["initial"], "initial")])
    if ket.size != dim:
        raise ValueError("initial ket length does not match dim")
    slices = []
    if not isinstance(doc["slices"], list) or not doc["slices"]:
        raise ValueError("slices must be a nonempty list")
    for s in doc["slices"]:
        if not isinstance(s, dict) or "basis" not in s or "labels" not in s:
            raise ValueError("each slice needs 'basis' and 'labels'")
        kets = [np.array(vec, dtype=complex) for vec in _pair_rows(s["basis"], "slice basis")]
        labels = _strings(s["labels"], "slice labels")
        if len(labels) != len(kets):
            raise ValueError("slice labels must match the basis size")
        decomposition = ProjectiveDecomposition.from_kets(kets, labels)
        evolution = None
        if "unitary" in s and s["unitary"] is not None:
            evolution = as_complex_matrix(_pair_rows(s["unitary"], "slice unitary"))
        slices.append(Slice(decomposition, evolution))
    return HistorySchema.from_ket(ket, tuple(slices))


def raw_df_from_json(doc: dict) -> DecoherenceFunctional:
    """Parse the raw-DF file form: complex 'entries' plus optional labels.

    A matrix failing validation raises ValidationFailedError with the report.
    One of 41 or more rows is refused first: its one block, the whole space,
    exceeds ZERO_SET_WORK_LIMIT at any factor width.
    """
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ValueError("raw DF document needs an 'entries' matrix")
    labels = doc.get("labels")
    if labels is not None:
        labels = _strings(labels, "labels")
    _check_zero_set_work(len(_listed(doc["entries"], "entries")), 1)
    return raw_df(_pair_rows(doc["entries"], "entries"), labels=labels)
