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
from dataclasses import dataclass, field

import numpy as np

from .composition import composition_anomalies, tensor_df
from .coevents import (
    CoEventSet,
    distinguishability_report,
    enumerate_primitive_coevents,
    intersect_coevent_sets,
)
from .errors import MissingParameterError, UnknownScenarioError
from .histories import (
    DecoherenceFunctional,
    Event,
    HistorySchema,
    Slice,
    build_df,
    measure,
    raw_df,
)
from .linalg import (
    ProjectiveDecomposition,
    as_complex_matrix,
    as_ket,
    build_theta_bases,
    build_xi_basis,
    computational_basis,
    tensor,
    unitary_from_hamiltonian,
)
from .limits import PARTITION_REPORT_LIMIT
from .measure_analysis import find_decoherent_partitions, find_zero_sets
from .tolerances import tolerance_summary

TOOL_NAME = "coevent"
TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 2
ROUNDOFF_FLOOR = 1e-14  # floats this close to zero are emitted as 0.0


def report_header() -> dict:
    """The schema version, tool and tolerances block every report starts with."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "tolerances": tolerance_summary(),
    }


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario name plus its parameter assignment."""

    name: str
    parameters: dict = field(default_factory=dict)


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


def _build_pbr_v1(params: dict) -> ScenarioBuild:
    slices = (Slice(build_xi_basis()),)
    return _pure_state_build(_pbr_states(), slices)


def _build_pbr_v2(params: dict) -> ScenarioBuild:
    slices = (
        Slice(computational_basis(4, ["00", "01", "10", "11"])),
        Slice(build_xi_basis()),
    )
    return _pure_state_build(_pbr_states(), slices)


def _theta_states(theta: float) -> list[tuple[str, np.ndarray]]:
    phi2 = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
    return [("phi1", _ket0()), ("phi2", phi2)]


def _build_appendix_theta(params: dict) -> ScenarioBuild:
    theta = params["theta"]
    psi01, psipm = build_theta_bases(theta)
    slices = (Slice(psipm), Slice(psi01), Slice(psipm))
    return _pure_state_build(_theta_states(theta), slices)


def _build_appendix_hamiltonian(params: dict) -> ScenarioBuild:
    theta = params["theta"]
    ham = np.array([[1.0, 1.0j], [-1.0j, 1.0]], dtype=complex)
    comp = computational_basis(2, ["0", "1"])
    slices = (
        Slice(comp, unitary_from_hamiltonian(ham, theta - math.pi / 4.0)),
        Slice(comp, unitary_from_hamiltonian(ham, math.pi / 4.0)),
        Slice(comp, unitary_from_hamiltonian(ham, 7.0 * math.pi / 4.0)),
    )
    return _pure_state_build(_theta_states(theta), slices)


def _build_composite_product(params: dict) -> ScenarioBuild:
    sub = raw_df(0.5 * np.array([[1.0, 1.0j], [-1.0j, 1.0]], dtype=complex))
    prod = tensor_df(sub, sub)
    entries = (
        ScenarioEntry(label="D_A", df=sub),
        ScenarioEntry(label="D_AB", df=prod),
    )
    return ScenarioBuild(entries=entries, composition_pair=(sub, sub))


SCENARIOS = {
    "pbr-v1": {
        "builder": _build_pbr_v1,
        "required": (),
        "description": "four two-qubit product states measured once in the xi basis",
    },
    "pbr-v2": {
        "builder": _build_pbr_v2,
        "required": (),
        "description": "computational slice refined by the xi basis",
    },
    "appendix-theta": {
        "builder": _build_appendix_theta,
        "required": ("theta",),
        "description": "three alternating qubit slices at angles theta, theta +/- pi/4",
    },
    "appendix-hamiltonian": {
        "builder": _build_appendix_hamiltonian,
        "required": ("theta",),
        "description": "Hamiltonian realization of appendix-theta with timed evolutions",
    },
    "composite-product": {
        "builder": _build_composite_product,
        "required": (),
        "description": "a rank-deficient qubit DF tensored with itself",
    },
}


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


def build_scenario(spec: ScenarioSpec | str, parameters: dict | None = None) -> ScenarioBuild:
    """Resolve a scenario name and parameters into analyzable entries."""
    if isinstance(spec, str):
        spec = ScenarioSpec(name=spec, parameters=dict(parameters or {}))
    if spec.name not in SCENARIOS:
        raise UnknownScenarioError(
            f"unknown scenario {spec.name!r}; known: {', '.join(scenario_names())}"
        )
    entry = SCENARIOS[spec.name]
    params = dict(spec.parameters)
    for req in entry["required"]:
        if req not in params:
            raise MissingParameterError(f"scenario {spec.name!r} requires parameter {req!r}")
        if not isinstance(params[req], (int, float)) or isinstance(params[req], bool):
            raise MissingParameterError(f"parameter {req!r} must be a real number")
    for got in params:
        if got not in entry["required"]:
            raise MissingParameterError(f"scenario {spec.name!r} takes no parameter {got!r}")
    return entry["builder"](params)


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix_pairs(m: np.ndarray) -> list[list[list[float]]]:
    return [[_complex_pair(z) for z in row] for row in np.asarray(m, dtype=complex)]


def analyze_df(df: DecoherenceFunctional, label: str) -> tuple[dict, CoEventSet]:
    """Run the full per-state pipeline and return (report section, co-events)."""
    catalog = find_zero_sets(df)
    coevents = enumerate_primitive_coevents(df, catalog, label=label)
    space = df.space
    singles = [measure(df, Event(space, 1 << i)) for i in range(space.size)]
    section = {
        "label": label,
        "history_labels": list(space.labels),
        "validation": df.validation.as_dict(),
        "measures": {lab: singles[i] for i, lab in enumerate(space.labels)},
        "measure_vector": singles,
        "zero_sets": {
            "counts": catalog.counts(),
            "sectorwise": [list(e.labels) for e in catalog.zero_events_sectorwise()],
            "nontrivial": [list(e.labels) for e in catalog.nontrivial_zero_events()],
            "maximal": [list(e.labels) for e in catalog.maximal_zero_events()],
            "borderline": [list(e.labels) for e in catalog.borderline_events()],
        },
        "coevents": [
            {"support": list(c.support.labels), "classical": c.classical}
            for c in coevents
        ],
    }
    if df.sectors_verified():
        section["sector_measures"] = {
            lab: measure(df, Event(space, mask)) for lab, mask in df.sectors()
        }
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


def _entry_df(entry: ScenarioEntry) -> DecoherenceFunctional:
    return entry.df if entry.df is not None else build_df(entry.schema)


def run_scenario(spec: ScenarioSpec | str, parameters: dict | None = None) -> dict:
    """Full pipeline over every entry of a scenario, as a report document."""
    if isinstance(spec, str):
        spec = ScenarioSpec(name=spec, parameters=dict(parameters or {}))
    build = build_scenario(spec)
    sections = []
    coevent_sets = []
    dfs = []
    for entry in build.entries:
        df = _entry_df(entry)
        section, ces = analyze_df(df, entry.label)
        sections.append(section)
        coevent_sets.append(ces)
        dfs.append(df)

    doc = {
        **report_header(),
        "scenario": {"name": spec.name, "parameters": dict(spec.parameters)},
        "entries": sections,
    }

    shared_labels = len(dfs) >= 2 and all(d.space.labels == dfs[0].space.labels for d in dfs)
    if shared_labels:
        rep = distinguishability_report(coevent_sets)
        rd = rep.as_dict()
        doc["intersection"] = rd["common"]
        doc["pairwise_shared"] = rd["pairwise"]
        doc["admissibility"] = rd["admissibility"]

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


def theta_sweep(start: float, end: float, steps: int) -> dict:
    """Run appendix-theta over a monotone grid and mark structural changes.

    Per point: co-event counts and sectorwise zero counts per initial state,
    and whether the two states' co-event sets are disjoint.  Markers record
    zero-count changes between adjacent points; flagged cells bracket the
    special angles tan(theta) = 1/3, tan(theta) = -1/3, and theta = 0
    (all mod pi).
    """
    if steps < 2:
        raise ValueError("a sweep needs at least 2 steps")
    if not end > start:
        raise ValueError("sweep range must satisfy end > start")
    grid = [start + (end - start) * i / (steps - 1) for i in range(steps)]
    points = []
    for theta in grid:
        build = build_scenario(ScenarioSpec("appendix-theta", {"theta": theta}))
        counts = {}
        zero_counts = {}
        borderline_counts = {}
        sets = []
        for entry in build.entries:
            df = _entry_df(entry)
            catalog = find_zero_sets(df)
            ces = enumerate_primitive_coevents(df, catalog, label=entry.label)
            counts[entry.label] = len(ces)
            zero_counts[entry.label] = catalog.counts()["zero_sectorwise"]
            borderline_counts[entry.label] = catalog.counts()["borderline"]
            sets.append(ces)
        points.append({
            "theta": theta,
            "disjoint": not intersect_coevent_sets(sets),
            "coevent_counts": counts,
            "zero_counts": zero_counts,
            "borderline_counts": borderline_counts,
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


def _canonical(value):
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _round_sig(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        return [_round_sig(float(value.real)), _round_sig(float(value.imag))]
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"cannot serialize value of type {type(value)!r}")


def _render_text(doc: dict, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(doc, dict):
        for k in sorted(doc):
            v = doc[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(doc, list):
        for v in doc:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{doc}")
    return lines


def emit_report(doc: dict, fmt: str = "json") -> bytes:
    """Serialize a report document canonically as UTF-8 bytes."""
    canon = _canonical(doc)
    if fmt == "json":
        text = json.dumps(canon, sort_keys=True, indent=2, allow_nan=False)
    elif fmt == "text":
        text = "\n".join(_render_text(canon))
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return (text + "\n").encode("utf-8")


def schema_to_json(schema: HistorySchema) -> dict:
    """Schema file form: dim, initial ket, slices with bases and labels.

    Only pure initial states and rank-one slices are representable in the
    file format.
    """
    if schema.ket is None:
        raise ValueError("only pure initial states can be serialized")
    slices = []
    for s in schema.slices:
        if not s.decomposition.all_rank_one():
            raise ValueError("only rank-one decompositions can be serialized")
        entry = {
            "basis": [[_complex_pair(z) for z in s.decomposition.vector(i)]
                      for i in range(len(s.decomposition))],
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


def schema_from_json(doc: dict) -> HistorySchema:
    """Parse and validate the schema file form."""
    if not isinstance(doc, dict):
        raise ValueError("schema document must be a JSON object")
    for key in ("dim", "initial", "slices"):
        if key not in doc:
            raise ValueError(f"schema document missing key {key!r}")
    dim = doc["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ValueError("dim must be a positive integer")
    ket = as_ket([_pair_to_complex(p) for p in doc["initial"]])
    if ket.size != dim:
        raise ValueError("initial ket length does not match dim")
    slices = []
    if not isinstance(doc["slices"], list) or not doc["slices"]:
        raise ValueError("slices must be a nonempty list")
    for s in doc["slices"]:
        if not isinstance(s, dict) or "basis" not in s or "labels" not in s:
            raise ValueError("each slice needs 'basis' and 'labels'")
        kets = [np.array([_pair_to_complex(p) for p in vec], dtype=complex)
                for vec in s["basis"]]
        labels = [str(x) for x in s["labels"]]
        if len(labels) != len(kets):
            raise ValueError("slice labels must match the basis size")
        decomposition = ProjectiveDecomposition.from_kets(kets, labels)
        evolution = None
        if "unitary" in s and s["unitary"] is not None:
            evolution = as_complex_matrix(
                [[_pair_to_complex(p) for p in row] for row in s["unitary"]]
            )
        slices.append(Slice(decomposition, evolution))
    return HistorySchema.from_ket(ket, tuple(slices))


def raw_df_from_json(doc: dict) -> DecoherenceFunctional:
    """Parse the raw-DF file form: complex 'entries' plus optional labels.

    A matrix failing validation raises ValidationFailedError with the report.
    """
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ValueError("raw DF document needs an 'entries' matrix")
    mat = [[_pair_to_complex(p) for p in row] for row in doc["entries"]]
    labels = doc.get("labels")
    if labels is not None:
        labels = [str(x) for x in labels]
    return raw_df(mat, labels=labels)
