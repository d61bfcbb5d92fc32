"""Expected answers for the shipped scenarios, sweeps and CLI reports.

The scenario factors are rebuilt here from the scenario definitions in the
README (basis kets, initial kets, the Hamiltonian's closed-form evolution),
not from the package.  golden_problems() holds these oracles to the files in
tests/golden, read only; the pbr-v1 and pbr-v2 states use the computed
variants, as the golden files do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from oracle import (
    answer_from_section,
    brute_answer,
    compare,
    composition_expected,
    decoherent_partitions,
    final_sectors,
    golden_answer,
    history_labels,
    intersection,
    load_golden,
    masks_from_labels,
    product_factor,
    schema_factor,
)

S2 = 1.0 / math.sqrt(2.0)
PARTITION_REPORT_LIMIT = 6
# Reports round floats to 12 significant digits.
ROUND_TOL = 1e-10
SPECIAL_REASONS = (
    ("tan_theta_one_third", math.atan(1.0 / 3.0)),
    ("tan_theta_minus_one_third", math.atan(-1.0 / 3.0)),
    ("theta_zero", 0.0),
)


def _k(*xs):
    return np.array(xs, dtype=complex)


def xi_kets():
    return [_k(0, S2, S2, 0), _k(0.5, -0.5, 0.5, 0.5), _k(0.5, 0.5, -0.5, 0.5), _k(S2, 0, 0, -S2)]


def theta_pair(t: float):
    return [_k(math.cos(t), math.sin(t)), _k(math.sin(t), -math.cos(t))]


def hamiltonian_unitary(t: float) -> np.ndarray:
    """exp(-iHt) for H = [[1, i], [-i, 1]] = I - sigma_y, in closed form."""
    c, s = math.cos(t), math.sin(t)
    return np.exp(-1j * t) * np.array([[c, s], [-s, c]], dtype=complex)


def pbr_states():
    k0, kp = _k(1, 0), _k(S2, S2)
    return [("00", np.kron(k0, k0)), ("0+", np.kron(k0, kp)),
            ("+0", np.kron(kp, k0)), ("++", np.kron(kp, kp))]


def theta_states(theta: float):
    return [("phi1", _k(1, 0)), ("phi2", _k(math.cos(theta), math.sin(theta)))]


def scenario_schemas(name: str, theta: float | None):
    """(slices, slice labels, [(entry label, initial ket)]) of a schema scenario."""
    xi = (None, xi_kets())
    xi_labels = ["xi1", "xi2", "xi3", "xi4"]
    if name == "pbr-v1":
        return [xi], [xi_labels], pbr_states()
    if name == "pbr-v2":
        comp = (None, list(np.eye(4, dtype=complex)))
        return [comp, xi], [["00", "01", "10", "11"], xi_labels], pbr_states()
    if name == "appendix-theta":
        pm = (None, theta_pair(theta + math.pi / 4.0))
        zo = (None, theta_pair(theta))
        return [pm, zo, pm], [["+", "-"], ["0", "1"], ["+", "-"]], theta_states(theta)
    if name == "appendix-hamiltonian":
        comp = list(np.eye(2, dtype=complex))
        times = (theta - math.pi / 4.0, math.pi / 4.0, 7.0 * math.pi / 4.0)
        slices = [(hamiltonian_unitary(t), comp) for t in times]
        return slices, [["0", "1"]] * 3, theta_states(theta)
    raise ValueError(f"no schema oracle for {name!r}")


@dataclass
class Expected:
    """What one scenario report must contain."""

    entries: dict
    partitions: dict = field(default_factory=dict)
    intersection: frozenset | None = None
    composition: tuple | None = None
    factor_labels: dict = field(default_factory=dict)


def _partitions(factor) -> dict:
    n = factor.shape[0]
    if n > PARTITION_REPORT_LIMIT:
        return {}
    return {mode: decoherent_partitions(factor, mode, n) for mode in ("medium", "weak")}


def expected_scenario(name: str, theta: float | None = None) -> Expected:
    if name == "composite-product":
        fa = np.array([[S2], [1j * S2]])
        fp = product_factor(fa, fa)
        la, lp = ("h1", "h2"), ("h11", "h12", "h21", "h22")
        exp = Expected(entries={"D_A": brute_answer(fa, la), "D_AB": brute_answer(fp, lp)},
                       partitions={"D_A": _partitions(fa), "D_AB": _partitions(fp)},
                       composition=composition_expected(fa, fa),
                       factor_labels={"a": la, "b": la, "product": lp})
        return exp
    slices, slice_labels, states = scenario_schemas(name, theta)
    labels = history_labels(slice_labels)
    sectors = final_sectors([len(kets) for _, kets in slices])
    entries, parts = {}, {}
    for label, ket in states:
        factor = schema_factor(ket, slices)
        entries[label] = brute_answer(factor, labels, sectors)
        parts[label] = _partitions(factor)
    return Expected(entries=entries, partitions=parts,
                    intersection=intersection(entries.values()))


def _cells(reports, index) -> frozenset:
    return frozenset(frozenset(masks_from_labels(r["cells"], index)) for r in reports)


def check_report(doc: dict, exp: Expected) -> list:
    """Problems in a parsed scenario report, against the expected answers."""
    problems = []
    seen = set()
    for section in doc["entries"]:
        label = section["label"]
        seen.add(label)
        if label not in exp.entries:
            problems.append(f"unexpected entry {label!r}")
            continue
        got = answer_from_section(section)
        problems += compare(exp.entries[label], got, label)
        index = {lab: i for i, lab in enumerate(got.labels)}
        for mode, want in exp.partitions.get(label, {}).items():
            if _cells(section["decoherent_partitions"][mode], index) != want:
                problems.append(f"{label}: {mode} decoherent partitions differ")
    if seen != set(exp.entries):
        problems.append("report entries differ from the scenario's states")
    if exp.intersection is not None:
        labels = next(iter(exp.entries.values())).labels
        index = {lab: i for i, lab in enumerate(labels)}
        if frozenset(masks_from_labels(doc.get("intersection", []), index)) != exp.intersection:
            problems.append("co-event intersection differs")
    if exp.composition is not None:
        problems += _check_composition(doc["composition"], exp)
    return problems


def _check_composition(comp: dict, exp: Expected) -> list:
    emergent, violations = exp.composition
    ia = {lab: i for i, lab in enumerate(exp.factor_labels["a"])}
    ib = {lab: i for i, lab in enumerate(exp.factor_labels["b"])}
    ip = {lab: i for i, lab in enumerate(exp.factor_labels["product"])}
    problems = []
    if frozenset(masks_from_labels(comp["emergent_zero"], ip)) != emergent:
        problems.append("emergent zero events differ")
    got = frozenset(
        (frozenset(masks_from_labels(v["partition_a"], ia)),
         frozenset(masks_from_labels(v["partition_b"], ib)))
        for v in comp["weak_violations"])
    if got != violations:
        problems.append("weak-decoherence violations differ")
    return problems


# ---------------------------------------------------------------------------
# Sweeps


def sweep_grid(start: float, end: float, steps: int) -> list:
    return [start + (end - start) * i / (steps - 1) for i in range(steps)]


def expected_sweep(start: float, end: float, steps: int) -> dict:
    grid = sweep_grid(start, end, steps)
    points = []
    for theta in grid:
        exp = expected_scenario("appendix-theta", theta)
        points.append({
            "coevent_counts": {k: len(a.coevents) for k, a in exp.entries.items()},
            "zero_counts": {k: len(a.zero) for k, a in exp.entries.items()},
            "disjoint": not exp.intersection,
        })
    markers = []
    for i in range(len(points) - 1):
        changed = sorted(k for k in points[i]["zero_counts"]
                         if points[i]["zero_counts"][k] != points[i + 1]["zero_counts"][k])
        if changed:
            markers.append([grid[i], grid[i + 1], changed])
    flagged = []
    for i in range(len(grid) - 1):
        lo, hi = grid[i], grid[i + 1]
        reasons = sorted(r for r, base in SPECIAL_REASONS
                         if math.floor((hi - base) / math.pi) * math.pi + base >= lo)
        if reasons:
            flagged.append([lo, hi, reasons])
    return {"grid": grid, "points": points, "markers": markers, "flagged": flagged}


def _same_cells(got: list, want: list) -> bool:
    """Cell lists [lo, hi, names] equal, with floats as emitted (12 digits)."""
    return len(got) == len(want) and all(
        abs(g[0] - w[0]) <= ROUND_TOL and abs(g[1] - w[1]) <= ROUND_TOL and g[2] == w[2]
        for g, w in zip(got, want))


def check_sweep(doc: dict, exp: dict) -> list:
    problems = []
    if len(doc["points"]) != len(exp["grid"]):
        return ["sweep point count differs"]
    for theta, got, want in zip(exp["grid"], doc["points"], exp["points"]):
        if abs(got["theta"] - theta) > ROUND_TOL:
            problems.append("sweep grid differs")
            break
        for key in ("coevent_counts", "zero_counts", "disjoint"):
            if got[key] != want[key]:
                problems.append(f"sweep point {theta:.6f}: {key} differ")
        if any(got["borderline_counts"].values()):
            problems.append(f"sweep point {theta:.6f}: unexpected borderline events")
    markers = [[m["between"][0], m["between"][1], m["states"]] for m in doc["markers"]]
    if not _same_cells(markers, exp["markers"]):
        problems.append("sweep markers differ")
    flagged = [[f["cell"][0], f["cell"][1], f["reasons"]] for f in doc["flagged_cells"]]
    if not _same_cells(flagged, exp["flagged"]):
        problems.append("sweep flagged cells differ")
    return problems


# ---------------------------------------------------------------------------
# Golden files


def golden_problems(root: str) -> list:
    """Where the oracles above disagree with tests/golden (should be none)."""
    problems = []
    for name, fname in (("pbr-v1", "pbr_v1.json"), ("pbr-v2", "pbr_v2.json")):
        gold = load_golden(root, fname)
        exp = expected_scenario(name)
        for state, data in gold["states"].items():
            problems += compare(golden_answer(data, gold["label_order"]),
                                exp.entries[state], f"golden {name} {state}")
        if gold["intersection"] != []:
            problems.append(f"golden {name}: nonempty intersection")
    gold = load_golden(root, "appendix_theta.json")
    for key, case in gold["cases"].items():
        exp = expected_scenario("appendix-theta", case["theta"])
        for state, data in case["states"].items():
            problems += compare(golden_answer(data, gold["label_order"]),
                                exp.entries[state], f"golden appendix {key} {state}")
        index = {lab: i for i, lab in enumerate(gold["label_order"])}
        if frozenset(masks_from_labels(case["intersection"], index)) != exp.intersection:
            problems.append(f"golden appendix {key}: intersection differs")
    gold = load_golden(root, "composite_product.json")
    exp = expected_scenario("composite-product")
    index = {lab: i for i, lab in enumerate(gold["label_order"])}
    if frozenset(masks_from_labels(gold["product_zero_events"], index)) != exp.entries["D_AB"].zero:
        problems.append("golden composite: product zero events differ")
    if frozenset(masks_from_labels(gold["emergent_zero_events"], index)) != exp.composition[0]:
        problems.append("golden composite: emergent zero events differ")
    sub = {"h1": 0, "h2": 1}
    for mode, key in (("weak", "subsystem_weak_partitions"),
                      ("medium", "subsystem_medium_partitions")):
        want = frozenset(frozenset(masks_from_labels(p, sub)) for p in gold[key])
        if want != exp.partitions["D_A"][mode]:
            problems.append(f"golden composite: subsystem {mode} partitions differ")
    return problems

