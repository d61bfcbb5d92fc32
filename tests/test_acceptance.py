"""Acceptance gate: one test per shipped claim, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Reference values are stated literally; tolerances are
pinned at 1e-9 for amplitudes and measures and 1e-12 for exact zeros.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from coevent import (
    Event,
    build_df,
    build_scenario,
    composition_anomalies,
    distinguishability_report,
    enumerate_primitive_coevents,
    find_zero_sets,
    find_decoherent_partitions,
    measure,
    run_scenario,
    validate_df,
)
from coevent.histories import enumerate_histories
from coevent.scenarios import emit_report

from conftest import (
    THETA_SPECIAL,
    amplitude,
    brute_partition_residual,
    brute_primitive_masks,
    brute_zero_masks,
    complement,
    label_mask,
    load_golden,
    masks_to_labels,
    outcome_tuples,
    random_strong_df,
    scenario_dfs,
    small_scenario_dfs,
    support_set,
)

TOL = 1e-9
TIGHT = 1e-12
S8 = 1.0 / (2.0 * math.sqrt(2.0))

REFERENCE_V1_VECTORS = {
    "00": (0.0, 0.25, 0.25, 0.5),
    "0+": (0.25, 0.0, 0.5, 0.25),
    "+0": (0.25, 0.5, 0.0, 0.25),
    "++": (0.5, 0.25, 0.25, 0.0),
}

REFERENCE_V1_COEVENTS = {
    "00": [["h_{xi2}"], ["h_{xi3}"], ["h_{xi4}"]],
    "0+": [["h_{xi1}"], ["h_{xi3}"], ["h_{xi4}"]],
    "+0": [["h_{xi1}"], ["h_{xi2}"], ["h_{xi4}"]],
    "++": [["h_{xi1}"], ["h_{xi2}"], ["h_{xi3}"]],
}

REFERENCE_V2_AMPLITUDES = {
    "00": {
        "h_{00xi2}": 0.5, "h_{00xi3}": 0.5, "h_{00xi4}": 1.0 / math.sqrt(2.0),
    },
    "0+": {
        "h_{00xi2}": S8, "h_{00xi3}": S8, "h_{00xi4}": 0.5,
        "h_{01xi1}": 0.5, "h_{01xi2}": -S8, "h_{01xi3}": S8,
    },
    "+0": {
        "h_{00xi2}": S8, "h_{00xi3}": S8, "h_{00xi4}": 0.5,
        "h_{10xi1}": 0.5, "h_{10xi2}": S8, "h_{10xi3}": -S8,
    },
    "++": {
        "h_{00xi2}": 0.25, "h_{00xi3}": 0.25, "h_{00xi4}": S8,
        "h_{01xi1}": S8, "h_{01xi2}": -0.25, "h_{01xi3}": 0.25,
        "h_{10xi1}": S8, "h_{10xi2}": 0.25, "h_{10xi3}": -0.25,
        "h_{11xi2}": 0.25, "h_{11xi3}": 0.25, "h_{11xi4}": -S8,
    },
}

REFERENCE_V2_ZERO_PAIRS = {
    "00": set(),
    "0+": {("h_{00xi2}", "h_{01xi2}")},
    "+0": {("h_{00xi3}", "h_{10xi3}")},
    "++": {
        ("h_{00xi2}", "h_{01xi2}"), ("h_{01xi2}", "h_{10xi2}"),
        ("h_{01xi2}", "h_{11xi2}"), ("h_{00xi3}", "h_{10xi3}"),
        ("h_{01xi3}", "h_{10xi3}"), ("h_{10xi3}", "h_{11xi3}"),
        ("h_{00xi4}", "h_{11xi4}"),
    },
}

REFERENCE_V2_PP_COEVENTS = {
    ("h_{01xi1}",), ("h_{10xi1}",),
    ("h_{00xi2}", "h_{10xi2}"), ("h_{00xi2}", "h_{11xi2}"),
    ("h_{10xi2}", "h_{11xi2}"),
    ("h_{00xi3}", "h_{01xi3}"), ("h_{00xi3}", "h_{11xi3}"),
    ("h_{01xi3}", "h_{11xi3}"),
}

APPENDIX_THETAS = (0.3, 0.7, 1.2)

REFERENCE_APPENDIX_C1 = [["h_{+0+}"], ["h_{+1+}"], ["h_{-0-}"], ["h_{-1-}"]]

REFERENCE_APPENDIX_C2 = {
    ("h_{+0+}", "h_{+1+}"), ("h_{+0+}", "h_{-0+}"), ("h_{+1+}", "h_{-0+}"),
    ("h_{+0-}", "h_{-0-}"), ("h_{+0-}", "h_{-1-}"), ("h_{-0-}", "h_{-1-}"),
}

REFERENCE_PHI1_ZERO_PAIRS = {
    ("h_{-0+}", "h_{-1+}"), ("h_{+0-}", "h_{+1-}"),
}


def _amplitude_table(schema) -> dict[str, complex]:
    space = enumerate_histories(schema)
    return {
        lab: amplitude(schema, t)
        for lab, t in zip(space.labels, outcome_tuples(schema))
    }


def _support_frozensets(df, catalog=None) -> set[frozenset[str]]:
    ces = enumerate_primitive_coevents(df, catalog)
    return {frozenset(c.support.labels) for c in ces.coevents}


def test_criterion_1_single_measurement_measure_vectors(pbr_v1_golden):
    # Sum over the four preparations of |psi><psi| is A (x) A with
    # A = |0><0| + |+><+|, and each xi_i is maximally entangled, so every
    # column of the stated table sums to 1.
    for i in range(4):
        column = sum(vec[i] for vec in REFERENCE_V1_VECTORS.values())
        assert abs(column - 1.0) <= TIGHT, f"xi{i + 1} column sums to {column}"

    # The golden file keeps the mis-stated 00 row, (0, 1/4, 1/2, 1/4), as
    # `alternate`; the package's measures must reject it.
    variants = pbr_v1_golden["measure_vector_variants"]["00"]
    corrected = REFERENCE_V1_VECTORS["00"]
    assert tuple(variants["computed"]) == corrected
    assert tuple(variants["alternate"]) == (*corrected[:2], corrected[3], corrected[2])
    dfs = scenario_dfs("pbr-v1")
    measures = {
        state: tuple(
            measure(dfs[state], Event(dfs[state].space, 1 << i)) for i in range(4)
        )
        for state in REFERENCE_V1_VECTORS
    }
    assert not np.allclose(measures["00"], variants["alternate"], atol=TOL)
    problems = []
    for state, want in REFERENCE_V1_VECTORS.items():
        got = measures[state]
        if not np.allclose(got, want, atol=TOL):
            problems.append(
                f"state {state!r}: reference vector {want},"
                f" xi-basis computation gives {tuple(round(x, 12) for x in got)}"
            )
    assert not problems, (
        "stated measure vectors disagree with the frozen xi basis: "
        + "; ".join(problems)
    )
    print("criterion 1 (measures): PASS - all four pbr-v1 measure vectors match;"
          " the swapped 00 variant is rejected")


def test_criterion_1_single_measurement_coevents_disjoint():
    dfs = scenario_dfs("pbr-v1")
    sets = []
    for state, want in REFERENCE_V1_COEVENTS.items():
        ces = enumerate_primitive_coevents(dfs[state], label=state)
        assert ces.support_labels() == want, f"state {state!r}"
        sets.append(ces)
    assert distinguishability_report(sets)["intersection"] == []
    print("criterion 1 (co-events): PASS - pbr-v1 co-event sets exact, intersection empty")


def test_criterion_2_refined_measurement_amplitudes_and_coevents():
    build = build_scenario("pbr-v2")
    coevent_sets = []
    for entry in build.entries:
        table = REFERENCE_V2_AMPLITUDES[entry.label]
        for lab, amp in _amplitude_table(entry.schema).items():
            want = table.get(lab, 0.0)
            assert abs(amp.imag) <= TIGHT, f"{entry.label}:{lab} imaginary residue"
            if want == 0.0:
                assert abs(amp) <= TIGHT, f"{entry.label}:{lab} should vanish"
            else:
                assert amp.real == pytest.approx(want, abs=TOL), f"{entry.label}:{lab}"

        df = scenario_dfs("pbr-v2")[entry.label]
        catalog = find_zero_sets(df)
        pairs = {
            tuple(sorted(e.labels))
            for e in catalog.nontrivial_zero_events() if len(e) == 2
        }
        assert pairs == REFERENCE_V2_ZERO_PAIRS[entry.label], f"state {entry.label!r}"
        ces = enumerate_primitive_coevents(df, catalog, label=entry.label)
        if entry.label == "++":
            got = {tuple(sorted(c.support.labels)) for c in ces.coevents}
            assert got == REFERENCE_V2_PP_COEVENTS
        coevent_sets.append(ces)
    assert distinguishability_report(coevent_sets)["intersection"] == []
    print("criterion 2: PASS - all 64 pbr-v2 amplitudes, zero pairs, and co-events match")


def test_criterion_3_listing_discrepancy_is_recorded_and_resolved(pbr_v2_golden):
    variants = pbr_v2_golden["coevent_listing_variants"]
    dfs = scenario_dfs("pbr-v2")

    oracle = {
        state: [sorted(Event(dfs[state].space, m).labels)
                for m in brute_primitive_masks(dfs[state])]
        for state in ("0+", "+0")
    }
    for state in ("0+", "+0"):
        computed = [sorted(s) for s in variants[state]["computed"]]
        assert computed == oracle[state], f"golden mismatch for {state!r}"
        package = [sorted(c.support.labels)
                   for c in enumerate_primitive_coevents(dfs[state]).coevents]
        assert package == oracle[state]

    assert variants["0+"]["alternate"] == [
        ["h_{00xi3}"], ["h_{00xi4}"], ["h_{01xi1}"], ["h_{01xi4}"]
    ]
    assert variants["+0"]["alternate"] is None
    assert "agrees" in variants["+0"]["note"]

    supports = {
        state: _support_frozensets(dfs[state]) for state in ("00", "+0", "++")
    }
    computed_0p = _support_frozensets(dfs["0+"])
    alternate_0p = {frozenset(s) for s in variants["0+"]["alternate"]}
    for listing in (computed_0p, alternate_0p):
        assert not any("xi2" in lab for sup in listing for lab in sup)
        common = supports["00"] & listing & supports["+0"] & supports["++"]
        assert common == set()
    assert pbr_v2_golden["conclusions"]["four_way_intersection_empty"] is True
    assert pbr_v2_golden["conclusions"]["holds_under_alternate_listing"] is True
    assert pbr_v2_golden["conclusions"]["no_0plus_coevent_ends_at_xi2"] is True
    print("criterion 3: PASS - listing variants recorded; conclusions hold under both")


def test_criterion_4_product_functional_and_partitions():
    reference = 0.25 * np.array([
        [1.0, 1.0j, 1.0j, -1.0],
        [-1.0j, 1.0, 1.0, 1.0j],
        [-1.0j, 1.0, 1.0, 1.0j],
        [-1.0, -1.0j, -1.0j, 1.0],
    ])
    dfs = scenario_dfs("composite-product")
    sub, prod = dfs["D_A"], dfs["D_AB"]
    np.testing.assert_allclose(prod.matrix, reference, atol=TIGHT)

    anti = Event(prod.space, label_mask(prod.space, ("h11", "h22")))
    assert abs(measure(prod, anti)) <= TIGHT
    rest = Event(prod.space, label_mask(prod.space, ("h12", "h21")))
    assert brute_partition_residual(prod, [anti.mask, rest.mask], "medium") <= TOL

    medium = find_decoherent_partitions(sub, "medium", max_cells=sub.size)
    assert len(medium) == 1 and len(medium[0].cells) == 1

    assert prod.matrix[0, 3].real == pytest.approx(-0.25, abs=TIGHT)
    comp = composition_anomalies(sub, sub)
    assert len(comp.weak_violations) == 1
    violation = comp.weak_violations[0]
    assert violation.residual == pytest.approx(0.25, abs=TIGHT)
    assert len(violation.partition_a.cells) == 2
    assert len(violation.partition_b.cells) == 2
    print("criterion 4: PASS - product matrix, zero pair, partitions, weak violation")


def test_criterion_5_three_slice_amplitudes_and_coevents():
    labels = (
        "h_{+0+}", "h_{+0-}", "h_{+1+}", "h_{+1-}",
        "h_{-0+}", "h_{-0-}", "h_{-1+}", "h_{-1-}",
    )
    for theta in APPENDIX_THETAS:
        c_plus = 0.5 * math.cos(theta + math.pi / 4.0)
        c_minus = 0.5 * math.cos(theta - math.pi / 4.0)
        want_phi1 = {
            "h_{+0+}": c_plus, "h_{+1+}": c_plus,
            "h_{-0+}": c_minus, "h_{-1+}": -c_minus,
            "h_{+0-}": c_plus, "h_{+1-}": -c_plus,
            "h_{-0-}": c_minus, "h_{-1-}": c_minus,
        }
        want_phi2 = {
            lab: (-S8 if lab in ("h_{-1+}", "h_{+1-}") else S8) for lab in labels
        }
        build = build_scenario("appendix-theta", {"theta": theta})
        for entry, want in zip(build.entries, (want_phi1, want_phi2)):
            for lab, amp in _amplitude_table(entry.schema).items():
                assert abs(amp.imag) <= TIGHT, f"theta={theta} {lab}"
                assert amp.real == pytest.approx(want[lab], abs=TOL), \
                    f"theta={theta} {entry.label}:{lab}"

        dfs = scenario_dfs("appendix-theta", theta=theta)
        catalog = find_zero_sets(dfs["phi1"])
        zero_pairs = {tuple(sorted(e.labels))
                      for e in catalog.zero_events_sectorwise()}
        assert zero_pairs == REFERENCE_PHI1_ZERO_PAIRS, f"theta={theta}"
        c1 = enumerate_primitive_coevents(dfs["phi1"], catalog, label="phi1")
        assert c1.support_labels() == REFERENCE_APPENDIX_C1, f"theta={theta}"
        c2 = enumerate_primitive_coevents(dfs["phi2"], label="phi2")
        got_c2 = {tuple(sorted(c.support.labels)) for c in c2.coevents}
        assert got_c2 == REFERENCE_APPENDIX_C2, f"theta={theta}"
        assert distinguishability_report([c1, c2])["intersection"] == [], f"theta={theta}"
    print("criterion 5: PASS - generic-angle amplitudes, zero pairs, and co-events")


def test_criterion_6_special_angle_gains_zero_set_and_overlap(appendix_golden):
    dfs = scenario_dfs("appendix-theta", theta=THETA_SPECIAL)
    phi1, phi2 = dfs["phi1"], dfs["phi2"]

    generic_masks = {0b0001010, 0b1010000}
    nontrivial = set()
    for m in brute_zero_masks(phi1):
        singles = [i for i in range(8) if m >> i & 1]
        if len(singles) >= 2 and any(
            measure(phi1, Event(phi1.space, 1 << i)) > TOL for i in singles
        ):
            nontrivial.add(m)
    extra = nontrivial - generic_masks
    assert extra, "no additional zero set at tan(theta) = 1/3"
    assert frozenset({0, 2, 6}) in {
        frozenset(i for i in range(8) if m >> i & 1) for m in extra
    }

    brute_sets = []
    for df in (phi1, phi2):
        brute = brute_primitive_masks(df)
        package = [c.support.mask
                   for c in enumerate_primitive_coevents(df).coevents]
        assert package == brute
        brute_sets.append(set(brute))
    overlap = brute_sets[0] & brute_sets[1]
    assert overlap, "co-event sets unexpectedly disjoint at the special angle"
    assert masks_to_labels(phi1, overlap) == support_set(
        appendix_golden["cases"]["atan13"]["intersection"]
    )
    print("criterion 6: PASS - special angle adds a zero set and a shared co-event")


def test_criterion_7_hamiltonian_realization_is_equivalent():
    perm = [(1 - (i >> 2 & 1)) * 4 + (i >> 1 & 1) * 2 + (1 - (i & 1))
            for i in range(8)]
    for theta in APPENDIX_THETAS + (THETA_SPECIAL,):
        direct = build_scenario("appendix-theta", {"theta": theta})
        timed = build_scenario("appendix-hamiltonian", {"theta": theta})
        for et, eh in zip(direct.entries, timed.entries):
            amps_t = list(_amplitude_table(et.schema).values())
            amps_h = list(_amplitude_table(eh.schema).values())
            ratios = [amps_h[perm[i]] / amps_t[i]
                      for i in range(8) if abs(amps_t[i]) > TOL]
            assert abs(ratios[0]) == pytest.approx(1.0, abs=TOL)
            for r in ratios[1:]:
                assert r == pytest.approx(ratios[0], abs=TOL)
            df_t = build_df(et.schema)
            df_h = build_df(eh.schema)
            sup_t = {frozenset(perm[i] for i in c.support.indices)
                     for c in enumerate_primitive_coevents(df_t).coevents}
            sup_h = {frozenset(c.support.indices)
                     for c in enumerate_primitive_coevents(df_h).coevents}
            assert sup_t == sup_h, f"theta={theta} {et.label}"
    print("criterion 7: PASS - timed realization matches up to one global phase")


def test_criterion_8_property_suites():
    named = small_scenario_dfs()
    for theta in (0.7, THETA_SPECIAL):
        for label, df in scenario_dfs("appendix-hamiltonian", theta=theta).items():
            named.append((f"hamiltonian={theta:.3f}:{label}", df))
    for label, df in scenario_dfs("pbr-v2").items():
        named.append((f"pbr-v2:{label}", df))

    for label, df in named:
        report = validate_df(df)
        assert report.passed, f"{label}: {report.failures}"

    def sum_rule_holds(df, a, b, c):
        space = df.space
        lhs = measure(df, Event(space, a | b | c))
        rhs = (measure(df, Event(space, a | b)) + measure(df, Event(space, a | c))
               + measure(df, Event(space, b | c)) - measure(df, Event(space, a))
               - measure(df, Event(space, b)) - measure(df, Event(space, c)))
        return abs(lhs - rhs) <= TOL

    for state, df in scenario_dfs("pbr-v1").items():
        for buckets in itertools.product(range(4), repeat=4):
            masks = [0, 0, 0]
            for i, b in enumerate(buckets):
                if b:
                    masks[b - 1] |= 1 << i
            assert sum_rule_holds(df, *masks), f"pbr-v1:{state} {buckets}"

    rng = np.random.default_rng(20260813)
    v2 = scenario_dfs("pbr-v2")
    for state in ("00", "0+", "+0", "++"):
        df = v2[state]
        for _ in range(50):
            buckets = rng.integers(0, 4, size=16)
            masks = [0, 0, 0]
            for i, b in enumerate(buckets):
                if b:
                    masks[b - 1] |= 1 << i
            assert sum_rule_holds(df, *masks), f"pbr-v2:{state}"

    full = [(lab, df) for lab, df in named if not lab.startswith("pbr-v2")]
    for label, df in full:
        catalog = find_zero_sets(df)
        everything = (1 << df.size) - 1
        for event in catalog.zero_events_sectorwise() + catalog.maximal_zero_events():
            if not event.mask or event.mask == everything:
                continue
            cells = [event.mask, complement(event).mask]
            assert brute_partition_residual(df, cells, "medium") <= TOL, label

        if df.space.sectors is not None:
            sector_masks = [m for _, m in df.sectors()]
            for _ in range(50):
                mask = int(rng.integers(0, 1 << df.size))
                total = sum(
                    measure(df, Event(df.space, mask & sm)) for sm in sector_masks
                )
                assert measure(df, Event(df.space, mask)) == pytest.approx(
                    total, abs=TOL
                ), label

        ces = enumerate_primitive_coevents(df, catalog)
        zeros = brute_zero_masks(df)
        for coevent in ces.coevents:
            s = coevent.support.mask
            assert not any(s & ~z == 0 for z in zeros), label
            for _ in range(30):
                a = int(rng.integers(0, 1 << df.size))
                b = int(rng.integers(0, 1 << df.size))
                assert (s & ~(a & b) == 0) == (s & ~a == 0 and s & ~b == 0), label

        assert [c.support.mask for c in ces.coevents] == brute_primitive_masks(df), \
            label

    for k in range(50):
        n = 2 + k % 7
        df = random_strong_df(rng, n)
        got = [c.support.mask
               for c in enumerate_primitive_coevents(df).coevents]
        assert got == brute_primitive_masks(df), f"random strong df #{k} (n={n})"
    print("criterion 8: PASS - axioms, sum rule, decoherence, sector additivity,"
          " multiplicativity, oracle equivalence")


def test_criterion_9_reports_are_deterministic():
    cases = [
        ("pbr-v1", {}),
        ("pbr-v2", {}),
        ("composite-product", {}),
        ("appendix-theta", {"theta": 0.7}),
        ("appendix-theta", {"theta": THETA_SPECIAL}),
        ("appendix-hamiltonian", {"theta": 0.7}),
    ]
    for name, params in cases:
        first = emit_report(run_scenario(name, params))
        second = emit_report(run_scenario(name, params))
        assert first == second, f"{name} {params}"
    print("criterion 9: PASS - byte-identical reports for every scenario")
