"""History spaces, class operators, amplitudes, and DF construction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coevent import (
    Event,
    FinalSliceNotRankOneError,
    HistorySchema,
    ImaginaryResidueError,
    IndexOutOfRangeError,
    MixedInitialStateError,
    ProjectiveDecomposition,
    Slice,
    SpaceTooLargeError,
    ValidationFailedError,
    amplitude,
    build_df,
    build_scenario,
    class_operator,
    computational_basis,
    enumerate_histories,
    measure,
    raw_df,
    validate_df,
)
from coevent.histories import raw_space, sort_masks

from conftest import scenario_dfs, unvalidated_raw_df


def qubit_schema(ket=(1.0, 0.0)) -> HistorySchema:
    basis = computational_basis(2)
    return HistorySchema.from_ket(np.array(ket, dtype=complex), (Slice(basis), Slice(basis)))


def random_decomposition(rng, dim: int, labels) -> ProjectiveDecomposition:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    return ProjectiveDecomposition.from_kets(list(q.T), labels)


def test_enumeration_order_and_labels():
    space = enumerate_histories(qubit_schema())
    assert space.labels == ("h_{00}", "h_{01}", "h_{10}", "h_{11}")
    assert space.outcome_tuples == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert space.sectors == (("0", 0b0101), ("1", 0b1010))


def test_enumeration_size_caps(monkeypatch):
    schema = qubit_schema()
    monkeypatch.setenv("COEVENT_MAX_OMEGA", "3")
    with pytest.raises(SpaceTooLargeError):
        enumerate_histories(schema)
    monkeypatch.setenv("COEVENT_MAX_OMEGA", "not a number")
    with pytest.raises(ValueError):
        enumerate_histories(schema)


def test_schema_validation():
    basis = computational_basis(2)
    with pytest.raises(ValueError):
        HistorySchema.from_density(np.diag([0.7, 0.7]), (Slice(basis),))
    with pytest.raises(ValueError):
        HistorySchema.from_density(np.diag([1.5, -0.5]), (Slice(basis),))
    with pytest.raises(ValueError):
        HistorySchema.from_ket([1.0, 0.0], ())
    with pytest.raises(ValueError):
        HistorySchema.from_ket([1.0, 0.0], (Slice(basis, evolution=2.0 * np.eye(2)),))
    with pytest.raises(ValueError):
        HistorySchema.from_ket([1.0, 0.0, 0.0], (Slice(basis),))


def test_class_operator_composition():
    rng = np.random.default_rng(5)
    dim = 3
    dec1 = random_decomposition(rng, dim, ["a", "b", "c"])
    dec2 = random_decomposition(rng, dim, ["x", "y", "z"])
    u1, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    u2, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    schema = HistorySchema.from_ket(
        np.eye(dim)[0], (Slice(dec1, evolution=u1), Slice(dec2, evolution=u2))
    )
    # earliest slice acts first, so its factor sits rightmost in the product
    expected = dec2.projectors[2] @ u2 @ dec1.projectors[1] @ u1
    np.testing.assert_allclose(class_operator(schema, (1, 2)), expected, atol=1e-12)
    with pytest.raises(IndexOutOfRangeError):
        class_operator(schema, (1,))
    with pytest.raises(IndexOutOfRangeError):
        class_operator(schema, (1, 3))


def test_amplitude_known_value():
    build = build_scenario("pbr-v2")
    schema = next(e.schema for e in build.entries if e.label == "0+")
    amp = amplitude(schema, (0, 1))
    assert amp == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)), abs=1e-12)
    assert abs(amp) ** 2 == pytest.approx(0.125, abs=1e-12)


def test_amplitude_requires_pure_state():
    basis = computational_basis(2)
    schema = HistorySchema.from_density(0.5 * np.eye(2), (Slice(basis),))
    with pytest.raises(MixedInitialStateError):
        amplitude(schema, (0,))
    assert build_df(schema).validation.passed


def test_amplitude_requires_rank_one_final():
    plane = np.diag([1.0, 1.0, 0.0]).astype(complex)
    line = np.diag([0.0, 0.0, 1.0]).astype(complex)
    dec = ProjectiveDecomposition(dim=3, projectors=(plane, line), labels=("p", "l"))
    schema = HistorySchema.from_ket(np.eye(3)[0], (Slice(dec),))
    with pytest.raises(FinalSliceNotRankOneError):
        amplitude(schema, (0,))
    # the DF itself is still well defined
    df = build_df(schema)
    assert measure(df, Event.from_labels(df.space, ["h_{p}"])) == pytest.approx(1.0)


def test_df_entries_are_amplitude_products():
    for name, kwargs in (("pbr-v1", {}), ("appendix-theta", {"theta": 0.7})):
        build = build_scenario(name, kwargs)
        for entry in build.entries:
            df = build_df(entry.schema)
            space = df.space
            amps = np.array([amplitude(entry.schema, t) for t in space.outcome_tuples])
            finals = np.array([t[-1] for t in space.outcome_tuples])
            expected = np.where(
                finals[:, None] == finals[None, :],
                np.conjugate(amps)[:, None] * amps[None, :],
                0.0,
            )
            np.testing.assert_allclose(df.matrix, expected, atol=1e-12)


def test_measure_normalization_and_empty():
    for label, df in scenario_dfs("pbr-v1").items():
        assert measure(df, Event(df.space, df.space.full_mask())) == pytest.approx(1.0, abs=1e-9)
        assert measure(df, Event(df.space, 0)) == 0.0


def test_quadratic_sum_rule_exhaustive():
    """mu(AuBuC) = mu(AuB) + mu(AuC) + mu(BuC) - mu(A) - mu(B) - mu(C)."""
    df = scenario_dfs("pbr-v1")["0+"]
    space = df.space

    def mu(mask):
        return measure(df, Event(space, mask))

    n = space.size
    for assign in range(4 ** n):
        groups = [(assign >> (2 * i)) & 3 for i in range(n)]
        masks = [0, 0, 0]
        for i, g in enumerate(groups):
            if g < 3:
                masks[g] |= 1 << i
        a, b, c = masks
        if not (a and b and c):
            continue
        lhs = mu(a | b | c)
        rhs = mu(a | b) + mu(a | c) + mu(b | c) - mu(a) - mu(b) - mu(c)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_quadratic_sum_rule_random():
    df = scenario_dfs("pbr-v2")["++"]
    space = df.space
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 200:
        groups = rng.integers(0, 4, size=space.size)
        masks = []
        for g in range(3):
            m = 0
            for i in np.flatnonzero(groups == g):
                m |= 1 << int(i)
            masks.append(m)
        a, b, c = masks
        if not (a and b and c):
            continue
        lhs = measure(df, Event(space, a | b | c))
        rhs = (
            measure(df, Event(space, a | b))
            + measure(df, Event(space, a | c))
            + measure(df, Event(space, b | c))
            - measure(df, Event(space, a))
            - measure(df, Event(space, b))
            - measure(df, Event(space, c))
        )
        assert lhs == pytest.approx(rhs, abs=1e-9)
        checked += 1


def test_disjoint_pair_expansion():
    df = scenario_dfs("appendix-theta", theta=1.2)["phi2"]
    space = df.space
    rng = np.random.default_rng(43)
    for _ in range(100):
        groups = rng.integers(0, 3, size=space.size)
        a = Event.from_indices(space, np.flatnonzero(groups == 0))
        b = Event.from_indices(space, np.flatnonzero(groups == 1))
        lhs = measure(df, a.union(b))
        rhs = measure(df, a) + measure(df, b) + 2.0 * df.event_value(a, b).real
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_sector_additivity():
    """Measures add across final sectors: mu(E) = sum of sector parts."""
    df = scenario_dfs("pbr-v2")["+0"]
    space = df.space
    sectors = [Event(space, mask) for _, mask in df.sectors()]
    assert len(sectors) == 4
    rng = np.random.default_rng(47)
    for _ in range(100):
        mask = int(rng.integers(0, space.full_mask() + 1))
        e = Event(space, mask)
        parts = sum(measure(df, e.intersection(s)) for s in sectors)
        assert measure(df, e) == pytest.approx(parts, abs=1e-9)


def test_global_phase_invariance():
    build = build_scenario("appendix-theta", {"theta": 0.7})
    schema = next(e.schema for e in build.entries if e.label == "phi2")
    df = build_df(schema)
    phased = HistorySchema.from_ket(np.exp(0.9j) * schema.ket, schema.slices)
    np.testing.assert_allclose(build_df(phased).matrix, df.matrix, atol=1e-12)


def test_fine_graining_preserves_sector_measures():
    """An inserted complete middle slice never shifts final-sector measures."""
    rng = np.random.default_rng(53)
    dim = 3
    ket = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    ket = ket / np.linalg.norm(ket)
    mid = random_decomposition(rng, dim, ["a", "b", "c"])
    fin = random_decomposition(rng, dim, ["x", "y", "z"])
    u1, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    u2, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    coarse = build_df(HistorySchema.from_ket(ket, (Slice(fin, evolution=u2 @ u1),)))
    fine = build_df(HistorySchema.from_ket(
        ket, (Slice(mid, evolution=u1), Slice(fin, evolution=u2))
    ))
    coarse_mu = [measure(coarse, Event(coarse.space, 1 << i)) for i in range(3)]
    fine_mu = [measure(fine, Event(fine.space, mask)) for _, mask in fine.sectors()]
    np.testing.assert_allclose(fine_mu, coarse_mu, atol=1e-9)


def test_v2_sectors_match_v1_measures():
    v1 = scenario_dfs("pbr-v1")
    v2 = scenario_dfs("pbr-v2")
    for label in ("00", "0+", "+0", "++"):
        singles = [measure(v1[label], Event(v1[label].space, 1 << i)) for i in range(4)]
        sector_mu = [measure(v2[label], Event(v2[label].space, mask))
                     for _, mask in v2[label].sectors()]
        np.testing.assert_allclose(sector_mu, singles, atol=1e-9)


def test_block_structure_verified():
    df = scenario_dfs("pbr-v2")["00"]
    assert df.validation.block_applicable
    assert df.validation.block_residual <= 1e-12
    assert df.sectors_verified()
    finals = np.array([t[-1] for t in df.space.outcome_tuples])
    off = np.abs(df.matrix)[finals[:, None] != finals[None, :]]
    assert float(off.max()) <= 1e-12


def test_event_algebra():
    space = raw_space(["h1", "h2", "h3"])
    a = Event.from_labels(space, ["h1", "h3"])
    b = Event.from_indices(space, [1])
    assert a.indices == (0, 2)
    assert a.labels == ("h1", "h3")
    assert len(a) == 2 and bool(a)
    assert not Event(space, 0)
    assert a.union(b).mask == 0b111
    assert a.intersection(b).mask == 0
    assert a.complement().labels == ("h2",)
    assert b.is_subset_of(a.complement())
    with pytest.raises(IndexOutOfRangeError):
        Event.from_indices(space, [3])
    with pytest.raises(KeyError):
        Event.from_labels(space, ["nope"])
    with pytest.raises(ValueError):
        Event(space, 1 << 3)


def test_raw_df_paths():
    df = raw_df(np.diag([0.25, 0.75]))
    assert df.labels == ("h1", "h2")
    assert df.validation.passed
    assert not df.sectors_verified()
    assert df.sectors() == (("all", df.space.full_mask()),)
    with pytest.raises(ValidationFailedError):
        raw_df(np.diag([0.25, 0.25]))
    with pytest.raises(ValidationFailedError) as info:
        raw_df(np.array([[0.5, 0.5], [0.0, 0.5]]))
    assert not info.value.report.passed
    assert any("hermiticity" in f for f in info.value.report.failures)
    with pytest.raises(ValueError):
        raw_df(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        raw_df(np.eye(2) / 2.0, labels=["same", "same"])


@pytest.mark.parametrize("n", [63, 64, 65])
def test_raw_df_across_the_64_bit_boundary(n):
    df = raw_df(np.eye(n) / n)
    assert df.size == n and df.validation.passed
    last = Event.from_indices(df.space, np.array([n - 1], dtype=np.int64))
    assert last.mask == 1 << (n - 1)
    assert measure(df, last) == pytest.approx(1.0 / n)
    assert measure(df, Event(df.space, df.space.full_mask())) == pytest.approx(1.0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_event_algebra_across_the_64_bit_boundary(data):
    n = data.draw(st.integers(60, 70))
    space = raw_space(f"h{i}" for i in range(n))
    index = st.one_of(st.integers(0, n - 1), st.integers(56, n - 1))
    a_idx = data.draw(st.lists(index, max_size=n))
    b_idx = data.draw(st.lists(index, max_size=n))
    a = Event.from_indices(space, np.array(a_idx, dtype=np.int64))
    b = Event.from_indices(space, b_idx)
    sa, sb = set(a_idx), set(b_idx)
    cases = (
        (a, sa),
        (b, sb),
        (a.union(b), sa | sb),
        (a.intersection(b), sa & sb),
        (a.complement(), set(range(n)) - sa),
    )
    for event, model in cases:
        assert event.indices == tuple(sorted(model))
        assert len(event) == len(model)
    assert a.is_subset_of(b) == (sa <= sb)
    assert a.union(b).complement().is_subset_of(a.complement())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sort_masks_orders_by_size_then_members(data):
    """The canonical order is (cardinality, ascending member indices), also
    for masks past the 64-bit boundary."""
    n = data.draw(st.integers(60, 70))
    space = raw_space(f"h{i}" for i in range(n))
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=30))
    masks += data.draw(st.lists(st.sets(st.integers(n - 12, n - 1), max_size=4)
                                .map(lambda s: sum(1 << i for i in s)), max_size=10))

    def members(m):
        return tuple(i for i in range(n) if m >> i & 1)

    assert sort_masks(space, masks) == sorted(masks, key=lambda m: (len(members(m)), members(m)))


def test_validate_df_failure_reports():
    neg = np.array([[0.2, 0.5], [0.5, -0.2]])
    report = validate_df(unvalidated_raw_df(neg))
    assert not report.passed
    assert any("positivity" in f for f in report.failures)
    off = unvalidated_raw_df(np.diag([0.3, 0.3]))
    assert any("normalization" in f for f in off.validation.failures)


def test_measure_imaginary_residue():
    mat = np.array([[0.5, 0.5j], [0.0, 0.5]])
    df = unvalidated_raw_df(mat)
    with pytest.raises(ImaginaryResidueError):
        measure(df, Event(df.space, df.space.full_mask()))


def test_all_scenario_dfs_validate():
    for name, kwargs in (
        ("pbr-v1", {}),
        ("pbr-v2", {}),
        ("appendix-theta", {"theta": 0.7}),
        ("appendix-hamiltonian", {"theta": 0.7}),
        ("composite-product", {}),
    ):
        for label, df in scenario_dfs(name, **kwargs).items():
            rep = df.validation
            assert rep is not None and rep.passed, (name, label, rep.failures)
            assert rep.hermiticity_residual <= 1e-9
            assert rep.normalization_residual <= 1e-9
            assert rep.min_eigenvalue >= -1e-9
