"""Tensor products of DFs and the composition anomaly report."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coevent import (
    Event,
    HistorySchema,
    ProjectiveDecomposition,
    Slice,
    SpaceTooLargeError,
    build_df,
    composition_anomalies,
    computational_basis,
    find_decoherent_partitions,
    find_zero_sets,
    is_decoherent_partition,
    measure,
    raw_df,
    tensor_df,
)
from coevent.composition import _pair_mask

from conftest import brute_zero_masks, scenario_dfs, support_set


def complex_grid(pairs):
    return np.array([[complex(re, im) for re, im in row] for row in pairs])


def test_tensor_df_matches_golden(composite_golden):
    dfs = scenario_dfs("composite-product")
    sub, prod = dfs["D_A"], dfs["D_AB"]
    np.testing.assert_allclose(
        sub.matrix, complex_grid(composite_golden["subsystem_matrix"]), atol=1e-12
    )
    np.testing.assert_allclose(
        prod.matrix, complex_grid(composite_golden["product_matrix"]), atol=1e-12
    )
    assert list(prod.labels) == composite_golden["label_order"]
    assert prod.validation.passed
    np.testing.assert_allclose(prod.matrix, np.kron(sub.matrix, sub.matrix), atol=1e-12)


def test_tensor_with_trivial_factor():
    sub = scenario_dfs("composite-product")["D_A"]
    one = raw_df(np.array([[1.0]]))
    left = tensor_df(sub, one)
    right = tensor_df(one, sub)
    np.testing.assert_allclose(left.matrix, sub.matrix, atol=1e-12)
    np.testing.assert_allclose(right.matrix, sub.matrix, atol=1e-12)


def test_rectangle_rule_exhaustive():
    v1 = scenario_dfs("pbr-v1")
    a, b = v1["0+"], v1["+0"]
    prod = tensor_df(a, b)
    nb = b.size
    for ma in range(1 << a.size):
        mua = measure(a, Event(a.space, ma))
        for mb in range(1 << b.size):
            mub = measure(b, Event(b.space, mb))
            rect = Event(prod.space, _pair_mask(ma, mb, nb))
            assert measure(prod, rect) == pytest.approx(mua * mub, abs=1e-12)


def test_product_carries_sector_structure():
    v1 = scenario_dfs("pbr-v1")
    prod = tensor_df(v1["00"], v1["++"])
    assert prod.sectors_verified()
    assert tuple(lab for lab, _ in prod.space.sectors) == tuple(
        f"xi{i},xi{j}" for i in range(1, 5) for j in range(1, 5)
    )
    assert prod.space.labels[0] == "h_{xi1}_{xi1}"


def test_medium_partitions_compose_for_classical_factors():
    a = raw_df(np.diag([0.6, 0.4]))
    b = raw_df(np.diag([0.5, 0.3, 0.2]))
    prod = tensor_df(a, b)
    parts_a = find_decoherent_partitions(a, "medium", max_cells=2)
    parts_b = find_decoherent_partitions(b, "medium", max_cells=3)
    assert len(parts_a) == 2 and len(parts_b) == 5
    for pa in parts_a:
        for pb in parts_b:
            cells = [
                Event(prod.space, _pair_mask(ca.mask, cb.mask, b.size))
                for ca in pa.cells for cb in pb.cells
            ]
            assert is_decoherent_partition(prod, cells, "medium").passed


def test_composition_anomalies_on_paper_pair(composite_golden):
    sub = scenario_dfs("composite-product")["D_A"]
    report = composition_anomalies(sub, sub)
    got = support_set([list(e.labels) for e in report.emergent_zero])
    assert got == support_set(composite_golden["emergent_zero_events"])
    for e in report.emergent_zero:
        assert measure(report.product, e) <= 1e-12

    assert len(report.weak_violations) == 1
    v = report.weak_violations[0]
    assert v.residual == pytest.approx(
        composite_golden["fine_product_weak_residual"], abs=1e-12
    )
    assert v.partition_a.cell_labels() == [["h1"], ["h2"]]
    assert v.partition_b.cell_labels() == [["h1"], ["h2"]]
    assert report.product.entry(0, 3).real == pytest.approx(
        composite_golden["re_d_h11_h22"], abs=1e-12
    )
    doc = report.as_dict()
    assert doc["weak_violations"][0]["residual"] == pytest.approx(0.25, abs=1e-12)
    assert doc["emergent_zero"] == [["h11", "h22"]]


def test_no_emergent_zero_for_classical_products():
    cases = [
        (np.diag([0.0, 1.0]), np.diag([0.5, 0.5])),
        (np.diag([0.6, 0.4]), np.diag([0.7, 0.3])),
        (np.diag([0.0, 0.5, 0.5]), np.diag([0.0, 1.0])),
    ]
    for da, db in cases:
        report = composition_anomalies(raw_df(da), raw_df(db))
        assert report.emergent_zero == ()
        assert report.weak_violations == ()


def test_factor_zeros_still_explain_product_zeros():
    """A zero of one factor explains every rectangle built over it."""
    a = raw_df(np.diag([0.0, 1.0]))
    b = scenario_dfs("composite-product")["D_A"]
    report = composition_anomalies(a, b)
    assert report.emergent_zero == ()
    cat = find_zero_sets(report.product)
    zero_masks = {e.mask for e in cat.zero_events_sectorwise()}
    # h11 and h12 span the zero row of the first factor
    assert zero_masks == {0b0001, 0b0010, 0b0011}


def uniform_computational_df(dim: int):
    """One computational-basis slice on the uniform ket: dim singleton sectors."""
    ket = np.ones(dim, dtype=complex) / np.sqrt(dim)
    return build_df(HistorySchema.from_ket(ket, (Slice(computational_basis(dim)),)))


def test_composition_size_guard():
    """Every catalog fits, so the factor partition search is the cap reached."""
    a = uniform_computational_df(17)
    b = uniform_computational_df(2)
    with pytest.raises(SpaceTooLargeError, match="partition search over 17 histories "
                                                 "exceeds PARTITION_SPACE_LIMIT = 16"):
        composition_anomalies(a, b)


def test_zero_event_assembly_cap():
    """Ten sectors of ten histories with 2^9 or 2^10 zero events each: the
    factor's zero events combine past ASSEMBLY_LIMIT, while every sector of
    the factors and of the product stays under SECTOR_ENUMERATION_LIMIT."""
    ket = np.eye(10, dtype=complex)[0]
    basis = computational_basis(10)
    a = build_df(HistorySchema.from_ket(ket, (Slice(basis), Slice(basis))))
    b = build_df(HistorySchema.from_ket(np.eye(2, dtype=complex)[0],
                                        (Slice(computational_basis(2)),)))
    with pytest.raises(SpaceTooLargeError, match="ASSEMBLY_LIMIT = 100000"):
        composition_anomalies(a, b)


ROTATED_KETS = {
    2: [np.array([1, 1]) / np.sqrt(2.0), np.array([1, -1]) / np.sqrt(2.0)],
    3: [np.array([1, 1, 1]) / np.sqrt(3.0), np.array([1, -1, 0]) / np.sqrt(2.0),
        np.array([1, 1, -2]) / np.sqrt(6.0)],
}


def test_maximal_zero_event_assembly_cap():
    """17 product sectors with two maximal zero events each: listing the
    maximal zero events would assemble 2^17 unions."""
    rotated = ProjectiveDecomposition.from_kets(ROTATED_KETS[3], ["u", "v", "w"])
    x = build_df(HistorySchema.from_ket(np.array([1, -1, -1], dtype=complex) / np.sqrt(3.0),
                                        (Slice(computational_basis(3)), Slice(rotated))))
    u_sector = next(s for s in find_zero_sets(x).sectors if s.label == "u")
    assert len(u_sector.maximal_masks) == 2
    catalog = find_zero_sets(tensor_df(x, uniform_computational_df(17)))
    with pytest.raises(SpaceTooLargeError, match="ASSEMBLY_LIMIT = 100000"):
        catalog.maximal_zero_events()


def small_decompositions(dim: int) -> list[ProjectiveDecomposition]:
    """Computational, rotated, two-outcome coarse and one-outcome trivial
    decompositions; their real +-1 overlaps make zero events common."""
    comp = computational_basis(dim)
    p0 = comp.projectors[0]
    eye = np.eye(dim, dtype=complex)
    return [
        comp,
        ProjectiveDecomposition.from_kets(ROTATED_KETS[dim], ["u", "v", "w"][:dim]),
        ProjectiveDecomposition(dim, (p0, eye - p0), ("a", "b")),
        ProjectiveDecomposition(dim, (eye,), ("e",)),
    ]


@st.composite
def small_sectored_dfs(draw):
    """Schema DFs of dim 2 or 3 with one or two slices and a ket over {-1, 0, 1}."""
    dim = draw(st.sampled_from([2, 3]))
    ket = np.array(draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=dim, max_size=dim)
                        .filter(any)), dtype=complex)
    options = small_decompositions(dim)
    picks = draw(st.lists(st.integers(0, len(options) - 1), min_size=1, max_size=2))
    schema = HistorySchema.from_ket(ket / np.linalg.norm(ket), [Slice(options[i]) for i in picks])
    return build_df(schema), schema.slices[-1].decomposition.labels


def final_label_of(df, final_labels) -> list[str]:
    return [final_labels[t[-1]] for t in df.space.outcome_tuples]


@settings(max_examples=40, deadline=None)
@given(small_sectored_dfs(), small_sectored_dfs())
def test_tensor_df_sectors_and_rectangle_rule_on_random_schemas(left, right):
    """Product sectors follow the factor histories' final outcomes, a-major,
    and Z_A x S_B and S_A x Z_B are product zero events for every factor zero
    event Z and every event S."""
    (a, labels_a), (b, labels_b) = left, right
    na, nb = a.size, b.size
    fin_a, fin_b = final_label_of(a, labels_a), final_label_of(b, labels_b)
    for df, labels, fin in ((a, labels_a, fin_a), (b, labels_b, fin_b)):
        assert df.space.sectors == tuple(
            (lab, sum(1 << i for i in range(df.size) if fin[i] == lab)) for lab in labels
        )

    prod = tensor_df(a, b)
    want = {f"{fa},{fb}": 0 for fa in labels_a for fb in labels_b}
    for i in range(na):
        for k in range(nb):
            want[f"{fin_a[i]},{fin_b[k]}"] |= 1 << (i * nb + k)
    assert prod.space.sectors == tuple(want.items())
    assert prod.sectors_verified()

    catalog = find_zero_sets(prod)
    for za in brute_zero_masks(a):
        for sb in range(1 << nb):
            assert catalog.is_zero_event(Event(prod.space, _pair_mask(za, sb, nb)))
    for zb in brute_zero_masks(b):
        for sa in range(1 << na):
            assert catalog.is_zero_event(Event(prod.space, _pair_mask(sa, zb, nb)))


def test_tensor_df_of_two_eight_history_dfs():
    a = raw_df(np.diag(np.arange(1.0, 9.0)) / 36.0)
    b = raw_df(np.eye(8) / 8.0)
    prod = tensor_df(a, b)
    assert prod.size == 64 and prod.validation.passed
    assert prod.labels[-1] == "h88"
    last = Event.from_labels(prod.space, ["h88"])
    assert last.mask == 1 << 63
    assert measure(prod, last) == pytest.approx(8.0 / 36.0 / 8.0)
