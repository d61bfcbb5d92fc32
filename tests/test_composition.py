"""Tensor products of DFs and the composition anomaly report."""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from coevent import composition, measure_analysis
from coevent.composition import _pair_mask

from conftest import brute_emergent_masks, brute_zero_masks, scenario_dfs, support_set


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


ROTATED_KETS = {
    2: [np.array([1, 1]) / np.sqrt(2.0), np.array([1, -1]) / np.sqrt(2.0)],
    3: [np.array([1, 1, 1]) / np.sqrt(3.0), np.array([1, -1, 0]) / np.sqrt(2.0),
        np.array([1, 1, -2]) / np.sqrt(6.0)],
}


def rotated_schema_df():
    """X: a computational slice, then the u/v/w basis, on the ket (1, -1, -1)/sqrt 3;
    9 histories in 3 final sectors."""
    rotated = ProjectiveDecomposition.from_kets(ROTATED_KETS[3], ["u", "v", "w"])
    return build_df(HistorySchema.from_ket(np.array([1, -1, -1], dtype=complex) / np.sqrt(3.0),
                                           (Slice(computational_basis(3)), Slice(rotated))))


def test_maximal_zero_event_assembly_cap():
    """17 product sectors with two maximal zero events each: listing the
    maximal zero events would assemble 2^17 unions."""
    x = rotated_schema_df()
    u_sector = next(s for s in find_zero_sets(x).sectors if s.label == "u")
    assert len(u_sector.maximal_masks) == 2
    catalog = find_zero_sets(tensor_df(x, uniform_computational_df(17)))
    with pytest.raises(SpaceTooLargeError, match="ASSEMBLY_LIMIT = 100000"):
        catalog.maximal_zero_events()


def test_composition_needs_no_zero_event_assembly(monkeypatch):
    """Composition reads factor zero events sector by sector: with
    ASSEMBLY_LIMIT below X's cross-sector combinations, listing X's maximal
    zero events fails while composition gives the same report."""
    x, y3 = rotated_schema_df(), uniform_computational_df(3)
    want = composition_anomalies(x, y3).as_dict()
    monkeypatch.setattr(measure_analysis, "ASSEMBLY_LIMIT", 1)
    with pytest.raises(SpaceTooLargeError, match="ASSEMBLY_LIMIT = 1 "):
        find_zero_sets(x).maximal_zero_events()
    assert composition_anomalies(x, y3).as_dict() == want


def test_composition_of_nine_history_factors():
    """X x X: 510 weak partitions per factor, 260,100 product partitions."""
    x = rotated_schema_df()
    start = time.perf_counter()
    report = composition_anomalies(x, x)
    assert time.perf_counter() - start < 10.0
    for e in report.emergent_zero:
        assert abs(measure(report.product, e)) <= 1e-9
    parts = find_decoherent_partitions(x, "weak", x.size)
    assert len(parts) == 510

    def key(pa, pb):
        return tuple(c.mask for c in pa.cells), tuple(c.mask for c in pb.cells)

    failing = {key(v.partition_a, v.partition_b) for v in report.weak_violations}
    rng = np.random.default_rng(11)
    for i, j in rng.integers(0, len(parts), size=(200, 2)):
        pa, pb = parts[i], parts[j]
        cells = [Event(report.product.space, _pair_mask(ca.mask, cb.mask, x.size))
                 for ca in pa.cells for cb in pb.cells]
        check = is_decoherent_partition(report.product, cells, "weak")
        assert check.passed == (key(pa, pb) not in failing)


def test_composition_work_cap(monkeypatch):
    """Every one of the Bell(9) = 21,147 partitions of a classical 9-history
    factor is weakly decoherent, so the pair check is refused before it starts."""
    y9 = uniform_computational_df(9)

    def pair_loop(*args):
        raise AssertionError("the pair check ran")

    monkeypatch.setattr(composition, "_weak_violations", pair_loop)
    with pytest.raises(SpaceTooLargeError, match="COMPOSITION_WORK_LIMIT = 250000000"):
        composition_anomalies(y9, y9)


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


@st.composite
def small_raw_dfs(draw):
    """Raw DFs of 1 to 4 histories with planted zeros: amplitudes over
    {0, +-1, +-i} in hidden blocks, D(i, j) = conj(a_i) a_j within a block."""
    n = draw(st.integers(1, 4))
    amps = np.array(draw(st.lists(st.sampled_from([0, 1, -1, 1j, -1j]), min_size=n, max_size=n)),
                    dtype=complex)
    blocks = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    mat = np.where(blocks[:, None] == blocks[None, :], np.conjugate(amps)[:, None] * amps, 0)
    assume(float(np.real(mat.sum())) > 0.5)
    return raw_df(mat / np.real(mat.sum()))


# Raw factors are drawn twice as often: only their complex off-diagonal terms
# can make a product partition fail weak decoherence.
small_factors = st.one_of(
    small_raw_dfs(),
    small_raw_dfs(),
    small_sectored_dfs().map(lambda pair: pair[0]).filter(lambda df: df.size <= 4),
)


# Two raw 4-history factors give an unsectored 16-history product, whose
# zero-set table warns that it walks 2^16 subsets.
@pytest.mark.filterwarnings("ignore:enumerating 2\\^16 subsets")
@settings(max_examples=60, deadline=None)
@given(small_factors, small_factors)
def test_composition_matches_product_space_oracles(a, b):
    """Emergent events equal the brute rectangle-cover oracle, and weak
    violations equal the product-space check of every pair of weakly
    decoherent factor partitions."""
    report = composition_anomalies(a, b)
    prod = report.product
    emergent = brute_emergent_masks(a, b, prod)
    assert [e.mask for e in report.emergent_zero] == [
        e.mask for e in find_zero_sets(prod).zero_events_sectorwise() if e.mask in emergent
    ]

    want = []
    for pa in find_decoherent_partitions(a, "weak", a.size):
        for pb in find_decoherent_partitions(b, "weak", b.size):
            cells = [Event(prod.space, _pair_mask(ca.mask, cb.mask, b.size))
                     for ca in pa.cells for cb in pb.cells]
            check = is_decoherent_partition(prod, cells, "weak")
            if not check.passed:
                want.append((pa.cell_labels(), pb.cell_labels(),
                             [c.mask for c in cells], check.residual))
    got = report.weak_violations
    assert [(v.partition_a.cell_labels(), v.partition_b.cell_labels(),
             [c.mask for c in v.product_cells]) for v in got] == [w[:3] for w in want]
    for v, w in zip(got, want):
        assert v.residual == pytest.approx(w[3], abs=1e-12)
