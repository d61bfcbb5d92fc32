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
    measure,
    raw_df,
    tensor_df,
)
from coevent import composition, limits, measure_analysis
from coevent.composition import _pair_mask

from conftest import (
    EPS,
    brute_emergent_masks,
    brute_partition_residual,
    brute_zero_masks,
    is_zero_event,
    label_mask,
    scenario_dfs,
    support_set,
)


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
    assert list(prod.space.labels) == composite_golden["label_order"]
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


def test_pair_mask_matches_the_bit_loop():
    """mask_b * columns(mask_a) against one shifted copy of mask_b per
    member of mask_a, on random masks up to 40 x 40 histories, with empty
    and full masks (mask_b = 2^nb - 1 is the largest without a carry)."""
    rng = np.random.default_rng(113)

    def bit_loop(mask_a, mask_b, nb):
        return sum(mask_b << (i * nb) for i in range(mask_a.bit_length()) if mask_a >> i & 1)

    for _ in range(500):
        na, nb = (int(x) for x in rng.integers(1, 41, size=2))
        full_a, full_b = (1 << na) - 1, (1 << nb) - 1
        for ma in (0, full_a, int.from_bytes(rng.bytes(5), "little") & full_a):
            for mb in (0, full_b, int.from_bytes(rng.bytes(5), "little") & full_b):
                assert _pair_mask(ma, mb, nb) == bit_loop(ma, mb, nb), (ma, mb, nb)


def test_weak_violations_do_not_depend_on_the_chunks(monkeypatch):
    """Two 4-history factors with all 15 partitions weakly decoherent give
    100 weak violations.  With _STEP_ENTRIES = 20, a's chunks hold at most
    isqrt(20) = 4 cell-matrix entries and b's at most 20 over a's largest
    chunk (16 entries, the four-cell partition), so both factors' 15
    partitions come in more chunks than they have cell counts, each
    partition once; the violations and their order are the same as with
    each factor in one chunk."""
    from conftest import random_amplitude_df

    rng = np.random.default_rng(0)
    a, b = random_amplitude_df(rng, 4), random_amplitude_df(rng, 4)
    whole = composition_anomalies(a, b).weak_violations
    chunks = {"a": [], "b": []}
    cell_sums = composition._cell_sums

    def spy(factor, strings):
        chunks["a" if factor is a.factor else "b"].append(strings.tolist())
        return cell_sums(factor, strings)

    monkeypatch.setattr(composition, "_cell_sums", spy)
    monkeypatch.setattr(composition, "_STEP_ENTRIES", 20)
    monkeypatch.setattr(measure_analysis, "_STEP_ENTRIES", 20)
    chunked = composition_anomalies(a, b).weak_violations
    assert len(whole) == 100
    for side in chunks.values():
        strings = [row for chunk in side for row in chunk]
        assert len(strings) == len({tuple(row) for row in strings}) == 15
        assert len(side) > len({max(row) for row in strings}) == 4
    assert [(v.partition_a.cell_masks, v.partition_b.cell_masks, v.product_masks)
            for v in chunked] == [(v.partition_a.cell_masks, v.partition_b.cell_masks,
                                   v.product_masks) for v in whole]
    assert [v.residual for v in chunked] == pytest.approx([v.residual for v in whole],
                                                          rel=0, abs=1e-15)


def test_weak_check_budgets_the_cell_sums_of_b(monkeypatch):
    """Against a one-history factor a (largest chunk 1 entry), b's chunks
    are bounded by their cell sums, k (n + 2c) entries a partition, not by
    the k^2 entries of their cell matrices: with _STEP_ENTRIES = 200 and
    n + 2c = 13, no chunk of several partitions forms more than 200 sums."""
    from conftest import random_amplitude_df

    a, b = raw_df(np.eye(1)), random_amplitude_df(np.random.default_rng(6), 7, 3)
    n, c = b.factor.shape
    assert n + 2 * c == 13
    sizes = []
    cell_sums = composition._cell_sums

    def spy(factor, strings):
        if factor is b.factor:
            sizes.append((len(strings), int(strings.max()) + 1))
        return cell_sums(factor, strings)

    monkeypatch.setattr(composition, "_cell_sums", spy)
    monkeypatch.setattr(composition, "_STEP_ENTRIES", 200)
    assert composition_anomalies(a, b).weak_violations == ()
    assert sum(p for p, _ in sizes) == len(find_decoherent_partitions(b, "weak", n))
    assert max(p for p, _ in sizes) > 1
    assert all(p * k * (n + 2 * c) <= 200 for p, k in sizes if p > 1)


def test_product_carries_sector_structure():
    v1 = scenario_dfs("pbr-v1")
    prod = tensor_df(v1["00"], v1["++"])
    assert prod.sectors() == prod.space.sectors
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
            cells = [_pair_mask(ca.mask, cb.mask, b.size) for ca in pa.cells for cb in pb.cells]
            assert brute_partition_residual(prod, cells, "medium") <= EPS


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
    assert report.product.matrix[0, 3].real == pytest.approx(
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


def test_composition_size_guard(monkeypatch):
    """The factor partition search is the cap reached, before the product
    DF is built."""
    a = uniform_computational_df(17)
    b = uniform_computational_df(2)

    def product(*args):
        raise AssertionError("the product was built")

    monkeypatch.setattr(composition, "tensor_df", product)
    with pytest.raises(SpaceTooLargeError, match="partition search over 17 histories .* "
                                                 "above PARTITION_COUNT_LIMIT = 1000000"):
        composition_anomalies(a, b)


def test_composition_refuses_an_uncatalogable_product_first(monkeypatch):
    """Two 10-history raw factors have no sectors, so the product's zero-set
    catalog would scan one block of 100 histories: the refusal comes before
    either factor's partition search.  With sectors on one side only the
    product has none either, so its block is the whole product space."""
    rng = np.random.default_rng(17)

    def rank_two(n):
        v = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        gram = np.conjugate(v) @ v.T
        return raw_df(gram / gram.real.sum())

    def search(*args, **kwargs):
        raise AssertionError("a factor partition search ran")

    monkeypatch.setattr(composition, "find_decoherent_partitions", search)
    with pytest.raises(SpaceTooLargeError, match="sector of 100 histories .* "
                                                 "ZERO_SET_WORK_LIMIT = 4194304"):
        composition_anomalies(rank_two(10), rank_two(10))
    # Sectors of 3 on one side, one block of 7 on the other.
    with pytest.raises(SpaceTooLargeError, match="sector of 63 histories .* ZERO_SET_WORK_LIMIT"):
        composition_anomalies(rotated_schema_df(), rank_two(7))


def test_composition_refuses_a_one_sided_product_before_searching(monkeypatch):
    """phi1 of appendix-theta has two sectors of 4 histories and a raw
    5-history DF has none, so the product has no sectors either: its one
    block holds all 40 histories, above the work cap, and the refusal comes
    before either factor's partition search.  The product of the factors'
    largest blocks, 4 x 5 = 20, would have let both searches run."""
    phi1 = scenario_dfs("appendix-theta", theta=0.7)["phi1"]
    assert [m.bit_count() for _, m in phi1.sectors()] == [4, 4]

    def search(*args, **kwargs):
        raise AssertionError("a factor partition search ran")

    monkeypatch.setattr(composition, "find_decoherent_partitions", search)
    with pytest.raises(SpaceTooLargeError, match="sector of 40 histories .* ZERO_SET_WORK_LIMIT"):
        composition_anomalies(phi1, raw_df(np.diag([0.3, 0.25, 0.2, 0.15, 0.1])))


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
    monkeypatch.setattr(limits, "ASSEMBLY_LIMIT", 1)
    with pytest.raises(SpaceTooLargeError, match=r"assembly of \d+ combinations, "
                                                 "above ASSEMBLY_LIMIT = 1$"):
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
        cells = [_pair_mask(ca.mask, cb.mask, x.size) for ca in pa.cells for cb in pb.cells]
        passed = brute_partition_residual(report.product, cells, "weak") <= EPS
        assert passed == (key(pa, pb) not in failing)


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
    eye = np.eye(dim)
    return [
        computational_basis(dim),
        ProjectiveDecomposition.from_kets(ROTATED_KETS[dim], ["u", "v", "w"][:dim]),
        ProjectiveDecomposition(eye, (1, dim - 1), ("a", "b")),
        ProjectiveDecomposition(eye, (dim,), ("e",)),
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
    """The final outcome is the least significant index of a history."""
    return [final_labels[i % len(final_labels)] for i in range(df.size)]


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
    assert prod.sectors() == prod.space.sectors

    catalog = find_zero_sets(prod)
    for za in brute_zero_masks(a):
        for sb in range(1 << nb):
            assert is_zero_event(catalog, _pair_mask(za, sb, nb))
    for zb in brute_zero_masks(b):
        for sa in range(1 << na):
            assert is_zero_event(catalog, _pair_mask(sa, zb, nb))


def test_tensor_df_of_two_eight_history_dfs():
    a = raw_df(np.diag(np.arange(1.0, 9.0)) / 36.0)
    b = raw_df(np.eye(8) / 8.0)
    prod = tensor_df(a, b)
    assert prod.size == 64 and prod.validation.passed
    assert prod.space.labels[-1] == "h88"
    last = Event(prod.space, label_mask(prod.space, ["h88"]))
    assert last.mask == 1 << 63
    assert measure(prod, last) == pytest.approx(8.0 / 36.0 / 8.0)


def test_tensor_df_of_two_eleven_history_dfs():
    """h1 x h11 and h11 x h1 would both be h111, so the product labels of
    two 11-history DFs join the factor labels by a comma, as do those of
    a x bc and ab x c; when those collide too, as for the labels 1 and h1,
    they are positions."""
    a = raw_df(np.eye(11) / 11.0)
    prod = tensor_df(a, a)
    labels = prod.space.labels
    assert len(set(labels)) == 121 and prod.validation.passed
    assert (labels[0], labels[10], labels[110], labels[-1]) == ("h1,1", "h1,11", "h11,1", "h11,11")
    last = Event(prod.space, label_mask(prod.space, ["h11,11"]))
    assert last.mask == 1 << 120
    assert measure(prod, last) == pytest.approx(1.0 / 121.0)
    named = tensor_df(raw_df(np.eye(2) / 2.0, labels=["a", "ab"]),
                      raw_df(np.eye(2) / 2.0, labels=["bc", "c"]))
    assert named.space.labels == ("ha,bc", "ha,c", "hab,bc", "hab,c")
    alike = tensor_df(raw_df(np.eye(2) / 2.0, labels=["1", "h1"]), raw_df(np.eye(2) / 2.0))
    assert alike.space.labels == ("h1,1", "h1,2", "h2,1", "h2,2")


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


def assert_matches_product_space_oracles(a, b):
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
            cells = [_pair_mask(ca.mask, cb.mask, b.size) for ca in pa.cells for cb in pb.cells]
            residual = brute_partition_residual(prod, cells, "weak")
            if residual > EPS:
                want.append((pa.cell_labels(), pb.cell_labels(), cells, residual))
    got = report.weak_violations
    assert [(v.partition_a.cell_labels(), v.partition_b.cell_labels(),
             list(v.product_masks)) for v in got] == [w[:3] for w in want]
    for v, w in zip(got, want):
        assert v.residual == pytest.approx(w[3], abs=1e-12)
    return report


@settings(max_examples=60, deadline=None)
@given(small_factors, small_factors)
def test_composition_matches_product_space_oracles(a, b):
    """Composition of small factors matches the product-space oracles."""
    assert_matches_product_space_oracles(a, b)


def test_composition_with_a_grid_joined_product_block(monkeypatch):
    """Planted raw factors of 3 and 6 histories, rows over {1, i, 1/2} with
    one cancelling pair in the second: their 18-history product is one block
    above _ALL_PAIRS_MAX, so its zero sets come from the grid join and the
    factors' from every pair, measured as groups.  Its 8 emergent zero
    events and 5 weak violations match the product-space oracles, and each
    candidate source forced on every block gives the same report."""
    def planted(rows):
        rows = np.asarray(rows, dtype=complex)
        gram = np.conjugate(rows) @ rows.T
        return raw_df(gram / gram.real.sum())

    a = planted([[1, 0], [1j, 0], [0.5, 1]])
    b = planted([[1, 0], [1j, 0], [0, 1], [0, -1], [1j, 0.5], [0.5j, 0.5]])
    sources = []

    def group(rows):
        sources.append((rows.shape[1], False))
        return grouped(rows)

    def band(rows, top):
        sources.append((len(rows), True))
        return joined(rows, top)

    grouped, joined = measure_analysis._group_measures, measure_analysis._band
    monkeypatch.setattr(measure_analysis, "_group_measures", group)
    monkeypatch.setattr(measure_analysis, "_band", band)
    report = assert_matches_product_space_oracles(a, b)
    assert [m.bit_count() for _, m in report.product.sectors()] == [18]
    assert set(sources) == {(3, False), (6, False), (18, True)}
    assert (len(report.emergent_zero), len(report.weak_violations)) == (8, 5)
    for all_pairs_max in (0, 1 << 30):
        monkeypatch.setattr(measure_analysis, "_ALL_PAIRS_MAX", all_pairs_max)
        forced = composition_anomalies(a, b)
        assert forced.emergent_masks == report.emergent_masks
        assert [v.product_masks for v in forced.weak_violations] == [
            v.product_masks for v in report.weak_violations]


def u_split_df():
    """A qutrit on (1, -1, 1)/sqrt 3: a computational slice, then u = (1, 1,
    1)/sqrt 3 against its complement.  6 histories in 2 final sectors, u's at
    rows {0, 2, 4}, holding the zero events {h_{0u}, h_{1u}} and {h_{1u}, h_{2u}}."""
    split = ProjectiveDecomposition(np.column_stack(ROTATED_KETS[3]), (1, 2), ("u", "r"))
    ket = np.array([1, -1, 1], dtype=complex) / np.sqrt(3.0)
    return build_df(HistorySchema.from_ket(ket, (Slice(computational_basis(3)), Slice(split))))


def test_composition_of_interleaved_product_sectors():
    """6 histories in 2 sectors times 3 one-history sectors: 18 histories in
    6 product sectors, each the rectangle of rows {0, 2, 4} or {1, 3, 5} and
    one column, members not contiguous.  History 1 of the second factor has
    mu = 1.5e-9, above EPS_ZERO, so its column holds product zero events
    that no rectangle covers; history 2 has mu = 0, so its column is covered.
    The emergent list matches the product-space oracles."""
    eps = 1.5e-9
    ket = np.array([np.sqrt(1.0 - eps), np.sqrt(eps), 0.0], dtype=complex)
    faint = build_df(HistorySchema.from_ket(ket, (Slice(computational_basis(3)),)))
    report = assert_matches_product_space_oracles(u_split_df(), faint)
    assert [m for _, m in report.product.sectors()][:2] == [
        sum(1 << (3 * i + k) for i in (0, 2, 4)) for k in (0, 1)]
    assert len(report.emergent_masks) == 9
    faint_column = report.product.sectors()[1][1] | report.product.sectors()[4][1]
    assert all(m & ~faint_column == 0 for m in report.emergent_masks)


def test_composition_of_a_raw_and_a_sectored_factor():
    """A raw factor has no sectors, so its product with u_split_df is one
    block of 18 histories, whose zero sets come from the grid join; the
    sectored factor's zero masks are placed by their members in it.  Rows
    1 and -1 of the raw factor cancel against equal amplitudes of the other
    factor's rows, giving emergent zero events that match the oracles."""
    rows = np.array([[1, 0], [-1, 0], [0, 1]], dtype=complex)
    gram = np.conjugate(rows) @ rows.T
    report = assert_matches_product_space_oracles(raw_df(gram / gram.real.sum()), u_split_df())
    assert [m.bit_count() for _, m in report.product.sectors()] == [18]
    assert len(report.emergent_masks) == 168


def test_emergent_zero_events_do_not_depend_on_the_chunks(monkeypatch):
    """With _STEP_ENTRIES = 1 every chunk of the emergent check holds one
    product zero event; the emergent list is the same as in one chunk."""
    from conftest import random_amplitude_df

    rng = np.random.default_rng(3)
    a, b = random_amplitude_df(rng, 4), random_amplitude_df(rng, 4)
    whole = composition_anomalies(a, b)
    chunks = []
    split = np.split

    def spy(events, bounds):
        pieces = split(events, bounds)
        chunks.extend(len(p) for p in pieces)
        return pieces

    monkeypatch.setattr(composition.np, "split", spy)
    monkeypatch.setattr(composition, "_STEP_ENTRIES", 1)
    chunked = composition_anomalies(a, b)
    assert len(whole.emergent_masks) > 0 and chunked.emergent_masks == whole.emergent_masks
    assert set(chunks) == {1}
    assert len(chunks) == len(find_zero_sets(whole.product).zero_events_sectorwise()) > 1


def test_composition_builds_no_zero_set_catalog(monkeypatch):
    """Composition reads the sector searches of both factors and the product
    directly: with ZeroSetCatalog refusing to be built, it gives the same
    report, while find_zero_sets fails."""
    x, y3 = rotated_schema_df(), uniform_computational_df(3)
    pairs = [(x, y3), (u_split_df(), x), (raw_df(np.diag([0.5, 0.3, 0.2])), u_split_df())]
    want = [composition_anomalies(a, b).as_dict() for a, b in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("a zero-set catalog was built")

    monkeypatch.setattr(measure_analysis.ZeroSetCatalog, "__init__", refuse)
    with pytest.raises(AssertionError, match="catalog was built"):
        find_zero_sets(x)
    assert [composition_anomalies(a, b).as_dict() for a, b in pairs] == want
