"""History spaces, branch factors, amplitudes, and DF construction."""

from __future__ import annotations

import sys
import threading
import tracemalloc
from dataclasses import FrozenInstanceError
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coevent import (
    DecoherenceFunctional,
    Event,
    HistorySchema,
    LabelMismatchError,
    ProjectiveDecomposition,
    Slice,
    SpaceTooLargeError,
    ValidationFailedError,
    build_df,
    build_scenario,
    computational_basis,
    enumerate_histories,
    measure,
    raw_df,
    validate_df,
)
from coevent import histories, limits
from coevent.histories import (HistorySpace, ValidationReport, _block_residual, _events,
                               _leakage_bound, raw_space, sort_masks)
from coevent.scenarios import emit_report
from coevent.tolerances import EPS_DF, ROUNDOFF_FLOOR

from conftest import (
    amplitude,
    brute_block_residual,
    complement,
    event_value,
    label_mask,
    mask_of,
    outcome_tuples,
    projectors,
    scenario_dfs,
)


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
    assert space.sectors == (("0", 0b0101), ("1", 0b1010))


def test_enumeration_size_caps(monkeypatch):
    """Two qubit slices have 8 branch-row entries, one above a cap of 7."""
    schema = qubit_schema()
    monkeypatch.setattr(limits, "FACTOR_ENTRY_LIMIT", 7)
    with pytest.raises(SpaceTooLargeError, match="have 8 entries, above FACTOR_ENTRY_LIMIT = 7"):
        enumerate_histories(schema)


def test_builds_of_one_structure_share_their_space(monkeypatch):
    """Two schemas of one slice structure get one HistorySpace, so their
    Events compare equal; lowering the factor cap after the first build still
    refuses the second, since the cap is read on every call."""
    first, second = qubit_schema(), qubit_schema(ket=(0.6, 0.8))
    a, b = build_df(first), build_df(second)
    assert a.space is b.space is enumerate_histories(first)
    assert Event(a.space, 0b0110) == Event(b.space, 0b0110)
    monkeypatch.setattr(limits, "FACTOR_ENTRY_LIMIT", 7)
    with pytest.raises(SpaceTooLargeError, match="have 8 entries, above FACTOR_ENTRY_LIMIT"):
        build_df(second)
    monkeypatch.undo()
    assert build_df(second).space is a.space


def test_kept_spaces_under_threads():
    """Eight threads build schemas of twelve outcome label tuples, more than
    the eight kept, with a short switch interval: every space has its own
    schema's labels and the cache never holds more than it keeps."""
    schemas = [HistorySchema.from_ket([1.0, 0.0], (Slice(ProjectiveDecomposition(
        np.eye(2), (1, 1), (f"{k}a", f"{k}b"))),)) for k in range(12)]
    failures = []

    def work(offset):
        try:
            for i in range(600):
                schema = schemas[(offset + i) % len(schemas)]
                labels = schema.slices[0].decomposition.labels
                if build_df(schema).space.labels != tuple(f"h_{{{x}}}" for x in labels):
                    failures.append(labels)
        except Exception as exc:  # recorded for the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not failures
    info = histories._space.cache_info()
    assert info.currsize <= info.maxsize == 8


def test_factor_entry_cap(monkeypatch):
    """n r d entries of the branch rows are checked before any label exists:
    20 qubit slices (2^21 entries) fit the cap and two slices of dimension
    256 (2^24) do not; a cap read at call time refuses one entry more than
    it holds."""
    assert 2**20 * 2 <= limits.FACTOR_ENTRY_LIMIT < 2**16 * 256
    big = Slice(computational_basis(256))
    with pytest.raises(SpaceTooLargeError, match="^branch rows of 65536 histories, 1 state "
                                                 "columns and dimension 256 have 16777216 "
                                                 "entries, above FACTOR_ENTRY_LIMIT = 4194304$"):
        enumerate_histories(HistorySchema.from_ket(np.eye(256)[0], (big, big)))
    schema = HistorySchema(np.eye(2) / np.sqrt(2.0), qubit_schema().slices)
    monkeypatch.setattr(limits, "FACTOR_ENTRY_LIMIT", 16)
    assert enumerate_histories(schema).size == 4
    monkeypatch.setattr(limits, "FACTOR_ENTRY_LIMIT", 15)
    with pytest.raises(SpaceTooLargeError, match="2 state columns .* 16 entries"):
        build_df(schema)


@pytest.mark.parametrize("labels, dim, expected", [
    (["1", "11"], 2, ["h_{1,1}", "h_{1,11}", "h_{11,1}", "h_{11,11}"]),
    (None, 12, ["h_{0,0}", "h_{0,1}", "h_{0,2}", "h_{0,3}"]),
    (["1", "11", "1,1"], 3, ["h_{1,1}", "h_{1,2}", "h_{1,3}", "h_{2,1}"]),
], ids=["1-11", "d12", "positions"])
def test_colliding_outcome_labels_are_joined_by_commas(labels, dim, expected):
    """Outcome labels whose concatenations collide (1 + 11 is 11 + 1) are
    joined by a comma; when those collide too, the outcomes' positions from
    1 are.  Labels whose concatenations are distinct stay concatenated."""
    basis = computational_basis(dim, labels)
    space = build_df(HistorySchema.from_ket(np.eye(dim)[0], (Slice(basis), Slice(basis)))).space
    assert list(space.labels[:4]) == expected and space.size == dim * dim
    assert len(set(space.labels)) == dim * dim


@pytest.mark.parametrize("sectors", [
    (("a", 0b011), ("b", 0b110)),
    (("a", 0b011), ("b", 0b100), ("c", 0b1000)),
    (("a", 0b111), ("b", 0)),
    (("a", 0b011),),
], ids=["overlap", "outside", "empty", "uncovered"])
def test_history_space_refuses_sectors_it_cannot_use(sectors):
    """Sectors must be nonempty, disjoint and inside the space, and cover it:
    overlapping sectors would list a co-event twice, and one outside the
    space would index past the factor."""
    with pytest.raises(ValueError, match="^sectors must be nonempty, disjoint and cover the "
                                         "space$"):
        HistorySpace(labels=("h1", "h2", "h3"), sectors=sectors)


def test_schema_validation():
    basis = computational_basis(2)
    with pytest.raises(ValueError):
        HistorySchema.from_ket([1.0, 0.0], ())
    with pytest.raises(ValueError):
        HistorySchema.from_ket([1.0, 0.0], (Slice(basis, evolution=2.0 * np.eye(2)),))
    with pytest.raises(ValueError):
        HistorySchema.from_ket([1.0, 0.0, 0.0], (Slice(basis),))
    with pytest.raises(ValueError, match="initial state factor must be a matrix"):
        HistorySchema(np.array([1.0, 0.0]), (Slice(basis),))


def test_factor_and_labels_must_match_in_count():
    """A factor with a row count other than the space's size is refused, and
    raw_df names both counts before it decomposes the matrix."""
    with pytest.raises(ValueError, match="factor shape does not match the history space"):
        DecoherenceFunctional(raw_space(["h1", "h2"]), np.ones((1, 1)))
    with pytest.raises(ValueError, match="^2 history labels for a 1 x 1 decoherence matrix$"):
        raw_df([[1.0]], labels=["a", "b"])


def test_slice_checks_its_evolution_when_built():
    """A non-unitary or wrongly shaped evolution fails at Slice(), before
    any schema holds it."""
    basis = computational_basis(2)
    for bad in (2.0 * np.eye(2), np.eye(3), np.ones((2, 3))):
        with pytest.raises(ValueError):
            Slice(basis, bad)
    with pytest.raises(ValueError, match="slice evolution is not unitary"):
        Slice(basis, np.diag([1.0, 5.0]))


def test_checked_inputs_are_read_only_copies():
    """Writing to the caller's arrays after the checks reaches neither the
    slice, the schema nor the DF; in-place writes to every checked array,
    the DF's factor and its cached matrix are refused, and so is assigning
    to a field of a schema, a space or a DF."""
    u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    b = np.eye(2, dtype=complex)
    k = np.array([1, 0], dtype=complex)
    s = Slice(ProjectiveDecomposition(b, (1, 1), ("0", "1")), u)
    schema = HistorySchema.from_ket(k, (s, s))
    before = build_df(schema).factor
    u[1, 1] = 5
    b[0, 0] = 3
    k[0] = 5
    np.testing.assert_array_equal(s.evolution, [[0, 1], [1, 0]])
    np.testing.assert_array_equal(s.decomposition.basis, np.eye(2))
    np.testing.assert_array_equal(schema.ket, [1, 0])
    df = build_df(schema)
    assert df.validation.passed
    np.testing.assert_array_equal(df.factor, before)
    for array in (s.evolution, s.decomposition.basis, s.decomposition.owner, s.turn,
                  schema.state, df.factor, df.matrix):
        with pytest.raises(ValueError):
            array[0, 0] = 7
    for obj, names in ((schema, ("state", "slices")), (df.space, ("labels", "sectors")),
                       (df, ("space", "factor", "validation"))):
        for name in names:
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, getattr(obj, name))


def test_a_validated_df_cannot_change():
    """df.factor[0, :] *= 3 would give raw_df(eye(4) / 4) a total measure of
    3.0 under its report's normalization residual 0.0: the write is refused,
    and a write to the caller's factor does not reach a hand-built DF."""
    df = raw_df(np.eye(4) / 4)
    with pytest.raises(ValueError):
        df.factor[0, :] *= 3
    everything = Event(df.space, df.space.full_mask())
    assert measure(df, everything) == pytest.approx(1.0)
    assert df.validation.normalization_residual == 0.0
    v = np.full((4, 1), 0.25)
    mine = DecoherenceFunctional(raw_space(["h1", "h2", "h3", "h4"]), v)
    v[0] *= 3
    assert measure(mine, Event(mine.space, mine.space.full_mask())) == 1.0


def test_a_given_report_is_checked_not_trusted():
    """A DF made by hand holds validate_df's report and takes none of its
    own: factor [[3.0]] (measure 9.0) fails, and a report passed as a third
    argument, or by name, is a TypeError."""
    with pytest.raises(ValidationFailedError, match="normalization residual 8.000e"):
        DecoherenceFunctional(raw_space(["h1"]), [[3.0]])
    df = DecoherenceFunctional(raw_space(["h1", "h2"]), [[0.75], [0.25]])
    assert df.validation == validate_df(df) and df.validation.min_eigenvalue == 0.0
    passing = ValidationReport(2, 0.0, 0.0, 0.0, None)
    with pytest.raises(TypeError):
        DecoherenceFunctional(df.space, df.factor, passing)
    with pytest.raises(TypeError):
        DecoherenceFunctional(df.space, df.factor, validation=passing)


@pytest.mark.parametrize("factor", [[[np.nan]], [[np.inf]], [[np.nan], [0.5]],
                                    [[0.5, np.inf], [0.5, 0.0]]])
def test_a_non_finite_factor_makes_no_df(factor):
    """A NaN residual fails its check: a factor with a NaN or infinite entry
    has a non-finite normalization residual and a NaN minimum eigenvalue."""
    space = raw_space(f"h{i + 1}" for i in range(len(factor)))
    with pytest.raises(ValidationFailedError) as info:
        DecoherenceFunctional(space, np.array(factor))
    rep = info.value.report
    assert not rep.passed and np.isnan(rep.min_eigenvalue)
    assert [f.split()[0] for f in rep.failures] == ["normalization", "strong"]


def test_a_nan_cross_sector_entry_fails_the_block_check():
    """The block max keeps a NaN cross-sector entry, where max() dropped it."""
    factor = np.array([[np.nan], [1.0]], dtype=complex)
    space = HistorySpace(labels=("h1", "h2"), sectors=(("0", 0b01), ("1", 0b10)))
    with np.errstate(invalid="ignore"):
        assert np.isnan(_block_residual(factor[None], space.sector_ids)[0])
    with pytest.raises(ValidationFailedError, match="final-sector block residual nan"):
        DecoherenceFunctional(space, factor)


@pytest.mark.parametrize("seed", range(5))
def test_cached_products_equal_fresh_ones(seed):
    """owner, the cross-block norm and B^dagger U, read from the caches,
    equal a fresh computation, on random bases with outcomes of rank above 1
    that are unitary only to about 1e-10."""
    rng = np.random.default_rng(seed)
    d = 5
    ranks = (2, 1, 2) if seed % 2 else (3, 2)
    basis = random_decomposition(rng, d, list("abcde")).basis
    basis = basis + 1e-10 * rng.normal(size=(d, d))
    dec = ProjectiveDecomposition(basis, ranks, [f"o{i}" for i in range(len(ranks))])
    owner = np.zeros((len(ranks), d))
    for i, (lo, r) in enumerate(zip(np.cumsum((0, *ranks)), ranks)):
        owner[i, lo:lo + r] = 1.0
    blocks = owner.T @ owner
    cross = np.sqrt(sum(abs(np.vdot(basis[:, i], basis[:, j])) ** 2
                        for i in range(d) for j in range(d) if not blocks[i, j]))
    u = random_decomposition(rng, d, list("abcde")).basis
    for _ in range(2):
        np.testing.assert_array_equal(dec.owner, owner)
        assert dec.cross_block_norm == pytest.approx(cross, rel=1e-9)
        assert 1e-11 < dec.cross_block_norm < 1e-8
        np.testing.assert_allclose(Slice(dec, u).turn, np.conjugate(basis.T) @ u, atol=1e-14)
        np.testing.assert_allclose(Slice(dec).turn, np.conjugate(basis.T), atol=0)


def test_build_df_factor_rows_are_branch_products():
    """Pure state: factor row i is the branch C_i psi = P2 U2 P1 U1 psi, the
    earliest slice acting first.  Rank-deficient mixed state: the factor's
    Gram matrix is Tr(C_i^dagger C_j rho).  The final slice has a rank-2
    outcome."""
    rng = np.random.default_rng(5)
    dim = 3
    dec1 = random_decomposition(rng, dim, ["a", "b", "c"])
    dec2 = ProjectiveDecomposition(random_decomposition(rng, dim, ["x", "y", "z"]).basis,
                                   (2, 1), ("p", "l"))
    u1, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    u2, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    slices = (Slice(dec1, evolution=u1), Slice(dec2, evolution=u2))
    ket = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    schema = HistorySchema.from_ket(ket / np.linalg.norm(ket), slices)
    p1, p2 = projectors(dec1), projectors(dec2)
    ops = [p2[b] @ u2 @ p1[a] @ u1 for a, b in outcome_tuples(schema)]

    df = build_df(schema)
    np.testing.assert_allclose(df.factor, [op @ schema.ket for op in ops], atol=1e-12)

    q, _ = np.linalg.qr(rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2)))
    rho = 0.3 * np.outer(q[:, 0], q[:, 0].conj()) + 0.7 * np.outer(q[:, 1], q[:, 1].conj())
    mixed = build_df(HistorySchema(q * np.sqrt([0.3, 0.7]), slices))
    expected = [[np.trace(oi.conj().T @ oj @ rho) for oj in ops] for oi in ops]
    np.testing.assert_allclose(mixed.matrix, expected, atol=1e-12)
    assert mixed.validation.passed


def test_amplitude_known_value():
    build = build_scenario("pbr-v2")
    schema = next(e.schema for e in build.entries if e.label == "0+")
    amp = amplitude(schema, (0, 1))
    assert amp == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)), abs=1e-12)
    assert abs(amp) ** 2 == pytest.approx(0.125, abs=1e-12)


def test_mixed_state_df_validates():
    basis = computational_basis(2)
    schema = HistorySchema(np.eye(2) / np.sqrt(2.0), (Slice(basis),))
    assert schema.ket is None and schema.state.shape == (2, 2)
    assert build_df(schema).validation.passed


def test_rank_two_final_outcome_has_measure_one():
    dec = ProjectiveDecomposition(np.eye(3), (2, 1), ("p", "l"))
    df = build_df(HistorySchema.from_ket(np.eye(3)[0], (Slice(dec),)))
    assert measure(df, Event(df.space, label_mask(df.space, ["h_{p}"]))) == pytest.approx(1.0)


def test_df_entries_are_amplitude_products():
    for name, kwargs in (("pbr-v1", {}), ("appendix-theta", {"theta": 0.7})):
        build = build_scenario(name, kwargs)
        for entry in build.entries:
            df = build_df(entry.schema)
            space = df.space
            tuples = outcome_tuples(entry.schema)
            assert len(tuples) == space.size
            amps = np.array([amplitude(entry.schema, t) for t in tuples])
            finals = np.array([t[-1] for t in tuples])
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


def test_measure_refuses_an_event_of_other_labels():
    """An event over other history labels is refused, whether it reaches
    past the DF's histories or has as many of them; an event over an equal
    space built apart is measured."""
    df = raw_df(np.eye(2) / 2)
    for labels in (["h1", "h2", "h3"], ["g1", "g2"]):
        with pytest.raises(LabelMismatchError, match="different history label sets"):
            measure(df, Event(raw_space(labels), 2))
    assert measure(df, Event(raw_space(["h1", "h2"]), 2)) == pytest.approx(0.5)


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
        a = Event(space, mask_of(np.flatnonzero(groups == 0)))
        b = Event(space, mask_of(np.flatnonzero(groups == 1)))
        lhs = measure(df, Event(space, a.mask | b.mask))
        rhs = measure(df, a) + measure(df, b) + 2.0 * event_value(df, a.mask, b.mask).real
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_sector_additivity():
    """Measures add across final sectors: mu(E) = sum of sector parts."""
    df = scenario_dfs("pbr-v2")["+0"]
    space = df.space
    sectors = [mask for _, mask in df.sectors()]
    assert len(sectors) == 4
    rng = np.random.default_rng(47)
    for _ in range(100):
        mask = int(rng.integers(0, space.full_mask() + 1))
        e = Event(space, mask)
        parts = sum(measure(df, Event(space, mask & s)) for s in sectors)
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
    assert df.sectors() == df.space.sectors
    schema = build_scenario("pbr-v2").entries[0].schema
    finals = np.array([t[-1] for t in outcome_tuples(schema)])
    off = np.abs(df.matrix)[finals[:, None] != finals[None, :]]
    assert float(off.max()) <= 1e-12


def test_event_algebra():
    space = raw_space(["h1", "h2", "h3"])
    a = Event(space, label_mask(space, ["h1", "h3"]))
    b = Event(space, mask_of([1]))
    assert a.indices == (0, 2)
    assert a.labels == ("h1", "h3")
    assert len(a) == 2 and bool(a)
    assert not Event(space, 0)
    assert space.labels_of(0b110) == ["h2", "h3"]
    assert space.labels_of(0) == []
    assert complement(a) == b and b.labels == ("h2",)
    with pytest.raises(ValueError):
        Event(space, 1 << 3)


def test_event_mask_is_stored_as_int():
    space = raw_space(["h1", "h2", "h3"])
    e = Event(space, np.int64(5))
    assert type(e.mask) is int and e == Event(space, 5)
    assert e.labels == ("h1", "h3") and e.indices == (0, 2) and len(e) == 2
    with pytest.raises(TypeError):
        Event(space, 5.0)
    with pytest.raises(ValueError):
        Event(space, np.uint8(8))


def test_event_is_slotted_and_frozen():
    """Events keep no instance dict and refuse assignment; bulk-built events
    equal, hash and print like the public constructor's; the constructor
    still rejects masks outside the space."""
    space = raw_space(["h1", "h2", "h3"])
    masks = [0, 1, 0b101, 0b111]
    public = [Event(space, m) for m in masks]
    bulk = _events(space, masks)
    assert bulk == public
    assert [hash(e) for e in bulk] == [hash(e) for e in public]
    assert [repr(e) for e in bulk] == [repr(e) for e in public]
    assert all(type(e.mask) is int and e.space is space for e in bulk)
    assert not hasattr(public[2], "__dict__") and not hasattr(bulk[2], "__dict__")
    for event in (public[2], bulk[2]):
        with pytest.raises(FrozenInstanceError):
            event.mask = 1
        with pytest.raises(FrozenInstanceError):
            event.space = raw_space(["h1"])
    for bad in (-1, 1 << 3):
        with pytest.raises(ValueError):
            Event(space, bad)


def test_raw_df_paths():
    df = raw_df(np.diag([0.25, 0.75]))
    assert df.space.labels == ("h1", "h2")
    assert df.validation.passed and not df.validation.block_applicable
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
    last = Event(df.space, mask_of(np.array([n - 1], dtype=np.int64)))
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
    a = Event(space, mask_of(np.array(a_idx, dtype=np.int64)))
    b = Event(space, mask_of(b_idx))
    sa, sb = set(a_idx), set(b_idx)
    cases = (
        (a, sa),
        (b, sb),
        (Event(space, a.mask | b.mask), sa | sb),
        (Event(space, a.mask & b.mask), sa & sb),
        (complement(a), set(range(n)) - sa),
    )
    for event, model in cases:
        assert event.indices == tuple(sorted(model))
        assert event.labels == tuple(f"h{i}" for i in sorted(model))
        assert len(event) == len(model)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sort_masks_orders_by_size_then_members(data):
    """The canonical order is (cardinality, ascending member indices), also
    for masks past the 64-bit boundary."""
    n = data.draw(st.integers(60, 70))
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=30))
    masks += data.draw(st.lists(st.sets(st.integers(n - 12, n - 1), max_size=4)
                                .map(lambda s: sum(1 << i for i in s)), max_size=10))

    def members(m):
        return tuple(i for i in range(n) if m >> i & 1)

    assert sort_masks(masks, n) == sorted(masks, key=lambda m: (len(members(m)), members(m)))


def test_validate_df_failure_reports():
    """A failing report makes no DF: ValidationFailedError carries it."""
    with pytest.raises(ValidationFailedError) as info:
        raw_df(np.array([[0.2, 0.5], [0.5, -0.2]]))
    assert not info.value.report.passed
    assert any("positivity" in f for f in info.value.report.failures)
    with pytest.raises(ValidationFailedError) as info:
        raw_df(np.diag([0.3, 0.3]))
    assert any("normalization" in f for f in info.value.report.failures)
    with pytest.raises(ValidationFailedError) as info:
        DecoherenceFunctional(raw_space(["h1", "h2"]), 0.3 * np.eye(2))
    assert str(info.value) == ("decoherence functional failed validation: "
                               "normalization residual 8.200e-01")
    short = info.value.report
    assert short.hermiticity_residual == 0.0
    assert short.normalization_residual == pytest.approx(1.0 - 0.18)
    assert [f.split()[0] for f in short.failures] == ["normalization"]


def test_measure_imaginary_residue():
    """A matrix whose event sums have an imaginary part is not Hermitian and
    is rejected on ingestion; an accepted complex DF measures each event as
    the real part of its submatrix sum, with no imaginary residue."""
    with pytest.raises(ValidationFailedError):
        raw_df(np.array([[0.5, 0.5j], [0.0, 0.5]]))
    rng = np.random.default_rng(59)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    mat = a @ a.conj().T
    mat /= mat.sum().real
    df = raw_df(mat)
    for m in range(16):
        idx = [i for i in range(4) if m >> i & 1]
        total = mat[np.ix_(idx, idx)].sum()
        assert isinstance(measure(df, Event(df.space, m)), float)
        assert measure(df, Event(df.space, m)) == pytest.approx(total.real, abs=1e-12)


def test_raw_df_factor_reproduces_the_matrix():
    rng = np.random.default_rng(61)
    for n in range(1, 9):
        for rank in sorted({1, (n + 1) // 2, n}):
            a = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
            mat = a @ a.conj().T
            mat /= mat.sum().real
            df = raw_df(mat)
            assert df.factor.shape[0] == n
            np.testing.assert_allclose(df.matrix, mat, atol=1e-12)


def test_large_build_df_never_forms_the_matrix():
    rng = np.random.default_rng(67)
    slices = [Slice(random_decomposition(rng, 2, ["0", "1"])) for _ in range(14)]
    df = build_df(HistorySchema.from_ket([1.0, 0.0], slices))
    assert df.size == 2**14 and df.factor.shape == (2**14, 2)
    assert df.validation.passed and df.sectors() == df.space.sectors
    assert "matrix" not in vars(df)


def test_build_df_on_a_256_outcome_basis_stays_small():
    """One slice of 256 outcomes: propagating basis coefficients needs a few
    MB, where 256 dense 256 x 256 projectors alone would take 268 MB."""
    dim = 256
    dec = random_decomposition(np.random.default_rng(71), dim, [f"o{i}" for i in range(dim)])
    schema = HistorySchema.from_ket(np.eye(dim)[0], (Slice(dec),))
    tracemalloc.start()
    try:
        df = build_df(schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert df.validation.passed
    mu = [measure(df, Event(df.space, 1 << i)) for i in range(dim)]
    np.testing.assert_allclose(mu, np.abs(dec.basis[0]) ** 2, atol=1e-12)


def test_build_df_of_sixteen_qubit_slices_peaks_under_nine_branch_rows():
    """2^16 histories of a qubit ket take the leakage bound: each branch's
    squared norm is summed from views of its real and imaginary parts, not
    from a squared copy of the branches, so the traced peak, history labels
    included, stays under 9 times the bytes of the branch rows."""
    rng = np.random.default_rng(83)
    slices = [Slice(random_decomposition(rng, 2, ["0", "1"])) for _ in range(16)]
    schema = HistorySchema.from_ket([1.0, 0.0], slices)
    tracemalloc.start()
    try:
        df = build_df(schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert df.size == 2**16 and df.validation.block_residual <= ROUNDOFF_FLOOR
    assert peak <= 9 * df.factor.nbytes


def test_block_residual_memory_stays_linear_in_sectors():
    """4,096 one-history sectors: the block check reads each history's
    sector id, so it holds O(n) ids and a chunk of rows, not one row per
    sector.  Its residual, 1/n^2, is above EPS_DF, so this factor makes no
    DF and the check is called on the factor itself."""
    n = 4096
    sectors = tuple((str(i), 1 << i) for i in range(n))
    space = HistorySpace(labels=tuple(f"h{i}" for i in range(n)), sectors=sectors)
    factor = np.full((n, 1), 1.0 / n, dtype=complex)
    tracemalloc.start()
    try:
        residual = _block_residual(factor[None], space.sector_ids)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert residual == pytest.approx(1.0 / n**2)
    with pytest.raises(ValidationFailedError, match="final-sector block residual 5.960e-08"):
        DecoherenceFunctional(space, factor)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 12), st.integers(1, 5),
       st.sampled_from([None, 1, 2, 3, 64]), st.booleans())
@example(0, 6, 8, 2, 1, False)
def test_block_residual_equals_the_dense_max(seed, n, c, k, step, nan):
    """The exact cross-sector max equals brute_block_residual on random
    factors over k random, interleaved sectors (k = 1: no cross-sector
    pair, 0.0), alone and stacked with other factors, in row chunks of any
    size (_STEP_ENTRIES patched); a NaN entry makes both NaN when some
    sector is not its row's.  In the explicit example, products of one row
    at a time differ from the dense matrix in the last bit."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(np.arange(n) % min(k, n))
    space = HistorySpace(labels=tuple(f"h{i}" for i in range(n)), sectors=tuple(
        (str(s), sum(1 << int(i) for i in np.flatnonzero(ids == s))) for s in range(min(k, n))))
    factors = rng.normal(size=(3, n, c)) + 1j * rng.normal(size=(3, n, c))
    if nan:
        factors[0, rng.integers(n), rng.integers(c)] = np.nan
    want = brute_block_residual(SimpleNamespace(
        size=n, space=space, matrix=np.conjugate(factors[0]) @ factors[0].T))
    with mock.patch.object(histories, "_STEP_ENTRIES", step or histories._STEP_ENTRIES):
        got = [_block_residual(factors[:1], space.sector_ids)[0],
               _block_residual(factors, space.sector_ids)[0]]
    assert np.array_equal(got, [want, want], equal_nan=True)
    assert np.isnan(want) == (nan and min(k, n) > 1)


@st.composite
def leaky_schemas(draw):
    """Schemas of dimension 2..4 with 1..3 Haar-random slices, some with an
    evolution and outcomes of rank above 1, from a ket or a density state of
    rank 1..d; in some, the final basis is unitary only to about 1e-10."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 4))

    def haar():
        q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    slices = []
    for _ in range(draw(st.integers(1, 3))):
        cuts = sorted(draw(st.sets(st.integers(1, d - 1), max_size=d - 1)))
        ranks = np.diff([0, *cuts, d])
        dec = ProjectiveDecomposition(haar(), ranks, [f"o{i}" for i in range(len(ranks))])
        slices.append(Slice(dec, haar() if draw(st.booleans()) else None))
    if draw(st.booleans()):
        noise = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        last = slices[-1].decomposition
        basis = last.basis + 1e-10 * noise / np.abs(noise).max()
        slices[-1] = Slice(ProjectiveDecomposition(basis, last.ranks, last.labels),
                           slices[-1].evolution)
    r = draw(st.integers(1, d))
    state = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    return HistorySchema(state / np.linalg.norm(state), tuple(slices))


@settings(max_examples=120, deadline=None)
@given(leaky_schemas())
def test_block_residual_bound_covers_the_exact_max(schema):
    """The final slice's leakage bound is at least the exact cross-sector
    max of the dense matrix (the oracle) and at most EPS_DF, for ket and
    density states, outcomes of rank above 1, evolutions and a final basis
    unitary only to about 1e-10.  build_df reports the exact max for n^2 r d
    under _EXACT_ENTRIES; above it, the bound when it is at most
    ROUNDOFF_FLOOR and the exact max otherwise.  _EXACT_ENTRIES is lowered
    on both sides of every drawn schema's n^2 r d, so both rules run on each."""
    df = build_df(schema)
    d, r = schema.state.shape
    rows = df.factor.reshape(df.size, d, r).transpose(0, 2, 1)
    bound = _leakage_bound(rows[None], [schema.slices[-1].decomposition])[0]
    brute = brute_block_residual(df)
    assert brute <= bound <= EPS_DF
    entries = df.size ** 2 * r * d
    by_bound = bound if bound <= ROUNDOFF_FLOOR else brute
    assert df.validation.block_residual == (
        brute if entries < histories._EXACT_ENTRIES else by_bound)
    with mock.patch.object(histories, "_EXACT_ENTRIES", entries + 1):
        assert build_df(schema).validation.block_residual == brute
    with mock.patch.object(histories, "_EXACT_ENTRIES", entries):
        assert build_df(schema).validation.block_residual == by_bound


def test_build_df_accepts_a_basis_unitary_only_to_eps_unit():
    """Basis columns (1, 0) and (delta, sqrt(1 - delta^2)), delta = 9e-10,
    pass the unitarity check.  The leakage bound's cross term, about
    sqrt(2) delta, is above EPS_DF, but the exact cross-sector max of ket
    (1, 0) is delta^2: build_df reports and accepts that, as validate_df."""
    delta = 9e-10
    basis = np.array([[1.0, delta], [0.0, np.sqrt(1.0 - delta**2)]])
    dec = ProjectiveDecomposition(basis, [1, 1], ["a", "b"])
    df = build_df(HistorySchema.from_ket(np.array([1.0, 0.0]), (Slice(dec),)))
    assert df.validation.passed
    assert df.validation.block_residual == validate_df(df).block_residual
    assert df.validation.block_residual == pytest.approx(delta**2, rel=1e-6)


@pytest.mark.parametrize("dim", [4, 16])
def test_emitted_block_residual_is_the_exact_maxs(dim):
    """Ket b_0 measured twice in a random basis b: one branch holds all the
    weight, so the leakage bound's round-off allowance, 2 gamma_{3d} times
    the largest branch norm of a sector times the largest of another, is
    far below ROUNDOFF_FLOOR at d = 4 and d = 16, and build_df takes the
    bound.  The report prints what the exact max prints."""
    dec = random_decomposition(np.random.default_rng(dim), dim, [f"o{i}" for i in range(dim)])
    df = build_df(HistorySchema.from_ket(dec.basis[:, 0], (Slice(dec), Slice(dec))))
    rows = df.factor.reshape(1, df.size, 1, dim)
    assert _leakage_bound(rows, [dec])[0] <= ROUNDOFF_FLOOR
    emitted = emit_report(df.validation.as_dict())
    assert emitted == emit_report(validate_df(df).as_dict())


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
