import json
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import allocated_bytes
from driftlab.data import gen_gaussian_clusters
from driftlab.models import INFER_ROWS, EmbeddingNet, infer, snapshot
from driftlab.prototypes import (
    WEIGHT_FLOOR,
    DriftField,
    KernelConfig,
    NonFiniteError,
    PrototypeBook,
    collect_drift,
    compensate,
    compute_prototypes,
    _jsonable,
    interpolate_drift,
    json_pieces,
    ncm_classify,
)
from driftlab.tensor import ShapeError, StateError


def brute_interp(positions, disps, q, sigma):
    """Independent double-loop evaluation of the kernel average."""
    n, d = positions.shape
    num = [0.0] * d
    den = 0.0
    for i in range(n):
        d2 = 0.0
        for k in range(d):
            d2 += (positions[i][k] - q[k]) ** 2
        w = math.exp(-d2 / (2.0 * sigma * sigma))
        den += w
        for k in range(d):
            num[k] += w * disps[i][k]
    return np.array([v / den for v in num])


def book_of(vectors, learned_at=1):
    book = PrototypeBook()
    book.add_task({c: v for c, v in enumerate(vectors)}, learned_at)
    return book


def test_single_sample_prototype_is_the_sample(rng):
    z = rng.normal(size=(3, 4))
    protos = compute_prototypes(z, [0, 1, 2])
    for c in range(3):
        assert np.array_equal(protos[c], z[c])


def test_prototype_arithmetic_mean():
    protos = compute_prototypes(np.array([[1.0, 0.0], [0.0, 1.0]]), [5, 5])
    assert np.allclose(protos[5], [0.5, 0.5])


def test_prototypes_match_groupby_bruteforce(rng):
    z = rng.normal(size=(40, 6))
    labels = rng.integers(0, 5, size=40)
    protos = compute_prototypes(z, labels)
    for c in range(5):
        want = z[labels == c].mean(axis=0)
        assert np.max(np.abs(protos[c] - want)) < 1e-12
    # means of unit-norm rows are not re-normalized
    zn = z / np.linalg.norm(z, axis=1, keepdims=True)
    pn = compute_prototypes(zn, labels)
    assert any(abs(np.linalg.norm(v) - 1.0) > 1e-3 for v in pn.values())


def test_prototype_missing_class_errors(rng):
    with pytest.raises(ValueError, match="class 7"):
        compute_prototypes(rng.normal(size=(3, 2)), [0, 0, 1], classes=[0, 1, 7])


def test_ncm_prototype_classifies_as_itself(rng):
    vecs = rng.normal(size=(4, 3))
    book = book_of(vecs)
    assert np.array_equal(ncm_classify(vecs, book), [0, 1, 2, 3])


def test_ncm_midpoint_tie_takes_lowest_id():
    book = PrototypeBook()
    book.add_task({3: np.array([1.0, 0.0]), 8: np.array([-1.0, 0.0])}, 1)
    pred = ncm_classify(np.array([[0.0, 0.0]]), book)
    assert pred[0] == 3


def test_ncm_matches_bruteforce(rng):
    vecs = rng.normal(size=(6, 4))
    book = book_of(vecs)
    queries = rng.normal(size=(50, 4))
    pred = ncm_classify(queries, book)
    for i, q in enumerate(queries):
        dists = [np.linalg.norm(q - v) for v in vecs]
        assert pred[i] == int(np.argmin(dists))


def test_ncm_translation_invariance(rng):
    vecs = rng.normal(size=(5, 3))
    queries = rng.normal(size=(20, 3))
    shift = rng.normal(size=3)
    a = ncm_classify(queries, book_of(vecs))
    b = ncm_classify(queries + shift, book_of(vecs + shift))
    assert np.array_equal(a, b)


def test_ncm_empty_book():
    with pytest.raises(StateError):
        ncm_classify(np.zeros((1, 2)), PrototypeBook())


def test_ncm_rejects_non_finite_prototypes_and_embeddings(rng):
    book = book_of(rng.normal(size=(3, 2)))
    z = rng.normal(size=(5, 2))
    book.vectors[1, 0] = np.nan
    with pytest.raises(NonFiniteError, match=r"prototypes of classes \[1\]"):
        ncm_classify(z, book)
    book.vectors[1, 0] = 0.0
    for bad in (np.nan, np.inf, -np.inf):
        z[3, 1] = bad
        with pytest.raises(NonFiniteError, match="1 embedding rows.*row 3"):
            ncm_classify(z, book)


def broadcast_ncm(z, book):
    """The coordinate-wise NCM that ncm_classify must reproduce exactly:
    an [N, C, D] difference tensor, summed, argmin to the lowest id."""
    diff = z[:, None, :] - book.vectors[None, :, :]
    return book.ids[np.argmin(np.sum(diff * diff, axis=2), axis=1)]


@st.composite
def ncm_cases(draw):
    """Prototypes and queries built to tie or nearly tie: duplicate
    prototypes, exact midpoints, integer lattices, large unnormalized
    (FT*-like) magnitudes, and scales that underflow or overflow."""
    kind = draw(st.sampled_from(["lattice", "near-tie", "ft-star"]))
    scale = draw(st.sampled_from([1.0, 1e-160, 1e150]))
    n_classes = draw(st.integers(1, 10))
    dim, n = draw(st.integers(1, 6)), draw(st.integers(1, 30))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "lattice":
        protos = 2.0 * r.integers(-3, 4, size=(n_classes, dim))
        z = r.integers(-6, 7, size=(n, dim)).astype(np.float64)
    else:
        protos = r.normal(size=(n_classes, dim))
        if kind == "ft-star":  # nonnegative trunk features, norms up to ~1e4
            protos = np.abs(protos) * 10.0 ** r.uniform(0, 4, size=(n_classes, 1))
        protos += r.normal(size=dim) * 10.0 ** r.uniform(0, 3)  # cancellation
        z = protos[r.integers(0, n_classes, size=n)] + r.normal(size=(n, dim))
    src, dst = r.integers(0, n_classes, size=(2, n_classes // 3))
    protos[dst] = protos[src]  # duplicate prototypes
    a, b = r.integers(0, n_classes, size=(2, n))
    mid = (protos[a] + protos[b]) / 2 + r.normal(size=(n, dim)) * 1e-12 * (kind != "lattice")
    z = np.where(r.random(n)[:, None] < 0.5, mid, z)  # (near-)midpoints
    ids = np.sort(r.choice(100, size=n_classes, replace=False))
    book = PrototypeBook()
    book.add_task({int(c): p * scale for c, p in zip(ids, protos)}, 1)
    return z * scale, book


@settings(max_examples=400)
@given(ncm_cases())
@example((np.zeros((1, 2)), book_of(np.array([[1.0, 0.0], [-1.0, 0.0]]))))
@example((np.array([[0.0, 2.8e154]]),  # ||z||^2 overflows: NaN GEMM row, all
          book_of(np.array([[1.4e154, -0.85e154], [-1.0e154, 1.3e154]]))))  # inf
def test_ncm_equals_broadcast_reference(case):
    z, book = case
    with np.errstate(over="ignore"):  # at 1e150 some distances are inf
        diff = z[:, None, :] - book.vectors[None, :, :]
        lost = np.flatnonzero(np.isinf(np.sum(diff * diff, axis=2)).all(axis=1))
        if len(book) > 1 and lost.size:  # no nearest prototype, as in the 2nd example
            with pytest.raises(NonFiniteError,
                               match=f"{lost.size} embedding rows .* row {lost[0]}"):
                ncm_classify(z, book)
        else:
            assert np.array_equal(ncm_classify(z, book), broadcast_ncm(z, book))


@pytest.mark.parametrize("n", [INFER_ROWS - 1, INFER_ROWS + 1, 2 * INFER_ROWS + 7])
def test_ncm_blocks_equal_broadcast_reference_across_edges(n):
    r = np.random.default_rng(n)
    protos = r.normal(size=(12, 4))
    protos[5] = protos[2]  # exact ties between two classes
    z = protos[r.integers(0, 12, size=n)] + r.normal(size=(n, 4))
    a, b = r.integers(0, 12, size=(2, n))
    mid = (protos[a] + protos[b]) / 2 + r.normal(size=(n, 4)) * 1e-12
    z = np.where(r.random(n)[:, None] < 0.5, mid, z)  # near ties in every block
    z[[0, INFER_ROWS - 2, n - 1]] = protos[5]  # exact ties at the block edges
    book = book_of(protos)
    assert np.array_equal(ncm_classify(z, book), broadcast_ncm(z, book))

    # errors count rows over all blocks and name them by their global number
    bad = z.copy()
    bad[[n - 1, n - 2], 1] = np.nan, np.inf
    with pytest.raises(NonFiniteError, match=f"2 embedding rows .*row {n - 2}\\)"):
        ncm_classify(bad, book)
    huge = z.copy()
    huge[[3, n - 1], 0] = 1e200  # finite, but every squared distance is inf
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError, match="2 embedding rows have every squared "
                                                 "distance overflow to inf .*row 3\\)"):
            ncm_classify(huge, book)


def test_ncm_peak_memory_does_not_grow_with_rows():
    """Only the per-row outputs grow: a finite flag, a prototype index
    and a class id; the [rows, classes] temporaries stay one block."""
    r = np.random.default_rng(0)
    book = book_of(r.normal(size=(100, 8)))

    def peak(n):
        z = r.normal(size=(n, 8))
        return allocated_bytes(lambda: ncm_classify(z, book))

    extra_rows = 6 * INFER_ROWS
    assert peak(8 * INFER_ROWS) - peak(2 * INFER_ROWS) <= 1.1 * extra_rows * (1 + 8 + 8)


def test_collect_drift_zero_for_identical_models(rng):
    ds = gen_gaussian_clusters(2, 5, 4, 0.2, seed=1)
    m = EmbeddingNet(4, 2, seed=1)
    field = collect_drift(m.embed_np(ds.features), m.embed_np(ds.features))
    assert len(field) == 10
    assert np.max(np.abs(field.displacements)) == 0.0


def test_collect_drift_counts_and_mismatch(rng):
    ds = gen_gaussian_clusters(2, 6, 4, 0.2, seed=2)
    before = EmbeddingNet(4, 2, seed=1).embed_np(ds.features)
    wide = EmbeddingNet(4, 3, seed=1).embed_np(ds.features)
    with pytest.raises(ShapeError, match=r"before \(12, 2\) vs after \(12, 3\)"):
        collect_drift(before, wide)  # embedding dims differ
    for rows in (before[:-1], before[:1]):  # one row would broadcast
        with pytest.raises(ShapeError):
            collect_drift(before, rows)
    field = collect_drift(before, EmbeddingNet(4, 2, seed=5).embed_np(ds.features))
    assert len(field) == len(ds.labels)
    assert np.max(np.abs(field.displacements)) > 0


def test_collect_drift_takes_precomputed_embeddings_bit_for_bit():
    """The field holds the given embeddings and their difference, bit for
    bit; the old side from ``embed_np`` before training equals ``infer``
    over a snapshot of the same parameters."""
    ds = gen_gaussian_clusters(3, 7, 4, 0.2, seed=3)
    old, m = EmbeddingNet(4, 2, seed=1), EmbeddingNet(4, 2, seed=6)
    before = old.embed_np(ds.features)
    assert before.tobytes() == infer(snapshot(old), ds.features, normalize=True).tobytes()
    after = m.embed_np(ds.features)
    field = collect_drift(before, after)
    assert field.positions.tobytes() == before.tobytes()
    assert field.displacements.tobytes() == (after - before).tobytes()
    assert np.max(np.abs(field.displacements)) > 0


def test_interp_single_point_at_query_returns_its_delta(rng):
    q = rng.normal(size=3)
    delta = rng.normal(size=3)
    field = DriftField(q[None, :], delta[None, :])
    out = interpolate_drift(field, q, KernelConfig(sigma=0.3))
    assert np.allclose(out, delta, atol=1e-15)


def test_interp_uniform_field_returns_the_constant(rng):
    v = rng.normal(size=4)
    positions = rng.normal(size=(20, 4))
    field = DriftField(positions, np.tile(v, (20, 1)))
    for sigma in (0.3, 2.0, 50.0):
        for i in range(5):
            q = positions[i] + rng.normal(size=4) * 0.3  # stay near evidence
            out = interpolate_drift(field, q, KernelConfig(sigma=sigma))
            assert np.allclose(out, v, atol=1e-12)
    # small sigma still exact when the query sits near the field
    near = positions[3] + 0.02
    out = interpolate_drift(field, near, KernelConfig(sigma=0.05))
    assert np.allclose(out, v, atol=1e-12)


def test_interp_matches_bruteforce_double_loop(rng):
    # the acceptance suite runs 100 instances; keep a quick version here
    for _ in range(20):
        n, d = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        positions = rng.normal(size=(n, d))
        disps = rng.normal(size=(n, d))
        q = rng.normal(size=d)
        sigma = float(rng.uniform(0.05, 3.0))
        got = interpolate_drift(DriftField(positions, disps), q, KernelConfig(sigma=sigma))
        want = brute_interp(positions, disps, q, sigma)
        assert np.max(np.abs(got - want)) < 1e-10


def test_interp_sigma_to_infinity_is_plain_mean(rng):
    positions = rng.normal(size=(15, 3))
    disps = rng.normal(size=(15, 3))
    q = rng.normal(size=3)
    out = interpolate_drift(DriftField(positions, disps), q, KernelConfig(sigma=1e6))
    assert np.max(np.abs(out - disps.mean(axis=0))) < 1e-8


def test_interp_sigma_to_zero_is_nearest_point():
    # query 3 sigma from its nearest point, other points far away: at
    # sigma=1e-3 every other weight underflows to exact zero
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    disps = np.array([[1.0, 1.0], [-2.0, 0.5], [0.0, 3.0]])
    q = positions[1] + np.array([3e-3, 0.0])
    out = interpolate_drift(DriftField(positions, disps), q, KernelConfig(sigma=1e-3))
    assert np.allclose(out, disps[1], atol=1e-12)


def test_interp_joint_translation_invariance(rng):
    positions = rng.normal(size=(10, 3))
    disps = rng.normal(size=(10, 3))
    q = rng.normal(size=3)
    shift = rng.normal(size=3) * 5
    cfg = KernelConfig(sigma=0.4)
    a = interpolate_drift(DriftField(positions, disps), q, cfg)
    b = interpolate_drift(DriftField(positions + shift, disps), q + shift, cfg)
    assert np.max(np.abs(a - b)) < 1e-12


def test_interp_degenerate_mass_returns_zero_and_warns(caplog):
    field = DriftField(np.zeros((3, 2)), np.ones((3, 2)))
    q = np.array([1e4, 0.0])  # ~1e8 / 2e-2 in the exponent: total underflow
    with caplog.at_level(logging.WARNING):
        out = interpolate_drift(field, q, KernelConfig(sigma=0.1))
    assert np.array_equal(out, np.zeros(2))
    assert any("degenerate" in r.message for r in caplog.records)


def test_interp_weight_floor_is_the_fallback_threshold():
    assert WEIGHT_FLOOR == 1e-12
    field = DriftField(np.zeros((1, 1)), np.ones((1, 1)))
    cfg = KernelConfig(sigma=1.0)
    for mass, want in ((1e-11, 1.0), (1e-13, 0.0)):
        q = np.array([np.sqrt(-2.0 * np.log(mass))])  # kernel weight = mass
        assert interpolate_drift(field, q, cfg)[0] == pytest.approx(want)


def test_interp_empty_field():
    field = DriftField(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(ValueError):
        interpolate_drift(field, np.zeros(2), KernelConfig())


def loop_interpolate(field, q, cfg):
    """The single-query kernel average as it was written before queries
    went in blocks: the bit-level reference for the block form."""
    d2 = np.sum((field.positions - q) ** 2, axis=1)
    w = np.exp(-d2 / (2.0 * cfg.sigma**2))
    total = w.sum()
    if total < WEIGHT_FLOOR:
        return np.zeros_like(q)
    return (w[:, None] * field.displacements).sum(axis=0) / total


def test_interp_block_is_bitwise_the_per_query_loop(rng, caplog):
    # 200 x 75 field: blocks of 2^16 // 15000 = 4 queries, so 11 queries
    # cross two block boundaries; rows 2, 3, 4 and 9 sit out of reach
    field = DriftField(rng.normal(size=(200, 75)), rng.normal(size=(200, 75)))
    cfg = KernelConfig(sigma=2.5)
    queries = field.positions[rng.integers(0, 200, size=11)] + rng.normal(size=(11, 75))
    far = [2, 3, 4, 9]
    queries[far] += 1e3
    with caplog.at_level(logging.WARNING):
        block = interpolate_drift(field, queries, cfg)
    warned = [r for r in caplog.records if "degenerate kernel" in r.getMessage()]
    assert len(warned) == len(far)
    want = np.stack([loop_interpolate(field, q, cfg) for q in queries])
    assert block.shape == queries.shape and block.tobytes() == want.tobytes()
    assert not block[far].any() and block[[0, 5, 10]].all()
    for q, row in zip(queries, block):
        assert interpolate_drift(field, q, cfg).tobytes() == row.tobytes()


def test_compensate_matches_per_class_loop(rng, caplog):
    field = DriftField(rng.normal(size=(200, 75)), rng.normal(size=(200, 75)) * 0.1)
    cfg = KernelConfig(sigma=2.5)
    vecs = field.positions[:12] + rng.normal(size=(12, 75))
    vecs[[2, 7]] += 1e3  # two old prototypes out of reach of the evidence
    book = PrototypeBook()
    book.add_task({c: v for c, v in enumerate(vecs[:10])}, task_index=1)
    book.add_task({10: vecs[10], 11: vecs[11]}, task_index=2)
    want = {c: loop_interpolate(field, vecs[c], cfg) for c in range(10)}
    with caplog.at_level(logging.WARNING):
        ids, delta, mass, nearest = compensate(book, field, cfg, current_task=2)
    assert sum("degenerate kernel" in r.getMessage() for r in caplog.records) == 2
    assert ids.tolist() == list(range(10))
    for c in range(10):
        assert delta[c].tobytes() == want[c].tobytes()
        d2 = np.sum((field.positions - vecs[c]) ** 2, axis=1)
        assert mass[c] == np.exp(-d2 / (2.0 * cfg.sigma**2)).sum()
        assert nearest[c] == np.sqrt(d2.min())
        assert (mass[c] < WEIGHT_FLOOR) == (c in (2, 7))
        assert book.vectors[c].tobytes() == (vecs[c] + want[c]).tobytes()
        assert book.compensation[c].tobytes() == (np.zeros(75) + want[c]).tobytes()
    for c in (10, 11):
        assert book.vectors[c].tobytes() == vecs[c].tobytes()
        assert not book.compensation[c].any()


def test_kernel_config_validation():
    # from 1e-200 to 1e-163 2 sigma^2 underflows to 0, which gives a query on
    # a drift point NaN drift; from 1e155 it overflows
    for sigma in (0.0, -1.0, np.nan, np.inf, 1e-200, 1e-163, 1e155, 1e200):
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            KernelConfig(sigma=sigma)
    assert KernelConfig(sigma=1e-160).sigma == 1e-160  # 2 sigma^2 is 2e-320, not 0
    with pytest.raises(ShapeError):
        DriftField(np.zeros((3, 2)), np.zeros((2, 2)))


def test_compensate_zero_field_is_identity(rng):
    vecs = rng.normal(size=(3, 2))
    book = book_of(vecs, learned_at=1)
    field = DriftField(rng.normal(size=(8, 2)), np.zeros((8, 2)))
    compensate(book, field, KernelConfig(), current_task=2)
    assert np.array_equal(book.vectors, vecs)
    assert np.array_equal(book.compensation, np.zeros((3, 2)))


def test_compensate_skips_current_task_prototypes(rng):
    book = PrototypeBook()
    book.add_task({0: rng.normal(size=2)}, task_index=1)
    book.add_task({1: rng.normal(size=2)}, task_index=2)
    keep = book.vectors[1].copy()
    field = DriftField(rng.normal(size=(6, 2)), rng.normal(size=(6, 2)))
    ids, delta, mass, nearest = compensate(book, field, KernelConfig(sigma=0.5),
                                           current_task=2)
    assert np.array_equal(book.vectors[1], keep)  # bit-unchanged
    assert not np.array_equal(book.compensation[0], np.zeros(2))
    # the returned deltas are exactly what was applied, old classes only
    assert ids.tolist() == [0] and len(mass) == len(nearest) == 1
    assert np.array_equal(delta, book.compensation[:1])


def test_compensate_without_old_classes_reads_no_field(rng):
    """Nothing to move: empty arrays come back, before the kernel pass,
    which an empty field would fail."""
    book = book_of(rng.normal(size=(3, 2)), learned_at=2)
    vectors = book.vectors.copy()
    empty = DriftField(np.zeros((0, 2)), np.zeros((0, 2)))
    ids, delta, mass, nearest = compensate(book, empty, KernelConfig(), current_task=2)
    assert ids.shape == mass.shape == nearest.shape == (0,) and delta.shape == (0, 2)
    assert np.array_equal(book.vectors, vectors) and not book.compensation.any()


def test_compensate_two_transitions_unroll(rng):
    """Recursive rule: second interpolation is taken at the once-moved
    position, not at the original prototype."""
    mu = rng.normal(size=2)
    book = PrototypeBook()
    book.add_task({0: mu}, task_index=1)
    cfg = KernelConfig(sigma=0.5)

    f1 = DriftField(rng.normal(size=(7, 2)), rng.normal(size=(7, 2)) * 0.3)
    f2 = DriftField(rng.normal(size=(7, 2)), rng.normal(size=(7, 2)) * 0.3)
    compensate(book, f1, cfg, current_task=2)
    compensate(book, f2, cfg, current_task=3)

    d1 = brute_interp(f1.positions, f1.displacements, mu, 0.5)
    d2 = brute_interp(f2.positions, f2.displacements, mu + d1, 0.5)
    assert np.max(np.abs(book.vectors[0] - (mu + d1 + d2))) < 1e-10
    assert np.max(np.abs(book.compensation[0] - (d1 + d2))) < 1e-10


def test_book_json_round_trip(rng):
    book = PrototypeBook()
    book.add_task({0: rng.normal(size=3), 4: rng.normal(size=3)}, 1)
    book.add_task({2: rng.normal(size=3)}, 2)
    book.compensation[0] = rng.normal(size=3)
    book.vectors[0] += book.compensation[0]

    text = book.to_json()
    rows = json.loads(text)["classes"]
    assert [r["class_id"] for r in rows] == [0, 2, 4]
    for i, r in enumerate(rows):
        assert r == {"class_id": r["class_id"], "learned_at": int(book.learned_at[i]),
                     "vector": book.vectors[i].tolist(),
                     "compensation": book.compensation[i].tolist()}


def _dumps(obj) -> str:
    """The reference: the text one json.dumps call gives."""
    return json.dumps(obj, default=_jsonable)


@pytest.mark.parametrize("payload", [
    {"a": [math.nan, math.inf, -math.inf, -0.0, 1e-310, 0.1]},
    {"x": np.arange(3), "m": np.eye(2), "s": np.float64(0.1), "i": np.int64(7),
     "rows": [np.array([1.5, np.nan]), [np.float32(0.5), np.int8(-3)]], "z": np.array(2.0)},
    {1: {2: 0.5, 3: 1.0}, 4: [1, 2], -5: {}, 6: [], 7: [[], {}, ()], 8: {"": None}},
    {True: [1], 2.5: {"a": [1.0]}, None: [[1]], "k": "Ω \u2028 \"q\" \\"},
    [(0, 1, 2), (3, 4, 5)],  # task_classes
    {1: {"points": [[0.1, -0.2], [0.3, 0.4]], "labels": [0, 1],
         "prototypes": {0: [0.1, 0.2], 1: [0.3, 0.4]}, "compensation": {0: [0.0, 0.0]}}},
    {"counts": [[i % 7] * 300 for i in range(12)], "flat": list(range(3000)),
     "long": [list(range(2000)), [1]], "events": {c: {"mass": 0.5, "cosine": None}
                                                  for c in range(400)}},
    [1, [2, 3], {"a": [4]}, "b"],  # a list whose first item is a scalar
    [], {}, (), 1.5, "s", None, True,
])
def test_json_pieces_give_the_bytes_of_one_json_dumps(payload):
    assert "".join(json_pieces(payload)) == _dumps(payload)


_scalars = (st.none() | st.booleans() | st.integers() | st.text(max_size=4)
            | st.floats(allow_nan=True, allow_infinity=True))
_json_like = st.recursive(_scalars, lambda inner: (
    st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(st.integers() | st.text(max_size=3), inner, max_size=5)),
    max_leaves=40)


@given(_json_like)
def test_json_pieces_match_json_dumps_on_any_nesting(payload):
    assert "".join(json_pieces(payload)) == _dumps(payload)


@pytest.mark.parametrize("payload", [{"a": [[object()]]}, {"a": [1], (1, 2): [2]},
                                     {"a": {np.int64(1): [1]}}])
def test_json_pieces_reject_what_json_dumps_rejects(payload):
    with pytest.raises(TypeError):
        _dumps(payload)
    with pytest.raises(TypeError):
        "".join(json_pieces(payload))


def test_book_json_is_the_bytes_of_one_json_dumps(rng):
    def dumps(book):  # list(ndarray) boxes each float as an np.float64
        return json.dumps({"classes": [
            {"class_id": int(c), "learned_at": int(t), "vector": list(v),
             "compensation": list(m)}
            for c, t, v, m in zip(book.ids, book.learned_at, book.vectors,
                                  book.compensation)]})

    book = PrototypeBook()
    assert book.to_json() == dumps(book) == '{"classes": []}'
    book.add_task({3: rng.normal(size=4), 1: [np.nan, np.inf, -np.inf, -0.0]}, 1)
    book.add_task({2: [1e-310, 1e300, 0.1, 1.0]}, 2)
    book.compensation[2] = rng.normal(size=4)  # class 3's row
    assert book.to_json() == dumps(book)


def test_book_rejects_duplicate_class(rng):
    book = book_of(rng.normal(size=(2, 2)))
    with pytest.raises(StateError, match="class 1 already"):
        book.add_task({1: np.zeros(2)}, 2)


@settings(max_examples=200)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=40, unique=True),
       st.data())
def test_book_is_one_table_in_class_id_order(classes, data):
    """Any split of classes into tasks, with any key order within a task:
    ids come out ascending, each row's vector is bit-equal to its input,
    learned_at is the task index and compensation zeros, and adding a
    class again raises StateError naming it."""
    cuts = sorted(data.draw(st.sets(st.integers(1, len(classes) - 1))) if len(classes) > 1
                  else [])
    tasks = np.split(np.array(classes), cuts)
    r = np.random.default_rng(len(classes))
    vectors = {c: r.normal(size=3) * 10.0 ** r.integers(-300, 300) for c in classes}
    book = PrototypeBook()
    for t, task in enumerate(tasks, start=1):
        order = data.draw(st.permutations(task.tolist()))
        book.add_task({c: vectors[c] for c in order}, t)
    assert book.ids.dtype == book.learned_at.dtype == np.int64
    assert book.ids.tolist() == sorted(classes)
    learned = {c: t for t, task in enumerate(tasks, start=1) for c in task.tolist()}
    for c, t, v, m in zip(book.ids.tolist(), book.learned_at.tolist(), book.vectors,
                          book.compensation):
        assert v.tobytes() == vectors[c].tobytes()
        assert t == learned[c] and m.tobytes() == np.zeros(3).tobytes()
    again = data.draw(st.sampled_from(classes))
    with pytest.raises(StateError, match=f"class {again} already"):
        book.add_task({again: np.zeros(3), -1: np.zeros(3)}, len(tasks) + 1)
    assert book.ids.tolist() == sorted(classes)
