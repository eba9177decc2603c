import inspect

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from driftlab import losses
from driftlab import tensor as T
from driftlab.data import LabeledDataset, gen_gaussian_clusters
from driftlab.losses import (
    EstimationError,
    ImportanceMap,
    TripletBatch,
    estimate_fisher,
    estimate_mas_importance,
    lwf_align_loss,
    mine_triplets,
    quadratic_penalty,
    triplet_loss,
)
from driftlab.models import EmbeddingNet, snapshot
from driftlab.tensor import ShapeError, Tensor
from conftest import allocated_bytes, check_grads, max_rel_err, numeric_grad


def line_embeddings(*xs):
    return Tensor(np.array(xs, dtype=np.float64).reshape(-1, 1))


def test_triplet_satisfied_margin_is_zero():
    # d+ = 0.2, d- = 0.5, m = 0.2 -> max(0, -0.1) = 0
    z = line_embeddings(0.0, 0.2, 0.5)
    trip = TripletBatch([0], [1], [2], margin=0.2)
    assert triplet_loss(z, trip).item() == 0.0


def test_triplet_violated_margin_direct_value():
    # d+ = 0.5, d- = 0.2, m = 0.2 -> 0.5
    z = line_embeddings(0.0, 0.5, 0.2)
    trip = TripletBatch([0], [1], [2], margin=0.2)
    assert triplet_loss(z, trip).item() == pytest.approx(0.5)


def test_triplet_empty_batch_warns_and_zeroes(caplog):
    import logging

    with caplog.at_level(logging.WARNING):
        out = triplet_loss(Tensor(np.zeros((3, 2))), TripletBatch([], [], []))
    assert out.item() == 0.0
    assert any("no valid triplets" in r.message for r in caplog.records)


def test_triplet_zero_iff_all_satisfied(rng):
    z = Tensor(rng.normal(size=(6, 3)))
    labels = np.array([0, 0, 0, 1, 1, 1])
    trip = mine_triplets(labels, z, "semihard")
    loss = triplet_loss(z, trip).item()
    assert loss >= 0.0

    # well-separated classes with a generous margin satisfy every triple
    far = Tensor(np.vstack([rng.normal(size=(3, 3)) * 0.01,
                            rng.normal(size=(3, 3)) * 0.01 + 100.0]))
    trip2 = mine_triplets(labels, far, "semihard")
    assert triplet_loss(far, trip2).item() == 0.0


def test_triplet_index_bounds():
    with pytest.raises(ShapeError):
        triplet_loss(Tensor(np.zeros((2, 2))), TripletBatch([0], [1], [5]))
    with pytest.raises(ShapeError):
        triplet_loss(Tensor(np.zeros((2, 2))), TripletBatch([0], [-1], [1]))


BLOCK = losses.TRIPLET_BLOCK


@settings(max_examples=40)
@given(st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]),
       st.integers(1, 40), st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_blocked_distances_match_unblocked_bytes(count, rows, dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(rows, dim)) * 10.0 ** rng.integers(-3, 4)
    a, p, q = rng.integers(0, rows, size=(3, count))
    d_pos, d_neg = losses._distances(z, a, p, q)
    for got, other in ((d_pos, p), (d_neg, q)):
        want = np.sqrt(np.maximum(np.sum((z[a] - z[other]) ** 2, axis=1), 0.0))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_triplet_loss_allocates_no_triples_by_dim_temporary(rng):
    z = Tensor(rng.normal(size=(64, 64)), requires_grad=True)
    trip = TripletBatch(*rng.integers(0, 64, size=(3, 2000)))
    run = lambda: triplet_loss(z, trip).backward()
    run()
    # the unblocked loss held two [2000, 64] arrays at once, 2 MB
    assert allocated_bytes(run) < 2000 * 64 * 8


def test_triplet_gradient_finite_differences(rng):
    for trial in range(5):
        z0 = rng.normal(size=(8, 4))
        labels = rng.integers(0, 3, size=8)
        trip = mine_triplets(labels, Tensor(z0), "semihard", margin=0.2)
        if len(trip) == 0:
            continue
        # keep hinge arguments away from the kink for clean differences
        d_pos = np.linalg.norm(z0[trip.anchors] - z0[trip.positives], axis=1)
        d_neg = np.linalg.norm(z0[trip.anchors] - z0[trip.negatives], axis=1)
        if np.min(np.abs(d_pos - d_neg + 0.2)) < 1e-3:
            continue
        check_grads(lambda ts: triplet_loss(ts[0], trip), [z0])


def test_mine_single_class_is_empty(rng):
    z = Tensor(rng.normal(size=(4, 2)))
    assert len(mine_triplets(np.zeros(4, dtype=int), z, "random")) == 0
    assert len(mine_triplets(np.zeros(4, dtype=int), z, "semihard")) == 0


def test_mine_random_counts_and_validity(rng):
    z = Tensor(rng.normal(size=(4, 3)))
    labels = np.array([0, 0, 1, 1])
    trip = mine_triplets(labels, z, "random", rng=rng)
    assert len(trip) == 4  # ordered same-label pairs
    assert np.all(labels[trip.anchors] == labels[trip.positives])
    assert np.all(labels[trip.anchors] != labels[trip.negatives])


def test_mine_semihard_matches_bruteforce(rng):
    z0 = rng.normal(size=(12, 3))
    labels = rng.integers(0, 3, size=12)
    trip = mine_triplets(labels, Tensor(z0), "semihard")
    assert np.all(labels[trip.anchors] == labels[trip.positives])
    assert np.all(labels[trip.anchors] != labels[trip.negatives])

    dist = np.linalg.norm(z0[:, None, :] - z0[None, :, :], axis=2)
    got = {(a, p): n for a, p, n in zip(trip.anchors, trip.positives, trip.negatives)}
    count = 0
    for a in range(12):
        negs = [j for j in range(12) if labels[j] != labels[a]]
        if not negs:
            continue
        for p in range(12):
            if p == a or labels[p] != labels[a]:
                continue
            count += 1
            beyond = [j for j in negs if dist[a, j] > dist[a, p]]
            pool = beyond if beyond else negs
            best = min(pool, key=lambda j: dist[a, j])
            assert got[(a, p)] == best
    assert count == len(trip)


# the per-pair mining loop the vectorized miner replaced, kept as its oracle


def loop_mine(labels, z, strategy, rng=None):
    anchors, positives, negatives = [], [], []
    if strategy == "semihard":
        sq = np.sum(z * z, axis=1)
        dist = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (z @ z.T), 0.0))
    for a in range(len(labels)):
        neg_pool = np.flatnonzero(labels != labels[a])
        if len(neg_pool) == 0:
            continue
        for p in np.flatnonzero(labels == labels[a]):
            if p == a:
                continue
            if strategy == "random":
                pick = rng.choice(neg_pool)
            else:
                d_neg = dist[a, neg_pool]
                beyond = d_neg > dist[a, p]
                if beyond.any():
                    pick = neg_pool[beyond][np.argmin(d_neg[beyond])]
                else:
                    pick = neg_pool[np.argmin(d_neg)]
            anchors.append(a)
            positives.append(p)
            negatives.append(int(pick))
    return anchors, positives, negatives


@st.composite
def mining_batches(draw):
    """Labels plus embeddings whose rows repeat a few distinct small-integer
    rows (so distance ties are common), optionally jittered."""
    n = draw(st.integers(2, 130))
    n_classes = draw(st.integers(1, 4))
    labels = np.array(draw(st.lists(st.integers(0, n_classes - 1),
                                    min_size=n, max_size=n)))
    dim = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
                         min_size=1, max_size=8))
    z = np.array(rows, dtype=np.float64)[
        draw(st.lists(st.integers(0, len(rows) - 1), min_size=n, max_size=n))]
    if draw(st.booleans()):
        z = z + 0.1 * np.random.default_rng(draw(st.integers(0, 99))).normal(size=z.shape)
    return labels, z


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(mining_batches(), st.integers(0, 2**32 - 1))
def test_mining_matches_per_pair_loop(batch, seed):
    labels, z = batch
    got = mine_triplets(labels, Tensor(z), "semihard")
    assert [list(got.anchors), list(got.positives), list(got.negatives)] == \
        list(loop_mine(labels, z, "semihard"))

    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = mine_triplets(labels, z, "random", rng=rng)
    assert [list(got.anchors), list(got.positives), list(got.negatives)] == \
        list(loop_mine(labels, z, "random", ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert got.anchors.dtype == got.negatives.dtype == np.intp


def test_mine_unknown_strategy():
    with pytest.raises(ValueError):
        mine_triplets([0, 1], Tensor(np.zeros((2, 2))), "hardcore")


def tape_triplet_loss(emb, trip):
    """The op-by-op composite the fused triplet_loss replaced."""
    def dist(i, j):
        d = T.sub(T.index_rows(emb, i), T.index_rows(emb, j))
        return T.sqrt((d * d).sum(axis=1))

    hinge = T.add(T.sub(dist(trip.anchors, trip.positives),
                        dist(trip.anchors, trip.negatives)), trip.margin)
    return T.relu(hinge).mean()


def fused_and_tape(z0, trip, scale=2.5):
    out = []
    for loss_fn in (triplet_loss, tape_triplet_loss):
        z = Tensor(z0.copy(), requires_grad=True)
        loss = loss_fn(T.l2_normalize(z), trip)
        (loss * scale).backward()
        out.append((loss.item(), z.grad))
    return out


@pytest.mark.parametrize("strategy", ["semihard", "random"])
def test_fused_triplet_matches_tape_composite(rng, strategy):
    for trial in range(10):
        z0 = rng.normal(size=(int(rng.integers(4, 40)), 5))
        labels = rng.integers(0, 3, size=len(z0))
        trip = mine_triplets(labels, z0, strategy, margin=0.5, rng=rng)
        if len(trip) == 0:
            continue
        (fused, g_fused), (tape, g_tape) = fused_and_tape(z0, trip)
        assert fused == pytest.approx(tape, rel=1e-12)
        np.testing.assert_allclose(g_fused, g_tape, rtol=1e-12, atol=1e-15)


def test_fused_triplet_gradient_finite_at_zero_distance():
    # row 1 repeats the anchor (d_pos = 0), row 2 repeats it too (d_neg = 0)
    z0 = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [-1.0, 0.5]])
    trip = TripletBatch([0, 0, 1], [1, 1, 0], [2, 3, 3], margin=2.0)
    (fused, g_fused), (tape, g_tape) = fused_and_tape(z0, trip)
    assert np.all(np.isfinite(g_fused)) and np.any(g_fused != 0)
    assert fused == pytest.approx(tape, rel=1e-12)
    np.testing.assert_allclose(g_fused, g_tape, rtol=1e-12, atol=1e-15)


def test_triplet_loss_argument_names():
    # the benchmark's triplet counter reads both arguments by keyword
    assert list(inspect.signature(triplet_loss).parameters) == ["embeddings", "triplets"]
    z = Tensor(np.array([[0.0], [0.5], [0.2]]))
    trip = TripletBatch([0], [1], [2])
    assert triplet_loss(embeddings=z, triplets=trip).item() == pytest.approx(0.5)


def test_cross_entropy_uniform_is_log_k():
    for k in (2, 5, 9):
        loss = T.softmax_cross_entropy(Tensor(np.zeros((4, k))), np.zeros(4, dtype=int))
        assert loss.item() == pytest.approx(np.log(k), rel=1e-12)


def test_cross_entropy_confident_goes_to_zero():
    logits = np.full((1, 3), -50.0)
    logits[0, 1] = 50.0
    assert T.softmax_cross_entropy(Tensor(logits), [1]).item() < 1e-12


def test_align_loss_zero_at_snapshot(rng):
    m = EmbeddingNet(5, 3, hidden=(8,), seed=4)
    snap = snapshot(m)
    x = rng.normal(size=(6, 5))
    assert lwf_align_loss(m, snap, x).item() == 0.0


def test_align_loss_nonnegative_and_grows(rng):
    m = EmbeddingNet(5, 3, hidden=(8,), seed=4)
    snap = snapshot(m)
    x = rng.normal(size=(6, 5))
    m.params[0].data += 0.3
    loss = lwf_align_loss(m, snap, x)
    assert loss.item() > 0.0


def test_align_loss_gradient_stays_on_current_model(rng):
    m = EmbeddingNet(4, 2, hidden=(16,), seed=9)
    snap = snapshot(m)
    m.params[0].data = m.params[0].data + 0.25  # move off the snapshot
    x = rng.normal(size=(5, 4))

    for p in m.params:
        p.zero_grad()
    lwf_align_loss(m, snap, x).backward()
    grads = [p.grad.copy() for p in m.params]
    assert any(np.abs(g).max() > 0 for g in grads)
    # snapshot arrays are untouched and still read-only
    assert all(not a.flags.writeable for a in snap)

    # finite differences over the full loss agree: nothing leaks elsewhere
    base = [p.data.copy() for p in m.params]

    def f_for(k):
        def f(x_arr):
            probe = EmbeddingNet(4, 2, hidden=(16,), seed=9)
            for p, b in zip(probe.params, base):
                p.data = b.copy()
            probe.params[k].data = x_arr
            return lwf_align_loss(probe, snap, x).item()
        return f

    for k in range(len(m.params)):
        num = numeric_grad(f_for(k), base[k].copy())
        assert max_rel_err(grads[k], num) < 1e-4


def test_align_loss_architecture_mismatch(rng):
    m = EmbeddingNet(4, 2, hidden=(6,), seed=0)
    other = EmbeddingNet(4, 3, hidden=(6,), seed=0)
    with pytest.raises(Exception):
        lwf_align_loss(m, snapshot(other), rng.normal(size=(2, 4)))


def one_param_model(values):
    m = EmbeddingNet.__new__(EmbeddingNet)
    m.input_dim = m.embedding_dim = len(values)
    m.params = [Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)]
    return m


def test_quadratic_penalty_trivial_values():
    m = one_param_model([2.0, 0.0])
    snap = (np.zeros(2),)
    imp = ImportanceMap("fisher", (np.ones(2),))
    # 1/2 * 1 * (2^2 + 0) = 2
    assert quadratic_penalty(m, snap, imp).item() == pytest.approx(2.0)

    m2 = one_param_model([0.0, 0.0])
    assert quadratic_penalty(m2, snap, imp).item() == 0.0


def test_quadratic_penalty_exact_zero_at_snapshot(rng):
    m = EmbeddingNet(4, 2, hidden=(5,), seed=1)
    snap = snapshot(m)
    imp = ImportanceMap("mas", tuple(np.abs(rng.normal(size=p.data.shape)) for p in m.params))
    assert quadratic_penalty(m, snap, imp).item() == 0.0
    m.params[2].data += 1e-3
    assert quadratic_penalty(m, snap, imp).item() > 0.0


def test_quadratic_penalty_gradient(rng):
    theta0 = rng.normal(size=5)
    anchor = rng.normal(size=5)
    w = np.abs(rng.normal(size=5))
    snap = (anchor,)
    imp = ImportanceMap("fisher", (w,))

    m = one_param_model(theta0)
    quadratic_penalty(m, snap, imp).backward()
    assert np.allclose(m.params[0].grad, w * (theta0 - anchor), atol=1e-12)

    def f(x):
        return quadratic_penalty(one_param_model(x), snap, imp).item()

    num = numeric_grad(f, theta0.copy())
    assert max_rel_err(m.params[0].grad, num) < 1e-4


def test_quadratic_penalty_shape_mismatch(rng):
    m = EmbeddingNet(4, 2, hidden=(5,), seed=1)
    snap = snapshot(m)
    bad = ImportanceMap("fisher", tuple(np.ones((2, 2)) for _ in m.params))
    with pytest.raises(ShapeError):
        quadratic_penalty(m, snap, bad)
    short = ImportanceMap("fisher", (np.ones((4, 5)),))
    with pytest.raises(ShapeError):
        quadratic_penalty(m, snap, short)


def test_importance_map_validation():
    with pytest.raises(ValueError):
        ImportanceMap("fisher", (np.array([1.0, -0.1]),))
    a = ImportanceMap("mas", (np.array([1.0, 2.0]),))
    b = ImportanceMap("mas", (np.array([3.0, 4.0]),))
    buffer = a.weights[0]
    assert a.add(b) is a and a.weights[0] is buffer  # summed in place
    assert a.weights[0].tolist() == [4.0, 6.0] and b.weights[0].tolist() == [3.0, 4.0]
    with pytest.raises(ValueError, match="cannot add a fisher map to a mas map"):
        a.add(ImportanceMap("fisher", (np.zeros(2),)))


# independent numpy-only pipeline used as the estimation oracle


def np_forward_raw(arrays, x):
    h = x
    n_layers = len(arrays) // 2
    for i in range(n_layers):
        h = h @ arrays[2 * i] + arrays[2 * i + 1]
        if i < n_layers - 1:
            h = np.maximum(h, 0.0)
    return h


def np_embed(arrays, x):
    raw = np_forward_raw(arrays, x)
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def interleaved_order(ds):
    """Test-side replica of the canonical order: byte-sorted per class,
    classes interleaved round-robin."""
    grouped = np.lexsort(([r.tobytes() for r in ds.features], ds.labels))
    out = []
    i = 0
    queues = [grouped[ds.labels[grouped] == c] for c in np.unique(ds.labels)]
    while any(i < len(q) for q in queues):
        out.extend(q[i] for q in queues if i < len(q))
        i += 1
    return np.asarray(out)


def test_fisher_matches_bruteforce_fd(rng):
    ds = gen_gaussian_clusters(2, 4, 4, spread=0.3, seed=5)
    m = EmbeddingNet(4, 2, hidden=(8,), seed=5)
    fisher = estimate_fisher(m, ds, batch_size=64)

    # canonical order + fixed mining reproduced independently
    order = interleaved_order(ds)
    feats, labels = ds.features[order], ds.labels[order]
    base = [p.data.copy() for p in m.params]
    trip = mine_triplets(labels, Tensor(np_embed(base, feats)), "semihard")

    def loss_at(arrays):
        z = np_embed(arrays, feats)
        dp = np.linalg.norm(z[trip.anchors] - z[trip.positives], axis=1)
        dn = np.linalg.norm(z[trip.anchors] - z[trip.negatives], axis=1)
        return float(np.mean(np.maximum(0.0, dp - dn + trip.margin)))

    for k in range(len(base)):
        def f(x, k=k):
            probe = [a.copy() for a in base]
            probe[k] = x
            return loss_at(probe)

        num = numeric_grad(f, base[k].copy())
        assert np.max(np.abs(fisher.weights[k] - num**2)) < 1e-8


def test_fisher_multibatch_is_mean_of_batches():
    ds = gen_gaussian_clusters(2, 8, 3, spread=0.2, seed=8)
    m = EmbeddingNet(3, 2, hidden=(6,), seed=8)
    order = interleaved_order(ds)
    feats, labels = ds.features[order], ds.labels[order]

    whole = estimate_fisher(m, ds, batch_size=8)
    halves = [
        estimate_fisher(m, LabeledDataset(feats[:8], labels[:8]), batch_size=8),
        estimate_fisher(m, LabeledDataset(feats[8:], labels[8:]), batch_size=8),
    ]
    for k in range(len(whole.weights)):
        mean = (halves[0].weights[k] + halves[1].weights[k]) / 2
        assert np.allclose(whole.weights[k], mean, atol=1e-12)


def test_fisher_order_invariance(rng):
    ds = gen_gaussian_clusters(3, 6, 4, spread=0.3, seed=2)
    m = EmbeddingNet(4, 2, hidden=(8,), seed=2)
    a = estimate_fisher(m, ds, batch_size=6)
    perm = rng.permutation(len(ds.labels))
    b = estimate_fisher(m, LabeledDataset(ds.features[perm], ds.labels[perm]), batch_size=6)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_fisher_nonnegative_and_preserves_grads(rng):
    ds = gen_gaussian_clusters(2, 5, 3, 0.2, seed=0)
    m = EmbeddingNet(3, 2, hidden=(16,), seed=0)
    m.params[0].grad[:] = 7.0
    fisher = estimate_fisher(m, ds, batch_size=10)
    assert all(np.all(w >= 0) for w in fisher.weights)
    assert np.all(m.params[0].grad == 7.0)


def test_fisher_single_class_errors():
    ds = gen_gaussian_clusters(1, 10, 3, 0.2, seed=0)
    m = EmbeddingNet(3, 2, hidden=(16,), seed=0)
    with pytest.raises(EstimationError):
        estimate_fisher(m, ds, batch_size=5)


def test_fisher_squared_norm_variant(rng):
    ds = gen_gaussian_clusters(2, 5, 3, 0.2, seed=1)
    m = EmbeddingNet(3, 2, hidden=(4,), seed=1)
    alt = estimate_fisher(m, ds, batch_size=10, variant="squared_norm")
    std = estimate_fisher(m, ds, batch_size=10)
    assert all(np.all(w >= 0) for w in alt.weights)
    assert any(not np.allclose(a, s) for a, s in zip(alt.weights, std.weights))
    with pytest.raises(ValueError):
        estimate_fisher(m, ds, variant="bogus")


def test_fisher_scores_the_given_margin():
    ds = gen_gaussian_clusters(2, 4, 4, spread=0.3, seed=5)
    m = EmbeddingNet(4, 2, hidden=(8,), seed=5)
    fisher = estimate_fisher(m, ds, batch_size=64, margin=0.5)
    order = interleaved_order(ds)
    z = m.embed(ds.features[order])
    trip = mine_triplets(ds.labels[order], z, "semihard", margin=0.5)
    for p in m.params:
        p.zero_grad()
    triplet_loss(z, trip).backward()
    for w, p in zip(fisher.weights, m.params):
        assert w.tobytes() == (p.grad * p.grad).tobytes()
    at_default = estimate_fisher(m, ds, batch_size=64)
    assert any(not np.array_equal(a, b) for a, b in zip(fisher.weights, at_default.weights))


def test_fisher_variant_checked_before_any_batch():
    empty = LabeledDataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="unknown fisher variant 'bogus'"):
        estimate_fisher(EmbeddingNet(3, 2, hidden=(4,), seed=0), empty, variant="bogus")


def test_mas_matches_bruteforce_fd():
    ds = gen_gaussian_clusters(2, 3, 4, spread=0.4, seed=6)
    m = EmbeddingNet(4, 2, hidden=(6,), seed=6)
    mas = estimate_mas_importance(m, ds)

    base = [p.data.copy() for p in m.params]
    feats = ds.features

    want = [np.zeros_like(a) for a in base]
    for x in feats:
        for k in range(len(base)):
            def f(arr, k=k, x=x):
                probe = [a.copy() for a in base]
                probe[k] = arr
                out = np_forward_raw(probe, x[None, :])
                return float(np.sum(out * out))

            want[k] += np.abs(numeric_grad(f, base[k].copy()))
    for k in range(len(base)):
        assert np.max(np.abs(mas.weights[k] - want[k] / len(feats))) < 1e-8


def test_mas_duplication_invariance():
    ds = gen_gaussian_clusters(2, 4, 3, 0.3, seed=3)
    m = EmbeddingNet(3, 2, hidden=(5,), seed=3)
    doubled = LabeledDataset(np.repeat(ds.features, 2, axis=0), np.repeat(ds.labels, 2))
    a = estimate_mas_importance(m, ds)
    b = estimate_mas_importance(m, doubled)
    for wa, wb in zip(a.weights, b.weights):
        assert np.allclose(wa, wb, atol=1e-12)


def test_mas_order_invariance_and_nonneg(rng):
    ds = gen_gaussian_clusters(2, 5, 3, 0.3, seed=4)
    m = EmbeddingNet(3, 2, hidden=(5,), seed=4)
    a = estimate_mas_importance(m, ds)
    perm = rng.permutation(len(ds.labels))
    b = estimate_mas_importance(m, LabeledDataset(ds.features[perm], ds.labels[perm]))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
        assert np.all(wa >= 0)


def test_mas_empty_dataset():
    m = EmbeddingNet(3, 2, hidden=(5,), seed=4)
    with pytest.raises(EstimationError):
        estimate_mas_importance(m, LabeledDataset(np.zeros((0, 3)), np.zeros(0, dtype=int)))


def loop_mas(model, dataset):
    """Reference MAS: one tape forward and backward per sample, in the
    canonical order, summing each sample's absolute parameter gradients."""
    acc = [np.zeros_like(p.data) for p in model.params]
    for x in dataset.features[interleaved_order(dataset)]:
        raw = model.forward_raw(x[None, :])
        for p in model.params:
            p.zero_grad()
        (raw * raw).sum().backward()
        for a, p in zip(acc, model.params):
            a += np.abs(p.grad)
    return [a / len(dataset.labels) for a in acc]


def mas_case(seed, depth, rows, lattice):
    """A model and dataset of ``rows`` rows, the first tenth of them (at
    least one) all zero. On ``lattice``, features and parameters lie in
    {-1, 0, 1}, so many ReLU inputs are exactly 0; otherwise the zero rows
    meet the zero biases."""
    r = np.random.default_rng(seed)
    m = EmbeddingNet(3, 2, hidden=(5, 4)[:depth], seed=seed)
    x = r.normal(size=(rows, 3))
    x[: max(1, rows // 10)] = 0.0
    if lattice:
        x = np.rint(np.clip(x, -1, 1))
        for p in m.params:
            p.data = np.rint(np.clip(2 * p.data, -1, 1))
    return m, LabeledDataset(x, r.integers(0, 3, size=rows))


@settings(max_examples=25)
@given(seed=st.integers(0, 2**16), depth=st.integers(0, 2),
       rows=st.integers(1, 1100), lattice=st.booleans())
@example(seed=1, depth=2, rows=1100, lattice=False)  # three 512-row blocks
@example(seed=2, depth=1, rows=513, lattice=True)
def test_batched_mas_matches_per_sample_loop(seed, depth, rows, lattice):
    m, ds = mas_case(seed, depth, rows, lattice)
    got = estimate_mas_importance(m, ds).weights
    for g, want in zip(got, loop_mas(m, ds)):
        np.testing.assert_allclose(g, want, rtol=1e-12, atol=0)


def test_batched_mas_leaves_grads_and_tape_alone(monkeypatch):
    m, ds = mas_case(7, 2, 600, lattice=False)
    for p in m.params:
        p.grad[...] = 7.0

    def no_backward(self):
        raise AssertionError("the MAS estimate must not run the tape")

    monkeypatch.setattr(Tensor, "backward", no_backward)
    estimate_mas_importance(m, ds)
    assert all(np.all(p.grad == 7.0) for p in m.params)


def test_quadratic_penalty_bytes_match_textbook_formula(rng):
    m = EmbeddingNet(4, 3, hidden=(6,), seed=0)
    snap = snapshot(m)
    for p in m.params:
        p.data = p.data + rng.normal(size=p.data.shape)
        p.zero_grad()
    imp = ImportanceMap("fisher", tuple(np.abs(rng.normal(size=p.data.shape))
                                     for p in m.params))
    loss = Tensor(3.7) * quadratic_penalty(m, snap, imp)
    loss.backward()
    ds = [p.data - old for p, old in zip(m.params, snap)]
    value = sum(np.sum(0.5 * w * d * d) for w, d in zip(imp.weights, ds))
    assert loss.item() == 3.7 * value
    for p, w, d in zip(m.params, imp.weights, ds):
        assert p.grad.tobytes() == (np.float64(3.7) * w * d).tobytes()


def composite_penalty(model, snap, importance):
    """Reference quadratic penalty built from elementwise tape ops."""
    total = Tensor(0.0)
    for p, old, w in zip(model.params, snap, importance.weights):
        d = T.sub(p, Tensor(old))
        total = total + (Tensor(0.5 * w) * d * d).sum()
    return total


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_fused_quadratic_penalty_matches_composite(rng, depth):
    m = EmbeddingNet(4, 3, hidden=(6, 5)[:depth], seed=depth)
    snap = snapshot(m)
    for p in m.params:
        p.data = p.data + rng.normal(size=p.data.shape)
    imp = ImportanceMap("mas", tuple(np.abs(rng.normal(size=p.data.shape))
                                     for p in m.params))
    values, grads = [], []
    for build in (quadratic_penalty, composite_penalty):
        for p in m.params:
            p.zero_grad()
        loss = build(m, snap, imp)
        loss.backward()
        values.append(loss.item())
        grads.append([p.grad.copy() for p in m.params])
    assert values[0] == pytest.approx(values[1], rel=1e-12)
    for fused, composite in zip(*grads):
        np.testing.assert_allclose(fused, composite, rtol=1e-12, atol=0)
