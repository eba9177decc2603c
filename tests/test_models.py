import numpy as np
import pytest

from driftlab import losses, models, prototypes
from driftlab.data import gen_gaussian_clusters
from driftlab.models import (
    EmbeddingNet,
    GrowingSoftmaxNet,
    infer,
    snapshot,
)
from driftlab.optim import Adam
from driftlab.tensor import ShapeError, StateError, Tensor
from driftlab import tensor as T


def test_embed_rows_unit_norm(rng):
    m = EmbeddingNet(input_dim=6, embedding_dim=3, seed=1)
    z = m.embed(rng.normal(size=(20, 6))).data
    assert np.max(np.abs(np.linalg.norm(z, axis=1) - 1.0)) < 1e-10


def test_embed_deterministic(rng):
    x = rng.normal(size=(4, 5))
    m = EmbeddingNet(5, 2, seed=3)
    assert np.array_equal(m.embed(x).data, m.embed(x).data)
    m2 = EmbeddingNet(5, 2, seed=3)
    assert np.array_equal(m.embed(x).data, m2.embed(x).data)


def test_embed_shape_check(rng):
    m = EmbeddingNet(5, 2)
    with pytest.raises(ShapeError):
        m.embed(rng.normal(size=(4, 7)))


def test_init_kaiming_bounds_and_zero_bias():
    m = EmbeddingNet(100, 8, hidden=(64,), seed=0)
    w1 = m.params[0].data
    assert np.max(np.abs(w1)) <= np.sqrt(6.0 / 100)
    assert np.array_equal(m.params[1].data, np.zeros(64))


def test_add_head_isolation(rng):
    m = GrowingSoftmaxNet(4, feat_dim=6, seed=0)
    m.add_head(range(5))
    assert len(m.heads) == 1 and m.heads[0][0].data.shape == (6, 5)
    first = m.heads[0][0].data.copy()
    m.add_head(np.array([9, 5, 7]))
    assert len(m.heads) == 2
    assert np.array_equal(m.heads[0][0].data, first)
    assert m.heads[0][2] == (0, 1, 2, 3, 4)
    assert m.heads[1][2] == (9, 5, 7)
    assert all(type(c) is int for c in m.heads[1][2])
    with pytest.raises(ValueError):
        m.add_head(())


def test_multihead_single_head_is_plain_argmax(rng):
    m = GrowingSoftmaxNet(4, 6, seed=2)
    m.add_head((0, 1, 2))
    x = rng.normal(size=(10, 4))
    feats = m.features_np(x)
    w, b, _ = m.heads[0]
    want = (feats @ w.data + b.data).argmax(axis=1)
    assert np.array_equal(m.predict_multihead(x), want)


def test_multihead_matches_concat_bruteforce(rng):
    m = GrowingSoftmaxNet(5, 4, seed=7)
    m.add_head((0, 1, 2))
    m.add_head((3, 4))
    m.add_head((5, 6, 7, 8))
    x = rng.normal(size=(30, 5))
    feats = m.features_np(x)

    rows = []
    for w, b, _ in m.heads:
        logits = feats @ w.data + b.data
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        rows.append(e / e.sum(axis=1, keepdims=True))
    concat = np.concatenate(rows, axis=1)
    assert np.array_equal(m.predict_multihead(x), concat.argmax(axis=1))


def test_multihead_higher_confidence_wins():
    m = GrowingSoftmaxNet(2, 2, hidden=(), seed=0)
    m.add_head((0, 1))
    m.add_head((2, 3))
    # force head 0 to be confident, head 1 flat, via handcrafted params
    m.trunk[0].data[:] = np.eye(2)
    m.trunk[1].data[:] = 0.0
    m.heads[0][0].data[:] = [[8.0, 0.0], [0.0, 0.0]]
    m.heads[1][0].data[:] = 0.0
    pred = m.predict_multihead(np.array([[1.0, 0.0]]))
    assert pred[0] == 0


def test_predict_without_heads():
    m = GrowingSoftmaxNet(3, 2)
    with pytest.raises(StateError):
        m.predict_multihead(np.zeros((1, 3)))


def test_penultimate_dim_contract(rng):
    m = GrowingSoftmaxNet(7, feat_dim=9, seed=1)
    assert m.features_np(rng.normal(size=(3, 7))).shape == (3, 9)


def test_snapshot_restore_round_trip(rng):
    """A snapshot outlives training: it stays frozen, and inference over it
    reproduces the model as it was."""
    m = EmbeddingNet(4, 2, seed=5)
    snap = snapshot(m)
    before = [p.data.copy() for p in m.params]
    probe = rng.normal(size=(6, 4))
    z_before = m.embed_np(probe)

    # a few real training steps perturb everything
    opt = Adam(m.params, lr=1e-2)
    x = rng.normal(size=(8, 4))
    for _ in range(3):
        opt.step(m.forward_raw(x).sum())
    assert any(not np.array_equal(p.data, b) for p, b in zip(m.params, before))
    # snapshot stayed immutable while the model moved
    for a, b in zip(snap, before):
        assert np.array_equal(a, b)
        assert not a.flags.writeable

    assert not np.array_equal(m.embed_np(probe), z_before)
    assert np.array_equal(infer(snap, probe, normalize=True), z_before)


def test_snapshot_and_infer_check_kind_and_shape(rng):
    s = GrowingSoftmaxNet(4, 2)
    s.add_head((0, 1))
    with pytest.raises(StateError):
        snapshot(s)
    snap = snapshot(EmbeddingNet(4, 2))
    for x in (rng.normal(size=(3, 5)), rng.normal(size=(3, 3)), rng.normal(size=4)):
        for normalize in (False, True):
            with pytest.raises(ShapeError, match=r"expected \[n, 4\]"):
                infer(snap, x, normalize=normalize)


@pytest.fixture
def nets_built(monkeypatch):
    """Counts EmbeddingNet and GrowingSoftmaxNet constructions."""
    built = []
    for cls in (EmbeddingNet, GrowingSoftmaxNet):
        init = cls.__init__

        def counted(self, *args, _init=init, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


def test_embed_np_matches_embed_and_builds_no_net(rng, nets_built, monkeypatch):
    m = EmbeddingNet(6, 3, hidden=(16, 8), seed=4)
    x = rng.normal(size=(40, 6))
    want = m.embed(x).data
    del nets_built[:]
    got = m.embed_np(x)
    assert np.array_equal(got, want)
    monkeypatch.setattr(models, "INFER_ROWS", 7)
    assert np.array_equal(m.embed_np(x), want)  # chunking is row-wise
    assert m.embed_np(np.zeros((0, 6))).shape == (0, 3)
    with pytest.raises(ShapeError):
        m.embed_np(rng.normal(size=(2, 5)))
    assert nets_built == []


def test_softmax_inference_builds_no_net(rng, nets_built):
    s = GrowingSoftmaxNet(5, 4, hidden=(8,), seed=1)
    s.add_head((0, 1, 2))
    x = rng.normal(size=(12, 5))
    del nets_built[:]
    assert np.array_equal(s.features_np(x), models._run_stack(s.trunk, x).data)
    s.predict_multihead(x)
    assert nets_built == []


def test_infer_records_no_tape(rng):
    m = EmbeddingNet(4, 3, hidden=(5,), seed=2)
    params = [p.data for p in m.params]
    out = models._run_stack(params, rng.normal(size=(3, 4)))
    assert not out.requires_grad and out._parents == ()
    assert models.infer(params, np.zeros((0, 4))).shape == (0, 3)


def test_lwf_and_collect_drift_build_no_net(rng, nets_built):
    ds = gen_gaussian_clusters(2, 8, 4, 0.2, seed=1)
    m = EmbeddingNet(4, 3, hidden=(8,), seed=1)
    snap = snapshot(m)
    del nets_built[:]
    loss = losses.lwf_align_loss(m, snap, ds.features[:5])
    assert loss.item() == 0.0
    field = prototypes.collect_drift(m.embed_np(ds.features), m.embed_np(ds.features))
    assert np.max(np.abs(field[1])) == 0.0
    assert nets_built == []


def test_eft_step_tapes_one_node_per_layer(rng):
    m = EmbeddingNet(64, 64, hidden=(256, 256), seed=0)
    opt = Adam(m.params, lr=1e-3)
    ds = gen_gaussian_clusters(4, 8, 64, 0.3, seed=0)
    z = m.embed(ds.features)
    loss = losses.triplet_loss(z, losses.mine_triplets(ds.labels, z, "semihard",
                                                       rng=rng))
    ops = [n for n in T._toposort(loss) if n._parents]
    # three dense layers, then l2_normalize and triplet_loss
    assert len(ops) == 5 and ops[-2:] == [z, loss]
    params = [id(p) for p in m.params]
    for i, node in enumerate(ops[:3]):
        assert [id(p) for p in node._parents[1:]] == params[2 * i : 2 * i + 2]
    opt.step(loss)


def test_trained_embedding_separates_synthetic_classes(rng):
    """After triplet-free supervised pull (simple pull-to-center loss),
    intra-class distances shrink below inter-class ones."""
    from driftlab.data import gen_gaussian_clusters

    ds = gen_gaussian_clusters(2, 40, 4, spread=0.15, seed=3)
    m = EmbeddingNet(4, 2, hidden=(32,), seed=3)
    opt = Adam(m.params, lr=5e-3)
    targets = np.array([[1.0, 0.0], [0.0, 1.0]])[ds.labels]
    for _ in range(60):
        z = m.embed(ds.features)
        d = T.sub(z, Tensor(targets))
        opt.step((d * d).sum())
    z = m.embed_np(ds.features)
    za, zb = z[ds.labels == 0], z[ds.labels == 1]
    intra = np.linalg.norm(za - za.mean(0), axis=1).mean() + np.linalg.norm(
        zb - zb.mean(0), axis=1
    ).mean()
    inter = np.linalg.norm(za.mean(0) - zb.mean(0))
    assert intra / 2 < inter
