import numpy as np
import pytest

from prbforecast import tensor as T
from prbforecast.embedding import META_ORDER, EmbeddingTables, embed_tokens, embedding_sum
from prbforecast.model import Hyperparams, drawing_factory

from conftest import assert_grads_close, central_diff


def make_tables(d_emb=8, n_past=4, n_future=2, seed=0):
    return EmbeddingTables.create(d_emb, n_past, n_future,
                                  drawing_factory(np.random.default_rng(seed)))


def make_inputs(batch=2, steps=4, seed=1):
    rng = np.random.default_rng(seed)
    features = rng.random((batch, steps, 9)).astype(np.float32)
    meta = np.stack([
        rng.integers(0, 12, (batch, steps)),
        rng.integers(0, 7, (batch, steps)),
        rng.integers(0, 24, (batch, steps)),
        rng.integers(0, 4, (batch, steps)),
        rng.integers(0, 21, (batch, steps)),
    ], axis=-1)
    return features, meta


def test_zeroed_tables_reduce_to_projection():
    tables = make_tables()
    for name in ("b_proj", "enc_pos", "month", "weekday", "hour", "minute", "carrier"):
        getattr(tables, name).data[:] = 0.0
    features, meta = make_inputs()
    out = embed_tokens(tables, features, meta, tables.enc_pos)
    expected = features @ tables.w_proj.data
    np.testing.assert_allclose(out.data, expected, atol=1e-6)


def test_carrier_additivity():
    tables = make_tables()
    features, meta = make_inputs(batch=1, steps=4)
    meta_a = meta.copy()
    meta_b = meta.copy()
    meta_a[..., 4] = 3
    meta_b[..., 4] = 7
    out_a = embed_tokens(tables, features, meta_a, tables.enc_pos)
    out_b = embed_tokens(tables, features, meta_b, tables.enc_pos)
    diff = tables.carrier.data[3] - tables.carrier.data[7]
    np.testing.assert_allclose(out_a.data - out_b.data,
                               np.broadcast_to(diff, out_a.shape), atol=1e-6)


def test_single_category_change_shifts_by_row_difference():
    tables = make_tables()
    features, meta = make_inputs(batch=1, steps=4)
    meta_a = meta.copy()
    meta_b = meta.copy()
    meta_a[0, 2, 2] = 5   # hour index of one token
    meta_b[0, 2, 2] = 19
    out_a = embed_tokens(tables, features, meta_a, tables.enc_pos)
    out_b = embed_tokens(tables, features, meta_b, tables.enc_pos)
    delta = out_a.data - out_b.data
    np.testing.assert_allclose(delta[0, [0, 1, 3]], 0.0, atol=1e-6)
    np.testing.assert_allclose(delta[0, 2],
                               tables.hour.data[5] - tables.hour.data[19], atol=1e-6)


def test_default_config_output_shape():
    hp = Hyperparams()
    tables = EmbeddingTables.create(hp.d_emb, hp.n_past, hp.n_future,
                                    drawing_factory(np.random.default_rng(0)))
    features, meta = make_inputs(batch=1, steps=hp.n_past)
    out = embed_tokens(tables, features, meta, tables.enc_pos)
    assert out.shape == (1, 4, 64)


def test_decoder_side_uses_its_own_positional_table():
    tables = make_tables()
    features, meta = make_inputs(batch=1, steps=2)
    enc_like = embed_tokens(tables, features, meta, tables.dec_pos)
    assert enc_like.shape == (1, 2, 8)
    tables.dec_pos.data[:] += 1.0
    shifted = embed_tokens(tables, features, meta, tables.dec_pos)
    np.testing.assert_allclose(shifted.data - enc_like.data, 1.0, atol=1e-6)


@pytest.mark.parametrize("pos", ["enc_pos", "dec_pos"])
def test_window_length_mismatch_rejected(pos):
    tables = make_tables()
    features, meta = make_inputs(batch=1, steps=3)
    with pytest.raises(T.ShapeError, match="3 steps"):
        embed_tokens(tables, features, meta, getattr(tables, pos))


def test_meta_out_of_range_rejected():
    tables = make_tables()
    features, meta = make_inputs()
    meta[..., 0] = 12
    with pytest.raises(IndexError, match="month"):
        embed_tokens(tables, features, meta, tables.enc_pos)


@pytest.mark.parametrize("bad, message", [
    ({4: 21}, r"carrier index out of range: \[\d+, 21\] vs 21 rows"),
    ({2: -1}, r"hour index out of range: \[-1, \d+\] vs 24 rows"),
    ({4: 21, 2: -1}, r"hour index out of range"),  # the first bad table is named
], ids=["carrier_21", "negative_hour", "first_of_two"])
def test_meta_out_of_range_names_the_table_and_its_rows(bad, message):
    tables = make_tables()
    features, meta = make_inputs()
    for column, value in bad.items():
        meta[0, 1, column] = value
    with pytest.raises(IndexError, match=message):
        embed_tokens(tables, features, meta, tables.enc_pos)


def composed_embedding_sum(proj, pos_table, tables, meta):
    """The per-table op chain that `embedding_sum` replaces."""
    positions = np.broadcast_to(np.arange(proj.shape[1]), proj.shape[:2])
    out = T.add(proj, T.embedding_lookup(pos_table, positions))
    for i, name in enumerate(META_ORDER):
        out = T.add(out, T.embedding_lookup(getattr(tables, name), meta[..., i]))
    return out


def table_leaves(tables):
    return [tables.enc_pos] + [getattr(tables, name) for name in META_ORDER]


def test_embedding_sum_is_bitwise_equal_to_the_lookup_chain():
    """At B=400 with a float32 projection and float32 tables, as in the model."""
    features, meta = make_inputs(batch=400, steps=4, seed=7)
    rng = np.random.default_rng(8)
    proj_data = rng.standard_normal((400, 4, 64))
    probe = T.Tensor(rng.standard_normal((400, 4, 64)))
    results = []
    for op in (composed_embedding_sum, embedding_sum):
        tables = make_tables(d_emb=64, seed=9)
        proj = T.Tensor(proj_data, requires_grad=True, dtype=np.float32)
        out = op(proj, tables.enc_pos, tables, meta)
        T.backward(T.tsum(T.mul(out, probe)))
        results.append([out.data, proj.grad] + [t.grad for t in table_leaves(tables)])
    for want, got in zip(*results):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_embedding_sum_gradient_matches_finite_differences():
    tables = make_tables(d_emb=3, seed=10)
    leaves = table_leaves(tables)
    for t in leaves:
        t.data = t.data.astype(np.float64)
    _, meta = make_inputs(batch=2, steps=4, seed=11)
    rng = np.random.default_rng(12)
    proj = T.Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True, dtype=np.float64)
    probe = T.Tensor(rng.standard_normal((2, 4, 3)), dtype=np.float64)
    leaves = [proj] + leaves

    def loss():
        return float((embedding_sum(proj, tables.enc_pos, tables, meta).data
                      * probe.data).sum())

    numeric = central_diff(loss, leaves)
    T.backward(T.tsum(T.mul(embedding_sum(proj, tables.enc_pos, tables, meta), probe)))
    for leaf, num in zip(leaves, numeric):
        assert_grads_close(leaf.grad, num)


def test_table_row_gradient_only_for_used_indices():
    tables = make_tables()
    features, meta = make_inputs(batch=1, steps=4, seed=2)
    meta[..., 2] = np.array([[3, 3, 17, 5]])  # hours used: {3, 5, 17}
    out = embed_tokens(tables, features, meta, tables.enc_pos)
    T.backward(T.tsum(out))
    grad_norms = np.abs(tables.hour.grad).sum(axis=1)
    used = {3, 5, 17}
    for h in range(24):
        if h in used:
            assert grad_norms[h] > 0
        else:
            assert grad_norms[h] == 0
