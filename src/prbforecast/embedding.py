"""Token embeddings: a learned linear projection of the 9 continuous KPI
features, summed with positional, month, weekday, hour, minute-slot, and
carrier lookup tables. Encoder and decoder keep separate positional tables
(window semantics differ); the projection is shared between the two sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import N_CARRIERS, N_FEATURES
from .tensor import Tensor

TABLE_ROWS = {"month": 12, "weekday": 7, "hour": 24, "minute": 4, "carrier": N_CARRIERS}
META_ORDER = ("month", "weekday", "hour", "minute", "carrier")
META_ROWS = np.array([TABLE_ROWS[name] for name in META_ORDER], dtype=np.uint64)


@dataclass
class EmbeddingTables:
    w_proj: Tensor   # (9, d_emb)
    b_proj: Tensor   # (d_emb,)
    enc_pos: Tensor  # (N, d_emb)
    dec_pos: Tensor  # (M, d_emb)
    month: Tensor    # (12, d_emb)
    weekday: Tensor  # (7, d_emb)
    hour: Tensor     # (24, d_emb)
    minute: Tensor   # (4, d_emb)
    carrier: Tensor  # (21, d_emb)

    @classmethod
    def create(cls, d_emb: int, n_past: int, n_future: int, new) -> "EmbeddingTables":
        """The tables from the tensor factory `new` (`model.drawing_factory`)."""
        return cls(
            w_proj=new((N_FEATURES, d_emb), N_FEATURES),
            b_proj=new((d_emb,)),
            enc_pos=new((n_past, d_emb), d_emb),
            dec_pos=new((n_future, d_emb), d_emb),
            **{name: new((rows, d_emb), d_emb) for name, rows in TABLE_ROWS.items()},
        )


def embed_tokens(tables: EmbeddingTables, features: np.ndarray, meta: np.ndarray,
                 pos_table: Tensor, dropout_rate: float = 0.0) -> Tensor:
    """Build (B, T, d_emb) tokens from (B, T, 9) features and (B, T, 5) meta
    over `pos_table`, `tables.enc_pos` (T = N) or `tables.dec_pos` (T = M),
    with dropout at `dropout_rate` after the embedding sum."""
    batch, steps, n_feat = features.shape
    if n_feat != N_FEATURES:
        raise T.ShapeError(f"expected {N_FEATURES} features, got {n_feat}")
    if steps != pos_table.shape[0]:
        raise T.ShapeError(
            f"window of {steps} steps does not match positional table "
            f"of length {pos_table.shape[0]}")
    if meta.shape != (batch, steps, len(META_ORDER)):
        raise T.ShapeError(f"meta shape {meta.shape} does not match features")
    x = Tensor(features, dtype=tables.w_proj.data.dtype)
    out = embedding_sum(T.linear(x, tables.w_proj, tables.b_proj), pos_table, tables, meta)
    return T.dropout(out, dropout_rate)


def embedding_sum(proj: Tensor, pos_table: Tensor, tables: EmbeddingTables,
                  meta: np.ndarray) -> Tensor:
    """(B, T, d) `proj` plus each step's `pos_table` row, then the month,
    weekday, hour, minute and carrier rows that (B, T, 5) `meta` names, added
    in that order as one tape op. `proj` and the tables share one dtype. Value
    and gradients are bit-identical to the chain of `add` and `embedding_lookup`
    ops; each table gets the same one-hot GEMM gradient. An index outside its
    table raises IndexError naming the first such table."""
    meta = np.asarray(meta, dtype=np.int64)
    # Viewed as uint64 a negative index wraps above every table size, so one
    # compare checks both bounds.
    bad = meta.view(np.uint64) >= META_ROWS
    if bad.any():
        i = int(np.argmax(bad.reshape(-1, len(META_ORDER)).any(axis=0)))
        col, name = meta[..., i], META_ORDER[i]
        raise IndexError(f"{name} index out of range: "
                         f"[{col.min()}, {col.max()}] vs {TABLE_ROWS[name]} rows")
    lookups = [(pos_table, np.arange(proj.shape[1]))]
    lookups += [(getattr(tables, name), meta[..., i]) for i, name in enumerate(META_ORDER)]
    out = proj.data
    for table, idx in lookups:
        out = out + table.data[idx]
    table_grads = [(table.slot, idx) for table, idx in lookups if table.slot is not None]
    proj_slot = proj.slot

    def backward(g):
        for slot, idx in table_grads:
            flat = np.broadcast_to(idx, g.shape[:-1]).reshape(-1)
            one_hot = (flat[:, None] == np.arange(slot.shape[0])).astype(g.dtype)
            T._accumulate(slot, one_hot.T @ g.reshape(-1, g.shape[-1]))
        T._accumulate(proj_slot, g)

    return T._result(out, (proj, *(table for table, _ in lookups)), backward)
