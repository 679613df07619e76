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


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(np.float32),
                  requires_grad=True)


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
    def create(cls, d_emb: int, n_past: int, n_future: int,
               rng: np.random.Generator) -> "EmbeddingTables":
        return cls(
            w_proj=_uniform(rng, (N_FEATURES, d_emb), N_FEATURES),
            b_proj=Tensor(np.zeros(d_emb, dtype=np.float32), requires_grad=True),
            enc_pos=_uniform(rng, (n_past, d_emb), d_emb),
            dec_pos=_uniform(rng, (n_future, d_emb), d_emb),
            month=_uniform(rng, (12, d_emb), d_emb),
            weekday=_uniform(rng, (7, d_emb), d_emb),
            hour=_uniform(rng, (24, d_emb), d_emb),
            minute=_uniform(rng, (4, d_emb), d_emb),
            carrier=_uniform(rng, (N_CARRIERS, d_emb), d_emb),
        )


def embed_tokens(tables: EmbeddingTables, features: np.ndarray, meta: np.ndarray,
                 side: str, dropout_rate: float = 0.0, training: bool = False) -> Tensor:
    """Build (B, T, d_emb) tokens from (B, T, 9) features and (B, T, 5) meta.

    `side` selects the positional table: "encoder" (T = N) or "decoder"
    (T = M). Dropout is applied after the embedding sum when training.
    """
    if side == "encoder":
        pos_table = tables.enc_pos
    elif side == "decoder":
        pos_table = tables.dec_pos
    else:
        raise ValueError(f"side must be 'encoder' or 'decoder', got {side!r}")
    batch, steps, n_feat = features.shape
    if n_feat != N_FEATURES:
        raise T.ShapeError(f"expected {N_FEATURES} features, got {n_feat}")
    if steps != pos_table.shape[0]:
        raise T.ShapeError(
            f"{side} window of {steps} steps does not match positional table "
            f"of length {pos_table.shape[0]}")
    if meta.shape != (batch, steps, len(META_ORDER)):
        raise T.ShapeError(f"meta shape {meta.shape} does not match features")
    for i, name in enumerate(META_ORDER):
        col = meta[..., i]
        if col.min() < 0 or col.max() >= TABLE_ROWS[name]:
            raise IndexError(f"{name} index out of range: "
                             f"[{col.min()}, {col.max()}] vs {TABLE_ROWS[name]} rows")

    x = Tensor(features, dtype=tables.w_proj.data.dtype)
    out = T.linear(x, tables.w_proj, tables.b_proj)
    positions = np.broadcast_to(np.arange(steps), (batch, steps))
    out = T.add(out, T.embedding_lookup(pos_table, positions))
    for i, name in enumerate(META_ORDER):
        out = T.add(out, T.embedding_lookup(getattr(tables, name), meta[..., i]))
    return T.dropout(out, dropout_rate, training)
