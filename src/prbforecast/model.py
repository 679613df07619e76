"""Sequence-to-sequence transformer with a hybrid output head.

A post-norm encoder (full self-attention over the N-step history) feeds a
decoder whose layers run causal self-attention, cross-attention over the
encoder output, and a position-wise feed-forward block. The head maps each
decoder position to 8 deterministic KPI values plus 3 residual-PRB
quantiles (q = 0.1, 0.5, 0.9). At inference the quantiles are sorted
ascending and clipped to [0,1]; the training loss sees the raw head outputs
so each pinball term keeps its own gradient.

Tokens are a learned linear projection of the 9 continuous KPI features,
summed with positional, month, weekday, hour, minute-slot, and carrier
lookup tables. Encoder and decoder keep separate positional tables (window
semantics differ); the projection is shared between the two sides.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import ClassVar

import numpy as np

from . import tensor as T
from .data import N_CARRIERS, N_DET_FEATURES, N_FEATURES
from .tensor import Tensor

QUANTILES = (0.1, 0.5, 0.9)
MAX_PARAMS = 10 ** 8  # 400 MB of float32 weights, before gradients and Adam moments
TABLE_ROWS = {"month": 12, "weekday": 7, "hour": 24, "minute": 4, "carrier": N_CARRIERS}
META_ORDER = ("month", "weekday", "hour", "minute", "carrier")
META_ROWS = np.array([TABLE_ROWS[name] for name in META_ORDER], dtype=np.uint64)


@dataclass(frozen=True)
class Hyperparams:
    d_emb: int = 64
    n_enc_layers: int = 2
    n_dec_layers: int = 3
    heads: int = 8
    d_ff: int = 256
    dropout: float = 0.1
    n_past: int = 4
    n_future: int = 2
    quantiles: ClassVar[tuple] = QUANTILES  # fixed head layout, not a setting

    def __post_init__(self):
        for name in ("d_emb", "n_enc_layers", "n_dec_layers", "heads", "d_ff",
                     "n_past", "n_future"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.d_emb % self.heads != 0:
            raise ValueError(f"d_emb {self.d_emb} not divisible by heads {self.heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0,1)")

    def to_dict(self) -> dict:
        return {**asdict(self), "quantiles": list(QUANTILES)}

    @classmethod
    def from_dict(cls, doc) -> "Hyperparams":
        """Validated hyperparameters from the `hyperparams` JSON object of a
        config file or a checkpoint header; absent keys take the defaults.
        A model of more than `MAX_PARAMS` parameters is refused before any
        weight is made."""
        d = read_settings("hyperparams", cls().to_dict(), doc)
        quantiles = d.pop("quantiles")
        if not isinstance(quantiles, (list, tuple)) or tuple(quantiles) != QUANTILES:
            raise ValueError(f"config key 'hyperparams.quantiles' is fixed at "
                             f"{list(QUANTILES)}, got {quantiles!r}")
        hp = cls(**d)
        count = param_count(hp)  # counted, not drawn
        if count > MAX_PARAMS:
            raise ValueError(f"out of memory: hyperparams make a model of {count} "
                             f"parameters, more than the {MAX_PARAMS} allowed")
        return hp


def read_settings(section: str, defaults: dict, doc) -> dict:
    """`defaults` updated from the JSON object `doc`, the one type check of
    config files and checkpoint headers. Each key of `doc` must be a key of
    `defaults`; where the default is an int the value must be an integer,
    where it is a float a finite number (true/false are neither); other
    values pass unchecked. Errors are ValueErrors naming 'section.key'
    (plain 'key' when `section` is "", the top level of a config)."""
    prefix = f"{section}." if section else ""
    if not isinstance(doc, dict):
        raise ValueError(f"config section {section!r} must be a JSON object" if section
                         else "config must be a JSON object")
    unknown = set(doc) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(prefix + k for k in unknown)}")
    for key, value in doc.items():
        default = defaults[key]
        if not isinstance(default, (int, float)):
            continue
        integer = isinstance(default, int)
        if (isinstance(value, bool) or not isinstance(value, int if integer else (int, float))
                or isinstance(value, float) and not math.isfinite(value)):
            kind = "an integer" if integer else "a finite number"
            raise ValueError(f"config key {prefix + key!r} must be {kind}, got {value!r}")
    return {**defaults, **doc}


def drawing_factory(rng: np.random.Generator):
    """The tensor factory of a fresh model: `new(shape, fan_in)` draws a weight
    uniform in ±1/sqrt(fan_in) from `rng` (float64, cast to float32);
    `new(shape, fill=...)` is constant (biases 0, layer-norm gains 1). Each
    `create` makes its tensors in field order, the draw and payload order."""
    def new(shape, fan_in=None, fill=0.0):
        if fan_in is None:
            return Tensor(np.full(shape, fill, dtype=np.float32), requires_grad=True)
        bound = 1.0 / np.sqrt(fan_in)
        return Tensor(rng.uniform(-bound, bound, size=shape).astype(np.float32),
                      requires_grad=True)

    return new


def named_tensors(node, prefix: str) -> list[tuple[str, Tensor]]:
    """Every tensor under a parameter dataclass or a list of them, in field
    (or list) order, named by its dotted path from `prefix`."""
    if isinstance(node, Tensor):
        return [(prefix, node)]
    children = (enumerate(node) if isinstance(node, list)
                else ((f.name, getattr(node, f.name)) for f in fields(node)))
    return [pair for key, child in children
            for pair in named_tensors(child, f"{prefix}.{key}")]


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
        """The tables from the tensor factory `new` (`drawing_factory`)."""
        return cls(
            w_proj=new((N_FEATURES, d_emb), N_FEATURES),
            b_proj=new((d_emb,)),
            enc_pos=new((n_past, d_emb), d_emb),
            dec_pos=new((n_future, d_emb), d_emb),
            **{name: new((rows, d_emb), d_emb) for name, rows in TABLE_ROWS.items()},
        )


@dataclass
class LayerNormParams:
    gain: Tensor
    bias: Tensor

    @classmethod
    def create(cls, d: int, new) -> "LayerNormParams":
        return cls(new((d,), fill=1.0), new((d,)))


@dataclass
class AttentionParams:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor

    @classmethod
    def create(cls, d: int, new) -> "AttentionParams":
        # weight then bias, for each of q, k, v and the output projection
        return cls(*[t for _ in "qkvo" for t in (new((d, d), d), new((d,)))])


@dataclass
class FeedForwardParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def create(cls, d: int, d_ff: int, new) -> "FeedForwardParams":
        return cls(new((d, d_ff), d), new((d_ff,)), new((d_ff, d), d_ff), new((d,)))


@dataclass
class EncoderLayer:
    attn: AttentionParams
    ff: FeedForwardParams
    ln1: LayerNormParams
    ln2: LayerNormParams

    @classmethod
    def create(cls, hp, new):
        return cls(AttentionParams.create(hp.d_emb, new),
                   FeedForwardParams.create(hp.d_emb, hp.d_ff, new),
                   *[LayerNormParams.create(hp.d_emb, new) for _ in range(2)])


@dataclass
class DecoderLayer:
    self_attn: AttentionParams
    cross_attn: AttentionParams
    ff: FeedForwardParams
    ln1: LayerNormParams
    ln2: LayerNormParams
    ln3: LayerNormParams

    @classmethod
    def create(cls, hp, new):
        return cls(*[AttentionParams.create(hp.d_emb, new) for _ in range(2)],
                   FeedForwardParams.create(hp.d_emb, hp.d_ff, new),
                   *[LayerNormParams.create(hp.d_emb, new) for _ in range(3)])


@dataclass
class DecoderOutput:
    """One block (M steps) or a whole rollout (K steps) for B rows, float32."""
    det: np.ndarray        # (B, M, 8) deterministic KPI predictions, normalized units
    quantiles: np.ndarray  # (B, M, 3) residual-PRB quantiles, ascending, in [0,1]


@functools.cache
def causal_mask(steps: int) -> np.ndarray:
    """(T, T) additive mask: position k attends only to positions <= k.
    Float32, the dtype of the scores it is added to, so the decoder stays
    float32. Built once per size and shared, so it is read-only."""
    mask = np.triu(np.full((steps, steps), -np.inf, dtype=np.float32), k=1)
    mask.setflags(write=False)
    return mask


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


def _add_norm(x: Tensor, out: Tensor, norm: LayerNormParams, dropout_rate: float) -> Tensor:
    """LayerNorm(x + Dropout(out)): the post-norm residual around sublayer output `out`."""
    return T.layer_norm(x, norm.gain, norm.bias, residual=T.dropout(out, dropout_rate))


class ForecastModel:
    """All learnable state plus the forward passes (teacher-forced and
    autoregressive block inference). The tensor factory `new` makes each
    parameter in `named_params()` order: by default `drawing_factory` on
    `T.get_rng()`; a checkpoint load passes one that slices the payload."""

    def __init__(self, hp: Hyperparams, new=None):
        self.hp = hp
        new = new if new is not None else drawing_factory(T.get_rng())
        self.embed = EmbeddingTables.create(hp.d_emb, hp.n_past, hp.n_future, new)
        self.enc_layers = [EncoderLayer.create(hp, new) for _ in range(hp.n_enc_layers)]
        self.dec_layers = [DecoderLayer.create(hp, new) for _ in range(hp.n_dec_layers)]
        n_out = N_DET_FEATURES + len(QUANTILES)
        self.w_head = new((hp.d_emb, n_out), hp.d_emb)
        self.b_head = new((n_out,))

    def named_params(self) -> list[tuple[str, Tensor]]:
        return (named_tensors(self.embed, "embed") + named_tensors(self.enc_layers, "enc")
                + named_tensors(self.dec_layers, "dec")
                + [("head.w", self.w_head), ("head.b", self.b_head)])

    def params(self) -> list[Tensor]:
        return [t for _, t in self.named_params()]

    def zero_grads(self):
        for p in self.params():
            p.grad = None

    # -- forward passes ----------------------------------------------------

    def encode(self, tokens: Tensor, rate: float = 0.0) -> Tensor:
        x, heads = tokens, self.hp.heads
        for layer in self.enc_layers:
            x = _add_norm(x, T.attention(layer.attn, x, x, heads, None), layer.ln1, rate)
            f = layer.ff
            x = _add_norm(x, T.feed_forward(x, f.w1, f.b1, f.w2, f.b2), layer.ln2, rate)
        return x

    def decode(self, z: Tensor, dec_tokens: Tensor, rate: float = 0.0) -> tuple[Tensor, Tensor]:
        """Raw (det, quantile) head outputs: the operands of `total_loss`."""
        mask = causal_mask(dec_tokens.shape[1])
        x, heads = dec_tokens, self.hp.heads
        for layer in self.dec_layers:
            x = _add_norm(x, T.attention(layer.self_attn, x, x, heads, mask), layer.ln1, rate)
            x = _add_norm(x, T.attention(layer.cross_attn, x, z, heads, None), layer.ln2, rate)
            f = layer.ff
            x = _add_norm(x, T.feed_forward(x, f.w1, f.b1, f.w2, f.b2), layer.ln3, rate)
        out = T.linear(x, self.w_head, self.b_head)
        return (T.slice_lastdim(out, 0, N_DET_FEATURES),
                T.slice_lastdim(out, N_DET_FEATURES, out.shape[-1]))

    def _decoder_continuous_teacher(self, targets: np.ndarray) -> np.ndarray:
        """Shift ground truth by one step; step 0 gets the zero vector."""
        shifted = np.zeros_like(targets)
        shifted[:, 1:, :] = targets[:, :-1, :]
        return shifted

    def _forward(self, enc_x: np.ndarray, enc_meta: np.ndarray, dec_cont: np.ndarray,
                 dec_meta: np.ndarray, rate: float) -> tuple[Tensor, Tensor]:
        """Raw head outputs for encoder windows and decoder continuous inputs."""
        z = self.encode(embed_tokens(self.embed, enc_x, enc_meta, self.embed.enc_pos, rate), rate)
        dec_tokens = embed_tokens(self.embed, dec_cont, dec_meta, self.embed.dec_pos, rate)
        return self.decode(z, dec_tokens, rate)

    def forward_training(self, enc_x: np.ndarray, enc_meta: np.ndarray,
                         targets: np.ndarray, dec_meta: np.ndarray,
                         training: bool = True) -> tuple[Tensor, Tensor]:
        """Teacher-forced raw (det, quantile) head outputs; dropout only if `training`."""
        dec_cont = self._decoder_continuous_teacher(np.asarray(targets))
        rate = self.hp.dropout if training else 0.0
        return self._forward(enc_x, enc_meta, dec_cont, dec_meta, rate)

    def forward_block(self, enc_x: np.ndarray, enc_meta: np.ndarray,
                      dec_meta: np.ndarray) -> DecoderOutput:
        """Autoregressive-block inference on a batch of (B, N, 9) windows with
        (B, N, 5) and (B, M, 5) metadata: decoder continuous inputs are all
        zero; float32 det and quantiles come back, the quantiles sorted
        ascending and clipped to [0,1]."""
        dec_cont = np.zeros((len(enc_x), self.hp.n_future, N_FEATURES), dtype=np.float32)
        with T.no_grad():
            det, quant = self._forward(enc_x, enc_meta, dec_cont, dec_meta, 0.0)
        quantiles = np.clip(np.sort(quant.data, axis=-1), 0.0, 1.0)
        return DecoderOutput(det=det.data.copy(), quantiles=quantiles)


def param_count(hp: Hyperparams) -> int:
    """Learnable-parameter total: the sizes of the tensors `ForecastModel(hp)`
    makes. Every layer of a kind has the same size, so models of one and two
    layers are counted, by a factory that allocates nothing, and scaled: the
    cost does not grow with the layer counts."""
    def count(n_enc: int, n_dec: int) -> int:
        sizes = []
        ForecastModel(replace(hp, n_enc_layers=n_enc, n_dec_layers=n_dec),
                      lambda shape, fan_in=None, fill=0.0: sizes.append(math.prod(shape)))
        return sum(sizes)

    base = count(1, 1)
    return (base + (hp.n_enc_layers - 1) * (count(2, 1) - base)
            + (hp.n_dec_layers - 1) * (count(1, 2) - base))
