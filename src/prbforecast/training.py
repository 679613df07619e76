"""Training: weighted MSE + pinball objective as one tape op, Adam with
decoupled weight decay and global-norm gradient clipping, epoch loop with
chronological validation and early stopping, and a binary checkpoint format.

Checkpoint layout: magic ``RUPF``, u32 LE version, u32 LE header length, a
UTF-8 JSON header (hyperparams, train config, normalizer, tensor manifest,
CRC32 of the payload), then the concatenated little-endian f32 tensor
payloads in manifest order. Round trips are bit-exact.
"""

from __future__ import annotations

import json
import logging
import math
import struct
import time
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .data import Normalizer, atomic_open, batch_samples
from .model import QUANTILES, ForecastModel, Hyperparams, param_count, read_settings
from .tensor import Tensor

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"RUPF"
CHECKPOINT_VERSION = 1


class TrainingError(T.NumericalError):
    """Numerical failure (NaN loss/gradients) during training."""


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 400
    lr: float = 1e-4
    weight_decay: float = 1e-5
    clip_norm: float = 1.0
    patience: int = 10
    min_delta: float = 1e-5
    alpha: float = 0.9
    beta: float = 1.2
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size", "lr", "clip_norm", "patience",
                     "alpha", "beta"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not (0 <= self.weight_decay < np.inf and 0 <= self.min_delta < np.inf):
            raise ValueError("weight_decay and min_delta must be nonnegative and finite")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc) -> "TrainConfig":
        """Validated training configuration from the `train` JSON object of
        a config file or a checkpoint header; absent keys take the defaults."""
        return cls(**read_settings("train", cls().to_dict(), doc))


# -- loss -----------------------------------------------------------------

def total_loss(det: Tensor, quant: Tensor, targets: np.ndarray,
               alpha: float, beta: float, quantiles=QUANTILES) -> Tensor:
    """alpha * MSE over the 8 deterministic KPI columns plus beta * summed
    mean pinball losses of each quantile column against the residual column:
    q*(y - ŷ) when under-predicting, (1-q)*(ŷ - y) otherwise. One tape op;
    for det and quant of one dtype (slices of one head output) its value and
    gradients are bit-identical to the same loss composed from tensor ops."""
    n_det = det.shape[-1]
    if targets.shape[:-1] != det.shape[:-1] or targets.shape[-1] != n_det + 1:
        raise T.ShapeError(f"target shape {targets.shape} does not match "
                           f"head output {det.shape}")
    dtype = det.data.dtype
    err = det.data - np.asarray(targets[..., :n_det], dtype=dtype)
    loss = (err * err).mean() * dtype.type(alpha)
    residual = np.asarray(targets[..., n_det], dtype=dtype)
    signs = []  # per quantile column: (y > pred, y < pred)
    for i, q in enumerate(quantiles):
        under = residual - quant.data[..., i]
        over = quant.data[..., i] - residual
        s = np.maximum(under, 0) * dtype.type(q) + np.maximum(over, 0) * dtype.type(1.0 - q)
        loss = loss + s.mean() * dtype.type(beta)
        signs.append((under > 0, over > 0))
    det_slot, quant_slot = det.slot, quant.slot

    def backward(g):
        if det_slot is not None:
            d_err = g * alpha / err.size * err
            T._accumulate(det_slot, d_err + d_err)
        if quant_slot is not None:
            c = g * beta / residual.size
            d_quant = np.zeros(quant_slot.shape, quant_slot.dtype)
            for i, (q, (above, below)) in enumerate(zip(quantiles, signs)):
                d_quant[..., i] += c * (1.0 - q) * below - c * q * above
            T._accumulate(quant_slot, d_quant)

    return T._result(loss, (det, quant), backward)


# -- optimizer ------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    def __init__(self, params: list[Tensor]):
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0


def adam_step(params: list[Tensor], state: AdamState, lr: float,
              weight_decay: float = 0.0) -> None:
    """Bias-corrected Adam with decoupled weight decay applied before the
    Adam delta. Raises on NaN gradients."""
    state.t += 1
    t = state.t
    for i, p in enumerate(params):
        g = p.grad
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise TrainingError("NaN or Inf gradient encountered")
        if weight_decay:
            p.data *= np.float32(1.0 - lr * weight_decay)
        state.m[i] = ADAM_BETA1 * state.m[i] + (1 - ADAM_BETA1) * g
        state.v[i] = ADAM_BETA2 * state.v[i] + (1 - ADAM_BETA2) * g * g
        m_hat = state.m[i] / (1 - ADAM_BETA1 ** t)
        v_hat = state.v[i] / (1 - ADAM_BETA2 ** t)
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.data.dtype)


def clip_gradients(params: list[Tensor], max_norm: float = 1.0) -> float:
    """Global L2-norm clipping; returns the scale that was applied."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = np.sqrt(total)
    if norm <= max_norm or norm == 0.0:
        return 1.0
    scale = max_norm / norm
    for p in params:
        if p.grad is not None:
            p.grad *= np.float32(scale)
    return scale


# -- epoch loop -----------------------------------------------------------

def _evaluate_loss(model: ForecastModel, samples: np.ndarray,
                   cfg: TrainConfig, batch_size: int) -> float:
    """Teacher-forced loss with dropout off, averaged over samples."""
    total = 0.0
    with T.no_grad():
        for start in range(0, len(samples), batch_size):
            enc_x, enc_meta, targets, dec_meta = batch_samples(
                samples[start:start + batch_size])
            det, quant = model.forward_training(enc_x, enc_meta, targets,
                                                dec_meta, training=False)
            loss = total_loss(det, quant, targets, cfg.alpha, cfg.beta)
            total += float(loss.data) * len(targets)
    return total / len(samples)


def train(train_samples: np.ndarray, val_samples: np.ndarray,
          hp: Hyperparams, cfg: TrainConfig) -> tuple[ForecastModel, list[dict]]:
    """Train a fresh model; returns (model with best-validation parameters,
    per-epoch history). Fully determined by (samples, hp, cfg)."""
    if len(train_samples) == 0 or len(val_samples) == 0:
        raise ValueError("training and validation splits must be nonempty")
    T.seed_all(cfg.seed)
    model = ForecastModel(hp)
    params = model.params()
    state = AdamState(params)

    best_val = np.inf
    best_snapshot = None
    stale_epochs = 0
    history: list[dict] = []

    for epoch in range(1, cfg.epochs + 1):
        epoch_start = time.perf_counter()
        order = np.random.default_rng((cfg.seed, epoch)).permutation(len(train_samples))
        epoch_losses = []
        clipped = 0
        for start in range(0, len(order), cfg.batch_size):
            enc_x, enc_meta, targets, dec_meta = batch_samples(
                train_samples[order[start:start + cfg.batch_size]])
            model.zero_grads()
            try:
                det, quant = model.forward_training(enc_x, enc_meta, targets,
                                                    dec_meta, training=True)
                loss = total_loss(det, quant, targets, cfg.alpha, cfg.beta)
                value = float(loss.data)
                if not np.isfinite(value):
                    raise TrainingError(f"non-finite training loss at epoch {epoch}")
                T.backward(loss)
            except BaseException:
                T.tape().clear()  # drop the failed step's ops and activations
                raise
            clipped += clip_gradients(params, cfg.clip_norm) < 1.0
            adam_step(params, state, cfg.lr, weight_decay=cfg.weight_decay)
            epoch_losses.append(value * len(targets))
        train_loss = sum(epoch_losses) / len(train_samples)
        val_loss = _evaluate_loss(model, val_samples, cfg, cfg.batch_size)
        if not np.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")

        improved = best_val - val_loss > cfg.min_delta
        if improved:
            best_val = val_loss
            best_snapshot = [p.data.copy() for p in params]
            stale_epochs = 0
        else:
            stale_epochs += 1
        stopped = stale_epochs >= cfg.patience
        history.append({"epoch": epoch, "train_loss": train_loss,
                        "val_loss": val_loss, "lr": cfg.lr, "stopped": stopped})
        epoch_s = time.perf_counter() - epoch_start
        log.info("epoch %d: train %.6f val %.6f, %.3f s, %.0f samples/s, clip rate %.3f%s",
                 epoch, train_loss, val_loss, epoch_s, len(train_samples) / epoch_s,
                 clipped / len(epoch_losses), " (stopping)" if stopped else "")
        if stopped:
            break

    if best_snapshot is not None:
        for p, saved in zip(params, best_snapshot):
            p.data = saved
    return model, history


def write_history(history: list[dict], path: str) -> None:
    with atomic_open(path) as f:
        f.writelines(json.dumps(h, sort_keys=True) + "\n" for h in history)


# -- checkpoint persistence -----------------------------------------------

def _manifest(model: ForecastModel) -> list[dict]:
    """The payload layout of `model`: one entry per tensor of `named_params()`,
    little-endian f32 and back to back."""
    manifest, offset = [], 0
    for name, p in model.named_params():
        nbytes = 4 * p.data.size
        manifest.append({"name": name, "shape": list(p.shape),
                         "offset": offset, "nbytes": nbytes})
        offset += nbytes
    return manifest


def checkpoint_bytes(model: ForecastModel, cfg: TrainConfig,
                     normalizer: Normalizer) -> bytes:
    payload = b"".join(p.data.astype("<f4").tobytes() for p in model.params())
    header = {
        "hyperparams": model.hp.to_dict(),
        "train_config": cfg.to_dict(),
        "normalizer": normalizer.to_dict(),
        "manifest": _manifest(model),
        "payload_crc32": zlib.crc32(payload),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return (CHECKPOINT_MAGIC
            + struct.pack("<II", CHECKPOINT_VERSION, len(header_bytes))
            + header_bytes + payload)


def save_checkpoint(path: str, model: ForecastModel, cfg: TrainConfig,
                    normalizer: Normalizer) -> None:
    with atomic_open(path, binary=True) as f:
        f.write(checkpoint_bytes(model, cfg, normalizer))


def load_checkpoint(path: str) -> tuple[ForecastModel, TrainConfig, Normalizer]:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 12 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version, header_len = struct.unpack("<II", blob[4:12])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    if len(blob) < 12 + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(blob[12:12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header: {e}") from None
    try:
        return _restore(header, blob[12 + header_len:], path)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed header: {e!r}") from None


def _payload_factory(values: np.ndarray):
    """A tensor factory (as `model.drawing_factory`) whose tensors are
    consecutive slices of `values`."""
    at = 0

    def new(shape, fan_in=None, fill=0.0):
        nonlocal at
        start, at = at, at + math.prod(shape)
        return Tensor(values[start:at].reshape(shape), requires_grad=True)

    return new


def _restore(header: dict, payload: bytes, path: str):
    """Model, config and normalizer from a decoded header and its payload;
    a header of the wrong shape raises KeyError, TypeError or ValueError.
    The tensors are slices of the payload; nothing is drawn."""
    if zlib.crc32(payload) != header["payload_crc32"]:
        raise CheckpointError(f"{path}: payload CRC mismatch")
    hp = Hyperparams.from_dict(header["hyperparams"])
    cfg = TrainConfig.from_dict(header["train_config"])
    normalizer = Normalizer.from_dict(header["normalizer"])
    count = param_count(hp)
    if len(payload) != 4 * count:
        raise ValueError(f"hyperparams need {4 * count} payload bytes, found {len(payload)}")
    values = np.frombuffer(payload, dtype="<f4").astype(np.float32)
    model = ForecastModel(hp, _payload_factory(values))
    if header["manifest"] != _manifest(model):
        raise ValueError("manifest differs from the tensor layout of the hyperparams")
    return model, cfg, normalizer
