import json
import struct
import zlib

import numpy as np
import pytest

from prbforecast import tensor as T


@pytest.fixture(autouse=True)
def clean_tape():
    T.tape().clear()
    T.seed_all(12345)
    yield
    T.tape().clear()


def central_diff(f, tensors, h=1e-3):
    """Central finite differences of scalar f() w.r.t. each tensor's data.

    Perturbs in place; tensors should hold float64 data so the oracle runs
    at 64-bit precision.
    """
    grads = []
    for p in tensors:
        g = np.zeros_like(p.data, dtype=np.float64)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            with T.no_grad():
                fp = f()
            flat[i] = orig - h
            with T.no_grad():
                fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rtol=1e-3, atol=1e-5):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def f64_tensor(rng, shape, requires_grad=True, scale=1.0):
    return T.Tensor(rng.standard_normal(shape) * scale,
                    requires_grad=requires_grad, dtype=np.float64)


def edit_header(blob: bytes, edit) -> bytes:
    """Checkpoint bytes with the JSON header `h` replaced by `edit(h)`."""
    n = struct.unpack("<I", blob[8:12])[0]
    raw = json.dumps(edit(json.loads(blob[12:12 + n]))).encode()
    return blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + n:]


def append_float(blob: bytes) -> bytes:
    """Checkpoint bytes with one more f32 at the end of the payload and the
    header's `payload_crc32` rewritten to match."""
    n = struct.unpack("<I", blob[8:12])[0]
    payload = blob[12 + n:] + struct.pack("<f", 0.5)
    crc = zlib.crc32(payload)
    return edit_header(blob[:12 + n], lambda h: {**h, "payload_crc32": crc}) + payload
