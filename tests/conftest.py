import json
import struct
import zlib

import numpy as np
import pytest

from prbforecast import tensor as T
from prbforecast.model import drawing_factory


@pytest.fixture(autouse=True)
def clean_tape():
    T.tape().clear()
    T.seed_all(12345)
    yield
    T.tape().clear()


def central_diff(f, tensors, h=1e-3):
    """Central finite differences of scalar f() w.r.t. each tensor's data.

    Perturbs in place; tensors must hold float64 data so the oracle runs
    at 64-bit precision.
    """
    grads = []
    for p in tensors:
        assert p.data.dtype == np.float64, f"central_diff needs float64, got {p.data.dtype}"
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
    """Float64 analytic gradients match `numeric`; float32 ones are an error."""
    assert analytic.dtype == np.float64, f"analytic gradient is {analytic.dtype}"
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def f64_tensor(rng, shape, requires_grad=True, scale=1.0):
    return T.Tensor(rng.standard_normal(shape) * scale,
                    requires_grad=requires_grad, dtype=np.float64)


def float64_factory(rng):
    """`model.drawing_factory(rng)` making each tensor as float64: the drawn
    values unchanged, so the tensor's gradient slot is float64 too."""
    draw = drawing_factory(rng)

    def new(*args, **kwargs):
        return T.Tensor(draw(*args, **kwargs).data, requires_grad=True, dtype=np.float64)

    return new


def edit_header(blob: bytes, edit) -> bytes:
    """Checkpoint bytes with the JSON header `h` replaced by `edit(h)`."""
    n = struct.unpack("<I", blob[8:12])[0]
    raw = json.dumps(edit(json.loads(blob[12:12 + n]))).encode()
    return blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + n:]


def edit_payload(blob: bytes, edit) -> bytes:
    """Checkpoint bytes with the payload `p` replaced by `edit(p)` and the
    header's `payload_crc32` rewritten to match."""
    n = struct.unpack("<I", blob[8:12])[0]
    payload = edit(blob[12 + n:])
    crc = zlib.crc32(payload)
    return edit_header(blob[:12 + n], lambda h: {**h, "payload_crc32": crc}) + payload


def append_float(blob: bytes) -> bytes:
    """Checkpoint bytes with one more f32 at the end of the payload."""
    return edit_payload(blob, lambda p: p + struct.pack("<f", 0.5))


def drop_float(blob: bytes) -> bytes:
    """Checkpoint bytes with the last f32 of the payload removed."""
    return edit_payload(blob, lambda p: p[:-4])
