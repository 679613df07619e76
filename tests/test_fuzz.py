"""Mutated inputs through `cli.main`: a CSV, a config document, a
checkpoint header or checkpoint bytes that may be malformed in any way ends
in exit code 0 (still valid), 1 (usage or validation error) or 3 (I/O
error), never in an uncaught exception. Derandomized, so every run tries
the same inputs."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prbforecast import tensor as T
from prbforecast.cli import main
from prbforecast.data import Normalizer, load_csv
from prbforecast.model import ForecastModel, Hyperparams
from prbforecast.training import TrainConfig, save_checkpoint

from conftest import edit_header

TINY = Hyperparams(d_emb=4, n_enc_layers=1, n_dec_layers=1, heads=2, d_ff=8,
                   n_past=4, n_future=2)
FUZZ = settings(derandomize=True, deadline=None, max_examples=60, database=None)
EXIT_CODES = (0, 1, 3)

CELLS = st.one_of(
    st.sampled_from(["", "nan", "-inf", "1e400", "-1", "0x10", "1_0", " 2 ",
                     "99999999999999999999999", "-99999999999999999999999",
                     "2024-01-01T00:07:00Z", "2024-01-01T00:00:00+05:30",
                     "0001-01-01T00:00:00+01:00", "9999-12-31T23:45:00-01:00",
                     "2024-02-30T00:00:00Z", "\"1,2\"", "\x00", "\r"]),
    st.floats().map(repr),
    st.integers().map(str),
    st.text(max_size=12),
)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
CONFIG_KEYS = (list(Hyperparams().to_dict()) + list(TrainConfig().to_dict())
               + ["train_days", "val_days", "test_days"])
CONFIG_DOCS = st.one_of(
    st.dictionaries(st.sampled_from(["seed", "hyperparams", "train", "split", "data"]),
                    JSON | st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON, max_size=3),
                    max_size=4),
    JSON)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A one-day, one-carrier CSV and a checkpoint of an untrained tiny model."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data.csv"
    assert main(["gen", "--out", str(data), "--days", "1", "--carriers", "1",
                 "--seed", "3"]) == 0
    T.seed_all(3)
    model = root / "model.rupf"
    save_checkpoint(str(model), ForecastModel(TINY), TrainConfig(),
                    Normalizer.fit(load_csv(str(data))))
    return root, data.read_text().splitlines(), model.read_bytes()


def forecast(root, data, model) -> int:
    return main(["forecast", "--model", str(model), "--data", str(data),
                 "--carrier", "0", "--from", "2024-01-01T02:00:00Z",
                 "--horizon", "3", "--out", str(root / "forecast.csv")])


@FUZZ
@given(line=st.integers(0, 96), column=st.integers(0, 11), cell=CELLS)
def test_mutated_csv_row(inputs, line, column, cell):
    root, lines, model = inputs
    lines = list(lines)
    cells = lines[line].split(",")
    if column < len(cells):
        cells[column] = cell
    else:
        cells.append(cell)  # one field too many
    lines[line] = ",".join(cells)
    data = root / "mutated.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert forecast(root, data, root / "model.rupf") in EXIT_CODES


@FUZZ
@given(doc=CONFIG_DOCS)
def test_mutated_config_document(inputs, doc):
    root, _, _ = inputs
    config = root / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["gen", "--config", str(config), "--out", str(root / "gen.csv"),
                 "--days", "1", "--carriers", "1", "--force"]) in EXIT_CODES


@FUZZ
@given(data=st.data())
def test_mutated_checkpoint_bytes(inputs, data):
    root, _, blob = inputs
    blob = bytearray(blob)
    at = data.draw(st.integers(0, len(blob) - 1), label="at")
    if data.draw(st.booleans(), label="truncate"):
        del blob[at:]
    else:
        blob[at] ^= data.draw(st.integers(1, 255), label="xor")
    model = root / "mutated.rupf"
    model.write_bytes(bytes(blob))
    assert forecast(root, root / "data.csv", model) in EXIT_CODES


HEADER_KEYS = ([("hyperparams", k) for k in Hyperparams().to_dict()]
               + [("train_config", k) for k in TrainConfig().to_dict()]
               + [(k,) for k in ("normalizer", "manifest", "payload_crc32")]
               + [("manifest", i, k) for i in (0, -1)
                  for k in ("name", "shape", "offset", "nbytes")])


def replaced(node, path, value):
    """A copy of JSON `node` with the item at key path `path` set to `value`."""
    if not path:
        return value
    head, *rest = path
    copy = list(node) if isinstance(node, list) else dict(node)
    copy[head] = replaced(node[head], rest, value)
    return copy


@FUZZ
@given(key=st.sampled_from(HEADER_KEYS), value=JSON)
def test_mutated_checkpoint_header(inputs, key, value):
    """One setting, the normalizer, the manifest, one field of a manifest
    entry or the CRC replaced in a well-formed header, which byte mutations
    almost never produce."""
    root, _, blob = inputs
    model = root / "retyped.rupf"
    model.write_bytes(edit_header(blob, lambda h: replaced(h, key, value)))
    assert forecast(root, root / "data.csv", model) in EXIT_CODES
