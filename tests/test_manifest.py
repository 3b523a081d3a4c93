import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailwise.cli
from tailwise.cli import main
from tailwise.errors import ByteRangeError, ParseError
from tailwise.manifest import load_manifest, save_manifest
from tailwise.model import ModelConfig, build_model
from tailwise.spectral import LayerRole, WeightMatrix


def tiny_matrices(seed=0):
    rng = np.random.default_rng(seed)
    return [
        WeightMatrix("embed", LayerRole.EMBEDDING, rng.standard_normal((6, 4))),
        WeightMatrix("blocks.0.att.q", LayerRole.ATT_Q, rng.standard_normal((4, 4))),
        WeightMatrix("blocks.0.ffn.up", LayerRole.FFN_UP, rng.standard_normal((4, 8))),
    ]


class TestRoundTrip:
    def test_f64_round_trip_bit_identical(self, tmp_path):
        model = build_model(ModelConfig(vocab=16, d_model=16, n_layers=1, n_heads=2,
                                        context=8, seed=4, dtype="f64"))
        original = list(model.weight_matrices())
        path = save_manifest(tmp_path, original, dtype="f64")
        loaded = list(load_manifest(path))
        assert [w.name for w in loaded] == [w.name for w in original]
        assert [w.role for w in loaded] == [w.role for w in original]
        for a, b in zip(original, loaded):
            np.testing.assert_array_equal(a.values, b.values)

    def test_f32_widening_exact(self, tmp_path):
        original = tiny_matrices()
        path = save_manifest(tmp_path, original, dtype="f32")
        loaded = list(load_manifest(path))
        for a, b in zip(original, loaded):
            np.testing.assert_array_equal(a.values.astype(np.float32).astype(np.float64),
                                          b.values)
            assert b.values.dtype == np.float64


class TestValidation:
    def write_manifest(self, tmp_path, layers, payload_f64=64):
        (tmp_path / "weights.bin").write_bytes(b"\x00" * payload_f64 * 8)
        doc = {"version": 1, "layers": layers}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        return path

    def layer(self, name="a", rows=2, cols=2, offset=0, dtype="f64", file="weights.bin"):
        return {"name": name, "role": "att.q", "rows": rows, "cols": cols,
                "dtype": dtype, "file": file, "byte_offset": offset}

    def test_overlapping_ranges_rejected(self, tmp_path):
        path = self.write_manifest(
            tmp_path, [self.layer("a", offset=0), self.layer("b", offset=16)]
        )
        with pytest.raises(ByteRangeError):
            load_manifest(path)

    def test_range_beyond_file_rejected(self, tmp_path):
        path = self.write_manifest(tmp_path, [self.layer("a", rows=100, cols=100)])
        with pytest.raises(ByteRangeError):
            load_manifest(path)

    def test_adjacent_ranges_ok(self, tmp_path):
        path = self.write_manifest(
            tmp_path, [self.layer("a", offset=0), self.layer("b", offset=32)]
        )
        assert len(list(load_manifest(path))) == 2

    def test_duplicate_names_rejected(self, tmp_path):
        path = self.write_manifest(tmp_path, [self.layer("a"), self.layer("a", offset=32)])
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"version": 2, "layers": []}))
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_unknown_dtype_rejected(self, tmp_path):
        path = self.write_manifest(tmp_path, [self.layer(dtype="f16")])
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_missing_file_rejected(self, tmp_path):
        path = self.write_manifest(tmp_path, [self.layer(file="nope.bin")])
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_unknown_role_maps_to_other_with_warning(self, tmp_path, caplog):
        path = self.write_manifest(tmp_path, [self.layer() | {"role": "mystery"}])
        with caplog.at_level("WARNING"):
            loaded = list(load_manifest(path))
        assert loaded[0].role is LayerRole.OTHER_2D
        assert any("mystery" in rec.message for rec in caplog.records)

    def test_blob_cut_short_after_the_check(self, tmp_path, monkeypatch, capsys):
        # Each layer is read when the sweep reaches it, after the ranges were
        # checked; a blob cut short in between is a byte-range error (exit 3).
        path = save_manifest(tmp_path, tiny_matrices(), dtype="f32")
        blob = tmp_path / "weights.bin"
        cut = 4 * (6 * 4 + 4 * 4 + 1)  # one value into the third layer
        layers = load_manifest(path)
        os.truncate(blob, cut)
        assert [next(layers).name, next(layers).name] == ["embed", "blocks.0.att.q"]
        with pytest.raises(ByteRangeError, match=r"blocks.0.ffn.up: range \[160, 288\)"):
            next(layers)

        save_manifest(tmp_path, tiny_matrices(), dtype="f32")
        real = tailwise.cli.load_manifest

        def check_then_cut(manifest):
            checked = real(manifest)
            os.truncate(blob, cut)
            return checked

        monkeypatch.setattr(tailwise.cli, "load_manifest", check_then_cut)
        assert main(["analyze", "--manifest", str(path)]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "ByteRangeError"

    def test_blob_removed_after_the_check(self, tmp_path):
        path = save_manifest(tmp_path, tiny_matrices())
        layers = load_manifest(path)
        os.remove(tmp_path / "weights.bin")
        with pytest.raises(ParseError, match="weights.bin: cannot read embed"):
            next(layers)

    def test_row_major_little_endian_layout(self, tmp_path):
        values = np.arange(6, dtype="<f8").reshape(2, 3)
        (tmp_path / "weights.bin").write_bytes(values.tobytes())
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "version": 1,
            "layers": [{"name": "w", "role": "other", "rows": 2, "cols": 3,
                        "dtype": "f64", "file": "weights.bin", "byte_offset": 0}],
        }))
        loaded = list(load_manifest(path))
        np.testing.assert_array_equal(loaded[0].values, [[0, 1, 2], [3, 4, 5]])


MANIFEST_FIELDS = ("name", "role", "rows", "cols", "dtype", "file", "byte_offset")
MATRIX_ROLES = [r.value for r in LayerRole if r is not LayerRole.NON_MATRIX]


@st.composite
def checkpoints(draw):
    """A valid manifest's entries and the float64 values each entry must load as.

    Layers go to up to three files in any order, each after a gap of junk
    bytes; the stored values are f32 or f64.
    """
    n = draw(st.integers(1, 6))
    names = draw(st.lists(st.text("abc.01", min_size=1, max_size=4),
                          min_size=n, max_size=n, unique=True))
    blobs: dict[str, bytearray] = {}
    entries, expected = [], []
    for name in names:
        rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        dtype = draw(st.sampled_from(["f32", "f64"]))
        blob = blobs.setdefault(f"w{draw(st.integers(0, 2))}.bin", bytearray())
        blob += b"\xa5" * draw(st.integers(0, 9))
        seed = draw(st.integers(0, 2**32 - 1))
        values = np.random.default_rng(seed).standard_normal((rows, cols)) * 10.0 ** (seed % 9 - 4)
        stored = values.astype("<f4" if dtype == "f32" else "<f8")
        entries.append({"name": name, "role": draw(st.sampled_from(MATRIX_ROLES)),
                        "rows": rows, "cols": cols, "dtype": dtype,
                        "file": next(f for f, b in blobs.items() if b is blob),
                        "byte_offset": len(blob)})
        blob += stored.tobytes()
        expected.append(stored.astype(np.float64))
    for blob in blobs.values():
        blob += b"\xa5" * draw(st.integers(0, 9))
    return entries, blobs, expected


def write_checkpoint(directory, entries, blobs, version=1):
    for fname, blob in blobs.items():
        (directory / fname).write_bytes(bytes(blob))
    path = directory / "manifest.json"
    path.write_text(json.dumps({"version": version, "layers": entries}))
    return path


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(checkpoint=checkpoints())
def test_valid_manifests_round_trip_bit_for_bit(checkpoint):
    entries, blobs, expected = checkpoint
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        loaded = list(load_manifest(write_checkpoint(tmp, entries, blobs)))
        assert [(w.name, w.role.value) for w in loaded] == [(e["name"], e["role"]) for e in entries]
        for w, want in zip(loaded, expected):
            assert w.values.dtype == np.float64 and w.values.tobytes() == want.tobytes()
        again = list(load_manifest(save_manifest(tmp / "copy", loaded)))
        assert [(w.name, w.role) for w in again] == [(w.name, w.role) for w in loaded]
        for a, b in zip(again, loaded):
            assert a.values.tobytes() == b.values.tobytes()


def wrong_types(field):
    """JSON values of another type than a manifest field's."""
    numbers = [7.9, True, 0.5, None, "3"] if field in ("rows", "cols", "byte_offset") else []
    return numbers or [5, 2.5, False, None, ["a"]]


@st.composite
def broken_checkpoints(draw):
    """A valid checkpoint with one mutation that makes its manifest invalid."""
    entries, blobs, _ = draw(checkpoints())
    version = 1
    i = draw(st.integers(0, len(entries) - 1))
    entry = entries[i]
    kind = draw(st.sampled_from(["type", "overlap", "past_end", "dtype", "duplicate",
                                 "version", "missing", "unknown"]))
    if kind == "type":
        field = draw(st.sampled_from(MANIFEST_FIELDS))
        entry[field] = draw(st.sampled_from(wrong_types(field)))
    elif kind == "overlap":
        # A 1x1 f32 entry that starts inside this layer's bytes.
        nbytes = entry["rows"] * entry["cols"] * (4 if entry["dtype"] == "f32" else 8)
        shift = draw(st.integers(0, nbytes - 1))
        entries.append(entry | {"name": entry["name"] + "!", "rows": 1, "cols": 1,
                                "byte_offset": entry["byte_offset"] + shift - shift % 4,
                                "dtype": "f32"})
    elif kind == "past_end":
        entry["byte_offset"] = len(blobs[entry["file"]]) - draw(st.integers(0, 3))
    elif kind == "dtype":
        entry["dtype"] = draw(st.sampled_from(["f16", "F32", "float64", ""]))
    elif kind == "duplicate":
        entries.append(entry | {"byte_offset": len(blobs[entry["file"]])})
        blobs[entry["file"]] += b"\x00" * 200
    elif kind == "version":
        version = draw(st.sampled_from([True, 1.0, "1", None, 2]))
    elif kind == "missing":
        del entry[draw(st.sampled_from(MANIFEST_FIELDS))]
    else:
        entry["shape"] = [entry["rows"], entry["cols"]]
    return entries, blobs, version


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(checkpoint=broken_checkpoints())
def test_broken_manifests_exit_3_with_one_record(checkpoint):
    entries, blobs, version = checkpoint
    with tempfile.TemporaryDirectory() as tmp:
        path = write_checkpoint(Path(tmp), entries, blobs, version)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["analyze", "--manifest", str(path)])
    (line,) = err.getvalue().splitlines()
    assert code == 3
    assert json.loads(line)["error"] in ("ParseError", "ByteRangeError")
