"""Checkpoint manifests: a JSON index over raw little-endian weight blobs.

Layout: {"version": 1, "layers": [{"name", "role", "rows", "cols",
"dtype" ("f32"|"f64"), "file", "byte_offset"}, ...]}. Data files hold
row-major matrices back to back; matrices are widened to float64 on load
regardless of stored precision.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ByteRangeError, ParseError
from .fromjson import from_json, read_json, read_value
from .spectral import LayerRole, WeightMatrix

log = logging.getLogger(__name__)

MANIFEST_VERSION = 1
_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_MATRIX_ROLES = {r.value: r for r in LayerRole if r is not LayerRole.NON_MATRIX}


@dataclass(frozen=True)
class ManifestLayer:
    name: str
    role: str
    rows: int
    cols: int
    dtype: str
    file: str
    byte_offset: int


def _parse_layer(entry, index: int) -> ManifestLayer:
    layer = from_json(ManifestLayer, entry, f"layers[{index}]", ParseError)
    if layer.rows < 1 or layer.cols < 1:
        raise ParseError(f"{layer.name}: rows and cols must be positive")
    if layer.dtype not in _DTYPES:
        raise ParseError(f"{layer.name}: unknown dtype {layer.dtype!r}")
    if layer.byte_offset < 0:
        raise ParseError(f"{layer.name}: negative byte_offset")
    return layer


def parse_manifest(path: str | Path) -> list[ManifestLayer]:
    path = Path(path)
    doc = read_json(path, ParseError)
    if (not isinstance(doc, dict)
            or read_value(int, doc.get("version"), f"{path}: version", ParseError)
            != MANIFEST_VERSION):
        raise ParseError(f"{path}: expected version {MANIFEST_VERSION} manifest")
    entries = doc.get("layers")
    if not isinstance(entries, list) or not entries:
        raise ParseError(f"{path}: manifest lists no layers")
    layers = [_parse_layer(e, i) for i, e in enumerate(entries)]
    names = [l.name for l in layers]
    if len(set(names)) != len(names):
        raise ParseError(f"{path}: duplicate layer names")
    return layers


def _check_ranges(layers: list[ManifestLayer], base: Path) -> None:
    by_file: dict[str, list[tuple[int, int, str]]] = {}
    for l in layers:
        nbytes = l.rows * l.cols * _DTYPES[l.dtype].itemsize
        by_file.setdefault(l.file, []).append((l.byte_offset, l.byte_offset + nbytes, l.name))
    for fname, ranges in by_file.items():
        fpath = base / fname
        if not fpath.is_file():
            raise ParseError(f"{fname}: referenced file missing")
        size = fpath.stat().st_size
        ranges.sort()
        prev_end, prev_name = 0, None
        for start, end, name in ranges:
            if end > size:
                raise ByteRangeError(f"{name}: range [{start}, {end}) exceeds {fname} size {size}")
            if prev_name is not None and start < prev_end:
                raise ByteRangeError(f"{name}: range overlaps {prev_name} in {fname}")
            prev_end, prev_name = end, name


def load_manifest(path: str | Path) -> list[WeightMatrix]:
    """Materialize all manifest layers as float64 matrices, in order."""
    path = Path(path)
    layers = parse_manifest(path)
    base = path.parent
    _check_ranges(layers, base)
    out = []
    for l in layers:
        dtype = _DTYPES[l.dtype]
        count = l.rows * l.cols
        with open(base / l.file, "rb") as fh:
            fh.seek(l.byte_offset)
            raw = fh.read(count * dtype.itemsize)
        values = np.frombuffer(raw, dtype=dtype).astype(np.float64).reshape(l.rows, l.cols)
        role = _MATRIX_ROLES.get(l.role)
        if role is None:
            log.warning("%s: unknown role %r, treating as generic 2-D", l.name, l.role)
            role = LayerRole.OTHER_2D
        out.append(WeightMatrix(l.name, role, values))
    return out


def save_manifest(
    directory: str | Path,
    matrices: list[WeightMatrix],
    dtype: str = "f64",
    data_file: str = "weights.bin",
) -> Path:
    """Write matrices plus their manifest; returns the manifest path."""
    if dtype not in _DTYPES:
        raise ParseError(f"unknown dtype {dtype!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    np_dtype = _DTYPES[dtype]
    entries = []
    offset = 0
    with open(directory / data_file, "wb") as fh:
        for w in matrices:
            blob = np.ascontiguousarray(w.values, dtype=np_dtype).tobytes()
            fh.write(blob)
            entries.append(asdict(ManifestLayer(w.name, w.role.value, w.rows, w.cols,
                                                dtype, data_file, offset)))
            offset += len(blob)
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(
        json.dumps({"version": MANIFEST_VERSION, "layers": entries}, indent=2) + "\n"
    )
    return manifest_path
