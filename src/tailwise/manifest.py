"""Checkpoint manifests: a JSON index over raw little-endian weight blobs.

Layout: {"version": 1, "layers": [{"name", "role", "rows", "cols",
"dtype" ("f32"|"f64"), "file", "byte_offset"}, ...]}. Data files hold
row-major matrices back to back; matrices are widened to float64 on load
regardless of stored precision.

`load_manifest` checks the whole manifest when it is called, then returns
a one-pass iterator that reads each layer only when it is reached. A sweep
that keeps no earlier layer holds one float64 matrix at a time, so its
peak memory is about the largest layer in float64, not the checkpoint.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator

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


def _role(layer: ManifestLayer) -> LayerRole:
    role = _MATRIX_ROLES.get(layer.role)
    if role is None:
        log.warning("%s: unknown role %r, treating as generic 2-D", layer.name, layer.role)
        role = LayerRole.OTHER_2D
    return role


def _read(layer: ManifestLayer, base: Path) -> np.ndarray:
    """One layer's stored values, widened to float64.

    The file may have changed since its ranges were checked: a blob now too
    short raises ByteRangeError, an unreadable one ParseError.
    """
    count = layer.rows * layer.cols
    dtype = _DTYPES[layer.dtype]
    try:
        raw = np.fromfile(base / layer.file, dtype=dtype, count=count, offset=layer.byte_offset)
    except OSError as exc:
        raise ParseError(f"{layer.file}: cannot read {layer.name}: {exc}") from exc
    if raw.size != count:
        end = layer.byte_offset + count * dtype.itemsize
        raise ByteRangeError(f"{layer.name}: range [{layer.byte_offset}, {end}) exceeds "
                             f"{layer.file}: it holds {raw.size * dtype.itemsize} bytes there")
    return raw.astype(np.float64, copy=False).reshape(layer.rows, layer.cols)


def _stream(layers: list[ManifestLayer], roles: list[LayerRole],
            base: Path) -> Iterator[WeightMatrix]:
    # The matrix is yielded without a local name, so this frame does not
    # keep it alive while the next layer is read.
    for layer, role in zip(layers, roles):
        yield WeightMatrix(layer.name, role, _read(layer, base))


def load_manifest(path: str | Path) -> Iterator[WeightMatrix]:
    """Check a manifest, then stream its layers as float64 matrices, in order.

    Parsing, byte ranges, files and roles (with the unknown-role warning)
    are checked here, before the first layer is read. The iterator makes
    one pass and reads each layer when it is reached.
    """
    path = Path(path)
    layers = parse_manifest(path)
    base = path.parent
    _check_ranges(layers, base)
    return _stream(layers, [_role(l) for l in layers], base)


def save_manifest(
    directory: str | Path,
    matrices: Iterable[WeightMatrix],
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
