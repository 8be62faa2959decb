"""Single-blob checkpoint format.

Layout (all integers little-endian):
    magic "FSFM" | u32 format version | u64 config length | config JSON (UTF-8)
    | u64 parameter count
then, for every parameter in ascending name order:
    u64 name length | name bytes | u64 rank | u64 dims[rank] | f64 values

The parameter count makes a file cut at a record boundary detectable.

The config JSON is the ModelConfig dict with sorted keys, so identical
configs and parameters serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

MAGIC = b"FSFM"
VERSION = 2


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, config_dict: dict, params: Dict[str, np.ndarray]) -> None:
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    cfg = json.dumps(config_dict, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob += struct.pack("<Q", len(cfg))
    blob += cfg
    blob += struct.pack("<Q", len(params))
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype="<f8")
        nb = name.encode("utf-8")
        blob += struct.pack("<Q", len(nb))
        blob += nb
        blob += struct.pack("<Q", arr.ndim)
        for d in arr.shape:
            blob += struct.pack("<Q", d)
        blob += arr.tobytes()
    write_atomic(path, bytes(blob))


def write_atomic(path, data: bytes) -> None:
    """Write `data` to a temporary file beside `path`, then rename it over `path`.

    A write that fails part-way leaves any earlier file at `path` unchanged
    and removes the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Parse a checkpoint; any malformed, truncated or over-long file raises CheckpointError."""
    raw = memoryview(Path(path).read_bytes())
    off = 0

    def take(n: int) -> memoryview:
        nonlocal off
        if n > len(raw) - off:
            # n can have more digits than int-to-str allows (a product of flipped dims)
            raise CheckpointError(f"{path}: truncated at byte {off} (a field wants more than "
                                  f"the {len(raw) - off} bytes left)")
        off += n
        return raw[off - n : off]

    def u64() -> int:
        return struct.unpack("<Q", take(8))[0]

    if take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic {bytes(raw[:4])!r}")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    config_bytes = bytes(take(u64()))
    try:
        config = json.loads(config_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: unreadable config ({e})") from None
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: config is not a JSON object")
    params: Dict[str, np.ndarray] = {}
    for _ in range(u64()):
        name_bytes = bytes(take(u64()))
        try:
            name = name_bytes.decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{path}: unreadable parameter name ({e})") from None
        if name in params:
            raise CheckpointError(f"{path}: parameter {name!r} appears twice")
        rank = u64()
        dims = tuple(u64() for _ in range(rank))
        values = np.frombuffer(take(8 * math.prod(dims)), dtype="<f8")
        try:  # dims with a 0 pass take(0) however large the others are
            params[name] = values.reshape(dims).astype(np.float64)
        except ValueError as e:
            raise CheckpointError(f"{path}: parameter {name!r} has {rank} dims numpy cannot hold ({e})") from None
    if off != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - off} trailing bytes after the last parameter")
    return config, params
