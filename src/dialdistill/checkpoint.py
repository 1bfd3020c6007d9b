"""Checkpoint persistence.

Binary layout: 5-byte magic ``SDKD1``, a little-endian uint32 header
length, a UTF-8 JSON header ``{"configs": ..., "manifest": [{"name",
"shape", "trainable"}, ...], "frozen": [...]}``, then the parameter set's
flat ``values`` as raw IEEE-754 single-precision little-endian numbers,
which holds each tensor's values in manifest order.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections import Counter

import numpy as np

from .corpus import atomic_write
from .errors import CheckpointFormatError, ContractError, NumericError
from .model import ModelConfig, ParameterSet, TransformerModel, parameter_layout

MAGIC = b"SDKD1"
_PAYLOAD_DTYPE = np.dtype("<f4")


def save_checkpoint(params: ParameterSet, configs: dict, path) -> None:
    manifest = [
        {"name": name, "shape": list(tensor.data.shape), "trainable": params.is_trainable(name)}
        for name, tensor in params.items()
    ]
    header = json.dumps(
        {"configs": configs, "manifest": manifest, "frozen": sorted(params.frozen)},
        sort_keys=True,
    ).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(params.values.astype(_PAYLOAD_DTYPE, copy=False).tobytes())


def _entry_shape(path, entry) -> tuple:
    """A manifest entry's shape; the entry must name a tensor, list its
    dimensions as non-negative integers and flag it trainable or not."""
    if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list) and type(entry.get("trainable", True)) is bool
            and all(type(n) is int and n >= 0 for n in entry["shape"])):
        raise CheckpointFormatError(f"{path}: malformed manifest entry {entry!r}")
    return tuple(entry["shape"])


def load_checkpoint(path):
    """Read a checkpoint back as (ParameterSet, configs dict)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MAGIC) + 4:
        raise CheckpointFormatError(f"{path}: truncated before header")
    if raw[: len(MAGIC)] != MAGIC:
        raise CheckpointFormatError(
            f"{path}: bad magic {raw[: len(MAGIC)]!r}, expected {MAGIC!r}"
        )
    (header_len,) = struct.unpack("<I", raw[len(MAGIC) : len(MAGIC) + 4])
    header_start = len(MAGIC) + 4
    if header_start + header_len > len(raw):
        raise CheckpointFormatError(f"{path}: header length {header_len} exceeds file size")
    try:
        header = json.loads(raw[header_start : header_start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"{path}: unreadable JSON header: {exc}") from exc
    for key in ("configs", "manifest"):
        if not isinstance(header, dict) or key not in header:
            raise CheckpointFormatError(f"{path}: header missing {key!r}")
    if not isinstance(header["manifest"], list):
        raise CheckpointFormatError(f"{path}: manifest is not a list")
    shapes = [_entry_shape(path, entry) for entry in header["manifest"]]
    repeated = sorted(n for n, count in Counter(e["name"] for e in header["manifest"]).items() if count > 1)
    if repeated:
        raise CheckpointFormatError(f"{path}: manifest lists {repeated} more than once")

    payload_start = header_start + header_len
    expected = sum(int(np.prod(shape, dtype=np.int64)) for shape in shapes) * _PAYLOAD_DTYPE.itemsize
    if len(raw) - payload_start != expected:
        raise CheckpointFormatError(
            f"{path}: payload is {len(raw) - payload_start} bytes, manifest promises {expected}"
        )
    params = ParameterSet(
        (entry["name"], shape, entry.get("trainable", True))
        for entry, shape in zip(header["manifest"], shapes)
    )
    params.values[...] = np.frombuffer(raw, dtype=_PAYLOAD_DTYPE, offset=payload_start)
    if not np.isfinite(params.values).all():
        raise NumericError(f"{path}: non-finite parameter values")
    frozen = header.get("frozen", [])
    if not (isinstance(frozen, list) and all(isinstance(n, str) and n in params for n in frozen)):
        raise CheckpointFormatError(f"{path}: 'frozen' must list manifest tensors, got {frozen!r}")
    params.freeze(frozen)
    return params, header["configs"]


def save_model(model: TransformerModel, path, extra_configs: dict = None) -> None:
    configs = {"model": model.config.to_dict()}
    if extra_configs:
        configs.update(extra_configs)
    save_checkpoint(model.params, configs, path)


def load_model(path):
    """Rebuild a TransformerModel; the stored variant drives assembly.
    Returns (model, configs). Tensor names, shapes and trainable flags are
    validated against the parameter layout of the stored configuration."""
    params, configs = load_checkpoint(path)
    if not isinstance(configs, dict) or "model" not in configs:
        raise CheckpointFormatError(f"{path}: header configs lack a 'model' section")
    try:
        config = ModelConfig(**configs["model"])
    except (TypeError, ContractError) as exc:  # not a mapping, unknown fields, or bad values
        raise CheckpointFormatError(f"{path}: unreadable model config: {exc}") from exc
    actual = {name: t.data.shape for name, t in params.items()}
    # each block has tensors of its own, so more blocks than the manifest has
    # tensors cannot fit it; checked first, since the layout grows with them
    if config.num_blocks > len(actual):
        raise CheckpointFormatError(f"{path}: {config.num_blocks} blocks cannot fit {len(actual)} tensors")
    layout = parameter_layout(config)
    expected = {name: shape for name, shape, _ in layout}
    if expected != actual:
        missing = sorted(set(expected) - set(actual))
        surplus = sorted(set(actual) - set(expected))
        shapes = sorted(
            n for n in set(expected) & set(actual) if expected[n] != actual[n]
        )
        raise CheckpointFormatError(
            f"{path}: parameters do not fit the stored configuration "
            f"(missing={missing}, surplus={surplus}, shape-mismatch={shapes})"
        )
    flipped = [name for name, _, init in layout if params.is_trainable(name) != (init != "positions")]
    if flipped:
        raise CheckpointFormatError(
            f"{path}: trainable flags disagree with the parameter layout for {flipped}")
    return TransformerModel(config, params), configs


def checkpoint_digest(path) -> str:
    """SHA-256 of the checkpoint file, for frozen-artifact assertions."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
