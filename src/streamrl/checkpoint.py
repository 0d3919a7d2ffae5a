"""Binary checkpoint files: a versioned header plus named float64 sections.

Layout: 8-byte magic, little-endian uint64 header length, JSON header, then
the raw float64 bytes of each section in header order. The model's parameter
vector lives in the "params" section; plugins may add their own sections
(e.g. "ewc/...", "replay/..."). Save/load round-trips are bit-exact.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .nn import Mlp

MAGIC = b"SRLCKPT1"


class CheckpointError(ValueError):
    """Malformed checkpoint file or architecture mismatch."""


def save_checkpoint(path, arch: dict, sections: dict[str, np.ndarray]) -> None:
    entries = []
    arrays = []
    for name, array in sections.items():
        # a C-contiguous float64 array (at least 1-d) is itself, not a copy
        arr = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
        entries.append({"name": name, "shape": list(arr.shape)})
        arrays.append(arr)
    header = json.dumps({"version": 1, "arch": arch, "sections": entries}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for arr in arrays:
            fh.write(arr.data)  # its bytes in C order, as tobytes() gives them, without a copy


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    raw = Path(path).read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    if len(raw) < 16:
        raise CheckpointError(f"{path}: truncated header length")
    (header_len,) = struct.unpack("<Q", raw[8:16])
    try:
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
    except ValueError as err:  # JSONDecodeError and UnicodeDecodeError
        raise CheckpointError(f"{path}: header is not valid JSON: {err}") from err
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("version") != 1:
        raise CheckpointError(f"unsupported checkpoint version {header.get('version')}")
    if "arch" not in header or not isinstance(header.get("sections"), list):
        raise CheckpointError(f"{path}: header lacks 'arch' or a 'sections' list")
    sections = {}
    offset = 16 + header_len
    for entry in header["sections"]:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(size) is int and size >= 0 for size in entry["shape"])
        ):
            raise CheckpointError(f"{path}: section entry {entry!r} needs a name and a shape")
        if entry["name"] in sections:
            raise CheckpointError(f"{path}: section {entry['name']!r} appears twice")
        count = math.prod(entry["shape"])
        nbytes = count * 8
        if offset + nbytes > len(raw):
            raise CheckpointError(f"section {entry['name']!r} truncated")
        try:
            section = np.frombuffer(raw, dtype=np.float64, count=count, offset=offset)
            sections[entry["name"]] = section.reshape(entry["shape"]).copy()
        except ValueError as err:  # a shape numpy cannot build, such as [0, 2**63]
            raise CheckpointError(
                f"section {entry['name']!r}: numpy cannot build shape {entry['shape']}: {err}"
            ) from err
        if not np.isfinite(section).all():
            raise CheckpointError(f"{path}: section {entry['name']!r} holds a non-finite value")
        offset += nbytes
    return header["arch"], sections


def save_model(path, model: Mlp, extra_sections: dict[str, np.ndarray] | None = None) -> None:
    sections = {"params": model.flatten()}
    if extra_sections:
        sections.update(extra_sections)
    save_checkpoint(path, model.arch(), sections)


def _params(sections: dict[str, np.ndarray], model: Mlp) -> np.ndarray:
    """Removes and returns the "params" section, which must fit `model`."""
    params = sections.pop("params", None)
    if params is None:
        raise CheckpointError("checkpoint has no 'params' section")
    if params.size != model.param_count:
        raise CheckpointError(
            f"checkpoint has {params.size} parameters, architecture needs {model.param_count}"
        )
    return params


def _model(arch) -> Mlp:
    """The Mlp a checkpoint's `arch` describes; CheckpointError if it describes none."""
    if not isinstance(arch, dict):
        raise CheckpointError(f"checkpoint arch must be an object, got {arch!r}")
    for key in ("sizes", "activations", "heads"):
        if key not in arch:
            raise CheckpointError(f"checkpoint arch has no {key!r}")
    try:
        return Mlp.from_arch(arch)
    except (TypeError, ValueError) as err:  # Mlp's own checks, and malformed entries
        raise CheckpointError(f"checkpoint arch {arch} is not a valid Mlp: {err}") from err


def load_model(path) -> tuple[Mlp, dict[str, np.ndarray]]:
    arch, sections = load_checkpoint(path)
    model = _model(arch)
    model.unflatten(_params(sections, model))
    return model, sections


def restore_into(model: Mlp, path) -> dict[str, np.ndarray]:
    """Load a checkpoint into an existing model, enforcing matching shape."""
    arch, sections = load_checkpoint(path)
    if arch != model.arch():
        raise CheckpointError(
            f"checkpoint architecture {arch} does not match model {model.arch()}"
        )
    model.unflatten(_params(sections, model))
    return sections
