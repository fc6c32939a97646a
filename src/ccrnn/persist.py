"""On-disk formats: demand blob, metadata sidecar, and checkpoint container.

Everything here is byte-deterministic: fixed little-endian binary layouts and
text sections whose ordering follows insertion order, so save -> load -> save
reproduces files exactly. Nothing architecture-dependent is written. Every
file is written through `persist`, so a write that fails part-way leaves the
previous file in place; the readers raise only `FormatError` on bad bytes.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEMAND_MAGIC = b"DMD1"
CHECKPOINT_VERSION = "ccrnn-checkpoint v1"
TENSOR_PREFIX = "param/"


class FormatError(ValueError):
    """The bytes on disk do not match the expected layout."""


class VersionError(FormatError):
    """A container was written by an incompatible format version."""


def persist(path, *chunks: bytes) -> None:
    """Replace `path` with `chunks` atomically: write a sibling temp file, then rename.

    A failure at any point leaves the previous file (or no file) at `path`.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def _malformed(path):
    """Report any parse failure in `path` as a FormatError."""
    try:
        yield
    except FormatError:
        raise
    except (ValueError, KeyError, IndexError, OverflowError, struct.error) as e:
        raise FormatError(f"malformed {Path(path).name}: {e}") from e


# ---------------------------------------------------------------------------
# demand blob: magic, T/N/d as u64 LE, then T*N*d f64 LE row-major
# ---------------------------------------------------------------------------


def write_demand_blob(path, values: np.ndarray) -> None:
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    if arr.ndim != 3:
        raise ValueError(f"demand tensor must be (T, N, d), got {arr.shape}")
    header = DEMAND_MAGIC + struct.pack("<QQQ", *arr.shape)
    persist(path, header, arr.astype("<f8").tobytes(order="C"))


def read_demand_blob(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != DEMAND_MAGIC:
        raise FormatError(f"bad magic {raw[:4]!r}, expected {DEMAND_MAGIC!r}")
    with _malformed(path):
        t, n, d = struct.unpack_from("<QQQ", raw, 4)
        expected = 28 + t * n * d * 8
        if len(raw) != expected:
            raise FormatError(f"blob is {len(raw)} bytes, header implies {expected}")
        data = np.frombuffer(raw, dtype="<f8", offset=28)
        return data.reshape(t, n, d).astype(np.float64)


# ---------------------------------------------------------------------------
# sidecar metadata: 'key: value' lines, order-preserving
# ---------------------------------------------------------------------------


def write_sidecar(path, entries: dict[str, str]) -> None:
    lines = []
    for key, value in entries.items():
        value = str(value)
        if "\n" in key or "\n" in value or ":" in key:
            raise ValueError(f"unrepresentable sidecar entry {key!r}")
        lines.append(f"{key}: {value}")
    persist(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_sidecar(path) -> dict[str, str]:
    raw = Path(path).read_bytes()
    with _malformed(path):
        text = raw.decode("utf-8")
    entries: dict[str, str] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if ": " not in line:
            raise FormatError(f"malformed sidecar line {line!r}")
        key, value = line.split(": ", 1)
        entries[key] = value
    return entries


# ---------------------------------------------------------------------------
# checkpoint container: version line, text sections, binary tensor payload
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    meta: dict[str, str] = field(default_factory=dict)
    config: dict[str, str] = field(default_factory=dict)
    scaler_mean: np.ndarray | None = None
    scaler_std: np.ndarray | None = None
    stations_csv: str | None = None
    tensors: dict[str, np.ndarray] = field(default_factory=dict)


def _fmt_floats(values: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in np.asarray(values).ravel())


def _parse_floats(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")]) if text else np.array([])


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write the container: text manifest, then concatenated tensor bytes."""
    entries = [
        (f"{TENSOR_PREFIX}{name}", np.ascontiguousarray(arr, dtype="<f8"))
        for name, arr in ckpt.tensors.items()
    ]

    lines = [CHECKPOINT_VERSION]
    for section, mapping in (("meta", ckpt.meta), ("config", ckpt.config)):
        lines.append(f"[{section}]")
        for key, value in mapping.items():
            value = str(value)
            if "\n" in key or "\n" in value or "=" in key:
                raise ValueError(f"unrepresentable {section} entry {key!r}")
            lines.append(f"{key}={value}")
    if ckpt.scaler_mean is not None:
        lines.append("[scaler]")
        lines.append(f"mean={_fmt_floats(ckpt.scaler_mean)}")
        lines.append(f"std={_fmt_floats(ckpt.scaler_std)}")
    if ckpt.stations_csv is not None:
        lines.append("[stations]")
        lines.extend(ckpt.stations_csv.rstrip("\n").split("\n"))
    lines.append("[tensors]")
    offset = 0
    for name, arr in entries:
        shape = ",".join(str(s) for s in arr.shape) or "-"
        lines.append(f"{name} {shape} {offset} {arr.nbytes}")
        offset += arr.nbytes
    lines.append(f"[payload {offset}]")

    manifest = ("\n".join(lines) + "\n").encode("utf-8")
    persist(path, manifest, *(arr.tobytes(order="C") for _, arr in entries))


def load_checkpoint(path) -> Checkpoint:
    raw = Path(path).read_bytes()
    with _malformed(path):
        return _parse_checkpoint(raw)


def _parse_checkpoint(raw: bytes) -> Checkpoint:
    newline = raw.index(b"\n")
    version = raw[:newline].decode("utf-8")
    if version != CHECKPOINT_VERSION:
        raise VersionError(
            f"checkpoint version {version!r} is not supported; "
            f"this build reads {CHECKPOINT_VERSION!r}"
        )

    # The manifest ends at the '[payload N]' line; bytes follow immediately.
    marker = b"\n[payload "
    at = raw.index(marker)
    payload_line_end = raw.index(b"\n", at + 1)
    payload_size = int(raw[at + len(marker) : payload_line_end - 1])  # strip ']'
    payload = raw[payload_line_end + 1 :]
    if len(payload) != payload_size:
        raise FormatError(f"payload is {len(payload)} bytes, manifest says {payload_size}")

    manifest = raw[newline + 1 : at].decode("utf-8").split("\n")
    ckpt = Checkpoint()
    section = None
    station_lines: list[str] = []
    end = 0  # the tensors tile the payload in manifest order
    for line in manifest:
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            continue
        if not line:
            continue
        if section in ("meta", "config"):
            key, value = line.split("=", 1)
            getattr(ckpt, section)[key] = value
        elif section == "scaler":
            key, value = line.split("=", 1)
            if key == "mean":
                ckpt.scaler_mean = _parse_floats(value)
            else:
                ckpt.scaler_std = _parse_floats(value)
        elif section == "stations":
            station_lines.append(line)
        elif section == "tensors":
            name, shape_s, offset_s, nbytes_s = line.split(" ")
            shape = () if shape_s == "-" else tuple(int(s) for s in shape_s.split(","))
            offset, nbytes = int(offset_s), int(nbytes_s)
            if offset != end:
                raise FormatError(f"tensor {name!r} starts at byte {offset}, not {end}")
            if nbytes != 8 * math.prod(shape):
                raise FormatError(f"tensor {name!r} has {nbytes} bytes for shape {shape}")
            end += nbytes
            arr = (
                np.frombuffer(payload, dtype="<f8", count=nbytes // 8, offset=offset)
                .reshape(shape)
                .astype(np.float64)
            )
            if not name.startswith(TENSOR_PREFIX):
                raise FormatError(f"tensor {name!r} lacks the {TENSOR_PREFIX!r} prefix")
            ckpt.tensors[name.removeprefix(TENSOR_PREFIX)] = arr
        else:
            raise FormatError(f"line {line!r} outside any known section")
    if end != payload_size:
        raise FormatError(f"tensors end at byte {end} of a {payload_size}-byte payload")
    if station_lines:
        ckpt.stations_csv = "\n".join(station_lines) + "\n"
    return ckpt
