"""Minimal binary PGM (P5) / PPM (P6) reading and writing, maxval 255."""

from __future__ import annotations

import re

import numpy as np

from .errors import BadMagic, TruncatedRecord

# one header field after whitespace and # comments; empty at the end of the blob
_FIELD = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def write_ppm(img: np.ndarray) -> bytes:
    """(H, W, 3) uint8 -> binary PPM."""
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError(f"expected (H, W, 3) uint8, got {img.shape} {img.dtype}")
    h, w = img.shape[:2]
    return f"P6\n{w} {h}\n255\n".encode() + img.tobytes()


def write_pgm(img: np.ndarray) -> bytes:
    """(H, W) uint8 -> binary PGM."""
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ValueError(f"expected (H, W) uint8, got {img.shape} {img.dtype}")
    h, w = img.shape
    return f"P5\n{w} {h}\n255\n".encode() + img.tobytes()


def read_netpbm(blob: bytes) -> np.ndarray:
    """Parse binary PGM/PPM into (H, W) or (H, W, 3) uint8."""
    magic = blob[:2]
    if magic not in (b"P5", b"P6"):
        raise BadMagic(f"expected P5/P6, got {magic!r}")
    pos, fields = 2, []
    for _ in range(3):  # width, height, maxval
        m = _FIELD.match(blob, pos)
        field, pos = m[1], m.end()
        if not field:
            raise TruncatedRecord("incomplete netpbm header")
        if not field.isdigit():
            raise BadMagic(f"expected a decimal header field, got {bytes(field)!r}")
        fields.append(int(field))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if not (w and h):
        raise BadMagic(f"image sides must be positive, got {w}x{h}")
    if maxval != 255:
        raise BadMagic(f"only maxval 255 supported, got {maxval}")
    channels = 1 if magic == b"P5" else 3
    need = w * h * channels
    got = max(len(blob) - pos, 0)
    if got != need:
        raise TruncatedRecord(f"expected {need} pixel bytes, got {got}")
    data = np.frombuffer(blob, dtype=np.uint8, count=need, offset=pos)
    if channels == 1:
        return data.reshape(h, w).copy()
    return data.reshape(h, w, 3).copy()


def luminance(img: np.ndarray) -> np.ndarray:
    """Gray copy of an image; BT.601 weights for color inputs."""
    if img.ndim == 2:
        return img.copy()
    gray = 0.299 * img[:, :, 0] + 0.587 * img[:, :, 1] + 0.114 * img[:, :, 2]
    return np.floor(gray + 0.5).astype(np.uint8)
