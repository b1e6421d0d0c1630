"""Exception taxonomy shared across the package, and the checked file readers."""

import struct

import numpy as np


class DigrlError(Exception):
    """Base class for all package-specific errors."""


class SizeError(DigrlError, ValueError):
    """An input collection has the wrong number of elements."""


class ShapeError(DigrlError, ValueError):
    """An array argument has the wrong shape or a non-scalar was given."""


class TopologyError(DigrlError, ValueError):
    """A mesh is not watertight or otherwise structurally broken."""


class DegenerateGeometryError(DigrlError, ValueError):
    """Geometry collapsed to lower dimension (coplanar hull input, zero volume)."""


class PlacementError(DigrlError, RuntimeError):
    """An object could not be placed into the tray within the retry budget."""


class ProtocolError(DigrlError, RuntimeError):
    """An API was driven out of order (e.g. stepping a finished episode)."""


class EmptyObservationError(DigrlError, RuntimeError):
    """Sensor crop produced zero points."""


class ConfigError(DigrlError, ValueError):
    """A config file or profile override is malformed."""


class BlobReader:
    """Sequential reads from the bytes of a binary file.

    Every read checks the remaining length first, so truncated input raises
    ShapeError instead of a struct or numpy error; :meth:`finish` rejects
    trailing bytes.
    """

    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.path = path
        self.off = 0

    def _advance(self, nbytes: int) -> int:
        start, end = self.off, self.off + nbytes
        if end > len(self.blob):
            raise ShapeError(f"{self.path}: truncated, needs {end} bytes, has {len(self.blob)}")
        self.off = end
        return start

    def take(self, nbytes: int) -> bytes:
        start = self._advance(nbytes)
        return self.blob[start : self.off]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.blob, self._advance(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        """A writable copy of ``count`` items of ``dtype``."""
        start = self._advance(np.dtype(dtype).itemsize * count)
        return np.frombuffer(self.blob, dtype=dtype, count=count, offset=start).copy()

    def finish(self) -> None:
        if self.off != len(self.blob):
            raise ShapeError(f"{self.path}: {len(self.blob) - self.off} trailing bytes")


def text_lines(path):
    """``(line number, line)`` pairs of a UTF-8 text file, each line with its newline.

    A line that is not UTF-8 raises ShapeError naming ``path:line``.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ShapeError(f"{path}:{lineno}: not UTF-8 text") from None


def require_positive(**sizes: int) -> None:
    """Raise SizeError naming the first of ``sizes`` that is below 1."""
    for name, value in sizes.items():
        if value < 1:
            raise SizeError(f"{name} must be at least 1, got {value}")


# Rules for float tunables, as (what the rule says, its test); NaN fails every test.
POSITIVE = ("finite and > 0", lambda v: 0.0 < v < np.inf)
NON_NEGATIVE = ("finite and >= 0", lambda v: 0.0 <= v < np.inf)
FRACTION = ("in [0, 1)", lambda v: 0.0 <= v < 1.0)


def require(rule: tuple, **values: float) -> None:
    """Raise ConfigError naming the first of ``values`` that breaks ``rule``."""
    text, holds = rule
    for name, value in values.items():
        if not holds(value):
            raise ConfigError(f"{name} must be {text}, got {value}")
