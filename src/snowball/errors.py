"""Exception taxonomy shared across the package: the CLI's exit-code table.

Each class under SnowballError is one row: a ConfigError (configuration,
usage, aggregation, orchestration) exits with 1, a DataError (datasets,
files, discovery) with 2, and a DivergenceError or NumericsError with 3.
"""

from __future__ import annotations

import contextlib


class SnowballError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(SnowballError):
    """Invalid configuration value, incompatible shapes, or bad usage."""


class DataError(SnowballError):
    """Problem with a dataset: parse failures, impossible splits, bad labels."""


class NumericsError(SnowballError):
    """Non-finite values produced during a forward pass."""


class DivergenceError(SnowballError):
    """Training produced non-finite losses or parameters at ``step``."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


@contextlib.contextmanager
def reading(path, error: type[SnowballError] = DataError):
    """Raise ``error`` naming path for a file or directory that cannot be
    opened, read, made or written (missing, a directory or a file where the
    other is needed, no permission) or whose text is not valid UTF-8."""
    try:
        yield
    except UnicodeDecodeError as err:
        raise error(f"{path}: {err}") from None
    except OSError as err:
        raise error(f"{path}: {err.strerror or err}") from None
