"""Exception types shared across the package, and the file-boundary helpers that raise them."""

import hashlib
import math
from pathlib import Path


class MultisentError(Exception):
    """Base class for all errors raised by this package.

    Every instance pickles with its class, message and attributes, so an
    error raised in a worker process reaches the caller as it was raised.
    """

    def __reduce__(self):
        # Rebuilt without __init__: a subclass's parameters differ from its args.
        return _rebuild, (type(self), self.args, self.__dict__)


def _rebuild(cls: type, args: tuple, state: dict) -> MultisentError:
    err = cls.__new__(cls, *args)
    err.__dict__.update(state)
    return err


class ParseError(MultisentError):
    """A file could not be parsed. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SchemaError(MultisentError):
    """A parsed value violates the declared schema (unknown label, lang, ...)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ArgumentError(MultisentError, ValueError):
    """An operation was called with invalid arguments."""


class ConfigurationError(MultisentError):
    """Inconsistent configuration (dims, languages, fingerprints, modes)."""


class CoverageError(MultisentError):
    """A bilingual dictionary covers fewer pivot words than requested."""

    def __init__(self, message: str, shortfall: int):
        self.shortfall = shortfall
        super().__init__(message)


class RecordDropError(MultisentError):
    """A record became empty during preprocessing. Carries the record id."""

    def __init__(self, record_id: str, message: str):
        self.record_id = record_id
        super().__init__(f"record {record_id!r}: {message}")


class LeakageError(MultisentError):
    """A held-out test record was consulted while building training artifacts."""


def read_text(path: str | Path) -> str:
    """A UTF-8 file's text; an undecodable byte raises ParseError naming its line."""
    return _decode(Path(path).read_bytes())


def read_text_sha256(path: str | Path) -> tuple[str, str]:
    """read_text's result and the hex SHA-256 of the bytes it decoded."""
    data = Path(path).read_bytes()
    return _decode(data), hashlib.sha256(data).hexdigest()


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(
            f"invalid UTF-8 byte 0x{data[err.start]:02x}", line=data.count(b"\n", 0, err.start) + 1
        ) from None


def parse_numbers(fields: list[str], kind: type, what: str, text: str, line: int) -> list:
    """fields as kind (int or float); a non-numeric or non-finite one raises ParseError
    naming `what`, the line's text and its 1-based number."""
    try:
        values = [kind(f) for f in fields]
    except ValueError:
        raise ParseError(f"non-numeric {what} in {text!r}", line=line) from None
    if kind is float and not all(map(math.isfinite, values)):
        raise ParseError(f"non-finite {what} in {text!r}", line=line)
    return values
