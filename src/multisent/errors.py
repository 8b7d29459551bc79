"""Exception types shared across the package, and the file-boundary helpers that raise them."""

import hashlib
import math
import os
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


def split_lines(text: str) -> list[str]:
    """text's lines, ended by \\n, \\r\\n or \\r only, unlike str.splitlines (U+2028 and others)."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    return lines if lines[-1] else lines[:-1]


def write_output(path: str | Path, text: str) -> None:
    """Replace the file at path with text as UTF-8, whole or not at all.

    The text goes to a new temporary file beside the target, then the
    target is unlinked and the temporary file renamed into its place.
    If anything raises, the temporary file is removed and an existing
    target keeps its bytes; an OSError names the target. Nothing is
    fsynced, so the new bytes are not crash-durable.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            # unlinking first spares the filesystem flushing the old bytes on rename-over
            path.unlink(missing_ok=True)
            os.rename(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as err:
        if err.errno is None:
            raise
        raise type(err)(err.errno, err.strerror, os.fspath(path)) from None


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
