"""Exception types shared across the package, and the file-boundary helpers that raise them."""

import hashlib
import math
import os
from collections.abc import Iterator
from pathlib import Path

# Bytes per read in LinePieces; a piece ends after its read's last line break.
_PIECE_BYTES = 1 << 16


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


class LinePieces:
    """A UTF-8 file's lines as split_lines splits them, read in pieces of
    about _PIECE_BYTES bytes.

    Iterating yields (the piece's first 1-based line number, its lines),
    and once the pieces run out `sha256` is the hex SHA-256 of every byte
    read. Each piece ends after the last \\n of its read, or in a read
    without one after its last \\r but the read's final byte, so no UTF-8
    sequence and no \\r\\n pair straddles two pieces, and a line longer
    than one read waits for its end. An undecodable byte raises
    ParseError naming it and its line, as read_text does.
    """

    def __init__(self, path: str | Path):
        self.path = path
        self.sha256: str | None = None

    def __iter__(self) -> Iterator[tuple[int, list[str]]]:
        digest = hashlib.sha256()
        first = 1
        with open(self.path, "rb") as fh:
            for piece in _newline_pieces(fh):
                digest.update(piece)
                lines = split_lines(_decode(piece, first - 1))
                yield first, lines
                first += len(lines)     # every piece but the last ends a line
        self.sha256 = digest.hexdigest()


def _newline_pieces(fh) -> Iterator[bytes]:
    held: list[bytes] = []      # what was read since the last cut
    while block := fh.read(_PIECE_BYTES):
        # a file with lone \r line ends would otherwise be one piece
        cut = block.rfind(b"\n") + 1 or block.rfind(b"\r", 0, len(block) - 1) + 1
        if cut:
            held.append(block[:cut])
            yield b"".join(held)
            held = [block[cut:]]
        else:
            held.append(block)
    tail = b"".join(held)
    if tail:
        yield tail


def _decode(data: bytes, breaks: int = 0) -> str:
    """data as UTF-8 text; breaks counts the line breaks before data in its file."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        # Lines end as split_lines ends them: at \n, \r\n or a lone \r.
        head = data[:err.start]
        breaks += head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise ParseError(f"invalid UTF-8 byte 0x{data[err.start]:02x}", line=breaks + 1) from None


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
