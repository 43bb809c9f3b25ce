"""Exception types shared across the package, and the text-input and
allocation helpers that raise them."""

import contextlib


class PolyembedError(Exception):
    """Base class for errors raised by this package."""


class ParseError(PolyembedError):
    """A text input (edge list, prior file, ...) is malformed."""


class ValidationError(PolyembedError):
    """An argument violates a documented precondition."""


class CapacityError(PolyembedError):
    """The requested operation exceeds a built-in size guard."""


class ProtocolError(PolyembedError):
    """An evaluation protocol was used inconsistently."""


class NumericsError(PolyembedError):
    """Non-finite values were produced during training."""


@contextlib.contextmanager
def allocating(what: str):
    """CapacityError for `what` when numpy cannot allocate it inside the
    block: MemoryError, or ValueError when its bytes pass what an index
    holds."""
    try:
        yield
    except (MemoryError, ValueError):
        raise CapacityError(f"no memory for {what}") from None


INT64 = range(-2**63, 2**63)   # the ids and counts a numpy index can hold


def check_settings(values: dict, positive: str = "", nonnegative: str = "") -> None:
    """ValidationError naming the first setting of `values` out of bounds:
    each name in `positive` must be > 0, each in `nonnegative` >= 0, so NaN
    fails both. A value of None is unset and passes."""
    for names, bound in ((positive, "positive"), (nonnegative, "nonnegative")):
        for name in names.split():
            value = values[name]
            if value is not None and not (value > 0 if bound == "positive"
                                          else value >= 0):
                raise ValidationError(f"{name} must be {bound}")


def parse_numbers(tokens, kind, where: str) -> list:
    """`kind` (int or float) of every token, or ParseError naming `where`."""
    try:
        return [kind(t) for t in tokens]
    except ValueError:
        raise ParseError(f"{where}: expected {kind.__name__} values, "
                         f"got {' '.join(tokens)!r}") from None


def read_text(path) -> str:
    """A UTF-8 text file's text, line ends as "\\n"; ParseError if not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None


def text_lines(path):
    """(line_no, line) of a UTF-8 text file's lines, numbered from 1."""
    return enumerate(read_text(path).split("\n"), start=1)
