"""Stream persistence: newline-delimited plain-text streams.

Streams are stored one item per line.  Flat element streams store the element
(int or string) directly; user-level streams store the user's elements as a
comma-separated list.  The format is deliberately trivial so that traces can
be produced or inspected with standard command-line tools.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, List, Union

from ..exceptions import StreamFormatError

PathLike = Union[str, Path]


def write_stream(path: PathLike, stream: Iterable, user_level: bool = False) -> int:
    """Write a stream to ``path``; returns the number of items written.

    ``user_level=True`` expects each item to be an iterable of elements and
    stores it as a comma-separated line.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with target.open("w", encoding="utf-8") as handle:
        for item in stream:
            if user_level:
                parts = [str(element) for element in item]
                if any("," in part or "\n" in part for part in parts):
                    raise StreamFormatError("user-level elements must not contain ',' or newlines")
                handle.write(",".join(parts) + "\n")
            else:
                text = str(item)
                if "\n" in text:
                    raise StreamFormatError("stream elements must not contain newlines")
                handle.write(text + "\n")
            count += 1
    return count


def read_stream(path: PathLike, user_level: bool = False,
                parse_int: bool = True) -> List:
    """Read a stream previously written by :func:`write_stream`.

    ``parse_int=True`` converts elements that look like integers back to int,
    leaving other tokens as strings.
    """
    source = Path(path)
    items: List = []
    with source.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line and not user_level:
                continue
            if user_level:
                elements = [_parse_token(token, parse_int) for token in line.split(",") if token]
                items.append(frozenset(elements))
            else:
                items.append(_parse_token(line, parse_int))
    return items


def iter_stream(path: PathLike, parse_int: bool = True) -> Iterator:
    """Lazily iterate over a flat element stream without loading it in memory."""
    source = Path(path)
    with source.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line:
                yield _parse_token(line, parse_int)


def _parse_token(token: str, parse_int: bool):
    if not parse_int:
        return token
    try:
        return int(token)
    except ValueError:
        return token
