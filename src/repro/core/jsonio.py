"""Piecewise JSON writing with pre-encoded parts.

A model file holds a large part that changes only when the model is
refit (the forest) next to small parts. The forest memoises its JSON
text (:meth:`~repro.ml.RandomForest.to_json`), so a checkpoint taken
after every acknowledged batch does not re-encode it; :class:`JSONText`
carries such text inside a payload, and :func:`write_json` writes the payload to a file in
fragments. The file is byte-identical to ``json.dumps`` of the payload
with every part decoded, and the whole document is never joined into
one string in memory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator, Mapping, Union


class JSONText:
    """The JSON text of one payload value, written verbatim.

    Deliberately not a ``str``: passing a payload that holds one to
    ``json.dumps`` raises ``TypeError`` instead of writing the text as a
    quoted string.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _holds_text(mapping: Mapping[str, Any]) -> bool:
    return any(
        isinstance(value, JSONText)
        or (isinstance(value, dict) and _holds_text(value))
        for value in mapping.values()
    )


def iter_json(value: Any) -> Iterator[str]:
    """Fragments whose concatenation is ``json.dumps(value)`` with each
    :class:`JSONText` replaced by its text.

    Only dicts that hold a :class:`JSONText` somewhere are walked key by
    key (their keys must be strings); every other value is one
    ``json.dumps`` call with the default separators.
    """
    if isinstance(value, JSONText):
        yield value.text
    elif isinstance(value, dict) and _holds_text(value):
        separator = "{"
        for key, item in value.items():
            yield separator + json.dumps(key) + ": "
            yield from iter_json(item)
            separator = ", "
        yield "}"
    else:
        yield json.dumps(value)


def write_json(path: Union[str, Path], payload: Any) -> None:
    """Write ``payload`` to ``path`` fragment by fragment (see
    :func:`iter_json`)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(iter_json(payload))
