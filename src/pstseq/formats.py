"""Reading and writing systems and sequences.

Text format ``.psts``: first line ``order N``; each following
non-comment line is one block as whitespace-separated labels; ``#``
starts a comment.  JSON mirror: ``{"order": N, "blocks": [[l1,l2,l3],
...]}``.  Sequences: one whitespace-separated line of labels, or a JSON
array.  Both are read as UTF-8 text; ``load_system`` also returns the
SHA-256 of the bytes it parsed, so a report names exactly what was read.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable

from .core import Sequence, TripleSystem, _is_int_token, validate_system
from .errors import InputError


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def parse_system_text(text: str, source: str = "<string>") -> TripleSystem:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_system_json(stripped, source)
    order = None
    blocks = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if order is None:
            parts = line.split()
            if len(parts) != 2 or parts[0].lower() != "order" or not _is_int_token(parts[1]):
                raise InputError(f"{source}, line {lineno}: expected 'order N', got {raw!r}")
            order = int(parts[1])
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise InputError(
                f"{source}, line {lineno}: a block needs 3 labels, got {len(tokens)}"
            )
        blocks.append(tokens)
    if order is None:
        raise InputError(f"{source}: missing 'order N' header line")
    return validate_system(order, blocks)


def parse_system_json(text: str, source: str = "<string>") -> TripleSystem:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{source}, line {exc.lineno}: invalid JSON ({exc.msg})") from None
    if not isinstance(data, dict) or "order" not in data or "blocks" not in data:
        raise InputError(f"{source}: JSON system needs 'order' and 'blocks' keys")
    order, blocks = data["order"], data["blocks"]
    if not isinstance(order, int) or isinstance(order, bool):
        raise InputError(f"{source}: 'order' must be an integer")
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise InputError(f"{source}: 'blocks' must be a list of lists")
    for block in blocks:
        for tok in block:
            if not isinstance(tok, (str, int)) or isinstance(tok, bool):
                raise InputError(f"{source}: a label must be a string or an integer, got {tok!r}")
    return validate_system(order, blocks)


def _read(path) -> tuple[str, bytes]:
    """The file's bytes and their text: UTF-8 without a leading
    byte-order mark, newlines made ``\\n``."""
    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {p}: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{p}: not UTF-8 text (byte {data[exc.start]:#04x} at offset {exc.start})"
        ) from None
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n"), data


def load_system(path) -> tuple[TripleSystem, str]:
    """Read and parse a system file, reading it once.

    Returns the system and the SHA-256 hex digest of the bytes parsed,
    so a pipe or FIFO is hashed as read, not re-read.
    """
    text, data = _read(path)
    return parse_system_text(text, source=str(Path(path))), hashlib.sha256(data).hexdigest()


def system_to_psts(system: TripleSystem, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.extend("# " + c for c in comment.splitlines())
    lines.append(f"order {system.n}")
    for blk in system.blocks:
        lines.append(" ".join(system.block_labels(blk)))
    return "\n".join(lines) + "\n"


def system_to_json_obj(system: TripleSystem) -> dict:
    return {
        "order": system.n,
        "blocks": [list(system.block_labels(b)) for b in system.blocks],
    }


def parse_sequence_text(text: str, system: TripleSystem, source: str = "<string>") -> Sequence:
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            tokens = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise InputError(f"{source}: invalid JSON sequence ({exc.msg})") from None
    else:
        tokens = stripped.split()
    return system.sequence_from_labels(tokens)


def load_sequence(path, system: TripleSystem) -> Sequence:
    return parse_sequence_text(_read(path)[0], system, source=str(Path(path)))


def sequence_to_text(seq: Sequence | Iterable[int], system: TripleSystem) -> str:
    return " ".join(system.sequence_labels(seq)) + "\n"
