"""Crash-safe JSONL journal primitives for the campaign runner.

Extracted from :mod:`repro.analysis.campaign` so the byte-level durability
discipline (fsync-per-record appends, torn-tail quarantine, tolerant
parsing) lives apart from cell identity and scheduling.  The public
surface stays on ``repro.analysis.campaign``; ``load_journal`` there adds
the duplicate-cell merge, keyed on the campaign name and the
:class:`~repro.fabric.CellId`, on top of the raw parser here.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

__all__ = [
    "append_journal_record",
    "load_journal_records",
    "repair_journal",
]


def append_journal_record(path: str | Path, record: dict[str, Any]) -> None:
    """Append one record to a JSONL journal, flushed and fsynced.

    Each record is a single ``sort_keys`` JSON line, so the journal is both
    greppable and byte-stable for a given record content.  The journal is
    checked for a crash-truncated tail first (:func:`repair_journal`), so a
    new record can never be merged into a partial line left by a crash
    mid-append.
    """
    line = json.dumps(record, sort_keys=True)
    repair_journal(path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def repair_journal(path: str | Path) -> bytes:
    """Quarantine a crash-truncated journal tail; returns the bytes removed.

    A crash mid-append (despite the fsync-per-record discipline, a record
    write is not atomic at the OS level) can leave the final line without
    its terminating newline — possibly cut mid-record or even mid UTF-8
    character.  Appending to such a journal would merge the next record
    into the partial line, corrupting both.  This restores the invariant
    that every journal byte belongs to a newline-terminated line:

    * a tail that is a complete JSON record merely missing its newline is
      terminated in place (nothing is lost);
    * a genuinely truncated tail is cut from the journal and appended to a
      ``<name>.quarantine`` sidecar next to it, so no bytes are silently
      destroyed; the function returns them (``b""`` when the journal was
      already clean, empty, or absent).
    """
    journal = Path(path)
    try:
        with open(journal, "rb") as handle:
            size = handle.seek(0, os.SEEK_END)
            if size == 0:
                return b""
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) == b"\n":
                return b""
            # Dirty tail: only now pay for reading the whole journal.
            handle.seek(0)
            data = handle.read()
    except FileNotFoundError:
        return b""
    cut = data.rfind(b"\n") + 1  # 0 when no complete line exists at all
    tail = data[cut:]
    try:
        json.loads(tail.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        quarantine = journal.with_name(journal.name + ".quarantine")
        with open(quarantine, "ab") as handle:
            handle.write(tail + b"\n")
            handle.flush()
            os.fsync(handle.fileno())
        with open(journal, "r+b") as handle:
            handle.truncate(cut)
            handle.flush()
            os.fsync(handle.fileno())
        return tail
    # The record survived intact; only its newline went missing.
    with open(journal, "ab") as handle:
        handle.write(b"\n")
        handle.flush()
        os.fsync(handle.fileno())
    return b""


def load_journal_records(path: str | Path) -> list[dict[str, Any]]:
    """Raw line-by-line parse of a JSONL journal (no deduplication).

    Crash-tolerant: every line is decoded and parsed independently, so a
    final line truncated mid-append — at any byte offset, including the
    middle of a multi-byte UTF-8 character — is skipped rather than fatal.
    """
    records: list[dict[str, Any]] = []
    for line in Path(path).read_bytes().split(b"\n"):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line.decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError):
            continue
    return records
