"""Crash-safe JSONL journal primitives for the campaign runner.

The journal is a write-only log of newly computed cell records (the
:class:`~repro.fabric.CampaignCache` is what a sweep resumes from).  Its
byte-level durability discipline — fsync-per-record appends and torn-tail
quarantine — lives here, apart from cell identity and scheduling; the
public surface stays on ``repro.analysis.campaign``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

__all__ = ["append_journal_record", "repair_journal"]


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
