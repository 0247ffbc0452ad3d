"""The receive rule: a protocol message is a tuple headed by its tag.

``tagged`` / ``tagged_from`` keep an inbox's payloads (with their senders)
headed by one tag, the same on every inbox kind; the shipped protocols
share one message space, so their tags must all differ.
"""

import ast
from pathlib import Path

import pytest

from repro.runtime import (
    ColumnInbox,
    Message,
    delivery,
    inbox_payloads,
    inbox_senders,
    tagged,
    tagged_from,
)
from repro.runtime.delivery import CopyColumns

from .delivery_oracle import batch_of

#: Sender i sends PAYLOADS[i] to pid 0: every shape a receive step skips
#: (not a tuple, the empty tuple, a foreign tag, a list headed by the tag)
#: around the ones it keeps.
PAYLOADS = [(7, 1), "x", (), (7,), (8, 1), (7, 1, 2), [7, 1], None, (7, 0)]


def inboxes():
    messages = [
        Message(sender, 0, payload, bits=1) for sender, payload in enumerate(PAYLOADS)
    ]
    delivered: list = [[]]
    delivery.deliver(batch_of(messages), (), delivered, None)
    columns = CopyColumns.of(
        list(range(len(PAYLOADS))), [0] * len(PAYLOADS), list(PAYLOADS), [1] * len(PAYLOADS)
    )
    return {
        "lazy": delivered[0],
        "columns": ColumnInbox(columns),
        "list": messages,
    }


@pytest.mark.parametrize("kind", ["lazy", "columns", "list"])
def test_tagged_keeps_tag_headed_tuples_in_inbox_order(kind):
    inbox = inboxes()[kind]
    assert tagged(inbox, 7) == [(7, 1), (7,), (7, 1, 2), (7, 0)]
    assert tagged(inbox, 7, 2) == [(7, 1), (7, 0)]
    assert tagged(inbox, 7, 1) == [(7,)]
    assert tagged(inbox, 8, 3) == []
    assert tagged(inbox, 9) == []
    senders, payloads = inbox_senders(inbox), inbox_payloads(inbox)
    assert tagged_from(senders, payloads, 7) == [
        (0, (7, 1)), (3, (7,)), (5, (7, 1, 2)), (8, (7, 0))
    ]
    assert tagged_from(senders, payloads, 7, 2) == [(0, (7, 1)), (8, (7, 0))]
    assert tagged_from(senders, payloads, 8) == [(4, (8, 1))]
    if kind == "lazy":
        assert inbox._items is None  # read by column, no Message built


def tag_assignments(tree):
    """``(name, value)`` of every module-level ``TAG_* = <constant>``."""
    return [
        (target.id, node.value.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("TAG_")
    ]


def test_protocol_tags_are_distinct():
    """Multivalued, early-stopping and tradeoff runs carry Algorithm 1's,
    Dolev-Strong's and their own tags in one inbox: a tag two modules
    allocated would let one protocol's receive step read another's
    messages."""
    package = Path(__file__).resolve().parent.parent / "src" / "repro"
    tags = {
        f"{path.stem}.{name}": value
        for layer in ("core", "baselines")
        for path in sorted((package / layer).rglob("*.py"))
        for name, value in tag_assignments(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert len(tags) >= 20
    owners: dict = {}
    for name, value in tags.items():
        owners.setdefault(value, []).append(name)
    assert {value: names for value, names in owners.items() if len(names) > 1} == {}
    planted = ast.parse("TAG_A = 1\nTAG_B = 1\nOTHER = 1\nfrom x import TAG_C\n")
    assert tag_assignments(planted) == [("TAG_A", 1), ("TAG_B", 1)]
