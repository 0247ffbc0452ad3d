"""Cell identities, campaign records and the recipe key set are byte-stable.

``tests/data/golden-identities.json`` was generated at the commit *before*
the run description became one ``ExecutionConfig``; a cache, journal or
recipe written on either side of that change must be readable on the
other, so every value in it has to be reproduced exactly.  The cell
digests were re-pinned once since, when the round-model components left
the identity; the record bytes did not move.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.campaign import CampaignSpec, run_campaign
from repro.fabric import CellId
from repro.replay import load_recipe, record, replay, save_recipe

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden-identities.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN["cells"]))
def test_cell_digest_is_unchanged(name):
    want = GOLDEN["cells"][name]
    spec = CampaignSpec(**want["spec"])
    (coords,) = spec.grid()
    cell = spec.cell_id(*coords)
    assert cell.payload() == want["payload"]
    assert cell.digest == want["digest"]
    assert CellId.from_payload(want["payload"]).digest == want["digest"]


def test_legacy_journal_record_identity_is_unchanged():
    want = GOLDEN["legacy_record"]
    assert CellId.from_record(want["record"]).digest == want["digest"]


@pytest.mark.parametrize("name", sorted(GOLDEN["campaign_records"]))
def test_campaign_record_bytes_are_unchanged(name):
    want = GOLDEN["campaign_records"][name]
    (record_,) = run_campaign(CampaignSpec(**want["spec"]))
    assert json.dumps(record_, sort_keys=True) == want["record"]
    cell = CellId.from_record(record_)
    assert cell == CampaignSpec(**want["spec"]).cell_id(16, "none", 0)


def test_recipe_keeps_its_flat_key_set(tmp_path):
    recorded = record(
        "ben-or", [0, 1, 1, 0, 1, 0, 1], t=1, seed=5,
        transport="tcp", transport_options={"processes_per_worker": 4},
    )
    path = save_recipe(recorded.recipe, tmp_path / "recipe.json")
    assert sorted(json.loads(path.read_text())) == GOLDEN["recipe_keys"]
    assert load_recipe(path) == recorded.recipe


def test_golden_recipe_still_loads_and_replays():
    report = replay(load_recipe(DATA / "golden-ben-or.json"))
    assert report.ok and report.mismatches == []
