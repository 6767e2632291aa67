"""Every entry of the reproducibility ledger is recomputed byte for byte."""

import ledger


def test_every_ledger_entry_is_reproduced():
    want = ledger.recorded()
    got = ledger.digests()
    moved = sorted(name for name in want.keys() & got.keys() if want[name] != got[name])
    assert not moved, f"{len(moved)} entries moved: {moved}"
    assert got.keys() == want.keys(), (
        f"missing: {sorted(want.keys() - got.keys())}, new: {sorted(got.keys() - want.keys())}"
    )
