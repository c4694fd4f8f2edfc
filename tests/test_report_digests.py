"""Every report of the fixed CLI sweep in ``tests/report_digests.py`` is
byte-identical to the one whose digest is committed."""

import json

from report_digests import DIGESTS, compute


def test_reports_match_the_committed_digests():
    committed = json.loads(DIGESTS.read_text())
    found = compute()
    assert sorted(found) == sorted(committed)
    assert [name for name in sorted(found) if found[name] != committed[name]] == []
