"""The package's public surface."""

from __future__ import annotations

import relaymarket


def test_every_exported_name_resolves_once():
    names = relaymarket.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(relaymarket, n)] == []
