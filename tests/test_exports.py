"""The package's public names."""

import lettucesim as ls


def test_every_export_exists():
    missing = [name for name in ls.__all__ if not hasattr(ls, name)]
    assert missing == []
