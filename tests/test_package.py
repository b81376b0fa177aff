"""The package's public names."""

import bittide_sim


def test_every_exported_name_resolves():
    missing = [name for name in bittide_sim.__all__ if not hasattr(bittide_sim, name)]
    assert missing == []
    assert len(set(bittide_sim.__all__)) == len(bittide_sim.__all__)
