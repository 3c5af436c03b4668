"""Public surface of the package."""

import beaconphy


def test_every_exported_name_resolves():
    missing = [name for name in beaconphy.__all__ if not hasattr(beaconphy, name)]
    assert not missing, f"beaconphy.__all__ names missing attributes: {missing}"
    assert len(set(beaconphy.__all__)) == len(beaconphy.__all__)
