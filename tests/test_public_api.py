from collections import Counter

import beamforge


def test_star_import_resolves_every_public_name_once():
    namespace: dict = {}
    # raises AttributeError for a name in __all__ that the package lacks
    exec("from beamforge import *", namespace)
    assert [name for name, n in Counter(beamforge.__all__).items() if n > 1] == []
    for name in beamforge.__all__:
        assert namespace[name] is getattr(beamforge, name)
