import compfeat


def test_every_exported_name_resolves():
    missing = [name for name in compfeat.__all__ if not hasattr(compfeat, name)]
    assert not missing
    assert len(set(compfeat.__all__)) == len(compfeat.__all__)
