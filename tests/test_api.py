import atlaspack


def test_all_names_resolve_without_duplicates():
    names = atlaspack.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(atlaspack, n)]
    assert missing == []
