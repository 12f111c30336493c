import pytest

from sgideals.corpus import all_monoids_with_zero, corpus


@pytest.fixture(scope="session")
def pool234():
    """Every monoid with zero of order 2, 3 and 4, up to isomorphism."""
    out = []
    for n in (2, 3, 4):
        out.extend(all_monoids_with_zero(n))
    return out


@pytest.fixture(scope="session")
def pool5():
    """Every monoid with zero of order 5, up to isomorphism."""
    return all_monoids_with_zero(5)


@pytest.fixture(scope="session")
def corpus_entries():
    return list(corpus().values())


@pytest.fixture(scope="session")
def ef4():
    return corpus()["ef4"]


def ix(entry, *labels):
    """Indices of named elements of a corpus entry, sorted."""
    return sorted(entry.element_names.index(w) for w in labels)
