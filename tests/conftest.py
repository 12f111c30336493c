import pytest

from sgideals.corpus import (all_monoids_with_zero, build_chain_x, build_delta, build_ef,
                             build_min_chain, corpus)


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
def pool6():
    """Every monoid with zero of order 6, up to isomorphism."""
    return all_monoids_with_zero(6)


@pytest.fixture(scope="session")
def pools(pool234, pool5, pool6):
    """The pools of order 2 to 6 by order, the same instances as pool234,
    pool5 and pool6, so tests share what each instance has memoized."""
    by_order = {n: [] for n in range(2, 7)}
    for s in [*pool234, *pool5, *pool6]:
        by_order[s.n].append(s)
    return {n: tuple(pool) for n, pool in by_order.items()}


@pytest.fixture(scope="session")
def corpus_entries():
    return list(corpus().values())


@pytest.fixture(scope="session")
def large_families():
    """The benchmark's large families as (name, monoid) pairs."""
    return [(f"{build.__name__}({k})", build(k))
            for build, k in ((build_ef, 30), (build_min_chain, 40), (build_chain_x, 30),
                             (build_delta, 10), (build_min_chain, 10))]


@pytest.fixture(scope="session")
def ef4():
    return corpus()["ef4"]


def ix(entry, *labels):
    """Indices of named elements of a corpus entry, sorted."""
    return sorted(entry.element_names.index(w) for w in labels)
