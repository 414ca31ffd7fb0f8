import os
import random
import threading

import pytest

from simqwalk import build_walk_space, clique_complex, karate_club_complex, step_operator, unitary_spectrum

TRIANGLE_EDGES = [(1, 2), (1, 3), (2, 3)]
BOWTIE_EDGES = [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)]
K4_EDGES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fails a test that leaves a non-daemon thread running at teardown."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before and not t.daemon]
    if left:
        pytest.fail(f"threads left running after the test: {left}")


def fake_physical_memory(monkeypatch, nbytes):
    """Report ``nbytes`` of physical memory, in whole 4 KiB pages, to the memory guards."""
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": nbytes // 4096}
    monkeypatch.setattr(os, "sysconf", memory.get)


def random_clique_complex(seed):
    """Clique complex (up to dimension 3) of a seeded G(n, 1/2) graph on 7 to 11 vertices."""
    rng = random.Random(seed)
    size = rng.randint(7, 11)
    pairs = [(u, v) for u in range(1, size + 1) for v in range(u + 1, size + 1)]
    return clique_complex([edge for edge in pairs if rng.random() < 0.5], max_dim=3)


@pytest.fixture(scope="session")
def path_complex():
    return clique_complex([(1, 2), (2, 3)], max_dim=2)


@pytest.fixture(scope="session")
def filled_triangle():
    return clique_complex(TRIANGLE_EDGES, max_dim=2)


@pytest.fixture(scope="session")
def hollow_triangle():
    return clique_complex(TRIANGLE_EDGES, max_dim=1)


@pytest.fixture(scope="session")
def bowtie():
    return clique_complex(BOWTIE_EDGES, max_dim=2)


@pytest.fixture(scope="session")
def tetrahedron():
    return clique_complex(K4_EDGES, max_dim=3)


@pytest.fixture(scope="session")
def star():
    return clique_complex([(1, 2), (1, 3), (1, 4)], max_dim=2)


@pytest.fixture(scope="session")
def two_edges():
    return clique_complex([(1, 2), (3, 4)], max_dim=2)


@pytest.fixture(scope="session")
def karate():
    return karate_club_complex()


@pytest.fixture(scope="session")
def karate_walk_n1(karate):
    return step_operator(build_walk_space(karate, 1))


@pytest.fixture(scope="session")
def karate_walk_n2(karate):
    return step_operator(build_walk_space(karate, 2))


@pytest.fixture(scope="session")
def karate_spectrum_n1(karate_walk_n1):
    # one real symmetric eigh of the 1056-arc step operator in the reverse-arc
    # basis, shared by tests
    return unitary_spectrum(karate_walk_n1)
