import pytest

from sphmach.mcbiset import compute_mcbiset, full_twist_generators

import zoo


@pytest.fixture(scope="session")
def pilgrim_mcb():
    """The 120-orbit biset of the degree-5 machine under s, t, u, with its
    machine file: a function that builds it on the first call and shares
    it for the rest of the session, so that the first caller pays for the
    build inside its own timing."""
    built = []

    def get():
        if not built:
            mf = zoo.pilgrim()
            built.append((compute_mcbiset(
                mf.machine, [(n, mf.autos[n]) for n in "stu"]), mf))
        return built[0]

    return get


@pytest.fixture(scope="session")
def pilgrim_full_mcb():
    """The same biset under all six twists t_{i,j}, built on the first
    call and shared like pilgrim_mcb."""
    built = []

    def get():
        if not built:
            M = zoo.pilgrim().machine
            built.append(compute_mcbiset(M, full_twist_generators(M.source)))
        return built[0]

    return get
