import pytest

from sphmach.mcbiset import compute_mcbiset

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
