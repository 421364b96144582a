"""Named fixture machines and bisets used across the test suite, each read
from its file under machines/, and the inner automorphisms the tests
conjugate by."""

import functools
from pathlib import Path

from sphmach.machine import SphereMachine, tensor
from sphmach.machfile import MachineFile, parse_machine_file, load_mcb
from sphmach.mcbiset import MappingClassBiset
from sphmach.words import Automorphism, SphereGroup, conjugate

MACHINES = Path(__file__).resolve().parent.parent / "machines"


def _machine(stem: str) -> MachineFile:
    return parse_machine_file((MACHINES / f"{stem}.mach").read_text())


def z2() -> MachineFile:
    """The degree-2 cyclic cover machine over <a,b | ab>."""
    return _machine("z2")


def pilgrim() -> MachineFile:
    """The degree-5 blown-up torus endomorphism over <a,b,c,d | dcba>, with
    the twists s, t, u that drag the free marked point around the three
    critical values."""
    return _machine("fbiset")


def z5_marked() -> MachineFile:
    """z^5 with the fixed point -1 marked: degree-5 cyclic monodromy over a
    four-punctured sphere."""
    return _machine("z5belyi")


def centralizer7() -> MachineFile:
    """The degree-6 seven-puncture machine with the rank-(1+infinity)
    centralizer, its obstruction multicurve {s, t} and the four twists
    sigma, tau, alpha, beta."""
    return _machine("centralizer7")


@functools.cache
def centralizer7_tower() -> tuple[SphereMachine, ...]:
    """The centralizer7 machine and its tensor square and cube: degrees 6,
    36 and 216, where most cycles of a row carry an empty product."""
    B = centralizer7().machine
    levels = [B]
    for _ in range(2):
        levels.append(tensor(levels[-1], B))
    return tuple(levels)


def rabbit_mcb() -> MappingClassBiset:
    """The degree-2 twist recursion of the rabbit polynomial in basis
    {f_R, f_R.t} over the twist alphabet s, t, u."""
    return load_mcb(str(MACHINES / "rabbit.mcb"))


def inner(group: SphereGroup, g) -> Automorphism:
    """The inner automorphism x -> x^g = g^-1 * x * g of group."""
    g = group.normal_form(g)
    return Automorphism(group, [conjugate(group.gen(i), g)
                                for i in range(1, group.n + 1)])
