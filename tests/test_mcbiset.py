import hashlib
import inspect
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sphmach import mcbiset, perms, words
from sphmach.cli import main
from sphmach.machfile import save_mcb
from sphmach.words import (
    SphereGroup, ConjClass, Automorphism, outer_equal, outer_normalize, wmul,
    winv, reduce_word, inner_conjugator, is_peripheral_preserving, EPSILON,
    substitute_all,
)
from sphmach.machine import (
    SphereMachine, WreathElement, BasisChange, MachineError,
    change_basis, pre_compose, post_compose, tensor, normalize_basis,
)
from sphmach.mcbiset import (
    distill, machine_isomorphism, same_left_orbit,
    compute_mcbiset, full_twist_generators, rewrite, conjugacy_iterate,
    monodromy, correspondence_invariants, twist_fingerprint, twist_power_label,
    lift_multiset_in_mcbiset, ReconstructionError,
    MappingClassBiset, TableEdge, Terminal,
)

import zoo


def rand_twist_product(rng, G, twists, count):
    phi = Automorphism.identity(G)
    for _ in range(count):
        phi = phi.compose(rng.choice(twists))
    return phi


def test_distill_z2():
    z2 = zoo.z2().machine
    d = distill(z2)
    assert d.perm_tuple == ((1, 0), (1, 0))
    # each generator's one cycle carries its own puncture class, (1, i):
    # a for the first, b = a^-1 for the second
    assert ConjClass(z2.target, (-1,)).peripheral_index() == 2
    assert d.key[1] == (((1, 0), (1, 1)), ((2, 0), (1, 2)))


def test_distill_pilgrim_labels():
    P = zoo.pilgrim().machine
    d = distill(P)
    assert d.perm_tuple == (
        perms.from_cycles([[1, 3, 5], [2, 4]], 5),
        perms.from_cycles([[1, 4], [2, 5, 3]], 5),
        perms.from_cycles([[1, 2], [3, 4]], 5),
        perms.identity(5),
    )
    # the nontrivial cycle labels are the four puncture classes, once each
    nontrivial = sorted(label for _, label in d.key[1] if label != (0,))
    assert nontrivial == [(1, 1), (1, 2), (1, 3), (1, 4)]


def test_distill_invariant_under_left_twisting():
    P = zoo.pilgrim().machine
    autos = zoo.pilgrim().autos
    for name in autos:
        assert distill(post_compose(P, autos[name])).key == distill(P).key
    inner = zoo.inner(P.target, (2, 4, -3))
    assert distill(post_compose(P, inner)).key == distill(P).key


def test_distill_requires_transitive():
    G = SphereGroup(["a", "b"])
    rows = [WreathElement(((1,), ()), perms.identity(2)),
            WreathElement(((-1,), ()), perms.identity(2))]
    with pytest.raises(MachineError):
        distill(SphereMachine(G, G, rows))


def _reference_distillation(M):
    """Every start's breadth-first numbering with its full (permutations,
    labels) encoding; the least encoding and every numbering attaining it."""
    d = M.degree
    gens = M.monodromy_perms()
    cycle_keys = []
    for i, pi in enumerate(gens, 1):
        for cyc in perms.cycles(pi):
            product = EPSILON
            for p in cyc:
                product = wmul(product, M.rows[i - 1].entries[p])
            cls = ConjClass(M.target, product)
            j = cls.peripheral_index()
            cycle_keys.append((i, cyc, (0,) if cls.is_trivial() else
                               (1, j) if j is not None else (2, cls.canonical)))
    found = []
    for start in range(d):
        order, seen = [start], {start}
        for p in order:
            for pi in gens:
                if pi[p] not in seen:
                    seen.add(pi[p])
                    order.append(pi[p])
        num = [0] * d
        for k, p in enumerate(order):
            num[p] = k
        relabelled = tuple(tuple(num[pi[p]] for p in order) for pi in gens)
        labels = sorted(((i, min(num[q] for q in cyc)), key)
                        for i, cyc, key in cycle_keys)
        found.append(((relabelled, tuple(labels)), tuple(num)))
    best = min(enc for enc, _ in found)
    return best, [num for enc, num in found if enc == best]


def _random_transitive_machine(rng, G, d):
    while True:
        rows = []
        for _ in range(G.n):
            p = list(range(d))
            if rng.random() < 0.7:
                rng.shuffle(p)
            entries = [rng.choice([(), (), (1,), (-2,), (1, 2)])
                       for _ in range(d)]
            rows.append(WreathElement(tuple(entries), tuple(p)))
        if perms.is_transitive([r.perm for r in rows], d):
            return SphereMachine(G, G, rows)


def test_distill_matches_reference_on_random_machines():
    rng = random.Random(21)
    G = SphereGroup(["a", "b", "c"])
    label_ties = 0
    for _ in range(300):
        M = _random_transitive_machine(rng, G, rng.randint(1, 7))
        got = distill(M)
        key, numberings = _reference_distillation(M)
        assert (got.key, got.numberings) == (key, numberings)
        # starts whose relabelled permutations tie, told apart by labels
        perms_only = _reference_distillation(
            SphereMachine(G, G, [WreathElement(((),) * M.degree, r.perm)
                                 for r in M.rows]))
        label_ties += len(perms_only[1]) > len(numberings)
        # two disjoint copies of the points: no longer transitive
        d = M.degree
        doubled = SphereMachine(G, G, [WreathElement(
            r.entries * 2, r.perm + tuple(x + d for x in r.perm))
            for r in M.rows])
        with pytest.raises(MachineError):
            distill(doubled)
    assert label_ties > 0


def test_distill_matches_reference_on_relabelled_tensor_powers():
    B = zoo.centralizer7().machine
    rng = random.Random(4)
    M = B
    for _ in range(2):
        M = tensor(M, B)
        sigma = list(range(M.degree))
        rng.shuffle(sigma)
        Mr = change_basis(M, BasisChange(((),) * M.degree, tuple(sigma)))
        for N in (M, Mr):
            got = distill(N)
            assert (got.key, got.numberings) == _reference_distillation(N)
        assert distill(Mr).key == distill(M).key


def _rows(G, perm_list, entries):
    return SphereMachine(G, G, [WreathElement(tuple(e), tuple(p))
                                for p, e in zip(perm_list, entries)])


def test_distill_matches_reference_where_pruning_rarely_fires():
    # a first generator that is the identity or fixes all but two points
    # ties on most entries, so most starts are compared in full
    rng = random.Random(5)
    G = SphereGroup(["a", "b", "c"])
    for _ in range(60):
        d = rng.randint(2, 8)
        first = list(range(d))
        if rng.random() < 0.5:
            i, j = rng.sample(range(d), 2)
            first[i], first[j] = j, i
        while True:
            rest = [rng.sample(range(d), d) for _ in range(2)]
            if perms.is_transitive([tuple(first)] + rest, d):
                break
        entries = [[rng.choice([(), (), (1,), (-2,)]) for _ in range(d)]
                   for _ in range(3)]
        M = _rows(G, [first] + rest, entries)
        got = distill(M)
        assert (got.key, got.numberings) == _reference_distillation(M)


def test_distill_keeps_every_tying_start():
    # a d-cycle and its inverse, one entry each: the machine is invariant
    # under rotation, so all d starts tie and each keeps its numbering
    G = SphereGroup(["a", "b"])
    for d in (1, 2, 5, 12):
        shift = [(p + 1) % d for p in range(d)]
        back = [(p - 1) % d for p in range(d)]
        M = _rows(G, [shift, back], [[(1,)] + [()] * (d - 1),
                                     [(-1,)] + [()] * (d - 1)])
        got = distill(M)
        assert (got.key, got.numberings) == _reference_distillation(M)
        assert len(got.numberings) == d
        # in the order of their starts, each numbering its start 0
        assert [num.index(0) for num in got.numberings] == list(range(d))


def test_distill_degree_one():
    z = zoo.centralizer7().machine
    G = z.target
    M = _rows(G, [[0]] * G.n, [[G.gen(i)] for i in range(1, G.n + 1)])
    got = distill(M)
    assert (got.key, got.numberings) == _reference_distillation(M)
    assert got.numberings == [(0,)]


def test_distill_of_the_degree_216_tower_rebased_with_conjugators():
    B = zoo.centralizer7().machine
    M = tensor(tensor(B, B), B)
    rng = random.Random(9)
    letters = [i for i in range(-7, 8) if i]
    conj = tuple(M.target.normal_form(
        [rng.choice(letters) for _ in range(rng.randint(0, 4))])
        for _ in range(M.degree))
    relabel = list(range(M.degree))
    rng.shuffle(relabel)
    Mr = change_basis(M, BasisChange(conj, tuple(relabel)))
    got = distill(Mr)
    assert (got.key, got.numberings) == _reference_distillation(Mr)
    assert got.key == distill(M).key


def _perm_reads(perm_tuple):
    """How many entries of the permutations the canonicalisation reads."""
    reads = [0]

    class Counted(tuple):
        def __getitem__(self, i):
            reads[0] += 1
            return tuple.__getitem__(self, i)

    dist = object.__new__(mcbiset.Distillation)
    dist.perm_tuple = tuple(map(Counted, perm_tuple))
    dist.degree = len(perm_tuple[0])
    dist._canonicalize([])
    return reads[0]


def test_distill_walks_as_far_whatever_the_order_of_the_starts():
    # lockstep rounds: each start walks exactly as far as it ties with
    # the least first permutation, so relabelling the points, which
    # reorders the starts, reads as many permutation entries
    rng = random.Random(12)
    B = zoo.centralizer7().machine
    M = tensor(B, B)
    reads = _perm_reads(M.monodromy_perms())
    for _ in range(5):
        sigma = list(range(M.degree))
        rng.shuffle(sigma)
        Mr = change_basis(M, BasisChange(((),) * M.degree, tuple(sigma)))
        assert _perm_reads(Mr.monodromy_perms()) == reads
        got = distill(Mr)
        assert (got.key, got.numberings) == _reference_distillation(Mr)


def test_distill_when_the_last_start_wins():
    # the first generator fixes only the last point, so every other start
    # is dropped at its first entry
    G = SphereGroup(["a", "b", "c"])
    for d in (3, 5, 9):
        first = [(p + 1) % (d - 1) for p in range(d - 1)] + [d - 1]
        second = [(p + 2) % d for p in range(d)]
        M = _rows(G, [first, second, list(range(d))],
                  [[(1,)] * d, [()] * d, [(2,)] + [()] * (d - 1)])
        got = distill(M)
        assert (got.key, got.numberings) == _reference_distillation(M)
        assert [num.index(0) for num in got.numberings] == [d - 1]


def test_distill_when_starts_tie_long_and_then_diverge():
    # the first generator pairs 2j with 2j + 1 but for one swapped pair
    # of pairs, and the second is a shift: the starts drop out two by two
    # as their walks reach the swap, and the last four, which tie on the
    # whole first permutation, are told apart by the shift
    G = SphereGroup(["a", "b"])
    for d in (8, 12, 20):
        first = [p ^ 1 for p in range(d)]
        first[d - 4], first[d - 1] = d - 1, d - 4
        first[d - 3], first[d - 2] = d - 2, d - 3
        shift = [(p + 1) % d for p in range(d)]
        M = _rows(G, [first, shift], [[(1,)] * d, [(-1,)] + [()] * (d - 1)])
        got = distill(M)
        assert (got.key, got.numberings) == _reference_distillation(M)
        assert len(got.numberings) == 1


def _right_regular(gens):
    """The permutations of the right action of the group generated by
    gens on its elements, in order of discovery from the identity."""
    elements = [perms.identity(len(gens[0]))]
    index = {elements[0]: 0}
    for x in elements:
        for g in gens:
            y = perms.compose(x, g)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
    return [[index[perms.compose(x, g)] for x in elements] for g in gens]


@pytest.mark.parametrize("name, gens", [
    ("Z6", [(1, 2, 3, 4, 5, 0), (2, 3, 4, 5, 0, 1), (5, 0, 1, 2, 3, 4)]),
    ("S3", [(1, 0, 2), (0, 2, 1), (2, 1, 0)]),
    ("D4", [(1, 2, 3, 0), (3, 2, 1, 0), (1, 0, 3, 2)]),
    ("A4", [(1, 2, 0, 3), (0, 2, 3, 1), (1, 0, 3, 2)]),
])
def test_distill_of_a_cayley_graph_is_decided_by_its_labels(name, gens):
    # left multiplications commute with the right action, so every start
    # ties on the permutations and the cycle labels pick the winners
    G = SphereGroup(["a", "b", "c"])
    action = _right_regular(gens)
    d = len(action[0])
    bare = distill(_rows(G, action, [[()] * d] * 3))
    assert len(bare.numberings) == d
    rng = random.Random(name)
    for _ in range(10):
        M = _rows(G, action, [[rng.choice([(), (), (1,), (-2,), (1, 2)])
                               for _ in range(d)] for _ in range(3)])
        got = distill(M)
        assert (got.key, got.numberings) == _reference_distillation(M)
        assert got.key[0] == bare.key[0]


def test_distill_rejects_an_intransitive_machine_whose_small_part_leads():
    # points 0..2: the first generator fixes them all and the second
    # cycles them, so their starts lead the first rounds, then run out
    # of points; points 3..8 lose at round 1
    G = SphereGroup(["a", "b"])
    first = [0, 1, 2, 3, 5, 4, 7, 6, 8]
    second = [1, 2, 0, 4, 5, 6, 7, 8, 3]
    M = _rows(G, [first, second], [[()] * 9] * 2)
    assert not perms.is_transitive(M.monodromy_perms(), 9)
    with pytest.raises(MachineError, match="transitive"):
        distill(M)
    # the same with the big part leading: it runs out too
    M = _rows(G, [[0, 1, 2, 3, 4, 5, 7, 8, 6], [1, 2, 3, 4, 5, 0, 7, 8, 6]],
              [[()] * 9] * 2)
    with pytest.raises(MachineError, match="transitive"):
        distill(M)


def test_distill_of_the_empty_group():
    # n = 0: no first permutation, one point, no cycle
    G = SphereGroup([])
    M = SphereMachine(G, G, [])
    got = distill(M)
    assert (got.key, got.numberings) == _reference_distillation(M)
    assert (got.key, got.numberings) == (((), ()), [(0,)])


def _paired(points):
    """The involution swapping points 0 and 1, 2 and 3, ... of the list."""
    inv = list(range(len(points)))
    for a, b in zip(points[::2], points[1::2]):
        inv[a], inv[b] = b, a
    return inv


@st.composite
def _transitive_tuples(draw):
    d = draw(st.integers(1, 12))
    n = draw(st.integers(2, 4))
    # identities and involutions make ties, which the labels then break
    perm = st.one_of(st.permutations(range(d)), st.just(list(range(d))),
                     st.permutations(range(d)).map(_paired))
    gens = [draw(perm) for _ in range(n)]
    if not perms.is_transitive([tuple(g) for g in gens], d):
        gens[-1] = [(p + 1) % d for p in range(d)]
    words_ = st.sampled_from([(), (), (1,), (-2,), (1, 2), (2, -1)])
    entries = [draw(st.lists(words_, min_size=d, max_size=d))
               for _ in range(n)]
    return _rows(SphereGroup([f"x{i}" for i in range(1, n + 1)]),
                 gens, entries)


@settings(max_examples=200, deadline=None)
@given(_transitive_tuples())
def test_distill_matches_reference_on_random_transitive_tuples(M):
    got = distill(M)
    assert (got.key, got.numberings) == _reference_distillation(M)


def test_machine_isomorphism_round_trip():
    B = zoo.centralizer7().machine
    letters = [i for i in range(-6, 7) if i]
    # degree 6 with 20 cases, the degree-36 tower machine B (x) B with
    # relabelled bases, which once took over 10 s on most seeds, and one
    # relabelled case of the degree-216 tower machine
    cases = [(B, random.Random(0), 20)] + [
        (tensor(B, B), random.Random(seed), 1) for seed in range(1, 6)] + [
        (tensor(tensor(B, B), B), random.Random(6), 1)]
    for M, rng, count in cases:
        for _ in range(count):
            conj = tuple(M.target.normal_form(
                [rng.choice(letters) for _ in range(rng.randint(0, 5))])
                for _ in range(M.degree))
            relabel = list(range(M.degree))
            rng.shuffle(relabel)
            b = BasisChange(conj, tuple(relabel))
            Mb = change_basis(M, b)
            found = machine_isomorphism(M, Mb)
            assert found is not None
            assert change_basis(M, found) == Mb


def test_machine_isomorphism_rejects_before_the_solve(pilgrim_mcb):
    """Both knitting solves, machine_isomorphism and same_left_orbit, go
    through one prelude.  Machines over different groups (the relators of
    fbiset, dcba, and z5belyi, abcd, differ) or of different degrees are
    rejected before anything is distilled or solved."""
    P, Z = zoo.pilgrim().machine, zoo.z5_marked().machine
    PP = tensor(P, P)
    assert P.degree == Z.degree and P.source != Z.source
    assert (PP.source, PP.target) == (P.source, P.target)
    assert PP.degree != P.degree
    for solve in (machine_isomorphism, same_left_orbit):
        for M1, M2 in ((P, Z), (Z, P), (P, PP), (PP, P)):
            with mock.patch.object(mcbiset, "distill",
                                   side_effect=AssertionError), \
                    mock.patch.object(mcbiset, "_KnitSolver",
                                      side_effect=AssertionError):
                assert solve(M1, M2) is None
    # two basis elements of one biset: same groups and degree, different
    # distillation keys, so no knitting solve is tried
    mcb, _ = pilgrim_mcb()
    M0, M1 = mcb.machines[:2]
    assert (M0.source, M0.target, M0.degree) == \
        (M1.source, M1.target, M1.degree)
    assert distill(M0).key != distill(M1).key
    for solve in (machine_isomorphism, same_left_orbit):
        with mock.patch.object(mcbiset, "_KnitSolver",
                               side_effect=AssertionError):
            assert solve(M0, M1) is None and solve(M1, M0) is None
    # one key: the prelude hands both distillations to the solve
    N = post_compose(P, zoo.pilgrim().autos["s"])
    d1, d2 = mcbiset._distillations(P, N)
    assert (d1.key, d1.numberings) == (distill(P).key, distill(P).numberings)
    assert (d2.key, d2.numberings) == (distill(N).key, distill(N).numberings)


def test_the_knitting_solve_and_automorphisms_have_no_opt_outs():
    solver = mcbiset._KnitSolver
    for fn in (solver.__init__, solver.matches, solver.solve):
        assert all(p.default is inspect.Parameter.empty
                   for p in inspect.signature(fn).parameters.values())
    assert list(inspect.signature(Automorphism.__init__).parameters) == \
        ["self", "group", "images"]
    # every construction checks the relator
    G = SphereGroup(["a", "b", "c", "d"])
    with pytest.raises(ValueError, match="do not satisfy the relator"):
        Automorphism(G, [(2,), (1,), (3,), (4,)])


def test_same_left_orbit_identity_and_twists():
    P = zoo.pilgrim().machine
    assert outer_equal(same_left_orbit(P, P), Automorphism.identity(P.target))
    for name, tw in zoo.pilgrim().autos.items():
        phi = same_left_orbit(P, post_compose(P, tw))
        assert phi is not None and outer_equal(phi, tw)


def test_same_left_orbit_distinguishes():
    P = zoo.pilgrim().machine
    z5 = zoo.z5_marked().machine
    dP = distill(P)
    for a in zoo.pilgrim().autos.values():
        N = pre_compose(P, a)
        assert same_left_orbit(P, N) is None
        assert distill(N).key != dP.key
    assert distill(z5).key != dP.key
    assert same_left_orbit(P, z5) is None


def test_knit_solver_skips_bogus_relabelings(monkeypatch):
    """Relabelings that carry no solution are skipped, and the first one
    that does gives the same knitting.  Every other permutation of the
    pilgrim's five points leaves some y_k nonempty where the back-edge
    word x_k is empty, so it is that test, not the relator check, which
    rejects them here (tests/test_folding.py checks the relators)."""
    P = zoo.pilgrim().machine
    targets = {name: post_compose(P, a)
               for name, a in zoo.pilgrim().autos.items()}
    expected = {name: same_left_orbit(P, N) for name, N in targets.items()}
    real = mcbiset._candidate_relabelings
    tried = []

    def with_bogus(d1, d2):
        good = real(d1, d2)
        bogus = [s for s in itertools.permutations(range(d1.degree))
                 if s not in good]
        tried.append(len(bogus))
        return bogus + good

    monkeypatch.setattr(mcbiset, "_candidate_relabelings", with_bogus)
    for name, N in targets.items():
        got = same_left_orbit(P, N)
        assert got is not None and got == expected[name]
    assert tried == [119, 119, 119]


def test_knitting_check_raises_not_asserts(monkeypatch, capsys):
    monkeypatch.setattr(mcbiset, "is_peripheral_preserving", lambda psi: False)
    P = zoo.pilgrim().machine
    with pytest.raises(ReconstructionError, match="not peripheral-preserving"):
        same_left_orbit(P, P)
    fb = str(zoo.MACHINES / "fbiset.mach")
    assert main(["iso", fb, fb]) == 3
    assert "not peripheral-preserving" in capsys.readouterr().err


def test_same_left_orbit_iff_distillations_match():
    P = zoo.pilgrim().machine
    autos = list(zoo.pilgrim().autos.values())
    rng = random.Random(1)
    G = P.source
    for _ in range(25):
        m = rand_twist_product(rng, G, autos, rng.randint(1, 4))
        N = pre_compose(P, m)
        same = distill(N).key == distill(P).key
        got = same_left_orbit(P, N)
        assert (got is not None) == same
        if got is not None:
            lhs = post_compose(P, got)
            assert machine_isomorphism(lhs, N) is not None


def test_compute_mcbiset_z5_has_five_orbits():
    z5 = zoo.z5_marked().machine
    mcb = compute_mcbiset(z5, full_twist_generators(z5.source))
    assert mcb.size == 5
    keys = {distill(m).key for m in mcb.machines}
    assert len(keys) == 5


def test_compute_mcbiset_identity_machine():
    G = SphereGroup(["a", "b", "c", "d"])
    mcb = compute_mcbiset(SphereMachine.identity(G), full_twist_generators(G))
    # twisting the identity machine explores the group's action on itself:
    # every distillation already matches, so the basis stays a single orbit
    assert mcb.size == 1
    for (gen, k), edge in mcb.table.items():
        assert edge.target == k


def test_compute_mcbiset_rejects_a_repeated_generator():
    z5 = zoo.z5_marked().machine
    (_, t), (_, u) = full_twist_generators(z5.source)[:2]
    with pytest.raises(MachineError, match="generator s is given twice"):
        compute_mcbiset(z5, [("s", t), ("r", u), ("s", u)])


def test_compute_mcbiset_elides_a_long_repeated_generator():
    z5 = zoo.z5_marked().machine
    (_, t), (_, u) = full_twist_generators(z5.source)[:2]
    name = "s" * 5000
    with pytest.raises(MachineError) as exc:
        compute_mcbiset(z5, [(name, t), (name, u)])
    message = str(exc.value)
    assert message.endswith(" (5000 characters) is given twice")
    assert len(message) < 200


def test_compute_mcbiset_rejects_a_machine_that_is_not_a_sphere_machine():
    # two disjoint copies of the identity over <a, b | ab>
    G = SphereGroup(["a", "b"])
    M = SphereMachine(G, G, [WreathElement(((1,), (1,)), (0, 1)),
                             WreathElement(((-1,), (-1,)), (0, 1))])
    with pytest.raises(MachineError) as exc:
        compute_mcbiset(M, [])
    assert str(exc.value) == (
        "input machine is not a sphere machine: monodromy action is not "
        "transitive; cycle deficit 0 != 2d-2 = 2; peripheral classes of "
        "the target are not hit exactly once")


def test_mcbiset_edges_verify():
    z5 = zoo.z5_marked().machine
    gens = full_twist_generators(z5.source)
    mcb = compute_mcbiset(z5, gens)
    lookup = dict(gens)
    for (gen, k), edge in mcb.table.items():
        lhs = pre_compose(mcb.machines[k], lookup[gen])
        rhs = change_basis(post_compose(mcb.machines[edge.target],
                                        edge.knitting_auto),
                           edge.basis_change)
        assert lhs == rhs


def _closed_form_case(case):
    """(machine, generators) of one fixture for the closed-form test."""
    if case == "pilgrim":
        mf = zoo.pilgrim()
        return mf.machine, [(n, mf.autos[n]) for n in "stu"]
    if case.startswith("id"):
        G = SphereGroup("abcde"[:int(case[2:])])
        M = SphereMachine.identity(G)
    else:
        M = {"pilgrim_full": zoo.pilgrim, "z5belyi": zoo.z5_marked,
             "z2": zoo.z2}[case]().machine
    return M, full_twist_generators(M.source)


@pytest.mark.parametrize("case", ["pilgrim", "pilgrim_full", "z5belyi", "z2",
                                  "id2", "id3", "id4", "id5"])
def test_inner_generators_take_closed_form_edges(case, monkeypatch):
    """The identity, inn_h for random h of 0-6 letters and s . inn_h, s
    the first generator, are added to the generators.  A generator that
    is outer-equal to the identity or to an earlier generator g0 is never
    pre-composed: each of its edges has the target of g0's edge (k
    itself for the identity), satisfies the edge identity exactly, and
    carries a knitting outer-equal to the one the knitting solve gives;
    an inner generator's edge is the solve's own answer where the
    distillation has one numbering."""
    rng = random.Random(sum(map(ord, case)))
    M, gens = _closed_form_case(case)
    G = M.source
    letters = [x for i in range(1, G.n + 1) for x in (i, -i)]
    extra = [("id", Automorphism.identity(G))] + [
        (f"inn{j}", zoo.inner(G, [rng.choice(letters)
                                  for _ in range(rng.randint(0, 6))]))
        for j in range(4)]
    extra.append(("s_inn", gens[0][1].compose(extra[-1][1])))
    gens = gens + extra
    composed = []
    real = mcbiset.pre_compose
    monkeypatch.setattr(mcbiset, "pre_compose",
                        lambda N, g: composed.append(g) or real(N, g))
    mcb = compute_mcbiset(M, gens)
    monkeypatch.undo()
    # the first of the identity ("") and the earlier generators that each
    # generator is outer-equal to
    identity = Automorphism.identity(G)
    partner = {}
    for i, (name, g) in enumerate(gens):
        for name0, g0 in [("", identity)] + gens[:i]:
            if outer_equal(g, g0):
                partner[name] = name0
                break
    inner = {name for name, p in partner.items() if p == ""}
    assert {"id", "inn0", "inn1", "inn2", "inn3"} <= inner
    # s . inn_h goes with s, or with the identity where s is inner
    assert partner["s_inn"] == partner.get(gens[0][0], gens[0][0])
    if case in ("pilgrim", "pilgrim_full", "z5belyi", "id4", "id5"):
        # there s is a twist that is not inner
        assert gens[0][0] not in partner
    if G.n >= 3:
        # t_{1,n} is the identity, t_{1,n-1} and t_{2,n} are inner
        twists = {f"t1_{G.n}", f"t1_{G.n - 1}", f"t2_{G.n}"}
        assert {n for n in inner if n.startswith("t")} == \
            (twists if case != "pilgrim" else set())
    if G.n == 4 and case != "pilgrim":
        # the curve around punctures 3 and 4 also bounds 1 and 2
        assert partner["t3_4"] == "t1_2"
    for name, g in gens:
        assert sum(a is g for a in composed) == \
            (0 if name in partner else mcb.size), name
    solvers = {}
    unique = 0
    for name, g in gens:
        if name not in partner:
            continue
        for k, Mk in enumerate(mcb.machines):
            edge = mcb.table[(name, k)]
            t = mcb.table[(partner[name], k)].target if partner[name] else k
            assert edge.target == t
            N = pre_compose(Mk, g)
            assert N == change_basis(
                post_compose(mcb.machines[t], edge.knitting_auto),
                edge.basis_change)
            if t not in solvers:
                solvers[t] = mcbiset._KnitSolver(mcb.machines[t],
                                                 distill(mcb.machines[t]))
            knit, b = solvers[t].solve(N, distill(N))
            assert outer_equal(knit, edge.knitting_auto), (name, k)
            if name in inner and len(solvers[t].d1.numberings) == 1:
                unique += 1
                assert knit == edge.knitting_auto
                assert b == edge.basis_change
    # the one machine of z2 has two numberings: the deck swap
    assert unique > 0 or case == "z2"


def test_rewrite_rabbit_relations():
    mcb = zoo.rabbit_mcb()
    t, u, s = 2, 3, 1
    assert rewrite(mcb, 0, (t, t)) == ((u,), 0)
    assert rewrite(mcb, 0, (u, u)) == ((s,), 0)
    assert rewrite(mcb, 1, ()) == ((), 1)
    # stepwise composition agrees with one-shot rewriting, on short words
    # and on words of up to 100,000 letters
    rng = random.Random(2)
    for length in [rng.randint(0, 8) for _ in range(50)] + [500, 1000, 2000,
                                                            100_000]:
        word = tuple(rng.choice([1, -1, 2, -2, 3, -3])
                     for _ in range(length))
        one, k1 = rewrite(mcb, 0, word)
        steps, k2 = [], 0
        for x in reduce_word(word):
            step, k2 = rewrite(mcb, k2, (x,))
            steps.append(step)
        assert (one, k1) == (wmul(*steps), k2)


def _in_free_st(w):
    """The rabbit twist word w over s, t, u in F(s,t): u -> s^-1 t^-1,
    freely reduced."""
    s, t, u = 1, 2, 3
    images = {u: (-s, -t), -u: (t, s)}
    return reduce_word(itertools.chain.from_iterable(
        images.get(x, (x,)) for x in w))


def test_u_rewrites_as_its_word_in_s_and_t():
    # t*s*u is inner, so PMod(S_0,4) is free on s, t with u = s^-1 t^-1:
    # rewriting u and s^-1 t^-1 gives the same element of F(s,t) and
    # the same basis element, from either basis element
    mcb = zoo.rabbit_mcb()
    assert mcb.alphabet == ("s", "t", "u")
    rng = random.Random(5)
    words = [(3,), (-3,)] + [
        reduce_word(rng.choice([1, -1, 2, -2, 3, -3])
                    for _ in range(rng.randint(1, 50)))
        for _ in range(200)]
    for k in range(mcb.size):
        for word in words:
            got, k1 = rewrite(mcb, k, word)
            want, k2 = rewrite(mcb, k, _in_free_st(word))
            assert k1 == k2, (k, word)
            assert _in_free_st(got) == _in_free_st(want), (k, word)


def test_rewrite_needs_twist_word_knittings():
    # a computed biset carries automorphism knittings only
    z5 = zoo.z5_marked().machine
    mcb = compute_mcbiset(z5, full_twist_generators(z5.source))
    with pytest.raises(MachineError, match="twist-word knitting"):
        rewrite(mcb, 0, (1,))
    with pytest.raises(MachineError, match="twist-word knitting"):
        rewrite(mcb, 0, (-1,))
    assert rewrite(mcb, 0, ()) == ((), 0)
    # conjugacy iteration steps by rewrite: a nonempty word meets the
    # missing knitting, and the empty word is fixed with no step
    with pytest.raises(MachineError,
                       match=r"edge \(t1_2, b0\) has no twist-word knitting"):
        conjugacy_iterate(mcb, ((1,), 0))
    assert conjugacy_iterate(mcb, ((), 0)) == Terminal("fixed", [((), 0)], 0)


def _rewrite_by_scan(mcb, k, m):
    """rewrite with each backward step found by scanning the generator's
    edges for the one into k."""
    steps = []
    for x in reduce_word(m):
        name = mcb.alphabet[abs(x) - 1]
        if x > 0:
            edge = mcb.table[(name, k)]
            k = edge.target
        else:
            edge = next(e for e in (mcb.table[(name, j)]
                                    for j in range(mcb.size))
                        if e.target == k)
            k = edge.source
        steps.append(edge.knitting_word if x > 0 else winv(edge.knitting_word))
    return wmul(*steps), k


@st.composite
def closed_tables(draw):
    """A biset over 1-3 generators and 1-6 basis elements: each generator
    permutes the basis, and each edge carries a twist word of up to 2
    letters."""
    gens = draw(st.integers(1, 3))
    size = draw(st.integers(1, 6))
    letters = st.sampled_from([x for g in range(1, gens + 1) for x in (g, -g)])
    alphabet = tuple(f"g{i}" for i in range(gens))
    table = {}
    for name in alphabet:
        targets = draw(st.permutations(range(size)))
        for k, target in enumerate(targets):
            knit = reduce_word(draw(st.lists(letters, max_size=2)))
            table[(name, k)] = TableEdge(name, k, target, knitting_word=knit)
    mcb = MappingClassBiset(alphabet, tuple(f"b{k}" for k in range(size)),
                            table)
    return mcb, letters


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rewrite_steps_backwards_as_a_scan_does(data):
    mcb, letters = data.draw(closed_tables())
    for _ in range(4):
        word = tuple(data.draw(st.lists(letters, max_size=12)))
        k = data.draw(st.integers(0, mcb.size - 1))
        assert rewrite(mcb, k, word) == _rewrite_by_scan(mcb, k, word)
        got = conjugacy_iterate(mcb, (word, k), max_steps=8)
        with mock.patch.object(mcbiset, "rewrite", _rewrite_by_scan):
            want = conjugacy_iterate(mcb, (word, k), max_steps=8)
        assert got == want


LONG = "n" * 70
ELIDED = repr("n" * 24) + "..." + repr("n" * 24) + " (70 characters)"


@pytest.mark.parametrize("gen, basis, targets, message", [
    ("t", ("a", "b"), {0: 1},
     "generator 't' has no edge from basis element 'b'"),
    ("t", ("a", "b"), {0: 0, 1: 0},
     "generator 't' has two edges into basis element 'a'"),
    ("t", ("a", "b"), {0: 0, 1: -1},
     "generator 't' has an edge from basis element 'b' out of the basis"),
    ("t", ("a", "b"), {0: 2, 1: 0},
     "generator 't' has an edge from basis element 'a' out of the basis"),
    (LONG, ("a", LONG), {0: 0},
     f"generator {ELIDED} has no edge from basis element {ELIDED}"),
    (LONG, (LONG, "b"), {0: 0, 1: 0},
     f"generator {ELIDED} has two edges into basis element {ELIDED}"),
])
def test_biset_is_built_on_a_closed_table_only(gen, basis, targets, message):
    table = {(gen, k): TableEdge(gen, k, t, knitting_word=EPSILON)
             for k, t in targets.items()}
    with pytest.raises(MachineError) as exc:
        MappingClassBiset((gen,), basis, table)
    assert str(exc.value) == message


def test_rewrite_and_action_perm_reject_what_is_not_in_the_biset():
    mcb = zoo.rabbit_mcb()
    for k in (-1, mcb.size, mcb.size + 5):
        for word in ((1,), (-1,), ()):
            with pytest.raises(MachineError, match="outside 0..1"):
                rewrite(mcb, k, word)
    # the empty word reaches no rewrite, yet names no basis element either
    for k in (-1, mcb.size, 99):
        for word in ((), [], (1, -1)):
            with pytest.raises(MachineError) as exc:
                conjugacy_iterate(mcb, (word, k))
            assert str(exc.value) == f"basis index {k} is outside 0..1"
    with pytest.raises(MachineError, match="'x' is not in the alphabet"):
        mcb.action_perm("x")


def test_rewrite_rejects_a_letter_past_the_alphabet():
    mcb = zoo.rabbit_mcb()
    assert len(mcb.alphabet) == 3
    for word in ((4,), (-4,), (1, 2, -4, 3)):
        x = next(x for x in word if abs(x) == 4)
        message = f"twist letter {x} is outside the alphabet of 3 generators"
        with pytest.raises(MachineError) as exc:
            rewrite(mcb, 0, word)
        assert str(exc.value) == message
        with pytest.raises(MachineError) as exc:
            conjugacy_iterate(mcb, (word, 0))
        assert str(exc.value) == message


def test_missing_knittings_name_the_basis_element():
    # a two-element biset under one generator with a long name, whose
    # edges carry neither kind of knitting
    basis = ("b0", "e" * 5000)
    table = {(LONG, k): TableEdge(LONG, k, 1 - k) for k in range(2)}
    mcb = MappingClassBiset((LONG,), basis, table)
    with pytest.raises(MachineError) as exc:
        rewrite(mcb, 0, (-1,))
    message = str(exc.value)
    assert message.startswith(
        f"edge ({'n' * 24}...{'n' * 24} (70 characters), "
        f"{'e' * 24}...{'e' * 24} (5000 characters))")
    assert message.endswith("has no twist-word knitting")
    with pytest.raises(MachineError) as exc:
        lift_multiset_in_mcbiset(mcb, LONG)
    assert len(str(exc.value)) < 200
    assert str(exc.value).endswith("has no knitting automorphism")


def test_conjugacy_iterate_examples():
    mcb = zoo.rabbit_mcb()
    t = 2
    term = conjugacy_iterate(mcb, ((t, t, t), 0))
    assert term.kind == "fixed" and term.states == [((), 0)]
    term = conjugacy_iterate(mcb, ((t,), 0))
    assert term.kind == "fixed" and term.states == [((), 1)]
    term = conjugacy_iterate(mcb, ((), 0))
    assert term.kind == "fixed" and term.states == [((), 0)]
    term = conjugacy_iterate(mcb, ((-t,), 0))
    assert term.kind == "cycle"
    assert ((-t,), 0) in term.states


def test_conjugacy_iterate_reduces_only_the_start(monkeypatch):
    # each later step walks the word the last walk returned, reduced
    mcb = zoo.rabbit_mcb()
    start = (2, -1, 1, 2, 2, 2, 2, 2)   # t * s^-1 * s * t^5, not reduced
    want = conjugacy_iterate(mcb, (start, 0))
    calls = []
    real = mcbiset.reduce_word
    monkeypatch.setattr(mcbiset, "reduce_word",
                        lambda w: calls.append(w) or real(w))
    term = conjugacy_iterate(mcb, (start, 0))
    assert calls == [start]
    assert term == want == Terminal("fixed", [((), 1)], 3)


def test_a_cycle_is_reported_from_its_least_state():
    # the corabbit cycle t^-1 @ f_R -> u^-1 @ f_R.t -> s^-1 @ f_R reads
    # the same from each of its states: u^-1 @ f_R.t first, the least
    # under (letters, word, basis index)
    mcb = zoo.rabbit_mcb()
    s, t, u = 1, 2, 3
    corabbit = [((-u,), 1), ((-s,), 0), ((-t,), 0)]
    for start in corabbit:
        term = conjugacy_iterate(mcb, start)
        assert (term.kind, term.states, term.steps) == ("cycle", corabbit, 3)


def test_conjugacy_iterate_invariant_under_start_conjugation():
    # conjugating the start state by a generator lands in the same class
    mcb = zoo.rabbit_mcb()
    from sphmach.words import reduce_word

    rng = random.Random(3)
    for _ in range(60):
        word = tuple(rng.choice([1, -1, 2, -2, 3, -3])
                     for _ in range(rng.randint(1, 5)))
        k = rng.choice([0, 1])
        g = rng.choice([1, -1, 2, -2, 3, -3])
        # g^-1 * (w . Psi_k) * g = (g^-1 * w * knit) . Psi_k2
        knit, k2 = rewrite(mcb, k, (g,))
        conj_word = reduce_word((-g,) + word + knit)
        term1 = conjugacy_iterate(mcb, (reduce_word(word), k))
        term2 = conjugacy_iterate(mcb, (conj_word, k2))

        def cls(term):
            if term.kind == "fixed":
                return ("fixed", term.states[0])
            return ("cycle", frozenset(term.states))

        assert cls(term1) == cls(term2)


def test_monodromy_reports():
    P = zoo.pilgrim().machine
    rep = monodromy(P)
    assert rep.order == 120 and rep.transitive
    z5 = zoo.z5_marked().machine
    rep5 = monodromy(z5)
    assert rep5.order == 5 and rep5.transitive
    G = SphereGroup(["a", "b", "c"])
    repi = monodromy(SphereMachine.identity(G))
    assert repi.order == 1


def _group_closure(gens, d):
    """All elements of <gens> on d points, by breadth-first closure."""
    elems = {perms.identity(d)}
    frontier = list(elems)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = perms.compose(x, g)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return elems


def test_group_order_matches_closure():
    rng = random.Random(8)
    for _ in range(300):
        d = rng.randint(1, 7)
        gens = []
        for _ in range(rng.randint(0, 3)):
            p = list(range(d))
            if rng.random() < 0.5:
                rng.shuffle(p)
            else:
                i, j = rng.randrange(d), rng.randrange(d)
                p[i], p[j] = p[j], p[i]
            gens.append(tuple(p))
        assert perms.group_order(gens, d) == len(_group_closure(gens, d))


def test_orbit_partition_matches_naive_closure():
    """is_transitive agrees with the orbits of a naive closure."""
    rng = random.Random(13)
    for _ in range(300):
        d = rng.randint(1, 9)
        gens = []
        for _ in range(rng.randint(0, 3)):
            p = list(range(d))
            # a shuffle of a random block keeps the action non-transitive
            lo = rng.randrange(d)
            hi = rng.randint(lo, d)
            block = p[lo:hi]
            rng.shuffle(block)
            p[lo:hi] = block
            gens.append(tuple(p))
        want = []
        for i in range(d):
            orb = {i}
            while True:
                more = orb | {g[x] for g in gens for x in orb}
                if more == orb:
                    break
                orb = more
            if sorted(orb) not in want:
                want.append(sorted(orb))
        assert perms.is_transitive(gens, d) == (len(want) <= 1)


def test_is_transitive_without_generators():
    assert perms.is_transitive([], 0)
    assert perms.is_transitive([], 1)
    assert not perms.is_transitive([], 3)


def test_correspondence_invariants_examples():
    one = [(0,), (0,), (0,)]
    inv = correspondence_invariants(one)
    assert (inv.punctures, inv.euler_characteristic, inv.genus) == (3, -1, 0)
    # two-sheeted with three involution-like branch points: torus minus 3
    a = perms.from_cycles([[1, 2]], 2)
    inv2 = correspondence_invariants([a, a, perms.identity(2)])
    assert inv2.sheets == 2
    assert inv2.punctures == 1 + 1 + 2
    assert inv2.genus == 0
    with pytest.raises(MachineError):
        correspondence_invariants([a, perms.identity(2), perms.identity(2)])
    # every transitive triple (a, b, (ab)^-1) of degree <= 4: Riemann-Hurwitz
    # gives a whole genus, never negative
    for d in range(1, 5):
        for a, b in itertools.product(itertools.permutations(range(d)),
                                      repeat=2):
            c = perms.inverse(perms.compose(a, b))
            if not perms.is_transitive([a, b, c], d):
                continue
            inv = correspondence_invariants([a, b, c])
            assert 2 * inv.genus == 2 - (inv.punctures - d)
            assert inv.genus >= 0


def test_twist_fingerprint_classifies_conjugated_powers(monkeypatch):
    P = zoo.pilgrim()
    G = P.machine.source
    autos = P.autos
    gen_fps = [(name, twist_fingerprint(a)) for name, a in autos.items()]
    rng = random.Random(4)
    for _ in range(60):
        m = rand_twist_product(rng, G, list(autos.values()), rng.randint(1, 5))
        base = rng.choice(list(autos))
        k = rng.choice([1, 2, 5])
        psi = m.compose(_pow(autos[base], k)).compose(m.inverse())
        assert twist_power_label(twist_fingerprint(psi), gen_fps) == (base, k)
    ident = Automorphism.identity(G)
    assert twist_power_label(twist_fingerprint(ident), gen_fps) == ("1", 0)
    assert twist_power_label(twist_fingerprint(autos["s"].inverse()),
                             gen_fps) is None
    # the value is kept on the automorphism, None and () included: a
    # second call tests no conjugacy, and an equal copy gets the same value
    tests = []
    real = words.is_conjugate
    monkeypatch.setattr(words, "is_conjugate",
                        lambda u, v: tests.append(1) or real(u, v))
    G3, G2 = SphereGroup("abc"), SphereGroup("ab")
    # a -> a*b is not conjugate to a: not peripheral-preserving
    skew = Automorphism(G3, [(1, 2), (2,), winv((1, 2, 2))])
    for phi, want in ((psi, twist_fingerprint(psi)), (skew, None),
                      (Automorphism.identity(G2), ())):
        assert twist_fingerprint(phi) == want
        tests.clear()
        assert twist_fingerprint(phi) is twist_fingerprint(phi)
        assert is_peripheral_preserving(phi) == (want is not None)
        assert not tests
        assert twist_fingerprint(Automorphism(phi.group, phi.images)) == want
    # one peripheral pass serves both readings: on a fresh automorphism the
    # first call, of either, tests each of the n generators once, and the
    # other call then tests none
    for first, second in ((twist_fingerprint, is_peripheral_preserving),
                          (is_peripheral_preserving, twist_fingerprint)):
        fresh = Automorphism(G, psi.images)
        tests.clear()
        first(fresh)
        assert len(tests) == G.n
        tests.clear()
        second(fresh)
        assert not tests
    G0 = SphereGroup("")
    assert twist_fingerprint(Automorphism.identity(G0)) == ()
    assert is_peripheral_preserving(Automorphism.identity(G0))


def test_twist_fingerprint_is_additive_and_ignores_inner_maps():
    # lift_multiset_in_mcbiset labels a cycle by the sum of its edges'
    # fingerprints instead of composing their knittings
    rng = random.Random(23)
    P = zoo.pilgrim()
    G5 = SphereGroup([f"x{i}" for i in range(1, 6)])
    for G, gens in ((P.machine.source, list(P.autos.values())),
                    (G5, [a for _, a in full_twist_generators(G5)])):
        letters = gens + [a.inverse() for a in gens]
        for _ in range(40):
            p, q = (rand_twist_product(rng, G, letters, rng.randint(0, 5))
                    for _ in range(2))
            fp, fq = twist_fingerprint(p), twist_fingerprint(q)
            assert twist_fingerprint(p.compose(q)) == \
                tuple(x + y for x, y in zip(fp, fq))
            h = [rng.choice([-1, 1]) * rng.randint(1, G.n)
                 for _ in range(rng.randint(1, 12))]
            assert twist_fingerprint(zoo.inner(G, h).compose(p)) == fp
            assert twist_fingerprint(p.compose(zoo.inner(G, h))) == fp


def test_lift_label_solves_for_the_power():
    # a 2-cycle whose knittings compose to a conjugate of s^13: the label
    # is solved for, not looked up among a fixed range of powers
    autos = zoo.pilgrim().autos
    m = autos["t"].compose(autos["u"].inverse())
    halves = [m.compose(_pow(autos["s"], k)).compose(m.inverse())
              for k in (6, 7)]
    table = {("s", k): TableEdge("s", k, 1 - k, knitting_auto=a)
             for k, a in enumerate(halves)}
    mcb = MappingClassBiset(("s",), ("b0", "b1"), table, gens=dict(autos))
    [entry] = lift_multiset_in_mcbiset(mcb, "s")
    assert (entry.degree, entry.label) == (2, ("s", 13))


def test_lift_labels_match_the_composed_knittings(pilgrim_mcb):
    # the reference composes and outer-normalises each cycle's knittings
    # and fingerprints the composite once
    mcb, _ = pilgrim_mcb()
    gen_fps = [(name, twist_fingerprint(a)) for name, a in mcb.gens.items()]
    for gen in "stu":
        expected = []
        for cyc in perms.cycles(mcb.action_perm(gen)):
            knit = Automorphism.identity(mcb.gens[gen].group)
            for p in cyc:
                knit = outer_normalize(
                    knit.compose(mcb.table[(gen, p)].knitting_auto))
            expected.append((len(cyc),
                             twist_power_label(twist_fingerprint(knit),
                                               gen_fps)))
        assert [(e.degree, e.label)
                for e in lift_multiset_in_mcbiset(mcb, gen)] == expected


def test_lift_multiset_needs_knitting_automorphisms():
    # the rabbit biset carries twist-word knittings only
    with pytest.raises(MachineError,
                       match=r"edge \(t, f_R\) has no knitting automorphism"):
        lift_multiset_in_mcbiset(zoo.rabbit_mcb(), "t")


def _pow(a, k):
    out = Automorphism.identity(a.group)
    b = a if k >= 0 else a.inverse()
    for _ in range(abs(k)):
        out = out.compose(b)
    return out


def test_pilgrim_mcbiset_size_and_distinct_keys(pilgrim_mcb):
    mcb, _ = pilgrim_mcb()
    assert mcb.size == 120
    keys = {distill(m).key for m in mcb.machines}
    assert len(keys) == 120


@pytest.mark.slow
def test_pilgrim_mcbiset_edges_verify(pilgrim_mcb, pilgrim_full_mcb):
    # every edge of both bisets:  M_k * g = knitting * M_next  exactly
    for mcb in (pilgrim_mcb()[0], pilgrim_full_mcb()):
        for e in mcb.table.values():
            lhs = pre_compose(mcb.machines[e.source], mcb.gens[e.gen])
            rhs = change_basis(post_compose(mcb.machines[e.target],
                                            e.knitting_auto), e.basis_change)
            assert lhs == rhs, (e.gen, e.source)


def _least_images(moves, entries, js):
    """(letters, j, images) for the first move j of js whose images of
    the entries have the least total letters."""
    best = None
    for j in js:
        images = list(substitute_all(entries, moves[j][0].images))
        letters = sum(map(len, images))
        if best is None or letters < best[0]:
            best = letters, j, images
    return best


def _plain_shortened(M, moves):
    """The greedy of mcbiset._shortened with no image table: each round
    maps every entry by every move and takes the first move with the
    least total while that total is below the current one.  Where it is
    not, it maps that move's images by every move but the move's inverse,
    its partner in the pair (t, t^-1), and takes the first such pair with
    the least total if that is below the current one."""
    entries = start = [e for row in M.rows for e in row.entries]
    size = sum(map(len, entries))
    while moves:
        letters, j, images = _least_images(moves, entries, range(len(moves)))
        if letters >= size:
            inverse = j + 1 if j % 2 == 0 else j - 1
            letters, _, images = _least_images(
                moves, images, [i for i in range(len(moves)) if i != inverse])
            if letters >= size:
                break
        size, entries = letters, images
    if entries is start:
        return None
    it = iter(entries)
    return SphereMachine(M.source, M.target,
                         [WreathElement(tuple(next(it) for _ in row.entries),
                                        row.perm)
                          for row in M.rows])


def _rebased(M, rng):
    """M under a random basis change: conjugators of 0-3 letters and a
    random relabel."""
    letters = [x for i in range(1, M.target.n + 1) for x in (i, -i)]
    relabel = list(range(M.degree))
    rng.shuffle(relabel)
    return change_basis(M, BasisChange(
        tuple(tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
              for _ in range(M.degree)), tuple(relabel)))


@pytest.mark.parametrize("case", ["z5belyi", "z2_rebased", "z5belyi_rebased",
                                  "pilgrim_rebased"])
def test_image_tables_keep_the_plain_greedy(case, monkeypatch):
    """compute_mcbiset stores the machines a plain greedy, which maps
    every entry by every move in every round, would store."""
    stem = case.removesuffix("_rebased")
    mf = {"z5belyi": zoo.z5_marked, "z2": zoo.z2, "pilgrim": zoo.pilgrim}[stem]()
    M = mf.machine
    if case.endswith("_rebased"):
        M = _rebased(M, random.Random(case))
    gens = ([(n, mf.autos[n]) for n in "stu"] if stem == "pilgrim"
            else full_twist_generators(M.source))
    mcb = compute_mcbiset(M, gens)
    shortened = []

    def plain_shortened(N, moves):
        shortened.append(_plain_shortened(N, moves))
        return shortened[-1]

    monkeypatch.setattr(mcbiset, "_shortened", plain_shortened)
    plain = compute_mcbiset(M, gens)
    assert mcb.machines == plain.machines
    assert {key: (e.target, e.knitting_auto, e.basis_change)
            for key, e in mcb.table.items()} == \
        {key: (e.target, e.knitting_auto, e.basis_change)
         for key, e in plain.table.items()}
    # z2 has no twist that is not inner, and the new orbits of the
    # rebased z5belyi are short already; elsewhere the greedy picks moves
    assert any(shortened) == (case in ("z5belyi", "pilgrim_rebased"))


def _entry_letters(M):
    return sum(len(e) for row in M.rows for e in row.entries)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["z5belyi", "pilgrim"]), st.integers(0, 2**32))
def test_shortened_keeps_the_left_orbit_and_shortens(stem, seed):
    """Post-composing with pure twists stays in the left orbit, and a
    machine comes back only when it has strictly fewer entry letters."""
    mf = {"z5belyi": zoo.z5_marked, "pilgrim": zoo.pilgrim}[stem]()
    N = normalize_basis(_rebased(mf.machine, random.Random(seed)))[0]
    moves = [(m, {}) for _, t in full_twist_generators(N.target)
             if inner_conjugator(t) is None for m in (t, t.inverse())]
    short = mcbiset._shortened(N, moves)
    if short is None:
        return
    assert (short.source, short.target) == (N.source, N.target)
    assert [r.perm for r in short.rows] == [r.perm for r in N.rows]
    assert [[not e for e in r.entries] for r in short.rows] == \
        [[not e for e in r.entries] for r in N.rows]
    assert distill(short).key == distill(N).key
    assert _entry_letters(short) < _entry_letters(N)


@pytest.mark.slow
def test_pilgrim_mcbiset_stores_short_representatives(pilgrim_mcb,
                                                      pilgrim_full_mcb):
    mcb_stu, mcb_full = pilgrim_mcb()[0], pilgrim_full_mcb()
    # ceilings on the longest knitting and on all knitting letters; a
    # local minimum of the one-move greedy left a 6,272-letter knitting
    # in the s,t,u biset
    for mcb, longest, total in ((mcb_stu, 512, 12_270),
                                (mcb_full, 376, 16_506)):
        letters = [sum(map(len, e.knitting_auto.images))
                   for e in mcb.table.values()]
        assert max(letters) <= longest
        assert sum(letters) <= total
    # the first edge into each basis element, in the order of the
    # breadth-first search, is the one that found its left orbit
    for mcb in (mcb_stu, mcb_full):
        found = {0}
        shortened = 0
        for k in range(mcb.size):
            for gen in mcb.alphabet:
                t = mcb.table[(gen, k)].target
                if t in found:
                    continue
                found.add(t)
                stored = _entry_letters(mcb.machines[t])
                norm = _entry_letters(normalize_basis(
                    pre_compose(mcb.machines[k], mcb.gens[gen]))[0])
                assert stored <= norm, (gen, k)
                shortened += stored < norm
        assert found == set(range(mcb.size))
        assert shortened


@pytest.mark.slow
def test_pilgrim_saturates_under_the_full_twist_set(pilgrim_mcb,
                                                    pilgrim_full_mcb, tmp_path):
    # the t_{i,j} generating set reaches the same 120 left orbits
    mcb_stu, _ = pilgrim_mcb()
    mcb_full = pilgrim_full_mcb()
    assert mcb_full.size == 120
    assert {distill(m).key for m in mcb_full.machines} == \
        {distill(m).key for m in mcb_stu.machines}
    # the bytes `sphmach mcbiset machines/fbiset.mach` writes
    path = tmp_path / "full.mcb"
    save_mcb(mcb_full, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "78392102e2072852b0513457e59911f52d3b7e65ee619896f6087982e6b64ca5"


def test_same_left_orbit_guards_group_mismatch():
    z2 = zoo.z2().machine
    P = zoo.pilgrim().machine
    assert same_left_orbit(z2, P) is None


def test_pilgrim_mcb_file_bytes_are_pinned(pilgrim_mcb, tmp_path):
    # the bytes `sphmach mcbiset machines/fbiset.mach --gens s,t,u` writes
    mcb, _ = pilgrim_mcb()
    path = tmp_path / "stu.mcb"
    save_mcb(mcb, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "99e8ab0f7fac5ba7eeef530d39ad2805e37fda5b067366fc37c063bcb2548ae6"


# sha256 of each generator's action_perm, written "0,3,1,...", as the
# bisets gave them before each new basis element was shortened; the
# representative of a left orbit must not move any table target
ACTION_PERM_DIGESTS = {
    "stu": {
        "s":
            "c57eaeea1fe352d27e58a43cc5cdaa207f3aa7cc49a85abcfa139955b5eea7d9",
        "t":
            "93cb01bdba4dabf31ffa242eb061179ce89ae786dc003b54862bef45d8246c96",
        "u":
            "6fdb036b49a7c60b2cdf0f9dd6d53b206c2bb610f303142fc37c6cc04bfd0cf6",
    },
    "full": {
        "t1_2":
            "b30a4583d131c208e7e2079b2842770d099913d33e77dfe17eac28050e21af40",
        "t1_3":
            "7fedb27def8d6497bad58140116f84e90ca901f95f741f39be0113cceb586ceb",
        "t1_4":
            "7fedb27def8d6497bad58140116f84e90ca901f95f741f39be0113cceb586ceb",
        "t2_3":
            "89274aec6b14c7c72bf449abe28da82383c39a3ee68b8c95a76581bf9d931062",
        "t2_4":
            "7fedb27def8d6497bad58140116f84e90ca901f95f741f39be0113cceb586ceb",
        "t3_4":
            "b30a4583d131c208e7e2079b2842770d099913d33e77dfe17eac28050e21af40",
    },
    "z5": {
        "t1_2":
            "dd05230134fef716660749967bce0f3b7d5862aa84d21ab36fef230b47c5851e",
        "t1_3":
            "6484c68c0c85987f9beb3db42175c46955a8abe05170239580fcd1ff8b514452",
        "t1_4":
            "6484c68c0c85987f9beb3db42175c46955a8abe05170239580fcd1ff8b514452",
        "t2_3":
            "6484c68c0c85987f9beb3db42175c46955a8abe05170239580fcd1ff8b514452",
        "t2_4":
            "6484c68c0c85987f9beb3db42175c46955a8abe05170239580fcd1ff8b514452",
        "t3_4":
            "dd05230134fef716660749967bce0f3b7d5862aa84d21ab36fef230b47c5851e",
    },
}


@pytest.mark.slow
def test_table_targets_are_pinned(pilgrim_mcb, pilgrim_full_mcb):
    z5 = zoo.z5_marked().machine
    bisets = {"stu": pilgrim_mcb()[0], "full": pilgrim_full_mcb(),
              "z5": compute_mcbiset(z5, full_twist_generators(z5.source))}
    assert {label: {gen: hashlib.sha256(",".join(
                        map(str, mcb.action_perm(gen))).encode()).hexdigest()
                    for gen in mcb.alphabet}
            for label, mcb in bisets.items()} == ACTION_PERM_DIGESTS
