import hashlib
import itertools
import random

import pytest

from sphmach import mcbiset, perms
from sphmach.cli import main
from sphmach.machfile import save_mcb
from sphmach.words import (
    SphereGroup, ConjClass, Automorphism, outer_equal, wmul, EPSILON,
)
from sphmach.machine import (
    SphereMachine, WreathElement, BasisChange, MachineError,
    change_basis, pre_compose, post_compose, tensor,
)
from sphmach.mcbiset import (
    distill, machine_isomorphism, same_left_orbit,
    compute_mcbiset, full_twist_generators, rewrite, conjugacy_iterate,
    monodromy, correspondence_invariants, twist_fingerprint, twist_power_label,
    lift_multiset_in_mcbiset, ReconstructionError,
    MappingClassBiset, TableEdge,
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


def test_rewrite_rabbit_relations():
    mcb = zoo.rabbit_mcb()
    t, u, s = 2, 3, 1
    assert rewrite(mcb, 0, (t, t)) == ((u,), 0)
    assert rewrite(mcb, 0, (u, u)) == ((s,), 0)
    assert rewrite(mcb, 1, ()) == ((), 1)
    # stepwise composition agrees with one-shot rewriting, on short words
    # and on words of up to 2,000 letters
    rng = random.Random(2)
    for length in [rng.randint(0, 8) for _ in range(50)] + [500, 1000, 2000]:
        word = tuple(rng.choice([1, -1, 2, -2, 3, -3])
                     for _ in range(length))
        one, k1 = rewrite(mcb, 0, word)
        acc, k2 = (), 0
        from sphmach.words import reduce_word
        for x in reduce_word(word):
            step, k2 = rewrite(mcb, k2, (x,))
            acc = wmul(acc, step)
        assert (one, k1) == (acc, k2)


def test_rewrite_needs_twist_word_knittings():
    # a computed biset carries automorphism knittings only
    z5 = zoo.z5_marked().machine
    mcb = compute_mcbiset(z5, full_twist_generators(z5.source))
    with pytest.raises(MachineError, match="twist-word knitting"):
        rewrite(mcb, 0, (1,))
    with pytest.raises(MachineError, match="twist-word knitting"):
        rewrite(mcb, 0, (-1,))
    assert rewrite(mcb, 0, ()) == ((), 0)


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


def test_twist_fingerprint_classifies_conjugated_powers():
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


def test_pilgrim_mcbiset_edges_verify_sample(pilgrim_mcb):
    mcb, mf = pilgrim_mcb()
    rng = random.Random(9)
    edges = rng.sample(sorted(mcb.table.values(),
                              key=lambda e: (e.source, e.gen)), 40)
    for e in edges:
        lhs = pre_compose(mcb.machines[e.source], mf.autos[e.gen])
        rhs = change_basis(post_compose(mcb.machines[e.target],
                                        e.knitting_auto), e.basis_change)
        assert lhs == rhs


@pytest.mark.slow
def test_pilgrim_saturates_under_the_full_twist_set(pilgrim_mcb):
    # the t_{i,j} generating set reaches the same 120 left orbits
    mcb_stu, mf = pilgrim_mcb()
    mcb_full = compute_mcbiset(mf.machine,
                               full_twist_generators(mf.machine.source))
    assert mcb_full.size == 120
    assert {distill(m).key for m in mcb_full.machines} == \
        {distill(m).key for m in mcb_stu.machines}


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
        "4f73bdb6453277a51045f7d2f41afcd8ddc4210575aac6df74f70f8156199752"
