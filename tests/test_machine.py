import random

import pytest
from hypothesis import given, settings, strategies as st

from sphmach import perms
from sphmach.words import (
    SphereGroup, ConjClass, Automorphism, winv, wmul, conjugate, reduce_word,
    substitute_all,
)
from sphmach.machine import (
    SphereMachine, WreathElement, BasisChange, MachineError, NotSphereBiset,
    validate_sphere, multiset_of_lifts, portrait, tensor, change_basis,
    pre_compose, post_compose, normalize_basis, stabilizer_subgroup,
    tree_words, LiftMultiset, cycle_classes, ValidationReport,
)
from sphmach.folding import SubgroupGraph
from sphmach.mcbiset import full_twist_generators

import zoo


def rand_word(rng, G, length):
    letters = [i for i in range(-G.n, G.n + 1) if i]
    return G.normal_form([rng.choice(letters) for _ in range(length)])


def centralizer7():
    return zoo.centralizer7().machine


def pilgrim():
    return zoo.pilgrim().machine


def test_evaluate_identity_and_relator():
    M = centralizer7()
    w = M.evaluate(())
    assert w.is_identity()
    assert M.relator_ok()


def test_evaluate_curve_words_match_known_values():
    M = centralizer7()
    G = M.source
    s = G.normal_form([3, 4])
    t = G.normal_form([2, 3, 4, 5])
    ws = M.evaluate(s)
    assert perms.is_identity(ws.perm)
    assert [G.word_str(e) for e in ws.entries] == ["x3*x4", "", "", "", "", ""]
    wt = M.evaluate(t)
    assert perms.is_identity(wt.perm)
    assert [G.word_str(e) for e in wt.entries] == [
        "", "x3*x4", "x4^-1*x3^-1", "x2*x3*x4*x5",
        "x5^-1*x4^-1*x3^-1*x2^-1", "x2*x3*x4*x5"]


ZOO_MACHINES = {"z2": zoo.z2, "pilgrim": zoo.pilgrim,
                "z5belyi": zoo.z5_marked, "centralizer7": zoo.centralizer7}


def _row_product(M, w):
    """The rows of M multiplied left to right along the source word w,
    each negative letter by its row inverted: the reference evaluate."""
    d = M.degree
    entries, perm = [()] * d, list(range(d))
    for x in w:
        row = M.rows[abs(x) - 1]
        if x < 0:
            row = row.inv()
        entries = [wmul(entries[i], row.entries[perm[i]]) for i in range(d)]
        perm = [row.perm[p] for p in perm]
    return WreathElement(tuple(entries), tuple(perm))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(ZOO_MACHINES)), st.data())
def test_evaluate_is_the_row_product(name, data):
    M = ZOO_MACHINES[name]().machine
    n = M.source.n
    letters = [x for i in range(1, n + 1) for x in (i, -i)]
    # not reduced, so that letters cancel against their inverses too
    w = data.draw(st.lists(st.sampled_from(letters), max_size=12))
    assert M.evaluate(w) == _row_product(M, w)
    bad = data.draw(st.sampled_from([0, n + 1, -n - 1, 10 * n]))
    at = data.draw(st.integers(0, len(w)))
    with pytest.raises(MachineError, match=f"letter {bad} outside"):
        M.evaluate(w[:at] + [bad] + w[at:])


def _fresh(M):
    """A copy of M whose evaluation has built no steps yet."""
    return SphereMachine(M.source, M.target, M.rows)


def test_evaluate_names_a_letter_outside_the_source_group():
    for name, fixture in ZOO_MACHINES.items():
        M = fixture().machine
        n = M.source.n
        for x in (0, n + 1, -(n + 1)):
            for w in ((x,), (1, -2, x), (x, 1)):
                with pytest.raises(MachineError) as exc:
                    _fresh(M).evaluate(w)
                assert str(exc.value) == f"letter {x} outside source group"


def test_evaluate_reads_a_one_shot_iterator_from_every_point():
    # the walk reads the word once from each of the degree basis points
    rng = random.Random(32)
    for name, fixture in ZOO_MACHINES.items():
        M = fixture().machine
        for length in (1, 5, 12):
            w = rand_word(rng, M.source, length)
            assert _fresh(M).evaluate(iter(w)) == _row_product(M, w), name
            assert _fresh(M).evaluate(iter(w)) == M.evaluate(w), name


def test_a_positive_word_inverts_no_row():
    # steps are built per letter met: the relator, a positive word with
    # every generator once, builds the n forward steps and no inverse one
    machines = [fixture().machine for fixture in ZOO_MACHINES.values()]
    for M in machines + list(zoo.centralizer7_tower()[1:]):
        fresh = _fresh(M)
        assert fresh.relator_ok()
        assert sorted(fresh._steps) == list(range(1, M.source.n + 1))
    for M in machines:
        for i, row in enumerate(M.rows, 1):
            assert _fresh(M).evaluate((-i,)) == row.inv()


def _validation_evaluating_every_generator(M):
    """validate_sphere with the lifts of every generator read from its
    evaluation: the reference for the rows that validate_sphere reads."""
    details = []
    relator_ok = M.evaluate(M.source.relator).is_identity()
    if not relator_ok:
        details.append("malformed machine: wreath image of the relator "
                       "is not the identity")
    gens = M.monodromy_perms()
    transitive = perms.is_transitive(gens, M.degree)
    if not transitive:
        details.append("monodromy action is not transitive")
    deficit = sum(perms.deficit(p) for p in gens)
    rh = deficit == 2 * M.degree - 2
    if not rh:
        details.append(f"cycle deficit {deficit} != 2d-2 = {2 * M.degree - 2}")
    found, mapping, ok3 = [], {}, True
    for i in range(1, M.source.n + 1):
        for d, cls in multiset_of_lifts(M, M.source.gen(i)).entries:
            if cls.is_trivial():
                continue
            j = cls.peripheral_index()
            if j is None:
                ok3 = False
                details.append(
                    f"lift of class {i} hits non-peripheral class {cls!r}")
            else:
                found.append(j)
                mapping[j] = (i, d)
    if sorted(found) != list(range(1, M.target.n + 1)):
        ok3 = False
        details.append("peripheral classes of the target are not hit exactly once")
    return ValidationReport(relator_ok, transitive, rh, ok3, details, mapping)


def test_validation_reads_the_rows_of_the_kept_generators(monkeypatch):
    machines = [fixture().machine for fixture in ZOO_MACHINES.values()]
    machines += zoo.centralizer7_tower()[1:]
    # a machine whose relator fails, which lifts a class non-peripherally
    M = centralizer7()
    rows = list(M.rows)
    entries = list(rows[2].entries)
    entries[0] = M.target.normal_form([3, 3])
    rows[2] = WreathElement(tuple(entries), rows[2].perm)
    machines.append(SphereMachine(M.source, M.target, rows))
    evaluated = []
    evaluate = SphereMachine.evaluate
    for M in machines:
        want = _validation_evaluating_every_generator(M)
        monkeypatch.setattr(SphereMachine, "evaluate", lambda self, w:
                            evaluated.append(w) or evaluate(self, w))
        got = validate_sphere(M)
        monkeypatch.undo()
        assert got == want
        assert (got.details, got._mapping) == (want.details, want._mapping)
        # the relator and the one generator that is not a kept letter
        G = M.source
        eliminated = [g for i, g in enumerate(G.gens, 1) if g != (i,)]
        assert len(eliminated) == 1
        assert evaluated == [G.relator] + eliminated
        evaluated.clear()
    assert not want.relator_ok and not want.lifts_partition


def test_validation_of_fixtures():
    for mf in (zoo.z2(), zoo.pilgrim(), zoo.z5_marked(), zoo.centralizer7()):
        rep = validate_sphere(mf.machine)
        assert rep.is_sphere_biset, rep.details


def _two_sheets():
    """A degree-2 machine whose relator holds but whose points are fixed
    by every generator: two disjoint copies of the identity."""
    G = SphereGroup(["a", "b"])
    return SphereMachine(G, G, [WreathElement(((1,), (1,)), (0, 1)),
                                WreathElement(((-1,), (-1,)), (0, 1))])


def test_validation_names_an_intransitive_action():
    rep = validate_sphere(_two_sheets())
    assert (rep.relator_ok, rep.transitive, rep.riemann_hurwitz,
            rep.lifts_partition) == (True, False, False, False)
    assert rep.details == [
        "monodromy action is not transitive",
        "cycle deficit 0 != 2d-2 = 2",
        "peripheral classes of the target are not hit exactly once"]


def test_riemann_hurwitz_deficits():
    M = centralizer7()
    deficits = [perms.deficit(p) for p in M.monodromy_perms()]
    assert deficits == [2, 3, 0, 0, 3, 1, 1]
    assert sum(deficits) == 2 * M.degree - 2


def test_mutation_breaks_sb2():
    M = centralizer7()
    rows = list(M.rows)
    rows[5] = WreathElement(rows[5].entries, perms.identity(6))
    mutated = SphereMachine(M.source, M.target, rows)
    rep = validate_sphere(mutated)
    assert not rep.riemann_hurwitz
    assert not rep.relator_ok  # malformed machine reported distinctly
    assert not rep.is_sphere_biset


def test_mutation_breaks_sb3():
    M = centralizer7()
    rows = list(M.rows)
    entries = list(rows[2].entries)
    entries[0] = M.target.normal_form([3, 3])
    rows[2] = WreathElement(tuple(entries), rows[2].perm)
    mutated = SphereMachine(M.source, M.target, rows)
    rep = validate_sphere(mutated)
    assert rep.riemann_hurwitz
    assert not rep.lifts_partition
    assert not rep.is_sphere_biset


def test_lift_multisets_of_the_obstruction_curves():
    M = centralizer7()
    G = M.source
    s = G.normal_form([3, 4])
    t = G.normal_form([2, 3, 4, 5])
    ls = multiset_of_lifts(M, s)
    expected_s = LiftMultiset(
        [(1, ConjClass(G, s))] + [(1, ConjClass(G, ()))] * 5)
    assert ls == expected_s
    lt = multiset_of_lifts(M, t)
    expected_t = LiftMultiset([
        (1, ConjClass(G, ())),
        (1, ConjClass(G, s)), (1, ConjClass(G, winv(s))),
        (1, ConjClass(G, t)), (1, ConjClass(G, winv(t))),
        (1, ConjClass(G, t)),
    ])
    assert lt == expected_t


def _reference_cycle_classes(w, target):
    """(cycle, product, class) for each cycle of w, with a ConjClass built
    for every cycle product, empty or not."""
    for cycle in perms.cycles(w.perm):
        product = wmul(*(w.entries[p] for p in cycle))
        yield cycle, product, ConjClass(target, product)


def _cycle_class_inputs():
    """Wreath elements from every fixture and the centralizer7 tower: the
    rows, the same rows under a seeded basis change, and the evaluations
    of the multicurves; plus a row whose one non-empty product is the
    relator, trivial in the group."""
    rng = random.Random(31)
    c7 = zoo.centralizer7()
    machines = [mf().machine for mf in ZOO_MACHINES.values()]
    machines += zoo.centralizer7_tower()[1:]
    for M in machines:
        conj = tuple(rand_word(rng, M.target, rng.randint(0, 4))
                     for _ in range(M.degree))
        rebased = change_basis(M, BasisChange(conj, tuple(range(M.degree))))
        for N in (M, rebased):
            yield from ((N.target, row) for row in N.rows)
            yield N.target, N.evaluate(N.source.relator)
        if M.source == c7.machine.source:
            for curve in c7.curves:
                yield M.target, M.evaluate(curve.rep)
    G = c7.machine.target
    yield G, WreathElement((G.relator, ()), (0, 1))


def test_cycle_classes_match_a_class_per_cycle():
    # empty products share one trivial class; every other product, the
    # relator included, is its own ConjClass: the answers are the same
    trivial_products = 0
    for target, w in _cycle_class_inputs():
        got = list(cycle_classes(w, target))
        want = list(_reference_cycle_classes(w, target))
        assert [(cyc, c.canonical, c.is_trivial(), c.peripheral_index())
                for cyc, c in got] == \
            [(cyc, c.canonical, c.is_trivial(), c.peripheral_index())
             for cyc, _, c in want]
        assert [c for _, c in got] == [c for _, _, c in want]
        shared = {id(c) for (_, c), (_, product, _) in zip(got, want)
                  if not product}
        assert len(shared) <= 1
        trivial_products += sum(1 for (_, c), (_, product, _) in zip(got, want)
                                if product and c.is_trivial())
    # the relator row: a non-empty product that is trivial in the group
    assert trivial_products >= 1


def test_lift_degrees_sum_to_degree():
    rng = random.Random(0)
    for M in (centralizer7(), pilgrim()):
        for _ in range(20):
            w = rand_word(rng, M.source, rng.randint(1, 8))
            assert multiset_of_lifts(M, w).total_degree() == M.degree


def test_portrait():
    z2 = zoo.z2().machine
    p = portrait(z2)
    assert p.mapping == {1: (1, 2), 2: (2, 2)}
    ident = SphereMachine.identity(SphereGroup(["a", "b", "c"]))
    assert portrait(ident).mapping == {1: (1, 1), 2: (2, 1), 3: (3, 1)}
    # the blown-up map sends every puncture to the free marked point's image
    P = pilgrim()
    assert portrait(P).mapping == {1: (4, 1), 2: (4, 1), 3: (4, 1), 4: (4, 1)}


def test_portrait_requires_sphere_biset():
    M = centralizer7()
    rows = list(M.rows)
    rows[5] = WreathElement(rows[5].entries, perms.identity(6))
    with pytest.raises(NotSphereBiset):
        portrait(SphereMachine(M.source, M.target, rows))


def test_tensor_unit_and_square():
    z2 = zoo.z2().machine
    I = SphereMachine.identity(z2.source)
    assert tensor(z2, I) == z2
    assert tensor(I, z2) == z2
    z4 = tensor(z2, z2)
    assert z4.degree == 4
    assert validate_sphere(z4).is_sphere_biset
    lifts = multiset_of_lifts(z4, (1,))
    assert lifts.entries == [(4, ConjClass(z2.source, (1,)))]


def test_tensor_associativity():
    P = pilgrim()
    assert tensor(tensor(P, P), P) == tensor(P, tensor(P, P))


def test_tensor_of_valid_machines_is_valid():
    P = pilgrim()
    assert validate_sphere(tensor(P, P)).is_sphere_biset


def test_change_basis_round_trip_and_lift_invariance():
    M = centralizer7()
    G = M.source
    rng = random.Random(1)
    t = G.normal_form([2, 3, 4, 5])
    base = multiset_of_lifts(M, t)
    for _ in range(30):
        conj = tuple(rand_word(rng, G, rng.randint(0, 6)) for _ in range(6))
        relabel = list(range(6))
        rng.shuffle(relabel)
        b = BasisChange(conj, tuple(relabel))
        Mb = change_basis(M, b)
        assert change_basis(Mb, b.inv()) == M
        assert multiset_of_lifts(Mb, t) == base
        assert validate_sphere(Mb).is_sphere_biset


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ZOO_MACHINES)), st.randoms(use_true_random=False))
def test_basis_change_then_is_one_change(name, rng):
    M = ZOO_MACHINES[name]().machine
    G, d = M.target, M.degree

    def rand_change():
        relabel = list(range(d))
        rng.shuffle(relabel)
        return BasisChange(tuple(rand_word(rng, G, rng.randint(0, 6))
                                 for _ in range(d)), tuple(relabel))

    b1, b2 = rand_change(), rand_change()
    assert change_basis(change_basis(M, b1), b2) == \
        change_basis(M, b1.then(b2))
    assert b1.then(BasisChange.identity(d)) == b1
    assert BasisChange.identity(d).then(b2) == b2


def test_identity_basis_change():
    M = centralizer7()
    assert change_basis(M, BasisChange.identity(6)) == M


def test_pre_post_compose_invert():
    M = centralizer7()
    autos = zoo.centralizer7().autos
    for name in ("sigma", "tau", "beta"):
        a = autos[name]
        assert pre_compose(pre_compose(M, a), a.inverse()) == M
        assert post_compose(post_compose(M, a), a.inverse()) == M


def test_pre_compose_matches_substituting_the_generators():
    """pre_compose evaluates the machine on phi's images; substituting
    the generators through those images, as pre-composition once did,
    gives the images back for an automorphism, whose images satisfy the
    relator."""
    rng = random.Random(34)
    for name, fixture in ZOO_MACHINES.items():
        mf = fixture()
        M, G = mf.machine, mf.machine.source
        twists = [t for _, t in full_twist_generators(G)]
        autos = list(mf.autos.values()) + twists
        for _ in range(10):
            phi = Automorphism.identity(G)
            for _ in range(rng.randint(1, 6)):
                t = rng.choice(twists)
                phi = phi.compose(t if rng.random() < 0.5 else t.inverse())
            autos.append(phi)
        for phi in autos:
            substituted = substitute_all(G.gens, phi.images)
            assert pre_compose(M, phi) == SphereMachine(
                M.source, M.target, [M.evaluate(w) for w in substituted]), name


def test_compose_rejects_non_peripheral():
    M = zoo.z2().machine
    G = M.source
    swap = Automorphism(G, [(2,), G.normal_form([-2, 1, 2])])
    with pytest.raises(MachineError):
        pre_compose(M, swap)


def test_normalize_basis_presents_the_same_biset():
    M = centralizer7()
    G = M.source
    rng = random.Random(2)
    conj = tuple(rand_word(rng, G, 5) for _ in range(6))
    Mb = change_basis(M, BasisChange(conj, perms.identity(6)))
    Mn, b = normalize_basis(Mb)
    assert change_basis(Mb, b) == Mn
    assert multiset_of_lifts(Mn, G.normal_form([2, 3, 4, 5])) == \
        multiset_of_lifts(M, G.normal_form([2, 3, 4, 5]))


def test_tree_and_loop_words_are_what_normalize_basis_leaves():
    rng = random.Random(23)
    for name, make in ZOO_MACHINES.items():
        M = make().machine
        d = M.degree
        for _ in range(8):
            relabel = list(range(d))
            rng.shuffle(relabel)
            conj = tuple(rand_word(rng, M.target, rng.randint(0, 6))
                         for _ in range(d))
            Mb = change_basis(M, BasisChange(conj, tuple(relabel)))
            tree, back = perms.spanning_tree(Mb.monodromy_perms())
            ell, loops = tree_words(tree, back, d,
                                    lambda r, p: Mb.rows[r].entries[p])
            Mn, b = normalize_basis(Mb)
            assert list(b.conjugators) == [winv(w) for w in ell], name
            assert loops == [Mn.rows[r].entries[p] for p, r, _ in back], name
            assert all(not Mn.rows[r].entries[p] for p, r, _ in tree), name


def test_stabilizer_rejects_an_intransitive_machine_from_every_start():
    G = SphereGroup(["a", "b", "c"])
    swap, fix = (1, 0, 2), perms.identity(3)
    rows = [WreathElement(((), (1,), (2,)), swap),
            WreathElement(((-1,), (), (-2, -1)), swap),
            WreathElement(((), (), (1,)), fix)]
    M = SphereMachine(G, G, rows)
    for s in range(1, 4):
        with pytest.raises(MachineError, match="not right-transitive"):
            stabilizer_subgroup(M, s)


def test_stabilizer_z2_by_hand():
    z2 = zoo.z2().machine
    sp = stabilizer_subgroup(z2, 1)
    assert sp.index == 2
    assert sp.transversal == ((), (1,))
    assert list(sp.generators) == [(1, 1)]
    peri = {(p.class_index, p.degree, p.rep) for p in sp.peripheral}
    assert peri == {(1, 2, (1, 1)), (2, 2, (-1, -1))}


def test_stabilizer_identity_machine():
    G = SphereGroup(["a", "b", "c"])
    sp = stabilizer_subgroup(SphereMachine.identity(G), 1)
    assert sp.index == 1
    assert sp.transversal == ((),)


def test_stabilizer_counts_and_index():
    for mf in (zoo.z2(), zoo.pilgrim(), zoo.z5_marked(), zoo.centralizer7()):
        M = mf.machine
        sp = stabilizer_subgroup(M, 1)
        n, d = M.source.n, M.degree
        assert len(sp.generators) == d * (n - 1) - d + 1
        # coset enumeration over the returned generators recovers the index
        graph = SubgroupGraph(list(sp.generators))
        assert graph.index_in(M.source.free_gen_indices()) == d
        from sphmach.words import is_conjugate
        for lift in sp.peripheral:
            power = wmul(*([M.source.gen(lift.class_index)] * lift.degree))
            # the representative maps into the class power under inclusion
            assert is_conjugate(power, lift.rep) is not None


def test_centralizer7_stabilizer_rank():
    sp = stabilizer_subgroup(centralizer7(), 1)
    assert sp.index == 6
    assert len(sp.generators) == 6 * 6 - 6 + 1 == 31


def test_error_paths():
    z2 = zoo.z2().machine
    P = pilgrim()
    with pytest.raises(MachineError):
        tensor(z2, P)  # group mismatch
    with pytest.raises(MachineError):
        change_basis(z2, BasisChange(((),), perms.identity(1)))
    G = SphereGroup(["a", "b"])
    split_rows = [WreathElement(((1,), ()), perms.identity(2)),
                  WreathElement(((-1,), ()), perms.identity(2))]
    with pytest.raises(MachineError):
        stabilizer_subgroup(SphereMachine(G, G, split_rows), 1)
    with pytest.raises(MachineError):
        stabilizer_subgroup(z2, 3)
