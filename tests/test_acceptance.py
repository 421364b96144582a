"""Acceptance suite: one test per criterion, exact values, stated budgets.

Each test prints one pass line (visible with -v/-s); failures raise.
"""

import random
import time
from collections import Counter
from fractions import Fraction

from sphmach import perms
from sphmach.words import ConjClass, Automorphism, wmul
from sphmach.machine import (
    SphereMachine, WreathElement, BasisChange, validate_sphere,
    multiset_of_lifts, tensor, change_basis, pre_compose,
    post_compose, stabilizer_subgroup,
)
from sphmach.mcbiset import (
    distill, compute_mcbiset, full_twist_generators, machine_isomorphism,
    conjugacy_iterate, monodromy, lift_multiset_in_mcbiset,
    correspondence_invariants,
)
from sphmach.multicurve import (
    thurston_matrix, is_obstructed, twist_lift_check,
    TwistFixedPointProblem, LinExpr, solve_twist_fixed_point,
    verify_fixed_point, mc_to_gog,
)
from sphmach.folding import SubgroupGraph

import zoo


def _pow(a, k):
    out = Automorphism.identity(a.group)
    b = a if k >= 0 else a.inverse()
    for _ in range(abs(k)):
        out = out.compose(b)
    return out


class Budget:
    def __init__(self, n, label, limit):
        self.n, self.label, self.limit = n, label, limit

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.time() - self.t0
        if exc_type is None:
            assert dt < self.limit, f"criterion {self.n} took {dt:.1f}s " \
                                    f"(limit {self.limit}s)"
            print(f"[criterion {self.n}] PASS - {self.label} ({dt:.2f}s)")
        else:
            print(f"[criterion {self.n}] FAIL - {self.label}")
        return False


def test_criterion_1_validation_suite():
    with Budget(1, "validation of both fixtures plus mutations", 1.0):
        for mf in (zoo.pilgrim(), zoo.centralizer7()):
            rep = validate_sphere(mf.machine)
            assert rep.is_sphere_biset, rep.details
        # deleting x6's permutation breaks the branching count
        M = zoo.centralizer7().machine
        rows = list(M.rows)
        rows[5] = WreathElement(rows[5].entries, perms.identity(6))
        rep = validate_sphere(SphereMachine(M.source, M.target, rows))
        assert not rep.riemann_hurwitz
        # squaring an entry of the degree-5 machine breaks the lift partition
        P = zoo.pilgrim().machine
        rows = list(P.rows)
        entries = list(rows[3].entries)
        entries[2] = P.target.normal_form([4, 4])
        rows[3] = WreathElement(tuple(entries), rows[3].perm)
        rep = validate_sphere(SphereMachine(P.source, P.target, rows))
        assert rep.riemann_hurwitz and not rep.lifts_partition


def test_criterion_2_monodromy():
    with Budget(2, "degree-5 monodromy has order 120 and is transitive", 1.0):
        rep = monodromy(zoo.pilgrim().machine)
        assert rep.order == 120
        assert rep.transitive


def test_criterion_3_mcbiset_enumeration(pilgrim_mcb):
    # the session fixture builds on first call, inside this budget
    with Budget(3, "orbit counts 120 and 5", 60.0):
        assert pilgrim_mcb()[0].size == 120
        z5 = zoo.z5_marked().machine
        mcb5 = compute_mcbiset(z5, full_twist_generators(z5.source))
        assert mcb5.size == 5


def test_criterion_4_lift_multisets(pilgrim_mcb):
    with Budget(4, "twist lift multisets and the weighted count 64", 60.0):
        mcb, _ = pilgrim_mcb()

        def counted(gen):
            ent = lift_multiset_in_mcbiset(mcb, gen)
            assert all(e.label is not None for e in ent)
            return Counter((e.degree, e.label) for e in ent)

        cu = counted("u")
        assert cu == Counter({
            (2, ("s", 1)): 16, (2, ("t", 1)): 16, (2, ("u", 1)): 16,
            (2, ("s", 2)): 4, (2, ("t", 2)): 4, (2, ("u", 2)): 4,
        })
        expected_56 = Counter({
            (6, ("1", 0)): 8,
            (6, ("s", 5)): 4, (6, ("t", 5)): 4, (6, ("u", 5)): 4,
        })
        assert counted("s") == expected_56
        assert counted("t") == expected_56
        weighted = 0
        for gen in ("s", "t", "u"):
            for e in lift_multiset_in_mcbiset(mcb, gen):
                name, k = e.label
                if name == "s":
                    weighted += k
                elif name == "1":
                    pass
        assert weighted == 16 * 1 + 4 * 2 + 4 * 5 + 4 * 5 == 64


def test_criterion_5_klein_quotient():
    with Budget(5, "Klein quotient: 30 classes, cycle shapes, genus 2", 5.0):
        P = zoo.pilgrim().machine
        rho = [P.rows[0].perm, P.rows[1].perm, P.rows[2].perm]
        order = perms.group_order(rho, 5)
        assert order == 120
        V = frozenset([perms.identity(5),
                       perms.from_cycles([[1, 2], [3, 4]], 5),
                       perms.from_cycles([[1, 3], [2, 4]], 5),
                       perms.from_cycles([[1, 4], [2, 3]], 5)])
        assert all(perms.compose(a, b) in V for a in V for b in V)

        def times(coset, g):
            return frozenset(perms.compose(v, g) for v in coset)

        # the right cosets V*g, indexed breadth-first from V under rho
        cosets, index = [V], {V: 0}
        for c in cosets:
            for g in rho:
                d = times(c, g)
                if d not in index:
                    index[d] = len(cosets)
                    cosets.append(d)
        assert len(cosets) == 30
        assert len(frozenset().union(*cosets)) == order
        induced = [tuple(index[times(c, g)] for c in cosets) for g in rho]
        assert all(sorted(g) == list(range(30)) for g in induced)
        shapes = [sorted(map(len, perms.cycles(g))) for g in induced]
        assert shapes[0] == [6] * 5          # s: five 6-cycles
        assert shapes[1] == [6] * 5          # t: five 6-cycles
        assert shapes[2] == [1] * 6 + [2] * 12   # u: twelve involutions
        inv = correspondence_invariants([induced[2], induced[1], induced[0]])
        assert inv.punctures == 28
        assert inv.euler_characteristic == -30
        assert inv.genus == 2


def test_criterion_6_twisted_rabbit():
    with Budget(6, "twisted rabbit classification on [-30, 30]", 1.0):
        mcb = zoo.rabbit_mcb()
        t = 2  # alphabet position of the twist t

        def classify(n):
            word = (t,) * n if n >= 0 else (-t,) * (-n)
            term = conjugacy_iterate(mcb, (word, 0))
            if term.kind == "fixed":
                return "rabbit" if term.states[0][1] == 0 else "airplane"
            assert term.kind == "cycle"
            # seeded base case: t^-1 . f_R is the corabbit
            assert ((-t,), 0) in term.states
            return "corabbit"

        def base4_rule(n):
            if n == 0:
                return "rabbit"
            digits, m = [], n
            while m not in (0, -1):
                digits.append(m % 4)
                m //= 4
            if any(d in (1, 2) for d in digits):
                return "airplane"
            return "rabbit" if n > 0 else "corabbit"

        for n in range(-30, 31):
            assert classify(n) == base4_rule(n), n


def test_criterion_7_centralizer_identities():
    with Budget(7, "machine identities and membership checks", 5.0):
        mf = zoo.centralizer7()
        B = mf.machine
        G = B.source
        sigma, tau = mf.autos["sigma"], mf.autos["tau"]
        alpha, beta = mf.autos["alpha"], mf.autos["beta"]
        s = G.normal_form([3, 4])
        t = G.normal_form([2, 3, 4, 5])
        # sigma . B == B . sigma and beta . B == B . beta, exactly
        assert pre_compose(B, sigma) == post_compose(B, sigma)
        assert pre_compose(B, beta) == post_compose(B, beta)
        # sigma^2 tau^3 . B == B . tau after the rebasing tuple
        ell = (wmul(t, t, t, s, s), wmul(t, t, t, s), wmul(t, t, t, s),
               wmul(t, t), wmul(t, t), ())
        lhs = post_compose(post_compose(pre_compose(B, tau), _pow(sigma, -2)),
                           _pow(tau, -3))
        assert change_basis(lhs, BasisChange(ell, perms.identity(6))) == B
        # alpha sigma^2 . B == B . alpha after rebasing (s^2, s^2, 1, 1, 1, 1)
        ell_a = (wmul(s, s), wmul(s, s), (), (), (), ())
        lhs = post_compose(post_compose(pre_compose(B, alpha),
                                        alpha.inverse()), _pow(sigma, -2))
        assert change_basis(lhs, BasisChange(ell_a, perms.identity(6))) == B
        # membership: sigma and beta commute with B; alpha does not
        assert machine_isomorphism(post_compose(B, sigma),
                                   pre_compose(B, sigma)) is not None
        assert machine_isomorphism(post_compose(B, beta),
                                   pre_compose(B, beta)) is not None
        assert machine_isomorphism(post_compose(B, alpha),
                                   pre_compose(B, alpha)) is None


def test_criterion_8_matrix_obstruction_solver():
    with Budget(8, "Thurston matrix, obstruction, twist fixed points", 1.0):
        mf = zoo.centralizer7()
        T = thurston_matrix(mf.machine, mf.curves)
        assert T.entries == [[Fraction(1), Fraction(2)],
                             [Fraction(0), Fraction(3)]]
        rep = is_obstructed(T)
        assert rep.obstructed
        assert abs(rep.perron_low - 3.0) < 1e-6
        prob = TwistFixedPointProblem(
            T, [LinExpr.var("a").scale(2), LinExpr.var("b").scale(2)])
        sol = solve_twist_fixed_point(prob)
        assert sol.free_rank == 1
        assert [str(c) for c in sol.constraints] == ["a - b"]
        values = {"a": 3, "b": 3}
        values.update({p: -2 for p in sol.free_params})
        assert verify_fixed_point(sol, prob, values)
        assert sol.solution[1].evaluate(values) == -3   # v_t = -theta_{2,s}
        # the lifted twists realize the matrix columns on the base element
        mcb = compute_mcbiset(
            mf.machine, [("sigma", mf.autos["sigma"]), ("tau", mf.autos["tau"])])
        assert twist_lift_check(mcb, T, ["sigma", "tau"]) == []


def test_criterion_9_property_suite():
    with Budget(9, "randomized invariance and structure properties", 60.0):
        rng = random.Random(20260811)
        # distillation left-invariance: 200 randomized twists of two bases
        for mf, n_trials in ((zoo.pilgrim(), 100), (zoo.centralizer7(), 100)):
            M = mf.machine
            G = M.target
            twists = list(mf.autos.values()) or \
                [a for _, a in full_twist_generators(G)]
            key = distill(M).key
            for _ in range(n_trials):
                phi = Automorphism.identity(G)
                for _ in range(rng.randint(1, 4)):
                    phi = phi.compose(rng.choice(twists))
                assert distill(post_compose(M, phi)).key == key
        # lift multiset invariance under 100 random basis changes
        M = zoo.centralizer7().machine
        G = M.source
        t = G.normal_form([2, 3, 4, 5])
        base_lifts = multiset_of_lifts(M, t)
        letters = [i for i in range(-6, 7) if i]
        for _ in range(100):
            conj = tuple(G.normal_form(
                [rng.choice(letters) for _ in range(rng.randint(0, 5))])
                for _ in range(6))
            relabel = list(range(6))
            rng.shuffle(relabel)
            Mb = change_basis(M, BasisChange(conj, tuple(relabel)))
            assert multiset_of_lifts(Mb, t) == base_lifts
        # tensor unit and associativity
        z2 = zoo.z2().machine
        I2 = SphereMachine.identity(z2.source)
        assert tensor(z2, I2) == z2 and tensor(I2, z2) == z2
        P = zoo.pilgrim().machine
        assert tensor(tensor(P, P), P) == tensor(P, tensor(P, P))
        # stabilizer index equals the degree on every fixture
        for mf in (zoo.z2(), zoo.pilgrim(), zoo.z5_marked(), zoo.centralizer7()):
            M = mf.machine
            sp = stabilizer_subgroup(M, 1)
            assert sp.index == M.degree
            assert SubgroupGraph(list(sp.generators)).index_in(
                M.source.free_gen_indices()) == M.degree
        # sphere tree reassembly on the three-vertex fixture
        mf = zoo.centralizer7()
        tree = mc_to_gog(mf.machine.source, mf.curves, bound=4)
        assert len(tree.spheres) == 3
        G = mf.machine.source
        for v in tree.spheres:
            prod = ()
            for i in v.group.relator:
                prod = wmul(prod, v.embeds[i - 1])
            assert G.normal_form(prod) == ()
        for c, curve in zip(tree.curves, mf.curves):
            assert ConjClass(G, c.element, sign_insensitive=True) == curve
