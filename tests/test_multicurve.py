import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sphmach import multicurve, perms
from sphmach.words import (
    SphereGroup, ConjClass, Automorphism, wmul, conjugate, is_conjugate,
    dehn_twist, outer_equal,
)
from sphmach.machine import (
    SphereMachine, WreathElement, BasisChange, multiset_of_lifts, change_basis,
)
from sphmach.mcbiset import (
    compute_mcbiset, full_twist_generators, twist_fingerprint,
)
from sphmach.multicurve import (
    Multicurve, MulticurveError, SplitFailed, PromoteFailed,
    classify_lifts, thurston_matrix, ThurstonMatrix, charpoly,
    count_real_roots, is_obstructed, twist_lift_check,
    LinExpr, TwistFixedPointProblem, solve_twist_fixed_point,
    verify_fixed_point, mc_to_gog, promote_bijection,
)

import zoo


def fixture():
    mf = zoo.centralizer7()
    return mf.machine, mf.curves, mf.autos


def test_multicurve_validation():
    G = SphereGroup(["a", "b", "c", "d"])
    with pytest.raises(MulticurveError):
        Multicurve(G, [()])
    with pytest.raises(MulticurveError):
        Multicurve(G, [(1,)])          # peripheral
    with pytest.raises(MulticurveError):
        Multicurve(G, [(1, 2, 3)])     # (abc) is the class of d^-1
    with pytest.raises(MulticurveError):
        Multicurve(G, [(1, 2), (-2, -1)])  # repeated as unoriented curves
    Multicurve(G, [(1, 2)])


def test_classify_lifts_fixture():
    M, C, _ = fixture()
    report = classify_lifts(M, C, C)
    tags_s = sorted(t for _, t in report[0][1])
    assert tags_s.count(("curve", 0)) == 1
    assert tags_s.count(("trivial",)) == 5
    tags_t = [t for _, t in report[1][1]]
    assert tags_t.count(("curve", 0)) == 2
    assert tags_t.count(("curve", 1)) == 3
    assert tags_t.count(("trivial",)) == 1


def test_classify_lifts_empty():
    M, _, _ = fixture()
    assert classify_lifts(M, Multicurve(M.source, []), None) == []


def test_thurston_matrix_fixture():
    M, C, _ = fixture()
    T = thurston_matrix(M, C)
    assert T.entries == [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(3)]]
    # column consistency: total lift degree equals the machine degree
    assert [multiset_of_lifts(M, c.rep).total_degree() for c in C] == [6, 6]


def test_thurston_matrix_keeps_the_lifts_outside_the_multicurve():
    M, C, _ = fixture()
    assert thurston_matrix(M, C).outside == []
    G = M.source
    T = thurston_matrix(M, Multicurve(G, [(2, 3, 4, 5)]))
    assert T.entries == [[Fraction(3)]]
    assert T.outside == [(0, ConjClass(G, (3, 4)), 1),
                         (0, ConjClass(G, (-4, -3)), 1)]


def test_thurston_matrix_needs_a_dynamical_machine():
    M = zoo.z5_marked().machine
    other = SphereMachine(M.source, SphereGroup(["p", "q", "r", "s"]), M.rows)
    with pytest.raises(MulticurveError, match="dynamical machine"):
        thurston_matrix(other, Multicurve(M.source, [(1, 2)]))


def test_thurston_matrix_no_essential_lifts():
    # z^2 machine with the curve around both punctures of one preimage:
    # a 2-puncture group has no essential curves, so build a 4-puncture one
    G = SphereGroup(["a", "b", "c", "d"])
    rows = [
        WreathElement(((1,), ()), (1, 0)),
        WreathElement(((), (2,)), perms.identity(2)),
        WreathElement(((3,), ()), perms.identity(2)),
        WreathElement(((), G.normal_form([4])), (1, 0)),
    ]
    M = SphereMachine(G, G, rows)
    C = Multicurve(G, [(1, 2)])
    T = thurston_matrix(M, C)
    total = sum(x for row in T.entries for x in row)
    assert total == 0 or total > 0  # matrix computes without error
    assert (len(T.rows), len(T.cols)) == (1, 1)


def test_integral_matrix_when_all_lifts_degree_one():
    M, C, _ = fixture()
    T = thurston_matrix(M, C)
    assert T.is_integral()
    assert T.as_int_matrix() == [[1, 2], [0, 3]]


def test_fractional_entry_from_a_degree_five_lift():
    # the marked z^5 machine lifts the curve a*b to itself with degree 5
    M = zoo.z5_marked().machine
    C = Multicurve(M.source, [(1, 2)])
    T = thurston_matrix(M, C)
    assert T.entries == [[Fraction(1, 5)]]
    assert not T.is_integral()
    assert not is_obstructed(T).obstructed


def test_charpoly_and_sturm():
    A = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(3)]]
    p = charpoly(A)
    assert p == [Fraction(1), Fraction(-4), Fraction(3)]  # (x-1)(x-3)
    assert count_real_roots(p, Fraction(0), Fraction(4)) == 2
    assert count_real_roots(p, Fraction(2), Fraction(4)) == 1


def test_obstruction_decisions():
    fixture_T = ThurstonMatrix(["s", "t"], ["s", "t"],
                               [[Fraction(1), Fraction(2)],
                                [Fraction(0), Fraction(3)]])
    rep = is_obstructed(fixture_T)
    assert rep.obstructed
    assert abs(rep.perron_low - 3) < 1e-6 and abs(rep.perron_high - 3) < 1e-6
    assert not is_obstructed(ThurstonMatrix(["c"], ["c"], [[Fraction(0)]])).obstructed
    assert not is_obstructed(ThurstonMatrix(["c"], ["c"], [[Fraction(1, 2)]])).obstructed


@pytest.mark.parametrize("entries", [
    [[0]],
    [[0, 1], [0, 0]],
    [[0, 2, 1], [0, 0, 3], [0, 0, 0]],
])
def test_nilpotent_matrix_reports_perron_root_zero(entries):
    names = list("abc"[:len(entries)])
    rep = is_obstructed(ThurstonMatrix(
        names, names, [[Fraction(v) for v in row] for row in entries]))
    assert not rep.obstructed
    assert rep.perron_low == rep.perron_high == 0


def test_obstruction_agrees_with_exact_eigenvalues_on_2x2():
    import math
    rng = random.Random(0)
    for _ in range(200):
        a, b, c, d = (rng.randint(0, 4) for _ in range(4))
        T = ThurstonMatrix(["x", "y"], ["x", "y"],
                           [[Fraction(a), Fraction(b)],
                            [Fraction(c), Fraction(d)]])
        disc = (a - d) ** 2 + 4 * b * c
        radius = (a + d + math.sqrt(disc)) / 2
        rep = is_obstructed(T)
        assert rep.obstructed == (radius >= 1 - 1e-12), (a, b, c, d)
        assert rep.perron_low - 1e-6 <= radius <= rep.perron_high + 1e-6


def test_obstruction_agrees_with_sympy_root_isolation():
    import sympy

    x = sympy.Symbol("x")
    rng = random.Random(17)
    cases = [[[0]], [[0, 1], [0, 0]], [[1]], [[0, 1], [1, 0]], [[1, 1], [0, 1]],
             # charpoly x^2 (x - 2): 0 is a double root
             [[0, 1, 0], [0, 0, 0], [0, 0, 2]]]
    for _ in range(120):
        n = rng.randint(1, 6)
        density = rng.random()
        cases.append([[Fraction(rng.randint(1, 5), rng.randint(1, 4))
                       if rng.random() < density else 0
                       for _ in range(n)] for _ in range(n)])
    for A in cases:
        A = [[Fraction(v) for v in row] for row in A]
        n = len(A)
        rep = is_obstructed(ThurstonMatrix(list("abcdef"[:n]),
                                           list("abcdef"[:n]), A))
        P = sympy.Poly(sympy.Matrix(
            [[sympy.Rational(v.numerator, v.denominator) for v in row]
             for row in A]).charpoly(x).as_expr(), x, domain="QQ")
        # the largest real root is the Perron root of a nonnegative matrix
        (lo, hi), _ = P.intervals()[-1]
        while lo < 1 <= hi and P.eval(1) != 0:
            lo, hi = P.refine_root(lo, hi, eps=(hi - lo) / 4)
        assert rep.obstructed == (lo >= 1 or P.eval(1) == 0), A
        lo, hi = P.refine_root(lo, hi, eps=sympy.Rational(1, 10**15))
        tol = 1e-12 * max(1.0, float(hi))
        assert rep.perron_low - tol <= float(hi), A
        assert float(lo) <= rep.perron_high + tol, A
        assert rep.perron_high - rep.perron_low <= 1e-9


# ---------------------------------------------------------------------------
# the rational obstruction test that the integer one replaced, kept as an
# oracle: every report must agree with it exactly, floats included

def _oracle_charpoly(A):
    n = len(A)
    coeffs = [Fraction(1)]
    Mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            Mk[i][i] += coeffs[-1]
        AM = [[sum(A[i][l] * Mk[l][j] for l in range(n)) for j in range(n)]
              for i in range(n)]
        coeffs.append(-Fraction(sum(AM[i][i] for i in range(n)), k))
        Mk = AM
    return coeffs


def _oracle_eval(p, x):
    out = Fraction(0)
    for c in p:
        out = out * x + c
    return out


def _oracle_sturm_chain(p):
    def rem(a, b):
        a = a[:]
        while len(a) >= len(b) and any(a):
            if a[0] == 0:
                a.pop(0)
                continue
            q = a[0] / b[0]
            for i in range(len(b)):
                a[i] -= q * b[i]
            a.pop(0)
        while a and a[0] == 0:
            a.pop(0)
        return a

    n = len(p) - 1
    chain = [p, [c * (n - i) for i, c in enumerate(p[:-1])]]
    while chain[-1]:
        nxt = [-c for c in rem(chain[-2], chain[-1])]
        if not nxt:
            break
        chain.append(nxt)
    return [c for c in chain if c]


def _oracle_sign_changes(chain, x):
    signs = [v > 0 for v in (_oracle_eval(p, x) for p in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _oracle_report(A):
    """(obstructed, perron_low, perron_high, charpoly) by bisection on
    Fraction Sturm counts."""
    p = _oracle_charpoly(A)
    bound = max((sum(row) for row in A), default=Fraction(0)) + 1
    chain = _oracle_sturm_chain(list(p))
    v_bound = _oracle_sign_changes(chain, bound)

    def at_least(x):
        return _oracle_sign_changes(chain, x) > v_bound or _oracle_eval(p, x) == 0

    lo, hi = Fraction(0), bound
    if not any(p[1:]):
        hi = lo
    else:
        while hi - lo > Fraction(1, 10**9):
            mid = (lo + hi) / 2
            if at_least(mid):
                lo = mid
            else:
                hi = mid
    return at_least(Fraction(1)), float(lo), float(hi), p


def _report(entries):
    names = [str(i) for i in range(len(entries))]
    rep = is_obstructed(ThurstonMatrix(names, names, entries))
    assert type(rep.perron_low) is float and type(rep.perron_high) is float
    assert all(type(c) is Fraction for c in rep.charpoly)
    return rep.obstructed, rep.perron_low, rep.perron_high, rep.charpoly


def _hex(report):
    obstructed, lo, hi, p = report
    return obstructed, lo.hex(), hi.hex(), p


def _seeded_matrices(seed):
    rng = random.Random(seed)
    for n in range(1, 9):
        for den in (1, 12, 10**6):
            density = rng.uniform(0.3, 1)
            yield [[Fraction(rng.randint(1, 9), rng.randint(1, den))
                    if rng.random() < density else Fraction(0)
                    for _ in range(n)] for _ in range(n)]


_EDGE_CASES = [
    [[2, 1], [0, 2]],                    # the Perron root 2 is a double root
    [[1, 2], [0, 3]],                    # exact rational roots 1 and 3
    [[0]], [[0, 1], [0, 0]], [[0, 2, 1], [0, 0, 3], [0, 0, 0]],  # nilpotent
    [[1]], [[0, 1], [1, 0]], [[1, 1], [0, 1]], [[0, 1, 0], [0, 0, 0], [0, 0, 2]],
    [[3, 1, 0], [2, 0, 5], [1, 1, 1]],
    [],
]


@pytest.mark.parametrize("entries", _EDGE_CASES)
def test_is_obstructed_matches_the_rational_oracle_on_int_entries(entries):
    want = _oracle_report([[Fraction(v) for v in row] for row in entries])
    assert _hex(_report(entries)) == _hex(want)
    assert _hex(_report([[Fraction(v) for v in row] for row in entries])) \
        == _hex(want)


def test_is_obstructed_matches_the_rational_oracle_on_seeded_matrices():
    for entries in _seeded_matrices(12):
        assert _hex(_report(entries)) == _hex(_oracle_report(entries)), entries


def _bisection_steps(entries):
    """The steps of the bisection from [0, bound] down to 1e-9."""
    bound = max(map(sum, entries)) + 1
    steps = 0
    while bound * 10 ** 9 > 2 ** steps:
        steps += 1
    return steps


def test_perron_bisection_counts_until_one_root_is_left(monkeypatch):
    calls = []
    sign_changes = multicurve._sign_changes
    monkeypatch.setattr(multicurve, "_sign_changes", lambda chain, a, b:
                        calls.append(a) or sign_changes(chain, a, b))
    entries = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(3)]]
    _report(entries)
    # the bound, the test at 1 and the first midpoint, 2, above which 3 is
    # the only root; the other 31 steps read the square-free part
    assert len(calls) <= 3 < _bisection_steps(entries)
    for entries in _seeded_matrices(12):
        if len(entries) == 8:
            calls.clear()
            _report(entries)
            assert len(calls) < _bisection_steps(entries), entries


@st.composite
def _nonnegative_matrices(draw):
    """Nonnegative rational matrices up to 5 x 5: as drawn; block-diagonal
    copies diag(A, A), whose Perron root repeats, so that the
    characteristic polynomial is not square-free; and upper triangular
    ones with dyadic diagonal entries, whose roots a bisection midpoint
    can hit exactly."""
    kind = draw(st.sampled_from(["plain", "block", "dyadic"]))
    n = draw(st.integers(1, 2 if kind == "block" else 5))
    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(1, 9), st.integers(1, 12)))
    A = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if kind == "block":
        zeros = [Fraction(0)] * n
        A = [row + zeros for row in A] + [zeros + row for row in A]
    elif kind == "dyadic":
        for i in range(n):
            A[i][:i + 1] = [Fraction(0)] * i + [
                Fraction(draw(st.integers(0, 16)), 2 ** draw(st.integers(0, 3)))]
    return A


def _below_one_by_a_positive_solution(A):
    """Whether rho(A) < 1, for a nonnegative A, without Sturm: exactly when
    (I - A) v = 1 has a solution with every v_i > 0 (Berman and
    Plemmons, Nonnegative Matrices in the Mathematical Sciences, ch. 6).
    Gauss-Jordan elimination in Fractions; a singular I - A has the
    eigenvalue 1, so rho(A) >= 1."""
    n = len(A)
    rows = [[int(i == j) - Fraction(A[i][j]) for j in range(n)] + [Fraction(1)]
            for i in range(n)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return False
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return all(rows[i][n] / rows[i][i] > 0 for i in range(n))


@settings(max_examples=150, deadline=None)
@given(_nonnegative_matrices())
def test_is_obstructed_matches_both_oracles_on_random_matrices(entries):
    report = _report(entries)
    assert _hex(report) == _hex(_oracle_report(entries))
    assert report[0] == (not _below_one_by_a_positive_solution(entries))


@pytest.mark.parametrize("entries", _EDGE_CASES + [
    [[Fraction(1, 2), 0], [0, Fraction(1, 2)]],    # rho 1/2, repeated
    [[0, Fraction(1, 2)], [2, 0]],                 # rho exactly 1
    [[0, Fraction(1, 2)], [Fraction(199, 100), 0]],  # rho just below 1
])
def test_obstruction_matches_the_positive_solution_oracle(entries):
    # [[1]], [[0, 1], [1, 0]] and [[1, 1], [0, 1]] have rho exactly 1
    assert _report(entries)[0] == (not _below_one_by_a_positive_solution(entries))


def test_obstruction_matches_the_positive_solution_oracle_on_seeded_matrices():
    for entries in _seeded_matrices(12):
        assert _report(entries)[0] \
            == (not _below_one_by_a_positive_solution(entries)), entries


def test_charpoly_matches_sympy():
    import sympy

    x = sympy.Symbol("x")
    rng = random.Random(5)
    for n in range(1, 9):
        for den in (1, 10**6):
            A = [[Fraction(rng.randint(0, 9), rng.randint(1, den))
                  for _ in range(n)] for _ in range(n)]
            want = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                                  for v in row] for row in A]).charpoly(x)
            want = [Fraction(int(c.p), int(c.q)) for c in want.all_coeffs()]
            assert charpoly(A) == want
            if den == 1:
                assert charpoly([[int(v) for v in row] for row in A]) == want
    assert charpoly([]) == [1]


def test_count_real_roots_matches_the_rational_oracle():
    rng = random.Random(3)
    for _ in range(200):
        # a product of (q x - r) with repeated and rational roots, times a
        # factor without real roots now and then
        roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 5))]
        roots += rng.sample(roots, rng.randint(0, len(roots) - 1))
        p = [Fraction(rng.choice([-3, -1, 1, 2]))]
        for r in roots:
            p = [a - r * b for a, b in zip(p + [0], [0] + p)]
        if rng.random() < 0.3:
            p = [a + b for a, b in zip(p + [0, 0], [0, 0] + p)]  # times x^2 + 1
        chain = _oracle_sturm_chain(p)
        ends = sorted(rng.sample(roots, 2) if len(roots) > 1 and rng.random() < 0.5
                      else [Fraction(rng.randint(-15, 15), rng.randint(1, 4))
                            for _ in range(2)])
        want = _oracle_sign_changes(chain, ends[0]) - _oracle_sign_changes(chain, ends[1])
        assert count_real_roots(p, *ends) == want
        if not set(ends) & set(roots):   # Sturm's theorem proper
            assert want == len({r for r in roots if ends[0] < r <= ends[1]})
        if all(c.denominator == 1 for c in p):
            assert count_real_roots([int(c) for c in p], *ends) == want


def test_twist_lift_check_fixture():
    M, C, autos = fixture()
    mcb = compute_mcbiset(M, [("sigma", autos["sigma"]), ("tau", autos["tau"])])
    assert mcb.size == 1
    T = thurston_matrix(M, C)
    assert twist_lift_check(mcb, T, ["sigma", "tau"]) == []
    # negative control: a wrong matrix is reported
    bad = ThurstonMatrix(T.rows, T.cols,
                         [[Fraction(1), Fraction(2)], [Fraction(1), Fraction(3)]])
    assert twist_lift_check(mcb, bad, ["sigma", "tau"])


def test_twist_lift_check_sees_what_fingerprints_miss():
    # a commutator of two twists about crossing curves has the fingerprint
    # of the identity but is not inner: a base knitting spoiled by it
    # passes the fingerprint comparison and fails the exact check
    M, C, autos = fixture()
    mcb = compute_mcbiset(M, [("sigma", autos["sigma"]), ("tau", autos["tau"])])
    T = thurston_matrix(M, C)
    G = M.target
    a, b = dehn_twist(1, 2, G), dehn_twist(2, 3, G)
    comm = a.compose(b).compose(a.inverse()).compose(b.inverse())
    assert not outer_equal(comm, Automorphism.identity(G))
    edge = mcb.table[("sigma", mcb.base)]
    spoiled = edge.knitting_auto.compose(comm)
    assert twist_fingerprint(spoiled) == twist_fingerprint(edge.knitting_auto)
    edge.knitting_auto = spoiled
    assert twist_lift_check(mcb, T, ["sigma", "tau"]) == [
        "sigma: knitting does not match the twist vector "
        f"{[int(T.entries[r][0]) for r in range(len(T.rows))]}"]


def test_twist_lift_check_needs_the_automorphisms():
    M, C, autos = fixture()
    T = thurston_matrix(M, C)
    identity = ThurstonMatrix(T.rows, T.cols,
                              [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
    # the rabbit's biset holds twist-word knittings and no automorphisms
    with pytest.raises(MulticurveError, match="^twist s has no automorphism$"):
        twist_lift_check(zoo.rabbit_mcb(), identity, ["s", "t"])
    mcb = compute_mcbiset(M, [("sigma", autos["sigma"]), ("tau", autos["tau"])])
    # a half-twist swaps the classes of x1 and x2; its long name is elided
    G = M.target
    name = "z" * 100000
    mcb.gens[name] = Automorphism(
        G, [(2,), (-2, 1, 2)] + [G.gen(i) for i in range(3, G.n + 1)])
    with pytest.raises(MulticurveError) as exc:
        twist_lift_check(mcb, T, [name, "tau"])
    assert str(exc.value) == (f"{'z' * 24}...{'z' * 24} (100000 characters) "
                              "is not peripheral-preserving")
    mcb.table[("tau", mcb.base)].knitting_auto = None
    with pytest.raises(MulticurveError,
                       match=r"^edge \(tau, b0\) has no knitting automorphism$"):
        twist_lift_check(mcb, T, ["sigma", "tau"])


def test_twist_lift_check_reports_a_twist_that_moves_the_base():
    M = zoo.z5_marked().machine
    mcb = compute_mcbiset(M, full_twist_generators(M.target))
    assert mcb.table[("t1_2", mcb.base)].target != mcb.base
    T = ThurstonMatrix(["a*b"], ["a*b"], [[Fraction(1)]])
    assert twist_lift_check(mcb, T, ["t1_2"]) == [
        "t1_2: base element not fixed"]


def test_twist_lift_check_elides_long_names_in_its_problems():
    name = "z" * 5000
    elided = f"{'z' * 24}...{'z' * 24} (5000 characters)"
    M = zoo.z5_marked().machine
    mcb = compute_mcbiset(M, [(name if n == "t1_2" else n, g)
                              for n, g in full_twist_generators(M.target)])
    T = ThurstonMatrix(["a*b"], ["a*b"], [[Fraction(1)]])
    assert twist_lift_check(mcb, T, [name]) == [
        f"{elided}: base element not fixed"]
    M, C, autos = fixture()
    mcb = compute_mcbiset(M, [(name, autos["sigma"]), ("tau", autos["tau"])])
    T = thurston_matrix(M, C)
    bad = ThurstonMatrix(T.rows, T.cols,
                         [[Fraction(1), Fraction(2)], [Fraction(1), Fraction(3)]])
    assert twist_lift_check(mcb, bad, [name, "tau"]) == [
        f"{elided}: knitting does not match the twist vector [1, 1]"]


def test_twist_lift_check_identity_machine():
    G = SphereGroup(["a", "b", "c", "d", "e"])
    M = SphereMachine.identity(G)
    C = Multicurve(G, [(1, 2), (4, 5)])
    tw1, tw2 = dehn_twist(1, 2, G), dehn_twist(4, 5, G)
    mcb = compute_mcbiset(M, [("t1", tw1), ("t2", tw2)])
    T = thurston_matrix(M, C)
    assert T.as_int_matrix() == [[1, 0], [0, 1]]
    assert twist_lift_check(mcb, T, ["t1", "t2"]) == []


def test_solver_fixture():
    M, C, _ = fixture()
    T = thurston_matrix(M, C)
    prob = TwistFixedPointProblem(
        T, [LinExpr.var("a").scale(2), LinExpr.var("b").scale(2)])
    sol = solve_twist_fixed_point(prob)
    assert sol.free_rank == 1
    assert [str(c) for c in sol.constraints] == ["a - b"]
    assert not sol.congruences
    values = {"a": 5, "b": 5}
    values.update({p: 7 for p in sol.free_params})
    assert verify_fixed_point(sol, prob, values)
    vt = sol.solution[1].evaluate(values)
    assert vt == -5  # theta_{2,s} = theta_{2,t} = -v_t
    bad = {"a": 5, "b": 4}
    bad.update({p: 7 for p in sol.free_params})
    assert not verify_fixed_point(sol, prob, bad)


def test_verify_fixed_point_rejects_a_wrong_solution_entry():
    # the values satisfy the constraints, so only the check of
    # v = theta + T v can reject a solution whose pinned entry v_t is off
    # by one (entry 0 is the free parameter, any shift of it still solves)
    M, C, _ = fixture()
    prob = TwistFixedPointProblem(
        thurston_matrix(M, C),
        [LinExpr.var("a").scale(2), LinExpr.var("b").scale(2)])
    sol = solve_twist_fixed_point(prob)
    values = {"a": 5, "b": 5}
    values.update({p: 7 for p in sol.free_params})
    assert all(c.evaluate(values) == 0 for c in sol.constraints)
    assert verify_fixed_point(sol, prob, values)
    assert [str(e) for e in sol.solution] == [sol.free_params[0], "-a"]
    wrong = [sol.solution[0], sol.solution[1] + LinExpr.of(1)]
    assert not verify_fixed_point(
        dataclasses.replace(sol, solution=wrong), prob, values)


def _content_by_loops(e):
    """LinExpr.content as two hand loops: the lcm of the denominators,
    then the gcd of the cleared numerators."""
    items = [v for _, v in e.coeffs] + ([e.const] if e.const else [])
    denom = 1
    for v in items:
        denom = denom * v.denominator // math.gcd(denom, v.denominator)
    g = 0
    for v in items:
        g = math.gcd(g, abs(int(v * denom)))
    return Fraction(g or 1, denom)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.fractions(max_denominator=10 ** 6).filter(bool), max_size=5),
       st.fractions(max_denominator=10 ** 6))
def test_content_matches_the_hand_loops(coeffs, const):
    e = LinExpr(tuple((f"x{i}", v) for i, v in enumerate(coeffs)), const)
    assert e.content() == _content_by_loops(e)
    if not e.is_zero():
        n = e.normalized()
        assert all(v.denominator == 1 for _, v in n.coeffs)
        assert e == n.scale(e.content()) or e == n.scale(-e.content())


def test_solver_congruence_modulus_drops_the_content():
    # (I - T) v = theta reads -8 v2 = 2a and -8 v2 = 2b: 2a = 0 mod 8,
    # so a = 0 mod 4 (a = b = 4 gives v2 = -1), not a = 0 mod 8
    T = ThurstonMatrix(["x", "y"], ["x", "y"],
                       [[Fraction(1), Fraction(8)], [Fraction(0), Fraction(9)]])
    prob = TwistFixedPointProblem(
        T, [LinExpr.var("a").scale(2), LinExpr.var("b").scale(2)])
    sol = solve_twist_fixed_point(prob)
    assert [(str(c), m) for c, m in sol.congruences] == [("a", 4)]
    assert [str(c) for c in sol.constraints] == ["a - b"]
    values = {"a": 4, "b": 4}
    values.update({p: 0 for p in sol.free_params})
    assert verify_fixed_point(sol, prob, values)
    assert sol.solution[1].evaluate(values) == -1


def test_verify_fixed_point_requires_the_congruences_and_integer_entries():
    # with T and theta as above, a = b = 2 meets the constraint a - b but
    # not a = 0 mod 4, and gives v2 = -1/2; a = b = 4 with the free
    # parameter 1/2 meets both, but v1 is 1/2: neither is a fixed point
    T = ThurstonMatrix(["x", "y"], ["x", "y"],
                       [[Fraction(1), Fraction(8)], [Fraction(0), Fraction(9)]])
    prob = TwistFixedPointProblem(
        T, [LinExpr.var("a").scale(2), LinExpr.var("b").scale(2)])
    sol = solve_twist_fixed_point(prob)
    [w] = sol.free_params
    assert verify_fixed_point(sol, prob, {"a": 4, "b": 4, w: 0})
    assert sol.solution[1].evaluate({"a": 2, "b": 2, w: 0}) == Fraction(-1, 2)
    assert not verify_fixed_point(sol, prob, {"a": 2, "b": 2, w: 0})
    assert not verify_fixed_point(sol, prob, {"a": 4, "b": 4, w: Fraction(1, 2)})


def test_twist_fixed_point_problem_needs_one_theta_entry_per_curve():
    # too many entries were ignored ([[1]] with (a, b) answered the
    # constraint a), too few raised IndexError
    T = ThurstonMatrix(["x"], ["x"], [[Fraction(1)]])
    for theta in ([LinExpr.var("a"), LinExpr.var("b")], []):
        with pytest.raises(MulticurveError,
                           match="^need one theta entry per curve$"):
            TwistFixedPointProblem(T, theta)


def test_contradictions_are_the_entries_with_no_unknown():
    T = ThurstonMatrix(["x", "y"], ["x", "y"],
                       [[Fraction(1), Fraction(8)], [Fraction(0), Fraction(9)]])
    for theta, want in [
            ((LinExpr.var("a").scale(2), LinExpr.var("b").scale(2)), ([], [])),
            ((LinExpr.of(1), LinExpr.of(2)), (["1"], [("1", 8)])),
            ((LinExpr.var("a"), LinExpr.var("a") + LinExpr.of(1)), (["1"], []))]:
        sol = solve_twist_fixed_point(TwistFixedPointProblem(T, list(theta)))
        constraints, congruences = sol.contradictions()
        assert ([str(c) for c in constraints],
                [(str(c), m) for c, m in congruences]) == want


def test_solver_trivial_and_invertible():
    T0 = ThurstonMatrix(["x"], ["x"], [[Fraction(0)]])
    sol = solve_twist_fixed_point(TwistFixedPointProblem(T0, [LinExpr()]))
    assert sol.free_rank == 0 and not sol.constraints
    assert sol.solution[0].evaluate({}) == 0
    T2 = ThurstonMatrix(["x"], ["x"], [[Fraction(2)]])
    prob = TwistFixedPointProblem(T2, [LinExpr.var("c")])
    sol2 = solve_twist_fixed_point(prob)
    assert sol2.free_rank == 0 and not sol2.constraints
    assert verify_fixed_point(sol2, prob, {"c": 4})
    assert sol2.solution[0].evaluate({"c": 4}) == -4


def test_solver_substitution_property_random():
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randint(1, 3)
        T = ThurstonMatrix([f"c{i}" for i in range(n)],
                           [f"c{i}" for i in range(n)],
                           [[Fraction(rng.randint(0, 3)) for _ in range(n)]
                            for _ in range(n)])
        theta = [LinExpr.var(f"x{i}") for i in range(n)]
        sol = solve_twist_fixed_point(TwistFixedPointProblem(T, theta))
        # pick unknowns satisfying the constraints: solve by trying zeros
        values = {f"x{i}": 0 for i in range(n)}
        values.update({p: rng.randint(-3, 3) for p in sol.free_params})
        if all(c.evaluate(values) == 0 for c in sol.constraints) \
                and not sol.congruences:
            assert verify_fixed_point(
                sol, TwistFixedPointProblem(T, theta), values)


def test_solver_rejects_theta_unknowns_named_like_free_parameters():
    M, C, _ = fixture()
    T = thurston_matrix(M, C)
    sol = solve_twist_fixed_point(TwistFixedPointProblem(
        T, [LinExpr.var("a"), LinExpr.var("b")]))
    assert sol.free_params == ["_w2"]
    with pytest.raises(MulticurveError, match="_w2"):
        solve_twist_fixed_point(TwistFixedPointProblem(
            T, [LinExpr.var("_w2"), LinExpr.var("b")]))
    # a name no parameter carries is an ordinary unknown
    sol = solve_twist_fixed_point(TwistFixedPointProblem(
        T, [LinExpr.var("_w1"), LinExpr.var("b")]))
    assert sol.free_params == ["_w2"]


def test_mc_to_gog_standard_position():
    G = SphereGroup(["g1", "g2", "g3", "g4"])
    tree = mc_to_gog(G, Multicurve(G, [(1, 2)]), bound=2)
    assert len(tree.spheres) == 2
    names = sorted(tuple(v.group.names) for v in tree.spheres)
    assert names == [("e1", "g3", "g4"), ("g1", "g2", "e1")]
    for v in tree.spheres:
        prod = ()
        for w in v.embeds:
            prod = wmul(prod, w)
        assert G.normal_form(prod) == ()


def test_mc_to_gog_non_adjacent_pair_splits():
    # the pair {1,3} is standard-split on the sphere: g1*g3 extends to the
    # sphere tuple (g1, g3, g2^g3, g4), whose ordered product is the relator
    G = SphereGroup(["g1", "g2", "g3", "g4"])
    w = wmul((1,), (3,))
    certificate = [
        (1,), (3,), conjugate((2,), (3,)), G.gen(4)]
    prod = ()
    for x in certificate:
        prod = wmul(prod, x)
    assert G.normal_form(prod) == ()
    tree = mc_to_gog(G, Multicurve(G, [w]), bound=4)
    assert len(tree.spheres) == 2


def test_mc_to_gog_bound_exhaustion_is_inconclusive():
    G = SphereGroup(["g1", "g2", "g3", "g4"])
    # the homology of g1 * g2 g3 g2^-1 splits {1,3}|{2,4}, but no generating
    # realization exists within the budget; exhaustion is reported, not a
    # non-curve verdict
    wound = wmul((1,), conjugate((3,), (2,)))
    with pytest.raises(SplitFailed) as exc:
        mc_to_gog(G, Multicurve(G, [wound]), bound=4)
    assert exc.value.kind == "bound-exhausted"
    # the opposite winding is a genuine curve that needs a conjugator
    mild = wmul((1,), conjugate((3,), (-2,)))
    with pytest.raises(SplitFailed):
        mc_to_gog(G, Multicurve(G, [mild]), bound=0)
    tree = mc_to_gog(G, Multicurve(G, [mild]), bound=2)
    assert len(tree.spheres) == 2


def test_mc_to_gog_centralizer_fixture():
    M, C, _ = fixture()
    G = M.source
    tree = mc_to_gog(G, C, bound=4)
    assert len(tree.spheres) == 3
    tagsets = sorted(
        sorted(t[1] for t in v.tags if t[0] == "puncture")
        for v in tree.spheres)
    assert tagsets == [[1, 6, 7], [2, 5], [3, 4]]
    # reassembly: vertex relators embed to the identity, curve words to the
    # input curve classes
    for v in tree.spheres:
        prod = ()
        for i in v.group.relator:
            prod = wmul(prod, v.embeds[i - 1])
        assert G.normal_form(prod) == ()
    for c, curve in zip(tree.curves, C):
        assert ConjClass(M.source, c.element, sign_insensitive=True) == curve


def test_mc_to_gog_rejects_crossing_curves():
    G = SphereGroup(["g1", "g2", "g3", "g4", "g5"])
    with pytest.raises(SplitFailed) as exc:
        mc_to_gog(G, Multicurve(G, [(1, 2), (2, 3)]), bound=3)
    assert exc.value.kind in ("not-disjoint", "abelianization-inconsistent")


def test_promote_identity():
    M, C, _ = fixture()
    tree = mc_to_gog(M.source, C, bound=4)
    h = {("puncture", i): ("puncture", i) for i in range(1, 8)}
    h.update({("curve", 0): ("curve", 0), ("curve", 1): ("curve", 1)})
    got = promote_bijection(tree, tree, h)
    assert got.vertex_map == {0: 0, 1: 1, 2: 2}
    for i, phi in got.vertex_isos.items():
        v = tree.spheres[i]
        assert [phi.images[k] for k in range(v.group.n)] == \
            [v.group.gen(k + 1) for k in range(v.group.n)]


def test_promote_rejects_keys_and_images_that_name_no_tag():
    M, C, _ = fixture()
    tree = mc_to_gog(M.source, C, bound=4)
    h = {("puncture", i): ("puncture", i) for i in range(1, 8)}
    h.update({("curve", 0): ("curve", 0), ("curve", 1): ("curve", 1)})
    with pytest.raises(MulticurveError, match=r"^the bijection names curve 7, "
                       r"which is no class of the first tree$"):
        promote_bijection(tree, tree, {**h, ("curve", 7): ("curve", 0)})
    with pytest.raises(MulticurveError, match=r"^the bijection names "
                       r"puncture 8, which is no class of the second tree$"):
        promote_bijection(tree, tree, {**h, ("puncture", 1): ("puncture", 8)})


def test_promote_fails_on_different_edge_sets():
    G = SphereGroup(["g1", "g2", "g3", "g4"])
    one = mc_to_gog(G, Multicurve(G, [(1, 2)]), bound=2)
    none = mc_to_gog(G, Multicurve(G, []), bound=2)
    h = {("puncture", i): ("puncture", i) for i in range(1, 5)}
    h[("curve", 0)] = ("puncture", 1)
    with pytest.raises(PromoteFailed) as exc:
        promote_bijection(one, none, h)
    assert exc.value.step == 1


def test_promote_relabeling_round_trip():
    # same 3-vertex tree with punctures renamed consistently
    M, C, _ = fixture()
    G = M.source
    tree = mc_to_gog(G, C, bound=4)
    # swap the two interchangeable punctures x3 <-> x4 and x6 <-> x7
    h = {("puncture", i): ("puncture", i) for i in (1, 2, 5)}
    h[("puncture", 3)] = ("puncture", 4)
    h[("puncture", 4)] = ("puncture", 3)
    h[("puncture", 6)] = ("puncture", 7)
    h[("puncture", 7)] = ("puncture", 6)
    h[("curve", 0)] = ("curve", 0)
    h[("curve", 1)] = ("curve", 1)
    got = promote_bijection(tree, tree, h)
    # every vertex iso maps each class to the h-image class
    for i, phi in got.vertex_isos.items():
        v = tree.spheres[i]
        w = tree.spheres[got.vertex_map[i]]

        def key(tag):
            return ("curve", tag[1]) if tag[0] == "curve" else tag

        for pi, tag in enumerate(v.tags):
            img = phi.images[pi]
            want = h[key(tag)]
            matches = [pj for pj, t2 in enumerate(w.tags) if key(t2) == want]
            assert len(matches) == 1
            assert is_conjugate(w.group.gen(matches[0] + 1), img) is not None


def test_classify_lifts_peripheral_and_other_tags():
    # the curve x3*x4*x5 of centralizer7 lifts to the class of x3*x4, which
    # is no puncture, to that of x5 and to the trivial class; an upstairs
    # curve of the x3*x4 class takes precedence
    M, C, _ = fixture()
    G = M.source
    curve = Multicurve(G, [(3, 4, 5)])
    for upstairs in (None, curve):
        [(_, tags)] = classify_lifts(M, curve, upstairs)
        assert tags == [(2, ("other", ConjClass(G, (3, 4)))),
                        (2, ("peripheral", 5)), (2, ("trivial",))]
    [(_, tags)] = classify_lifts(M, curve, C)
    assert tags == [(2, ("curve", 0)), (2, ("peripheral", 5)), (2, ("trivial",))]


def _reference_classify_lifts(M, downstairs, upstairs):
    """classify_lifts with the unoriented class of every lift built first,
    the trivial tag second: the order before trivial lifts skipped it."""
    curve_index = {delta.canonical: j for j, delta in enumerate(upstairs or ())}
    report = []
    for curve in downstairs:
        w = M.evaluate(curve.rep)
        tags = []
        for cycle in perms.cycles(w.perm):
            cls = ConjClass(M.target, wmul(*(w.entries[p] for p in cycle)))
            unoriented = ConjClass(M.target, cls.rep, sign_insensitive=True)
            if unoriented.canonical in curve_index:
                tag = ("curve", curve_index[unoriented.canonical])
            elif cls.is_trivial():
                tag = ("trivial",)
            elif (i := unoriented.peripheral_index()) is not None:
                tag = ("peripheral", i)
            else:
                tag = ("other", cls)
            tags.append((len(cycle), tag))
        report.append((curve, tags))
    return report


def test_classify_lifts_matches_the_reference_on_the_tower():
    # centralizer7 and its tensor square and cube, each also under a
    # seeded basis change, with the curves of the file and x3*x4*x5,
    # whose lifts are also peripheral and other
    _, C, _ = fixture()
    rng = random.Random(31)
    kinds = set()
    for B in zoo.centralizer7_tower():
        G, d = B.source, B.degree
        letters = [x for i in range(1, G.n + 1) for x in (i, -i)]
        conj = tuple(G.normal_form([rng.choice(letters)
                                    for _ in range(rng.randint(0, 4))])
                     for _ in range(d))
        relabel = list(range(d))
        rng.shuffle(relabel)
        for M in (B, change_basis(B, BasisChange(conj, tuple(relabel)))):
            for downstairs in (C, Multicurve(G, [(3, 4, 5)] +
                                             [c.rep for c in C])):
                for upstairs in (None, C, downstairs):
                    got = classify_lifts(M, downstairs, upstairs)
                    assert got == _reference_classify_lifts(M, downstairs,
                                                            upstairs)
                    kinds |= {t[0] for _, tags in got for _, t in tags}
    assert kinds == {"curve", "trivial", "peripheral", "other"}


def test_z2_unoriented_class_of_b_is_puncture_1():
    # over <a,b | ab>, b = a^-1: as oriented classes a and b are punctures
    # 1 and 2, as unoriented curves one class, keyed to the least index
    M = zoo.z2().machine
    G = M.source
    assert ConjClass(G, (2,)).peripheral_index() == 2
    assert ConjClass(G, (2,), sign_insensitive=True).peripheral_index() == 1
    [(_, tags)] = classify_lifts(M, Multicurve(G, [(2, 2)]), None)
    assert tags == [(1, ("peripheral", 1)), (1, ("peripheral", 1))]


@functools.cache
def _promote_trees():
    """Sphere trees of centralizer7 and of a five-punctured sphere, so
    that maps also run between trees with different numbers of tags."""
    G = zoo.centralizer7().machine.source
    G5 = SphereGroup(["g1", "g2", "g3", "g4", "g5"])
    return [mc_to_gog(G, Multicurve(G, cs)) for cs in (
        [], [(3, 4)], [(3, 4), (2, 3, 4, 5)], [(1, 2)], [(1, 2), (3, 4)])] + \
        [mc_to_gog(G5, Multicurve(G5, cs), bound=3) for cs in ([], [(1, 2)])]


def _tag_keys(tree):
    return sorted({t[:2] for v in tree.spheres for t in v.tags})


@st.composite
def tag_maps(draw):
    trees = _promote_trees()
    t1, t2 = draw(st.sampled_from(trees)), draw(st.sampled_from(trees))
    k1, k2 = _tag_keys(t1), _tag_keys(t2)
    kind = draw(st.sampled_from(["within vertices", "bijection", "any"]))
    if kind == "within vertices":
        # a permutation of the punctures of each vertex: it promotes
        t2, h = t1, {k: k for k in k1}
        for v in t1.spheres:
            keys = [t[:2] for t in v.tags if t[0] == "puncture"]
            h.update(zip(keys, draw(st.permutations(keys))))
    elif kind == "bijection":
        h = dict(zip(k1, itertools.cycle(draw(st.permutations(k2)))))
    else:
        h = {k: draw(st.sampled_from(k2)) for k in k1}
    return t1, t2, h


@settings(max_examples=300, deadline=None)
@given(tag_maps())
def test_promote_fails_only_at_steps_1_and_2(case):
    t1, t2, h = case
    try:
        got = promote_bijection(t1, t2, h)
    except PromoteFailed as exc:
        assert exc.step in (1, 2)
        return
    slots = {}
    for i, phi in got.vertex_isos.items():
        v, w = t1.spheres[i], t2.spheres[got.vertex_map[i]]
        slots[i] = {t[:2]: pi for pi, t in enumerate(w.tags, 1)}
        for tag, img in zip(v.tags, phi.images):
            assert is_conjugate(w.group.gen(slots[i][h[tag[:2]]]), img) \
                is not None
    assert set(got.edge_elements) == {(cid, si) for cid, si, _, _ in t1.edges()}
    for cid, si, pi, _ in t1.edges():
        w = t2.spheres[got.vertex_map[si]]
        gen = w.group.gen(slots[si][h[("curve", cid)]])
        element = got.edge_elements[(cid, si)]
        assert element is not None
        assert conjugate(gen, element) == got.vertex_isos[si].images[pi - 1]


@pytest.mark.parametrize("images, detail", [
    ({3: 1, 4: 2, 1: 3, 2: 4, 5: 5, 6: 5, 7: 5}, "peripheral sets differ at S1"),
    ({3: 1, 1: 1, 5: 1, 6: 1, 7: 1, 4: 2, 2: 2}, "vertex map is not a bijection"),
])
def test_promote_step_2_failures(images, detail):
    # seven punctures split along x3*x4 onto five split along g1*g2: a map
    # that joins punctures finds an image for each vertex, but with fewer
    # tags in the first case and the same one twice in the second
    trees = _promote_trees()
    t1, t2 = trees[1], trees[6]
    h = {("puncture", i): ("puncture", j) for i, j in images.items()}
    h[("curve", 0)] = ("curve", 0)
    with pytest.raises(PromoteFailed) as exc:
        promote_bijection(t1, t2, h)
    assert str(exc.value) == f"failed at step 2: {detail}"


def test_tree_to_dot():
    # one ellipse per sphere with its tags, one box per curve, one edge
    # per attachment signed by the side of the curve
    M, C, _ = fixture()
    assert mc_to_gog(M.source, C, bound=4).to_dot() == "\n".join([
        'graph sphere_tree {',
        '  s0 [shape=ellipse, label="S0: x3,x4,c0"];',
        '  s1 [shape=ellipse, label="S1: x6,x7,x1,c1"];',
        '  s2 [shape=ellipse, label="S2: c1,x2,c0,x5"];',
        '  c0 [shape=box, label="curve x3*x4"];',
        '  c1 [shape=box, label="curve x2*x3*x4*x5"];',
        '  s0 -- c0 [label="-"];',
        '  s1 -- c1 [label="-"];',
        '  s2 -- c1 [label="+"];',
        '  s2 -- c0 [label="+"];',
        '}'])
