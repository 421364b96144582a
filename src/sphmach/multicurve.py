"""Multicurves, Thurston matrices, obstructions, and sphere-tree splittings.

All matrix arithmetic is exact rational; floating point appears only in
the reported Perron root bracket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .words import (
    Word, EPSILON, SphereGroup, ConjClass, Automorphism,
    winv, wmul, conjugate, cyclic_canonical, is_conjugate, outer_equal,
    is_peripheral_preserving,
)
from .folding import SubgroupGraph, expand_expression
from .machine import SphereMachine, multiset_of_lifts, _elided
from .mcbiset import MappingClassBiset


class MulticurveError(ValueError):
    pass


class SplitFailed(MulticurveError):
    """mc_to_gog failure; kind is 'abelianization-inconsistent',
    'bound-exhausted' or 'not-disjoint'."""

    def __init__(self, kind: str, detail: str = ""):
        self.kind = kind
        super().__init__(f"{kind}: {detail}" if detail else kind)


class PromoteFailed(MulticurveError):
    def __init__(self, step: int, detail: str = ""):
        self.step = step
        super().__init__(f"failed at step {step}" + (f": {detail}" if detail else ""))


class Multicurve:
    """Non-trivial, non-peripheral conjugacy classes up to inversion."""

    def __init__(self, group: SphereGroup, reps):
        self.group = group
        self.curves: list[ConjClass] = []
        seen = set()
        for rep in reps:
            cls = ConjClass(group, rep, sign_insensitive=True)
            if cls.is_trivial():
                raise MulticurveError("trivial curve in multicurve")
            if cls.peripheral_index() is not None:
                raise MulticurveError(
                    f"curve {group.word_str(cls.rep)} is peripheral")
            if cls.canonical in seen:
                raise MulticurveError("repeated curve in multicurve")
            seen.add(cls.canonical)
            self.curves.append(cls)

    def __len__(self):
        return len(self.curves)

    def __iter__(self):
        return iter(self.curves)

    def labels(self):
        return [self.group.word_str(c.rep) for c in self.curves]


def classify_lifts(M: SphereMachine, downstairs: Multicurve,
                   upstairs: Multicurve | None = None):
    """For each curve of the lifted multicurve, tag every lift as trivial,
    isotopic to an upstairs curve, peripheral, or other, in that order of
    precedence; the upstairs curve and the puncture are looked up by the
    lift's unoriented class, which a trivial lift does not need (a
    Multicurve holds no trivial curve)."""
    if downstairs.group != M.source:
        raise MulticurveError("multicurve lives over the wrong group")
    curve_index = {delta.canonical: j for j, delta in enumerate(upstairs or ())}
    report = []
    for curve in downstairs:
        tags = []
        for deg, cls in multiset_of_lifts(M, curve.rep).entries:
            if cls.is_trivial():
                tags.append((deg, ("trivial",)))
                continue
            unoriented = ConjClass(M.target, cls.rep, sign_insensitive=True)
            if unoriented.canonical in curve_index:
                tag = ("curve", curve_index[unoriented.canonical])
            elif (i := unoriented.peripheral_index()) is not None:
                tag = ("peripheral", i)
            else:
                tag = ("other", cls)
            tags.append((deg, tag))
        report.append((curve, tags))
    return report


@dataclass
class ThurstonMatrix:
    """Rows indexed by the upstairs curves, columns by the downstairs ones;
    entry = sum of 1/deg over lifts isotopic to the row curve.  outside
    holds the lifts tagged other by classify_lifts, as (column, lift
    class, degree): the multicurve is invariant exactly when it is
    empty."""

    rows: list[str]
    cols: list[str]
    entries: list[list[Fraction]]
    outside: list[tuple[int, ConjClass, int]] = field(default_factory=list)

    def is_square(self):
        return len(self.rows) == len(self.cols)

    def is_integral(self):
        return all(x.denominator == 1 for row in self.entries for x in row)

    def as_int_matrix(self):
        if not self.is_integral():
            raise MulticurveError("matrix is not integral")
        return [[int(x) for x in row] for row in self.entries]



def thurston_matrix(M: SphereMachine, downstairs: Multicurve) -> ThurstonMatrix:
    """The transition matrix of a multicurve of a dynamical machine, whose
    upstairs curves are the downstairs ones, with the lifts outside the
    multicurve (ThurstonMatrix.outside) when it is not invariant."""
    if M.source != M.target:
        raise MulticurveError("thurston_matrix needs a dynamical machine")
    entries = [[Fraction(0)] * len(downstairs) for _ in downstairs]
    outside = []
    for col, (curve, tags) in enumerate(classify_lifts(M, downstairs, downstairs)):
        for deg, tag in tags:
            if tag[0] == "curve":
                entries[tag[1]][col] += Fraction(1, deg)
            elif tag[0] == "other":
                outside.append((col, tag[1], deg))
    return ThurstonMatrix(downstairs.labels(), downstairs.labels(), entries,
                          outside)


# ---------------------------------------------------------------------------
# exact Perron root decision, in integers

def _integer_matrix(A):
    """(D, D*A) with D the least common denominator of the entries."""
    D = lcm(*(x.denominator for row in A for x in row))
    return D, [[x.numerator * (D // x.denominator) for x in row] for row in A]


def charpoly(A: list[list[Fraction]]) -> list[Fraction]:
    """Coefficients of det(xI - A), highest power first, for int or
    Fraction entries.

    Integer Faddeev-LeVerrier on B = D*A, D the common denominator:
    M_1 = I, c_k = -tr(B M_k)/k, M_(k+1) = B M_k + c_k I.  The c_k are the
    coefficients of det(xI - B), integers, so each division by k is
    exact; those of det(xI - A) are c_k / D^k."""
    D, B = _integer_matrix(A)
    return [Fraction(c, D ** k) for k, c in enumerate(_integer_charpoly(B))]


def _integer_charpoly(B: list[list[int]]) -> list[int]:
    """Coefficients of det(xI - B), highest power first, for an integer
    matrix B: the Faddeev-LeVerrier loop of charpoly."""
    n = len(B)
    coeffs = [1]
    Mk = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            Mk[i][i] += coeffs[-1]
        cols = list(zip(*Mk))
        Mk = [[sum(map(mul, row, col)) for col in cols] for row in B]
        coeffs.append(-sum(Mk[i][i] for i in range(n)) // k)
    return coeffs


def _primitive(p):
    """The positive multiple of p (int or Fraction coefficients) whose
    coefficients are coprime integers."""
    D = lcm(*(c.denominator for c in p))
    ints = [c.numerator * (D // c.denominator) for c in p]
    g = gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def _pseudo_rem(a, b):
    """A positive multiple of the remainder of a by b (integer
    coefficients, b's leading one nonzero)."""
    a = list(a)
    lead = b[0]
    while len(a) >= len(b):
        if a[0]:
            g = gcd(a[0], lead)
            s, t = abs(lead) // g, a[0] // g if lead > 0 else -a[0] // g
            # s*a - t*b, s > 0, loses the leading term
            a = [s * x - t * y for x, y in zip(a, b)] \
                + [s * x for x in a[len(b):]]
        a.pop(0)
    while a and not a[0]:
        a.pop(0)
    return a


def _sturm_chain(p):
    """The Sturm chain p, p', -rem, ... of p as primitive integer
    polynomials.  Each is a positive multiple of the rational chain's
    member, so both count the same sign changes everywhere."""
    p = _primitive(p)
    n = len(p) - 1
    chain = [p]
    if n > 0:
        chain.append(_primitive([c * (n - i) for i, c in enumerate(p[:-1])]))
        while (r := _pseudo_rem(chain[-2], chain[-1])):
            chain.append(_primitive([-c for c in r]))
    return chain


def _scaled_value(p, a: int, b: int) -> int:
    """b^deg(p) * p(a/b) by integer Horner; for b > 0 it has the sign of
    p(a/b)."""
    v, bk = 0, 1
    for c in p:
        v = v * a + c * bk
        bk *= b
    return v


def _sign_changes(chain, a: int, b: int) -> int:
    """Sign changes along the chain at a/b, b > 0, zeros dropped."""
    values = [v for v in (_scaled_value(p, a, b) for p in chain) if v]
    return sum((u > 0) != (v > 0) for u, v in zip(values, values[1:]))


def count_real_roots(p, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p (coefficients highest power
    first) in (lo, hi], by Sturm's theorem."""
    chain = _sturm_chain(p)
    lo, hi = Fraction(lo), Fraction(hi)
    return (_sign_changes(chain, lo.numerator, lo.denominator)
            - _sign_changes(chain, hi.numerator, hi.denominator))


@dataclass
class ObstructionReport:
    obstructed: bool
    perron_low: float
    perron_high: float
    charpoly: list[Fraction]


def is_obstructed(T: ThurstonMatrix) -> ObstructionReport:
    """Exact decision whether the spectral radius is >= 1, plus a floating
    bracket, at most 1e-9 wide, for the Perron root.

    For a nonnegative matrix the spectral radius is the largest real root
    of the characteristic polynomial (integer Faddeev-LeVerrier with exact
    division, see charpoly), so the decision is a Sturm count on
    [1, infinity).  The Sturm chain holds primitive integer polynomials,
    positive multiples of the rational chain's, and the sign of a member
    p at a/b, b > 0, is that of the integer b^deg(p) * p(a/b).  Every
    decision is exact; floats appear only in the reported bracket."""
    if not T.is_square():
        raise MulticurveError("obstruction test needs a square matrix")
    if any(x < 0 for row in T.entries for x in row):
        raise MulticurveError("matrix has negative entries")
    D, B = _integer_matrix(T.entries)
    # work in y = D*x: det(yI - B) = D^n p(y/D) has integer coefficients,
    # and its chain at y has the signs of p's chain at x = y/D
    q = _integer_charpoly(B)
    p = [Fraction(c, D ** k) for k, c in enumerate(q)]
    chain = _sturm_chain(q)
    # every real root lies below bound = (largest row sum) + 1, that is
    # y = top, so the distinct roots in (y, top] number V(y) - V(top)
    top = max(map(sum, B), default=0) + D
    v_top = _sign_changes(chain, top, 1)

    def has_root_at_least(a: int, b: int) -> bool:  # y = a/b, b > 0
        return _sign_changes(chain, a, b) > v_top \
            or _scaled_value(chain[0], a, b) == 0

    obstructed = has_root_at_least(D, 1)
    # bracket the largest real root by bisection on the Sturm count; the
    # bracket is [lo, hi] / (D * 2^j) in x
    lo, hi, j = 0, top, 0
    if not any(p[1:]):
        hi = lo  # charpoly x^n: the matrix is nilpotent, its Perron root 0
    else:
        while (hi - lo) * 10 ** 9 > D << j:
            lo, hi, j = 2 * lo, 2 * hi, j + 1
            mid = (lo + hi) // 2
            if has_root_at_least(mid, 1 << j):
                lo = mid
            else:
                hi = mid
    # int / int rounds correctly, as float(Fraction) does
    return ObstructionReport(obstructed, lo / (D << j), hi / (D << j), p)


def twist_lift_check(mcb: MappingClassBiset, T: ThurstonMatrix,
                     twist_names: list[str]) -> list[str]:
    """Check that each Dehn twist generator along the multicurve lifts, on
    the base element, to the multitwist given by its Thurston matrix
    column: the knitting must equal the product of the twists
    gens[r]^T[r][col] in Out, which outer_equal decides exactly.  Returns
    a list of mismatch descriptions (empty = pass)."""
    if not T.is_integral():
        raise MulticurveError("twist lift check needs an integral matrix")
    if len(twist_names) != len(T.cols) or len(T.rows) != len(T.cols):
        raise MulticurveError("need one twist generator per curve")
    problems = []
    gens = mcb.gens
    for name in twist_names:
        if name not in gens:
            raise MulticurveError(f"twist {_elided(name, str)} has no automorphism")
        if not is_peripheral_preserving(gens[name]):
            raise MulticurveError(f"{name} is not peripheral-preserving")
    for col, name in enumerate(twist_names):
        edge = mcb.table[(name, mcb.base)]
        if edge.knitting_auto is None:
            base = _elided(mcb.basis_names[mcb.base], str)
            raise MulticurveError(f"edge ({_elided(name, str)}, {base}) has no "
                                  "knitting automorphism")
        if edge.target != mcb.base:
            problems.append(f"{name}: base element not fixed")
            continue
        column = [int(T.entries[row][col]) for row in range(len(T.rows))]
        want = Automorphism.identity(edge.knitting_auto.group)
        for rname, k in zip(twist_names, column):
            step = gens[rname] if k > 0 else gens[rname].inverse()
            for _ in range(abs(k)):
                want = want.compose(step)
        if not outer_equal(edge.knitting_auto, want):
            problems.append(f"{name}: knitting does not match the twist "
                            f"vector {column}")
    return problems


# ---------------------------------------------------------------------------
# integer linear fixed-point solver

@dataclass(frozen=True)
class LinExpr:
    """Affine integer expression over named unknowns."""

    coeffs: tuple[tuple[str, Fraction], ...] = ()
    const: Fraction = Fraction(0)

    @classmethod
    def var(cls, name: str) -> "LinExpr":
        return cls(((name, Fraction(1)),), Fraction(0))

    @classmethod
    def of(cls, value) -> "LinExpr":
        return cls((), Fraction(value))

    def _as_dict(self):
        return dict(self.coeffs)

    def __add__(self, other):
        d = self._as_dict()
        for k, v in other.coeffs:
            d[k] = d.get(k, Fraction(0)) + v
        return LinExpr(tuple(sorted((k, v) for k, v in d.items() if v)),
                       self.const + other.const)

    def scale(self, c) -> "LinExpr":
        c = Fraction(c)
        return LinExpr(tuple((k, v * c) for k, v in self.coeffs), self.const * c)

    def is_zero(self):
        return not self.coeffs and self.const == 0

    def evaluate(self, values: dict) -> Fraction:
        return sum((Fraction(values[k]) * v for k, v in self.coeffs),
                   self.const)

    def content(self) -> Fraction:
        """The positive rational c with self = +-c * normalized() (1 for 0)."""
        items = [v for _, v in self.coeffs] + ([self.const] if self.const else [])
        denom = lcm(*(v.denominator for v in items))
        g = gcd(*(v.numerator * (denom // v.denominator) for v in items))
        return Fraction(g or 1, denom)

    def normalized(self) -> "LinExpr":
        """Primitive integer form with positive leading coefficient."""
        if self.is_zero():
            return self
        scale = 1 / self.content()
        lead = self.coeffs[0][1] if self.coeffs else self.const
        return self.scale(scale if lead > 0 else -scale)

    def __str__(self):
        parts = []
        for k, v in self.coeffs:
            parts.append(f"{'' if v == 1 else ('-' if v == -1 else str(v) + '*')}{k}")
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts).replace("+ -", "- ")


def smith_normal_form(A: list[list[int]]):
    """U, D, V with U*A*V = D diagonal (all unimodular, exact)."""
    m, n = len(A), len(A[0]) if A else 0
    D = [row[:] for row in A]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def row_op(i, j, q):  # row_i -= q*row_j
        D[i] = [a - q * b for a, b in zip(D[i], D[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q*col_j
        for row in D:
            row[i] -= q * row[j]
        for row in V:
            row[i] -= q * row[j]

    t = 0
    while t < min(m, n):
        # find a nonzero pivot
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j]:
                    if pivot is None or abs(D[i][j]) < abs(D[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if D[i][t]:
                    row_op(i, t, D[i][t] // D[t][t])
                    if D[i][t]:
                        swap_rows(t, i)
                    dirty = True
            for j in range(t + 1, n):
                if D[t][j]:
                    col_op(j, t, D[t][j] // D[t][t])
                    if D[t][j]:
                        swap_cols(t, j)
                    dirty = True
        t += 1
    for i in range(min(m, n)):
        if D[i][i] < 0:
            D[i] = [-x for x in D[i]]
            U[i] = [-x for x in U[i]]
    return U, D, V


@dataclass
class TwistFixedPointProblem:
    matrix: ThurstonMatrix
    theta: list[LinExpr]


@dataclass
class TwistFixedPointSolution:
    constraints: list[LinExpr]          # each must vanish
    congruences: list[tuple[LinExpr, int]]
    solution: list[LinExpr]             # v per curve, over unknowns + free params
    free_rank: int
    free_params: list[str]


def solve_twist_fixed_point(problem: TwistFixedPointProblem) -> TwistFixedPointSolution:
    """Solve v = theta + T v over the integers with symbolic theta: returns
    the linear constraints the unknowns must satisfy and the free lattice
    of solutions in v.  The free parameters are named _w<i>; a theta
    unknown of the same name raises MulticurveError."""
    T = problem.matrix
    if not T.is_square():
        raise MulticurveError("fixed point problem needs a square matrix")
    A = T.as_int_matrix()
    n = len(A)
    ImT = [[(1 if i == j else 0) - A[i][j] for j in range(n)] for i in range(n)]
    U, D, V = smith_normal_form(ImT)
    # (I-T) v = theta  becomes  D w = U theta  with v = V w
    rhs = []
    for i in range(n):
        e = LinExpr()
        for j in range(n):
            if U[i][j]:
                e = e + problem.theta[j].scale(U[i][j])
        rhs.append(e)
    constraints: list[LinExpr] = []
    congruences: list[tuple[LinExpr, int]] = []
    w: list[LinExpr] = []
    free_params: list[str] = []
    for i in range(n):
        d = D[i][i]
        if d == 0:
            if not rhs[i].is_zero():
                constraints.append(rhs[i].normalized())
            name = f"_w{i + 1}"
            free_params.append(name)
            w.append(LinExpr.var(name))
        else:
            expr = rhs[i].scale(Fraction(1, d))
            if any(v.denominator != 1 for _, v in expr.coeffs) \
                    or expr.const.denominator != 1:
                # rhs = +-c * N with N primitive and c = p/q in lowest
                # terms: c * N / d is an integer exactly when
                # N = 0 mod q*d / gcd(p, q*d)
                c = rhs[i].content()
                q = c.denominator * d
                congruences.append((rhs[i].normalized(),
                                    q // gcd(c.numerator, q)))
            w.append(expr)
    clash = sorted(set(free_params).intersection(
        name for e in problem.theta for name, _ in e.coeffs))
    if clash:
        raise MulticurveError(
            f"theta unknown {clash[0]} is also a free parameter name")
    solution = []
    for i in range(n):
        e = LinExpr()
        for j in range(n):
            if V[i][j]:
                e = e + w[j].scale(V[i][j])
        solution.append(e)
    return TwistFixedPointSolution(
        constraints, congruences, solution, len(free_params), free_params)


def verify_fixed_point(sol: TwistFixedPointSolution,
                       problem: TwistFixedPointProblem, values: dict) -> bool:
    """Substitute numeric values (unknowns and free params) and verify
    v = theta + T v; values must satisfy the constraints."""
    for c in sol.constraints:
        if c.evaluate(values) != 0:
            return False
    v = [e.evaluate(values) for e in sol.solution]
    theta = [e.evaluate(values) for e in problem.theta]
    A = problem.matrix.entries
    n = len(v)
    for i in range(n):
        if v[i] != theta[i] + sum(A[i][j] * v[j] for j in range(n)):
            return False
    return True


# ---------------------------------------------------------------------------
# sphere trees of groups

@dataclass
class SphereVertex:
    name: str
    group: SphereGroup
    tags: list[tuple]        # per peripheral class: ("puncture", i) or
                             # ("curve", cid, sign)
    embeds: list[Word]       # per peripheral class, a word of the big group


@dataclass
class CurveVertex:
    cid: int
    rep: Word                # class representative in the big group
    element: Word            # the chosen exact splitting element


@dataclass
class TreeOfGroups:
    group: SphereGroup
    spheres: list[SphereVertex]
    curves: list[CurveVertex]

    def edges(self):
        """(cid, sphere index, peripheral index, sign) for each attachment."""
        out = []
        for si, v in enumerate(self.spheres):
            for pi, tag in enumerate(v.tags):
                if tag[0] == "curve":
                    out.append((tag[1], si, pi + 1, tag[2]))
        return out

    def to_dot(self) -> str:
        lines = ["graph sphere_tree {"]
        for si, v in enumerate(self.spheres):
            label = ",".join(
                self.group.names[t[1] - 1] if t[0] == "puncture" else f"c{t[1]}"
                for t in v.tags)
            lines.append(f'  s{si} [shape=ellipse, label="{v.name}: {label}"];')
        for c in self.curves:
            lines.append(
                f'  c{c.cid} [shape=box, label="curve {self.group.word_str(c.rep)}"];')
        for cid, si, pi, sign in self.edges():
            lines.append(f'  s{si} -- c{cid} [label="{"+" if sign > 0 else "-"}"];')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "spheres": [
                {
                    "name": v.name,
                    "generators": list(v.group.names),
                    "classes": [
                        {"tag": list(t), "embedding": self.group.word_str(w) or ""}
                        for t, w in zip(v.tags, v.embeds)
                    ],
                }
                for v in self.spheres
            ],
            "curves": [
                {"id": c.cid, "word": self.group.word_str(c.rep)}
                for c in self.curves
            ],
        }


def _words_of_length(rank: int, L: int):
    letters = [x for x in range(-rank, rank + 1) if x]
    if L == 0:
        yield EPSILON
        return
    stack = [(x,) for x in letters]
    while stack:
        w = stack.pop()
        if len(w) == L:
            yield w
        else:
            for x in letters:
                if w[-1] != -x:
                    stack.append(w + (x,))


def _iddfs(P: SphereGroup, idxs: list[int], bound: int, accept):
    """Yield (order, conjugators, product, total) with product
    gen_{i1}^{u1} * ... accepted and total conjugator length
    total <= bound.  Iterative deepening over the total length; all
    cyclic rotations of the index order are tried."""
    s = len(idxs)
    rank = P.rank
    for total in range(bound + 1):
        for shift in range(s):
            order = idxs[shift:] + idxs[:shift]

            def rec(pos, remaining, conjs, prefix):
                if pos == s:
                    if remaining == 0 and accept(prefix):
                        yield order, list(conjs), prefix, total
                    return
                for L in range(remaining + 1):
                    for u in _words_of_length(rank, L):
                        yield from rec(pos + 1, remaining - L, conjs + [u],
                                       wmul(prefix, conjugate(P.gen(order[pos]), u)))

            yield from rec(0, total, [], EPSILON)


def mc_to_gog(G: SphereGroup, curves: Multicurve, bound: int = 4) -> TreeOfGroups:
    """Split the sphere group along the multicurve into a sphere tree of
    groups, by abelianization partitions and bounded conjugator search.

    Raises SplitFailed with kind 'abelianization-inconsistent' (definite),
    'not-disjoint' (definite) or 'bound-exhausted' (inconclusive)."""
    if curves.group != G:
        raise MulticurveError("multicurve lives over the wrong group")
    # the pieces are named S0, S1, ... in tree order once the split is done
    pieces = [SphereVertex("", G, [("puncture", i) for i in range(1, G.n + 1)],
                           list(G.gens))]
    curve_vertices = []
    for cid, curve in enumerate(curves):
        # locate the unique piece containing the curve
        home = None
        expr_w = None
        for pi, piece in enumerate(pieces):
            graph = SubgroupGraph(piece.embeds)
            expr = graph.express(curve.rep)
            if expr is not None:
                home, expr_w = pi, piece.group.normal_form(expr)
                break
        if home is None:
            raise SplitFailed("not-disjoint",
                              f"curve {G.word_str(curve.rep)} lies in no piece")
        piece = pieces[home]
        P = piece.group
        ab = P.abelianized(expr_w)
        if all(x <= 0 for x in ab):
            expr_w = winv(expr_w)
            ab = P.abelianized(expr_w)
        enclosed = [i + 1 for i, x in enumerate(ab) if x == 1]
        rest = [i + 1 for i, x in enumerate(ab) if x == 0]
        if (any(x not in (0, 1) for x in ab) or len(enclosed) < 2
                or len(rest) < 2):
            raise SplitFailed(
                "abelianization-inconsistent",
                f"curve {G.word_str(curve.rep)} has homology "
                f"{ab} in its piece")
        # realizability: both sides must express a common element within a
        # shared conjugator budget, and the assembled conjugated generators
        # must generate the piece (ruling out homologically-plausible
        # non-splittings)
        accepted = None
        canon = cyclic_canonical(expr_w)
        for order_in, conjs_in, q, used in _iddfs(
                P, enclosed, bound, lambda w: cyclic_canonical(w) == canon):
            for order_out, conjs_out, _, _ in _iddfs(
                    P, rest, bound - used, lambda w, t=winv(q): w == t):
                side_in = [conjugate(P.gen(i), u)
                           for i, u in zip(order_in, conjs_in)]
                side_out = [conjugate(P.gen(i), u)
                            for i, u in zip(order_out, conjs_out)]
                if SubgroupGraph(side_in + side_out).index_in(
                        P.free_gen_indices()) != 1:
                    continue
                accepted = (order_in, conjs_in, order_out, conjs_out, q)
                break
            if accepted:
                break
        if accepted is None:
            raise SplitFailed("bound-exhausted",
                              f"no generating realization of "
                              f"{G.word_str(curve.rep)} with total "
                              f"conjugator length <= {bound}")
        order_in, conjs_in, order_out, conjs_out, q = accepted

        def expand(w: Word) -> Word:
            return expand_expression(w, piece.embeds)

        names_a = [P.names[i - 1] for i in order_in] + [f"e{cid + 1}"]
        A = SphereGroup(names_a)
        tags_a = [piece.tags[i - 1] for i in order_in] + [("curve", cid, -1)]
        embeds_a = [expand(conjugate(P.gen(i), u))
                    for i, u in zip(order_in, conjs_in)] + [expand(winv(q))]
        names_b = [f"e{cid + 1}"] + [P.names[i - 1] for i in order_out]
        B = SphereGroup(names_b)
        tags_b = [("curve", cid, +1)] + [piece.tags[i - 1] for i in order_out]
        embeds_b = [expand(q)] + [expand(conjugate(P.gen(i), u))
                                  for i, u in zip(order_out, conjs_out)]
        pieces[home:home + 1] = [SphereVertex("", A, tags_a, embeds_a),
                                 SphereVertex("", B, tags_b, embeds_b)]
        curve_vertices.append(CurveVertex(cid, curve.rep, expand(q)))
    for i, piece in enumerate(pieces):
        piece.name = f"S{i}"
    return TreeOfGroups(G, pieces, curve_vertices)


# ---------------------------------------------------------------------------
# promotion of class bijections to conjugators

@dataclass
class PromotedConjugator:
    vertex_map: dict[int, int]
    vertex_isos: dict[int, Automorphism]   # stored as generator-image maps
    edge_elements: dict[tuple[int, int], Word]


def _class_bijection_iso(dst: SphereGroup, beta: list[int]) -> Automorphism:
    """An isomorphism onto dst, given by its generator images, sending
    class i to class beta[i-1], for beta a permutation of 1..n, built from
    adjacent half-twist moves.

    Invariant: images[k] always lies in the dst class perm[k], and the
    ordered product of the images is trivial; adjacent slots are swapped
    by (a, b) -> (b, b^-1 a b), which sorts perm into beta.
    """
    n = dst.n
    perm = list(range(1, n + 1))
    images = list(dst.gens)
    for slot in range(n):
        j = perm.index(beta[slot], slot)
        while j > slot:
            a, b = images[j - 1], images[j]
            images[j - 1], images[j] = b, conjugate(a, b)
            perm[j - 1], perm[j] = perm[j], perm[j - 1]
            j -= 1
    return Automorphism(dst, images)


def promote_bijection(tree1: TreeOfGroups, tree2: TreeOfGroups,
                      h: dict) -> PromotedConjugator:
    """Decide whether a bijection of distinguished classes promotes to a
    conjugator between the trees; h maps tag keys of tree1 to tag keys of
    tree2 (("puncture", i) and ("curve", cid), the first two fields of a
    tag) and must map every tag of tree1 and name only tags of the trees.

    Only steps 1 and 2 can fail.  Step 2 matches each vertex v of tree1
    to the vertex w of tree2 whose tag keys are the h-images of v's and
    which has as many tags (fewer only if h joins two keys of v, which
    needs tree1 to have more tags than tree2).  So h maps v's keys one to
    one onto w's, beta is a permutation, the half-twist moves send each
    class of v into its h-image class (step 3), and the image of a curve
    class of v is conjugate to the generator of its slot in w (step 4).
    """
    keys1, keys2 = ([t[:2] for v in tree.spheres for t in v.tags]
                    for tree in (tree1, tree2))
    for key in keys1:
        if key not in h:
            raise MulticurveError(f"the bijection leaves {key[0]} {key[1]} unmapped")
    for key, image in h.items():
        for tag, keys, side in ((key, keys1, "first"), (image, keys2, "second")):
            if tag not in keys:
                raise MulticurveError(f"the bijection names {tag[0]} {tag[1]}, "
                                      f"which is no class of the {side} tree")
    # a list, so that a failure names the first bad curve in tree order
    curves1 = [("curve", c.cid) for c in tree1.curves]
    curves2 = {("curve", c.cid) for c in tree2.curves}
    # step 1: the bijection must restrict to the geometric edge sets
    for tag in curves1:
        if h.get(tag) not in curves2:
            raise PromoteFailed(1, f"{tag} does not map to a curve class")
    if len({h[tag] for tag in curves1}) != len(curves2):
        raise PromoteFailed(1, "curve classes are not matched bijectively")
    # step 2: promote to a graph isomorphism; slots[j] maps each tag key
    # of tree2's vertex j to its 1-based peripheral index
    slots = [{t[:2]: pi for pi, t in enumerate(w.tags, 1)}
             for w in tree2.spheres]
    vmap: dict[int, int] = {}
    for i, v in enumerate(tree1.spheres):
        want = {h[t[:2]] for t in v.tags}
        matches = [j for j, slot in enumerate(slots) if slot.keys() == want]
        if len(matches) != 1:
            raise PromoteFailed(2, f"vertex {v.name} has no unique image")
        vmap[i] = matches[0]
    if len(set(vmap.values())) != len(tree2.spheres):
        raise PromoteFailed(2, "vertex map is not a bijection")
    for i, v in enumerate(tree1.spheres):
        if len(v.tags) != len(tree2.spheres[vmap[i]].tags):
            raise PromoteFailed(2, f"peripheral sets differ at {v.name}")
    # step 3: per-vertex isomorphisms compatible with h
    isos: dict[int, Automorphism] = {}
    for i, v in enumerate(tree1.spheres):
        beta = [slots[vmap[i]][h[t[:2]]] for t in v.tags]
        isos[i] = _class_bijection_iso(tree2.spheres[vmap[i]].group, beta)
    # step 4: edge intertwiners by conjugation elements
    edge_elems: dict[tuple[int, int], Word] = {}
    for cid, si, pi, sign in tree1.edges():
        slot = slots[vmap[si]][h[("curve", cid)]]
        edge_elems[(cid, si)] = is_conjugate(
            tree2.spheres[vmap[si]].group.gen(slot), isos[si].images[pi - 1])
    return PromotedConjugator(vmap, isos, edge_elems)
