"""The four benchmark workloads: seeded inputs, timed operations, checks.

A workload turns its seed into inputs at set-up and then yields the same
list of operations on every repetition.  An operation's ``run`` is the
timed call into sphmach; its ``check`` runs after the clock stops and
compares the answer with an oracle from ``oracles``.  Operations see
each other's results through a per-repetition context dict.

Program functions are always looked up on their modules at call time,
so the traced run's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from collections import Counter
from fractions import Fraction

from sphmach import cli, machfile, machine, mcbiset, multicurve
from sphmach.machine import BasisChange
from sphmach.multicurve import LinExpr, ThurstonMatrix, TwistFixedPointProblem

import oracles
from tracer import knitting_letters

MACHINES = "machines"


class Op:
    """A timed call and its check.  ``query`` marks the operations whose
    latencies make up op_p50_ms and op_tail_ms: the queries and commands
    a user waits on, not the seeded table-edge verification or the .mcb
    round trip, whose sizes vary with the seed."""

    __slots__ = ("name", "run", "check", "query")

    def __init__(self, name, run, check, query=True):
        self.name = name
        self.run = run
        self.check = check
        self.query = query


def run_cli(argv):
    """cli.main with --json, its output captured: (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--json"] + argv)
    return code, out.getvalue(), err.getvalue()


def cli_result(res, code=0):
    """The JSON result of a captured CLI run, or an error string."""
    got, out, err = res
    if got != code:
        return None, f"exit {got}, expected {code}: {err.strip()[:200]}"
    try:
        return json.loads(out)["result"], None
    except (ValueError, KeyError) as exc:
        return None, f"no JSON report: {exc}"


class Workload:
    """Seeded inputs plus the operations of one repetition.

    ``pending`` collects answers whose oracle runs in the parent process,
    keyed by operation index; ``mcb_bytes`` is the size of the .mcb file
    the last repetition wrote."""

    name = ""

    def __init__(self, seed: int, size: str, tmp: str):
        self.rng = random.Random(seed)
        self.tiny = size == "tiny"
        self.tmp = tmp
        self.pending: dict[int, dict] = {}
        self.mcb_bytes = 0

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def context(self) -> dict:
        """The context a repetition starts from."""
        return {}

    def record_bytes(self, path):
        self.mcb_bytes = os.path.getsize(path)


# ---------------------------------------------------------------------------
# mcb_stu and mcb_full

EDGE_STRATUM = 3


def stratified_sample(edges, rng):
    """One edge from each run of EDGE_STRATUM edges in knitting-length
    order, so that every seed draws the same spread of sizes."""
    order = sorted(edges, key=lambda e: (knitting_letters(e), e.source, e.gen))
    return [order[rng.randrange(i, min(i + EDGE_STRATUM, len(order)))]
            for i in range(0, len(order), EDGE_STRATUM)]


class McbWorkload(Workload):
    """`sphmach --json mcbiset` on the degree-5 machine, read back with
    load_mcb and checked: orbit count, the written table, exact table
    edges and (for {s,t,u}) the criterion-4 lift multisets."""

    GENS: str | None = None     # --gens; None for all six t_{i,j}
    LIFTS = False               # run the lift multisets of the generators

    def __init__(self, seed, size, tmp):
        super().__init__(seed, size, tmp)
        if self.tiny:
            self.path = os.path.join(MACHINES, "z5belyi.mach")
            self.gens_arg, self.orbits = None, 5
        else:
            self.path = os.path.join(MACHINES, "fbiset.mach")
            self.gens_arg, self.orbits = self.GENS, 120
        with open(self.path) as fh:
            mf = machfile.parse_machine_file(fh.read())
        n = mf.machine.source.n
        if self.gens_arg:
            self.gen_names = self.gens_arg.split(",")
        else:
            self.gen_names = [f"t{i}_{j}" for i in range(1, n + 1)
                              for j in range(i + 1, n + 1)]
        self.lift_gens = self.gen_names[:3] if self.LIFTS else []
        self.edge_seed = self.rng.randrange(2 ** 32)
        n_edges = self.orbits * len(self.gen_names)
        self.n_edges = -(-n_edges // EDGE_STRATUM)
        self.out = os.path.join(tmp, f"{self.name}.mcb")

    def ops(self):
        ops = [Op("cli.mcbiset", self._build, self._check_build),
               Op("load_mcb", lambda ctx: machfile.load_mcb(self.out),
                  self._check_load)]
        for gen in self.lift_gens:
            ops.append(Op(f"lift_multiset.{gen}",
                          lambda ctx, g=gen: mcbiset.lift_multiset_in_mcbiset(
                              ctx["mcb"], g),
                          lambda ctx, res, g=gen: self._check_lifts(ctx, res, g)))
        for i in range(self.n_edges):
            ops.append(Op("table_edge", lambda ctx, i=i: self._edge(ctx, i),
                          lambda ctx, res: None if res[0] == res[1]
                          else "pre_compose(M_k, g) != change_basis("
                               "post_compose(M_next, knit), b)", query=False))
        return ops

    def _build(self, ctx):
        argv = ["mcbiset", self.path]
        if self.gens_arg:
            argv += ["--gens", self.gens_arg]
        return run_cli(argv + ["-o", self.out])

    def _check_build(self, ctx, res):
        result, err = cli_result(res)
        if err:
            return err
        self.record_bytes(self.out)
        if result["basis_size"] != self.orbits:
            return f"{result['basis_size']} orbits, expected {self.orbits}"
        if result["generators"] != self.gen_names or result["written"] != self.out:
            return f"unexpected report {result}"
        return None

    def _check_load(self, ctx, mcb):
        if mcb.size != self.orbits:
            return f"load_mcb returned {mcb.size} orbits"
        if len(mcb.table) != self.orbits * len(self.gen_names):
            return f"load_mcb returned {len(mcb.table)} edges"
        with open(self.out) as fh:
            bad = oracles.table_mismatches(json.load(fh), mcb)
        if bad:
            return "; ".join(bad)
        ctx["mcb"] = mcb
        ctx["edges"] = stratified_sample(mcb.table.values(),
                                         random.Random(self.edge_seed))
        ctx["weighted_s"] = 0
        return None

    def _check_lifts(self, ctx, entries, gen):
        if self.tiny:
            total = sum(e.degree for e in entries)
            return None if total == self.orbits else f"cycle degrees sum to {total}"
        if any(e.label is None for e in entries):
            return f"unlabelled lift of {gen}"
        got = Counter((e.degree, e.label) for e in entries)
        if got != oracles.CRITERION4_LIFTS[gen]:
            return f"lift multiset of {gen} is {dict(got)}"
        ctx["weighted_s"] += sum(e.label[1] for e in entries if e.label[0] == "s")
        if gen == self.lift_gens[-1] and \
                ctx["weighted_s"] != oracles.CRITERION4_WEIGHTED_S:
            return f"weighted count {ctx['weighted_s']}, expected 64"
        return None

    def _edge(self, ctx, i):
        mcb = ctx["mcb"]
        e = ctx["edges"][i]
        M = mcb.machines
        lhs = machine.pre_compose(M[e.source], mcb.gens[e.gen])
        rhs = machine.change_basis(machine.post_compose(M[e.target],
                                                        e.knitting_auto),
                                   e.basis_change)
        return lhs, rhs


class McbStu(McbWorkload):
    name = "mcb_stu"
    GENS = "s,t,u"
    LIFTS = True


class McbFull(McbWorkload):
    name = "mcb_full"


# ---------------------------------------------------------------------------
# rabbit_twists

def _reduced_word(rng, letters, length):
    """A random freely reduced word of exactly the given length."""
    word = []
    while len(word) < length:
        x = rng.choice(letters)
        if not word or word[-1] != -x:
            word.append(x)
    return tuple(word)


def _terminal_class(term):
    if term.kind == "fixed":
        return ("fixed", term.states[0])
    return ("cycle", frozenset(term.states))


class RabbitTwists(Workload):
    """conjugacy_iterate on the rabbit biset: seeded powers t^n checked
    against the base-4 rule, and seeded mixed words each queried with its
    conjugate by one letter."""

    name = "rabbit_twists"

    def __init__(self, seed, size, tmp):
        super().__init__(seed, size, tmp)
        self.fixture = machfile.load_mcb(os.path.join(MACHINES, "rabbit.mcb"))
        self.t = self.fixture.alphabet.index("t") + 1
        rng = self.rng
        n_pow, n_max, n_mixed, len_max = (4, 40, 3, 20) if self.tiny \
            else (48, 2000, 48, 1500)
        letters = [x for i in range(1, len(self.fixture.alphabet) + 1)
                   for x in (i, -i)]
        queries = []
        for i in range(n_pow):
            mag = 1 + int((i + rng.random()) * n_max / n_pow)
            queries.append(("power", mag * rng.choice((1, -1))))
        for i in range(n_mixed):
            length = 1 + int((i + rng.random()) * len_max / n_mixed)
            word = _reduced_word(rng, letters, length)
            queries.append(("mixed", (word, rng.choice((0, 1)),
                                      rng.choice(letters))))
        rng.shuffle(queries)
        self.queries = queries
        self.out = os.path.join(tmp, "rabbit.mcb")

    def ops(self):
        ops = [Op("mcb_round_trip", self._round_trip, self._check_round_trip,
                  query=False)]
        for q, (kind, arg) in enumerate(self.queries):
            if kind == "power":
                ops.append(Op("twist_power", lambda ctx, n=arg: self._power(ctx, n),
                              lambda ctx, term, n=arg: self._check_power(term, n)))
            else:
                ops.append(Op("mixed_word",
                              lambda ctx, a=arg: mcbiset.conjugacy_iterate(
                                  ctx["mcb"], (a[0], a[1])),
                              lambda ctx, term, q=q: self._check_first(ctx, term, q)))
                ops.append(Op("mixed_word_conjugate",
                              lambda ctx, a=arg: self._conjugate(ctx, a),
                              lambda ctx, term, q=q: self._check_second(ctx, term, q)))
        return ops

    def _round_trip(self, ctx):
        machfile.save_mcb(self.fixture, self.out)
        return machfile.load_mcb(self.out)

    def _check_round_trip(self, ctx, mcb):
        self.record_bytes(self.out)
        with open(self.out) as fh:
            bad = oracles.table_mismatches(json.load(fh), mcb)
        ctx["mcb"] = mcb
        return "; ".join(bad) or None

    def _power(self, ctx, n):
        mcb = ctx["mcb"]
        word = (self.t,) * n if n >= 0 else (-self.t,) * (-n)
        return mcbiset.conjugacy_iterate(mcb, (word, mcb.base))

    def _check_power(self, term, n):
        base = self.fixture.base
        if term.kind == "max-steps":
            return f"t^{n}: inconclusive after {term.steps} steps"
        if term.kind == "fixed":
            got = "rabbit" if term.states[0][1] == base else "airplane"
        elif ((-self.t,), base) in term.states:
            got = "corabbit"
        else:
            got = f"unexpected cycle {term.states}"
        want = oracles.base4_rule(n)
        return None if got == want else f"t^{n}: {got}, base-4 rule says {want}"

    def _conjugate(self, ctx, arg):
        word, k, g = arg
        mcb = ctx["mcb"]
        # g^-1 * (w . Psi_k) * g = (g^-1 * w * knit) . Psi_k2
        knit, k2 = mcbiset.rewrite(mcb, k, (g,))
        return mcbiset.conjugacy_iterate(mcb, ((-g,) + word + knit, k2))

    def _check_first(self, ctx, term, q):
        if term.kind == "max-steps":
            return "inconclusive after max steps"
        ctx[q] = _terminal_class(term)
        return None

    def _check_second(self, ctx, term, q):
        if term.kind == "max-steps":
            return "inconclusive after max steps"
        if q not in ctx:
            return "first query of the pair failed"
        if _terminal_class(term) != ctx[q]:
            return "conjugate start ends in another class"
        return None


# ---------------------------------------------------------------------------
# thurston_tower

CURVE_MATRIX = [[1, 2], [0, 3]]
ISO_DEGREES = (6, 36)   # see NOTES.md: degree 216 is left out on purpose


def _readme_commands(tmp):
    """The README's command lines over machines/, with their checks."""
    c7 = os.path.join(MACHINES, "centralizer7.mach")
    fb = os.path.join(MACHINES, "fbiset.mach")
    z5_out = os.path.join(tmp, "z5.mcb")
    rabbit_class = {"rabbit": ("fixed", "f_R"), "airplane": ("fixed", "f_R.t")}

    def expect(**fields):
        def check(r):
            bad = {k: r.get(k) for k, v in fields.items() if r.get(k) != v}
            return f"fields {bad}" if bad else None
        return check

    def bracket3(r):
        lo, hi = r["perron_bracket"]
        if not (r["obstructed"] and lo <= 3 <= hi):
            return f"obstructed={r['obstructed']} bracket {r['perron_bracket']}"
        return expect(matrix=[["1", "2"], ["0", "3"]])(r)

    def classify(r):
        kind, basis = rabbit_class[oracles.base4_rule(3)]
        if r["kind"] != kind or [s["basis"] for s in r["terminal"]] != [basis]:
            return f"classify-twist t^3 gave {r}"
        return None

    return [
        (["validate", c7], 0, expect(sphere_biset=True)),
        (["monodromy", fb], 0, expect(degree=5, order=120, transitive=True)),
        (["lifts", c7, "x2*x3*x4*x5"], 0,
         expect(total_degree=6, **{"class": "x2*x3*x4*x5"})),
        (["thurston-matrix", c7], 0, expect(matrix=[["1", "2"], ["0", "3"]])),
        (["obstructed", c7], 0, bracket3),
        (["solve-twists", c7, "--theta", "2*a,2*b"], 0,
         expect(constraints=["a - b = 0"], free_rank=1)),
        (["split", c7, "--dot"], 0, "dot"),
        (["mcbiset", os.path.join(MACHINES, "z5belyi.mach"), "-o", z5_out], 0,
         expect(basis_size=5, written=z5_out)),
        (["classify-twist", os.path.join(MACHINES, "rabbit.mcb"), "t^3"], 0,
         classify),
        (["iso", fb, fb], 0, expect(same_left_orbit=True)),
    ]


def _check_dot(text):
    spheres = [ln for ln in text.splitlines() if "shape=ellipse" in ln]
    if not text.startswith("graph sphere_tree {") or len(spheres) != 3:
        return f"split --dot printed {text[:80]!r}"
    return None


class ThurstonTower(Workload):
    """The centralizer7 machine B and B^k, k = 1..3, each rebased by a
    seeded BasisChange, through validation, lifts, Thurston matrix,
    obstruction, twist fixed points, distillation and isomorphism
    recovery; then is_obstructed on seeded rational matrices and the
    README's CLI commands."""

    name = "thurston_tower"

    def __init__(self, seed, size, tmp):
        super().__init__(seed, size, tmp)
        rng = self.rng
        with open(os.path.join(MACHINES, "centralizer7.mach")) as fh:
            mf = machfile.parse_machine_file(fh.read())
        self.B, self.curves = mf.machine, mf.curves
        G = self.B.target
        letters = [x for i in range(1, G.n + 1) for x in (i, -i)]
        self.levels = []
        for k in range(1, (2 if self.tiny else 3) + 1):
            d = self.B.degree ** k
            conj = tuple(G.normal_form([rng.choice(letters)
                                        for _ in range(rng.randint(0, 4))])
                         for _ in range(d))
            relabel = list(range(d))
            rng.shuffle(relabel)
            half = (3 ** k - 1) // 2
            self.levels.append({
                "k": k, "degree": d,
                "rebase": BasisChange(conj, tuple(relabel)),
                "conj_only": BasisChange(conj, tuple(range(d))),
                "theta_value": half * rng.choice([m for m in range(-5, 6) if m]),
                "free_value": rng.randint(-9, 9),
                "matrix": oracles.int_matrix_power(CURVE_MATRIX, k),
            })
        self.matrices = []
        for n in range(2, (3 if self.tiny else 8) + 1):
            for scale in ("small", "large"):
                self.matrices.append([[self._entry(n, scale) for _ in range(n)]
                                      for _ in range(n)])
        self.commands = _readme_commands(tmp)
        self.z5_out = os.path.join(tmp, "z5.mcb")

    def context(self):
        return {("M", 1): self.B}

    def _entry(self, n, scale):
        rng = self.rng
        if rng.random() < 0.4:
            return Fraction(0)
        if scale == "large":
            return Fraction(rng.randint(1, 9), rng.randint(1, 4))
        return Fraction(rng.randint(1, 3), rng.randint(2 * n, 4 * n))

    def ops(self):
        ops = []
        for lv in self.levels:
            ops.extend(self._level_ops(lv))
        ops.append(Op("mc_to_gog", lambda ctx: multicurve.mc_to_gog(
            self.B.source, self.curves, bound=4), self._check_tree))
        for m, entries in enumerate(self.matrices):
            ops.append(Op(f"is_obstructed.{len(entries)}",
                          lambda ctx, e=entries: multicurve.is_obstructed(
                              ThurstonMatrix([str(i) for i in range(len(e))],
                                             [str(i) for i in range(len(e))], e)),
                          lambda ctx, rep, e=entries, i=len(ops):
                          self._defer_perron(i, e, rep)))
        for argv, code, check in self.commands:
            ops.append(Op(f"cli.{argv[0]}", lambda ctx, a=argv: run_cli(a),
                          lambda ctx, res, c=code, f=check, a=argv:
                          self._check_cli(res, c, f, a)))
        return ops

    def _level_ops(self, lv):
        k, d = lv["k"], lv["degree"]
        B, curves = self.B, self.curves
        ops = []
        if k > 1:
            ops.append(Op(f"tensor.{d}",
                          lambda ctx: machine.tensor(ctx[("M", k - 1)], B),
                          lambda ctx, M: self._keep(ctx, ("M", k), M, d)))
        ops.append(Op(f"change_basis.{d}",
                      lambda ctx: machine.change_basis(ctx[("M", k)], lv["rebase"]),
                      lambda ctx, M: self._keep(ctx, ("R", k), M, d)))
        ops.append(Op(f"validate_sphere.{d}",
                      lambda ctx: machine.validate_sphere(ctx[("R", k)]),
                      lambda ctx, rep: None if rep.is_sphere_biset
                      else f"not a sphere biset: {rep.details}"))
        for c in curves:
            ops.append(Op(f"multiset_of_lifts.{d}",
                          lambda ctx, c=c: (
                              machine.multiset_of_lifts(ctx[("R", k)], c.rep),
                              machine.multiset_of_lifts(ctx[("M", k)], c.rep)),
                          lambda ctx, res: self._check_lifts(res, d)))
        ops.append(Op(f"thurston_matrix.{d}",
                      lambda ctx: multicurve.thurston_matrix(ctx[("R", k)], curves),
                      lambda ctx, T: self._check_matrix(ctx, T, lv)))
        ops.append(Op(f"is_obstructed.tower.{d}",
                      lambda ctx: multicurve.is_obstructed(ctx[("T", k)]),
                      lambda ctx, rep: self._check_tower_perron(rep, k)))
        ops.append(Op(f"solve_twist_fixed_point.{d}",
                      lambda ctx: self._solve(ctx[("T", k)], lv),
                      lambda ctx, res: self._check_solve(res, lv)))
        ops.append(Op(f"distill.{d}",
                      lambda ctx: (mcbiset.distill(ctx[("R", k)]).key,
                                   mcbiset.distill(ctx[("M", k)]).key),
                      lambda ctx, keys: None if keys[0] == keys[1]
                      else "rebasing changed the distillation"))
        if d in ISO_DEGREES:
            # degree 6 recovers the full seeded rebasing, degree 36 its
            # conjugator part (NOTES.md, "machine_isomorphism cliff")
            change = lv["rebase"] if d == ISO_DEGREES[0] else lv["conj_only"]
            ops.append(Op(f"machine_isomorphism.{d}",
                          lambda ctx, b=change: self._iso(ctx[("M", k)], b),
                          lambda ctx, ok: None if ok
                          else "rebasing not recovered"))
        return ops

    @staticmethod
    def _keep(ctx, key, M, d):
        ctx[key] = M
        return None if M.degree == d else f"degree {M.degree}, expected {d}"

    @staticmethod
    def _check_lifts(res, d):
        rebased, plain = res
        if rebased != plain:
            return "lift multiset changed under rebasing"
        total = rebased.total_degree()
        return None if total == d else f"lift degrees sum to {total}"

    @staticmethod
    def _check_matrix(ctx, T, lv):
        ctx[("T", lv["k"])] = T
        if T.entries != lv["matrix"]:
            return f"Thurston matrix {T.entries}, expected {lv['matrix']}"
        return None

    @staticmethod
    def _check_tower_perron(rep, k):
        r = 3 ** k
        if not (rep.obstructed and rep.perron_low <= r <= rep.perron_high):
            return (f"obstructed={rep.obstructed}, bracket "
                    f"[{rep.perron_low}, {rep.perron_high}] misses {r}")
        return None

    @staticmethod
    def _solve(T, lv):
        prob = TwistFixedPointProblem(
            T, [LinExpr.var("a").scale(2), LinExpr.var("b").scale(2)])
        sol = multicurve.solve_twist_fixed_point(prob)
        values = {"a": lv["theta_value"], "b": lv["theta_value"]}
        values.update({p: lv["free_value"] for p in sol.free_params})
        ok = multicurve.verify_fixed_point(sol, prob, values)
        return sol, ok, [e.evaluate(values) for e in sol.solution]

    @staticmethod
    def _check_solve(res, lv):
        sol, ok, v = res
        if not ok:
            return "verify_fixed_point rejected an integer solution"
        if [str(c) for c in sol.constraints] != ["a - b"] or sol.free_rank != 1:
            return f"constraints {[str(c) for c in sol.constraints]}, " \
                   f"free rank {sol.free_rank}"
        # v = theta + T v over the integers, with theta = (2a, 2b), a = b
        theta = 2 * lv["theta_value"]
        A = lv["matrix"]
        if any(Fraction(x).denominator != 1 for x in v) or any(
                v[i] != theta + sum(A[i][j] * v[j] for j in range(2))
                for i in range(2)):
            return f"v = {v} is not an integer fixed point"
        return None

    @staticmethod
    def _iso(M, b):
        target = machine.change_basis(M, b)
        found = mcbiset.machine_isomorphism(M, target)
        return found is not None and machine.change_basis(M, found) == target

    def _check_tree(self, ctx, tree):
        tags = sorted(t[1] for v in tree.spheres for t in v.tags
                      if t[0] == "puncture")
        if len(tree.spheres) != 3 or len(tree.curves) != len(self.curves) \
                or tags != list(range(1, self.B.source.n + 1)):
            return f"{len(tree.spheres)} spheres, punctures {tags}"
        return None

    def _defer_perron(self, i, entries, rep):
        got = {"entries": [[str(x) for x in row] for row in entries],
               "obstructed": rep.obstructed,
               "low": rep.perron_low, "high": rep.perron_high}
        first = self.pending.setdefault(i, got)
        return None if first == got else "answer differs between repetitions"

    def _check_cli(self, res, code, check, argv):
        if check == "dot":
            if res[0] != code:
                return f"exit {res[0]}: {res[2].strip()[:200]}"
            return _check_dot(res[1])
        result, err = cli_result(res, code)
        if err:
            return f"{' '.join(argv)}: {err}"
        if argv[0] == "mcbiset":
            self.record_bytes(self.z5_out)
        bad = check(result)
        return f"{' '.join(argv)}: {bad}" if bad else None


WORKLOADS = {w.name: w for w in (McbStu, McbFull, RabbitTwists, ThurstonTower)}
