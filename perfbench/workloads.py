"""The four benchmark workloads: inputs from the seed, one op, and its check.

Every workload exposes ``make(i)`` (the inputs of op ``i``, drawn from the
stream ``SeedSequence(seed, spawn_key=(workload, i))``), ``op(inputs)`` (the
timed call into the package) and ``check(inputs, result)`` (untimed; raises
``CheckFailed`` or returns observations such as a residual, or a note on
an op that passed by a route other than the plain check). Op 0 is the
warm-up op, timed ops start at 1, so every op sees inputs of its own.

Checks use references computed here, independently of the package where a
closed form exists (``scipy.linalg.expm`` for the semigroup, binomial tails
for Monte Carlo), at the tolerance Tier-1 states for that kind of result.
The library functions are always looked up on the package at call time, so
the tracer's wrappers see every call the ops make.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.stats

from metrics import WORKLOADS

# State counts cycle so that each op kind of a workload meets every size
# within sixteen ops; a run's mix then depends on its length, not its seed.
SIZES = (2, 3, 4, 5)

K_PATH = 1000                  # grid of every doob op
DOOB_KINDS = ("nisio", "bridge", "nisio", "boundary")

NISIO_TOL = 1e-3               # criterion 3
BRIDGE_GAP_TOL = 1e-3          # criterion 4
BRIDGE_DELIVERY_TOL = 2e-3     # criterion 4
# test_boundary_bridge_warns_and_approaches_rate states 1e-2 at K = 2000.
# The boundary gap is a first-order discretisation error (it halves from
# K = 1000 to 2000: 1.21e-2 -> 6.6e-3 on a measured op), so at K = 1000 the
# same bound reads 2e-2.
BOUNDARY_GAP_TOL = 1e-2 * 2000 / K_PATH
# Every Doob scheme is first order in the grid (criterion 3 checks that the
# error halves from K to 2K). An op whose K = 1000 error is over its
# tolerance is run again at 2K; it passes when the error falls and the
# Richardson limit 2 e(2K) - e(K) meets the limit tolerance, so the excess
# is discretisation error and the scheme converges to the right value.
# Such ops are reported as notes, not hidden.
DOOB_TOL = {
    "nisio": {"residual": NISIO_TOL},
    "bridge": {"gap": BRIDGE_GAP_TOL, "delivery": BRIDGE_DELIVERY_TOL},
    "boundary": {"gap": BOUNDARY_GAP_TOL},
}
# the boundary limit keeps the Tier-1 figure: the capped tilt's own error
DOOB_LIMIT_TOL = dict(DOOB_TOL, boundary={"gap": 1e-2})
SOLVE_TOL = 1e-6               # criterion 1: closed forms and duality
ZERO_RATE_TOL = 1e-8           # I_t(evolved | mu) at gradient_tol 1e-9
SEMIGROUP_TOL = 1e-9

MC_N_VALUES = (10, 20, 40)
MC_REPS = 400
MC_COPIES = 1000
MC_GRID = 20
MC_SLOPE_REL_TOL = 0.25        # tests/test_montecarlo.py: slope vs ball rate
MC_SIGMAS = 5.0


class CheckFailed(Exception):
    """An op returned, but its result is wrong."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _size(i):
    return SIZES[(i + i // 4) % 4]


def _strict(rng, n):
    p = rng.dirichlet(np.ones(n))
    return (p + 0.01) / (1.0 + 0.01 * n)


def _expm(gen, t):
    return scipy.linalg.expm(t * np.asarray(gen.Q))


def _kl(p, q):
    """sum p log(p/q) over the support of p."""
    s = p > 0
    return float(np.sum(p[s] * np.log(p[s] / q[s])))


class Workload:
    name = ""

    def __init__(self, lib, seed, scratch):
        self.lib = lib
        self.seed = int(seed)
        self.scratch = Path(scratch)

    def rng(self, i):
        ss = np.random.SeedSequence(self.seed,
                                    spawn_key=(WORKLOADS.index(self.name), i))
        return np.random.default_rng(ss)

    def model(self, rng, n):
        rates = rng.uniform(0.0, 3.0, size=(n, n)) + 1e-9
        return self.lib.validate_generator([f"s{j}" for j in range(n)], rates)

    def trace_ops(self, seconds):
        """Ops of this workload in a traced run of ``seconds``."""
        raise NotImplementedError


class Doob(Workload):
    """K = 1000 path problems: Nisio draws, interior and boundary bridges."""

    name = "doob"

    def make(self, i):
        rng = self.rng(i)
        n = _size(i)
        kind = DOOB_KINDS[i % 4]
        gen = self.model(rng, n)
        mu0 = self.lib.Measure(gen.space, _strict(rng, n))
        if kind == "nisio":
            f = self.lib.Potential(gen.space, rng.uniform(-1.0, 1.0, n))
            return kind, gen, mu0, f, float(rng.uniform(0.2, 2.0))
        t = float(rng.uniform(0.4, 1.5))
        blend = float(rng.uniform(0.25, 0.75))
        target = blend * (mu0.p @ _expm(gen, t)) + (1.0 - blend) / n
        if kind == "boundary":
            target[int(rng.integers(n))] = 0.0
        target = target / target.sum()
        return kind, gen, mu0, self.lib.Measure(gen.space, target), t

    def op(self, inputs, K=K_PATH):
        kind, gen, mu0, x, t = inputs
        lib = self.lib
        if kind == "nisio":
            flow = lib.doob_flow(gen, x, t, K)
            return lib.doob_forward(gen, mu0, flow)
        if kind == "bridge":
            return lib.optimal_bridge(gen, mu0, x, t, K)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bridge = lib.optimal_bridge(gen, mu0, x, t, K)
        return bridge, [w.category for w in caught]

    def errors(self, inputs, result):
        """Signed errors of an op's result: scalars, or a vector (delivery)."""
        kind, gen, mu0, x, t = inputs
        if kind == "nisio":
            path, action = result
            rhs = float(mu0.p @ np.log(_expm(gen, t) @ np.exp(x.f)))
            return {"residual": float(x.f @ path.measures[-1])
                    - action.value - rhs}
        b = result if kind == "bridge" else result[0]
        errs = {"gap": b.action.value - b.rate}
        if kind == "bridge":
            errs["delivery"] = b.path.measures[-1] - x.p
        return errs

    def check(self, inputs, result):
        kind, gen, mu0, x, t = inputs
        if kind == "nisio":
            _require(result[0].K == K_PATH,
                     f"Nisio path has {result[0].K} cells, not {K_PATH}")
        if kind == "boundary":
            b, categories = result
            _require(b.boundary,
                     "boundary bridge does not carry the boundary flag")
            _require(any(issubclass(c, self.lib.BoundaryBridgeWarning)
                         for c in categories), "boundary bridge did not warn")
            _require(b.action.value <= b.rate,
                     f"boundary action {b.action.value!r} exceeds rate "
                     f"{b.rate!r}")
        coarse = self.errors(inputs, result)
        size = {k: float(np.abs(v).sum()) for k, v in coarse.items()}
        over = [k for k, tol in DOOB_TOL[kind].items() if size[k] >= tol]
        obs = {} if kind == "boundary" else {
            "residual": size["residual" if kind == "nisio" else "gap"]}
        if not over:
            return obs
        fine = self.errors(inputs, self.op(inputs, 2 * K_PATH))
        notes = []
        for k in over:
            at_2k = float(np.abs(fine[k]).sum())
            limit = float(np.abs(2.0 * fine[k] - coarse[k]).sum())
            text = (f"{kind} {k} {size[k]:.3e} >= {DOOB_TOL[kind][k]} at "
                    f"K={K_PATH}; {at_2k:.3e} at K={2 * K_PATH}, Richardson "
                    f"limit {limit:.3e}")
            _require(at_2k < size[k] and limit < DOOB_LIMIT_TOL[kind][k],
                     f"{text} (limit tolerance {DOOB_LIMIT_TOL[kind][k]})")
            notes.append(text)
        obs["note"] = "; ".join(notes)
        return obs

    def trace_ops(self, seconds):
        return max(4, seconds // 4)


class Solves(Workload):
    """One cold-started set of single solves on one random model."""

    name = "solves"

    def make(self, i):
        lib = self.lib
        rng = self.rng(i)
        n = _size(i)
        gen = self.model(rng, n)
        sp = gen.space
        mu = lib.Measure(sp, _strict(rng, n))
        g = lib.Potential(sp, rng.uniform(-2.0, 2.0, n))
        f_dual = lib.Potential(sp, rng.uniform(-2.0, 2.0, n))
        x_stay = int(rng.integers(n))

        t = float(rng.uniform(0.2, 2.0))
        P = _expm(gen, t)
        evolved = lib.Measure(sp, _fix(mu.p @ P))
        x0 = int(rng.integers(n))
        blend = float(rng.uniform(0.25, 0.75))
        interior = blend * P[x0] + (1.0 - blend) / n
        interior = interior / interior.sum()
        restricted = interior.copy()
        restricted[int(rng.integers(n))] = 0.0
        restricted = restricted / restricted.sum()

        # Marginals of the f-tilted chain from a Dirac start: they lie on
        # the unconstrained optimal path, so the joint rate of the three
        # marginals equals the terminal rate <f, gamma_3> - log(P e^f)(x0).
        times = tuple(float(s) for s in np.cumsum(rng.uniform(0.15, 0.6, 3)))
        f_joint = rng.uniform(-1.0, 1.0, n)
        ef = np.exp(f_joint)
        z = (_expm(gen, times[-1]) @ ef)[x0]
        marginals = [np.eye(n)[x0]]
        for s in times:
            m = _expm(gen, s)[x0] * (_expm(gen, times[-1] - s) @ ef) / z
            marginals.append(m / m.sum())
        joint_expected = float(f_joint @ marginals[-1]) - math.log(z)

        f_v = lib.Potential(sp, rng.uniform(-1.0, 1.0, n))
        t_v = float(rng.uniform(0.1, 2.0))
        return {
            "gen": gen, "mu": mu, "g": g, "u": lib.speed(gen, mu, g),
            "f_dual": f_dual, "x_stay": x_stay, "t": t, "P": P,
            "evolved": evolved, "dirac": lib.Measure.dirac(sp, x0), "x0": x0,
            "interior": lib.Measure(sp, interior),
            "restricted": lib.Measure(sp, restricted),
            "partition": lib.Partition(times),
            "marginals": [lib.Measure(sp, m) for m in marginals],
            "joint_expected": joint_expected,
            "f_v": f_v, "t_v": t_v,
        }

    def op(self, d):
        lib = self.lib
        gen, sp = d["gen"], d["gen"].space
        zero = np.zeros(gen.size)
        return (
            lib.lagrangian_value(gen, d["mu"], d["u"]),
            lib.lagrangian_value(gen, lib.Measure.dirac(sp, d["x_stay"]), zero),
            lib.dual_check(gen, d["mu"], d["f_dual"]),
            lib.conditional_rate(gen, d["mu"], d["evolved"], d["t"]),
            lib.conditional_rate(gen, d["dirac"], d["interior"], d["t"]),
            lib.conditional_rate(gen, d["dirac"], d["restricted"], d["t"]),
            lib.joint_rate(gen, d["dirac"], d["partition"], d["marginals"]),
            lib.v_apply(gen, d["f_v"], d["t_v"]),
        )

    def check(self, d, result):
        lag, stay, dual, zero_rate, interior, restricted, joint, v = result
        gen, mu, g = d["gen"], d["mu"], d["g"]
        Qoff = np.asarray(gen.Q) - np.diag(np.diag(gen.Q))
        diff = g.f[None, :] - g.f[:, None]
        ed = np.exp(diff)
        closed = float(mu.p @ (Qoff * (ed * diff - ed + 1.0)).sum(axis=1))
        _require(abs(lag.value - closed) < SOLVE_TOL,
                 f"L(mu, rho(g)) = {lag.value!r}, closed form {closed!r}")
        exit_rate = -float(gen.Q[d["x_stay"], d["x_stay"]])
        _require(abs(stay.value - exit_rate) < SOLVE_TOL and not stay.attained,
                 f"L(delta_x, 0) = {stay.value!r}, exit rate {exit_rate!r}, "
                 f"attained {stay.attained}")
        _require(dual < SOLVE_TOL, f"duality residual {dual:.3e}")
        _require(abs(zero_rate.value) < ZERO_RATE_TOL,
                 f"I_t(evolved | mu) = {zero_rate.value!r}")
        row = d["P"][d["x0"]]
        for name, res, nu, attained in (
                ("interior", interior, d["interior"], True),
                ("restricted", restricted, d["restricted"], False)):
            kl = _kl(nu.p, row)
            _require(abs(res.value - kl) < SOLVE_TOL
                     and res.attained == attained,
                     f"{name} conditional rate {res.value!r}, KL {kl!r}, "
                     f"attained {res.attained}")
        _require(abs(joint.value - d["joint_expected"]) < SOLVE_TOL,
                 f"joint rate {joint.value!r}, expected "
                 f"{d['joint_expected']!r}")
        exact = np.log(_expm(gen, d["t_v"]) @ np.exp(d["f_v"].f))
        err = float(np.max(np.abs(v.f - exact)))
        _require(err < SEMIGROUP_TOL, f"V(t)f off by {err:.3e}")
        return {}

    def trace_ops(self, seconds):
        return max(4, 10 * seconds)


def _fix(p):
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def _binary_kl(p, q):
    return _kl(np.array([p, 1.0 - p]), np.array([q, 1.0 - q]))


def _wilson_log_sigma(hits, reps, z=1.959964):
    """The estimator's error bar on log p (same formula, restated here)."""
    phat = hits / reps
    denom = 1.0 + z * z / reps
    center = (phat + z * z / (2 * reps)) / denom
    half = z * math.sqrt(phat * (1 - phat) / reps
                         + z * z / (4 * reps * reps)) / denom
    lo = max(center - half, 1e-300)
    hi = min(center + half, 1.0)
    return (math.log(hi) - math.log(lo)) / (2 * z)


def _weighted_slope(n_values, log_probs, sigmas):
    x = np.asarray(n_values, dtype=float)
    y = -np.asarray(log_probs)
    w = 1.0 / np.asarray(sigmas) ** 2
    xbar = (w * x).sum() / w.sum()
    ybar = (w * y).sum() / w.sum()
    return float((w * (x - xbar) * (y - ybar)).sum()
                 / (w * (x - xbar) ** 2).sum())


class MonteCarlo(Workload):
    """A decay estimate on a Dirac-start event plus one empirical path.

    The event lives on a two-state chain: there the segment projection in
    ``ball_infimum_rate`` is the exact ball infimum, and the hit count of
    each batch size is binomial with a probability known in closed form.
    """

    name = "montecarlo"

    def make(self, i):
        lib = self.lib
        rng = self.rng(i)
        while True:
            a = float(rng.uniform(0.5, 3.0))     # rate s0 -> s1
            b = float(rng.uniform(0.0, 1.5))     # rate s1 -> s0
            t = float(rng.uniform(0.3, 1.0))
            rate = float(rng.uniform(0.01, 0.025))
            q = b / (a + b) + a / (a + b) * math.exp(-(a + b) * t)
            if -math.log(q) > 1.5 * rate:
                break
        lo, hi = q, 1.0      # boundary p_b > q with KL(p_b | q) = rate
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _binary_kl(mid, q) < rate else (lo, mid)
        p_b = 0.5 * (lo + hi)
        gen2 = lib.validate_generator(["s0", "s1"], [[0.0, a], [b, 0.0]])
        d0 = lib.Measure.dirac(gen2.space, 0)
        # ball of l1 radius 2(1 - p_b) around delta_0: more than p_b of the
        # copies sit in s0 at time t
        event = lib.BallEvent(d0, t, 2.0 * (1.0 - p_b))

        n = _size(i)
        gen = self.model(rng, n)
        mu0 = lib.Measure(gen.space, _strict(rng, n))
        return {
            "gen2": gen2, "d0": d0, "event": event, "q": q, "p_b": p_b,
            "rate": rate, "seed": int(rng.integers(2**31)),
            "gen": gen, "mu0": mu0, "t1": float(rng.uniform(0.5, 1.5)),
            "path_seed": int(rng.integers(2**31)),
        }

    def op(self, d):
        lib = self.lib
        est = lib.estimate_event_decay(d["gen2"], d["d0"], d["event"],
                                       MC_N_VALUES, MC_REPS, d["seed"])
        grid = lib.empirical_trajectory(d["gen"], d["mu0"], MC_COPIES,
                                        d["t1"], MC_GRID, d["path_seed"])
        return est, grid

    def check(self, d, result):
        est, grid = result
        ev = d["event"]
        ref = self.lib.ball_infimum_rate(d["gen2"], d["d0"], ev.target,
                                         ev.time, ev.radius)
        _require(abs(ref - d["rate"]) < SOLVE_TOL,
                 f"ball_infimum_rate {ref!r}, closed form {d['rate']!r}")
        probs = [float(scipy.stats.binom.sf(math.floor(n * d["p_b"]), n, d["q"]))
                 for n in MC_N_VALUES]
        for n, h, p in zip(MC_N_VALUES, est.hits, probs):
            sd = math.sqrt(MC_REPS * p * (1.0 - p))
            _require(abs(h - MC_REPS * p) <= MC_SIGMAS * sd + 1.0,
                     f"n={n}: {h} hits, binomial mean {MC_REPS * p:.1f}")
        # The fitted slope approaches the rate only as n grows; the exact
        # probabilities give the finite-n slope the estimator aims at.
        exact = _weighted_slope(MC_N_VALUES, np.log(probs),
                                [_wilson_log_sigma(MC_REPS * p, MC_REPS)
                                 for p in probs])
        allowed = abs(exact - ref) + MC_SLOPE_REL_TOL * ref + 4.0 * est.stderr
        _require(abs(est.slope - ref) <= allowed,
                 f"slope {est.slope:.4f} vs ball rate {ref:.4f} "
                 f"(finite-n slope {exact:.4f}, allowed {allowed:.4f})")

        gen, nodes = d["gen"], grid.node_times
        exact_law = np.array([d["mu0"].p @ _expm(gen, s) for s in nodes])
        sd = np.sqrt(exact_law * (1.0 - exact_law) / MC_COPIES)
        # three copies of slack keep near-empty states (Poisson counts) fair
        dev = np.abs(grid.measures - exact_law) - (MC_SIGMAS + 1.0) * sd \
            - 3.0 / MC_COPIES
        _require(grid.K == MC_GRID and float(dev.max()) <= 0.0,
                 "empirical law strays from the exact law by more than "
                 "six standard errors and three copies")
        return {}

    def trace_ops(self, seconds):
        return max(2, seconds // 2)


class Cli(Workload):
    """All seven subcommands in process, on one of models/*.json per op."""

    name = "cli"

    def __init__(self, lib, seed, scratch):
        super().__init__(lib, seed, scratch)
        self.models = sorted(Path("models").glob("*.json"))
        if not self.models:
            raise FileNotFoundError("no models/*.json in the working directory")

    def make(self, i):
        lib = self.lib
        rng = self.rng(i)
        path = self.models[i % len(self.models)]
        doc = json.loads(path.read_text(encoding="utf-8"))
        gen = lib.validate_generator(doc["states"], doc["rates"])
        mu0 = lib.Measure(gen.space, np.asarray(doc["initial"], dtype=float))
        n = gen.size
        t = round(float(rng.uniform(0.3, 1.0)), 3)
        evolved = _fix(mu0.p @ _expm(gen, t))
        blend = float(rng.uniform(0.25, 0.75))
        target = blend * evolved + (1.0 - blend) / n
        target = target / target.sum()
        seed = int(rng.integers(2**31))
        out = self.scratch / "cli"
        m, ts = str(path), repr(t)

        def vec(p):
            return ",".join(repr(float(v)) for v in p)

        bridge_csv = out / "bridge" / "bridge_path.csv"
        sim_csv = out / "simulate" / "empirical_path.csv"
        argvs = [
            ["check", "--model", m, "--out", str(out / "check")],
            ["semigroup", "--model", m, "--t", ts,
             "--out", str(out / "semigroup")],
            ["rate", "--model", m, "--t", ts, "--target", vec(target),
             "--out", str(out / "rate")],
            ["bridge", "--model", m, "--t", ts, "--grid", "100",
             "--target", vec(target), "--out", str(bridge_csv.parent)],
            ["simulate", "--model", m, "--t", ts, "--grid", "50",
             "--n", "300", "--seed", str(seed), "--out", str(sim_csv.parent)],
            # each action report lands beside the path it read
            ["action", "--model", m, "--path", str(bridge_csv),
             "--out", str(bridge_csv.parent)],
            ["action", "--model", m, "--path", str(sim_csv),
             "--out", str(sim_csv.parent)],
            ["verify-ldp", "--model", m, "--t", ts, "--n", "10,20,40",
             "--reps", "100", "--radius", "0.4", "--target", vec(evolved),
             "--seed", str(seed), "--out", str(out / "verify-ldp")],
        ]
        return {"gen": gen, "mu0": mu0, "t": t, "target": target,
                "evolved": evolved, "seed": seed, "argvs": argvs, "out": out}

    def op(self, d):
        main = self.lib.cli.main
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return [main(argv) for argv in d["argvs"]]

    def check(self, d, codes):
        lib, cli = self.lib, self.lib.cli
        _require(codes == [0] * len(codes), f"exit codes {codes}")
        gen, mu0, t, out = d["gen"], d["mu0"], d["t"], d["out"]
        space = gen.space

        def report(sub, name):
            return cli.load_report(out / sub / f"{name}_report.json")["outputs"]

        def same(what, got, want):
            _require(got == want, f"{what}: report {got!r}, library {want!r}")

        rep = report("check", "check")
        same("check failures", rep["failed"], 0)

        rep = report("semigroup", "semigroup")
        f = lib.Potential(space, np.linspace(0.0, 1.0, gen.size))
        exact = lib.v_apply(gen, f, t)
        same("semigroup exact", rep["exact"], list(exact.f))
        for row in rep["errors"]:
            approx = lib.resolvent_iterate(gen, f, t, row["n"])
            same(f"semigroup n={row['n']}", row["sup_error"],
                 float(np.abs(approx.f - exact.f).max()))

        opts = lib.SolverOptions(gradient_tol=1e-9)
        nu = lib.Measure(space, d["target"])
        rep = report("rate", "rate")
        res = lib.conditional_rate(gen, mu0, nu, t, opts=opts)
        same("rate", (rep["value"], rep["iterations"], rep["attained"]),
             (res.value, res.iterations, res.attained))

        rep = report("bridge", "bridge")
        b = lib.optimal_bridge(gen, mu0, nu, t, 100, opts=opts)
        same("bridge", (rep["rate"], rep["action"], rep["delivery_error"],
                        rep["action_gap"], rep["boundary"]),
             (b.rate, b.action.value, b.delivery_error, b.action_gap,
              b.boundary))

        rep = report("simulate", "simulate")
        grid = lib.empirical_trajectory(gen, mu0, 300, t, 50, d["seed"])
        read = cli.read_path_csv(out / "simulate" / "empirical_path.csv", space)
        same("simulate path", read.measures.tolist(), grid.measures.tolist())

        for sub, name in (("bridge", "bridge_path"),
                          ("simulate", "empirical_path")):
            rep = report(sub, "action")
            value = lib.path_action(
                gen, cli.read_path_csv(out / sub / f"{name}.csv", space),
                opts=opts).value
            same(f"action of the {sub} path", rep["action"], value)

        rep = report("verify-ldp", "verify_ldp")
        ev = lib.Measure(space, d["evolved"])
        est = lib.estimate_event_decay(gen, mu0, lib.BallEvent(ev, t, 0.4),
                                       [10, 20, 40], 100, d["seed"])
        ref = lib.ball_infimum_rate(gen, mu0, ev, t, 0.4)
        same("verify-ldp", (rep["slope"], rep["stderr"], rep["reference_rate"]),
             (est.slope, est.stderr, ref))
        return {}

    def trace_ops(self, seconds):
        return max(1, seconds // 8)


def build(name, lib, seed, scratch):
    cls = {"doob": Doob, "solves": Solves, "montecarlo": MonteCarlo,
           "cli": Cli}[name]
    return cls(lib, seed, scratch)
