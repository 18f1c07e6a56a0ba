"""The four benchmark workloads: seeded inputs, references, one job each.

Each workload builds its inputs from the seed (this is what setup_s covers),
computes its references separately (outside setup_s and the timed phase), and
runs job i through ``run_job(i, call, stats)``.  Every call into protspin goes
through ``call(span_name, fn, *args)`` so a traced run can time each layer
from outside.  A job fails by raising: CheckFailed for a missed reference, or
whatever the library raised.

Continuous inputs of closed-forms and static-oracle come from a randomly
shifted Halton sequence (randomized quasi-Monte Carlo): each value is still
uniform on its range for any seed, but the job list covers the range evenly,
so the cost mix barely moves from seed to seed.  Where the cost is a steep
function of an input (driven-oracle, tabulated-profiles) that input follows a
fixed design instead, explained in the class.  Categorical inputs (profile
kind, knot count, job type) go round-robin on the job index; the Halton bases
are coprime to those cycle lengths so the two do not alias.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import refs

HERE = Path(__file__).resolve().parent


class CheckFailed(Exception):
    """A job's output missed its reference."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


def close(value, reference, atol, rtol=0.0):
    return abs(value - reference) <= atol + rtol * abs(reference)


def radical_inverse(index, base):
    result, fraction = 0.0, 1.0
    while index:
        fraction /= base
        result += fraction * (index % base)
        index //= base
    return result


def shifted_halton(rng, count, bases, shift=True):
    """count x len(bases) points of the Halton sequence, under a random shift mod 1."""
    shift = rng.random(len(bases)) if shift else np.zeros(len(bases))
    return np.array([
        [(radical_inverse(i + 1, b) + s) % 1.0 for b, s in zip(bases, shift)]
        for i in range(count)
    ])


def log_uniform(u, lo, hi):
    return float(lo * (hi / lo) ** u)


def triple_angles(gamma, eta):
    """(gamma_k, eta_k) of an orthonormal triple whose third axis is (gamma, eta)."""
    cg, sg, ce, se = math.cos(gamma), math.sin(gamma), math.cos(eta), math.sin(eta)
    axes = ((cg * ce, cg * se, -sg), (-se, ce, 0.0), (sg * ce, sg * se, cg))
    return [
        (math.atan2(math.hypot(x, y), z), math.atan2(y, x) % (2.0 * math.pi))
        for x, y, z in axes
    ]


def smooth_profile(rng, knots_s):
    """Positive profile values at knots_s, normalized so the interpolant integrates to 1."""
    v = np.ones_like(knots_s)
    for k in (1, 2, 3):
        a, b = rng.uniform(-0.15, 0.15, 2)
        v += a * np.cos(2.0 * math.pi * k * knots_s) + b * np.sin(2.0 * math.pi * k * knots_s)
    area = float(np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(knots_s)))
    return v / area


def exact_su2(c_plus, c_minus):
    """The SU(2) matrix whose first column is (c_plus, c_minus)."""
    return np.array([[c_plus, -c_minus.conjugate()], [c_minus, c_plus.conjugate()]])


class Workload:
    name = ""
    size = 0          # jobs in the seeded list; runs cycle through it
    trace_jobs = 0    # jobs in a traced run, each run untraced and traced

    def __init__(self, ps, seed, workdir):
        self.ps = ps
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.workdir = workdir
        self.build()

    def build(self):
        raise NotImplementedError

    def prepare(self):
        """Compute references; runs after set-up and before timing."""
        raise NotImplementedError

    def run_job(self, i, call, stats):
        raise NotImplementedError

    def corrupt(self):
        """Make job 0's reference wrong, for the benchmark's self-check."""
        raise NotImplementedError


class ClosedForms(Workload):
    name = "closed-forms"
    size = 512
    trace_jobs = 3000
    CLI_EVERY = 8

    def build(self):
        ps = self.ps
        u = shifted_halton(self.rng, self.size, (3, 5, 7, 11))
        self.jobs = []
        for row in u:
            gamma, eta = math.pi * row[1], 2.0 * math.pi * row[2]
            geom = ps.MeasurementGeometry(
                xi=2.0 * row[0], gamma=gamma, eta=eta, omega0T=log_uniform(row[3], 0.1, 1e4))
            strengths = self.rng.uniform(0.0, 0.5, 3)
            fields = tuple(
                ps.FieldSpec(float(x), g, e, direction_index=k + 1)
                for k, (x, (g, e)) in enumerate(zip(strengths, triple_angles(gamma, eta)))
            )
            lab = dict(
                b0=log_uniform(self.rng.random(), 0.5, 20.0),
                grad_b1=log_uniform(self.rng.random(), 1.0, 50.0),
                d=float(self.rng.uniform(0.05, 1.0)),
                t_oven=float(self.rng.uniform(300.0, 800.0)),
                gamma=float(self.rng.uniform(0.0, math.radians(80.0))),
            )
            p_max = log_uniform(self.rng.random(), 1e-4, 0.5)
            self.jobs.append((geom, fields, lab, p_max))
        self.profiles = {
            "constant": ps.CouplingProfile.constant(),
            "raised-cosine": ps.CouplingProfile.raised_cosine(),
            "optimized": ps.CouplingProfile.optimized(),
        }
        self.kinds = {name: p.kind for name, p in self.profiles.items()}
        self.cli_offset = int(self.rng.integers(1 << 16))

    def prepare(self):
        self.cli_cases = json.loads((HERE / "cli_cases.json").read_text())
        self.refs = []
        for geom, fields, lab, p_max in self.jobs:
            xi, gamma, eta, w = geom.xi, geom.gamma, geom.eta, geom.omega0T
            x = 0.5 * w
            b = math.sqrt(1.0 + xi * xi + 2.0 * xi * math.cos(gamma))
            s = xi * math.sin(gamma)
            rim = 1.0 + xi * math.cos(gamma)
            w_minus = s * s / (2.0 * b * (b + abs(rim)))
            w_plus = 1.0 - w_minus
            if rim < 0.0:
                w_plus, w_minus = w_minus, w_plus
            phased = {name: refs.trig_fourier(refs.TRIG_PROFILES[name], w) for name in self.profiles}
            prefactor = refs.first_order_prefactor(xi, gamma, eta, w)
            ratios = {"constant": 1.0}
            if w >= 4.0 * math.pi:
                ratios["raised-cosine"] = math.pi ** 4 / x ** 4
                ratios["optimized"] = 16.0 * math.pi ** 8 / x ** 8
            sinc_x = math.sin(x) / x if x else 1.0
            coeffs = [0.5 * w * f.xi * math.sin(f.gamma) * complex(math.cos(f.eta), math.sin(f.eta))
                      for f in fields]
            self.refs.append(dict(
                a_exact=1j * complex(math.cos(eta), math.sin(eta)) * x * s
                * (math.sin(x * b) / (x * b) if x * b else 1.0),
                p_envelope=min(1.0, s * s / (b * b)),
                p_taylor=s * s,
                reversal=(w_minus * w_minus / (w_plus * w_plus + w_minus * w_minus), (0.5 * s) ** 4),
                phased=phased,
                first_order={name: prefactor * value for name, value in phased.items()},
                ratios=ratios,
                simultaneous=1j * sum(coeffs) * sinc_x,
                terms=[abs(c) * abs(sinc_x) for c in coeffs],
                xi_eff=math.sqrt(sum(f.xi * f.xi for f in fields)),
                omega_2pi=2.0 * math.pi * max(1, round(w / (2.0 * math.pi))),
                fidelity=math.sin(gamma),
                xi_lab=lab["grad_b1"] * lab["d"] / lab["b0"],
                grad_budget=math.sqrt(p_max / (1.0 - p_max)) * lab["b0"] / lab["d"],
            ))

    def corrupt(self):
        self.refs[0]["a_exact"] *= 1.0 + 1e-6

    def run_job(self, i, call, stats):
        ps = self.ps
        geom, fields, lab, p_max = self.jobs[i]
        ref = self.refs[i]

        a = call("exact", ps.amplitude_exact, geom).amplitude_minus
        check(close(a, ref["a_exact"], 1e-15, 1e-12), "amplitude_exact")
        correct, reversed_ = call("exact", ps.survival_split, geom)
        check(abs(abs(correct + reversed_) ** 2 + abs(a) ** 2 - 1.0) <= 1e-12, "probability conservation")
        p_env = call("exact", ps.amplitude_envelope, geom).probability_minus
        check(close(p_env, ref["p_envelope"], 1e-15, 1e-12), "amplitude_envelope")
        check(close(call("exact", ps.probability_taylor, geom), ref["p_taylor"], 1e-15, 1e-12),
              "probability_taylor")
        exact, leading = call("exact", ps.reversal_probability, geom)
        check(close(exact, ref["reversal"][0], 1e-15, 1e-10)
              and close(leading, ref["reversal"][1], 1e-300, 1e-12), "reversal_probability")

        for name, profile in self.profiles.items():
            value = call("core.phased_integral_builtin", ps.phased_integral, profile, geom.omega0T)
            check(close(value, ref["phased"][name], 1e-12, 1e-9), f"phased_integral {name}")
            fo = call("dyson", ps.first_order_amplitude, profile, geom)
            check(close(fo.amplitude, ref["first_order"][name], 1e-12 * (1.0 + abs(ref["first_order"][name])), 1e-9),
                  f"first_order_amplitude {name}")
            check(abs(fo.amplitude) <= fo.envelope_magnitude * (1.0 + 1e-12) + 1e-300,
                  f"first-order amplitude outside its envelope ({name})")
        for name, ratio in ref["ratios"].items():
            value = call("dyson", ps.reduction_ratio, self.kinds[name], geom.omega0T)
            check(close(value, ratio, 1e-300, 1e-12), f"reduction_ratio {name}")

        config = call("multimeas", ps.MultiFieldConfig, fields, geom.omega0T)
        sim = call("multimeas", ps.simultaneous_amplitude, config)
        check(close(sim, ref["simultaneous"], 1e-15, 1e-12), "simultaneous_amplitude")
        succ = call("multimeas", ps.successive_amplitude, config)
        terms = call("multimeas", ps.term_magnitudes, config)
        check(all(close(t, r, 1e-15, 1e-12) for t, r in zip(terms, ref["terms"]))
              and abs(succ) <= sum(terms) * (1.0 + 1e-12) + 1e-15, "term magnitudes")
        combined = call("multimeas", ps.combined_field_geometry, config)
        check(close(combined.xi, ref["xi_eff"], 1e-15, 1e-12), "combined_field_geometry")
        periodic = call("multimeas", ps.MultiFieldConfig, fields, ref["omega_2pi"])
        check(abs(call("multimeas", ps.simultaneous_amplitude, periodic)
                  - call("multimeas", ps.successive_amplitude, periodic)) <= 1e-12,
              "simultaneous equals successive at a 2 pi multiple")

        _, fid = call("reconstruct", ps.corrupted_reconstruction, geom.gamma, geom.eta)
        check(abs(fid - ref["fidelity"]) <= 1e-12, "corrupted-reconstruction fidelity")

        params = call("design", ps.LabParameters.potassium, **lab)
        report = call("design", ps.derive_report, params)
        check(close(report.xi, ref["xi_lab"], 0.0, 1e-12), "design xi")
        grad = call("design", ps.required_gradient, report.delta_s, params)
        check(abs(grad / lab["grad_b1"] - 1.0) <= 1e-9, "gradient round trip")
        check(close(call("design", ps.xi_budget, p_max, params), ref["grad_budget"], 0.0, 1e-12), "xi_budget")

        if i % self.CLI_EVERY == self.CLI_EVERY - 1:
            case = self.cli_cases[(i // self.CLI_EVERY + self.cli_offset) % len(self.cli_cases)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = call("cli.main", ps.cli.main, case["argv"])
            data = out.getvalue().encode()
            stats["cli.stdout_bytes"] += len(data)
            check(code == 0 and data == case["stdout"].encode(), f"cli {' '.join(case['argv'])}")


class StaticOracle(Workload):
    name = "static-oracle"
    size = 48
    trace_jobs = 48
    CROSSCHECK_EVERY = 8

    def build(self):
        ps = self.ps
        u = shifted_halton(self.rng, self.size, (3, 5, 7, 11))
        constant = ps.CouplingProfile.constant()
        self.jobs = []
        for i, row in enumerate(u):
            gamma, eta = math.pi * row[1], 2.0 * math.pi * row[2]
            omega0T = log_uniform(row[3], 0.1, 1e3)
            kind = i % 4
            if kind < 2:
                geom = ps.MeasurementGeometry(xi=2.0 * row[0], gamma=gamma, eta=eta, omega0T=omega0T)
                self.jobs.append((geom, ps.HamiltonianSchedule.single(geom, constant)))
                continue
            fields = tuple(
                ps.FieldSpec(float(x), g, e, direction_index=k + 1)
                for k, (x, (g, e)) in enumerate(zip(self.rng.uniform(0.0, 0.5, 3), triple_angles(gamma, eta)))
            )
            config = ps.MultiFieldConfig(fields, omega0T)
            make_schedule = ps.successive_schedule if kind == 2 else ps.simultaneous_schedule
            self.jobs.append((None, make_schedule(config)))
        self.constant = constant
        self.plus = ps.SpinState.plus()

    def prepare(self):
        # The first column of each segment's exact SU(2) propagator is
        # (survival amplitude, flip amplitude); a schedule composes them.
        self.refs = []
        for _, schedule in self.jobs:
            unitary = np.eye(2, dtype=complex)
            for seg in schedule.segments:
                correct, reversed_ = self.ps.survival_split(seg.geom)
                flip = self.ps.amplitude_exact(seg.geom).amplitude_minus
                unitary = exact_su2(correct + reversed_, flip) @ unitary
            self.refs.append((complex(unitary[0, 0]), complex(unitary[1, 0])))

    def corrupt(self):
        c_plus, c_minus = self.refs[0]
        self.refs[0] = (c_plus, c_minus + 1e-6)

    def run_job(self, i, call, stats):
        geom, schedule = self.jobs[i]
        if geom is not None and i % self.CROSSCHECK_EVERY == 1:
            report = call("oracle.crosscheck", self.ps.crosscheck, geom, self.constant)
            stats["oracle.crosscheck.steps_used"] += report.steps_used
            check(report.steps_used >= 2 ** 15 and report.convergence_order is None, "crosscheck report")
            check(report.exact_deviation <= 1e-10, f"crosscheck exact deviation {report.exact_deviation:.3g}")
            return
        state = call("oracle.propagate", self.ps.propagate, schedule, self.plus)
        ref_plus, ref_minus = self.refs[i]
        dev = max(abs(state.c_plus - ref_plus), abs(state.c_minus - ref_minus))
        check(dev <= 1e-10, f"static propagate deviation {dev:.3g}")


class DrivenOracle(Workload):
    name = "driven-oracle"
    size = 48
    trace_jobs = 48
    TOLERANCE = 1e-9

    def build(self):
        # The step count, hence the cost, is a step function of (profile,
        # omega0T, xi, gamma), and the median job sits near the 2^15 -> 2^16
        # step.  A random draw of those four would move job_p50_ms from seed to
        # seed, so they follow a fixed design: the profile kind round-robin and
        # (omega0T, xi, gamma) on the unshifted Halton points, each uniform or
        # log-uniform on its range.  The seed sets eta, the tabulated profile
        # shapes and the job order.
        ps = self.ps
        u = shifted_halton(self.rng, self.size, (5, 7, 11), shift=False)
        knots = np.linspace(0.0, 1.0, 129)
        self.jobs = []
        for k in self.rng.permutation(self.size):
            row = u[k]
            kind = k % 3
            if kind == 0:
                spec, profile = "raised-cosine", ps.CouplingProfile.raised_cosine()
            elif kind == 1:
                spec, profile = "optimized", ps.CouplingProfile.optimized()
            else:
                values = smooth_profile(self.rng, knots)
                spec = (knots, values)
                profile = ps.CouplingProfile.tabulated(zip(knots.tolist(), values.tolist()))
            geom = ps.MeasurementGeometry(
                xi=log_uniform(row[1], 1e-4, 0.5), gamma=math.pi * row[2],
                eta=float(self.rng.uniform(0.0, 2.0 * math.pi)), omega0T=log_uniform(row[0], 1.0, 200.0))
            crosscheck = (k // 3) % 4 == 3
            self.jobs.append((spec, profile, geom, ps.HamiltonianSchedule.single(geom, profile), crosscheck))
        self.plus = ps.SpinState.plus()

    def prepare(self):
        # Fourth-order Magnus with Richardson extrapolation, written
        # independently of the library; agrees with itself to ~1e-15 here.
        self.refs = []
        for spec, _, geom, _, _ in self.jobs:
            args = (geom.xi, geom.gamma, geom.eta, geom.omega0T)
            c_plus, c_minus = refs.driven_amplitudes(spec, *args)
            if isinstance(spec, str):
                phased = refs.trig_fourier(refs.TRIG_PROFILES[spec], geom.omega0T)
            else:
                phased = refs.piecewise_linear_fourier(*spec, geom.omega0T)
            first_order = refs.first_order_prefactor(*args) * phased
            self.refs.append((c_plus, c_minus, abs(c_minus - first_order)))

    def corrupt(self):
        c_plus, c_minus, fo_dev = self.refs[0]
        self.refs[0] = (c_plus, c_minus + 1e-6, fo_dev + 1e-6)

    def run_job(self, i, call, stats):
        _, profile, geom, schedule, crosscheck = self.jobs[i]
        ref_plus, ref_minus, ref_fo_dev = self.refs[i]
        if crosscheck:
            report = call("oracle.crosscheck", self.ps.crosscheck, geom, profile)
            stats["oracle.crosscheck.steps_used"] += report.steps_used
            steps = report.steps_used
            check(2 ** 15 <= steps <= 2 ** 22 and steps & (steps - 1) == 0, f"crosscheck steps {steps}")
            check(report.exact_deviation is None, "crosscheck exact deviation on a driven profile")
            check(abs(report.first_order_deviation - ref_fo_dev) <= self.TOLERANCE,
                  "crosscheck first-order deviation")
            order = report.convergence_order
            check(order is None or 1.0 < order < 3.0, f"crosscheck convergence order {order}")
            return
        state = call("oracle.propagate", self.ps.propagate, schedule, self.plus)
        dev = max(abs(state.c_plus - ref_plus), abs(state.c_minus - ref_minus))
        check(dev <= self.TOLERANCE, f"driven propagate deviation {dev:.3g}")


class TabulatedProfiles(Workload):
    name = "tabulated-profiles"
    size = 9
    trace_jobs = 9
    KNOTS = (33, 129, 513)
    BANDS = ((1.0, 1e2), (1e2, 1e4), (1e4, 1e6))

    def build(self):
        # Every job evaluates one omega0T in each band, so together they span
        # [1, 1e6] log-uniformly.  Within a band the values are the upper ends
        # of `size` equal-probability log strata, not random draws: cost and
        # memory grow linearly with omega0T, so the top values set both, and a
        # fixed ladder gives every seed the same cost mix and the same largest
        # omega0T (1e6).  The top-band ladder pairs with the knot counts in a
        # fixed way; the seed sets the lower-band pairing, the knot positions,
        # the profile shapes and the geometries.  The job with omega0T = 1e6
        # runs first, so any run reaches the peak memory.
        ps = self.ps
        ladders = [
            [log_uniform((k + 1) / self.size, lo, hi) for k in range(self.size)]
            for lo, hi in self.BANDS
        ]
        pairing = [self.rng.permutation(self.size) for _ in self.BANDS[:-1]]
        # A fixed order too: glibc's allocator, and so the time to fault in
        # fresh pages, depends on which large allocation came before.
        order = [self.size - 1] + list(range(self.size - 1))
        self.jobs = []
        for i, k in enumerate(order):
            n = self.KNOTS[k % 3]
            jitter = self.rng.uniform(-0.4, 0.4, n - 2)
            knots = np.concatenate(([0.0], (np.arange(1, n - 1) + jitter) / (n - 1), [1.0]))
            values = smooth_profile(self.rng, knots)
            path = self.workdir / f"profile-{i:03d}.txt"
            path.write_text("# s gT\n" + "".join(f"{s!r} {v!r}\n" for s, v in zip(knots.tolist(), values.tolist())))
            omegas = [ladder[p[k]] for ladder, p in zip(ladders, pairing)] + [ladders[-1][k]]
            geoms = [
                ps.MeasurementGeometry(xi=float(self.rng.uniform(0.0, 0.5)),
                                       gamma=float(self.rng.uniform(0.0, math.pi)),
                                       eta=float(self.rng.uniform(0.0, 2.0 * math.pi)), omega0T=w)
                for w in omegas
            ]
            self.jobs.append((path, knots, values, geoms))

    def prepare(self):
        self.refs = []
        for _, knots, values, geoms in self.jobs:
            entries = []
            for g in geoms:
                phased = refs.piecewise_linear_fourier(knots, values, g.omega0T)
                entries.append((phased, refs.first_order_prefactor(g.xi, g.gamma, g.eta, g.omega0T) * phased))
            self.refs.append(entries)

    def corrupt(self):
        phased, first_order = self.refs[0][0]
        self.refs[0][0] = (phased + 1e-6, first_order)

    def run_job(self, i, call, stats):
        ps = self.ps
        path, knots, values, geoms = self.jobs[i]
        profile = call("core.profile_load", ps.CouplingProfile.from_file, path)
        check(profile.samples == tuple(zip(knots.tolist(), values.tolist())), "profile file round trip")
        residual = call("core.normalization_residual", ps.normalization_residual, profile)
        check(residual <= 1e-10, f"normalization residual {residual:.3g}")
        for geom, (ref_phased, ref_first) in zip(geoms, self.refs[i]):
            value = call("core.phased_integral_tabulated", ps.phased_integral, profile, geom.omega0T)
            check(close(value, ref_phased, 1e-11, 1e-9), f"tabulated phased_integral at {geom.omega0T:.6g}")
            fo = call("dyson", ps.first_order_amplitude, profile, geom)
            scale = abs(refs.first_order_prefactor(geom.xi, geom.gamma, geom.eta, geom.omega0T))
            check(close(fo.amplitude, ref_first, 1e-11 * scale, 1e-9), "tabulated first_order_amplitude")
            check(abs(fo.amplitude) <= fo.envelope_magnitude * (1.0 + 1e-12) + 1e-300,
                  "tabulated first-order amplitude outside its envelope")


WORKLOADS = {w.name: w for w in (ClosedForms, StaticOracle, DrivenOracle, TabulatedProfiles)}
