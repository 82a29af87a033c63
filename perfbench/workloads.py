"""The benchmark's workloads: seeded inputs, timed operations, output checks.

Every workload is a fixed list of operations (one *pass*) built from the
seed before timing starts; the program receives only those inputs.  An
operation is one call a user would make: ``pdf_grid`` for one weight set,
``pdf`` at one point, one ``sample_bivariate`` or ``fit_data`` call, or one
``python -m bibeta.cli`` process.

Outcomes of the first pass are checked after timing.  An operation *fails*
when it raises, returns a density off the mpmath referee by more than the
tolerance ``pdf`` states, returns ``inf`` off a divergent cut line (or a
finite value on one), fails a fit check, or exits non-zero.  Failures are
counted, never filtered.  An output that is wrong by more than
``GROSS_RTOL``, a sample outside the open square or off its exact moments,
and CLI output that disagrees with the library make the run incorrect.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from bibeta import cli as bibeta_cli
from bibeta import construction, density, fitting
from bibeta.construction import AlphaBivariate, RandomStream
from bibeta.moments import moment_vector

# the accuracy pdf states: its default tol
STRICT_RTOL = 1e-10
# a miss this large is a wrong formula or route, not lost digits
GROSS_RTOL = 1e-6
NEAR_LINE = 1e-6


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    reasons: Counter = field(default_factory=Counter)

    def fail(self, reason: str, count: int = 1, gross: bool = False) -> None:
        self.failed += count
        self.reasons[reason] += count
        if gross:
            self.correct = False


def _seed_int(seed: int, tag: str) -> int:
    words = np.random.SeedSequence([seed, *tag.encode()]).generate_state(2, np.uint32)
    return int(words[0]) << 32 | int(words[1])


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng(_seed_int(seed, tag))


def _alpha(weights) -> AlphaBivariate:
    return AlphaBivariate(*weights)


def cut_lines(xy: np.ndarray):
    """Exact line membership, mirroring ``classify_region``: x == y, and the
    sign of x + y - 1 from a two-sum residual.  Returns (diag, anti, d)."""
    x, y = xy[:, 0], xy[:, 1]
    s = x + y
    b = s - x
    d = (s - 1.0) + ((x - (s - b)) + (y - b))
    return x == y, d == 0.0, d


def divergent(xy: np.ndarray, weights) -> np.ndarray:
    """Points on a cut line whose weight sum is at most 1: density is inf."""
    a11, a10, a01, a00 = weights
    diag, anti, _ = cut_lines(xy)
    return (diag & (a10 + a01 <= 1.0)) | (anti & (a11 + a00 <= 1.0))


def point_properties(arrays, weight_sets) -> dict:
    """Shares of the input points (a list of (n, 2) arrays) that decide
    which density route and cost apply."""
    counts = Counter()
    for xy in arrays:
        diag, anti, d = cut_lines(xy)
        x, y = xy[:, 0], xy[:, 1]
        on = diag | anti
        lower = x < 0.5
        masks = {
            "near_line": ~on & ((np.abs(x - y) <= NEAR_LINE) | (np.abs(d) <= NEAR_LINE)),
            "on_line": on,
            "ABP": ~on & (d < 0) & (x < y), "APD": ~on & (d < 0) & (x > y),
            "BCP": ~on & (d > 0) & (x < y), "CDP": ~on & (d > 0) & (x > y),
            "LINE_AP": diag & ~anti & lower, "LINE_PC": diag & ~anti & ~lower,
            "LINE_BP": anti & ~diag & lower, "LINE_PD": anti & ~diag & ~lower,
            "CENTER_P": diag & anti,
        }
        counts["points"] += len(xy)
        for key, mask in masks.items():
            counts[key] += int(mask.sum())
    n = counts.pop("points")
    share = {k: v / n for k, v in counts.items()}
    return {
        "points": n,
        "near_line_share": share.pop("near_line"),
        "on_line_share": share.pop("on_line"),
        "region_share": share,
        "weight_sets": len(weight_sets),
        "weight_below_1_share": sum(min(w) < 1.0 for w in weight_sets) / len(weight_sets),
    }


def _check_density(check: Check, weights, x: float, y: float, value, reference=None):
    """Apply the density rules to one output; ``reference`` is the mpmath
    value when this point is refereed."""
    if isinstance(value, BaseException):
        check.fail(f"raised {type(value).__name__}")
        return
    expect_inf = bool(divergent(np.array([[x, y]]), weights)[0])
    if math.isinf(value) or expect_inf:
        if math.isinf(value) != expect_inf:
            check.fail("inf off a divergent line" if math.isinf(value)
                       else "finite on a divergent line", gross=True)
        return
    if not value >= 0.0:
        check.fail("negative or NaN density", gross=True)
        return
    if reference is None:
        return
    err = abs(value - reference) / reference
    if err > GROSS_RTOL:
        check.fail("off the referee beyond 1e-6", gross=True)
    elif err > STRICT_RTOL:
        check.fail("off the referee beyond tol")


class Workload:
    """One fixed pass of operations plus the checks on its outcomes."""

    name = ""
    weight_sets: tuple = ()

    def ops(self):
        """[(kind, callable)] for one untraced pass."""
        raise NotImplementedError

    def trace_ops(self):
        """[(kind, callable)] for the traced pass, run in this process."""
        return self.ops()

    def summarize(self, kind, out):
        """What the check needs of an outcome, taken outside the timed call."""
        return out

    def check(self, outcomes) -> Check:
        raise NotImplementedError

    def table(self, op_times: dict, pass_s: float) -> dict:
        """The workload's own metrics by name, {name: (value, unit)}, from
        the op times by kind and the pass time."""
        raise NotImplementedError

    def input_points(self) -> list:
        """The points the operations evaluate or fit, as (n, 2) arrays."""
        raise NotImplementedError

    def properties(self) -> dict:
        return point_properties(self.input_points(), self.weight_sets)

    def close(self) -> None:
        pass


class Grid(Workload):
    """``pdf_grid`` over fixed weight sets at one resolution (batch density)."""

    name = "grid"
    weight_sets = (
        (2.0, 3.0, 4.0, 5.0),   # every weight above 1
        (0.5, 0.7, 0.8, 0.6),   # every weight below 1, both lines finite
        (2.0, 0.3, 0.4, 2.0),   # a10 + a01 <= 1: the diagonal diverges
        (0.3, 2.0, 3.0, 0.4),   # a11 + a00 <= 1: the antidiagonal diverges
    )
    resolution = 40
    refereed_per_set = 4

    def __init__(self, seed: int, work_dir: str):
        r = self.resolution
        axis = (np.arange(r) + 0.5) / r
        self.lattice = np.column_stack((np.repeat(axis, r), np.tile(axis, r)))
        diag, anti, _ = cut_lines(self.lattice)
        rng = _rng(seed, "grid")
        # per set: a few seeded off-line cells plus one finite cell per line
        self.refereed = []
        off = np.flatnonzero(~(diag | anti))
        for weights in self.weight_sets:
            cells = list(rng.choice(off, self.refereed_per_set, replace=False))
            finite_line = ~divergent(self.lattice, weights)
            for line in (diag, anti):
                candidates = np.flatnonzero(line & finite_line)
                if candidates.size:
                    cells.append(int(rng.choice(candidates)))
            self.refereed.append(sorted(int(c) for c in cells))

    def ops(self):
        r = self.resolution
        return [("grid", lambda a=_alpha(w): density.pdf_grid(a, r)) for w in self.weight_sets]

    def check(self, outcomes) -> Check:
        import referee
        check = Check()
        cells = len(self.lattice)
        for weights, out, refereed in zip(self.weight_sets, outcomes, self.refereed):
            check.attempted += cells
            if isinstance(out, BaseException):
                check.fail(f"raised {type(out).__name__}", count=cells)
                continue
            if out.shape != (cells, 3) or not np.array_equal(out[:, :2], self.lattice):
                check.fail("wrong grid layout", count=cells, gross=True)
                continue
            expect_inf = divergent(self.lattice, weights)
            is_inf = np.isinf(out[:, 2])
            for reason, bad in (("inf off a divergent line", is_inf & ~expect_inf),
                                ("finite on a divergent line", ~is_inf & expect_inf),
                                ("negative or NaN density", ~is_inf & ~(out[:, 2] >= 0.0))):
                if bad.any():
                    check.fail(reason, count=int(bad.sum()), gross=True)
            for i in refereed:
                x, y, v = out[i]
                _check_density(check, weights, x, y, v, referee.density(weights, x, y))
        return check

    def table(self, op_times, pass_s):
        cells = len(self.lattice) * len(self.weight_sets)
        return {"grid_cells_per_s": (cells / pass_s, "1/s")}

    def input_points(self):
        return [self.lattice] * len(self.weight_sets)


class Points(Workload):
    """Scalar ``pdf`` one point at a time (per-call latency, near-line path)."""

    name = "points"
    crowded = (10.0, 0.1, 0.1, 10.0)    # its draws crowd the cut lines
    weight_sets = (
        crowded,
        (2.0, 3.0, 4.0, 5.0),
        (0.5, 0.7, 0.8, 0.6),           # weights below 1, both lines finite
        (0.4, 0.3, 0.4, 0.5),           # weights below 1, both lines divergent
    )
    draws = (400, 200, 200, 0)
    uniform_per_set = 100
    on_line_per_set = 3                 # per line, plus the center
    probe_sets = (2, 3)                 # weight sets probed near each line
    probe_distances = tuple(10.0 ** -k for k in range(6, 13))
    refereed_random = 16

    def __init__(self, seed: int, work_dir: str):
        rng = _rng(seed, "points")
        pts = []                        # (set index, x, y, refereed)
        for s, (weights, n) in enumerate(zip(self.weight_sets, self.draws)):
            if n:
                xy = construction.sample_bivariate(
                    _alpha(weights), n, RandomStream(_seed_int(seed, f"draws{s}")))
                pts += [(s, float(x), float(y), False) for x, y in xy]
            for x, y in rng.uniform(0.0, 1.0, size=(self.uniform_per_set, 2)):
                if 0.0 < x < 1.0 and 0.0 < y < 1.0:
                    pts.append((s, float(x), float(y), False))
        randoms = rng.choice(len(pts), self.refereed_random, replace=False)
        for i in randoms:
            s, x, y, _ = pts[i]
            pts[i] = (s, x, y, True)
        for s in range(len(self.weight_sets)):
            # dyadic coordinates keep x == y and x + y == 1 exact
            for k in rng.integers(2 ** 16, 2 ** 20 - 2 ** 16, size=self.on_line_per_set):
                t = float(k) / 2 ** 20
                pts.append((s, t, t, True))
                pts.append((s, t, 1.0 - t, True))
            pts.append((s, 0.5, 0.5, True))
        for s in self.probe_sets:
            for line in ("diag_low", "diag_high", "anti_left", "anti_right"):
                t = float(rng.uniform(0.1, 0.4))
                side = float(rng.choice((-1.0, 1.0)))
                for delta in self.probe_distances:
                    x, y = {"diag_low": (t + side * delta, t),
                            "diag_high": (1.0 - t + side * delta, 1.0 - t),
                            "anti_left": (t, 1.0 - t + side * delta),
                            "anti_right": (1.0 - t, t + side * delta)}[line]
                    pts.append((s, x, y, True))
        self.points = pts
        self.alphas = [_alpha(w) for w in self.weight_sets]

    def ops(self):
        return [("pdf", lambda a=self.alphas[s], x=x, y=y: density.pdf(a, x, y))
                for s, x, y, _ in self.points]

    def summarize(self, kind, out):
        return out if isinstance(out, BaseException) else out.value

    def check(self, outcomes) -> Check:
        import referee
        check = Check(attempted=len(self.points))
        for (s, x, y, refereed), value in zip(self.points, outcomes):
            weights = self.weight_sets[s]
            ref = referee.density(weights, x, y) if refereed else None
            if ref is not None and math.isinf(ref):
                ref = None              # the divergent-line rule covers it
            _check_density(check, weights, x, y, value, ref)
        return check

    def table(self, op_times, pass_s):
        t = np.asarray(op_times["pdf"]) * 1e6
        return {"pdf_p50_us": (float(np.percentile(t, 50)), "us"),
                "pdf_p99_us": (float(np.percentile(t, 99)), "us"),
                "pdf_samples": (len(t), "count")}

    def input_points(self):
        return [np.array([(x, y) for _, x, y, _ in self.points])]


class SampleFit(Workload):
    """Dirichlet sampling, then moment-matching fits (construction, moments,
    fitting).  Fitted samples come from fixed streams: Nelder-Mead's path,
    and with it the fit time, changes with every sample (0.26 to 0.61 s on
    one weight set over five seeds, 2-core x86_64), which would turn seeds
    into spread."""

    name = "sample-fit"
    weight_sets = ((2.0, 3.0, 4.0, 5.0), (0.5, 0.7, 0.8, 0.6), (10.0, 0.1, 0.1, 10.0))
    pairs = 1_000_000
    fit_streams = (101, 102, 103)
    third_order_set = 0

    def __init__(self, seed: int, work_dir: str):
        self.alphas = [_alpha(w) for w in self.weight_sets]
        self.stream_seeds = [_seed_int(seed, f"sample{i}") for i in range(len(self.alphas))]
        self.fit_data = [construction.sample_bivariate(a, self.pairs, RandomStream(s))
                         for a, s in zip(self.alphas, self.fit_streams)]

    def ops(self):
        ops = []
        for alpha, stream_seed, data in zip(self.alphas, self.stream_seeds, self.fit_data):
            ops.append(("sample", lambda a=alpha, s=stream_seed:
                        construction.sample_bivariate(a, self.pairs, RandomStream(s))))
            ops.append(("fit", lambda d=data: fitting.fit_data(d)))
        third = self.fit_data[self.third_order_set]
        ops.append(("fit3", lambda: fitting.fit_data(third, match_third_order=True)))
        return ops

    def summarize(self, kind, out):
        if kind == "sample" and not isinstance(out, BaseException):
            inside = bool(np.all((out > 0.0) & (out < 1.0)))
            return (out.shape, inside, out.mean(axis=0))
        return out

    def _check_fit(self, check: Check, result, data) -> None:
        if isinstance(result, BaseException):
            check.fail(f"raised {type(result).__name__}")
            return
        m = fitting.sample_central_moments(data)
        if not result.converged:
            check.fail("fit did not converge")
        elif result.objective_value > fitting.objective(fitting.initial_guess(m), m):
            check.fail("fit objective above the initial guess")

    def check(self, outcomes) -> Check:
        check = Check(attempted=len(outcomes))
        samples = outcomes[0:-1:2]
        fits = outcomes[1:-1:2]
        for alpha, sample in zip(self.alphas, samples):
            if isinstance(sample, BaseException):
                check.fail(f"raised {type(sample).__name__}")
                continue
            shape, inside, mean = sample
            mv = moment_vector(alpha)
            se = np.sqrt(np.array([mv.m20, mv.m02]) / self.pairs)
            if shape != (self.pairs, 2) or not inside:
                check.fail("sample outside the open square", gross=True)
            elif np.any(np.abs(mean - (mv.m10, mv.m01)) > 6.0 * se):
                check.fail("sample mean off the exact mean", gross=True)
        for result, data in zip(fits, self.fit_data):
            self._check_fit(check, result, data)
        self._check_fit(check, outcomes[-1], self.fit_data[self.third_order_set])
        return check

    def table(self, op_times, pass_s):
        samples = op_times["sample"]
        return {"sample_pairs_per_s": (self.pairs * len(samples) / sum(samples), "1/s"),
                "fit_p50_s": (statistics.median(op_times["fit"]), "s"),
                "fit3_p50_s": (statistics.median(op_times["fit3"]), "s")}

    def input_points(self):
        return self.fit_data


class Cli(Workload):
    """Fresh ``python -m bibeta.cli`` processes: interpreter start, import,
    argument parsing and 17-digit CSV writing and reading.  The sample that
    ``fit`` reads comes from a fixed seed, for the reason given in
    ``SampleFit``."""

    name = "cli"
    alpha = (2.0, 3.0, 4.0, 5.0)
    grid_alpha = (0.5, 0.7, 0.8, 0.6)
    weight_sets = (alpha, grid_alpha)
    pairs = 100_000
    sample_seed = 7
    resolution = 10

    def __init__(self, seed: int, work_dir: str):
        self.dir = os.path.join(work_dir, "cli")
        os.makedirs(self.dir, exist_ok=True)
        self.path = {k: os.path.join(self.dir, f) for k, f in
                     (("pdf", "pdf.txt"), ("sample", "sample.csv"), ("fit", "fit.json"),
                      ("grid", "grid.csv"), ("stderr", "stderr.log"))}
        x, y = (float(v) for v in _rng(seed, "cli").uniform(0.05, 0.95, size=2))
        self.point = (x, y)
        a = ",".join(repr(w) for w in self.alpha)
        self.argv = {
            "pdf": ["pdf", "--alpha", a, "--point", f"{x!r},{y!r}",
                    "--output", self.path["pdf"]],
            "sample": ["sample", "--alpha", a, "--n", str(self.pairs),
                       "--seed", str(self.sample_seed), "--output", self.path["sample"]],
            "fit": ["fit", "--input", self.path["sample"], "--output", self.path["fit"]],
            "grid": ["grid", "--alpha", ",".join(repr(w) for w in self.grid_alpha),
                     "--resolution", str(self.resolution), "--output", self.path["grid"]],
        }
        self.max_child_rss_kb = 0

    def _process(self, args):
        def run():
            with open(self.path["stderr"], "ab") as err:
                proc = subprocess.Popen([sys.executable, "-m", "bibeta.cli", *args],
                                        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                        stderr=err)
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
            return proc.returncode
        return run

    def ops(self):
        return [(kind, self._process(args)) for kind, args in self.argv.items()]

    def trace_ops(self):
        return [(kind, lambda args=args: bibeta_cli.main(args)) for kind, args in self.argv.items()]

    def rows(self) -> int:
        """CSV rows the pass wrote or read: sample out, fit in, grid out."""
        with open(self.path["sample"]) as fh:
            sample_rows = sum(1 for _ in fh) - 1
        with open(self.path["grid"]) as fh:
            grid_rows = sum(1 for _ in fh) - 1
        return 2 * sample_rows + grid_rows

    def check(self, outcomes) -> Check:
        check = Check(attempted=len(outcomes))
        codes = dict(zip(self.argv, outcomes))
        for kind, code in codes.items():
            if isinstance(code, BaseException) or code != 0:
                check.fail(f"{kind} exited with {code!r}")
        if codes["pdf"] == 0:
            with open(self.path["pdf"]) as fh:
                value = float(fh.read())
            lib = density.pdf(_alpha(self.alpha), *self.point).value
            if not (value == lib or abs(value - lib) <= 1e-12 * abs(lib)):
                check.fail("pdf output differs from the library", gross=True)
        data = None
        if codes["sample"] == 0:
            data = np.loadtxt(self.path["sample"], delimiter=",", skiprows=1)
            lib = construction.sample_bivariate(_alpha(self.alpha), self.pairs,
                                                RandomStream(self.sample_seed))
            if data.shape != lib.shape or not np.allclose(data, lib, rtol=1e-15, atol=0.0):
                check.fail("sample output differs from the library", gross=True)
        if codes["fit"] == 0 and data is not None:
            with open(self.path["fit"]) as fh:
                payload = json.load(fh)
            lib = fitting.fit_data(data)
            got = [payload[k] for k in ("a11", "a10", "a01", "a00", "objective_value")]
            want = [*lib.alpha_star.as_array(), lib.objective_value]
            if not np.allclose(got, want, rtol=1e-9, atol=0.0):
                check.fail("fit output differs from the library", gross=True)
            m = fitting.sample_central_moments(data)
            if payload["objective_value"] > fitting.objective(fitting.initial_guess(m), m):
                check.fail("fit objective above the initial guess")
        if codes["grid"] == 0:
            grid = np.loadtxt(self.path["grid"], delimiter=",", skiprows=1)
            lib = density.pdf_grid(_alpha(self.grid_alpha), self.resolution)
            if grid.shape != lib.shape or not np.allclose(grid, lib, rtol=1e-12, atol=0.0):
                check.fail("grid output differs from the library", gross=True)
        return check

    def table(self, op_times, pass_s):
        return {f"cli_{kind}_s": (statistics.median(op_times[kind]), "s") for kind in self.argv}

    def input_points(self):
        xy = construction.sample_bivariate(_alpha(self.alpha), self.pairs,
                                           RandomStream(self.sample_seed))
        return [xy, np.array([self.point])]

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Grid, Points, SampleFit, Cli)}
