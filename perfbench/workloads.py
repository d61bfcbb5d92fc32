"""The four workloads: seeded inputs, one round of work, and its checks.

Every workload is a closed loop with one client: one operation starts when
the previous one has been timed and checked.  Calls into the package go
through module attributes (``ce.build_df``), so a Tracer can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter

import numpy as np

import coevent as ce
import coevent.cli as ce_cli
from coevent.linalg import ProjectiveDecomposition

import expect
import oracle

EPS_DF = 1e-9
VANISHING_MARGIN = 0.005
SUBPROCESS_TIMEOUT_S = 120
# Amplitude cells of planted-zero DFs.  T1 cancels in two ways ({a, b} and
# {a, c}); T3 cancels as {1, -1}, {i, -i}, both, and {-1, -i, 1 + i}.
T1 = (1, -1, -1)
T3 = (1, -1, 1j, -1j, 1 + 1j)


class Tally:
    """Timed operations plus checked-operation counts for one phase of a run.

    Each operation's wall time is also scaled to the host's speed: multiplied
    by the workload's ``reference_nominal_s`` over the mean time of its
    reference task run just before and just after the operation.  The
    guest's speed changes within seconds with load elsewhere on its host;
    the scaled times vary much less than the wall times.

    The workload's ``expected_error(n, error)``, where it has one, names the
    exceptions that are known failures of the program.  Any other exception
    is a wrong answer.
    """

    def __init__(self, wl=None):
        self.rounds: list[list[float]] = []
        self.by_op: dict = {}
        self.in_process: dict = {}
        self.wall: list[float] = []
        self.refs: list[float] = []
        self.warnings: list = []
        self.reference = getattr(wl, "reference", None)
        self.nominal_s = getattr(wl, "reference_nominal_s", 1.0)
        self.expected = getattr(wl, "expected_error", None) or (lambda n, error: False)
        self.ref_s = 0.0
        self.scale = 1.0
        self.last = 0.0
        self.error = None
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.verified = 0
        self.verified_s = 0.0
        self.max_n = 0
        self.reasons: Counter = Counter()

    def new_round(self):
        """Open a round; its first operation's "before" is timed here."""
        if self.reference is not None:
            self.ref_s = self._time_reference()
        self.rounds.append([])

    def _time_reference(self) -> float:
        seconds = self.reference()
        self.refs.append(seconds)
        return seconds

    @contextlib.contextmanager
    def timed(self, key):
        """Time one operation of the current round.

        An exception from the block is kept in ``error``, not raised: the
        operation counts as failed and the run goes on.
        """
        self.error = None
        t0 = time.perf_counter()
        try:
            yield
        except Exception as exc:  # noqa: BLE001  (any failure of the program)
            self.error = f"{key}: {type(exc).__name__}: {exc}"
        finally:
            self.last = time.perf_counter() - t0
            if self.reference is not None:
                after = self._time_reference()
                self.scale = 2.0 * self.nominal_s / (self.ref_s + after)
                self.ref_s = after
            self.wall.append(self.last)
            self.rounds[-1].append(self.last * self.scale)
            self.by_op.setdefault(key, []).append(self.last * self.scale)

    def settle(self, check, n: int):
        """Record the operation just timed: its error, or what ``check()`` finds."""
        if self.error is not None:
            self.record([], n, self.last, self.error)
        else:
            self.record(check(), n, self.last)

    def record(self, problems: list, n: int, seconds: float | None, error: str | None = None):
        """One checked operation; ``seconds`` is None when it was not timed.

        An error is a failure, and so is any problem the check found.  A
        problem, or an error that is not a known failure, is a wrong answer.
        """
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.wrong += not self.expected(n, error)
            self.reasons[error] += 1
        elif problems:
            self.failed += 1
            self.wrong += 1
            self.reasons[problems[0]] += 1
        else:
            self.max_n = max(self.max_n, n)
            if seconds is not None:
                self.verified += 1
                self.verified_s += seconds


def planted_self_check(check, good, bad_variants) -> list:
    """The check must pass ``good`` and fail every planted wrong answer."""
    problems = []
    probe = Tally()
    probe.record(check(good), 1, None)
    if probe.failed:
        problems.append(f"verifier rejected a correct answer: {probe.reasons.most_common(1)}")
    for what, bad in bad_variants:
        probe = Tally()
        probe.record(check(bad), 1, None)
        if probe.failed != 1:
            problems.append(f"verifier accepted a planted wrong answer ({what})")
    return problems


# ---------------------------------------------------------------------------
# Reference tasks: fixed work that never calls the package, timed before and
# after every operation so that its time can be scaled to the host's speed.
# Each workload uses the task closest to its own work.  The nominal times are
# about the tasks' medians on the machine of record.

PYTHON_REFERENCE_S = 0.0105
NUMPY_REFERENCE_S = 0.005
SUBPROCESS_REFERENCE_S = 0.13


def package_env(root: str) -> dict:
    """The environment with the checkout's src/ on the module path."""
    src = os.path.join(root, "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def fresh_import_s(root: str) -> float:
    """Seconds to import coevent.cli in a fresh interpreter, timed inside it."""
    code = ("import time; t = time.perf_counter(); import coevent.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=package_env(root),
                          check=True, capture_output=True, timeout=SUBPROCESS_TIMEOUT_S)
    return float(proc.stdout)


def python_reference() -> float:
    """Seconds for a fixed pure-Python walk over subset masks."""
    t0 = time.perf_counter()
    kept = 0
    for combo in itertools.combinations(range(22), 5):
        mask = 0
        for i in combo:
            mask |= 1 << i
        kept += mask & 0x2A5A5 != 0
    return time.perf_counter() - t0


def numpy_reference() -> float:
    """Seconds for fixed small dense linear algebra and JSON, as in a report."""
    t0 = time.perf_counter()
    m = np.full((4, 4), 0.1) + np.eye(4)
    for _ in range(280):
        values = np.linalg.eigvalsh(m @ m)
        json.dumps([float(v) for v in values])
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Seeded inputs


def generic_angle(rng) -> float:
    """An angle in (-pi/2, pi/2) where no appendix-theta measure nearly vanishes."""
    while True:
        theta = float(rng.uniform(-math.pi / 2, math.pi / 2))
        if not oracle.near_vanishing(theta, VANISHING_MARGIN):
            return theta


def haar_unitary(rng, d: int) -> np.ndarray:
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def planted_factor(rng, cells) -> np.ndarray:
    """Factor of a DF with planted zero events, histories in seeded order.

    D(i, j) = conj(a_i) a_j inside a hidden cell and 0 across cells; the
    cells are not exposed, so the program searches the whole space.
    """
    amps = np.array([a for cell in cells for a in cell], dtype=complex)
    which = np.repeat(np.arange(len(cells)), [len(c) for c in cells])
    perm = rng.permutation(amps.size)
    factor = np.zeros((amps.size, len(cells)), dtype=complex)
    factor[np.arange(amps.size), which[perm]] = amps[perm]
    return factor / math.sqrt(float(np.sum(np.abs(factor.sum(axis=0)) ** 2)))


def generic_factor(rng, n: int, rank: int) -> np.ndarray:
    """Factor of a generic rank-r DF; only the empty event has measure 0."""
    f = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    return f / math.sqrt(float(np.sum(np.abs(f.sum(axis=0)) ** 2)))


def gram(factor: np.ndarray) -> np.ndarray:
    return np.conjugate(factor) @ factor.T


def make_schema(ket, slices, slice_labels):
    """A program schema from (unitary or None, basis kets) slices."""
    return ce.HistorySchema.from_ket(ket, [
        ce.Slice(ProjectiveDecomposition.from_kets(kets, labels), unitary)
        for (unitary, kets), labels in zip(slices, slice_labels)
    ])


def alternating_slices(theta: float, k: int):
    pm = (None, expect.theta_pair(theta + math.pi / 4.0))
    zo = (None, expect.theta_pair(theta))
    slices = [pm if i % 2 == 0 else zo for i in range(k)]
    labels = [["+", "-"] if i % 2 == 0 else ["0", "1"] for i in range(k)]
    return slices, labels


def random_slices(rng, d: int, k: int):
    labels = [str(i) for i in range(d)]
    slices = [(haar_unitary(rng, d), list(haar_unitary(rng, d).T)) for _ in range(k)]
    return slices, [labels] * k


# ---------------------------------------------------------------------------
# cli


def _complex_pairs(values):
    return [[float(np.real(z)), float(np.imag(z))] for z in values]


class Cli:
    """The 8 shipped commands as subprocesses, in a seeded order per round."""

    name = "cli"
    sweep_steps = 60
    reference_nominal_s = SUBPROCESS_REFERENCE_S

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.env = package_env(root)

    def generate(self, seed: int):
        rng = np.random.default_rng(seed)
        self.order_rng = np.random.default_rng([seed, 1])
        self.theta = (generic_angle(rng), generic_angle(rng))
        while True:
            start = float(rng.uniform(-1.6, -0.2))
            grid = expect.sweep_grid(start, start + 1.5, self.sweep_steps)
            if not any(oracle.near_vanishing(t, VANISHING_MARGIN) for t in grid):
                break
        self.sweep = (start, start + 1.5)
        self.schema = random_slices(rng, 2, 3)
        self.schema_ket = haar_unitary(rng, 2)[:, 0]
        self.df_factor = planted_factor(rng, [T1, T3, (1,), (1j,)])
        schema_doc = {
            "dim": 2,
            "initial": _complex_pairs(self.schema_ket),
            "slices": [{"basis": [_complex_pairs(b) for b in kets], "labels": labels,
                        "unitary": [_complex_pairs(row) for row in unitary]}
                       for (unitary, kets), labels in zip(*self.schema)],
        }
        df_doc = {"entries": [_complex_pairs(row) for row in gram(self.df_factor)]}
        self.schema_path = os.path.join(self.workdir, "schema.json")
        self.df_path = os.path.join(self.workdir, "df.json")
        for path, doc in ((self.schema_path, schema_doc), (self.df_path, df_doc)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        t1, t2 = (repr(t) for t in self.theta)
        self.commands = [
            ("pbr-v1", ["scenario", "run", "pbr-v1"]),
            ("pbr-v2", ["scenario", "run", "pbr-v2"]),
            ("appendix-theta", ["scenario", "run", "appendix-theta", "--theta", t1]),
            ("appendix-hamiltonian", ["scenario", "run", "appendix-hamiltonian", "--theta", t2]),
            ("composite-product", ["scenario", "run", "composite-product"]),
            ("sweep", ["scenario", "sweep", "--start", repr(self.sweep[0]),
                       "--end", repr(self.sweep[1]), "--steps", str(self.sweep_steps)]),
            ("validate", ["scenario", "validate", "--file", self.schema_path]),
            ("analyze", ["df", "analyze", "--file", self.df_path]),
        ]

    def prepare(self) -> list:
        t1, t2 = self.theta
        self.expected = {
            "pbr-v1": expect.expected_scenario("pbr-v1"),
            "pbr-v2": expect.expected_scenario("pbr-v2"),
            "appendix-theta": expect.expected_scenario("appendix-theta", t1),
            "appendix-hamiltonian": expect.expected_scenario("appendix-hamiltonian", t2),
            "composite-product": expect.expected_scenario("composite-product"),
            "sweep": expect.expected_sweep(self.sweep[0], self.sweep[1], self.sweep_steps),
            "validate": oracle.history_labels(self.schema[1]),
            "analyze": oracle.brute_answer(
                self.df_factor, [f"h{i + 1}" for i in range(self.df_factor.shape[0])]),
        }
        problems = expect.golden_problems(self.root)
        argv = dict(self.commands)["pbr-v1"]
        code, out = self._subprocess(argv)
        doc = json.loads(out)
        doc["entries"][0]["coevents"].pop()
        dropped = json.dumps(doc)
        return problems + planted_self_check(
            lambda r: self.check("pbr-v1", *r), (code, out),
            [("wrong exit code", (4, out)), ("dropped co-event", (code, dropped))])

    def reference(self) -> float:
        """Seconds for a fresh interpreter to start and import numpy."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=self.root, env=self.env,
                       check=True, timeout=SUBPROCESS_TIMEOUT_S)
        return time.perf_counter() - t0

    def _subprocess(self, argv):
        proc = subprocess.run([sys.executable, "-m", "coevent.cli", *argv], cwd=self.root,
                              env=self.env, capture_output=True, timeout=SUBPROCESS_TIMEOUT_S)
        return proc.returncode, proc.stdout.decode("utf-8", "replace")

    def check(self, key: str, code: int, out: str) -> list:
        if code != 0:
            return [f"{key}: exit code {code}"]
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            return [f"{key}: output is not JSON"]
        exp = self.expected[key]
        if key == "sweep":
            return expect.check_sweep(doc, exp)
        if key == "validate":
            ok = doc.get("passed") is True and tuple(doc.get("history_labels", ())) == exp
            return [] if ok else ["validate: schema not accepted with the expected labels"]
        if key == "analyze":
            if doc.get("passed") is not True:
                return ["analyze: DF not accepted"]
            return oracle.compare(exp, oracle.answer_from_section(doc), "analyze")
        return expect.check_report(doc, exp)

    def n_of(self, key: str) -> int:
        exp = self.expected[key]
        if key == "validate":
            return len(exp)
        if key == "analyze":
            return len(exp.labels)
        if key == "sweep":
            return 8
        return max(len(a.labels) for a in exp.entries.values())

    def run_round(self, tally: Tally, tracer):
        for i in self.order_rng.permutation(len(self.commands)):
            key, argv = self.commands[i]
            with tally.timed(key):
                code, out = self._subprocess(argv)
            tally.settle(lambda: self.check(key, code, out), self.n_of(key))
            if tracer is not None:
                # The same argv through coevent.cli.main: the work a Tracer
                # wraps, timed for the tracing overhead but not a sample.
                buf = io.StringIO()
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(buf):
                        code = ce_cli.main(argv)
                except Exception as exc:  # noqa: BLE001  (any failure of the program)
                    tally.record([], self.n_of(key), None, f"{key} in process: {exc!r}")
                else:
                    elapsed = (time.perf_counter() - t0) * tally.scale
                    tally.in_process.setdefault(key, []).append(elapsed)
                    tally.record(self.check(key, code, buf.getvalue()), self.n_of(key), None)

    def probes(self, rounds: int) -> dict:
        """Interpreter start and import cost, each measured in a fresh process."""
        bare, imp = [], []
        for _ in range(rounds):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], cwd=self.root, env=self.env,
                           check=True, timeout=SUBPROCESS_TIMEOUT_S)
            bare.append(time.perf_counter() - t0)
            imp.append(fresh_import_s(self.root))
        return {"cli.bare_python_s": float(np.median(bare)),
                "cli.import_s": float(np.median(imp))}


# ---------------------------------------------------------------------------
# sweep


class Sweep:
    """run_scenario + emit_report in process over seeded angles."""

    name = "sweep"
    reference = staticmethod(numpy_reference)
    reference_nominal_s = NUMPY_REFERENCE_S
    points_per_round = 10
    golden_angles = (0.3, 0.7, 1.2, math.atan(1.0 / 3.0))

    def __init__(self, root: str, workdir: str):
        self.root = root

    def generate(self, seed: int):
        rng = np.random.default_rng(seed)
        self.angles = list(self.golden_angles) + [generic_angle(rng) for _ in range(12)]
        self.angles = [self.angles[i] for i in rng.permutation(len(self.angles))]
        self.point = 0

    def prepare(self) -> list:
        self.expected = {}
        for theta in self.angles:
            for name in ("appendix-theta", "appendix-hamiltonian"):
                self.expected[(name, theta)] = expect.expected_scenario(name, theta)
        for name in ("pbr-v1", "pbr-v2", "composite-product"):
            self.expected[(name, None)] = expect.expected_scenario(name)
        problems = expect.golden_problems(self.root)
        doc = json.loads(ce.emit_report(ce.run_scenario("pbr-v1")))
        bad = json.loads(json.dumps(doc))
        bad["entries"][1]["coevents"].pop()
        shifted = json.loads(json.dumps(doc))
        shifted["entries"][0]["measure_vector"][1] += 1e-6
        check = lambda d: expect.check_report(d, self.expected[("pbr-v1", None)])  # noqa: E731
        return problems + planted_self_check(
            check, doc, [("dropped co-event", bad), ("shifted measure", shifted)])

    def run_round(self, tally: Tally, tracer):
        for p in range(self.points_per_round):
            theta = self.angles[self.point % len(self.angles)]
            self.point += 1
            specs = [("appendix-theta", theta), ("appendix-hamiltonian", theta)]
            if p == 0:
                specs += [("pbr-v1", None), ("pbr-v2", None), ("composite-product", None)]
            for name, th in specs:
                params = {} if th is None else {"theta": th}
                exp = self.expected[(name, th)]
                with tally.timed(name):
                    data = ce.emit_report(ce.run_scenario(name, params))
                tally.settle(lambda: expect.check_report(json.loads(data), exp),
                             max(len(a.labels) for a in exp.entries.values()))


# ---------------------------------------------------------------------------
# enumerate


class Enumerate:
    """Zero sets, co-events, partitions and composition on seeded DFs.

    One round solves the whole input set once, one input per operation.
    """

    name = "enumerate"
    reference = staticmethod(python_reference)
    reference_nominal_s = PYTHON_REFERENCE_S
    per_round = True

    def __init__(self, root: str, workdir: str):
        self.root = root

    def generate(self, seed: int):
        rng = np.random.default_rng(seed)
        items = [
            ("analysis", "generic n=14", generic_factor(rng, 14, 2)),
            ("analysis", "generic n=18", generic_factor(rng, 18, 3)),
            ("analysis", "planted n=17", planted_factor(rng, [T3, T1, T3, T1, (1j,)])),
            ("analysis", "planted n=20", planted_factor(rng, [T3, T1, T3, T1, T1, (1,)])),
        ]
        # With 4 and 5 alternating slices some measure vanishes at about 24
        # angles per pi; |theta| in [0.64, 0.76] keeps 0.02 from all of them.
        theta = float(rng.uniform(0.64, 0.76) * rng.choice([-1.0, 1.0]))
        for k, state in ((4, 0), (4, 1), (5, 0)):
            slices, labels = alternating_slices(theta, k)
            ket = expect.theta_states(theta)[state][1]
            items.append(("schema", f"qubit k={k} phi{state + 1}",
                          (ket, slices, labels, make_schema(ket, slices, labels))))
        for n, cells, mode in ((7, [T1, (1, -1), (1, 1j)], "medium"),
                               (7, [T1, (1, -1), (1, 1j)], "weak"),
                               (8, [T3, T1], "medium")):
            items.append(("partitions", f"partitions n={n} {mode}",
                          (planted_factor(rng, cells), mode)))
        for ca, cb in (([T1, (1,)], [T1, (1,)]),
                       ([(1, 1j)], [T1, (1, 1j)]),
                       ([(1, -1), (1j, 1)], [T1, (1, 2j)])):
            items.append(("composition", f"composition {sum(map(len, ca))}x{sum(map(len, cb))}",
                          (planted_factor(rng, ca), planted_factor(rng, cb))))
        self.items = [(kind, label, data, self._program_input(kind, data))
                      for kind, label, data in items]

    @staticmethod
    def _program_input(kind, data):
        if kind == "analysis":
            return gram(data)
        if kind == "schema":
            return data[3]
        if kind == "partitions":
            return gram(data[0])
        return gram(data[0]), gram(data[1])

    def prepare(self) -> list:
        self.expected = []
        for kind, label, data, _ in self.items:
            if kind == "analysis":
                n = data.shape[0]
                exp = oracle.brute_answer(data, [f"h{i + 1}" for i in range(n)])
            elif kind == "schema":
                ket, slices, labels, _ = data
                exp = oracle.brute_answer(
                    oracle.schema_factor(ket, slices), oracle.history_labels(labels),
                    oracle.final_sectors([len(kets) for _, kets in slices]))
            elif kind == "partitions":
                factor, mode = data
                exp = oracle.decoherent_partitions(factor, mode, factor.shape[0])
            else:
                exp = oracle.composition_expected(*data)
            self.expected.append(exp)
        good = self._solve(0)
        bad = good[:-1] + (good[-1][:-1],)
        return planted_self_check(lambda out: self.check(0, out), good,
                                  [("dropped co-event", bad)])

    def _solve(self, i: int):
        kind, _, data, given = self.items[i]
        if kind in ("analysis", "schema"):
            df = ce.raw_df(given) if kind == "analysis" else ce.build_df(given)
            cat = ce.find_zero_sets(df)
            coevents = ce.enumerate_primitive_coevents(df, cat)
            return (df, cat.zero_events_sectorwise(), cat.nontrivial_zero_events(),
                    cat.maximal_zero_events(), tuple(coevents))
        if kind == "partitions":
            df = ce.raw_df(given)
            return ce.find_decoherent_partitions(df, data[1], df.size)
        a, b = given
        return ce.composition_anomalies(ce.raw_df(a), ce.raw_df(b))

    def check(self, i: int, out) -> list:
        kind, label, _, _ = self.items[i]
        exp = self.expected[i]
        if kind in ("analysis", "schema"):
            return oracle.compare(exp, oracle.answer_from_objects(*out), label)
        if kind == "partitions":
            got = frozenset(frozenset(c.mask for c in rep.cells) for rep in out)
            return [] if got == exp else [f"{label}: decoherent partitions differ"]
        emergent = frozenset(e.mask for e in out.emergent_zero)
        violations = frozenset(
            (frozenset(c.mask for c in v.partition_a.cells),
             frozenset(c.mask for c in v.partition_b.cells)) for v in out.weak_violations)
        return [] if (emergent, violations) == exp else [f"{label}: composition differs"]

    def n_of(self, i: int) -> int:
        kind, _, data, _ = self.items[i]
        if kind == "schema":
            return len(oracle.history_labels(data[2]))
        if kind == "composition":
            return data[0].shape[0] * data[1].shape[0]
        factor = data if kind == "analysis" else data[0]
        return factor.shape[0]

    def run_round(self, tally: Tally, tracer):
        for i in range(len(self.items)):
            with tally.timed(self.items[i][1]):
                out = self._solve(i)
            tally.settle(lambda: self.check(i, out), self.n_of(i))
            out = None


# ---------------------------------------------------------------------------
# scale


class Scale:
    """A ladder of random-unitary schemas: enumerate_histories + build_df.

    One round attempts every rung once, failed rungs included, one rung per
    operation.  Only the n >= 64 crash is a known failure; any other
    exception is a wrong answer.  A rung is verified on sampled entries D(i, j) against
    branch vectors propagated here.
    """

    name = "scale"
    reference = staticmethod(numpy_reference)
    reference_nominal_s = NUMPY_REFERENCE_S
    per_round = True
    rungs = ((2, 5), (8, 2), (4, 4), (8, 3), (4, 5), (2, 11))
    sampled_pairs = 64

    def __init__(self, root: str, workdir: str):
        self.root = root

    def generate(self, seed: int):
        rng = np.random.default_rng(seed)
        self.ladder = []
        for d, k in self.rungs:
            slices, labels = random_slices(rng, d, k)
            ket = haar_unitary(rng, d)[:, 0]
            n = d ** k
            pairs = rng.integers(0, n, size=(self.sampled_pairs, 2))
            pairs[: self.sampled_pairs // 4, 1] = pairs[: self.sampled_pairs // 4, 0]
            self.ladder.append((n, ket, slices, labels, pairs, make_schema(ket, slices, labels)))

    def prepare(self) -> list:
        self.expected = []
        for n, ket, slices, labels, pairs, _ in self.ladder:
            shape = [len(kets) for _, kets in slices]
            rows = {}
            for i in set(pairs.ravel().tolist()):
                outcomes = np.unravel_index(i, shape)
                rows[i] = oracle.branch_row(ket, slices, outcomes)
            values = [complex(np.vdot(rows[i], rows[j])) for i, j in pairs.tolist()]
            self.expected.append((oracle.history_labels(labels), values))
        good = self._build(0)
        labels, values = self.expected[0]
        shifted = (labels, [values[0] + 1e-6] + values[1:])
        return planted_self_check(lambda exp: self.check(0, good, exp), self.expected[0],
                                  [("shifted D entry", shifted)])

    @staticmethod
    def expected_error(n: int, error: str) -> bool:
        """The crash of every DF with n >= 64 (ROADMAP item 3) is a known failure."""
        return n >= 64 and "event mask addresses histories outside the space" in error

    def _build(self, r: int):
        schema = self.ladder[r][5]
        space = ce.enumerate_histories(schema)
        return space, ce.build_df(schema)

    def check(self, r: int, out, exp=None) -> list:
        space, df = out
        labels, values = exp if exp is not None else self.expected[r]
        n, pairs = self.ladder[r][0], self.ladder[r][4]
        if space.size != n or df.size != n or tuple(df.space.labels) != labels:
            return [f"n={n}: history space differs"]
        if not df.validation.passed:
            return [f"n={n}: validation failed"]
        got = df.matrix[pairs[:, 0], pairs[:, 1]]
        if np.max(np.abs(got - np.array(values))) > EPS_DF:
            return [f"n={n}: sampled D(i, j) differ"]
        return []

    def run_round(self, tally: Tally, tracer):
        for r in range(len(self.ladder)):
            n = self.ladder[r][0]
            with tally.timed(f"n={n}"):
                out = self._build(r)
            tally.settle(lambda: self.check(r, out), n)
            out = None


WORKLOADS = {w.name: w for w in (Cli, Sweep, Enumerate, Scale)}
