"""Span recording and the per-layer probes of the traced run.

Spans are recorded only from the benchmark's own code, around calls into one
layer (module) of ``metricvoting``; the program itself is not instrumented.
A span's layer is the part of its name before the first dot.
"""

from __future__ import annotations

import contextlib
import io
import resource
import statistics
import time
import warnings
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from metricvoting import (
    build_instance,
    check_event,
    cli,
    estimate_distortion,
    exact_expected_distortion,
    parse_family,
    random_space,
    rankings,
    run_election,
    run_experiment,
    sample_candidates,
    scan,
    solve_parameters,
)

from workloads import BOX, FAMILY_SPECS, Checked

LAYERS = ("spaces", "scoring", "elections", "montecarlo", "condition", "adversarial", "cli")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span
    op: object  # the loop op index, or the probe the span belongs to


class Tracer:
    """Keeps spans in memory; ``dump`` writes them out at the end of a run."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []

    @contextlib.contextmanager
    def span(self, name: str, op=None):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, op)

    def durations(self, name: str) -> list:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self) -> dict:
        """Seconds per layer: each span's duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        totals = dict.fromkeys(LAYERS, 0.0)
        for s, inner in zip(self.spans, child_time):
            layer = s.name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (s.end - s.start) - inner
        return totals

    def records(self) -> list:
        return [asdict(s) for s in self.spans]


def no_span(name: str, op=None):
    return contextlib.nullcontext()


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _repeat(tracer, name, op, fn, budget_s=0.2, max_reps=200):
    """Call ``fn`` in spans until ``budget_s`` is spent; returns the last result.

    At least one call; sub-millisecond calls repeat so their median is steady.
    """
    deadline = time.perf_counter() + budget_s
    for _ in range(max_reps):
        with tracer.span(name, op):
            result = fn()
        if time.perf_counter() >= deadline:
            break
    return result


def _median_ms(tracer, name) -> float:
    return statistics.median(tracer.durations(name)) * 1e3


def probe(inputs, tracer: Tracer, checked: Checked) -> dict:
    """Call every layer once or a few times in spans.

    Returns the per-layer metrics and the printed-only extras: the election
    p90 needs at least 100 samples, so it is missing where elections take
    seconds.  ``tracer`` must be fresh, since the metrics are read back from
    its spans.  Sample counts are fixed by ``inputs``, so count metrics repeat
    exactly.  Failed cross-checks made along the way are added to ``checked``.
    """
    m, extra = {}, {}
    seed = inputs.seed

    # spaces: the workload's own space and one election's full P x n block
    space = _repeat(tracer, "spaces.build", "spaces", inputs.build_space)
    m["spaces.space_setup_ms"] = _median_ms(tracer, "spaces.build")
    vector = inputs.family.score_vector(inputs.n)

    slates = []
    for i in range(inputs.slates):
        with tracer.span("montecarlo.sample_candidates", "elections"):
            slates.append(sample_candidates(space, inputs.n, seed, i))
        with tracer.span("elections.run_election", "elections"):
            run_election(space, slates[-1], vector)
    rows = np.arange(space.npoints)[:, None]
    cols = slates[0][None, :]
    _repeat(tracer, "spaces.dist_block", "spaces", lambda: space.dist_block(rows, cols))
    entries = space.npoints * inputs.n
    m["spaces.dist_block_ms"] = _median_ms(tracer, "spaces.dist_block")
    m["spaces.dist_entries"] = entries
    m["spaces.dist_entries_per_s"] = entries / (m["spaces.dist_block_ms"] / 1e3)

    # elections
    elect = tracer.durations("elections.run_election")
    m["elections.run_election_ms.p50"] = statistics.median(elect) * 1e3
    if len(elect) >= 100:  # at least ten samples beyond the 90th percentile
        extra["elections.run_election_ms.p90"] = float(np.percentile(elect, 90)) * 1e3
    _repeat(tracer, "elections.rankings", "elections", lambda: rankings(space, slates[0]))
    m["elections.rankings_ms"] = _median_ms(tracer, "elections.rankings")
    m["elections.calls"] = len(elect)
    m["montecarlo.sample_candidates_us"] = _median_ms(tracer, "montecarlo.sample_candidates") * 1e3

    # scoring: the workload's vector, and prefix sums at scan-like cells
    _repeat(tracer, "scoring.score_vector", "scoring", lambda: inputs.family.score_vector(inputs.n))
    m["scoring.score_vector_ms"] = _median_ms(tracer, "scoring.score_vector")
    families = [parse_family(spec) for spec in FAMILY_SPECS]
    cells = [(f, n, (3 * n) // 4) for f in families for n in (10, 100, 1000)]

    def prefix_sums():
        for f, n, k in cells:
            f.prefix_sum(n, k)

    _repeat(tracer, "scoring.prefix_sums", "scoring", prefix_sums)
    m["scoring.prefix_sum_us"] = _median_ms(tracer, "scoring.prefix_sums") * 1e3 / len(cells)

    # montecarlo: estimate against the same trials replayed call by call
    est_space, est_family, est_n, trials = inputs.estimate
    with tracer.span("montecarlo.estimate_distortion", "montecarlo"):
        estimate_distortion(est_space, est_family, est_n, trials, seed)
    est_vector = est_family.score_vector(est_n)
    with tracer.span("montecarlo.replay", "montecarlo"):
        for t in range(trials):
            run_election(est_space, sample_candidates(est_space, est_n, seed, t), est_vector,
                         exact=False)
    est_s = tracer.durations("montecarlo.estimate_distortion")[-1]
    replay_s = tracer.durations("montecarlo.replay")[-1]
    m["montecarlo.estimate_ms"] = est_s * 1e3
    m["montecarlo.trial_overhead_us"] = (est_s - replay_s) / trials * 1e6
    enum_space, enum_family, enum_n = inputs.enumeration
    with tracer.span("montecarlo.exact_expected_distortion", "montecarlo"):
        exact_expected_distortion(enum_space, enum_family, enum_n)
    m["montecarlo.exact_slates_per_s"] = enum_space.npoints**enum_n / tracer.durations(
        "montecarlo.exact_expected_distortion"
    )[-1]

    # condition
    cell_count = 0
    scan_s = 0.0
    for spec, family in zip(FAMILY_SPECS, families):
        with tracer.span("condition.scan", spec):
            cell_count += len(scan(family, n_max=inputs.scan_n_max).cells)
        seconds = tracer.durations("condition.scan")[-1]
        m["condition.scan_s." + spec.replace(":", "-").replace("/", "-")] = seconds
        scan_s += seconds
    m["condition.cells_per_s"] = cell_count / scan_s

    m.update(_probe_adversarial(inputs, tracer, checked))
    m["cli.overhead_ms"] = _probe_cli(tracer, seed)

    for layer, seconds in tracer.self_times().items():
        m[layer + ".self_ms"] = seconds * 1e3
    return m, extra


def _probe_adversarial(inputs, tracer, checked) -> dict:
    n_override, big_n_override, trials = inputs.adversarial
    plurality = parse_family("plurality")
    seed = inputs.seed
    with warnings.catch_warnings():
        # desk-scale instances sit below the tail-bound floor n0 on purpose
        warnings.simplefilter("ignore", UserWarning)
        params = solve_parameters(1.25, n_override, big_n_override)
        instance = _repeat(tracer, "adversarial.build_instance", "adversarial",
                           lambda: build_instance(params, seed))
        slates = [sample_candidates(instance.space, params.n_candidates, seed, t) for t in range(64)]
        for slate in slates:
            with tracer.span("adversarial.check_event", "adversarial"):
                check_event(params, slate)
        reports, walls = {}, {}
        cpu = cpu_seconds()
        for jobs in (1, 2):
            with tracer.span("adversarial.run_experiment", f"jobs{jobs}"):
                reports[jobs] = run_experiment(1.25, plurality, trials, seed, n_override,
                                               big_n_override, jobs=jobs)
            walls[jobs] = tracer.durations("adversarial.run_experiment")[-1]
            if jobs == 1:
                cpu_jobs1 = cpu_seconds() - cpu
    if reports[1].records != reports[2].records:  # output must not depend on jobs
        checked.failed += 1
    records = reports[2].records
    return {
        "adversarial.build_instance_ms": _median_ms(tracer, "adversarial.build_instance"),
        "adversarial.check_event_us": _median_ms(tracer, "adversarial.check_event") * 1e3,
        "adversarial.experiment_s.jobs1": walls[1],
        "adversarial.experiment_s.jobs2": walls[2],
        "adversarial.fanout_efficiency": walls[1] / (2 * walls[2]),
        "adversarial.cpu_per_wall": cpu_jobs1 / walls[1],
        "adversarial.events": sum(r.event.occurred for r in records),
        "adversarial.far_winners": sum(r.winner_from_far for r in records),
    }


def _probe_cli(tracer, seed) -> float:
    """One ``estimate`` subcommand against the library calls it makes."""
    trials = 20
    argv = ["estimate", "--random", f"20,{BOX}", "--family", "borda", "--n", "8",
            "--trials", str(trials), "--seed", str(seed), "--jobs", "1"]

    def library():
        space = random_space(seed, 20, BOX)
        estimate_distortion(space, parse_family("borda"), 8, trials, seed)

    def command():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError("metricvoting estimate failed")

    for _ in range(15):  # alternate so drift hits both sides alike
        with tracer.span("cli.main", "cli"):
            command()
        with tracer.span("montecarlo.estimate_library", "cli"):
            library()
    return _median_ms(tracer, "cli.main") - _median_ms(tracer, "montecarlo.estimate_library")
