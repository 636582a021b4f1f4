"""Instrumentation installed from outside the package.

Modules import functions by name (`from .optlayer import solve_qp`), so a
wrapper must replace the function under every name it is looked up by, not
only in its defining module.  `replace_everywhere` does that, and `patched`
undoes every replacement on exit.

Audit is installed on every run: it records, per job, the evidence
run_experiment does not return (worst violation, lowest regret, largest KKT
residual) and the job's timings on the report row.  On timed runs it also
samples the machine's speed during each job and scales the timings by it.

Tracer is installed on traced runs only.  It records a span at each call of
the layers' functions (name, parent span, (method, seed), start, end) in
flat arrays and derives the per-layer metrics from them.
"""

import functools
import gzip
import inspect
import statistics
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from surrogate_dfl import diff, domains, numerics, optlayer, pipelines, surrogate

LAYERS = ("numerics", "diff", "optlayer", "surrogate", "domains", "pipelines")
LAYER_MODULES = (numerics, diff, optlayer, surrogate, domains, pipelines)
# argument validators called from nearly every function: spans around them
# would cost more than the work they time
UNTRACED = {"as_matrix", "as_vector"}
# helpers behind no public boundary that per-layer metrics need
TRACED_PRIVATE = {
    "optlayer": ("_equality_solve", "_phase_one"),  # one _equality_solve call per pivot
    "pipelines": ("_decision_and_grads", "_regret_on"),
}
ERROR_TYPES = ("MaxIterations", "Infeasible", "NumericalBreakdown", "SingularKKT")


@contextmanager
def patched():
    """Yields an undo list; every (owner, name, original) on it is restored on exit."""
    undo = []
    try:
        yield undo
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


def replace_everywhere(owner, name, make_wrapper, undo):
    """Rebind owner.name, and every package-module attribute bound to the same
    object, to make_wrapper(original)."""
    original = vars(owner)[name]
    wrapper = make_wrapper(original)
    setattr(owner, name, wrapper)
    undo.append((owner, name, original))
    if inspect.isclass(owner):
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod is owner or not mod_name.startswith("surrogate_dfl"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, original))


class Audit:
    """Per-job correctness evidence and timings, attached to each report row
    as `row.audit`.

    The wrapper on pipelines._run_single_safe reaches forked pool workers
    because it is installed before run_experiment starts them; the row, with
    its audit, is pickled back to the parent.

    Given a `probe` (a callable that runs a fixed reference job and returns
    its seconds), the audit samples the machine's speed while each job runs:
    at the job's start (the previous job's closing sample, when jobs run back
    to back), right before and after evaluate (the latter closes the job),
    and, once
    `gap` seconds have passed since the last sample, after a training
    instance, before a validation pass and after a test decision in
    evaluate's timed passes.  A sample's speed is ref_s over its seconds.
    Each timing is the raw time less the probe seconds inside it, times the
    mean speed of the samples across it:
    - train_sec_per_epoch: the samples from the job's start to evaluate;
    - inference_sec (the package's median pass): the median pass's probe
      seconds and speed, or the two samples around evaluate when the passes
      are too short to hold a sample;
    - job_s: every sample of the job.
    Without a probe every speed is 1 and the timings are raw.
    """

    def __init__(self, probe=None, ref_s=1.0, gap=0.1):
        self.kkt_max = 0.0
        self.probe = probe
        self.ref_s = ref_s
        self.gap = gap
        self._samples = []  # (phase, seconds) of the current job
        self._last = 0.0
        self._pass_len = 1  # test decisions per timed inference pass
        self._decisions = 0  # test decisions made so far in evaluate
        self._timed_decisions = 0  # test decisions in its timed passes
        self._pass_probes = []  # probe seconds inside each timed pass

    def install(self, undo):
        for name in ("solve_qp", "solve_box_budget_qp"):
            replace_everywhere(optlayer, name, self._residual_probe, undo)
        replace_everywhere(pipelines, "_run_single_safe", self._job_probe, undo)
        if self.probe:
            replace_everywhere(pipelines, "evaluate", self._evaluate_probe, undo)
            # per training instance, inside the timed epochs
            replace_everywhere(pipelines, "_decision_and_grads",
                               lambda fn: self._sampling(fn, "epoch", after=True), undo)
            # per validation pass, outside the timed epochs
            replace_everywhere(pipelines, "_regret_on",
                               lambda fn: self._sampling(fn, "train", after=False), undo)
            # per test decision, inside evaluate's timed passes
            for adapter in (pipelines.PortfolioAdapter, pipelines.MovieRecAdapter):
                for name in ("decision_full", "decision_surrogate"):
                    replace_everywhere(adapter, name, self._pass_sampling, undo)

    def _sample(self, phase, force=True):
        """Runs the probe, if due; returns its seconds, or None."""
        if not self.probe or not (force or time.perf_counter() - self._last >= self.gap):
            return None
        seconds = self.probe()
        self._samples.append((phase, seconds))
        self._last = time.perf_counter()
        return seconds

    def _sampling(self, fn, phase, after):
        @functools.wraps(fn)
        def sampled(*args, **kwargs):
            if not after:
                self._sample(phase, force=False)
            out = fn(*args, **kwargs)
            if after:
                self._sample(phase, force=False)
            return out

        return sampled

    def _evaluate_probe(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            repeats = max(1, bound.get("timing_repeats") or bound["config"].timing_repeats)
            self._pass_len = len(bound["dataset"].test_idx)
            self._pass_probes = [[] for _ in range(repeats)]
            self._sample("evaluate")  # closes training, opens inference
            self._decisions = 0
            self._timed_decisions = repeats * self._pass_len
            try:
                out = fn(*args, **kwargs)
            finally:
                self._timed_decisions = 0
            self._sample("infer")
            return out

        return probe

    def _pass_sampling(self, fn):
        @functools.wraps(fn)
        def sampled(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self._decisions < self._timed_decisions:
                timed_pass = self._pass_probes[self._decisions // self._pass_len]
                self._decisions += 1
                seconds = self._sample("pass", force=False)
                if seconds is not None:
                    timed_pass.append(seconds)
            return out

        return sampled

    def _inference_sec(self, raw):
        """raw (the median pass) less the median pass's probe seconds, times
        the median pass speed."""
        speeds = [sum(self.ref_s / s for s in p) / len(p) for p in self._pass_probes if p]
        if not speeds:
            return raw * self._speed("evaluate", "infer")
        inside = statistics.median(sum(p) for p in self._pass_probes)
        return (raw - inside) * statistics.median(speeds)

    def _residual_probe(self, fn):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            sol = fn(*args, **kwargs)
            self.kkt_max = max(self.kkt_max, sol.kkt_residual)
            return sol

        return probe

    def _speed(self, *phases):
        """Mean speed of the job's samples in phases (all when none given)."""
        seconds = [s for phase, s in self._samples if not phases or phase in phases]
        return sum(self.ref_s / s for s in seconds) / len(seconds) if seconds else 1.0

    def _job_probe(self, fn):
        @functools.wraps(fn)
        def probe(job):
            self.kkt_max = 0.0
            self._pass_probes = []
            # jobs run back to back: the last job's closing sample opens this one
            recent = self._samples and time.perf_counter() - self._last < self.gap
            self._samples = [("train", self._samples[-1][1])] if recent else []
            if not recent:
                self._sample("train")
            first = len(self._samples)
            t0 = time.perf_counter()
            row, extras = fn(job)
            wall = time.perf_counter() - t0
            inside = sum(s for _, s in self._samples[first:])
            if not self._samples or self._samples[-1][0] != "infer":
                self._sample("job")  # evaluate did not run, so nothing closed the job
            in_epochs = sum(s for phase, s in self._samples if phase == "epoch")
            epochs = max(row.epochs_run, 1)
            row.audit = dict(
                extras,
                kkt_residual_max=self.kkt_max,
                job_s=(wall - inside) * self._speed(),
                train_sec_per_epoch=(row.train_sec_per_epoch - in_epochs / epochs)
                * self._speed("train", "epoch", "evaluate"),
                inference_sec=self._inference_sec(row.inference_sec),
                raw_job_s=wall - inside,
                samples=len(self._samples),
            )
            return row, extras

        return probe


class Tracer:
    """Spans in flat arrays: span i has name_id[i], parent[i] (-1 at the top),
    context[i] (index into contexts, a (method, seed) pair) and start/end."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.context = array("i")
        self.start = array("d")
        self.end = array("d")
        self.contexts = [("", -1)]
        self._stack = [-1]
        self._ctx = 0
        self.adjoints = Counter()
        self.zero_adjoints = Counter()
        self.errors = Counter()

    def install(self, undo):
        for mod, layer in zip(LAYER_MODULES, LAYERS):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    public = not name.startswith("_") and name not in UNTRACED
                    if public or name in TRACED_PRIVATE.get(layer, ()):
                        replace_everywhere(mod, name, self._spanner(f"{layer}.{name}"), undo)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            replace_everywhere(
                                obj, meth, self._spanner(f"{layer}.{obj.__name__}.{meth}"), undo
                            )

    def installed(self, name) -> bool:
        return name in self._ids

    def _spanner(self, name):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        sets_context = name == "pipelines.run_single"
        counts_adjoint = name == "optlayer.kkt_adjoint"
        counts_errors = name.startswith("optlayer.")

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                saved = self._ctx
                if sets_context:  # run_single(config, method, seed)
                    self.contexts.append((args[1], args[2]))
                    self._ctx = len(self.contexts) - 1
                i = len(self.start)
                self.name_id.append(nid)
                self.parent.append(self._stack[-1])
                self.context.append(self._ctx)
                self.end.append(0.0)
                self._stack.append(i)
                self.start.append(time.perf_counter())
                try:
                    out = fn(*args, **kwargs)
                except Exception as exc:
                    if counts_errors and not getattr(exc, "_perfbench_counted", False):
                        exc._perfbench_counted = True
                        self.errors[type(exc).__name__] += 1
                    raise
                finally:
                    self.end[i] = time.perf_counter()
                    self._stack.pop()
                    self._ctx = saved
                if counts_adjoint:
                    method = self.contexts[self._ctx][0]
                    self.adjoints[method] += 1
                    self.zero_adjoints[method] += not np.any(out[0])
                return out

            return traced

        return make

    def write(self, path) -> None:
        """All spans as gzipped CSV, one row per span."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,method,seed,start_s,end_s\n")
            for i in range(len(self.start)):
                method, seed = self.contexts[self.context[i]]
                fh.write(f"{i},{self.parent[i]},{self.names[self.name_id[i]]},{method},"
                         f"{seed},{self.start[i]:.9f},{self.end[i]:.9f}\n")

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        """numpy views: name ids, parents, durations, self times."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return names, parent, dur, dur - children

    def mask(self, names, *span_names):
        ids = [self._ids[n] for n in span_names if n in self._ids]
        return np.isin(names, ids)

    def nearest(self, parent, is_anchor):
        """Index of each span's nearest ancestor-or-self with is_anchor, else -1.

        Parents always precede their children in the arrays."""
        out = np.full(len(parent), -1, dtype=np.int64)
        for i in range(len(parent)):
            if is_anchor[i]:
                out[i] = i
            elif parent[i] >= 0:
                out[i] = out[parent[i]]
        return out
