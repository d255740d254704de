"""Traced run: hooks around the calls into each vlab layer, from outside.

Nothing under ``src/`` is edited.  Each hook replaces a module attribute
where its caller binds it (``vlab.paramgeom.ln``, not ``vlab.enclosure.ln``,
because modules import names directly) and is undone afterwards.  Three
kinds of hook:

* span: a timed call recorded as (name, layer, start, end, parent, job id,
  self time), kept in memory and written out when the benchmark ends;
* frame: a timed call that only adds to counters, for calls made thousands
  of times per job (``ln``, ``bareiss_rank``);
* count: a call counter with no clock, for the hottest calls
  (``RealEnclosure.__mul__``).

A layer's self time is the time inside its hooks minus the time inside the
hooks they call.  Time in a job not covered by any hook is the self time of
``cli``.  A hook whose target no longer exists is skipped, and the metrics
that depend on it are reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("cli", "realspec", "enclosure", "bestapprox.search", "bestapprox.records",
          "bestapprox.exponents", "polyalg", "paramgeom", "verify", "bounds",
          "rootisolation")

VIEW_BITS = (128, 256, 512, 1024, 2048, 4096)


def _resolve(path: str):
    """The object holding the last attribute of ``path``, or None."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.times: Dict[str, float] = defaultdict(float)
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, float] = defaultdict(float)
        self.absent: List[Tuple[str, Tuple[str, ...]]] = []
        self.job_id: Optional[str] = None
        self.top_covered = 0.0
        self.job_time = 0.0
        self._stack: List[list] = []  # [start, child_time, span index]
        self._undo: List[tuple] = []
        self._memprobe: Optional[_RssProbe] = None

    # -- hooks -----------------------------------------------------------------

    def hook(self, path: str, name: str, layer: str, kind: str = "frame",
             feeds: Tuple[str, ...] = (), before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> bool:
        owner = _resolve(path)
        attr = path.rpartition(".")[2]
        if owner is None or not hasattr(owner, attr):
            self.absent.append((path, feeds))
            return False
        orig = getattr(owner, attr)
        before, after = self._guard(before, path, feeds), self._guard(after, path, feeds)
        setattr(owner, attr, self._wrap(orig, name, layer, kind, before, after))
        self._undo.append((owner, attr, orig))
        return True

    def _guard(self, callback, path, feeds):
        """An observer that reads a call's arguments stops, and marks its
        metrics absent, if the call's signature no longer fits it."""
        if callback is None:
            return None
        broken = []

        def guarded(*args):
            if broken:
                return
            try:
                callback(*args)
            except (AttributeError, IndexError, KeyError, TypeError):
                broken.append(True)
                self.absent.append((path, feeds))

        return guarded

    def unhook(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        self._stop_memprobe()

    def _wrap(self, orig, name, layer, kind, before, after):
        counts = self.counts
        if kind == "count":
            if before is None:
                def counted(*args, **kwargs):
                    counts[name] += 1
                    return orig(*args, **kwargs)
            else:
                def counted(*args, **kwargs):
                    counts[name] += 1
                    before(args, kwargs)
                    return orig(*args, **kwargs)
            return counted

        tracer = self
        stack = self._stack
        spans = self.spans
        perf = time.perf_counter
        is_span = kind == "span"

        def timed(*args, **kwargs):
            counts[name] += 1
            if before is not None:
                before(args, kwargs)
            parent = stack[-1][2] if stack else None
            index = parent
            if is_span:
                index = len(spans)
                spans.append([name, layer, 0.0, 0.0, parent, tracer.job_id, 0.0])
            frame = [perf(), 0.0, index]
            stack.append(frame)
            error = None
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[0]
                self_time = dur - frame[1]
                tracer.times[name] += dur
                tracer.layer_self[layer] += self_time
                if stack:
                    stack[-1][1] += dur
                    if len(stack) == 1:
                        tracer.top_covered += dur
                if is_span:
                    spans[index][2:4] = [frame[0], end]
                    spans[index][6] = self_time
                if after is not None:
                    after(args, kwargs, None if error else result, error)
            return result

        return timed

    # -- scan memory probe ---------------------------------------------------------

    def _start_memprobe(self, *_):
        if self._memprobe is None:
            self._memprobe = _RssProbe()

    def _stop_memprobe(self, *_):
        if self._memprobe is not None:
            key = "bestapprox.search.scan_peak_mb"
            self.values[key] = max(self.values[key], self._memprobe.stop())
            self._memprobe = None

    # -- jobs ------------------------------------------------------------------------

    def job(self, job_id: str, call: Callable):
        """Run ``call`` as the root span of one job."""
        self.job_id = job_id
        wrapped = self._wrap(call, "job", "cli", "span", None, None)
        start = time.perf_counter()
        try:
            return wrapped()
        finally:
            self.job_time += time.perf_counter() - start
            self.job_id = None


class _RssProbe:
    """Peak growth of resident memory while it runs, sampled every 2 ms from
    /proc/self/statm by one thread.  Sampling RSS, unlike tracemalloc, adds
    nothing to each allocation, so the scan's survivor loop keeps its speed."""

    def __init__(self):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._base = self._peak = self._rss()
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _rss(self) -> int:
        return int(os.pread(self._fd, 64, 0).split()[1]) * self._page

    def _sample(self):
        while not self._done.wait(0.002):
            self._peak = max(self._peak, self._rss())

    def stop(self) -> float:
        """Stop sampling; the peak growth in MB."""
        self._done.set()
        self._thread.join()
        peak = max(self._peak, self._rss())
        os.close(self._fd)
        return (peak - self._base) / 2**20


def install(tracer: Tracer) -> None:
    """Hook every layer boundary the per-layer metrics need."""
    t = tracer
    vals = t.values
    minima_pool = {"max": 0}

    def cells(n_axes: int, height: int) -> int:
        return (2 * height + 1) ** n_axes

    def scan_after(args, kwargs, result, error):
        t._stop_memprobe()
        if result is not None:
            vals["bestapprox.search.scan_cells"] += cells(args[0].n, args[1])
            vals["bestapprox.search.survivors"] += len(result)

    def oracle_before(args, kwargs):
        import vlab.bestapprox.search as search
        n, height = args[1], args[2]
        if height > getattr(search, "_EXACT_PHASE_HEIGHT", {}).get(n, 4):
            vals["bestapprox.search.scan_cells"] += cells(n, height)
            vals["oracle_scanning"] = 1
            t._start_memprobe()

    def oracle_after(args, kwargs, result, error):
        t._stop_memprobe()
        vals["oracle_scanning"] = 0

    def min_candidate_before(args, kwargs):
        if vals["oracle_scanning"]:
            # the oracle hands its scan survivors to the first minimum search
            vals["bestapprox.search.survivors"] += len(args[1])
            vals["oracle_scanning"] = 0
            t._stop_memprobe()

    def sequence_after(args, kwargs, result, error):
        if result is not None:
            vals["records"] += len(result.records)

    def view_before(args, kwargs):
        ctx, bits = args[0], args[1]
        if bits not in getattr(ctx, "_views", {}):
            t.counts[f"bestapprox.search.views_by_bits.{bits}"] += 1

    def window_before(args, kwargs):
        n, h_cut = args[1], args[3]
        vals["paramgeom.window_cells"] += cells(2 * n - 2, h_cut)

    def greedy_before(args, kwargs):
        minima_pool["max"] = max(minima_pool["max"], len(args[0]))

    def minima_after(args, kwargs, result, error):
        vals["paramgeom.candidates_scored"] += minima_pool["max"]
        minima_pool["max"] = 0
        if error is not None and type(error).__name__ == "BudgetExceeded":
            vals["paramgeom.budget_refusals"] += 1
        elif result is not None:
            vals["paramgeom.minima_found"] += len(result)

    def lemma31_after(args, kwargs, result, error):
        for r in result or ():
            if r.applicable:
                vals["verify.lemma31_done"] += 1
            elif r.notes.startswith("skipped"):
                vals["verify.lemma31_skipped"] += 1

    S = "bestapprox.search"
    P = "paramgeom"
    scan_feeds = (f"{S}.scan_s", f"{S}.scan_cells", f"{S}.scan_cells_per_s", f"{S}.survivors",
                  f"{S}.survivors_per_cell", f"{S}.records_per_survivor", f"{S}.scan_peak_mb")
    hooks = [
        # entry points the CLI binds
        ("vlab.cli.parse_xi", "realspec.parse_xi", "realspec", "frame", (), None, None),
        ("vlab.cli.real_from_spec", "realspec.real_from_spec", "realspec", "frame", (), None, None),
        ("vlab.cli.best_approx_sequence", f"{S}.sequence", S, "span", (f"{S}.sequence_s",),
         None, sequence_after),
        ("vlab.cli.min_poly_at_height", f"{S}.oracle", S, "span", (f"{S}.oracle_s",) + scan_feeds,
         oracle_before, oracle_after),
        ("vlab.cli.derive_exponents", "bestapprox.exponents.derive", "bestapprox.exponents",
         "span", ("bestapprox.exponents.derive_s",), None, None),
        ("vlab.cli.enrich_independence", "polyalg.enrich_independence", "polyalg", "span",
         ("polyalg.enrich_independence_s",), None, None),
        ("vlab.cli.ball_to_json", "bestapprox.records.ball_to_json", "bestapprox.records",
         "frame", (), None, None),
        ("vlab.cli._load_sequence", "bestapprox.records.load", "bestapprox.records", "frame",
         (), None, None),
        ("vlab.bestapprox.records.SequenceData.to_json", "bestapprox.records.to_json",
         "bestapprox.records", "frame", (), None, None),
        ("vlab.cli.bounds_table", "bounds.table", "bounds", "span", ("bounds.table_s",),
         None, None),
        ("vlab.cli.format_table_csv", "bounds.format", "bounds", "frame", (), None, None),
        ("vlab.cli.format_table_json", "bounds.format", "bounds", "frame", (), None, None),
        ("vlab.cli.format_table_text", "bounds.format", "bounds", "frame", (), None, None),
        ("vlab.cli.shifted_frame", f"{P}.shifted_frame", P, "frame", (), None, None),
        ("vlab.cli.successive_minima_exact", f"{P}.minima_exact", P, "span",
         (f"{P}.minima_exact_s",), None, minima_after),
        ("vlab.cli.successive_minima_pool", f"{P}.minima_pool", P, "span", (), None, None),
        ("vlab.cli.combined_graph_csv", f"{P}.graph_csv", P, "frame", (), None, None),
        ("vlab.cli.default_q_grid", f"{P}.q_grid", P, "frame", (), None, None),
        ("vlab.cli.graph_svg", f"{P}.graph_svg", P, "frame", (), None, None),
        ("vlab.cli.full_report", "verify.report", "verify", "span", ("verify.other_checks_s",),
         None, None),
        ("vlab.cli.report_json_bytes", "verify.serialize", "verify", "frame", (), None, None),
        # bestapprox.search internals
        (f"vlab.{S}._prefilter_candidates", f"{S}.scan", S, "span", scan_feeds,
         t._start_memprobe, scan_after),
        (f"vlab.{S}._record_sweep", f"{S}.sweep", S, "span", (f"{S}.sweep_s",), None, None),
        (f"vlab.{S}._exact_box_candidates", f"{S}.exact_box", S, "frame", (), None, None),
        (f"vlab.{S}._min_candidate", f"{S}.min_candidate", S, "frame", (),
         min_candidate_before, None),
        (f"vlab.{S}._compare_candidates", f"{S}.compare", S, "count", (f"{S}.compare.calls",),
         None, None),
        (f"vlab.{S}._certify_nonzero", f"{S}.certify", S, "frame", (f"{S}.certify.calls",),
         None, None),
        (f"vlab.{S}._SearchContext.view", f"{S}.view", S, "count",
         tuple(f"{S}.views_by_bits.{b}" for b in VIEW_BITS), view_before, None),
        (f"vlab.{S}.ln", "enclosure.ln", "enclosure", "frame", (), None, None),
        (f"vlab.{S}.real_from_spec", "realspec.real_from_spec", "realspec", "frame", (),
         None, None),
        # paramgeom internals
        (f"vlab.{P}._enumerate_window", f"{P}.window", P, "span", (f"{P}.window_cells",),
         window_before, None),
        (f"vlab.{P}._greedy_independent", f"{P}.greedy", P, "frame",
         (f"{P}.greedy_s", f"{P}.candidates_scored", f"{P}.minima_per_candidate"),
         greedy_before, None),
        (f"vlab.{P}.bareiss_rank", "polyalg.bareiss_rank", "polyalg", "frame", (), None, None),
        (f"vlab.{P}.ln", "enclosure.ln", "enclosure", "frame", (), None, None),
        (f"vlab.{P}.ln_fraction", "enclosure.ln_fraction", "enclosure", "frame", (), None, None),
        (f"vlab.{P}.exp_fraction", "enclosure.exp_fraction", "enclosure", "frame", (),
         None, None),
        # verify internals
        ("vlab.verify.check_lemma31", "verify.lemma31", "verify", "span",
         ("verify.lemma31_s", "verify.lemma31_done", "verify.lemma31_skipped"),
         None, lemma31_after),
        ("vlab.verify.successive_minima_exact", f"{P}.minima_exact", P, "span",
         (f"{P}.minima_exact_s", f"{P}.budget_refusals"), None, minima_after),
        ("vlab.verify.real_from_spec", "realspec.real_from_spec", "realspec", "frame", (),
         None, None),
        ("vlab.verify.ln_fraction", "enclosure.ln_fraction", "enclosure", "frame", (),
         None, None),
        ("vlab.verify.derive_exponents", "bestapprox.exponents.derive",
         "bestapprox.exponents", "span", (), None, None),
        ("vlab.verify.enrich_independence", "polyalg.enrich_independence", "polyalg", "span",
         (), None, None),
        ("vlab.verify.ell_of_k", "polyalg.ell_of_k", "polyalg", "frame", (), None, None),
        ("vlab.verify.meeting_point", f"{P}.meeting_point", P, "frame", (), None, None),
        ("vlab.verify.omega_identity_check", f"{P}.omega_identity", P, "frame", (),
         None, None),
        ("vlab.verify.poly_eval_enclosure", "rootisolation.poly_eval", "rootisolation",
         "frame", (), None, None),
        ("vlab.verify.theta", "bounds.theta", "bounds", "frame", (), None, None),
        # polyalg, exponents, bounds, enclosure internals
        ("vlab.polyalg.bareiss_rank", "polyalg.bareiss_rank", "polyalg", "frame",
         ("polyalg.bareiss_rank.calls", "polyalg.bareiss_rank_s"), None, None),
        ("vlab.bestapprox.exponents.ln_fraction", "enclosure.ln_fraction", "enclosure",
         "frame", (), None, None),
        ("vlab.bounds.refine_root", "rootisolation.refine_root", "rootisolation", "frame",
         ("rootisolation.refine_root.calls",), None, None),
        ("vlab.bounds.isolate_roots", "rootisolation.isolate", "rootisolation", "frame", (),
         None, None),
        ("vlab.bounds.isolate_all_real_roots", "rootisolation.isolate", "rootisolation",
         "frame", (), None, None),
        ("vlab.enclosure.ln_fraction", "enclosure.ln_fraction", "enclosure", "frame",
         ("enclosure.ln_fraction.calls",), None, None),
        ("vlab.enclosure.exp_fraction", "enclosure.exp_fraction", "enclosure", "frame",
         ("enclosure.exp_fraction.calls",), None, None),
        ("vlab.enclosure.RealEnclosure.__mul__", "enclosure.mul", "enclosure", "count",
         ("enclosure.mul.calls",), None, None),
        ("vlab.enclosure.RealEnclosure.__rmul__", "enclosure.mul", "enclosure", "count",
         (), None, None),
    ]
    for path, name, layer, kind, feeds, before, after in hooks:
        t.hook(path, name, layer, kind, feeds, before, after)


def layer_metrics(t: Tracer) -> Dict[str, float]:
    """Per-layer numbers of one traced pass (counts, seconds and ratios)."""
    S, P = "bestapprox.search", "paramgeom"
    v, c, tm = t.values, t.counts, t.times
    self_of = {}
    for span in t.spans:
        self_of[span[0]] = self_of.get(span[0], 0.0) + span[6]
    scan_s = tm[f"{S}.scan"] + self_of.get(f"{S}.oracle", 0.0)
    cells = v[f"{S}.scan_cells"]
    survivors = v[f"{S}.survivors"]
    out = {
        "realspec.real_from_spec.calls": c["realspec.real_from_spec"],
        "realspec.real_from_spec_s": tm["realspec.real_from_spec"],
        "enclosure.ln.calls": c["enclosure.ln"],
        "enclosure.ln_s": tm["enclosure.ln"],
        "enclosure.ln_fraction.calls": c["enclosure.ln_fraction"],
        "enclosure.exp_fraction.calls": c["enclosure.exp_fraction"],
        "enclosure.mul.calls": c["enclosure.mul"],
        f"{S}.sequence_s": tm[f"{S}.sequence"],
        f"{S}.oracle_s": tm[f"{S}.oracle"],
        f"{S}.scan_s": scan_s,
        f"{S}.scan_cells": cells,
        f"{S}.scan_cells_per_s": cells / scan_s if scan_s else 0.0,
        f"{S}.survivors": survivors,
        f"{S}.survivors_per_cell": survivors / cells if cells else 0.0,
        f"{S}.records_per_survivor": v["records"] / survivors if survivors else 0.0,
        f"{S}.sweep_s": tm[f"{S}.sweep"],
        f"{S}.compare.calls": c[f"{S}.compare"],
        f"{S}.certify.calls": c[f"{S}.certify"],
        f"{S}.scan_peak_mb": v[f"{S}.scan_peak_mb"],
        "bestapprox.exponents.derive_s": tm["bestapprox.exponents.derive"],
        "polyalg.bareiss_rank.calls": c["polyalg.bareiss_rank"],
        "polyalg.bareiss_rank_s": tm["polyalg.bareiss_rank"],
        "polyalg.enrich_independence_s": tm["polyalg.enrich_independence"],
        f"{P}.minima_exact.calls": c[f"{P}.minima_exact"],
        f"{P}.minima_exact_s": tm[f"{P}.minima_exact"],
        f"{P}.window_cells": v[f"{P}.window_cells"],
        f"{P}.candidates_scored": v[f"{P}.candidates_scored"],
        f"{P}.minima_per_candidate": (v[f"{P}.minima_found"] / v[f"{P}.candidates_scored"]
                                      if v[f"{P}.candidates_scored"] else 0.0),
        f"{P}.greedy_s": tm[f"{P}.greedy"],
        f"{P}.budget_refusals": v[f"{P}.budget_refusals"],
        "verify.lemma31_s": tm["verify.lemma31"],
        "verify.other_checks_s": tm["verify.report"] - tm["verify.lemma31"],
        "verify.lemma31_done": v["verify.lemma31_done"],
        "verify.lemma31_skipped": v["verify.lemma31_skipped"],
        "bounds.table_s": tm["bounds.table"],
        "rootisolation.refine_root.calls": c["rootisolation.refine_root"],
        "trace.coverage": t.top_covered / t.job_time if t.job_time else 0.0,
        "trace.spans": len(t.spans),
    }
    for bits in VIEW_BITS:
        out[f"{S}.views_by_bits.{bits}"] = c[f"{S}.views_by_bits.{bits}"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = t.layer_self[layer]
    for _, feeds in t.absent:
        for name in feeds:
            out.pop(name, None)
    return out


# -- kernels and import profile ------------------------------------------------------


def _per_call_us(fn: Callable, calls: int, repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def kernels() -> Dict[str, float]:
    """Microbenchmarks of the inner kernels at the CLI's 192-bit precision."""
    from vlab.bestapprox.search import _FixedPointXi
    from vlab.enclosure import e_constant, ln, pi_constant
    from vlab.polyalg import bareiss_rank

    a, b = e_constant(192), pi_constant(192)
    view = _FixedPointXi(pi_constant(256), 4, 192)
    coeffs = (25, -17, 3, 11, -24)
    matrix = [[3, -7, 25, 0, 11], [-24, 5, 9, 13, -2], [8, 8, -19, 21, 4],
              [1, -25, 6, -3, 17]]
    return {
        "enclosure.mul_us": _per_call_us(lambda: a * b, 2000),
        "enclosure.add_us": _per_call_us(lambda: a + b, 4000),
        "enclosure.ln_us": _per_call_us(lambda: ln(a, 192), 1000),
        "bestapprox.search.dot_us": _per_call_us(lambda: view.raw(coeffs), 20000),
        "polyalg.bareiss_rank_us": _per_call_us(lambda: bareiss_rank(matrix), 5000),
    }


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_profile(cwd: str, samples: int = 3) -> Dict[str, float]:
    """Cumulative import seconds of vlab.cli, sympy and numpy from
    ``-X importtime`` (median of fresh interpreters)."""
    names = {"vlab.cli": "cli.import_s", "sympy": "cli.import.sympy_s",
             "numpy": "cli.import.numpy_s"}
    runs: Dict[str, List[float]] = defaultdict(list)
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import vlab.cli"],
                              cwd=cwd, capture_output=True, text=True, timeout=60, check=True)
        seen = dict.fromkeys(names, 0.0)
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if m and m.group(4) in seen:
                seen[m.group(4)] = max(seen[m.group(4)], int(m.group(2)) / 1e6)
        for module, value in seen.items():
            runs[names[module]].append(value)
    return {metric: statistics.median(values) for metric, values in runs.items()}
