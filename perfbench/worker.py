"""One benchmark workload, run inside a fresh interpreter.

    python3 perfbench/worker.py setup --workload W --work DIR --root ROOT
    python3 perfbench/worker.py run   --workload W --work DIR --root ROOT --seconds S --trace 0|1

``setup`` imports ``sourcescope`` and builds what scoring needs, then
reports how long each step took, as one JSON object.  ``run`` measures the
workload (trace 0) or replays it step by step with a span around every
call into a layer (trace 1).  It is driven by ``run.py`` over its stdin and
stdout: before each pass it prints ``{"progress": ...}`` and reads the next
URL list as one JSON line (see ``Feed``); at the end it prints
``{"result": ...}``.  Every answer is checked against the ground truth the
corpus generator wrote.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import resource
import socket
import statistics
import sys
import time
from pathlib import Path

clock = time.perf_counter


def offline_only() -> None:
    """Refuse every name lookup: the workloads read their sites from disk,
    so a request that tries the network fails instead of leaving the machine."""

    def refused(host, *args, **kwargs):
        raise OSError(f"the benchmark runs offline, no lookup of {host!r}")

    socket.getaddrinfo = refused


def import_checked(root: Path):
    import sourcescope
    if not Path(sourcescope.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"sourcescope imported from {sourcescope.__file__}, not from {root / 'src'}")
    return sourcescope


def build_scorer(sourcescope, work: Path, meta: dict):
    """The workload's known-domain DB, the lexicon and the model."""
    if meta.get("known_domains"):
        db = sourcescope.load_known_domains(work / meta["known_domains"])
    else:
        db = sourcescope.default_known_domains()
    return db, sourcescope.default_lexicon(), sourcescope.MODEL_II


def setup_probe(args) -> dict:
    t0 = clock()
    sourcescope = import_checked(args.root)
    t1 = clock()
    build_scorer(sourcescope, args.work, json.loads((args.work / "meta.json").read_text("utf-8")))
    t2 = clock()
    return {"import_ms": (t1 - t0) * 1e3, "db_build_ms": (t2 - t1) * 1e3}


# --------------------------------------------------------------------------
# checks against the ground truth
# --------------------------------------------------------------------------

OK, KNOWN_DEFECT, FAILED = "ok", "known-defect", "failed"


def check_score(case: dict, report, error) -> str:
    """``ok`` when path and bits match the truth; ``known-defect`` when the
    only difference is the one a trap slice was built to show; else ``failed``."""
    if error is not None or report is None:
        return FAILED
    bits = report.features.as_dict() if report.features is not None else None
    if report.path == case["path"] and bits == case["bits"]:
        return OK
    trap = case["trap"]
    if trap and trap["kind"] == "short-name" and report.path == "mimicry-screen":
        return KNOWN_DEFECT
    if trap and trap["kind"] == "substring" and report.path == case["path"] and bits:
        wrong = {name for name in bits if bits[name] != case["bits"][name]}
        if wrong and wrong <= set(trap["bits"]) and all(bits[name] == 1 for name in wrong):
            return KNOWN_DEFECT
    return FAILED


def check_train(meta: dict, result) -> str:
    model = result.fit.model
    expected = dict(meta["coefficients"], intercept=meta["intercept"])
    fitted = dict(model.coefficients, intercept=model.intercept)
    numbers = [*fitted.values(), *result.slopes.values(), result.diagnostics.aic,
               result.diagnostics.mcfadden, *result.diagnostics.vif.values(),
               *(w.std_error for w in result.wald.values())]
    if set(fitted) != set(expected) or not all(map(math.isfinite, numbers)):
        return FAILED
    # 0.25 is over five standard errors of any coefficient at 10^5 rows.
    return OK if all(abs(fitted[k] - expected[k]) < 0.25 for k in expected) else FAILED


def check_analyze(result) -> str:
    n = len(result.variables)
    rhos = [result.correlations.rho(i, j) for i in range(n) for j in range(n)]
    stats = [s for _, _, row in result.chi_square_rows for s in (row.statistic, row.p_value)]
    if not all(math.isfinite(x) and -1.0 <= x <= 1.0 for x in rhos):
        return FAILED
    if not all(map(math.isfinite, stats)):
        return FAILED
    # the generating model gives padlock a negative coefficient on the label
    return OK if result.correlations.rho(0, 1) < 0 else FAILED


class Tally:
    """Operations sent, succeeded, failed and known-defect, per phase."""

    def __init__(self):
        self.phases: dict[str, dict[str, int]] = {}

    def add(self, phase: str, outcome: str) -> None:
        row = self.phases.setdefault(phase, {"sent": 0, OK: 0, FAILED: 0, KNOWN_DEFECT: 0})
        row["sent"] += 1
        row[outcome] += 1

    def total(self, key: str) -> int:
        return sum(row[key] for row in self.phases.values())


TAIL_SAMPLES = 100          # closed-loop samples at least, on scoring workloads
BATCH_WORKERS = 8           # score_many's default pool
DATASET_SAMPLES = 3         # train+analyze requests at least, on dataset


def tail(samples: list[float]) -> tuple[float, int]:
    """The latency tail: the mean of the slowest tenth of ``samples``, and
    how many samples that is.

    Once there are TAIL_SAMPLES that is ten samples or more; with fewer (the
    dataset workload's few long requests) it is the slowest quarter, rounded
    up, so that the tail of five requests is not one sample.  A mean
    rather than the single sample at p90: on a shared host the machine's
    speed can switch between levels every few seconds, and one order
    statistic then jumps between them from run to run, where a mean moves
    with the share of slow samples.
    """
    ordered = sorted(samples, reverse=True)
    n = len(ordered)
    count = n // 10 if n >= TAIL_SAMPLES else -(-n // 4)
    return statistics.fmean(ordered[:count]), count


# --------------------------------------------------------------------------
# spans
# --------------------------------------------------------------------------

class Tracer:
    """Spans kept in memory: op id, layer.call name, start, end, parent, attributes."""

    def __init__(self):
        self.spans: list[dict] = []

    def call(self, op: int, name: str, fn, *args, **attrs):
        start = clock()
        result = fn(*args)
        end = clock()
        self.spans.append({"op": op, "name": name, "start": start, "end": end,
                           "parent": None, **attrs})
        return result, len(self.spans) - 1

    def self_durations(self) -> list[float]:
        """Each span's duration minus its children's."""
        own = [s["end"] - s["start"] for s in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer."""
        layers: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_durations()):
            layer = span["name"].split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + own
        return layers

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def attr(self, name: str, key: str) -> list:
        return [s[key] for s in self.spans if s["name"] == name and key in s]


LAYERS = ("screener", "snapshot", "html_text", "detectors", "model",
          "pipeline", "diagnostics", "stats")


def median_or_zero(values, scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


# --------------------------------------------------------------------------
# scoring workloads
# --------------------------------------------------------------------------

class Feed:
    """The run's pauses.  Before each pass the worker asks run.py for the
    next URL list and waits; run.py runs the set-up probes due by then, so
    that they sample the whole run, and writes the list.  ``spent`` is the
    measured time so far; pauses are not measured."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.spent = 0.0

    def next(self) -> dict:
        print(json.dumps({"progress": self.spent / self.seconds}), flush=True)
        return json.loads(sys.stdin.readline())


class Scoring:
    def __init__(self, sourcescope, work: Path, meta: dict):
        from sourcescope.pipeline import score_many, score_url
        self.ss = sourcescope
        self.score_url, self.score_many = score_url, score_many
        self.work, self.meta = work, meta
        self.db, self.lexicon, self.model = build_scorer(sourcescope, work, meta)
        self.excluded = 0.0               # replay time spent on the benchmark's own probes

    def listing(self, reply: dict) -> tuple[list, list]:
        """The cases of one URL list and their score requests."""
        policy = self.ss.FetchPolicy(offline_root=self.work / reply["offline_root"])
        return reply["cases"], [self.ss.ScoreRequest(c["url"], 0.5, policy) for c in reply["cases"]]

    def warm_up(self) -> None:
        """One batch of the list the corpus wrote, as many URLs as score_many
        has workers, not counted: loads the lexicon, compiles patterns,
        imports what scoring imports lazily and grows the heap, which made
        the first timed pass the slowest."""
        _, requests = self.listing(self.meta)
        self.score_many(requests[:BATCH_WORKERS], self.model, self.db, self.lexicon)

    def batch_pass(self, cases, requests, tally: Tally) -> tuple[float, float]:
        """One pass of a URL list through score_many: URLs per second, seconds."""
        t0 = clock()
        results = self.score_many(requests, self.model, self.db, self.lexicon)
        elapsed = clock() - t0
        for case, (_, report, error) in zip(cases, results):
            tally.add("batch", check_score(case, report, error))
        return len(results) / elapsed, elapsed

    def single(self, request):
        try:
            return self.score_url(request, self.model, self.db, self.lexicon), None
        except Exception as exc:          # counted as a failed operation
            return None, exc

    def sequential(self, cases, requests, tally: Tally, phase: str) -> tuple[list, list[float]]:
        """One closed-loop client over a URL list: reports and seconds per URL."""
        reports, seconds = [], []
        for case, request in zip(cases, requests):
            t0 = clock()
            report, error = self.single(request)
            seconds.append(clock() - t0)
            reports.append(report)
            tally.add(phase, check_score(case, report, error))
        return reports, seconds

    def measure(self, feed: Feed) -> tuple[dict, Tally, str]:
        tally = Tally()
        self.warm_up()
        # One closed-loop client, each list of URLs not seen before in the
        # run, until the run's time is spent and the tail has its samples.
        # score_many is timed in the traced run only (pipeline.batch_*): its
        # 8 threads on a host of two cores measure the scheduler as much as
        # the program, and spread too far from run to run for a bound.
        # Throughput is over the whole run and the p50 is the mean of each
        # list's median: on a shared host the machine's speed can switch
        # between levels every few seconds, and a total or a mean moves with
        # the share of time at each level where one order statistic jumps
        # between them.
        latencies, medians = [], []
        while feed.spent < feed.seconds or len(latencies) < TAIL_SAMPLES:
            _, seconds = self.sequential(*self.listing(feed.next()), tally, "closed-loop")
            latencies += [s * 1e3 for s in seconds]
            medians.append(statistics.median(seconds) * 1e3)
            feed.spent += sum(seconds)
        tail_ms, slowest = tail(latencies)
        metrics = {"items_per_s": len(latencies) / feed.spent,
                   "latency_p50_ms": statistics.fmean(medians),
                   "latency_tail_ms": tail_ms}
        note = (f"pipeline.score_url, one closed-loop client: {len(latencies)} samples in "
                f"{len(medians)} distinct lists of {len(self.meta['cases'])} URLs; items_per_s "
                f"= URLs / run time, p50 = mean of the lists' medians, tail = mean of the "
                f"slowest {slowest}")
        return metrics, tally, note

    def traced(self, tr: Tracer, op: int, request):
        """score_url's steps, one span per call into a layer."""
        ss = self.ss
        domain, _ = tr.call(op, "screener.normalize", ss.normalize_domain, request.url)
        verdict, _ = tr.call(op, "screener.check", ss.mimicry_check, domain, self.db)
        if verdict.outcome == "Mimic":
            return "mimicry-screen", "withhold", None, 1.0
        # While parse_page keeps an LRU cache, its miss counts tell how many
        # pages each step parsed.  Each URL starts on a cold cache, as a
        # page not seen before does in the untraced passes.
        cache = getattr(ss.features.parse_page, "cache_info", None)
        if cache:
            ss.features.parse_page.cache_clear()
        misses = cache().misses if cache else 0
        snapshot, fetch = tr.call(op, "snapshot.fetch", ss.fetch_site, request.url,
                                  request.policy, self.lexicon)
        fetch_parses = cache().misses - misses if cache else 0
        span = tr.spans[fetch]
        span["pages"] = len(snapshot.pages)
        span["kb"] = sum(len(html.encode("utf-8")) for _, html in snapshot.pages) / 1024
        misses = cache().misses if cache else 0
        features, detect = tr.call(op, "detectors.features", ss.features.features_from_snapshot,
                                   snapshot, self.lexicon, request.url)
        detect_parses = cache().misses - misses if cache else len(snapshot.pages)
        probability, _ = tr.call(op, "model.predict", ss.predict_probability, self.model, features)
        # Parse each page again through the uncached parser.  These spans are
        # the html_text layer: children of the step that parsed the page
        # (pages in order, the fetch's first), so that the step's self time
        # excludes parsing.  The benchmark adds this time; the overhead
        # figure leaves it out.
        parse = getattr(ss.features.parse_page, "__wrapped__", ss.features.parse_page)
        parents = [fetch] * fetch_parses + [detect] * detect_parses
        for i, (_, html) in enumerate(snapshot.pages):
            page, index = tr.call(op, "html_text.parse", parse, html,
                                  kb=len(html.encode("utf-8")) / 1024)
            tr.spans[index]["anchors"] = len(page.anchors)
            tr.spans[index]["parent"] = parents[i] if i < len(parents) else None
            self.excluded += tr.spans[index]["end"] - tr.spans[index]["start"]
        verdict = "share" if probability <= request.threshold else "withhold"
        return "logit-model", verdict, features.as_dict(), probability

    def trace(self, feed: Feed) -> tuple[dict, Tally, Tracer]:
        tally = Tally()
        self.warm_up()
        # batch against sequential on alternating fresh lists, as measure() runs them
        rates, ratios = [], []
        while len(ratios) < 3 or feed.spent < feed.seconds:
            batch_rate, elapsed = self.batch_pass(*self.listing(feed.next()), tally)
            _, untraced = self.sequential(*self.listing(feed.next()), tally, "sequential")
            rates.append(batch_rate)
            ratios.append(batch_rate / (len(untraced) / sum(untraced)))
            feed.spent += elapsed + sum(untraced)
        # A fresh list, each URL through score_url and then step by step:
        # the two timings of a URL are taken seconds apart at most, so the
        # machine's drift moves the overhead figure little.
        cases, requests = self.listing(feed.next())
        tr = Tracer()
        traced, untraced = [], []
        for op, (case, request) in enumerate(zip(cases, requests)):
            (report,), (seconds,) = self.sequential([case], [request], tally, "sequential")
            untraced.append(seconds)
            t0 = clock()
            try:
                path, verdict, bits, probability = self.traced(tr, op, request)
            except Exception:             # counted as a failed operation
                traced.append(clock() - t0)
                tally.add("traced", FAILED)
                continue
            traced.append(clock() - t0)
            same = (report is not None and (path, verdict, probability) ==
                    (report.path, report.verdict, report.probability_fake)
                    and bits == (report.features.as_dict() if report.features else None))
            tally.add("traced", check_score(case, report, None) if same else FAILED)
        parse_kb = sum(tr.attr("html_text.parse", "kb"))
        parse_s = sum(tr.durations("html_text.parse"))
        pages = tr.attr("snapshot.fetch", "pages")
        detect_self = [own for span, own in zip(tr.spans, tr.self_durations())
                       if span["name"] == "detectors.features"]
        checks = tr.durations("screener.check")
        metrics = {
            "screener.normalize_us": median_or_zero(tr.durations("screener.normalize"), 1e6),
            "screener.check_ms": median_or_zero(checks, 1e3),
            "screener.mimic_share": (len(checks) - len(pages)) / len(checks),
            "snapshot.site_ms": median_or_zero(tr.durations("snapshot.fetch"), 1e3),
            "snapshot.pages_per_site": statistics.mean(pages) if pages else 0.0,
            "snapshot.kb_per_site": statistics.mean(tr.attr("snapshot.fetch", "kb")) if pages else 0.0,
            "html_text.ms_per_kb": parse_s * 1e3 / parse_kb if parse_kb else 0.0,
            "html_text.anchors_per_page":
                statistics.mean(tr.attr("html_text.parse", "anchors")) if pages else 0.0,
            "detectors.site_ms": median_or_zero(tr.durations("detectors.features"), 1e3),
            "detectors.self_ms": median_or_zero(detect_self, 1e3),
            "model.predict_us": median_or_zero(tr.durations("model.predict"), 1e6),
            "pipeline.batch_urls_per_s": statistics.median(rates),
            "pipeline.batch_efficiency": statistics.median(ratios),
            "trace.overhead_ratio": (sum(traced) - self.excluded) / sum(untraced) - 1.0,
        }
        return metrics, tally, tr




# --------------------------------------------------------------------------
# dataset workload
# --------------------------------------------------------------------------

class Dataset:
    def __init__(self, sourcescope, work: Path, meta: dict):
        self.ss = sourcescope
        self.meta = meta
        self.csv = work / meta["csv"]
        self.model_out = work / "model.json"
        self.rows = meta["rows"]

    def train(self):
        return self.ss.train(self.csv, "model2", model_out=self.model_out)

    def analyze(self):
        return self.ss.analyze(self.csv)

    def measure(self, feed: Feed) -> tuple[dict, Tally, str]:
        tally = Tally()
        train_s, analyze_s = [], []
        while len(train_s) < DATASET_SAMPLES or feed.spent < feed.seconds:
            feed.next()
            t0 = clock()
            result = self.train()
            t1 = clock()
            tally.add("train", check_train(self.meta, result))
            analysis = self.analyze()
            t2 = clock()
            tally.add("analyze", check_analyze(analysis))
            train_s.append(t1 - t0)
            analyze_s.append(t2 - t1)
            feed.spent += t2 - t0
        pairs = [(a + b) * 1e3 for a, b in zip(train_s, analyze_s)]
        tail_ms, slowest = tail(pairs)
        # totals over the run, as for the scoring workloads' throughput
        metrics = {"items_per_s": self.rows * len(pairs) / feed.spent,
                   "latency_p50_ms": statistics.median(pairs),
                   "latency_tail_ms": tail_ms}
        note = (f"items_per_s: rows/s through pipeline.train then pipeline.analyze on "
                f"{self.rows} rows (train {self.rows * len(train_s) / sum(train_s):.0f} rows/s, "
                f"analyze {self.rows * len(analyze_s) / sum(analyze_s):.0f} rows/s); latency: "
                f"one train+analyze request, {len(pairs)} samples, tail = mean of the "
                f"slowest {slowest}")
        return metrics, tally, note

    def trace(self, feed: Feed) -> tuple[dict, Tally, Tracer]:
        from sourcescope.pipeline import DATASET_COLUMNS, resolve_features
        from sourcescope.diagnostics import diagnose_fit, wald_tests
        ss = self.ss
        tally = Tally()
        t0 = clock()
        expected_train = self.train()
        t1 = clock()
        expected_analysis = self.analyze()
        t2 = clock()
        tr = Tracer()
        # train's steps
        data, _ = tr.call(0, "pipeline.ingest", ss.load_dataset, self.csv)
        names = resolve_features("model2")
        fit, _ = tr.call(0, "model.fit", ss.fit_logit, data, names, None)
        diagnostics, _ = tr.call(0, "diagnostics.diagnose", diagnose_fit, fit, data, 0.5)
        slopes, _ = tr.call(0, "model.slopes", ss.marginal_effects, fit.model, data, "at-means")
        wald, _ = tr.call(0, "diagnostics.wald", wald_tests, fit.model, data)
        tr.call(0, "model.save", ss.save_model_file, fit.model, self.model_out)
        same = (fit, diagnostics, slopes, wald) == (expected_train.fit, expected_train.diagnostics,
                                                    expected_train.slopes, expected_train.wald)
        tally.add("train", check_train(self.meta, expected_train) if same else FAILED)
        # analyze's steps
        data, _ = tr.call(1, "pipeline.ingest", ss.load_dataset, self.csv)
        matrix, _ = tr.call(1, "stats.tetrachoric_matrix", ss.tetrachoric_matrix, data)

        def chi_square_rows():
            return tuple(("label", f, ss.chi_square_test(ss.crosstab(data, "label", f)))
                         for f in DATASET_COLUMNS[1:])

        rows, _ = tr.call(1, "stats.chi_square", chi_square_rows)
        t3 = clock()
        same = (matrix, rows) == (expected_analysis.correlations, expected_analysis.chi_square_rows)
        tally.add("analyze", check_analyze(expected_analysis) if same else FAILED)
        ingest = tr.durations("pipeline.ingest")
        metrics = {
            "model.fit_ms": median_or_zero(tr.durations("model.fit"), 1e3),
            "model.fit_iterations": float(fit.iterations),
            "model.slopes_ms": median_or_zero(tr.durations("model.slopes"), 1e3),
            "pipeline.ingest_rows_per_s": self.rows / statistics.median(ingest),
            "pipeline.train_rows_per_s": self.rows / (t1 - t0),
            "pipeline.analyze_rows_per_s": self.rows / (t2 - t1),
            "diagnostics.diagnose_ms": median_or_zero(tr.durations("diagnostics.diagnose"), 1e3),
            "diagnostics.wald_ms": median_or_zero(tr.durations("diagnostics.wald"), 1e3),
            "stats.tetrachoric_matrix_ms":
                median_or_zero(tr.durations("stats.tetrachoric_matrix"), 1e3),
            "stats.chi_square_ms": median_or_zero(tr.durations("stats.chi_square"), 1e3),
            "trace.overhead_ratio": (t3 - t2) / (t2 - t0) - 1.0,
        }
        return metrics, tally, tr


# --------------------------------------------------------------------------

def run(args) -> dict:
    sourcescope = import_checked(args.root)
    meta = json.loads((args.work / "meta.json").read_text("utf-8"))
    if args.workload == "dataset":
        runner = Dataset(sourcescope, args.work, meta)
    else:
        runner = Scoring(sourcescope, args.work, meta)
    out: dict = {}
    feed = Feed(args.seconds)
    if args.trace:
        metrics, tally, tr = runner.trace(feed)
        layers = tr.self_times()
        total = sum(layers.values())
        ops = len({span["op"] for span in tr.spans})
        for name in LAYERS:
            metrics[f"self_ms.{name}"] = layers.get(name, 0.0) * 1e3 / ops
            metrics[f"share.{name}"] = layers.get(name, 0.0) / total
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        args.trace_out.write_text("\n".join(json.dumps(s) for s in tr.spans) + "\n", "utf-8")
        out["note"] = f"{len(tr.spans)} spans written to {args.trace_out}"
    else:
        metrics, tally, out["note"] = runner.measure(feed)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(metrics=metrics, phases=tally.phases, sent=tally.total("sent"),
               failed=tally.total(FAILED), known_defect=tally.total(KNOWN_DEFECT))
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args()
    offline_only()
    # The program logs skipped pages as warnings; keep the records, drop the output.
    logging.getLogger().addHandler(logging.NullHandler())
    if args.mode == "setup":
        print(json.dumps(setup_probe(args)))
    else:
        print(json.dumps({"result": run(args)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
