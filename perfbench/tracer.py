"""Per-layer tracing installed from outside the program.

install() replaces the public functions of every tuatara module (in each
module that imported them by name), two methods, and the streams that
machines.domain_stream returns with timing wrappers.  Layer calls record a
span (request, name, start, end, parent); hot per-element functions keep
only aggregate counters so memory stays bounded.  A call's self time is its
duration minus the time of wrapped calls inside it; `calls` counts outermost
calls only.  Times are folded in per request, scaled by that request's
calibration factor.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

perf = time.perf_counter

STREAM_KINDS = (
    "finite", "all_strings", "lukasiewicz", "iota", "geometric",
    "product", "double", "tuatara_of", "universal", "prime_product",
)


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.stack: list[list] = []  # open frames: [start, child time, span index, own span]
        self.active: dict[str, int] = defaultdict(int)
        self.req: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl, self
        self.req_counts: dict[str, int] = defaultdict(int)
        self.times: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[list] = []
        self.span_cap = span_cap
        self.dropped = 0
        self.request = -1
        self.factors: list[float] = []

    # -- request boundaries -------------------------------------------------

    def begin_request(self) -> None:
        self.request += 1
        self.req.clear()
        self.req_counts.clear()

    def end_request(self, factor: float) -> None:
        for name, (calls, incl, own) in self.req.items():
            t = self.times[name]
            t[0] += calls
            t[1] += incl * factor
            t[2] += own * factor
        for key, n in self.req_counts.items():
            self.counts[key] += n
        self.factors.append(factor)

    # -- frames -------------------------------------------------------------

    def enter(self, name: str, record: bool) -> list:
        parent = self.stack[-1][2] if self.stack else -1
        frame = [perf(), 0.0, parent, False]
        if record:
            if len(self.spans) < self.span_cap:
                frame[2] = len(self.spans)
                frame[3] = True
                self.spans.append([self.request, name, frame[0], 0.0, parent])
            else:
                self.dropped += 1
        self.active[name] += 1
        self.stack.append(frame)
        return frame

    def exit(self, name: str, frame: list) -> None:
        end = perf()
        self.stack.pop()
        depth = self.active[name] - 1
        self.active[name] = depth
        dur = end - frame[0]
        if self.stack:
            self.stack[-1][1] += dur
        rec = self.req[name]
        rec[2] += dur - frame[1]
        if depth == 0:
            rec[0] += 1
            rec[1] += dur
        if frame[3]:
            self.spans[frame[2]][3] = end

    def wrap(self, name, fn, record: bool = True, on_result=None):
        """Wrapper timing fn under name (a string, or a function of the arguments)."""
        tracer = self

        def wrapper(*args, **kwargs):
            key = name(args) if callable(name) else name
            frame = tracer.enter(key, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(key, frame)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        """Cheaper wrapper for functions that call no wrapped function."""
        stack, req = self.stack, self.req

        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                if stack:
                    stack[-1][1] += dur
                rec = req[name]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur

        return wrapper

    def iterate(self, name: str, it):
        """Re-yield an iterator, timing each next() and counting elements."""
        counts = self.req_counts
        key = name + ".elements"
        while True:
            frame = self.enter(name, False)
            try:
                x = next(it)
            except StopIteration:
                return
            finally:
                self.exit(name, frame)
            counts[key] += 1
            yield x

    def count(self, key: str, n: int = 1) -> None:
        self.req_counts[key] += n

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"factors": self.factors, "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _StreamProxy:
    """A DomainStream whose enumeration and tail methods report to the tracer."""

    def __init__(self, tracer: Tracer, stream, kind: str):
        self._tracer = tracer
        self._stream = stream
        self._name = f"machines.stream.{kind}"
        self.tail_bound = tracer.wrap("machines.tail_bound", stream.tail_bound)
        self.total_upper = tracer.wrap("machines.total_upper", stream.total_upper)

    def __getattr__(self, attr):
        return getattr(self._stream, attr)

    def __iter__(self):
        return self._tracer.iterate(self._name, iter(self._stream))

    def indices(self):
        return self._tracer.iterate(self._name, self._stream.indices())


def _stream_kind(spec) -> str:
    kind = getattr(spec, "generator", None) or getattr(spec, "kind", None) or "finite"
    return "universal" if kind.startswith("universal") else kind


def install(tracer: Tracer) -> None:
    """Wrap tuatara's public functions in every module that holds them."""
    import tuatara
    from tuatara import binstr, cli, complexity, egyptian, iota, machines, numerics, spectral

    modules = [tuatara, binstr, cli, complexity, egyptian, iota, machines, numerics, spectral]

    def patch(module, attr: str, make) -> None:
        original = getattr(module, attr)
        wrapped = make(original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)

    def span(name, **kw):
        return lambda fn: tracer.wrap(name, fn, True, **kw)

    def hot(name, **kw):
        return lambda fn: tracer.wrap(name, fn, False, **kw)

    def on_sum(args, report):
        tracer.count("machines.elements", report.consumed)
        if report.exhausted:
            tracer.count("machines.sum.exhausted")
        elif report.consumed < args[2]:
            tracer.count("machines.sum.grid_stops")

    def on_parse_file(args, spec):
        tracer.count("cli.parse_machine_file.lines", len(args[0].splitlines()))

    def on_reduce(args, result):
        tracer.count("iota.reduce.steps", result.steps)
        tracer.count("iota.reduce.halted", int(result.halted))

    def on_query(args, result):
        if tracer.active["complexity.query"] == 0:
            tracer.count("complexity.queries")
            tracer.count("complexity.witnesses", int(result is not complexity.NO_WITNESS))

    def query(fn):
        inner = tracer.wrap(f"complexity.{fn.__name__}", fn, True)

        def wrapper(*args, **kwargs):
            tracer.active["complexity.query"] += 1
            try:
                result = inner(*args, **kwargs)
            finally:
                tracer.active["complexity.query"] -= 1
            on_query(args, result)
            return result

        return wrapper

    patch(cli, "run", span("cli.run"))
    patch(cli, "parse_machine_file", span("cli.parse_machine_file", on_result=on_parse_file))

    patch(machines, "weighted_domain_sum", span("machines.weighted_domain_sum", on_result=on_sum))
    for fn in ("classify", "sanity_chain", "fresh_index", "density_statistic",
               "zeta_enclosure", "omega_enclosure"):
        patch(machines, fn, span(f"machines.{fn}"))
    patch(machines, "domain_stream", lambda fn: tracer.wrap(
        "machines.domain_stream", lambda spec: _StreamProxy(tracer, fn(spec), _stream_kind(spec))))

    patch(binstr, "bin_of", lambda fn: tracer.leaf("binstr.bin_of", fn))
    patch(binstr, "bin_inv", lambda fn: tracer.leaf("binstr.bin_inv", fn))

    patch(numerics, "pow_bounds", hot(
        lambda args: "numerics.pow_bounds."
        + ("small_den" if args[1].denominator <= 16 else "large_den")))
    for fn in ("pow2_bounds", "ln_bounds", "log2_bounds", "exp_bounds", "digits"):
        patch(numerics, fn, hot(f"numerics.{fn}"))
    patch(numerics, "root_bounds", lambda fn: tracer.leaf("numerics.root_bounds", fn))

    patch(spectral, "riemann_zeta", span("spectral.riemann_zeta", on_result=lambda args, r:
          tracer.count("spectral.riemann_zeta.terms", max(int(args[1]), 1))))
    for fn in ("zeta_s", "omega_s", "kappa", "kappa_natural"):
        patch(spectral, fn, span(f"spectral.{fn}"))

    patch(iota, "parse", hot("iota.parse"))
    patch(iota, "is_program", hot("iota.is_program"))
    patch(iota, "reduce", hot("iota.reduce", on_result=on_reduce))
    patch(iota, "run_program", hot("iota.run_program"))
    patch(iota, "decode_bits", span("iota.decode_bits", on_result=lambda args, out:
          tracer.count("iota.decode_bits.bits", len(out))))
    for fn in ("encode_bits", "words_of_length"):
        patch(iota, fn, span(f"iota.{fn}"))

    for fn in ("nabla", "plain_k", "program_size_h"):
        patch(complexity, fn, query)
    patch(complexity, "deficiency", span("complexity.deficiency"))
    complexity.ExecutableMachine.run = hot("complexity.run")(complexity.ExecutableMachine.run)

    patch(egyptian, "egyptian_floor", span("egyptian.egyptian_floor"))
    patch(egyptian, "kraft_chaitin", span("egyptian.kraft_chaitin"))
    patch(egyptian, "grid_walk", lambda fn: lambda *a, **k: tracer.iterate(
        "egyptian.grid_walk", fn(*a, **k)))
    egyptian.KraftAllocator.request = tracer.leaf("egyptian.kraft", egyptian.KraftAllocator.request)


# ---------------------------------------------------------------------------
# per-layer metrics


def _rate(n: float, seconds: float) -> float:
    return n / seconds if seconds > 0 else 0.0


def layer_metrics(times: dict, counts: dict, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit), from a tracer's folded
    times (name -> [calls, inclusive s, self s]) and counts."""
    t = times
    c = defaultdict(int, counts)

    def calls(name):
        return t[name][0] if name in t else 0

    def incl(name):
        return t[name][1] if name in t else 0.0

    def own(name):
        return t[name][2] if name in t else 0.0

    def layer_self(prefix, skip=()):
        return sum(v[2] for k, v in t.items() if k.startswith(prefix) and k not in skip)

    def us_per_call(name):
        return _rate(incl(name) * 1e6, calls(name))

    m: dict[str, tuple[float, str]] = {}
    m["cli.self_s"] = (layer_self("cli.", ("cli.parse_machine_file",)), "s")
    m["cli.parse_machine_file.self_s"] = (own("cli.parse_machine_file"), "s")
    m["cli.parse_machine_file.lines_per_s"] = (
        _rate(c["cli.parse_machine_file.lines"], incl("cli.parse_machine_file")), "1/s")

    wds = "machines.weighted_domain_sum"
    m[f"{wds}.calls"] = (calls(wds), "count")
    m[f"{wds}.self_s"] = (own(wds), "s")
    m["machines.elements"] = (c["machines.elements"], "count")
    m["machines.elements_per_s"] = (_rate(c["machines.elements"], incl(wds)), "1/s")
    m["machines.sum.exhausted"] = (c["machines.sum.exhausted"], "count")
    m["machines.sum.grid_stops"] = (c["machines.sum.grid_stops"], "count")
    for kind in STREAM_KINDS:
        name = f"machines.stream.{kind}"
        m[f"{name}.elements"] = (c[f"{name}.elements"], "count")
        m[f"{name}.elements_per_s"] = (_rate(c[f"{name}.elements"], incl(name)), "1/s")
    for fn in ("tail_bound", "total_upper", "classify", "sanity_chain", "fresh_index",
               "density_statistic"):
        m[f"machines.{fn}.self_s"] = (own(f"machines.{fn}"), "s")

    m["binstr.bin_of.calls"] = (calls("binstr.bin_of"), "count")
    m["binstr.bin_inv.calls"] = (calls("binstr.bin_inv"), "count")
    m["binstr.self_s"] = (layer_self("binstr."), "s")

    for side in ("small_den", "large_den"):
        name = f"numerics.pow_bounds.{side}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.us_per_call"] = (us_per_call(name), "us")
    m["numerics.pow2_bounds.calls"] = (calls("numerics.pow2_bounds"), "count")
    m["numerics.pow2_bounds.us_per_call"] = (us_per_call("numerics.pow2_bounds"), "us")
    m["numerics.root_bounds.calls"] = (calls("numerics.root_bounds"), "count")
    m["numerics.root_bounds.self_s"] = (own("numerics.root_bounds"), "s")
    for fn in ("ln_bounds", "exp_bounds", "digits"):
        m[f"numerics.{fn}.calls"] = (calls(f"numerics.{fn}"), "count")
    m["numerics.self_s"] = (layer_self("numerics."), "s")

    rz = "spectral.riemann_zeta"
    m[f"{rz}.calls"] = (calls(rz), "count")
    m[f"{rz}.self_s"] = (own(rz), "s")
    m[f"{rz}.terms_per_s"] = (_rate(c[f"{rz}.terms"], incl(rz)), "1/s")
    m["spectral.self_s"] = (layer_self("spectral."), "s")

    m["iota.parse.calls"] = (calls("iota.parse"), "count")
    m["iota.parse.self_s"] = (own("iota.parse"), "s")
    m["iota.reduce.calls"] = (calls("iota.reduce"), "count")
    m["iota.reduce.self_s"] = (own("iota.reduce"), "s")
    m["iota.reduce.steps"] = (c["iota.reduce.steps"], "count")
    m["iota.reduce.steps_per_s"] = (_rate(c["iota.reduce.steps"], incl("iota.reduce")), "1/s")
    m["iota.reduce.halted_ratio"] = (_rate(c["iota.reduce.halted"], calls("iota.reduce")), "ratio")
    m["iota.decode_bits.calls"] = (calls("iota.decode_bits"), "count")
    m["iota.decode_bits.self_s"] = (own("iota.decode_bits"), "s")
    m["iota.decode_bits.bits_per_s"] = (
        _rate(c["iota.decode_bits.bits"], incl("iota.decode_bits")), "1/s")
    m["iota.encode_bits.self_s"] = (own("iota.encode_bits"), "s")
    m["iota.words_of_length.self_s"] = (own("iota.words_of_length"), "s")

    queries = c["complexity.queries"]
    m["complexity.queries"] = (queries, "count")
    m["complexity.machine_runs"] = (calls("complexity.run"), "count")
    m["complexity.runs_per_query"] = (_rate(calls("complexity.run"), queries), "ratio")
    m["complexity.witness_ratio"] = (_rate(c["complexity.witnesses"], queries), "ratio")
    m["complexity.run.self_s"] = (own("complexity.run"), "s")
    m["complexity.deficiency.self_s"] = (own("complexity.deficiency"), "s")

    m["egyptian.egyptian_floor.calls"] = (calls("egyptian.egyptian_floor"), "count")
    m["egyptian.egyptian_floor.self_s"] = (own("egyptian.egyptian_floor"), "s")
    m["egyptian.kraft.requests"] = (calls("egyptian.kraft"), "count")
    m["egyptian.kraft.self_s"] = (own("egyptian.kraft"), "s")
    m["egyptian.grid_walk.self_s"] = (own("egyptian.grid_walk"), "s")

    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    return m
