"""Spans around the public functions of each twoscale module.

``Tracer.install`` re-binds module and class attributes to timing wrappers
and ``uninstall`` puts the originals back; the program's source is not
touched.  A name that one module imported from another (for example
``wavelet_system.integrate_adaptive``) is wrapped where it is looked up, and
the integrand closures that ``pair_integrand`` and ``ft_pair_integrand``
return are wrapped as they are made.

A layer's self time is the duration of its spans minus the part covered by
child spans.  Spans on the main thread are accounted as they end.  Spans on
other threads (the Gram thread pool) are kept until the enclosing main-thread
span ends; its interval is then shared out instant by instant among the
innermost spans active on each thread, so that two threads that take turns
on the interpreter are not both counted as busy.  The self times of one pass
therefore add up to the duration of its root spans.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

# layer -> metric reporting its self time
SELF_TIME_METRICS = {
    "numerics.quad": "numerics.quad_s",
    "numerics.eigen": "numerics.eigen_s",
    "generators.integrand": "generators.integrand_s",
    "generators.window": "generators.window_s",
    "generators.build": "generators.build_s",
    "wavelet_system.gram": "wavelet_system.gram_self_s",
    "wavelet_system.certify": "wavelet_system.certify_s",
    "refinement.solve": "refinement.solve_s",
    "refinement.cascade": "refinement.cascade_s",
    "bernoulli.density": "bernoulli.density_s",
    "bernoulli.fourier": "bernoulli.fourier_s",
    "serialize.read": "serialize.read_s",
    "serialize.write": "serialize.write_s",
    "cli": "cli.self_s",
}

COUNT_METRICS = (
    "numerics.quad_calls",
    "numerics.quad_evals",
    "numerics.eigen_calls",
    "numerics.eigen_dim_sum",
    "generators.integrand_calls",
    "generators.integrand_points",
    "generators.window_calls",
    "wavelet_system.entries",
    "wavelet_system.certify_calls",
    "refinement.solve_points",
    "refinement.cascade_points",
    "bernoulli.atoms",
    "bernoulli.fourier_calls",
    "serialize.bytes_out",
)


def _quad_counts(result, args):
    return (("numerics.quad_calls", 1), ("numerics.quad_evals", result.evaluations))


def _eigen_counts(result, args):
    return (("numerics.eigen_calls", 1), ("numerics.eigen_dim_sum", result.dimension))


def _integrand_counts(result, args):
    points = getattr(args[0], "size", 1)
    return (("generators.integrand_calls", 1), ("generators.integrand_points", points))


def _window_counts(result, args):
    return (("generators.window_calls", 1),)


def _gram_counts(result, args):
    n = result.matrix.shape[0]
    return (("wavelet_system.entries", n * (n + 1) // 2),)


def _certify_counts(result, args):
    return (("wavelet_system.certify_calls", 1),)


def _solve_counts(result, args):
    return (("refinement.solve_points", result.grid.size),)


def _cascade_counts(result, args):
    return (("refinement.cascade_points", result[0].values.size),)


def _density_counts(result, args):
    return (("bernoulli.atoms", 2**result.depth),)


def _fourier_counts(result, args):
    return (("bernoulli.fourier_calls", 1),)


def _write_counts(result, args):
    # the writers emit ASCII only, so characters are bytes
    return (("serialize.bytes_out", len(result)),) if isinstance(result, str) else ()


def _targets() -> list:
    """(owner, attribute, layer, counter) for every wrapped name."""
    from twoscale import bernoulli, generators, numerics, refinement, serialize
    from twoscale import wavelet_system as ws

    g = generators
    targets = [
        (numerics, "integrate_adaptive", "numerics.quad", _quad_counts),
        (ws, "integrate_adaptive", "numerics.quad", _quad_counts),
        (numerics, "hermitian_eigen", "numerics.eigen", _eigen_counts),
        (ws, "hermitian_eigen", "numerics.eigen", _eigen_counts),
        (g.Gaussian, "pair_window", "generators.window", _window_counts),
        (g.TwoSidedExp, "pair_window", "generators.window", _window_counts),
        (g.RationalL2, "pair_window", "generators.window", _window_counts),
        (g.CatalogGenerator, "ft_pair_window", "generators.window", _window_counts),
        (g, "cascade_solve", "generators.build", None),
        (ws, "gram", "wavelet_system.gram", _gram_counts),
        (ws, "certify", "wavelet_system.certify", _certify_counts),
        (refinement, "solve_fourier", "refinement.solve", _solve_counts),
        (refinement, "cascade_solve", "refinement.cascade", _cascade_counts),
        (bernoulli, "density", "bernoulli.density", _density_counts),
        (bernoulli, "fourier", "bernoulli.fourier", _fourier_counts),
    ]
    for name in ("load_json", "system_from_dict", "equation_from_dict"):
        targets.append((serialize, name, "serialize.read", None))
    for name in (
        "dump_json",
        "profile_to_csv",
        "profile_to_dict",
        "sampled_to_csv",
        "sampled_to_dict",
        "histogram_to_csv",
        "histogram_to_dict",
        "gram_report_to_dict",
        "certificate_to_dict",
        "verdict_to_dict",
    ):
        targets.append((serialize, name, "serialize.write", _write_counts))
    return targets


class Tracer:
    """Self times and counts per layer, accumulated until ``take``."""

    def __init__(self):
        self._self_s = defaultdict(float)
        self._counts = defaultdict(int)
        self._patches: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._pool_spans: list = []

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        from twoscale import generators

        for owner, attr, layer, counter in _targets():
            self._patch(owner, attr, self.wrap(layer, vars(owner)[attr], counter))
        for cls, attr in (
            (generators.GeneratorSpec, "pair_integrand"),
            (generators.CatalogGenerator, "ft_pair_integrand"),
        ):
            self._patch(cls, attr, self._wrap_factory(vars(cls)[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, layer: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(layer, fn, args, kwargs, counter)

        return wrapper

    def _wrap_factory(self, factory):
        tracer = self

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return tracer.wrap("generators.integrand", factory(*args, **kwargs), _integrand_counts)

        return wrapper

    # ------------------------------------------------------------ spans

    def call(self, layer: str, fn, args, kwargs, counter=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = [0.0]  # time covered by child spans
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self._close(layer, start, end, frame[0], stack)
        if counter is not None:
            counts = counter(result, args)
            with self._lock:
                for name, n in counts:
                    self._counts[name] += n
        return result

    def _close(self, layer, start, end, child_s, stack) -> None:
        duration = end - start
        if stack:
            stack[-1][0] += duration
        if threading.current_thread() is self._main:
            if self._pool_spans:
                child_s += self._share_pool_time(start, end)
            self._self_s[layer] += duration - child_s
        else:
            with self._lock:
                self._pool_spans.append(
                    (threading.get_ident(), len(stack), start, end, layer)
                )

    def _share_pool_time(self, lo: float, hi: float) -> float:
        """Share [lo, hi] among the innermost pool spans active at each instant.

        Only pool spans that started inside [lo, hi] are taken.  Returns the
        length of the part of [lo, hi] that they cover.
        """
        with self._lock:
            inside = [s for s in self._pool_spans if s[2] >= lo]
            self._pool_spans = [s for s in self._pool_spans if s[2] < lo]
        events = []
        for thread, depth, start, end, layer in inside:
            end = min(end, hi)
            if end > start:
                # at equal times: ends before starts, inner ends and outer starts first
                events.append((start, 1, depth, thread, layer))
                events.append((end, 0, -depth, thread, layer))
        events.sort()
        stacks: dict = defaultdict(list)
        covered = 0.0
        previous = None
        for when, is_start, _, thread, layer in events:
            if previous is not None and when > previous:
                innermost = [s[-1] for s in stacks.values() if s]
                if innermost:
                    share = (when - previous) / len(innermost)
                    for name in innermost:
                        self._self_s[name] += share
                    covered += when - previous
            previous = when
            if is_start:
                stacks[thread].append(layer)
            else:
                stacks[thread].pop()
        return covered

    # ------------------------------------------------------------ results

    def take(self) -> dict:
        """Metrics accumulated since the last call, then start afresh."""
        out = {metric: self._self_s.get(layer, 0.0) for layer, metric in SELF_TIME_METRICS.items()}
        out.update({name: self._counts.get(name, 0) for name in COUNT_METRICS})
        self._self_s.clear()
        self._counts.clear()
        return out
