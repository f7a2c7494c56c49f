"""Layer tracing from outside the program.

:func:`install` replaces public functions of the partialot modules with
wrappers, at the name each caller looks up (``partialot.solver.
solve_transportation`` is what ``solve_detail`` calls, ``partialot.cli.
geodesic_path`` what the CLI calls), and returns a function that puts the
originals back.  A wrapper records a span only between
:meth:`Tracer.begin_op` and :meth:`Tracer.end_op`, so the benchmark's
off-clock checks go through the same functions untraced.

Spans are aggregated as they close: inclusive and self time per span name
and per (parent, name).  Self time is a span's duration minus the time its
child spans cover, so the self times of all spans add up to the duration of
the benchmark's root spans.  Counts are exact and are kept only for the
first operations of a run (the count window), where every span is also
logged with its parent, so two runs at one seed must agree on them.
"""

import functools
import os
from collections import Counter, defaultdict
from time import perf_counter

ROOT_SPAN = "bench.op"
LAYERS = ("bench", "simplex", "solver", "pairs", "plans", "certify", "geodesic", "io", "cli")


class Tracer:
    def __init__(self):
        self.active = False
        self.counting = False
        self._stack = []  # [name, start, time covered by children, span id]
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.by_parent = defaultdict(float)  # (parent name, name) -> inclusive time
        self.counts = Counter()
        self.log = []  # (id, parent id, name, start, end) within the count window

    def begin_op(self, counting):
        self.active = True
        self.counting = counting
        self.enter(ROOT_SPAN)

    def end_op(self):
        self.exit()
        self.active = False

    def enter(self, name):
        self._stack.append([name, perf_counter(), 0.0, len(self.log) if self.counting else -1])
        if self.counting:
            self.log.append(None)  # reserve the id; filled in at exit

    def exit(self):
        end = perf_counter()
        name, start, covered, span_id = self._stack.pop()
        duration = end - start
        self.inclusive[name] += duration
        self.self_time[name] += duration - covered
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
            self.by_parent[(parent[0], name)] += duration
        if span_id >= 0:
            parent_id = parent[3] if parent is not None else None
            self.log[span_id] = (span_id, parent_id, name, start, end)

    def count(self, key, amount=1):
        if self.counting:
            self.counts[key] += amount

    def count_max(self, key, value):
        if self.counting:
            self.counts[key] = max(self.counts[key], value)


def _span(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None and tracer.counting:
            after(tracer, args, result)
        return result

    return wrapper


def _counted(tracer, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.active:
            tracer.count(key)
        return fn(*args, **kwargs)

    return wrapper


def _after_simplex(tracer, args, result):
    flows, _, _, alt = result
    tracer.count("simplex.calls")
    tracer.count("simplex.alt_cells", alt)
    tracer.count("simplex.basis_positive", len(flows))


def _after_build(tracer, args, problem):
    cells = [c for row in problem.cost_exact for c in row]
    tracer.count("solver.cells", len(cells))
    tracer.count_max(
        "solver.cost_bits_max",
        max(c.numerator.bit_length() + c.denominator.bit_length() for c in cells),
    )


def _after_detail(tracer, args, detail):
    tracer.count("solver.degenerate", int(detail.degenerate))


def _after_plan(tracer, args, plan):
    tracer.count("plans.entries", len(plan.entries))


def _after_interpolate(tracer, args, measure):
    tracer.count("geodesic.interpolant_atoms", len(measure.atoms))


def _after_save(tracer, args, result):
    tracer.count("io.bytes_written", os.path.getsize(args[1]))


def _targets(po):
    """(owner, attribute, span name or None for count-only, after-hook)."""
    solver, certify, cli, pio = po.solver, po.certify, po.cli, po.io
    targets = [
        (solver, "solve_transportation", "simplex.solve_transportation", _after_simplex),
        (solver, "build_augmented_problem", "solver.build_augmented_problem", _after_build),
        (solver, "solve_detail", "solver.solve_detail", _after_detail),
        (solver, "wb_distance", "solver.wb_distance", None),
        (po, "diagram_distance", "solver.diagram_distance", None),
        (solver, "new_plan", "plans.new_plan", _after_plan),
        (pio, "new_plan", "plans.new_plan", _after_plan),
        (certify, "certify_optimal", "certify.certify_optimal", None),
        (certify, "concentration_violation", "certify.concentration", None),
        (certify, "cyclical_monotonicity_violation", "certify.monotonicity", None),
        (certify, "potentials_violation", "certify.potentials", None),
        (certify, "boundary_shipping_violation", "certify.shipping", None),
        (cli, "main", "cli.main", None),
        (cli, "geodesic_path", "geodesic.geodesic_path", None),
        (cli, "interpolate", "geodesic.interpolate", _after_interpolate),
        (pio, "load_measure", "io.load_measure", None),
        (pio, "load_plan", "io.load_plan", None),
        (pio, "save_measure", "io.save_measure", _after_save),
        (pio, "save_plan", "io.save_plan", _after_save),
    ]
    # solve is looked up from the package, the CLI, the geodesic module and
    # by diagram_distance inside the solver module.
    targets += [(owner, "solve", "solver.solve", None) for owner in (po, cli, po.geodesic, solver)]
    for cls in (po.HalfPlanePair, po.EuclideanBoxPair):
        targets += [
            (cls, "cost_cell", "pairs.cost_cell", None),
            (cls, "boundary_cell", "pairs.boundary_cell", None),
            (cls, "validate_point", None, None),
        ]
    return targets


def install(tracer, po):
    """Wrap the partialot entry points; returns a function that unwraps them."""
    undo = []
    for owner, attr, name, after in _targets(po):
        original = getattr(owner, attr)
        own = attr in vars(owner)
        if name is None:
            wrapper = _counted(tracer, "pairs.validate_point.calls", original)
        else:
            wrapper = _span(tracer, name, original, after)
        setattr(owner, attr, wrapper)
        undo.append((owner, attr, original, own))

    def uninstall():
        for owner, attr, original, own in reversed(undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    return uninstall


#: Exact counts, each read in the count window.  (name, unit)
COUNTS = (
    ("simplex.calls", "count"),
    ("simplex.alt_cells", "count"),
    ("simplex.basis_positive", "count"),
    ("solver.cost_bits_max", "bits"),
    ("solver.cells", "count"),
    ("solver.degenerate", "count"),
    ("pairs.validate_point.calls", "count"),
    ("plans.entries", "count"),
    ("geodesic.interpolant_atoms", "count"),
    ("io.bytes_written", "bytes"),
)
#: Inclusive (".s") and self (".self_s") times of single span names.
INCLUSIVE = (
    ("simplex.solve_transportation.s", "simplex.solve_transportation"),
    ("pairs.cost_cell.s", "pairs.cost_cell"),
    ("pairs.boundary_cell.s", "pairs.boundary_cell"),
    ("plans.new_plan.s", "plans.new_plan"),
    ("certify.concentration.s", "certify.concentration"),
    ("certify.monotonicity.s", "certify.monotonicity"),
    ("certify.potentials.s", "certify.potentials"),
    ("certify.shipping.s", "certify.shipping"),
    ("geodesic.interpolate.s", "geodesic.interpolate"),
    ("io.load_measure.s", "io.load_measure"),
    ("io.save_plan.s", "io.save_plan"),
    ("io.load_plan.s", "io.load_plan"),
    ("io.save_measure.s", "io.save_measure"),
)
SELF = (
    ("solver.build_augmented_problem.self_s", "solver.build_augmented_problem"),
    ("solver.solve_detail.self_s", "solver.solve_detail"),
    ("certify.certify_optimal.self_s", "certify.certify_optimal"),
    ("geodesic.geodesic_path.self_s", "geodesic.geodesic_path"),
    ("cli.main.self_s", "cli.main"),
)


def layer_metrics(tracer, counts):
    """Per-layer metrics of a traced phase: name -> (value, unit)."""
    out = {name: (float(counts.get(name, 0)), unit) for name, unit in COUNTS}
    for metric, span in INCLUSIVE:
        out[metric] = (tracer.inclusive.get(span, 0.0), "s")
    for metric, span in SELF:
        out[metric] = (tracer.self_time.get(span, 0.0), "s")
    out["certify.resolve.s"] = (
        tracer.by_parent.get(("certify.certify_optimal", "solver.wb_distance"), 0.0), "s"
    )
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, seconds in tracer.self_time.items():
        layer_self[span.split(".", 1)[0]] += seconds
    for layer, seconds in layer_self.items():
        out[f"{layer}.self_s"] = (seconds, "s")
    wall = tracer.inclusive.get(ROOT_SPAN, 0.0)
    out["trace.wall_s"] = (wall, "s")
    out["simplex.share"] = (layer_self["simplex"] / wall if wall else 0.0, "ratio")
    return out
