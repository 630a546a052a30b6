"""Per-layer spans recorded from outside horokit.

Each layer is entered through a public name that its caller looks up in a
module's globals, so the tracer replaces that name in every module that
calls it (for example build_mesh in horokit.cli, horokit.parallels and
horokit.insulation).  A span's self time is its duration minus the spans
opened inside it; counts and sizes are read from the returned objects.
Nothing in horokit changes, and a fresh process is traced each time, so
the replacements are never undone.
"""

import sys
import time
from collections import defaultdict

# (metric, unit, better); a layer a workload never enters reads 0 there
PER_LAYER = (
    ("parallels.distance_field.time_s", "s", "lower"),
    ("parallels.distance_field.calls", "count", "lower"),
    ("parallels.distance_field.grid_nodes", "count", "lower"),
    ("parallels.build_parallel_table.time_s", "s", "lower"),
    ("parallels.build_parallel_table.calls", "count", "lower"),
    ("parallels.hersch_bound.time_s", "s", "lower"),
    ("parallels.L_max_abs_err", "1", "lower"),
    ("shell.shell_eigen.time_s", "s", "lower"),
    ("shell.shell_eigen.calls", "count", "lower"),
    ("shell.tau_max_rel_err", "1", "lower"),
    ("fem2d.build_mesh.time_s", "s", "lower"),
    ("fem2d.build_mesh.vertices", "count", "lower"),
    ("fem2d.assemble_p2.time_s", "s", "lower"),
    ("fem2d.assemble_p2.calls", "count", "lower"),
    ("fem2d.splu.time_s", "s", "lower"),
    ("fem2d.splu.calls", "count", "lower"),
    ("fem2d.splu.fill_nnz", "count", "lower"),
    ("insulation.splu.time_s", "s", "lower"),
    ("insulation.splu.calls", "count", "lower"),
    ("insulation.splu.fill_nnz", "count", "lower"),
    ("fem2d.eigen_p2.time_s", "s", "lower"),
    ("fem2d.eigen_p2.iterations", "count", "lower"),
    ("fem2d.eigen_p2.max_residual", "1", "lower"),
    ("fem2d.richardson_rel_gap", "1", "lower"),
    ("insulation.richardson_rel_gap", "1", "lower"),
    ("fem2d.eigen_p_general.time_s", "s", "lower"),
    ("fem2d.eigen_p_general.iterations", "count", "lower"),
    ("insulation.fem_energy_p2.time_s", "s", "lower"),
    ("insulation.fem_energy_p2.calls", "count", "lower"),
    ("insulation.parallel_bound_energy.time_s", "s", "lower"),
    ("nagy.nagy_table.time_s", "s", "lower"),
    ("nagy.nagy_table.rows", "count", "higher"),
    ("bodies.parallel_perimeter_direct.calls", "count", "lower"),
    ("nagy.steiner_max_rel_dev", "1", "lower"),
    ("io.write_json_report.time_s", "s", "lower"),
    ("io.csv.time_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.remainder_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# (module, name looked up there, layer); every entry is timed
SPANS = (
    ("parallels", "distance_field", "parallels.distance_field"),
    ("parallels", "build_parallel_table", "parallels.build_parallel_table"),
    ("cli", "build_parallel_table", "parallels.build_parallel_table"),
    ("parallels", "hersch_bound", "parallels.hersch_bound"),
    ("cli", "hersch_bound", "parallels.hersch_bound"),
    ("parallels", "shell_eigen", "shell.shell_eigen"),
    ("cli", "shell_eigen", "shell.shell_eigen"),
    ("parallels", "build_mesh", "fem2d.build_mesh"),
    ("cli", "build_mesh", "fem2d.build_mesh"),
    ("insulation", "build_mesh", "fem2d.build_mesh"),
    ("fem2d", "assemble_p2", "fem2d.assemble_p2"),
    ("insulation", "assemble_p2", "fem2d.assemble_p2"),
    ("fem2d", "splu", "fem2d.splu"),
    ("insulation", "splu", "insulation.splu"),
    ("fem2d", "eigen_p2", "fem2d.eigen_p2"),
    ("parallels", "eigen_p2", "fem2d.eigen_p2"),
    ("cli", "eigen_p2", "fem2d.eigen_p2"),
    ("parallels", "eigen_p_general", "fem2d.eigen_p_general"),
    ("cli", "eigen_p_general", "fem2d.eigen_p_general"),
    ("insulation", "fem_energy_p2", "insulation.fem_energy_p2"),
    ("insulation", "parallel_bound_energy", "insulation.parallel_bound_energy"),
    ("cli", "nagy_table", "nagy.nagy_table"),
    ("io", "write_json_report", "io.write_json_report"),
    ("io", "write_csv", "io.csv"),
)

# called thousands of times inside other layers: counted, not timed
COUNTED = (
    ("nagy", "parallel_perimeter_direct", "bodies.parallel_perimeter_direct"),
    ("insulation", "parallel_perimeter_direct", "bodies.parallel_perimeter_direct"),
)


def _sizes(tracer, layer, result):
    """Counts and sizes of one call, read from what the layer returned."""
    q = tracer.quantities
    if layer == "parallels.distance_field":
        q["parallels.distance_field.grid_nodes"] += result.values.size
    elif layer == "fem2d.build_mesh":
        q["fem2d.build_mesh.vertices"] += result.vertices.shape[0]
    elif layer.endswith(".splu"):
        q[f"{layer}.fill_nnz"] += result.nnz
    elif layer == "fem2d.eigen_p2":
        q["fem2d.eigen_p2.iterations"] += result.meta["iterations"]
        q["fem2d.eigen_p2.max_residual"] = max(q["fem2d.eigen_p2.max_residual"],
                                               result.residuals["eig_residual"])
    elif layer == "fem2d.eigen_p_general":
        q["fem2d.eigen_p_general.iterations"] += result.meta["iterations"]
    elif layer == "nagy.nagy_table":
        q["nagy.nagy_table.rows"] += len(result.deltas)


def _richardson_gap(values):
    """Largest |v_{h/2} - v_h| / v over consecutive (h, h/2) pairs."""
    gap = 0.0
    for v_h, v_h2 in zip(values[0::2], values[1::2]):
        extrapolated = v_h2 + (v_h2 - v_h) / 3.0
        gap = max(gap, abs(v_h2 - v_h) / abs(extrapolated))
    return gap


class Tracer:
    """Self times, call counts and sizes of the wrapped layers."""

    def __init__(self):
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.quantities = defaultdict(float)
        self.richardson = defaultdict(list)
        self._open = []          # child time accumulated by each open span

    def install(self):
        import horokit.cli  # noqa: F401  (imports every layer module)
        for module, name, layer in SPANS:
            mod = sys.modules[f"horokit.{module}"]
            setattr(mod, name, self._span(getattr(mod, name), layer, (module, name)))
        for module, name, layer in COUNTED:
            mod = sys.modules[f"horokit.{module}"]
            setattr(mod, name, self._counter(getattr(mod, name), layer))

    def _span(self, fn, layer, site):
        # the (h, h/2) pairs of the two Richardson extrapolations
        record = {("parallels", "eigen_p2"): ("fem2d", lambda res: res.tau1),
                  ("insulation", "fem_energy_p2"): ("insulation", float)}.get(site)

        def wrapped(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                children = self._open.pop()
                self.self_time[layer] += span - children
                if self._open:
                    self._open[-1] += span
            self.calls[layer] += 1
            _sizes(self, layer, result)
            if record:
                self.richardson[record[0]].append(record[1](result))
            return result

        return wrapped

    def _counter(self, fn, layer):
        def wrapped(*args, **kwargs):
            self.calls[layer] += 1
            return fn(*args, **kwargs)
        return wrapped

    def metrics(self, wall_s):
        """Flat per-layer metrics of one traced round; remainder = wall - self times."""
        out = {f"{layer}.time_s": t for layer, t in self.self_time.items()}
        out.update({f"{layer}.calls": float(c) for layer, c in self.calls.items()})
        out.update(self.quantities)
        for prefix, values in self.richardson.items():
            out[f"{prefix}.richardson_rel_gap"] = _richardson_gap(values)
        out["trace.wall_s"] = wall_s
        out["trace.remainder_s"] = wall_s - sum(self.self_time.values())
        return out
