"""Spans for the traced run, recorded from the benchmark's own files.

The traced run replaces each public function in WRAPPED, at every module
binding a caller looks it up through, with a wrapper that records a span:
(name, start, end, parent, raised). Spans stay in memory until the run
ends. Nothing inside the program changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

# span name -> every "module:attribute" binding of the same function object.
# tests/test_bench.py checks this against an identity scan of all maicas
# namespaces, so a new import or a rename fails a test instead of silently
# dropping spans.
WRAPPED = {
    "circuit.calibrate_baseline": [
        "maicas:calibrate_baseline", "maicas.circuit:calibrate_baseline",
        "maicas.cli:calibrate_baseline", "maicas.scenarios:calibrate_baseline"],
    "circuit.lumped_from_geometry": [
        "maicas:lumped_from_geometry", "maicas.circuit:lumped_from_geometry",
        "maicas.cli:lumped_from_geometry",
        "maicas.scenarios:lumped_from_geometry"],
    "readout.fit_reader": [
        "maicas:fit_reader", "maicas.readout:fit_reader",
        "maicas.scenarios:fit_reader"],
    "readout.dip_of": ["maicas.readout:dip_of"],
    "readout.s11_spectrum": [
        "maicas:s11_spectrum", "maicas.readout:s11_spectrum",
        "maicas.scenarios:s11_spectrum"],
    "readout.add_noise": [
        "maicas:add_noise", "maicas.readout:add_noise",
        "maicas.scenarios:add_noise"],
    "dsp.extract_resonance": [
        "maicas:extract_resonance", "maicas.cli:extract_resonance",
        "maicas.dsp:extract_resonance", "maicas.scenarios:extract_resonance",
        "maicas.telemetry:extract_resonance"],
    "calibration.fit_linear": [
        "maicas:fit_linear", "maicas.calibration:fit_linear",
        "maicas.cli:fit_linear", "maicas.scenarios:fit_linear"],
    "calibration.invert": [
        "maicas:invert", "maicas.calibration:invert", "maicas.cli:invert",
        "maicas.telemetry:invert"],
    "scenarios.run_experiment": [
        "maicas:run_experiment", "maicas.cli:run_experiment",
        "maicas.scenarios:run_experiment"],
    "scenarios.resolve_coupling": ["maicas.scenarios:resolve_coupling"],
    "scenarios.fit_scenario_coupling": [
        "maicas:fit_scenario_coupling",
        "maicas.scenarios:fit_scenario_coupling"],
    "scenarios.export_sweeps": [
        "maicas.scenarios:ExperimentResult.export_sweeps"],
    "telemetry.record_from_frame": ["maicas.telemetry:record_from_frame"],
    "telemetry.calibration_id_of": ["maicas.telemetry:calibration_id_of"],
    "telemetry.decode_frame": [
        "maicas:decode_frame", "maicas.telemetry:decode_frame"],
    "telemetry.process_frames": ["maicas.telemetry:process_frames"],
    "telemetry.gateway": ["maicas:gateway", "maicas.telemetry:gateway"],
    "telemetry.read_frame": ["maicas.telemetry:read_frame"],
    "telemetry.read_log": ["maicas:read_log", "maicas.telemetry:read_log"],
    "sweepio.write_touchstone": [
        "maicas.scenarios:write_touchstone", "maicas.sweepio:write_touchstone"],
    "sweepio.write_csv": ["maicas.sweepio:write_csv"],
    "sweepio.read_touchstone": ["maicas.sweepio:read_touchstone"],
    "sweepio.read_csv": ["maicas.sweepio:read_csv"],
    "cli.main": ["maicas.cli:main"],
}

# Functions whose distinct return values are counted (useful work / calls).
DISTINCT = {"telemetry.calibration_id_of"}


def _split(binding: str):
    """(owner object, attribute name) of a "module:attr.path" binding."""
    module_name, path = binding.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def resolve(binding: str):
    owner, attr = _split(binding)
    return getattr(owner, attr)


def scan_bindings(function) -> list[str]:
    """Every module-level binding of a function object in the loaded maicas
    namespaces, plus class attributes for methods."""
    found = []
    for module_name, module in sorted(sys.modules.items()):
        if module_name != "maicas" and not module_name.startswith("maicas."):
            continue
        for attr, value in vars(module).items():
            if value is function:
                found.append(f"{module_name}:{attr}")
            elif (isinstance(value, type) and value.__module__ == module_name
                  and any(v is function for v in vars(value).values())):
                found += [f"{module_name}:{attr}.{a}"
                          for a, v in vars(value).items() if v is function]
    return found


class Tracer:
    """Records spans while installed. Parents follow the calling thread's
    stack of open spans."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.distinct: dict[str, set] = defaultdict(set)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._bindings: list[tuple] = []  # owner, attr, original, wrapper

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function):
        tracer = self
        distinct = name in DISTINCT

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(index)
            raised = True
            start = perf_counter_ns()
            try:
                result = function(*args, **kwargs)
                raised = False
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent, raised)
            if distinct:
                tracer.distinct[name].add(result)
            return result

        return traced

    def install(self) -> None:
        if not self._bindings:
            found = []
            for name, bindings in WRAPPED.items():
                original = resolve(bindings[0])
                wrapper = self.wrap(name, original)
                for binding in bindings:
                    owner, attr = _split(binding)
                    if getattr(owner, attr) is not original:
                        raise RuntimeError(f"{binding} is not the same "
                                           f"function as {bindings[0]}")
                    found.append((owner, attr, original, wrapper))
            self._bindings = found
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON array per span: name, start ns, end ns, parent index
        (-1 for a root), raised."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, raised, total and self time in seconds.

        Self time is a span's duration minus the part its children cover.
        Children of one span run on its thread one after another, so the
        part they cover is the sum of their durations.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, raised in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "raised": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, parent, raised), children in zip(self.spans, child_ns):
            entry = out[name]
            entry["calls"] += 1
            entry["raised"] += raised
            entry["total_s"] += (end - start) * 1e-9
            entry["self_s"] += (end - start - children) * 1e-9
        return out
